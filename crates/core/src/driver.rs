//! The paper's two Hestenes drivers: the simulated tree machine
//! ([`HestenesSvd::compute`]) and the thread-per-rank distributed
//! executor ([`HestenesSvd::compute_distributed`]).
//!
//! Each is only a sweep core: pad the column count to the ordering's
//! requirement with zero columns, distribute the columns, and sweep
//! until the paper's termination criterion holds (a complete sweep with
//! no rotation and no interchange). Shape handling, the QR front-end and
//! the extraction of `U`, `σ`, `V` in index order with rank handling are
//! the solve shell's (`shell.rs`), shared with the blocked driver.

use crate::options::{SvdError, SvdOptions};
use crate::result::Svd;
use crate::shell::{solve, Swept};
use treesvd_matrix::Matrix;
use treesvd_net::Topology;
use treesvd_orderings::{JacobiOrdering, OrderingError, OrderingKind};
use treesvd_sim::{
    execute_program_with_scratch, ColumnStore, ExecConfig, ExecScratch, HealthReport, Machine,
    SweepStats,
};

/// A completed SVD run: the decomposition plus everything the experiments
/// need to know about how it went.
#[derive(Debug)]
pub struct SvdRun {
    /// The decomposition (of the original, unpadded, untransposed matrix).
    pub svd: Svd,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Whether the termination criterion was met within `max_sweeps`.
    pub converged: bool,
    /// Per-sweep execution statistics (rotations, couplings, simulated
    /// times, contention).
    pub sweep_stats: Vec<SweepStats>,
    /// Total simulated machine time (compute + communication).
    pub simulated_time: f64,
    /// Whether the result was transposed back (input had `m < n`).
    pub transposed: bool,
    /// Padded column count actually used by the ordering.
    pub padded_n: usize,
    /// Exact off-diagonal measure before the first sweep and after each
    /// sweep (empty unless `track_off` was set).
    pub off_history: Vec<f64>,
    /// Recovery summary of a distributed run (injected faults, retries,
    /// restarts, ladder descents). `None` on the simulated path.
    pub health: Option<HealthReport>,
    /// Whether the tall-skinny QR front-end engaged: the sweeps ran on
    /// the `n×n` factor `R` and `U` was back-transformed through `Q`
    /// (see [`SvdOptions::qr_frontend`]).
    pub qr_frontend: bool,
}

impl SvdRun {
    /// Per-sweep maximum normalized couplings — the convergence trace
    /// (ultimately quadratic, §1).
    pub fn coupling_history(&self) -> Vec<f64> {
        self.sweep_stats.iter().map(|s| s.max_coupling).collect()
    }

    /// Total rotations applied across all sweeps.
    pub fn total_rotations(&self) -> usize {
        self.sweep_stats.iter().map(|s| s.rotations).sum()
    }
}

/// A Hestenes sweep core's statistics: sweeps, per-sweep statistics,
/// off-diagonal history (both simulated only) and the recovery summary
/// (distributed only).
type CoreStats = (usize, Vec<SweepStats>, Vec<f64>, Option<HealthReport>);

/// The parallel one-sided Jacobi SVD solver.
#[derive(Debug)]
pub struct HestenesSvd {
    options: SvdOptions,
}

impl HestenesSvd {
    /// Create a solver with the given options.
    pub fn new(options: SvdOptions) -> Self {
        Self { options }
    }

    /// Convenience: solver with default options and the given ordering.
    pub fn with_ordering(kind: OrderingKind) -> Self {
        Self::new(SvdOptions::default().with_ordering(kind))
    }

    /// Compute the SVD of `a`.
    ///
    /// Accepts any shape: wide matrices are transposed internally
    /// (`A = UΣVᵀ ⇔ Aᵀ = VΣUᵀ`), and the column count is padded with zero
    /// columns up to the ordering's size requirement (even, or a power of
    /// two for the tree orderings); padding contributes exact zero
    /// singular values that are stripped before returning.
    ///
    /// # Errors
    /// [`SvdError::EmptyMatrix`] for degenerate shapes,
    /// [`SvdError::Ordering`] if no padded size suits the ordering, and
    /// [`SvdError::NoConvergence`] if `max_sweeps` is exhausted.
    pub fn compute(&self, a: &Matrix) -> Result<SvdRun, SvdError> {
        self.run(a, |w| self.sweep_simulated(w))
    }

    /// Run a sweep core inside the solve shell and report it.
    fn run(
        &self,
        a: &Matrix,
        core: impl FnOnce(&Matrix) -> Swept<CoreStats, ColumnStore>,
    ) -> Result<SvdRun, SvdError> {
        let run = solve(a, &self.options, core)?;
        let (sweeps, sweep_stats, off_history, health) = run.stats;
        Ok(SvdRun {
            svd: run.svd,
            sweeps,
            converged: true,
            simulated_time: sweep_stats.iter().map(SweepStats::total_time).sum(),
            sweep_stats,
            transposed: run.transposed,
            padded_n: run.padded_n,
            off_history,
            health,
            qr_frontend: run.qr.is_some(),
        })
    }

    /// Build the ordering and, when `verify_schedule` is set, gate it
    /// through the static schedule verifier before any matrix data is
    /// touched. With a certificate cache configured, a warm run consumes
    /// the cached [`ProofCertificate`](treesvd_analyze::ProofCertificate)
    /// — witness validation instead of re-proving; mismatch on a matching
    /// key is a hard error, version skew silently re-proves.
    fn checked_ordering(&self, n_padded: usize) -> Result<Box<dyn JacobiOrdering>, SvdError> {
        let ordering = self.options.ordering.build(n_padded)?;
        if self.options.verify_schedule {
            match &self.options.certificate_cache {
                Some(cache) => {
                    cache.verify_or_prove(
                        ordering.as_ref(),
                        &treesvd_analyze::AnalysisOptions::default(),
                        true,
                        true,
                    )?;
                }
                None => treesvd_analyze::verify_ordering_schedule(ordering.as_ref())?,
            }
        }
        Ok(ordering)
    }

    /// The padded size for `n` columns: the smallest size ≥ max(n, 4) the
    /// ordering accepts (try even sizes, then powers of two).
    fn padded_size(&self, n: usize) -> Result<usize, OrderingError> {
        let start = n.max(4);
        // even candidate
        let even = start + start % 2;
        if self.options.ordering.build(even).is_ok() {
            return Ok(even);
        }
        let pow2 = start.next_power_of_two();
        self.options.ordering.build(pow2).map(|_| pow2)
    }

    /// The working matrix's columns in label order, padded with zero
    /// columns to `n_pad`.
    fn padded_columns(a: &Matrix, n_pad: usize) -> Vec<Vec<f64>> {
        let mut columns: Vec<Vec<f64>> = (0..a.cols()).map(|j| a.col(j).to_vec()).collect();
        columns.resize(n_pad, vec![0.0; a.rows()]);
        columns
    }

    /// The executor settings both cores share.
    fn exec_config(&self, n_pad: usize, cached_norms: bool) -> ExecConfig {
        ExecConfig {
            threshold: self.options.threshold.unwrap_or(n_pad as f64 * f64::EPSILON),
            sort: self.options.sort,
            cached_norms,
            serial_cutoff: self.options.serial_cutoff,
            threads: self.options.threads.unwrap_or(0),
        }
    }

    /// The simulated machine's sweep core: per-sweep statistics and the
    /// off-diagonal history, plus the converged store.
    fn sweep_simulated(&self, a: &Matrix) -> Swept<CoreStats, ColumnStore> {
        let n_pad = self.padded_size(a.cols())?;
        let ordering = self.checked_ordering(n_pad)?;
        let mut store =
            ColumnStore::from_columns(Self::padded_columns(a, n_pad), self.options.vectors);

        // ring orderings accept any even n, so the processor count may not
        // be a power of two; embed the processors in the smallest complete
        // binary tree that holds them (extra leaves stay idle)
        let leaves = (n_pad / 2).next_power_of_two().max(2);
        let machine = Machine::new(Topology::new(self.options.topology, leaves), self.options.cost);
        let config = self.exec_config(n_pad, self.options.cached_norms);

        // the layout cycle repeats with the ordering's restore period, so
        // the sweep programs can be generated once and reused
        let period = ordering.restore_period().max(1);
        let cached_programs = ordering.programs(period);

        let threads = self.options.threads.unwrap_or(0);
        let mut sweep_stats: Vec<SweepStats> = Vec::new();
        let mut off_history: Vec<f64> = Vec::new();
        if self.options.track_off {
            off_history.push(treesvd_sim::off_measure_limited(&store, threads));
        }
        // one scratch for the whole run: after the first step of the first
        // sweep the executor allocates nothing per step
        let mut scratch = ExecScratch::new();
        for k in 0..self.options.max_sweeps {
            let prog = &cached_programs[k % period];
            debug_assert_eq!(store.layout, prog.initial_layout, "layout cycle broken");
            let stats =
                execute_program_with_scratch(&machine, prog, &mut store, &config, &mut scratch);
            if self.options.track_off {
                off_history.push(treesvd_sim::off_measure_limited(&store, threads));
            }
            let done = stats.is_converged();
            sweep_stats.push(stats);
            if done {
                return Ok(((sweep_stats.len(), sweep_stats, off_history, None), store));
            }
        }
        Err(SvdError::NoConvergence {
            sweeps: sweep_stats.len(),
            last_coupling: sweep_stats.last().map_or(f64::NAN, |s| s.max_coupling),
        })
    }

    /// Compute the SVD by the *distributed* executor: one thread per
    /// processor exchanging columns through `treesvd-comm` (the CMMD-style
    /// message-passing path), instead of the synchronous simulated machine.
    ///
    /// Numerically identical to [`HestenesSvd::compute`] (the executors are
    /// bitwise-equivalent); no simulated timing is produced, so
    /// `simulated_time` is 0 and `sweep_stats` is empty.
    ///
    /// With [`SvdOptions::chaos`] and/or [`SvdOptions::fault_policy`] set,
    /// the executor runs under seeded fault injection with the recovery
    /// layer armed (retry + redelivery, checkpoint restarts, degradation
    /// ladder); every absorbed fault leaves the result bitwise unchanged,
    /// and what recovery did is reported in [`SvdRun::health`].
    ///
    /// # Errors
    /// As [`HestenesSvd::compute`], plus [`SvdError::Unrecoverable`] when
    /// the executor fails past its recovery budget — carrying the failing
    /// rank, sweep, step, and message context.
    pub fn compute_distributed(&self, a: &Matrix) -> Result<SvdRun, SvdError> {
        self.run(a, |w| self.sweep_distributed(w))
    }

    /// The distributed executor's sweep core: the sweep count and the
    /// recovery summary, plus the converged store.
    fn sweep_distributed(&self, a: &Matrix) -> Swept<CoreStats, ColumnStore> {
        let (m, n) = a.shape();
        let n_pad = self.padded_size(n)?;
        let ordering = self.checked_ordering(n_pad)?;
        // Overlap: honor an explicit pin; otherwise ask the calibrated
        // cost model (which turns it off where the zero-copy transport
        // leaves nothing to hide — the recorded small-P regression). The
        // executor still engages overlap only behind the analyzer's
        // deadlock-freedom proof; results are bitwise-identical either way.
        let overlap = self.options.overlap.unwrap_or_else(|| {
            treesvd_tune::advise_overlap(m, n_pad, self.options.vectors, self.options.topology)
        });
        let dist_cfg = treesvd_sim::DistConfig {
            // the distributed path keeps the reference kernel
            exec: self.exec_config(n_pad, false),
            max_sweeps: self.options.max_sweeps,
            overlap,
            policy: self.options.effective_policy(),
            fault: self.options.chaos.clone(),
            cert_cache: self.options.certificate_cache.clone(),
        };
        let outcome = treesvd_sim::distributed_svd_with(
            ordering.as_ref(),
            Self::padded_columns(a, n_pad),
            self.options.vectors,
            &dist_cfg,
        )?;
        if !outcome.converged {
            return Err(SvdError::NoConvergence {
                sweeps: outcome.sweeps,
                last_coupling: f64::NAN,
            });
        }
        let store = ColumnStore { slots: outcome.slots, layout: outcome.layout };
        Ok(((outcome.sweeps, Vec::new(), Vec::new(), Some(outcome.health)), store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::OrderingChoice;
    use treesvd_matrix::{checks, generate};
    use treesvd_orderings::OrderingKind;
    use treesvd_sim::SortMode;

    fn assert_good_svd(a: &Matrix, run: &SvdRun, tol: f64) {
        assert!(run.converged);
        let svd = &run.svd;
        assert!(svd.residual(a) < tol, "residual {}", svd.residual(a));
        assert!(svd.orthogonality() < tol, "orthogonality {}", svd.orthogonality());
        assert!(checks::is_nonincreasing(&svd.sigma), "sigma not sorted: {:?}", svd.sigma);
    }

    #[test]
    fn default_solver_on_random_matrix() {
        let a = generate::random_uniform(20, 16, 1);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_good_svd(&a, &run, 1e-11);
    }

    #[test]
    fn known_spectrum_recovered() {
        let sigma = [9.0, 4.0, 2.0, 1.0, 0.25];
        let a = generate::with_singular_values(12, &sigma, 2);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-10);
    }

    #[test]
    fn verified_schedule_accepts_builtin_and_rejects_corrupt() {
        use treesvd_orderings::{PairStep, Permutation, Program};

        let a = generate::random_uniform(12, 8, 5);
        // all built-in orderings pass the pre-flight verifier
        let run =
            HestenesSvd::new(SvdOptions::default().with_verify_schedule(true)).compute(&a).unwrap();
        assert_good_svd(&a, &run, 1e-11);

        // a custom ordering that stalls on its first pairing is rejected
        // before any matrix data is touched
        struct Stalled(usize);
        impl JacobiOrdering for Stalled {
            fn n(&self) -> usize {
                self.0
            }
            fn name(&self) -> String {
                "stalled".into()
            }
            fn restore_period(&self) -> usize {
                1
            }
            fn sweep_program(&self, _sweep: usize, layout: &[usize]) -> Program {
                Program {
                    n: self.0,
                    initial_layout: layout.to_vec(),
                    steps: vec![PairStep { move_after: Permutation::identity(self.0) }; self.0 - 1],
                }
            }
        }
        let options = SvdOptions {
            ordering: OrderingChoice::Custom(Box::new(|n| {
                Ok(Box::new(Stalled(n)) as Box<dyn JacobiOrdering>)
            })),
            ..SvdOptions::default()
        }
        .with_verify_schedule(true);
        match HestenesSvd::new(options).compute(&a) {
            Err(SvdError::Schedule(v)) => {
                assert!(v.to_string().contains("step"), "diagnostic not step-precise: {v}");
            }
            other => panic!("expected SvdError::Schedule, got {other:?}"),
        }
    }

    #[test]
    fn every_ordering_computes_the_same_svd() {
        let sigma = [8.0, 5.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.25];
        let a = generate::with_singular_values(16, &sigma, 3);
        for kind in OrderingKind::ALL {
            let run = HestenesSvd::with_ordering(kind).compute(&a).unwrap();
            assert_good_svd(&a, &run, 1e-10);
            assert!(
                checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-9,
                "{kind}: {:?}",
                run.svd.sigma
            );
        }
    }

    #[test]
    fn wide_matrix_transposed_internally() {
        let at = generate::with_singular_values(10, &[4.0, 2.0, 1.0], 4);
        let a = at.transpose(); // 3 x 10
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(run.transposed);
        let svd = &run.svd;
        assert_eq!(svd.sigma.len(), 3);
        // Aᵀ = (V) Σ (U)ᵀ reconstructs, hence A = U Σ Vᵀ with the swap
        let recon = checks::reconstruction_residual(&a.transpose(), &svd.v, &svd.sigma, &svd.u);
        assert!(recon < 1e-11, "residual {recon}");
    }

    #[test]
    fn odd_and_non_power_sizes_padded() {
        // 7 columns with the fat-tree ordering: pads to 8
        let a = generate::random_uniform(9, 7, 5);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_eq!(run.padded_n, 8);
        assert_good_svd(&a, &run, 1e-11);
        assert_eq!(run.svd.sigma.len(), 7);

        // 10 columns with a ring ordering: even already, no padding needed
        let a = generate::random_uniform(12, 10, 6);
        let run = HestenesSvd::with_ordering(OrderingKind::NewRing).compute(&a).unwrap();
        assert_eq!(run.padded_n, 10);
        assert_good_svd(&a, &run, 1e-11);
    }

    #[test]
    fn rank_deficient_matrix() {
        let a = generate::rank_deficient(10, 6, 3, 7);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_eq!(run.svd.rank, 3);
        assert_good_svd(&a, &run, 1e-10);
        for &s in &run.svd.sigma[3..] {
            assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn already_orthogonal_converges_in_low_sweeps() {
        let a = generate::already_orthogonal(12, 8, 8);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        // norms are 1..8 ascending by label: sorting must reverse them,
        // which costs extra sweeps but must still converge quickly
        assert!(run.sweeps <= 6, "sweeps {}", run.sweeps);
        assert!(checks::is_nonincreasing(&run.svd.sigma));
    }

    #[test]
    fn no_vectors_mode_skips_v() {
        let a = generate::random_uniform(10, 8, 9);
        let run = HestenesSvd::new(SvdOptions::default().with_vectors(false)).compute(&a).unwrap();
        assert!(run.converged);
        // sigma still correct vs a full run
        let full = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(checks::spectrum_distance(&run.svd.sigma, &full.svd.sigma) < 1e-10);
    }

    #[test]
    fn ill_conditioned_graded_matrix() {
        let a = generate::graded(24, 16, 1e-8, 10);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(run.converged);
        assert!(run.svd.residual(&a) < 1e-10);
        // the small singular values are still resolved relatively well —
        // one-sided Jacobi's high relative accuracy
        let expect: Vec<f64> = (0..16).map(|k| 1e-8_f64.powf(k as f64 / 15.0)).collect();
        let mut sorted = expect.clone();
        sorted.sort_by(|x, y| y.partial_cmp(x).unwrap());
        for (c, e) in run.svd.sigma.iter().zip(sorted.iter()) {
            assert!((c - e).abs() <= 1e-6 * e.max(1e-12), "{c} vs {e}");
        }
    }

    #[test]
    fn hilbert_matrix() {
        let a = generate::hilbert(10, 8);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_good_svd(&a, &run, 1e-10);
    }

    #[test]
    fn unsorted_mode_still_correct() {
        let a = generate::random_uniform(12, 8, 11);
        let run =
            HestenesSvd::new(SvdOptions::default().with_sort(SortMode::None)).compute(&a).unwrap();
        assert!(run.converged);
        assert!(run.svd.residual(&a) < 1e-11);
        // not necessarily sorted in this mode — but the multiset matches
        let sorted_run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        let mut ours = run.svd.sigma.clone();
        ours.sort_by(|x, y| y.partial_cmp(x).unwrap());
        assert!(checks::spectrum_distance(&ours, &sorted_run.svd.sigma) < 1e-10);
    }

    #[test]
    fn zero_matrix_all_zero_sigma() {
        let a = Matrix::zeros(6, 4).unwrap();
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_eq!(run.svd.rank, 0);
        assert!(run.svd.sigma.iter().all(|&s| s == 0.0));
        assert!(run.svd.orthogonality() < 1e-12);
    }

    #[test]
    fn simulated_time_positive_and_history_recorded() {
        let a = generate::random_uniform(16, 8, 12);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(run.simulated_time > 0.0);
        let hist = run.coupling_history();
        assert_eq!(hist.len(), run.sweeps);
        assert!(run.total_rotations() > 0);
        // couplings decay (ultimately quadratically)
        assert!(hist.last().unwrap() < &1e-7);
    }
}

#[cfg(test)]
mod distributed_tests {
    use super::*;
    use crate::options::SvdOptions;
    use treesvd_matrix::{checks, generate};
    use treesvd_orderings::OrderingKind;

    #[test]
    fn distributed_driver_matches_simulated_driver() {
        let a = generate::random_uniform(20, 12, 31);
        let solver = HestenesSvd::new(SvdOptions::default());
        let sim = solver.compute(&a).unwrap();
        let dist = solver.compute_distributed(&a).unwrap();
        assert_eq!(sim.sweeps, dist.sweeps);
        assert_eq!(sim.svd.sigma, dist.svd.sigma, "bitwise-identical spectra expected");
        assert!(dist.svd.residual(&a) < 1e-11);
        assert!(dist.svd.orthogonality() < 1e-11);
    }

    #[test]
    fn distributed_driver_all_orderings() {
        let a = generate::random_uniform(16, 8, 32);
        for kind in OrderingKind::ALL {
            let run = HestenesSvd::with_ordering(kind).compute_distributed(&a).unwrap();
            assert!(run.converged, "{kind}");
            assert!(run.svd.residual(&a) < 1e-10, "{kind}");
            assert!(checks::is_nonincreasing(&run.svd.sigma), "{kind}");
        }
    }

    #[test]
    fn overlap_option_is_bitwise_invisible() {
        let a = generate::random_uniform(18, 8, 34);
        let on = HestenesSvd::new(SvdOptions::default().with_overlap(true))
            .compute_distributed(&a)
            .unwrap();
        let off = HestenesSvd::new(SvdOptions::default().with_overlap(false))
            .compute_distributed(&a)
            .unwrap();
        assert_eq!(on.sweeps, off.sweeps);
        assert_eq!(on.svd.sigma, off.svd.sigma);
        assert_eq!(on.svd.u, off.svd.u);
        assert_eq!(on.svd.v, off.svd.v);
    }

    #[test]
    fn warm_certificate_run_skips_prover_and_is_bitwise_identical() {
        let a = generate::random_uniform(18, 8, 36);
        let cache = std::sync::Arc::new(treesvd_analyze::CertificateCache::new());
        let opts = || {
            SvdOptions::default()
                .with_verify_schedule(true)
                .with_certificate_cache(std::sync::Arc::clone(&cache))
        };
        // cold: the provers run and emit the certificate
        let cold = HestenesSvd::new(opts()).compute_distributed(&a).unwrap();
        assert_eq!(cache.hits(), 0, "first run must prove from scratch");
        let cold_misses = cache.misses();
        assert!(cold_misses > 0);
        // warm: served from the validated certificate, bitwise identical
        let warm = HestenesSvd::new(opts()).compute_distributed(&a).unwrap();
        assert!(cache.hits() > 0, "warm run must consume the certificate");
        assert_eq!(cache.misses(), cold_misses, "warm run must not re-prove");
        assert_eq!(cold.sweeps, warm.sweeps);
        assert_eq!(cold.svd.sigma, warm.svd.sigma);
        assert_eq!(cold.svd.u, warm.svd.u);
        assert_eq!(cold.svd.v, warm.svd.v);
        // a certificate-free run stays bitwise identical too
        let bare = HestenesSvd::new(SvdOptions::default()).compute_distributed(&a).unwrap();
        assert_eq!(bare.svd.sigma, warm.svd.sigma);
    }

    #[test]
    fn distributed_driver_wide_input() {
        let at = generate::with_singular_values(10, &[3.0, 2.0, 1.0, 0.5], 33);
        let a = at.transpose();
        let run = HestenesSvd::new(SvdOptions::default()).compute_distributed(&a).unwrap();
        assert!(run.transposed);
        let recon =
            checks::reconstruction_residual(&a.transpose(), &run.svd.v, &run.svd.sigma, &run.svd.u);
        assert!(recon < 1e-11);
    }

    #[test]
    fn chaos_run_is_bitwise_identical_and_reports_health() {
        let a = generate::random_uniform(16, 8, 35);
        let clean = HestenesSvd::new(SvdOptions::default()).compute_distributed(&a).unwrap();
        let health = clean.health.as_ref().expect("distributed runs report health");
        assert!(!health.degraded(), "clean run must need no recovery");
        let chaotic =
            HestenesSvd::new(SvdOptions::default().with_chaos(13)).compute_distributed(&a).unwrap();
        assert_eq!(clean.svd.sigma, chaotic.svd.sigma, "absorbed faults must be bitwise-invisible");
        assert_eq!(clean.svd.u, chaotic.svd.u);
        assert_eq!(clean.svd.v, chaotic.svd.v);
        let health = chaotic.health.expect("chaos run reports health");
        assert!(health.faults.injected() > 0, "the seeded plan must actually fire");
    }
}

#[cfg(test)]
mod off_tracking_tests {
    use super::*;
    use crate::options::SvdOptions;
    use treesvd_matrix::generate;

    #[test]
    fn off_history_decays_quadratically() {
        let a = generate::random_uniform(32, 16, 41);
        let run = HestenesSvd::new(SvdOptions::default().with_track_off(true)).compute(&a).unwrap();
        let h = &run.off_history;
        assert_eq!(h.len(), run.sweeps + 1);
        // strictly decreasing until roundoff
        for w in h.windows(2) {
            assert!(w[1] <= w[0] * 1.0000001, "off increased: {:?}", h);
        }
        // the tail contraction is at least quadratic-ish: once off is small
        // relative to ||A||^2, one more sweep crushes it
        let f2 = a.frobenius_norm().powi(2);
        if let Some(idx) = h.iter().position(|&x| x / f2 < 1e-3) {
            if idx + 1 < h.len() {
                assert!(
                    h[idx + 1] / f2 <= 1e-5,
                    "weak contraction: {:e} -> {:e}",
                    h[idx] / f2,
                    h[idx + 1] / f2
                );
            }
        }
    }

    #[test]
    fn off_history_empty_by_default() {
        let a = generate::random_uniform(10, 8, 42);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(run.off_history.is_empty());
    }

    #[test]
    fn cached_programs_change_nothing() {
        // sweeps and spectra agree with the sequential reference, which
        // regenerates nothing — guarding the period-based program cache
        let a = generate::random_uniform(24, 16, 43);
        for kind in [OrderingKind::NewRing, OrderingKind::Llb, OrderingKind::Hybrid] {
            let run = HestenesSvd::with_ordering(kind).compute(&a).unwrap();
            let seq = crate::sequential::sequential_svd(&a, 60).unwrap();
            assert!(
                treesvd_matrix::checks::spectrum_distance(&run.svd.sigma, &seq.svd.sigma) < 1e-9,
                "{kind}"
            );
        }
    }
}
