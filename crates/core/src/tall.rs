//! The tall-skinny QR front-end (ROADMAP item 3).
//!
//! The paper's one-sided Jacobi sweeps rotate full `m`-length columns at
//! every meeting: for `m ≫ n` nearly all memory bandwidth moves data a
//! one-sided preprocessing stage could shrink first. The front-end
//! factors `A = QR` with the TSQR tree of [`treesvd_matrix::qr`]
//! (Faverge–Langou–Robert–Dongarra, arXiv 1611.06892), runs the chosen
//! Jacobi driver on the small `n×n` factor `R`, and back-transforms
//!
//! ```text
//! R = U_R Σ Vᵀ   ⇒   A = QR = (Q·U_R) Σ Vᵀ,   so  U = Q·U_R
//! ```
//!
//! with a tiled apply-Q — `Q` is never formed. The crossover model: the
//! QR stage costs `≈ 2mn²` flops plus one streaming pass over `A` per
//! panel, while each Jacobi sweep streams `O(mn·log n)` words through
//! `O(n)` meetings; once `m/n` reaches
//! [`SvdOptions::qr_crossover`](crate::SvdOptions::qr_crossover) the
//! factorization pays for itself within the first sweep and every
//! subsequent sweep runs on an `n×n` working set. Correctness is aspect-
//! independent — `Q` has orthonormal columns, so `Σ` and `V` of `R` are
//! exactly those of `A`, and `U = Q·U_R` stays orthonormal even for
//! rank-deficient `R` (the inner driver completes `U_R` to a full
//! orthogonal basis).
//!
//! Wide inputs (`m < n`) reach this stage through the drivers' existing
//! transpose normalization: the front-end then runs on `Aᵀ` and the
//! caller swaps `U`/`V` back, so extreme aspect ratios are handled on
//! *both* sides.

use crate::options::{SvdError, SvdOptions};
use treesvd_matrix::qr::{Joiner, QrOptions, TsqrQr};
use treesvd_matrix::Matrix;
use treesvd_sim::par;

/// The [`Joiner`] that plugs the matrix crate's TSQR fork points into the
/// persistent worker pool ([`par::join_dyn`]).
pub(crate) struct PoolJoin;

impl Joiner for PoolJoin {
    fn fork(&self, a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        par::join_dyn(a, b);
    }
}

/// Whether the front-end engages for an `m × n` input (callers have
/// already normalized to `m ≥ n`): opted in, strictly tall, and past the
/// aspect-ratio crossover. The crossover is floored at 1 so a
/// pathological option value cannot make the square `R` stage re-enter.
pub(crate) fn engages(opts: &SvdOptions, m: usize, n: usize) -> bool {
    opts.qr_frontend && m > n && m as f64 >= opts.qr_crossover.max(1.0) * n as f64
}

/// The fork-lane budget for the QR stage: the explicit option, else the
/// machine parallelism (`TREESVD_THREADS` honored).
pub(crate) fn lanes(opts: &SvdOptions) -> usize {
    opts.threads.unwrap_or_else(par::num_threads).max(1)
}

/// Factor `a = QR` with the TSQR tree, parallelized over the worker pool.
pub(crate) fn factor(a: &Matrix, opts: &SvdOptions) -> Result<TsqrQr, SvdError> {
    let qr_opts = QrOptions { panel: opts.qr_panel.max(1), leaf_rows: 0, lanes: lanes(opts) };
    // the engage guard guarantees m > n, so the factorization cannot fail
    TsqrQr::factor(a, &qr_opts, &PoolJoin).map_err(|_| SvdError::EmptyMatrix)
}

/// Back-transform `U ← Q·[U_R; 0]` (an `m×n` product applied tile by
/// tile, never forming `Q`). `u_r` is the inner driver's `n×n` left
/// factor.
pub(crate) fn back_transform(qr: &TsqrQr, u_r: &Matrix, lanes: usize) -> Matrix {
    let (m, n) = (qr.rows(), qr.cols());
    debug_assert_eq!(u_r.shape(), (n, n));
    let mut u = Matrix::zeros(m, n).expect("frontend shapes are nonzero");
    for j in 0..n {
        u.col_mut(j)[..n].copy_from_slice(u_r.col(j));
    }
    qr.apply_q(&mut u, lanes, &PoolJoin);
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{blocked_svd, BlockedOptions, HestenesSvd, HierBlocking, SvdOptions};
    use treesvd_matrix::{checks, generate};

    fn fe_opts() -> SvdOptions {
        SvdOptions::default().with_qr_frontend(true)
    }

    fn assert_matches_direct(a: &Matrix, tol: f64) {
        let direct = HestenesSvd::new(SvdOptions::default()).compute(a).unwrap();
        let fe = HestenesSvd::new(fe_opts()).compute(a).unwrap();
        assert!(
            checks::spectrum_distance(&fe.svd.sigma, &direct.svd.sigma)
                < tol * direct.svd.sigma.first().copied().unwrap_or(1.0).max(1.0),
            "spectra diverge: {:?} vs {:?}",
            fe.svd.sigma,
            direct.svd.sigma
        );
        assert!(fe.svd.residual(a) < tol, "residual {}", fe.svd.residual(a));
        assert!(fe.svd.orthogonality() < tol, "orthogonality {}", fe.svd.orthogonality());
    }

    #[test]
    fn engage_rule_honors_crossover_and_shape() {
        let o = fe_opts();
        assert!(engages(&o, 128, 16)); // aspect 8 = default crossover
        assert!(!engages(&o, 127, 16));
        assert!(!engages(&o, 16, 16), "square inputs gain nothing");
        assert!(!engages(&SvdOptions::default(), 4096, 8), "front-end is opt-in");
        let o = fe_opts().with_qr_crossover(0.0);
        assert!(engages(&o, 17, 16), "crossover floors at 1 (strictly tall)");
        assert!(!engages(&o, 16, 16), "square stays direct even at crossover 0");
    }

    #[test]
    fn frontend_matches_direct_jacobi() {
        let a = generate::random_uniform(160, 12, 21);
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.qr_frontend, "the front-end must actually engage");
        assert_matches_direct(&a, 1e-9);
    }

    #[test]
    fn aspect_ratio_sweep() {
        // m/n ∈ {1, 8, 4096}: square skips the front-end, the others take it
        for (m, n, expect_fe) in [(24usize, 24usize, false), (96, 12, true), (8192, 2, true)] {
            let a = generate::random_uniform(m, n, (m ^ n) as u64);
            let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
            assert_eq!(run.qr_frontend, expect_fe, "{m}x{n}");
            assert!(run.svd.residual(&a) < 1e-9, "{m}x{n}: {}", run.svd.residual(&a));
            assert!(run.svd.orthogonality() < 1e-10, "{m}x{n}");
            assert!(checks::is_nonincreasing(&run.svd.sigma), "{m}x{n}");
        }
    }

    #[test]
    fn wide_input_routes_through_transposed_frontend() {
        // m < n: the driver transposes, the front-end engages on Aᵀ, and
        // the U/V swap restores A = UΣVᵀ
        let at = generate::with_singular_values(96, &[7.0, 3.0, 1.0, 0.25], 22);
        let a = at.transpose(); // 4 × 96
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.transposed && run.qr_frontend);
        let recon =
            checks::reconstruction_residual(&a.transpose(), &run.svd.v, &run.svd.sigma, &run.svd.u);
        assert!(recon < 1e-10, "residual {recon}");
        assert!(checks::spectrum_distance(&run.svd.sigma, &[7.0, 3.0, 1.0, 0.25]) < 1e-10);
    }

    #[test]
    fn rank_deficient_tall_input() {
        let a = generate::rank_deficient(200, 10, 4, 23);
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.qr_frontend);
        assert_eq!(run.svd.rank, 4);
        assert!(run.svd.orthogonality() < 1e-10, "U completion must survive Q");
        assert!(run.svd.residual(&a) < 1e-10);
    }

    #[test]
    fn known_spectrum_is_preserved_exactly_enough() {
        let sigma = [40.0, 8.0, 1.0, 1e-4];
        let tall = generate::with_singular_values(8, &sigma, 24);
        // embed the 8×4-spectrum matrix into a 512×4 tall one via QR-like
        // stacking: repeat the rows (scales the spectrum by sqrt(64))
        let mut a = Matrix::zeros(512, 4).unwrap();
        for j in 0..4 {
            let src = tall.col(j);
            for r in 0..64 {
                a.col_mut(j)[r * 8..(r + 1) * 8].copy_from_slice(src);
            }
        }
        let scale = 8.0; // sqrt(64)
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.qr_frontend);
        for (got, want) in run.svd.sigma.iter().zip(sigma.iter()) {
            assert!(
                (got - scale * want).abs() < 1e-9 * scale * sigma[0],
                "{got} vs {}",
                scale * want
            );
        }
    }

    #[test]
    fn every_driver_times_vectors_agrees() {
        let a = generate::random_uniform(144, 8, 25);
        let reference = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        for vectors in [true, false] {
            // simulated driver
            let sim = HestenesSvd::new(fe_opts().with_vectors(vectors)).compute(&a).unwrap();
            assert!(sim.qr_frontend, "vectors={vectors}");
            assert!(
                checks::spectrum_distance(&sim.svd.sigma, &reference.svd.sigma) < 1e-9,
                "sim vectors={vectors}"
            );
            // distributed driver
            let dist =
                HestenesSvd::new(fe_opts().with_vectors(vectors)).compute_distributed(&a).unwrap();
            assert!(dist.qr_frontend, "vectors={vectors}");
            assert!(
                checks::spectrum_distance(&dist.svd.sigma, &reference.svd.sigma) < 1e-9,
                "dist vectors={vectors}"
            );
            // blocked driver
            let mut bopts = BlockedOptions::for_processors(2);
            bopts.svd = fe_opts().with_vectors(vectors);
            let blk = blocked_svd(&a, &bopts).unwrap();
            assert!(blk.qr_frontend, "vectors={vectors}");
            assert!(
                checks::spectrum_distance(&blk.svd.sigma, &reference.svd.sigma) < 1e-9,
                "blocked vectors={vectors}"
            );
            if vectors {
                assert!(sim.svd.residual(&a) < 1e-9);
                assert!(dist.svd.residual(&a) < 1e-9);
                assert!(blk.svd.residual(&a) < 1e-9);
            }
        }
    }

    #[test]
    fn blocked_frontend_counts_allocs_and_stays_orthogonal() {
        let a = generate::random_uniform(512, 16, 26);
        let mut opts = BlockedOptions::for_processors(2);
        opts.svd = fe_opts().with_hier_blocking(HierBlocking::Off);
        let run = blocked_svd(&a, &opts).unwrap();
        assert!(run.qr_frontend);
        assert_eq!(run.steady_alloc_events, 0, "QR + blocked stage must be steady-state clean");
        assert!(run.svd.orthogonality() < 1e-10);
        assert!(run.svd.residual(&a) < 1e-9);
    }

    #[test]
    fn two_lane_pool_frontend_is_steady_state_clean() {
        // the 2-lane TSQR (two panels) through the worker pool, alone and
        // inside the blocked pipeline
        let a = generate::random_uniform(16384, 64, 28);
        let qr_opts = QrOptions { lanes: 2, ..QrOptions::default() };
        let qr = TsqrQr::factor(&a, &qr_opts, &PoolJoin).unwrap();
        assert_eq!(qr.stats().panels, 2);
        assert_eq!(qr.stats().steady_alloc_events, 0, "2-lane TSQR grew its arenas");
        let mut opts = BlockedOptions::for_processors(2);
        opts.svd = fe_opts().with_threads(Some(2));
        let run = blocked_svd(&a, &opts).unwrap();
        assert!(run.qr_frontend);
        assert_eq!(run.steady_alloc_events, 0, "2-lane front-end pipeline allocated");
    }

    #[test]
    fn frontend_below_crossover_is_bitwise_direct() {
        // an engaged-off run must be *identical* to the plain driver, not
        // just close: the option defaults cannot perturb existing results
        let a = generate::random_uniform(40, 16, 27);
        let direct = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        let fe = HestenesSvd::new(fe_opts()).compute(&a).unwrap(); // aspect 2.5 < 8
        assert!(!fe.qr_frontend);
        assert_eq!(direct.svd.sigma, fe.svd.sigma);
        assert_eq!(direct.svd.u, fe.svd.u);
        assert_eq!(direct.svd.v, fe.svd.v);
    }
}
