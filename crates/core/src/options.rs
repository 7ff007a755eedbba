//! Configuration for the parallel Hestenes SVD.

use std::fmt;
use treesvd_net::{CostModel, TopologyKind};
use treesvd_orderings::{JacobiOrdering, OrderingError, OrderingKind};
use treesvd_sim::{DistError, FaultPlan, FaultPolicy, SortMode};

/// A caller-supplied ordering factory: given the padded column count,
/// produce the ordering.
pub type OrderingFactory =
    Box<dyn Fn(usize) -> Result<Box<dyn JacobiOrdering>, OrderingError> + Send + Sync>;

/// Which Jacobi ordering drives the sweeps.
pub enum OrderingChoice {
    /// One of the built-in orderings, instantiated for the (padded) size.
    Kind(OrderingKind),
    /// A caller-supplied ordering factory.
    Custom(OrderingFactory),
}

impl OrderingChoice {
    /// Instantiate the ordering for `n` (padded) columns.
    pub(crate) fn build(&self, n: usize) -> Result<Box<dyn JacobiOrdering>, OrderingError> {
        match self {
            OrderingChoice::Kind(k) => k.build(n),
            OrderingChoice::Custom(f) => f(n),
        }
    }
}

impl fmt::Debug for OrderingChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingChoice::Kind(k) => write!(f, "OrderingChoice::Kind({k})"),
            OrderingChoice::Custom(_) => write!(f, "OrderingChoice::Custom(..)"),
        }
    }
}

impl Clone for OrderingChoice {
    fn clone(&self) -> Self {
        match self {
            OrderingChoice::Kind(k) => OrderingChoice::Kind(*k),
            OrderingChoice::Custom(_) => {
                panic!("custom ordering choices cannot be cloned; use OrderingChoice::Kind")
            }
        }
    }
}

/// Which meeting kernel the blocked (Schreiber) driver uses when two
/// column blocks meet on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockKernel {
    /// Orthogonalize the `2c`-column union one pair at a time with
    /// [`orthogonalize_pair`](treesvd_matrix::orthogonalize_pair),
    /// streaming full `m`-length columns O(c²) times. The reference
    /// (oracle) path.
    Pairwise,
    /// Block one-sided Jacobi: form the `2c×2c` Gram matrix
    /// `G = [X Y]ᵀ[X Y]`, run the cyclic sweep with sorted storage on `G`
    /// in-cache while accumulating the orthogonal update `W`, then apply
    /// `[X Y] ← [X Y]·W` as one blocked panel multiply — BLAS-3-shaped
    /// work that reads the panel O(1) times per meeting instead of O(c).
    #[default]
    Gram,
}

impl fmt::Display for BlockKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockKernel::Pairwise => write!(f, "pairwise"),
            BlockKernel::Gram => write!(f, "gram"),
        }
    }
}

/// Outer (cache-level) blocking of the blocked driver's Gram meetings.
///
/// A meeting's union panel is `m × 2c` doubles; once it outgrows the L2
/// cache the Gram sweep re-reads every column from DRAM and the kernel's
/// advantage collapses (the `c = 32` falloff in `BENCH_blocked.json`).
/// Hierarchical blocking splits such a union into cache-sized sub-blocks
/// and cycles the in-cache Gram kernel over all sub-block pairs —
/// Novaković's multi-level scheme (arXiv 1401.2720) grafted onto the
/// paper's tree ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HierBlocking {
    /// Engage automatically when a union panel outgrows a quarter of the
    /// probed L2 size ([`treesvd_matrix::cache::l2_bytes`], overridable
    /// via `TREESVD_L2`).
    #[default]
    Auto,
    /// Never split meetings (the pre-hierarchical behavior).
    Off,
    /// Engage when the union column count exceeds this width; sub-blocks
    /// are half this wide.
    Cols(usize),
}

impl fmt::Display for HierBlocking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierBlocking::Auto => write!(f, "auto"),
            HierBlocking::Off => write!(f, "off"),
            HierBlocking::Cols(c) => write!(f, "{c}"),
        }
    }
}

/// Options for [`HestenesSvd`](crate::HestenesSvd).
#[derive(Debug)]
pub struct SvdOptions {
    /// The parallel Jacobi ordering (default: the paper's fat-tree
    /// ordering).
    pub ordering: OrderingChoice,
    /// The simulated machine's topology (default: perfect binary fat-tree).
    pub topology: TopologyKind,
    /// Cost-model parameters for the simulated timing.
    pub cost: CostModel,
    /// Pair threshold, relative to the column norms; `None` derives
    /// `n · ε` from the (padded) size, the classical choice.
    pub threshold: Option<f64>,
    /// Hard cap on sweeps (the iteration normally terminates much earlier;
    /// convergence is ultimately quadratic, §1).
    pub max_sweeps: usize,
    /// Sorting behaviour (default: descending singular values, §3.2.1).
    pub sort: SortMode,
    /// Whether to accumulate `V` and produce singular vectors. Turning
    /// this off roughly halves memory traffic when only `Σ` is needed.
    pub vectors: bool,
    /// Record the exact off-diagonal measure before the first sweep and
    /// after every sweep (O(n²m) per sweep — instrumentation only).
    pub track_off: bool,
    /// Use the cached-column-norms fast path (the classical Hestenes
    /// optimization; ~30% fewer flops per rotation, last-ulp differences
    /// from the reference path possible).
    pub cached_norms: bool,
    /// Adaptive dispatch cutoff forwarded to the executor
    /// ([`treesvd_sim::ExecConfig::serial_cutoff`]): per-step work (in
    /// data words) below which rotations run serially instead of forking
    /// host threads.
    pub serial_cutoff: usize,
    /// Statically verify the ordering's schedule (ownership safety, pair
    /// coverage, order restoration, deadlock freedom) with
    /// `treesvd-analyze` before touching matrix data, rejecting the run
    /// with [`SvdError::Schedule`] on a violation. Cheap (combinatorial in
    /// `n`, independent of `m`); mainly valuable with
    /// [`OrderingChoice::Custom`].
    pub verify_schedule: bool,
    /// Meeting kernel for the blocked (Schreiber) driver
    /// ([`blocked_svd`](crate::blocked_svd)); ignored by the unblocked
    /// driver. Default: [`BlockKernel::Gram`].
    pub block_kernel: BlockKernel,
    /// Communication/computation overlap in the distributed executor
    /// ([`HestenesSvd::compute_distributed`](crate::HestenesSvd::compute_distributed)):
    /// ship a rotated data column as soon as its A-phase completes and
    /// defer each arrival to its point of use one step later. Only takes
    /// effect after `treesvd-analyze` proves the overlapped plan
    /// deadlock-free for the ordering; bitwise-identical results either
    /// way. Default: `None` — the driver consults the calibrated cost
    /// model ([`treesvd_tune::advise_overlap`]), which turns overlap
    /// *off* where the zero-copy transport leaves it nothing to hide
    /// (the recorded small-P regression in `BENCH_distributed.json`).
    /// `Some(_)` pins the choice.
    pub overlap: Option<bool>,
    /// Host-thread budget: caps the fork lanes used by the executor, the
    /// blocked driver, and `off_measure`. `None` uses
    /// [`par::num_threads`](treesvd_sim::par::num_threads) (which honors
    /// the `TREESVD_THREADS` environment variable).
    pub threads: Option<usize>,
    /// Recovery policy for the distributed executor: receive windows,
    /// retries with backoff, sweep-boundary checkpoints, whole-world
    /// restarts, and the degradation ladder. `None` uses
    /// [`FaultPolicy::default`] (pre-recovery behavior: a 5 s window and
    /// fail-fast on the first timeout), unless [`SvdOptions::chaos`] is
    /// armed, in which case [`FaultPolicy::chaos`] is the baseline.
    pub fault_policy: Option<FaultPolicy>,
    /// Seeded deterministic fault plan for the distributed executor
    /// (chaos testing). Replayable: the same seed injects the identical
    /// fault sequence. Ignored by the simulated/sequential paths.
    pub chaos: Option<FaultPlan>,
    /// Proof-certificate cache shared with the schedule verifier and the
    /// distributed executor's overlap/recovery gate. When set, a repeat
    /// run over the same `(ordering, n)` consumes the cached
    /// [`ProofCertificate`](treesvd_analyze::ProofCertificate) — witness
    /// validation in O(plan) instead of re-running the provers — with
    /// identical results either way. A matching certificate that fails
    /// validation is a hard error; a version-skewed one silently
    /// re-proves and refreshes the cache. `None` re-proves every run.
    pub certificate_cache: Option<std::sync::Arc<treesvd_analyze::CertificateCache>>,
    /// Tall-skinny QR front-end: when the aspect ratio `m/n` reaches
    /// [`SvdOptions::qr_crossover`], factor `A = QR` with the TSQR tree
    /// ([`treesvd_matrix::qr`]), run the Jacobi driver on the `n×n`
    /// factor `R`, and back-transform `U ← Q·U_R` without ever forming
    /// `Q`. Wide inputs (`m < n`) go through the same path on `Aᵀ`.
    /// Default `false` (bitwise-identical to the pre-front-end drivers).
    pub qr_frontend: bool,
    /// Aspect-ratio crossover for the front-end: engage when
    /// `m ≥ qr_crossover · n`. The QR stage costs `≈ 2mn²` flops and the
    /// back-transform `≈ 2mn·k`, versus Jacobi sweeps that stream
    /// `O(mn·log n)` words per sweep — the break-even sits near 4–8 on
    /// bandwidth-bound machines, so the default is 8.
    pub qr_crossover: f64,
    /// Panel width (compact-WY block size) of the front-end's tiled QR.
    pub qr_panel: usize,
    /// Outer cache-level blocking of the blocked driver's meetings.
    pub hier: HierBlocking,
}

impl Default for SvdOptions {
    fn default() -> Self {
        Self {
            ordering: OrderingChoice::Kind(OrderingKind::FatTree),
            topology: TopologyKind::PerfectFatTree,
            cost: CostModel::default(),
            threshold: None,
            max_sweeps: 60,
            sort: SortMode::Descending,
            vectors: true,
            track_off: false,
            cached_norms: false,
            serial_cutoff: treesvd_sim::ExecConfig::DEFAULT_SERIAL_CUTOFF,
            verify_schedule: false,
            block_kernel: BlockKernel::default(),
            overlap: None,
            threads: None,
            fault_policy: None,
            chaos: None,
            certificate_cache: None,
            qr_frontend: false,
            qr_crossover: 8.0,
            qr_panel: 32,
            hier: HierBlocking::default(),
        }
    }
}

impl SvdOptions {
    /// Use the given built-in ordering.
    pub fn with_ordering(mut self, kind: OrderingKind) -> Self {
        self.ordering = OrderingChoice::Kind(kind);
        self
    }

    /// Use the given topology.
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Set the sweep cap.
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Set the sort mode.
    pub fn with_sort(mut self, sort: SortMode) -> Self {
        self.sort = sort;
        self
    }

    /// Enable or disable singular-vector accumulation.
    pub fn with_vectors(mut self, vectors: bool) -> Self {
        self.vectors = vectors;
        self
    }

    /// Enable exact off-diagonal tracking (instrumentation).
    pub fn with_track_off(mut self, track_off: bool) -> Self {
        self.track_off = track_off;
        self
    }

    /// Enable the cached-norms fast path.
    pub fn with_cached_norms(mut self, cached: bool) -> Self {
        self.cached_norms = cached;
        self
    }

    /// Set the executor's serial-dispatch cutoff (`0` always forks,
    /// `usize::MAX` always runs serially).
    pub fn with_serial_cutoff(mut self, serial_cutoff: usize) -> Self {
        self.serial_cutoff = serial_cutoff;
        self
    }

    /// Require the schedule to pass static verification before execution.
    pub fn with_verify_schedule(mut self, verify: bool) -> Self {
        self.verify_schedule = verify;
        self
    }

    /// Select the blocked driver's meeting kernel.
    pub fn with_block_kernel(mut self, kernel: BlockKernel) -> Self {
        self.block_kernel = kernel;
        self
    }

    /// Pin comm/compute overlap in the distributed executor on or off
    /// (the default, unpinned, lets the calibrated cost model decide per
    /// problem).
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = Some(overlap);
        self
    }

    /// Cap the host-thread budget (`None` = machine parallelism /
    /// `TREESVD_THREADS`).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Set the distributed executor's recovery policy.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = Some(policy);
        self
    }

    /// Set the initial receive window of the distributed executor's
    /// blocking receives (layered onto the effective policy).
    pub fn with_recv_timeout(mut self, timeout: std::time::Duration) -> Self {
        let mut policy = self.effective_policy();
        policy.recv_timeout = timeout;
        self.fault_policy = Some(policy);
        self
    }

    /// Set the receive retry budget (attempts beyond the first, each with
    /// exponential backoff and a redelivery request).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        let mut policy = self.effective_policy();
        policy.max_retries = max_retries;
        self.fault_policy = Some(policy);
        self
    }

    /// Share a proof-certificate cache across runs: the schedule
    /// verifier and the distributed executor's overlap/recovery gate
    /// consume validated certificates instead of re-proving (see
    /// [`SvdOptions::certificate_cache`]).
    pub fn with_certificate_cache(
        mut self,
        cache: std::sync::Arc<treesvd_analyze::CertificateCache>,
    ) -> Self {
        self.certificate_cache = Some(cache);
        self
    }

    /// Arm the canonical seeded chaos plan ([`FaultPlan::chaos`]) and, if
    /// no explicit policy was chosen, the matching recovery profile
    /// ([`FaultPolicy::chaos`]).
    pub fn with_chaos(mut self, seed: u64) -> Self {
        self.chaos = Some(FaultPlan::chaos(seed));
        self
    }

    /// Enable (or disable) the tall-skinny QR front-end.
    pub fn with_qr_frontend(mut self, enabled: bool) -> Self {
        self.qr_frontend = enabled;
        self
    }

    /// Set the front-end's aspect-ratio crossover (engage when
    /// `m ≥ crossover · n`). Values ≤ 1 engage on every non-wide input.
    pub fn with_qr_crossover(mut self, crossover: f64) -> Self {
        self.qr_crossover = crossover;
        self
    }

    /// Set the front-end's QR panel width.
    pub fn with_qr_panel(mut self, panel: usize) -> Self {
        self.qr_panel = panel.max(1);
        self
    }

    /// Select the blocked driver's outer cache-level blocking policy.
    pub fn with_hier_blocking(mut self, hier: HierBlocking) -> Self {
        self.hier = hier;
        self
    }

    /// The recovery policy a distributed run will actually use: the
    /// explicit one, else the chaos profile when a chaos plan is armed,
    /// else the fail-fast default.
    pub fn effective_policy(&self) -> FaultPolicy {
        match (&self.fault_policy, &self.chaos) {
            (Some(p), _) => *p,
            (None, Some(_)) => FaultPolicy::chaos(),
            (None, None) => FaultPolicy::default(),
        }
    }
}

/// Errors from the SVD driver.
#[derive(Debug)]
pub enum SvdError {
    /// The input matrix had a zero dimension.
    EmptyMatrix,
    /// The chosen ordering rejected the (padded) size.
    Ordering(OrderingError),
    /// Static schedule verification found a violation (only with
    /// [`SvdOptions::verify_schedule`]).
    Schedule(treesvd_analyze::Violation),
    /// The iteration hit `max_sweeps` without converging.
    NoConvergence {
        /// Sweeps performed.
        sweeps: usize,
        /// Last sweep's maximum normalized coupling.
        last_coupling: f64,
    },
    /// The distributed executor exhausted its recovery budget (retries,
    /// restarts, and — if permitted — the whole degradation ladder). The
    /// inner [`DistError`] pinpoints the final failure: rank, sweep,
    /// global step, and the offending message's source/tag.
    Unrecoverable(DistError),
}

impl fmt::Display for SvdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvdError::EmptyMatrix => write!(f, "matrix has a zero dimension"),
            SvdError::Ordering(e) => write!(f, "ordering rejected the problem size: {e}"),
            SvdError::Schedule(v) => write!(f, "schedule verification failed: {v}"),
            SvdError::NoConvergence { sweeps, last_coupling } => write!(
                f,
                "no convergence after {sweeps} sweeps (last max coupling {last_coupling:.3e})"
            ),
            SvdError::Unrecoverable(e) => write!(f, "distributed run unrecoverable: {e}"),
        }
    }
}

impl std::error::Error for SvdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvdError::Unrecoverable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DistError> for SvdError {
    fn from(e: DistError) -> Self {
        SvdError::Unrecoverable(e)
    }
}

impl From<OrderingError> for SvdError {
    fn from(e: OrderingError) -> Self {
        SvdError::Ordering(e)
    }
}

impl From<treesvd_analyze::Violation> for SvdError {
    fn from(v: treesvd_analyze::Violation) -> Self {
        SvdError::Schedule(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_the_papers() {
        let o = SvdOptions::default();
        assert!(matches!(o.ordering, OrderingChoice::Kind(OrderingKind::FatTree)));
        assert_eq!(o.topology, TopologyKind::PerfectFatTree);
        assert_eq!(o.sort, SortMode::Descending);
        assert!(o.vectors);
        assert_eq!(o.overlap, None, "overlap defaults to model-decided");
    }

    #[test]
    fn builder_methods_chain() {
        let o = SvdOptions::default()
            .with_ordering(OrderingKind::NewRing)
            .with_topology(TopologyKind::Cm5)
            .with_max_sweeps(10)
            .with_sort(SortMode::None)
            .with_vectors(false)
            .with_block_kernel(BlockKernel::Pairwise)
            .with_overlap(false)
            .with_threads(Some(2));
        assert!(matches!(o.ordering, OrderingChoice::Kind(OrderingKind::NewRing)));
        assert_eq!(o.topology, TopologyKind::Cm5);
        assert_eq!(o.max_sweeps, 10);
        assert_eq!(o.sort, SortMode::None);
        assert!(!o.vectors);
        assert_eq!(o.block_kernel, BlockKernel::Pairwise);
        assert_eq!(o.overlap, Some(false), "with_overlap pins the choice");
        assert_eq!(o.threads, Some(2));
    }

    #[test]
    fn block_kernel_default_and_display() {
        assert_eq!(SvdOptions::default().block_kernel, BlockKernel::Gram);
        assert_eq!(BlockKernel::Gram.to_string(), "gram");
        assert_eq!(BlockKernel::Pairwise.to_string(), "pairwise");
    }

    #[test]
    fn qr_frontend_defaults_and_builders() {
        let o = SvdOptions::default();
        assert!(!o.qr_frontend, "front-end must be opt-in");
        assert_eq!(o.qr_crossover, 8.0);
        assert_eq!(o.qr_panel, 32);
        assert_eq!(o.hier, HierBlocking::Auto);
        let o = o
            .with_qr_frontend(true)
            .with_qr_crossover(2.5)
            .with_qr_panel(0)
            .with_hier_blocking(HierBlocking::Cols(48));
        assert!(o.qr_frontend);
        assert_eq!(o.qr_crossover, 2.5);
        assert_eq!(o.qr_panel, 1, "panel width is floored at 1");
        assert_eq!(o.hier, HierBlocking::Cols(48));
    }

    #[test]
    fn hier_blocking_displays() {
        assert_eq!(HierBlocking::Auto.to_string(), "auto");
        assert_eq!(HierBlocking::Off.to_string(), "off");
        assert_eq!(HierBlocking::Cols(64).to_string(), "64");
    }

    #[test]
    fn error_display() {
        let e = SvdError::NoConvergence { sweeps: 60, last_coupling: 1e-3 };
        assert!(e.to_string().contains("60"));
        assert!(SvdError::EmptyMatrix.to_string().contains("zero"));
        let e: SvdError = OrderingError::OddSize(7).into();
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn fault_builders_layer_onto_the_effective_policy() {
        use std::time::Duration;
        // no knobs: fail-fast default
        assert_eq!(SvdOptions::default().effective_policy(), FaultPolicy::default());
        // chaos alone: the chaos profile
        let o = SvdOptions::default().with_chaos(11);
        assert_eq!(o.effective_policy(), FaultPolicy::chaos());
        assert_eq!(o.chaos.as_ref().unwrap().seed, 11);
        // per-knob builders refine the baseline in effect
        let o = SvdOptions::default()
            .with_chaos(11)
            .with_recv_timeout(Duration::from_millis(7))
            .with_max_retries(9);
        let p = o.effective_policy();
        assert_eq!(p.recv_timeout, Duration::from_millis(7));
        assert_eq!(p.max_retries, 9);
        assert!(p.degrade, "chaos baseline survives the refinement");
        // an explicit policy wins outright
        let o = SvdOptions::default().with_fault_policy(FaultPolicy::default()).with_chaos(5);
        assert_eq!(o.effective_policy(), FaultPolicy::default());
    }

    #[test]
    fn unrecoverable_error_keeps_the_distributed_context() {
        let inner = DistError::Crashed { rank: 3, sweep: 2 };
        let e: SvdError = inner.into();
        let msg = e.to_string();
        assert!(msg.contains("rank 3") && msg.contains("sweep 2"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    #[should_panic(expected = "cannot be cloned")]
    fn custom_choice_clone_panics() {
        let c = OrderingChoice::Custom(Box::new(|n| {
            Ok(Box::new(treesvd_orderings::RoundRobinOrdering::new(n)?) as Box<dyn JacobiOrdering>)
        }));
        let _ = c.clone();
    }
}
