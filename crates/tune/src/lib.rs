//! `treesvd-tune`: cost-model-driven auto-tuning.
//!
//! Given a problem statement `(m, n, vectors, P, topology)` — plus the
//! compile-time architecture — select the full execution config of the
//! blocked driver, the one production driver family: block-pair count,
//! Jacobi ordering, meeting kernel (Gram or pairwise, whichever the model
//! prices cheaper), block width `c`, thread count, QR front-end
//! crossover, and hierarchical-blocking width. Selection minimizes the
//! calibrated [`treesvd_net::CostModel`] extended with per-phase compute
//! terms; see [`model`] for the procedure and [`calib`] for where the
//! constants come from (recorded bench meta blocks refined by one-shot
//! microprobes).
//!
//! Decisions are memoized in a process-wide [`cache::TuneCache`] keyed
//! by `(shape-class, P, topology, arch, ANALYZER_VERSION)`: steady-state
//! traffic pays zero tuning overhead, and the warm path —
//! [`plan_for`] on a cached key — performs no heap allocation and never
//! re-runs a probe ([`calib::probe_runs`] stays put).
//!
//! This crate sits *below* `treesvd-core`: core's `SvdOptions::auto()`
//! maps a [`TunePlan`] onto its options, and the distributed driver
//! consults [`advise_overlap`] when the caller did not pin overlap.
//! Plans are *requests*, not bypasses — every choice still flows through
//! the analyzer gates (schedules still verify, certificates still
//! validate, and the distributed executor's overlap engages only when
//! `verify_overlap_freedom` proves the plan deadlock-free).

pub mod cache;
pub mod calib;
pub mod model;
pub mod plan;

pub use cache::{ShapeClass, TuneCache, TuneKey};
pub use calib::{CalibSource, Calibration};
pub use model::compute_plan;
pub use plan::{qr_engages, DriverSel, KernelSel, TunePlan, TuneProblem};

use treesvd_net::TopologyKind;

/// Plan the execution of `problem`, consulting (and filling) the
/// process-wide decision cache. First call per shape-class runs the
/// calibration probes (once per process) and the full model; every later
/// call with the same key is one allocation-free cache probe.
#[must_use]
pub fn plan_for(problem: &TuneProblem) -> TunePlan {
    let key = TuneKey::of(problem);
    if let Some(plan) = cache::global().get(&key) {
        return plan;
    }
    let cal = calib::global();
    let plan = model::compute_plan(problem, &cal);
    cache::global().insert(key, plan);
    plan
}

/// Should a distributed run use the overlapped schedule? The calibrated model's answer for columns of
/// length `m` at padded width `n_pad` — `false` at the recorded small-P
/// points, where zero-copy leaves overlap nothing to hide. This is what
/// the distributed driver consults when no explicit `with_overlap` was
/// set; the executor still gates the overlapped schedule behind the
/// analyzer's deadlock-freedom proof.
#[must_use]
pub fn advise_overlap(m: usize, n_pad: usize, vectors: bool, _topology: TopologyKind) -> bool {
    let cm = calib::global().cost_model();
    model::overlap_decision(&cm, m, n_pad, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_path_hits_the_cache_without_reprobing() {
        let problem = TuneProblem::new(777, 33).with_processors(3);
        let cold = plan_for(&problem);
        let hits_before = cache::global().hits();
        let probes_before = calib::probe_runs();
        let warm = plan_for(&problem);
        assert_eq!(cold, warm, "cached plan must be bit-identical");
        assert!(cache::global().hits() > hits_before, "second call must hit the cache");
        assert_eq!(calib::probe_runs(), probes_before, "no probe re-runs");
        assert!(probes_before <= 1, "probe battery runs at most once per process");
    }

    #[test]
    fn same_class_shapes_share_one_plan() {
        let a = plan_for(&TuneProblem::new(1025, 40).with_processors(5));
        let b = plan_for(&TuneProblem::new(1999, 60).with_processors(5));
        assert_eq!(a, b);
    }

    #[test]
    fn advise_overlap_matches_the_recorded_regression() {
        // BENCH_distributed: new-ring P=8 (n=16) and P=16 (n=32) at
        // m=4096 — zero-copy beat overlap at every point
        assert!(!advise_overlap(4096, 16, true, TopologyKind::PerfectFatTree));
        assert!(!advise_overlap(4096, 32, true, TopologyKind::PerfectFatTree));
    }
}
