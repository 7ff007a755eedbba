//! The decision procedure: score every candidate execution config with
//! the calibrated cost model and keep the cheapest.
//!
//! There is one driver family — the blocked driver, the production path
//! in the hierarchically blocked Jacobi style of Novaković (arXiv
//! 1401.2720). The model prices it against the *effective* swept shape
//! (after deciding the QR front-end), in nanoseconds: `2p` block columns
//! of width `c`, each step running `p` concurrent meetings plus a fixed
//! pool fork/join handshake, for every block-pair count `p ≤ P` tried.
//! The meeting kernel is chosen by price: for `c ≥ 2` both
//! [`CostModel::gram_meeting_cost`] and
//! [`CostModel::pairwise_meeting_cost`] are evaluated and the cheaper
//! wins (Gram on a host with a fast panel rate, pairwise where panel
//! kernels run no faster than streaming ones); at `c = 1` there is
//! nothing for the Gram kernel to amortize.
//!
//! The simulated and distributed executors reproduce the paper and are
//! never planned; the distributed executor still asks [`overlap_decision`]
//! (through [`advise_overlap`](crate::advise_overlap)) whether to run its
//! overlapped schedule.

use treesvd_net::CostModel;
use treesvd_orderings::OrderingKind;

use crate::calib::Calibration;
use crate::plan::{qr_engages, DriverSel, KernelSel, TunePlan, TuneProblem};

/// Safety floor on the modeled QR crossover: TSQR constant factors vary
/// more than the probe battery resolves, so the front-end only engages
/// where the modeled win is comfortable.
const MIN_CROSSOVER: f64 = 4.0;

/// Sentinel crossover when the model says the front-end never pays.
const NEVER_CROSSOVER: f64 = 1.0e9;

/// Empirical sweep-count estimate for one-sided Jacobi at width `n`
/// (quadratic convergence: grows like log₂ n; the recorded benches sit
/// at 7–9 sweeps for n ∈ 16..256).
fn est_sweeps(n: usize) -> f64 {
    let lg = (usize::BITS - n.max(2).leading_zeros()) as f64;
    (lg + 2.0).clamp(4.0, 12.0)
}

/// Per-pair rotation compute: the streamed A-rotation plus the V-row
/// update when vectors are accumulated.
fn pair_compute_ns(cm: &CostModel, me: usize, ne: usize, vectors: bool) -> f64 {
    cm.rotation_cost(me) + if vectors { cm.gamma * (8 * ne) as f64 } else { 0.0 }
}

/// One scored blocked candidate.
#[derive(Debug, Clone, Copy)]
struct BlockedScore {
    processors: u16,
    kernel: KernelSel,
    block_cols: u16,
    total_ns: f64,
}

/// Score the blocked driver at block-pair count `p`.
fn score_blocked(
    cm: &CostModel,
    cal: &Calibration,
    me: usize,
    ne: usize,
    vectors: bool,
    p: usize,
) -> BlockedScore {
    let c = ne.div_ceil(2 * p).max(1);
    let n_super = 2 * p;
    let steps = (n_super - 1).max(1) as f64;
    let vrows = if vectors { ne } else { 0 };
    let pairwise = cm.pairwise_meeting_cost(c, me, vrows);
    let (kernel, meeting) = if c >= 2 {
        // A union panel (and the V panel riding with it) must stay
        // cache-resident for the Gram kernel's panel rate to hold; the
        // hierarchical level (always planned as Auto) restores residency
        // for oversized unions at a small strip-cycling overhead.
        let union_bytes = 8 * 2 * c * (me + vrows + 2 * c);
        let resident = union_bytes <= cal.l2_bytes;
        let gram = cm.gram_meeting_cost(c, me, vrows, true) * if resident { 1.0 } else { 1.15 };
        if pairwise < gram {
            (KernelSel::Pairwise, pairwise)
        } else {
            (KernelSel::Gram, gram)
        }
    } else {
        (KernelSel::Pairwise, pairwise)
    };
    // p meetings run concurrently on p pool lanes (candidates keep
    // p ≤ P), plus one fork/join handshake per step.
    let step = meeting + 2.0 * cm.alpha;
    BlockedScore {
        processors: p.min(u16::MAX as usize) as u16,
        kernel,
        block_cols: c.min(u16::MAX as usize) as u16,
        total_ns: est_sweeps(ne) * steps * step,
    }
}

/// What one zero-copy message serializes onto the link: a pointer-sized
/// header, not the payload.
fn zero_copy_serialization_ns(cm: &CostModel) -> f64 {
    8.0 * cm.beta
}

/// Should the distributed executor run the overlapped schedule? Overlap
/// hides `min(compute, serialization)` per step and costs ν of
/// bookkeeping — it pays only when the hidden serialization beats ν.
/// Zero-copy messages serialize almost nothing (the payload moves by
/// pointer), which is exactly why overlap *loses* at the recorded small-P
/// points.
pub(crate) fn overlap_decision(cm: &CostModel, me: usize, ne_pad: usize, vectors: bool) -> bool {
    let comp = pair_compute_ns(cm, me, ne_pad, vectors);
    comp.min(zero_copy_serialization_ns(cm)) > cm.nu
}

/// The ordering for the blocked driver's super-column sweep: the first
/// buildable kind of the convergence preference order (rotation order is
/// all an in-process ordering changes).
fn blocked_ordering(n_super: usize) -> OrderingKind {
    [
        OrderingKind::FatTree,
        OrderingKind::NewRing,
        OrderingKind::ModifiedRing,
        OrderingKind::Ring,
        OrderingKind::RoundRobin,
    ]
    .into_iter()
    .find(|k| k.build(n_super).is_ok())
    .unwrap_or(OrderingKind::RoundRobin)
}

/// The model's QR-front-end aspect crossover for a width-`nn` problem:
/// the smallest `m/n` where factoring `A = QR` and sweeping `R` beats
/// sweeping `A` directly. Per sweep the direct path streams
/// `14·pairs·me` A-flops; the front-end replaces `me` by `nn` at a
/// one-time `(2 + 2·vectors)·me·nn²` panel-flop toll (QR + the
/// back-transform `U ← Q·U_R`), charged at 1.5× the panel rate for the
/// TSQR tree's reduction overhead.
fn qr_crossover_aspect(cm: &CostModel, nn: usize, vectors: bool) -> f64 {
    if nn < 2 {
        return NEVER_CROSSOVER;
    }
    let pairs = (nn * (nn - 1) / 2) as f64;
    let sweeps = est_sweeps(nn);
    // the direct path's per-row-unit sweep cost (the blocked Gram driver
    // streams panels, so the panel rate applies)
    let sweep_slope = sweeps * 14.0 * pairs * cm.gamma_panel;
    let toll_slope =
        (2.0 + if vectors { 2.0 } else { 0.0 }) * (nn * nn) as f64 * cm.gamma_panel * 1.5;
    let coeff = sweep_slope - toll_slope;
    if coeff <= 0.0 {
        return NEVER_CROSSOVER;
    }
    // break-even me: sweep_slope·(me − nn) = toll_slope·me
    let break_even_rows = sweep_slope * nn as f64 / coeff;
    (break_even_rows / nn as f64).max(MIN_CROSSOVER)
}

/// Run the full decision procedure (the cold path behind
/// [`plan_for`](crate::plan_for)).
#[must_use]
pub fn compute_plan(problem: &TuneProblem, cal: &Calibration) -> TunePlan {
    let cm = cal.cost_model();
    let (mm, nn) = problem.normalized_shape();
    let (mm, nn) = (mm.max(1), nn.max(1));
    let p = problem.processors.max(1);

    // 1) QR front-end: crossover from the model; engagement per actual
    //    aspect (the rule the drivers apply).
    let crossover = qr_crossover_aspect(&cm, nn, problem.vectors);
    let engaged = qr_engages(mm, nn, crossover);
    let (me, ne) = if engaged { (nn, nn) } else { (mm, nn) };
    let frontend_toll = if engaged {
        (2.0 + if problem.vectors { 2.0 } else { 0.0 })
            * (mm * nn * nn) as f64
            * cm.gamma_panel
            * 1.5
    } else {
        0.0
    };

    // 2) Block-pair count: every p' ≤ min(P, ne/2) (powers of two plus
    //    the cap itself). The cap is at least 1, so even a single column
    //    gets a candidate (one meeting of a padded pair of blocks).
    let p_cap = p.min(ne / 2).max(1);
    let mut best = score_blocked(&cm, cal, me, ne, problem.vectors, 1);
    let mut bp = 2;
    while bp <= p_cap {
        let s = score_blocked(&cm, cal, me, ne, problem.vectors, bp);
        if s.total_ns < best.total_ns {
            best = s;
        }
        bp *= 2;
    }
    if !p_cap.is_power_of_two() {
        let s = score_blocked(&cm, cal, me, ne, problem.vectors, p_cap);
        if s.total_ns < best.total_ns {
            best = s;
        }
    }

    // 3) The blocked driver's meetings are in-process pool handoffs — no
    //    link ever carries the panels, so the ordering's only observable
    //    effect is rotation order, i.e. convergence; keep the default tree
    //    ordering (measured best sweep counts: the comm-minimal llb pick
    //    costs an extra sweep on the recorded blocked shapes).
    let ordering = blocked_ordering(2 * best.processors as usize);

    // The candidate's thread count follows the stated budget `P` (it is
    // the machine the model priced), but the *pool request* must never
    // oversubscribe the physical host: extra workers on a saturated core
    // only buy context switches. Measured on a 1-core host: an
    // oversubscribed 4-lane pool cost ~8% against the same config at the
    // host's own lane count.
    let host = treesvd_sim::par::num_threads().clamp(1, u16::MAX as usize) as u16;

    TunePlan {
        driver: DriverSel::Blocked { processors: best.processors },
        ordering,
        kernel: best.kernel,
        block_cols: best.block_cols,
        threads: best.processors.min(host).max(1),
        qr_frontend: true,
        qr_crossover: crossover,
        hier_cols: 0,
        predicted_ns: best.total_ns + frontend_toll,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::builtin()
    }

    #[test]
    fn sweeps_estimate_is_monotone_and_clamped() {
        assert!(est_sweeps(16) <= est_sweeps(64));
        assert!(est_sweeps(2) >= 4.0);
        assert!(est_sweeps(1 << 20) <= 12.0);
    }

    #[test]
    fn zero_copy_overlap_is_off_at_small_p() {
        // the recorded regression: new-ring P=8, m=4096 — overlap lost to
        // plain zero-copy, so the calibrated model must turn it off
        let cm = cal().cost_model();
        assert!(!overlap_decision(&cm, 4096, 16, true));
        assert!(!overlap_decision(&cm, 4096, 32, true));
    }

    #[test]
    fn square_shapes_prefer_the_blocked_gram_driver() {
        let plan = compute_plan(&TuneProblem::new(1024, 128).with_processors(4), &cal());
        assert_eq!(plan.kernel, KernelSel::Gram);
        assert!(plan.block_cols >= 2);
        assert!(plan.predicted_ns > 0.0);
    }

    #[test]
    fn tall_shapes_engage_the_frontend() {
        let tall = TuneProblem::new(1 << 15, 64).with_processors(4);
        let plan = compute_plan(&tall, &cal());
        assert!(plan.qr_frontend);
        assert!(
            (tall.m as f64) >= plan.qr_crossover * tall.n as f64,
            "aspect 512 must clear the modeled crossover {}",
            plan.qr_crossover
        );
        // and the crossover respects the safety floor
        assert!(plan.qr_crossover >= MIN_CROSSOVER);
    }

    #[test]
    fn wide_inputs_normalize_to_the_transpose() {
        let a = compute_plan(&TuneProblem::new(64, 1 << 15).with_processors(4), &cal());
        let b = compute_plan(&TuneProblem::new(1 << 15, 64).with_processors(4), &cal());
        assert_eq!(a, b);
    }

    #[test]
    fn plans_are_deterministic() {
        let p = TuneProblem::new(2000, 100).with_processors(8);
        assert_eq!(compute_plan(&p, &cal()), compute_plan(&p, &cal()));
    }

    #[test]
    fn blocked_plans_keep_the_convergence_proven_tree_ordering() {
        let plan = compute_plan(&TuneProblem::new(256, 64).with_processors(4), &cal());
        assert_eq!(plan.ordering, OrderingKind::FatTree);
    }

    #[test]
    fn thread_requests_never_oversubscribe_the_host() {
        let host = treesvd_sim::par::num_threads().max(1);
        for (m, n, p) in [(256, 64, 4), (4096, 16, 8), (1024, 128, 32)] {
            let plan = compute_plan(&TuneProblem::new(m, n).with_processors(p), &cal());
            assert!((plan.threads as usize) <= host, "{plan:?} vs host {host}");
            assert!(plan.threads >= 1);
        }
    }

    #[test]
    fn tiny_block_widths_fall_back_to_pairwise() {
        // ne/2P = 1 ⇒ c = 1: the Gram kernel's panel machinery has
        // nothing to amortize, the plan must keep the streaming kernel
        let plan = compute_plan(&TuneProblem::new(4096, 8).with_processors(4), &cal());
        if plan.block_cols == 1 {
            assert_eq!(plan.kernel, KernelSel::Pairwise);
        }
    }

    #[test]
    fn every_shape_and_budget_plans_the_blocked_driver() {
        let dims = [1usize, 2, 3, 4, 5, 7, 8, 16, 31, 64, 100, 128, 255, 256, 512];
        for cal in [cal(), Calibration::recorded()] {
            for &n in &dims {
                for m in [n, 2 * n + 1, 64 * n] {
                    for p in [1usize, 2, 3, 4, 8, 16, 64] {
                        for (rows, cols) in [(m, n), (n, m)] {
                            let problem = TuneProblem::new(rows, cols).with_processors(p);
                            let plan = compute_plan(&problem, &cal);
                            assert!(
                                matches!(plan.driver, DriverSel::Blocked { processors } if processors >= 1),
                                "{rows}x{cols} P={p}: {plan:?}"
                            );
                            assert!(plan.predicted_ns.is_finite() && plan.predicted_ns > 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_kernel_is_chosen_by_price() {
        // native panel rate (recorded): the Gram kernel's cache-blocked
        // panels win by an order of magnitude
        let square = TuneProblem::new(512, 256).with_processors(1);
        assert_eq!(compute_plan(&square, &Calibration::recorded()).kernel, KernelSel::Gram);
        // a build without `target-cpu=native`: panel flops cost as much as
        // streaming ones, so the Gram kernel's extra panel passes lose
        let slow_panels = Calibration { panel_flop_ns: 1.07, ..Calibration::recorded() };
        let plan = compute_plan(&square, &slow_panels);
        assert_eq!(plan.kernel, KernelSel::Pairwise, "{plan:?}");
    }
}
