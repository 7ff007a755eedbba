//! The traced run: per-layer metrics from timed calls into each layer's
//! public functions.
//!
//! A workload's solve path decides where a layer's numbers come from:
//!
//! * on the path, from spans around the layer's call in `auto_svd`
//!   rebuilt from public calls ([`trace::traced_auto`]), alternated with
//!   the real `auto_svd` on the same input; the two must agree bitwise;
//! * off the path (`qr` on `square`, `batch` on the dense workloads), from
//!   a standalone call of the layer's public function on the workload's
//!   own input (`qr`) or on a 64-problem probe batch (`batch`), so every
//!   metric is a measurement; `qr.engaged`, `qr.share` and
//!   `blocked.share` say how much of the solve the layer really is.
//!
//! The `batch` workload traces `auto_svd` on its single order-16
//! problems: the per-problem path the batch engine replaces.

use std::path::Path;
use std::time::Instant;

use treesvd_batch::{BatchEngine, BatchOptions, BatchSoA, LANES};
use treesvd_core::auto::run_plan;
use treesvd_core::{auto_svd, options_from_plan, DriverSel, HierBlocking};
use treesvd_matrix::qr::TsqrQr;
use treesvd_matrix::{ops, Matrix};
use treesvd_sim::par;
use treesvd_tune::{calib, plan_for, TunePlan, TuneProblem};

use crate::check::{self, Errors};
use crate::metrics::{median, Metrics, Report};
use crate::trace::{self, Recorder, Traced};
use crate::{
    batch_inputs, check_batch, dense_inputs, failed, load_batch, sub_seed, timed, Input, Setup,
    Workload, BATCH_COUNT, BATCH_ORDER, DENSE_POOL, WARMUP_SECONDS,
};

/// Problems in the probe batch of the dense workloads.
const PROBE_BATCH: usize = 64;

/// Counts of calls made and failed, plus the worst check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Errors,
}

impl Tally {
    fn note(&mut self, ok: bool, errors: Errors) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.errors = self.errors.max(errors);
    }
}

/// Median ns per call of `f`, timed in `batches` groups of `per` calls.
fn per_call_ns(batches: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per {
                f();
            }
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&xs)
}

/// What alternating `auto_svd` with its traced rebuild observed.
#[derive(Default)]
struct AutoTrace {
    plain_ns: Vec<f64>,
    whole_ns: Vec<f64>,
    /// Per stage of [`trace::STAGES`], the span times (absent stages
    /// record nothing).
    stage_ns: [Vec<f64>; 4],
    allocs: Vec<f64>,
    alloc_bytes: Vec<f64>,
    last: Option<Traced>,
    sweeps: Vec<f64>,
    rotations: Vec<f64>,
    blocked_allocs: u64,
    qr_allocs: u64,
}

/// Alternate `auto_svd` and the traced rebuild on `inputs` for `seconds`
/// (at least `min_rounds` rounds), checking each plain result and
/// asserting the rebuild bitwise-equal to it.
fn trace_auto(
    w: Workload,
    seed: u64,
    inputs: &[Input],
    seconds: f64,
    min_rounds: usize,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> AutoTrace {
    let mut out = AutoTrace::default();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds || round < min_rounds {
        let k = round % inputs.len();
        let a = &inputs[k].a;
        let spans_before = rec.spans().len();
        let run_traced = |rec: &mut Recorder| timed(|| trace::traced_auto(rec, a));
        // alternate which side runs first, so cache and allocator state
        // favours neither
        let (plain, traced) = if round.is_multiple_of(2) {
            let p = timed(|| auto_svd(a));
            (p, run_traced(rec))
        } else {
            let t = run_traced(rec);
            (timed(|| auto_svd(a)), t)
        };
        round += 1;
        let (ns, allocs, plain) = plain;
        let plain = match plain {
            Ok(Ok(run)) => run,
            Ok(Err(e)) => {
                tally.note(false, failed(w, seed, k, &format!("auto_svd error {e}")));
                continue;
            }
            Err(p) => {
                tally.note(false, failed(w, seed, k, &format!("auto_svd panic {p}")));
                continue;
            }
        };
        let e = check::check(a, &inputs[k].sigma, &plain.svd.u, &plain.svd.sigma, &plain.svd.v);
        if !e.pass() {
            failed(w, seed, k, &format!("check {e:?}"));
        }
        tally.note(e.pass(), e);
        out.plain_ns.push(ns as f64);
        out.allocs.push(allocs.calls as f64);
        out.alloc_bytes.push(allocs.bytes as f64);
        let traced = match traced.2 {
            Ok(Ok(t)) => t,
            Ok(Err(e)) => {
                tally.note(false, failed(w, seed, k, &format!("traced pipeline error {e}")));
                continue;
            }
            Err(p) => {
                tally.note(false, failed(w, seed, k, &format!("traced pipeline panic {p}")));
                continue;
            }
        };
        let same = traced.svd.sigma == plain.svd.sigma
            && traced.svd.u == plain.svd.u
            && traced.svd.v == plain.svd.v;
        if !same {
            failed(w, seed, k, "BITWISE MISMATCH: the rebuilt pipeline differs from auto_svd");
        }
        tally.note(same, Errors::default());
        for s in &rec.spans()[spans_before..] {
            match trace::STAGES.iter().position(|n| *n == s.name) {
                Some(i) => out.stage_ns[i].push(s.ns() as f64),
                None if s.name == "auto" => out.whole_ns.push(s.ns() as f64),
                None => {}
            }
        }
        out.sweeps.push(traced.sweeps as f64);
        out.rotations.push(traced.rotations as f64);
        out.blocked_allocs = out.blocked_allocs.max(traced.blocked_steady_allocs);
        out.qr_allocs = out.qr_allocs.max(traced.qr.map_or(0, |q| q.steady_alloc_events));
        out.last = Some(traced);
    }
    out
}

/// Median ratio of 1-lane to host-lane time of the same plan, paired
/// call by call in alternating order.
fn auto_speedup(
    inputs: &[Input],
    plan: &TunePlan,
    problem: &TuneProblem,
    seconds: f64,
    tally: &mut Tally,
) -> f64 {
    let mut ratios = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds || round < 6 {
        let input = &inputs[round % inputs.len()];
        let host = || timed(|| run_plan(&input.a, plan, options_from_plan(plan, problem)));
        let one = || {
            timed(|| {
                run_plan(&input.a, plan, options_from_plan(plan, problem).with_threads(Some(1)))
            })
        };
        let (h, o) = if round.is_multiple_of(2) {
            let h = host();
            (h, one())
        } else {
            let o = one();
            (host(), o)
        };
        round += 1;
        for (_, _, r) in [&h, &o] {
            let e = match r {
                Ok(Ok(run)) => {
                    check::check(&input.a, &input.sigma, &run.svd.u, &run.svd.sigma, &run.svd.v)
                }
                _ => Errors { sigma_err: f64::INFINITY, ..Errors::default() },
            };
            tally.note(e.pass(), e);
        }
        ratios.push(o.0 as f64 / h.0 as f64);
    }
    median(&ratios)
}

/// Batch-engine numbers: host-lane engine against a 1-lane engine on the
/// same batches, alternated.
struct BatchTrace {
    /// Of the 1-lane engine, which the end-to-end `batch` run uses.
    ns_per_problem: f64,
    max_sweeps: f64,
    steady_allocs: f64,
    speedup: f64,
    allocs: Vec<f64>,
    alloc_bytes: Vec<f64>,
}

fn trace_batch(
    w: Workload,
    seed: u64,
    pool: &[Vec<Input>],
    host: &mut BatchEngine,
    seconds: f64,
    min_rounds: usize,
    tally: &mut Tally,
) -> BatchTrace {
    let count = pool[0].len();
    let mut one = BatchEngine::new(BatchOptions::default().with_threads(Some(1)));
    let mut soa = BatchSoA::new(BATCH_ORDER, BATCH_ORDER, count, LANES).expect("valid batch");
    let (mut one_ns, mut ratios, mut allocs, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut max_sweeps, mut steady) = (0u32, 0u64);
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds || round < min_rounds {
        let k = round % pool.len();
        let mut side = |engine: &mut BatchEngine, soa: &mut BatchSoA| {
            load_batch(soa, &pool[k]);
            let (ns, a, r) = timed(|| engine.run(soa));
            let e = match &r {
                Ok(Ok(_)) => check_batch(engine, soa, &pool[k]),
                Ok(Err(e)) => failed(w, seed, k, &format!("batch error {e}")),
                Err(p) => failed(w, seed, k, &format!("batch panic {p}")),
            };
            if !e.pass() {
                failed(w, seed, k, &format!("batch check {e:?}"));
            }
            tally.note(e.pass(), e);
            (ns as f64, a, r.ok().and_then(Result::ok))
        };
        let ((hn, ha, hs), (on, _, _)) = if round.is_multiple_of(2) {
            let h = side(host, &mut soa);
            (h, side(&mut one, &mut soa))
        } else {
            let o = side(&mut one, &mut soa);
            (side(host, &mut soa), o)
        };
        if let Some(stats) = hs {
            max_sweeps = max_sweeps.max(stats.max_sweeps_used);
            if round > 0 {
                steady = steady.max(stats.alloc_events);
            }
        }
        one_ns.push(on);
        allocs.push(ha.calls as f64);
        bytes.push(ha.bytes as f64);
        ratios.push(on / hn);
        round += 1;
    }
    BatchTrace {
        ns_per_problem: median(&one_ns) / count as f64,
        max_sweeps: f64::from(max_sweeps),
        steady_allocs: steady as f64,
        speedup: median(&ratios),
        allocs,
        alloc_bytes: bytes,
    }
}

/// Kernel rates at the blocked driver's meeting shape.
struct Kernels {
    gram_gflops: f64,
    panel_gflops: f64,
    /// Kernel time of one meeting (Gram build plus `A` and `V` panel
    /// updates over every sub-block pair), ns.
    meeting_ns: f64,
    /// Ordering steps per sweep.
    steps: usize,
}

/// Union widths of the Gram calls one meeting of two `c`-column blocks
/// makes, by the blocked driver's hierarchical rule.
fn meeting_unions(c: usize, hier_cols: usize) -> Vec<(usize, usize)> {
    if 2 * c <= hier_cols {
        return vec![(c, c)];
    }
    let cb = (hier_cols / 2).max(2);
    let widths: Vec<usize> =
        (0..2).flat_map(|_| (0..c).step_by(cb).map(move |s| cb.min(c - s))).collect();
    let mut out = Vec::new();
    for p in 0..widths.len() {
        for q in p + 1..widths.len() {
            out.push((widths[p], widths[q]));
        }
    }
    out
}

/// Time `gram_block` and `panel_update` at every union shape of one
/// meeting (`rows`-row `A` panels, `v_rows`-row `V` panels).
fn kernels(
    rows: usize,
    v_rows: usize,
    c: usize,
    hier_cols: usize,
    processors: usize,
    plan: &TunePlan,
    seed: u64,
) -> Kernels {
    let mut rng = treesvd_matrix::rng::Rng::seed_from_u64(seed);
    let unions = meeting_unions(c, hier_cols);
    let (mut meeting_ns, mut gram_rate, mut panel_rate) = (0.0, Vec::new(), Vec::new());
    let mut shapes: Vec<(usize, usize)> = unions.clone();
    shapes.sort_unstable();
    shapes.dedup();
    for &(wx, wy) in &shapes {
        let k = wx + wy;
        let mut fill =
            |len: usize| -> Vec<f64> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
        let (mut x, mut y) = (fill(wx * rows), fill(wy * rows));
        let (mut xv, mut yv) = (fill(wx * v_rows), fill(wy * v_rows));
        let w = crate::gen::orthogonal_matrix(k, seed ^ k as u64);
        let mut g = vec![0.0; k * k];
        let mut tile = vec![0.0; k * ops::PANEL_TILE];
        let reps = (2_000_000 / (rows * k * k).max(1)).clamp(3, 2000);
        let gram = per_call_ns(15, reps, || ops::gram_block(&x, &y, rows, &mut g));
        let panel = per_call_ns(15, reps, || {
            ops::panel_update(&mut x, &mut y, rows, w.as_slice(), &mut tile)
        });
        let vpanel = if v_rows > 0 {
            per_call_ns(15, reps, || {
                ops::panel_update(&mut xv, &mut yv, v_rows, w.as_slice(), &mut tile)
            })
        } else {
            0.0
        };
        let uses = unions.iter().filter(|u| **u == (wx, wy)).count() as f64;
        meeting_ns += uses * (gram + panel + vpanel);
        gram_rate.push((uses, (rows * k * (k + 1)) as f64 / gram));
        panel_rate.push((uses, (2 * rows * k * k) as f64 / panel));
    }
    // rates weighted by how often each shape occurs in a meeting
    let weighted = |r: &[(f64, f64)]| {
        r.iter().map(|(u, x)| u * x).sum::<f64>() / r.iter().map(|(u, _)| u).sum::<f64>()
    };
    let n_super = 2 * processors;
    let steps = if n_super > 2 {
        let o = plan.ordering.build(n_super).expect("the plan's ordering fits its own block count");
        o.sweep_program(0, &o.initial_layout()).steps.len()
    } else {
        1
    };
    Kernels {
        gram_gflops: weighted(&gram_rate),
        panel_gflops: weighted(&panel_rate),
        meeting_ns,
        steps,
    }
}

/// `TsqrQr::factor` and `apply_q` on `a` by themselves (the `qr` probe
/// where the plan bypasses the front-end): median ns of each, and the
/// steady-state allocation events.
fn qr_probe(a: &Matrix, plan: &TunePlan, problem: &TuneProblem) -> (f64, f64, u64) {
    let opts = trace::qr_options(plan, problem);
    let (m, n) = a.shape();
    let (mut f, mut q, mut allocs) = (Vec::new(), Vec::new(), 0);
    for _ in 0..7 {
        let t = Instant::now();
        let qr = TsqrQr::factor(a, &opts, &trace::PoolJoin).expect("m >= n");
        f.push(t.elapsed().as_nanos() as f64);
        allocs = allocs.max(qr.stats().steady_alloc_events);
        let mut u = Matrix::identity(m, n).expect("m, n > 0");
        let t = Instant::now();
        qr.apply_q(&mut u, opts.lanes, &trace::PoolJoin);
        q.push(t.elapsed().as_nanos() as f64);
        std::hint::black_box(&u);
    }
    (median(&f), median(&q), allocs)
}

fn sum(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x)
}

/// The traced run of workload `w`.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    setups: &[Setup],
    engine: Option<BatchEngine>,
    state: &Path,
) -> Result<Report, String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut rec = Recorder::new();

    // the auto pipeline's subject: the workload's inputs, or single
    // problems of the batch
    let (subjects, batch_pool) = match w {
        Workload::Batch => {
            let pool: Vec<Vec<Input>> =
                (0..2).map(|k| batch_inputs(sub_seed(seed, k as u64), BATCH_COUNT)).collect();
            let singles = batch_inputs(sub_seed(seed, 99), DENSE_POOL);
            (singles, pool)
        }
        _ => {
            (dense_inputs(w, seed, DENSE_POOL), vec![batch_inputs(sub_seed(seed, 77), PROBE_BATCH)])
        }
    };
    let (sm, sn) = subjects[0].a.shape();
    let problem = TuneProblem::new(sm, sn);
    let plan_cold_ms = if w == Workload::Batch {
        let t = Instant::now();
        std::hint::black_box(plan_for(&problem));
        t.elapsed().as_nanos() as f64 / 1e6
    } else {
        median(&setups.iter().map(|s| s.plan_ns as f64 / 1e6).collect::<Vec<_>>())
    };
    let plan = plan_for(&problem);
    let DriverSel::Blocked { processors } = plan.driver else {
        return Err(format!("the traced run covers blocked plans only, got {plan:?}"));
    };
    let processors = usize::from(processors).max(1);

    // phases: the batch engine first on `batch`, then the auto pipeline
    // alternated with its rebuild, then the 1-lane pairing
    let mut batch_engine = engine.unwrap_or_else(|| BatchEngine::new(BatchOptions::default()));
    // warm up as the end-to-end loop does: checked, numbers dropped
    if w == Workload::Batch {
        trace_batch(w, seed, &batch_pool, &mut batch_engine, WARMUP_SECONDS, 1, &mut tally);
    } else {
        trace_auto(w, seed, &subjects, WARMUP_SECONDS, 1, &mut Recorder::new(), &mut tally);
    }
    let (batch_s, auto_s, pair_s) = match w {
        Workload::Batch => (0.55 * seconds, 0.25 * seconds, 0.1 * seconds),
        _ => (0.0, 0.55 * seconds, 0.3 * seconds),
    };
    let bt = trace_batch(w, seed, &batch_pool, &mut batch_engine, batch_s, 4, &mut tally);
    let at = trace_auto(w, seed, &subjects, auto_s, 4, &mut rec, &mut tally);
    let auto_speed = auto_speedup(&subjects, &plan, &problem, pair_s, &mut tally);

    let last = at.last.as_ref().ok_or("no traced call succeeded")?;
    let plain_med = median(&at.plain_ns);
    let whole_med = median(&at.whole_ns);

    // tune
    m.set("tune.plan_cold_ms", plan_cold_ms);
    m.set("tune.probe_runs", calib::probe_runs() as f64);
    m.set(
        "tune.plan_warm_ns",
        per_call_ns(101, 200, || {
            std::hint::black_box(plan_for(std::hint::black_box(&problem)));
        }),
    );
    let cache = treesvd_tune::cache::global();
    m.set(
        "tune.cache_hit_ratio",
        cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64,
    );
    m.set("tune.predicted_over_measured", plan.predicted_ns / plain_med);
    let probe_gflops = 1.0 / calib::global().panel_flop_ns;
    m.set("calib.panel_gflops", probe_gflops);

    // qr
    let whole_sum = sum(&at.whole_ns);
    let (fm, fnn) = (sm as f64, sn as f64);
    let factor_flops = 2.0 * fnn * fnn * (fm - fnn / 3.0);
    let apply_flops = 2.0 * fnn * fnn * (2.0 * fm - fnn);
    let engaged = last.qr.is_some();
    let (factor_ns, apply_ns, qr_allocs) = if engaged {
        (median(&at.stage_ns[1]), median(&at.stage_ns[3]), at.qr_allocs)
    } else {
        qr_probe(&subjects[0].a, &plan, &problem)
    };
    m.set("qr.engaged", f64::from(u8::from(engaged)));
    m.set("qr.share", (sum(&at.stage_ns[1]) + sum(&at.stage_ns[3])) / whole_sum);
    m.set("qr.factor_ms", factor_ns / 1e6);
    m.set("qr.factor_gflops", factor_flops / factor_ns);
    m.set("qr.factor_of_probe", factor_flops / factor_ns / probe_gflops);
    m.set("qr.apply_q_ms", apply_ns / 1e6);
    m.set("qr.apply_q_gflops", apply_flops / apply_ns);
    m.set("qr.apply_q_of_probe", apply_flops / apply_ns / probe_gflops);
    m.set("qr.steady_alloc_events", qr_allocs as f64);

    // blocked
    let blocked_ns = median(&at.stage_ns[2]);
    let sweeps = median(&at.sweeps);
    m.set("blocked.share", sum(&at.stage_ns[2]) / whole_sum);
    m.set("blocked.solve_ms", blocked_ns / 1e6);
    m.set("blocked.sweeps", sweeps);
    m.set("blocked.rotations", median(&at.rotations));
    m.set("blocked.ms_per_sweep", blocked_ns / 1e6 / sweeps);
    m.set("blocked.block_size", last.block_size as f64);
    m.set("blocked.steady_alloc_events", at.blocked_allocs as f64);

    // ops, at the meeting shape the blocked stage ran
    let rows = if engaged { sn } else { sm };
    let c = last.block_size;
    let hier_cols = match options_from_plan(&plan, &problem).hier {
        HierBlocking::Off => usize::MAX,
        HierBlocking::Cols(w) => w.max(4),
        HierBlocking::Auto => ((treesvd_matrix::cache::l2_bytes() / 4) / (8 * rows)).max(8),
    };
    let k = kernels(rows, 2 * c * processors, c, hier_cols, processors, &plan, seed);
    let meetings = sweeps * k.steps as f64 * processors as f64;
    m.set("ops.gram_block_gflops", k.gram_gflops);
    m.set("ops.gram_block_of_probe", k.gram_gflops / probe_gflops);
    m.set("ops.panel_update_gflops", k.panel_gflops);
    m.set("ops.panel_update_of_probe", k.panel_gflops / probe_gflops);
    m.set("ops.meetings_per_solve", meetings);
    m.set("ops.kernel_share", meetings * k.meeting_ns / blocked_ns);

    // par
    m.set("par.lanes", par::num_threads() as f64);
    m.set(
        "par.join_ns",
        per_call_ns(101, 200, || {
            par::join(|| std::hint::black_box(1), || std::hint::black_box(2));
        }),
    );
    m.set("par.speedup_vs_1lane", if w == Workload::Batch { bt.speedup } else { auto_speed });

    // batch
    m.set("batch.ns_per_problem", bt.ns_per_problem);
    m.set("batch.max_sweeps", bt.max_sweeps);
    m.set("batch.alloc_events", bt.steady_allocs);
    m.set("batch.speedup_vs_1lane", bt.speedup);

    // allocations of one public call of the workload
    let (calls, bytes) = if w == Workload::Batch {
        (&bt.allocs, &bt.alloc_bytes)
    } else {
        (&at.allocs, &at.alloc_bytes)
    };
    m.set("alloc.count_per_solve", median(calls));
    m.set("alloc.bytes_per_solve", median(bytes));

    m.set("check.sigma_err_max", tally.errors.sigma_err);
    m.set("check.residual_max", tally.errors.residual);
    m.set("check.orthogonality_max", tally.errors.orthogonality);

    let staged: f64 = at.stage_ns.iter().map(|s| sum(s)).sum();
    m.set("trace.unattributed_share", (whole_sum - staged) / whole_sum);
    m.set("trace.overhead", whole_med / plain_med);

    println!(
        "traced {} calls of auto_svd on {}x{} (plan {}, P={processors}): auto_svd p50 {:.3} ms, traced p50 {:.3} ms, stages p50 {}",
        at.whole_ns.len(),
        sm,
        sn,
        plan.driver.name(),
        plain_med / 1e6,
        whole_med / 1e6,
        trace::STAGES
            .iter()
            .zip(&at.stage_ns)
            .map(|(n, s)| format!("{n} {:.3} ms", median(s) / 1e6))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let spans_path = state.join(format!("spans-{}.jsonl", w.name()));
    if let Err(e) = std::fs::create_dir_all(state).and_then(|()| rec.write_jsonl(&spans_path)) {
        eprintln!("cannot write spans to {}: {e}", spans_path.display());
    } else {
        println!("spans written to {}", spans_path.display());
    }
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::meeting_unions;

    #[test]
    fn meeting_unions_follow_the_hierarchical_rule() {
        assert_eq!(meeting_unions(16, 64), vec![(16, 16)], "a union that fits is met whole");
        // c = 64 over hier width 32: sub-blocks of 16, four per block
        let u = meeting_unions(64, 32);
        assert_eq!(u.len(), 8 * 7 / 2);
        assert!(u.iter().all(|&p| p == (16, 16)));
        // a ragged last sub-block
        let u = meeting_unions(10, 8);
        assert_eq!(u.len(), 6 * 5 / 2);
        assert!(u.contains(&(2, 2)) && u.contains(&(4, 2)));
    }
}
