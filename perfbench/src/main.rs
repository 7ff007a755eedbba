//! The treesvd benchmark: three closed-loop workloads, one caller each.
//!
//! ```text
//! perfbench run --workload square|tall|batch --seed N --seconds S --trace 0|1 --state DIR
//! ```
//!
//! Every input is generated from the seed before timing starts, every
//! result is checked outside the timed interval, and the last line of
//! standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `perfbench setup`
//! is the child process the run spawns to time a fresh process's one-off
//! set-up. `NOTES.md` says what each metric means and why each workload
//! exists.

mod check;
mod gen;
mod layers;
mod mem;
mod metrics;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use treesvd_batch::{BatchEngine, BatchOptions, BatchSoA, LANES};
use treesvd_core::auto_svd;
use treesvd_matrix::rng::Rng;
use treesvd_matrix::Matrix;
use treesvd_sim::par;
use treesvd_tune::{plan_for, TunePlan, TuneProblem};

use check::Errors;
use mem::Allocs;
use metrics::{Metrics, Samples};

#[global_allocator]
static ALLOC: mem::Counting = mem::Counting;

/// Fresh processes whose set-up is timed per run (this one included).
const SETUP_PROCESSES: usize = 15;
/// Distinct inputs per dense workload, cycled through by the caller.
const DENSE_POOL: usize = 3;
/// Distinct batches per batch workload.
const BATCH_POOL: usize = 2;
/// Problems per batch call.
const BATCH_COUNT: usize = 2048;
/// Order of each batch problem.
const BATCH_ORDER: usize = 16;
/// Untimed calls before timing starts: at least this many, for at least
/// `WARMUP_SECONDS`. On the recording host the first second of calls ran
/// up to 2× slower than the rest and otherwise set the tail.
const WARMUP_CALLS: usize = 2;
pub const WARMUP_SECONDS: f64 = 2.0;
/// Fewest timed calls a run makes, so the tail has 10 samples beyond it.
const MIN_CALLS: usize = 30;
/// Lanes the library gets in the end-to-end runs, through
/// `TREESVD_THREADS`. On a 2-vCPU slice of a shared host the second lane
/// comes and goes with the neighbours' load: a call waits for its slowest
/// shard, so `batch` calls at 2 lanes took ~26 ms or ~50 ms, and `tall`'s
/// 2-lane median moved from 41 ms to 68 ms (the 1-lane time) within an
/// hour. In interleaved runs the tail's spread over seeds was 0.65 at 2
/// lanes against 0.065 at one on `batch`, and 0.40 against 0.13 on `tall`.
/// The traced run keeps the host's lanes, so `par.*` and the
/// `*.speedup_vs_1lane` pairings still measure the pool.
const END_TO_END_LANES: &str = "1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Square,
    Tall,
    Batch,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "square" => Some(Workload::Square),
            "tall" => Some(Workload::Tall),
            "batch" => Some(Workload::Batch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Square => "square",
            Workload::Tall => "tall",
            Workload::Batch => "batch",
        }
    }

    /// Shape of one problem.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Workload::Square => (512, 256),
            Workload::Tall => (16384, 64),
            Workload::Batch => (BATCH_ORDER, BATCH_ORDER),
        }
    }
}

/// One input with its known singular values (descending).
pub struct Input {
    pub a: Matrix,
    pub sigma: Vec<f64>,
}

/// A sub-seed for stream `k` of `seed` (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut r = Rng::seed_from_u64(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    r.next_u64()
}

/// The dense workloads' inputs: σ spaced geometrically over 6 decades.
pub fn dense_inputs(w: Workload, seed: u64, count: usize) -> Vec<Input> {
    let (m, n) = w.shape();
    (0..count)
        .map(|k| {
            let sigma = gen::geometric(n, 1.0 + k as f64, 6.0);
            Input { a: gen::known_spectrum(m, &sigma, n, sub_seed(seed, k as u64)), sigma }
        })
        .collect()
}

/// One batch's problems: order-16, σ over 3 decades from a random top.
pub fn batch_inputs(seed: u64, count: usize) -> Vec<Input> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let sigma = gen::geometric(BATCH_ORDER, rng.uniform(0.5, 2.0), 3.0);
            let a = gen::known_spectrum(BATCH_ORDER, &sigma, BATCH_ORDER, rng.next_u64());
            Input { a, sigma }
        })
        .collect()
}

/// Load `problems` into `soa` (shapes match by construction).
pub fn load_batch(soa: &mut BatchSoA, problems: &[Input]) {
    for (i, p) in problems.iter().enumerate() {
        soa.set_problem(i, &p.a).expect("batch shape matches its problems");
    }
}

/// Check every problem of a finished batch run.
pub fn check_batch(engine: &BatchEngine, soa: &BatchSoA, problems: &[Input]) -> Errors {
    let mut worst = Errors::default();
    for (i, p) in problems.iter().enumerate() {
        let v = engine.v_problem(i).expect("vectors are on");
        worst = worst.max(check::check(&p.a, &p.sigma, &soa.problem(i), engine.sigma(i), &v));
    }
    worst
}

/// The one-off cost a fresh process pays before its first solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Cold `plan_for`: calibration probes plus the model.
    pub plan_ns: u64,
    /// First `par::join`: spawns the worker pool.
    pub pool_ns: u64,
    /// `BatchEngine::new`, `BatchSoA::new` and the first load into the
    /// container, which faults in its pages.
    pub batch_ns: u64,
}

impl Setup {
    pub fn total_ns(&self) -> u64 {
        self.plan_ns + self.pool_ns + self.batch_ns
    }
}

/// The batches the `batch` workload cycles through (none on the others).
fn batch_pool(w: Workload, seed: u64, count: usize) -> Vec<Vec<Input>> {
    let count = if w == Workload::Batch { count } else { 0 };
    (0..count).map(|k| batch_inputs(sub_seed(seed, k as u64), BATCH_COUNT)).collect()
}

/// Set this process up for `w`, timing each part. On `batch` the engine
/// gets a container with `first` loaded.
fn set_up(w: Workload, first: &[Input]) -> (Setup, Option<(BatchEngine, BatchSoA)>) {
    let mut s = Setup::default();
    if w != Workload::Batch {
        let (m, n) = w.shape();
        let t = Instant::now();
        std::hint::black_box(plan_for(&TuneProblem::new(m, n)));
        s.plan_ns = t.elapsed().as_nanos() as u64;
    }
    let t = Instant::now();
    par::join(|| std::hint::black_box(1), || std::hint::black_box(2));
    s.pool_ns = t.elapsed().as_nanos() as u64;
    let batch = (w == Workload::Batch).then(|| {
        let t = Instant::now();
        let e = BatchEngine::new(BatchOptions::default());
        let mut soa =
            BatchSoA::new(BATCH_ORDER, BATCH_ORDER, BATCH_COUNT, LANES).expect("valid batch");
        load_batch(&mut soa, first);
        s.batch_ns = t.elapsed().as_nanos() as u64;
        (e, soa)
    });
    (s, batch)
}

/// Time set-up in `SETUP_PROCESSES − 1` fresh child processes, one after
/// another, and return their samples plus `own`.
fn setup_samples(w: Workload, own: Setup) -> Result<Vec<Setup>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = vec![own];
    for _ in 1..SETUP_PROCESSES {
        let child = Command::new(&exe)
            .args(["setup", "--workload", w.name()])
            .output()
            .map_err(|e| format!("spawn setup child: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        let nums: Vec<u64> = text
            .split_whitespace()
            .skip_while(|t| *t != "setup")
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        if !child.status.success() || nums.len() != 3 {
            return Err(format!("setup child failed: {}", String::from_utf8_lossy(&child.stderr)));
        }
        out.push(Setup { plan_ns: nums[0], pool_ns: nums[1], batch_ns: nums[2] });
    }
    Ok(out)
}

/// One public call as the timed loop saw it.
pub struct Call {
    pub ns: u64,
    /// Jacobi sweeps the call reported (largest in a batch).
    pub sweeps: usize,
    /// Problems solved correctly by the call (0 if it failed).
    pub solved: u64,
    pub errors: Errors,
}

/// Time `f` with allocation counting, catching a panic as an `Err`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, Allocs, Result<R, String>) {
    let a0 = Allocs::now();
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f));
    let ns = t.elapsed().as_nanos() as u64;
    let allocs = Allocs::now().since(a0);
    (ns, allocs, r.map_err(|p| panic_text(&p)))
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// The closed loop: untimed warm-up calls, then calls until `seconds` of
/// wall time (checks included) and `MIN_CALLS` have passed.
pub fn closed_loop(seconds: f64, mut call: impl FnMut(usize) -> Call) -> Samples {
    let mut s =
        Samples { rss_before: mem::status_bytes("VmRSS").unwrap_or(0), ..Samples::default() };
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < WARMUP_SECONDS || i < WARMUP_CALLS {
        s.note_warmup(&call(i));
        i += 1;
    }
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || s.ns.len() < MIN_CALLS {
        s.note(call(i));
        i += 1;
    }
    s
}

/// Record a failure on standard error (the failing input is named by
/// workload, seed and pool index) and give the errors a failing value.
pub fn failed(w: Workload, seed: u64, index: usize, why: &str) -> Errors {
    eprintln!("FAILED {} seed {seed} input {index}: {why}", w.name());
    Errors { sigma_err: f64::INFINITY, ..Errors::default() }
}

/// The end-to-end run of a dense workload (`auto_svd` per call).
/// A call whose plan differs from `plan` is flagged: the cache should
/// make that impossible within one process.
fn run_dense(w: Workload, seed: u64, seconds: f64, plan: &TunePlan) -> Samples {
    let inputs = dense_inputs(w, seed, DENSE_POOL);
    closed_loop(seconds, |i| {
        let k = i % inputs.len();
        let (ns, _, r) = timed(|| auto_svd(&inputs[k].a));
        let mut sweeps = 0;
        let errors = match r {
            Ok(Ok(run)) => {
                sweeps = run.sweeps;
                if run.plan != *plan {
                    println!("PLAN CHANGED within the run: {}", plan_text(&run.plan));
                }
                let e = check::check(
                    &inputs[k].a,
                    &inputs[k].sigma,
                    &run.svd.u,
                    &run.svd.sigma,
                    &run.svd.v,
                );
                if !e.pass() {
                    failed(w, seed, k, &format!("check {e:?}"));
                }
                e
            }
            Ok(Err(e)) => failed(w, seed, k, &format!("error {e}")),
            Err(p) => failed(w, seed, k, &format!("panic {p}")),
        };
        Call { ns, sweeps, solved: u64::from(errors.pass()), errors }
    })
}

/// The end-to-end run of the batch workload (`BatchEngine::run` per call
/// on `pool`'s batches in turn).
fn run_batch(
    seed: u64,
    seconds: f64,
    pool: &[Vec<Input>],
    (mut engine, mut soa): (BatchEngine, BatchSoA),
) -> Samples {
    closed_loop(seconds, |i| {
        let k = i % pool.len();
        load_batch(&mut soa, &pool[k]);
        let (ns, _, r) = timed(|| engine.run(&mut soa));
        let mut sweeps = 0;
        let errors = match r {
            Ok(Ok(stats)) => {
                sweeps = stats.max_sweeps_used as usize;
                let e = check_batch(&engine, &soa, &pool[k]);
                if !e.pass() {
                    failed(Workload::Batch, seed, k, &format!("check {e:?}"));
                }
                e
            }
            Ok(Err(e)) => failed(Workload::Batch, seed, k, &format!("error {e}")),
            Err(p) => {
                engine = BatchEngine::new(BatchOptions::default());
                failed(Workload::Batch, seed, k, &format!("panic {p}"))
            }
        };
        let solved = if errors.pass() { BATCH_COUNT as u64 } else { 0 };
        Call { ns, sweeps, solved, errors }
    })
}

/// The configuration a run executed, for plan-change detection.
fn plan_text(plan: &TunePlan) -> String {
    format!(
        "driver={} P={} block_cols={} threads={} qr_crossover={} hier_cols={} kernel={:?} ordering={:?}",
        plan.driver.name(),
        match plan.driver {
            treesvd_tune::DriverSel::Blocked { processors } => processors as usize,
            _ => 0,
        },
        plan.block_cols,
        plan.threads,
        plan.qr_crossover,
        plan.hier_cols,
        plan.kernel,
        plan.ordering,
    )
}

/// Print the executed plan and compare it with the previous run of the
/// same workload at the same lane count (kept in the state directory).
fn record_plan(w: Workload, state: &std::path::Path, text: &str, predicted_ns: Option<f64>) {
    let path = state.join(format!("plan-{}-{}lane.txt", w.name(), par::num_threads()));
    let previous = std::fs::read_to_string(&path).ok();
    let verdict = match previous.as_deref() {
        None => "first recorded run".to_string(),
        Some(p) if p.trim() == text => "same as previous run".to_string(),
        Some(p) => format!("PLAN CHANGED from previous run ({})", p.trim()),
    };
    let predicted = predicted_ns.map_or(String::new(), |p| format!(" predicted_ms={:.3}", p / 1e6));
    println!("plan {}: {text}{predicted} [{verdict}]", w.name());
    if let Err(e) = std::fs::create_dir_all(state).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("cannot record plan in {}: {e}", path.display());
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut state = PathBuf::from(".bench_build/perfbench-state");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--state" => state = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, state })
}

fn run(args: &Args) -> Result<metrics::Report, String> {
    let w = args.workload;
    if !args.trace {
        // before the pool's first use, and inherited by the set-up children
        std::env::set_var("TREESVD_THREADS", END_TO_END_LANES);
    }
    let pool = batch_pool(w, args.seed, BATCH_POOL);
    let (own, batch) = set_up(w, pool.first().map_or(&[], Vec::as_slice));
    let setups = setup_samples(w, own)?;
    println!(
        "workload {} seed {} seconds {} lanes {} (one closed-loop caller)",
        w.name(),
        args.seed,
        args.seconds,
        par::num_threads()
    );
    // the plan every call will run: `plan_for` is warm after set-up
    let plan =
        (w != Workload::Batch).then(|| plan_for(&TuneProblem::new(w.shape().0, w.shape().1)));
    match &plan {
        Some(p) => record_plan(w, &args.state, &plan_text(p), Some(p.predicted_ns)),
        None => {
            let opts = BatchOptions::default();
            let text = format!(
                "batch engine path={:?} lanes={} threads={} count={} order={}",
                opts.path,
                LANES,
                opts.threads.unwrap_or_else(par::num_threads),
                BATCH_COUNT,
                BATCH_ORDER
            );
            record_plan(w, &args.state, &text, None);
        }
    }
    if args.trace {
        let engine = batch.map(|(e, _)| e);
        return layers::run_traced(w, args.seed, args.seconds, &setups, engine, &args.state);
    }
    let samples = match (batch, plan) {
        (Some(batch), _) => run_batch(args.seed, args.seconds, &pool, batch),
        (None, Some(plan)) => run_dense(w, args.seed, args.seconds, &plan),
        (None, None) => unreachable!("dense workloads have a plan"),
    };
    let mut m = Metrics::default();
    samples.end_to_end(&setups, &mut m);
    Ok(metrics::Report {
        correct: samples.failed == 0,
        attempted: samples.attempted,
        failed: samples.failed,
        metrics: m,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("setup") => {
            let w = match parse_args(&argv[1..]) {
                Ok(a) => a.workload,
                Err(e) => {
                    eprintln!("perfbench setup: {e}");
                    return ExitCode::from(2);
                }
            };
            let first = batch_pool(w, 0, 1);
            let (s, _) = set_up(w, first.first().map_or(&[], Vec::as_slice));
            println!("setup {} {} {}", s.plan_ns, s.pool_ns, s.batch_ns);
            ExitCode::SUCCESS
        }
        Some("run") => {
            let args = match parse_args(&argv[1..]) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("perfbench run: {e}");
                    return ExitCode::from(2);
                }
            };
            match run(&args) {
                Ok(report) => {
                    report.print();
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench run: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("usage: perfbench run --workload square|tall|batch --seed N --seconds S --trace 0|1 [--state DIR]");
            ExitCode::from(2)
        }
    }
}
