//! Spans recorded by the benchmark around calls into the library's public
//! layers, and `auto_svd` rebuilt from those calls.
//!
//! No span lives inside the library: each one brackets a public call
//! (`plan_for`, `TsqrQr::factor`, `blocked_svd`, `TsqrQr::apply_q`) and
//! the whole pipeline, so what the library does between them — options
//! mapping, allocation of `U`, result assembly — shows up as unattributed
//! time instead of being hidden.

use std::io::Write;
use std::time::Instant;

use treesvd_core::{blocked_svd, options_from_plan, BlockedOptions, DriverSel, Svd, SvdError};
use treesvd_matrix::qr::{Joiner, QrOptions, QrStats, TsqrQr};
use treesvd_matrix::Matrix;
use treesvd_sim::par;
use treesvd_tune::{plan_for, TunePlan, TuneProblem};

/// The stages of the rebuilt pipeline, in call order.
pub const STAGES: [&str; 4] = ["tune.plan", "qr.factor", "blocked", "qr.apply_q"];

/// One timed interval: `parent` indexes the enclosing span, and `call`
/// groups the spans of one pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub call: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log with one clock origin; written out once at the end.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    call: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::with_capacity(1 << 14), call: 0 }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name, parent);
        let r = f();
        self.close(idx);
        r
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { name, call: self.call, parent, start_ns, end_ns: start_ns });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, idx: u32) {
        let end = self.now();
        self.spans[idx as usize].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"call\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.call, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The same fork–join seam the library's QR front-end plugs into the
/// worker pool.
pub struct PoolJoin;

impl Joiner for PoolJoin {
    fn fork(&self, a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        par::join_dyn(a, b);
    }
}

/// What the rebuilt pipeline returns besides the decomposition.
pub struct Traced {
    pub svd: Svd,
    pub sweeps: usize,
    pub rotations: usize,
    pub block_size: usize,
    /// Steady-state allocation events of the blocked stage alone.
    pub blocked_steady_allocs: u64,
    /// `None` when the plan bypasses the QR front-end.
    pub qr: Option<QrStats>,
}

/// Whether the QR front-end engages (the rule `auto_svd` applies to an
/// `m ≥ n` input).
pub fn qr_engages(plan: &TunePlan, m: usize, n: usize) -> bool {
    plan.qr_frontend && m > n && m as f64 >= plan.qr_crossover.max(1.0) * n as f64
}

/// The QR options the front-end builds from a plan.
pub fn qr_options(plan: &TunePlan, problem: &TuneProblem) -> QrOptions {
    let opts = options_from_plan(plan, problem);
    let lanes = opts.threads.unwrap_or_else(par::num_threads).max(1);
    QrOptions { panel: opts.qr_panel.max(1), leaf_rows: 0, lanes }
}

/// `auto_svd(a)` rebuilt from public calls, one span per stage under one
/// `auto` span. Needs `m ≥ n` and a blocked-driver plan.
pub fn traced_auto(rec: &mut Recorder, a: &Matrix) -> Result<Traced, SvdError> {
    let (m, n) = a.shape();
    assert!(m >= n, "the rebuilt pipeline takes m >= n inputs");
    rec.call += 1;
    let root = rec.open("auto", None);
    let problem = TuneProblem::new(m, n);
    let plan = rec.span("tune.plan", Some(root), || plan_for(&problem));
    let DriverSel::Blocked { processors } = plan.driver else {
        panic!("the rebuilt pipeline covers blocked plans only, got {plan:?}");
    };
    let blocked_opts = BlockedOptions {
        processors: usize::from(processors).max(1),
        svd: options_from_plan(&plan, &problem),
    };
    let out = if qr_engages(&plan, m, n) {
        let qr_opts = qr_options(&plan, &problem);
        let qr = rec
            .span("qr.factor", Some(root), || TsqrQr::factor(a, &qr_opts, &PoolJoin))
            .map_err(|_| SvdError::EmptyMatrix)?;
        let run = rec.span("blocked", Some(root), || blocked_svd(qr.r(), &blocked_opts))?;
        let mut svd = run.svd;
        // U = Q·[U_R; 0]: forming [U_R; 0] is library glue, left unattributed
        let mut u = Matrix::zeros(m, n).expect("m, n > 0");
        for j in 0..n {
            u.col_mut(j)[..n].copy_from_slice(svd.u.col(j));
        }
        rec.span("qr.apply_q", Some(root), || qr.apply_q(&mut u, qr_opts.lanes, &PoolJoin));
        svd.u = u;
        Traced {
            svd,
            sweeps: run.sweeps,
            rotations: run.total_rotations,
            block_size: run.block_size,
            blocked_steady_allocs: run.steady_alloc_events,
            qr: Some(qr.stats()),
        }
    } else {
        let run = rec.span("blocked", Some(root), || blocked_svd(a, &blocked_opts))?;
        Traced {
            svd: run.svd,
            sweeps: run.sweeps,
            rotations: run.total_rotations,
            block_size: run.block_size,
            blocked_steady_allocs: run.steady_alloc_events,
            qr: None,
        }
    };
    rec.close(root);
    Ok(out)
}
