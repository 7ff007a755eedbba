//! Machine-readable distributed-executor benchmarks: the zero-copy
//! executor with and without comm/compute overlap.
//!
//! ```text
//! cargo run --release -p treesvd-bench --bin bench_distributed            # full run,
//!                                                                         # writes BENCH_distributed.json
//! cargo run --release -p treesvd-bench --bin bench_distributed -- --smoke # quick gate, no file
//! ```
//!
//! The full run times `distributed_svd_with` end to end (one thread per
//! processor, vectors accumulated) over three orderings and two problem
//! sizes, for both schedules of the one executor loop: overlap off
//! (arrivals complete at the end of each step) and send-ahead overlap
//! (arrivals deferred to their point of use). The two configurations are
//! timed interleaved, sample by sample, so host drift hits both alike. It
//! writes median wall-clock seconds, the overlap speedup, and the measured
//! per-step overlap price (the tuner's ν) to `BENCH_distributed.json` at
//! the repository root.
//!
//! The smoke run is the regression gate wired into `scripts/verify.sh`:
//! at new-ring 4096×16 (P = 8) the configuration the driver actually runs
//! — overlap as [`advise_overlap`](treesvd_tune::advise_overlap) decides —
//! must be within 10% of the faster of the two, the overlapped schedule
//! must engage, and both must make zero steady-state payload allocations;
//! at new-ring 4096×32 (P = 16), where overlap pays, overlapped must be
//! within 10% of overlap-off.

use std::fmt::Write as _;
use std::time::Instant;
use treesvd_matrix::generate;
use treesvd_orderings::OrderingKind;
use treesvd_sim::{distributed_svd_with, DistConfig, DistributedOutcome, ExecConfig};

/// Timed samples per configuration; the median is reported.
const SAMPLES: usize = 21;

/// The two executor configurations under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Config {
    ZeroCopy,
    ZeroCopyOverlap,
}

impl Config {
    const ALL: [Config; 2] = [Config::ZeroCopy, Config::ZeroCopyOverlap];

    fn label(self) -> &'static str {
        match self {
            Config::ZeroCopy => "zero-copy",
            Config::ZeroCopyOverlap => "zero-copy+overlap",
        }
    }

    fn dist(self) -> DistConfig {
        DistConfig {
            exec: ExecConfig::default(),
            max_sweeps: 64,
            overlap: self == Config::ZeroCopyOverlap,
            ..DistConfig::default()
        }
    }
}

/// Median wall-clock seconds of a full distributed run under each
/// configuration of `Config::ALL`, sampled interleaved (one run of each per
/// round), plus the outcome of each configuration's final sample for
/// sweep/allocation introspection.
fn time_distributed(
    kind: OrderingKind,
    m: usize,
    n: usize,
    seed: u64,
) -> [(f64, DistributedOutcome); 2] {
    let a = generate::random_uniform(m, n, seed);
    let ord = kind.build(n).expect("ordering");
    let mut rounds = [[0.0f64; 2]; SAMPLES];
    let mut last: [Option<DistributedOutcome>; 2] = [None, None];
    for round in &mut rounds {
        for (c, config) in Config::ALL.into_iter().enumerate() {
            let columns = a.clone().into_columns();
            let t = Instant::now();
            let run = distributed_svd_with(ord.as_ref(), columns, true, &config.dist())
                .expect("distributed_svd");
            round[c] = t.elapsed().as_secs_f64();
            last[c] = Some(run);
        }
    }
    let median = |c: usize| {
        let mut s = rounds.map(|r| r[c]);
        s.sort_by(f64::total_cmp);
        s[SAMPLES / 2]
    };
    let [zc, ov] = last.map(|r| r.expect("every configuration ran"));
    [(median(0), zc), (median(1), ov)]
}

struct Record {
    ordering: OrderingKind,
    n: usize,
    config: Config,
    seconds: f64,
    sweeps: usize,
    overlap: bool,
    steady_allocs: u64,
}

fn find(records: &[Record], ordering: OrderingKind, n: usize, config: Config) -> f64 {
    records
        .iter()
        .find(|r| r.ordering == ordering && r.n == n && r.config == config)
        .map(|r| r.seconds)
        .unwrap_or(f64::NAN)
}

fn full_run(seed: u64) {
    const M: usize = 4096;
    let orderings = [OrderingKind::NewRing, OrderingKind::FatTree, OrderingKind::Hybrid];
    let sizes = [16usize, 32];
    let mut records = Vec::new();

    for &kind in &orderings {
        for &n in &sizes {
            let timed = time_distributed(kind, M, n, seed);
            for (config, (seconds, run)) in Config::ALL.into_iter().zip(timed) {
                eprintln!(
                    "{} n={n:2} P={:2} {}: {seconds:.4} s over {} sweeps \
                     (overlap {}, steady payload allocs {})",
                    kind.name(),
                    n / 2,
                    config.label(),
                    run.sweeps,
                    run.overlap,
                    run.steady_payload_allocs
                );
                records.push(Record {
                    ordering: kind,
                    n,
                    config,
                    seconds,
                    sweeps: run.sweeps,
                    overlap: run.overlap,
                    steady_allocs: run.steady_payload_allocs,
                });
            }
        }
    }

    // The per-step price of the overlapped schedule, observed as the
    // median (overlap − zero-copy) wall-clock delta per schedule step —
    // the one tuner constant a microprobe cannot reach. Steps per sweep
    // ≈ n rounds for these orderings.
    let mut step_deltas: Vec<f64> = Vec::new();
    for &kind in &orderings {
        for &n in &sizes {
            let zc = find(&records, kind, n, Config::ZeroCopy);
            let ov = find(&records, kind, n, Config::ZeroCopyOverlap);
            let sweeps = records
                .iter()
                .find(|r| r.ordering == kind && r.n == n && r.config == Config::ZeroCopyOverlap)
                .map_or(0, |r| r.sweeps);
            let steps = (sweeps * n) as f64;
            if ov.is_finite() && zc.is_finite() && ov > zc && steps > 0.0 {
                step_deltas.push((ov - zc) * 1e9 / steps);
            }
        }
    }
    step_deltas.sort_by(f64::total_cmp);
    let overlap_step_ns = step_deltas.get(step_deltas.len() / 2).copied();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p treesvd-bench --bin bench_distributed\",\n",
    );
    let _ = writeln!(
        json,
        "  \"meta\": {},",
        treesvd_bench::meta::meta_json_calibrated(seed, overlap_step_ns)
    );
    let _ = writeln!(json, "  \"matrix_rows\": {M},");
    json.push_str(
        "  \"unit\": \"seconds (median wall-clock, full distributed_svd, vectors on)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"ordering\": \"{}\", \"n\": {}, \"processors\": {}, \
             \"config\": \"{}\", \"seconds\": {:.6}, \"sweeps\": {}, \
             \"overlap\": {}, \"steady_payload_allocs\": {}}}{comma}",
            r.ordering.name(),
            r.n,
            r.n / 2,
            r.config.label(),
            r.seconds,
            r.sweeps,
            r.overlap,
            r.steady_allocs
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"overlap_speedup_over_zero_copy\": {\n");
    for (i, &kind) in orderings.iter().enumerate() {
        let mut entries = String::new();
        for (j, &n) in sizes.iter().enumerate() {
            let sep = if j + 1 < sizes.len() { ", " } else { "" };
            let s = find(&records, kind, n, Config::ZeroCopy)
                / find(&records, kind, n, Config::ZeroCopyOverlap);
            let _ = write!(entries, "\"{n}\": {s:.2}{sep}");
        }
        let comma = if i + 1 < orderings.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}\": {{{entries}}}{comma}", kind.name());
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_distributed.json");
    std::fs::write(out, &json).expect("write BENCH_distributed.json");
    println!("{json}");
    eprintln!("wrote {out}");
}

/// Quick gate, two points. At new-ring 4096×16 (P = 8): the run the
/// driver makes, with overlap as the tuner advises, must be within 10% of
/// the faster configuration; the overlapped schedule must engage; neither
/// configuration may allocate payload buffers in the steady state. At
/// new-ring 4096×32 (P = 16), where the recorded data shows overlap paying
/// off, overlapped must be within 10% of overlap-off.
fn smoke_run(seed: u64) -> bool {
    const M: usize = 4096;
    let kind = OrderingKind::NewRing;
    // generous 10% slack: the gate guards against regressions, not noise
    const SLACK: f64 = 1.10;

    let n = 16;
    let [(zc, zc_run), (ov, ov_run)] = time_distributed(kind, M, n, seed);
    let advised =
        treesvd_tune::advise_overlap(M, n, true, treesvd_net::TopologyKind::PerfectFatTree);
    let driver = if advised { ov } else { zc };
    let fast_enough = driver <= zc.min(ov) * SLACK;
    let engaged = ov_run.overlap;
    let zero_alloc = zc_run.steady_payload_allocs == 0 && ov_run.steady_payload_allocs == 0;
    let small_ok = fast_enough && engaged && zero_alloc;
    println!(
        "smoke {M}x{n} {}: zero-copy {:.1} ms, overlap {:.1} ms, driver runs overlap {} \
         ({:.2}x the faster), overlap engaged {engaged}, steady payload allocations {}/{} — {}",
        kind.name(),
        zc * 1e3,
        ov * 1e3,
        if advised { "on" } else { "off" },
        driver / zc.min(ov),
        zc_run.steady_payload_allocs,
        ov_run.steady_payload_allocs,
        if small_ok { "PASS" } else { "FAIL" }
    );

    let n = 32;
    let [(zc, _), (ov, ov_run)] = time_distributed(kind, M, n, seed);
    let large_ok = ov <= zc * SLACK && ov_run.overlap;
    println!(
        "smoke {M}x{n} {}: overlap {:.1} ms vs zero-copy {:.1} ms ({:.2}x), \
         overlap engaged {} — {}",
        kind.name(),
        ov * 1e3,
        zc * 1e3,
        zc / ov,
        ov_run.overlap,
        if large_ok { "PASS" } else { "FAIL" }
    );
    small_ok && large_ok
}

fn main() {
    let seed = treesvd_bench::meta::seed_from_args();
    if std::env::args().any(|a| a == "--smoke") {
        if !smoke_run(seed) {
            std::process::exit(1);
        }
    } else {
        full_run(seed);
    }
}
