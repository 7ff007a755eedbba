//! Machine-readable kernel benchmarks: naive vs unrolled vs fused.
//!
//! ```text
//! cargo run --release -p treesvd-bench --bin bench_kernels            # full run,
//!                                                                     # writes BENCH_kernels.json
//! cargo run --release -p treesvd-bench --bin bench_kernels -- --smoke # quick gate, no file:
//!                                                                     # fused must beat unfused
//! ```
//!
//! The full run times every hot-path kernel at several column lengths
//! (median ns/iter over repeated samples) and writes the results — plus
//! the derived unrolled-over-naive and fused-over-unfused speedups and a
//! `meta` provenance block (SIMD tier, lane width, thread budget, seed;
//! `--seed N` overrides the default 42) — to
//! `BENCH_kernels.json` at the repository root. It also times the
//! level-3 kernels of the blocked meeting and the TSQR apply
//! (`gram_block_lower`, `panel_update`, `gemm_tn`, `gemm_acc`) at the
//! shapes those paths run, reported as GF/s in a `level3` list. The smoke run is the
//! cheap regression gate used by `scripts/verify.sh`: on 64 column pairs
//! of length 512 the fused rotate-and-measure kernel must not be slower
//! than the unfused rotate-then-renormalize sequence it replaced.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use treesvd_matrix::ops::{self, axpy, dot, gram3, norm2_sq, rotate_fused, rotate_fused_swapped};
use treesvd_matrix::rotation::compute_rotation;

/// Target wall-clock time for one timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(4);
/// Timed samples per kernel; the median is reported.
const SAMPLES: usize = 9;

/// Median ns/iter of `routine`, batched so each sample runs a few ms.
fn time_ns<F: FnMut() -> f64>(mut routine: F) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(routine());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let batch = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 4_000_000) as usize;
    for _ in 0..batch.min(1000) {
        std::hint::black_box(routine());
    }
    let mut samples = [0.0f64; SAMPLES];
    for s in &mut samples {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        *s = t.elapsed().as_secs_f64() * 1e9 / batch as f64;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[SAMPLES / 2]
}

fn columns(m: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = treesvd_matrix::rng::Rng::seed_from_u64(seed);
    let a: Vec<f64> = (0..m).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b: Vec<f64> = (0..m).map(|_| rng.uniform(-1.0, 1.0)).collect();
    (a, b)
}

/// Orthogonal `k×k` column-major matrix: `rotations` Givens rotations
/// on random column pairs of the identity when `Some`, else the dense
/// Householder reflector `I − 2vvᵀ/(vᵀv)`. Orthogonal so that applying it
/// over and over keeps the panel's magnitude.
fn orthogonal(k: usize, rotations: Option<usize>, seed: u64) -> Vec<f64> {
    let mut rng = treesvd_matrix::rng::Rng::seed_from_u64(seed);
    let mut w = vec![0.0; k * k];
    match rotations {
        Some(n) => {
            for d in 0..k {
                w[d + k * d] = 1.0;
            }
            for _ in 0..n {
                let (p, q) = (rng.next_below(k), rng.next_below(k));
                if p == q {
                    continue;
                }
                let t = rng.uniform(0.0, std::f64::consts::TAU);
                let (c, s) = (t.cos(), t.sin());
                for r in 0..k {
                    let (x, y) = (w[r + k * p], w[r + k * q]);
                    w[r + k * p] = c * x - s * y;
                    w[r + k * q] = s * x + c * y;
                }
            }
        }
        None => {
            let v: Vec<f64> = (0..k).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let scale = 2.0 / v.iter().map(|x| x * x).sum::<f64>();
            for j in 0..k {
                for i in 0..k {
                    w[i + k * j] = f64::from(u8::from(i == j)) - scale * v[i] * v[j];
                }
            }
        }
    }
    w
}

/// One level-3 kernel timing: `flops` is the dense operation count, so a
/// near-identity `W` (whose exact zeros are skipped) reads as the rate a
/// dense product would need to match it.
struct Level3 {
    kernel: &'static str,
    shape: String,
    ns_per_iter: f64,
    flops: f64,
}

/// Time the level-3 kernels at the shapes the blocked meeting and the
/// TSQR apply run: Gram builds of 512×128 and 512×256 unions, the panel
/// update of a 128-column union at 512 and 256 rows with a dense and a
/// near-identity (16 rotations) `W`, and a 4096×32 leaf reflector block
/// applied to 64 columns (`gemm_tn` for `VᵀC`, `gemm_acc` for `C − V·W`).
fn bench_level3(seed: u64) -> Vec<Level3> {
    let mut rng = treesvd_matrix::rng::Rng::seed_from_u64(seed);
    let mut fill = |len: usize| -> Vec<f64> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
    let mut out = Vec::new();
    for k in [128usize, 256] {
        let m = 512;
        let (x, y) = (fill(m * k / 2), fill(m * k / 2));
        let mut g = vec![0.0; (k + 1) * k];
        let ns = time_ns(|| {
            ops::gram_block_lower(&x, &y, m, &mut g, k + 1);
            g[0]
        });
        let shape = format!("{m}x{k}");
        out.push(Level3 {
            kernel: "gram_block_lower",
            shape,
            ns_per_iter: ns,
            flops: (m * k * (k + 1)) as f64,
        });
    }
    let k = 128;
    for m in [512usize, 256] {
        for (kind, rotations) in [("dense", None), ("near_identity", Some(16))] {
            let w = orthogonal(k, rotations, seed ^ m as u64);
            let (mut x, mut y) = (fill(m * k / 2), fill(m * k / 2));
            let mut tile = vec![0.0; k * ops::PANEL_TILE];
            let ns = time_ns(|| {
                ops::panel_update(&mut x, &mut y, m, &w, &mut tile);
                x[0]
            });
            out.push(Level3 {
                kernel: if kind == "dense" {
                    "panel_update_dense"
                } else {
                    "panel_update_near_identity"
                },
                shape: format!("{m}x{k}"),
                ns_per_iter: ns,
                flops: (2 * m * k * k) as f64,
            });
        }
    }
    let (rows, nb, q) = (4096usize, 32usize, 64usize);
    let (v, mut c) = (fill(rows * nb), fill(rows * q));
    let mut w = vec![0.0; nb * q];
    let shape = format!("{rows}x{nb}x{q}");
    let flops = (2 * rows * nb * q) as f64;
    let ns = time_ns(|| {
        ops::gemm_tn(rows, &v, rows, nb, &c, rows, q, &mut w);
        w[0]
    });
    out.push(Level3 { kernel: "gemm_tn", shape: shape.clone(), ns_per_iter: ns, flops });
    // alternate the sign so C stays bounded over the repetitions
    let mut alpha = -1.0;
    let ns = time_ns(|| {
        ops::gemm_acc(rows, &v, rows, nb, &w, q, alpha, &mut c, rows);
        alpha = -alpha;
        c[0]
    });
    out.push(Level3 { kernel: "gemm_acc", shape, ns_per_iter: ns, flops });
    out
}

struct Record {
    kernel: &'static str,
    len: usize,
    ns_per_iter: f64,
}

/// Benchmark every kernel tier at `len`, appending to `records`.
fn bench_len(len: usize, seed: u64, records: &mut Vec<Record>) {
    let (a, b) = columns(len, seed);
    let (alpha, beta, gamma) = gram3(&a, &b);
    let rot = compute_rotation(alpha, beta, gamma, 0.0);
    let mut push = |kernel, ns| records.push(Record { kernel, len, ns_per_iter: ns });

    push("dot_naive", time_ns(|| ops::naive::dot(&a, &b)));
    push("dot_unrolled", time_ns(|| dot(&a, &b)));
    push("norm2_sq_naive", time_ns(|| ops::naive::norm2_sq(&a)));
    push("norm2_sq_unrolled", time_ns(|| norm2_sq(&a)));
    push("gram3_naive", time_ns(|| ops::naive::gram3(&a, &b).2));
    push("gram3_unrolled", time_ns(|| gram3(&a, &b).2));
    {
        let mut y = b.clone();
        push(
            "axpy_naive",
            time_ns(|| {
                ops::naive::axpy(1.0 + 1e-12, &a, &mut y);
                y[0]
            }),
        );
    }
    {
        let mut y = b.clone();
        push(
            "axpy_unrolled",
            time_ns(|| {
                axpy(1.0 + 1e-12, &a, &mut y);
                y[0]
            }),
        );
    }
    {
        let (mut x, mut y) = (a.clone(), b.clone());
        push(
            "rotate_then_norms",
            time_ns(|| ops::naive::rotate_then_norms(rot.c, rot.s, &mut x, &mut y).0),
        );
    }
    {
        let (mut x, mut y) = (a.clone(), b.clone());
        push("rotate_fused", time_ns(|| rotate_fused(rot.c, rot.s, &mut x, &mut y).0));
    }
    {
        let (mut x, mut y) = (a.clone(), b.clone());
        push(
            "rotate_fused_swapped",
            time_ns(|| rotate_fused_swapped(rot.c, rot.s, &mut x, &mut y).0),
        );
    }
}

fn find(records: &[Record], kernel: &str, len: usize) -> f64 {
    records
        .iter()
        .find(|r| r.kernel == kernel && r.len == len)
        .map(|r| r.ns_per_iter)
        .unwrap_or(f64::NAN)
}

fn full_run(seed: u64) {
    let lens = [64usize, 256, 1024, 4096];
    let mut records = Vec::new();
    for &len in &lens {
        eprintln!("benchmarking len {len} ...");
        bench_len(len, seed, &mut records);
    }

    eprintln!("benchmarking level-3 kernels ...");
    let level3 = bench_level3(seed);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p treesvd-bench --bin bench_kernels\",\n",
    );
    let _ = writeln!(json, "  \"meta\": {},", treesvd_bench::meta::meta_json(seed));
    json.push_str("  \"unit\": \"ns_per_iter (median)\",\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"len\": {}, \"ns_per_iter\": {:.2}}}{comma}",
            r.kernel, r.len, r.ns_per_iter
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"level3\": [\n");
    for (i, r) in level3.iter().enumerate() {
        let comma = if i + 1 < level3.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"ns_per_iter\": {:.0}, \"gflops\": {:.2}}}{comma}",
            r.kernel,
            r.shape,
            r.ns_per_iter,
            r.flops / r.ns_per_iter
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedups\": {\n");
    let pairs: [(&str, &str, &str); 5] = [
        ("dot_unrolled_vs_naive", "dot_naive", "dot_unrolled"),
        ("norm2_sq_unrolled_vs_naive", "norm2_sq_naive", "norm2_sq_unrolled"),
        ("gram3_unrolled_vs_naive", "gram3_naive", "gram3_unrolled"),
        ("axpy_unrolled_vs_naive", "axpy_naive", "axpy_unrolled"),
        ("rotate_fused_vs_then_norms", "rotate_then_norms", "rotate_fused"),
    ];
    for (i, (label, base, opt)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        let mut entries = String::new();
        for (j, &len) in lens.iter().enumerate() {
            let c = if j + 1 < lens.len() { ", " } else { "" };
            let s = find(&records, base, len) / find(&records, opt, len);
            let _ = write!(entries, "\"{len}\": {s:.2}{c}");
        }
        let _ = writeln!(json, "    \"{label}\": {{{entries}}}{comma}");
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(out, &json).expect("write BENCH_kernels.json");
    println!("{json}");
    eprintln!("wrote {out}");

    let g = find(&records, "gram3_naive", 1024) / find(&records, "gram3_unrolled", 1024);
    eprintln!("gram3 unrolled speedup at 1024: {g:.2}x");
}

/// Quick gate: fused rotate-and-measure must not lose to the unfused
/// rotate + two-norm sequence on 64 pairs of length-512 columns.
fn smoke_run(seed: u64) -> bool {
    const M: usize = 512;
    const PAIRS: usize = 64;
    let cols: Vec<(Vec<f64>, Vec<f64>)> =
        (0..PAIRS).map(|p| columns(M, seed.wrapping_add(p as u64))).collect();
    let (alpha, beta, gamma) = gram3(&cols[0].0, &cols[0].1);
    let rot = compute_rotation(alpha, beta, gamma, 0.0);

    let mut work = cols.clone();
    let unfused = time_ns(|| {
        let mut acc = 0.0;
        for (x, y) in &mut work {
            acc += ops::naive::rotate_then_norms(rot.c, rot.s, x, y).0;
        }
        acc
    });
    let mut work = cols;
    let fused = time_ns(|| {
        let mut acc = 0.0;
        for (x, y) in &mut work {
            acc += rotate_fused(rot.c, rot.s, x, y).0;
        }
        acc
    });

    // generous 10% slack: the gate guards against regressions, not noise
    let ok = fused <= unfused * 1.10;
    println!(
        "smoke {M}x{PAIRS}: fused {fused:.0} ns vs unfused {unfused:.0} ns ({:.2}x) — {}",
        unfused / fused,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
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
