//! Argument parsing and command dispatch (hand-rolled; no external deps).

use crate::io;
use std::path::PathBuf;
use treesvd_core::{
    blocked_svd, BlockKernel, BlockedOptions, HestenesSvd, HierBlocking, OrderingKind, SvdOptions,
    TopologyKind,
};

/// Usage text shown on errors.
pub const USAGE: &str = "\
usage:
  treesvd svd <matrix-file> [--auto] [--ordering NAME] [--topology NAME]
              [--no-vectors]
              [--distributed] [--no-overlap] [--processors P]
              [--block-kernel NAME] [--threads N]
              [--qr-frontend] [--qr-crossover X] [--hier-block auto|off|W]
              [--chaos SEED] [--recv-timeout MS] [--max-retries N]
              [--sigma-out FILE] [--u-out FILE] [--v-out FILE]
  treesvd analyze [--ordering NAME] [--n N] [--topology NAME]
                  [--groups M] [--words W]
                  [--emit-cert FILE | --check-cert FILE]
  treesvd batch --order N --count K [--rows M] [--seed S] [--lanes L]
                [--scalar] [--threads T] [--no-vectors] [--max-sweeps S]
  treesvd lstsq <matrix-file> <rhs-file> [--rcond X]
  treesvd cond <matrix-file>
  treesvd info

orderings:  ring | round-robin | fat-tree | new-ring | modified-ring |
            llb-fat-tree | hybrid          (default: fat-tree)
topologies: perfect | fat-tree | cm5 | binary | skinny-above-K
            (default: perfect for svd; none for analyze)
block kernels (with --processors): pairwise | gram   (default: gram)
--auto lets the calibrated cost model pick the whole execution config
            (blocked driver: block pairs, ordering, kernel, block width,
            threads, QR crossover, hierarchical blocking); combine only with the
            problem statement — --topology, --no-vectors, and --processors
            as a parallelism budget. Pinning a config flag (--ordering,
            --block-kernel, --no-overlap, …) alongside --auto is an error
--no-overlap pins comm/compute overlap off in the distributed executor
            (bitwise-identical results; when the flag is absent the
            calibrated cost model decides per shape)
--threads N caps the host worker lanes (default: machine parallelism,
            or the TREESVD_THREADS environment variable)
--qr-frontend enables the tall-skinny QR front-end: past the aspect
            crossover the sweeps run on the small n×n factor R and U is
            back-transformed through the TSQR tree (never forming Q)
--qr-crossover X sets the m/n ratio at which the front-end engages
            (default 8; requires --qr-frontend)
--hier-block auto|off|W controls cache-level blocking of the blocked
            driver's meetings: auto (default) probes L2 (TREESVD_L2
            override honored), off is flat, W splits unions wider than
            W columns
--chaos SEED arms the seeded fault-injection plan on the distributed
            executor (requires --distributed); recovery must reproduce
            the fault-free run bitwise or fail with a diagnostic
--recv-timeout MS / --max-retries N tune the receive watchdog and
            retransmission budget of the recovery layer (distributed)
--emit-cert FILE runs the provers and, when every check passes, writes
            a serialized proof certificate whose witnesses any later
            `--check-cert` run can validate without re-proving
--check-cert FILE validates a previously emitted certificate against
            the named schedule in O(plan) — no provers are re-run;
            exits non-zero on any witness mismatch or version skew
batch:      synthetic throughput run of the batched small-SVD engine —
            K random M×N problems (M defaults to N, N ≤ 64 is the
            intended regime) solved in SoA lanes; --lanes picks the
            group width (4 | 8 | 16, default 8), --scalar forces the
            portable kernel path (bitwise-identical results)";

fn parse_ordering(name: &str) -> Result<OrderingKind, String> {
    OrderingKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown ordering {name:?}"))
}

fn parse_topology(name: &str) -> Result<TopologyKind, String> {
    if let Some(cut) = name.strip_prefix("skinny-above-") {
        let cut: u32 = cut.parse().map_err(|e| format!("bad cut level in {name:?}: {e}"))?;
        return Ok(TopologyKind::SkinnyAbove(cut));
    }
    match name {
        "perfect" | "perfect-fat-tree" | "fat-tree" => Ok(TopologyKind::PerfectFatTree),
        "cm5" | "cm5-tree" => Ok(TopologyKind::Cm5),
        "binary" | "binary-tree" => Ok(TopologyKind::BinaryTree),
        _ => Err(format!("unknown topology {name:?}")),
    }
}

/// Run the CLI on `argv`, returning the stdout text.
///
/// # Errors
/// A human-readable message for any usage or runtime failure.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some(cmd) = argv.first() else {
        return Err("missing command".to_string());
    };
    match cmd.as_str() {
        "svd" => cmd_svd(&argv[1..]),
        "analyze" => cmd_analyze(&argv[1..]),
        "batch" => cmd_batch(&argv[1..]),
        "lstsq" => cmd_lstsq(&argv[1..]),
        "cond" => cmd_cond(&argv[1..]),
        "info" => Ok(cmd_info()),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Pull `--flag value` out of a mutable arg list; returns the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Pull a boolean `--flag` out of a mutable arg list.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_svd(rest: &[String]) -> Result<String, String> {
    let mut args = rest.to_vec();
    let auto = take_switch(&mut args, "--auto");
    let ordering_flag = take_flag(&mut args, "--ordering")?;
    let ordering = match ordering_flag.as_deref() {
        Some(name) => parse_ordering(name)?,
        None => OrderingKind::FatTree,
    };
    let topology = match take_flag(&mut args, "--topology")? {
        Some(name) => parse_topology(&name)?,
        None => TopologyKind::PerfectFatTree,
    };
    let sigma_out = take_flag(&mut args, "--sigma-out")?.map(PathBuf::from);
    let u_out = take_flag(&mut args, "--u-out")?.map(PathBuf::from);
    let v_out = take_flag(&mut args, "--v-out")?.map(PathBuf::from);
    let processors = take_flag(&mut args, "--processors")?
        .map(|p| p.parse::<usize>().map_err(|e| format!("--processors: {e}")))
        .transpose()?;
    if processors == Some(0) {
        return Err("--processors must be at least 1".to_string());
    }
    let block_kernel_flag = take_flag(&mut args, "--block-kernel")?;
    let block_kernel = match block_kernel_flag.as_deref() {
        None => BlockKernel::Gram,
        Some("gram") => BlockKernel::Gram,
        Some("pairwise") => BlockKernel::Pairwise,
        Some(other) => return Err(format!("unknown block kernel {other:?}")),
    };
    let threads = take_flag(&mut args, "--threads")?
        .map(|t| t.parse::<usize>().map_err(|e| format!("--threads: {e}")))
        .transpose()?;
    if threads == Some(0) {
        return Err("--threads must be at least 1".to_string());
    }
    let chaos = take_flag(&mut args, "--chaos")?
        .map(|s| s.parse::<u64>().map_err(|e| format!("--chaos: {e}")))
        .transpose()?;
    let recv_timeout = take_flag(&mut args, "--recv-timeout")?
        .map(|t| t.parse::<u64>().map_err(|e| format!("--recv-timeout: {e}")))
        .transpose()?;
    let max_retries = take_flag(&mut args, "--max-retries")?
        .map(|r| r.parse::<u32>().map_err(|e| format!("--max-retries: {e}")))
        .transpose()?;
    let qr_frontend = take_switch(&mut args, "--qr-frontend");
    let qr_crossover = take_flag(&mut args, "--qr-crossover")?
        .map(|x| x.parse::<f64>().map_err(|e| format!("--qr-crossover: {e}")))
        .transpose()?;
    if qr_crossover.is_some() && !qr_frontend {
        return Err("--qr-crossover only applies with --qr-frontend".to_string());
    }
    let hier_flag = take_flag(&mut args, "--hier-block")?;
    let hier = match hier_flag.as_deref() {
        None | Some("auto") => HierBlocking::Auto,
        Some("off") => HierBlocking::Off,
        Some(w) => HierBlocking::Cols(
            w.parse::<usize>()
                .map_err(|_| format!("--hier-block: auto, off, or a width, got {w:?}"))?,
        ),
    };
    let no_vectors = take_switch(&mut args, "--no-vectors");
    let distributed = take_switch(&mut args, "--distributed");
    let no_overlap = take_switch(&mut args, "--no-overlap");
    if auto {
        // --auto delegates the whole execution config to the tuner; only
        // the problem statement (matrix, --topology, --processors budget,
        // --no-vectors) and output flags may accompany it.
        let pinned = [
            ("--ordering", ordering_flag.is_some()),
            ("--block-kernel", block_kernel_flag.is_some()),
            ("--no-overlap", no_overlap),
            ("--threads", threads.is_some()),
            ("--qr-frontend", qr_frontend),
            ("--qr-crossover", qr_crossover.is_some()),
            ("--hier-block", hier_flag.is_some()),
            ("--distributed", distributed),
            ("--chaos", chaos.is_some()),
            ("--recv-timeout", recv_timeout.is_some()),
            ("--max-retries", max_retries.is_some()),
        ];
        if let Some((flag, _)) = pinned.iter().find(|(_, set)| *set) {
            return Err(format!(
                "--auto selects the full execution config, but {flag} pins part of it by hand; \
                 drop {flag} to let the tuner decide, or drop --auto to keep your explicit config"
            ));
        }
    }
    if !distributed && (chaos.is_some() || recv_timeout.is_some() || max_retries.is_some()) {
        return Err(
            "--chaos / --recv-timeout / --max-retries only apply with --distributed".to_string()
        );
    }
    let [path] = args.as_slice() else {
        return Err("svd needs exactly one matrix file".to_string());
    };

    let a = io::read_matrix(&PathBuf::from(path))?;
    let mut opts = SvdOptions::default()
        .with_ordering(ordering)
        .with_topology(topology)
        .with_vectors(!no_vectors)
        .with_block_kernel(block_kernel)
        .with_threads(threads)
        .with_qr_frontend(qr_frontend)
        .with_hier_blocking(hier);
    if no_overlap {
        // pin overlap off; when the flag is absent the option stays unset
        // and the distributed executor asks the cost model
        opts = opts.with_overlap(false);
    }
    if let Some(x) = qr_crossover {
        opts = opts.with_qr_crossover(x);
    }
    if let Some(seed) = chaos {
        opts = opts.with_chaos(seed);
    }
    if let Some(ms) = recv_timeout {
        opts = opts.with_recv_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(r) = max_retries {
        opts = opts.with_max_retries(r);
    }

    let mut out = String::new();
    let fe_tag = |engaged: bool| if engaged { ", qr front-end" } else { "" };
    let (svd, sweeps, ordering_name, extra) = if auto {
        let mut problem = treesvd_core::TuneProblem::new(a.rows(), a.cols())
            .with_vectors(!no_vectors)
            .with_topology(topology);
        if let Some(p) = processors {
            problem = problem.with_processors(p);
        }
        let run = treesvd_core::auto_svd_for(&a, &problem).map_err(|e| e.to_string())?;
        let plan = run.plan;
        let kernel = match plan.kernel {
            treesvd_core::KernelSel::Gram => "gram",
            treesvd_core::KernelSel::Pairwise => "pairwise",
        };
        let extra = format!(
            "auto plan: {} driver, {kernel} kernel, {} thread(s), predicted {:.3e} ns{}",
            plan.driver.name(),
            plan.threads,
            plan.predicted_ns,
            fe_tag(run.qr_frontend)
        );
        (run.svd, run.sweeps, plan.ordering.name(), extra)
    } else if let Some(p) = processors {
        let run = blocked_svd(&a, &BlockedOptions { processors: p, svd: opts })
            .map_err(|e| e.to_string())?;
        (
            run.svd,
            run.sweeps,
            ordering.name(),
            format!("block size {}{}", run.block_size, fe_tag(run.qr_frontend)),
        )
    } else if distributed {
        let run = HestenesSvd::new(opts).compute_distributed(&a).map_err(|e| e.to_string())?;
        let mut extra = format!("distributed executor{}", fe_tag(run.qr_frontend));
        if let Some(health) = &run.health {
            let f = health.faults;
            extra.push_str(&format!(
                "\n# health: {} faults injected ({} drops, {} delays, {} dups, \
                 {} corruptions, {} stalls), {} redeliveries, {} retries, {} restarts",
                f.injected(),
                f.drops,
                f.delays,
                f.duplicates,
                f.corruptions,
                f.stalls,
                f.redeliveries,
                health.retries,
                health.restarts
            ));
            if health.fallbacks.is_empty() {
                extra.push_str(", no fallbacks");
            } else {
                extra.push_str(&format!(", fell back past [{}]", health.fallbacks.join(" → ")));
            }
        }
        (run.svd, run.sweeps, ordering.name(), extra)
    } else {
        let run = HestenesSvd::new(opts).compute(&a).map_err(|e| e.to_string())?;
        (
            run.svd,
            run.sweeps,
            ordering.name(),
            format!(
                "simulated time {:.3e} on {topology}{}",
                run.simulated_time,
                fe_tag(run.qr_frontend)
            ),
        )
    };
    let sigma = svd.sigma.clone();

    out.push_str(&format!(
        "# {}x{} matrix, ordering {ordering_name}, {sweeps} sweeps, {extra}\n",
        a.rows(),
        a.cols(),
    ));
    out.push_str("# singular values (descending):\n");
    out.push_str(&io::format_vector(&sigma));
    if let Some(p) = sigma_out {
        std::fs::write(&p, io::format_vector(&sigma))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        out.push_str(&format!("# sigma written to {}\n", p.display()));
    }
    if let Some(p) = u_out {
        std::fs::write(&p, io::format_matrix(&svd.u))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        out.push_str(&format!("# U written to {}\n", p.display()));
    }
    if let Some(p) = v_out {
        std::fs::write(&p, io::format_matrix(&svd.v))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        out.push_str(&format!("# V written to {}\n", p.display()));
    }
    Ok(out)
}

fn cmd_analyze(rest: &[String]) -> Result<String, String> {
    let mut args = rest.to_vec();
    let ordering = match take_flag(&mut args, "--ordering")? {
        Some(name) => parse_ordering(&name)?,
        None => OrderingKind::FatTree,
    };
    let n = take_flag(&mut args, "--n")?
        .map_or(Ok(32), |v| v.parse::<usize>().map_err(|e| format!("--n: {e}")))?;
    let topology = take_flag(&mut args, "--topology")?.map(|t| parse_topology(&t)).transpose()?;
    let groups = take_flag(&mut args, "--groups")?
        .map(|v| v.parse::<usize>().map_err(|e| format!("--groups: {e}")))
        .transpose()?;
    let words = take_flag(&mut args, "--words")?
        .map_or(Ok(1), |v| v.parse::<u64>().map_err(|e| format!("--words: {e}")))?;
    let emit_cert = take_flag(&mut args, "--emit-cert")?.map(PathBuf::from);
    let check_cert = take_flag(&mut args, "--check-cert")?.map(PathBuf::from);
    if emit_cert.is_some() && check_cert.is_some() {
        return Err("--emit-cert and --check-cert are mutually exclusive".to_string());
    }
    if !args.is_empty() {
        return Err(format!("analyze: unexpected argument {:?}", args[0]));
    }

    let ord: Box<dyn treesvd_orderings::JacobiOrdering> = match groups {
        Some(m) => {
            if ordering != OrderingKind::Hybrid {
                return Err("--groups only applies to the hybrid ordering".to_string());
            }
            Box::new(treesvd_orderings::HybridOrdering::new(n, m).map_err(|e| e.to_string())?)
        }
        None => ordering.build(n).map_err(|e| e.to_string())?,
    };

    let opts = treesvd_analyze::AnalysisOptions {
        topology: topology.map(|kind| treesvd_net::Topology::new(kind, n / 2)),
        words_per_column: words,
    };

    // fast path: validate an existing certificate without re-proving
    if let Some(path) = check_cert {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let cert = treesvd_analyze::ProofCertificate::parse(&text).map_err(|e| e.to_string())?;
        let obligations = treesvd_analyze::check_certificate(&cert, ord.as_ref(), &opts)
            .map_err(|e| format!("certificate rejected: {e}"))?;
        return Ok(format!(
            "# certificate {} VALID for {} (n = {n}): {obligations} proof obligation(s) \
             discharged without re-running the provers\n",
            path.display(),
            ord.name(),
        ));
    }

    let report = treesvd_analyze::analyze_ordering(ord.as_ref(), &opts);
    if !report.is_verified() {
        return Err(format!("schedule verification failed\n{report}"));
    }
    let mut out = report.to_string();
    if let Some(path) = emit_cert {
        let cert = treesvd_analyze::emit_certificate(ord.as_ref(), &opts, true, true)
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, cert.to_text()).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push_str(&format!("# proof certificate written to {}\n", path.display()));
    }
    Ok(out)
}

fn cmd_batch(rest: &[String]) -> Result<String, String> {
    let mut args = rest.to_vec();
    let order = take_flag(&mut args, "--order")?
        .ok_or_else(|| "batch needs --order N".to_string())?
        .parse::<usize>()
        .map_err(|e| format!("--order: {e}"))?;
    let count = take_flag(&mut args, "--count")?
        .ok_or_else(|| "batch needs --count K".to_string())?
        .parse::<usize>()
        .map_err(|e| format!("--count: {e}"))?;
    let rows = take_flag(&mut args, "--rows")?
        .map_or(Ok(order), |v| v.parse::<usize>().map_err(|e| format!("--rows: {e}")))?;
    let seed = take_flag(&mut args, "--seed")?
        .map_or(Ok(42), |v| v.parse::<u64>().map_err(|e| format!("--seed: {e}")))?;
    let lanes = take_flag(&mut args, "--lanes")?.map_or(Ok(treesvd_batch::LANES), |v| {
        v.parse::<usize>().map_err(|e| format!("--lanes: {e}"))
    })?;
    let threads = take_flag(&mut args, "--threads")?
        .map(|t| t.parse::<usize>().map_err(|e| format!("--threads: {e}")))
        .transpose()?;
    if threads == Some(0) {
        return Err("--threads must be at least 1".to_string());
    }
    let max_sweeps = take_flag(&mut args, "--max-sweeps")?
        .map_or(Ok(60), |v| v.parse::<usize>().map_err(|e| format!("--max-sweeps: {e}")))?;
    let scalar = take_switch(&mut args, "--scalar");
    let no_vectors = take_switch(&mut args, "--no-vectors");
    if !args.is_empty() {
        return Err(format!("batch: unexpected argument {:?}", args[0]));
    }

    // fill the SoA batch one problem at a time so peak memory stays at
    // one dense matrix plus the batch itself
    let mut batch = treesvd_batch::BatchSoA::new(rows, order, count, lanes)
        .map_err(|e| format!("batch setup: {e}"))?;
    for i in 0..count {
        let m = treesvd_matrix::generate::random_uniform(rows, order, seed.wrapping_add(i as u64));
        batch.set_problem(i, &m).map_err(|e| format!("batch setup: {e}"))?;
    }

    let path = if scalar { treesvd_batch::LanePath::Scalar } else { treesvd_batch::LanePath::Auto };
    let opts = treesvd_batch::BatchOptions::default()
        .with_path(path)
        .with_vectors(!no_vectors)
        .with_max_sweeps(max_sweeps)
        .with_threads(threads);
    let start = std::time::Instant::now();
    let out = treesvd_batch::batch_svd(&mut batch, &opts).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();

    let stats = out.stats;
    let mut text = format!(
        "# batched svd: {count} problems of {rows}x{order}, lanes {}, path {}, seed {seed}\n",
        stats.lanes,
        if scalar { "scalar" } else { "auto" },
    );
    text.push_str(&format!(
        "# {} lane groups, max {} sweeps, {} alloc events\n",
        stats.groups, stats.max_sweeps_used, stats.alloc_events
    ));
    text.push_str(&format!(
        "# solved in {elapsed:.6} s — {:.0} problems/s\n",
        count as f64 / elapsed.max(1e-12)
    ));
    text.push_str("# singular values of problem 0 (descending):\n");
    text.push_str(&io::format_vector(out.sigma(0)));
    Ok(text)
}

fn cmd_lstsq(rest: &[String]) -> Result<String, String> {
    let mut args = rest.to_vec();
    let rcond = take_flag(&mut args, "--rcond")?
        .map(|x| x.parse::<f64>().map_err(|e| format!("--rcond: {e}")))
        .transpose()?;
    let [a_path, b_path] = args.as_slice() else {
        return Err("lstsq needs a matrix file and a rhs file".to_string());
    };
    let a = io::read_matrix(&PathBuf::from(a_path))?;
    let b_mat = io::read_matrix(&PathBuf::from(b_path))?;
    if b_mat.cols() != 1 {
        return Err(format!("rhs must be a single column, got {} columns", b_mat.cols()));
    }
    let b: Vec<f64> = b_mat.col(0).to_vec();
    if b.len() != a.rows() {
        return Err(format!("rhs has {} rows, matrix has {}", b.len(), a.rows()));
    }
    let sol = treesvd_apps::lstsq(&a, &b, rcond).map_err(|e| e.to_string())?;
    let mut out = format!(
        "# effective rank {}, residual norm {:.6e}\n# solution:\n",
        sol.effective_rank, sol.residual_norm
    );
    out.push_str(&io::format_vector(&sol.x));
    Ok(out)
}

fn cmd_cond(rest: &[String]) -> Result<String, String> {
    let [path] = rest else {
        return Err("cond needs exactly one matrix file".to_string());
    };
    let a = io::read_matrix(&PathBuf::from(path))?;
    let kappa = treesvd_apps::condition_number(&a).map_err(|e| e.to_string())?;
    Ok(format!("{kappa:.6e}\n"))
}

fn cmd_info() -> String {
    let mut out = String::from("treesvd — Zhou & Brent (ICPP 1993) reproduction\n\norderings:\n");
    for kind in OrderingKind::ALL {
        out.push_str(&format!("  {}\n", kind.name()));
    }
    out.push_str(
        "\ntopologies:\n  perfect (binary fat-tree)\n  cm5 (skinny, ×√2 capacity per level)\n  binary (capacity 1 everywhere)\n  skinny-above-K (perfect up to level K, frozen above)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn write_temp(name: &str, content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("treesvd-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    }

    #[test]
    fn auto_runs_and_reports_its_plan() {
        let p = write_temp("auto.txt", "3 0\n0 4\n1 1\n");
        let out = run(&argv(&["svd", p.to_str().unwrap(), "--auto"])).unwrap();
        assert!(out.contains("auto plan:"), "{out}");
        assert!(out.contains("driver"), "{out}");
        // the tuner changes how, never what: spectrum matches the default path
        let base = run(&argv(&["svd", p.to_str().unwrap()])).unwrap();
        let sigmas = |s: &str| -> Vec<f64> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.trim().parse::<f64>().ok())
                .collect()
        };
        for (a, b) in sigmas(&base).iter().zip(sigmas(&out).iter()) {
            assert!((a - b).abs() < 1e-9 * a.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn auto_accepts_the_problem_statement_flags() {
        let p = write_temp("auto_ps.txt", "2 0 0\n0 3 0\n0 0 5\n1 1 1\n");
        let out = run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--auto",
            "--no-vectors",
            "--processors",
            "2",
            "--topology",
            "cm5",
        ]))
        .unwrap();
        assert!(out.contains("auto plan:"), "{out}");
    }

    #[test]
    fn auto_rejects_hand_pinned_config_flags() {
        let p = write_temp("auto_conflict.txt", "1 0\n0 2\n");
        for flags in [
            &["--ordering", "ring"][..],
            &["--block-kernel", "gram"],
            &["--no-overlap"],
            &["--threads", "2"],
            &["--qr-frontend"],
            &["--hier-block", "off"],
            &["--distributed"],
            &["--distributed", "--chaos", "7"],
        ] {
            let mut a = argv(&["svd", p.to_str().unwrap(), "--auto"]);
            a.extend(flags.iter().map(|s| s.to_string()));
            let err = run(&a).unwrap_err();
            assert!(err.contains("--auto"), "{flags:?}: {err}");
            assert!(err.contains(flags[0]), "{flags:?}: {err}");
        }
    }

    #[test]
    fn info_lists_all_orderings() {
        let out = run(&argv(&["info"])).unwrap();
        for k in OrderingKind::ALL {
            assert!(out.contains(k.name()), "missing {}", k.name());
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn svd_on_a_small_file() {
        let p = write_temp("a.txt", "3 0\n0 4\n0 0\n");
        let out = run(&argv(&["svd", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 sweeps") || out.contains("sweeps"));
        // sigma descending: 4 then 3
        let nums: Vec<f64> = out
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.trim().parse::<f64>().ok())
            .collect();
        assert!((nums[0] - 4.0).abs() < 1e-12);
        assert!((nums[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn svd_flags_parse() {
        let p = write_temp("b.txt", "1 0\n0 2\n1 1\n");
        let out = run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--ordering",
            "new-ring",
            "--topology",
            "cm5",
            "--no-vectors",
        ]))
        .unwrap();
        assert!(out.contains("new-ring"));
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--ordering", "nope"])).is_err());
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--topology", "nope"])).is_err());
        let out =
            run(&argv(&["svd", p.to_str().unwrap(), "--topology", "skinny-above-2"])).unwrap();
        assert!(out.contains("skinny-above-2"));
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--topology", "skinny-above-x"])).is_err());
    }

    #[test]
    fn svd_distributed_and_blocked_paths() {
        let p = write_temp("c.txt", "2 0 0 0\n0 3 0 0\n0 0 1 0\n0 0 0 4\n1 1 1 1\n");
        let out = run(&argv(&["svd", p.to_str().unwrap(), "--distributed"])).unwrap();
        assert!(out.contains("distributed"));
        // --no-overlap parses and produces the identical spectrum
        let plain =
            run(&argv(&["svd", p.to_str().unwrap(), "--distributed", "--no-overlap"])).unwrap();
        let sigmas = |s: &str| -> Vec<f64> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.trim().parse::<f64>().ok())
                .collect()
        };
        assert_eq!(sigmas(&out), sigmas(&plain), "overlap must be bitwise-invisible");
        let out = run(&argv(&["svd", p.to_str().unwrap(), "--processors", "2"])).unwrap();
        assert!(out.contains("block size"));
    }

    #[test]
    fn svd_block_kernel_and_threads_flags() {
        let p = write_temp("k.txt", "2 0 0 0\n0 3 0 0\n0 0 1 0\n0 0 0 4\n1 1 1 1\n");
        for kernel in ["pairwise", "gram"] {
            let out = run(&argv(&[
                "svd",
                p.to_str().unwrap(),
                "--processors",
                "2",
                "--block-kernel",
                kernel,
                "--threads",
                "1",
            ]))
            .unwrap();
            assert!(out.contains("block size"), "{out}");
        }
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--block-kernel", "nope"])).is_err());
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--threads", "0"])).is_err());
        for extra in [&[][..], &["--auto"]] {
            let mut args = vec!["svd", p.to_str().unwrap(), "--processors", "0"];
            args.extend_from_slice(extra);
            let err = run(&argv(&args)).unwrap_err();
            assert!(err.contains("--processors must be at least 1"), "{err}");
        }
    }

    #[test]
    fn qr_frontend_flags_engage_and_validate() {
        // a 12×2 matrix: aspect 6, so crossover 4 engages and default 8
        // does not
        let rows: String = (0..12).map(|i| format!("{} {}\n", i + 1, (i % 3) as f64)).collect();
        let p = write_temp("tall.txt", &rows);
        let plain = run(&argv(&["svd", p.to_str().unwrap()])).unwrap();
        assert!(!plain.contains("qr front-end"));
        let fe = run(&argv(&["svd", p.to_str().unwrap(), "--qr-frontend", "--qr-crossover", "4"]))
            .unwrap();
        assert!(fe.contains("qr front-end"), "{fe}");
        let sigmas = |s: &str| -> Vec<f64> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.trim().parse::<f64>().ok())
                .collect()
        };
        for (a, b) in sigmas(&plain).iter().zip(sigmas(&fe).iter()) {
            assert!((a - b).abs() < 1e-9 * a.max(1.0), "{a} vs {b}");
        }
        // default crossover 8 leaves a 6:1 matrix on the direct path
        let off = run(&argv(&["svd", p.to_str().unwrap(), "--qr-frontend"])).unwrap();
        assert!(!off.contains("qr front-end"), "{off}");
        // the blocked driver reports the front-end too
        let blk = run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--processors",
            "1",
            "--qr-frontend",
            "--qr-crossover",
            "2",
        ]))
        .unwrap();
        assert!(blk.contains("block size") && blk.contains("qr front-end"), "{blk}");
        // validation
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--qr-crossover", "4"])).is_err());
        assert!(run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--qr-frontend",
            "--qr-crossover",
            "wat"
        ]))
        .is_err());
    }

    #[test]
    fn hier_block_flag_parses_and_matches_flat() {
        let p = write_temp("hier.txt", "2 0 0 0\n0 3 0 0\n0 0 1 0\n0 0 0 4\n1 1 1 1\n");
        let sigmas = |s: &str| -> Vec<f64> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.trim().parse::<f64>().ok())
                .collect()
        };
        let base = run(&argv(&["svd", p.to_str().unwrap(), "--processors", "1"])).unwrap();
        for mode in ["auto", "off", "4"] {
            let out = run(&argv(&[
                "svd",
                p.to_str().unwrap(),
                "--processors",
                "1",
                "--hier-block",
                mode,
            ]))
            .unwrap();
            for (a, b) in sigmas(&base).iter().zip(sigmas(&out).iter()) {
                assert!((a - b).abs() < 1e-9 * a.max(1.0), "mode {mode}: {a} vs {b}");
            }
        }
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--hier-block", "sideways"])).is_err());
    }

    #[test]
    fn chaos_run_matches_the_fault_free_spectrum_and_reports_health() {
        let p = write_temp("chaos.txt", "2 0 0 0\n0 3 0 0\n0 0 1 0\n0 0 0 4\n1 1 1 1\n");
        let clean = run(&argv(&["svd", p.to_str().unwrap(), "--distributed"])).unwrap();
        let chaotic = run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--distributed",
            "--chaos",
            "11",
            "--recv-timeout",
            "20",
            "--max-retries",
            "6",
        ]))
        .unwrap();
        assert!(chaotic.contains("# health:"), "{chaotic}");
        assert!(chaotic.contains("faults injected"), "{chaotic}");
        let sigmas = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .filter(|l| !l.trim().is_empty())
                .map(str::to_string)
                .collect()
        };
        assert_eq!(sigmas(&clean), sigmas(&chaotic), "recovery must be bitwise-invisible");
    }

    #[test]
    fn fault_flags_require_distributed_and_validate() {
        let p = write_temp("chaos2.txt", "1 0\n0 2\n");
        for flags in [&["--chaos", "1"][..], &["--recv-timeout", "50"], &["--max-retries", "3"]] {
            let mut a = argv(&["svd", p.to_str().unwrap()]);
            a.extend(flags.iter().map(|s| s.to_string()));
            let err = run(&a).unwrap_err();
            assert!(err.contains("--distributed"), "{err}");
        }
        assert!(run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--distributed",
            "--chaos",
            "not-a-seed"
        ]))
        .is_err());
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--distributed", "--recv-timeout", "-4"]))
            .is_err());
    }

    #[test]
    fn analyze_acceptance_command_proves_zero_contention() {
        // the headline check: hybrid at n = 64 on the perfect fat-tree
        let out =
            run(&argv(&["analyze", "--ordering", "hybrid", "--n", "64", "--topology", "fat-tree"]))
                .unwrap();
        assert!(out.contains("zero contention"), "{out}");
        for check in ["permutation-safety", "coverage/restore", "contention", "deadlock-freedom"] {
            assert!(out.contains(check), "missing {check} in {out}");
        }
        assert!(!out.contains("FAIL"), "{out}");
    }

    #[test]
    fn analyze_defaults_and_flags() {
        // defaults: fat-tree ordering, n = 32, no topology
        let out = run(&argv(&["analyze"])).unwrap();
        assert!(out.contains("n = 32"), "{out}");
        assert!(out.contains("not checked"), "{out}");
        // explicit groups for the hybrid
        let out = run(&argv(&[
            "analyze",
            "--ordering",
            "hybrid",
            "--n",
            "32",
            "--groups",
            "8",
            "--topology",
            "cm5",
        ]))
        .unwrap();
        assert!(out.contains("OK"), "{out}");
        assert!(run(&argv(&["analyze", "--ordering", "ring", "--groups", "4"])).is_err());
        assert!(run(&argv(&["analyze", "--n", "seven"])).is_err());
        assert!(run(&argv(&["analyze", "stray"])).is_err());
    }

    #[test]
    fn analyze_reports_contention_where_the_paper_predicts_it() {
        // the fat-tree ordering overloads a plain binary tree (§5)
        let err =
            run(&argv(&["analyze", "--ordering", "fat-tree", "--n", "32", "--topology", "binary"]))
                .unwrap_err();
        assert!(err.contains("FAIL"), "{err}");
        assert!(err.contains("contention"), "{err}");
    }

    #[test]
    fn analyze_emit_and_check_cert_round_trip() {
        let dir = std::env::temp_dir().join("treesvd-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let cert = dir.join("ring16.cert");
        let _ = std::fs::remove_file(&cert);
        let base = ["analyze", "--ordering", "ring", "--n", "16", "--topology", "perfect"];
        let mut emit = argv(&base);
        emit.extend(["--emit-cert".to_string(), cert.to_str().unwrap().to_string()]);
        let out = run(&emit).unwrap();
        assert!(out.contains("proof certificate written"), "{out}");

        let mut check = argv(&base);
        check.extend(["--check-cert".to_string(), cert.to_str().unwrap().to_string()]);
        let out = run(&check).unwrap();
        assert!(out.contains("VALID"), "{out}");
        assert!(out.contains("proof obligation(s)"), "{out}");

        // the same certificate must not validate a different schedule
        let mut wrong = argv(&["analyze", "--ordering", "new-ring", "--n", "16"]);
        wrong.extend(["--check-cert".to_string(), cert.to_str().unwrap().to_string()]);
        let err = run(&wrong).unwrap_err();
        assert!(err.contains("certificate rejected"), "{err}");

        // and a truncated file is a parse error with a line number
        let garbled = dir.join("garbled.cert");
        let text = std::fs::read_to_string(&cert).unwrap();
        let keep = text.lines().count() / 2;
        std::fs::write(&garbled, text.lines().take(keep).collect::<Vec<_>>().join("\n")).unwrap();
        let mut bad = argv(&base);
        bad.extend(["--check-cert".to_string(), garbled.to_str().unwrap().to_string()]);
        assert!(run(&bad).is_err());

        // the two flags are mutually exclusive
        let mut both = argv(&base);
        both.extend([
            "--emit-cert".to_string(),
            cert.to_str().unwrap().to_string(),
            "--check-cert".to_string(),
            cert.to_str().unwrap().to_string(),
        ]);
        assert!(run(&both).is_err());
    }

    #[test]
    fn batch_runs_and_reports_throughput() {
        let out = run(&argv(&["batch", "--order", "6", "--count", "37", "--seed", "7"])).unwrap();
        assert!(out.contains("37 problems of 6x6"), "{out}");
        assert!(out.contains("problems/s"), "{out}");
        // 37 problems over 8 lanes → 5 groups
        assert!(out.contains("5 lane groups"), "{out}");
    }

    #[test]
    fn batch_scalar_path_is_bitwise_identical() {
        let base = argv(&["batch", "--order", "5", "--count", "13", "--rows", "9"]);
        let auto = run(&base).unwrap();
        let mut scalar_args = base.clone();
        scalar_args.push("--scalar".to_string());
        let scalar = run(&scalar_args).unwrap();
        let sigmas = |s: &str| -> Vec<String> {
            s.lines().filter(|l| !l.starts_with('#')).map(str::to_string).collect()
        };
        assert_eq!(sigmas(&auto), sigmas(&scalar), "kernel paths must agree bitwise");
    }

    #[test]
    fn batch_flags_validate() {
        assert!(run(&argv(&["batch", "--count", "4"])).is_err(), "missing --order");
        assert!(run(&argv(&["batch", "--order", "4"])).is_err(), "missing --count");
        assert!(run(&argv(&["batch", "--order", "4", "--count", "4", "--lanes", "5"])).is_err());
        assert!(run(&argv(&["batch", "--order", "4", "--count", "4", "--rows", "2"])).is_err());
        assert!(run(&argv(&["batch", "--order", "4", "--count", "4", "--threads", "0"])).is_err());
        assert!(run(&argv(&["batch", "--order", "4", "--count", "4", "stray"])).is_err());
        // lanes 4 and 16, thread caps, and --no-vectors all parse and run
        for extra in [&["--lanes", "4"][..], &["--lanes", "16"], &["--threads", "2"]] {
            let mut a = argv(&["batch", "--order", "3", "--count", "9", "--no-vectors"]);
            a.extend(extra.iter().map(|s| s.to_string()));
            assert!(run(&a).is_ok(), "{extra:?}");
        }
    }

    #[test]
    fn lstsq_solves() {
        let a = write_temp("lsq_a.txt", "1 0\n0 1\n1 1\n");
        let b = write_temp("lsq_b.txt", "1\n2\n3\n");
        let out = run(&argv(&["lstsq", a.to_str().unwrap(), b.to_str().unwrap()])).unwrap();
        assert!(out.contains("effective rank 2"));
    }

    #[test]
    fn lstsq_shape_errors() {
        let a = write_temp("lsq_a2.txt", "1 0\n0 1\n");
        let b = write_temp("lsq_b2.txt", "1\n2\n3\n");
        assert!(run(&argv(&["lstsq", a.to_str().unwrap(), b.to_str().unwrap()])).is_err());
        let b2 = write_temp("lsq_b3.txt", "1 2\n3 4\n");
        assert!(run(&argv(&["lstsq", a.to_str().unwrap(), b2.to_str().unwrap()])).is_err());
    }

    #[test]
    fn cond_of_identity_is_one() {
        let p = write_temp("id.txt", "1 0\n0 1\n");
        let out = run(&argv(&["cond", p.to_str().unwrap()])).unwrap();
        let k: f64 = out.trim().parse().unwrap();
        assert!((k - 1.0).abs() < 1e-10);
    }

    #[test]
    fn u_v_out_write_orthogonal_factors() {
        let p = write_temp("uv.txt", "3 0\n0 4\n1 1\n");
        let dir = std::env::temp_dir().join("treesvd-cli-tests");
        let up = dir.join("u.txt");
        let vp = dir.join("v.txt");
        run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--u-out",
            up.to_str().unwrap(),
            "--v-out",
            vp.to_str().unwrap(),
        ]))
        .unwrap();
        let u = crate::io::read_matrix(&up).unwrap();
        let v = crate::io::read_matrix(&vp).unwrap();
        assert_eq!(u.shape(), (3, 2));
        assert_eq!(v.shape(), (2, 2));
        assert!(treesvd_matrix::checks::orthogonality_residual(&v) < 1e-10);
        assert!(treesvd_matrix::checks::orthogonality_residual(&u) < 1e-10);
    }

    #[test]
    fn sigma_out_writes_file() {
        let p = write_temp("d.txt", "5 0\n0 12\n");
        let outfile = std::env::temp_dir().join("treesvd-cli-tests").join("sigma.txt");
        let _ = std::fs::remove_file(&outfile);
        run(&argv(&["svd", p.to_str().unwrap(), "--sigma-out", outfile.to_str().unwrap()]))
            .unwrap();
        let text = std::fs::read_to_string(&outfile).unwrap();
        let first: f64 = text.lines().next().unwrap().parse().unwrap();
        assert!((first - 12.0).abs() < 1e-10);
    }
}
