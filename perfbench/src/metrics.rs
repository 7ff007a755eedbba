//! Sample bookkeeping, the metric tables and the result line.

use crate::check::Errors;
use crate::mem;
use crate::{Call, Setup};

/// End-to-end metrics: (name, unit). Same order as `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("solve_ms_p50", "ms"),
    ("solve_ms_tail", "ms"),
    ("problems_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics: (name, unit). Same order as `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("tune.plan_cold_ms", "ms"),
    ("tune.probe_runs", "count"),
    ("tune.plan_warm_ns", "ns"),
    ("tune.cache_hit_ratio", "ratio"),
    ("tune.predicted_over_measured", "ratio"),
    ("calib.panel_gflops", "GF/s"),
    ("qr.engaged", "count"),
    ("qr.share", "ratio"),
    ("qr.factor_ms", "ms"),
    ("qr.factor_gflops", "GF/s"),
    ("qr.factor_of_probe", "ratio"),
    ("qr.apply_q_ms", "ms"),
    ("qr.apply_q_gflops", "GF/s"),
    ("qr.apply_q_of_probe", "ratio"),
    ("qr.steady_alloc_events", "count"),
    ("blocked.share", "ratio"),
    ("blocked.solve_ms", "ms"),
    ("blocked.sweeps", "count"),
    ("blocked.rotations", "count"),
    ("blocked.ms_per_sweep", "ms"),
    ("blocked.block_size", "count"),
    ("blocked.steady_alloc_events", "count"),
    ("ops.gram_block_gflops", "GF/s"),
    ("ops.gram_block_of_probe", "ratio"),
    ("ops.panel_update_gflops", "GF/s"),
    ("ops.panel_update_of_probe", "ratio"),
    ("ops.meetings_per_solve", "count"),
    ("ops.kernel_share", "ratio"),
    ("par.lanes", "count"),
    ("par.join_ns", "ns"),
    ("par.speedup_vs_1lane", "ratio"),
    ("batch.ns_per_problem", "ns"),
    ("batch.max_sweeps", "count"),
    ("batch.alloc_events", "count"),
    ("batch.speedup_vs_1lane", "ratio"),
    ("alloc.count_per_solve", "count"),
    ("alloc.bytes_per_solve", "B"),
    ("check.sigma_err_max", "n.eps"),
    ("check.residual_max", "n.eps"),
    ("check.orthogonality_max", "n.eps"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Median of `xs` (mean of the middle two for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, with its percentile rank. `None` below 11
/// samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// What a closed loop observed.
#[derive(Default)]
pub struct Samples {
    /// Wall time of each timed call.
    pub ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub solved: u64,
    pub errors: Errors,
    /// `VmRSS` just before the first call.
    pub rss_before: u64,
    /// Sweeps of each call that reported them.
    pub sweeps: Vec<usize>,
}

impl Samples {
    /// A warm-up call: checked and counted, not timed.
    pub fn note_warmup(&mut self, c: &Call) {
        self.attempted += 1;
        self.failed += u64::from(!c.errors.pass());
        self.errors = self.errors.max(c.errors);
    }

    pub fn note(&mut self, c: Call) {
        self.note_warmup(&c);
        self.ns.push(c.ns as f64);
        self.sweeps.push(c.sweeps);
        self.solved += c.solved;
    }

    /// Fill the end-to-end metrics.
    pub fn end_to_end(&self, setups: &[Setup], m: &mut Metrics) {
        let ms: Vec<f64> = self.ns.iter().map(|x| x / 1e6).collect();
        m.set("solve_ms_p50", median(&ms));
        let (t, pct) = tail(&ms).unwrap_or((f64::NAN, 0.0));
        m.set("solve_ms_tail", t);
        println!("solve_ms_tail is p{pct:.2} of {} timed calls ({} beyond it)", ms.len(), 10);
        let total_s: f64 = self.ns.iter().sum::<f64>() / 1e9;
        m.set("problems_per_s", self.solved as f64 / total_s);
        let setup_s: Vec<f64> = setups.iter().map(|s| s.total_ns() as f64 / 1e9).collect();
        m.set("setup_s", median(&setup_s));
        println!(
            "setup_s is the median of {} fresh processes: plan {:.3} ms, pool {:.3} ms, batch {:.3} ms (medians)",
            setups.len(),
            median(&setups.iter().map(|s| s.plan_ns as f64 / 1e6).collect::<Vec<_>>()),
            median(&setups.iter().map(|s| s.pool_ns as f64 / 1e6).collect::<Vec<_>>()),
            median(&setups.iter().map(|s| s.batch_ns as f64 / 1e6).collect::<Vec<_>>()),
        );
        let hwm = mem::status_bytes("VmHWM").unwrap_or(0);
        let mib = 1024.0 * 1024.0;
        m.set("peak_mem_mb", hwm.saturating_sub(self.rss_before) as f64 / mib);
        let mut hist = std::collections::BTreeMap::new();
        for s in &self.sweeps {
            *hist.entry(*s).or_insert(0usize) += 1;
        }
        println!("sweeps per call: {hist:?}");
        m.set("ok_ratio", (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64);
        println!(
            "checks: {} attempted, {} failed; worst sigma_err {:.3}, residual {:.3}, orthogonality {:.3} (n.eps units)",
            self.attempted, self.failed, self.errors.sigma_err, self.errors.residual, self.errors.orthogonality
        );
    }
}

/// Named metric values.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

impl Report {
    /// Print each metric on its own line, then the JSON result line.
    /// The table is chosen by which metrics were set.
    pub fn print(&self) {
        let table: &[(&str, &str)] =
            if self.metrics.get("solve_ms_p50").is_some() { &END_TO_END } else { &PER_LAYER };
        let mut fields = Vec::new();
        for (name, unit) in table {
            let v =
                self.metrics.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            println!("{name:<30} {v:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric line in one section of
    /// `BENCHMARK.json` (one metric object per line).
    fn section(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, f: &str| -> String {
            let at = line.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
            line[at..at + line[at..].find('"').expect("string closes")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_metric_the_run_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let own = |t: &[(&str, &str)]| {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(section(&text, "end_to_end"), own(&END_TO_END));
        assert_eq!(section(&text, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        assert_eq!(tail(&xs[..11]), Some((1.0, 100.0 / 11.0)));
        assert_eq!(tail(&xs[..10]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
