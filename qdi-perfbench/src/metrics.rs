//! The metric catalogue, one run's outcome, and its JSON and text
//! renderings.

use crate::stats::{median, quartiles, Tally};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["acquire_attack", "layout_flow"];

/// A declared metric: name, unit, and which direction is better.
pub struct MetricDef {
    /// Name as printed and gated.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
    }
}

/// End-to-end metrics, printed by every untraced run. Each workload
/// fills them from its own operation (README.md maps them to the
/// per-workload names `traces_per_s`, `attack_s`, `flow_s` and
/// `error_rate`). The p90 latencies are printed by name but not gated:
/// their run-to-run spread is too wide for a bound.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", false),
    def("throughput_per_s", "1/s", true),
    def("latency_p50_ms", "ms", false),
    def("peak_rss_mb", "MB", false),
    def("success_rate", "ok/attempted", true),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not measure reads 0 on that workload.
pub const PER_LAYER: &[MetricDef] = &[
    // acquire_attack
    def("sim.setup_us", "us", false),
    def("sim.run_ns_per_transition", "ns", false),
    def("analog.synth_ns_per_pulse", "ns", false),
    def("analog.noise_ns_per_sample", "ns", false),
    def("exec.job_us_1w", "us", false),
    def("exec.job_us_nw", "us", false),
    def("exec.concurrency_slowdown", "ratio", false),
    def("exec.pool_efficiency", "ratio", true),
    def("dpa.bias_ns_per_sample", "ns", false),
    def("dpa.attack_ms_per_guess", "ms", false),
    def("exec.store_encode_mb_s", "MB/s", true),
    def("exec.store_decode_mb_s", "MB/s", true),
    def("sim.transitions_per_trace", "count", false),
    def("sim.end_time_ps", "ps", false),
    def("analog.samples_per_trace", "count", false),
    def("dpa.correct_key_rank", "count", false),
    def("dpa.bias_peak", "au", true),
    // layout_flow
    def("crypto.column_build_ms", "ms", false),
    def("lint.structural_ms", "ms", false),
    def("sym.check_ms", "ms", false),
    def("pnr.place_route_ms", "ms", false),
    def("lint.electrical_ms", "ms", false),
    def("pnr.criterion_ms", "ms", false),
    def("core.leakage_ms", "ms", false),
    def("flow.unattributed_ms", "ms", false),
    def("lint.findings", "count", false),
    def("pnr.max_da_flat", "ratio", false),
    def("pnr.max_da_hier", "ratio", false),
    def("pnr.wirelength_um", "um", false),
    // served jobs, in the acquire_attack traced run
    def("serve.start_ms", "ms", false),
    def("serve.job_latency_ms_p50", "ms", false),
    def("serve.job_latency_ms_p90", "ms", false),
    def("serve.submit_ms_p50", "ms", false),
    def("serve.idle_rtt_ms_p50", "ms", false),
    def("serve.queue_wait_ms_p50", "ms", false),
    def("serve.exec_ms_p50", "ms", false),
    def("serve.report_ms_p50", "ms", false),
    def("serve.sched_yields_per_job", "count", false),
    def("serve.sched_leases_per_job", "count", false),
    def("serve.http_errors", "count", false),
    // every workload
    def("trace.overhead_pct", "%", false),
    def("trace.unattributed_pct", "%", false),
];

/// Per-layer metrics that are counts of simulated behaviour, not
/// timings: for a given seed they repeat exactly, so a change that
/// moves one changed what the program computes.
pub const FINGERPRINT: &[&str] = &[
    "sim.transitions_per_trace",
    "sim.end_time_ps",
    "analog.samples_per_trace",
    "dpa.correct_key_rank",
    "dpa.bias_peak",
    "lint.findings",
    "pnr.max_da_flat",
    "pnr.max_da_hier",
    "pnr.wirelength_um",
];

/// Per-layer values of one traced pass, in a fixed order.
pub type PassValues = Vec<(&'static str, f64)>;

/// A correctness gate's verdict.
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Evidence for the human-readable report.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Correctness gates.
    pub checks: Vec<Check>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Measured metric values (end-to-end or per-layer by mode).
    pub values: Vec<(&'static str, f64)>,
    /// The issue-level names of the end-to-end figures, for people:
    /// `(name, value, unit)`.
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Exact-repeat counts (see [`FINGERPRINT`]).
    pub counts: Vec<(&'static str, f64)>,
    /// Worker counts the run used, for provenance and `--compare`.
    pub workers: Vec<(&'static str, usize)>,
    /// Further provenance, e.g. the serve data dir's filesystem.
    pub notes: Vec<(&'static str, String)>,
    /// Per-operation samples behind a metric, summarized in the report
    /// with their in-run quartiles.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Records a gate. A gate checked again (once per traced pass)
    /// stays one gate that passes only if every check passed; it keeps
    /// the detail of its first failure.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.passed && !passed => {
                c.passed = false;
                c.detail = detail.into();
            }
            Some(_) => {}
            None => self.checks.push(Check {
                name,
                passed,
                detail: detail.into(),
            }),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Sets each metric to its median over the traced passes, which all
    /// report the same names in the same order.
    pub fn set_medians(&mut self, passes: &[PassValues]) {
        let Some(first) = passes.first() else { return };
        for (i, &(name, _)) in first.iter().enumerate() {
            let values: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
            self.set(name, median(&values).expect("passes is non-empty"));
        }
    }

    /// Records an exact-repeat count. In a traced run it is also a
    /// per-layer metric; the untraced result line leaves it out.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
        self.values.push((name, value));
    }

    /// Whether every gate passed and every reported value is finite.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Fills the metrics every workload shares, and checks that every
    /// metric of the mode was measured and is finite.
    pub fn finish(&mut self, traced: bool) {
        if !traced {
            self.set("peak_rss_mb", peak_rss_mb());
            self.set("success_rate", self.tally.success_rate());
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let missing: Vec<&str> = catalogue
            .iter()
            .filter(|m| !traced && self.value(m.name).is_none())
            .map(|m| m.name)
            .collect();
        let unknown: Vec<&str> = self
            .values
            .iter()
            .filter(|(n, _)| !catalogue.iter().any(|m| m.name == *n) && !FINGERPRINT.contains(n))
            .map(|(n, _)| *n)
            .collect();
        let non_finite: Vec<&str> = self
            .values
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| *n)
            .collect();
        self.check(
            "metrics_complete_and_finite",
            missing.is_empty() && unknown.is_empty() && non_finite.is_empty(),
            format!("missing {missing:?}, undeclared {unknown:?}, non-finite {non_finite:?}"),
        );
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|m| {
                let v = self.value(m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(",")
        )
    }

    /// The human-readable report printed above the result line.
    pub fn print_human(&self, workload: &str, traced: bool) {
        let mode = if traced { "traced" } else { "untraced" };
        println!("== {workload} ({mode}) ==");
        for c in &self.checks {
            let verdict = if c.passed { "PASS" } else { "FAIL" };
            println!("gate {verdict} {:<36} {}", c.name, c.detail);
        }
        for (name, value, unit) in &self.report {
            println!("end-to-end {name:<24} {value:>14.4} {unit}");
        }
        println!(
            "end-to-end {:<24} {:>14.6} failed/attempted ({} of {})",
            "error_rate",
            self.tally.error_rate(),
            self.tally.failed,
            self.tally.attempted
        );
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        for m in catalogue {
            if let Some(v) = self.value(m.name) {
                if !FINGERPRINT.contains(&m.name) {
                    println!("metric {:<32} {v:>14.4} {}", m.name, m.unit);
                }
            }
        }
        for (name, samples) in &self.series {
            if let (Some(m), Some((q1, q3))) = (median(samples), quartiles(samples)) {
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                println!(
                    "series {name:<32} n={} median {m:.4} mean {mean:.4} q1 {q1:.4} q3 {q3:.4} spread {:.4}",
                    samples.len(),
                    (q3 - q1) / m
                );
            }
        }
        for (name, value) in &self.counts {
            println!("fingerprint count {name:<28} {value}");
        }
        if !self.counts.is_empty() {
            println!(
                "fingerprint: counts repeat exactly for a seed; the model has no silicon \
                 reference and is validated only against the paper's shapes (EXPERIMENTS.md)"
            );
        }
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether two saved results may be compared: same workload, same mode
/// and the same worker counts.
pub fn comparable(a: &serde::Value, b: &serde::Value) -> Result<(), String> {
    for key in ["workload", "traced"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "{key} differs: {:?} vs {:?}",
                a.get(key),
                b.get(key)
            ));
        }
    }
    let workers = |v: &serde::Value| v.get("provenance").and_then(|p| p.get("workers")).cloned();
    match (workers(a), workers(b)) {
        (Some(wa), Some(wb)) if wa == wb => Ok(()),
        (wa, wb) => Err(format!("worker counts differ: {wa:?} vs {wb:?}")),
    }
}

/// One line per metric: both values and their ratio.
pub fn compare_lines(a: &serde::Value, b: &serde::Value) -> Vec<String> {
    let metrics = |v: &serde::Value| {
        v.get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(serde::Value::as_map)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    let mb = metrics(b);
    metrics(a)
        .iter()
        .filter_map(|(name, va)| {
            let x = va.get("value")?.as_f64()?;
            let y = mb
                .iter()
                .find(|(n, _)| n == name)?
                .1
                .get("value")?
                .as_f64()?;
            let unit = va.get("unit").and_then(serde::Value::as_str).unwrap_or("");
            let ratio = if x == 0.0 { f64::NAN } else { y / x };
            let better = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|m| m.name == name)
                .map_or("", |m| {
                    if m.higher_is_better {
                        "higher is better"
                    } else {
                        "lower is better"
                    }
                });
            Some(format!(
                "{name:<32} {x:>14.4} {y:>14.4} {unit:<12} x{ratio:.4} ({better})"
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue above and `BENCHMARK.json` must agree name for
    /// name, unit for unit and direction for direction.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = serde_json::parse_value_str(text).expect("BENCHMARK.json parses");
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = spec.get(key).and_then(serde::Value::as_seq).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(
                    entry.get("name").and_then(serde::Value::as_str),
                    Some(d.name)
                );
                assert_eq!(
                    entry.get("unit").and_then(serde::Value::as_str),
                    Some(d.unit)
                );
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").and_then(serde::Value::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(serde::Value::as_seq)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(serde::Value::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for name in FINGERPRINT {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.tally.record_many(10, 0);
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        o.check("gate", true, "");
        o.finish(false);
        let v = serde_json::parse_value_str(&o.result_json(false)).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(serde::Value::as_bool), Some(true));
        let metrics = v.get("metrics").and_then(serde::Value::as_map).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.125), "0.125");
    }

    #[test]
    fn a_failed_gate_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check("a", true, "");
        o.check("b", false, "");
        assert!(!o.correct());
        assert!(!Outcome::default().correct(), "no gate ran");
    }

    #[test]
    fn compare_refuses_different_worker_counts() {
        let run = |workers: &str| {
            serde_json::parse_value_str(&format!(
                "{{\"workload\":\"w\",\"traced\":false,\"provenance\":{{\"workers\":{workers}}},\
                 \"result\":{{\"metrics\":{{\"m\":{{\"value\":2.0,\"unit\":\"s\"}}}}}}}}"
            ))
            .unwrap()
        };
        let (a, b, c) = (
            run("{\"exec\":2}"),
            run("{\"exec\":2}"),
            run("{\"exec\":1}"),
        );
        assert!(comparable(&a, &b).is_ok());
        assert!(comparable(&a, &c).is_err());
        assert_eq!(compare_lines(&a, &b).len(), 1);
    }
}
