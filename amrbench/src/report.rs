//! Metric catalogue, the outcome of one invocation, and its printed form.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), in print order: name and unit.
pub const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("virtual_s", "s"),
    ("sessions_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in print order: name and unit. Times
/// and counts are per unit of work (one MacroSim run, or one service wave)
/// unless the name says otherwise.
pub const LAYERS: [(&str, &str); 50] = [
    ("workloads.advance_s", "s"),
    ("workloads.advance_calls", "count"),
    ("mesh.build_s", "s"),
    ("mesh.graph_build_s", "s"),
    ("mesh.blocks_final", "count"),
    ("mesh.changed_steps", "count"),
    ("core.place_s", "s"),
    ("core.place_calls", "count"),
    ("core.place_p50_ms", "ms"),
    ("core.place_max_ms", "ms"),
    ("core.over_budget_calls", "count"),
    ("core.blocks_migrated", "count"),
    ("sim.self_s", "s"),
    ("sim.first_step_s", "s"),
    ("sim.virt_compute_s", "s"),
    ("sim.virt_comm_s", "s"),
    ("sim.virt_sync_s", "s"),
    ("sim.virt_redist_s", "s"),
    ("sim.sync_frac", "ratio"),
    ("sim.msgs_local", "count"),
    ("sim.msgs_remote", "count"),
    ("sim.lb_invocations", "count"),
    ("sim.speedup_vs_1t", "ratio"),
    ("pool.cpu_util", "ratio"),
    ("telemetry.rows", "count"),
    ("service.open_s", "s"),
    ("service.drain_s", "s"),
    ("service.close_s", "s"),
    ("service.serve_s", "s"),
    ("service.serve_p50_us", "us"),
    ("service.serve_tail_us", "us"),
    ("service.queue_wait_s", "s"),
    ("service.warm_hit_rate", "ratio"),
    ("service.opens", "count"),
    ("service.requests", "count"),
    ("service.failed", "count"),
    ("bench.trace_overhead", "ratio"),
    // Self time per span name (see `trace::self_times`), per unit of work.
    ("self.bench_other_s", "s"),
    ("self.setup_s", "s"),
    ("self.mesh.build_s", "s"),
    ("self.mesh.graph_build_s", "s"),
    ("self.sim.run_s", "s"),
    ("self.sim.step_s", "s"),
    ("self.workloads.advance_s", "s"),
    ("self.core.place_into_s", "s"),
    ("self.service.open_s", "s"),
    ("self.service.submit_s", "s"),
    ("self.service.drain_s", "s"),
    ("self.service.close_s", "s"),
    ("units", "count"),
];

/// Span names, each with the self-time metric it feeds.
pub const SPAN_METRICS: [(&str, &str); 12] = [
    ("bench", "self.bench_other_s"),
    ("setup", "self.setup_s"),
    ("mesh.build", "self.mesh.build_s"),
    ("mesh.graph_build", "self.mesh.graph_build_s"),
    ("sim.run", "self.sim.run_s"),
    ("sim.step", "self.sim.step_s"),
    ("workloads.advance", "self.workloads.advance_s"),
    ("core.place_into", "self.core.place_into_s"),
    ("service.open", "self.service.open_s"),
    ("service.submit", "self.service.submit_s"),
    ("service.drain", "self.service.drain_s"),
    ("service.close", "self.service.close_s"),
];

/// Values keyed by catalogue name; printed in catalogue order.
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    notes: Vec<Option<String>>,
}

impl Metrics {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            catalogue,
            values: vec![None; catalogue.len()],
            notes: vec![None; catalogue.len()],
        }
    }

    fn index(&self, name: &str) -> usize {
        self.catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.values[i] = Some(value);
    }

    /// Set a value with a printed annotation (e.g. a tail's percentile).
    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        let i = self.index(name);
        self.values[i] = Some(value);
        self.notes[i] = Some(note);
    }

    /// Names never set, and names whose value is not finite.
    pub fn problems(&self) -> Vec<String> {
        self.catalogue
            .iter()
            .zip(&self.values)
            .filter_map(|((name, _), v)| match v {
                None => Some(format!("{name} was not measured")),
                Some(x) if !x.is_finite() => Some(format!("{name} is not finite ({x})")),
                _ => None,
            })
            .collect()
    }

    /// Human-readable lines: `name value unit [note]`.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (((name, unit), v), note) in self.catalogue.iter().zip(&self.values).zip(&self.notes) {
            let _ = write!(out, "  {name:<28} {:>16.6} {unit}", v.unwrap_or(f64::NAN));
            if let Some(note) = note {
                let _ = write!(out, "  ({note})");
            }
            out.push('\n');
        }
        out
    }

    /// The `"metrics"` JSON object. Values print with every digit; a value
    /// that is missing or not finite prints as 0 (and `problems` reports it).
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, ((name, unit), v)) in self.catalogue.iter().zip(&self.values).enumerate() {
            let v = v.filter(|x| x.is_finite()).unwrap_or(0.0);
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push('}');
        out
    }
}

/// Everything one invocation produced.
pub struct Outcome {
    /// Operations attempted (MacroSim runs, or service requests).
    pub attempted: u64,
    /// Operations that returned an error or a `Failed` response.
    pub failed: u64,
    /// Output checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    pub metrics: Metrics,
    /// Extra lines printed before the metrics (self-time table, files).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Metrics::new(catalogue),
            notes: Vec::new(),
        }
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Correct when every check passed, no operation failed, and every
    /// metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1) && self.metrics.problems().is_empty()
    }

    /// The machine-readable result: the last line of standard output.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name is 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or
    /// digit.
    pub fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = E2E.iter().chain(LAYERS.iter()).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        for (_, metric) in SPAN_METRICS {
            assert!(LAYERS.iter().any(|m| m.0 == metric), "{metric}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names = |c: &[(&str, &str)]| c.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(&E2E));
        assert_eq!(declared("per_layer"), names(&LAYERS));
        for (name, unit) in E2E.iter().chain(LAYERS.iter()) {
            let key = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&key), "{key}");
        }
    }

    #[test]
    fn json_line_prints_every_digit_and_flags_gaps() {
        let mut o = Outcome::new(&E2E);
        assert!(!o.correct());
        for (i, (name, _)) in E2E.iter().enumerate() {
            o.metrics.set(name, 0.1 + i as f64);
        }
        o.attempted = 3;
        o.check("runs agree", true);
        assert!(o.correct());
        let line = o.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 8.1, \"unit\": \"MB\"}"));
        o.metrics.set("virtual_s", f64::NAN);
        assert!(!o.correct());
        assert!(o.json_line().contains("\"virtual_s\": {\"value\": 0.0,"));
        o.metrics.set("virtual_s", 1.0);
        o.failed = 1;
        assert!(!o.correct());
    }
}
