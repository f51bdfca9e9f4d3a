//! The result line: correctness, operation counts, and named metrics.

/// A metric a workload declares: name and unit.
pub type MetricSpec = (&'static str, &'static str);

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, replay steps, selections, ...).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record one operation's result, counting it as failed on `Err`.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.mismatch(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Record a failed output check.
    pub fn mismatch(&mut self, message: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(message);
        }
    }

    /// Check `actual == expected`, recording a mismatch otherwise.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, actual: T, expected: T) {
        if actual != expected {
            self.mismatch(format!("{what}: got {actual:?}, expected {expected:?}"));
        }
    }

    /// Add a metric; a missing value (too few samples) is a mismatch, so a
    /// run never prints a result with a hole in it.
    pub fn metric(&mut self, spec: MetricSpec, value: Option<f64>) {
        if !valid_name(spec.0) || !valid_unit(spec.1) {
            self.mismatch(format!("metric {} has a malformed name or unit", spec.0));
            return;
        }
        match value {
            Some(v) if v.is_finite() => self.metrics.push(Metric {
                name: spec.0.to_string(),
                value: v,
                unit: spec.1,
            }),
            _ => self.mismatch(format!("metric {} has no value", spec.0)),
        }
    }

    /// Whether every output check passed, no operation failed, and the
    /// metrics are exactly `declared`, in order.
    pub fn correct(&self, declared: &[MetricSpec]) -> bool {
        self.mismatches.is_empty()
            && self.failed == 0
            && self.metrics.len() == declared.len()
            && self
                .metrics
                .iter()
                .zip(declared)
                .all(|(m, d)| m.name == d.0 && m.unit == d.1)
    }

    /// The final result line.
    pub fn to_json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` with every digit of its shortest round-trip form. The
/// `Debug` spelling (`1.0`, `1.5e-7`, `1e16`) is valid JSON.
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_pattern() {
        assert!(valid_name("core.rank.j-index_s"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(""));
        assert!(!valid_name("query p50"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("serve/score_us"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("MiB/s") && valid_unit("count"));
        assert!(!valid_unit("req per s"));
    }

    #[test]
    fn every_declared_metric_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (workload, specs) in crate::declared_metrics() {
            for (name, unit) in specs {
                assert!(valid_name(name), "{workload}: bad metric name {name:?}");
                assert!(valid_unit(unit), "{workload}: bad unit {unit:?} for {name}");
                assert!(seen.insert((workload, name)), "{workload}: {name} twice");
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn result_line_is_json_with_all_digits() {
        let mut out = Outcome::default();
        out.op("one", Ok::<_, String>(()));
        out.metric(("latency_ms", "ms"), Some(1.203_456_789));
        out.metric(("rate", "1/s"), Some(1.5e-7));
        assert_eq!(
            out.to_json(true),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"rate\": {\"value\": 1.5e-7, \"unit\": \"1/s\"}}}"
        );
        assert!(out.correct(&[("latency_ms", "ms"), ("rate", "1/s")]));
        assert!(!out.correct(&[("latency_ms", "ms")]));
    }

    #[test]
    fn failures_and_holes_make_a_run_incorrect() {
        let mut out = Outcome::default();
        out.op("broken", Err::<(), _>("boom"));
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(!out.correct(&[]));
        let mut out = Outcome::default();
        out.metric(("p99_us", "us"), None);
        assert!(!out.correct(&[]));
    }
}
