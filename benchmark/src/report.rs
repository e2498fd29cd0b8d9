//! What a workload returns, and how the runner prints it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{END_TO_END, PER_LAYER};

/// One workload's outcome: ops, check failures, and every metric.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops attempted (simulated runs, trace requests or jobs).
    pub ops: u64,
    /// Ops that did not complete or whose check failed.
    pub ops_failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Lines worth printing above the result (tail percentile, sizes).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed check that spoils `ops` ops.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.ops_failed += ops;
        self.failures.push(what);
    }

    /// True when every check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ops_failed == 0
    }

    /// The final result line: `correct`, `attempted`, `failed` and either
    /// every end-to-end metric or, for the traced run, every per-layer
    /// metric. A metric the workload did not set, or set to a non-finite
    /// value, makes the result incorrect.
    pub fn result_line(&self, traced: bool) -> String {
        let (catalog, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.layer)
        } else {
            (&END_TO_END, &self.e2e)
        };
        let mut correct = self.correct();
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalog.iter().enumerate() {
            let value = match values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.ops.max(1),
            self.ops_failed.min(self.ops.max(1))
        )
    }
}

/// Reads metric `name`'s value back out of a result line.
pub fn metric_from_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Reads the `attempted` or `failed` count back out of a result line.
pub fn count_from_line(line: &str, key: &str) -> Option<u64> {
    let key = format!("\"{key}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Reads the `correct` flag back out of a result line.
pub fn correct_from_line(line: &str) -> bool {
    line.starts_with("{\"correct\": true,")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_every_metric() {
        let mut r = Report {
            ops: 3,
            ..Report::default()
        };
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            r.e2e.insert(name, 1.5 + i as f64);
        }
        let line = r.result_line(false);
        assert!(correct_from_line(&line));
        assert_eq!(count_from_line(&line, "attempted"), Some(3));
        assert_eq!(count_from_line(&line, "failed"), Some(0));
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            assert_eq!(metric_from_line(&line, name), Some(1.5 + i as f64));
        }
    }

    #[test]
    fn a_missing_metric_or_a_failed_check_is_incorrect() {
        let mut r = Report {
            ops: 4,
            ..Report::default()
        };
        assert!(!correct_from_line(&r.result_line(false)));
        for &(name, _) in END_TO_END.iter() {
            r.e2e.insert(name, 1.0);
        }
        assert!(correct_from_line(&r.result_line(false)));
        r.fail(2, "check".into());
        let line = r.result_line(false);
        assert!(!correct_from_line(&line));
        assert!(line.contains("\"attempted\": 4, \"failed\": 2,"));
    }
}
