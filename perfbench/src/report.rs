//! Collects a run's metrics and verdict and prints them: one line per
//! metric for people, then the machine-readable JSON object as the last
//! line of standard output.

use std::fmt::Write as _;

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str, String)>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record metric `name`; `how` says how it was read (sample size,
    /// percentile, or why the layer is not on this workload's path).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, how: impl Into<String>) {
        self.metrics.push((name.to_string(), value, unit, how.into()));
    }

    /// A failed correctness check: the run's result is not to be trusted
    /// as a timing.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn print(&self) {
        for failure in &self.failures {
            println!("CHECK FAILED: {failure}");
        }
        for (name, value, unit, how) in &self.metrics {
            if how.is_empty() {
                println!("metric {name} = {value} {unit}");
            } else {
                println!("metric {name} = {value} {unit} ({how})");
            }
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; a NaN here is a benchmark
            // bug and already fails a check where it is computed.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}
