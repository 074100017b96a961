//! Benchmark harness utilities: timing, statistics, and table rendering
//! for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one figure of the paper's
//! evaluation (`README.md`, "Benchmarks", lists the commands; the
//! runtimes they drive are in `docs/ARCHITECTURE.md`, "One engine, three
//! runtimes, two transports"):
//!
//! * `fig4` — double-auction running time vs `n` (§6.2, Figure 4),
//! * `fig5` — standard-auction running time vs `n` and parallelism
//!   (§6.3, Figure 5),
//! * `ablation_blocks` — per-block overhead breakdown (ours),
//! * `ablation_knobs` — hash-only validation and ε sweeps (ours).
//!
//! Binaries print aligned tables to stdout and, with `--csv`, raw CSV
//! suitable for plotting. `batch_throughput` and `market_soak`
//! additionally take `--json`, writing a machine-readable
//! `BENCH_<name>.json` (configuration + results) via [`json`] so the
//! performance trajectory can be tracked as data, not prose.

pub mod json;

use std::time::{Duration, Instant};

/// Statistics over repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean in seconds.
    pub mean_s: f64,
    /// Minimum in seconds.
    pub min_s: f64,
    /// Maximum in seconds.
    pub max_s: f64,
}

impl Stats {
    /// Summarise a set of durations.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[Duration]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
        let mean_s = secs.iter().sum::<f64>() / secs.len() as f64;
        let min_s = secs.iter().copied().fold(f64::INFINITY, f64::min);
        let max_s = secs.iter().copied().fold(0.0, f64::max);
        Stats { mean_s, min_s, max_s }
    }
}

/// Time one closure invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run `rounds` invocations and summarise them.
pub fn time_rounds(rounds: usize, mut f: impl FnMut(usize)) -> Stats {
    let samples: Vec<Duration> = (0..rounds)
        .map(|r| {
            let start = Instant::now();
            f(r);
            start.elapsed()
        })
        .collect();
    Stats::of(&samples)
}

/// A simple aligned-columns table writer that can also emit CSV.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    csv: bool,
}

impl Table {
    /// Start a table with the given column names. With `csv`, rendering
    /// produces comma-separated values instead of aligned columns.
    pub fn new(header: &[&str], csv: bool) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new(), csv }
    }

    /// Append one row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        if self.csv {
            let mut out = self.header.join(",");
            out.push('\n');
            for row in &self.rows {
                out.push_str(&row.join(","));
                out.push('\n');
            }
            return out;
        }
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Common CLI flags shared by the figure binaries:
/// `--csv`, `--rounds N`, `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonArgs {
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Measurement rounds per configuration.
    pub rounds: usize,
    /// Reduced sweep for CI / smoke runs.
    pub quick: bool,
}

/// Scan `std::env::args` for `name` and parse the following token as a
/// `usize` (`None` if absent or unparsable) — the bench binaries' shared
/// ad-hoc numeric flag parser.
pub fn flag_value(name: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

impl CommonArgs {
    /// Parse from `std::env::args`, with the given default round count.
    pub fn parse(default_rounds: usize) -> CommonArgs {
        let args: Vec<String> = std::env::args().collect();
        let csv = args.iter().any(|a| a == "--csv");
        let quick = args.iter().any(|a| a == "--quick");
        let rounds = args
            .iter()
            .position(|a| a == "--rounds")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_rounds);
        CommonArgs { csv, rounds, quick }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_summarise() {
        let s = Stats::of(&[
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ]);
        assert!((s.mean_s - 0.020).abs() < 1e-9);
        assert!((s.min_s - 0.010).abs() < 1e-9);
        assert!((s.max_s - 0.030).abs() < 1e-9);
    }

    #[test]
    fn time_rounds_runs_n_times() {
        let mut count = 0;
        let _ = time_rounds(5, |_| count += 1);
        assert_eq!(count, 5);
    }

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(&["n", "time"], false);
        t.row(vec!["100".into(), "1.5ms".into()]);
        let s = t.render();
        assert!(s.contains('n'));
        assert!(s.contains("100"));
        let mut t = Table::new(&["n", "time"], true);
        t.row(vec!["100".into(), "0.0015".into()]);
        assert_eq!(t.render(), "n,time\n100,0.0015\n");
    }

    #[test]
    fn fmt_secs_adapts() {
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.005).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a"], false);
        t.row(vec!["1".into(), "2".into()]);
    }
}
