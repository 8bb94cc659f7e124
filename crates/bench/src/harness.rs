//! Shared experiment infrastructure: run scales, result tables and the
//! simulator factories used by the Chapter 4 and Chapter 5 experiments.

use memtherm::prelude::*;
use memtherm::sim::escape_json;

/// How much work an experiment run performs.
///
/// [`Scale::Paper`] runs the paper's full batch sizes (fifty copies of every
/// application, full SPEC instruction counts); the smaller scales shrink
/// the batch uniformly, which preserves normalized (relative) results — the
/// quantities every figure reports. On a shared 2-core Xeon host one
/// `paper all` invocation (all 27 ids over one level-1 store) took 3.4–4.7 s
/// at Quick and 17–26 s at Paper, as the host's speed varied; Figure 4.11
/// is the longest id at both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest runs, used by the [`bench_case`] benches and CI.
    Smoke,
    /// Default for the `paper` binary: about a second per figure at most
    /// (Figure 4.11 took 1.1–1.3 s on the 2-core host).
    Quick,
    /// The paper's batch sizes: seconds per figure (Figure 4.11 took
    /// 8–12.5 s on the 2-core host, every other id under 2 s).
    Paper,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// MEMSpot configuration for the Chapter 4 simulation experiments under
    /// a cooling configuration.
    pub fn memspot_config(self, cooling: CoolingConfig) -> MemSpotConfig {
        match self {
            Scale::Smoke => MemSpotConfig {
                copies_per_app: 2,
                instruction_scale: 0.6,
                characterization_budget: 15_000,
                ..MemSpotConfig::paper(cooling)
            },
            Scale::Quick => MemSpotConfig {
                copies_per_app: 10,
                instruction_scale: 0.6,
                characterization_budget: 60_000,
                ..MemSpotConfig::paper(cooling)
            },
            Scale::Paper => MemSpotConfig::paper(cooling),
        }
    }

    /// Workload mixes evaluated at this scale (a subset for smoke runs).
    pub fn ch4_mixes(self) -> Vec<WorkloadMix> {
        match self {
            Scale::Smoke => vec![mixes::w1(), mixes::w6()],
            _ => mixes::all_ch4_mixes(),
        }
    }

    /// Batch size (runs per application) for the Chapter 5 platform
    /// experiments.
    pub fn platform_runs_per_app(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Quick => 2,
            Scale::Paper => 10,
        }
    }

    /// Instruction scale for the Chapter 5 platform experiments.
    pub fn platform_instruction_scale(self) -> f64 {
        match self {
            Scale::Smoke => 0.6,
            Scale::Quick => 1.0,
            Scale::Paper => 1.0,
        }
    }
}

/// A printable experiment result: a titled table of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment identifier (e.g. `"fig4_3"`).
    pub id: String,
    /// Human-readable title (what the paper's caption says).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringifying each cell).
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        self.rows.push(row.into_iter().map(|c| c.to_string()).collect());
    }

    /// Serializes the table to JSON.
    pub fn to_json(&self) -> String {
        fn str_array(items: &[String]) -> String {
            let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", escape_json(c))).collect();
            format!("[{}]", cells.join(", "))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| format!("    {}", str_array(r))).collect();
        format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"headers\": {},\n  \"rows\": [\n{}\n  ]\n}}",
            escape_json(&self.id),
            escape_json(&self.title),
            str_array(&self.headers),
            rows.join(",\n")
        )
    }

    /// Looks up a cell by row predicate and column name (used by tests).
    pub fn cell(&self, col: &str, pred: impl Fn(&[String]) -> bool) -> Option<&str> {
        let idx = self.headers.iter().position(|h| h == col)?;
        self.rows.iter().find(|r| pred(r)).and_then(|r| r.get(idx)).map(String::as_str)
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Result of one [`bench_case`] measurement, in a machine-consumable form
/// (serialized into `BENCH_sweep.json` by [`write_bench_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Case label (e.g. `"memspot_w1/dtm_ts"`).
    pub label: String,
    /// Mean wall-clock time per iteration, milliseconds.
    pub mean_ms: f64,
    /// Minimum wall-clock time per iteration, milliseconds.
    pub min_ms: f64,
    /// Number of timed iterations.
    pub iters: usize,
}

/// Minimal wall-clock benchmark runner used by the `benches/` binaries
/// (the container builds offline, so there is no external bench harness).
/// Runs one warm-up iteration plus `iters` timed iterations, prints the
/// mean and minimum time per iteration and returns them as [`BenchStats`]
/// for machine-readable reporting.
pub fn bench_case<T>(label: &str, iters: usize, mut f: impl FnMut() -> T) -> BenchStats {
    let iters = iters.max(1);
    let _warmup = f();
    let mut samples_ms = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = std::time::Instant::now();
        let result = f();
        samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(result);
    }
    let mean = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
    let min = samples_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("{label:<44} {mean:>10.3} ms/iter (min {min:.3} ms, {iters} iters)");
    BenchStats { label: label.to_string(), mean_ms: mean, min_ms: min, iters }
}

/// Path of a bench-output file at the **workspace root**: the nearest
/// directory holding a `Cargo.lock`, searched upward from the run-time
/// `CARGO_MANIFEST_DIR` (set by `cargo bench` and `cargo run`; the package
/// root `crates/bench` for benches, the workspace root for the root
/// package's examples) or, when that is unset, the current directory. It
/// is resolved at run time, so a copy of the repository that reuses
/// another checkout's build writes into its own tree.
pub fn bench_output_path(file_name: &str) -> std::path::PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_default();
    workspace_root(&start).join(file_name)
}

/// The nearest ancestor of `start` (itself included) that holds a
/// `Cargo.lock`, or `start` when none does.
fn workspace_root(start: &std::path::Path) -> std::path::PathBuf {
    start.ancestors().find(|dir| dir.join("Cargo.lock").is_file()).unwrap_or(start).to_path_buf()
}

/// Writes benchmark results as machine-readable JSON (the `BENCH_sweep.json`
/// artifact CI uploads): a `benchmarks` array of [`BenchStats`] plus a flat
/// `metrics` object for scalar quantities such as speedups or cache-hit
/// counts.
pub fn write_bench_json(
    path: impl AsRef<std::path::Path>,
    stats: &[BenchStats],
    metrics: &[(&str, f64)],
) -> std::io::Result<()> {
    fn num(x: f64) -> String {
        if x.is_finite() {
            // Shortest round-trip form: `{x}` prints the fewest digits that
            // parse back to the same f64, so sub-1e-6 metrics (e.g. the
            // 1e-9-grade envelope error bounds) survive the JSON round trip
            // instead of flushing to `0.000000`. A bare integral float
            // prints without a fraction, which is still valid JSON.
            format!("{x}")
        } else {
            "null".to_string()
        }
    }
    let benches: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "    {{\"label\": \"{}\", \"mean_ms\": {}, \"min_ms\": {}, \"iters\": {}}}",
                escape_json(&s.label),
                num(s.mean_ms),
                num(s.min_ms),
                s.iters
            )
        })
        .collect();
    let metric_lines: Vec<String> =
        metrics.iter().map(|(k, v)| format!("    \"{}\": {}", escape_json(k), num(*v))).collect();
    let json = format!(
        "{{\n  \"benchmarks\": [\n{}\n  ],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        benches.join(",\n"),
        metric_lines.join(",\n")
    );
    std::fs::write(path, json)
}

/// Formats a floating point number with three significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a floating point number with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Arithmetic mean of a slice (NaN-free inputs assumed); 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_sizes() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
        assert!(Scale::Smoke.ch4_mixes().len() < Scale::Quick.ch4_mixes().len());
        assert!(Scale::Paper.memspot_config(CoolingConfig::aohs_1_5()).copies_per_app == 50);
        assert!(Scale::Smoke.platform_runs_per_app() <= Scale::Paper.platform_runs_per_app());
        assert!(Scale::Quick.platform_instruction_scale() > 0.0);
    }

    #[test]
    fn tables_render_and_round_trip() {
        let mut t = Table::new("tabX", "demo", &["workload", "value"]);
        t.push_row(["W1", "1.25"]);
        t.push_row(["W2", "0.97"]);
        let s = t.to_string();
        assert!(s.contains("tabX") && s.contains("W2"));
        assert!(t.to_json().contains("\"rows\""));
        assert_eq!(t.cell("value", |r| r[0] == "W1"), Some("1.25"));
        assert_eq!(t.cell("nope", |_| true), None);
    }

    #[test]
    fn small_helpers_behave() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn bench_case_returns_stats() {
        let stats = bench_case("harness/self_test", 3, || std::hint::black_box(21 * 2));
        assert_eq!(stats.label, "harness/self_test");
        assert_eq!(stats.iters, 3);
        assert!(stats.mean_ms >= stats.min_ms);
        assert!(stats.min_ms >= 0.0);
    }

    #[test]
    fn workspace_root_is_the_nearest_ancestor_with_a_lockfile() {
        let base = std::env::temp_dir().join(format!("workspace_root_test_{}", std::process::id()));
        let bench = base.join("ws/crates/bench");
        let nested = base.join("ws/perfbench/src");
        std::fs::create_dir_all(&bench).unwrap();
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(base.join("ws/Cargo.lock"), "").unwrap();
        std::fs::write(base.join("ws/perfbench/Cargo.lock"), "").unwrap();
        // A package directory walks up to the workspace root; a directory
        // holding the lockfile is its own root; the nearest lockfile wins.
        assert_eq!(workspace_root(&bench), base.join("ws"));
        assert_eq!(workspace_root(&base.join("ws")), base.join("ws"));
        assert_eq!(workspace_root(&nested), base.join("ws/perfbench"));
        // A directory under no lockfile is its own root.
        if !base.ancestors().any(|dir| dir.join("Cargo.lock").is_file()) {
            assert_eq!(workspace_root(&base), base);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn bench_json_round_trips_labels_and_metrics() {
        let stats = vec![
            BenchStats { label: "sweep/sequential".to_string(), mean_ms: 12.5, min_ms: 11.0, iters: 3 },
            BenchStats { label: "sweep/\"quoted\"".to_string(), mean_ms: 6.25, min_ms: 6.0, iters: 3 },
            BenchStats { label: "a \"b\" c\\d\ne".to_string(), mean_ms: 1.0, min_ms: 1.0, iters: 1 },
        ];
        let path = std::env::temp_dir().join("bench_json_round_trip_test.json");
        write_bench_json(&path, &stats, &[("speedup", 2.0), ("threads", 4.0), ("rel_err", 3.25e-12)]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(body.contains("\"label\": \"sweep/sequential\""));
        assert!(body.contains("\\\"quoted\\\""));
        // Quote, backslash and newline are escaped, so the label stays on
        // one JSON line.
        assert!(body.contains(r#""label": "a \"b\" c\\d\ne""#), "{body}");
        // Shortest-roundtrip serialization: no fixed-width padding, and
        // sub-1e-6 metrics survive instead of flushing to zero.
        assert!(body.contains("\"mean_ms\": 12.5"));
        assert!(body.contains("\"speedup\": 2"));
        assert!(body.contains("\"rel_err\": 0.00000000000325"));
        assert!(body.contains("\"benchmarks\"") && body.contains("\"metrics\""));
    }
}
