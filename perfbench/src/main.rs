//! The repository benchmark: end-to-end and per-layer numbers of the DRAM
//! thermal simulator on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_figures|cadence_sweep|design_sweep|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: the next pass starts
//! when the previous one returns. Passes repeat until the next one would
//! end after `--seconds`; timings are medians over the passes. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run repeats the untraced
//! passes (for the tracing overhead), then makes one pass with spans around
//! every call into a layer and runs the per-layer probes; its spans go to
//! `perfbench/out/` as JSON lines. `--write-reference` regenerates the
//! figure tables the `paper_figures` output check compares against, and
//! `--rebuild-pool <cadence_sweep|design_sweep>` screens a sweep's candidate
//! shuffles and prints its new pool constant (see `grid`).

mod check;
mod figures;
mod grid;
mod host;
mod json;
mod probes;
mod sweeps;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics: name and unit. Reported by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics: name and unit. Reported by every traced run; a layer
/// a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("cells_per_s", "1/s"),
    ("sim_instr_per_s", "1/s"),
    ("fig.percell_s", "s"),
    ("fig.matrix_s", "s"),
    ("fig.platform_s", "s"),
    ("fig.fig4_11_s", "s"),
    ("fig.all_s", "s"),
    ("sweep.cells", "count"),
    ("sweep.threads", "count"),
    ("level1.points", "count"),
    ("level1.ms_per_point", "ms"),
    ("level1.s", "s"),
    ("charstore.hits", "count"),
    ("charstore.misses", "count"),
    ("charstore.hit_ratio", "ratio"),
    ("charstore.hit_ns", "ns"),
    ("diskcache.load_ms", "ms"),
    ("diskcache.append_ms", "ms"),
    ("diskcache.entries", "count"),
    ("diskcache.bytes", "bytes"),
    ("batch.stepped_windows", "count"),
    ("batch.ff_windows", "count"),
    ("batch.ff_ratio", "ratio"),
    ("batch.ff_cells", "count"),
    ("batch.periodic_cycles", "count"),
    ("batch.envelope_cycles", "count"),
    ("batch.envelope_fallbacks", "count"),
    ("batch.detector_ms", "ms"),
    ("batch.verify_ms", "ms"),
    ("batch.replay_ms", "ms"),
    ("batch.literal_ms", "ms"),
    ("batch.ns_per_stepped_window", "ns"),
    ("batch.literal_ratio", "ratio"),
    ("memspot.us_per_window", "us"),
    ("platform.run_ms", "ms"),
    ("self.experiments_s", "s"),
    ("self.diskcache_s", "s"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("host.nproc", "count"),
];

/// Inputs shared by every workload of a run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed (the sweeps draw their grids from it).
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Span recorder; disabled for untraced runs.
    pub tracer: Tracer,
    /// Directory for traces, run records and temporary caches.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under this process's [`tmp_dir`].
    pub fn fresh_dir(&self, label: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = tmp_dir(&self.out_dir).join(format!("{label}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a temporary cache directory");
        dir
    }
}

/// This process's directory of temporary caches, `<out>/tmp/<pid>`; other
/// benchmark processes may be using their own beside it.
fn tmp_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("tmp").join(std::process::id().to_string())
}

/// What one workload run found: the checks and every metric it measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Cells or figures checked.
    pub attempted: u64,
    /// One message per cell or figure that failed its check or panicked.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Facts recorded beside the numbers, as JSON values.
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records `attempted` checks and the failures among them.
    pub fn checked(&mut self, attempted: usize, failures: Vec<String>) {
        self.attempted += attempted as u64;
        self.failures.extend(failures);
    }

    /// Sets the self time of each layer the traced pass (span `root`) calls,
    /// its uncovered share and the tracing overhead. Only the pass's own
    /// spans count: the probes report under their own metric names.
    pub fn set_trace_metrics(&mut self, tracer: &Tracer, root: usize, untraced_wall_s: f64) {
        let spans = tracer.spans();
        let by_layer = trace::self_seconds_by_layer(&spans, root);
        for (layer, metric) in [("experiments", "self.experiments_s"), ("diskcache", "self.diskcache_s")] {
            self.set(metric, by_layer.get(layer).copied().unwrap_or(0.0));
        }
        self.set("trace.uncovered_share", trace::uncovered_share(&spans, root));
        self.set("trace.overhead_s", spans[root].seconds() - untraced_wall_s);
        eprint!("{}", trace::self_time_table(&spans, root));
    }
}

/// Median of a non-empty sample (NaN for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Least number of timed passes per run, even when one pass outlasts the
/// measurement budget.
const MIN_PASSES: usize = 2;

/// One timed pass.
#[derive(Debug)]
pub struct Timed<T> {
    /// Host time of the pass, seconds.
    pub wall_s: f64,
    /// High-water resident memory of the process during the pass, MiB.
    pub peak_rss_mib: f64,
    /// What the pass returned; `Err` with the message if it panicked.
    pub result: Result<T, String>,
}

/// Runs `pass` back to back until the next pass would end after `seconds`
/// (predicted from the longest pass so far), at least [`MIN_PASSES`] times.
/// Before each pass, outside its time, malloc's free memory goes back to the
/// kernel and the peak-RSS mark is reset, so each pass's peak starts from
/// the memory that is live and not from what earlier passes left cached.
pub fn timed_passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<Timed<T>> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut longest = 0.0f64;
    loop {
        host::trim_heap();
        host::reset_peak_rss();
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(&mut pass)).map_err(panic_message);
        let wall_s = t.elapsed().as_secs_f64();
        out.push(Timed { wall_s, peak_rss_mib: host::peak_rss_mib(), result });
        longest = longest.max(wall_s);
        if out.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + longest > seconds {
            return out;
        }
    }
}

/// Median of the passes' peak RSS, MiB.
pub fn median_peak_rss(passes: &[Timed<impl Sized>]) -> f64 {
    median(&passes.iter().map(|p| p.peak_rss_mib).collect::<Vec<_>>())
}

/// Times `reps` runs of `setup` and returns the median time and the last
/// run's result.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// The text of a caught panic.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
    rebuild_pool: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_reference: false,
        rebuild_pool: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--rebuild-pool" => args.rebuild_pool = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = ["paper_figures", "cadence_sweep", "design_sweep"];

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    let mut report = match name {
        "paper_figures" => figures::run(ctx),
        "cadence_sweep" => sweeps::run_cadence(ctx),
        "design_sweep" => sweeps::run_design(ctx),
        other => unreachable!("unknown workload {other}"),
    };
    report.set("host.nproc", host::nproc() as f64);
    report
}

fn metrics_json(report: &Report, names: &[(&'static str, &'static str)], prefix: &str) -> Vec<(String, String)> {
    names
        .iter()
        .map(|(name, unit)| {
            let value = report.values.get(name).copied().unwrap_or(0.0);
            (format!("{prefix}{name}"), json::object([("value", json::number(value)), ("unit", json::string(unit))]))
        })
        .collect()
}

fn main() {
    host::cap_malloc_arenas();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = host::source_root().join("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    if args.write_reference {
        match figures::write_reference() {
            Ok(n) => eprintln!("wrote {n} reference tables"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(workload) = &args.rebuild_pool {
        match sweeps::rebuild_pool(workload) {
            Ok(constant) => println!("{constant}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        other => {
            eprintln!("error: --workload must be one of {WORKLOADS:?} or all, got {other:?}");
            std::process::exit(2);
        }
    };

    let host_facts = json::object([
        ("nproc", host::nproc().to_string()),
        ("cpu_model", json::string(&host::cpu_model())),
        ("git_commit", host::git_commit().map_or("null".to_string(), |c| json::string(&c))),
        ("source_digest", json::string(&host::source_digest())),
    ]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<(String, String)> = Vec::new();
    for name in &names {
        let run_id = format!("{name}-seed{}-trace{}-{}", args.seed, u8::from(args.trace), std::process::id());
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            tracer: Tracer::new(args.trace, run_id.clone()),
            out_dir: out_dir.clone(),
        };
        let report = run_workload(name, &ctx);
        let _ = std::fs::remove_dir_all(tmp_dir(&out_dir));
        // Succeeds only when no other benchmark process still has a directory there.
        let _ = std::fs::remove_dir(out_dir.join("tmp"));
        for failure in report.failures.iter().take(20) {
            eprintln!("[{name}] FAILED {failure}");
        }
        attempted += report.attempted;
        failed += report.failures.len() as u64;
        let prefix = if names.len() > 1 { format!("{name}.") } else { String::new() };
        let selected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        metrics.extend(metrics_json(&report, selected, &prefix));

        // The run record: host facts, the workload's inputs, every metric
        // measured and the failures.
        let mut record: Vec<(&str, String)> = vec![
            ("run", json::string(&run_id)),
            ("workload", json::string(name)),
            ("seed", args.seed.to_string()),
            ("seconds", json::number(args.seconds)),
            ("host", host_facts.clone()),
            ("attempted", report.attempted.to_string()),
            ("failures", json::array(report.failures.iter().map(|f| json::string(f)))),
        ];
        record.extend(report.facts.iter().map(|(k, v)| (*k, v.clone())));
        let all = metrics_json(&report, &END_TO_END, "").into_iter().chain(metrics_json(&report, &PER_LAYER, ""));
        record.push(("metrics", json::object(all)));
        let record_json = json::object(record);
        let _ = std::fs::write(out_dir.join(format!("{run_id}.json")), format!("{record_json}\n"));
        if ctx.tracer.enabled() {
            let path = out_dir.join(format!("{run_id}.spans.jsonl"));
            if let Err(e) = ctx.tracer.write_jsonl(&path) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        println!("{record_json}");
    }
    println!(
        "{}",
        json::object([
            ("correct", (failed == 0).to_string()),
            ("attempted", attempted.max(1).to_string()),
            ("failed", failed.to_string()),
            ("metrics", json::object(metrics)),
        ])
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = std::fs::read_to_string(host::source_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = spec.matches("\"why\": ").count();
        assert!(workloads >= 2 && spec.contains("\"name\": \"cadence_sweep\""));
        assert_eq!(spec.matches("\"name\": ").count(), workloads + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn median_and_timed_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let passes = timed_passes(0.0, || 1);
        assert_eq!(passes.len(), MIN_PASSES);
        let mut n = 0;
        let failing = timed_passes(0.0, || {
            n += 1;
            assert!(n > 1, "first pass fails");
        });
        assert!(failing[0].result.is_err() && failing[1].result.is_ok());
        assert!(failing.iter().all(|p| p.peak_rss_mib > 0.0));
    }
}
