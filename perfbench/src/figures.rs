//! The `paper_figures` workload: the paper's own figures through
//! `experiments::run_experiment` at `Scale::Quick`, checked against the
//! tables kept in `perfbench/reference/`.
//!
//! A full `paper all quick` pass takes close to a minute on a 2-core host,
//! most of it in `fig4_11`, so the timed pass runs a fixed subset that
//! covers every path the figures take: serial per-cell `MemSpot::run`
//! (`fig4_2`, `fig4_5_8`), a `SweepRunner` matrix (`fig4_3`) and the
//! Chapter 5 platform (`fig5_4`, `fig5_6`). The traced run adds one pass
//! over every experiment id, which gives the per-figure split.

use std::path::PathBuf;
use std::time::Instant;

use experiments::ch4::PolicySpec;
use experiments::harness::{Scale, Table};
use experiments::sweep::{SweepRunner, SweepScenario};
use memtherm::prelude::*;

use crate::check::{self, RefTable};
use crate::json;
use crate::trace::Tracer;
use crate::{host, median, median_peak_rss, probes, timed_passes, timed_setup, Ctx, Report};

/// The figures of one timed pass.
pub const TIMED_FIGURES: [&str; 5] = ["fig4_2", "fig4_5_8", "fig4_3", "fig5_4", "fig5_6"];

/// Figures whose drivers call `MemSpot::run` serially per cell.
const PERCELL_FIGURES: [&str; 3] = ["fig4_2", "fig4_5_8", "fig4_11"];

/// Figures run as `SweepRunner` matrices.
const MATRIX_FIGURES: [&str; 7] = ["fig4_3", "fig4_4", "fig4_9", "fig4_10", "fig4_12", "fig4_13", "fig4_14"];

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 5;

/// Directory of the reference tables.
fn reference_dir() -> PathBuf {
    host::source_root().join("perfbench").join("reference")
}

/// Runs every experiment id at Quick scale and writes its table as the
/// reference. Returns the number of tables written.
pub fn write_reference() -> std::io::Result<usize> {
    let dir = reference_dir();
    std::fs::create_dir_all(&dir)?;
    let ids = experiments::all_experiment_ids();
    for id in &ids {
        let table = experiments::run_experiment(id, Scale::Quick).map_err(std::io::Error::other)?;
        std::fs::write(dir.join(format!("{id}.tsv")), check::to_tsv(&table))?;
    }
    Ok(ids.len())
}

/// The reference tables of every experiment id (`None` where missing).
fn load_references() -> Vec<(&'static str, Option<RefTable>)> {
    experiments::all_experiment_ids()
        .into_iter()
        .map(|id| {
            (id, std::fs::read_to_string(reference_dir().join(format!("{id}.tsv"))).ok().map(|t| check::parse_tsv(&t)))
        })
        .collect()
}

/// Runs one figure, turning a panic or an unknown id into an error.
fn run_figure(id: &str) -> Result<Table, String> {
    std::panic::catch_unwind(|| experiments::run_experiment(id, Scale::Quick))
        .map_err(crate::panic_message)
        .and_then(|r| r)
}

/// Checks figure tables against the references; one message per mismatch.
fn figure_failures(tables: &[(&str, Result<Table, String>)], refs: &[(&str, Option<RefTable>)]) -> Vec<String> {
    tables
        .iter()
        .filter_map(|(id, table)| {
            let reference = refs.iter().find(|(r, _)| r == id).and_then(|(_, t)| t.as_ref());
            match (table, reference) {
                (Err(e), _) => Some(format!("{id}: {e}")),
                (Ok(_), None) => Some(format!("{id}: no reference table")),
                (Ok(t), Some(r)) => check::table_mismatch(t, r).map(|why| format!("{id}: {why}")),
            }
        })
        .collect()
}

/// Four Quick-scale cells (W1 under No-limit and DTM-TS, both coolings)
/// through the sweep engine on one thread: warms the allocator and code
/// paths so the first timed pass does not pay for them.
pub fn warm_up_cells() {
    let scenarios: Vec<SweepScenario> = [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()]
        .into_iter()
        .map(|cooling| SweepScenario::isolated(cooling, mixes::w1(), vec![PolicySpec::NoLimit, PolicySpec::Ts]))
        .collect();
    let outcome = SweepRunner::with_threads(1).run(&scenarios, |c| Scale::Quick.memspot_config(c));
    assert!(outcome.runs.iter().all(|r| r.result.completed), "a warm-up cell did not complete");
}

/// One timed pass: every timed figure in order, each inside an
/// `experiments` span.
fn figure_pass(tracer: &Tracer) -> Vec<(&'static str, Result<Table, String>)> {
    TIMED_FIGURES.iter().map(|id| (*id, tracer.span("experiments", id, || run_figure(id)))).collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    // Set-up: load the reference tables and warm up on four cells.
    let (setup_s, refs) = timed_setup(SETUP_REPS, || {
        let refs = load_references();
        warm_up_cells();
        refs
    });
    let untraced = Tracer::off();
    let passes = timed_passes(ctx.seconds, || figure_pass(&untraced));
    report.set("peak_rss_mb", median_peak_rss(&passes));

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    for pass in &passes {
        match &pass.result {
            Ok(tables) => report.checked(tables.len(), figure_failures(tables, &refs)),
            Err(e) => report.checked(TIMED_FIGURES.len(), vec![format!("pass panicked: {e}"); TIMED_FIGURES.len()]),
        }
    }
    let wall_s = median(&walls);
    report.set("wall_s", wall_s);
    report.set("setup_s", setup_s);
    report.facts.push(("figures", json::array(TIMED_FIGURES.map(json::string))));
    report.facts.push(("pass_walls_s", json::array(walls.iter().map(|w| json::number(*w)))));

    if ctx.tracer.enabled() {
        traced(ctx, &mut report, &refs, wall_s);
    }
    report
}

/// The traced run: one traced pass, one pass over every experiment id, and
/// the probes of the layers the figures call.
fn traced(ctx: &Ctx, report: &mut Report, refs: &[(&str, Option<RefTable>)], untraced_wall_s: f64) {
    let tracer = &ctx.tracer;
    let root = tracer.spans().len();
    let tables = tracer.span("workload", "paper_figures pass", || figure_pass(tracer));
    report.checked(tables.len(), figure_failures(&tables, refs));

    let mut times: Vec<(&str, f64)> = Vec::new();
    let mut all = Vec::new();
    for id in experiments::all_experiment_ids() {
        let t = Instant::now();
        let table = tracer.span("experiments", id, || run_figure(id));
        times.push((id, t.elapsed().as_secs_f64()));
        all.push((id, table));
    }
    report.checked(all.len(), figure_failures(&all, refs));
    let sum = |pred: &dyn Fn(&str) -> bool| times.iter().filter(|(id, _)| pred(id)).map(|(_, s)| s).sum::<f64>();
    report.set("fig.percell_s", sum(&|id| PERCELL_FIGURES.contains(&id)));
    report.set("fig.matrix_s", sum(&|id| MATRIX_FIGURES.contains(&id)));
    report.set("fig.platform_s", sum(&|id| id.starts_with("fig5_")));
    report.set("fig.fig4_11_s", sum(&|id| id == "fig4_11"));
    report.set("fig.all_s", sum(&|_| true));

    let ch4 = Scale::Quick.ch4_mixes();
    let budget = Scale::Quick.memspot_config(CoolingConfig::aohs_1_5()).characterization_budget;
    let probe_mixes: Vec<&WorkloadMix> = ch4.iter().take(2).collect();
    let (ms_per_point, point) = probes::level1_ms_per_point(tracer, &probe_mixes, budget);
    report.set("level1.ms_per_point", ms_per_point);
    let all_ch4: Vec<&WorkloadMix> = ch4.iter().collect();
    report.set("charstore.hit_ns", probes::charstore_hit_ns(tracer, &all_ch4, budget, &point));
    report.set("memspot.us_per_window", probes::memspot_us_per_window(tracer));
    report.set("platform.run_ms", probes::platform_run_ms(tracer));
    report.set_trace_metrics(tracer, root, untraced_wall_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_has_a_reference_table() {
        let refs = load_references();
        assert!(TIMED_FIGURES.iter().all(|id| refs.iter().any(|(r, _)| r == id)));
        assert!(refs.iter().all(|(_, t)| t.is_some()), "every experiment id has a reference table");
    }

    #[test]
    fn a_perturbed_figure_table_is_counted_as_failed() {
        let refs = load_references();
        let tab = run_figure("tab4_4").expect("tab4_4 runs");
        assert!(figure_failures(&[("tab4_4", Ok(tab.clone()))], &refs).is_empty());
        let mut perturbed = tab;
        perturbed.rows[0][2] = "999.9".to_string();
        assert_eq!(figure_failures(&[("tab4_4", Ok(perturbed))], &refs).len(), 1);
        assert_eq!(figure_failures(&[("tab4_4", Err("panicked".to_string()))], &refs).len(), 1);
    }
}
