//! The two seeded sweep workloads.
//!
//! * `cadence_sweep` — threshold policies at the paper's 10 ms cadence over
//!   a level-1 disk cache filled during set-up: level-1 work is about zero
//!   and the analytic tiers carry most windows.
//! * `design_sweep` — PID and spatial policies over three device stacks at
//!   the default cadence, each pass from an empty disk-backed store in a
//!   fresh directory: the analytic tiers mostly refuse, so time splits
//!   between literal lane stepping and cold characterization.
//!
//! Every pass is checked cell by cell against a literal
//! (`BatchOptions::literal()`) reference of the same grid, computed once per
//! run outside timing.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use experiments::ch4::MatrixRun;
use experiments::harness::Scale;
use experiments::sweep::{parallel_map, SweepOutcome, SweepRunner, SweepScenario};
use memtherm::prelude::*;

use crate::grid::{
    cadence_grid, cadence_grid_of, design_grid, design_grid_of, Grid, CADENCE_CANDIDATES, CADENCE_POOL_SIZE,
    DESIGN_CANDIDATES, DESIGN_POOL_SIZE, SWEEP_THREADS,
};
use crate::trace::Tracer;
use crate::{check, figures, host, json, median, median_peak_rss, probes, timed_passes, timed_setup, Ctx, Report};

/// Set-up repetitions of `cadence_sweep` (each a cold cache fill).
const CADENCE_SETUP_REPS: usize = 3;
/// Set-up repetitions of `design_sweep`.
const DESIGN_SETUP_REPS: usize = 5;

/// The MEMSpot configuration of every sweep cell: Quick-scale batches and
/// level-1 budget.
fn quick(cooling: CoolingConfig) -> MemSpotConfig {
    Scale::Quick.memspot_config(cooling)
}

fn level1_budget() -> u64 {
    quick(CoolingConfig::aohs_1_5()).characterization_budget
}

/// `SweepRunner::run` over `store` on [`SWEEP_THREADS`] worker threads,
/// inside an `experiments` span.
fn sweep(tracer: &Tracer, name: &str, grid: &Grid, store: Arc<CharStore>, options: BatchOptions) -> SweepOutcome {
    sweep_on(SWEEP_THREADS, tracer, name, grid, store, options)
}

/// [`sweep`] on `threads` worker threads.
fn sweep_on(
    threads: usize,
    tracer: &Tracer,
    name: &str,
    grid: &Grid,
    store: Arc<CharStore>,
    options: BatchOptions,
) -> SweepOutcome {
    tracer.span("experiments", name, || {
        SweepRunner::with_threads(threads)
            .with_char_store(store)
            .with_batch_options(options)
            .run(&grid.scenarios, quick)
    })
}

/// `CharStore::with_disk_cache`, inside a `diskcache` span.
fn open_disk_store(tracer: &Tracer, cache: &Path) -> Arc<CharStore> {
    Arc::new(tracer.span("diskcache", "CharStore::with_disk_cache", || {
        CharStore::with_disk_cache(cache).expect("open the disk cache")
    }))
}

/// A fresh directory's cache path.
fn fresh_cache(ctx: &Ctx, label: &str) -> PathBuf {
    ctx.fresh_dir(label).join("char.jsonl")
}

/// Seconds the sweep's worker threads spent on its cells.
fn thread_s(outcome: &SweepOutcome) -> f64 {
    outcome.cell_wall_clock_s.iter().sum()
}

/// Total simulated windows of a sweep.
fn windows(outcome: &SweepOutcome) -> u64 {
    outcome.stepped_windows + outcome.fast_forwarded_windows
}

/// One unit of a timed pass: its host time, its outcome and the store it
/// ran over.
struct Unit {
    wall_s: f64,
    outcome: SweepOutcome,
    store: Arc<CharStore>,
}

/// Runs `units` one after another through `run_unit`, timing each.
fn run_units(
    tracer: &Tracer,
    units: &[Grid],
    run_unit: &impl Fn(&Tracer, &Grid) -> (SweepOutcome, Arc<CharStore>),
) -> Vec<Unit> {
    units
        .iter()
        .map(|unit| {
            let t = Instant::now();
            let (outcome, store) = run_unit(tracer, unit);
            Unit { wall_s: t.elapsed().as_secs_f64(), outcome, store }
        })
        .collect()
}

/// The cells of several sweeps in order, with their simulated windows and
/// worker-thread seconds.
struct Combined {
    runs: Vec<MatrixRun>,
    windows: u64,
    thread_s: f64,
}

fn combine<'a>(outcomes: impl IntoIterator<Item = &'a SweepOutcome>) -> Combined {
    let mut all = Combined { runs: Vec::new(), windows: 0, thread_s: 0.0 };
    for outcome in outcomes {
        all.runs.extend(outcome.runs.iter().cloned());
        all.windows += windows(outcome);
        all.thread_s += thread_s(outcome);
    }
    all
}

/// Runs the workload `cadence_sweep`.
pub fn run_cadence(ctx: &Ctx) -> Report {
    let grid = cadence_grid(ctx.seed);
    // Set-up: characterize the grid's level-1 design points into a fresh
    // disk cache.
    let (setup_s, cache) = timed_setup(CADENCE_SETUP_REPS, || {
        let cache = fresh_cache(ctx, "cadence-setup");
        fill_level1(
            &grid,
            &Arc::new(CharStore::with_disk_cache(&cache).expect("create the disk cache")),
            host::nproc(),
        );
        cache
    });
    let run_unit = |tracer: &Tracer, unit: &Grid| {
        let store = open_disk_store(tracer, &cache);
        let outcome = sweep(tracer, "SweepRunner::run", unit, Arc::clone(&store), BatchOptions::default());
        (outcome, store)
    };
    // One unit: the whole grid. A pass takes 3-6 s on one thread of a shared
    // 2-core Xeon, so a run times several.
    run_sweep(ctx, &grid, std::slice::from_ref(&grid), setup_s, run_unit)
}

/// Characterizes the Table 4.3 ladder modes of every mix of `grid` into
/// `store`, one mix per worker, and the shutdown mode DTM-TS switches to
/// (an idle point, but a store entry all the same), so a timed pass does no
/// level-1 work.
fn fill_level1(grid: &Grid, store: &Arc<CharStore>, workers: usize) {
    let cpu = CpuConfig::paper_quad_core();
    let mut modes = probes::ladder_modes(&cpu);
    modes.push(memtherm::sim::modes::scheme_mode(DtmScheme::Ts, EmergencyLevel::L5, &cpu));
    parallel_map(workers, &grid.mixes(), |mix| {
        probes::table(mix, level1_budget(), Arc::clone(store)).points(&modes);
    });
}

/// Runs the workload `design_sweep`.
pub fn run_design(ctx: &Ctx) -> Report {
    // Set-up: draw the grid and warm up on four cells.
    let (setup_s, grid) = timed_setup(DESIGN_SETUP_REPS, || {
        let grid = design_grid(ctx.seed);
        figures::warm_up_cells();
        grid
    });
    let run_unit = |tracer: &Tracer, unit: &Grid| {
        let store = open_disk_store(tracer, &fresh_cache(ctx, "design-pass"));
        let outcome = sweep(tracer, "SweepRunner::run", unit, Arc::clone(&store), BatchOptions::default());
        (outcome, store)
    };
    // One unit per mix, each from its own empty store (the mixes share no
    // level-1 points, so the work is the whole grid's). Cold
    // characterization is memory-bound, and on a shared 2-core host single
    // passes over the whole grid (5-9 s) spread by a third within one run;
    // the median of each mix's unit damps the slow ones.
    run_sweep(ctx, &grid, &grid.by_mix(), setup_s, run_unit)
}

/// Times the passes, checks them against the literal reference and, for a
/// traced run, adds the traced pass and the probes. A pass runs `units`
/// (the grid, or the grid cut into parts, in grid order) one after another
/// through `run_unit`; `wall_s` is the sum over the units of each unit's
/// median host time.
fn run_sweep(
    ctx: &Ctx,
    grid: &Grid,
    units: &[Grid],
    setup_s: f64,
    run_unit: impl Fn(&Tracer, &Grid) -> (SweepOutcome, Arc<CharStore>),
) -> Report {
    let mut report = Report::default();
    let untraced = Tracer::off();
    let passes = timed_passes(ctx.seconds, || run_units(&untraced, units, &run_unit));
    report.set("peak_rss_mb", median_peak_rss(&passes));

    // The literal reference of each unit, outside timing and untraced, on
    // every core, over the unit's warm store from the last completed pass.
    let warm = passes.iter().rev().find_map(|p| p.result.as_ref().ok());
    let references: Vec<SweepOutcome> = units
        .iter()
        .enumerate()
        .map(|(u, unit)| {
            let store = warm.map_or_else(|| Arc::new(CharStore::new()), |w| Arc::clone(&w[u].store));
            let name = "SweepRunner::run (literal reference)";
            sweep_on(host::nproc(), &untraced, name, unit, store, BatchOptions::literal())
        })
        .collect();
    let reference = combine(&references);

    let cells = grid.cells();
    let mut walls = Vec::new();
    let mut unit_walls = vec![Vec::new(); units.len()];
    let mut cells_per_s = Vec::new();
    let mut instr_per_s = Vec::new();
    let mut pass_thread_s = Vec::new();
    let mut level1_points = Vec::new();
    for pass in &passes {
        let wall = pass.wall_s;
        walls.push(wall);
        match &pass.result {
            Ok(pass_units) => {
                let got = combine(pass_units.iter().map(|u| &u.outcome));
                report
                    .checked(cells, check::sweep_failures(&got.runs, got.windows, &reference.runs, reference.windows));
                let instructions: f64 = got.runs.iter().map(|r| r.result.total_instructions).sum();
                cells_per_s.push(got.runs.len() as f64 / wall);
                instr_per_s.push(instructions / wall);
                pass_thread_s.push(got.thread_s);
                level1_points.push(pass_units.iter().map(|u| u.outcome.char_store_misses).sum::<u64>() as f64);
                for (times, unit) in unit_walls.iter_mut().zip(pass_units) {
                    times.push(unit.wall_s);
                }
            }
            Err(e) => report.checked(cells, vec![format!("pass panicked: {e}"); cells]),
        }
    }
    let wall_s: f64 = unit_walls.iter().map(|times| median(times)).sum();
    report.set("wall_s", wall_s);
    report.set("setup_s", setup_s);
    report.set("cells_per_s", median(&cells_per_s));
    report.set("sim_instr_per_s", median(&instr_per_s));
    // Thread time over thread time, so the ratio does not depend on how many
    // threads each side ran on.
    report.set("batch.literal_ratio", reference.thread_s / median(&pass_thread_s));
    report.facts.push(("grid", grid.to_json()));
    report.facts.push(("sim_windows", reference.windows.to_string()));
    report.facts.push(("pass_walls_s", json::array(walls.iter().map(|w| json::number(*w)))));
    let unit_json = unit_walls.iter().map(|times| json::array(times.iter().map(|w| json::number(*w))));
    report.facts.push(("unit_walls_s", json::array(unit_json)));
    report.facts.push(("pass_level1_points", json::array(level1_points.into_iter().map(json::number))));

    if ctx.tracer.enabled() {
        traced(ctx, &mut report, grid, units, &run_unit, &reference, wall_s);
    }
    report
}

/// The traced pass and the per-layer probes of a sweep workload.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    grid: &Grid,
    units: &[Grid],
    run_unit: &impl Fn(&Tracer, &Grid) -> (SweepOutcome, Arc<CharStore>),
    reference: &Combined,
    untraced_wall_s: f64,
) {
    let tracer = &ctx.tracer;
    let root = tracer.spans().len();
    let main = tracer.span("workload", "sweep pass", || run_units(tracer, units, run_unit));
    let outcome = combine(main.iter().map(|u| &u.outcome));
    let cells = grid.cells();
    report.checked(cells, check::sweep_failures(&outcome.runs, outcome.windows, &reference.runs, reference.windows));
    let hits: u64 = main.iter().map(|u| u.outcome.char_store_hits).sum();
    let misses: u64 = main.iter().map(|u| u.outcome.char_store_misses).sum();
    report.set("sweep.cells", cells as f64);
    report.set("sweep.threads", main.iter().map(|u| u.outcome.threads).max().unwrap_or(0) as f64);
    report.set("level1.points", misses as f64);
    report.set("charstore.hits", hits as f64);
    report.set("charstore.misses", misses as f64);
    report.set("charstore.hit_ratio", if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 });

    // Cold passes without and with the disk cache, alternated, then warm
    // passes over a store a cold pass filled. Each is the best of two, so a
    // burst of host noise does not land in a difference.
    let options = BatchOptions::default();
    let (mut cold, mut cold_disk, mut filled) = (Vec::new(), Vec::new(), Arc::new(CharStore::new()));
    let mut disk_cache = PathBuf::new();
    for _ in 0..2 {
        filled = Arc::new(CharStore::new());
        cold.push(sweep(tracer, "SweepRunner::run (cold, in-memory store)", grid, Arc::clone(&filled), options));
        disk_cache = fresh_cache(ctx, "traced-cold");
        let store = open_disk_store(tracer, &disk_cache);
        cold_disk.push(sweep(tracer, "SweepRunner::run (cold, disk store)", grid, store, options));
    }
    let warm: Vec<SweepOutcome> =
        (0..2).map(|_| sweep(tracer, "SweepRunner::run (warm store)", grid, Arc::clone(&filled), options)).collect();
    for probe in cold.iter().chain(&cold_disk).chain(&warm) {
        report.checked(cells, check::sweep_failures(&probe.runs, windows(probe), &reference.runs, reference.windows));
    }
    let best = |runs: &[SweepOutcome]| -> SweepOutcome {
        runs.iter().min_by(|a, b| a.wall_clock_s.total_cmp(&b.wall_clock_s)).expect("two probe passes").clone()
    };
    let (cold, cold_disk, warm) = (best(&cold), best(&cold_disk), best(&warm));
    report.set("level1.s", cold.wall_clock_s - warm.wall_clock_s);
    report.set("diskcache.append_ms", (cold_disk.wall_clock_s - cold.wall_clock_s) * 1e3);

    // Tier counters and phase split of the warm pass (no level-1 work).
    let ms = |ns: u64| ns as f64 / 1e6;
    let total_windows = windows(&warm) as f64;
    let thread_ms = thread_s(&warm) * 1e3;
    let literal_ms = thread_ms - ms(warm.detector_ns) - ms(warm.verify_ns) - ms(warm.replay_ns);
    report.set("batch.stepped_windows", warm.stepped_windows as f64);
    report.set("batch.ff_windows", warm.fast_forwarded_windows as f64);
    report.set("batch.ff_ratio", warm.fast_forwarded_windows as f64 / total_windows.max(1.0));
    report.set("batch.ff_cells", warm.fast_forwarded_cells as f64);
    report.set("batch.periodic_cycles", warm.periodic_cycles as f64);
    report.set("batch.envelope_cycles", warm.envelope_cycles as f64);
    report.set("batch.detector_ms", ms(warm.detector_ns));
    report.set("batch.verify_ms", ms(warm.verify_ns));
    report.set("batch.replay_ms", ms(warm.replay_ns));
    report.set("batch.literal_ms", literal_ms);
    report.set("batch.ns_per_stepped_window", literal_ms * 1e6 / (warm.stepped_windows as f64).max(1.0));

    // The batch layer called directly, for the counters the sweep outcome
    // does not carry (envelope fallbacks), over the store a cold probe filled.
    let batch = batch_probe(tracer, grid, filled);
    let mut failures = Vec::new();
    for ((result, _), want) in batch.iter().zip(&reference.runs) {
        if let Some(why) = check::result_mismatch(result, &want.result) {
            failures.push(format!("batch probe {}/{}: {why}", want.workload, want.policy));
        }
    }
    let batch_windows: u64 = batch.iter().map(|(_, s)| s.stepped_windows + s.fast_forwarded_windows).sum();
    if batch.len() != reference.runs.len() || batch_windows != reference.windows {
        failures.push(format!("batch probe: {batch_windows} windows over {} cells vs the reference", batch.len()));
    }
    report.checked(cells, failures);
    report.set("batch.envelope_fallbacks", batch.iter().map(|(_, s)| s.envelope_fallbacks).sum::<u64>() as f64);

    let (load_ms, entries, bytes) = probes::diskcache_load(tracer, &disk_cache);
    report.set("diskcache.load_ms", load_ms);
    report.set("diskcache.entries", entries as f64);
    report.set("diskcache.bytes", bytes as f64);

    let mixes = grid.mixes();
    let (ms_per_point, point) = probes::level1_ms_per_point(tracer, &mixes[..mixes.len().min(2)], level1_budget());
    report.set("level1.ms_per_point", ms_per_point);
    report.set("charstore.hit_ns", probes::charstore_hit_ns(tracer, &mixes, level1_budget(), &point));
    report.set_trace_metrics(tracer, root, untraced_wall_s);
}

/// `BatchedSimEngine::run_with_workers` on the grid's cells over `store`,
/// one lane worker per core, inside a `batch` span.
fn batch_probe(tracer: &Tracer, grid: &Grid, store: Arc<CharStore>) -> Vec<(MemSpotResult, CellRunStats)> {
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let mut cells = Vec::with_capacity(grid.cells());
    for scenario in &grid.scenarios {
        // The configuration `SweepRunner` gives the scenario's cells.
        let mut cfg = quick(scenario.cooling).with_stack(scenario.stack);
        if scenario.integrated {
            cfg = cfg.with_integrated(scenario.interaction_degree);
        }
        if let Some(dt) = scenario.dtm_interval_s {
            cfg.window_s = dt;
            cfg.dtm_interval_s = dt;
        }
        for spec in &scenario.specs {
            let policy = spec.build(&cpu, cfg.limits);
            cells.push(
                BatchCell::new(&cpu, &mem, cfg, scenario.mix.clone(), policy, Arc::clone(&store))
                    .with_rotation_threads(1),
            );
        }
    }
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    tracer.span("batch", "BatchedSimEngine::run_with_workers", || {
        engine.run_with_workers(cells, &BatchOptions::default(), host::nproc())
    })
}

/// Single-thread passes timed per candidate when a pool is rebuilt; their
/// median is the candidate's cost.
const COST_REPS: usize = 3;

/// Rebuilds a sweep workload's pool from its fixed candidate range and
/// returns it as the Rust constant `grid` keeps it. A candidate passes when
/// every scenario of its shuffle, run alone, completes through the default
/// fast path and matches the literal reference. Its cost is the
/// single-thread host time of the workload's pass over the shuffle alone
/// (`cadence_sweep` over a filled store, `design_sweep` from an empty one).
/// The pool keeps the `pool_size` passing shuffles whose cost is closest to
/// the median, cheapest first, so the grids of any two seeds cost about the
/// same.
pub fn rebuild_pool(workload: &str) -> Result<String, String> {
    type GridOf = fn(u64, &[u64]) -> Grid;
    let (constant, candidates, pool_size, grid_of): (&str, Range<u64>, usize, GridOf) = match workload {
        "cadence_sweep" => ("CADENCE_POOL", CADENCE_CANDIDATES, CADENCE_POOL_SIZE, cadence_grid_of),
        "design_sweep" => ("DESIGN_POOL", DESIGN_CANDIDATES, DESIGN_POOL_SIZE, design_grid_of),
        other => return Err(format!("--rebuild-pool takes cadence_sweep or design_sweep, got {other:?}")),
    };
    let ids: Vec<u64> = candidates.collect();
    std::panic::set_hook(Box::new(|_| {}));
    let costs = parallel_map(host::nproc(), &ids, |&id| {
        let grid = grid_of(0, &[id]);
        if !grid.scenarios.iter().all(scenario_passes) {
            eprintln!("shuffle {id}: fails");
            return None;
        }
        let cost = median(&(0..COST_REPS).map(|_| pass_cost(&grid)).collect::<Vec<_>>());
        eprintln!("shuffle {id}: passes, {cost:.3} s");
        Some(cost)
    });
    let _ = std::panic::take_hook();
    let passing: Vec<(u64, f64)> = ids.into_iter().zip(costs).filter_map(|(id, cost)| Some((id, cost?))).collect();
    let middle = median(&passing.iter().map(|(_, cost)| *cost).collect::<Vec<_>>());
    let mut pool = passing;
    pool.sort_by(|a, b| (a.1 - middle).abs().total_cmp(&(b.1 - middle).abs()));
    pool.truncate(pool_size);
    pool.sort_by(|a, b| a.1.total_cmp(&b.1));
    if let (Some(first), Some(last)) = (pool.first(), pool.last()) {
        eprintln!("pool of {}: {:.3}-{:.3} s around the median {middle:.3} s", pool.len(), first.1, last.1);
    }
    let pool: Vec<u64> = pool.into_iter().map(|(id, _)| id).collect();
    Ok(format!("pub const {constant}: &[u64] = &{pool:?};"))
}

fn scenario_passes(scenario: &SweepScenario) -> bool {
    let store = Arc::new(CharStore::new());
    let run = |options: BatchOptions| {
        catch_unwind(AssertUnwindSafe(|| {
            SweepRunner::with_threads(1)
                .with_char_store(Arc::clone(&store))
                .with_batch_options(options)
                .run(std::slice::from_ref(scenario), quick)
        }))
    };
    match (run(BatchOptions::default()), run(BatchOptions::literal())) {
        (Ok(fast), Ok(literal)) => {
            check::sweep_failures(&fast.runs, windows(&fast), &literal.runs, windows(&literal)).is_empty()
        }
        _ => false,
    }
}

/// Single-thread host time of one pass of `grid`'s workload, seconds.
fn pass_cost(grid: &Grid) -> f64 {
    let store = Arc::new(CharStore::new());
    if grid.workload == "cadence_sweep" {
        fill_level1(grid, &store, 1);
    }
    let t = Instant::now();
    SweepRunner::with_threads(1).with_char_store(store).run(&grid.scenarios, quick);
    t.elapsed().as_secs_f64()
}
