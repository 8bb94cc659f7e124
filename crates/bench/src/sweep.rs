//! Parallel scenario sweep engine.
//!
//! A paper-style evaluation is a grid of {cooling configuration × thermal
//! model × device stack × workload mix × DTM scheme} MEMSpot runs. Since the expensive
//! level-1 characterizations live in a process-wide
//! [`CharStore`] — keyed by (mix,
//! mode, budget, geometry), *not* by cooling or policy — every grid cell is
//! fully independent: [`SweepRunner`] therefore parallelizes at **cell**
//! granularity (one {cooling, model, mix, policy} run per unit of work).
//! The grid is cut into contiguous *chunks* of cells, and workers claim
//! chunks through a shared atomic cursor, so grids far larger than the
//! core count load-balance without a scheduler thread
//! (`std::thread::scope`; the build has no external thread-pool crate).
//! Chunks are *deficit-aware* (guided self-scheduling): each takes an even
//! share of half the cells left after it, so early chunks are wide and the
//! tail drains in ever-smaller steps — a slow cell near the end strands at
//! most one worker for one cell, not a whole wide chunk. One shared store per sweep means W1@AOHS and W1@FDHS
//! characterize each design point exactly once per process, whichever worker
//! gets there first; racing workers block on the in-flight computation
//! instead of duplicating it.
//!
//! Results come back in deterministic grid order regardless of which worker
//! finished first, and — because level-1 runs are deterministic functions of
//! their store key — are bit-identical between sequential and parallel
//! execution. [`SweepOutcome`] carries per-cell wall-clock times and the
//! store's hit/miss counters so callers can see both the load balance and
//! how much level-1 work the sharing saved.
//!
//! Each claimed chunk runs as one batch of the lockstep engine
//! ([`BatchedSimEngine`]), which steps the chunk's scenes through shared
//! lane matrices and fast-forwards cells analytically through the
//! contraction-certified envelope, which replays frozen plans and
//! threshold-policy orbits ([`SweepOutcome::envelope_cycles`] counts its
//! analytic segments). Under [`BatchOptions::literal`] every cell carries
//! the bits of a per-cell [`MemSpot::run`]. Per-cell trajectories are
//! independent of lane composition, so the grid results remain
//! deterministic for any thread or chunk configuration.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cpu_model::CpuConfig;
use fbdimm_sim::FbdimmConfig;
use memtherm::prelude::*;
use workloads::WorkloadMix;

use crate::ch4::{MatrixRun, PolicySpec};

/// One scenario of the sweep grid: a cooling configuration and thermal
/// model choice applied to one workload mix, evaluated under a list of DTM
/// policies (each policy becomes one independent grid cell; the cells share
/// the mix's level-1 characterization through the sweep's `CharStore`).
#[derive(Debug, Clone)]
pub struct SweepScenario {
    /// Cooling configuration.
    pub cooling: CoolingConfig,
    /// Use the integrated thermal model.
    pub integrated: bool,
    /// Optional thermal-interaction degree override (integrated model only).
    pub interaction_degree: Option<f64>,
    /// Device-stack topology each DIMM position holds (the stacked-scenario
    /// axis: FBDIMM pairs, DDR4/5 rank pairs, 3D stacks).
    pub stack: StackKind,
    /// The workload mix to run.
    pub mix: WorkloadMix,
    /// The policies to evaluate, in order.
    pub specs: Vec<PolicySpec>,
    /// Optional DTM cadence override, seconds: sets both the simulation
    /// window and the DTM interval (the paper's native operating point is
    /// 10 ms; relay-style policies are swept at multi-second cadences).
    /// `None` keeps the scale's default cadence.
    pub dtm_interval_s: Option<f64>,
    /// Optional thermal-limits override (the TRP axis Figure 4.2 sweeps).
    /// The scene reads only the TDPs, so a TRP override reaches the
    /// policies alone. `None` keeps the scale's limits.
    pub limits: Option<ThermalLimits>,
}

impl SweepScenario {
    /// A scenario under the isolated thermal model with the legacy FBDIMM
    /// stack.
    pub fn isolated(cooling: CoolingConfig, mix: WorkloadMix, specs: Vec<PolicySpec>) -> Self {
        SweepScenario {
            cooling,
            integrated: false,
            interaction_degree: None,
            stack: StackKind::Fbdimm,
            mix,
            specs,
            dtm_interval_s: None,
            limits: None,
        }
    }

    /// A scenario under the isolated thermal model with an explicit device
    /// stack (rank pairs, 3D stacks).
    pub fn stacked(cooling: CoolingConfig, stack: StackKind, mix: WorkloadMix, specs: Vec<PolicySpec>) -> Self {
        SweepScenario { stack, ..Self::isolated(cooling, mix, specs) }
    }

    /// Overrides the scenario's DTM cadence: both the simulation window and
    /// the DTM decision interval become `dt_s` seconds.
    pub fn with_cadence(mut self, dt_s: f64) -> Self {
        self.dtm_interval_s = Some(dt_s);
        self
    }

    /// Overrides the scenario's thermal limits (TDPs and TRPs).
    pub fn with_limits(mut self, limits: ThermalLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Number of grid cells (policy runs) this scenario contains.
    pub fn cells(&self) -> usize {
        self.specs.len()
    }
}

/// Outcome of a sweep: the per-cell results in grid order plus timing and
/// characterization-sharing statistics.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One entry per grid cell, ordered scenario-major then policy order.
    pub runs: Vec<MatrixRun>,
    /// Wall-clock duration of the whole sweep, seconds.
    pub wall_clock_s: f64,
    /// Number of worker threads used; each runs whole chunks of cells as
    /// batches on its own thread.
    pub threads: usize,
    /// Per-cell wall-clock times, seconds, aligned with `runs`. Lockstep
    /// stepping interleaves the cells of a chunk, so each cell reports its
    /// chunk's wall-clock time divided by the chunk's cell count.
    pub cell_wall_clock_s: Vec<f64>,
    /// Level-1 lookups served from the shared `CharStore`.
    pub char_store_hits: u64,
    /// Level-1 lookups that had to run the closed-loop simulation.
    pub char_store_misses: u64,
    /// Windows the envelope fast-forward carried outside the lane (its
    /// jumps, decision replay and burst windows), summed over all cells
    /// ([`CellRunStats::fast_forwarded_windows`]; always 0 under
    /// [`BatchOptions::literal`]).
    pub fast_forwarded_windows: u64,
    /// Number of cells that engaged the fast-forward at least once.
    pub fast_forwarded_cells: usize,
    /// Always 0: plan-changing orbits, exact limit cycles included, leave
    /// the lane through the envelope and count in `envelope_cycles`. Kept
    /// so existing readers of the field keep compiling.
    pub periodic_cycles: u64,
    /// Analytic segments of the envelope fast-forward (closed-form
    /// frozen-plan jumps plus decision-replay segments), summed over all
    /// cells ([`CellRunStats::envelope_cycles`]).
    pub envelope_cycles: u64,
    /// Windows the envelope tier's exact decision replay carried, summed
    /// over all cells ([`CellRunStats::replayed_windows`]; part of
    /// `fast_forwarded_windows`).
    pub replayed_windows: u64,
    /// Constant-plan runs the exact decision replay logged, summed over all
    /// cells ([`CellRunStats::replay_runs`]).
    pub replay_runs: u64,
    /// Windows envelope bursts stepped one at a time, summed over all cells
    /// ([`CellRunStats::burst_stepped_windows`]; part of
    /// `fast_forwarded_windows`).
    pub burst_stepped_windows: u64,
    /// Windows advanced literally (stepped, not replayed analytically),
    /// summed over all cells. `stepped_windows + fast_forwarded_windows` is
    /// the exact simulated window count, the same with the envelope on or
    /// off.
    pub stepped_windows: u64,
    /// Always 0: the envelope's trigger is a decision count with no
    /// detector to time. Kept because the benchmark's `batch.detector_ms`
    /// reads it; the next change to the benchmark removes both.
    pub detector_ns: u64,
    /// Wall-clock nanoseconds spent fitting envelope bands and building
    /// their certificates, summed over all cells.
    pub verify_ns: u64,
    /// Wall-clock nanoseconds spent inside the envelope's analytic replay,
    /// summed over all cells.
    pub replay_ns: u64,
}

/// Fans a grid of MEMSpot cells across worker threads.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    /// Store shared by every cell; `None` allocates a fresh in-memory store
    /// per [`SweepRunner::run`]. Inject a
    /// [`CharStore::with_disk_cache`]-backed store to persist level-1 work
    /// across processes.
    store: Option<Arc<CharStore>>,
    batch_options: BatchOptions,
}

/// One unit of sweep work: a single {scenario, policy} grid cell.
#[derive(Debug, Clone, Copy)]
struct SweepCell<'a> {
    scenario: &'a SweepScenario,
    spec: &'a PolicySpec,
}

impl SweepRunner {
    /// A runner using all available cores.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        SweepRunner { threads, store: None, batch_options: BatchOptions::default() }
    }

    /// A runner with an explicit worker count (1 = sequential; used as the
    /// baseline of the speedup measurements).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner { threads: threads.max(1), ..Self::new() }
    }

    /// Sets the batched engine's options (the fast-forward switch). Pass
    /// [`BatchOptions::literal`] for results bit-identical to each cell run
    /// alone ([`MemSpot::run`]).
    pub fn with_batch_options(mut self, options: BatchOptions) -> Self {
        self.batch_options = options;
        self
    }

    /// Makes every sweep of this runner share `store` instead of allocating
    /// a fresh in-memory store per run — with a disk-backed store
    /// ([`CharStore::with_disk_cache`]), repeated sweeps skip level-1
    /// characterization entirely once the cache file is warm.
    pub fn with_char_store(mut self, store: Arc<CharStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell of the grid and returns the per-cell results in
    /// deterministic grid order (scenario-major, then the scenario's policy
    /// order), plus the sweep's timing and store statistics.
    ///
    /// `make_config` maps a scenario's cooling configuration to the MEMSpot
    /// configuration to run it under (typically `scale.memspot_config`);
    /// the scenario's thermal-model fields are applied on top.
    pub fn run(
        &self,
        scenarios: &[SweepScenario],
        make_config: impl Fn(CoolingConfig) -> MemSpotConfig + Sync,
    ) -> SweepOutcome {
        let start = Instant::now();
        let cpu = CpuConfig::paper_quad_core();
        let mem = FbdimmConfig::ddr2_667_paper();
        let store = self.store.clone().unwrap_or_else(|| Arc::new(CharStore::new()));
        // With an injected (possibly disk-backed, long-lived) store the
        // counters are cumulative; report this sweep's share as deltas.
        let (hits_before, misses_before) = (store.hits(), store.misses());

        // Pre-warm: every cell's window loop starts from its mix's
        // full-speed design point, so without this step the first cells of a
        // mix pile up on one in-flight store computation. Characterizing the
        // distinct (mix, budget) full-speed points in parallel up front
        // turns that head-of-line blocking into parallel level-1 work.
        let mut warm: Vec<(&SweepScenario, u64)> = Vec::new();
        for scenario in scenarios {
            let budget = make_config(scenario.cooling).characterization_budget;
            if !warm.iter().any(|(s, b)| s.mix.id == scenario.mix.id && *b == budget) {
                warm.push((scenario, budget));
            }
        }
        parallel_map(self.threads, &warm, |(scenario, budget)| {
            let mut table = CharacterizationTable::with_store(
                cpu.clone(),
                mem,
                scenario.mix.id.clone(),
                scenario.mix.apps.clone(),
                *budget,
                Arc::clone(&store),
            );
            table.point(&RunningMode::full_speed(&cpu));
        });

        let cells: Vec<SweepCell> = scenarios
            .iter()
            .flat_map(|scenario| scenario.specs.iter().map(move |spec| SweepCell { scenario, spec }))
            .collect();
        // Cells are deterministic regardless of lane composition, so the
        // chunk boundaries only shape performance, not results. Wide chunks
        // are what the lockstep lanes feed on (the inner RC loop runs over a
        // chunk's cells), so the guided partition starts with chunks of half
        // an even share of the grid per worker and lets later chunks shrink
        // with the remaining queue: the tail then drains cell by cell
        // instead of idling workers behind one slow multi-cell chunk.
        let power = FbdimmPowerModel::paper_defaults();
        let cpu_power = PaperCpuPower::new();
        let chunks: Vec<&[SweepCell]> = guided_partition(&cells, self.threads);
        let per_chunk = parallel_map(self.threads, &chunks, |batch| {
            let chunk_start = Instant::now();
            let runs =
                run_chunk_batched(batch, &cpu, mem, &power, &cpu_power, &make_config, &store, &self.batch_options);
            // Lockstep stepping interleaves the chunk's cells, so per-cell
            // wall-clock is reported as the chunk average.
            let secs = chunk_start.elapsed().as_secs_f64() / batch.len().max(1) as f64;
            (runs, secs)
        });
        let mut runs = Vec::with_capacity(cells.len());
        let mut cell_wall_clock_s = Vec::with_capacity(cells.len());
        let mut fast_forwarded_windows = 0u64;
        let mut fast_forwarded_cells = 0usize;
        let mut envelope_cycles = 0u64;
        let mut stepped_windows = 0u64;
        let mut replayed_windows = 0u64;
        let mut replay_runs = 0u64;
        let mut burst_stepped_windows = 0u64;
        let mut verify_ns = 0u64;
        let mut replay_ns = 0u64;
        for (run, secs, stats) in
            per_chunk.into_iter().flat_map(|(runs, secs)| runs.into_iter().map(move |(run, stats)| (run, secs, stats)))
        {
            runs.push(run);
            cell_wall_clock_s.push(secs);
            fast_forwarded_windows += stats.fast_forwarded_windows;
            fast_forwarded_cells += usize::from(stats.fast_forwarded_windows > 0);
            envelope_cycles += stats.envelope_cycles;
            stepped_windows += stats.stepped_windows;
            replayed_windows += stats.replayed_windows;
            replay_runs += stats.replay_runs;
            burst_stepped_windows += stats.burst_stepped_windows;
            verify_ns += stats.verify_ns;
            replay_ns += stats.replay_ns;
        }
        SweepOutcome {
            runs,
            wall_clock_s: start.elapsed().as_secs_f64(),
            threads: self.threads,
            cell_wall_clock_s,
            char_store_hits: store.hits() - hits_before,
            char_store_misses: store.misses() - misses_before,
            fast_forwarded_windows,
            fast_forwarded_cells,
            periodic_cycles: 0,
            envelope_cycles,
            replayed_windows,
            replay_runs,
            burst_stepped_windows,
            stepped_windows,
            detector_ns: 0,
            verify_ns,
            replay_ns,
        }
    }
}

/// Order-preserving parallel map over a slice: `threads` scoped workers
/// claim items one at a time through a shared atomic index and the results
/// are reassembled in input order. The building block of [`SweepRunner`],
/// also used directly by experiment drivers whose unit of work is not a
/// `MemSpot` grid cell (e.g. the Chapter 5 platform runs).
pub fn parallel_map<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, R)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(idx) else { break };
                    done.push((idx, f(item)));
                }
                done
            }));
        }
        for handle in handles {
            for (idx, result) in handle.join().expect("parallel_map worker panicked") {
                slots[idx] = Some(result);
            }
        }
    });

    slots.into_iter().map(|s| s.expect("every item processed")).collect()
}

/// Deficit-aware (guided self-scheduling) chunk size: an even share of
/// half the remaining queue, never below one item. Early chunks are wide,
/// feeding wide lockstep lanes, and shrink as the queue drains, so the
/// tail of a sweep is parcelled out item by item instead of stranding one
/// worker behind a wide chunk whose last cell happens to be slow.
fn guided_claim(remaining: usize, workers: usize) -> usize {
    remaining.div_ceil(2 * workers.max(1)).max(1)
}

/// Splits `items` into the contiguous, non-increasing sequence of guided
/// chunks: the first holds about `1 / (2 · workers)` of the items, and
/// later chunks shrink toward single items as the remaining queue drains.
fn guided_partition<T>(items: &[T], workers: usize) -> Vec<&[T]> {
    let mut chunks = Vec::new();
    let mut rest = items;
    while !rest.is_empty() {
        let (head, tail) = rest.split_at(guided_claim(rest.len(), workers));
        chunks.push(head);
        rest = tail;
    }
    chunks
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

/// The MEMSpot configuration a scenario's cells run under: the scale's base
/// config with the scenario's stack, thermal-model, cadence and limits
/// overrides applied on top.
fn scenario_config(
    scenario: &SweepScenario,
    make_config: &(impl Fn(CoolingConfig) -> MemSpotConfig + Sync),
) -> MemSpotConfig {
    let mut cfg = make_config(scenario.cooling).with_stack(scenario.stack);
    if scenario.integrated {
        cfg = cfg.with_integrated(scenario.interaction_degree);
    }
    if let Some(dt) = scenario.dtm_interval_s {
        cfg.window_s = dt;
        cfg.dtm_interval_s = dt;
    }
    if let Some(limits) = scenario.limits {
        cfg.limits = limits;
    }
    cfg
}

/// Runs one claimed chunk of cells through a single [`BatchedSimEngine`]
/// on the calling thread: the chunk's scenes are grouped into lockstep
/// lanes and the envelope fast-forwards the cells it can take (per
/// `options`). Results come back in chunk order, one per cell, each with
/// its execution counters.
#[allow(clippy::too_many_arguments)]
fn run_chunk_batched(
    chunk: &[SweepCell],
    cpu: &CpuConfig,
    mem: FbdimmConfig,
    power: &FbdimmPowerModel,
    cpu_power: &PaperCpuPower,
    make_config: &(impl Fn(CoolingConfig) -> MemSpotConfig + Sync),
    store: &Arc<CharStore>,
    options: &BatchOptions,
) -> Vec<(MatrixRun, CellRunStats)> {
    let mut batch = Vec::with_capacity(chunk.len());
    let mut labels = Vec::with_capacity(chunk.len());
    for cell in chunk {
        let scenario = cell.scenario;
        let cfg = scenario_config(scenario, make_config);
        let policy = cell.spec.build(cpu, cfg.limits);
        labels.push((scenario.cooling.label(), scenario.mix.id.clone(), policy.name()));
        batch.push(BatchCell::new(cpu, &mem, cfg, scenario.mix.clone(), policy, Arc::clone(store)));
    }
    let engine = BatchedSimEngine::new(cpu, &mem, power, cpu_power);
    engine
        .run(batch, options)
        .into_iter()
        .zip(labels)
        .map(|((result, stats), (cooling, workload, policy))| (MatrixRun { cooling, workload, policy, result }, stats))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;
    use workloads::mixes;

    fn grid() -> Vec<SweepScenario> {
        let specs = vec![PolicySpec::NoLimit, PolicySpec::Ts];
        vec![
            SweepScenario::isolated(CoolingConfig::aohs_1_5(), mixes::w1(), specs.clone()),
            SweepScenario::isolated(CoolingConfig::fdhs_1_0(), mixes::w1(), specs.clone()),
            SweepScenario::isolated(CoolingConfig::aohs_1_5(), mixes::w6(), specs),
        ]
    }

    #[test]
    fn results_come_back_in_grid_order_regardless_of_threads() {
        let make = |cooling: CoolingConfig| Scale::Smoke.memspot_config(cooling);
        let sequential = SweepRunner::with_threads(1).run(&grid(), make);
        let parallel = SweepRunner::with_threads(4).run(&grid(), make);
        assert_eq!(sequential.runs.len(), 6);
        assert_eq!(parallel.runs.len(), 6);
        let order: Vec<(String, String, String)> =
            sequential.runs.iter().map(|r| (r.cooling.clone(), r.workload.clone(), r.policy.clone())).collect();
        let parallel_order: Vec<(String, String, String)> =
            parallel.runs.iter().map(|r| (r.cooling.clone(), r.workload.clone(), r.policy.clone())).collect();
        assert_eq!(order, parallel_order);
        assert_eq!(order[0], ("AOHS_1.5".to_string(), "W1".to_string(), "No-limit".to_string()));
    }

    #[test]
    fn parallel_results_match_sequential_results_exactly() {
        // Cells are deterministic and level-1 points are deterministic
        // functions of their store key, so neither parallelism nor the
        // shared store may change any simulated quantity.
        let make = |cooling: CoolingConfig| Scale::Smoke.memspot_config(cooling);
        let a = SweepRunner::with_threads(1).run(&grid(), make);
        let b = SweepRunner::with_threads(4).run(&grid(), make);
        for (x, y) in a.runs.iter().zip(b.runs.iter()) {
            assert_eq!(x.result, y.result, "{}/{}/{} diverged", x.cooling, x.workload, x.policy);
        }
    }

    #[test]
    fn shared_store_reports_hits_on_grids_that_revisit_a_mix() {
        // W1 appears under both cooling configs and under two policies per
        // scenario: the level-1 points must be computed once and then hit.
        let make = |cooling: CoolingConfig| Scale::Smoke.memspot_config(cooling);
        let outcome = SweepRunner::with_threads(2).run(&grid(), make);
        assert!(outcome.char_store_hits > 0, "expected level-1 dedup across cells");
        assert!(outcome.char_store_misses > 0);
        // Every cell carries its wall-clock measurement, and no cell takes
        // longer than the sweep (pre-warm time is outside the cells).
        assert_eq!(outcome.cell_wall_clock_s.len(), outcome.runs.len());
        assert!(outcome.cell_wall_clock_s.iter().all(|&s| s > 0.0 && s <= outcome.wall_clock_s));
    }

    #[test]
    fn batched_execution_matches_the_per_cell_engine_bit_for_bit() {
        // With fast-forward off the batched tier is purely a memory-layout
        // transformation; every simulated quantity must carry identical
        // bits to a fresh per-cell `MemSpot` run, for any chunking. Traced
        // cells (Figures 4.5-4.8) never take the envelope, so they must do
        // the same under the default options.
        let plain: fn(CoolingConfig) -> MemSpotConfig = |cooling| Scale::Smoke.memspot_config(cooling);
        let traced: fn(CoolingConfig) -> MemSpotConfig =
            |cooling| MemSpotConfig { record_temp_trace: true, ..Scale::Smoke.memspot_config(cooling) };
        let cpu = CpuConfig::paper_quad_core();
        for (make, options) in [(plain, BatchOptions::literal()), (traced, BatchOptions::default())] {
            let literal = SweepRunner::with_threads(3).with_batch_options(options).run(&grid(), make);
            assert_eq!(literal.fast_forwarded_windows, 0);
            assert_eq!(literal.fast_forwarded_cells, 0);
            let store = Arc::new(CharStore::new());
            let cells = grid().into_iter().flat_map(|s| s.specs.clone().into_iter().map(move |spec| (s.clone(), spec)));
            let mut compared = 0;
            for ((scenario, spec), got) in cells.zip(&literal.runs) {
                let cfg = make(scenario.cooling);
                let mut spot =
                    MemSpot::with_store(cpu.clone(), FbdimmConfig::ddr2_667_paper(), cfg, Arc::clone(&store));
                let want = spot.run(&scenario.mix, spec.build(&cpu, cfg.limits).as_mut());
                assert_eq!(got.result, want, "{}/{}/{} diverged", got.cooling, got.workload, got.policy);
                compared += 1;
            }
            assert_eq!(compared, literal.runs.len());
        }
    }

    #[test]
    fn parallel_map_matches_sequential_map_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 2, 5, 8] {
            let got = parallel_map(threads, &items, |x| x * x);
            assert_eq!(got, expected, "{threads} threads");
        }
        assert!(parallel_map(4, &[] as &[u64], |x| x * x).is_empty());
    }

    #[test]
    fn guided_claims_shrink_as_the_queue_drains() {
        // An even share of half the remaining queue, floored at one item.
        assert_eq!(guided_claim(100, 4), 13);
        assert_eq!(guided_claim(7, 4), 1);
        assert_eq!(guided_claim(1, 4), 1);
        assert_eq!(guided_claim(1000, 1), 500);
        // Degenerate worker counts never divide by zero or claim nothing.
        assert_eq!(guided_claim(10, 0), 5);
        // Claims are non-increasing as the queue drains.
        let mut previous = usize::MAX;
        for remaining in (1..=64).rev() {
            let claim = guided_claim(remaining, 3);
            assert!(claim >= 1 && claim <= remaining);
            assert!(claim <= previous, "claim grew from {previous} to {claim} at {remaining} remaining");
            previous = claim;
        }
    }

    #[test]
    fn guided_partition_is_ordered_nonempty_and_non_increasing() {
        for n in [1usize, 2, 7, 37, 100] {
            let items: Vec<usize> = (0..n).collect();
            let chunks = guided_partition(&items, 4);
            let flat: Vec<usize> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flat, items, "partition of {n} drops or reorders items");
            assert!(chunks.iter().all(|c| !c.is_empty()));
            for pair in chunks.windows(2) {
                assert!(pair[0].len() >= pair[1].len(), "chunk sizes must not grow toward the tail");
            }
            // The first chunk holds an even share of half the grid per worker.
            assert_eq!(chunks[0].len(), n.div_ceil(8).max(1));
            // The tail drains in single items.
            assert_eq!(chunks.last().unwrap().len(), 1);
        }
        assert!(guided_partition::<usize>(&[], 4).is_empty());
    }

    #[test]
    fn stacked_scenarios_ride_the_same_grid() {
        let specs = vec![PolicySpec::NoLimit];
        let scenarios = vec![
            SweepScenario::isolated(CoolingConfig::aohs_1_5(), mixes::w1(), specs.clone()),
            SweepScenario::stacked(CoolingConfig::aohs_1_5(), StackKind::stacked4(), mixes::w1(), specs.clone()),
            SweepScenario::stacked(CoolingConfig::aohs_1_5(), StackKind::RankPair, mixes::w1(), specs),
        ];
        let make = |cooling: CoolingConfig| Scale::Smoke.memspot_config(cooling);
        let outcome = SweepRunner::with_threads(2).run(&scenarios, make);
        assert_eq!(outcome.runs.len(), 3);
        assert_eq!(outcome.runs[0].result.stack, "fbdimm");
        assert_eq!(outcome.runs[1].result.stack, "3d-4h");
        assert_eq!(outcome.runs[2].result.stack, "rank-pair");
        // The 4-high stack resolves five layers per position and heats the
        // inner die (next to the base) beyond the spreader-side outer die.
        let stacked = &outcome.runs[1].result;
        let hot = stacked.hottest_position().expect("peaks exist");
        assert_eq!(hot.layers_c.len(), 5);
        assert!(hot.layers_c[1] > hot.layers_c[4], "inner {:.1} vs outer {:.1}", hot.layers_c[1], hot.layers_c[4]);
        // The rank pair has no buffer die: its AMB maximum is NaN, not 0.0.
        assert!(outcome.runs[2].result.max_amb_c.is_nan());
        assert!(outcome.runs[2].result.max_dram_c > 50.0);
        // Topologies share level-1 characterizations — the store key knows
        // nothing about the thermal stack.
        assert!(outcome.char_store_hits > 0, "stacked cells must reuse the mix's level-1 points");
    }

    #[test]
    fn runner_defaults_to_available_parallelism() {
        assert!(SweepRunner::new().threads() >= 1);
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert_eq!(SweepScenario::isolated(CoolingConfig::aohs_1_5(), mixes::w1(), vec![PolicySpec::Ts]).cells(), 1);
    }
}
