//! The level-2 window loop: lockstep lanes of cells, optionally stepped in
//! parallel, and the contraction-certified envelope fast-forward.
//!
//! Every level-2 run goes through this engine — a single
//! [`MemSpot::run`](crate::sim::memspot::MemSpot::run) is a one-cell
//! literal batch, a sweep grid is a batch per claimed chunk of cells — on
//! one of two tiers:
//!
//! 1. **Literal lockstep** — [`BatchedSimEngine::run`] groups cells into
//!    lanes and steps each lane over a shared matrix on the calling thread.
//!    [`BatchedSimEngine::run_with_workers`] instead fans one batch's lanes
//!    across OS threads, column-chunking dominant lanes so every worker has
//!    work (the sweep harness does not use it; the sweep bench times it
//!    against `run`). A cell's bits do not depend on the lane it shares or
//!    on the thread that steps it: lanes are a pure memory-layout
//!    transformation, and chunking only reorders independent per-cell
//!    operations. The per-window DTM/accounting pass runs post-step
//!    bookkeeping, decisions and deferred column removals as separate
//!    column-disjoint phases, so a chunked lane's decision pass
//!    parallelizes exactly like its RC sweep.
//! 2. **Contraction-certified envelope** — plan-changing orbits (limit
//!    cycles, slipping orbits whose duty ratio is irrational at the paper's
//!    10 ms cadence, sliding-mode threshold chatter, the DTM-TS shutdown
//!    relay), long monotone approaches to a distant fixed point and plans
//!    frozen at their fixed point are replayed under certificates built on
//!    the RC map's contraction: frozen-plan segments licensed by the
//!    policy's decision-region
//!    certificate ([`DecisionRule::region`]) over the exact traversed
//!    temperature range collapse to closed form through λ-powered lo/hi
//!    maps of the exact two-exponential row response, and chattering
//!    segments are *replayed decision for decision* at scalar cost from
//!    the policy's pure decision key ([`DecisionRule::key`]) with a
//!    dominance certificate covering the non-binding rows. Every reported
//!    quantity stays within relative 1e-9 of literal stepping; window
//!    counts, simulated time and completion windows stay *exact*, and a
//!    drift audit against the band falls the cell back to literal stepping
//!    the moment confinement fails. Cells the envelope cannot take
//!    (field-observing policies, traced cells and cells whose step differs
//!    from the DTM interval) step literally in tier 1.
//!
//! [`BatchOptions::literal`] switches the envelope off, leaving tier 1.
//!
//! A design-space sweep runs hundreds of cells whose window loops are
//! completely independent yet structurally identical. The
//! [`BatchedSimEngine`] exploits that: cells whose scenes share a device
//! stack, a step length and an ambient time constant are grouped into
//! **lanes**, and each lane steps all of its cells in lockstep over one
//! shared cell-major temperature/peak matrix (row = `position × depth +
//! layer`, column = cell). The per-window RC update then becomes a tight
//! inner loop over the cells of a row — contiguous, branch-free and
//! auto-vectorizable — instead of a pointer-chasing scene walk per cell. A
//! lane of one member walks its column instead, with the same operations
//! in the same order. Non-identity stacks (rank pairs, 3D stacks) keep
//! their per-lane Ψ superposition matrices cached per cell column,
//! rewritten only on plan change, so the lockstep sweep never re-derives
//! the stack coupling per window.
//!
//! The RC sweep performs, per element, exactly the float operations of
//! [`DimmThermalScene::step`] in its order, so a lane column carries the
//! bits of a scene stepped on its own (the
//! `lane_sweeps_step_every_column_like_the_scene` unit test holds every
//! stack kind to it). Everything that is *per-cell logic* (DTM decisions,
//! actuation plans, window-power rebuilds, batch progress, energy
//! accounting) runs cell by cell in one fixed order per window, so a
//! cell's trajectory is the same in any batch: the lane only restructures
//! the memory layout of the RC arithmetic, not its operations or their
//! order. Cells that finish (batch complete or safety stop) drop out of the
//! hot lane by a column swap-remove, which moves no arithmetic and
//! therefore cannot perturb the remaining cells.
//!
//! Two further layout moves keep the per-window overhead low. Window
//! powers are constant between plan changes, so each lane keeps its
//! members' per-position powers in a `positions × cells` matrix rewritten
//! per column on plan change — the RC sweep reads power rows contiguously
//! instead of chasing each cell's window struct. And policies whose
//! decision rule does not read the field ([`DecisionRule::reads_field`])
//! are observed straight from the sweep's running per-cell maxima
//! (`f64::max` over a fixed node set is order-independent, so the bits
//! match a full scene fold) instead of re-synthesizing the per-position
//! field at every DTM interval.
//!
//! # Contraction-certified envelope fast-forward
//!
//! Threshold-driven policies (DTM-BW, DTM-ACG, DTM-CDVFS, DTM-COMB) never
//! reach a fixed plan: they chatter between adjacent emergency levels
//! forever, either locked into an exact limit cycle or, at the paper's
//! 10 ms cadence, slipping quasiperiodically. DTM-TS relays between full speed
//! and shutdown: its latch holds each phase until the TDP or the TRP is
//! crossed, thousands of windows at 10 ms. The same schemes driven by the
//! PID controllers hold a plan for thousands of windows while each
//! controller is memory-one. A cell is eligible when fast-forward is on,
//! it records no temperature trace, its step equals the DTM interval and
//! its policy's decision rule ([`DtmPolicy::decision_rule`]) either keys
//! decisions (a [`DecisionRule::Ladder`] or a [`DecisionRule::Pid`]) or
//! certifies the cell's starting observation (the [`DecisionRule::Latch`]
//! of the DTM-TS relay, whose certificate speaks for its current latch
//! state). Field-reading rules do neither and stay off the tier. Two
//! triggers arm the envelope for an eligible cell:
//!
//! - the **orbit tracker** fingerprints every decision (plan, ambient and
//!   layer temperatures) and fires when the recent history repeats its
//!   plans with some period `k ≤ 16` while the ambient and temperatures
//!   recur; and
//! - the **frozen-approach trigger** fires when a plan has held for 64
//!   decisions, whether the temperatures are still sliding toward the
//!   plan's fixed point or already sit at it.
//!
//! At the next decision the cell enters a private **burst** loop
//! (decisions and the RC sweep bit-exact per window, lane overhead gone),
//! and inside the burst two analytic mechanisms fire, both derived from
//! the same fact — each RC row relaxes through an exact two-exponential
//! response `t(k) = S + a·λ_l^k + c·λ_amb^k` whose λ-powers are
//! contractions:
//!
//! - **Frozen segment jumps.** While the plan holds still, the closed-form
//!   lo/hi maps of every row's response bound the exact traversed
//!   temperature range, and the decision-region certificate
//!   ([`DecisionRule::region`], naming the plan decided over the whole
//!   traced rectangle of maxima, with the policy's state left unchanged)
//!   licenses collapsing the segment to its endpoint with `rate × W`
//!   accounting when it names the frozen plan.
//!   In-segment extremes come from the closed-form interior extremum of
//!   the two-exponential (the two modes pulling in opposite directions),
//!   so reported peaks are exact to the same tolerance. This is the only
//!   analytic exit of a latch (DTM-TS) burst: each shutdown or run
//!   phase is jumped up to the threshold crossing that ends it, and the
//!   burst steps and decides the crossing itself literally. A policy that
//!   integrates its observations ([`DecisionRule::integrates`], the PID
//!   controllers) would carry the closed form's rounding in its integral
//!   and flip a later near-tie decision, so its jumps skip only the
//!   decisions and the accounting and keep the literal RC sweep.
//! - **Exact decision replay.** Sliding-mode chatter (DTM-BW hugging its
//!   throttle threshold at 10 ms) flips plans every couple of windows, so
//!   no frozen certificate can hold. For policies whose decisions are a
//!   pure function of the current (and, for a memory-one PID controller,
//!   the previous) device maxima ([`DecisionRule::key`] /
//!   [`DecisionRule::plan_of_key`]), the replayer iterates the ambient and
//!   a set of *literal* rows with bitwise-literal recurrences — the
//!   binding (hottest) row of each device kind, plus every row the
//!   dominance certificate cannot clear — and re-evaluates the decision
//!   key per virtual window from the maxima over them. Every other row is
//!   proved dominated by a per-entry forcing-gap certificate
//!   (convex-combination dominance with a strict gap) or is a bitwise twin
//!   folded into its binding row. Plan run-length-encoded occupancy counts
//!   give closed-form accounting over the whole replayed span, and
//!   dominated rows are closed per plan-run with the same two-exponential
//!   maps — decisions exact, windows and completion boundaries conserved
//!   bit for bit, scalars within 1e-9.
//!
//! # The replay stage
//!
//! The exact decision replay is a stage of its own, `sim::replay`: the
//! burst sets a segment up (key table, binding rows, dominance certificate,
//! completion-safe cap) and books what the stage hands back (occupancy
//! counts, clocks, the re-prime); the stage runs the virtual-window loop,
//! keeps the run log and closes it. The loop is generic over its key
//! function and instantiated once per keyed rule kind with the rule's own
//! key code, so the per-window loop never dispatches on the rule. Debug
//! builds hold every 64th replayed window of a ladder rule (by the burst's
//! window count) to [`DecisionRule::next`] and to the key table. The
//! segment's clocks are carried in the loop as the same sequence of
//! additions literal stepping makes.
//!
//! Most runs of sliding-mode chatter last one or two windows, and the
//! close gives both an exact body of its own before the general one:
//!
//! - a **one-window run** has no interior window: its only in-run value is
//!   its endpoint, so it folds the endpoint alone into the peak — what the
//!   interior-extremum search computes for `n = 1` in real arithmetic;
//! - a **two-window run** has exactly one interior value,
//!   `t(1) = t·λ_l + base₁ + off·(1 − λ_l)` from the first rungs of the
//!   λ-power ladders, folded into the peak beside the endpoint, which is
//!   computed from `t(0)` exactly as for any run, so the row temperature
//!   keeps its bits.
//!
//! Runs of three or more windows keep the general body and its cold path.
//!
//! After either mechanism the burst **re-primes** the policy: it replays
//! the maxima of the segment's last two skipped decisions through
//! `decide`. A memory-one PID controller remembers nothing older, so this
//! restores its state exactly as literal stepping would have left it; for
//! ladders and the DTM-TS latch the calls are no-ops.
//!
//! A drift audit guards both mechanisms: every commit re-checks the
//! reconstructed rows against the confinement band, and any violation
//! falls the cell back to literal stepping at the next decision boundary
//! with nothing lost — the envelope tier only ever trades wall clock, not
//! soundness. A refused band or a fallback backs both triggers off,
//! doubling the wait with every failure.
//!
//! # Checked, not trusted
//!
//! Every certificate above comes from the one [`DecisionRule`] a policy
//! describes itself with. Debug builds check that rule on every literal
//! decision the engine makes: the rule taken before `decide` must predict
//! the returned plan and, for a latch, the state it leaves.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use cpu_model::{CpuConfig, PaperCpuPower, RunningMode};
use fbdimm_sim::{DimmTraffic, FbdimmConfig};
use workloads::{BatchJob, WorkloadMix};

use crate::dtm::plan::{ActuationPlan, PlanTrafficStats};
use crate::dtm::policy::DtmPolicy;
use crate::dtm::rule::{self, DecisionRule};
use crate::power::fbdimm::{FbdimmPowerBreakdown, FbdimmPowerModel};
use crate::sim::characterize::{CharPoint, CharStore, CharacterizationTable, ModeKey};
use crate::sim::energy::EnergyAccumulator;
use crate::sim::engine::{mode_label_from_key, SimEngine, WindowPower};
use crate::sim::memspot::{MemSpotConfig, MemSpotResult, PositionPeak, TempSample};
use crate::sim::replay::{self, Forcing, REPLAY_KEYS, REPLAY_RUN_EXIT};
use crate::thermal::params::{DeviceLayerKind, StackTopology};
use crate::thermal::rc::ThermalNode;
use crate::thermal::scene::{DimmThermalScene, ThermalObservation};

/// How close the shared ambient node must sit to its own fixed point before
/// a cell may fast-forward. Isolated scenes hold the inlet temperature
/// bitwise, so this is only a gate for integrated (processor-heated)
/// ambients; it is an order of magnitude tighter than the 1e-9 agreement
/// the fast-forward promises so the frozen-ambient approximation cannot
/// consume the error budget.
const AMBIENT_FF_EPS_C: f64 = 1e-10;

/// Recurrence radius (°C) of the orbit tracker: a candidate period's layer
/// temperatures must recur within this many degrees before it arms the
/// envelope burst ([`cycle_track`]).
const ORBIT_EPS_C: f64 = 0.05;

/// Longest decision-sequence period the orbit tracker searches for. The
/// paper's threshold policies oscillate between two adjacent emergency
/// levels (period 2–4 at the DTM cadence); anything longer is almost
/// certainly not an orbit worth arming the envelope for.
const MAX_CYCLE_DECISIONS: usize = 16;

/// After a refused or fallen-back envelope engagement, how many further
/// decisions the triggers wait before they may arm the burst again; each
/// further failure doubles the wait ([`env_back_off`]).
const ENV_RETRY_BACKOFF: u32 = 64;

/// Cap on the backoff doublings: the wait saturates at
/// `ENV_RETRY_BACKOFF << ENV_BACKOFF_DOUBLINGS` (4096) decisions, so a cell
/// whose orbit genuinely settles late is still retried every few thousand
/// windows rather than written off.
const ENV_BACKOFF_DOUBLINGS: u32 = 6;

/// Shortest frozen-plan run (in envelope-burst windows) before the burst
/// probes for a closed-form segment jump. Shorter runs are cheaper to step
/// than to license.
const ENV_JUMP_MIN: u64 = 16;

/// Floating-point shadowing guard (°C) every contraction certificate keeps
/// between its traced rectangle and the nearest decision boundary. The
/// closed-form segment endpoint differs from literally iterated stepping by
/// rounding (~1e-12 °C), and a jump that lands *on* a boundary hands that
/// perturbation to a decision whose margin is even smaller — on a
/// near-tangential approach a 1e-12 °C shift moves the crossing by hundreds
/// of windows. With the guard, every boundary approach ends in literal
/// windows; the row maps contract (λ < 1), so by the time the trajectory
/// has drifted a guard's width the state has collapsed bit-exactly onto the
/// literal orbit, and crossings land on the same window literal stepping
/// puts them. Contraction is exponential in the window count while the
/// crossing margin is linear, so the guard is sound at every approach rate:
/// fast chatter arms give up ~1 window per jump, slow tangential approaches
/// give up thousands — exactly the windows whose decisions are fragile.
const ENV_FP_GUARD_C: f64 = 1e-7;

/// How many consecutive unchanged decisions arm the frozen-approach
/// envelope trigger: long enough that a plan about to flip again is left to
/// the orbit tracker, short relative to the tens of thousands of windows a
/// slow thermal transient spans at the paper's 10 ms cadence.
const ENV_FROZEN_STREAK: u32 = 64;

/// Options of the batched execution tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOptions {
    /// Enables the contraction-certified envelope fast-forward. When
    /// `false` every cell steps literally and its result carries the bits
    /// of the same cell run alone
    /// ([`MemSpot::run`](crate::sim::memspot::MemSpot::run)). Even when
    /// `true` the envelope skips every cell it cannot take: traced cells,
    /// policies whose decision rule neither keys decisions nor certifies
    /// the cell's starting observation (field-reading rules), and cells
    /// whose step differs from the DTM interval.
    pub fast_forward: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { fast_forward: true }
    }
}

impl BatchOptions {
    /// Literal batched execution: lockstep lanes, no fast-forward. Every
    /// cell's result carries the bits of the same cell run alone
    /// ([`MemSpot::run`](crate::sim::memspot::MemSpot::run)).
    pub fn literal() -> Self {
        BatchOptions { fast_forward: false }
    }
}

/// Per-cell execution counters returned alongside each [`MemSpotResult`].
/// Kept outside the result so golden suites can keep comparing results with
/// `==` while still asserting how each cell was executed.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellRunStats {
    /// Windows executed literally (stepped through the lane RC loop).
    pub stepped_windows: u64,
    /// Windows the envelope fast-forward carried outside the lane (its
    /// jumps, its decision replay and its burst windows), counted toward
    /// the same conservation identity as stepped windows:
    /// `stepped + fast_forwarded` equals the literal window count.
    pub fast_forwarded_windows: u64,
    /// Pseudo-cycles replayed by the envelope tier: closed-form segment
    /// jumps plus (for slipping orbits) the replayed windows divided by the
    /// orbit's detected period. Zero whenever the envelope never engaged.
    pub envelope_cycles: u64,
    /// Windows the envelope tier's exact decision replay decided and swept
    /// as virtual windows (binding and literal rows only; a subset of
    /// `fast_forwarded_windows`).
    pub replayed_windows: u64,
    /// Constant-plan runs the exact decision replay logged over its
    /// `replayed_windows` (each closed per dominated row in closed form).
    pub replay_runs: u64,
    /// Windows an envelope burst decided and swept one at a time, every row
    /// literally, outside its closed-form jumps and its decision replay (a
    /// subset of `fast_forwarded_windows`).
    pub burst_stepped_windows: u64,
    /// Envelope bursts abandoned by the drift audit: the trajectory left
    /// its certified band and the cell fell back to literal lane stepping
    /// (with the replayed windows kept — they were themselves literal).
    pub envelope_fallbacks: u64,
    /// Estimated wall-clock nanoseconds spent in the orbit tracker that
    /// arms the envelope (sampled 1-in-64 and extrapolated; excluded from
    /// `==`).
    pub detector_ns: u64,
    /// Wall-clock nanoseconds spent building envelope bands and
    /// certificates (excluded from `==`).
    pub verify_ns: u64,
    /// Wall-clock nanoseconds spent inside the envelope's analytic replays
    /// (excluded from `==`).
    pub replay_ns: u64,
}

/// Equality deliberately ignores the wall-clock phase counters: golden
/// suites compare stats across runs whose timings can never match.
impl PartialEq for CellRunStats {
    fn eq(&self, other: &Self) -> bool {
        self.stepped_windows == other.stepped_windows
            && self.fast_forwarded_windows == other.fast_forwarded_windows
            && self.envelope_cycles == other.envelope_cycles
            && self.replayed_windows == other.replayed_windows
            && self.replay_runs == other.replay_runs
            && self.burst_stepped_windows == other.burst_stepped_windows
            && self.envelope_fallbacks == other.envelope_fallbacks
    }
}

impl Eq for CellRunStats {}

/// One sweep cell: a run configuration, a workload mix, a policy and the
/// mix's level-1 characterization table.
#[derive(Debug)]
pub struct BatchCell<'p> {
    /// The run configuration (cooling, stack, cadences, …).
    pub config: MemSpotConfig,
    /// The workload mix to run.
    pub mix: WorkloadMix,
    /// The DTM policy deciding each interval: owned, or a caller's policy
    /// borrowed for the run (`Box::new(&mut policy)`), which the run leaves
    /// in its final state.
    pub policy: Box<dyn DtmPolicy + 'p>,
    /// Level-1 characterization table for `mix` (backed by a shared
    /// [`CharStore`] when built via [`BatchCell::new`]). Over a warm store
    /// it builds no level-1 simulator: one is built only if the cell runs a
    /// closed loop.
    pub table: CharacterizationTable,
}

impl<'p> BatchCell<'p> {
    /// Builds a cell whose characterization table shares `store`, so level-1
    /// results are computed once per distinct (mix, mode, budget, geometry)
    /// across the whole batch.
    pub fn new(
        cpu: &CpuConfig,
        mem: &FbdimmConfig,
        config: MemSpotConfig,
        mix: WorkloadMix,
        policy: Box<dyn DtmPolicy + 'p>,
        store: Arc<CharStore>,
    ) -> Self {
        let table = CharacterizationTable::with_store(
            cpu.clone(),
            *mem,
            mix.id.clone(),
            mix.apps.clone(),
            config.characterization_budget,
            store,
        );
        BatchCell { config, mix, policy, table }
    }

    /// Sets the level-1 thread count of the cell's characterization table
    /// ([`CharacterizationTable::with_rotation_threads`]; default 1, which
    /// is what engines that already run cells in parallel want).
    pub fn with_rotation_threads(mut self, threads: usize) -> Self {
        self.table = self.table.with_rotation_threads(threads);
        self
    }
}

/// The batched lockstep simulation engine. See the module docs for the
/// execution model and its bit-identity contract.
#[derive(Debug)]
pub struct BatchedSimEngine<'a> {
    cpu: &'a CpuConfig,
    mem: &'a FbdimmConfig,
    power: &'a FbdimmPowerModel,
    cpu_power: &'a PaperCpuPower,
}

impl<'a> BatchedSimEngine<'a> {
    /// Borrows the hardware models shared by every cell of the batch.
    pub fn new(
        cpu: &'a CpuConfig,
        mem: &'a FbdimmConfig,
        power: &'a FbdimmPowerModel,
        cpu_power: &'a PaperCpuPower,
    ) -> Self {
        BatchedSimEngine { cpu, mem, power, cpu_power }
    }

    /// Runs every cell to completion on the calling thread and returns one
    /// `(result, stats)` pair per cell, in input order. With
    /// [`BatchOptions::literal`] each result is bit-identical to the same
    /// cell run alone ([`MemSpot::run`](crate::sim::memspot::MemSpot::run)).
    ///
    /// # Panics
    ///
    /// Panics if any cell's configuration fails [`MemSpotConfig::validate`].
    pub fn run(&self, cells: Vec<BatchCell<'_>>, options: &BatchOptions) -> Vec<(MemSpotResult, CellRunStats)> {
        self.run_with_workers(cells, options, 1)
    }

    /// Like [`BatchedSimEngine::run`], but fans the lanes across up to
    /// `workers` OS threads. Lanes are independent by construction (cells
    /// never interact), so lane-parallel execution is **bit-identical** to
    /// the single-threaded run: each cell's trajectory depends only on its
    /// own column, never on which lane hosts it or which thread steps it.
    /// When the batch degenerates to fewer lanes than workers, the largest
    /// lanes are split column-wise into chunks until every worker has a
    /// lane to step (splitting a lane changes only the interleaving of
    /// per-cell operations, not any cell's operation sequence).
    ///
    /// # Panics
    ///
    /// Panics if any cell's configuration fails [`MemSpotConfig::validate`].
    pub fn run_with_workers(
        &self,
        cells: Vec<BatchCell<'_>>,
        options: &BatchOptions,
        workers: usize,
    ) -> Vec<(MemSpotResult, CellRunStats)> {
        let workers = workers.max(1);
        let configs: Vec<MemSpotConfig> = cells.iter().map(|c| c.config).collect();
        let engines: Vec<SimEngine<'_>> = configs
            .iter()
            .map(|config| SimEngine::new(self.cpu, self.mem, self.power, self.cpu_power, config))
            .collect();
        let states: Vec<CellState<'_>> =
            cells.into_iter().zip(engines.iter()).map(|(cell, engine)| CellState::new(cell, engine, options)).collect();
        let total = states.len();
        let mut groups = lane_groups(&states);
        if workers > 1 {
            split_groups(&mut groups, workers, total);
        }
        let mut works = lane_works(states, groups);
        if workers <= 1 || works.len() <= 1 {
            for work in &mut works {
                run_lane_work(work, &engines);
            }
        } else {
            // The parallel_map idiom from the sweep runner: an atomic cursor
            // over the lane list, each worker claiming whole lanes and
            // stepping them to completion. Every lane index is claimed by
            // exactly one worker, so the per-lane mutexes are uncontended —
            // they only move ownership into and back out of the pool.
            let tasks: Vec<std::sync::Mutex<LaneWork<'_>>> = works.into_iter().map(std::sync::Mutex::new).collect();
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            let engines_ref = &engines;
            std::thread::scope(|scope| {
                for _ in 0..workers.min(tasks.len()) {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        let mut work = tasks[i].lock().expect("lane worker panicked");
                        run_lane_work(&mut work, engines_ref);
                    });
                }
            });
            works = tasks.into_iter().map(|m| m.into_inner().expect("lane worker panicked")).collect();
        }
        let mut results: Vec<Option<(MemSpotResult, CellRunStats)>> = (0..total).map(|_| None).collect();
        for work in works {
            for (local, result) in work.results.into_iter().enumerate() {
                results[work.globals[local]] = result;
            }
        }
        results.into_iter().map(|r| r.expect("every cell finalizes exactly once")).collect()
    }
}

/// One unit of lane-parallel work: a lane, the states of its member cells
/// (locally indexed `0..n`), their result slots, and the mapping back to
/// the batch's global cell order.
#[derive(Debug)]
struct LaneWork<'p> {
    /// `globals[local]` is the batch-order index of local cell `local`
    /// (used to pick its engine and to scatter its result).
    globals: Vec<usize>,
    lane: Lane,
    states: Vec<CellState<'p>>,
    results: Vec<Option<(MemSpotResult, CellRunStats)>>,
}

/// Steps one lane to completion (the whole single-lane execution loop).
fn run_lane_work(work: &mut LaneWork<'_>, engines: &[SimEngine<'_>]) {
    let LaneWork { globals, lane, states, results } = work;
    lane_pre(lane, globals, engines, states, results);
    while !lane.members.is_empty() {
        lane_rc(lane, states);
        lane_post_pre(lane, globals, engines, states, results);
    }
}

/// The full mutable state of one in-flight cell: the window loop's
/// accumulators and current plan, plus the envelope's bookkeeping (plan
/// streak, execution stats, scratch buffers).
#[derive(Debug)]
struct CellState<'p> {
    mix: WorkloadMix,
    policy: Box<dyn DtmPolicy + 'p>,
    table: CharacterizationTable,
    batch: BatchJob,
    scene: DimmThermalScene,
    energy: EnergyAccumulator,
    full_shares: Vec<f64>,
    idle: Vec<FbdimmPowerBreakdown>,
    observation: ThermalObservation,
    plan_traffic: Vec<DimmTraffic>,
    plan_stats: PlanTrafficStats,
    step_s: f64,
    time_s: f64,
    next_dtm_s: f64,
    next_trace_s: f64,
    plan: ActuationPlan,
    mode: RunningMode,
    mode_key: ModeKey,
    point: Arc<CharPoint>,
    progressing: bool,
    window: WindowPower,
    overhead_s: f64,
    total_instructions: f64,
    total_bytes: f64,
    total_misses: f64,
    migrated_bytes: f64,
    max_amb: f64,
    max_dram: f64,
    ambient_sum: f64,
    ambient_samples: u64,
    residency: BTreeMap<ModeKey, f64>,
    trace: Vec<TempSample>,
    channel_throttle_s: Vec<f64>,
    plan_streak: u32,
    /// Whether the policy reads the observation's spatial field
    /// ([`DecisionRule::reads_field`]); scalar policies get a cheap
    /// maxima-only observation straight from the lane's RC sweep.
    wants_field: bool,
    stats: CellRunStats,
    /// Whether the envelope fast-forward may engage for this cell:
    /// [`BatchOptions::fast_forward`] on, no temperature trace, a
    /// decision rule that either keys decisions ([`DecisionRule::keys`]) or
    /// certifies the cell's starting observation ([`DecisionRule::region`];
    /// the latched DTM-TS relay), and a step that equals the DTM interval
    /// bitwise (so every window is exactly one decision and the replayed
    /// decision cadence is structurally identical to the stepped run).
    env_enabled: bool,
    /// The orbit tracker's recent decisions, newest last (capped at
    /// `2·MAX_CYCLE_DECISIONS + 1` so any period up to the maximum can be
    /// checked against one full prior repetition; see [`cycle_track`]).
    orbit_history: VecDeque<DecisionSnap>,
    /// Engage the envelope burst at the next DTM decision.
    env_pending: Option<EnvTrigger>,
    /// Decisions left before the envelope may be armed again after a
    /// refused band or a band violation ([`env_back_off`]).
    env_backoff: u32,
    /// Refused or fallen-back engagements so far (saturating) — sets the
    /// next backoff's doubling exponent.
    env_fails: u32,
    /// Fixed-point scratch for the frozen-approach band.
    fp: Vec<f64>,
    /// Column scratch for syncing lane columns back into the scene.
    col_scratch: Vec<f64>,
}

impl<'p> CellState<'p> {
    fn new(cell: BatchCell<'p>, engine: &SimEngine<'_>, options: &BatchOptions) -> Self {
        let BatchCell { config, mix, mut policy, mut table } = cell;
        let batch = BatchJob::new(mix.clone(), config.copies_per_app, engine.cpu.cores, config.instruction_scale);
        let scene = engine.make_scene();
        let full_mode = RunningMode::full_speed(engine.cpu);
        let full_point = table.point(&full_mode);
        let full_shares = full_point.core_share.clone();
        let idle = engine.idle_powers();
        let observation = scene.observe();
        let mode = full_mode;
        let mode_key = ModeKey::from_mode(&mode);
        let progressing = mode.makes_progress() && full_point.instr_rate_total > 0.0;
        let window = engine.window_power(&scene, &idle, &full_point, &full_point.dimm_traffic, &mode, progressing);
        let (max_amb, max_dram) = scene.max_temps_c();
        policy.reset();
        let rule = policy.decision_rule();
        let (amb, dram) = (observation.max_amb_c, observation.max_dram_c);
        let env_enabled = options.fast_forward
            && !config.record_temp_trace
            && (rule.keys() || rule.region(amb, dram, amb, dram).is_some())
            && config.window_s.min(config.dtm_interval_s).to_bits() == config.dtm_interval_s.to_bits();
        let wants_field = rule.reads_field();
        CellState {
            batch,
            energy: EnergyAccumulator::new(),
            full_shares,
            idle,
            observation,
            plan_traffic: Vec::new(),
            plan_stats: PlanTrafficStats::identity(),
            step_s: config.window_s.min(config.dtm_interval_s),
            time_s: 0.0,
            next_dtm_s: 0.0,
            next_trace_s: 0.0,
            plan: ActuationPlan::global(full_mode),
            mode,
            mode_key,
            point: full_point,
            progressing,
            window,
            overhead_s: 0.0,
            total_instructions: 0.0,
            total_bytes: 0.0,
            total_misses: 0.0,
            migrated_bytes: 0.0,
            max_amb,
            max_dram,
            ambient_sum: 0.0,
            ambient_samples: 0,
            residency: BTreeMap::new(),
            trace: Vec::new(),
            channel_throttle_s: vec![0.0; engine.mem.logical_channels],
            plan_streak: 0,
            wants_field,
            stats: CellRunStats::default(),
            env_enabled,
            orbit_history: VecDeque::new(),
            env_pending: None,
            env_backoff: 0,
            env_fails: 0,
            fp: Vec::new(),
            col_scratch: Vec::new(),
            mix,
            policy,
            table,
            scene,
        }
    }
}

/// One lockstep lane: the cells whose scenes share a device stack, a step
/// length and an ambient time constant, plus the shared cell-major
/// temperature/peak matrix they step over. Member position `c` owns matrix
/// column `c`; removing a member swap-removes its column (a pure copy, so
/// the surviving cells' bits are untouched).
#[derive(Debug)]
struct Lane {
    members: Vec<usize>,
    /// Column capacity (the member count at allocation time).
    stride: usize,
    rows: usize,
    depth: usize,
    /// Row-major `rows × stride` matrices, column = cell.
    temps: Vec<f64>,
    peaks: Vec<f64>,
    /// Cached Ψ superposition for non-identity stacks: `rows × stride`,
    /// `sup[(pos·depth + l)·stride + c] = Σ_j watts_j(c, pos)·Ψ[l][j]`.
    /// Window powers only change on plan transitions, so the split +
    /// Ψ-row dot products are hoisted out of the RC sweep and rewritten per
    /// column alongside `wamb`/`wdram`; the sweep reads
    /// `stable = ambient + sup` — the same `t += (s − t)·α` row loop the
    /// identity-split FBDIMM path runs. Empty for identity-split lanes.
    sup: Vec<f64>,
    /// Per-window scratch: each member's post-step ambient.
    amb: Vec<f64>,
    /// Per-column scratch: the stack's layer power split (used while
    /// rewriting a member's cached superposition column).
    watts: Vec<f64>,
    /// `positions × stride` buffer/DRAM window powers, column = cell.
    /// Window powers only change when a cell's plan changes, so these are
    /// rewritten per column on plan change instead of gathered per window.
    wamb: Vec<f64>,
    wdram: Vec<f64>,
    /// Whether the stack routes buffer watts to layer 0 and DRAM watts to
    /// layer 1 verbatim (the 2-layer FBDIMM case): the RC sweep then skips
    /// the per-cell power split entirely.
    identity_split: bool,
    /// Per-window scratch: each member's running hottest buffer / DRAM
    /// temperature, accumulated inside the RC row sweep.
    max_buffer: Vec<f64>,
    max_dram: Vec<f64>,
    /// Whether the lane's shared stack has a buffer die (`false` ⇒ the
    /// observation reports `NaN` for the buffer maximum).
    has_buffer: bool,
    ambient_alpha: f64,
    layer_alphas: Vec<f64>,
}

impl Lane {
    /// Copies member `j`'s temperature column into `out`.
    fn copy_temp_column(&self, j: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.rows).map(|r| self.temps[r * self.stride + j]));
    }

    /// Copies member `j`'s peak column into `out`.
    fn copy_peak_column(&self, j: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.rows).map(|r| self.peaks[r * self.stride + j]));
    }

    /// Removes member `j`, moving the last member's column into slot `j`.
    fn remove(&mut self, j: usize) {
        let last = self.members.len() - 1;
        if j != last {
            for r in 0..self.rows {
                let base = r * self.stride;
                self.temps[base + j] = self.temps[base + last];
                self.peaks[base + j] = self.peaks[base + last];
            }
            if !self.sup.is_empty() {
                for r in 0..self.rows {
                    let base = r * self.stride;
                    self.sup[base + j] = self.sup[base + last];
                }
            }
            for pos in 0..self.rows / self.depth {
                let base = pos * self.stride;
                self.wamb[base + j] = self.wamb[base + last];
                self.wdram[base + j] = self.wdram[base + last];
            }
            // Removals are deferred until every survivor's pre-step has
            // written `amb` at its original slot, so the swap must carry
            // that fresh value. The per-window maxima need no move: the
            // next RC sweep rebuilds them before anything reads them.
            self.amb[j] = self.amb[last];
        }
        self.members.swap_remove(j);
    }

    /// Rewrites member `j`'s window-power column (after a plan change),
    /// including the cached Ψ superposition on non-identity stacks.
    fn write_power_column(&mut self, j: usize, positions: &[FbdimmPowerBreakdown], topology: &StackTopology) {
        for (pos, p) in positions.iter().enumerate() {
            self.wamb[pos * self.stride + j] = p.amb_watts;
            self.wdram[pos * self.stride + j] = p.dram_watts;
            if !self.identity_split {
                topology.split_watts_into(p.amb_watts, p.dram_watts, &mut self.watts);
                for l in 0..self.depth {
                    self.sup[(pos * self.depth + l) * self.stride + j] = topology.psi_superpose(&self.watts, l);
                }
            }
        }
    }
}

/// Groups cell indices into lockstep-compatible lanes: cells share a lane
/// iff their scenes share a device stack, a step length (bitwise) and an
/// ambient time constant (bitwise).
fn lane_groups(states: &[CellState<'_>]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, st) in states.iter().enumerate() {
        let step_bits = st.step_s.to_bits();
        let tau_bits = st.scene.ambient_params().tau_cpu_dram_s.to_bits();
        let found = groups.iter_mut().find(|g| {
            let rep = &states[g[0]];
            rep.step_s.to_bits() == step_bits
                && rep.scene.ambient_params().tau_cpu_dram_s.to_bits() == tau_bits
                && rep.scene.topology() == st.scene.topology()
        });
        match found {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// Splits the largest groups column-wise until there is one group per
/// worker (or no group can be split further) so a degenerate grid — e.g. a
/// homogeneous sweep that collapses into one dominant lane — still keeps
/// every worker busy. Splitting only changes which lane hosts a cell,
/// never the cell's own operation sequence, so results stay bit-identical.
fn split_groups(groups: &mut Vec<Vec<usize>>, workers: usize, total_cells: usize) {
    while groups.len() < workers.min(total_cells) {
        let Some((idx, len)) =
            groups.iter().enumerate().filter(|(_, g)| g.len() >= 2).map(|(i, g)| (i, g.len())).max_by_key(|&(_, l)| l)
        else {
            break;
        };
        let tail = groups[idx].split_off(len / 2);
        groups.insert(idx + 1, tail);
    }
}

/// Packages each group into an independently steppable [`LaneWork`]: the
/// group's states move out of the batch-order vector, the lane is built
/// over the local order, and `globals` remembers the way back.
fn lane_works(states: Vec<CellState<'_>>, groups: Vec<Vec<usize>>) -> Vec<LaneWork<'_>> {
    let mut slots: Vec<Option<CellState<'_>>> = states.into_iter().map(Some).collect();
    groups
        .into_iter()
        .map(|globals| {
            let states: Vec<CellState<'_>> =
                globals.iter().map(|&g| slots[g].take().expect("each cell belongs to exactly one lane")).collect();
            let members: Vec<usize> = (0..states.len()).collect();
            let lane = build_lane(&states, members);
            let results = states.iter().map(|_| None).collect();
            LaneWork { globals, lane, states, results }
        })
        .collect()
}

/// Builds one lane over `members` (indices into `states`) and seeds its
/// matrices from the cells' freshly built scenes.
fn build_lane(states: &[CellState<'_>], members: Vec<usize>) -> Lane {
    let rep = &states[members[0]];
    let depth = rep.scene.depth();
    let positions = rep.scene.len();
    let rows = positions * depth;
    let stride = members.len();
    let step_s = rep.step_s;
    let tau_s = rep.scene.ambient_params().tau_cpu_dram_s;
    let mut temps = vec![0.0; rows * stride];
    let mut peaks = vec![0.0; rows * stride];
    let mut wamb = vec![0.0; positions * stride];
    let mut wdram = vec![0.0; positions * stride];
    // Seed the per-member maxima from the initial field so a
    // first-window scalar observation (before any lane sweep has
    // refreshed the accumulators) sees the same maxima a fresh
    // `observe` would.
    let topology = rep.scene.topology();
    let layers = topology.layers();
    let identity_split = topology.is_identity_split();
    let mut sup = if identity_split { Vec::new() } else { vec![0.0; rows * stride] };
    let mut watts = vec![0.0; depth];
    // One length check at lane build covers every subsequent
    // `split_watts_into` call over this scratch.
    debug_assert_eq!(watts.len(), topology.depth(), "layer power scratch must match the stack depth");
    let mut max_buffer = vec![f64::NEG_INFINITY; stride];
    let mut max_dram = vec![f64::NEG_INFINITY; stride];
    for (c, &cell) in members.iter().enumerate() {
        for (r, (&t, &p)) in
            states[cell].scene.layer_temps_flat().iter().zip(states[cell].scene.layer_peaks_flat()).enumerate()
        {
            temps[r * stride + c] = t;
            peaks[r * stride + c] = p;
            match layers[r % depth].kind {
                DeviceLayerKind::Buffer => max_buffer[c] = max_buffer[c].max(t),
                DeviceLayerKind::Dram => max_dram[c] = max_dram[c].max(t),
            }
        }
        for (pos, p) in states[cell].window.positions.iter().enumerate() {
            wamb[pos * stride + c] = p.amb_watts;
            wdram[pos * stride + c] = p.dram_watts;
            if !identity_split {
                topology.split_watts_into(p.amb_watts, p.dram_watts, &mut watts);
                for l in 0..depth {
                    sup[(pos * depth + l) * stride + c] = topology.psi_superpose(&watts, l);
                }
            }
        }
    }
    let layer_alphas: Vec<f64> =
        rep.scene.topology().layers().iter().map(|l| ThermalNode::decay_alpha(l.tau_s, step_s)).collect();
    Lane {
        stride,
        rows,
        depth,
        temps,
        peaks,
        sup,
        amb: vec![0.0; stride],
        watts,
        wamb,
        wdram,
        identity_split,
        max_buffer,
        max_dram,
        has_buffer: topology.has_buffer(),
        ambient_alpha: ThermalNode::decay_alpha(tau_s, step_s),
        layer_alphas,
        members,
    }
}

/// The per-cell pre-step for lane member `j`: loop condition (finalizing a
/// finished cell), DTM decision (+ fast-forward engagement), batch
/// progress, and the cell's ambient step (the first thing
/// [`DimmThermalScene::step`] does), in this fixed order. Returns `true` if the member stayed in the lane,
/// `false` if it departed (finalized or fast-forwarded out). The caller
/// defers the column removals to the end of the pass
/// ([`apply_departures`]), which is what makes every operation in here
/// column-disjoint (`write_power_column`, `amb[j]`, the maxima reads all
/// touch only column `j`).
fn member_pre(
    lane: &mut Lane,
    j: usize,
    globals: &[usize],
    engines: &[SimEngine<'_>],
    states: &mut [CellState<'_>],
    results: &mut [Option<(MemSpotResult, CellRunStats)>],
) -> bool {
    let cell = lane.members[j];
    let engine = &engines[globals[cell]];
    let cfg = engine.config;
    let st = &mut states[cell];
    {
        if st.batch.is_complete() || st.time_s >= cfg.max_sim_time_s {
            lane.copy_temp_column(j, &mut st.col_scratch);
            st.scene.set_layer_temps(&st.col_scratch);
            lane.copy_peak_column(j, &mut st.col_scratch);
            st.scene.set_layer_peaks(&st.col_scratch);
            results[cell] = Some(finalize(st, engine));
            return false;
        }
        st.overhead_s = 0.0;
        if st.time_s + 1e-12 >= st.next_dtm_s {
            st.env_backoff = st.env_backoff.saturating_sub(1);
            // An envelope burst armed by the previous decision engages
            // here, before this decision; a refused band backs the
            // triggers off.
            if let Some(trigger) = st.env_pending.take() {
                let bt = std::time::Instant::now();
                let band = match trigger {
                    EnvTrigger::Slipping(period) => env_band_slipping(lane, j, st, period),
                    EnvTrigger::Frozen => env_band_frozen(lane, j, st),
                };
                st.stats.verify_ns += bt.elapsed().as_nanos() as u64;
                match band {
                    Some(band) => {
                        return match envelope_burst(lane, j, st, engine, band) {
                            Some(result) => {
                                results[cell] = Some(result);
                                false
                            }
                            // A band violation already ran this window's
                            // pre-step inside the burst.
                            None => true,
                        };
                    }
                    None => env_back_off(st),
                }
            }
            if st.wants_field {
                st.scene.observe_lane_into(&lane.temps, lane.stride, j, &mut st.observation);
            } else {
                // Scalar policies read only the device maxima and the
                // ambient; the maxima are exactly the lane sweep's running
                // accumulators for this member (`f64::max` over the same
                // node set), so the full per-position field synthesis is
                // skipped. Spatial fields of the observation go stale and
                // must not be read (`DecisionRule::reads_field`).
                st.observation.max_amb_c = if lane.has_buffer { lane.max_buffer[j] } else { f64::NAN };
                st.observation.max_dram_c = lane.max_dram[j];
                st.observation.ambient_c = st.scene.ambient_c();
            }
            let new_plan = decide_checked(st.policy.as_mut(), &st.observation, cfg.dtm_interval_s);
            let plan_changed = new_plan != st.plan;
            if plan_changed {
                st.plan_streak = 0;
                st.overhead_s = cfg.dtm_overhead_s;
                if new_plan.mode != st.mode {
                    st.mode = new_plan.mode;
                    st.mode_key = ModeKey::from_mode(&st.mode);
                    st.point = st.table.point(&st.mode);
                    st.progressing = st.mode.makes_progress() && st.point.instr_rate_total > 0.0;
                }
                st.plan = new_plan;
                if st.plan.is_scalar() {
                    st.plan_stats = PlanTrafficStats::identity();
                    st.window = engine.window_power(
                        &st.scene,
                        &st.idle,
                        &st.point,
                        &st.point.dimm_traffic,
                        &st.mode,
                        st.progressing,
                    );
                } else {
                    st.plan_stats = st.plan.apply_traffic_into(
                        &st.point.dimm_traffic,
                        engine.mem.logical_channels,
                        engine.mem.dimms_per_channel,
                        &mut st.plan_traffic,
                    );
                    st.window =
                        engine.window_power(&st.scene, &st.idle, &st.point, &st.plan_traffic, &st.mode, st.progressing);
                }
                lane.write_power_column(j, &st.window.positions, st.scene.topology());
            } else {
                st.plan_streak = st.plan_streak.saturating_add(1);
                // Frozen-approach envelope trigger: the plan has held long
                // enough that the temperatures are sliding toward (or sit
                // at) its fixed point. Arm the envelope burst for the next
                // decision.
                if st.env_enabled && st.env_backoff == 0 && st.plan_streak >= ENV_FROZEN_STREAK {
                    st.env_pending = Some(EnvTrigger::Frozen);
                }
            }
            if st.env_enabled {
                // The tracker's cost is sampled 1-in-64 and extrapolated: a
                // per-window clock read would cost more than the tracking.
                if st.stats.stepped_windows.is_multiple_of(64) {
                    let dt0 = std::time::Instant::now();
                    cycle_track(lane, j, st, plan_changed);
                    st.stats.detector_ns += 64 * dt0.elapsed().as_nanos() as u64;
                } else {
                    cycle_track(lane, j, st, plan_changed);
                }
            }
            st.next_dtm_s += cfg.dtm_interval_s;
        }
        let effective_s = (st.step_s - st.overhead_s).max(0.0);
        if st.progressing {
            let instr = st.point.instr_rate_total * st.plan_stats.service_scale * effective_s;
            st.total_instructions += instr;
            st.total_bytes += st.point.total_gbps() * st.plan_stats.service_scale * 1e9 * effective_s;
            st.total_misses += st.point.l2_misses_per_instr * instr;
            st.migrated_bytes += st.plan_stats.migrated_gbps * 1e9 * effective_s;
            for core in 0..engine.cpu.cores {
                let share = st.full_shares.get(core).copied().unwrap_or(0.0);
                if share > 0.0 {
                    st.batch.retire(core, (instr * share) as u64);
                }
            }
        }
        lane.amb[j] = st.scene.step_ambient(st.window.v_ipc, lane.ambient_alpha);
    }
    true
}

/// The per-cell post-step bookkeeping for lane member `j`: the tail of the
/// window (energy, maxima, residency, throttle accounting, trace, clock).
fn member_post(lane: &Lane, j: usize, globals: &[usize], engines: &[SimEngine<'_>], states: &mut [CellState<'_>]) {
    let cell = lane.members[j];
    let cfg = engines[globals[cell]].config;
    let st = &mut states[cell];
    st.energy.add(st.window.mem_w, st.window.cpu_w, st.step_s);
    let amb_now = if lane.has_buffer { lane.max_buffer[j] } else { f64::NAN };
    let dram_now = lane.max_dram[j];
    st.max_amb = st.max_amb.max(amb_now);
    st.max_dram = st.max_dram.max(dram_now);
    st.ambient_sum += st.scene.ambient_c();
    st.ambient_samples += 1;
    *st.residency.entry(st.mode_key).or_insert(0.0) += st.step_s;
    for (channel, throttled_s) in st.channel_throttle_s.iter_mut().enumerate() {
        if st.plan.throttles_channel(channel) {
            *throttled_s += st.step_s;
        }
    }
    if cfg.record_temp_trace && st.time_s + 1e-12 >= st.next_trace_s {
        st.trace.push(TempSample {
            time_s: st.time_s,
            amb_c: amb_now,
            dram_c: dram_now,
            ambient_c: st.scene.ambient_c(),
            active_cores: st.mode.active_cores,
            freq_ghz: st.mode.op.freq_ghz,
        });
        st.next_trace_s += cfg.temp_trace_interval_s;
    }
    st.time_s += st.step_s;
    st.stats.stepped_windows += 1;
}

/// Apply the slots [`member_pre`] flagged as departed. Removals run in
/// **descending** slot order: [`Lane::remove`] swap-fills the hole with the
/// current last column, and with the highest slot removed first the fill
/// column is never itself a pending departure and never a slot the pass
/// still has to visit — so deferring removals moves no arithmetic.
fn apply_departures(lane: &mut Lane, departed: &mut Vec<usize>) {
    while let Some(j) = departed.pop() {
        lane.remove(j);
    }
}

/// The pre-step pass over a whole lane (the first window's phase A): every
/// member's pre-step, then the deferred removals.
fn lane_pre(
    lane: &mut Lane,
    globals: &[usize],
    engines: &[SimEngine<'_>],
    states: &mut [CellState<'_>],
    results: &mut [Option<(MemSpotResult, CellRunStats)>],
) {
    let mut departed = Vec::new();
    for j in 0..lane.members.len() {
        if !member_pre(lane, j, globals, engines, states, results) {
            departed.push(j);
        }
    }
    apply_departures(lane, &mut departed);
}

/// Each member's post-step bookkeeping for the window just stepped and its
/// pre-step for the next window, phase-separated: all post-steps, then all
/// pre-steps collecting departures, then the deferred removals. Every phase
/// is a loop of column-disjoint member operations with no intervening
/// column swaps, which is what lets [`BatchedSimEngine::run_with_workers`]'s
/// column chunks of a split lane run their decision passes concurrently.
/// Each cell's own operation order is fixed (cell `i`'s window-`k` tail
/// always precedes its window-`k+1` head; cells are mutually independent,
/// so their interleaving is free to differ).
fn lane_post_pre(
    lane: &mut Lane,
    globals: &[usize],
    engines: &[SimEngine<'_>],
    states: &mut [CellState<'_>],
    results: &mut [Option<(MemSpotResult, CellRunStats)>],
) {
    for j in 0..lane.members.len() {
        member_post(lane, j, globals, engines, states);
    }
    lane_pre(lane, globals, engines, states, results);
}

/// The fused RC update over a whole lane — position-major contiguous
/// sweeps over all cells at once (the vectorized hot loop this tier exists
/// for). On identity-split stacks the per-element stable temperature is
/// computed inline as `ambient + w_buffer·ψ_l0 + w_dram·ψ_l1`, the exact
/// float-op sequence of `DimmThermalScene::step`, so the bits match a scene
/// stepped on its own; other stacks read `ambient + sup` from the cached
/// superposition matrix ([`Lane::sup`], rewritten only on plan changes) —
/// the same float-op sequence as the reordered non-identity branch of
/// `DimmThermalScene::step`, and the same `t += (s − t)·α` row sweep as the
/// FBDIMM fast path. The sweep also accumulates each cell's
/// per-device-kind running maximum of the freshly stepped temperatures —
/// `f64::max` over a fixed set is order-independent, so the per-cell
/// values carry bits identical to a post-step scene fold.
///
/// A lane of one member (a `MemSpot::run`, or the last cell left in a
/// lane) walks its column instead ([`column_rc`]): the same operations on
/// the same elements in the same order, without the per-row slicing and
/// vector-loop set-up that only pay off across several cells. On the
/// 16-row FBDIMM scene, the row sweep cost about 2.5× the column walk per
/// cell-window at one member, and the column walk about 2.5× the row sweep
/// at forty.
fn lane_rc(lane: &mut Lane, states: &[CellState<'_>]) {
    let n = lane.members.len();
    if n == 0 {
        return;
    }
    let topology = states[lane.members[0]].scene.topology();
    if n == 1 {
        column_rc(lane, topology);
        return;
    }
    let Lane {
        stride,
        depth,
        temps,
        peaks,
        sup,
        amb,
        wamb,
        wdram,
        identity_split,
        layer_alphas,
        max_buffer,
        max_dram,
        ..
    } = lane;
    let (stride, depth) = (*stride, *depth);
    let layers = topology.layers();
    let amb = &amb[..n];
    max_buffer[..n].fill(f64::NEG_INFINITY);
    max_dram[..n].fill(f64::NEG_INFINITY);
    for pos in 0..temps.len() / (depth * stride) {
        let wa = &wamb[pos * stride..pos * stride + n];
        let wd = &wdram[pos * stride..pos * stride + n];
        for l in 0..depth {
            let alpha = layer_alphas[l];
            let row = (pos * depth + l) * stride;
            let t_row = &mut temps[row..row + n];
            let p_row = &mut peaks[row..row + n];
            let m_row = match layers[l].kind {
                DeviceLayerKind::Buffer => &mut max_buffer[..n],
                DeviceLayerKind::Dram => &mut max_dram[..n],
            };
            if *identity_split {
                let psi = topology.psi_row(l);
                let (psi_b, psi_d) = (psi[0], psi[1]);
                for i in 0..n {
                    let s = amb[i] + wa[i] * psi_b + wd[i] * psi_d;
                    let t = &mut t_row[i];
                    *t += (s - *t) * alpha;
                    p_row[i] = p_row[i].max(*t);
                    m_row[i] = m_row[i].max(*t);
                }
            } else {
                let s_row = &sup[row..row + n];
                for i in 0..n {
                    let s = amb[i] + s_row[i];
                    let t = &mut t_row[i];
                    *t += (s - *t) * alpha;
                    p_row[i] = p_row[i].max(*t);
                    m_row[i] = m_row[i].max(*t);
                }
            }
        }
    }
}

/// [`lane_rc`] for a lane's only member, column 0: the row sweep's
/// per-element operations, row by row in the same order, with the member's
/// ambient and running maxima held in registers.
fn column_rc(lane: &mut Lane, topology: &StackTopology) {
    let Lane {
        stride,
        depth,
        temps,
        peaks,
        sup,
        amb,
        wamb,
        wdram,
        identity_split,
        layer_alphas,
        max_buffer,
        max_dram,
        ..
    } = lane;
    let (stride, depth) = (*stride, *depth);
    let layers = topology.layers();
    let ambient = amb[0];
    let (mut max_b, mut max_d) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for pos in 0..temps.len() / (depth * stride) {
        let (w_a, w_d) = (wamb[pos * stride], wdram[pos * stride]);
        for (l, (layer, &alpha)) in layers.iter().zip(layer_alphas.iter()).enumerate() {
            let k = (pos * depth + l) * stride;
            let s = if *identity_split {
                let psi = topology.psi_row(l);
                ambient + w_a * psi[0] + w_d * psi[1]
            } else {
                ambient + sup[k]
            };
            let t = &mut temps[k];
            *t += (s - *t) * alpha;
            peaks[k] = peaks[k].max(*t);
            match layer.kind {
                DeviceLayerKind::Buffer => max_b = max_b.max(*t),
                DeviceLayerKind::Dram => max_d = max_d.max(*t),
            }
        }
    }
    max_buffer[0] = max_b;
    max_dram[0] = max_d;
}

/// One literal decision. Debug builds check the policy's decision rule
/// against it: the rule taken before `decide` must predict the returned
/// plan and, for a latch, the state the decision leaves. Every certificate
/// the analytic tiers use comes from that rule, so every batched test run
/// in debug checks the contract behind them.
#[inline]
fn decide_checked(policy: &mut dyn DtmPolicy, observation: &ThermalObservation, dt_s: f64) -> ActuationPlan {
    #[cfg(debug_assertions)]
    let predicted = policy.decision_rule().next(observation.max_amb_c, observation.max_dram_c);
    let plan = policy.decide(observation, dt_s);
    #[cfg(debug_assertions)]
    if let Some(step) = predicted {
        let (amb, dram) = (observation.max_amb_c, observation.max_dram_c);
        assert_eq!(plan, step.plan, "{}: decision rule mispredicts the plan at ({amb}, {dram})", policy.name());
        assert_eq!(
            policy.decision_rule().latched(),
            step.latched,
            "{}: decision rule mispredicts the latch at ({amb}, {dram})",
            policy.name()
        );
    }
    plan
}

/// Re-primes the policy after an analytic segment skipped its decisions:
/// replays the maxima of the segment's last two skipped decisions, oldest
/// first (one if it skipped one), through `decide`. A memory-one PID
/// controller remembers nothing older (its previous error and last output
/// come from these two samples, its integral is 0 or frozen), so this
/// leaves it exactly as literal stepping would; for ladders and the DTM-TS
/// latch, whose certificates hold the state still, the calls are no-ops.
/// The last replayed maxima stay in `st.observation`, where the next keyed
/// decision reads them as the previous maxima. Returns the last plan.
fn reprime(st: &mut CellState<'_>, skipped: &[(f64, f64)], dt_s: f64) -> Option<ActuationPlan> {
    let mut plan = None;
    for &(amb, dram) in skipped {
        st.observation.max_amb_c = amb;
        st.observation.max_dram_c = dram;
        plan = Some(decide_checked(st.policy.as_mut(), &st.observation, dt_s));
    }
    plan
}

/// What the orbit tracker remembers about one DTM decision.
#[derive(Debug)]
struct DecisionSnap {
    plan: ActuationPlan,
    /// The cell's lane temperature column at decision time (pre-window).
    temps: Vec<f64>,
    /// The scene ambient at decision time. Candidates demand its recurrence
    /// within [`AMBIENT_FF_EPS_C`], so a slowly drifting orbit — whose
    /// layer temperatures recur within [`ORBIT_EPS_C`] over any short
    /// lag — never arms the burst.
    ambient: f64,
}

/// Why the envelope burst is armed for the next DTM decision. Both triggers
/// fire mid-decision, where a burst cannot start cleanly, so the burst
/// engages at the head of the next one.
#[derive(Debug, Clone, Copy)]
enum EnvTrigger {
    /// The orbit tracker found a period-`k` plan recurrence whose ambient
    /// and temperatures recur ([`cycle_track`]).
    Slipping(usize),
    /// The plan has been frozen for [`ENV_FROZEN_STREAK`] decisions.
    Frozen,
}

/// Pushes one decision snapshot and, when the recent history shows a
/// period-`k` plan sequence whose ambient recurs within
/// [`AMBIENT_FF_EPS_C`] and whose temperatures recur within
/// [`ORBIT_EPS_C`], arms the envelope burst for the next decision. Runs at
/// every DTM decision of an envelope-eligible cell (after the decision,
/// before the window steps).
// The negated comparison is load-bearing: `!(x <= eps)` refuses on NaN
// where `x > eps` would accept it.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn cycle_track(lane: &Lane, j: usize, st: &mut CellState<'_>, changed: bool) {
    let streak = st.plan_streak as usize;
    let history = &mut st.orbit_history;
    // A plan frozen for the full history depth cannot take part in any
    // detectable cycle (a candidate must change the plan inside its two
    // repetitions), so tracking pauses for settled cells — dropping the
    // stale history keeps snapshot lags contiguous — until the plan next
    // changes. Without this gate the scan below is the batched tier's
    // dominant per-window cost on frozen-plan cells.
    if !changed && streak >= 2 * MAX_CYCLE_DECISIONS {
        history.clear();
        return;
    }
    // A backoff disarms the scan. Early in the backoff the tracker idles
    // without snapshotting (the history is stale and dropped); snapshotting
    // resumes for the final `2·MAX + 1` decisions so a full history is
    // ready the moment the scan re-arms.
    if st.env_backoff as usize > 2 * MAX_CYCLE_DECISIONS {
        history.clear();
        return;
    }
    // Recycle the oldest snapshot's allocation once the history is full.
    let mut temps = if history.len() > 2 * MAX_CYCLE_DECISIONS {
        let mut old = history.pop_front().expect("history is non-empty");
        old.temps.clear();
        old.temps
    } else {
        Vec::with_capacity(lane.rows)
    };
    temps.extend((0..lane.rows).map(|r| lane.temps[r * lane.stride + j]));
    history.push_back(DecisionSnap { plan: st.plan.clone(), temps, ambient: st.scene.ambient_c() });
    if st.env_backoff > 0 {
        return;
    }
    let h = &st.orbit_history;
    let n = h.len();
    for k in 2..=MAX_CYCLE_DECISIONS {
        if n < 2 * k {
            break;
        }
        // The last 2k decisions must repeat with period k, actually change
        // the plan at least once (a frozen plan is the frozen-approach
        // trigger's domain), and land on recurring temperatures. The
        // change requirement is the O(1) `plan_streak` test — the last
        // change must fall inside the candidate's two repetitions — and
        // filters before any plan is compared.
        if streak >= 2 * k {
            continue;
        }
        // Ambient recurrence comes next — one subtract rules most lags out
        // (and refuses on NaN) before any plan or temperature vector is
        // compared.
        if !((h[n - 1].ambient - h[n - 1 - k].ambient).abs() <= AMBIENT_FF_EPS_C) {
            continue;
        }
        if !(0..k).all(|i| h[n - 1 - i].plan == h[n - 1 - i - k].plan) {
            continue;
        }
        let now = &h[n - 1].temps;
        let then = &h[n - 1 - k].temps;
        if !now.iter().zip(then).all(|(a, b)| (a - b).abs() <= ORBIT_EPS_C) {
            continue;
        }
        st.env_pending = Some(EnvTrigger::Slipping(k));
        return;
    }
}

/// Backs the envelope triggers off after a refused or fallen-back
/// engagement. Each failure doubles the wait (capped by
/// [`ENV_BACKOFF_DOUBLINGS`]): quasiperiodic orbits pinned at a threshold
/// recur in ambient and plans at every lag and re-arm the trigger forever,
/// and only the doubling keeps a hopeless cell's engagement cost amortized
/// to nothing over a long run.
fn env_back_off(st: &mut CellState<'_>) {
    st.env_backoff = ENV_RETRY_BACKOFF << st.env_fails.min(ENV_BACKOFF_DOUBLINGS);
    st.env_fails = st.env_fails.saturating_add(1);
}

/// A proven per-row temperature confinement band for the envelope replay,
/// plus how to convert replayed windows into pseudo-cycles for
/// [`CellRunStats::envelope_cycles`].
#[derive(Debug)]
struct EnvBand {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// The orbit period the tracker detected at engagement
    /// ([`EnvTrigger::Slipping`]); `None` for frozen-approach engagements.
    period: Option<u64>,
}

impl EnvBand {
    /// Pseudo-cycles of a burst that made `jumps` closed-form jumps and
    /// replayed `windows` windows: the jumps plus, for slipping orbits, the
    /// replayed windows divided by the orbit's period.
    fn pseudo_cycles(&self, jumps: u64, windows: u64) -> u64 {
        jumps + self.period.map_or(0, |k| windows / k)
    }
}

/// Everything the envelope burst needs per distinct actuation plan, cached
/// once so the per-window replay never re-derives characterization points,
/// window powers or accounting rates on a plan flip — the dominant
/// per-window cost of a slipping orbit stepped literally.
#[derive(Debug)]
struct EnvPlanEntry {
    plan: ActuationPlan,
    mode: RunningMode,
    mode_key: ModeKey,
    point: Arc<CharPoint>,
    progressing: bool,
    window: WindowPower,
    plan_stats: PlanTrafficStats,
    /// Per-row stable-temperature terms: the RC stable of row `r` is
    /// `ambient + stab_a[r]` (plus `stab_b[r]` on identity-split stacks),
    /// evaluated in exactly [`lane_rc`]'s float-op order so the private
    /// sweep carries the lane's bits.
    stab_a: Vec<f64>,
    stab_b: Vec<f64>,
    /// Per-window accounted amounts at the full step and at the overheaded
    /// (plan-change) step — the literal expressions evaluated once.
    instr: f64,
    bytes: f64,
    misses: f64,
    migrated: f64,
    instr_oh: f64,
    bytes_oh: f64,
    misses_oh: f64,
    migrated_oh: f64,
    retires: Vec<u64>,
    retires_oh: Vec<u64>,
    throttled: Vec<bool>,
    /// Residency seconds accumulated while this entry's plan was active,
    /// flushed into the cell's residency map when the burst exits (one
    /// reassociation per entry instead of one map probe per window).
    residency_s: f64,
}

/// Builds the cached per-plan entry through the very code path
/// [`member_pre`] runs on a plan change, so every cached value carries the
/// bits the literal window loop would have computed. (The scene is only
/// consulted for geometry by [`SimEngine::window_power`], never for
/// temperatures, so the burst's stale scene temperatures cannot leak in.)
fn env_build_entry(st: &mut CellState<'_>, engine: &SimEngine<'_>, plan: ActuationPlan, depth: usize) -> EnvPlanEntry {
    let cfg = engine.config;
    let cores = engine.cpu.cores;
    let mode = plan.mode;
    let mode_key = ModeKey::from_mode(&mode);
    let point = st.table.point(&mode);
    let progressing = mode.makes_progress() && point.instr_rate_total > 0.0;
    let (plan_stats, window) = if plan.is_scalar() {
        (
            PlanTrafficStats::identity(),
            engine.window_power(&st.scene, &st.idle, &point, &point.dimm_traffic, &mode, progressing),
        )
    } else {
        let stats = plan.apply_traffic_into(
            &point.dimm_traffic,
            engine.mem.logical_channels,
            engine.mem.dimms_per_channel,
            &mut st.plan_traffic,
        );
        (stats, engine.window_power(&st.scene, &st.idle, &point, &st.plan_traffic, &mode, progressing))
    };
    let topology = st.scene.topology();
    let rows = window.positions.len() * depth;
    let mut stab_a = vec![0.0; rows];
    let mut stab_b = vec![0.0; rows];
    if topology.is_identity_split() {
        for (pos, p) in window.positions.iter().enumerate() {
            for l in 0..depth {
                let psi = topology.psi_row(l);
                stab_a[pos * depth + l] = p.amb_watts * psi[0];
                stab_b[pos * depth + l] = p.dram_watts * psi[1];
            }
        }
    } else {
        let mut watts = vec![0.0; depth];
        for (pos, p) in window.positions.iter().enumerate() {
            topology.split_watts_into(p.amb_watts, p.dram_watts, &mut watts);
            for l in 0..depth {
                stab_a[pos * depth + l] = topology.psi_superpose(&watts, l);
            }
        }
    }
    let mut amounts = [(0.0, 0.0, 0.0, 0.0, vec![0u64; cores]), (0.0, 0.0, 0.0, 0.0, vec![0u64; cores])];
    if progressing {
        for (slot, overhead) in amounts.iter_mut().zip([0.0, cfg.dtm_overhead_s]) {
            let effective_s = (st.step_s - overhead).max(0.0);
            let instr = point.instr_rate_total * plan_stats.service_scale * effective_s;
            slot.0 = instr;
            slot.1 = point.total_gbps() * plan_stats.service_scale * 1e9 * effective_s;
            slot.2 = point.l2_misses_per_instr * instr;
            slot.3 = plan_stats.migrated_gbps * 1e9 * effective_s;
            for (core, amount) in slot.4.iter_mut().enumerate() {
                let share = st.full_shares.get(core).copied().unwrap_or(0.0);
                if share > 0.0 {
                    *amount = (instr * share) as u64;
                }
            }
        }
    }
    let [(instr, bytes, misses, migrated, retires), (instr_oh, bytes_oh, misses_oh, migrated_oh, retires_oh)] = amounts;
    let throttled = (0..st.channel_throttle_s.len()).map(|ch| plan.throttles_channel(ch)).collect();
    EnvPlanEntry {
        plan,
        mode,
        mode_key,
        point,
        progressing,
        window,
        plan_stats,
        stab_a,
        stab_b,
        instr,
        bytes,
        misses,
        migrated,
        instr_oh,
        bytes_oh,
        misses_oh,
        migrated_oh,
        retires,
        retires_oh,
        throttled,
        residency_s: 0.0,
    }
}

/// Slipping-orbit band: the orbit tracker's decision history (plus the
/// cell's current temperatures) spans the orbit, and the band — inflated by
/// half a span per side to absorb the slow slip — becomes the burst's audit
/// certificate. Width is not gated: a burst decides every window literally
/// or replays keyed decisions ([`DecisionRule::key`]) exactly, and
/// certifies every frozen jump over its own traced range, so the band is
/// only an audit backstop, never a bound on the replay error. Refuses a
/// non-finite span.
fn env_band_slipping(lane: &Lane, j: usize, st: &CellState<'_>, period: usize) -> Option<EnvBand> {
    if !lane.layer_alphas.iter().all(|&a| a > 0.0 && a <= 1.0) {
        return None;
    }
    let rows = lane.rows;
    let h = &st.orbit_history;
    // At least two orbit periods of snapshots, so the band has seen every
    // phase of the orbit at least twice.
    if period < 2 || h.len() < 2 * period {
        return None;
    }
    let mut lo = vec![f64::INFINITY; rows];
    let mut hi = vec![f64::NEG_INFINITY; rows];
    for snap in h.iter() {
        for (r, &t) in snap.temps.iter().enumerate() {
            lo[r] = lo[r].min(t);
            hi[r] = hi[r].max(t);
        }
    }
    for (r, (lo, hi)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
        let t = lane.temps[r * lane.stride + j];
        *lo = lo.min(t);
        *hi = hi.max(t);
        if !(*hi - *lo).is_finite() {
            return None;
        }
        let margin = 0.5 * (*hi - *lo) + 1e-6;
        *lo -= margin;
        *hi += margin;
    }
    Some(EnvBand { lo, hi, period: Some(period as u64) })
}

/// Frozen-approach band: under a long-frozen plan each row slides
/// monotonically from its current temperature toward its RC fixed point, so
/// the directed interval between the two (plus a small margin for plan
/// flips near the end) confines the whole approach. Width is deliberately
/// *not* gated by the tolerance — every segment jump carries its own
/// [`DecisionRule::region`] certificate over the exact traversed
/// range, and the audit catches real escapes.
fn env_band_frozen(lane: &Lane, j: usize, st: &mut CellState<'_>) -> Option<EnvBand> {
    if !lane.layer_alphas.iter().all(|&a| a > 0.0 && a <= 1.0) {
        return None;
    }
    st.scene.fixed_point_into(&st.window.positions, st.window.v_ipc, &mut st.fp);
    let rows = lane.rows;
    let mut lo = vec![0.0; rows];
    let mut hi = vec![0.0; rows];
    for (r, (lo, hi)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
        let t = lane.temps[r * lane.stride + j];
        let f = st.fp[r];
        if !(t.is_finite() && f.is_finite()) {
            return None;
        }
        let (a, b) = if t <= f { (t, f) } else { (f, t) };
        let margin = 0.05 * (b - a) + 1e-6;
        *lo = a - margin;
        *hi = b + margin;
    }
    Some(EnvBand { lo, hi, period: None })
}

/// Exact range of the discrete two-exponential row response
/// `f(k) = a·λ^k + b·λ_a^k` over `k ∈ {0, …, n}` — a row relaxing toward
/// its stable while the shared ambient relaxes toward its own. Returns
/// `(f(n), min, max)`. The caller passes the logarithms `ln_l = ln λ` and
/// `ln_a = ln λ_a` and the endpoint powers `pow_l = exp(n·ln_l)` and
/// `pow_a = exp(n·ln_a)`, which depend only on the layer and the horizon,
/// so a horizon costs two `exp` per layer instead of two `ln` and two
/// `exp` per row. The response has at most one interior stationary point,
/// so the discrete extremes sit at the endpoints or at the two integers
/// bracketing it; `f(0)` is `a + b` directly (never through `0 · ln λ`),
/// so a fully-relaxed row cannot produce NaN.
pub(super) fn env_row_range(a: f64, b: f64, ln_l: f64, ln_a: f64, pow_l: f64, pow_a: f64, nf: f64) -> (f64, f64, f64) {
    let f0 = a + b;
    let fe = if nf <= 0.0 { f0 } else { a * pow_l + b * pow_a };
    let (mut lo, mut hi) = if f0 <= fe { (f0, fe) } else { (fe, f0) };
    // `ln λ > −∞` is `λ > 0` (and refuses NaN the same way).
    if a != 0.0 && b != 0.0 && (a > 0.0) != (b > 0.0) && ln_l > f64::NEG_INFINITY && ln_a > f64::NEG_INFINITY {
        let ratio = -(b * ln_a) / (a * ln_l);
        if ratio > 0.0 {
            let kstar = ratio.ln() / (ln_l - ln_a);
            if kstar > 0.0 && kstar < nf {
                for k in [kstar.floor().max(1.0), kstar.ceil().min(nf)] {
                    let v = a * (k * ln_l).exp() + b * (k * ln_a).exp();
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
    }
    (fe, lo, hi)
}

/// Flushes the burst's accumulators, syncs the scene and finalizes the
/// departed cell.
#[allow(clippy::too_many_arguments)]
fn env_finish(
    st: &mut CellState<'_>,
    engine: &SimEngine<'_>,
    entries: &[EnvPlanEntry],
    rows_t: &[f64],
    peaks: &[f64],
    env_windows: u64,
    pseudo_cycles: u64,
    started: std::time::Instant,
) -> (MemSpotResult, CellRunStats) {
    st.scene.set_layer_temps(rows_t);
    st.scene.set_layer_peaks(peaks);
    for e in entries {
        if e.residency_s > 0.0 {
            *st.residency.entry(e.mode_key).or_insert(0.0) += e.residency_s;
        }
    }
    st.stats.fast_forwarded_windows += env_windows;
    st.stats.envelope_cycles += pseudo_cycles;
    st.stats.replay_ns += started.elapsed().as_nanos() as u64;
    finalize(st, engine)
}

/// The envelope replay burst: takes a cell whose trajectory is confined to
/// `band` out of the lane's lockstep and replays its windows privately —
/// literal decisions, bit-exact RC, literal per-window accounting — with
/// two analytic exits: closed-form segment jumps over frozen-plan spans,
/// and exact decision replay over chattering spans whose plans never hold
/// still. Every window's sweep is audited against the band; a violation
/// hands the cell back to the lane (`None`), with the lane column, plan
/// state and detector bookkeeping restored so literal stepping continues
/// seamlessly. `Some(result)` means the cell ran to completion inside the
/// burst.
///
/// Relative to literal stepping the burst skips only: the orbit tracker,
/// plan-flip window-power rebuilds (cached per plan entry), per-window
/// residency map probes (per-entry accumulator, flushed on exit) and — for
/// licensed jumps — the skipped windows' decisions, ambient steps and RC
/// sweeps. Frozen-jump licensing ([`DecisionRule::region`] naming the
/// frozen plan over the exact traversed temperature rectangle — each row's
/// two-exponential response to the frozen plan and the relaxing ambient,
/// extremes included — plus a completion-safe retire cap) and the decision
/// replay's certificates (bitwise-literal binding- and literal-row
/// recurrences, per-entry forcing-gap dominance, plan-run-length occupancy
/// accounting) pin every reported quantity within the envelope tier's 1e-9
/// relative claim;
/// window counts, simulated time and job completion windows stay exact
/// (literal repeated additions and exact integer retires throughout). An already-settled ambient (within
/// [`AMBIENT_FF_EPS_C`]) degenerates to the frozen single-exponential
/// form.
// Negated comparisons refuse on NaN throughout.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn envelope_burst(
    lane: &mut Lane,
    j: usize,
    st: &mut CellState<'_>,
    engine: &SimEngine<'_>,
    band: EnvBand,
) -> Option<(MemSpotResult, CellRunStats)> {
    let started = std::time::Instant::now();
    let cfg = engine.config;
    let cores = engine.cpu.cores;
    let step = st.step_s;
    let dt = cfg.dtm_interval_s;
    let max = cfg.max_sim_time_s;
    let rows = lane.rows;
    let depth = lane.depth;
    let identity_split = lane.identity_split;
    let ambient_alpha = lane.ambient_alpha;
    let has_buffer = lane.has_buffer;
    let kinds: Vec<DeviceLayerKind> = st.scene.topology().layers().iter().map(|l| l.kind).collect();
    // `ln λ` per layer and of the ambient for [`env_row_range`]: constant
    // for the whole burst.
    let ln_l: Vec<f64> = lane.layer_alphas.iter().map(|&al| (1.0 - al).ln()).collect();
    let ln_a = (1.0 - ambient_alpha).ln();
    let shares_pos: Vec<bool> = (0..cores).map(|c| st.full_shares.get(c).copied().unwrap_or(0.0) > 0.0).collect();

    // Private column state (written back on fallback, synced on finalize).
    let mut rows_t: Vec<f64> = (0..rows).map(|r| lane.temps[r * lane.stride + j]).collect();
    let mut peaks: Vec<f64> = (0..rows).map(|r| lane.peaks[r * lane.stride + j]).collect();
    let mut cur_max_buf = lane.max_buffer[j];
    let mut cur_max_dram = lane.max_dram[j];

    let first = env_build_entry(st, engine, st.plan.clone(), depth);
    let mut entries: Vec<EnvPlanEntry> = vec![first];
    let mut cur: usize = 0;

    // Per-row closed-form coefficients of the licensed segment jump
    // (stable, λ_r-coefficient, λ_a-coefficient), filled by the licensing
    // pass and consumed by the apply pass.
    let mut jump_s: Vec<f64> = vec![0.0; rows];
    let mut jump_a: Vec<f64> = vec![0.0; rows];
    let mut jump_k: Vec<f64> = vec![0.0; rows];

    let mut env_windows: u64 = 0;
    let mut jumps: u64 = 0;
    let mut violation = false;
    // In-burst frozen-plan run length and the next run length at which a
    // segment jump is probed (doubles on a refused probe so hopeless cells
    // never pay the license check per window; resets on plan change).
    let mut run: u64 = 0;
    let mut next_attempt: u64 = ENV_JUMP_MIN;
    // Run length at which a fresh frozen run arms its first probe. Starts
    // at [`ENV_JUMP_MIN`]; drops to 2 once a probe comes back
    // certificate-limited — the signature of sliding-mode chatter, where
    // every run ends at the same decision boundary and waiting
    // [`ENV_JUMP_MIN`] literal windows per half-cycle forfeits most of it.
    let mut arm: u64 = ENV_JUMP_MIN;

    // Exact decision replay: sliding-mode chatter defeats the frozen-run
    // probe above (`run` resets on every plan flip, and an orbit whose
    // duty ratio slips never repeats an exact plan period), so when a
    // probe threshold arrives with the frozen run still short, the burst
    // replays decisions *exactly* instead of certifying them away: a
    // policy whose decisions are keyed by the device maxima
    // ([`DecisionRule::key`]) is re-evaluated per virtual window
    // from bitwise-literal binding-row, literal-row and ambient
    // recurrences, while every dominated row is reconstructed at segment
    // close from the plan-occupancy weights. `chatter_next` schedules the
    // attempts (in burst windows).
    // Unkeyed policies (the latched DTM-TS relay) never replay: their
    // bursts advance by literal windows and certified frozen jumps only.
    let keyed = st.policy.decision_rule().keys();
    let integrates = st.policy.decision_rule().integrates();
    let mut chatter_next: u64 = if keyed { 2 * ENV_JUMP_MIN } else { u64::MAX };
    // Dominance-certificate reuse across consecutive replay segments: the
    // forcing-gap half of the audit (per row, against the binding rows it
    // was derived for) depends only on the cached plan entries, not on the
    // segment's start state, so consecutive segments re-use it and re-check
    // only the O(rows) start-state gaps. `(entry_count, b_buf, b_dram)`
    // keys the cache; per row it stores (same-layer forcing gap holds,
    // forcings bitwise-equal to binding, max forcing over entries).
    let mut replay_audit_key = (usize::MAX, (usize::MAX, usize::MAX));
    let mut replay_audit: Vec<(bool, bool, f64)> = Vec::new();
    // The per-layer and ambient λ-power ladders of the replay close, built
    // at the burst's first replay segment (they depend only on the lane).
    let mut powers: Option<replay::Powers> = None;

    loop {
        // B: the window's pre-step — the envelope tier requires
        // `step == dtm_interval` bitwise, so every window is exactly one
        // DTM decision and the stepped run's decision-due test is always
        // true here.
        st.observation.max_amb_c = if has_buffer { cur_max_buf } else { f64::NAN };
        st.observation.max_dram_c = cur_max_dram;
        st.observation.ambient_c = st.scene.ambient_c();
        let new_plan = decide_checked(st.policy.as_mut(), &st.observation, dt);
        let overheaded = new_plan != entries[cur].plan;
        if overheaded {
            st.plan_streak = 0;
            run = 0;
            next_attempt = arm;
            cur = match entries.iter().position(|e| e.plan == new_plan) {
                Some(i) => i,
                None => {
                    let e = env_build_entry(st, engine, new_plan, depth);
                    entries.push(e);
                    entries.len() - 1
                }
            };
        } else {
            st.plan_streak = st.plan_streak.saturating_add(1);
            run += 1;
        }
        st.next_dtm_s += dt;
        let e = &entries[cur];
        if e.progressing {
            let (instr, bytes, misses, migrated, retires) = if overheaded {
                (e.instr_oh, e.bytes_oh, e.misses_oh, e.migrated_oh, &e.retires_oh)
            } else {
                (e.instr, e.bytes, e.misses, e.migrated, &e.retires)
            };
            st.total_instructions += instr;
            st.total_bytes += bytes;
            st.total_misses += misses;
            st.migrated_bytes += migrated;
            for core in 0..cores {
                if shares_pos[core] {
                    st.batch.retire(core, retires[core]);
                }
            }
        }
        let amb = st.scene.step_ambient(entries[cur].window.v_ipc, ambient_alpha);

        // C: a band violation in the previous window's sweep hands the
        // cell back to the lane. The invariant at this point: the current
        // window's pre-step is done, its RC sweep is not — exactly what
        // returning `true` from [`member_pre`] promises, so the lane's RC
        // and post-step pick the window up seamlessly.
        if violation {
            for r in 0..rows {
                lane.temps[r * lane.stride + j] = rows_t[r];
                lane.peaks[r * lane.stride + j] = peaks[r];
            }
            lane.amb[j] = amb;
            let e = &entries[cur];
            st.plan = e.plan.clone();
            st.mode = e.mode;
            st.mode_key = e.mode_key;
            st.point = Arc::clone(&e.point);
            st.progressing = e.progressing;
            st.plan_stats = e.plan_stats;
            st.window = e.window.clone();
            st.overhead_s = if overheaded { cfg.dtm_overhead_s } else { 0.0 };
            lane.write_power_column(j, &st.window.positions, st.scene.topology());
            // The tracker's history went stale while the burst ran.
            st.orbit_history.clear();
            env_back_off(st);
            for e in &entries {
                if e.residency_s > 0.0 {
                    *st.residency.entry(e.mode_key).or_insert(0.0) += e.residency_s;
                }
            }
            st.stats.fast_forwarded_windows += env_windows;
            st.stats.envelope_cycles += band.pseudo_cycles(jumps, env_windows);
            st.stats.envelope_fallbacks += 1;
            st.stats.replay_ns += started.elapsed().as_nanos() as u64;
            return None;
        }

        // D: the private RC sweep ([`lane_rc`]'s float ops on one column),
        // the band audit and the window's post-step bookkeeping.
        let e = &entries[cur];
        cur_max_buf = f64::NEG_INFINITY;
        cur_max_dram = f64::NEG_INFINITY;
        let mut in_band = true;
        // One position (`depth` consecutive rows) at a time, so a row's
        // layer is its index in the chunk (no per-row modulo or bounds
        // checks in the burst's hottest loop).
        let layers = lane.layer_alphas.iter().zip(&kinds);
        for ((((t, p), sa), sb), (lo, hi)) in rows_t
            .chunks_exact_mut(depth)
            .zip(peaks.chunks_exact_mut(depth))
            .zip(e.stab_a.chunks_exact(depth))
            .zip(e.stab_b.chunks_exact(depth))
            .zip(band.lo.chunks_exact(depth).zip(band.hi.chunks_exact(depth)))
        {
            for (l, (&alpha, kind)) in layers.clone().enumerate() {
                let s = if identity_split { (amb + sa[l]) + sb[l] } else { amb + sa[l] };
                let t = &mut t[l];
                *t += (s - *t) * alpha;
                p[l] = p[l].max(*t);
                match kind {
                    DeviceLayerKind::Buffer => cur_max_buf = cur_max_buf.max(*t),
                    DeviceLayerKind::Dram => cur_max_dram = cur_max_dram.max(*t),
                }
                in_band &= lo[l] <= *t && *t <= hi[l];
            }
        }
        violation = !in_band;
        st.energy.add(e.window.mem_w, e.window.cpu_w, step);
        st.max_amb = st.max_amb.max(if has_buffer { cur_max_buf } else { f64::NAN });
        st.max_dram = st.max_dram.max(cur_max_dram);
        st.ambient_sum += st.scene.ambient_c();
        st.ambient_samples += 1;
        for (channel, &thr) in e.throttled.iter().enumerate() {
            if thr {
                st.channel_throttle_s[channel] += step;
            }
        }
        entries[cur].residency_s += step;
        st.time_s += step;
        env_windows += 1;
        st.stats.burst_stepped_windows += 1;

        // A: the stepped loop's window-head condition.
        if st.batch.is_complete() || st.time_s >= max {
            let pseudo = band.pseudo_cycles(jumps, env_windows);
            return Some(env_finish(st, engine, &entries, &rows_t, &peaks, env_windows, pseudo, started));
        }

        // Segment jump: a frozen-plan run long enough to probe is advanced
        // in closed form when (1) the whole traversed temperature range —
        // the exact two-exponential response of each row to a frozen plan
        // and a relaxing ambient — stays inside the band, and (2) the
        // policy's decision rule certifies the frozen plan over that exact
        // range ([`DecisionRule::region`]), so each skipped decision
        // provably re-returns it. The ambient node itself is advanced in
        // closed form too, so warmup approaches are jumped long before the
        // ambient settles.
        let chatter_probe = env_windows >= chatter_next;
        if violation || (run < next_attempt && !chatter_probe) {
            continue;
        }
        // Exact decision replay ([`replay`]): sliding-mode chatter defeats
        // the frozen probe (the run resets on every plan flip, and an orbit
        // whose duty ratio slips never repeats an exact plan period), so a
        // policy whose decisions are keyed by the device maxima
        // ([`DecisionRule::key`]) is advanced by re-evaluating every
        // decision instead of certifying it away. The burst sets a segment
        // up — the key table, the binding rows, the dominance certificate
        // and the completion-safe cap — and books what the stage hands
        // back: plan-occupancy accounting (per-entry window counts times
        // the cached per-window amounts), the clocks and the re-prime.
        let now = (if has_buffer { cur_max_buf } else { f64::NAN }, cur_max_dram);
        if run < next_attempt {
            // A first key the rule refuses (a PID integral on the move)
            // leaves nothing to replay: retry a few literal windows later,
            // without paying for the tables below.
            let rule = st.policy.decision_rule();
            if rule.key(st.observation.max_amb_c, st.observation.max_dram_c, now.0, now.1).is_none() {
                chatter_next = env_windows.saturating_add(ENV_JUMP_MIN);
                continue;
            }
            let vt = std::time::Instant::now();
            // Key → entry table over the plans materialized so far; an
            // unseen key suspends the replay at the window that needs it
            // so the literal loop can build its entry.
            let nent = entries.len();
            if nent > REPLAY_KEYS {
                // A keyed policy materializes at most one plan per key;
                // more entries than keys means the contract is broken.
                chatter_next = u64::MAX;
                continue;
            }
            let mut key_entry = [usize::MAX; REPLAY_KEYS];
            for (k, ke) in key_entry.iter_mut().enumerate() {
                let Some(p) = rule.plan_of_key(k as u8) else {
                    break;
                };
                if let Some(i) = entries.iter().position(|e| e.plan == p) {
                    *ke = i;
                }
            }
            let binding = replay::binding_rows(&kinds, &rows_t);
            if binding.1 == usize::MAX || !rows_t.iter().all(|t| t.is_finite()) {
                chatter_next = u64::MAX;
                continue;
            }
            let mut forcings = [Forcing { a: &[], b: &[] }; REPLAY_KEYS];
            for (f, e) in forcings.iter_mut().zip(&entries) {
                *f = Forcing { a: &e.stab_a, b: &e.stab_b };
            }
            let forcings = &forcings[..nent];
            if replay_audit_key != (nent, binding) {
                replay_audit.clear();
                replay_audit.extend(replay::forcing_audit(&kinds, binding, rows, forcings, identity_split));
                replay_audit_key = (nent, binding);
            }
            // Segment ambient range for the cross-layer dominance bound:
            // the ambient is itself a convex combination of its start
            // value and the per-entry stable targets.
            let amb0 = st.scene.ambient_c();
            let stab_amb: Vec<f64> = {
                let ap = st.scene.ambient_params();
                entries.iter().map(|e| ap.stable_ambient_c(e.window.v_ipc)).collect()
            };
            let amb_min = stab_amb.iter().fold(amb0, |m, &s| m.min(s));
            let amb_max = stab_amb.iter().fold(amb0, |m, &s| m.max(s));
            // Start-state half of the certificate, and each row's role.
            let lo_off = |b: usize| forcings.iter().map(|f| f.off(b, identity_split)).fold(f64::INFINITY, f64::min);
            let band_rows = (&band.lo[..], &band.hi[..]);
            let roles =
                replay::replay_roles(&kinds, binding, &rows_t, band_rows, &replay_audit, (amb_min, amb_max), lo_off);
            // Completion-safe cap: strictly fewer windows than the
            // earliest possible job-copy completion at the fastest cached
            // retire rate, so the bulk retires at segment close land
            // before any completion and `is_complete` flips exactly where
            // literal stepping puts it.
            let mut w_cap = u64::MAX;
            for (core, &shares) in shares_pos.iter().enumerate().take(cores) {
                if !shares {
                    continue;
                }
                let rate = entries
                    .iter()
                    .filter(|e| e.progressing)
                    .map(|e| e.retires[core].max(e.retires_oh[core]))
                    .max()
                    .unwrap_or(0);
                if rate == 0 {
                    continue;
                }
                if let Some(s) = st.batch.slot(core) {
                    w_cap = w_cap.min(s.remaining_instructions.div_ceil(rate).max(1) - 1);
                }
            }
            if w_cap == 0 {
                st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
                chatter_next = env_windows.saturating_add(ENV_JUMP_MIN);
                continue;
            }
            // The close needs the mode-splitting coefficient
            // `c = α_l·A·λ_a/(λ_a − λ_l)`; a degenerate lane whose layer
            // shares the ambient decay rate has no two-exponential split,
            // so the replay refuses it once and for all.
            let lambda_amb = 1.0 - ambient_alpha;
            if lane.layer_alphas.iter().any(|&al| (lambda_amb - (1.0 - al)).abs() < 1e-9) {
                st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
                chatter_next = u64::MAX;
                continue;
            }
            let powers = powers.get_or_insert_with(|| replay::Powers::new(&lane.layer_alphas, ambient_alpha));
            st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
            let seg = replay::Segment {
                kinds: &kinds,
                alphas: &lane.layer_alphas,
                ln_l: &ln_l,
                ambient_alpha,
                ln_a,
                identity_split,
                has_buffer,
                forcings,
                stab_amb: &stab_amb,
                key_entry: &key_entry,
                binding,
                roles: &roles,
                band: band_rows,
                powers,
                step_s: step,
                dtm_s: dt,
                max_s: max,
                w_cap,
                window0: env_windows,
                audit: None,
            };
            let start = replay::Start {
                amb_c: amb0,
                time_s: st.time_s,
                next_dtm_s: st.next_dtm_s,
                obs: now,
                seen: [(st.observation.max_amb_c, st.observation.max_dram_c); 2],
                cur,
                run,
            };
            // One instantiation per keyed rule kind, each with the rule's
            // own key code, so the per-window loop never matches on it.
            let end = match rule {
                DecisionRule::Ladder { levels, .. } => {
                    // Debug builds hold a sample of the replayed keys to the
                    // rule's own prediction and to the key table.
                    let audit = |key: u8, (amb, dram): (f64, f64), ei: usize| {
                        let plan = rule.plan_of_key(key);
                        assert_eq!(
                            plan,
                            rule.next(amb, dram).map(|s| s.plan),
                            "replayed key {key} mispredicts the decision at ({amb}, {dram})"
                        );
                        assert_eq!(plan.as_ref(), Some(&entries[ei].plan), "replayed key {key} indexes another plan");
                    };
                    let seg = replay::Segment { audit: Some(&audit), ..seg };
                    replay::replay_segment(&seg, start, &mut rows_t, &mut peaks, |_, now| {
                        Some(rule::ladder_key(levels, now))
                    })
                }
                DecisionRule::Pid { amb, dram, limits, dt_s: Some(dt_s), .. } => {
                    replay::replay_segment(&seg, start, &mut rows_t, &mut peaks, |prev, now| {
                        rule::pid_key(amb, dram, limits, dt_s, prev, now)
                    })
                }
                _ => unreachable!("only ladders and PID rules with an interval key decisions"),
            };
            st.stats.replay_runs += end.runs;
            let w = end.windows;
            if w == 0 {
                // Nothing replayed: a long frozen run belongs to the
                // closed-form probe; an unseen key needs one literal
                // window to materialize its entry.
                if end.run >= REPLAY_RUN_EXIT as u64 {
                    next_attempt = run;
                    chatter_next = env_windows.saturating_add(2 * ENV_JUMP_MIN);
                } else {
                    chatter_next = env_windows.saturating_add(1);
                }
                continue;
            }
            (cur_max_buf, cur_max_dram) = (if has_buffer { end.obs.0 } else { f64::NEG_INFINITY }, end.obs.1);
            st.max_dram = st.max_dram.max(end.peak.1);
            if has_buffer {
                st.max_amb = st.max_amb.max(end.peak.0);
            }
            st.scene.set_ambient_c(end.amb_c);
            st.ambient_sum += end.amb_sum;
            st.ambient_samples += w;
            st.time_s = end.time_s;
            st.next_dtm_s = end.next_dtm_s;
            for (i, e) in entries.iter_mut().enumerate() {
                let (c, coh) = (end.counts[i], end.counts_oh[i]);
                if c + coh == 0 {
                    continue;
                }
                let (cf, cohf) = (c as f64, coh as f64);
                let totf = cf + cohf;
                e.residency_s += step * totf;
                if e.progressing {
                    st.total_instructions += e.instr * cf + e.instr_oh * cohf;
                    st.total_bytes += e.bytes * cf + e.bytes_oh * cohf;
                    st.total_misses += e.misses * cf + e.misses_oh * cohf;
                    st.migrated_bytes += e.migrated * cf + e.migrated_oh * cohf;
                    for (core, &pos) in shares_pos.iter().enumerate() {
                        if pos {
                            let n = e.retires[core] * c + e.retires_oh[core] * coh;
                            if n > 0 {
                                st.batch.retire(core, n);
                            }
                        }
                    }
                }
                st.energy.add(e.window.mem_w, e.window.cpu_w, step * totf);
                for (channel, &thr) in e.throttled.iter().enumerate() {
                    if thr {
                        st.channel_throttle_s[channel] += step * totf;
                    }
                }
            }
            env_windows += w;
            st.stats.replayed_windows += w;
            jumps += 1;
            (cur, run) = (end.cur, end.run);
            let _replanned = reprime(st, &end.seen[2 - w.min(2) as usize..], dt);
            debug_assert_eq!(_replanned.as_ref(), Some(&entries[cur].plan), "re-prime left the replayed plan");
            st.plan_streak = if end.flipped {
                run.min(u64::from(u32::MAX)) as u32
            } else {
                st.plan_streak.saturating_add(w.min(u64::from(u32::MAX)) as u32)
            };
            // The replay owns chatter now, so the fast re-arm of
            // certificate-limited closed-form jumps is rolled back; a long
            // frozen tail is handed straight to the closed-form probe,
            // anything else re-enters the replay after one literal window.
            arm = ENV_JUMP_MIN;
            if run >= REPLAY_RUN_EXIT as u64 {
                next_attempt = run;
                chatter_next = env_windows.saturating_add(2 * ENV_JUMP_MIN);
            } else {
                next_attempt = run.max(ENV_JUMP_MIN);
                chatter_next = env_windows;
            }
            if end.finished || st.batch.is_complete() || st.time_s >= max {
                let pseudo = band.pseudo_cycles(jumps, env_windows);
                return Some(env_finish(st, engine, &entries, &rows_t, &peaks, env_windows, pseudo, started));
            }
            violation = end.violated;
            continue;
        }
        let e = &entries[cur];
        // A rectangle certifies the frozen plan only if its starting point
        // does, and the point costs one rule evaluation: refuse cheaply
        // while, say, a PID integral is still moving.
        if st.policy.decision_rule().region(now.0, now.1, now.0, now.1).as_ref() != Some(&e.plan) {
            next_attempt = run.saturating_mul(2);
            continue;
        }
        let stable_ambient = st.scene.ambient_params().stable_ambient_c(e.window.v_ipc);
        let lambda_a = 1.0 - ambient_alpha;
        let amb_c = st.scene.ambient_c();
        let mut a0 = amb_c - stable_ambient;
        // A settled (or non-relaxing) ambient degenerates to the frozen
        // single-exponential form: zero λ_a-coefficient everywhere.
        let amb_static = !(lambda_a > 0.0 && lambda_a < 1.0) || a0.abs() <= AMBIENT_FF_EPS_C;
        if amb_static {
            a0 = 0.0;
        }
        // Completion-safe cap: strictly fewer windows than the earliest
        // possible job-copy completion, so bulk retires land on the same
        // windows literal stepping would. The wall-time cap keeps the
        // licensed range exactly the applied range.
        let cap: u64 = if e.progressing {
            (0..cores)
                .filter(|&c| e.retires[c] > 0)
                .filter_map(|c| st.batch.slot(c).map(|s| s.remaining_instructions.div_ceil(e.retires[c]).max(1) - 1))
                .min()
                .unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        let time_cap = (((max - st.time_s) / step).ceil().max(1.0)) as u64;
        let n_max = cap.min(time_cap);
        let n0 = run.min(n_max);
        if n0 == 0 {
            next_attempt = run.saturating_mul(2);
            continue;
        }
        // Horizon-independent row coefficients of the frozen-plan
        // two-exponential (stable point, λ_r- and λ_a-coefficients),
        // shared by every trial horizon below.
        let mut licensed = true;
        for (r, &t_r) in rows_t.iter().enumerate() {
            let l = r % depth;
            let lambda = 1.0 - lane.layer_alphas[l];
            let off = if identity_split { e.stab_a[r] + e.stab_b[r] } else { e.stab_a[r] };
            let (s_r, kcoef) = if amb_static {
                (amb_c + off, 0.0)
            } else {
                let gap = lambda_a - lambda;
                if gap.abs() < 1e-9 {
                    licensed = false;
                    break;
                }
                (stable_ambient + off, (1.0 - lambda) * a0 * lambda_a / gap)
            };
            jump_s[r] = s_r;
            jump_a[r] = t_r - s_r - kcoef;
            jump_k[r] = kcoef;
        }
        if !licensed {
            next_attempt = run.saturating_mul(2);
            continue;
        }
        // The exact maxima ranges the trajectory traces over a trial
        // horizon, with the burst band audited per row; `None` refuses
        // the horizon outright. The λ-powers are computed once per layer
        // (rows of layer `l` are `l, l + depth, …`); the per-kind maxima
        // are order-independent, so the layer-major scan changes no bits.
        let range_for = |nf: f64| -> Option<(f64, f64, f64, f64)> {
            let (mut buf_lo, mut buf_hi) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            let (mut dram_lo, mut dram_hi) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            let pow_a = (nf * ln_a).exp();
            for (l, &ln) in ln_l.iter().enumerate() {
                let pow_l = (nf * ln).exp();
                for r in (l..rows).step_by(depth) {
                    let (t_end, lo_f, hi_f) = env_row_range(jump_a[r], jump_k[r], ln, ln_a, pow_l, pow_a, nf);
                    let (lo_r, hi_r) = (jump_s[r] + lo_f, jump_s[r] + hi_f);
                    if !(t_end.is_finite() && band.lo[r] <= lo_r && hi_r <= band.hi[r]) {
                        return None;
                    }
                    match kinds[l] {
                        DeviceLayerKind::Buffer => {
                            buf_lo = buf_lo.max(lo_r);
                            buf_hi = buf_hi.max(hi_r);
                        }
                        DeviceLayerKind::Dram => {
                            dram_lo = dram_lo.max(lo_r);
                            dram_hi = dram_hi.max(hi_r);
                        }
                    }
                }
            }
            Some((buf_lo, buf_hi, dram_lo, dram_hi))
        };
        // The frozen-plan attestation: the decision rule's per-axis region
        // certificate, widened by the shadowing guard on both sides, must
        // name the frozen plan itself. The device axes trace independent
        // ranges, so a wide buffer swing does not inflate the DRAM range
        // across a threshold it never approaches. Naming the plan (not
        // just proving the decision unchanging over the range) matters: if
        // the trajectory crossed a boundary during the very window that
        // scheduled the probe, the whole traced range sits on the far side
        // and a jump would freeze the stale plan across a flip the literal
        // path takes immediately.
        let rule = st.policy.decision_rule();
        let region_at = |rg: &(f64, f64, f64, f64)| -> bool {
            let (buf_lo, buf_hi, dram_lo, dram_hi) = *rg;
            let dram_span = (dram_hi - dram_lo) + 2.0 * ENV_FP_GUARD_C;
            let amb_span = if has_buffer { (buf_hi - buf_lo) + 2.0 * ENV_FP_GUARD_C } else { 0.0 };
            if !(dram_span.is_finite() && amb_span.is_finite()) {
                return false;
            }
            let amb_lo = if has_buffer { buf_lo - ENV_FP_GUARD_C } else { f64::NAN };
            let dram_lo = dram_lo - ENV_FP_GUARD_C;
            rule.region(amb_lo, dram_lo, amb_lo + amb_span, dram_lo + dram_span).as_ref() == Some(&e.plan)
        };
        // The licensed horizon: attested ranges nest as the horizon
        // shrinks, so licensing is monotone in n and binary search finds
        // the largest licensed horizon exactly. The horizon is NOT bounded
        // by the observed run length — the certificate itself proves plan
        // invariance over the traced range — so a run hugging a threshold
        // from one side is jumped to the chatter boundary in one segment,
        // and a monotone approach is jumped to its completion or wall cap.
        let mut n = n0;
        let ok = if match range_for(n0 as f64) {
            Some(rg) => region_at(&rg),
            None => false,
        } {
            if n0 < n_max {
                let full = match range_for(n_max as f64) {
                    Some(rg) => region_at(&rg),
                    None => false,
                };
                if full {
                    n = n_max;
                } else {
                    let (mut lo, mut hi) = (n0, n_max);
                    while hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        let good = match range_for(mid as f64) {
                            Some(rg) => region_at(&rg),
                            None => false,
                        };
                        if good {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    n = lo;
                }
            }
            true
        } else if n0 > 1
            && match range_for(1.0) {
                Some(rg) => region_at(&rg),
                None => false,
            }
        {
            // Near a decision boundary the largest licensed horizon is
            // shorter than the run that scheduled the probe.
            let (mut lo, mut hi) = (1u64, n0);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let good = match range_for(mid as f64) {
                    Some(rg) => region_at(&rg),
                    None => false,
                };
                if good {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            n = lo;
            true
        } else {
            false
        };
        if !ok {
            next_attempt = run.saturating_mul(2);
            continue;
        }
        // A certificate-limited horizon marks a chattering cell: the plan
        // flips right past the jump, so future runs re-arm fast instead of
        // paying [`ENV_JUMP_MIN`] literal windows per chatter half-cycle.
        if n < n_max {
            arm = 2;
        }
        // Apply the jump: literal time/decision-clock additions (exact
        // window counts), `rate × m` accounting, then the temperatures —
        // in closed form, or stepped literally for a policy that
        // integrates its observations — and the re-prime.
        let mut m: u64 = 0;
        while m < n && st.time_s < max {
            st.time_s += step;
            st.next_dtm_s += dt;
            m += 1;
        }
        if m == 0 {
            continue;
        }
        let mf = m as f64;
        if e.progressing {
            st.total_instructions += e.instr * mf;
            st.total_bytes += e.bytes * mf;
            st.total_misses += e.misses * mf;
            st.migrated_bytes += e.migrated * mf;
            for (core, &pos) in shares_pos.iter().enumerate() {
                if pos && e.retires[core] > 0 {
                    st.batch.retire(core, e.retires[core] * m);
                }
            }
        }
        st.energy.add(e.window.mem_w, e.window.cpu_w, step * mf);
        for (channel, &thr) in e.throttled.iter().enumerate() {
            if thr {
                st.channel_throttle_s[channel] += step * mf;
            }
        }
        st.ambient_samples += m;
        // The maxima the skipped decisions saw at jump offsets m − 2 and
        // m − 1, oldest first (offset 0 is the current maxima): the
        // re-prime replays them.
        let at_start = (if has_buffer { cur_max_buf } else { f64::NAN }, cur_max_dram);
        let mut seen = [at_start; 2];
        if integrates {
            // A policy that integrates its observations must keep seeing
            // bit-exact maxima, so its skipped windows keep the literal
            // ambient step and RC sweep (the burst window's float ops in a
            // lean row loop); only the decisions, the accounting and the
            // per-window maxima are skipped.
            let alpha: Vec<f64> = (0..rows).map(|r| lane.layer_alphas[r % depth]).collect();
            let mut high = vec![f64::NEG_INFINITY; rows];
            let (sa, sb) = (&e.stab_a[..rows], &e.stab_b[..rows]);
            let kind_max = |t: &[f64]| -> (f64, f64) {
                let (mut buf, mut dram) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for (r, &t) in t.iter().enumerate() {
                    match kinds[r % depth] {
                        DeviceLayerKind::Buffer => buf = buf.max(t),
                        DeviceLayerKind::Dram => dram = dram.max(t),
                    }
                }
                (buf, dram)
            };
            for k in 1..=m {
                let amb = st.scene.step_ambient(e.window.v_ipc, ambient_alpha);
                st.ambient_sum += st.scene.ambient_c();
                let rows = rows_t.iter_mut().zip(high.iter_mut()).zip(&alpha).enumerate();
                if identity_split {
                    for (r, ((t, h), &a)) in rows {
                        *t += ((amb + sa[r]) + sb[r] - *t) * a;
                        *h = h.max(*t);
                    }
                } else {
                    for (r, ((t, h), &a)) in rows {
                        *t += (amb + sa[r] - *t) * a;
                        *h = h.max(*t);
                    }
                }
                if k + 2 >= m && k < m {
                    let (buf, dram) = kind_max(&rows_t);
                    seen = [seen[1], (if has_buffer { buf } else { f64::NAN }, dram)];
                }
            }
            for (p, &h) in peaks.iter_mut().zip(&high) {
                *p = p.max(h);
            }
            let (buf, dram) = kind_max(&high);
            st.max_amb = st.max_amb.max(if has_buffer { buf } else { f64::NAN });
            st.max_dram = st.max_dram.max(dram);
            (cur_max_buf, cur_max_dram) = kind_max(&rows_t);
        } else {
            let maxima_at = |k: u64| -> (f64, f64) {
                if k == 0 {
                    return at_start;
                }
                let kf = k as f64;
                let pow_a = (kf * ln_a).exp();
                let (mut buf, mut dram) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for (l, &ln) in ln_l.iter().enumerate() {
                    let pow_l = (kf * ln).exp();
                    for r in (l..rows).step_by(depth) {
                        let t = jump_s[r] + (jump_a[r] * pow_l + jump_k[r] * pow_a);
                        match kinds[l] {
                            DeviceLayerKind::Buffer => buf = buf.max(t),
                            DeviceLayerKind::Dram => dram = dram.max(t),
                        }
                    }
                }
                (if has_buffer { buf } else { f64::NAN }, dram)
            };
            seen = [maxima_at(m.saturating_sub(2)), maxima_at(m - 1)];
            // Closed form: the ambient's endpoint and running sum from the
            // geometric series, each row's endpoint with its in-segment
            // extremes folded into peaks and maxima.
            if amb_static {
                st.ambient_sum += amb_c * mf;
            } else {
                st.ambient_sum += st.scene.ambient_segment_moments(stable_ambient, a0, lambda_a, mf);
            }
            cur_max_buf = f64::NEG_INFINITY;
            cur_max_dram = f64::NEG_INFINITY;
            let mut peak_buf = f64::NEG_INFINITY;
            let mut peak_dram = f64::NEG_INFINITY;
            let pow_a = (mf * ln_a).exp();
            for (l, &ln) in ln_l.iter().enumerate() {
                let pow_l = (mf * ln).exp();
                for r in (l..rows).step_by(depth) {
                    let (t_end, _, hi_f) = env_row_range(jump_a[r], jump_k[r], ln, ln_a, pow_l, pow_a, mf);
                    let t = jump_s[r] + t_end;
                    let hi = jump_s[r] + hi_f;
                    rows_t[r] = t;
                    peaks[r] = peaks[r].max(hi);
                    match kinds[l] {
                        DeviceLayerKind::Buffer => {
                            cur_max_buf = cur_max_buf.max(t);
                            peak_buf = peak_buf.max(hi);
                        }
                        DeviceLayerKind::Dram => {
                            cur_max_dram = cur_max_dram.max(t);
                            peak_dram = peak_dram.max(hi);
                        }
                    }
                }
            }
            st.max_amb = st.max_amb.max(if has_buffer { peak_buf } else { f64::NAN });
            st.max_dram = st.max_dram.max(peak_dram);
        }
        let _replanned = reprime(st, &seen[2 - m.min(2) as usize..], dt);
        debug_assert_eq!(_replanned.as_ref(), Some(&e.plan), "re-prime left the frozen plan");
        entries[cur].residency_s += step * mf;
        st.plan_streak = st.plan_streak.saturating_add(m.min(u64::from(u32::MAX)) as u32);
        run += m;
        next_attempt = run;
        env_windows += m;
        jumps += 1;
        if st.batch.is_complete() || st.time_s >= max {
            let pseudo = band.pseudo_cycles(jumps, env_windows);
            return Some(env_finish(st, engine, &entries, &rows_t, &peaks, env_windows, pseudo, started));
        }
    }
}

/// Folds a finished cell's accumulators and its scene's peak field into
/// its result. The caller must have synchronized the cell's scene
/// (temperatures and peaks) beforehand. Mode labels are derived from the
/// quantized mode key once per distinct mode; distinct keys that render
/// identically (sub-0.1-unit differences) merge by summing their residency.
fn finalize(st: &mut CellState<'_>, engine: &SimEngine<'_>) -> (MemSpotResult, CellRunStats) {
    let energy = &st.energy;
    let elapsed = energy.elapsed_s().max(1e-9);
    let mut mode_residency: BTreeMap<String, f64> = BTreeMap::new();
    for (key, secs) in std::mem::take(&mut st.residency) {
        *mode_residency.entry(mode_label_from_key(&key)).or_insert(0.0) += secs / elapsed;
    }
    let scene = &st.scene;
    let position_peaks = scene
        .position_peaks()
        .into_iter()
        .enumerate()
        .map(|(i, p)| PositionPeak {
            channel: p.channel,
            dimm: p.dimm,
            max_amb_c: p.amb_c,
            max_dram_c: p.dram_c,
            hottest_layer: p.hottest_layer,
            layers_c: scene.layer_peaks_of(i).to_vec(),
        })
        .collect();
    let result = MemSpotResult {
        workload: st.mix.id.clone(),
        stack: engine.config.stack.label(),
        policy: st.policy.name(),
        scheme: st.policy.scheme(),
        completed: st.batch.is_complete(),
        running_time_s: st.time_s,
        total_instructions: st.total_instructions,
        total_memory_bytes: st.total_bytes,
        total_l2_misses: st.total_misses,
        memory_energy_j: energy.memory_joules(),
        cpu_energy_j: energy.cpu_joules(),
        avg_memory_power_w: energy.avg_memory_watts(),
        avg_cpu_power_w: energy.avg_cpu_watts(),
        avg_ambient_c: if st.ambient_samples == 0 { 0.0 } else { st.ambient_sum / st.ambient_samples as f64 },
        max_amb_c: st.max_amb,
        max_dram_c: st.max_dram,
        mode_residency,
        temp_trace: std::mem::take(&mut st.trace),
        position_peaks,
        channel_throttle_residency: st.channel_throttle_s.iter().map(|&s| s / elapsed).collect(),
        migrated_traffic_bytes: st.migrated_bytes,
    };
    (result, st.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtm::no_limit::NoLimit;
    use crate::dtm::policy::DtmScheme;
    use crate::dtm::threshold::ThresholdPolicy;
    use crate::dtm::ts::DtmTs;
    use crate::thermal::params::{CoolingConfig, StackKind, ThermalLimits};
    use workloads::mixes;

    fn hardware() -> (CpuConfig, FbdimmConfig, FbdimmPowerModel, PaperCpuPower) {
        (
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            FbdimmPowerModel::paper_defaults(),
            PaperCpuPower::new(),
        )
    }

    /// FNV-1a over each result's `Debug` rendering, one line per result, as
    /// `tests/sweep_golden.rs` digests its grid: two result lists digest
    /// equally iff they are bit-identical.
    fn digest(results: &[(MemSpotResult, CellRunStats)]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (result, _) in results {
            for byte in format!("{result:?}\n").bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The three cells below as the per-cell window loop ran them, each on
    /// its own, before `MemSpot::run` became a one-cell literal batch.
    const GOLDEN_THREE_CELLS: u64 = 0x2412_629c_05f3_f504;

    #[test]
    fn literal_batched_results_are_bit_identical_to_the_per_cell_engine() {
        // An isolated FBDIMM cell, an integrated one and a rank pair under a
        // different cooling: two lanes, one of them shared.
        let (cpu, mem, power, cpu_power) = hardware();
        let store = Arc::new(CharStore::new());
        let limits = ThermalLimits::paper_fbdimm();
        let configs = [
            MemSpotConfig::tiny(CoolingConfig::aohs_1_5()),
            MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_integrated(None),
            MemSpotConfig::tiny(CoolingConfig::fdhs_1_0()).with_stack(StackKind::RankPair),
        ];
        let policies: [Box<dyn DtmPolicy>; 3] = [
            Box::new(NoLimit::new(&cpu)),
            Box::new(DtmTs::new(cpu.clone(), limits)),
            Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits)),
        ];
        let cells: Vec<BatchCell> = configs
            .iter()
            .zip(policies)
            .map(|(config, policy)| BatchCell::new(&cpu, &mem, *config, mixes::w1(), policy, Arc::clone(&store)))
            .collect();
        let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
        let batched = engine.run(cells, &BatchOptions::literal());
        let got = digest(&batched);
        assert_eq!(got, GOLDEN_THREE_CELLS, "batched digest {got:#018x} diverged from the per-cell golden");
        for (_, stats) in &batched {
            assert_eq!(stats.fast_forwarded_windows, 0, "literal mode must never fast-forward");
            assert!(stats.stepped_windows > 0);
        }
    }

    #[test]
    fn chunked_decision_pass_is_bit_identical_to_the_single_worker_pass() {
        // At one worker the three cells share one lane and leave it at
        // different windows (asserted below), so the deferred descending
        // removals swap columns under the survivors; at 3 workers the lane
        // is split into single-column chunks whose decision passes never
        // swap. Both must agree bit for bit. Results are compared on their
        // Debug rendering: Rust formats `f64` shortest-roundtrip, so equal
        // strings mean equal bit patterns in every float field.
        let (cpu, mem, power, cpu_power) = hardware();
        let store = Arc::new(CharStore::new());
        let limits = ThermalLimits::paper_fbdimm();
        let make_cells = || -> Vec<BatchCell> {
            let policies: [Box<dyn DtmPolicy>; 3] = [
                Box::new(NoLimit::new(&cpu)),
                Box::new(DtmTs::new(cpu.clone(), limits)),
                Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits)),
            ];
            // No-limit leaves through the envelope's frozen trigger. The
            // other two record traces, which keep them stepping in the lane
            // until they complete, and DTM-ACG runs fewer copies, so it
            // completes first.
            let tiny = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
            let configs = [
                tiny,
                MemSpotConfig { record_temp_trace: true, ..tiny },
                MemSpotConfig { record_temp_trace: true, copies_per_app: 2, ..tiny },
            ];
            policies
                .into_iter()
                .zip(configs)
                .map(|(policy, config)| BatchCell::new(&cpu, &mem, config, mixes::w1(), policy, Arc::clone(&store)))
                .collect()
        };
        let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
        for options in [BatchOptions::literal(), BatchOptions::default()] {
            let single = engine.run(make_cells(), &options);
            let chunked = engine.run_with_workers(make_cells(), &options, 3);
            assert_eq!(chunked.len(), single.len());
            for ((got, got_stats), (want, want_stats)) in chunked.iter().zip(&single) {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "chunked pass diverged from one worker (fast_forward={})",
                    options.fast_forward
                );
                assert_eq!(got_stats, want_stats, "chunked pass took a different path");
            }
            // Every cell starts in the lane at window 0, so its stepped
            // window count is the lane window it left at.
            let left_at: Vec<u64> = single.iter().map(|(_, stats)| stats.stepped_windows).collect();
            assert!(
                left_at[0] != left_at[1] && left_at[1] != left_at[2] && left_at[0] != left_at[2],
                "the cells must leave the lane at different windows (fast_forward={}), left at {left_at:?}",
                options.fast_forward
            );
        }
    }

    #[test]
    fn lanes_group_by_stack_step_and_ambient() {
        let (cpu, mem, _, _) = hardware();
        let store = Arc::new(CharStore::new());
        let mk = |config: MemSpotConfig| {
            BatchCell::new(&cpu, &mem, config, mixes::w1(), Box::new(NoLimit::new(&cpu)), Arc::clone(&store))
        };
        let cells = vec![
            mk(MemSpotConfig::tiny(CoolingConfig::aohs_1_5())),
            mk(MemSpotConfig::tiny(CoolingConfig::aohs_1_5())),
            mk(MemSpotConfig::tiny(CoolingConfig::fdhs_1_0())),
            mk(MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(StackKind::RankPair)),
        ];
        let power = FbdimmPowerModel::paper_defaults();
        let cpu_power = PaperCpuPower::new();
        let configs: Vec<MemSpotConfig> = cells.iter().map(|c| c.config).collect();
        let sim_engines: Vec<SimEngine<'_>> =
            configs.iter().map(|c| SimEngine::new(&cpu, &mem, &power, &cpu_power, c)).collect();
        let opts = BatchOptions::default();
        let states: Vec<CellState<'_>> =
            cells.into_iter().zip(sim_engines.iter()).map(|(cell, e)| CellState::new(cell, e, &opts)).collect();
        let groups = lane_groups(&states);
        // aohs FBDIMM pair share a lane; fdhs and the rank pair each get
        // their own (different resistances => different topology taus).
        assert_eq!(groups.len(), 3);
        let works = lane_works(states, groups);
        assert_eq!(works.iter().map(|w| w.lane.members.len()).max(), Some(2));
        for work in &works {
            let lane = &work.lane;
            assert_eq!(lane.stride, lane.members.len());
            assert_eq!(lane.temps.len(), lane.rows * lane.stride);
            assert_eq!(work.globals.len(), work.states.len());
        }
    }

    #[test]
    fn row_range_from_layer_powers_is_bit_identical_to_the_per_row_formula() {
        // The per-row form the jump licensing used before the λ-powers were
        // hoisted to the layer: two `ln` and two `exp` per call.
        fn per_row(a: f64, b: f64, lambda: f64, lambda_a: f64, nf: f64) -> (f64, f64, f64) {
            let f = |k: f64| {
                if k <= 0.0 {
                    a + b
                } else {
                    a * (k * lambda.ln()).exp() + b * (k * lambda_a.ln()).exp()
                }
            };
            let f0 = a + b;
            let fe = f(nf);
            let (mut lo, mut hi) = if f0 <= fe { (f0, fe) } else { (fe, f0) };
            if a != 0.0 && b != 0.0 && (a > 0.0) != (b > 0.0) && lambda > 0.0 && lambda_a > 0.0 {
                let ratio = -(b * lambda_a.ln()) / (a * lambda.ln());
                if ratio > 0.0 {
                    let kstar = ratio.ln() / (lambda.ln() - lambda_a.ln());
                    if kstar > 0.0 && kstar < nf {
                        for k in [kstar.floor().max(1.0), kstar.ceil().min(nf)] {
                            let v = f(k);
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                    }
                }
            }
            (fe, lo, hi)
        }
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let mut rng = workloads::rng::SmallRng::seed_from_u64(0xE4_2026);
        let mut interior = 0;
        for i in 0..200_000u64 {
            let coef = |rng: &mut workloads::rng::SmallRng| match rng.gen_range(0..6u64) {
                0 => 0.0,
                1 => -rng.gen_range(1e-9..1e-3),
                2 => rng.gen_range(1e-9..1e-3),
                3 => -rng.gen_range(1e-3..40.0),
                _ => rng.gen_range(1e-3..40.0),
            };
            let rate = |rng: &mut workloads::rng::SmallRng| match rng.gen_range(0..12u64) {
                0 => 0.0,
                1 => 1.0,
                2 => -0.0,
                3 => rng.gen_range(0.0..0.5),
                _ => 1.0 - rng.gen_range(1e-7..0.2),
            };
            let (a, b) = (coef(&mut rng), coef(&mut rng));
            let (lambda, lambda_a) = (rate(&mut rng), rate(&mut rng));
            let nf = match i % 4 {
                0 => rng.gen_range(0..4u64),
                1 => rng.gen_range(1..300u64),
                _ => rng.gen_range(1..2_000_000u64),
            } as f64;
            let (ln_l, ln_a) = (lambda.ln(), lambda_a.ln());
            let got = env_row_range(a, b, ln_l, ln_a, (nf * ln_l).exp(), (nf * ln_a).exp(), nf);
            let want = per_row(a, b, lambda, lambda_a, nf);
            assert!(
                same(got.0, want.0) && same(got.1, want.1) && same(got.2, want.2),
                "a={a:e} b={b:e} λ={lambda} λ_a={lambda_a} n={nf}: {got:?} vs {want:?}"
            );
            interior += usize::from(got.1 < got.0.min(a + b) || got.2 > got.0.max(a + b));
        }
        // The interior-extremum branch must be exercised, not just the
        // endpoint shortcut.
        assert!(interior > 1_000, "only {interior} samples peaked inside the horizon");
    }

    #[test]
    fn lane_sweeps_step_every_column_like_the_scene() {
        // The scene's own `step` is the reference for the bits a lane
        // produces: a one-member lane (the column walk) and a three-member
        // lane (the row sweep), every column fed the scene's inputs, over a
        // few hundred windows whose power plan changes every 37 windows.
        // Temperatures, peaks, per-kind maxima and observations must agree
        // bit for bit with a scene stepped on its own.
        let (cpu, mem, power, cpu_power) = hardware();
        let store = Arc::new(CharStore::new());
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        for stack in [StackKind::Fbdimm, StackKind::RankPair, StackKind::stacked4()] {
            // A 2 s step: each layer moves a large fraction of the way to its
            // stable temperature per window, so a one-ulp change in how the
            // stable temperature is summed reaches the stepped bits.
            let mut config = MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(stack).with_integrated(None);
            config.window_s = 2.0;
            config.dtm_interval_s = 2.0;
            let engine = SimEngine::new(&cpu, &mem, &power, &cpu_power, &config);
            let idle = engine.idle_powers();
            let plan_powers = |plan: usize| -> Vec<FbdimmPowerBreakdown> {
                idle.iter()
                    .enumerate()
                    .map(|(i, p)| FbdimmPowerBreakdown {
                        amb_watts: p.amb_watts + 0.7 * ((i + plan) % 5) as f64,
                        dram_watts: p.dram_watts + 0.3 * ((i * plan) % 3) as f64,
                    })
                    .collect()
            };
            for width in [1, 3] {
                let states: Vec<CellState<'_>> = (0..width)
                    .map(|_| {
                        let policy = Box::new(NoLimit::new(&cpu));
                        let cell = BatchCell::new(&cpu, &mem, config, mixes::w1(), policy, Arc::clone(&store));
                        CellState::new(cell, &engine, &BatchOptions::literal())
                    })
                    .collect();
                let mut work = lane_works(states, vec![(0..width).collect()]).pop().expect("one lane");
                let mut scene = engine.make_scene();
                let mut observation = scene.observe();
                let mut lane_observation = scene.observe();
                let step_s = config.window_s;
                let (mut powers, mut v_ipc) = (plan_powers(0), 0.0);
                for window in 0..300 {
                    if window % 37 == 0 {
                        let plan = window / 37;
                        powers = plan_powers(plan);
                        v_ipc = 0.8 * plan as f64;
                        for j in 0..width {
                            work.lane.write_power_column(j, &powers, scene.topology());
                        }
                    }
                    for j in 0..width {
                        work.lane.amb[j] = work.states[j].scene.step_ambient(v_ipc, work.lane.ambient_alpha);
                    }
                    lane_rc(&mut work.lane, &work.states);
                    scene.step(&powers, v_ipc, step_s);
                    let (max_amb, max_dram) = scene.max_temps_c();
                    scene.observe_into(&mut observation);
                    let lane = &work.lane;
                    for j in 0..width {
                        let label = format!("{} width {width} column {j} window {window}", config.stack.label());
                        for r in 0..lane.rows {
                            assert!(
                                same(lane.temps[r * lane.stride + j], scene.layer_temps_flat()[r]),
                                "{label}: row {r}"
                            );
                            assert!(
                                same(lane.peaks[r * lane.stride + j], scene.layer_peaks_flat()[r]),
                                "{label}: peak {r}"
                            );
                        }
                        assert!(same(lane.max_dram[j], max_dram), "{label}: DRAM maximum");
                        if lane.has_buffer {
                            assert!(same(lane.max_buffer[j], max_amb), "{label}: buffer maximum");
                        } else {
                            assert!(max_amb.is_nan(), "{label}: a bufferless stack has no buffer maximum");
                        }
                        let st = &work.states[j];
                        assert!(same(st.scene.ambient_c(), scene.ambient_c()), "{label}: ambient");
                        st.scene.observe_lane_into(&lane.temps, lane.stride, j, &mut lane_observation);
                        assert_eq!(format!("{lane_observation:?}"), format!("{observation:?}"), "{label}: observation");
                    }
                }
            }
        }
    }

    #[test]
    fn splitting_groups_chunks_the_dominant_lane() {
        // One dominant 6-cell group plus a singleton: asking for 4 workers
        // must chunk the big group (6 → 3+3 → 3+2+1... stopping at 4 total)
        // while never splitting below one cell per group.
        let mut groups = vec![vec![0, 1, 2, 3, 4, 5], vec![6]];
        split_groups(&mut groups, 4, 7);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 7);
        assert!(groups.iter().all(|g| !g.is_empty()));
        // Membership is preserved, only partitioned.
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());

        // More workers than cells: every group ends up a singleton, no spin.
        let mut groups = vec![vec![0, 1, 2]];
        split_groups(&mut groups, 16, 3);
        assert_eq!(groups.len(), 3);
    }
}
