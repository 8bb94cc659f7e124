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
//! state). Field-reading rules do neither and stay off the tier.
//!
//! One trigger arms the envelope for an eligible cell. It counts the
//! cell's decisions since the cell started or last backed off, and keeps
//! the per-row hull of the cell's column at those decisions. Outside a
//! backoff it fires when either
//!
//! - the plan has held for 64 decisions, whether the temperatures are
//!   still sliding toward the plan's fixed point or already sit at it: the
//!   burst's band is the directed interval from each row to its fixed
//!   point; or
//! - the plan has changed since the count began and 32 decisions have
//!   passed (a switching cell: chatter, a relay, a slipping orbit): the
//!   band is the hull plus the current column, widened by half its span
//!   on each side.
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
//! # Burst stages
//!
//! A burst runs over one private state (`Burst`): the cell's lane column
//! and device maxima, one cached entry per plan it meets (window power,
//! per-row forcings, per-window accounting), the schedules of its analytic
//! attempts and the counters its exit books. Its loop is its stages:
//!
//! 1. a **literal window**: the decision, the ambient step, the private RC
//!    sweep with its band audit, and the window's booking;
//! 2. once the plan has held for the probe's run length, a **frozen-jump
//!    attempt**: licensing (the largest certified horizon, found by one
//!    bisection with a fixed probe order), then applying (clocks, booking,
//!    rows in closed form or stepped literally, re-prime);
//! 3. otherwise, when its schedule comes due, a **replay attempt** for a
//!    keyed rule (below);
//! 4. **one exit**, which flushes the per-plan residency and the counters,
//!    then finishes the cell or, after a band violation, hands it back to
//!    the lane with its next window decided.
//!
//! Windows are booked through one routine (`EnvPlanEntry::book`): a literal
//! window books one plain or one overheaded (plan-change) window, a jump
//! `m` plain windows, a replay segment each plan's occupancy counts. A plan
//! change in the lane and a burst's plan entry derive the plan's power
//! through one function (`PlanState::derive`).
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
//! soundness. A refused band or a fallback backs the trigger off, doubling
//! the wait with every failure, and restarts its decision count and hull.
//!
//! [`CellRunStats::envelope_cycles`] counts each burst's analytic
//! segments: its frozen jumps and its replay segments.
//!
//! # Checked, not trusted
//!
//! Every certificate above comes from the one [`DecisionRule`] a policy
//! describes itself with. Debug builds check that rule on every literal
//! decision the engine makes: the rule taken before `decide` must predict
//! the returned plan and, for a latch, the state it leaves.

use std::collections::BTreeMap;
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

/// After a refused or fallen-back envelope engagement, how many further
/// decisions the trigger waits before it may arm the burst again; each
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

/// How many consecutive unchanged decisions arm the envelope with the
/// frozen-approach band ([`env_band_frozen`]): long enough that a plan
/// about to flip again arms through [`ENV_SWITCH_STREAK`] instead, short
/// relative to the tens of thousands of windows a slow thermal transient
/// spans at the paper's 10 ms cadence.
const ENV_FROZEN_STREAK: u32 = 64;

/// How many decisions since the cell started or last backed off arm the
/// envelope with the hull band ([`env_band_hull`]) once the plan has
/// changed among them: a switching cell (chatter, a relay, a slipping
/// orbit) has shown the span of its orbit by then.
const ENV_SWITCH_STREAK: u32 = 32;

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
    /// Analytic segments of the envelope tier's bursts: its closed-form
    /// frozen-plan jumps plus its decision-replay segments. Zero whenever
    /// the envelope never engaged or engaged without an analytic segment.
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
    /// [`CharStore`] when built via [`BatchCell::new`]). It holds no level-1
    /// simulator: a closed loop the cell runs borrows one from the store.
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
    /// Scratch for a spatial plan's per-DIMM traffic.
    plan_traffic: Vec<DimmTraffic>,
    step_s: f64,
    time_s: f64,
    next_dtm_s: f64,
    next_trace_s: f64,
    active: PlanState,
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
    /// Decisions since the cell started or last backed off
    /// ([`env_arm`]).
    env_streak: u32,
    /// Per-row minimum and maximum of the lane column at those decisions.
    env_lo: Vec<f64>,
    env_hi: Vec<f64>,
    /// Engage the envelope burst at the next DTM decision.
    env_pending: bool,
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
        let mut plan_traffic = Vec::new();
        let active =
            PlanState::derive(engine, &scene, &idle, &mut plan_traffic, ActuationPlan::global(full_mode), full_point);
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
            plan_traffic,
            step_s: config.window_s.min(config.dtm_interval_s),
            time_s: 0.0,
            next_dtm_s: 0.0,
            next_trace_s: 0.0,
            active,
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
            env_streak: 0,
            env_lo: Vec::new(),
            env_hi: Vec::new(),
            env_pending: false,
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

    /// The window loop's end: the batch completed or the time limit hit.
    fn done(&self, cfg: &MemSpotConfig) -> bool {
        self.batch.is_complete() || self.time_s >= cfg.max_sim_time_s
    }
}

/// A cell's actuation plan and what the window loop derives from it: the
/// plan's running-mode key and level-1 point, whether that mode retires
/// instructions, the plan's traffic statistics and its window power.
#[derive(Debug, Clone)]
struct PlanState {
    plan: ActuationPlan,
    mode_key: ModeKey,
    point: Arc<CharPoint>,
    progressing: bool,
    plan_stats: PlanTrafficStats,
    window: WindowPower,
}

impl PlanState {
    /// Derives `plan`'s state over `point`, the level-1 point of its mode:
    /// the one scalar/spatial branch a plan change in the window loop and
    /// every envelope plan entry go through. The scene is consulted only
    /// for geometry; `traffic` is scratch for a spatial plan.
    fn derive(
        engine: &SimEngine<'_>,
        scene: &DimmThermalScene,
        idle: &[FbdimmPowerBreakdown],
        traffic: &mut Vec<DimmTraffic>,
        plan: ActuationPlan,
        point: Arc<CharPoint>,
    ) -> Self {
        let mode = plan.mode;
        let progressing = mode.makes_progress() && point.instr_rate_total > 0.0;
        let (plan_stats, window) = if plan.is_scalar() {
            let window = engine.window_power(scene, idle, &point, &point.dimm_traffic, &mode, progressing);
            (PlanTrafficStats::identity(), window)
        } else {
            let mem = engine.mem;
            let stats =
                plan.apply_traffic_into(&point.dimm_traffic, mem.logical_channels, mem.dimms_per_channel, traffic);
            (stats, engine.window_power(scene, idle, &point, traffic, &mode, progressing))
        };
        PlanState { mode_key: ModeKey::from_mode(&mode), plan, point, progressing, plan_stats, window }
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
        for (pos, p) in states[cell].active.window.positions.iter().enumerate() {
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
/// finished cell), DTM decision (or envelope engagement), batch progress,
/// and the cell's ambient step (the first thing [`DimmThermalScene::step`]
/// does), in this fixed order. Returns `true` if the member stayed in the
/// lane, `false` if it departed (finalized, in the lane or by a burst).
/// The caller defers the column removals to the end of the pass
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
    let st = &mut states[cell];
    if st.done(engine.config) {
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
        // An envelope burst armed by the previous decision engages here, in
        // place of this decision. A burst that hands the cell back has
        // decided this window, and the accounting below picks it up.
        match std::mem::take(&mut st.env_pending).then(|| env_band(lane, j, st)).flatten() {
            Some(band) => {
                if let Some(result) = envelope_burst(lane, j, st, engine, band) {
                    results[cell] = Some(result);
                    return false;
                }
            }
            None => member_decide(lane, j, st, engine),
        }
    }
    let effective_s = (st.step_s - st.overhead_s).max(0.0);
    let PlanState { point, plan_stats, progressing, window, .. } = &st.active;
    if *progressing {
        let instr = point.instr_rate_total * plan_stats.service_scale * effective_s;
        st.total_instructions += instr;
        st.total_bytes += point.total_gbps() * plan_stats.service_scale * 1e9 * effective_s;
        st.total_misses += point.l2_misses_per_instr * instr;
        st.migrated_bytes += plan_stats.migrated_gbps * 1e9 * effective_s;
        for core in 0..engine.cpu.cores {
            let share = st.full_shares.get(core).copied().unwrap_or(0.0);
            if share > 0.0 {
                st.batch.retire(core, (instr * share) as u64);
            }
        }
    }
    lane.amb[j] = st.scene.step_ambient(window.v_ipc, lane.ambient_alpha);
    true
}

/// The band the armed envelope burst engages with: the frozen-approach band
/// for a plan held [`ENV_FROZEN_STREAK`] decisions, else the hull band. `None`
/// when the band is refused, which backs the trigger off.
fn env_band(lane: &Lane, j: usize, st: &mut CellState<'_>) -> Option<EnvBand> {
    let bt = std::time::Instant::now();
    let band =
        if st.plan_streak >= ENV_FROZEN_STREAK { env_band_frozen(lane, j, st) } else { env_band_hull(lane, j, st) };
    st.stats.verify_ns += bt.elapsed().as_nanos() as u64;
    if band.is_none() {
        env_back_off(st);
    }
    band
}

/// Lane member `j`'s literal DTM decision: the observation, the decision, a
/// plan change's state and power column ([`PlanState::derive`]), the
/// envelope trigger ([`env_arm`]) and the decision clock.
fn member_decide(lane: &mut Lane, j: usize, st: &mut CellState<'_>, engine: &SimEngine<'_>) {
    let cfg = engine.config;
    if st.wants_field {
        st.scene.observe_lane_into(&lane.temps, lane.stride, j, &mut st.observation);
    } else {
        // Scalar policies read only the device maxima and the ambient; the
        // maxima are exactly the lane sweep's running accumulators for this
        // member (`f64::max` over the same node set), so the full
        // per-position field synthesis is skipped. Spatial fields of the
        // observation go stale and must not be read
        // (`DecisionRule::reads_field`).
        st.observation.max_amb_c = if lane.has_buffer { lane.max_buffer[j] } else { f64::NAN };
        st.observation.max_dram_c = lane.max_dram[j];
        st.observation.ambient_c = st.scene.ambient_c();
    }
    let new_plan = decide_checked(st.policy.as_mut(), &st.observation, cfg.dtm_interval_s);
    let plan_changed = new_plan != st.active.plan;
    if plan_changed {
        st.plan_streak = 0;
        st.overhead_s = cfg.dtm_overhead_s;
        let point = if new_plan.mode != st.active.plan.mode {
            st.table.point(&new_plan.mode)
        } else {
            Arc::clone(&st.active.point)
        };
        st.active = PlanState::derive(engine, &st.scene, &st.idle, &mut st.plan_traffic, new_plan, point);
        lane.write_power_column(j, &st.active.window.positions, st.scene.topology());
    } else {
        st.plan_streak = st.plan_streak.saturating_add(1);
    }
    if st.env_enabled {
        env_arm(lane, j, st);
    }
    st.next_dtm_s += cfg.dtm_interval_s;
}

/// The per-cell post-step bookkeeping for lane member `j`: the tail of the
/// window (energy, maxima, residency, throttle accounting, trace, clock).
fn member_post(lane: &Lane, j: usize, globals: &[usize], engines: &[SimEngine<'_>], states: &mut [CellState<'_>]) {
    let cell = lane.members[j];
    let cfg = engines[globals[cell]].config;
    let st = &mut states[cell];
    st.energy.add(st.active.window.mem_w, st.active.window.cpu_w, st.step_s);
    let amb_now = if lane.has_buffer { lane.max_buffer[j] } else { f64::NAN };
    let dram_now = lane.max_dram[j];
    st.max_amb = st.max_amb.max(amb_now);
    st.max_dram = st.max_dram.max(dram_now);
    st.ambient_sum += st.scene.ambient_c();
    st.ambient_samples += 1;
    *st.residency.entry(st.active.mode_key).or_insert(0.0) += st.step_s;
    for (channel, throttled_s) in st.channel_throttle_s.iter_mut().enumerate() {
        if st.active.plan.throttles_channel(channel) {
            *throttled_s += st.step_s;
        }
    }
    if cfg.record_temp_trace && st.time_s + 1e-12 >= st.next_trace_s {
        st.trace.push(TempSample {
            time_s: st.time_s,
            amb_c: amb_now,
            dram_c: dram_now,
            ambient_c: st.scene.ambient_c(),
            active_cores: st.active.plan.mode.active_cores,
            freq_ghz: st.active.plan.mode.op.freq_ghz,
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

/// The envelope trigger, run after every literal decision of an eligible
/// cell: counts the decision, folds the cell's lane column into the hull
/// and, outside a backoff, arms the burst for the next decision when the
/// plan has held [`ENV_FROZEN_STREAK`] decisions, or has changed since the
/// count began and the count has reached [`ENV_SWITCH_STREAK`].
fn env_arm(lane: &Lane, j: usize, st: &mut CellState<'_>) {
    st.env_streak = st.env_streak.saturating_add(1);
    st.env_lo.resize(lane.rows, f64::INFINITY);
    st.env_hi.resize(lane.rows, f64::NEG_INFINITY);
    for (r, (lo, hi)) in st.env_lo.iter_mut().zip(&mut st.env_hi).enumerate() {
        let t = lane.temps[r * lane.stride + j];
        *lo = lo.min(t);
        *hi = hi.max(t);
    }
    // The plan changed since the count began iff it has held for fewer
    // decisions than were counted.
    let switched = st.plan_streak < st.env_streak;
    st.env_pending = st.env_backoff == 0
        && (st.plan_streak >= ENV_FROZEN_STREAK || (switched && st.env_streak >= ENV_SWITCH_STREAK));
}

/// Backs the envelope trigger off after a refused or fallen-back
/// engagement and restarts its decision count and hull. Each failure
/// doubles the wait (capped by [`ENV_BACKOFF_DOUBLINGS`]): a switching cell
/// re-arms the trigger every [`ENV_SWITCH_STREAK`] decisions forever, and
/// only the doubling keeps a hopeless cell's engagement cost amortized to
/// nothing over a long run.
fn env_back_off(st: &mut CellState<'_>) {
    st.env_backoff = ENV_RETRY_BACKOFF << st.env_fails.min(ENV_BACKOFF_DOUBLINGS);
    st.env_fails = st.env_fails.saturating_add(1);
    st.env_streak = 0;
    st.env_lo.clear();
    st.env_hi.clear();
}

/// A per-row temperature confinement band: the envelope burst's drift
/// audit.
#[derive(Debug)]
struct EnvBand {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// Everything the envelope burst needs per distinct actuation plan, cached
/// once so the per-window replay never re-derives characterization points,
/// window powers or accounting rates on a plan flip — the dominant
/// per-window cost of a slipping orbit stepped literally.
#[derive(Debug)]
struct EnvPlanEntry {
    state: PlanState,
    /// Per-row stable-temperature terms: the RC stable of row `r` is
    /// `ambient + stab_a[r]` (plus `stab_b[r]` on identity-split stacks),
    /// evaluated in exactly [`lane_rc`]'s float-op order so the private
    /// sweep carries the lane's bits.
    stab_a: Vec<f64>,
    stab_b: Vec<f64>,
    /// What one window accounts at the full step (`[0]`) and at the
    /// overheaded, plan-change step (`[1]`).
    amounts: [WindowAmounts; 2],
    throttled: Vec<bool>,
    /// Residency seconds accumulated while this entry's plan was active,
    /// flushed into the cell's residency map when the burst exits (one
    /// reassociation per entry instead of one map probe per window).
    residency_s: f64,
}

/// What one window of a plan accounts: [`member_pre`]'s literal
/// expressions at one step length, evaluated once.
#[derive(Debug, Default)]
struct WindowAmounts {
    instr: f64,
    bytes: f64,
    misses: f64,
    migrated: f64,
    /// Instructions retired per core.
    retires: Vec<u64>,
}

impl EnvPlanEntry {
    /// Books `plain` windows at the full step and `overheaded` windows at
    /// the plan-change step of this entry into the cell: instructions,
    /// bytes, misses, migrated bytes and retires (while the plan makes
    /// progress), energy, channel throttle time, residency and ambient
    /// sample counts. A burst window books (1, 0) or (0, 1), a frozen jump
    /// (m, 0) and a replay segment each entry's occupancy counts. Skipping
    /// a zero retire changes nothing (`retire(core, 0)` is a no-op).
    fn book(&mut self, st: &mut CellState<'_>, plain: u64, overheaded: u64) {
        let windows = plain + overheaded;
        if windows == 0 {
            return;
        }
        let (pf, of) = (plain as f64, overheaded as f64);
        let [p, o] = &self.amounts;
        if self.state.progressing {
            st.total_instructions += p.instr * pf + o.instr * of;
            st.total_bytes += p.bytes * pf + o.bytes * of;
            st.total_misses += p.misses * pf + o.misses * of;
            st.migrated_bytes += p.migrated * pf + o.migrated * of;
            for (core, (&rp, &ro)) in p.retires.iter().zip(&o.retires).enumerate() {
                let n = rp * plain + ro * overheaded;
                if n > 0 {
                    st.batch.retire(core, n);
                }
            }
        }
        let secs = st.step_s * windows as f64;
        st.energy.add(self.state.window.mem_w, self.state.window.cpu_w, secs);
        for (throttled_s, &thr) in st.channel_throttle_s.iter_mut().zip(&self.throttled) {
            if thr {
                *throttled_s += secs;
            }
        }
        self.residency_s += secs;
        st.ambient_samples += windows;
    }
}

/// Builds the cached per-plan entry through the very code path
/// [`member_pre`] runs on a plan change ([`PlanState::derive`]), so every
/// cached value carries the bits the literal window loop would have
/// computed. (The scene is only consulted for geometry, never for
/// temperatures, so the burst's stale scene temperatures cannot leak in.)
fn env_build_entry(st: &mut CellState<'_>, engine: &SimEngine<'_>, plan: ActuationPlan, depth: usize) -> EnvPlanEntry {
    let point = st.table.point(&plan.mode);
    let state = PlanState::derive(engine, &st.scene, &st.idle, &mut st.plan_traffic, plan, point);
    let topology = st.scene.topology();
    let rows = state.window.positions.len() * depth;
    let mut stab_a = vec![0.0; rows];
    let mut stab_b = vec![0.0; rows];
    if topology.is_identity_split() {
        for (pos, p) in state.window.positions.iter().enumerate() {
            for l in 0..depth {
                let psi = topology.psi_row(l);
                stab_a[pos * depth + l] = p.amb_watts * psi[0];
                stab_b[pos * depth + l] = p.dram_watts * psi[1];
            }
        }
    } else {
        let mut watts = vec![0.0; depth];
        for (pos, p) in state.window.positions.iter().enumerate() {
            topology.split_watts_into(p.amb_watts, p.dram_watts, &mut watts);
            for l in 0..depth {
                stab_a[pos * depth + l] = topology.psi_superpose(&watts, l);
            }
        }
    }
    let amounts = [0.0, engine.config.dtm_overhead_s].map(|overhead| {
        let mut a = WindowAmounts { retires: vec![0; engine.cpu.cores], ..WindowAmounts::default() };
        if state.progressing {
            let (point, plan_stats) = (&state.point, &state.plan_stats);
            let effective_s = (st.step_s - overhead).max(0.0);
            a.instr = point.instr_rate_total * plan_stats.service_scale * effective_s;
            a.bytes = point.total_gbps() * plan_stats.service_scale * 1e9 * effective_s;
            a.misses = point.l2_misses_per_instr * a.instr;
            a.migrated = plan_stats.migrated_gbps * 1e9 * effective_s;
            for (core, amount) in a.retires.iter_mut().enumerate() {
                let share = st.full_shares.get(core).copied().unwrap_or(0.0);
                if share > 0.0 {
                    *amount = (a.instr * share) as u64;
                }
            }
        }
        a
    });
    let throttled = (0..st.channel_throttle_s.len()).map(|ch| state.plan.throttles_channel(ch)).collect();
    EnvPlanEntry { state, stab_a, stab_b, amounts, throttled, residency_s: 0.0 }
}

/// Hull band of a switching cell: the per-row hull of its column at the
/// decisions since it started or last backed off, plus its current column,
/// spans the orbit, and the band — widened by half a span per side to
/// absorb a slow slip — becomes the burst's audit certificate. Width is not
/// gated: a burst decides every window literally or replays keyed decisions
/// ([`DecisionRule::key`]) exactly, and certifies every frozen jump over its
/// own traced range, so the band is only an audit backstop, never a bound
/// on the replay error. Takes the hull, which the back-off or the cell's
/// finish that ends every engagement would drop anyway. Refuses a
/// non-finite span.
fn env_band_hull(lane: &Lane, j: usize, st: &mut CellState<'_>) -> Option<EnvBand> {
    if !lane.layer_alphas.iter().all(|&a| a > 0.0 && a <= 1.0) {
        return None;
    }
    let (mut lo, mut hi) = (std::mem::take(&mut st.env_lo), std::mem::take(&mut st.env_hi));
    debug_assert_eq!(lo.len(), lane.rows, "the hull band needs the counted decisions' hull");
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
    Some(EnvBand { lo, hi })
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
    st.scene.fixed_point_into(&st.active.window.positions, st.active.window.v_ipc, &mut st.fp);
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
    Some(EnvBand { lo, hi })
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

/// How an envelope burst ends ([`Burst::exit`]).
#[derive(Debug, Clone, Copy)]
enum BurstExit {
    /// The cell ran to completion (or to its time limit) inside the burst.
    Finished,
    /// The previous window's sweep left the band: the cell goes back to the
    /// lane with this window decided, `overheaded` if the decision changed
    /// the plan.
    HandBack { overheaded: bool },
}

/// A frozen-plan jump the decision rule licensed ([`Burst::license_jump`]).
#[derive(Debug, Clone, Copy)]
struct Jump {
    /// The licensed horizon, windows.
    n: u64,
    /// The frozen plan's stable ambient and the ambient's offset from it;
    /// `None` for a settled (or non-relaxing) ambient, which degenerates
    /// the rows to the frozen single-exponential form.
    ambient: Option<(f64, f64)>,
}

/// The largest horizon in `1..=n_max` a frozen jump may take, or `None`:
/// probes the run length `n0` (`1 ≤ n0 ≤ n_max`) first, then `n_max`, and
/// bisects between them; when `n0` itself is refused, probes 1 and bisects
/// `(1, n0)` — near a decision boundary the licensed horizon is shorter
/// than the run that scheduled the probe. Licensing is monotone in `n` up
/// to rounding, and this exact probe sequence keeps the bits where
/// rounding breaks monotonicity.
fn licensed_horizon(n0: u64, n_max: u64, mut licensed: impl FnMut(u64) -> bool) -> Option<u64> {
    let (mut lo, mut hi) = if licensed(n0) {
        if n0 == n_max || licensed(n_max) {
            return Some(n_max);
        }
        (n0, n_max)
    } else if n0 > 1 && licensed(1) {
        (1, n0)
    } else {
        return None;
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if licensed(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Completion-safe cap: strictly fewer windows than the earliest possible
/// job-copy completion when core `c` retires `rate(c)` instructions per
/// window, so bulk retires land before any completion and `is_complete`
/// flips exactly where literal stepping puts it.
fn completion_cap(batch: &BatchJob, cores: usize, rate: impl Fn(usize) -> u64) -> u64 {
    (0..cores)
        .filter_map(|core| match rate(core) {
            0 => None,
            r => batch.slot(core).map(|s| s.remaining_instructions.div_ceil(r).max(1) - 1),
        })
        .min()
        .unwrap_or(u64::MAX)
}

/// One envelope burst's private state: the cell's lane column and device
/// maxima taken out of the lane, the burst's plan entries, the schedules of
/// its analytic attempts and the counters its exit books. The lane's
/// geometry is copied in; it is constant for the burst.
struct Burst {
    started: std::time::Instant,
    band: EnvBand,
    kinds: Vec<DeviceLayerKind>,
    alphas: Vec<f64>,
    /// `ln λ` per layer and of the ambient for [`env_row_range`].
    ln_l: Vec<f64>,
    ln_a: f64,
    ambient_alpha: f64,
    depth: usize,
    identity_split: bool,
    has_buffer: bool,
    /// Whether the policy integrates its observations
    /// ([`DecisionRule::integrates`]): its jumps keep the literal RC sweep.
    integrates: bool,
    /// The column's temperatures and peaks (written back on hand-back,
    /// synced into the scene on finish).
    rows_t: Vec<f64>,
    peaks: Vec<f64>,
    /// The device maxima `(buffer, DRAM)` the next decision observes; the
    /// buffer maximum is NaN on a bufferless stack.
    obs: (f64, f64),
    entries: Vec<EnvPlanEntry>,
    /// The entry of the plan in force.
    cur: usize,
    /// Per-row closed-form coefficients of the licensed jump (stable,
    /// λ_r-coefficient, λ_a-coefficient), filled by the licensing pass and
    /// consumed by the apply pass.
    jump_s: Vec<f64>,
    jump_a: Vec<f64>,
    jump_k: Vec<f64>,
    /// Windows the burst carried, and its jumps plus replayed segments.
    windows: u64,
    jumps: u64,
    /// Whether the last sweep left the band: the next window hands the cell
    /// back.
    violated: bool,
    /// In-burst frozen-plan run length and the run length at which a
    /// segment jump is probed next (doubles on a refused probe so hopeless
    /// cells never pay the license check per window; resets on plan
    /// change).
    run: u64,
    next_attempt: u64,
    /// Run length at which a fresh frozen run arms its first probe. Starts
    /// at [`ENV_JUMP_MIN`]; drops to 2 once a probe comes back
    /// certificate-limited — the signature of sliding-mode chatter, where
    /// every run ends at the same decision boundary and waiting
    /// [`ENV_JUMP_MIN`] literal windows per half-cycle forfeits most of it.
    arm: u64,
    /// Burst window at which the next replay is attempted; `u64::MAX` for
    /// unkeyed policies (the latched DTM-TS relay), whose bursts advance by
    /// literal windows and certified frozen jumps only.
    chatter_next: u64,
    /// Dominance-certificate reuse across consecutive replay segments: the
    /// forcing-gap half of the audit (per row, against the binding rows it
    /// was derived for) depends only on the cached plan entries, not on the
    /// segment's start state, so consecutive segments re-use it and re-check
    /// only the O(rows) start-state gaps. `(entry_count, binding rows)`
    /// keys the cache; per row it stores (same-layer forcing gap holds,
    /// forcings bitwise-equal to binding, max forcing over entries).
    replay_audit_key: (usize, (usize, usize)),
    replay_audit: Vec<(bool, bool, f64)>,
    /// The per-layer and ambient λ-power ladders of the replay close, built
    /// at the burst's first replay segment (they depend only on the lane).
    powers: Option<replay::Powers>,
}

// Negated comparisons refuse on NaN throughout.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
impl Burst {
    /// Takes lane member `j` out of the lane, with the entry of its current
    /// plan.
    fn new(lane: &Lane, j: usize, st: &mut CellState<'_>, engine: &SimEngine<'_>, band: EnvBand) -> Self {
        let started = std::time::Instant::now();
        let rows = lane.rows;
        let column = |m: &[f64]| (0..rows).map(|r| m[r * lane.stride + j]).collect::<Vec<f64>>();
        let first = env_build_entry(st, engine, st.active.plan.clone(), lane.depth);
        let rule = st.policy.decision_rule();
        Burst {
            started,
            band,
            kinds: st.scene.topology().layers().iter().map(|l| l.kind).collect(),
            alphas: lane.layer_alphas.clone(),
            ln_l: lane.layer_alphas.iter().map(|&al| (1.0 - al).ln()).collect(),
            ln_a: (1.0 - lane.ambient_alpha).ln(),
            ambient_alpha: lane.ambient_alpha,
            depth: lane.depth,
            identity_split: lane.identity_split,
            has_buffer: lane.has_buffer,
            integrates: rule.integrates(),
            rows_t: column(&lane.temps),
            peaks: column(&lane.peaks),
            obs: (if lane.has_buffer { lane.max_buffer[j] } else { f64::NAN }, lane.max_dram[j]),
            entries: vec![first],
            cur: 0,
            jump_s: vec![0.0; rows],
            jump_a: vec![0.0; rows],
            jump_k: vec![0.0; rows],
            windows: 0,
            jumps: 0,
            violated: false,
            run: 0,
            next_attempt: ENV_JUMP_MIN,
            arm: ENV_JUMP_MIN,
            chatter_next: if rule.keys() { 2 * ENV_JUMP_MIN } else { u64::MAX },
            replay_audit_key: (usize::MAX, (usize::MAX, usize::MAX)),
            replay_audit: Vec::new(),
            powers: None,
        }
    }

    /// The device maxima `(buffer, DRAM)` over the row values `t`, as a
    /// decision observes them.
    fn maxima(&self, t: &[f64]) -> (f64, f64) {
        let (mut buf, mut dram) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (r, &t) in t.iter().enumerate() {
            match self.kinds[r % self.depth] {
                DeviceLayerKind::Buffer => buf = buf.max(t),
                DeviceLayerKind::Dram => dram = dram.max(t),
            }
        }
        (if self.has_buffer { buf } else { f64::NAN }, dram)
    }

    /// A literal burst window. Its decision comes first (the burst requires
    /// `step == dtm_interval` bitwise, so every window is one DTM decision);
    /// if the previous sweep left the band the cell is handed back here,
    /// with the window decided and nothing else done — what [`member_pre`]
    /// picks up after a literal decision. Otherwise the ambient step, the
    /// private RC sweep with its band audit ([`lane_rc`]'s float ops on one
    /// column) and the window's booking. Returns the exit if the window
    /// ends the burst.
    fn literal_window(&mut self, st: &mut CellState<'_>, engine: &SimEngine<'_>) -> Option<BurstExit> {
        let dt = engine.config.dtm_interval_s;
        (st.observation.max_amb_c, st.observation.max_dram_c) = self.obs;
        st.observation.ambient_c = st.scene.ambient_c();
        let new_plan = decide_checked(st.policy.as_mut(), &st.observation, dt);
        let overheaded = new_plan != self.entries[self.cur].state.plan;
        if overheaded {
            st.plan_streak = 0;
            self.run = 0;
            self.next_attempt = self.arm;
            self.cur = match self.entries.iter().position(|e| e.state.plan == new_plan) {
                Some(i) => i,
                None => {
                    self.entries.push(env_build_entry(st, engine, new_plan, self.depth));
                    self.entries.len() - 1
                }
            };
        } else {
            st.plan_streak = st.plan_streak.saturating_add(1);
            self.run += 1;
        }
        st.next_dtm_s += dt;
        if self.violated {
            return Some(BurstExit::HandBack { overheaded });
        }
        let e = &self.entries[self.cur];
        let amb = st.scene.step_ambient(e.state.window.v_ipc, self.ambient_alpha);
        let (mut buf, mut dram) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut in_band = true;
        // One position (`depth` consecutive rows) at a time, so a row's
        // layer is its index in the chunk (no per-row modulo or bounds
        // checks in the burst's hottest loop).
        let layers = self.alphas.iter().zip(&self.kinds);
        let depth = self.depth;
        for ((((t, p), sa), sb), (lo, hi)) in self
            .rows_t
            .chunks_exact_mut(depth)
            .zip(self.peaks.chunks_exact_mut(depth))
            .zip(e.stab_a.chunks_exact(depth))
            .zip(e.stab_b.chunks_exact(depth))
            .zip(self.band.lo.chunks_exact(depth).zip(self.band.hi.chunks_exact(depth)))
        {
            for (l, (&alpha, kind)) in layers.clone().enumerate() {
                let s = if self.identity_split { (amb + sa[l]) + sb[l] } else { amb + sa[l] };
                let t = &mut t[l];
                *t += (s - *t) * alpha;
                p[l] = p[l].max(*t);
                match kind {
                    DeviceLayerKind::Buffer => buf = buf.max(*t),
                    DeviceLayerKind::Dram => dram = dram.max(*t),
                }
                in_band &= lo[l] <= *t && *t <= hi[l];
            }
        }
        self.violated = !in_band;
        self.obs = (if self.has_buffer { buf } else { f64::NAN }, dram);
        st.max_amb = st.max_amb.max(self.obs.0);
        st.max_dram = st.max_dram.max(dram);
        st.ambient_sum += st.scene.ambient_c();
        self.entries[self.cur].book(st, u64::from(!overheaded), u64::from(overheaded));
        st.time_s += st.step_s;
        self.windows += 1;
        st.stats.burst_stepped_windows += 1;
        st.done(engine.config).then_some(BurstExit::Finished)
    }

    /// A replay attempt ([`replay`]): sliding-mode chatter defeats the
    /// frozen probe (the run resets on every plan flip, and an orbit whose
    /// duty ratio slips never repeats an exact plan period), so a policy
    /// whose decisions are keyed by the device maxima
    /// ([`DecisionRule::key`]) is advanced by re-evaluating every decision
    /// instead of certifying it away. The burst sets a segment up — the key
    /// table, the binding rows, the dominance certificate and the
    /// completion-safe cap — and books what the stage hands back: each
    /// entry's occupancy counts, the clocks and the re-prime.
    fn replay(&mut self, st: &mut CellState<'_>, engine: &SimEngine<'_>) {
        let cfg = engine.config;
        let rule = st.policy.decision_rule();
        // A first key the rule refuses (a PID integral on the move) leaves
        // nothing to replay: retry a few literal windows later, without
        // paying for the tables below.
        if rule.key(st.observation.max_amb_c, st.observation.max_dram_c, self.obs.0, self.obs.1).is_none() {
            self.chatter_next = self.windows.saturating_add(ENV_JUMP_MIN);
            return;
        }
        let vt = std::time::Instant::now();
        // Key → entry table over the plans materialized so far; an unseen
        // key suspends the replay at the window that needs it so the
        // literal loop can build its entry.
        let nent = self.entries.len();
        if nent > REPLAY_KEYS {
            // A keyed policy materializes at most one plan per key; more
            // entries than keys means the contract is broken.
            self.chatter_next = u64::MAX;
            return;
        }
        let mut key_entry = [usize::MAX; REPLAY_KEYS];
        for (k, ke) in key_entry.iter_mut().enumerate() {
            let Some(p) = rule.plan_of_key(k as u8) else {
                break;
            };
            if let Some(i) = self.entries.iter().position(|e| e.state.plan == p) {
                *ke = i;
            }
        }
        let binding = replay::binding_rows(&self.kinds, &self.rows_t);
        if binding.1 == usize::MAX || !self.rows_t.iter().all(|t| t.is_finite()) {
            self.chatter_next = u64::MAX;
            return;
        }
        let mut forcings = [Forcing { a: &[], b: &[] }; REPLAY_KEYS];
        for (f, e) in forcings.iter_mut().zip(&self.entries) {
            *f = Forcing { a: &e.stab_a, b: &e.stab_b };
        }
        let forcings = &forcings[..nent];
        let identity_split = self.identity_split;
        if self.replay_audit_key != (nent, binding) {
            self.replay_audit.clear();
            let rows = self.rows_t.len();
            self.replay_audit.extend(replay::forcing_audit(&self.kinds, binding, rows, forcings, identity_split));
            self.replay_audit_key = (nent, binding);
        }
        // Segment ambient range for the cross-layer dominance bound: the
        // ambient is itself a convex combination of its start value and the
        // per-entry stable targets.
        let amb0 = st.scene.ambient_c();
        let ap = st.scene.ambient_params();
        let stab_amb: Vec<f64> = self.entries.iter().map(|e| ap.stable_ambient_c(e.state.window.v_ipc)).collect();
        let amb_min = stab_amb.iter().fold(amb0, |m, &s| m.min(s));
        let amb_max = stab_amb.iter().fold(amb0, |m, &s| m.max(s));
        // Start-state half of the certificate, and each row's role.
        let lo_off = |b: usize| forcings.iter().map(|f| f.off(b, identity_split)).fold(f64::INFINITY, f64::min);
        let band = (&self.band.lo[..], &self.band.hi[..]);
        let roles = replay::replay_roles(
            &self.kinds,
            binding,
            &self.rows_t,
            band,
            &self.replay_audit,
            (amb_min, amb_max),
            lo_off,
        );
        let w_cap = completion_cap(&st.batch, engine.cpu.cores, |core| {
            self.entries.iter().map(|e| e.amounts[0].retires[core].max(e.amounts[1].retires[core])).max().unwrap_or(0)
        });
        if w_cap == 0 {
            st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
            self.chatter_next = self.windows.saturating_add(ENV_JUMP_MIN);
            return;
        }
        // The close needs the mode-splitting coefficient
        // `c = α_l·A·λ_a/(λ_a − λ_l)`; a degenerate lane whose layer shares
        // the ambient decay rate has no two-exponential split, so the replay
        // refuses it once and for all.
        let lambda_amb = 1.0 - self.ambient_alpha;
        if self.alphas.iter().any(|&al| (lambda_amb - (1.0 - al)).abs() < 1e-9) {
            st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
            self.chatter_next = u64::MAX;
            return;
        }
        let powers = self.powers.get_or_insert_with(|| replay::Powers::new(&self.alphas, self.ambient_alpha));
        st.stats.verify_ns += vt.elapsed().as_nanos() as u64;
        let seg = replay::Segment {
            kinds: &self.kinds,
            alphas: &self.alphas,
            ln_l: &self.ln_l,
            ambient_alpha: self.ambient_alpha,
            ln_a: self.ln_a,
            identity_split,
            has_buffer: self.has_buffer,
            forcings,
            stab_amb: &stab_amb,
            key_entry: &key_entry,
            binding,
            roles: &roles,
            band,
            powers,
            step_s: st.step_s,
            dtm_s: cfg.dtm_interval_s,
            max_s: cfg.max_sim_time_s,
            w_cap,
            window0: self.windows,
            audit: None,
        };
        let start = replay::Start {
            amb_c: amb0,
            time_s: st.time_s,
            next_dtm_s: st.next_dtm_s,
            obs: self.obs,
            seen: [(st.observation.max_amb_c, st.observation.max_dram_c); 2],
            cur: self.cur,
            run: self.run,
        };
        // One instantiation per keyed rule kind, each with the rule's own
        // key code, so the per-window loop never matches on it.
        let (rows_t, peaks) = (&mut self.rows_t, &mut self.peaks);
        let end = match rule {
            DecisionRule::Ladder { levels, .. } => {
                // Debug builds hold a sample of the replayed keys to the
                // rule's own prediction and to the key table.
                let entries = &self.entries;
                let audit = |key: u8, (amb, dram): (f64, f64), ei: usize| {
                    let plan = rule.plan_of_key(key);
                    assert_eq!(
                        plan,
                        rule.next(amb, dram).map(|s| s.plan),
                        "replayed key {key} mispredicts the decision at ({amb}, {dram})"
                    );
                    assert_eq!(plan.as_ref(), Some(&entries[ei].state.plan), "replayed key {key} indexes another plan");
                };
                let seg = replay::Segment { audit: Some(&audit), ..seg };
                replay::replay_segment(&seg, start, rows_t, peaks, |_, now| Some(rule::ladder_key(levels, now)))
            }
            DecisionRule::Pid { amb, dram, limits, dt_s: Some(dt_s), .. } => {
                replay::replay_segment(&seg, start, rows_t, peaks, |prev, now| {
                    rule::pid_key(amb, dram, limits, dt_s, prev, now)
                })
            }
            _ => unreachable!("only ladders and PID rules with an interval key decisions"),
        };
        st.stats.replay_runs += end.runs;
        let w = end.windows;
        if w > 0 {
            self.obs = (if self.has_buffer { end.obs.0 } else { f64::NAN }, end.obs.1);
            st.max_dram = st.max_dram.max(end.peak.1);
            if self.has_buffer {
                st.max_amb = st.max_amb.max(end.peak.0);
            }
            st.scene.set_ambient_c(end.amb_c);
            st.ambient_sum += end.amb_sum;
            st.time_s = end.time_s;
            st.next_dtm_s = end.next_dtm_s;
            debug_assert_eq!(end.counts.iter().chain(&end.counts_oh).sum::<u64>(), w, "occupancy counts lost a window");
            for (e, (&c, &coh)) in self.entries.iter_mut().zip(end.counts.iter().zip(&end.counts_oh)) {
                e.book(st, c, coh);
            }
            self.windows += w;
            st.stats.replayed_windows += w;
            self.jumps += 1;
            (self.cur, self.run) = (end.cur, end.run);
            let _replanned = reprime(st, &end.seen[2 - w.min(2) as usize..], cfg.dtm_interval_s);
            debug_assert_eq!(
                _replanned.as_ref(),
                Some(&self.entries[self.cur].state.plan),
                "re-prime left the replayed plan"
            );
            st.plan_streak = if end.flipped {
                self.run.min(u64::from(u32::MAX)) as u32
            } else {
                st.plan_streak.saturating_add(w.min(u64::from(u32::MAX)) as u32)
            };
            // The replay owns chatter now, so the fast re-arm of
            // certificate-limited closed-form jumps is rolled back.
            self.arm = ENV_JUMP_MIN;
            self.violated = end.violated;
        }
        // A long frozen run is handed straight to the closed-form probe.
        // Otherwise an unseen key needs one literal window to materialize
        // its entry, and a replayed segment re-enters the replay after one
        // literal window.
        if self.run >= REPLAY_RUN_EXIT as u64 {
            self.next_attempt = self.run;
            self.chatter_next = self.windows.saturating_add(2 * ENV_JUMP_MIN);
        } else if w == 0 {
            self.chatter_next = self.windows.saturating_add(1);
        } else {
            self.next_attempt = self.run.max(ENV_JUMP_MIN);
            self.chatter_next = self.windows;
        }
    }

    /// A frozen-jump attempt: a licensed jump is applied; a refused probe
    /// waits for a run twice as long.
    fn frozen_jump(&mut self, st: &mut CellState<'_>, engine: &SimEngine<'_>) {
        match self.license_jump(st, engine.config) {
            Some(jump) => self.apply_jump(st, engine.config, jump),
            None => self.next_attempt = self.run.saturating_mul(2),
        }
    }

    /// Licenses a closed-form jump of the frozen plan: the largest horizon
    /// ([`licensed_horizon`]) over which (1) the whole traversed
    /// temperature range — the exact two-exponential response of each row
    /// to the frozen plan and the relaxing ambient, extremes included —
    /// stays inside the band, and (2) the decision rule certifies the
    /// frozen plan over that exact range ([`DecisionRule::region`]), so
    /// each skipped decision provably re-returns it. The horizon is not
    /// bounded by the observed run length (the certificate itself proves
    /// plan invariance), so a run hugging a threshold from one side is
    /// jumped to the chatter boundary in one segment, and a monotone
    /// approach to its completion or wall cap. Fills the per-row jump
    /// coefficients.
    fn license_jump(&mut self, st: &CellState<'_>, cfg: &MemSpotConfig) -> Option<Jump> {
        let e = &self.entries[self.cur];
        let rule = st.policy.decision_rule();
        // A rectangle certifies the frozen plan only if its starting point
        // does, and the point costs one rule evaluation: refuse cheaply
        // while, say, a PID integral is still moving.
        let (amb, dram) = self.obs;
        if rule.region(amb, dram, amb, dram).as_ref() != Some(&e.state.plan) {
            return None;
        }
        let stable_ambient = st.scene.ambient_params().stable_ambient_c(e.state.window.v_ipc);
        let lambda_a = 1.0 - self.ambient_alpha;
        let amb_c = st.scene.ambient_c();
        let a0 = amb_c - stable_ambient;
        let ambient = if !(lambda_a > 0.0 && lambda_a < 1.0) || a0.abs() <= AMBIENT_FF_EPS_C {
            None
        } else {
            Some((stable_ambient, a0))
        };
        // The wall-time cap keeps the licensed range exactly the applied
        // range.
        let time_cap = (((cfg.max_sim_time_s - st.time_s) / st.step_s).ceil().max(1.0)) as u64;
        let n_max =
            completion_cap(&st.batch, e.amounts[0].retires.len(), |core| e.amounts[0].retires[core]).min(time_cap);
        let n0 = self.run.min(n_max);
        if n0 == 0 {
            return None;
        }
        // Horizon-independent row coefficients of the frozen-plan
        // two-exponential (stable point, λ_r- and λ_a-coefficients), shared
        // by every trial horizon below.
        for (r, &t_r) in self.rows_t.iter().enumerate() {
            let lambda = 1.0 - self.alphas[r % self.depth];
            let off = if self.identity_split { e.stab_a[r] + e.stab_b[r] } else { e.stab_a[r] };
            let (s_r, kcoef) = match ambient {
                None => (amb_c + off, 0.0),
                Some((stable, a0)) => {
                    let gap = lambda_a - lambda;
                    if gap.abs() < 1e-9 {
                        return None;
                    }
                    (stable + off, (1.0 - lambda) * a0 * lambda_a / gap)
                }
            };
            self.jump_s[r] = s_r;
            self.jump_a[r] = t_r - s_r - kcoef;
            self.jump_k[r] = kcoef;
        }
        // A horizon is licensed when every row's exact range stays in the
        // band and the rule's per-axis region certificate over the traced
        // maxima, widened by the shadowing guard on both sides, names the
        // frozen plan itself. The device axes trace independent ranges, so
        // a wide buffer swing does not inflate the DRAM range across a
        // threshold it never approaches. Naming the plan (not just proving
        // the decision unchanging over the range) matters: if the
        // trajectory crossed a boundary during the very window that
        // scheduled the probe, the whole traced range sits on the far side
        // and a jump would freeze the stale plan across a flip the literal
        // path takes immediately. The λ-powers are computed once per layer
        // (rows of layer `l` are `l, l + depth, …`); the per-kind maxima
        // are order-independent, so the layer-major scan changes no bits.
        let (rows, depth, has_buffer) = (self.rows_t.len(), self.depth, self.has_buffer);
        let licensed = |n: u64| -> bool {
            let nf = n as f64;
            let (mut buf_lo, mut buf_hi) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            let (mut dram_lo, mut dram_hi) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            let pow_a = (nf * self.ln_a).exp();
            for (l, &ln) in self.ln_l.iter().enumerate() {
                let pow_l = (nf * ln).exp();
                for r in (l..rows).step_by(depth) {
                    let (t_end, lo_f, hi_f) =
                        env_row_range(self.jump_a[r], self.jump_k[r], ln, self.ln_a, pow_l, pow_a, nf);
                    let (lo_r, hi_r) = (self.jump_s[r] + lo_f, self.jump_s[r] + hi_f);
                    if !(t_end.is_finite() && self.band.lo[r] <= lo_r && hi_r <= self.band.hi[r]) {
                        return false;
                    }
                    match self.kinds[l] {
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
            let dram_span = (dram_hi - dram_lo) + 2.0 * ENV_FP_GUARD_C;
            let amb_span = if has_buffer { (buf_hi - buf_lo) + 2.0 * ENV_FP_GUARD_C } else { 0.0 };
            if !(dram_span.is_finite() && amb_span.is_finite()) {
                return false;
            }
            let amb_lo = if has_buffer { buf_lo - ENV_FP_GUARD_C } else { f64::NAN };
            let dram_lo = dram_lo - ENV_FP_GUARD_C;
            rule.region(amb_lo, dram_lo, amb_lo + amb_span, dram_lo + dram_span).as_ref() == Some(&e.state.plan)
        };
        let n = licensed_horizon(n0, n_max, licensed)?;
        // A certificate-limited horizon marks a chattering cell: the plan
        // flips right past the jump, so future runs re-arm fast instead of
        // paying [`ENV_JUMP_MIN`] literal windows per chatter half-cycle.
        if n < n_max {
            self.arm = 2;
        }
        Some(Jump { n, ambient })
    }

    /// Applies a licensed jump: literal time and decision-clock additions
    /// (exact window counts), the booking of its `m` plain windows, then
    /// the temperatures — in closed form ([`Burst::close_rows`]), or
    /// stepped literally for a policy that integrates its observations
    /// ([`Burst::step_rows`]) — and the re-prime.
    fn apply_jump(&mut self, st: &mut CellState<'_>, cfg: &MemSpotConfig, jump: Jump) {
        let mut m: u64 = 0;
        while m < jump.n && st.time_s < cfg.max_sim_time_s {
            st.time_s += st.step_s;
            st.next_dtm_s += cfg.dtm_interval_s;
            m += 1;
        }
        self.entries[self.cur].book(st, m, 0);
        let seen = if self.integrates { self.step_rows(st, m) } else { self.close_rows(st, jump, m) };
        let _replanned = reprime(st, &seen[2 - m.min(2) as usize..], cfg.dtm_interval_s);
        debug_assert_eq!(
            _replanned.as_ref(),
            Some(&self.entries[self.cur].state.plan),
            "re-prime left the frozen plan"
        );
        st.plan_streak = st.plan_streak.saturating_add(m.min(u64::from(u32::MAX)) as u32);
        self.run += m;
        self.next_attempt = self.run;
        self.windows += m;
        self.jumps += 1;
    }

    /// A jump's `m` windows stepped literally for a policy that integrates
    /// its observations: it must keep seeing bit-exact maxima, so the
    /// windows keep the literal ambient step and RC sweep (the burst
    /// window's float ops in a lean row loop); only the decisions, the
    /// accounting and the per-window maxima are skipped. Returns the maxima
    /// the skipped decisions saw at jump offsets m − 2 and m − 1, oldest
    /// first (offset 0 is the current maxima), for the re-prime.
    fn step_rows(&mut self, st: &mut CellState<'_>, m: u64) -> [(f64, f64); 2] {
        let e = &self.entries[self.cur];
        let rows = self.rows_t.len();
        let alpha: Vec<f64> = (0..rows).map(|r| self.alphas[r % self.depth]).collect();
        let mut high = vec![f64::NEG_INFINITY; rows];
        let (sa, sb) = (&e.stab_a[..rows], &e.stab_b[..rows]);
        let mut seen = [self.obs; 2];
        for k in 1..=m {
            let amb = st.scene.step_ambient(e.state.window.v_ipc, self.ambient_alpha);
            st.ambient_sum += st.scene.ambient_c();
            let rows = self.rows_t.iter_mut().zip(high.iter_mut()).zip(&alpha).enumerate();
            if self.identity_split {
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
                seen = [seen[1], self.maxima(&self.rows_t)];
            }
        }
        for (p, &h) in self.peaks.iter_mut().zip(&high) {
            *p = p.max(h);
        }
        let (buf, dram) = self.maxima(&high);
        st.max_amb = st.max_amb.max(buf);
        st.max_dram = st.max_dram.max(dram);
        self.obs = self.maxima(&self.rows_t);
        seen
    }

    /// A jump's `m` windows in closed form: the ambient's endpoint and
    /// running sum from the geometric series, each row's endpoint with its
    /// in-segment extremes folded into peaks and maxima. Returns the maxima
    /// at jump offsets m − 2 and m − 1, as [`Burst::step_rows`] does.
    fn close_rows(&mut self, st: &mut CellState<'_>, jump: Jump, m: u64) -> [(f64, f64); 2] {
        let (rows, depth) = (self.rows_t.len(), self.depth);
        let maxima_at = |k: u64| -> (f64, f64) {
            if k == 0 {
                return self.obs;
            }
            let kf = k as f64;
            let pow_a = (kf * self.ln_a).exp();
            let (mut buf, mut dram) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for (l, &ln) in self.ln_l.iter().enumerate() {
                let pow_l = (kf * ln).exp();
                for r in (l..rows).step_by(depth) {
                    let t = self.jump_s[r] + (self.jump_a[r] * pow_l + self.jump_k[r] * pow_a);
                    match self.kinds[l] {
                        DeviceLayerKind::Buffer => buf = buf.max(t),
                        DeviceLayerKind::Dram => dram = dram.max(t),
                    }
                }
            }
            (if self.has_buffer { buf } else { f64::NAN }, dram)
        };
        let seen = [maxima_at(m.saturating_sub(2)), maxima_at(m - 1)];
        let mf = m as f64;
        st.ambient_sum += match jump.ambient {
            None => st.scene.ambient_c() * mf,
            Some((stable, a0)) => st.scene.ambient_segment_moments(stable, a0, 1.0 - self.ambient_alpha, mf),
        };
        let (mut end_buf, mut end_dram) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let (mut peak_buf, mut peak_dram) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let pow_a = (mf * self.ln_a).exp();
        for (l, &ln) in self.ln_l.iter().enumerate() {
            let pow_l = (mf * ln).exp();
            for r in (l..rows).step_by(depth) {
                let (t_end, _, hi_f) = env_row_range(self.jump_a[r], self.jump_k[r], ln, self.ln_a, pow_l, pow_a, mf);
                let t = self.jump_s[r] + t_end;
                let hi = self.jump_s[r] + hi_f;
                self.rows_t[r] = t;
                self.peaks[r] = self.peaks[r].max(hi);
                match self.kinds[l] {
                    DeviceLayerKind::Buffer => {
                        end_buf = end_buf.max(t);
                        peak_buf = peak_buf.max(hi);
                    }
                    DeviceLayerKind::Dram => {
                        end_dram = end_dram.max(t);
                        peak_dram = peak_dram.max(hi);
                    }
                }
            }
        }
        st.max_amb = st.max_amb.max(if self.has_buffer { peak_buf } else { f64::NAN });
        st.max_dram = st.max_dram.max(peak_dram);
        self.obs = (if self.has_buffer { end_buf } else { f64::NAN }, end_dram);
        seen
    }

    /// The burst's one exit: flushes the per-entry residency and the
    /// burst's counters into the cell, then either finishes the cell (scene
    /// synced, result folded) or hands it back to the lane — the lane
    /// column, the plan state and this window's overhead restored and the
    /// trigger backed off — so literal stepping continues seamlessly from
    /// [`member_pre`]'s accounting of the decided window.
    fn exit(
        mut self,
        lane: &mut Lane,
        j: usize,
        st: &mut CellState<'_>,
        engine: &SimEngine<'_>,
        exit: BurstExit,
    ) -> Option<(MemSpotResult, CellRunStats)> {
        for e in &self.entries {
            if e.residency_s > 0.0 {
                *st.residency.entry(e.state.mode_key).or_insert(0.0) += e.residency_s;
            }
        }
        st.stats.fast_forwarded_windows += self.windows;
        st.stats.envelope_cycles += self.jumps;
        st.stats.replay_ns += self.started.elapsed().as_nanos() as u64;
        match exit {
            BurstExit::Finished => {
                st.scene.set_layer_temps(&self.rows_t);
                st.scene.set_layer_peaks(&self.peaks);
                Some(finalize(st, engine))
            }
            BurstExit::HandBack { overheaded } => {
                for (r, (&t, &p)) in self.rows_t.iter().zip(&self.peaks).enumerate() {
                    lane.temps[r * lane.stride + j] = t;
                    lane.peaks[r * lane.stride + j] = p;
                }
                st.active = self.entries.swap_remove(self.cur).state;
                st.overhead_s = if overheaded { engine.config.dtm_overhead_s } else { 0.0 };
                lane.write_power_column(j, &st.active.window.positions, st.scene.topology());
                env_back_off(st);
                st.stats.envelope_fallbacks += 1;
                None
            }
        }
    }
}

/// The envelope burst: takes a cell whose trajectory is confined to `band`
/// out of the lane and runs the burst stages (module docs, "Burst stages")
/// until the cell finishes (`Some(result)`) or goes back to the lane
/// (`None`) with its current window decided.
fn envelope_burst(
    lane: &mut Lane,
    j: usize,
    st: &mut CellState<'_>,
    engine: &SimEngine<'_>,
    band: EnvBand,
) -> Option<(MemSpotResult, CellRunStats)> {
    let mut burst = Burst::new(lane, j, st, engine, band);
    let exit = loop {
        if let Some(exit) = burst.literal_window(st, engine) {
            break exit;
        }
        if burst.violated {
            continue;
        }
        if burst.run >= burst.next_attempt {
            burst.frozen_jump(st, engine);
        } else if burst.windows >= burst.chatter_next {
            burst.replay(st, engine);
        } else {
            continue;
        }
        if st.done(engine.config) {
            break BurstExit::Finished;
        }
    };
    burst.exit(lane, j, st, engine, exit)
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

    /// The horizon search as it stood inline in the envelope burst before
    /// it became [`licensed_horizon`]: the reference for its probe sequence.
    fn inline_horizon_search(n0: u64, n_max: u64, licensed: &mut dyn FnMut(u64) -> bool) -> Option<u64> {
        let mut n = n0;
        let ok = if licensed(n0) {
            if n0 < n_max {
                if licensed(n_max) {
                    n = n_max;
                } else {
                    let (mut lo, mut hi) = (n0, n_max);
                    while hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        if licensed(mid) {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    n = lo;
                }
            }
            true
        } else if n0 > 1 && licensed(1) {
            let (mut lo, mut hi) = (1u64, n0);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if licensed(mid) {
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
        ok.then_some(n)
    }

    #[test]
    fn horizon_search_probes_exactly_like_the_inline_search() {
        // Seeded predicates: monotone thresholds (licensing as it holds in
        // real arithmetic), thresholds with rounding-like holes below them
        // and arbitrary non-monotone sets. The helper must return the same
        // horizon after the same probes, in the same order.
        let mut rng = workloads::rng::SmallRng::seed_from_u64(0x0B0_2026);
        let mut non_monotone_hits = 0;
        for case in 0..30_000u64 {
            let n_max = match case % 3 {
                0 => rng.gen_range(1..4u64),
                1 => rng.gen_range(1..100u64),
                _ => rng.gen_range(1..1_000_000u64),
            };
            let n0 = rng.gen_range(1..n_max + 1);
            let threshold = rng.gen_range(0..n_max + 2);
            let salt = rng.next_u64() | 1;
            let licensed = |n: u64| -> bool {
                let hash = (n ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
                match case % 4 {
                    0 => n <= threshold,
                    1 => n <= threshold && hash != 0,
                    2 => hash < 8,
                    _ => n <= threshold || hash == 0,
                }
            };
            let (mut got_probes, mut want_probes) = (Vec::new(), Vec::new());
            let got = licensed_horizon(n0, n_max, |n| {
                got_probes.push(n);
                licensed(n)
            });
            let want = inline_horizon_search(n0, n_max, &mut |n| {
                want_probes.push(n);
                licensed(n)
            });
            assert_eq!(got, want, "n0 {n0}, n_max {n_max}, case {case}: horizon");
            assert_eq!(got_probes, want_probes, "n0 {n0}, n_max {n_max}, case {case}: probes");
            if let Some(n) = got {
                assert!((1..=n_max).contains(&n));
                non_monotone_hits += usize::from(case % 4 != 0 && !(1..=n).all(licensed));
            }
        }
        assert!(non_monotone_hits > 1_000, "only {non_monotone_hits} non-monotone licences exercised");
    }

    /// The three bookings [`EnvPlanEntry::book`] replaced, as they stood
    /// inline in the envelope burst (ambient sums aside, which each caller
    /// still adds itself): a burst window, a replay segment's occupancy
    /// counts and a frozen jump.
    fn inline_burst_window(st: &mut CellState<'_>, e: &mut EnvPlanEntry, overheaded: bool) {
        let step = st.step_s;
        if e.state.progressing {
            let a = &e.amounts[usize::from(overheaded)];
            st.total_instructions += a.instr;
            st.total_bytes += a.bytes;
            st.total_misses += a.misses;
            st.migrated_bytes += a.migrated;
            for core in 0..a.retires.len() {
                if st.full_shares[core] > 0.0 {
                    st.batch.retire(core, a.retires[core]);
                }
            }
        }
        st.energy.add(e.state.window.mem_w, e.state.window.cpu_w, step);
        st.ambient_samples += 1;
        for (channel, &thr) in e.throttled.iter().enumerate() {
            if thr {
                st.channel_throttle_s[channel] += step;
            }
        }
        e.residency_s += step;
    }

    fn inline_replay_booking(st: &mut CellState<'_>, e: &mut EnvPlanEntry, c: u64, coh: u64) {
        let step = st.step_s;
        let (cf, cohf) = (c as f64, coh as f64);
        let totf = cf + cohf;
        let [p, o] = &e.amounts;
        e.residency_s += step * totf;
        if e.state.progressing {
            st.total_instructions += p.instr * cf + o.instr * cohf;
            st.total_bytes += p.bytes * cf + o.bytes * cohf;
            st.total_misses += p.misses * cf + o.misses * cohf;
            st.migrated_bytes += p.migrated * cf + o.migrated * cohf;
            for core in 0..p.retires.len() {
                if st.full_shares[core] > 0.0 {
                    let n = p.retires[core] * c + o.retires[core] * coh;
                    if n > 0 {
                        st.batch.retire(core, n);
                    }
                }
            }
        }
        st.energy.add(e.state.window.mem_w, e.state.window.cpu_w, step * totf);
        for (channel, &thr) in e.throttled.iter().enumerate() {
            if thr {
                st.channel_throttle_s[channel] += step * totf;
            }
        }
        st.ambient_samples += c + coh;
    }

    fn inline_jump_booking(st: &mut CellState<'_>, e: &mut EnvPlanEntry, m: u64) {
        let step = st.step_s;
        let mf = m as f64;
        let p = &e.amounts[0];
        if e.state.progressing {
            st.total_instructions += p.instr * mf;
            st.total_bytes += p.bytes * mf;
            st.total_misses += p.misses * mf;
            st.migrated_bytes += p.migrated * mf;
            for core in 0..p.retires.len() {
                if st.full_shares[core] > 0.0 && p.retires[core] > 0 {
                    st.batch.retire(core, p.retires[core] * m);
                }
            }
        }
        st.energy.add(e.state.window.mem_w, e.state.window.cpu_w, step * mf);
        for (channel, &thr) in e.throttled.iter().enumerate() {
            if thr {
                st.channel_throttle_s[channel] += step * mf;
            }
        }
        st.ambient_samples += m;
        e.residency_s += step * mf;
    }

    #[test]
    fn booking_matches_the_three_inline_bookings_bit_for_bit() {
        // Two identical cells, one booked through the inline expressions and
        // one through `book`, over a scalar plan and a spatial plan that
        // throttles a channel and migrates traffic, with (1, 0), (0, 1),
        // (m, 0) and (c, coh) window counts interleaved. Every accumulator
        // `book` touches must carry the same bits after every booking.
        let (cpu, mem, power, cpu_power) = hardware();
        let store = Arc::new(CharStore::new());
        let config = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
        let engine = SimEngine::new(&cpu, &mem, &power, &cpu_power, &config);
        let new_state = || {
            let cell =
                BatchCell::new(&cpu, &mem, config, mixes::w1(), Box::new(NoLimit::new(&cpu)), Arc::clone(&store));
            CellState::new(cell, &engine, &BatchOptions::literal())
        };
        let (mut inline, mut booked) = (new_state(), new_state());
        let full = RunningMode::full_speed(&cpu);
        let positions = mem.logical_channels * mem.dimms_per_channel;
        let plans = [
            ActuationPlan::global(full),
            ActuationPlan::global(full)
                .with_channel_service(vec![0.5, 1.0])
                .with_steering((0..positions).map(|p| 1.0 + p as f64).collect()),
        ];
        let depth = inline.scene.depth();
        let mut inline_entries: Vec<EnvPlanEntry> =
            plans.iter().map(|p| env_build_entry(&mut inline, &engine, p.clone(), depth)).collect();
        let mut booked_entries: Vec<EnvPlanEntry> =
            plans.iter().map(|p| env_build_entry(&mut booked, &engine, p.clone(), depth)).collect();
        let spatial = &inline_entries[1];
        assert!(spatial.state.progressing && spatial.amounts[0].migrated > 0.0, "the spatial plan must migrate");
        assert!(spatial.throttled.contains(&true), "the spatial plan must throttle a channel");
        assert_ne!(spatial.amounts[0].instr.to_bits(), spatial.amounts[1].instr.to_bits());
        let snapshot = |st: &CellState<'_>, e: &EnvPlanEntry| {
            format!(
                "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?}",
                st.total_instructions,
                st.total_bytes,
                st.total_misses,
                st.migrated_bytes,
                st.energy,
                st.channel_throttle_s,
                st.batch,
                st.ambient_samples,
                e.residency_s
            )
        };
        for round in 0..40u64 {
            let i = (round % 2) as usize;
            let (a, b) = (&mut inline_entries[i], &mut booked_entries[i]);
            let (plain, overheaded) = match round % 4 {
                0 => {
                    inline_burst_window(&mut inline, a, false);
                    (1, 0)
                }
                1 => {
                    inline_burst_window(&mut inline, a, true);
                    (0, 1)
                }
                2 => {
                    let m = 1_500 + round;
                    inline_jump_booking(&mut inline, a, m);
                    (m, 0)
                }
                _ => {
                    let (c, coh) = (900 + round, 45 + round / 2);
                    inline_replay_booking(&mut inline, a, c, coh);
                    (c, coh)
                }
            };
            b.book(&mut booked, plain, overheaded);
            assert_eq!(
                snapshot(&booked, b),
                snapshot(&inline, a),
                "round {round}: book({plain}, {overheaded}) diverged from the inline booking"
            );
        }
        assert!(inline.batch.status().completed_copies > 0, "no job copy completed: the retires went untested");
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
