//! The window-stepping core of the second-level simulator.
//!
//! This is the first of the simulator's three execution tiers:
//!
//! 1. **Per-cell stepping** (this module): one [`SimEngine`] advances one
//!    design point window by window. It is the reference semantics — every
//!    other tier is defined as "bit-identical to this loop" — and the right
//!    tool for a single run or when a policy needs bespoke instrumentation.
//! 2. **Batched lockstep** ([`crate::sim::batch`]): many independent cells
//!    share one row-major temperature matrix and advance in lockstep lanes,
//!    turning the per-window RC update into contiguous row sweeps. Lanes
//!    never interact, so this is bit-identical to tier 1. The sweep harness
//!    runs every grid this way, one batch per claimed chunk of cells on its
//!    worker's thread; `BatchedSimEngine::run_with_workers` can also fan one
//!    batch's lanes across OS threads, equally bit-identical.
//! 3. **Contraction-certified envelope** (opt-in on the batched tier):
//!    frozen plans and the plan-changing orbits of threshold policies —
//!    exact limit cycles, slipping orbits, sliding-mode chatter — are
//!    replayed under contraction certificates and exact decision replay.
//!    It stays within 1e-9 of literal stepping rather than bit-identical.
//!
//! [`SimEngine`] owns the inner loop MEMSpot used to inline: every window it
//! converts the current design point's per-DIMM traffic into per-position
//! power (Eqs. 3.1–3.2), advances the stack-resolved [`DimmThermalScene`]
//! (Eqs. 3.3–3.6, with each position's power split over the configured
//! [`StackKind`](crate::thermal::params::StackKind)'s layers), integrates
//! energy and batch progress, and at every DTM interval hands the active
//! policy a
//! [`ThermalObservation`](crate::thermal::scene::ThermalObservation) — the
//! full sensed per-position, per-layer temperature field with the hottest
//! devices derived by arg-max — and receives an
//! [`ActuationPlan`] back. Scalar plans
//! (global mode only) take the legacy code path bit-identically; spatial
//! plans steer the design point's traffic across positions and throttle
//! individual channels ([`ActuationPlan::apply_traffic_into`]), so
//! asymmetric throttling shows up as asymmetric heat, batch progress scales
//! with the served traffic fraction, and the result gains per-channel
//! throttle residency plus the total migrated traffic.
//!
//! The loop is allocation-free at steady state for any stack depth: the
//! scene steps with precomputed per-layer RC decay coefficients (no
//! per-window `exp()`, `depth + 1` of them cached per distinct step
//! length), one scratch observation buffer is refilled per DTM interval,
//! the idle-power vector is computed once per run, the planned-traffic grid
//! is a scratch buffer rebuilt only when the plan or design point changes,
//! and mode residency is keyed by the quantized [`ModeKey`] (stringified
//! once per distinct mode after the run) instead of formatting a `String`
//! every step.
//!
//! [`MemSpot`](crate::sim::memspot::MemSpot) remains the public facade; it
//! handles characterization-table caching and delegates each run here.

use std::collections::BTreeMap;
use std::sync::Arc;

use cpu_model::{CpuConfig, PaperCpuPower, ProcessorPowerModel, RunningMode};
use fbdimm_sim::{DimmTraffic, FbdimmConfig};
use workloads::{BatchJob, WorkloadMix};

use crate::dtm::plan::{ActuationPlan, PlanTrafficStats};
use crate::dtm::policy::DtmPolicy;
use crate::power::fbdimm::{FbdimmPowerBreakdown, FbdimmPowerModel};
use crate::sim::characterize::{CharPoint, CharacterizationTable, ModeKey};
use crate::sim::energy::EnergyAccumulator;
use crate::sim::memspot::{MemSpotConfig, MemSpotResult, PositionPeak, TempSample};
use crate::thermal::params::AmbientParams;
use crate::thermal::scene::DimmThermalScene;

/// Power draw of one simulation window. Shared with the batched tier
/// ([`crate::sim::batch`]), which rebuilds it through the same
/// [`SimEngine::window_power`] so both tiers carry identical bits.
#[derive(Debug, Clone)]
pub(crate) struct WindowPower {
    /// Per-position device powers, in scene order.
    pub(crate) positions: Vec<FbdimmPowerBreakdown>,
    /// Total memory-subsystem power, watts.
    pub(crate) mem_w: f64,
    /// Processor power, watts.
    pub(crate) cpu_w: f64,
    /// Σ(V·IPC) processor activity term of Eq. 3.6.
    pub(crate) v_ipc: f64,
}

/// The window-stepping simulation core.
#[derive(Debug)]
pub struct SimEngine<'a> {
    pub(crate) cpu: &'a CpuConfig,
    pub(crate) mem: &'a FbdimmConfig,
    power: &'a FbdimmPowerModel,
    cpu_power: &'a PaperCpuPower,
    pub(crate) config: &'a MemSpotConfig,
}

impl<'a> SimEngine<'a> {
    /// Borrows the hardware and run configuration for one or more runs.
    ///
    /// # Panics
    ///
    /// Panics if [`MemSpotConfig::validate`] rejects the configuration
    /// (e.g. a window or DTM cadence below [`MemSpotConfig::MIN_STEP_S`]).
    pub fn new(
        cpu: &'a CpuConfig,
        mem: &'a FbdimmConfig,
        power: &'a FbdimmPowerModel,
        cpu_power: &'a PaperCpuPower,
        config: &'a MemSpotConfig,
    ) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid MemSpotConfig: {e}"));
        SimEngine { cpu, mem, power, cpu_power, config }
    }

    /// Builds the thermal scene the run steps: one RC node **stack** per
    /// DIMM position (the configured [`StackKind`]'s topology), under the
    /// configured ambient model.
    ///
    /// [`StackKind`]: crate::thermal::params::StackKind
    pub fn make_scene(&self) -> DimmThermalScene {
        let mut params = if self.config.integrated {
            let mut p = AmbientParams::integrated(&self.config.cooling);
            if let Some(degree) = self.config.interaction_degree {
                p = p.with_interaction_degree(degree);
            }
            p
        } else {
            AmbientParams::isolated(&self.config.cooling)
        };
        if let Some(inlet) = self.config.ambient_override_c {
            params.system_inlet_c = inlet;
        }
        DimmThermalScene::with_topology(
            self.mem.logical_channels,
            self.mem.dimms_per_channel,
            self.config.cooling,
            self.config.limits,
            params,
            self.config.stack.topology(&self.config.cooling),
        )
    }

    /// Idle power for every position, in scene order — the single encoding
    /// of the "last DIMM of each channel uses the `is_last` AMB
    /// coefficient" rule.
    pub(crate) fn idle_powers(&self) -> Vec<FbdimmPowerBreakdown> {
        (0..self.mem.logical_channels)
            .flat_map(|_| (0..self.mem.dimms_per_channel).map(|d| d + 1 == self.mem.dimms_per_channel))
            .map(|is_last| self.power.idle_dimm_power(is_last))
            .collect()
    }

    /// Per-position power for a per-DIMM traffic split, in scene order —
    /// either a design point's natural split or the grid an
    /// [`ActuationPlan`] produced from it. Positions the split carries no
    /// traffic for draw idle power. `idle` is the run's cached
    /// [`SimEngine::idle_powers`] vector.
    fn position_powers(
        &self,
        scene: &DimmThermalScene,
        idle: &[FbdimmPowerBreakdown],
        traffic: &[DimmTraffic],
    ) -> Vec<FbdimmPowerBreakdown> {
        let mut powers = idle.to_vec();
        for (d, p) in traffic.iter().zip(self.power.scene_power_from_traffic(traffic, self.mem.dimms_per_channel)) {
            if let Some(idx) = scene.position_index(d.channel, d.dimm) {
                powers[idx] = p;
            }
        }
        powers
    }

    pub(crate) fn window_power(
        &self,
        scene: &DimmThermalScene,
        idle: &[FbdimmPowerBreakdown],
        point: &CharPoint,
        traffic: &[DimmTraffic],
        mode: &RunningMode,
        progressing: bool,
    ) -> WindowPower {
        let positions = if progressing { self.position_powers(scene, idle, traffic) } else { idle.to_vec() };
        let mem_w: f64 =
            positions.iter().map(FbdimmPowerBreakdown::total_watts).sum::<f64>() * self.mem.phys_per_logical as f64;
        let (cpu_w, v_ipc) = if progressing {
            (self.cpu_power.power_watts(mode.active_cores, &mode.op), mode.op.voltage * point.ipc_ref_sum)
        } else {
            (self.cpu_power.halted_watts(), 0.0)
        };
        WindowPower { positions, mem_w, cpu_w, v_ipc }
    }

    /// Runs one workload mix under one DTM policy to batch completion (or
    /// the safety stop) and returns the aggregate result.
    pub fn run(
        &self,
        table: &mut CharacterizationTable,
        mix: &WorkloadMix,
        policy: &mut dyn DtmPolicy,
    ) -> MemSpotResult {
        let mut batch =
            BatchJob::new(mix.clone(), self.config.copies_per_app, self.cpu.cores, self.config.instruction_scale);
        let mut scene = self.make_scene();
        let mut energy = EnergyAccumulator::new();

        // Per-core instruction shares taken from the full-speed point; used
        // to distribute aggregate progress over the cores regardless of how
        // many cores the current mode keeps active (DTM-ACG rotates the gated
        // cores round-robin for fairness, so on average all applications
        // advance).
        let full_mode = RunningMode::full_speed(self.cpu);
        let full_point = table.point(&full_mode);
        let full_shares = full_point.core_share.clone();

        // Run-constant hot-loop state: the idle-power vector (scene order),
        // the scratch observation buffer refilled at each DTM interval, and
        // the planned-traffic grid rebuilt only when a spatial plan (or its
        // design point) changes.
        let idle = self.idle_powers();
        let mut observation = scene.observe();
        let mut plan_traffic: Vec<DimmTraffic> = Vec::new();
        let mut plan_stats = PlanTrafficStats::identity();
        let channels = self.mem.logical_channels;

        // Both cadences are validated ≥ MIN_STEP_S at construction, so the
        // step is never clamped away from the configured DTM cadence.
        let step_s = self.config.window_s.min(self.config.dtm_interval_s);
        let mut time_s = 0.0f64;
        let mut next_dtm_s = 0.0f64;
        let mut next_trace_s = 0.0f64;
        let mut plan = ActuationPlan::global(full_mode);
        let mut mode = full_mode;
        let mut mode_key = ModeKey::from_mode(&mode);
        let mut point: Arc<CharPoint> = full_point;
        let mut progressing = mode.makes_progress() && point.instr_rate_total > 0.0;
        let mut window = self.window_power(&scene, &idle, &point, &point.dimm_traffic, &mode, progressing);

        let mut total_instructions = 0.0f64;
        let mut total_bytes = 0.0f64;
        let mut total_misses = 0.0f64;
        let mut migrated_bytes = 0.0f64;
        let mut channel_throttle_s = vec![0.0f64; channels];
        let (mut max_amb, mut max_dram) = scene.max_temps_c();
        let mut ambient_sum = 0.0f64;
        let mut ambient_samples = 0u64;
        let mut residency: BTreeMap<ModeKey, f64> = BTreeMap::new();
        let mut trace = Vec::new();

        policy.reset();

        while !batch.is_complete() && time_s < self.config.max_sim_time_s {
            // DTM decision at the configured interval, on the full sensed
            // temperature field. Scalar plans change only when their mode
            // changes, so the legacy policies charge overhead (and recompute
            // window power) exactly as often as before the plan refactor.
            let mut overhead_s = 0.0;
            if time_s + 1e-12 >= next_dtm_s {
                scene.observe_into(&mut observation);
                let new_plan = policy.decide(&observation, self.config.dtm_interval_s);
                if new_plan != plan {
                    overhead_s = self.config.dtm_overhead_s;
                    if new_plan.mode != mode {
                        mode = new_plan.mode;
                        mode_key = ModeKey::from_mode(&mode);
                        point = table.point(&mode);
                        progressing = mode.makes_progress() && point.instr_rate_total > 0.0;
                    }
                    plan = new_plan;
                    if plan.is_scalar() {
                        plan_stats = PlanTrafficStats::identity();
                        window = self.window_power(&scene, &idle, &point, &point.dimm_traffic, &mode, progressing);
                    } else {
                        plan_stats = plan.apply_traffic_into(
                            &point.dimm_traffic,
                            channels,
                            self.mem.dimms_per_channel,
                            &mut plan_traffic,
                        );
                        window = self.window_power(&scene, &idle, &point, &plan_traffic, &mode, progressing);
                    }
                }
                next_dtm_s += self.config.dtm_interval_s;
            }

            let effective_s = (step_s - overhead_s).max(0.0);

            // Advance batch progress and traffic statistics; per-channel
            // service fractions scale progress by the served traffic share
            // (`service_scale` is exactly 1.0 for scalar plans, so the
            // legacy trajectories carry identical bits).
            if progressing {
                let instr = point.instr_rate_total * plan_stats.service_scale * effective_s;
                total_instructions += instr;
                total_bytes += point.total_gbps() * plan_stats.service_scale * 1e9 * effective_s;
                total_misses += point.l2_misses_per_instr * instr;
                migrated_bytes += plan_stats.migrated_gbps * 1e9 * effective_s;
                for core in 0..self.cpu.cores {
                    let share = full_shares.get(core).copied().unwrap_or(0.0);
                    if share > 0.0 {
                        batch.retire(core, (instr * share) as u64);
                    }
                }
            }

            scene.step(&window.positions, window.v_ipc, step_s);
            energy.add(window.mem_w, window.cpu_w, step_s);

            let (amb_now, dram_now) = scene.max_temps_c();
            max_amb = max_amb.max(amb_now);
            max_dram = max_dram.max(dram_now);
            ambient_sum += scene.ambient_c();
            ambient_samples += 1;
            *residency.entry(mode_key).or_insert(0.0) += step_s;
            for (channel, throttled_s) in channel_throttle_s.iter_mut().enumerate() {
                if plan.throttles_channel(channel) {
                    *throttled_s += step_s;
                }
            }

            if self.config.record_temp_trace && time_s + 1e-12 >= next_trace_s {
                trace.push(TempSample {
                    time_s,
                    amb_c: amb_now,
                    dram_c: dram_now,
                    ambient_c: scene.ambient_c(),
                    active_cores: mode.active_cores,
                    freq_ghz: mode.op.freq_ghz,
                });
                next_trace_s += self.config.temp_trace_interval_s;
            }

            time_s += step_s;
        }

        let totals = RunTotals {
            completed: batch.is_complete(),
            time_s,
            total_instructions,
            total_bytes,
            total_misses,
            migrated_bytes,
            max_amb,
            max_dram,
            ambient_sum,
            ambient_samples,
            residency,
            trace,
            channel_throttle_s,
        };
        assemble_result(mix, self.config, policy, &scene, &energy, totals)
    }
}

/// Per-run accumulators the window loop produces, independent of which
/// execution tier (per-cell or batched) ran it. Handed to
/// [`assemble_result`] so both tiers share one result-assembly path.
#[derive(Debug)]
pub(crate) struct RunTotals {
    pub(crate) completed: bool,
    pub(crate) time_s: f64,
    pub(crate) total_instructions: f64,
    pub(crate) total_bytes: f64,
    pub(crate) total_misses: f64,
    pub(crate) migrated_bytes: f64,
    pub(crate) max_amb: f64,
    pub(crate) max_dram: f64,
    pub(crate) ambient_sum: f64,
    pub(crate) ambient_samples: u64,
    pub(crate) residency: BTreeMap<ModeKey, f64>,
    pub(crate) trace: Vec<TempSample>,
    pub(crate) channel_throttle_s: Vec<f64>,
}

/// Folds a finished run's accumulators and the scene's peak field into a
/// [`MemSpotResult`]. Labels are derived from the quantized mode key exactly
/// once per distinct mode; distinct keys that render identically
/// (sub-0.1-unit differences) merge by summing their residency.
pub(crate) fn assemble_result(
    mix: &WorkloadMix,
    config: &MemSpotConfig,
    policy: &dyn DtmPolicy,
    scene: &DimmThermalScene,
    energy: &EnergyAccumulator,
    totals: RunTotals,
) -> MemSpotResult {
    let elapsed = energy.elapsed_s().max(1e-9);
    let mut mode_residency: BTreeMap<String, f64> = BTreeMap::new();
    for (key, secs) in totals.residency {
        *mode_residency.entry(mode_label_from_key(&key)).or_insert(0.0) += secs / elapsed;
    }

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

    MemSpotResult {
        workload: mix.id.clone(),
        stack: config.stack.label(),
        policy: policy.name(),
        scheme: policy.scheme(),
        completed: totals.completed,
        running_time_s: totals.time_s,
        total_instructions: totals.total_instructions,
        total_memory_bytes: totals.total_bytes,
        total_l2_misses: totals.total_misses,
        memory_energy_j: energy.memory_joules(),
        cpu_energy_j: energy.cpu_joules(),
        avg_memory_power_w: energy.avg_memory_watts(),
        avg_cpu_power_w: energy.avg_cpu_watts(),
        avg_ambient_c: if totals.ambient_samples == 0 {
            0.0
        } else {
            totals.ambient_sum / totals.ambient_samples as f64
        },
        max_amb_c: totals.max_amb,
        max_dram_c: totals.max_dram,
        mode_residency,
        temp_trace: totals.trace,
        position_peaks,
        channel_throttle_residency: totals.channel_throttle_s.iter().map(|&s| s / elapsed).collect(),
        migrated_traffic_bytes: totals.migrated_bytes,
    }
}

/// Human-readable label of a quantized running mode. Quantization-equivalent
/// modes map to one [`ModeKey`] and therefore to one label; the window loop
/// only stringifies each distinct key once, after the run.
fn mode_label_from_key(key: &ModeKey) -> String {
    if !key.makes_progress() {
        return "off".to_string();
    }
    let freq_ghz = key.freq_mhz as f64 / 1000.0;
    match key.cap_mbps {
        u32::MAX => format!("{}c@{:.1}GHz/nolimit", key.active_cores, freq_ghz),
        cap => format!("{}c@{:.1}GHz/{:.1}GB/s", key.active_cores, freq_ghz, cap as f64 / 1000.0),
    }
}

#[cfg(test)]
fn mode_label(mode: &RunningMode) -> String {
    mode_label_from_key(&ModeKey::from_mode(mode))
}

impl FbdimmPowerModel {
    /// Total memory-subsystem power for a characterized design point: the
    /// sum of the per-position `scene_power` breakdowns times the number of
    /// physical DIMMs per position.
    pub fn subsystem_power_watts_from_point(
        &self,
        point: &CharPoint,
        dimms_per_channel: usize,
        phys_per_position: usize,
    ) -> f64 {
        let per_position: f64 = self
            .scene_power_from_traffic(&point.dimm_traffic, dimms_per_channel)
            .iter()
            .map(FbdimmPowerBreakdown::total_watts)
            .sum();
        per_position * phys_per_position as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermal::params::CoolingConfig;
    use workloads::mixes;

    fn config() -> MemSpotConfig {
        MemSpotConfig::tiny(CoolingConfig::aohs_1_5())
    }

    #[test]
    fn engine_scene_matches_the_memory_shape() {
        let cpu = CpuConfig::paper_quad_core();
        let mem = FbdimmConfig::ddr2_667_paper();
        let power = FbdimmPowerModel::paper_defaults();
        let cpu_power = PaperCpuPower::new();
        let cfg = config();
        let engine = SimEngine::new(&cpu, &mem, &power, &cpu_power, &cfg);
        let scene = engine.make_scene();
        assert_eq!(scene.len(), mem.dimm_positions());
        assert_eq!(scene.ambient_c(), cfg.cooling.isolated_ambient_c());
    }

    #[test]
    fn ambient_override_reaches_the_scene() {
        let cpu = CpuConfig::paper_quad_core();
        let mem = FbdimmConfig::ddr2_667_paper();
        let power = FbdimmPowerModel::paper_defaults();
        let cpu_power = PaperCpuPower::new();
        let mut cfg = config();
        cfg.ambient_override_c = Some(36.0);
        let engine = SimEngine::new(&cpu, &mem, &power, &cpu_power, &cfg);
        assert_eq!(engine.make_scene().ambient_c(), 36.0);
    }

    #[test]
    fn progressing_window_power_covers_every_position() {
        let cpu = CpuConfig::paper_quad_core();
        let mem = FbdimmConfig::ddr2_667_paper();
        let power = FbdimmPowerModel::paper_defaults();
        let cpu_power = PaperCpuPower::new();
        let cfg = config();
        let engine = SimEngine::new(&cpu, &mem, &power, &cpu_power, &cfg);
        let scene = engine.make_scene();
        let mut table = CharacterizationTable::new(cpu.clone(), mem, mixes::w1().apps, 15_000);
        let mode = RunningMode::full_speed(&cpu);
        let point = table.point(&mode);
        let w = engine.window_power(&scene, &engine.idle_powers(), &point, &point.dimm_traffic, &mode, true);
        assert_eq!(w.positions.len(), mem.dimm_positions());
        // The window total equals the legacy subsystem accounting.
        let legacy = power.subsystem_power_watts_from_point(&point, mem.dimms_per_channel, mem.phys_per_logical);
        assert!((w.mem_w - legacy).abs() < 1e-9, "window {} vs legacy {}", w.mem_w, legacy);
        assert!(w.cpu_w > 100.0 && w.v_ipc > 0.0);
    }

    #[test]
    fn idle_window_power_matches_the_idle_subsystem() {
        let cpu = CpuConfig::paper_quad_core();
        let mem = FbdimmConfig::ddr2_667_paper();
        let power = FbdimmPowerModel::paper_defaults();
        let cpu_power = PaperCpuPower::new();
        let cfg = config();
        let engine = SimEngine::new(&cpu, &mem, &power, &cpu_power, &cfg);
        let scene = engine.make_scene();
        let mut table = CharacterizationTable::new(cpu.clone(), mem, mixes::w1().apps, 15_000);
        let off = RunningMode { active_cores: 0, op: cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) };
        let point = table.point(&off);
        let w = engine.window_power(&scene, &engine.idle_powers(), &point, &point.dimm_traffic, &off, false);
        let legacy =
            power.subsystem_idle_power_watts(mem.logical_channels, mem.dimms_per_channel, mem.phys_per_logical);
        assert!((w.mem_w - legacy).abs() < 1e-9);
        assert_eq!(w.v_ipc, 0.0);
    }

    #[test]
    fn mode_labels_are_stable_across_quantization_equivalent_modes() {
        let cpu = CpuConfig::paper_quad_core();
        let a = RunningMode::full_speed(&cpu).with_bandwidth_cap_gbps(6.4);
        let mut b = a;
        b.bandwidth_cap = Some(6.4e9 + 10.0); // quantizes to the same ModeKey
        assert_eq!(ModeKey::from_mode(&a), ModeKey::from_mode(&b));
        assert_eq!(mode_label(&a), mode_label(&b));
        assert_eq!(mode_label(&a), "4c@3.2GHz/6.4GB/s");

        let mut c = a;
        c.op.freq_ghz += 2e-4; // sub-MHz wobble quantizes away too
        assert_eq!(mode_label(&a), mode_label(&c));

        let full = RunningMode::full_speed(&cpu);
        assert_eq!(mode_label(&full), "4c@3.2GHz/nolimit");
        let off = RunningMode { active_cores: 0, op: cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) };
        assert_eq!(mode_label(&off), "off");
        let shut = full.with_bandwidth_cap_gbps(0.0);
        assert_eq!(mode_label(&shut), "off");
    }
}
