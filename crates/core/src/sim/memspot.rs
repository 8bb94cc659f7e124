//! MEMSpot: the second-level power/thermal simulator (Section 4.3.1).
//!
//! MEMSpot replays a workload mix as a batch job over thousands of simulated
//! seconds in small windows (10 ms by default). Every window it looks up
//! the level-1 characterization of the current running mode, advances batch
//! progress, converts the per-DIMM memory traffic to per-position DRAM/AMB
//! power (Eqs. 3.1–3.2), steps the stack-resolved
//! [`DimmThermalScene`](crate::thermal::scene::DimmThermalScene)
//! (Eqs. 3.3–3.6; the configured
//! [`StackKind`] decides whether each
//! position is an FBDIMM pair, a DDR4/5 rank pair or a 3D stack) and
//! integrates energy. Every DTM interval the active policy reads a
//! [`ThermalObservation`](crate::thermal::scene::ThermalObservation) of the
//! whole per-position, per-layer temperature field and chooses the running
//! mode for the next interval.
//!
//! [`MemSpot`] is the public facade for one run at a time: it owns the
//! hardware models, backs its level-1 characterizations with a
//! [`CharStore`] — private by default, injectable via
//! [`MemSpot::with_store`] so a whole sweep shares one — and runs each mix
//! as a one-cell literal batch on [`BatchedSimEngine`], the one window
//! loop. A grid of cells handed to the batched engine at once steps in
//! shared lanes (each cell with the bits it has alone) and may take the
//! envelope fast-forward (within 1e-9).

use std::collections::BTreeMap;
use std::sync::Arc;

use cpu_model::{CpuConfig, PaperCpuPower};
use fbdimm_sim::FbdimmConfig;
use workloads::WorkloadMix;

use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::power::fbdimm::FbdimmPowerModel;
use crate::sim::batch::{BatchCell, BatchOptions, BatchedSimEngine};
use crate::sim::characterize::CharStore;
use crate::thermal::params::{CoolingConfig, StackKind, ThermalLimits};
use crate::thermal::scene::f64_eq_nan;

/// Configuration of a MEMSpot run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSpotConfig {
    /// Cooling configuration (heat spreader + air velocity).
    pub cooling: CoolingConfig,
    /// Thermal design/release points.
    pub limits: ThermalLimits,
    /// Use the integrated thermal model (Section 3.5) instead of the
    /// isolated one.
    pub integrated: bool,
    /// Override of the thermal-interaction degree Ψ_CPU_MEM×ξ (Section
    /// 4.5.2); `None` keeps the Table 3.3 default.
    pub interaction_degree: Option<f64>,
    /// Simulation window length in seconds (paper: 10 ms).
    pub window_s: f64,
    /// DTM interval in seconds (paper default: 10 ms; Figure 4.11 sweeps it).
    pub dtm_interval_s: f64,
    /// Overhead charged against progress for every DTM decision (25 µs).
    pub dtm_overhead_s: f64,
    /// Copies of every application in the batch job (paper: 50).
    pub copies_per_app: usize,
    /// Uniform scale applied to application instruction counts; < 1 shortens
    /// runs while preserving ratios between schemes and workloads.
    pub instruction_scale: f64,
    /// Demand L2 accesses simulated per level-1 design point.
    pub characterization_budget: u64,
    /// Safety stop for the simulated time, seconds.
    pub max_sim_time_s: f64,
    /// Interval between recorded temperature samples, seconds.
    pub temp_trace_interval_s: f64,
    /// Whether to record the temperature trace at all.
    pub record_temp_trace: bool,
    /// Override of the memory ambient / system inlet temperature in °C
    /// (`None` keeps the Table 3.3 default for the cooling configuration).
    /// The Chapter 5 server emulation uses this to apply the measured room /
    /// hot-box ambient temperatures.
    pub ambient_override_c: Option<f64>,
    /// The device stack each DIMM position holds: the paper's AMB+DRAM
    /// FBDIMM pair (default), a DDR4/5-style rank pair, or a 3D stack.
    pub stack: StackKind,
}

impl MemSpotConfig {
    /// The paper's configuration for a cooling setup, at full batch size.
    /// (The experiment harness typically shrinks `copies_per_app` /
    /// `instruction_scale` to keep wall-clock time reasonable; normalized
    /// results are ratios and are preserved.)
    pub fn paper(cooling: CoolingConfig) -> Self {
        MemSpotConfig {
            cooling,
            limits: ThermalLimits::paper_fbdimm(),
            integrated: false,
            interaction_degree: None,
            window_s: 0.010,
            dtm_interval_s: 0.010,
            dtm_overhead_s: 25e-6,
            copies_per_app: 50,
            instruction_scale: 1.0,
            characterization_budget: 120_000,
            max_sim_time_s: 50_000.0,
            temp_trace_interval_s: 1.0,
            record_temp_trace: false,
            ambient_override_c: None,
            stack: StackKind::Fbdimm,
        }
    }

    /// A tiny configuration for unit tests: batches of a few hundred
    /// simulated seconds, enough for thermal emergencies to appear.
    pub fn tiny(cooling: CoolingConfig) -> Self {
        MemSpotConfig {
            copies_per_app: 3,
            instruction_scale: 0.6,
            characterization_budget: 12_000,
            max_sim_time_s: 8_000.0,
            ..Self::paper(cooling)
        }
    }

    /// Returns a copy using the integrated thermal model.
    pub fn with_integrated(mut self, degree: Option<f64>) -> Self {
        self.integrated = true;
        self.interaction_degree = degree;
        self
    }

    /// Returns a copy whose DIMM positions hold the given device stack.
    pub fn with_stack(mut self, stack: StackKind) -> Self {
        self.stack = stack;
        self
    }

    /// Checks the configuration for values the window loop cannot honour.
    ///
    /// The engine steps at `min(window_s, dtm_interval_s)`; both cadences
    /// must be at least [`MemSpotConfig::MIN_STEP_S`] (100 µs). A shorter
    /// DTM interval used to be clamped silently, which decoupled the actual
    /// stepping rate from the requested DTM cadence — it is rejected here
    /// instead, at configuration time.
    pub fn validate(&self) -> Result<(), String> {
        // `!(x >= min)` deliberately rejects NaN along with short cadences.
        let window_ok = self.window_s >= Self::MIN_STEP_S;
        if !window_ok {
            return Err(format!("window_s = {} s is below the minimum step of {} s", self.window_s, Self::MIN_STEP_S));
        }
        let dtm_ok = self.dtm_interval_s >= Self::MIN_STEP_S;
        if !dtm_ok {
            return Err(format!(
                "dtm_interval_s = {} s is below the minimum step of {} s",
                self.dtm_interval_s,
                Self::MIN_STEP_S
            ));
        }
        Ok(())
    }

    /// Smallest window / DTM cadence the engine steps at, seconds.
    pub const MIN_STEP_S: f64 = 1e-4;
}

/// One sample of the recorded temperature trace. Equality is NaN-aware on
/// `amb_c` (bufferless stacks sample `NaN`).
#[derive(Debug, Clone, Copy)]
pub struct TempSample {
    /// Simulated time in seconds.
    pub time_s: f64,
    /// Hottest buffer (AMB / base-die) temperature across the DIMM
    /// positions, °C. `NaN` when the stack has no buffer layer.
    pub amb_c: f64,
    /// Hottest DRAM temperature across the DIMM positions, °C.
    pub dram_c: f64,
    /// Memory ambient (inlet) temperature, °C.
    pub ambient_c: f64,
    /// Number of active cores selected by the DTM policy.
    pub active_cores: usize,
    /// Core frequency selected by the DTM policy, GHz.
    pub freq_ghz: f64,
}

impl PartialEq for TempSample {
    fn eq(&self, other: &Self) -> bool {
        self.time_s == other.time_s
            && f64_eq_nan(self.amb_c, other.amb_c)
            && self.dram_c == other.dram_c
            && self.ambient_c == other.ambient_c
            && self.active_cores == other.active_cores
            && self.freq_ghz == other.freq_ghz
    }
}

/// Peak temperatures of one DIMM position's device stack over a run.
/// Equality is NaN-aware on `max_amb_c` (bufferless stacks).
#[derive(Debug, Clone)]
pub struct PositionPeak {
    /// Logical channel index.
    pub channel: usize,
    /// DIMM position along the chain (0 = closest to the controller).
    pub dimm: usize,
    /// Maximum buffer (AMB / base-die) temperature observed at this
    /// position, °C. `NaN` when the stack has no buffer layer.
    pub max_amb_c: f64,
    /// Maximum DRAM-layer temperature observed at this position, °C.
    pub max_dram_c: f64,
    /// Index of the layer whose peak was the hottest of the stack.
    pub hottest_layer: usize,
    /// Per-layer peak temperatures, in stack order (bottom to top).
    pub layers_c: Vec<f64>,
}

impl PartialEq for PositionPeak {
    fn eq(&self, other: &Self) -> bool {
        self.channel == other.channel
            && self.dimm == other.dimm
            && f64_eq_nan(self.max_amb_c, other.max_amb_c)
            && self.max_dram_c == other.max_dram_c
            && self.hottest_layer == other.hottest_layer
            && self.layers_c == other.layers_c
    }
}

/// Result of one MEMSpot run. Equality is NaN-aware on `max_amb_c` (and on
/// the NaN-able fields of the nested peak/trace types), so bit-identical
/// bufferless-stack runs compare equal.
#[derive(Debug, Clone)]
pub struct MemSpotResult {
    /// Workload mix identifier.
    pub workload: String,
    /// Device-stack topology label ("fbdimm", "rank-pair", "3d-4h", ...).
    pub stack: String,
    /// Policy name (e.g. `"DTM-ACG+PID"`).
    pub policy: String,
    /// Scheme of the policy.
    pub scheme: DtmScheme,
    /// Whether the batch completed before the safety stop.
    pub completed: bool,
    /// Batch running time in simulated seconds.
    pub running_time_s: f64,
    /// Total committed instructions.
    pub total_instructions: f64,
    /// Total memory traffic in bytes.
    pub total_memory_bytes: f64,
    /// Total L2 cache misses.
    pub total_l2_misses: f64,
    /// Memory subsystem energy in joules.
    pub memory_energy_j: f64,
    /// Processor energy in joules.
    pub cpu_energy_j: f64,
    /// Average memory power, watts.
    pub avg_memory_power_w: f64,
    /// Average processor power, watts.
    pub avg_cpu_power_w: f64,
    /// Average memory ambient (inlet) temperature, °C.
    pub avg_ambient_c: f64,
    /// Maximum buffer (AMB / base-die) temperature observed anywhere, °C.
    /// `NaN` for stacks with no buffer layer.
    pub max_amb_c: f64,
    /// Maximum DRAM temperature observed anywhere, °C.
    pub max_dram_c: f64,
    /// Fraction of time spent at each (active cores, frequency) setting.
    pub mode_residency: BTreeMap<String, f64>,
    /// Optional temperature trace.
    pub temp_trace: Vec<TempSample>,
    /// Per-DIMM-position peak temperatures (channel-resolved thermal
    /// field); `max_amb_c` / `max_dram_c` are the maxima over this list.
    pub position_peaks: Vec<PositionPeak>,
    /// Fraction of the run each logical channel spent throttled — by a
    /// per-channel service fraction below 1
    /// ([`ActuationPlan`](crate::dtm::plan::ActuationPlan) spatial plans)
    /// or by a global bandwidth cap, which throttles every channel at once.
    /// One entry per logical channel; all zero for policies that never
    /// capped anything.
    pub channel_throttle_residency: Vec<f64>,
    /// Total traffic moved off its natural DIMM position by steering
    /// weights (DTM-MIG-style migration), bytes. Zero for plans without
    /// steering.
    pub migrated_traffic_bytes: f64,
}

impl PartialEq for MemSpotResult {
    fn eq(&self, other: &Self) -> bool {
        self.workload == other.workload
            && self.stack == other.stack
            && self.policy == other.policy
            && self.scheme == other.scheme
            && self.completed == other.completed
            && self.running_time_s == other.running_time_s
            && self.total_instructions == other.total_instructions
            && self.total_memory_bytes == other.total_memory_bytes
            && self.total_l2_misses == other.total_l2_misses
            && self.memory_energy_j == other.memory_energy_j
            && self.cpu_energy_j == other.cpu_energy_j
            && self.avg_memory_power_w == other.avg_memory_power_w
            && self.avg_cpu_power_w == other.avg_cpu_power_w
            && self.avg_ambient_c == other.avg_ambient_c
            && f64_eq_nan(self.max_amb_c, other.max_amb_c)
            && self.max_dram_c == other.max_dram_c
            && self.mode_residency == other.mode_residency
            && self.temp_trace == other.temp_trace
            && self.position_peaks == other.position_peaks
            && self.channel_throttle_residency == other.channel_throttle_residency
            && self.migrated_traffic_bytes == other.migrated_traffic_bytes
    }
}

impl MemSpotResult {
    /// Running time normalized to a baseline result (typically the
    /// `No-limit` run of the same workload).
    pub fn normalized_time(&self, baseline: &MemSpotResult) -> f64 {
        if baseline.running_time_s <= 0.0 {
            return f64::NAN;
        }
        self.running_time_s / baseline.running_time_s
    }

    /// Memory traffic normalized to a baseline result.
    pub fn normalized_traffic(&self, baseline: &MemSpotResult) -> f64 {
        if baseline.total_memory_bytes <= 0.0 {
            return f64::NAN;
        }
        self.total_memory_bytes / baseline.total_memory_bytes
    }

    /// Memory energy normalized to a baseline result.
    pub fn normalized_memory_energy(&self, baseline: &MemSpotResult) -> f64 {
        if baseline.memory_energy_j <= 0.0 {
            return f64::NAN;
        }
        self.memory_energy_j / baseline.memory_energy_j
    }

    /// Processor energy normalized to a baseline result.
    pub fn normalized_cpu_energy(&self, baseline: &MemSpotResult) -> f64 {
        if baseline.cpu_energy_j <= 0.0 {
            return f64::NAN;
        }
        self.cpu_energy_j / baseline.cpu_energy_j
    }

    /// The peak entry of the hottest DIMM position — by buffer temperature
    /// when the stack has one, by the hottest layer peak otherwise
    /// (NaN-safe for bufferless rank pairs).
    pub fn hottest_position(&self) -> Option<&PositionPeak> {
        let rank = |p: &PositionPeak| if p.max_amb_c.is_nan() { p.layers_c[p.hottest_layer] } else { p.max_amb_c };
        self.position_peaks.iter().max_by(|a, b| rank(a).partial_cmp(&rank(b)).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The hottest-layer peak of the hottest DIMM position, °C — the
    /// spatial hot spot of the run, whatever device kind it is (base die,
    /// AMB or a DRAM layer).
    pub fn hottest_layer_peak_c(&self) -> f64 {
        self.position_peaks.iter().map(|p| p.layers_c[p.hottest_layer]).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Hottest-vs-coldest position peak spread, °C: the hottest-layer peak
    /// of the hottest position minus that of the coldest. This is the
    /// flatness metric spatial DTM policies (DTM-MIG) optimize — a
    /// perfectly balanced field has zero spread.
    pub fn position_peak_spread_c(&self) -> f64 {
        let coldest = self.position_peaks.iter().map(|p| p.layers_c[p.hottest_layer]).fold(f64::INFINITY, f64::min);
        self.hottest_layer_peak_c() - coldest
    }
}

/// The second-level thermal simulator.
#[derive(Debug)]
pub struct MemSpot {
    cpu: CpuConfig,
    mem: FbdimmConfig,
    power: FbdimmPowerModel,
    cpu_power: PaperCpuPower,
    config: MemSpotConfig,
    /// Shared home of level-1 design points (private unless injected).
    store: Arc<CharStore>,
}

impl MemSpot {
    /// Creates a simulator for the paper's processor and memory
    /// configuration under the given MEMSpot configuration.
    pub fn new(config: MemSpotConfig) -> Self {
        Self::with_hardware(CpuConfig::paper_quad_core(), FbdimmConfig::ddr2_667_paper(), config)
    }

    /// Creates a simulator with explicit hardware configurations and a
    /// private characterization store, so it recomputes every level-1 point
    /// another simulator may already hold. Callers that run several
    /// simulators over the same mixes (the paper figures, the platform
    /// experiments) use [`MemSpot::with_store`] instead.
    pub fn with_hardware(cpu: CpuConfig, mem: FbdimmConfig, config: MemSpotConfig) -> Self {
        Self::with_store(cpu, mem, config, Arc::new(CharStore::new()))
    }

    /// Creates a simulator whose level-1 characterizations live in (and are
    /// shared through) an external [`CharStore`]. Sweep engines pass one
    /// store to every cell, and each paper figure passes one to every
    /// simulator it builds, so each design point is characterized once per
    /// store.
    ///
    /// # Panics
    ///
    /// Panics if [`MemSpotConfig::validate`] rejects the configuration.
    pub fn with_store(cpu: CpuConfig, mem: FbdimmConfig, config: MemSpotConfig, store: Arc<CharStore>) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid MemSpotConfig: {e}"));
        MemSpot { cpu, mem, power: FbdimmPowerModel::paper_defaults(), cpu_power: PaperCpuPower::new(), config, store }
    }

    /// The MEMSpot configuration.
    pub fn config(&self) -> &MemSpotConfig {
        &self.config
    }

    /// The processor configuration.
    pub fn cpu_config(&self) -> &CpuConfig {
        &self.cpu
    }

    /// The characterization store backing this simulator.
    pub fn char_store(&self) -> &Arc<CharStore> {
        &self.store
    }

    /// Runs one workload mix under one DTM policy to batch completion (or
    /// the safety stop) and returns the aggregate result, leaving `policy`
    /// in the state the run's last decision left it in.
    ///
    /// The run is a one-cell literal batch on the
    /// [`BatchedSimEngine`]: every run, single or in a grid, goes through
    /// the same window loop. Level-1 characterizations come from the backing
    /// [`CharStore`], shared across runs (and, with [`MemSpot::with_store`],
    /// across simulators).
    pub fn run(&mut self, mix: &WorkloadMix, policy: &mut dyn DtmPolicy) -> MemSpotResult {
        let store = Arc::clone(&self.store);
        let cell = BatchCell::new(&self.cpu, &self.mem, self.config, mix.clone(), Box::new(policy), store);
        let engine = BatchedSimEngine::new(&self.cpu, &self.mem, &self.power, &self.cpu_power);
        let (result, _) = engine.run(vec![cell], &BatchOptions::literal()).pop().expect("one cell in, one result out");
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtm::{DtmScheme, DtmTs, NoLimit, ThresholdPolicy};
    use workloads::mixes;

    fn spot() -> MemSpot {
        MemSpot::new(MemSpotConfig::tiny(CoolingConfig::aohs_1_5()))
    }

    #[test]
    fn no_limit_run_completes_and_violates_the_tdp() {
        let mut spot = spot();
        let mut baseline = NoLimit::new(spot.cpu_config());
        let r = spot.run(&mixes::w1(), &mut baseline);
        assert!(r.completed, "baseline batch must complete");
        assert!(r.running_time_s > 1.0);
        // Without DTM the W1 mix overheats the AMB under AOHS_1.5.
        assert!(r.max_amb_c > 110.0, "max AMB {:.1}", r.max_amb_c);
        assert!(r.total_memory_bytes > 0.0);
        assert!(r.memory_energy_j > 0.0 && r.cpu_energy_j > 0.0);
    }

    #[test]
    fn position_peaks_resolve_the_thermal_field() {
        let mut spot = spot();
        let mut baseline = NoLimit::new(spot.cpu_config());
        let r = spot.run(&mixes::w1(), &mut baseline);
        // One peak per DIMM position, and the result maxima are derived from
        // the field rather than assumed.
        assert_eq!(r.position_peaks.len(), 8);
        let field_max_amb = r.position_peaks.iter().map(|p| p.max_amb_c).fold(f64::MIN, f64::max);
        let field_max_dram = r.position_peaks.iter().map(|p| p.max_dram_c).fold(f64::MIN, f64::max);
        assert!((field_max_amb - r.max_amb_c).abs() < 1e-9);
        assert!((field_max_dram - r.max_dram_c).abs() < 1e-9);
        // The hottest DIMM is the one closest to the controller (it carries
        // all the bypass traffic), and the far end of the chain runs cooler.
        let hottest = r.hottest_position().unwrap();
        assert_eq!(hottest.dimm, 0, "hottest position {hottest:?}");
        let far = r.position_peaks.iter().find(|p| p.channel == hottest.channel && p.dimm == 3).unwrap();
        assert!(hottest.max_amb_c > far.max_amb_c + 1.0, "field is not spatially resolved");
    }

    #[test]
    fn dtm_ts_respects_the_thermal_limit_and_runs_longer() {
        let mut spot = spot();
        let cpu = spot.cpu_config().clone();
        let mut baseline = NoLimit::new(&cpu);
        let base = spot.run(&mixes::w1(), &mut baseline);
        let mut ts = DtmTs::new(cpu, ThermalLimits::paper_fbdimm());
        let r = spot.run(&mixes::w1(), &mut ts);
        assert!(r.completed);
        // The TDP may be grazed by at most the heating within one DTM interval.
        assert!(r.max_amb_c < 110.5, "max AMB {:.2}", r.max_amb_c);
        // The tiny test batch is dominated by the initial heating transient,
        // so the penalty here is smaller than the paper's steady-state 1.8x;
        // the direction (clearly slower than the no-limit baseline) is what
        // this test checks.
        let norm = r.normalized_time(&base);
        assert!(norm > 1.08 && norm < 4.0, "normalized running time {norm:.2}");
    }

    #[test]
    fn dtm_acg_outperforms_dtm_ts_on_w1() {
        let mut spot = spot();
        let cpu = spot.cpu_config().clone();
        let limits = ThermalLimits::paper_fbdimm();
        let mut ts = DtmTs::new(cpu.clone(), limits);
        let mut acg = ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits);
        let rt = spot.run(&mixes::w1(), &mut ts);
        let ra = spot.run(&mixes::w1(), &mut acg);
        assert!(ra.completed && rt.completed);
        assert!(
            ra.running_time_s < rt.running_time_s,
            "ACG {:.1}s should beat TS {:.1}s",
            ra.running_time_s,
            rt.running_time_s
        );
        // ACG also reduces total memory traffic (fewer L2 conflict misses).
        assert!(ra.total_memory_bytes < rt.total_memory_bytes * 1.02);
    }

    #[test]
    fn dtm_bw_keeps_temperature_stable_near_the_limit() {
        let mut spot = spot();
        let cpu = spot.cpu_config().clone();
        let mut bw = ThresholdPolicy::new(DtmScheme::Bw, &cpu, ThermalLimits::paper_fbdimm());
        let r = spot.run(&mixes::w1(), &mut bw);
        assert!(r.completed);
        assert!(r.max_amb_c < 110.5);
        assert!(r.max_amb_c > 105.0, "BW should operate close to the limit, got {:.1}", r.max_amb_c);
    }

    #[test]
    fn cdvfs_saves_processor_energy_compared_with_ts() {
        let mut spot = spot();
        let cpu = spot.cpu_config().clone();
        let limits = ThermalLimits::paper_fbdimm();
        let mut ts = DtmTs::new(cpu.clone(), limits);
        let mut cdvfs = ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits);
        let rt = spot.run(&mixes::w1(), &mut ts);
        let rc = spot.run(&mixes::w1(), &mut cdvfs);
        assert!(rc.completed);
        assert!(
            rc.cpu_energy_j < rt.cpu_energy_j,
            "CDVFS CPU energy {:.0} J should undercut TS {:.0} J",
            rc.cpu_energy_j,
            rt.cpu_energy_j
        );
    }

    #[test]
    fn integrated_model_reports_cpu_heated_ambient() {
        let cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_integrated(None);
        let mut spot = MemSpot::new(cfg);
        let mut baseline = NoLimit::new(spot.cpu_config());
        let r = spot.run(&mixes::w1(), &mut baseline);
        assert!(r.avg_ambient_c > 45.0, "ambient {:.1} should exceed the 45 °C inlet", r.avg_ambient_c);
    }

    #[test]
    fn temperature_trace_is_recorded_when_requested() {
        let mut cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
        cfg.record_temp_trace = true;
        let mut spot = MemSpot::new(cfg);
        let cpu = spot.cpu_config().clone();
        let mut bw = ThresholdPolicy::new(DtmScheme::Bw, &cpu, ThermalLimits::paper_fbdimm());
        let r = spot.run(&mixes::w1(), &mut bw);
        assert!(r.temp_trace.len() as f64 >= r.running_time_s.floor() - 1.0);
        assert!(r.temp_trace.windows(2).all(|w| w[0].time_s < w[1].time_s));
    }

    #[test]
    fn simulators_sharing_a_store_characterize_each_design_point_once() {
        let store = Arc::new(CharStore::new());
        let cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
        let make = || {
            MemSpot::with_store(CpuConfig::paper_quad_core(), FbdimmConfig::ddr2_667_paper(), cfg, Arc::clone(&store))
        };
        let mut first = make();
        let mut p1 = NoLimit::new(first.cpu_config());
        let a = first.run(&mixes::w1(), &mut p1);
        let misses_after_first = store.misses();
        assert!(misses_after_first > 0);
        assert_eq!(store.hits(), 0);

        // A second simulator (e.g. another sweep cell with a different
        // cooling config) reuses every point instead of re-simulating.
        let mut second = make();
        let mut p2 = NoLimit::new(second.cpu_config());
        let b = second.run(&mixes::w1(), &mut p2);
        assert_eq!(store.misses(), misses_after_first, "no new level-1 work");
        assert!(store.hits() > 0);
        assert_eq!(a, b, "shared points must not change results");
    }

    #[test]
    fn sub_minimum_cadences_are_rejected_at_config_time() {
        let good = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
        assert!(good.validate().is_ok());

        let mut short_dtm = good;
        short_dtm.dtm_interval_s = 5e-5;
        let err = short_dtm.validate().unwrap_err();
        assert!(err.contains("dtm_interval_s"), "unexpected error: {err}");

        let mut short_window = good;
        short_window.window_s = 9.9e-5;
        assert!(short_window.validate().unwrap_err().contains("window_s"));

        let mut nan_window = good;
        nan_window.window_s = f64::NAN;
        assert!(nan_window.validate().is_err(), "NaN cadence must not validate");

        // The boundary itself is accepted.
        let mut at_min = good;
        at_min.window_s = MemSpotConfig::MIN_STEP_S;
        at_min.dtm_interval_s = MemSpotConfig::MIN_STEP_S;
        assert!(at_min.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid MemSpotConfig")]
    fn building_a_simulator_with_a_sub_minimum_dtm_interval_panics() {
        let mut cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
        cfg.dtm_interval_s = 1e-5;
        let _ = MemSpot::new(cfg);
    }

    #[test]
    fn mode_residency_sums_to_about_one() {
        let mut spot = spot();
        let cpu = spot.cpu_config().clone();
        let mut acg = ThresholdPolicy::new(DtmScheme::Acg, &cpu, ThermalLimits::paper_fbdimm());
        let r = spot.run(&mixes::w1(), &mut acg);
        let sum: f64 = r.mode_residency.values().sum();
        assert!((sum - 1.0).abs() < 0.01, "residency sum {sum}");
    }
}
