//! What every cell of the window loop is made of: its thermal scene, its
//! per-window power and the assembly of its result.
//!
//! The second-level simulator has one window loop, the lockstep lanes of
//! [`BatchedSimEngine`](crate::sim::batch::BatchedSimEngine), and two
//! execution tiers on it:
//!
//! 1. **Literal lockstep**: cells whose scenes share a stack, a step and an
//!    ambient time constant advance window by window over one shared
//!    temperature matrix. A single run ([`MemSpot::run`]) is a one-cell
//!    literal batch, and every grid runs the same lanes, so a cell's bits
//!    do not depend on the batch it runs in. [`DimmThermalScene::step`] is
//!    the reference for the bits a lane's RC sweep produces (the
//!    `lane_sweeps_step_every_column_like_the_scene` unit test).
//! 2. **Contraction-certified envelope** (on by default for grids):
//!    frozen plans and the plan-changing orbits of threshold policies are
//!    replayed under contraction certificates and exact decision replay,
//!    within 1e-9 of literal stepping.
//!
//! [`SimEngine`] borrows the hardware models and one run configuration and
//! builds what the loop steps for a cell: the stack-resolved
//! [`DimmThermalScene`] (Eqs. 3.3–3.6, each position's power split over the
//! configured [`StackKind`](crate::thermal::params::StackKind)'s layers),
//! the idle-power vector, and per window the per-position power of the
//! current design point's per-DIMM traffic (Eqs. 3.1–3.2) — the natural
//! split for scalar plans, or the grid an
//! [`ActuationPlan`](crate::dtm::plan::ActuationPlan) steered and throttled
//! for spatial ones. Mode residency is keyed by the quantized [`ModeKey`]
//! and stringified once per distinct mode after the run
//! ([`mode_label_from_key`]).
//!
//! [`MemSpot::run`]: crate::sim::memspot::MemSpot::run

use cpu_model::{CpuConfig, PaperCpuPower, ProcessorPowerModel, RunningMode};
use fbdimm_sim::{DimmTraffic, FbdimmConfig};

use crate::power::fbdimm::{FbdimmPowerBreakdown, FbdimmPowerModel};
use crate::sim::characterize::{CharPoint, ModeKey};
use crate::sim::memspot::MemSpotConfig;
use crate::thermal::params::AmbientParams;
use crate::thermal::scene::DimmThermalScene;

/// Power draw of one simulation window, rebuilt through
/// [`SimEngine::window_power`] whenever a cell's plan changes.
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

/// The hardware models and run configuration one cell is stepped under.
#[derive(Debug)]
pub(crate) struct SimEngine<'a> {
    pub(crate) cpu: &'a CpuConfig,
    pub(crate) mem: &'a FbdimmConfig,
    power: &'a FbdimmPowerModel,
    cpu_power: &'a PaperCpuPower,
    pub(crate) config: &'a MemSpotConfig,
}

impl<'a> SimEngine<'a> {
    /// Borrows the hardware and a cell's run configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`MemSpotConfig::validate`] rejects the configuration
    /// (e.g. a window or DTM cadence below [`MemSpotConfig::MIN_STEP_S`]).
    pub(crate) fn new(
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
    pub(crate) fn make_scene(&self) -> DimmThermalScene {
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
    /// [`ActuationPlan`](crate::dtm::plan::ActuationPlan) produced from it.
    /// Positions the split carries no
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

    /// The window power of a design point under a traffic split: per
    /// position, the memory subsystem total, the processor power and the
    /// Σ(V·IPC) term; idle (halted) when the mode makes no progress.
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
}

/// Human-readable label of a quantized running mode. Quantization-equivalent
/// modes map to one [`ModeKey`] and therefore to one label; the window loop
/// only stringifies each distinct key once, after the run.
pub(crate) fn mode_label_from_key(key: &ModeKey) -> String {
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
    use crate::sim::characterize::CharacterizationTable;
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
