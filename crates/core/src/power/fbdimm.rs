//! Whole-subsystem FBDIMM power accounting.
//!
//! Combines the per-DIMM DRAM and AMB power models over a traffic window
//! produced by the memory simulator: per-DIMM power for the thermal model,
//! per-**layer** power for the stack-resolved scene (each position's
//! buffer/DRAM breakdown splits over its
//! [`StackTopology`]'s layers),
//! plan-transformed power for spatially resolved DTM
//! ([`FbdimmPowerModel::scene_power_planned`] routes a traffic split
//! through an [`ActuationPlan`]'s steering weights and per-channel service
//! fractions, so asymmetric throttling shows up as asymmetric heat), and
//! total memory subsystem power for the energy results (Figure 4.9).

use fbdimm_sim::{DimmTraffic, TrafficWindow};

use crate::dtm::plan::{ActuationPlan, PlanTrafficStats};
use crate::power::amb::AmbPowerModel;
use crate::power::dram::DramPowerModel;
use crate::thermal::params::StackTopology;

/// Power of one DIMM position, split into its AMB and DRAM components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FbdimmPowerBreakdown {
    /// AMB power in watts.
    pub amb_watts: f64,
    /// DRAM-devices power in watts.
    pub dram_watts: f64,
}

impl FbdimmPowerBreakdown {
    /// Total power of the DIMM.
    pub fn total_watts(&self) -> f64 {
        self.amb_watts + self.dram_watts
    }

    /// Splits this position's power over the layers of a device stack:
    /// one watt figure per layer, conserving the total (`amb_watts +
    /// dram_watts` flows into the stack, no more, no less).
    pub fn layer_watts(&self, topology: &StackTopology) -> Vec<f64> {
        topology.split_watts(self.amb_watts, self.dram_watts)
    }
}

/// Combined power model of the FBDIMM memory subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FbdimmPowerModel {
    /// Per-DIMM DRAM-devices model (Eq. 3.1).
    pub dram: DramPowerModel,
    /// Per-DIMM AMB model (Eq. 3.2).
    pub amb: AmbPowerModel,
}

impl FbdimmPowerModel {
    /// The paper's default coefficients (Table 3.1 and the Micron-derived
    /// DRAM coefficients).
    pub fn paper_defaults() -> Self {
        FbdimmPowerModel { dram: DramPowerModel::ddr2_667_1gb(), amb: AmbPowerModel::table_3_1() }
    }

    /// Power of one DIMM position given its traffic split. `is_last` marks
    /// the last DIMM of its channel, `dimms_per_channel` is used to decide
    /// that from the position when the caller does not know.
    pub fn dimm_power(&self, traffic: &DimmTraffic, is_last: bool) -> FbdimmPowerBreakdown {
        let read = traffic.local_gbps * traffic.read_fraction;
        let write = traffic.local_gbps * (1.0 - traffic.read_fraction);
        FbdimmPowerBreakdown {
            amb_watts: self.amb.power_watts(traffic.bypass_gbps, traffic.local_gbps, is_last),
            dram_watts: self.dram.power_watts(read, write),
        }
    }

    /// Per-position power breakdowns for a list of per-DIMM traffic splits,
    /// in the order the splits are given. This is the channel-resolved base
    /// API: the hottest-DIMM and subsystem-total entry points below are
    /// derived from it, and the thermal scene steps directly from its
    /// output.
    pub fn scene_power_from_traffic(
        &self,
        dimms: &[DimmTraffic],
        dimms_per_channel: usize,
    ) -> Vec<FbdimmPowerBreakdown> {
        dimms.iter().map(|d| self.dimm_power(d, d.dimm + 1 == dimms_per_channel)).collect()
    }

    /// Per-position power breakdowns for a traffic window, ordered as
    /// `window.dimms` (channel-major for a full window).
    pub fn scene_power(&self, window: &TrafficWindow, dimms_per_channel: usize) -> Vec<FbdimmPowerBreakdown> {
        self.scene_power_from_traffic(&window.dimms, dimms_per_channel)
    }

    /// Per-position power breakdowns after an [`ActuationPlan`] transformed
    /// the traffic split: steering weights redistribute the locally served
    /// throughput over the `channels × dimms_per_channel` position grid,
    /// per-channel service fractions scale each channel's share, and the
    /// FBDIMM chain bypass is rebuilt from the planned locals
    /// ([`ActuationPlan::apply_traffic_into`]) — so a plan that starves one
    /// channel cools exactly that channel's positions. Scalar plans
    /// reproduce [`FbdimmPowerModel::scene_power_from_traffic`] over the
    /// grid. Returns the breakdowns (grid order) together with the plan's
    /// [`PlanTrafficStats`].
    ///
    /// This is the convenience composition of
    /// [`ActuationPlan::apply_traffic_into`] and
    /// [`FbdimmPowerModel::scene_power_from_traffic`] for one-shot callers
    /// (analyses, tests); the window loop in `sim/engine.rs` inlines the
    /// same two primitives with reusable scratch buffers, so the two paths
    /// cannot diverge behaviorally.
    pub fn scene_power_planned(
        &self,
        dimms: &[DimmTraffic],
        channels: usize,
        dimms_per_channel: usize,
        plan: &ActuationPlan,
    ) -> (Vec<FbdimmPowerBreakdown>, PlanTrafficStats) {
        let mut grid = Vec::new();
        let stats = plan.apply_traffic_into(dimms, channels, dimms_per_channel, &mut grid);
        (self.scene_power_from_traffic(&grid, dimms_per_channel), stats)
    }

    /// Per-layer watts of one position's device stack: the position's
    /// buffer/DRAM power split over the topology's layers (a 3D stack
    /// spreads the DRAM power across its dies and deposits the interface
    /// power in the base die; a rank pair folds the register power into the
    /// ranks).
    pub fn stack_power(&self, traffic: &DimmTraffic, is_last: bool, topology: &StackTopology) -> Vec<f64> {
        self.dimm_power(traffic, is_last).layer_watts(topology)
    }

    /// Per-position, per-layer watts for a list of per-DIMM traffic splits:
    /// [`FbdimmPowerModel::scene_power_from_traffic`] pushed down to layer
    /// resolution. The flattened sum equals the subsystem total for one
    /// physical DIMM per position (energy conservation).
    pub fn scene_stack_power(
        &self,
        dimms: &[DimmTraffic],
        dimms_per_channel: usize,
        topology: &StackTopology,
    ) -> Vec<Vec<f64>> {
        self.scene_power_from_traffic(dimms, dimms_per_channel).iter().map(|p| p.layer_watts(topology)).collect()
    }

    /// Power of the hottest DIMM of a traffic window — the quantity the
    /// legacy single-DIMM thermal model tracks (the DIMM closest to the
    /// controller carries the most bypass traffic and is the thermal worst
    /// case). Derived by arg-max over [`FbdimmPowerModel::scene_power`].
    pub fn hottest_dimm_power(&self, window: &TrafficWindow, dimms_per_channel: usize) -> FbdimmPowerBreakdown {
        self.scene_power(window, dimms_per_channel)
            .into_iter()
            .max_by(|a, b| a.total_watts().partial_cmp(&b.total_watts()).unwrap_or(std::cmp::Ordering::Equal))
            .unwrap_or_else(|| self.idle_dimm_power(false))
    }

    /// Power of an idle DIMM (no traffic at all).
    pub fn idle_dimm_power(&self, is_last: bool) -> FbdimmPowerBreakdown {
        FbdimmPowerBreakdown {
            amb_watts: self.amb.power_watts(0.0, 0.0, is_last),
            dram_watts: self.dram.power_watts(0.0, 0.0),
        }
    }

    /// Total power of the whole memory subsystem over a traffic window: the
    /// sum of the per-position [`FbdimmPowerModel::scene_power`] breakdowns.
    /// `phys_per_position` physical DIMMs share each logical position (the
    /// traffic window already reports per-physical-DIMM throughput).
    pub fn subsystem_power_watts(
        &self,
        window: &TrafficWindow,
        dimms_per_channel: usize,
        phys_per_position: usize,
    ) -> f64 {
        let per_position: f64 =
            self.scene_power(window, dimms_per_channel).iter().map(FbdimmPowerBreakdown::total_watts).sum();
        per_position * phys_per_position as f64
    }

    /// Total idle power of a subsystem with the given shape (used while the
    /// memory is shut off by DTM or no characterization traffic exists).
    pub fn subsystem_idle_power_watts(
        &self,
        logical_channels: usize,
        dimms_per_channel: usize,
        phys_per_position: usize,
    ) -> f64 {
        let mut total = 0.0;
        for _ in 0..logical_channels {
            for dimm in 0..dimms_per_channel {
                let is_last = dimm + 1 == dimms_per_channel;
                total += self.idle_dimm_power(is_last).total_watts();
            }
        }
        total * phys_per_position as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_with(dimms: Vec<DimmTraffic>) -> TrafficWindow {
        TrafficWindow { dimms, ..TrafficWindow::default() }
    }

    #[test]
    fn hottest_dimm_is_the_one_with_most_traffic() {
        let model = FbdimmPowerModel::paper_defaults();
        let dimms = vec![
            DimmTraffic { channel: 0, dimm: 0, local_gbps: 1.0, bypass_gbps: 3.0, read_fraction: 0.7 },
            DimmTraffic { channel: 0, dimm: 3, local_gbps: 1.0, bypass_gbps: 0.0, read_fraction: 0.7 },
        ];
        let w = window_with(dimms);
        let hottest = model.hottest_dimm_power(&w, 4);
        let near = model.dimm_power(&w.dimms[0], false);
        assert!((hottest.total_watts() - near.total_watts()).abs() < 1e-12);
    }

    #[test]
    fn empty_window_falls_back_to_idle_power() {
        let model = FbdimmPowerModel::paper_defaults();
        let w = window_with(vec![]);
        let p = model.hottest_dimm_power(&w, 4);
        assert!((p.amb_watts - 5.1).abs() < 1e-9);
        assert!((p.dram_watts - 0.98).abs() < 1e-9);
    }

    #[test]
    fn subsystem_power_scales_with_physical_dimm_count() {
        let model = FbdimmPowerModel::paper_defaults();
        let dimms = vec![DimmTraffic { channel: 0, dimm: 0, local_gbps: 0.5, bypass_gbps: 1.0, read_fraction: 0.6 }];
        let w = window_with(dimms);
        let one = model.subsystem_power_watts(&w, 4, 1);
        let two = model.subsystem_power_watts(&w, 4, 2);
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn idle_subsystem_power_matches_paper_scale() {
        // 16 physical idle DIMMs: AMB idle (5.1 or 4.0) + DRAM static 0.98.
        // Three of four positions use 5.1 W AMBs, the last 4.0 W.
        let model = FbdimmPowerModel::paper_defaults();
        let p = model.subsystem_idle_power_watts(2, 4, 2);
        let expected = 2.0 * 2.0 * (3.0 * (5.1 + 0.98) + (4.0 + 0.98));
        assert!((p - expected).abs() < 1e-9, "idle power {p}, expected {expected}");
        // This is the scale (~80-100 W peak with traffic) Section 2.2 quotes.
        assert!(p > 60.0 && p < 100.0);
    }

    #[test]
    fn dimm_power_splits_reads_and_writes() {
        let model = FbdimmPowerModel::paper_defaults();
        let all_reads = DimmTraffic { channel: 0, dimm: 0, local_gbps: 1.0, bypass_gbps: 0.0, read_fraction: 1.0 };
        let all_writes = DimmTraffic { channel: 0, dimm: 0, local_gbps: 1.0, bypass_gbps: 0.0, read_fraction: 0.0 };
        let pr = model.dimm_power(&all_reads, false);
        let pw = model.dimm_power(&all_writes, false);
        assert!(pw.dram_watts > pr.dram_watts, "write column accesses cost slightly more");
        assert_eq!(pw.amb_watts, pr.amb_watts);
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let b = FbdimmPowerBreakdown { amb_watts: 5.0, dram_watts: 2.0 };
        assert!((b.total_watts() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn planned_scene_power_makes_asymmetric_throttling_asymmetric_heat() {
        use crate::dtm::plan::ActuationPlan;
        use cpu_model::{CpuConfig, RunningMode};
        let model = FbdimmPowerModel::paper_defaults();
        let dimms = vec![
            DimmTraffic { channel: 0, dimm: 0, local_gbps: 2.0, bypass_gbps: 2.0, read_fraction: 0.7 },
            DimmTraffic { channel: 0, dimm: 1, local_gbps: 2.0, bypass_gbps: 0.0, read_fraction: 0.7 },
            DimmTraffic { channel: 1, dimm: 0, local_gbps: 2.0, bypass_gbps: 2.0, read_fraction: 0.7 },
            DimmTraffic { channel: 1, dimm: 1, local_gbps: 2.0, bypass_gbps: 0.0, read_fraction: 0.7 },
        ];
        let mode = RunningMode::full_speed(&CpuConfig::paper_quad_core());

        // A scalar plan reproduces the unplanned per-position power exactly.
        let (scalar, stats) = model.scene_power_planned(&dimms, 2, 2, &ActuationPlan::global(mode));
        assert_eq!(stats.service_scale, 1.0);
        assert_eq!(scalar, model.scene_power_from_traffic(&dimms, 2));

        // Starving channel 0 cools channel 0's positions and only them.
        let plan = ActuationPlan::global(mode).with_channel_service(vec![0.25, 1.0]);
        let (planned, stats) = model.scene_power_planned(&dimms, 2, 2, &plan);
        assert!((stats.service_scale - 0.625).abs() < 1e-12, "half the traffic at 1/4 service");
        assert!(planned[0].total_watts() < scalar[0].total_watts());
        assert!(planned[1].total_watts() < scalar[1].total_watts());
        assert_eq!(planned[2], scalar[2], "untouched channel keeps its heat");
        assert_eq!(planned[3], scalar[3]);

        // Steering everything onto channel 1 moves the watts with it.
        let steer = ActuationPlan::global(mode).with_steering(vec![0.0, 0.0, 0.5, 0.5]);
        let (steered, stats) = model.scene_power_planned(&dimms, 2, 2, &steer);
        assert_eq!(stats.service_scale, 1.0, "steering moves heat without throttling");
        assert!(stats.migrated_gbps > 0.0);
        let idle = model.idle_dimm_power(false);
        assert!((steered[0].total_watts() - idle.total_watts()).abs() < 1e-12, "drained position idles");
        assert!(steered[2].total_watts() > scalar[2].total_watts(), "target position heats up");
    }

    #[test]
    fn stack_power_pushes_scene_power_down_to_layer_resolution() {
        use crate::thermal::params::{CoolingConfig, StackKind};
        let model = FbdimmPowerModel::paper_defaults();
        let topology = StackKind::stacked4().topology(&CoolingConfig::aohs_1_5());
        let dimms = vec![
            DimmTraffic { channel: 0, dimm: 0, local_gbps: 1.0, bypass_gbps: 2.0, read_fraction: 0.7 },
            DimmTraffic { channel: 0, dimm: 1, local_gbps: 0.5, bypass_gbps: 0.0, read_fraction: 0.5 },
        ];
        let per_position = model.scene_power_from_traffic(&dimms, 2);
        let per_layer = model.scene_stack_power(&dimms, 2, &topology);
        assert_eq!(per_layer.len(), per_position.len());
        for (i, (layers, breakdown)) in per_layer.iter().zip(&per_position).enumerate() {
            assert_eq!(layers.len(), topology.depth());
            // The split conserves the position's power and matches the
            // single-position entry point.
            assert!((layers.iter().sum::<f64>() - breakdown.total_watts()).abs() < 1e-12);
            assert_eq!(layers, &model.stack_power(&dimms[i], dimms[i].dimm + 1 == 2, &topology));
            // The base die carries the whole buffer (AMB-equivalent) power.
            assert!((layers[0] - breakdown.amb_watts).abs() < 1e-12);
        }
    }
}
