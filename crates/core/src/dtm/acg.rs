//! DTM-ACG: adaptive core gating (Section 4.2.2).
//!
//! Instead of throttling at the memory side, the policy clock-gates 1 to N
//! processor cores according to the thermal emergency level, reducing both
//! the memory access rate and (through reduced shared-cache contention) the
//! total amount of memory traffic.

use cpu_model::CpuConfig;

use crate::dtm::emergency::EmergencyLevel;
use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::dtm::selector::LevelSelector;
use crate::sim::modes::scheme_mode;
use crate::thermal::params::ThermalLimits;
use crate::thermal::scene::ThermalObservation;

/// The adaptive core gating policy.
#[derive(Debug, Clone)]
pub struct DtmAcg {
    cpu: CpuConfig,
    selector: LevelSelector,
}

impl DtmAcg {
    /// Threshold-driven DTM-ACG.
    pub fn new(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmAcg { cpu, selector: LevelSelector::threshold(limits) }
    }

    /// PID-driven DTM-ACG.
    pub fn with_pid(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmAcg { cpu, selector: LevelSelector::pid(limits) }
    }
}

impl DtmPolicy for DtmAcg {
    fn decide(&mut self, observation: &ThermalObservation, dt_s: f64) -> ActuationPlan {
        let level = self.selector.select(observation.max_amb_c, observation.max_dram_c, dt_s);
        scheme_mode(DtmScheme::Acg, level, &self.cpu).into()
    }

    fn scheme(&self) -> DtmScheme {
        DtmScheme::Acg
    }

    fn uses_pid(&self) -> bool {
        self.selector.uses_pid()
    }

    fn reset(&mut self) {
        self.selector.reset();
    }

    fn observes_field(&self) -> bool {
        // Decisions read only the scalar device maxima.
        false
    }

    fn is_steady(&self, observation: &ThermalObservation, _plan: &ActuationPlan, drift_c: f64) -> bool {
        // The plan is a pure function of the emergency level, so the policy
        // is steady exactly when threshold level selection is (PID variants
        // carry integral state and are never steady).
        self.selector.is_steady(observation.max_amb_c, observation.max_dram_c, drift_c)
    }

    fn is_steady_band(
        &self,
        observation: &ThermalObservation,
        _plan: &ActuationPlan,
        below_c: f64,
        above_c: f64,
    ) -> bool {
        self.selector.is_steady_band(observation.max_amb_c, observation.max_dram_c, below_c, above_c)
    }

    fn plan_decided_by_region(
        &self,
        observation: &ThermalObservation,
        amb_span_c: f64,
        dram_span_c: f64,
    ) -> Option<ActuationPlan> {
        // The plan is a pure function of the emergency level, so the unique
        // level of the rectangle (if any) names the unique plan.
        self.selector
            .region_level_rect(
                observation.max_amb_c,
                observation.max_dram_c,
                observation.max_amb_c + amb_span_c,
                observation.max_dram_c + dram_span_c,
            )
            .map(|level| scheme_mode(DtmScheme::Acg, level, &self.cpu).into())
    }

    fn decision_key(&self, max_amb_c: f64, max_dram_c: f64) -> Option<u8> {
        // The plan is a pure function of the emergency level, so the level
        // index keys the decision (PID variants are stateful and refuse).
        self.selector.pure_level(max_amb_c, max_dram_c).map(|level| level.index() as u8)
    }

    fn plan_for_key(&self, key: u8) -> Option<ActuationPlan> {
        if self.selector.uses_pid() {
            return None;
        }
        Some(scheme_mode(DtmScheme::Acg, EmergencyLevel::from_index(key as usize), &self.cpu).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DtmAcg {
        DtmAcg::new(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    #[test]
    fn cores_are_gated_one_by_one_with_rising_temperature() {
        let mut p = policy();
        let cores: Vec<_> =
            [100.0, 108.5, 109.2, 109.7].iter().map(|&t| p.decide_temps(t, 70.0, 1.0).active_cores).collect();
        assert_eq!(cores, vec![4, 3, 2, 1]);
    }

    #[test]
    fn memory_bandwidth_is_never_capped_below_the_tdp() {
        let mut p = policy();
        for t in [100.0, 108.5, 109.7] {
            assert_eq!(p.decide_temps(t, 70.0, 1.0).bandwidth_cap, None);
        }
    }

    #[test]
    fn frequency_stays_at_the_top_operating_point() {
        let mut p = policy();
        for t in [100.0, 109.7] {
            assert!((p.decide_temps(t, 70.0, 1.0).op.freq_ghz - 3.2).abs() < 1e-9);
        }
    }

    #[test]
    fn dram_temperature_also_drives_gating() {
        let mut p = policy();
        assert_eq!(p.decide_temps(100.0, 84.2, 1.0).active_cores, 2);
    }

    #[test]
    fn tdp_stops_everything() {
        let mut p = policy();
        let mode = p.decide_temps(110.0, 70.0, 1.0);
        assert_eq!(mode.active_cores, 0);
        assert!(!mode.makes_progress());
    }

    #[test]
    fn pid_variant_reports_itself() {
        let p = DtmAcg::with_pid(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        assert_eq!(p.name(), "DTM-ACG+PID");
        assert_eq!(p.scheme(), DtmScheme::Acg);
    }
}
