//! DTM-BW: memory bandwidth throttling (Section 4.2.1).
//!
//! The memory controller limits throughput according to the thermal
//! emergency level (Table 4.3: no limit / 19.2 / 12.8 / 6.4 GB/s / off).

use cpu_model::CpuConfig;

use crate::dtm::emergency::EmergencyLevel;
use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::dtm::selector::LevelSelector;
use crate::sim::modes::scheme_mode;
use crate::thermal::params::ThermalLimits;
use crate::thermal::scene::ThermalObservation;

/// The bandwidth-throttling policy.
#[derive(Debug, Clone)]
pub struct DtmBw {
    cpu: CpuConfig,
    selector: LevelSelector,
}

impl DtmBw {
    /// Threshold-driven DTM-BW.
    pub fn new(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmBw { cpu, selector: LevelSelector::threshold(limits) }
    }

    /// PID-driven DTM-BW.
    pub fn with_pid(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmBw { cpu, selector: LevelSelector::pid(limits) }
    }
}

impl DtmPolicy for DtmBw {
    fn decide(&mut self, observation: &ThermalObservation, dt_s: f64) -> ActuationPlan {
        let level = self.selector.select(observation.max_amb_c, observation.max_dram_c, dt_s);
        scheme_mode(DtmScheme::Bw, level, &self.cpu).into()
    }

    fn scheme(&self) -> DtmScheme {
        DtmScheme::Bw
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
            .map(|level| scheme_mode(DtmScheme::Bw, level, &self.cpu).into())
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
        Some(scheme_mode(DtmScheme::Bw, EmergencyLevel::from_index(key as usize), &self.cpu).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DtmBw {
        DtmBw::new(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    #[test]
    fn no_limit_when_cool() {
        let mut p = policy();
        assert_eq!(p.decide_temps(100.0, 70.0, 1.0).bandwidth_cap, None);
    }

    #[test]
    fn caps_tighten_as_temperature_rises() {
        let mut p = policy();
        let caps: Vec<_> =
            [108.5, 109.2, 109.7].iter().map(|&t| p.decide_temps(t, 70.0, 1.0).bandwidth_cap.unwrap()).collect();
        assert!(caps[0] > caps[1] && caps[1] > caps[2]);
        assert!((caps[2] - 6.4e9).abs() < 1.0);
    }

    #[test]
    fn cores_are_never_gated_by_bandwidth_throttling() {
        let mut p = policy();
        for t in [100.0, 108.5, 109.2, 109.7] {
            assert_eq!(p.decide_temps(t, 70.0, 1.0).active_cores, 4);
        }
    }

    #[test]
    fn tdp_shuts_memory_off() {
        let mut p = policy();
        assert!(!p.decide_temps(110.5, 70.0, 1.0).makes_progress());
    }

    #[test]
    fn pid_variant_reports_itself() {
        let p = DtmBw::with_pid(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        assert!(p.uses_pid());
        assert_eq!(p.name(), "DTM-BW+PID");
    }
}
