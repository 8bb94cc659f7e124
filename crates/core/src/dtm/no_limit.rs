//! The thermally unconstrained baseline ("no thermal limit").

use cpu_model::{CpuConfig, RunningMode};

use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::thermal::scene::ThermalObservation;

/// A policy that never throttles, used as the normalization baseline of
/// Figures 4.2–4.4 and 4.12 ("No-limit").
#[derive(Debug, Clone)]
pub struct NoLimit {
    mode: RunningMode,
}

impl NoLimit {
    /// Creates the baseline policy for a processor configuration.
    pub fn new(cpu: &CpuConfig) -> Self {
        NoLimit { mode: RunningMode::full_speed(cpu) }
    }
}

impl DtmPolicy for NoLimit {
    fn decide(&mut self, _observation: &ThermalObservation, _dt_s: f64) -> ActuationPlan {
        self.mode.into()
    }

    fn scheme(&self) -> DtmScheme {
        DtmScheme::NoLimit
    }

    fn observes_field(&self) -> bool {
        // Decisions read only the scalar device maxima.
        false
    }

    fn is_steady(&self, _observation: &ThermalObservation, _plan: &ActuationPlan, _drift_c: f64) -> bool {
        // Stateless and constant: the full-speed plan is returned for every
        // observation, so the fast-forward contract holds unconditionally.
        true
    }

    fn decision_key(&self, _max_amb_c: f64, _max_dram_c: f64) -> Option<u8> {
        // Constant plan: one key covers every observation.
        Some(0)
    }

    fn plan_for_key(&self, _key: u8) -> Option<ActuationPlan> {
        Some(self.mode.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_throttles_even_when_scorching() {
        let mut p = NoLimit::new(&CpuConfig::paper_quad_core());
        let mode = p.decide_temps(150.0, 120.0, 0.01);
        assert_eq!(mode.active_cores, 4);
        assert_eq!(mode.bandwidth_cap, None);
        assert_eq!(p.scheme(), DtmScheme::NoLimit);
        assert_eq!(p.name(), "No-limit");
        assert!(!p.uses_pid());
    }
}
