//! The thermally unconstrained baseline ("no thermal limit").

use cpu_model::{CpuConfig, RunningMode};

use crate::dtm::emergency::EmergencyThresholds;
use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::dtm::rule::DecisionRule;
use crate::thermal::scene::ThermalObservation;

/// A policy that never throttles, used as the normalization baseline of
/// Figures 4.2–4.4 and 4.12 ("No-limit").
#[derive(Debug, Clone)]
pub struct NoLimit {
    /// The one level every temperature falls in.
    levels: EmergencyThresholds,
    /// Its mode: full speed.
    mode: [RunningMode; 1],
}

impl NoLimit {
    /// Creates the baseline policy for a processor configuration.
    pub fn new(cpu: &CpuConfig) -> Self {
        NoLimit { levels: EmergencyThresholds::single_level(), mode: [RunningMode::full_speed(cpu)] }
    }
}

impl DtmPolicy for NoLimit {
    fn decide(&mut self, _observation: &ThermalObservation, _dt_s: f64) -> ActuationPlan {
        self.mode[0].into()
    }

    fn scheme(&self) -> DtmScheme {
        DtmScheme::NoLimit
    }

    fn decision_rule(&self) -> DecisionRule<'_> {
        // The one-mode ladder: every observation keys to full speed and
        // every rectangle is certified.
        DecisionRule::Ladder { levels: &self.levels, modes: &self.mode }
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
