//! DTM-TS: thermal shutdown (Section 4.2.1).
//!
//! When either device reaches its thermal design point the memory subsystem
//! is shut off completely; it is re-enabled once the temperature has dropped
//! below the thermal release point (TRP). The TRP is the knob Figure 4.2
//! sweeps.

use cpu_model::{CpuConfig, RunningMode};

use crate::dtm::emergency::EmergencyLevel;
use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::dtm::rule::DecisionRule;
use crate::sim::modes::scheme_mode;
use crate::thermal::params::ThermalLimits;
use crate::thermal::scene::ThermalObservation;

/// The thermal-shutdown policy.
#[derive(Debug, Clone)]
pub struct DtmTs {
    limits: ThermalLimits,
    shut_down: bool,
    /// Full speed, the mode while running.
    on: RunningMode,
    /// Memory off, the mode while shut down.
    off: RunningMode,
}

impl DtmTs {
    /// Creates the policy with the given thermal limits (TDP and TRP).
    pub fn new(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmTs {
            limits,
            shut_down: false,
            on: scheme_mode(DtmScheme::Ts, EmergencyLevel::L1, &cpu),
            off: scheme_mode(DtmScheme::Ts, EmergencyLevel::L5, &cpu),
        }
    }

    /// Whether the memory is currently shut down.
    pub fn is_shut_down(&self) -> bool {
        self.shut_down
    }

    /// The thermal limits in use.
    pub fn limits(&self) -> &ThermalLimits {
        &self.limits
    }
}

impl DtmPolicy for DtmTs {
    fn decide(&mut self, observation: &ThermalObservation, _dt_s: f64) -> ActuationPlan {
        if observation.over_tdp(&self.limits) {
            self.shut_down = true;
        } else if self.shut_down && observation.released(&self.limits) {
            // `released` is NaN-safe: a stack with no buffer die (DDR4/5
            // rank pairs report `max_amb_c = NaN`) releases on the DRAM
            // condition alone instead of latching shut forever.
            self.shut_down = false;
        }
        if self.shut_down { self.off } else { self.on }.into()
    }

    fn scheme(&self) -> DtmScheme {
        DtmScheme::Ts
    }

    fn reset(&mut self) {
        self.shut_down = false;
    }

    fn decision_rule(&self) -> DecisionRule<'_> {
        DecisionRule::Latch { latched: self.shut_down, limits: &self.limits, on: self.on, off: self.off }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DtmTs {
        DtmTs::new(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    #[test]
    fn stays_on_below_the_tdp() {
        let mut p = policy();
        assert!(p.decide_temps(109.9, 84.9, 1.0).makes_progress());
        assert!(!p.is_shut_down());
    }

    #[test]
    fn shuts_down_at_the_tdp_and_stays_down_until_the_trp() {
        let mut p = policy();
        assert!(!p.decide_temps(110.0, 80.0, 1.0).makes_progress());
        // Still above the TRP: remains off (hysteresis).
        assert!(!p.decide_temps(109.5, 80.0, 1.0).makes_progress());
        // At or below the TRP: back on.
        assert!(p.decide_temps(109.0, 80.0, 1.0).makes_progress());
        assert!(!p.is_shut_down());
    }

    #[test]
    fn dram_overheating_also_triggers_shutdown() {
        let mut p = policy();
        assert!(!p.decide_temps(100.0, 85.2, 1.0).makes_progress());
        // AMB is cool but DRAM has not released yet.
        assert!(!p.decide_temps(100.0, 84.5, 1.0).makes_progress());
        assert!(p.decide_temps(100.0, 83.9, 1.0).makes_progress());
    }

    #[test]
    fn higher_trp_releases_earlier() {
        let limits = ThermalLimits::paper_fbdimm().with_amb_trp(109.5);
        let mut p = DtmTs::new(CpuConfig::paper_quad_core(), limits);
        p.decide_temps(110.0, 80.0, 1.0);
        assert!(!p.decide_temps(109.6, 80.0, 1.0).makes_progress());
        assert!(p.decide_temps(109.5, 80.0, 1.0).makes_progress());
    }

    #[test]
    fn steadiness_tracks_the_latch_and_its_margins() {
        use crate::dtm::rule::tests::certify;
        // The certificate over a drift band of ±1 °C around the maxima.
        let steady = |p: &DtmTs, amb: f64, dram: f64| certify(p, (amb - 1.0, dram - 1.0), (amb + 1.0, dram + 1.0));
        let mut p = policy();
        let plan = p.decide(&ThermalObservation::from_hottest(100.0, 70.0), 1.0);
        assert_eq!(steady(&p, 100.0, 70.0), Some(plan));
        // TDP within the drift band: the latch could set.
        assert_eq!(steady(&p, 109.5, 70.0), None);
        // Latched shut and holding clear above the release point: steady.
        let shut_plan = p.decide(&ThermalObservation::from_hottest(120.0, 70.0), 1.0);
        assert!(p.is_shut_down());
        assert_eq!(steady(&p, 120.0, 70.0), Some(shut_plan));
        // Near the release point the latch could clear: not steady.
        assert_eq!(steady(&p, 109.3, 70.0), None);
    }

    #[test]
    fn region_certificate_names_the_plan_every_decision_in_the_rectangle_returns() {
        // Random rectangles in both latch states, anchored at and spanning
        // points 1 ulp either side of every TDP and TRP, some with no
        // buffer die (NaN buffer axis), under random TRPs. The certificate
        // must answer `Some` exactly when every sampled decision returns
        // its plan and leaves the latch alone: its deciding corner is
        // always sampled, so a rectangle that straddles a threshold must
        // get `None`.
        use crate::dtm::rule::tests::{hold_rules_to_decide, latches};
        let (answered, refused) = hold_rules_to_decide(latches, 4000, 0x7505_2026);
        // Both answers occur in both latch states, so neither branch of the
        // property is vacuous.
        assert!(answered.iter().chain(&refused).all(|&n| n > 100), "answered {answered:?}, refused {refused:?}");
    }

    #[test]
    fn reset_clears_the_latch() {
        let mut p = policy();
        p.decide_temps(111.0, 80.0, 1.0);
        assert!(p.is_shut_down());
        p.reset();
        assert!(!p.is_shut_down());
        assert_eq!(p.scheme(), DtmScheme::Ts);
        assert_eq!(p.name(), "DTM-TS");
    }
}
