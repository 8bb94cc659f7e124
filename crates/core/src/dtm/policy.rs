//! The DTM policy interface.

use cpu_model::RunningMode;

use crate::dtm::plan::ActuationPlan;
use crate::dtm::rule::DecisionRule;
use crate::thermal::scene::ThermalObservation;

/// Identifier of a DTM scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DtmScheme {
    /// No thermal management at all (the ideal, thermally unconstrained
    /// baseline the paper normalizes against).
    NoLimit,
    /// Thermal shutdown (DTM-TS).
    Ts,
    /// Memory bandwidth throttling (DTM-BW).
    Bw,
    /// Adaptive core gating (DTM-ACG).
    Acg,
    /// Coordinated DVFS (DTM-CDVFS).
    Cdvfs,
    /// Combined core gating + DVFS (DTM-COMB, Chapter 5).
    Comb,
    /// Per-channel bandwidth throttling (DTM-CBW): every logical channel is
    /// capped from its own hottest layer instead of the global maximum.
    Cbw,
    /// Migration-aware steering (DTM-MIG): traffic is shifted away from the
    /// hottest DIMM position toward the coldest.
    Mig,
}

impl std::fmt::Display for DtmScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DtmScheme::NoLimit => "No-limit",
            DtmScheme::Ts => "DTM-TS",
            DtmScheme::Bw => "DTM-BW",
            DtmScheme::Acg => "DTM-ACG",
            DtmScheme::Cdvfs => "DTM-CDVFS",
            DtmScheme::Comb => "DTM-COMB",
            DtmScheme::Cbw => "DTM-CBW",
            DtmScheme::Mig => "DTM-MIG",
        };
        write!(f, "{s}")
    }
}

/// A dynamic thermal management policy.
///
/// The second-level simulator calls [`DtmPolicy::decide`] once per DTM
/// interval with a [`ThermalObservation`] — the sensed temperature field of
/// the memory subsystem, including the per-position, per-layer temperatures
/// and the derived hottest devices — and the policy returns an
/// [`ActuationPlan`] for the next interval. The paper's schemes actuate
/// globally and return scalar plans (`mode.into()`, one line per policy);
/// spatially aware policies attach per-channel service fractions or
/// steering weights on top of the global mode.
/// (`Send` is a supertrait so batched cells — which own their policy — can
/// migrate between the lane-parallel workers of the batched engine.)
pub trait DtmPolicy: std::fmt::Debug + Send {
    /// Chooses the actuation plan for the next interval. `dt_s` is the time
    /// since the previous decision in seconds. Scalar policies return
    /// `mode.into()`.
    fn decide(&mut self, observation: &ThermalObservation, dt_s: f64) -> ActuationPlan;

    /// Convenience for sensor-style callers and tests: the plan's global
    /// running mode, decided from scalar hottest-device temperatures (an
    /// observation with no per-position field — spatial policies degrade to
    /// their global behavior).
    fn decide_temps(&mut self, amb_temp_c: f64, dram_temp_c: f64, dt_s: f64) -> RunningMode {
        self.decide(&ThermalObservation::from_hottest(amb_temp_c, dram_temp_c), dt_s).mode
    }

    /// The scheme this policy implements.
    fn scheme(&self) -> DtmScheme;

    /// Whether the policy is driven by the PID formal controller.
    fn uses_pid(&self) -> bool {
        false
    }

    /// Human-readable name (e.g. `"DTM-ACG+PID"`).
    fn name(&self) -> String {
        if self.uses_pid() {
            format!("{}+PID", self.scheme())
        } else {
            self.scheme().to_string()
        }
    }

    /// Resets any internal controller state.
    fn reset(&mut self) {}

    /// What [`DtmPolicy::decide`] depends on, described once as data: the
    /// one hook behind every shortcut the batched engine
    /// ([`crate::sim::batch`]) takes around `decide`. The engine observes
    /// only the device maxima unless the rule reads the field; it
    /// fast-forwards frozen plans only over rectangles the rule certifies;
    /// and it replays decisions only through the rule's keys.
    ///
    /// The rule describes the policy *as it is now*: a latch reports its
    /// current state. It is checked, not trusted — debug builds of the
    /// batched engine assert that [`DecisionRule::next`] predicts every
    /// literal decision (plan and latch state), and a seeded property test
    /// holds every policy's rule to its `decide`. The conservative default,
    /// [`DecisionRule::Field`], lets the engine derive nothing.
    fn decision_rule(&self) -> DecisionRule<'_> {
        DecisionRule::Field
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_match_the_paper() {
        assert_eq!(DtmScheme::Ts.to_string(), "DTM-TS");
        assert_eq!(DtmScheme::Bw.to_string(), "DTM-BW");
        assert_eq!(DtmScheme::Acg.to_string(), "DTM-ACG");
        assert_eq!(DtmScheme::Cdvfs.to_string(), "DTM-CDVFS");
        assert_eq!(DtmScheme::Comb.to_string(), "DTM-COMB");
        assert_eq!(DtmScheme::NoLimit.to_string(), "No-limit");
        // The spatially aware additions follow the paper's naming pattern.
        assert_eq!(DtmScheme::Cbw.to_string(), "DTM-CBW");
        assert_eq!(DtmScheme::Mig.to_string(), "DTM-MIG");
    }
}
