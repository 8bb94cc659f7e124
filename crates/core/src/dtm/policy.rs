//! The DTM policy interface.

use cpu_model::RunningMode;

use crate::dtm::plan::ActuationPlan;
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

    /// Whether [`DtmPolicy::decide`] / [`DtmPolicy::is_steady`] read the
    /// observation's spatial field (`positions`, per-layer temperatures,
    /// hottest coordinates) rather than only the scalar device maxima and
    /// the ambient. The batched engine ([`crate::sim::batch`]) skips
    /// synthesizing the per-position field for policies that answer
    /// `false` — the scalar maxima come straight from the lane's RC sweep.
    /// The conservative default keeps unknown policies fully observed.
    fn observes_field(&self) -> bool {
        true
    }

    /// Whether the policy has reached a *steady decision state*: given any
    /// future observation whose temperatures differ from `observation` by at
    /// most `drift_c` degrees (per field), every future [`DtmPolicy::decide`]
    /// call is guaranteed to return `plan` again **and** leave the policy's
    /// internal state unchanged, forever.
    ///
    /// This is the policy-side contract of the batched engine's steady-state
    /// fast-forward ([`crate::sim::batch`]): once a cell's temperatures sit
    /// within ε of their RC fixed point, future temperatures stay within 2ε
    /// of the current ones, so a policy that answers `true` here (with
    /// `drift_c = 2ε`) can be skipped analytically without consulting it
    /// again. `plan` is the plan the policy just returned for `observation`.
    ///
    /// The default is `false` — stateful controllers (PID integrals, spatial
    /// steering) are never fast-forwarded. Implementations must only answer
    /// `true` when the contract provably holds under the drift bound; a
    /// wrong `true` silently changes simulation results.
    fn is_steady(&self, observation: &ThermalObservation, plan: &ActuationPlan, drift_c: f64) -> bool {
        let _ = (observation, plan, drift_c);
        false
    }

    /// Asymmetric variant of [`DtmPolicy::is_steady`]: the same guarantee,
    /// but over the band `[t − below_c, t + above_c]` around the observed
    /// temperatures instead of a symmetric ball.
    ///
    /// This is the policy-side contract of the batched engine's *envelope*
    /// fast-forward ([`crate::sim::batch`]): a trajectory sliding
    /// monotonically toward its fixed point, or a slipping orbit hugging a
    /// threshold from one side, traverses a directed temperature range — the
    /// replayer knows exactly how far the temperatures can move in each
    /// direction and asks for steadiness over that range only. A symmetric
    /// `is_steady` query with `drift_c = max(below, above)` would refuse
    /// precisely the near-boundary cells the envelope tier targets.
    ///
    /// The default delegates to the symmetric form with the larger arm
    /// (always sound: the symmetric ball contains the band); threshold
    /// policies override it with a genuinely directional check.
    fn is_steady_band(
        &self,
        observation: &ThermalObservation,
        plan: &ActuationPlan,
        below_c: f64,
        above_c: f64,
    ) -> bool {
        self.is_steady(observation, plan, below_c.max(above_c))
    }

    /// Decision-region certificate: the unique plan [`DtmPolicy::decide`]
    /// would return for *every* observation whose temperatures lie in the
    /// rectangle `[amb, amb + amb_span_c] × [dram, dram + dram_span_c]`
    /// anchored at `observation`'s maxima (its lower corner), or `None` if
    /// the rectangle straddles a decision boundary (or the policy cannot
    /// certify regions at all — the conservative default). The spans are
    /// per-axis: the device axes trace independent ranges, and inflating
    /// the narrow one by the wide one would refuse certifiable rectangles.
    ///
    /// This strengthens [`DtmPolicy::is_steady_band`], which only proves
    /// the decision is *unchanging* over a band, into naming the decided
    /// plan: the batched engine's envelope burst ([`crate::sim::batch`])
    /// presents the exact observation rectangle a frozen-plan segment's
    /// λ-powered contraction envelope traces, and a `Some` answer equal to
    /// the frozen plan proves every skipped decision re-returns it —
    /// licensing closed-form segment jumps right up to a threshold the
    /// orbit chatters across.
    ///
    /// The certificate speaks for the policy *as it is now*: implementations
    /// must only answer `Some(plan)` when every [`DtmPolicy::decide`] at an
    /// observation in the rectangle returns `plan` **and** leaves the
    /// policy's internal state unchanged, so any number of skipped decisions
    /// in the rectangle is the same as none. A latched controller can
    /// answer for the rectangles where its latch cannot move (DTM-TS: below
    /// both TDPs while running, unreleased while shut down); integrating
    /// controllers (PID) answer `None`. Answering `Some` at a cell's
    /// starting observation also admits a policy without a
    /// [`DtmPolicy::decision_key`] to the envelope tier. A wrong `Some`
    /// silently changes simulation results.
    fn plan_decided_by_region(
        &self,
        observation: &ThermalObservation,
        amb_span_c: f64,
        dram_span_c: f64,
    ) -> Option<ActuationPlan> {
        let _ = (observation, amb_span_c, dram_span_c);
        None
    }

    /// Dense pure-decision key: a small discriminant of the plan
    /// [`DtmPolicy::decide`] would return for an observation carrying these
    /// device maxima, with `decide(obs, dt) == plan_for_key(key)` for every
    /// observation and any `dt`. `None` (the conservative default) means
    /// decisions cannot be keyed — stateful controllers, field-observing
    /// policies, or policies whose plans depend on more than the maxima.
    ///
    /// This is the policy-side contract of the batched engine's *exact
    /// decision replay* ([`crate::sim::batch`]): instead of certifying that
    /// a temperature region cannot change the decision, the replayer
    /// re-evaluates the decision per virtual window from the exact device
    /// maxima — sliding-mode chatter whose plan sequence never settles into
    /// an exact period is replayed decision for decision at scalar cost.
    ///
    /// Implementations must answer `Some` only when [`DtmPolicy::decide`]
    /// is a *pure, memoryless* function of the device maxima: identical
    /// maxima always yield identical plans and a decision never mutates
    /// internal state. Latched or integrating controllers (DTM-TS
    /// hysteresis, PID) must answer `None`; a latched policy reaches the
    /// envelope tier through [`DtmPolicy::plan_decided_by_region`] instead.
    /// Answer `Some` either for every input or for none, and keep keys
    /// below 16; a wrong key silently changes simulation results.
    fn decision_key(&self, max_amb_c: f64, max_dram_c: f64) -> Option<u8> {
        let _ = (max_amb_c, max_dram_c);
        None
    }

    /// The plan a [`DtmPolicy::decision_key`] key stands for, or `None` for
    /// policies that cannot key decisions. Must be consistent with
    /// `decision_key`: `decide(obs, dt) == plan_for_key(decision_key(obs))`
    /// bit for bit, for every observation.
    fn plan_for_key(&self, key: u8) -> Option<ActuationPlan> {
        let _ = key;
        None
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
