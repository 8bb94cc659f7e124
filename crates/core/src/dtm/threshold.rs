//! The emergency-level policies: DTM-BW, DTM-ACG, DTM-CDVFS (Section 4.2)
//! and DTM-COMB (Section 5.2.2).
//!
//! All four quantize the hottest AMB or DRAM temperature into a thermal
//! emergency level — with the fixed thresholds of Table 4.3 or the PID
//! formal controller of Section 4.2.3 ([`LevelSelector`]) — and differ only
//! in the running mode each level selects ([`scheme_mode`]):
//!
//! * **DTM-BW** caps the memory controller's throughput: no limit / 19.2 /
//!   12.8 / 6.4 GB/s.
//! * **DTM-ACG** clock-gates one more core per level, reducing both the
//!   memory access rate and (through less shared-cache contention) the
//!   total memory traffic.
//! * **DTM-CDVFS** steps every core down the DVFS ladder, cutting the
//!   traffic and the processor heat that reaches the memory.
//! * **DTM-COMB**, the Chapter 5 case study, gates cores *and* scales the
//!   frequency and voltage of the rest.
//!
//! The top level, reached at a thermal design point, shuts the memory off
//! in every scheme. [`ThresholdPolicy`] is all four: its level → mode table
//! is computed once, and `decide` indexes it with the selected level.

use cpu_model::{CpuConfig, RunningMode};

use crate::dtm::emergency::EmergencyLevel;
use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::dtm::rule::DecisionRule;
use crate::dtm::selector::LevelSelector;
use crate::sim::modes::scheme_mode;
use crate::thermal::params::ThermalLimits;
use crate::thermal::scene::ThermalObservation;

/// An emergency-level policy: DTM-BW, DTM-ACG, DTM-CDVFS or DTM-COMB,
/// threshold- or PID-driven.
#[derive(Debug, Clone)]
pub struct ThresholdPolicy {
    scheme: DtmScheme,
    selector: LevelSelector,
    /// The running mode of each emergency level, L1 first.
    ladder: [RunningMode; EmergencyLevel::ALL.len()],
}

impl ThresholdPolicy {
    /// `scheme` driven by the Table 4.3 thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `scheme` is DTM-BW, DTM-ACG, DTM-CDVFS or DTM-COMB.
    pub fn new(scheme: DtmScheme, cpu: &CpuConfig, limits: ThermalLimits) -> Self {
        Self::with_selector(scheme, cpu, LevelSelector::threshold(limits))
    }

    /// `scheme` driven by the paper's PID controllers.
    ///
    /// # Panics
    ///
    /// Panics unless `scheme` is DTM-BW, DTM-ACG, DTM-CDVFS or DTM-COMB.
    pub fn with_pid(scheme: DtmScheme, cpu: &CpuConfig, limits: ThermalLimits) -> Self {
        Self::with_selector(scheme, cpu, LevelSelector::pid(limits))
    }

    fn with_selector(scheme: DtmScheme, cpu: &CpuConfig, selector: LevelSelector) -> Self {
        assert!(
            matches!(scheme, DtmScheme::Bw | DtmScheme::Acg | DtmScheme::Cdvfs | DtmScheme::Comb),
            "{scheme} is not an emergency-level ladder"
        );
        ThresholdPolicy { scheme, selector, ladder: EmergencyLevel::ALL.map(|level| scheme_mode(scheme, level, cpu)) }
    }
}

impl DtmPolicy for ThresholdPolicy {
    fn decide(&mut self, observation: &ThermalObservation, dt_s: f64) -> ActuationPlan {
        let level = self.selector.select(observation.max_amb_c, observation.max_dram_c, dt_s);
        self.ladder[level.index()].into()
    }

    fn scheme(&self) -> DtmScheme {
        self.scheme
    }

    fn uses_pid(&self) -> bool {
        self.selector.uses_pid()
    }

    fn reset(&mut self) {
        self.selector.reset();
    }

    fn decision_rule(&self) -> DecisionRule<'_> {
        match self.selector.controllers() {
            None => DecisionRule::Ladder { levels: self.selector.thresholds(), modes: &self.ladder },
            Some((amb, dram)) => DecisionRule::Pid {
                amb,
                dram,
                limits: self.selector.limits(),
                modes: &self.ladder,
                dt_s: self.selector.last_dt_s(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_four_level_ladders_are_accepted() {
        let cpu = CpuConfig::paper_quad_core();
        for scheme in [DtmScheme::NoLimit, DtmScheme::Ts, DtmScheme::Cbw, DtmScheme::Mig] {
            let built = std::panic::catch_unwind(|| ThresholdPolicy::new(scheme, &cpu, ThermalLimits::paper_fbdimm()));
            assert!(built.is_err(), "{scheme} was accepted");
        }
    }
}
