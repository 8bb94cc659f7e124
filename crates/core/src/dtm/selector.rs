//! Emergency-level selection for the multi-level DTM schemes.
//!
//! DTM-BW, DTM-ACG, DTM-CDVFS and DTM-COMB
//! ([`ThresholdPolicy`](crate::dtm::threshold::ThresholdPolicy)), and the
//! per-channel and fail-safe ladders of DTM-CBW and DTM-MIG, all quantize
//! temperature into a thermal emergency level and map the level to a
//! control decision. The quantization can be done either with the fixed
//! thresholds of Table 4.3 or with the PID formal controller of Section
//! 4.2.3; [`LevelSelector`] implements both. It only selects: what the
//! batched engine may derive from threshold selection is the policy's
//! [`DecisionRule`](crate::dtm::rule::DecisionRule).

use crate::dtm::emergency::{EmergencyLevel, EmergencyThresholds};
use crate::dtm::pid::PidController;
use crate::thermal::params::ThermalLimits;

/// Selects a thermal emergency level from sensed temperatures.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSelector {
    thresholds: EmergencyThresholds,
    limits: ThermalLimits,
    pid: Option<(PidController, PidController)>,
    /// The interval of the last selection, `None` before the first.
    dt_s: Option<f64>,
}

impl LevelSelector {
    /// Threshold-based selection using Table 4.3 boundaries derived from the
    /// given limits.
    pub fn threshold(limits: ThermalLimits) -> Self {
        LevelSelector { thresholds: EmergencyThresholds::table_4_3(&limits), limits, pid: None, dt_s: None }
    }

    /// PID-based selection using the paper's AMB and DRAM controllers.
    pub fn pid(limits: ThermalLimits) -> Self {
        LevelSelector {
            thresholds: EmergencyThresholds::table_4_3(&limits),
            limits,
            pid: Some((PidController::paper_amb(), PidController::paper_dram())),
            dt_s: None,
        }
    }

    /// PID-based selection with explicit controllers (used by the ablation
    /// benches that sweep the gains).
    pub fn pid_with(limits: ThermalLimits, amb: PidController, dram: PidController) -> Self {
        LevelSelector {
            thresholds: EmergencyThresholds::table_4_3(&limits),
            limits,
            pid: Some((amb, dram)),
            dt_s: None,
        }
    }

    /// Whether the selector uses the PID controllers.
    pub fn uses_pid(&self) -> bool {
        self.pid.is_some()
    }

    /// The thermal limits the selector enforces.
    pub fn limits(&self) -> &ThermalLimits {
        &self.limits
    }

    /// The Table 4.3 level boundaries of threshold selection.
    pub(crate) fn thresholds(&self) -> &EmergencyThresholds {
        &self.thresholds
    }

    /// The AMB and DRAM controllers of PID selection, `None` for threshold
    /// selection.
    pub(crate) fn controllers(&self) -> Option<(&PidController, &PidController)> {
        self.pid.as_ref().map(|(amb, dram)| (amb, dram))
    }

    /// The interval of the last [`select`](LevelSelector::select), `None`
    /// before the first (and after a reset).
    pub(crate) fn last_dt_s(&self) -> Option<f64> {
        self.dt_s
    }

    /// Resets controller state.
    pub fn reset(&mut self) {
        self.dt_s = None;
        if let Some((amb, dram)) = &mut self.pid {
            amb.reset();
            dram.reset();
        }
    }

    /// Selects the emergency level for the next interval. An absent device
    /// is signalled with a `NaN` temperature (a DDR4/5 rank pair has no
    /// AMB): it never trips a threshold and is kept out of its PID
    /// controller, so the decision rests on the devices that exist.
    pub fn select(&mut self, amb_temp_c: f64, dram_temp_c: f64, dt_s: f64) -> EmergencyLevel {
        self.dt_s = Some(dt_s);
        // Reaching a TDP always forces the highest emergency level, PID or
        // not: the chipset's fail-safe throttling stays in charge. (`NaN >=
        // tdp` is false, so absent devices cannot force it.)
        if amb_temp_c >= self.limits.amb_tdp_c || dram_temp_c >= self.limits.dram_tdp_c {
            if let Some((amb, dram)) = &mut self.pid {
                if !amb_temp_c.is_nan() {
                    amb.update(amb_temp_c, dt_s);
                }
                if !dram_temp_c.is_nan() {
                    dram.update(dram_temp_c, dt_s);
                }
            }
            return EmergencyLevel::L5;
        }
        match &mut self.pid {
            None => self.thresholds.level(amb_temp_c, dram_temp_c),
            Some((amb_pid, dram_pid)) => {
                // A NaN fed into a PID would poison its integral state for
                // the rest of the run; an absent device contributes the
                // lowest level instead.
                let la = if amb_temp_c.is_nan() {
                    0
                } else {
                    amb_pid.decide_level(amb_temp_c, dt_s, EmergencyLevel::ALL.len())
                };
                let ld = if dram_temp_c.is_nan() {
                    0
                } else {
                    dram_pid.decide_level(dram_temp_c, dt_s, EmergencyLevel::ALL.len())
                };
                EmergencyLevel::from_index(la.max(ld))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use cpu_model::CpuConfig;

    use super::*;
    use crate::dtm::policy::DtmPolicy;
    use crate::dtm::rule::tests::{certify, LADDERS};
    use crate::dtm::threshold::ThresholdPolicy;
    use crate::sim::modes::scheme_mode;

    /// The level the Table 4.3 ladder certifies over the rectangle
    /// `[amb_lo, amb_hi] × [dram_lo, dram_hi]`: every ladder scheme's
    /// decision rule must certify that level's mode, held to `decide` at
    /// sampled points, or all must refuse.
    fn region_level_rect(amb_lo: f64, dram_lo: f64, amb_hi: f64, dram_hi: f64) -> Option<EmergencyLevel> {
        let cpu = CpuConfig::paper_quad_core();
        let levels = LADDERS.map(|scheme| {
            let p = ThresholdPolicy::new(scheme, &cpu, ThermalLimits::paper_fbdimm());
            let plan = certify(&p, (amb_lo, dram_lo), (amb_hi, dram_hi))?;
            let level = EmergencyLevel::ALL[usize::from(p.decision_rule().key(amb_lo, dram_lo, amb_lo, dram_lo)?)];
            assert_eq!(plan, scheme_mode(scheme, level, &cpu).into(), "{scheme}");
            Some(level)
        });
        assert!(levels.iter().all(|l| *l == levels[0]), "{levels:?}");
        levels[0]
    }

    /// [`region_level_rect`] over `[t − below, t + above]` on both axes.
    fn region_level(amb_c: f64, dram_c: f64, below_c: f64, above_c: f64) -> Option<EmergencyLevel> {
        region_level_rect(amb_c - below_c, dram_c - below_c, amb_c + above_c, dram_c + above_c)
    }

    fn steady_band(amb_c: f64, dram_c: f64, below_c: f64, above_c: f64) -> bool {
        region_level(amb_c, dram_c, below_c, above_c).is_some()
    }

    fn steady(amb_c: f64, dram_c: f64, drift_c: f64) -> bool {
        steady_band(amb_c, dram_c, drift_c, drift_c)
    }

    /// Whether the PID-driven ladders certify the band around `(amb, dram)`
    /// after `decisions` decisions there; all must agree.
    fn pid_certifies(amb_c: f64, dram_c: f64, below_c: f64, above_c: f64, decisions: usize) -> bool {
        let answers = LADDERS.map(|scheme| {
            let mut p = ThresholdPolicy::with_pid(scheme, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
            for _ in 0..decisions {
                p.decide_temps(amb_c, dram_c, 0.01);
            }
            certify(&p, (amb_c - below_c, dram_c - below_c), (amb_c + above_c, dram_c + above_c)).is_some()
        });
        assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
        answers[0]
    }

    #[test]
    fn threshold_selector_matches_table_4_3() {
        let mut s = LevelSelector::threshold(ThermalLimits::paper_fbdimm());
        assert_eq!(s.select(100.0, 70.0, 0.01), EmergencyLevel::L1);
        assert_eq!(s.select(108.2, 70.0, 0.01), EmergencyLevel::L2);
        assert_eq!(s.select(109.7, 70.0, 0.01), EmergencyLevel::L4);
        assert_eq!(s.select(100.0, 84.6, 0.01), EmergencyLevel::L4);
        assert!(!s.uses_pid());
    }

    #[test]
    fn tdp_forces_the_highest_level_even_with_pid() {
        let mut s = LevelSelector::pid(ThermalLimits::paper_fbdimm());
        assert_eq!(s.select(110.0, 70.0, 0.01), EmergencyLevel::L5);
        assert_eq!(s.select(100.0, 85.0, 0.01), EmergencyLevel::L5);
        assert!(s.uses_pid());
    }

    #[test]
    fn pid_selector_allows_full_speed_when_cool() {
        let mut s = LevelSelector::pid(ThermalLimits::paper_fbdimm());
        assert_eq!(s.select(95.0, 70.0, 0.01), EmergencyLevel::L1);
    }

    #[test]
    fn pid_selector_throttles_when_held_above_target() {
        let mut s = LevelSelector::pid(ThermalLimits::paper_fbdimm());
        let mut level = EmergencyLevel::L1;
        for _ in 0..300 {
            level = s.select(109.95, 70.0, 0.01);
        }
        assert!(level >= EmergencyLevel::L3, "level {level}");
        s.reset();
        assert_eq!(s.select(95.0, 60.0, 0.01), EmergencyLevel::L1);
    }

    #[test]
    fn threshold_steadiness_requires_margin_from_every_boundary() {
        // Deep inside L1 / L2 with margin: steady.
        assert!(steady(100.0, 70.0, 0.5));
        assert!(steady(108.4, 70.0, 0.3));
        // A boundary inside the drift band: not steady.
        assert!(!steady(107.9, 70.0, 0.2)); // AMB L1→L2 at 108.0
        assert!(!steady(100.0, 84.9, 0.2)); // DRAM L4→L5 at 85.0

        // Absent devices (NaN) quantize to L1 on both sides of the band.
        assert!(steady(f64::NAN, 70.0, 0.5));
        // PID selection certifies nothing before its first decision; below
        // the enable thresholds its integral is off and it is steady.
        assert!(!pid_certifies(100.0, 70.0, 0.5, 0.5, 0));
        assert!(pid_certifies(100.0, 70.0, 0.5, 0.5, 1));
        assert!(pid_certifies(f64::NAN, 70.0, 0.5, 0.5, 1));
    }

    #[test]
    fn band_steadiness_is_directional() {
        // 107.9 °C with the AMB L1→L2 boundary at 108.0: a symmetric 0.2°
        // ball crosses it, but a downward band of the same reach does not.
        assert!(!steady(107.9, 70.0, 0.2));
        assert!(steady_band(107.9, 70.0, 0.2, 0.05));
        assert!(!steady_band(107.9, 70.0, 0.05, 0.2));
        // The symmetric form is the band with equal arms.
        assert_eq!(steady(107.9, 70.0, 0.2), steady_band(107.9, 70.0, 0.2, 0.2));
        assert!(steady_band(f64::NAN, 70.0, 0.5, 0.5));
        // A band straddling a PID enable threshold moves the integral.
        assert!(!pid_certifies(109.0, 70.0, 0.1, 0.1, 1));
        assert!(!pid_certifies(100.0, 84.0, 0.1, 0.1, 1));
    }

    #[test]
    fn region_level_returns_the_unique_level_of_the_rectangle() {
        // Deep inside L1: the rectangle decides L1.
        assert_eq!(region_level(100.0, 70.0, 0.5, 0.5), Some(EmergencyLevel::L1));
        // Hugging the AMB L1→L2 boundary (108.0) from below: directional.
        assert_eq!(region_level(107.9, 70.0, 0.2, 0.05), Some(EmergencyLevel::L1));
        assert_eq!(region_level(107.9, 70.0, 0.05, 0.2), None);
        // Just above it: L2 on both corners.
        assert_eq!(region_level(108.3, 70.0, 0.2, 0.2), Some(EmergencyLevel::L2));
        // Absent AMB device (NaN) rests the certificate on the DRAM arm.
        assert_eq!(region_level(f64::NAN, 70.0, 0.5, 0.5), Some(EmergencyLevel::L1));
        // A TDP inside the rectangle forces L5 and moves the PID integrals.
        assert!(!pid_certifies(109.95, 70.0, 0.01, 0.1, 1));
    }

    #[test]
    fn region_level_rect_keeps_the_axes_independent() {
        // A wide AMB extent with a hair-thin DRAM extent right below its
        // boundary: per-axis corners certify where a shared span would not.
        assert_eq!(region_level_rect(100.0, 84.49, 107.0, 84.499), Some(EmergencyLevel::L3));
        // The same rectangle nudged across the DRAM L3→L4 boundary fails.
        assert_eq!(region_level_rect(100.0, 84.49, 107.0, 84.6), None);
        assert_eq!(region_level_rect(f64::NAN, 70.0, f64::NAN, 70.5), Some(EmergencyLevel::L1));
    }

    #[test]
    fn limits_accessor_exposes_the_configured_limits() {
        let s = LevelSelector::threshold(ThermalLimits::paper_fbdimm());
        assert_eq!(s.limits().amb_tdp_c, 110.0);
    }
}
