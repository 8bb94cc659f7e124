//! DTM-CBW: per-channel bandwidth throttling.
//!
//! DTM-BW (Section 4.2.1) caps the throughput of the *whole* memory
//! subsystem from the hottest device anywhere — one cool channel pays for
//! one hot one. DTM-CBW runs one [`LevelSelector`] per logical channel,
//! keyed to **that channel's** hottest buffer and DRAM layers (NaN-safe for
//! bufferless rank pairs and 3D stacks, whose observations report a `NaN`
//! buffer maximum: the selector keeps `NaN` out of its PID integrals, so
//! the per-channel decision rests on the layers that exist). Each channel's
//! emergency level maps to a service fraction
//! ([`EmergencyLevel::service_fraction`], the Table 4.3 caps normalized to
//! the subsystem peak), and the resulting [`ActuationPlan`] throttles only
//! the channels that are actually hot.
//!
//! With no per-position field (scalar sensors), the policy degrades to
//! global DTM-BW behavior through a fallback selector on the observation's
//! maxima — the plan is scalar and bit-compatible with DTM-BW.

use cpu_model::{CpuConfig, RunningMode};

use crate::dtm::emergency::EmergencyLevel;
use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::dtm::selector::LevelSelector;
use crate::sim::modes::scheme_mode;
use crate::thermal::params::ThermalLimits;
use crate::thermal::scene::ThermalObservation;

/// The per-channel bandwidth-throttling policy.
#[derive(Debug, Clone)]
pub struct DtmCbw {
    cpu: CpuConfig,
    limits: ThermalLimits,
    pid: bool,
    /// One selector per observed logical channel, grown lazily to the
    /// field's channel count.
    channels: Vec<LevelSelector>,
    /// Fallback selector for observations without a per-position field.
    global: LevelSelector,
}

impl DtmCbw {
    /// Threshold-driven DTM-CBW.
    pub fn new(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmCbw { cpu, limits, pid: false, channels: Vec::new(), global: LevelSelector::threshold(limits) }
    }

    /// PID-driven DTM-CBW: every channel runs its own pair of Section 4.2.3
    /// controllers.
    pub fn with_pid(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmCbw { cpu, limits, pid: true, channels: Vec::new(), global: LevelSelector::pid(limits) }
    }

    fn make_selector(&self) -> LevelSelector {
        if self.pid {
            LevelSelector::pid(self.limits)
        } else {
            LevelSelector::threshold(self.limits)
        }
    }
}

impl DtmPolicy for DtmCbw {
    fn decide(&mut self, observation: &ThermalObservation, dt_s: f64) -> ActuationPlan {
        let channels = observation.channels();
        if channels == 0 {
            // Scalar sensors: behave exactly like global DTM-BW.
            let level = self.global.select(observation.max_amb_c, observation.max_dram_c, dt_s);
            return scheme_mode(DtmScheme::Bw, level, &self.cpu).into();
        }
        while self.channels.len() < channels {
            self.channels.push(self.make_selector());
        }
        let mut service = Vec::with_capacity(channels);
        let mut worst = EmergencyLevel::L1;
        let mut best = EmergencyLevel::L5;
        for (channel, selector) in self.channels.iter_mut().enumerate().take(channels) {
            let (amb_c, dram_c) = observation.channel_max_temps(channel);
            let level = selector.select(amb_c, dram_c, dt_s);
            worst = worst.max(level);
            best = if level <= best { level } else { best };
            service.push(level.service_fraction());
        }
        // Every channel at the TDP: the fail-safe is a global shutdown, the
        // same mode DTM-BW's highest level selects. Otherwise the cores run
        // at full speed and the per-channel fractions do the throttling.
        let mode = if best == EmergencyLevel::L5 {
            scheme_mode(DtmScheme::Bw, EmergencyLevel::L5, &self.cpu)
        } else {
            RunningMode::full_speed(&self.cpu)
        };
        if worst == EmergencyLevel::L1 {
            // Nothing throttles: keep the plan scalar so the engine stays on
            // the legacy fast path.
            return mode.into();
        }
        ActuationPlan::global(mode).with_channel_service(service)
    }

    fn scheme(&self) -> DtmScheme {
        DtmScheme::Cbw
    }

    fn uses_pid(&self) -> bool {
        self.pid
    }

    fn reset(&mut self) {
        self.channels.clear();
        self.global.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermal::scene::PositionTemp;

    fn policy() -> DtmCbw {
        DtmCbw::new(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    /// An observation with one position per channel at the given
    /// (buffer, DRAM) temperatures.
    fn field(temps: &[(f64, f64)]) -> ThermalObservation {
        let mut obs = ThermalObservation::from_hottest(f64::NEG_INFINITY, f64::NEG_INFINITY);
        obs.layer_depth = 2;
        for (channel, &(amb_c, dram_c)) in temps.iter().enumerate() {
            let hottest = if amb_c.is_nan() || dram_c > amb_c { (1, dram_c) } else { (0, amb_c) };
            obs.positions.push(PositionTemp {
                channel,
                dimm: 0,
                amb_c,
                dram_c,
                hottest_layer: hottest.0,
                hottest_layer_c: hottest.1,
            });
            obs.layer_temps_c.extend([amb_c, dram_c]);
            if !amb_c.is_nan() && amb_c > obs.max_amb_c {
                obs.max_amb_c = amb_c;
                obs.hottest_amb = Some((channel, 0));
            }
            if dram_c > obs.max_dram_c {
                obs.max_dram_c = dram_c;
                obs.hottest_dram = Some((channel, 0));
            }
        }
        obs
    }

    #[test]
    fn only_the_hot_channel_is_throttled() {
        let mut p = policy();
        let plan = p.decide(&field(&[(109.2, 70.0), (100.0, 70.0)]), 0.01);
        assert!(!plan.is_scalar());
        assert_eq!(plan.mode, RunningMode::full_speed(&CpuConfig::paper_quad_core()));
        assert!(plan.service_for(0) < 1.0, "hot channel throttled: {}", plan.service_for(0));
        assert_eq!(plan.service_for(1), 1.0, "cool channel untouched");
        assert!(plan.throttles_channel(0) && !plan.throttles_channel(1));
    }

    #[test]
    fn cool_fields_produce_scalar_full_speed_plans() {
        let mut p = policy();
        let plan = p.decide(&field(&[(100.0, 70.0), (101.0, 71.0)]), 0.01);
        assert!(plan.is_scalar(), "no emergency -> legacy fast path");
        assert_eq!(plan.mode, RunningMode::full_speed(&CpuConfig::paper_quad_core()));
    }

    #[test]
    fn service_tightens_with_per_channel_severity() {
        let mut p = policy();
        let plan = p.decide(&field(&[(108.2, 70.0), (109.2, 70.0), (109.7, 70.0), (110.5, 70.0)]), 0.01);
        let s: Vec<f64> = (0..4).map(|c| plan.service_for(c)).collect();
        for (got, want) in s.iter().zip([0.75, 0.5, 0.25, 0.0]) {
            assert!((got - want).abs() < 1e-12, "Table 4.3 fraction {got} vs {want}");
        }
        // One live channel keeps the machine running.
        assert!(plan.mode.makes_progress());
    }

    #[test]
    fn all_channels_at_tdp_shut_the_memory_off() {
        let mut p = policy();
        let plan = p.decide(&field(&[(110.2, 70.0), (111.0, 70.0)]), 0.01);
        assert!(!plan.mode.makes_progress());
    }

    #[test]
    fn bufferless_channels_key_off_their_dram_layers() {
        // Rank pairs report NaN buffers: channel 1's hot DRAM must throttle
        // channel 1 alone, through the NaN-safe selector path.
        let mut p = DtmCbw::with_pid(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        let mut throttled_hot = false;
        let mut throttled_cold = false;
        for _ in 0..100 {
            let plan = p.decide(&field(&[(f64::NAN, 70.0), (f64::NAN, 84.9)]), 0.01);
            throttled_hot |= plan.service_for(1) < 1.0;
            throttled_cold |= plan.service_for(0) < 1.0;
        }
        assert!(throttled_hot, "hot bufferless channel must be throttled");
        assert!(!throttled_cold, "cool bufferless channel must never be");
    }

    #[test]
    fn scalar_sensors_degrade_to_global_bw_behavior() {
        let mut cbw = policy();
        let mut bw = crate::dtm::ThresholdPolicy::new(
            DtmScheme::Bw,
            &CpuConfig::paper_quad_core(),
            ThermalLimits::paper_fbdimm(),
        );
        for temps in [(100.0, 70.0), (108.5, 70.0), (109.7, 70.0), (110.5, 70.0)] {
            assert_eq!(cbw.decide_temps(temps.0, temps.1, 0.01), bw.decide_temps(temps.0, temps.1, 0.01));
        }
    }

    #[test]
    fn naming_and_reset_follow_the_scheme_conventions() {
        let p = policy();
        assert_eq!(p.name(), "DTM-CBW");
        assert_eq!(p.scheme(), DtmScheme::Cbw);
        assert!(!p.uses_pid());
        let mut pid = DtmCbw::with_pid(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        assert_eq!(pid.name(), "DTM-CBW+PID");
        assert!(pid.uses_pid());
        pid.decide(&field(&[(109.9, 70.0)]), 0.01);
        pid.reset();
        assert!(pid.channels.is_empty(), "reset drops the per-channel controller state");
    }
}
