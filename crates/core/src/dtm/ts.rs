//! DTM-TS: thermal shutdown (Section 4.2.1).
//!
//! When either device reaches its thermal design point the memory subsystem
//! is shut off completely; it is re-enabled once the temperature has dropped
//! below the thermal release point (TRP). The TRP is the knob Figure 4.2
//! sweeps.

use cpu_model::{CpuConfig, RunningMode};

use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::thermal::params::ThermalLimits;
use crate::thermal::scene::ThermalObservation;

/// The thermal-shutdown policy.
#[derive(Debug, Clone)]
pub struct DtmTs {
    cpu: CpuConfig,
    limits: ThermalLimits,
    shut_down: bool,
}

impl DtmTs {
    /// Creates the policy with the given thermal limits (TDP and TRP).
    pub fn new(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmTs { cpu, limits, shut_down: false }
    }

    /// Whether the memory is currently shut down.
    pub fn is_shut_down(&self) -> bool {
        self.shut_down
    }

    /// The thermal limits in use.
    pub fn limits(&self) -> &ThermalLimits {
        &self.limits
    }

    /// The plan of a latch state: memory off while shut down, full speed
    /// otherwise.
    fn plan(&self, shut_down: bool) -> ActuationPlan {
        if shut_down {
            RunningMode { active_cores: 0, op: self.cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) }.into()
        } else {
            RunningMode::full_speed(&self.cpu).into()
        }
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
        self.plan(self.shut_down)
    }

    fn scheme(&self) -> DtmScheme {
        DtmScheme::Ts
    }

    fn reset(&mut self) {
        self.shut_down = false;
    }

    fn observes_field(&self) -> bool {
        // Decisions read only the scalar device maxima.
        false
    }

    fn is_steady(&self, observation: &ThermalObservation, _plan: &ActuationPlan, drift_c: f64) -> bool {
        // The only state is the shutdown latch; the decision is steady iff
        // no observation within the drift band can flip it. Comparisons are
        // NaN-safe: an absent device (`NaN`) trips nothing and is written so
        // a NaN temperature answers `false` on the "stays above" side.
        let stays_below = |temp: f64, limit: f64| {
            let reaches = temp + drift_c >= limit;
            !reaches
        };
        let stays_above = |temp: f64, limit: f64| temp - drift_c > limit;
        if self.shut_down {
            // Stays latched only while some present device holds clear of
            // its release point even after drifting down.
            stays_above(observation.max_amb_c, self.limits.amb_trp_c)
                || stays_above(observation.max_dram_c, self.limits.dram_trp_c)
        } else {
            stays_below(observation.max_amb_c, self.limits.amb_tdp_c)
                && stays_below(observation.max_dram_c, self.limits.dram_tdp_c)
        }
    }

    fn plan_decided_by_region(
        &self,
        observation: &ThermalObservation,
        amb_span_c: f64,
        dram_span_c: f64,
    ) -> Option<ActuationPlan> {
        // The latch is the only state, and both conditions that move it are
        // monotone in the maxima, so one corner decides the rectangle.
        // Running: every point must stay strictly below both TDPs (the
        // upper corner; a NaN buffer axis trips nothing). Latched: every
        // point must stay unreleased (the lower corner; some present device
        // above its TRP). Anywhere else a decision in the rectangle could
        // flip the latch.
        let (amb, dram) = (observation.max_amb_c, observation.max_dram_c);
        let holds = if self.shut_down {
            !ThermalObservation::from_hottest(amb, dram).released(&self.limits)
        } else {
            !ThermalObservation::from_hottest(amb + amb_span_c, dram + dram_span_c).over_tdp(&self.limits)
        };
        holds.then(|| self.plan(self.shut_down))
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
        use crate::thermal::scene::ThermalObservation;
        let mut p = policy();
        let cool = ThermalObservation::from_hottest(100.0, 70.0);
        let plan = p.decide(&cool, 1.0);
        assert!(p.is_steady(&cool, &plan, 1.0));
        // TDP within the drift band: the latch could set.
        assert!(!p.is_steady(&ThermalObservation::from_hottest(109.5, 70.0), &plan, 1.0));
        // Latched shut and holding clear above the release point: steady.
        let hot = ThermalObservation::from_hottest(120.0, 70.0);
        let shut_plan = p.decide(&hot, 1.0);
        assert!(p.is_shut_down());
        assert!(p.is_steady(&hot, &shut_plan, 1.0));
        // Near the release point the latch could clear: not steady.
        assert!(!p.is_steady(&ThermalObservation::from_hottest(109.3, 70.0), &shut_plan, 1.0));
    }

    #[test]
    fn region_certificate_names_the_plan_every_decision_in_the_rectangle_returns() {
        // Random rectangles in both latch states, anchored at and spanning
        // points 1 ulp either side of every TDP and TRP, some with no
        // buffer die (NaN buffer axis). The certificate must answer `Some`
        // exactly when every sampled decision returns its plan and leaves
        // the latch alone: its deciding corner is always sampled, so a
        // rectangle that straddles a threshold must get `None`.
        use workloads::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x7505_2026);
        let mut answered = [0usize; 2];
        let mut refused = [0usize; 2];
        for _ in 0..4000 {
            let limits = ThermalLimits::paper_fbdimm()
                .with_amb_trp(rng.gen_range(106.0..110.0))
                .with_dram_trp(rng.gen_range(81.0..85.0));
            let mut p = DtmTs::new(CpuConfig::paper_quad_core(), limits);
            let latched = rng.gen_bool(0.5);
            if latched {
                p.decide_temps(limits.amb_tdp_c + 1.0, 70.0, 0.01);
            }
            assert_eq!(p.is_shut_down(), latched);
            // An axis coordinate: a threshold, 1 ulp either side of it, or
            // a point near the thresholds.
            let coord = |trp: f64, tdp: f64, rng: &mut SmallRng| -> f64 {
                let t = if rng.gen_bool(0.5) { trp } else { tdp };
                match rng.gen_range(0..4u64) {
                    0 => t,
                    1 => t.next_up(),
                    2 => t.next_down(),
                    _ => rng.gen_range(trp - 2.0..tdp + 1.0),
                }
            };
            let has_buffer = !rng.gen_bool(0.2);
            let amb = if has_buffer { coord(limits.amb_trp_c, limits.amb_tdp_c, &mut rng) } else { f64::NAN };
            let dram = coord(limits.dram_trp_c, limits.dram_tdp_c, &mut rng);
            let span = |rng: &mut SmallRng| match rng.gen_range(0..3u64) {
                0 => 0.0,
                1 => f64::from_bits(1),
                _ => rng.gen_range(0.0..3.0),
            };
            let amb_span = if has_buffer { span(&mut rng) } else { 0.0 };
            let dram_span = span(&mut rng);
            let cert = p.plan_decided_by_region(&ThermalObservation::from_hottest(amb, dram), amb_span, dram_span);

            // Sample the two corners, random interior points and every
            // threshold ±1 ulp that falls inside the rectangle.
            let (amb_hi, dram_hi) = (amb + amb_span, dram + dram_span);
            let mut amb_pts = vec![amb, amb_hi];
            let mut dram_pts = vec![dram, dram_hi];
            for _ in 0..3 {
                amb_pts.push(amb + rng.gen_range(0.0..1.0) * amb_span);
                dram_pts.push(dram + rng.gen_range(0.0..1.0) * dram_span);
            }
            for t in [limits.amb_trp_c, limits.amb_tdp_c] {
                amb_pts.extend([t.next_down(), t, t.next_up()].into_iter().filter(|&x| amb <= x && x <= amb_hi));
            }
            for t in [limits.dram_trp_c, limits.dram_tdp_c] {
                dram_pts.extend([t.next_down(), t, t.next_up()].into_iter().filter(|&x| dram <= x && x <= dram_hi));
            }
            let current = p.plan(latched);
            let mut all_hold = true;
            for &a in &amb_pts {
                for &d in &dram_pts {
                    let mut q = p.clone();
                    let plan = q.decide(&ThermalObservation::from_hottest(a, d), 0.01);
                    let holds = plan == current && q.is_shut_down() == latched;
                    if let Some(certified) = &cert {
                        assert!(holds, "certified {certified:?} but decide({a}, {d}) latched={latched} broke it");
                        assert_eq!(&plan, certified);
                    }
                    all_hold &= holds;
                }
            }
            assert_eq!(
                cert.is_some(),
                all_hold,
                "latched={latched} rect [{amb}, {amb_hi}] x [{dram}, {dram_hi}] under {limits:?}"
            );
            if cert.is_some() {
                answered[usize::from(latched)] += 1;
            } else {
                refused[usize::from(latched)] += 1;
            }
        }
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
