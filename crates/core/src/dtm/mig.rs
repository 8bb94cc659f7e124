//! DTM-MIG: migration-aware traffic steering.
//!
//! AL-DRAM-style observations (and the paper's own Figure 3 data) show that
//! thermal headroom varies strongly across DIMM positions: the DIMM closest
//! to the controller carries all the bypass traffic and runs hottest while
//! the far end of the chain idles cool. DTM-MIG exploits that headroom by
//! *moving work* instead of removing it: each interval it shifts a small
//! amount of traffic-steering weight away from the position whose hottest
//! layer is the hottest of the field toward the coldest one (page-migration
//! emulated at the traffic level), flattening the thermal field so the
//! global throttle engages later — or not at all.
//!
//! A hysteresis band keeps the weights from chattering: migration only
//! proceeds while the hottest-vs-coldest spread exceeds `band_on_c`, and
//! the weights relax back toward the uniform distribution once the spread
//! drops below `band_off_c`. In between, the weights hold. Until the first
//! migration triggers, the policy emits **scalar** plans — traffic follows
//! the workload's natural distribution, exactly like DTM-BW — and only
//! once the band is crossed does it take ownership of the distribution
//! (starting from uniform, the flat split migration is driving toward).
//! The global mode is the same fail-safe ladder as DTM-BW (thresholds or
//! PID), so the TDP contract is never weaker than the paper's scheme; with
//! no per-position field the policy degrades to exactly DTM-BW.

use cpu_model::CpuConfig;

use crate::dtm::plan::ActuationPlan;
use crate::dtm::policy::{DtmPolicy, DtmScheme};
use crate::dtm::selector::LevelSelector;
use crate::sim::modes::scheme_mode;
use crate::thermal::params::ThermalLimits;
use crate::thermal::scene::ThermalObservation;

/// The migration-aware steering policy.
#[derive(Debug, Clone)]
pub struct DtmMig {
    cpu: CpuConfig,
    selector: LevelSelector,
    /// Per-position steering weights (the policy's persistent state),
    /// lazily sized to the observed field and kept summing to 1.
    weights: Vec<f64>,
    /// Weight moved from the hottest to the coldest position per decision.
    step: f64,
    /// Spread (hottest − coldest hottest-layer temperature) above which
    /// migration proceeds, °C.
    band_on_c: f64,
    /// Spread below which the weights relax back toward uniform, °C.
    band_off_c: f64,
}

impl DtmMig {
    /// Threshold-driven DTM-MIG with the default migration rate (2% of the
    /// traffic per decision) and a 1.5 / 0.5 °C hysteresis band.
    pub fn new(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmMig {
            cpu,
            selector: LevelSelector::threshold(limits),
            weights: Vec::new(),
            step: 0.02,
            band_on_c: 1.5,
            band_off_c: 0.5,
        }
    }

    /// PID-driven DTM-MIG (the global fail-safe ladder runs the Section
    /// 4.2.3 controllers).
    pub fn with_pid(cpu: CpuConfig, limits: ThermalLimits) -> Self {
        DtmMig { selector: LevelSelector::pid(limits), ..Self::new(cpu, limits) }
    }

    /// Overrides the weight moved per decision, clamped to `(0, 1]`;
    /// non-finite values keep the current step (`clamp` would propagate a
    /// `NaN` straight into the steering state).
    pub fn with_step(mut self, step: f64) -> Self {
        if step.is_finite() {
            self.step = step.clamp(f64::MIN_POSITIVE, 1.0);
        }
        self
    }

    /// Overrides the hysteresis band: migrate above `band_on_c` of spread,
    /// relax toward uniform below `band_off_c`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= band_off_c <= band_on_c`.
    pub fn with_band(mut self, band_on_c: f64, band_off_c: f64) -> Self {
        assert!(0.0 <= band_off_c && band_off_c <= band_on_c, "hysteresis band must satisfy 0 <= off <= on");
        self.band_on_c = band_on_c;
        self.band_off_c = band_off_c;
        self
    }

    /// The current steering weights (empty until the first decision over a
    /// resolved field).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn renormalize(&mut self) {
        let sum: f64 = self.weights.iter().sum();
        if sum > 0.0 {
            for w in &mut self.weights {
                *w /= sum;
            }
        }
    }
}

impl DtmPolicy for DtmMig {
    fn decide(&mut self, observation: &ThermalObservation, dt_s: f64) -> ActuationPlan {
        // Global fail-safe first: the same ladder as DTM-BW, on the maxima.
        let level = self.selector.select(observation.max_amb_c, observation.max_dram_c, dt_s);
        let mode = scheme_mode(DtmScheme::Bw, level, &self.cpu);

        let n = observation.positions.len();
        if n == 0 {
            return mode.into();
        }
        let (hot, cold) = match (observation.hottest_position_index(), observation.coldest_position_index()) {
            (Some(h), Some(c)) => (h, c),
            _ => return mode.into(),
        };
        let spread = observation.positions[hot].hottest_layer_c - observation.positions[cold].hottest_layer_c;
        if self.weights.len() != n {
            if spread > self.band_on_c && hot != cold {
                // First migration trigger: take ownership of the traffic
                // distribution, starting from the uniform split migration is
                // driving toward.
                self.weights = vec![1.0 / n as f64; n];
            } else {
                // No migration has ever been warranted: stay scalar so the
                // traffic keeps its natural distribution (and the engine its
                // legacy fast path).
                return mode.into();
            }
        }
        if spread > self.band_on_c && hot != cold {
            // Migrate: move up to `step` of the traffic off the hot spot.
            let moved = self.step.min(self.weights[hot]);
            self.weights[hot] -= moved;
            self.weights[cold] += moved;
            self.renormalize();
        } else if spread < self.band_off_c {
            // Relax every weight toward uniform. The exponential tail is
            // snapped to exactly uniform once it gets close: from then on
            // every decision emits a bit-identical plan, so the engine
            // neither charges per-interval mode-switch overhead nor rebuilds
            // the traffic grid for sub-ulp weight changes.
            let uniform = 1.0 / n as f64;
            let mut max_deviation = 0.0f64;
            for w in &mut self.weights {
                *w += (uniform - *w) * self.step;
                max_deviation = max_deviation.max((*w - uniform).abs());
            }
            if max_deviation < 1e-6 {
                self.weights.fill(uniform);
            } else {
                self.renormalize();
            }
        }
        // Inside the hysteresis band the weights hold bit-exactly.
        ActuationPlan::global(mode).with_steering(self.weights.clone())
    }

    fn scheme(&self) -> DtmScheme {
        DtmScheme::Mig
    }

    fn uses_pid(&self) -> bool {
        self.selector.uses_pid()
    }

    fn reset(&mut self) {
        self.weights.clear();
        self.selector.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermal::scene::PositionTemp;
    use workloads::rng::SmallRng;

    fn policy() -> DtmMig {
        DtmMig::new(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm())
    }

    /// A one-channel field whose positions sit at the given hottest-layer
    /// temperatures.
    fn field(temps: &[f64]) -> ThermalObservation {
        let mut obs = ThermalObservation::from_hottest(f64::NEG_INFINITY, f64::NEG_INFINITY);
        obs.layer_depth = 1;
        for (dimm, &t) in temps.iter().enumerate() {
            obs.positions.push(PositionTemp {
                channel: 0,
                dimm,
                amb_c: t,
                dram_c: t - 30.0,
                hottest_layer: 0,
                hottest_layer_c: t,
            });
            obs.layer_temps_c.push(t);
            if t > obs.max_amb_c {
                obs.max_amb_c = t;
                obs.hottest_amb = Some((0, dimm));
            }
            if t - 30.0 > obs.max_dram_c {
                obs.max_dram_c = t - 30.0;
                obs.hottest_dram = Some((0, dimm));
            }
        }
        obs
    }

    #[test]
    fn weight_flows_from_the_hottest_to_the_coldest_position() {
        let mut p = policy();
        let obs = field(&[105.0, 100.0, 98.0, 96.0]);
        let plan = p.decide(&obs, 0.01);
        assert_eq!(plan.steering.len(), 4);
        assert!(plan.steering[0] < 0.25, "hot position sheds weight: {:?}", plan.steering);
        assert!(plan.steering[3] > 0.25, "cold position gains it");
        // Repeated hot intervals keep migrating.
        let plan2 = p.decide(&obs, 0.01);
        assert!(plan2.steering[0] < plan.steering[0]);
        assert!(plan2.steering[3] > plan.steering[3]);
    }

    #[test]
    fn hysteresis_band_holds_and_then_relaxes() {
        let mut p = policy().with_band(2.0, 0.5);
        // Build up some migration first.
        for _ in 0..10 {
            p.decide(&field(&[105.0, 100.0, 98.0, 96.0]), 0.01);
        }
        let migrated = p.weights().to_vec();
        assert!(migrated[0] < 0.25 - 1e-12);
        // Inside the band (0.5 <= spread <= 2.0): hold.
        p.decide(&field(&[100.0, 99.5, 99.2, 99.0]), 0.01);
        assert_eq!(p.weights(), &migrated[..], "spread inside the band holds the weights");
        // Below the band: relax toward uniform.
        for _ in 0..500 {
            p.decide(&field(&[100.0, 100.0, 99.9, 99.8]), 0.01);
        }
        for &w in p.weights() {
            assert!((w - 0.25).abs() < 1e-3, "weights relax to uniform, got {:?}", p.weights());
        }
    }

    #[test]
    fn global_failsafe_matches_dtm_bw() {
        let mut mig = policy();
        let mut bw = crate::dtm::ThresholdPolicy::new(
            DtmScheme::Bw,
            &CpuConfig::paper_quad_core(),
            ThermalLimits::paper_fbdimm(),
        );
        for temps in [(100.0, 70.0), (108.5, 70.0), (109.7, 70.0), (110.5, 70.0)] {
            assert_eq!(mig.decide_temps(temps.0, temps.1, 0.01), bw.decide_temps(temps.0, temps.1, 0.01));
        }
        // Over the TDP with a resolved field, the mode still shuts off while
        // the steering keeps flattening for the restart.
        let plan = mig.decide(&field(&[111.0, 100.0, 98.0, 96.0]), 0.01);
        assert!(!plan.mode.makes_progress());
        assert_eq!(plan.steering.len(), 4);
    }

    #[test]
    fn weights_always_sum_to_one_under_random_fields() {
        // Seeded property test: whatever temperature fields arrive (varying
        // sizes force re-initialization; spreads land on every side of the
        // hysteresis band), every emitted plan is either scalar — no
        // migration warranted yet for this field size — or carries weights
        // that stay a distribution.
        let mut rng = SmallRng::seed_from_u64(0x319_2026);
        let mut p = policy();
        let mut spatial_plans = 0u32;
        for case in 0..2_000 {
            let n = 1 + rng.gen_range(0..12u64) as usize;
            let temps: Vec<f64> = (0..n).map(|_| 90.0 + 20.0 * rng.next_f64()).collect();
            let plan = p.decide(&field(&temps), 0.01);
            if plan.is_scalar() {
                continue;
            }
            spatial_plans += 1;
            let sum: f64 = plan.steering.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "case {case}: weights sum to {sum}");
            assert!(plan.steering.iter().all(|&w| (0.0..=1.0).contains(&w)), "case {case}: {:?}", plan.steering);
            assert_eq!(plan.steering.len(), n);
        }
        assert!(spatial_plans > 1_000, "the walk must actually migrate: {spatial_plans} spatial plans");
    }

    #[test]
    fn plans_stay_scalar_until_migration_triggers() {
        // Below the hysteresis band the policy must not touch the traffic
        // distribution at all — scalar plans keep the natural split (and
        // the engine on its legacy fast path).
        let mut p = policy();
        for _ in 0..10 {
            let plan = p.decide(&field(&[100.0, 99.5, 99.2, 99.0]), 0.01);
            assert!(plan.is_scalar(), "spread inside the band must not steer");
            assert!(p.weights().is_empty());
        }
        // Crossing the band takes ownership of the distribution...
        assert!(!p.decide(&field(&[105.0, 100.0, 98.0, 96.0]), 0.01).is_scalar());
        // ...and keeps it through later calm intervals (the migrated state
        // is what keeps the field flat).
        assert!(!p.decide(&field(&[100.0, 99.9, 99.9, 99.8]), 0.01).is_scalar());
    }

    #[test]
    fn converged_relaxation_emits_identical_plans() {
        // Once the relax tail snaps to uniform, every further decision must
        // emit a bit-identical plan — that is what keeps the engine from
        // charging DTM overhead (and rebuilding window power) every
        // interval for sub-ulp weight changes.
        let mut p = policy();
        for _ in 0..5 {
            p.decide(&field(&[105.0, 96.0]), 0.01);
        }
        for _ in 0..2_000 {
            p.decide(&field(&[100.0, 100.0]), 0.01);
        }
        let a = p.decide(&field(&[100.0, 100.0]), 0.01);
        let b = p.decide(&field(&[100.0, 100.0]), 0.01);
        assert_eq!(a, b, "converged plans must compare equal");
        assert_eq!(a.steering, vec![0.5, 0.5], "fully relaxed weights sit exactly at uniform");
    }

    #[test]
    fn step_overrides_are_sanitized() {
        let base = policy();
        assert_eq!(base.clone().with_step(0.1).step, 0.1);
        assert_eq!(base.clone().with_step(7.0).step, 1.0);
        assert_eq!(base.clone().with_step(-1.0).step, f64::MIN_POSITIVE);
        // Non-finite steps must not poison the steering state.
        assert_eq!(base.clone().with_step(f64::NAN).step, base.step);
        assert_eq!(base.clone().with_step(f64::INFINITY).step, base.step);
    }

    #[test]
    fn naming_and_reset_follow_the_scheme_conventions() {
        let mut p = policy();
        assert_eq!(p.name(), "DTM-MIG");
        assert_eq!(p.scheme(), DtmScheme::Mig);
        assert!(!p.uses_pid());
        assert_eq!(DtmMig::with_pid(CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm()).name(), "DTM-MIG+PID");
        p.decide(&field(&[105.0, 96.0]), 0.01);
        assert!(!p.weights().is_empty());
        p.reset();
        assert!(p.weights().is_empty(), "reset forgets the migration state");
    }
}
