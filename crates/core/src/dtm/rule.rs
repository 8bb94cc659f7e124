//! The decision rule: what a policy's decision depends on, described once
//! as data.
//!
//! Every [`DtmPolicy`](crate::dtm::policy::DtmPolicy) answers
//! [`decision_rule`](crate::dtm::policy::DtmPolicy::decision_rule) with a
//! borrowed [`DecisionRule`]. The batched engine ([`crate::sim::batch`])
//! derives every shortcut it takes from that one answer, through the four
//! readers in this module:
//!
//! * [`DecisionRule::next`] — the plan the next decision returns and the
//!   latch state it leaves;
//! * [`DecisionRule::region`] — the one plan every decision in a rectangle
//!   of device maxima returns without moving the policy's state (the
//!   certificate behind the steady-state and frozen-segment jumps);
//! * [`DecisionRule::key`] and [`DecisionRule::plan_of_key`] — a dense key
//!   of a pure decision and the plan it stands for (the exact decision
//!   replay).
//!
//! The readers are checked, not trusted: debug builds of the batched engine
//! compare [`DecisionRule::next`] with every literal `decide`, and one
//! seeded property test holds every policy's rule to its `decide` over
//! random maxima, every boundary ±1 ulp and absent buffers. Policies keep
//! their own `decide` code rather than calling [`DecisionRule::next`], so
//! both checks compare two implementations.

use cpu_model::RunningMode;

use crate::dtm::emergency::EmergencyThresholds;
use crate::dtm::plan::ActuationPlan;
use crate::thermal::params::ThermalLimits;
use crate::thermal::scene::ThermalObservation;

/// How a policy decides, as far as the batched engine may rely on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionRule<'a> {
    /// `decide` reads the per-position field (DTM-CBW, DTM-MIG, the
    /// platform policies). Nothing can be derived: the rule never predicts,
    /// keys or certifies. The default.
    Field,
    /// `decide` reads only the device maxima but keeps state that moves on
    /// every call (the PID controllers). The engine skips synthesizing the
    /// per-position field, but the rule never predicts, keys or certifies.
    Maxima,
    /// A pure map from the emergency level of the device maxima to a
    /// running mode: `decide` returns `modes[levels.level(amb, dram)]` and
    /// changes no state. The Table 4.3 schemes; No-limit is the one-mode
    /// ladder with no boundaries.
    Ladder {
        /// The level boundaries (`modes.len() == levels.levels()`).
        levels: &'a EmergencyThresholds,
        /// The running mode of each level, coolest first.
        modes: &'a [RunningMode],
    },
    /// DTM-TS: a latch that sets when either device reaches its TDP and
    /// releases once every present device is at or below its TRP.
    Latch {
        /// Whether the memory is shut down now.
        latched: bool,
        /// The TDPs that set the latch and the TRPs that release it.
        limits: &'a ThermalLimits,
        /// The mode while running.
        on: RunningMode,
        /// The mode while shut down.
        off: RunningMode,
    },
}

/// One decision as a rule predicts it.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The plan `decide` returns.
    pub plan: ActuationPlan,
    /// The latch state the decision leaves (`None` for stateless rules).
    pub latched: Option<bool>,
}

impl DecisionRule<'_> {
    /// Whether `decide` reads the per-position field.
    pub fn reads_field(&self) -> bool {
        matches!(self, DecisionRule::Field)
    }

    /// The latch state of a [`DecisionRule::Latch`], `None` otherwise.
    pub fn latched(&self) -> Option<bool> {
        match self {
            DecisionRule::Latch { latched, .. } => Some(*latched),
            _ => None,
        }
    }

    /// The decision `decide` makes for an observation with these device
    /// maxima, or `None` when the rule cannot predict it (field-reading or
    /// stateful policies).
    pub fn next(&self, max_amb_c: f64, max_dram_c: f64) -> Option<Step> {
        match *self {
            DecisionRule::Field | DecisionRule::Maxima => None,
            DecisionRule::Ladder { levels, modes } => {
                Some(Step { plan: modes[levels.level(max_amb_c, max_dram_c).index()].into(), latched: None })
            }
            DecisionRule::Latch { latched, limits, on, off } => {
                let obs = ThermalObservation::from_hottest(max_amb_c, max_dram_c);
                // `released` is NaN-safe: an absent buffer releases on the
                // DRAM condition alone.
                let latched = obs.over_tdp(limits) || (latched && !obs.released(limits));
                Some(Step { plan: if latched { off } else { on }.into(), latched: Some(latched) })
            }
        }
    }

    /// Decision-region certificate: the one plan every decision at an
    /// observation whose maxima lie in `[amb_lo, amb_hi] × [dram_lo,
    /// dram_hi]` returns while leaving the policy's state unchanged, or
    /// `None` when the rectangle straddles a decision boundary (or the rule
    /// cannot certify). The axes are independent: a wide swing on one
    /// device does not widen the other's range. `NaN` bounds stand for an
    /// absent device and trip nothing.
    ///
    /// Every condition that moves a decision is monotone in the maxima, so
    /// one or two corners decide the whole rectangle: a ladder needs the
    /// same level at both corners (its top boundary *is* the TDP); a
    /// running latch needs the upper corner below both TDPs, a set latch
    /// needs the lower corner unreleased. A one-mode ladder certifies every
    /// rectangle.
    pub fn region(&self, amb_lo_c: f64, dram_lo_c: f64, amb_hi_c: f64, dram_hi_c: f64) -> Option<ActuationPlan> {
        match *self {
            DecisionRule::Field | DecisionRule::Maxima => None,
            DecisionRule::Ladder { levels, modes } => {
                let lo = levels.level(amb_lo_c, dram_lo_c);
                (lo == levels.level(amb_hi_c, dram_hi_c)).then(|| modes[lo.index()].into())
            }
            DecisionRule::Latch { latched, limits, on, off } => {
                let holds = if latched {
                    !ThermalObservation::from_hottest(amb_lo_c, dram_lo_c).released(limits)
                } else {
                    !ThermalObservation::from_hottest(amb_hi_c, dram_hi_c).over_tdp(limits)
                };
                holds.then(|| if latched { off } else { on }.into())
            }
        }
    }

    /// Dense key of a pure decision: the emergency level a ladder selects
    /// for these maxima, so that `decide` returns
    /// [`plan_of_key`](DecisionRule::plan_of_key)`(key)` for every
    /// observation carrying them. `None` for every rule that is not a
    /// ladder — a latch's decision also depends on its state.
    pub fn key(&self, max_amb_c: f64, max_dram_c: f64) -> Option<u8> {
        match *self {
            DecisionRule::Ladder { levels, .. } => Some(levels.level(max_amb_c, max_dram_c).index() as u8),
            _ => None,
        }
    }

    /// The plan a [`key`](DecisionRule::key) stands for; `None` past the
    /// last rung and for rules that do not key.
    pub fn plan_of_key(&self, key: u8) -> Option<ActuationPlan> {
        match *self {
            DecisionRule::Ladder { modes, .. } => modes.get(usize::from(key)).map(|&mode| mode.into()),
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use cpu_model::CpuConfig;
    use workloads::rng::SmallRng;

    use super::*;
    use crate::dtm::emergency::EmergencyLevel;
    use crate::dtm::policy::{DtmPolicy, DtmScheme};
    use crate::dtm::{DtmCbw, DtmMig, DtmTs, NoLimit, ThresholdPolicy};

    /// The four level-ladder schemes.
    pub(crate) const LADDERS: [DtmScheme; 4] = [DtmScheme::Bw, DtmScheme::Acg, DtmScheme::Cdvfs, DtmScheme::Comb];

    /// A policy the property can clone behind a box, state and all.
    pub(crate) trait Subject: DtmPolicy {
        fn boxed_clone(&self) -> Box<dyn Subject>;
    }

    impl<P: DtmPolicy + Clone + 'static> Subject for P {
        fn boxed_clone(&self) -> Box<dyn Subject> {
            Box::new(self.clone())
        }
    }

    /// Every policy the property covers under `limits`: the four ladder
    /// schemes threshold- and PID-driven, DTM-TS running and latched,
    /// No-limit, and the two field-reading policies.
    fn policies(limits: ThermalLimits) -> Vec<Box<dyn Subject>> {
        let cpu = CpuConfig::paper_quad_core();
        let mut out: Vec<Box<dyn Subject>> = Vec::new();
        for scheme in LADDERS {
            out.push(Box::new(ThresholdPolicy::new(scheme, &cpu, limits)));
            out.push(Box::new(ThresholdPolicy::with_pid(scheme, &cpu, limits)));
        }
        out.extend(latches(limits));
        out.push(Box::new(NoLimit::new(&cpu)));
        out.push(Box::new(DtmCbw::new(cpu.clone(), limits)));
        out.push(Box::new(DtmMig::new(cpu, limits)));
        out
    }

    /// DTM-TS under `limits`, running and latched.
    pub(crate) fn latches(limits: ThermalLimits) -> Vec<Box<dyn Subject>> {
        let cpu = CpuConfig::paper_quad_core();
        let running = DtmTs::new(cpu.clone(), limits);
        let mut latched = DtmTs::new(cpu, limits);
        latched.decide_temps(limits.amb_tdp_c + 1.0, 70.0, 0.01);
        vec![Box::new(running), Box::new(latched)]
    }

    /// What a decision at `(amb, dram)` does to a clone of `policy`: the
    /// plan, and the latch state the clone's rule reports afterwards.
    fn decide_on_clone(policy: &dyn Subject, amb: f64, dram: f64) -> Step {
        let mut q = policy.boxed_clone();
        let plan = q.decide(&ThermalObservation::from_hottest(amb, dram), 0.01);
        Step { plan, latched: q.decision_rule().latched() }
    }

    /// The boundaries a decision can flip at under `limits`, per axis: the
    /// Table 4.3 thresholds, the TDP last of them, then the TRP.
    fn bounds(limits: ThermalLimits) -> (Vec<f64>, Vec<f64>) {
        let t = [2.0, 1.0, 0.5, 0.0];
        let amb = t.iter().map(|o| limits.amb_tdp_c - o).chain([limits.amb_trp_c]).collect();
        let dram = t.iter().map(|o| limits.dram_tdp_c - o).chain([limits.dram_trp_c]).collect();
        (amb, dram)
    }

    /// Holds one rectangle to the region certificate: decides on a clone at
    /// both corners, random interior points and every boundary ±1 ulp
    /// inside the rectangle. A `Some` certificate must name the plan of
    /// every one of those decisions, none of which may move the state.
    /// Since the deciding corners are among the samples, a ladder or latch
    /// rectangle whose decisions all agree must also be certified.
    fn check_region(
        policy: &dyn Subject,
        (amb_lo, dram_lo, amb_hi, dram_hi): (f64, f64, f64, f64),
        amb_bounds: &[f64],
        dram_bounds: &[f64],
        rng: &mut SmallRng,
    ) -> Option<ActuationPlan> {
        let rule = policy.decision_rule();
        let cert = rule.region(amb_lo, dram_lo, amb_hi, dram_hi);
        let mut amb_pts = vec![amb_lo, amb_hi];
        let mut dram_pts = vec![dram_lo, dram_hi];
        for _ in 0..3 {
            amb_pts.push(amb_lo + rng.gen_range(0.0..1.0) * (amb_hi - amb_lo));
            dram_pts.push(dram_lo + rng.gen_range(0.0..1.0) * (dram_hi - dram_lo));
        }
        for (pts, bounds, lo, hi) in
            [(&mut amb_pts, amb_bounds, amb_lo, amb_hi), (&mut dram_pts, dram_bounds, dram_lo, dram_hi)]
        {
            for &b in bounds {
                pts.extend([b.next_down(), b, b.next_up()].into_iter().filter(|&x| lo <= x && x <= hi));
            }
        }
        let mut first: Option<ActuationPlan> = None;
        let mut all_hold = true;
        for &a in &amb_pts {
            for &d in &dram_pts {
                let step = decide_on_clone(policy, a, d);
                let holds = step.latched == rule.latched() && first.as_ref().is_none_or(|p| *p == step.plan);
                first.get_or_insert(step.plan.clone());
                if let Some(certified) = &cert {
                    assert!(
                        holds && step.plan == *certified,
                        "{}: certified {certified:?} over [{amb_lo}, {amb_hi}] x [{dram_lo}, {dram_hi}] but decide({a}, {d}) gave {step:?}",
                        policy.name()
                    );
                }
                all_hold &= holds;
            }
        }
        if !matches!(rule, DecisionRule::Field | DecisionRule::Maxima) {
            assert_eq!(
                cert.is_some(),
                all_hold,
                "{}: rectangle [{amb_lo}, {amb_hi}] x [{dram_lo}, {dram_hi}]",
                policy.name()
            );
        }
        cert
    }

    /// The region certificate of `policy`, built under the paper limits,
    /// over `[amb_lo, amb_hi] × [dram_lo, dram_hi]`, held to `decide` by
    /// [`check_region`]. The selector and DTM-TS unit tests feed their
    /// known rectangles through it.
    pub(crate) fn certify(
        policy: &dyn Subject,
        (amb_lo, dram_lo): (f64, f64),
        (amb_hi, dram_hi): (f64, f64),
    ) -> Option<ActuationPlan> {
        let (amb_b, dram_b) = bounds(ThermalLimits::paper_fbdimm());
        let mut rng = SmallRng::seed_from_u64(0xCE27_2026);
        check_region(policy, (amb_lo, dram_lo, amb_hi, dram_hi), &amb_b, &dram_b, &mut rng)
    }

    /// The property, over `rounds` random TRP pairs and the policies `make`
    /// builds for each. Per policy it draws device maxima at, 1 ulp either
    /// side of, or around every boundary, with no buffer die a fifth of the
    /// time, and asserts:
    ///
    /// 1. `decide` returns the plan the rule predicts and moves the state
    ///    only as predicted;
    /// 2. a certificate over a rectangle spanning 0, 1 ulp or up to 3 °C
    ///    from the maxima agrees with `decide` over it ([`check_region`]);
    /// 3. `Field` and `Maxima` rules never predict, key or certify, and a
    ///    key stands for the predicted plan.
    ///
    /// Returns how many rectangles each policy had certified and refused.
    pub(crate) fn hold_rules_to_decide(
        make: impl Fn(ThermalLimits) -> Vec<Box<dyn Subject>>,
        rounds: usize,
        seed: u64,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut certified = Vec::new();
        let mut refused = Vec::new();
        for round in 0..rounds {
            let limits = ThermalLimits::paper_fbdimm()
                .with_amb_trp(rng.gen_range(106.0..110.0))
                .with_dram_trp(rng.gen_range(81.0..85.0));
            let (amb_b, dram_b) = bounds(limits);
            // An axis coordinate: a boundary, 1 ulp either side of it, or
            // a random point around the boundaries.
            let coord = |bounds: &[f64], rng: &mut SmallRng| -> f64 {
                let b = bounds[rng.gen_range(0..bounds.len() as u64) as usize];
                match rng.gen_range(0..4u64) {
                    0 => b,
                    1 => b.next_up(),
                    2 => b.next_down(),
                    _ => rng.gen_range(bounds[4] - 2.0..bounds[3] + 1.0),
                }
            };
            let span = |rng: &mut SmallRng| match rng.gen_range(0..3u64) {
                0 => 0.0,
                1 => f64::from_bits(1),
                _ => rng.gen_range(0.0..3.0),
            };
            let subjects = make(limits);
            certified.resize(subjects.len(), 0);
            refused.resize(subjects.len(), 0);
            for (i, mut p) in subjects.into_iter().enumerate() {
                if p.uses_pid() {
                    // Give the integrals some history.
                    for _ in 0..(round % 7) {
                        p.decide_temps(coord(&amb_b, &mut rng), coord(&dram_b, &mut rng), 0.01);
                    }
                }
                let has_buffer = !rng.gen_bool(0.2);
                let amb = if has_buffer { coord(&amb_b, &mut rng) } else { f64::NAN };
                let dram = coord(&dram_b, &mut rng);
                let rule = p.decision_rule();

                // 1.
                if let Some(step) = rule.next(amb, dram) {
                    assert_eq!(decide_on_clone(p.as_ref(), amb, dram), step, "{} at ({amb}, {dram})", p.name());
                }

                // 2.
                let (amb_span, dram_span) = (if has_buffer { span(&mut rng) } else { 0.0 }, span(&mut rng));
                let rect = (amb, dram, amb + amb_span, dram + dram_span);
                match check_region(p.as_ref(), rect, &amb_b, &dram_b, &mut rng) {
                    Some(_) => certified[i] += 1,
                    None => refused[i] += 1,
                }

                // 3.
                if matches!(rule, DecisionRule::Field | DecisionRule::Maxima) {
                    assert_eq!(rule.next(amb, dram), None);
                    assert_eq!(rule.key(amb, dram), None);
                    assert_eq!(rule.plan_of_key(0), None);
                    assert_eq!(rule.region(amb, dram, amb, dram), None);
                    assert_eq!(p.uses_pid(), rule == DecisionRule::Maxima, "{}", p.name());
                } else if let Some(key) = rule.key(amb, dram) {
                    assert_eq!(rule.plan_of_key(key), rule.next(amb, dram).map(|s| s.plan), "{}", p.name());
                }
            }
        }
        (certified, refused)
    }

    #[test]
    fn every_rule_predicts_decide_and_certifies_only_what_decide_returns() {
        let (certified, refused) = hold_rules_to_decide(policies, 3000, 0x7505_2026);
        // Ladders and latches see both answers, so neither side of the
        // property is vacuous; No-limit certifies every rectangle; field
        // and PID rules certify none.
        for i in [0, 2, 4, 6, 8, 9] {
            assert!(certified[i] > 100 && refused[i] > 100, "policy {i}: certified {certified:?}, refused {refused:?}");
        }
        assert_eq!(refused[10], 0);
        for i in [1, 3, 5, 7, 11, 12] {
            assert_eq!(certified[i], 0, "policy {i}");
        }
    }

    #[test]
    fn ladder_keys_stop_at_the_last_rung() {
        let cpu = CpuConfig::paper_quad_core();
        let p = ThresholdPolicy::new(DtmScheme::Bw, &cpu, ThermalLimits::paper_fbdimm());
        let rule = p.decision_rule();
        assert_eq!(rule.key(111.0, 70.0), Some(EmergencyLevel::L5.index() as u8));
        assert!(rule.plan_of_key(4).is_some());
        for key in 5..=u8::MAX {
            assert_eq!(rule.plan_of_key(key), None, "key {key}");
        }
        // No-limit: one rung, every observation keys to it.
        let free = NoLimit::new(&cpu);
        let rule = free.decision_rule();
        assert_eq!((rule.key(150.0, 120.0), rule.key(f64::NAN, f64::NAN)), (Some(0), Some(0)));
        assert!(rule.plan_of_key(0).is_some());
        assert_eq!(rule.plan_of_key(1), None);
    }
}
