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
//!   of device maxima returns while the policy's state stays put or, for
//!   the PID controllers, stays memory-one (the certificate behind the
//!   envelope's frozen-segment jumps);
//! * [`DecisionRule::key`] and [`DecisionRule::plan_of_key`] — a dense key
//!   of a decision that depends on nothing but the current and the previous
//!   maxima, and the plan it stands for (the exact decision replay).
//!
//! A rule that keys or certifies a PID policy relies on one more fact, the
//! *re-prime*: a memory-one controller's state after a run of decisions
//! depends only on the run's last two observations. The engine skips a
//! run's decisions, then replays its last two observations through
//! `decide`, which leaves the policy exactly as literal stepping would
//! (and is a no-op for ladders and latches).
//!
//! The readers are checked, not trusted: debug builds of the batched engine
//! compare [`DecisionRule::next`] with every literal `decide`, and one
//! seeded property test holds every policy's rule to its `decide` over
//! random maxima, every boundary ±1 ulp and absent buffers, and holds the
//! PID rules to `decide` over observation sequences, re-prime included.
//! Policies keep their own `decide` code rather than calling
//! [`DecisionRule::next`], so both checks compare two implementations.

use cpu_model::RunningMode;

use crate::dtm::emergency::{EmergencyLevel, EmergencyThresholds};
use crate::dtm::pid::PidController;
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
    /// The Table 4.3 schemes driven by the paper's PID controllers
    /// (Equation 4.1): `decide` feeds each present device's maximum to its
    /// controller and returns `modes[max(level_amb, level_dram)]`, or the
    /// top level at a TDP. The controllers keep state, so the rule answers
    /// only where each one is *memory-one*, its output a function of the
    /// current and the previous maxima alone:
    ///
    /// - *integral off*: the maximum is below the controller's
    ///   integral-enable threshold, so the integral is reset to 0;
    /// - *anti-windup frozen*: the last output is pinned at a saturation
    ///   bound, the error keeps pushing past it and the raw output stays
    ///   past it, so the integral stays frozen.
    ///
    /// Everywhere else (the integral moving, a TDP reached, no decision
    /// yet) it refuses. An absent device contributes level 0 and leaves its
    /// controller untouched.
    Pid {
        /// The AMB controller as it is now.
        amb: &'a PidController,
        /// The DRAM controller as it is now.
        dram: &'a PidController,
        /// The TDPs that force the top level.
        limits: &'a ThermalLimits,
        /// The running mode of each level, coolest first.
        modes: &'a [RunningMode],
        /// The DTM interval of the policy's last decision (a cell decides
        /// at one interval); `None` before the first, when the rule
        /// refuses.
        dt_s: Option<f64>,
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

/// The number of levels a PID output is quantized into.
const PID_LEVELS: usize = EmergencyLevel::ALL.len();

/// `PidController::update`'s raw output, `kc · (e + KI·∫e + KD·de/dt)`, in
/// its float-op order. Non-decreasing in `error` and `derivative` for
/// `kc > 0` and `kd ≥ 0` (rounding is monotone), so interval corners bound
/// it exactly.
fn pid_raw(c: &PidController, error: f64, integral: f64, derivative: f64) -> f64 {
    c.kc * (error + c.ki * integral + c.kd * derivative)
}

/// The level of a clamped PID output.
fn pid_level(c: &PidController, raw: f64) -> usize {
    c.output_to_level(raw.clamp(c.output_min, c.output_max), PID_LEVELS)
}

/// The levels `c.update(t, dt_s)` selects over every sequence of samples
/// `t ∈ [lo, hi]`, as `(least, most)`, when every step leaves `c`
/// memory-one; `None` otherwise. A sequence's first step differentiates
/// against the controller's own previous error, later ones against a
/// sample of the range. The same bound covers a re-prime's first call,
/// which differentiates a sample of the range against the previous error
/// from before the skipped run.
fn pid_range(c: &PidController, lo: f64, hi: f64, dt_s: f64) -> Option<(usize, usize)> {
    let prev = c.prev_error()?;
    if !(c.kc > 0.0 && c.kd >= 0.0 && dt_s > 0.0) {
        return None;
    }
    let (e_lo, e_hi) = (c.target_c - hi, c.target_c - lo);
    let (p_lo, p_hi) = (prev.min(e_lo), prev.max(e_hi));
    let (d_lo, d_hi) = ((e_lo - p_hi) / dt_s, (e_hi - p_lo) / dt_s);
    if hi < c.integral_enable_c {
        // Integral off.
        return Some((pid_level(c, pid_raw(c, e_hi, 0.0, d_hi)), pid_level(c, pid_raw(c, e_lo, 0.0, d_lo))));
    }
    if lo < c.integral_enable_c {
        // Straddles the enable threshold.
        return None;
    }
    // Anti-windup frozen: pinned at a bound the whole rectangle pushes past.
    let pinned = c.last_output();
    let integral = c.integral();
    let frozen = (pinned >= c.output_max && e_lo > 0.0 && pid_raw(c, e_lo, integral, d_lo) >= c.output_max)
        || (pinned <= c.output_min && e_hi < 0.0 && pid_raw(c, e_hi, integral, d_hi) <= c.output_min);
    frozen.then(|| {
        let level = pid_level(c, pinned);
        (level, level)
    })
}

/// The level `c.update(measured, dt_s)` selects when the step leaves `c`
/// memory-one, `None` otherwise. `prev_error` is the error of the previous
/// sample. `chained` says whether the previous step left the output where
/// it is now: true for the controller's own next step, and for a keyed
/// sequence whenever the previous sample was at or above the enable
/// threshold (a keyed step there is a frozen one, which keeps the output
/// pinned). A frozen step must also stay pinned when differentiated
/// against the controller's own previous error, as a re-prime's first call
/// is.
fn pid_step(c: &PidController, measured: f64, prev_error: f64, chained: bool, dt_s: f64) -> Option<usize> {
    let own_prev = c.prev_error()?;
    if !(dt_s > 0.0 && prev_error.is_finite()) {
        return None;
    }
    let error = c.target_c - measured;
    let derivative = |prev: f64| (error - prev) / dt_s;
    if measured < c.integral_enable_c {
        return Some(pid_level(c, pid_raw(c, error, 0.0, derivative(prev_error))));
    }
    let pinned = c.last_output();
    let integral = c.integral();
    let pushes_past = |prev: f64| {
        let raw = pid_raw(c, error, integral, derivative(prev));
        (pinned >= c.output_max && error > 0.0 && raw >= c.output_max)
            || (pinned <= c.output_min && error < 0.0 && raw <= c.output_min)
    };
    (chained && pushes_past(prev_error) && pushes_past(own_prev)).then(|| pid_level(c, pinned))
}

impl DecisionRule<'_> {
    /// Whether `decide` reads the per-position field.
    pub fn reads_field(&self) -> bool {
        matches!(self, DecisionRule::Field)
    }

    /// Whether the rule keys decisions at all ([`DecisionRule::key`]): a
    /// ladder always, a PID rule wherever its controllers are memory-one.
    pub fn keys(&self) -> bool {
        matches!(self, DecisionRule::Ladder { .. } | DecisionRule::Pid { .. })
    }

    /// Whether the policy integrates what it observes (the PID
    /// controllers). Rounding in an observed maximum then persists in the
    /// policy's state instead of decaying with the RC map, and a later
    /// near-tie decision can turn on it, so a segment whose decisions are
    /// skipped must still hand the policy bit-exact maxima.
    pub fn integrates(&self) -> bool {
        matches!(self, DecisionRule::Pid { .. })
    }

    /// The latch state of a [`DecisionRule::Latch`], `None` otherwise.
    pub fn latched(&self) -> Option<bool> {
        match self {
            DecisionRule::Latch { latched, .. } => Some(*latched),
            _ => None,
        }
    }

    /// The decision `decide` makes for an observation with these device
    /// maxima, or `None` when the rule cannot predict it (field-reading
    /// policies, PID controllers that are not memory-one).
    pub fn next(&self, max_amb_c: f64, max_dram_c: f64) -> Option<Step> {
        match *self {
            DecisionRule::Field => None,
            DecisionRule::Ladder { levels, modes } => {
                Some(Step { plan: modes[levels.level(max_amb_c, max_dram_c).index()].into(), latched: None })
            }
            DecisionRule::Pid { amb, dram, limits, modes, dt_s } => {
                if max_amb_c >= limits.amb_tdp_c || max_dram_c >= limits.dram_tdp_c {
                    return None;
                }
                let dt = dt_s?;
                let level = |c: &PidController, t: f64| -> Option<usize> {
                    if t.is_nan() {
                        return Some(0);
                    }
                    pid_step(c, t, c.prev_error()?, true, dt)
                };
                let level = level(amb, max_amb_c)?.max(level(dram, max_dram_c)?);
                Some(Step { plan: modes[level].into(), latched: None })
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
    /// dram_hi]` returns while leaving the policy's state unchanged — for a
    /// PID rule, over every *sequence* of such observations, with both
    /// controllers memory-one throughout — or `None` when the rectangle
    /// straddles a decision boundary (or the rule cannot certify). The axes
    /// are independent: a wide swing on one device does not widen the
    /// other's range. `NaN` bounds stand for an absent device and trip
    /// nothing.
    ///
    /// Every condition that moves a decision is monotone in the maxima, so
    /// one or two corners decide the whole rectangle: a ladder needs the
    /// same level at both corners (its top boundary *is* the TDP); a
    /// running latch needs the upper corner below both TDPs, a set latch
    /// needs the lower corner unreleased. A one-mode ladder certifies every
    /// rectangle. A PID rule bounds each controller's output by the
    /// proportional term plus the derivative term, the derivative bounded
    /// by the rectangle's width (and the controller's previous error) over
    /// the DTM interval, and needs the whole rectangle below the TDPs and
    /// on one side of each enable threshold.
    pub fn region(&self, amb_lo_c: f64, dram_lo_c: f64, amb_hi_c: f64, dram_hi_c: f64) -> Option<ActuationPlan> {
        match *self {
            DecisionRule::Field => None,
            DecisionRule::Ladder { levels, modes } => {
                let lo = levels.level(amb_lo_c, dram_lo_c);
                (lo == levels.level(amb_hi_c, dram_hi_c)).then(|| modes[lo.index()].into())
            }
            DecisionRule::Pid { amb, dram, limits, modes, dt_s } => {
                if amb_hi_c >= limits.amb_tdp_c || dram_hi_c >= limits.dram_tdp_c {
                    return None;
                }
                let dt = dt_s?;
                let range = |c: &PidController, lo: f64, hi: f64| -> Option<(usize, usize)> {
                    if lo.is_nan() {
                        return Some((0, 0));
                    }
                    pid_range(c, lo, hi, dt)
                };
                let (a_least, a_most) = range(amb, amb_lo_c, amb_hi_c)?;
                let (d_least, d_most) = range(dram, dram_lo_c, dram_hi_c)?;
                let level = a_least.max(d_least);
                (level == a_most.max(d_most)).then(|| modes[level].into())
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

    /// Dense key of a decision at maxima `(amb, dram)` that follows one at
    /// `(prev_amb, prev_dram)`, so that `decide` returns
    /// [`plan_of_key`](DecisionRule::plan_of_key)`(key)` there. A ladder
    /// keys the emergency level and ignores the previous maxima. A PID rule
    /// keys the level of a memory-one step; it holds along a *sequence* of
    /// keyed steps that starts from the policy's last decision — at the
    /// previous maxima that decision saw — and runs without literal
    /// decisions in between. `None` for latches and field rules.
    pub fn key(&self, prev_amb_c: f64, prev_dram_c: f64, max_amb_c: f64, max_dram_c: f64) -> Option<u8> {
        match *self {
            DecisionRule::Ladder { levels, .. } => Some(ladder_key(levels, (max_amb_c, max_dram_c))),
            DecisionRule::Pid { amb, dram, limits, dt_s, .. } => {
                pid_key(amb, dram, limits, dt_s?, (prev_amb_c, prev_dram_c), (max_amb_c, max_dram_c))
            }
            _ => None,
        }
    }

    /// The plan a [`key`](DecisionRule::key) stands for; `None` past the
    /// last rung and for rules that do not key.
    pub fn plan_of_key(&self, key: u8) -> Option<ActuationPlan> {
        match *self {
            DecisionRule::Ladder { modes, .. } | DecisionRule::Pid { modes, .. } => {
                modes.get(usize::from(key)).map(|&mode| mode.into())
            }
            _ => None,
        }
    }
}

/// [`DecisionRule::key`] of a [`DecisionRule::Ladder`] over `levels` at
/// maxima `(amb, dram)`. The exact decision replay calls it directly, so
/// its per-window loop does not dispatch on the rule.
pub(crate) fn ladder_key(levels: &EmergencyThresholds, (max_amb_c, max_dram_c): (f64, f64)) -> u8 {
    levels.level(max_amb_c, max_dram_c).index() as u8
}

/// [`DecisionRule::key`] of a [`DecisionRule::Pid`] whose last decision was
/// at DTM interval `dt_s`, at maxima `now` following maxima `prev` (both
/// `(amb, dram)`). The exact decision replay calls it directly, so its
/// per-window loop does not dispatch on the rule.
pub(crate) fn pid_key(
    amb: &PidController,
    dram: &PidController,
    limits: &ThermalLimits,
    dt_s: f64,
    prev: (f64, f64),
    now: (f64, f64),
) -> Option<u8> {
    if now.0 >= limits.amb_tdp_c || now.1 >= limits.dram_tdp_c {
        return None;
    }
    let level = |c: &PidController, prev: f64, t: f64| -> Option<usize> {
        if t.is_nan() {
            return Some(0);
        }
        pid_step(c, t, c.target_c - prev, prev >= c.integral_enable_c, dt_s)
    };
    let level = level(amb, prev.0, now.0)?.max(level(dram, prev.1, now.1)?);
    Some(level as u8)
}

#[cfg(test)]
pub(crate) mod tests {
    use cpu_model::CpuConfig;
    use workloads::rng::SmallRng;

    use super::*;
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
    /// every one of those decisions, none of which may move a latch. Since
    /// the deciding corners are among the samples, a ladder or latch
    /// rectangle whose decisions all agree must also be certified (a PID
    /// certificate is conservative; [`hold_pid_rules_to_sequences`] holds
    /// it to sequences).
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
        if matches!(rule, DecisionRule::Ladder { .. } | DecisionRule::Latch { .. }) {
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
    /// 3. `Field` rules never predict, key or certify, exactly the PID
    ///    policies have PID rules, and a key — following the policy's last
    ///    observation — stands for the predicted plan.
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
                // The maxima of the policy's last decision.
                let mut last = (f64::NAN, f64::NAN);
                if p.uses_pid() {
                    // Give the integrals some history.
                    for _ in 0..(round % 7) {
                        last = (coord(&amb_b, &mut rng), coord(&dram_b, &mut rng));
                        p.decide_temps(last.0, last.1, 0.01);
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
                if rule.reads_field() {
                    assert_eq!(rule.next(amb, dram), None);
                    assert_eq!(rule.key(last.0, last.1, amb, dram), None);
                    assert!(!rule.keys());
                    assert_eq!(rule.plan_of_key(0), None);
                    assert_eq!(rule.region(amb, dram, amb, dram), None);
                } else {
                    assert_eq!(p.uses_pid(), matches!(rule, DecisionRule::Pid { .. }), "{}", p.name());
                    if let Some(key) = rule.key(last.0, last.1, amb, dram) {
                        assert!(rule.keys());
                        assert_eq!(rule.plan_of_key(key), rule.next(amb, dram).map(|s| s.plan), "{}", p.name());
                    }
                }
            }
        }
        (certified, refused)
    }

    #[test]
    fn every_rule_predicts_decide_and_certifies_only_what_decide_returns() {
        let (certified, refused) = hold_rules_to_decide(policies, 3000, 0x7505_2026);
        // Ladders, latches and PID rules see both answers, so neither side
        // of the property is vacuous; No-limit certifies every rectangle;
        // field rules certify none.
        for i in [0, 2, 4, 6, 8, 9] {
            assert!(certified[i] > 100 && refused[i] > 100, "policy {i}: certified {certified:?}, refused {refused:?}");
        }
        for i in [1, 3, 5, 7] {
            assert!(certified[i] > 50 && refused[i] > 100, "policy {i}: certified {certified:?}, refused {refused:?}");
        }
        assert_eq!(refused[10], 0);
        for i in [11, 12] {
            assert_eq!(certified[i], 0, "policy {i}");
        }
    }

    /// What a PID rule certified or keyed, by the state the controllers
    /// were in.
    #[derive(Debug, Default)]
    struct PidCoverage {
        /// Certified rectangles entirely below both enable thresholds.
        off_certified: usize,
        /// Certified rectangles at or above an enable threshold (a frozen
        /// controller).
        frozen_certified: usize,
        /// Refused rectangles.
        refused: usize,
        /// Keyed steps below both enable thresholds.
        off_keyed: usize,
        /// Keyed steps at or above an enable threshold (a frozen
        /// controller).
        frozen_keyed: usize,
    }

    /// The PID rules over observation *sequences*: the controllers are
    /// stateful, so a certificate or key must hold along every run of
    /// decisions it licenses, and the re-prime — replaying the run's last
    /// two observations through `decide` from the state before the run —
    /// must leave the policy exactly where the run left it. Per round it
    /// drives a PID ladder (threshold scheme, buffer present or absent)
    /// into a regime per controller — cool, wound up against the upper
    /// saturation bound, wound down against the lower one, or a random
    /// history — then draws a rectangle around an enable threshold, a
    /// target (where a frozen controller's saturation ends), a TDP, the
    /// last sample or a random point, and asserts:
    ///
    /// 1. a certificate names every decision of random and corner-hopping
    ///    sequences inside the rectangle, and the re-prime restores the
    ///    state the sequence left;
    /// 2. along the same sequences, every key, chained from the policy's
    ///    last observation, stands for the plan `decide` returns, and the
    ///    re-prime after the keyed prefix restores its state.
    fn hold_pid_rules_to_sequences(rounds: usize, seed: u64) -> PidCoverage {
        let cpu = CpuConfig::paper_quad_core();
        let limits = ThermalLimits::paper_fbdimm();
        let (amb_pid, dram_pid) = (PidController::paper_amb(), PidController::paper_dram());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cov = PidCoverage::default();
        for _ in 0..rounds {
            let scheme = LADDERS[rng.gen_range(0..LADDERS.len() as u64) as usize];
            let mut p = ThresholdPolicy::with_pid(scheme, &cpu, limits);
            let has_buffer = !rng.gen_bool(0.2);
            // A regime per axis: the temperature range its history is drawn
            // from, and how long it is held there.
            let axes = [(amb_pid, limits.amb_tdp_c), (dram_pid, limits.dram_tdp_c)];
            let regimes = axes.map(|(c, tdp)| match rng.gen_range(0..4u64) {
                0 => (c.integral_enable_c - 4.0, c.integral_enable_c - 0.01, 3),
                1 => (c.integral_enable_c, c.target_c - 0.05, 400),
                2 => (c.target_c + 0.02, tdp - 0.01, 400),
                _ => (tdp - 4.0, tdp + 0.5, 5),
            });
            let hold = regimes[0].2.max(regimes[1].2);
            let settle = [rng.gen_range(regimes[0].0..regimes[0].1), rng.gen_range(regimes[1].0..regimes[1].1)];
            let mut last = (f64::NAN, f64::NAN);
            for step in 0..hold + 3 {
                let draw = |axis: usize, rng: &mut SmallRng| {
                    if step < hold {
                        settle[axis]
                    } else {
                        rng.gen_range(regimes[axis].0..regimes[axis].1)
                    }
                };
                let amb = if has_buffer { draw(0, &mut rng) } else { f64::NAN };
                last = (amb, draw(1, &mut rng));
                p.decide_temps(last.0, last.1, 0.01);
            }

            // The rectangle, per axis.
            let mut rect = [(f64::NAN, f64::NAN); 2];
            for (axis, &(c, tdp)) in axes.iter().enumerate() {
                if axis == 0 && !has_buffer {
                    continue;
                }
                let anchor = match rng.gen_range(0..5u64) {
                    0 => c.integral_enable_c,
                    1 => c.target_c,
                    2 => tdp,
                    3 => [last.0, last.1][axis],
                    _ => rng.gen_range(tdp - 4.0..tdp),
                };
                let mut span = || match rng.gen_range(0..4u64) {
                    0 => 0.0,
                    1 => f64::from_bits(1),
                    2 => rng.gen_range(0.0..0.3),
                    _ => rng.gen_range(0.0..3.0),
                };
                rect[axis] = (anchor - span(), anchor + span());
            }
            let [(amb_lo, amb_hi), (dram_lo, dram_hi)] = rect;
            let rule = p.decision_rule();
            let cert = rule.region(amb_lo, dram_lo, amb_hi, dram_hi);
            // Whether a present axis sits at or above its enable threshold.
            let frozen = |amb: f64, dram: f64| amb >= amb_pid.integral_enable_c || dram >= dram_pid.integral_enable_c;
            match cert {
                Some(_) if frozen(amb_hi, dram_hi) => cov.frozen_certified += 1,
                Some(_) => cov.off_certified += 1,
                None => cov.refused += 1,
            }

            // Sequences inside the rectangle: random points, corners
            // hopping between the extremes (the steepest derivatives), and
            // ramps from one corner to the other (gentle steps whose sum is
            // steep, as a re-prime's first call sees it).
            let at = |x: f64| (amb_lo + x * (amb_hi - amb_lo), dram_lo + x * (dram_hi - dram_lo));
            for kind in 0..5 {
                let len = rng.gen_range(1..7u64) as usize;
                let ramp = |i: usize| i as f64 / (len - 1).max(1) as f64;
                let seq: Vec<(f64, f64)> = (0..len)
                    .map(|i| match kind {
                        0 => at(rng.gen_range(0.0..1.0)),
                        1 => at((i % 2) as f64),
                        2 => at(((i + 1) % 2) as f64),
                        3 => at(ramp(i)),
                        _ => at(1.0 - ramp(i)),
                    })
                    .collect();
                let reprimed = |obs: &[(f64, f64)]| {
                    let mut q = p.clone();
                    for &(a, d) in &obs[obs.len().saturating_sub(2)..] {
                        q.decide_temps(a, d, 0.01);
                    }
                    q
                };

                // 1.
                if let Some(plan) = &cert {
                    let mut q = p.clone();
                    for &(a, d) in &seq {
                        let got = q.decide(&ThermalObservation::from_hottest(a, d), 0.01);
                        assert_eq!(
                            &got,
                            plan,
                            "{}: certified over {rect:?}, decided {got:?} at ({a}, {d}) in {seq:?}",
                            p.name()
                        );
                    }
                    assert_eq!(
                        reprimed(&seq).decision_rule(),
                        q.decision_rule(),
                        "{}: re-prime over {seq:?}",
                        p.name()
                    );
                }

                // 2.
                let mut q = p.clone();
                let mut prev = last;
                let mut keyed = 0;
                for &(a, d) in &seq {
                    let Some(key) = rule.key(prev.0, prev.1, a, d) else {
                        break;
                    };
                    let got = q.decide(&ThermalObservation::from_hottest(a, d), 0.01);
                    assert_eq!(
                        rule.plan_of_key(key),
                        Some(got),
                        "{}: key {key} at ({a}, {d}) after {prev:?}",
                        p.name()
                    );
                    if frozen(a, d) {
                        cov.frozen_keyed += 1;
                    } else {
                        cov.off_keyed += 1;
                    }
                    prev = (a, d);
                    keyed += 1;
                }
                if keyed > 0 {
                    let run = &seq[..keyed];
                    assert_eq!(reprimed(run).decision_rule(), q.decision_rule(), "{}: re-prime over {run:?}", p.name());
                }
            }
        }
        cov
    }

    #[test]
    fn pid_rules_hold_over_sequences_in_both_stationary_states() {
        let cov = hold_pid_rules_to_sequences(3000, 0x91D5_2026);
        // Both stationary states are certified and keyed, and rectangles
        // straddling an enable threshold, a saturation bound or a TDP are
        // refused, so no side of the property is vacuous.
        assert!(cov.off_certified > 100 && cov.frozen_certified > 50 && cov.refused > 500, "{cov:?}");
        assert!(cov.off_keyed > 500 && cov.frozen_keyed > 100, "{cov:?}");
    }

    #[test]
    fn ladder_keys_stop_at_the_last_rung() {
        let cpu = CpuConfig::paper_quad_core();
        let p = ThresholdPolicy::new(DtmScheme::Bw, &cpu, ThermalLimits::paper_fbdimm());
        let rule = p.decision_rule();
        assert_eq!(rule.key(f64::NAN, f64::NAN, 111.0, 70.0), Some(EmergencyLevel::L5.index() as u8));
        assert!(rule.plan_of_key(4).is_some());
        for key in 5..=u8::MAX {
            assert_eq!(rule.plan_of_key(key), None, "key {key}");
        }
        // No-limit: one rung, every observation keys to it.
        let free = NoLimit::new(&cpu);
        let rule = free.decision_rule();
        assert_eq!((rule.key(0.0, 0.0, 150.0, 120.0), rule.key(0.0, 0.0, f64::NAN, f64::NAN)), (Some(0), Some(0)));
        assert!(rule.plan_of_key(0).is_some());
        assert_eq!(rule.plan_of_key(1), None);
    }
}
