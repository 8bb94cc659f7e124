//! Golden regression contract of the `ActuationPlan` refactor: the seven
//! pre-existing DTM policies (No-limit, DTM-TS, DTM-BW, DTM-ACG, DTM-CDVFS,
//! DTM-COMB and the Chapter 5 `PlatformPolicy`) must keep producing
//! **bit-identical** running-mode trajectories — every `f64` of every decided
//! mode compared by bit pattern, in the same style as
//! `tests/stack_regression.rs`.
//!
//! Each policy is driven over a long seeded temperature walk that sweeps the
//! whole emergency-level region (including `NaN` buffer temperatures for the
//! NaN-safe paths) and compared step by step against an independent mirror of
//! the pre-refactor decision logic, re-implemented here from the paper's raw
//! constants (Table 4.3 thresholds and running levels, the Section 4.2.3 PID
//! update, the DTM-TS hysteresis latch, the Table 5.1 platform levels).
//! Because the mirrors share no selector/PID code with the library, any
//! behavioral drift introduced by routing decisions through actuation plans
//! fails this test — a plan carrying only a global mode must reproduce
//! yesterday's policies exactly.

use dram_thermal::memtherm::dtm::policy::DtmPolicy;
use dram_thermal::memtherm::dtm::NoLimit;
use dram_thermal::prelude::*;
use dram_thermal::workloads::rng::SmallRng;
use platform_emu::{PlatformPolicy, PolicyKind, Server};

/// Bit-exact equality of two running modes, with a context label.
fn assert_mode_bits(step: usize, label: &str, got: &RunningMode, want: &RunningMode) {
    assert_eq!(got.active_cores, want.active_cores, "{label}: cores diverged at step {step}");
    assert_eq!(
        got.op.freq_ghz.to_bits(),
        want.op.freq_ghz.to_bits(),
        "{label}: frequency bits diverged at step {step}: {} vs {}",
        got.op.freq_ghz,
        want.op.freq_ghz
    );
    assert_eq!(got.op.voltage.to_bits(), want.op.voltage.to_bits(), "{label}: voltage bits diverged at step {step}");
    assert_eq!(
        got.bandwidth_cap.map(f64::to_bits),
        want.bandwidth_cap.map(f64::to_bits),
        "{label}: bandwidth-cap bits diverged at step {step}: {:?} vs {:?}",
        got.bandwidth_cap,
        want.bandwidth_cap
    );
}

/// The Table 4.3 emergency level (0-based) from raw boundary constants —
/// independent of `EmergencyThresholds`. `NaN` never reaches any level.
fn mirror_threshold_level(amb_c: f64, dram_c: f64) -> usize {
    let amb_bounds = [108.0, 109.0, 109.5, 110.0];
    let dram_bounds = [83.0, 84.0, 84.5, 85.0];
    let la = amb_bounds.iter().filter(|&&b| amb_c >= b).count();
    let ld = dram_bounds.iter().filter(|&&b| dram_c >= b).count();
    la.max(ld)
}

/// Mirror of the pre-refactor per-scheme running levels (Table 4.3).
fn mirror_scheme_mode(scheme: DtmScheme, level: usize, cpu: &CpuConfig) -> RunningMode {
    let full = RunningMode { active_cores: cpu.cores, op: cpu.dvfs.top(), bandwidth_cap: None };
    let off = RunningMode { active_cores: 0, op: cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) };
    if level >= 4 {
        return off;
    }
    match scheme {
        DtmScheme::NoLimit | DtmScheme::Ts => full,
        DtmScheme::Bw => match level {
            0 => full,
            l => RunningMode { bandwidth_cap: Some([19.2e9, 12.8e9, 6.4e9][l - 1]), ..full },
        },
        DtmScheme::Acg => RunningMode { active_cores: cpu.cores - level, ..full },
        DtmScheme::Cdvfs => RunningMode { op: cpu.dvfs.point(level), ..full },
        DtmScheme::Comb => match level {
            0 => full,
            1 => RunningMode { active_cores: 3, op: cpu.dvfs.point(1), ..full },
            2 => RunningMode { active_cores: 2, op: cpu.dvfs.point(2), ..full },
            _ => RunningMode { active_cores: 2, op: cpu.dvfs.point(3), ..full },
        },
        _ => panic!("mirror only covers the pre-refactor schemes"),
    }
}

/// Mirror of the Section 4.2.3 PID controller (Equation 4.1 with conditional
/// integration and anti-windup), re-implemented from the paper constants.
struct MirrorPid {
    kc: f64,
    ki: f64,
    kd: f64,
    target_c: f64,
    enable_c: f64,
    integral: f64,
    prev_error: Option<f64>,
    last_output: f64,
}

impl MirrorPid {
    fn amb() -> Self {
        MirrorPid {
            kc: 10.4,
            ki: 180.24,
            kd: 0.001,
            target_c: 109.8,
            enable_c: 109.0,
            integral: 0.0,
            prev_error: None,
            last_output: 0.0,
        }
    }

    fn dram() -> Self {
        MirrorPid {
            kc: 12.4,
            ki: 155.12,
            kd: 0.001,
            target_c: 84.8,
            enable_c: 84.0,
            integral: 0.0,
            prev_error: None,
            last_output: 0.0,
        }
    }

    fn update(&mut self, measured_c: f64, dt_s: f64) -> f64 {
        let error = self.target_c - measured_c;
        let derivative = match self.prev_error {
            Some(prev) if dt_s > 0.0 => (error - prev) / dt_s,
            _ => 0.0,
        };
        self.prev_error = Some(error);
        let saturated_high = self.last_output >= 150.0 && error > 0.0;
        let saturated_low = self.last_output <= -150.0 && error < 0.0;
        if measured_c < self.enable_c {
            self.integral = 0.0;
        } else if !saturated_high && !saturated_low && dt_s > 0.0 {
            self.integral += error * dt_s;
        }
        let raw = self.kc * (error + self.ki * self.integral + self.kd * derivative);
        self.last_output = raw.clamp(-150.0, 150.0);
        self.last_output
    }

    fn level(&mut self, measured_c: f64, dt_s: f64) -> usize {
        let out = self.update(measured_c, dt_s);
        if out >= 20.0 {
            return 0;
        }
        (((20.0 - out) / 10.0).ceil() as usize).min(4)
    }
}

/// Mirror of the PID-driven level selection: TDP forces the top level (while
/// still updating the controllers); `NaN` devices contribute level 0 and
/// never touch their controller's integral state.
struct MirrorPidSelector {
    amb: MirrorPid,
    dram: MirrorPid,
}

impl MirrorPidSelector {
    fn new() -> Self {
        MirrorPidSelector { amb: MirrorPid::amb(), dram: MirrorPid::dram() }
    }

    fn select(&mut self, amb_c: f64, dram_c: f64, dt_s: f64) -> usize {
        if amb_c >= 110.0 || dram_c >= 85.0 {
            if !amb_c.is_nan() {
                self.amb.update(amb_c, dt_s);
            }
            if !dram_c.is_nan() {
                self.dram.update(dram_c, dt_s);
            }
            return 4;
        }
        let la = if amb_c.is_nan() { 0 } else { self.amb.level(amb_c, dt_s) };
        let ld = if dram_c.is_nan() { 0 } else { self.dram.level(dram_c, dt_s) };
        la.max(ld)
    }
}

/// The seeded temperature walk every policy is pinned against: sweeps both
/// devices through their whole emergency region, occasionally reports a
/// `NaN` buffer (bufferless rank-pair scenes), and alternates DTM interval
/// lengths.
fn walk(seed: u64, with_nan: bool) -> Vec<(f64, f64, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..2_000)
        .map(|_| {
            let amb = if with_nan && rng.gen_bool(0.1) { f64::NAN } else { 95.0 + 17.0 * rng.next_f64() };
            let dram = 68.0 + 19.0 * rng.next_f64();
            let dt = [0.01, 0.01, 0.01, 1.0][rng.gen_range(0..4u64) as usize];
            (amb, dram, dt)
        })
        .collect()
}

#[test]
fn threshold_policies_are_bit_identical_to_the_table_4_3_mirror() {
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();
    let mut policies: Vec<Box<dyn DtmPolicy>> = vec![
        Box::new(NoLimit::new(&cpu)),
        Box::new(ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Comb, &cpu, limits)),
    ];
    for policy in &mut policies {
        let scheme = policy.scheme();
        for (step, &(amb, dram, dt)) in walk(0x90_1d_e4 + scheme as u64, true).iter().enumerate() {
            let got = policy.decide_temps(amb, dram, dt);
            let level = if scheme == DtmScheme::NoLimit { 0 } else { mirror_threshold_level(amb, dram) };
            let want = mirror_scheme_mode(scheme, level, &cpu);
            assert_mode_bits(step, &policy.name(), &got, &want);
        }
    }
}

#[test]
fn dtm_ts_latch_is_bit_identical_to_the_hysteresis_mirror() {
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();
    let mut ts = DtmTs::new(cpu.clone(), limits);
    let mut shut = false;
    for (step, &(amb, dram, dt)) in walk(0x75_1a7c4, true).iter().enumerate() {
        let got = ts.decide_temps(amb, dram, dt);
        if amb >= 110.0 || dram >= 85.0 {
            shut = true;
        } else if shut {
            let released = |t: f64, trp: f64| t.is_nan() || t <= trp;
            if released(amb, 109.0) && released(dram, 84.0) {
                shut = false;
            }
        }
        let want = mirror_scheme_mode(DtmScheme::Ts, if shut { 4 } else { 0 }, &cpu);
        assert_mode_bits(step, "DTM-TS", &got, &want);
    }
}

#[test]
fn pid_policies_are_bit_identical_to_the_equation_4_1_mirror() {
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();
    let mut cases: Vec<(Box<dyn DtmPolicy>, DtmScheme)> = vec![
        (Box::new(ThresholdPolicy::with_pid(DtmScheme::Bw, &cpu, limits)), DtmScheme::Bw),
        (Box::new(ThresholdPolicy::with_pid(DtmScheme::Acg, &cpu, limits)), DtmScheme::Acg),
        (Box::new(ThresholdPolicy::with_pid(DtmScheme::Cdvfs, &cpu, limits)), DtmScheme::Cdvfs),
        (Box::new(ThresholdPolicy::with_pid(DtmScheme::Comb, &cpu, limits)), DtmScheme::Comb),
    ];
    for (policy, scheme) in &mut cases {
        assert!(policy.uses_pid(), "{}", policy.name());
        let mut mirror = MirrorPidSelector::new();
        for (step, &(amb, dram, dt)) in walk(0x91d_0000 ^ *scheme as u64, true).iter().enumerate() {
            let got = policy.decide_temps(amb, dram, dt);
            let want = mirror_scheme_mode(*scheme, mirror.select(amb, dram, dt), &cpu);
            assert_mode_bits(step, &policy.name(), &got, &want);
        }
    }
}

#[test]
fn legacy_policies_emit_scalar_plans_even_over_a_resolved_field() {
    // The plan contract: the seven pre-existing policies never attach
    // per-channel service fractions or steering weights — their plans are
    // scalar wrappers of exactly the mode the scalar path reports, even
    // when the observation carries the full per-position field.
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();
    let mem = FbdimmConfig::ddr2_667_paper();
    let mut policies: Vec<Box<dyn DtmPolicy>> = vec![
        Box::new(NoLimit::new(&cpu)),
        Box::new(DtmTs::new(cpu.clone(), limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits)),
        Box::new(ThresholdPolicy::with_pid(DtmScheme::Acg, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Comb, &cpu, limits)),
        Box::new(PlatformPolicy::new(PolicyKind::Comb, Server::sr1500al()).with_ideal_sensor()),
    ];
    for temps in [(100.0, 70.0), (108.6, 83.2), (109.8, 84.9), (111.0, 86.0), (95.0, 70.0)] {
        let mut scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), limits);
        scene.set_uniform_temps_c(temps.0, temps.1);
        let obs = scene.observe();
        for policy in &mut policies {
            let plan = policy.decide(&obs, 0.01);
            assert!(plan.is_scalar(), "{} attached spatial actuation", policy.name());
            assert!(plan.channel_service.is_empty() && plan.steering.is_empty());
        }
    }
}

#[test]
fn platform_policies_are_bit_identical_to_the_table_5_1_mirror() {
    // The Chapter 5 software policies on the SR1500AL with an ideal sensor:
    // levels from the server's emergency bounds, 5/4/3 GB/s caps, 4/3/2/2
    // online cores, the Xeon cpufreq ladder, and the level-3 fail-safe cap.
    for kind in [PolicyKind::Bw, PolicyKind::Acg, PolicyKind::Cdvfs, PolicyKind::Comb] {
        let server = Server::sr1500al();
        let cpu = server.cpu.clone();
        let bounds = server.emergency_bounds_c;
        let bw_limits = server.bw_limits_gbps;
        let failsafe = server.failsafe_cap_gbps;
        let mut policy = PlatformPolicy::new(kind, server).with_ideal_sensor();
        let mut rng = SmallRng::seed_from_u64(0x5_1500 + kind.scheme() as u64);
        for step in 0..2_000 {
            let amb = 78.0 + 20.0 * rng.next_f64();
            let got = policy.decide_temps(amb, 0.0, 1.0);
            let level = bounds.iter().filter(|&&b| amb >= b).count();
            let full = RunningMode { active_cores: cpu.cores, op: cpu.dvfs.top(), bandwidth_cap: None };
            let mut want = full;
            match kind {
                PolicyKind::NoLimit => {}
                PolicyKind::Bw => {
                    if level >= 1 {
                        want.bandwidth_cap = Some(bw_limits[(level - 1).min(2)] * 1e9);
                    }
                }
                PolicyKind::Acg => {
                    want.active_cores = [4, 3, 2, 2][level.min(3)];
                    if level >= 3 {
                        want.bandwidth_cap = Some(failsafe * 1e9);
                    }
                }
                PolicyKind::Cdvfs => {
                    want.op = cpu.dvfs.point(level.min(3));
                    if level >= 3 {
                        want.bandwidth_cap = Some(failsafe * 1e9);
                    }
                }
                PolicyKind::Comb => {
                    want.active_cores = [4, 3, 2, 2][level.min(3)];
                    want.op = cpu.dvfs.point(level.min(3));
                    if level >= 3 {
                        want.bandwidth_cap = Some(failsafe * 1e9);
                    }
                }
            }
            assert_mode_bits(step, &policy.name(), &got, &want);
        }
    }
}
