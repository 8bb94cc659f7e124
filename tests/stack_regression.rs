//! Regression contract of the device-stack generalization: the legacy
//! FBDIMM two-layer scene must fall out of the stack machinery
//! **bit-identically** (golden mirror of the pre-refactor update), total
//! power into a stack must equal the sum of per-layer node inflows (energy
//! conservation, seeded property test), and the new topologies must behave
//! physically (inner die hottest, NaN-safe bufferless observations) all the
//! way through a MemSpot run.

use dram_thermal::fbdimm::FbdimmConfig;
use dram_thermal::memtherm::dtm::NoLimit;
use dram_thermal::prelude::*;
use dram_thermal::workloads::rng::SmallRng;

/// Replays the *pre-refactor* two-layer scene update verbatim: one shared
/// ambient `ThermalNode`, one AMB/DRAM pair per position, per-step decay
/// factors from `ThermalNode::decay_alpha`, and the Table 3.2 stable-state
/// expressions in their original association order.
struct LegacyMirror {
    ambient: ThermalNode,
    amb: Vec<ThermalNode>,
    dram: Vec<ThermalNode>,
    r: ThermalResistances,
    params: AmbientParams,
}

impl LegacyMirror {
    fn new(positions: usize, cooling: CoolingConfig, params: AmbientParams) -> Self {
        let start = params.system_inlet_c;
        let r = cooling.resistances();
        LegacyMirror {
            ambient: ThermalNode::new(start, params.tau_cpu_dram_s),
            amb: vec![ThermalNode::new(start, r.tau_amb_s); positions],
            dram: vec![ThermalNode::new(start, r.tau_dram_s); positions],
            r,
            params,
        }
    }

    fn step(&mut self, powers: &[FbdimmPowerBreakdown], sum_voltage_ipc: f64, dt_s: f64) {
        let ambient_alpha = ThermalNode::decay_alpha(self.ambient.tau_s(), dt_s);
        let amb_alpha = ThermalNode::decay_alpha(self.r.tau_amb_s, dt_s);
        let dram_alpha = ThermalNode::decay_alpha(self.r.tau_dram_s, dt_s);
        let stable_ambient = self.params.stable_ambient_c(sum_voltage_ipc);
        let ambient = self.ambient.step_with_alpha(stable_ambient, ambient_alpha);
        for (i, p) in powers.iter().enumerate() {
            let stable_amb = ambient + p.amb_watts * self.r.psi_amb + p.dram_watts * self.r.psi_dram_amb;
            let stable_dram = ambient + p.amb_watts * self.r.psi_amb_dram + p.dram_watts * self.r.psi_dram;
            self.amb[i].step_with_alpha(stable_amb, amb_alpha);
            self.dram[i].step_with_alpha(stable_dram, dram_alpha);
        }
    }
}

fn varying_powers(rng: &mut SmallRng, n: usize) -> Vec<FbdimmPowerBreakdown> {
    (0..n)
        .map(|_| FbdimmPowerBreakdown {
            amb_watts: 4.0 + 4.0 * rng.next_f64(),
            dram_watts: 0.98 + 2.5 * rng.next_f64(),
        })
        .collect()
}

#[test]
fn fbdimm_stack_is_bit_identical_to_the_legacy_two_layer_scene() {
    // The golden contract of the refactor: under the FBDIMM topology, every
    // temperature the stack machinery produces must carry the exact f64 bit
    // pattern of the pre-refactor pair-per-position implementation —
    // through varying powers, varying step lengths (exercising the cached
    // coefficients) and both ambient models.
    for (cooling, integrated) in
        [(CoolingConfig::aohs_1_5(), false), (CoolingConfig::fdhs_1_0(), false), (CoolingConfig::aohs_1_5(), true)]
    {
        let mem = FbdimmConfig::ddr2_667_paper();
        let limits = ThermalLimits::paper_fbdimm();
        let params = if integrated { AmbientParams::integrated(&cooling) } else { AmbientParams::isolated(&cooling) };
        let mut scene = DimmThermalScene::with_topology(
            mem.logical_channels,
            mem.dimms_per_channel,
            cooling,
            limits,
            params,
            StackKind::Fbdimm.topology(&cooling),
        );
        let mut mirror = LegacyMirror::new(scene.len(), cooling, params);
        let mut rng = SmallRng::seed_from_u64(0x5eed_57ac + integrated as u64);

        for step in 0..2_000 {
            let powers = varying_powers(&mut rng, scene.len());
            let dt = [1.0, 1.0, 1.0, 0.01, 0.5][step % 5];
            let v_ipc = if integrated { 4.0 * rng.next_f64() } else { 0.0 };
            scene.step(&powers, v_ipc, dt);
            mirror.step(&powers, v_ipc, dt);

            assert_eq!(
                scene.ambient_c().to_bits(),
                mirror.ambient.temp_c().to_bits(),
                "ambient diverged at step {step}"
            );
            for (i, pos) in scene.position_temps().iter().enumerate() {
                assert_eq!(
                    pos.amb_c.to_bits(),
                    mirror.amb[i].temp_c().to_bits(),
                    "AMB bits diverged at step {step}, position {i}: {} vs {}",
                    pos.amb_c,
                    mirror.amb[i].temp_c()
                );
                assert_eq!(
                    pos.dram_c.to_bits(),
                    mirror.dram[i].temp_c().to_bits(),
                    "DRAM bits diverged at step {step}, position {i}"
                );
            }
        }
        // The derived maxima carry the same bits as the mirror's maxima.
        let obs = scene.observe();
        let mirror_max_amb = mirror.amb.iter().map(|n| n.temp_c()).fold(f64::NEG_INFINITY, f64::max);
        let mirror_max_dram = mirror.dram.iter().map(|n| n.temp_c()).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(obs.max_amb_c.to_bits(), mirror_max_amb.to_bits());
        assert_eq!(obs.max_dram_c.to_bits(), mirror_max_dram.to_bits());
    }
}

#[test]
fn stack_power_splits_conserve_energy_for_every_topology() {
    // Seeded property test: for random cooling configurations, stack
    // depths and power draws, the per-layer watts a topology deposits must
    // sum to exactly the power entering the stack — no watt is created or
    // destroyed by the split.
    let mut rng = SmallRng::seed_from_u64(0xc0de_2026);
    for case in 0..500 {
        let cooling = CoolingConfig {
            spreader: if rng.gen_bool(0.5) { HeatSpreader::Aohs } else { HeatSpreader::Fdhs },
            air_velocity_mps: 1.0 + 2.0 * rng.next_f64(),
        };
        let kind = match rng.gen_range(0..4u64) {
            0 => StackKind::Fbdimm,
            1 => StackKind::RankPair,
            2 => StackKind::stacked4(),
            _ => StackKind::Stacked3d { dies: rng.gen_range(1..9u64) as usize },
        };
        let topology = kind.topology(&cooling);
        let p = FbdimmPowerBreakdown { amb_watts: 10.0 * rng.next_f64(), dram_watts: 5.0 * rng.next_f64() };
        let layers = p.layer_watts(&topology);
        assert_eq!(layers.len(), topology.depth());
        let sum: f64 = layers.iter().sum();
        assert!(
            (sum - p.total_watts()).abs() < 1e-12 * p.total_watts().max(1.0),
            "case {case} ({}): split sums to {sum}, {} entered",
            topology.name(),
            p.total_watts()
        );
    }
}

#[test]
fn steady_state_matches_the_psi_superposition() {
    // Energy flow check at the node level: run a stack to steady state
    // under constant power; every layer must sit at ambient + Σ Ψ[l][j]·w[j]
    // — the temperature at which its RC inflow balances its outflow.
    let cooling = CoolingConfig::aohs_1_5();
    let topology = StackKind::stacked4().topology(&cooling);
    let mut scene = DimmThermalScene::with_topology(
        1,
        1,
        cooling,
        ThermalLimits::paper_fbdimm(),
        AmbientParams::isolated(&cooling),
        topology.clone(),
    );
    let p = FbdimmPowerBreakdown { amb_watts: 6.0, dram_watts: 2.0 };
    for _ in 0..20_000 {
        scene.step(&[p], 0.0, 5.0);
    }
    let watts = p.layer_watts(&topology);
    let ambient = scene.ambient_c();
    for (l, &t) in scene.layers_of(0).iter().enumerate() {
        let expected: f64 = ambient + topology.psi_row(l).iter().zip(&watts).map(|(psi, w)| psi * w).sum::<f64>();
        assert!((t - expected).abs() < 1e-6, "layer {l}: {t} vs steady {expected}");
    }
}

#[test]
fn stacked_memspot_run_reports_per_layer_peaks_with_the_inner_die_hottest() {
    let cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(StackKind::stacked4());
    let mut spot = MemSpot::new(cfg);
    let mut policy = NoLimit::new(spot.cpu_config());
    let r = spot.run(&mixes::w1(), &mut policy);
    assert!(r.completed);
    assert_eq!(r.stack, "3d-4h");
    assert_eq!(r.position_peaks.len(), 8);
    for peak in &r.position_peaks {
        assert_eq!(peak.layers_c.len(), 5, "base + four dies");
        // Layer 1 is the die over the hot base (inner); layer 4 sits under
        // the heat spreader (outer). The stacked gradient must be resolved.
        assert!(
            peak.layers_c[1] > peak.layers_c[4],
            "inner die {:.2} must beat outer die {:.2}",
            peak.layers_c[1],
            peak.layers_c[4]
        );
    }
    // The result maxima are derived from the per-layer field.
    let field_max: f64 = r.position_peaks.iter().flat_map(|p| p.layers_c[1..].iter().copied()).fold(f64::MIN, f64::max);
    assert!((field_max - r.max_dram_c).abs() < 1e-9, "field {field_max} vs reported {}", r.max_dram_c);
}

#[test]
fn rank_pair_memspot_run_is_nan_safe_end_to_end() {
    // A DDR4/5 rank pair has no AMB: the run must report a NaN buffer
    // maximum (not a fake 0.0), DTM-TS must still throttle and release on
    // the DRAM condition alone, and the batch must complete.
    let cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(StackKind::RankPair);
    let mut spot = MemSpot::new(cfg);
    let cpu = spot.cpu_config().clone();
    let mut ts = DtmTs::new(cpu, ThermalLimits::paper_fbdimm());
    let r = spot.run(&mixes::w1(), &mut ts);
    assert!(r.completed, "DTM-TS must not latch shut on the missing AMB");
    assert_eq!(r.stack, "rank-pair");
    assert!(r.max_amb_c.is_nan(), "no buffer layer -> NaN maximum, got {}", r.max_amb_c);
    assert!(r.max_dram_c > 50.0 && r.max_dram_c < 85.6, "DRAM TDP still enforced: {:.2}", r.max_dram_c);
    assert!(r.position_peaks.iter().all(|p| p.max_amb_c.is_nan()));
    assert!(r.hottest_position().is_some(), "hottest position is NaN-safe");
    // Equality is NaN-aware: a bit-identical rerun compares equal even
    // though max_amb_c is NaN (deterministic simulation + shared points).
    let mut ts2 = DtmTs::new(spot.cpu_config().clone(), ThermalLimits::paper_fbdimm());
    let r2 = spot.run(&mixes::w1(), &mut ts2);
    assert_eq!(r, r2, "bufferless reruns must compare equal");
}

#[test]
fn from_hottest_round_trips_bufferless_observations() {
    // Satellite contract: synthesizing an observation from a bufferless
    // scene's maxima and feeding it back to the policies is lossless with
    // respect to every limit decision.
    let limits = ThermalLimits::paper_fbdimm();
    let obs = ThermalObservation::from_hottest(f64::NAN, 84.5);
    assert_eq!(obs.max_amb_opt(), None);
    assert!(!obs.over_tdp(&limits));
    assert!(!obs.released(&limits), "DRAM above its TRP is not released");
    assert!(ThermalObservation::from_hottest(f64::NAN, 83.9).released(&limits));
    assert!(ThermalObservation::from_hottest(f64::NAN, 85.0).over_tdp(&limits));

    // The threshold and PID selectors both survive the NaN.
    let mut ts = DtmTs::new(CpuConfig::paper_quad_core(), limits);
    assert!(!ts.decide_temps(f64::NAN, 85.2, 0.01).makes_progress(), "DRAM TDP shuts down");
    assert!(ts.decide_temps(f64::NAN, 83.5, 0.01).makes_progress(), "and releases without an AMB");
    let mut bw = ThresholdPolicy::with_pid(DtmScheme::Bw, &CpuConfig::paper_quad_core(), limits);
    let mut throttled = false;
    for _ in 0..50 {
        // Held just under the DRAM TDP the PID must throttle — the decision
        // rests entirely on the DRAM controller.
        throttled |= bw.decide_temps(f64::NAN, 84.9, 0.01).bandwidth_cap.is_some();
    }
    assert!(throttled, "a hot DRAM must still drive PID throttling without an AMB");
    // After the hot spell the PID must recover (its state was never
    // poisoned by the NaN).
    bw.reset();
    let cool = bw.decide_temps(f64::NAN, 60.0, 0.01);
    assert_eq!(cool.bandwidth_cap, None, "cool DRAM -> no cap");
}
