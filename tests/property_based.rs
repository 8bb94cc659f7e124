//! Property-based tests of the core invariants across crates:
//! memory-simulator timing, cache behaviour, thermal-model physics, power
//! monotonicity/conservation and DTM decision monotonicity.
//!
//! The container builds offline, so instead of an external property-testing
//! framework the tests draw their cases from the workspace's deterministic
//! [`SmallRng`] — each property is checked over a few dozen seeded random
//! inputs, and a failing case is reproducible from its printed seed.

use dram_thermal::cpu::{CacheConfig, SetAssocCache};
use dram_thermal::fbdimm::{
    ActivationThrottle, DimmTraffic, FbdimmConfig, MemRequest, MemorySystem, RequestKind, TrafficWindow,
};
use dram_thermal::memtherm::dtm::emergency::EmergencyThresholds;
use dram_thermal::memtherm::dtm::policy::DtmPolicy;
use dram_thermal::prelude::*;
use dram_thermal::workloads::rng::SmallRng;

const CASES: u64 = 48;

/// Runs `body` for `CASES` deterministic seeds, printing the failing seed.
fn for_each_case(name: &str, mut body: impl FnMut(&mut SmallRng)) {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD1A0_0000 + seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property '{name}' failed for seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Completions never precede their arrival and respect the DRAM core
/// latency, for any mix of reads and writes.
#[test]
fn memory_completions_respect_causality() {
    for_each_case("memory_completions_respect_causality", |rng| {
        let cfg = FbdimmConfig::ddr2_667_paper();
        let mut mem = MemorySystem::new(cfg);
        let n = rng.gen_range(1..200u64) as usize;
        for _ in 0..n {
            let line = rng.gen_range(0..1_000_000u64);
            let kind = if rng.gen_bool(0.5) { RequestKind::Write } else { RequestKind::Read };
            mem.enqueue(MemRequest::new(line, kind, 0)).unwrap();
        }
        let completions = mem.run_until_idle();
        assert_eq!(completions.len(), n);
        for c in &completions {
            assert!(c.finish_ps >= c.arrival_ps);
            assert!(c.latency_ps() >= cfg.timings.t_rcd);
        }
    });
}

/// The activation throttle never admits more activations per window than
/// its configured limit.
#[test]
fn throttle_never_exceeds_its_budget() {
    for_each_case("throttle_never_exceeds_its_budget", |rng| {
        let limit = rng.gen_range(1..50u64);
        let n = rng.gen_range(1..400u64) as usize;
        let window = 1_000_000u64; // 1 us
        let mut throttle = ActivationThrottle::with_limit(window, limit);
        let mut grants: Vec<u64> = Vec::new();
        let mut t = 0u64;
        for _ in 0..n {
            t = throttle.reserve(t);
            grants.push(t);
        }
        // Count activations granted inside any single window.
        for start in grants.iter().map(|g| (g / window) * window) {
            let in_window = grants.iter().filter(|&&g| g >= start && g < start + window).count() as u64;
            assert!(in_window <= limit, "window starting at {start} admitted {in_window} > {limit}");
        }
    });
}

/// A cache never reports more hits than accesses, and a second pass over
/// a working set no larger than the cache always hits.
#[test]
fn cache_hit_invariants() {
    for_each_case("cache_hit_invariants", |rng| {
        let mut cache = SetAssocCache::new(CacheConfig { capacity_bytes: 64 * 1024, associativity: 8, line_bytes: 64 });
        let n = rng.gen_range(1..256u64) as usize;
        let lines: Vec<u64> = (0..n).map(|_| rng.gen_range(0..512u64)).collect();
        for &l in &lines {
            cache.access(l, false);
        }
        let stats = cache.stats();
        assert!(stats.misses <= stats.accesses);
        // 512 distinct lines at most = 32 KiB < 64 KiB capacity: second pass hits.
        let mut unique: Vec<u64> = lines.clone();
        unique.sort_unstable();
        unique.dedup();
        for &l in &unique {
            assert!(cache.access(l, false).is_hit());
        }
    });
}

/// The thermal RC node always moves monotonically toward the stable
/// temperature and never overshoots it.
#[test]
fn thermal_node_never_overshoots() {
    for_each_case("thermal_node_never_overshoots", |rng| {
        let start = rng.gen_range(20.0..120.0);
        let stable = rng.gen_range(20.0..140.0);
        let steps = rng.gen_range(1..500u64);
        let mut node = ThermalNode::new(start, 50.0);
        let mut prev = start;
        for _ in 0..steps {
            let t = node.step(stable, 1.0);
            if stable >= start {
                assert!(t >= prev - 1e-9 && t <= stable + 1e-9);
            } else {
                assert!(t <= prev + 1e-9 && t >= stable - 1e-9);
            }
            prev = t;
        }
    });
}

/// Steady-state device temperatures increase monotonically with power.
#[test]
fn stable_temperature_is_monotone_in_power() {
    for_each_case("stable_temperature_is_monotone_in_power", |rng| {
        let model = IsolatedThermalModel::new(CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
        let p1 = rng.gen_range(0.0..10.0);
        let p2 = rng.gen_range(0.0..10.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(model.stable_amb_c(lo, 1.0) <= model.stable_amb_c(hi, 1.0));
        assert!(model.stable_dram_c(1.0, lo) <= model.stable_dram_c(1.0, hi));
    });
}

/// FBDIMM power models are monotone in throughput and never report less
/// than idle power.
#[test]
fn power_models_are_monotone() {
    for_each_case("power_models_are_monotone", |rng| {
        let power = FbdimmPowerModel::paper_defaults();
        let read = rng.gen_range(0.0..12.0);
        let write = rng.gen_range(0.0..6.0);
        let bypass = rng.gen_range(0.0..12.0);
        let dram = power.dram.power_watts(read, write);
        assert!(dram >= power.dram.power_watts(0.0, 0.0));
        assert!(power.dram.power_watts(read + 1.0, write) >= dram);
        let amb = power.amb.power_watts(bypass, read, false);
        assert!(amb >= power.amb.power_watts(0.0, 0.0, false));
        assert!(power.amb.power_watts(bypass, read + 0.5, false) >= amb);
    });
}

fn random_window(rng: &mut SmallRng, cfg: &FbdimmConfig) -> TrafficWindow {
    let mut dimms = Vec::new();
    for channel in 0..cfg.logical_channels {
        for dimm in 0..cfg.dimms_per_channel {
            if !rng.gen_bool(0.85) {
                continue; // occasionally drop a position
            }
            dimms.push(DimmTraffic {
                channel,
                dimm,
                local_gbps: rng.gen_range(0.0..4.0),
                bypass_gbps: rng.gen_range(0.0..8.0),
                read_fraction: rng.gen_range(0.0..1.0),
            });
        }
    }
    TrafficWindow { dimms, ..TrafficWindow::default() }
}

/// Power conservation: the per-position `scene_power` breakdowns sum to
/// exactly the subsystem power, for any traffic window and subsystem shape.
#[test]
fn scene_power_conserves_subsystem_power() {
    for_each_case("scene_power_conserves_subsystem_power", |rng| {
        let cfg = FbdimmConfig::ddr2_667_paper();
        let power = FbdimmPowerModel::paper_defaults();
        let window = random_window(rng, &cfg);
        let phys = rng.gen_range(1..4u64) as usize;
        let per_position = power.scene_power(&window, cfg.dimms_per_channel);
        assert_eq!(per_position.len(), window.dimms.len());
        let sum: f64 = per_position.iter().map(|p| p.total_watts()).sum();
        let subsystem = power.subsystem_power_watts(&window, cfg.dimms_per_channel, phys);
        assert!((sum * phys as f64 - subsystem).abs() < 1e-9, "scene sum {sum} x {phys} phys != subsystem {subsystem}");
    });
}

/// The hottest entry of `scene_power` is exactly what the legacy
/// `hottest_dimm_power` path reports.
#[test]
fn scene_power_argmax_matches_legacy_hottest_path() {
    for_each_case("scene_power_argmax_matches_legacy_hottest_path", |rng| {
        let cfg = FbdimmConfig::ddr2_667_paper();
        let power = FbdimmPowerModel::paper_defaults();
        let window = random_window(rng, &cfg);
        let legacy = power.hottest_dimm_power(&window, cfg.dimms_per_channel);
        let derived = power
            .scene_power(&window, cfg.dimms_per_channel)
            .into_iter()
            .max_by(|a, b| a.total_watts().partial_cmp(&b.total_watts()).unwrap())
            .unwrap_or_else(|| power.idle_dimm_power(false));
        assert!((legacy.total_watts() - derived.total_watts()).abs() < 1e-12);
        assert!((legacy.amb_watts - derived.amb_watts).abs() < 1e-12);
    });
}

/// The thermal emergency level never decreases as temperature rises.
#[test]
fn emergency_level_is_monotone_in_temperature() {
    for_each_case("emergency_level_is_monotone_in_temperature", |rng| {
        let thresholds = EmergencyThresholds::table_4_3(&ThermalLimits::paper_fbdimm());
        let t1 = rng.gen_range(60.0..120.0);
        let t2 = rng.gen_range(60.0..120.0);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        assert!(thresholds.amb_level(lo) <= thresholds.amb_level(hi));
    });
}

/// DTM-ACG never enables more cores at a hotter temperature than at a
/// cooler one (decisions are monotone), whether the observation arrives as
/// a synthesized scalar pair or as a full per-position field.
#[test]
fn acg_decisions_are_monotone() {
    for_each_case("acg_decisions_are_monotone", |rng| {
        let cpu = CpuConfig::paper_quad_core();
        let limits = ThermalLimits::paper_fbdimm();
        let t1 = rng.gen_range(90.0..112.0);
        let t2 = rng.gen_range(90.0..112.0);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        // Fresh policies: threshold decisions are stateless.
        let mut cool = ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits);
        let mut hot = ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits);
        let cores_cool = cool.decide_temps(lo, 70.0, 1.0).active_cores;
        let cores_hot = hot.decide_temps(hi, 70.0, 1.0).active_cores;
        assert!(cores_hot <= cores_cool);
        // A full-field observation whose maximum equals the scalar pair
        // produces the same decision.
        let mem = FbdimmConfig::ddr2_667_paper();
        let mut scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), limits);
        scene.set_uniform_temps_c(hi, 70.0);
        let mut from_field = ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits);
        assert_eq!(from_field.decide(&scene.observe(), 1.0).mode.active_cores, cores_hot);
    });
}

/// Coefficient-cached RC stepping (`decay_alpha` + `step_with_alpha`, the
/// window loop's hot path) matches the closed-form `exp()` integration of
/// Equation 3.5 within 1e-12 over randomized (tau, dt, power) sequences.
#[test]
fn cached_rc_coefficients_match_the_closed_form_exp_path() {
    for_each_case("cached_rc_coefficients_match_the_closed_form_exp_path", |rng| {
        let tau = 1.0 + rng.next_f64() * 200.0;
        let mut cached = ThermalNode::new(20.0 + rng.next_f64() * 60.0, tau);
        let mut reference = cached.temp_c();
        // A handful of segments with a fixed dt each: the cached path
        // computes alpha once per segment, the reference pays exp() per step.
        for _ in 0..rng.gen_range(1..6u64) {
            let dt = 10f64.powf(rng.next_f64() * 4.0 - 2.0); // 0.01 .. 100 s
            let alpha = ThermalNode::decay_alpha(tau, dt);
            for _ in 0..rng.gen_range(1..80u64) {
                let power_c = rng.next_f64() * 120.0; // stable temperature
                cached.step_with_alpha(power_c, alpha);
                reference += (power_c - reference) * (1.0 - (-dt / tau).exp());
                assert!(
                    (cached.temp_c() - reference).abs() < 1e-12,
                    "cached {} vs closed form {} (tau {tau}, dt {dt})",
                    cached.temp_c(),
                    reference
                );
            }
        }
    });
}

/// The whole-scene coefficient cache (three `exp()`s per distinct step
/// length instead of `2·positions+1` per window) is equivalent to stepping
/// every node with the closed form, including across step-length changes
/// that invalidate the cache.
#[test]
fn scene_coefficient_cache_matches_per_node_closed_form() {
    for_each_case("scene_coefficient_cache_matches_per_node_closed_form", |rng| {
        let mem = FbdimmConfig::ddr2_667_paper();
        let cooling = if rng.gen_bool(0.5) { CoolingConfig::aohs_1_5() } else { CoolingConfig::fdhs_1_0() };
        let mut scene = DimmThermalScene::isolated(&mem, cooling, ThermalLimits::paper_fbdimm());
        let r = cooling.resistances();
        let inlet = scene.ambient_params().system_inlet_c;
        let n = scene.len();
        let mut amb = vec![inlet; n];
        let mut dram = vec![inlet; n];
        let dts = [0.01, 0.1, 1.0, 7.5];
        for _ in 0..60 {
            let dt = dts[rng.gen_range(0..dts.len() as u64) as usize];
            let powers: Vec<FbdimmPowerBreakdown> = (0..n)
                .map(|_| FbdimmPowerBreakdown { amb_watts: rng.next_f64() * 8.0, dram_watts: rng.next_f64() * 3.0 })
                .collect();
            scene.step(&powers, 0.0, dt);
            for (i, p) in powers.iter().enumerate() {
                let stable_amb = inlet + p.amb_watts * r.psi_amb + p.dram_watts * r.psi_dram_amb;
                let stable_dram = inlet + p.amb_watts * r.psi_amb_dram + p.dram_watts * r.psi_dram;
                amb[i] += (stable_amb - amb[i]) * (1.0 - (-dt / r.tau_amb_s).exp());
                dram[i] += (stable_dram - dram[i]) * (1.0 - (-dt / r.tau_dram_s).exp());
            }
            for (pos, (a, d)) in scene.position_temps().iter().zip(amb.iter().zip(dram.iter())) {
                assert!((pos.amb_c - a).abs() < 1e-12, "AMB {} vs {}", pos.amb_c, a);
                assert!((pos.dram_c - d).abs() < 1e-12, "DRAM {} vs {}", pos.dram_c, d);
            }
        }
    });
}

/// Synthetic workload streams always stay within their declared
/// footprint and attribute at least one instruction per access.
#[test]
fn workload_streams_are_well_formed() {
    for_each_case("workload_streams_are_well_formed", |rng| {
        use dram_thermal::workloads::{spec2000, AccessStream};
        let app = spec2000::art();
        let mut stream = AccessStream::new(&app, rng.next_u64());
        let fp = stream.footprint_lines();
        for _ in 0..500 {
            let a = stream.next_access();
            assert!(a.line < fp);
            assert!(a.gap_instructions >= 1);
        }
    });
}
