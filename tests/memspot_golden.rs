//! Golden digests of `MemSpot::run` on the inputs the figure grids never
//! reach: Chapter 5 platform policies (integrated model, ambient override,
//! a 1 s DTM interval over 10 ms windows), traced cells, the spatial
//! DTM-CBW and DTM-MIG plans, a DTM interval shorter than the window and a
//! 4-high 3D stack.
//!
//! The constants were recorded from the per-cell window loop `MemSpot::run`
//! ran before it became a one-cell literal batch, and pin that every one of
//! these runs keeps its bits. The digest folds the `Debug` rendering of each
//! run's label and full result through FNV-1a, as `tests/sweep_golden.rs`
//! does: Rust's `Debug` for `f64` is the shortest round-trip form, so two
//! results digest equally iff they are bit-identical.

use dram_thermal::memtherm::dtm::NoLimit;
use dram_thermal::platform::PlatformPolicy;
use dram_thermal::prelude::*;

fn digest<'a>(runs: impl IntoIterator<Item = (String, &'a MemSpotResult)>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (label, result) in runs {
        for byte in format!("{label}\u{1f}{result:?}\n").bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn assert_digest(name: &str, results: &[(String, MemSpotResult)], golden: u64) {
    let got = digest(results.iter().map(|(label, r)| (label.clone(), r)));
    assert_eq!(got, golden, "{name}: digest {got:#018x} diverged from the recorded golden {golden:#018x}");
}

/// Runs every policy on `mix` through one simulator under `cfg`. Each
/// run's label carries the policy's `Debug` rendering after the run, so the
/// digest also pins the state a run leaves its policy in.
fn runs(cfg: MemSpotConfig, mix: &WorkloadMix, policies: Vec<Box<dyn DtmPolicy>>) -> Vec<(String, MemSpotResult)> {
    let mut spot = MemSpot::new(cfg);
    policies
        .into_iter()
        .map(|mut policy| {
            let result = spot.run(mix, policy.as_mut());
            (format!("{}\u{1f}{policy:?}", policy.name()), result)
        })
        .collect()
}

fn threshold_set(cpu: &CpuConfig, limits: ThermalLimits) -> Vec<Box<dyn DtmPolicy>> {
    vec![
        Box::new(DtmTs::new(cpu.clone(), limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Bw, cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Acg, cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, cpu, limits)),
    ]
}

const GOLDEN_PLATFORM: u64 = 0xbf29_1503_b999_ce80;
const GOLDEN_TRACED: u64 = 0x4e25_55d0_14f8_fccc;
const GOLDEN_SPATIAL: u64 = 0xbd8d_8c00_096c_04fb;
const GOLDEN_SHORT_INTERVAL: u64 = 0x7d43_8c1f_762b_3384;
const GOLDEN_STACKED4: u64 = 0xd422_bc53_861b_8207;

#[test]
fn chapter5_platform_policies_keep_their_bits() {
    // Both servers, W1 and W5: No-limit plus every software policy, each
    // through the experiment's one simulator. A label carries the policy's
    // state after the run (its sensor, hot-plug and frequency state).
    let mut results = Vec::new();
    for server in [Server::sr1500al(), Server::pe1950()] {
        let kind_label = format!("{:?}", server.kind);
        let mut exp = PlatformExperiment::with_scale(server, 1, 0.2);
        for mix in [mixes::w1(), mixes::w5()] {
            let label = |policy: &str| format!("{kind_label}/{}/{policy}", mix.id);
            results.push((label("No-limit"), exp.run_no_limit(&mix).result));
            for kind in PolicyKind::ALL {
                let mut policy = PlatformPolicy::new(kind, exp.server().clone());
                let run = exp.run_with(&mix, &mut policy);
                results.push((format!("{}\u{1f}{policy:?}", label(&kind.to_string())), run.result));
            }
        }
    }
    assert!(results.iter().all(|(_, r)| r.completed));
    assert_digest("chapter 5 platform runs", &results, GOLDEN_PLATFORM);
}

#[test]
fn traced_cells_keep_their_bits() {
    // Figure 4.5-4.8's configuration at smoke batch sizes: temperature
    // traces on, W1 under the four threshold schemes.
    let cpu = CpuConfig::paper_quad_core();
    let mut cfg = MemSpotConfig {
        copies_per_app: 2,
        instruction_scale: 0.6,
        characterization_budget: 15_000,
        ..MemSpotConfig::paper(CoolingConfig::aohs_1_5())
    };
    cfg.record_temp_trace = true;
    let results = runs(cfg, &mixes::w1(), threshold_set(&cpu, cfg.limits));
    assert!(results.iter().all(|(_, r)| !r.temp_trace.is_empty()));
    assert_digest("traced cells", &results, GOLDEN_TRACED);
}

#[test]
fn spatial_plans_keep_their_bits() {
    // DTM-CBW (threshold and PID) and DTM-MIG on the FBDIMM pair and on a
    // rank pair with a derated DRAM TDP, so every per-channel cap and
    // steering weight actually engages.
    let cpu = CpuConfig::paper_quad_core();
    let mut results = Vec::new();
    for (stack, limits) in [
        (StackKind::Fbdimm, ThermalLimits::paper_fbdimm()),
        (StackKind::RankPair, ThermalLimits::paper_fbdimm().with_dram_tdp(63.0)),
    ] {
        let mut cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(stack);
        cfg.limits = limits;
        let policies: Vec<Box<dyn DtmPolicy>> = vec![
            Box::new(DtmCbw::new(cpu.clone(), limits)),
            Box::new(DtmCbw::with_pid(cpu.clone(), limits)),
            Box::new(DtmMig::new(cpu.clone(), limits)),
        ];
        results.extend(runs(cfg, &mixes::w1(), policies));
    }
    assert!(results.iter().any(|(_, r)| r.migrated_traffic_bytes > 0.0), "DTM-MIG must migrate");
    assert!(results.iter().any(|(_, r)| r.channel_throttle_residency.iter().any(|&f| f > 0.0)));
    assert_digest("spatial plans", &results, GOLDEN_SPATIAL);
}

#[test]
fn a_dtm_interval_shorter_than_the_window_keeps_its_bits() {
    // 10 ms windows decided every 4 ms: the loop steps at the 4 ms
    // interval.
    let cpu = CpuConfig::paper_quad_core();
    let mut cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5());
    cfg.dtm_interval_s = 0.004;
    let mut policies = threshold_set(&cpu, cfg.limits);
    policies.push(Box::new(ThresholdPolicy::with_pid(DtmScheme::Acg, &cpu, cfg.limits)));
    let results = runs(cfg, &mixes::w6(), policies);
    assert_digest("short DTM interval", &results, GOLDEN_SHORT_INTERVAL);
}

#[test]
fn a_stacked4_cell_keeps_its_bits() {
    // A 4-high 3D stack (non-identity power split) under No-limit, DTM-BW
    // and DTM-TS, with the DRAM TDP derated so the policies engage, and
    // integrated so the ambient moves.
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm().with_dram_tdp(77.0);
    let mut cfg =
        MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(StackKind::stacked4()).with_integrated(None);
    cfg.limits = limits;
    let policies: Vec<Box<dyn DtmPolicy>> = vec![
        Box::new(NoLimit::new(&cpu)),
        Box::new(ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits)),
        Box::new(DtmTs::new(cpu.clone(), limits)),
    ];
    let results = runs(cfg, &mixes::w1(), policies);
    assert_digest("stacked4", &results, GOLDEN_STACKED4);
}
