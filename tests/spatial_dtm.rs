//! End-to-end contracts of the spatially resolved DTM policies: per-channel
//! caps must key off the NaN-safe hottest layer on bufferless (rank-pair)
//! and 4-high 3D stacks, steering weights must stay a distribution through
//! real simulation runs, and the spatial actuators must actually show up in
//! the results (asymmetric throttle residency, migrated traffic, a flatter
//! thermal field than global DTM-BW).

use dram_thermal::memtherm::dtm::policy::DtmPolicy;
use dram_thermal::memtherm::dtm::NoLimit;
use dram_thermal::prelude::*;
use dram_thermal::workloads::rng::SmallRng;

fn spot(stack: StackKind) -> MemSpot {
    MemSpot::new(MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(stack))
}

/// Limits derated so the test-scale batches actually reach a thermal
/// emergency: rank pairs and 3D stacks run cooler than the FBDIMM AMB era,
/// so their DRAM TDP sits just below the unconstrained peak
/// ([`ThermalLimits::with_dram_tdp`] keeps the TDP−TRP margin).
fn derated(tdp_c: f64) -> ThermalLimits {
    ThermalLimits::paper_fbdimm().with_dram_tdp(tdp_c)
}

fn spot_with_limits(stack: StackKind, limits: ThermalLimits) -> MemSpot {
    let mut cfg = MemSpotConfig::tiny(CoolingConfig::aohs_1_5()).with_stack(stack);
    cfg.limits = limits;
    MemSpot::new(cfg)
}

#[test]
fn cbw_keys_off_the_nan_safe_hottest_layer_on_rank_pairs() {
    // A DDR4/5 rank pair has no buffer die: every observation reports a NaN
    // buffer maximum, and DTM-CBW's per-channel selectors must throttle from
    // the DRAM layers alone (NaN never reaches a threshold or a PID
    // integral) while still enforcing the DRAM TDP.
    let limits = derated(63.0);
    let mut spot = spot_with_limits(StackKind::RankPair, limits);
    let cpu = spot.cpu_config().clone();
    let mut cbw = DtmCbw::with_pid(cpu, limits);
    let r = spot.run(&mixes::w1(), &mut cbw);
    assert!(r.completed, "CBW must not stall on the missing buffer die");
    assert!(r.max_amb_c.is_nan(), "no buffer layer -> NaN maximum");
    assert!(r.max_dram_c > 60.0 && r.max_dram_c < 63.5, "DRAM throttled near its TDP: {:.2}", r.max_dram_c);
    // The per-channel actuator really engaged, and the result reports it.
    assert_eq!(r.channel_throttle_residency.len(), 2, "one entry per logical channel");
    assert!(
        r.channel_throttle_residency.iter().any(|&f| f > 0.0),
        "a run that grazes the TDP must have throttled some channel: {:?}",
        r.channel_throttle_residency
    );
    assert!(r.channel_throttle_residency.iter().all(|&f| (0.0..=1.0).contains(&f)));
    assert_eq!(r.migrated_traffic_bytes, 0.0, "CBW throttles, it does not migrate");
}

#[test]
fn cbw_keys_off_the_inner_die_on_4_high_stacks() {
    // On a 3D stack the hottest layer is the inner die next to the base;
    // the per-channel selectors see it through the channel's hottest-layer
    // maxima and must keep it at (or below) the DRAM TDP, like DTM-BW does
    // globally — while never throttling more of the machine than DTM-BW.
    let limits = derated(77.0);
    let mut spot = spot_with_limits(StackKind::stacked4(), limits);
    let cpu = spot.cpu_config().clone();
    let mut bw = ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits);
    let rb = spot.run(&mixes::w1(), &mut bw);
    let mut cbw = DtmCbw::new(cpu, limits);
    let rc = spot.run(&mixes::w1(), &mut cbw);
    assert!(rb.completed && rc.completed);
    let slack = 0.5; // one DTM interval of heating past the trip point
    assert!(rc.max_dram_c < limits.dram_tdp_c + slack, "CBW inner die at {:.2}", rc.max_dram_c);
    assert!(rb.max_dram_c < limits.dram_tdp_c + slack, "BW inner die at {:.2}", rb.max_dram_c);
    assert!(rc.channel_throttle_residency.iter().any(|&f| f > 0.0), "CBW must actually throttle");
    assert!(rc.channel_throttle_residency.iter().all(|&f| (0.0..=1.0).contains(&f)));
    // With this symmetric workload both channels heat alike, so per-channel
    // caps land in the same ballpark as the global cap (the models differ —
    // characterized global caps vs linear service scaling — so exact parity
    // is not required); a pathological stall would blow this bound.
    assert!(
        rc.running_time_s <= rb.running_time_s * 1.5,
        "per-channel caps far off the global cap: CBW {:.1}s vs BW {:.1}s",
        rc.running_time_s,
        rb.running_time_s
    );
}

#[test]
fn mig_migrates_traffic_and_flattens_the_field_vs_bw() {
    let limits = derated(77.0);
    let mut spot = spot_with_limits(StackKind::stacked4(), limits);
    let cpu = spot.cpu_config().clone();
    let mut bw = ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits);
    let rb = spot.run(&mixes::w1(), &mut bw);
    let mut mig = DtmMig::new(cpu, limits);
    let rm = spot.run(&mixes::w1(), &mut mig);
    assert!(rb.completed && rm.completed);
    // Steering really moved traffic, and only MIG reports it.
    assert!(rm.migrated_traffic_bytes > 0.0, "MIG must migrate traffic");
    assert_eq!(rb.migrated_traffic_bytes, 0.0, "BW never migrates");
    // The migration-aware field is flatter: hottest-vs-coldest position
    // spread strictly below the global-throttling reference.
    let (sb, sm) = (rb.position_peak_spread_c(), rm.position_peak_spread_c());
    assert!(sm < sb, "MIG spread {sm:.2} degC must undercut BW spread {sb:.2} degC");
    // The TDP contract is not weakened by migrating.
    assert!(rm.max_dram_c < limits.dram_tdp_c + 0.5, "MIG inner die at {:.2}", rm.max_dram_c);
}

#[test]
fn scalar_policies_report_empty_spatial_actuation() {
    let mut spot = spot(StackKind::Fbdimm);
    let mut nolimit = NoLimit::new(spot.cpu_config());
    let r = spot.run(&mixes::w1(), &mut nolimit);
    assert!(r.completed);
    assert_eq!(r.channel_throttle_residency, vec![0.0, 0.0], "No-limit never throttles any channel");
    assert_eq!(r.migrated_traffic_bytes, 0.0);
    // A global cap counts as throttling every channel equally.
    let cpu = spot.cpu_config().clone();
    let mut bw = ThresholdPolicy::new(DtmScheme::Bw, &cpu, ThermalLimits::paper_fbdimm());
    let r = spot.run(&mixes::w1(), &mut bw);
    assert_eq!(r.channel_throttle_residency.len(), 2);
    assert!(r.channel_throttle_residency[0] > 0.0, "BW throttles (globally): {:?}", r.channel_throttle_residency);
    assert_eq!(
        r.channel_throttle_residency[0], r.channel_throttle_residency[1],
        "a global cap is symmetric across channels"
    );
}

#[test]
fn mig_steering_weights_stay_a_distribution_through_a_real_run() {
    // Seeded property test at the policy boundary: drive DTM-MIG with the
    // observations of a real heating scene (plus random power jitter) and
    // check every emitted plan carries normalized, non-negative weights on
    // both bufferless and stacked topologies.
    for kind in [StackKind::RankPair, StackKind::stacked4()] {
        let mem = FbdimmConfig::ddr2_667_paper();
        let cooling = CoolingConfig::aohs_1_5();
        let limits = ThermalLimits::paper_fbdimm();
        let mut scene = DimmThermalScene::with_topology(
            mem.logical_channels,
            mem.dimms_per_channel,
            cooling,
            limits,
            AmbientParams::isolated(&cooling),
            kind.topology(&cooling),
        );
        let mut mig = DtmMig::new(CpuConfig::paper_quad_core(), limits);
        let mut rng = SmallRng::seed_from_u64(0x317_0000 + kind.topology(&cooling).depth() as u64);
        let mut spatial_steps = 0u32;
        for step in 0..500 {
            let powers: Vec<FbdimmPowerBreakdown> = (0..scene.len())
                .map(|i| FbdimmPowerBreakdown {
                    amb_watts: (5.0 - 0.4 * (i % 4) as f64) * (0.8 + 0.4 * rng.next_f64()),
                    dram_watts: 2.0 * rng.next_f64(),
                })
                .collect();
            scene.step(&powers, 0.0, 1.0);
            let plan = mig.decide(&scene.observe(), 1.0);
            if plan.is_scalar() {
                // Before the field's spread first crosses the hysteresis
                // band, MIG leaves the natural distribution alone.
                continue;
            }
            spatial_steps += 1;
            assert_eq!(plan.steering.len(), scene.len(), "step {step}");
            let sum: f64 = plan.steering.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "step {step}: weights sum to {sum}");
            assert!(plan.steering.iter().all(|&w| (0.0..=1.0).contains(&w)), "step {step}");
        }
        assert!(spatial_steps > 100, "the heating scene must trigger migration: {spatial_steps} spatial steps");
    }
}
