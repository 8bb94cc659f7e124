//! End-to-end integration tests of the second-level thermal simulator and
//! the DTM schemes: the headline qualitative results of the paper must hold
//! on a reduced-size batch.

use dram_thermal::memtherm::dtm::policy::DtmPolicy;
use dram_thermal::prelude::*;

fn run(policy: &mut dyn DtmPolicy, cooling: CoolingConfig, integrated: bool) -> memtherm::sim::memspot::MemSpotResult {
    let mut cfg = MemSpotConfig::tiny(cooling);
    if integrated {
        cfg = cfg.with_integrated(None);
    }
    let mut spot = MemSpot::new(cfg);
    spot.run(&mixes::w1(), policy)
}

#[test]
fn every_dtm_scheme_respects_the_thermal_limit_that_no_limit_violates() {
    let cooling = CoolingConfig::aohs_1_5();
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();

    let mut baseline = memtherm::dtm::NoLimit::new(&cpu);
    let base = run(&mut baseline, cooling, false);
    assert!(base.max_amb_c > limits.amb_tdp_c, "the no-limit baseline must overheat ({:.1})", base.max_amb_c);

    let mut policies: Vec<Box<dyn DtmPolicy>> = vec![
        Box::new(DtmTs::new(cpu.clone(), limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits)),
        Box::new(ThresholdPolicy::with_pid(DtmScheme::Acg, &cpu, limits)),
        Box::new(ThresholdPolicy::with_pid(DtmScheme::Cdvfs, &cpu, limits)),
    ];
    for policy in policies.iter_mut() {
        let r = run(policy.as_mut(), cooling, false);
        assert!(r.completed, "{} did not finish the batch", r.policy);
        // One DTM interval of heating above the TDP is the worst admissible
        // overshoot (the paper observes the same for DTM-CDVFS without PID).
        assert!(r.max_amb_c < limits.amb_tdp_c + 0.6, "{} overshot to {:.2} degC", r.policy, r.max_amb_c);
        assert!(r.running_time_s >= base.running_time_s * 0.99, "{} cannot be faster than no-limit", r.policy);
    }
}

#[test]
fn the_proposed_schemes_beat_thermal_shutdown_on_w1() {
    let cooling = CoolingConfig::aohs_1_5();
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();

    let mut ts = DtmTs::new(cpu.clone(), limits);
    let mut acg = ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits);
    let rt = run(&mut ts, cooling, false);
    let ra = run(&mut acg, cooling, false);
    assert!(
        ra.running_time_s <= rt.running_time_s,
        "DTM-ACG ({:.0} s) must not lose to DTM-TS ({:.0} s)",
        ra.running_time_s,
        rt.running_time_s
    );
    // The ACG advantage comes with a memory-traffic reduction.
    assert!(ra.total_memory_bytes <= rt.total_memory_bytes * 1.02);
}

#[test]
fn cdvfs_gains_more_under_the_integrated_thermal_model() {
    // Section 4.5: with CPU->memory thermal interaction modelled, DTM-CDVFS
    // improves markedly because it cools the air the DIMMs breathe.
    let cooling = CoolingConfig::fdhs_1_0();
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();

    let mut bw_iso = ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits);
    let mut cdvfs_iso = ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits);
    let iso_ratio =
        run(&mut cdvfs_iso, cooling, false).running_time_s / run(&mut bw_iso, cooling, false).running_time_s;

    let mut bw_int = ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits);
    let mut cdvfs_int = ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits);
    let int_ratio = run(&mut cdvfs_int, cooling, true).running_time_s / run(&mut bw_int, cooling, true).running_time_s;

    assert!(
        int_ratio <= iso_ratio + 0.02,
        "CDVFS/BW ratio should improve (or at least not degrade) under the integrated model: isolated {iso_ratio:.3}, integrated {int_ratio:.3}"
    );
}

#[test]
fn processor_energy_ordering_matches_figure_4_10() {
    // Paper: processor energy increases in the order CDVFS, ACG, TS, BW.
    let cooling = CoolingConfig::aohs_1_5();
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();

    let mut cdvfs = ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits);
    let mut acg = ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits);
    let mut bw = ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits);

    let e_cdvfs = run(&mut cdvfs, cooling, false).cpu_energy_j;
    let e_acg = run(&mut acg, cooling, false).cpu_energy_j;
    let e_bw = run(&mut bw, cooling, false).cpu_energy_j;

    assert!(e_cdvfs < e_bw, "CDVFS ({e_cdvfs:.0} J) must use less processor energy than BW ({e_bw:.0} J)");
    assert!(e_acg < e_bw, "ACG ({e_acg:.0} J) must use less processor energy than BW ({e_bw:.0} J)");
}
