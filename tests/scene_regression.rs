//! Regression contract of the channel-resolved thermal scene: the refactor
//! must not change what the legacy hottest-DIMM pipeline computed, while
//! adding the per-position resolution the legacy path threw away.

use dram_thermal::fbdimm::{DimmTraffic, FbdimmConfig, TrafficWindow};
use dram_thermal::prelude::*;

/// A traffic pattern whose hottest DIMM is the *last* of channel 0 — all
/// local traffic concentrated there, so bypass load on the closer DIMMs is
/// what the AMB model sees. Exercises the `is_last` AMB coefficient and a
/// hottest position that is not the default dimm 0.
fn last_dimm_hottest_window(mem: &FbdimmConfig) -> TrafficWindow {
    let last = mem.dimms_per_channel - 1;
    let dimms: Vec<DimmTraffic> = (0..mem.logical_channels)
        .flat_map(|c| (0..mem.dimms_per_channel).map(move |d| (c, d)))
        .map(|(channel, dimm)| {
            if channel == 0 && dimm == last {
                // The target DIMM serves everything locally.
                DimmTraffic { channel, dimm, local_gbps: 4.0, bypass_gbps: 0.0, read_fraction: 0.7 }
            } else if channel == 0 {
                // DIMMs in front of it forward the traffic.
                DimmTraffic { channel, dimm, local_gbps: 0.0, bypass_gbps: 4.0, read_fraction: 0.0 }
            } else {
                DimmTraffic { channel, dimm, local_gbps: 0.2, bypass_gbps: 0.1, read_fraction: 0.6 }
            }
        })
        .collect();
    TrafficWindow { dimms, ..TrafficWindow::default() }
}

#[test]
fn scene_power_sums_to_subsystem_power_for_last_dimm_traffic() {
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let window = last_dimm_hottest_window(&mem);
    let per_position = power.scene_power(&window, mem.dimms_per_channel);
    assert_eq!(per_position.len(), mem.dimm_positions());
    let sum: f64 = per_position.iter().map(|p| p.total_watts()).sum();
    let subsystem = power.subsystem_power_watts(&window, mem.dimms_per_channel, mem.phys_per_logical);
    assert!((sum * mem.phys_per_logical as f64 - subsystem).abs() < 1e-9);
}

#[test]
fn scene_hottest_position_matches_legacy_hottest_dimm_power() {
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let window = last_dimm_hottest_window(&mem);

    let legacy = power.hottest_dimm_power(&window, mem.dimms_per_channel);
    let per_position = power.scene_power(&window, mem.dimms_per_channel);
    let (hottest_idx, hottest) = per_position
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_watts().partial_cmp(&b.total_watts()).unwrap())
        .unwrap();
    assert!((hottest.total_watts() - legacy.total_watts()).abs() < 1e-12);
    // The arg-max finds the *last* DIMM of channel 0 — something the legacy
    // "dimm 0 is hottest" intuition would get wrong for this pattern.
    let d = &window.dimms[hottest_idx];
    assert_eq!((d.channel, d.dimm), (0, mem.dimms_per_channel - 1));
}

#[test]
fn scene_trajectory_tracks_legacy_single_model_within_a_tenth_of_a_degree() {
    let mem = FbdimmConfig::ddr2_667_paper();
    let cooling = CoolingConfig::aohs_1_5();
    let limits = ThermalLimits::paper_fbdimm();
    let power = FbdimmPowerModel::paper_defaults();
    let window = last_dimm_hottest_window(&mem);

    // Legacy path: feed the hottest DIMM's power into one AMB/DRAM pair.
    let hottest = power.hottest_dimm_power(&window, mem.dimms_per_channel);
    let mut legacy = IsolatedThermalModel::new(cooling, limits);

    // Scene path: every position integrates its own power; the hottest is
    // derived by arg-max at observation time.
    let mut scene = DimmThermalScene::isolated(&mem, cooling, limits);
    let powers = power.scene_power(&window, mem.dimms_per_channel);

    for step in 0..2_000 {
        legacy.step(hottest.amb_watts, hottest.dram_watts, 0.5);
        scene.step(&powers, 0.0, 0.5);
        let obs = scene.observe();
        assert!(
            (obs.max_amb_c - legacy.amb_temp_c()).abs() < 0.1,
            "AMB diverged at step {step}: scene {:.3} vs legacy {:.3}",
            obs.max_amb_c,
            legacy.amb_temp_c()
        );
        assert!(
            (obs.max_dram_c - legacy.dram_temp_c()).abs() < 0.1,
            "DRAM diverged at step {step}: scene {:.3} vs legacy {:.3}",
            obs.max_dram_c,
            legacy.dram_temp_c()
        );
    }
    // And the derived hottest is the last DIMM of channel 0.
    assert_eq!(scene.observe().hottest_amb, Some((0, mem.dimms_per_channel - 1)));
}

#[test]
fn integrated_scene_tracks_legacy_integrated_model() {
    let mem = FbdimmConfig::ddr2_667_paper();
    let cooling = CoolingConfig::fdhs_1_0();
    let limits = ThermalLimits::paper_fbdimm();
    let power = FbdimmPowerModel::paper_defaults();
    let window = last_dimm_hottest_window(&mem);

    let hottest = power.hottest_dimm_power(&window, mem.dimms_per_channel);
    let mut legacy = IntegratedThermalModel::new(cooling, limits);
    let mut scene = DimmThermalScene::integrated(&mem, cooling, limits);
    let powers = power.scene_power(&window, mem.dimms_per_channel);

    for _ in 0..1_000 {
        legacy.step(hottest.amb_watts, hottest.dram_watts, 5.0, 1.0);
        scene.step(&powers, 5.0, 1.0);
        let obs = scene.observe();
        assert!((obs.max_amb_c - legacy.amb_temp_c()).abs() < 0.1);
        assert!((obs.max_dram_c - legacy.dram_temp_c()).abs() < 0.1);
        assert!((scene.ambient_c() - legacy.ambient_c()).abs() < 0.01, "shared ambient must match");
    }
}

#[test]
fn memspot_results_carry_the_resolved_field_end_to_end() {
    // Full pipeline: a MEMSpot run's field maxima equal its reported maxima
    // and every non-hottest position stays at or below them.
    let mut spot = MemSpot::new(MemSpotConfig::tiny(CoolingConfig::aohs_1_5()));
    let mut policy = ThresholdPolicy::new(DtmScheme::Bw, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
    let r = spot.run(&mixes::w1(), &mut policy);
    assert_eq!(r.position_peaks.len(), 8);
    for p in &r.position_peaks {
        assert!(p.max_amb_c <= r.max_amb_c + 1e-9);
        assert!(p.max_dram_c <= r.max_dram_c + 1e-9);
    }
    let hottest = r.hottest_position().unwrap();
    assert!((hottest.max_amb_c - r.max_amb_c).abs() < 1e-9);
}
