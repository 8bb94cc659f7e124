//! Quickstart: model an FBDIMM's temperature under load and let a DTM
//! policy manage it.
//!
//! Run with: `cargo run --release --example quickstart`

use dram_thermal::prelude::*;

fn main() {
    // 1. The paper's power models (Eq. 3.1 / 3.2): how much heat does a busy
    //    DIMM generate?
    let power = FbdimmPowerModel::paper_defaults();
    let amb_watts = power.amb.power_watts(3.0, 1.2, false); // 3 GB/s bypass + 1.2 GB/s local
    let dram_watts = power.dram.power_watts(0.8, 0.4); // 0.8 GB/s reads + 0.4 GB/s writes
    println!("busy DIMM power: AMB {amb_watts:.2} W, DRAM {dram_watts:.2} W");

    // 2. The isolated thermal model (Eqs. 3.3-3.5): how hot does it get?
    let mut thermal = IsolatedThermalModel::new(CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
    for second in 0..300 {
        thermal.step(amb_watts, dram_watts, 1.0);
        if second % 60 == 0 {
            println!("t = {second:>3} s  AMB {:.1} degC  DRAM {:.1} degC", thermal.amb_temp_c(), thermal.dram_temp_c());
        }
    }
    println!(
        "steady state would be {:.1} degC AMB — {} the 110 degC limit",
        thermal.stable_amb_c(amb_watts, dram_watts),
        if thermal.stable_amb_c(amb_watts, dram_watts) > 110.0 { "ABOVE" } else { "below" }
    );

    // 3. The two-level simulator with a DTM policy: run the W1 workload mix
    //    (swim, mgrid, applu, galgel) under adaptive core gating.
    let mut spot = MemSpot::new(MemSpotConfig::tiny(CoolingConfig::aohs_1_5()));
    let mut policy = ThresholdPolicy::new(DtmScheme::Acg, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
    let result = spot.run(&mixes::w1(), &mut policy);
    println!(
        "\nW1 under {}: {:.0} s batch time, max AMB {:.1} degC, memory energy {:.0} J, CPU energy {:.0} J",
        result.policy, result.running_time_s, result.max_amb_c, result.memory_energy_j, result.cpu_energy_j
    );
    for (mode, share) in &result.mode_residency {
        println!("  {:>5.1} % of time at {mode}", share * 100.0);
    }
}
