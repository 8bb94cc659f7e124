//! The formal-control study (Section 4.2.3): how much does the PID
//! controller improve a DTM scheme over plain threshold stepping?
//!
//! Runs DTM-ACG with and without the PID controller on W1 and prints the
//! temperature statistics that explain the gain: the PID variant keeps the
//! AMB closer to (but never over) the thermal limit, so the machine spends
//! more time at high running levels.
//!
//! Run with: `cargo run --release --example pid_vs_threshold`

use dram_thermal::memtherm::dtm::policy::DtmPolicy;
use dram_thermal::prelude::*;

fn trace_stats(samples: &[memtherm::sim::memspot::TempSample]) -> (f64, f64) {
    let hot: Vec<f64> = samples.iter().skip(100).map(|s| s.amb_c).collect();
    if hot.is_empty() {
        return (0.0, 0.0);
    }
    let mean = hot.iter().sum::<f64>() / hot.len() as f64;
    let max = hot.iter().cloned().fold(f64::MIN, f64::max);
    (mean, max)
}

fn main() {
    let cooling = CoolingConfig::aohs_1_5();
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();

    let mut cfg = MemSpotConfig::tiny(cooling);
    cfg.record_temp_trace = true;
    let mut spot = MemSpot::new(cfg);

    let mut variants: Vec<Box<dyn DtmPolicy>> = vec![
        Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits)),
        Box::new(ThresholdPolicy::with_pid(DtmScheme::Acg, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits)),
        Box::new(ThresholdPolicy::with_pid(DtmScheme::Cdvfs, &cpu, limits)),
    ];

    println!("W1 under {}, AMB limit {:.0} degC (PID target 109.8 degC):\n", cooling.label(), limits.amb_tdp_c);
    println!("{:<16} {:>10} {:>16} {:>12}", "policy", "time s", "steady AMB degC", "max AMB degC");
    for policy in variants.iter_mut() {
        let r = spot.run(&mixes::w1(), policy.as_mut());
        let (mean_amb, max_amb) = trace_stats(&r.temp_trace);
        println!("{:<16} {:>10.1} {:>16.2} {:>12.2}", r.policy, r.running_time_s, mean_amb, max_amb);
    }
    println!("\nThe PID variants hold a higher average temperature without crossing the limit,");
    println!("which is exactly the mechanism the paper credits for their performance gain.");
}
