//! Compare every DTM scheme of the paper on one workload mix: running time,
//! peak temperature, traffic and energy — the quantities behind Figures
//! 4.3, 4.4, 4.9 and 4.10.
//!
//! Run with: `cargo run --release --example dtm_comparison [W1..W8]`

use dram_thermal::memtherm::dtm::policy::DtmPolicy;
use dram_thermal::prelude::*;

fn main() {
    let mix_id = std::env::args().nth(1).unwrap_or_else(|| "W1".to_string());
    let mix = mixes::by_id(&mix_id).unwrap_or_else(|| {
        eprintln!("unknown mix {mix_id}, falling back to W1");
        mixes::w1()
    });

    let cooling = CoolingConfig::aohs_1_5();
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();
    let mut spot = MemSpot::new(MemSpotConfig::tiny(cooling));

    let mut policies: Vec<Box<dyn DtmPolicy>> = vec![
        Box::new(memtherm::dtm::NoLimit::new(&cpu)),
        Box::new(DtmTs::new(cpu.clone(), limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Bw, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, limits)),
        Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits)),
        Box::new(ThresholdPolicy::with_pid(DtmScheme::Acg, &cpu, limits)),
        Box::new(ThresholdPolicy::with_pid(DtmScheme::Cdvfs, &cpu, limits)),
    ];

    println!("workload {} under {} ({} copies/app, scaled)", mix.id, cooling.label(), spot.config().copies_per_app);
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "policy", "time s", "max AMB", "traffic GB", "mem E (kJ)", "cpu E (kJ)"
    );

    let mut baseline_time = None;
    for policy in policies.iter_mut() {
        let r = spot.run(&mix, policy.as_mut());
        let base = *baseline_time.get_or_insert(r.running_time_s);
        println!(
            "{:<16} {:>10.1} {:>10.1} {:>12.1} {:>12.2} {:>12.2}   (normalized time {:.2})",
            r.policy,
            r.running_time_s,
            r.max_amb_c,
            r.total_memory_bytes / 1e9,
            r.memory_energy_j / 1e3,
            r.cpu_energy_j / 1e3,
            r.running_time_s / base,
        );
    }
}
