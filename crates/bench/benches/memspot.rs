//! End-to-end benchmarks of the second-level (MEMSpot) simulator: one full
//! batch simulation per DTM scheme at smoke scale. Results are also written
//! to `BENCH_memspot.json` (same schema as `BENCH_sweep.json`, its own file
//! so `cargo bench -p experiments` running both targets never clobbers the
//! sweep dataset) so perf can be tracked across PRs.
//!
//! Run with: `cargo bench -p experiments --bench memspot`

use experiments::harness::{bench_case, bench_output_path, write_bench_json};
use memtherm::prelude::*;

fn config() -> MemSpotConfig {
    MemSpotConfig {
        copies_per_app: 1,
        instruction_scale: 0.3,
        characterization_budget: 10_000,
        ..MemSpotConfig::paper(CoolingConfig::aohs_1_5())
    }
}

fn main() {
    let cpu = CpuConfig::paper_quad_core();
    let limits = ThermalLimits::paper_fbdimm();
    let mut stats = Vec::new();

    let mut spot = MemSpot::new(config());
    stats.push(bench_case("memspot_w1/no_limit", 5, || {
        let mut p = memtherm::dtm::NoLimit::new(&cpu);
        spot.run(&mixes::w1(), &mut p).running_time_s
    }));

    let mut spot = MemSpot::new(config());
    stats.push(bench_case("memspot_w1/dtm_ts", 5, || {
        let mut p = DtmTs::new(cpu.clone(), limits);
        spot.run(&mixes::w1(), &mut p).running_time_s
    }));

    let mut spot = MemSpot::new(config());
    stats.push(bench_case("memspot_w1/dtm_acg_pid", 5, || {
        let mut p = ThresholdPolicy::with_pid(DtmScheme::Acg, &cpu, limits);
        spot.run(&mixes::w1(), &mut p).running_time_s
    }));

    let mut spot = MemSpot::new(config().with_integrated(None));
    stats.push(bench_case("memspot_w1/dtm_cdvfs_integrated", 5, || {
        let mut p = ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, limits);
        spot.run(&mixes::w1(), &mut p).running_time_s
    }));

    let path = bench_output_path("BENCH_memspot.json");
    write_bench_json(&path, &stats, &[]).expect("write BENCH_memspot.json");
    println!("wrote {}", path.display());
}
