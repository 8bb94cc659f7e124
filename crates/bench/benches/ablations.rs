//! Ablation benches for the design choices called out in DESIGN.md:
//! PID gains, thermal time constants, the core model's memory-level
//! parallelism and the DTM interval.
//!
//! Run with: `cargo bench -p experiments --bench ablations`

use experiments::harness::bench_case;
use memtherm::dtm::selector::LevelSelector;
use memtherm::prelude::*;
use memtherm::thermal::scene::ThermalObservation;

fn main() {
    for kc in [5.0, 10.4, 20.0] {
        bench_case(&format!("ablation_pid_gains/kc_{kc}"), 5, || {
            let amb = PidController::new(kc, 180.24, 0.001, 109.8, 109.0);
            let dram = PidController::paper_dram();
            let mut selector = LevelSelector::pid_with(ThermalLimits::paper_fbdimm(), amb, dram);
            // Closed loop against a first-order plant.
            let mut temp: f64 = 100.0;
            let stable = [116.0, 112.0, 109.5, 106.0, 101.0];
            for _ in 0..50_000 {
                let level = selector.select(temp, 70.0, 0.01);
                temp += (stable[level.index()] - temp) * (1.0 - (-0.01f64 / 50.0).exp());
            }
            temp
        });
    }

    for tau in [25.0, 50.0, 100.0] {
        bench_case(&format!("ablation_tau/tau_{tau}"), 5, || {
            let mut node = ThermalNode::new(50.0, tau);
            let mut over = 0u32;
            for i in 0..100_000 {
                let power_on = (i / 5_000) % 2 == 0;
                let stable = if power_on { 115.0 } else { 100.0 };
                if node.step(stable, 0.01) > 110.0 {
                    over += 1;
                }
            }
            over
        });
    }

    for mlp in [2usize, 8, 16] {
        bench_case(&format!("ablation_mlp/mlp_{mlp}"), 3, || {
            let mut cpu = CpuConfig::paper_quad_core();
            cpu.max_mlp = mlp;
            let mut table =
                CharacterizationTable::new(cpu.clone(), FbdimmConfig::ddr2_667_paper(), mixes::w1().apps, 10_000);
            table.point(&RunningMode::full_speed(&cpu)).total_gbps()
        });
    }

    for interval_ms in [1.0, 10.0, 100.0] {
        bench_case(&format!("ablation_dtm_interval/{interval_ms}ms"), 3, || {
            let mut cfg = MemSpotConfig {
                copies_per_app: 1,
                instruction_scale: 0.2,
                characterization_budget: 8_000,
                ..MemSpotConfig::paper(CoolingConfig::aohs_1_5())
            };
            cfg.dtm_interval_s = interval_ms / 1000.0;
            let mut spot = MemSpot::new(cfg);
            let mut policy =
                ThresholdPolicy::new(DtmScheme::Acg, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
            spot.run(&mixes::w1(), &mut policy).running_time_s
        });
    }

    // Raw policy decision rate on a fixed observation (the hot path of the
    // engine's DTM interval handling).
    bench_case("ablation_policy_decide/acg_1m_decisions", 5, || {
        let mut policy =
            ThresholdPolicy::new(DtmScheme::Acg, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
        let obs = ThermalObservation::from_hottest(109.2, 80.0);
        let mut cores = 0usize;
        for _ in 0..1_000_000 {
            cores = memtherm::dtm::policy::DtmPolicy::decide(&mut policy, &obs, 0.01).mode.active_cores;
        }
        cores
    });
}
