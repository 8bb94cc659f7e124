//! Golden digests of the envelope tier: default-options results of the
//! batched engine, bit for bit.
//!
//! `tests/envelope_ff.rs` holds the envelope within relative 1e-9 of
//! literal stepping; this suite pins its exact bits and its execution path.
//! Each digest folds, per cell, the cell's label, the `Debug` rendering of
//! its full [`MemSpotResult`] and every [`CellRunStats`] field that takes
//! part in `==` (window counts, envelope cycles, replay runs, burst-stepped
//! windows, fallbacks; not the wall-clock counters) through FNV-1a, as
//! `tests/sweep_golden.rs` does. Rust's `Debug` for `f64` is the shortest
//! round-trip form, so two runs digest equally iff they are bit-identical
//! and took the same path.
//!
//! The constants were recorded before the envelope burst was split into
//! named stages. A refactor of the burst keeps them; a change that means
//! to move envelope bits re-records them and says so in `CHANGES.md`.

use std::sync::Arc;

use dram_thermal::memtherm::dtm::{DtmTs, NoLimit};
use dram_thermal::prelude::*;
use experiments::ch4::PolicySpec;
use experiments::harness::Scale;

fn digest(runs: &[(String, MemSpotResult, CellRunStats)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (label, result, s) in runs {
        let line = format!(
            "{label}\u{1f}{result:?}\u{1f}{} {} {} {} {} {} {}\n",
            s.stepped_windows,
            s.fast_forwarded_windows,
            s.envelope_cycles,
            s.replayed_windows,
            s.replay_runs,
            s.burst_stepped_windows,
            s.envelope_fallbacks
        );
        for byte in line.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Runs `cells` (label, config, mix, policy) as one default-options batch.
fn run(
    cells: Vec<(String, MemSpotConfig, WorkloadMix, Box<dyn DtmPolicy>)>,
) -> Vec<(String, MemSpotResult, CellRunStats)> {
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let mut labels = Vec::new();
    let mut batch = Vec::new();
    for (label, cfg, mix, policy) in cells {
        labels.push(label);
        batch.push(BatchCell::new(&cpu, &mem, cfg, mix, policy, Arc::clone(&store)));
    }
    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let results = engine.run(batch, &BatchOptions::default());
    labels.into_iter().zip(results).map(|(label, (result, stats))| (label, result, stats)).collect()
}

fn assert_digest(name: &str, runs: &[(String, MemSpotResult, CellRunStats)], golden: u64) {
    let got = digest(runs);
    assert_eq!(got, golden, "{name}: digest {got:#018x} diverged from the recorded golden {golden:#018x}");
}

const GOLDEN_FIG4_3_SMOKE: u64 = 0xe918_b9af_473e_0287;
const GOLDEN_TS_RELAY: u64 = 0xb70b_97f3_df37_a0c1;
const GOLDEN_STACKED4: u64 = 0x2e60_c446_ab35_48c6;
const GOLDEN_PID_REPLAY: u64 = 0x4646_2c4a_a53e_c62d;
const GOLDEN_FALLBACK: u64 = 0x7c16_4906_2eba_d47b;

#[test]
fn fig4_3_smoke_grid_keeps_its_envelope_bits() {
    // Figure 4.3 at Smoke scale: No-limit plus all seven policies (the
    // threshold schemes with and without PID, DTM-TS) on the Smoke mixes
    // under both coolings, at the paper's 10 ms cadence.
    let cpu = CpuConfig::paper_quad_core();
    let mut cells = Vec::new();
    for cooling in [CoolingConfig::fdhs_1_0(), CoolingConfig::aohs_1_5()] {
        let cfg = Scale::Smoke.memspot_config(cooling);
        for mix in Scale::Smoke.ch4_mixes() {
            let mut specs = vec![PolicySpec::NoLimit];
            specs.extend(PolicySpec::figure_4_3_set());
            for spec in specs {
                let policy = spec.build(&cpu, cfg.limits);
                cells.push((format!("{}/{}/{}", cooling.label(), mix.id, policy.name()), cfg, mix.clone(), policy));
            }
        }
    }
    let runs = run(cells);
    assert!(runs.iter().any(|(_, _, s)| s.envelope_cycles > 0), "no cell of the grid engaged the envelope");
    assert_digest("fig4_3 smoke grid", &runs, GOLDEN_FIG4_3_SMOKE);
}

#[test]
fn ts_relay_at_paper_cadence_keeps_its_envelope_bits() {
    // Figure 4.2's AOHS_1.5 DTM-TS cell at an AMB release point of 106 °C:
    // the shutdown relay rides the envelope through frozen-phase jumps.
    let cpu = CpuConfig::paper_quad_core();
    let cfg = Scale::Smoke.memspot_config(CoolingConfig::aohs_1_5());
    let limits = cfg.limits.with_amb_trp(106.0);
    let policy: Box<dyn DtmPolicy> = Box::new(DtmTs::new(cpu.clone(), limits));
    let runs = run(vec![("DTM-TS TRP 106".to_string(), cfg, mixes::w1(), policy)]);
    assert!(runs[0].2.envelope_cycles > 0, "the relay never engaged the envelope");
    assert_digest("DTM-TS relay", &runs, GOLDEN_TS_RELAY);
}

#[test]
fn stacked4_cells_keep_their_envelope_bits() {
    // A 4-high 3D stack (five layers per position, non-identity power
    // split) under a threshold ladder and No-limit.
    let cpu = CpuConfig::paper_quad_core();
    let cfg = Scale::Smoke.memspot_config(CoolingConfig::aohs_1_5()).with_stack(StackKind::stacked4());
    let policies: Vec<(&str, Box<dyn DtmPolicy>)> = vec![
        ("No-limit", Box::new(NoLimit::new(&cpu))),
        ("DTM-ACG", Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, cfg.limits))),
    ];
    let runs = run(policies.into_iter().map(|(label, p)| (label.to_string(), cfg, mixes::w1(), p)).collect());
    assert!(runs.iter().any(|(_, _, s)| s.envelope_cycles > 0), "no stacked cell engaged the envelope");
    assert_digest("stacked4", &runs, GOLDEN_STACKED4);
}

#[test]
fn a_replaying_pid_cell_keeps_its_envelope_bits() {
    // PID-driven schemes under AOHS_1.5 at 10 ms: DTM-CDVFS+PID on W5
    // replays its decisions (replay_runs > 0) and re-primes the controller
    // after every replayed segment; DTM-BW+PID on W3 takes frozen jumps
    // that keep the literal RC sweep (the controller integrates).
    let cpu = CpuConfig::paper_quad_core();
    let cfg = Scale::Smoke.memspot_config(CoolingConfig::aohs_1_5());
    let cells = [(mixes::w5(), DtmScheme::Cdvfs), (mixes::w3(), DtmScheme::Bw)]
        .into_iter()
        .map(|(mix, scheme)| {
            let policy: Box<dyn DtmPolicy> = Box::new(ThresholdPolicy::with_pid(scheme, &cpu, cfg.limits));
            (format!("{}/{}", mix.id, policy.name()), cfg, mix, policy)
        })
        .collect();
    let runs = run(cells);
    assert!(runs[0].2.replay_runs > 0, "the PID cell never replayed: {:?}", runs[0].2);
    assert_digest("PID cells", &runs, GOLDEN_PID_REPLAY);
}

#[test]
fn a_falling_back_cell_keeps_its_envelope_bits() {
    // The drifting DTM-ACG and refuted DTM-BW cells of
    // `tests/envelope_ff.rs`: an 85 °C inlet drives the orbit out of its
    // certified band (DTM-BW's during a decision replay), and the burst
    // hands the cell back to the lane (envelope_fallbacks > 0).
    let cpu = CpuConfig::paper_quad_core();
    let mut cfg = MemSpotConfig {
        copies_per_app: 8,
        instruction_scale: 1.0,
        characterization_budget: 10_000,
        max_sim_time_s: 2_000.0,
        ..MemSpotConfig::paper(CoolingConfig::fdhs_1_0())
    };
    cfg.ambient_override_c = Some(85.0);
    let cells = [DtmScheme::Acg, DtmScheme::Bw]
        .into_iter()
        .map(|scheme| {
            let policy: Box<dyn DtmPolicy> = Box::new(ThresholdPolicy::new(scheme, &cpu, cfg.limits));
            (policy.name(), cfg, mixes::w6(), policy)
        })
        .collect();
    let runs = run(cells);
    for (label, _, stats) in &runs {
        assert!(stats.envelope_fallbacks > 0, "{label} never fell back: {stats:?}");
    }
    assert_digest("fallback", &runs, GOLDEN_FALLBACK);
}
