//! Pre-refactor golden digests of the sweep grid.
//!
//! These digests were produced by the sweep stack *before* the
//! scale-out refactor (a split level-1 store and disk cache, since folded
//! back into one map and one file; column-split decision pass,
//! deficit-aware scheduler) and pin the
//! bit-exact results of a Smoke-scale grid across every execution variant:
//! a fresh `MemSpot::run` per cell (a one-cell batch), and the runner's literal
//! batched chunks, each on several worker counts. (The batched engine's
//! lane-parallel stepping is pinned against its single-thread stepping by
//! `tests/batched_engine.rs`.) Any refactor of the store, the scheduler or
//! the batched engine must keep every variant's digest identical to these
//! constants — a single changed bit in any `f64` of any cell's result flips
//! the digest.
//!
//! The digest folds the `Debug` rendering of each cell's labels and full
//! [`MemSpotResult`] through FNV-1a. Rust's `Debug` for `f64` emits the
//! shortest round-trip decimal form, so two results digest equally iff they
//! are bit-identical (modulo NaN payloads, which the simulator never
//! distinguishes).

use std::sync::Arc;

use experiments::ch4::{MatrixRun, PolicySpec};
use experiments::harness::Scale;
use experiments::sweep::{parallel_map, SweepRunner, SweepScenario};
use memtherm::prelude::*;

/// Digest of the grid under literal (no fast-forward) execution — identical
/// for a loop of `MemSpot::run`s and every batched configuration.
const GOLDEN_LITERAL: u64 = 0x074b_3d8e_3c14_cded;

fn grid() -> Vec<SweepScenario> {
    let specs = vec![PolicySpec::NoLimit, PolicySpec::Ts];
    vec![
        SweepScenario::isolated(CoolingConfig::aohs_1_5(), workloads::mixes::w1(), specs.clone()),
        SweepScenario::isolated(CoolingConfig::fdhs_1_0(), workloads::mixes::w1(), specs.clone()),
        SweepScenario::isolated(CoolingConfig::aohs_1_5(), workloads::mixes::w6(), specs.clone()),
        SweepScenario::stacked(CoolingConfig::aohs_1_5(), StackKind::stacked4(), workloads::mixes::w1(), specs),
    ]
}

fn digest(runs: &[MatrixRun]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for run in runs {
        for byte in format!("{}\u{1f}{}\u{1f}{}\u{1f}{:?}\n", run.cooling, run.workload, run.policy, run.result).bytes()
        {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The grid cell by cell on `threads` workers: a fresh `MemSpot` per cell
/// over one shared store, in grid order.
fn per_cell(threads: usize) -> Vec<MatrixRun> {
    let cpu = CpuConfig::paper_quad_core();
    let store = Arc::new(CharStore::new());
    let scenarios = grid();
    let cells: Vec<(&SweepScenario, &PolicySpec)> =
        scenarios.iter().flat_map(|s| s.specs.iter().map(move |spec| (s, spec))).collect();
    parallel_map(threads, &cells, |(scenario, spec)| {
        let cfg = Scale::Smoke.memspot_config(scenario.cooling).with_stack(scenario.stack);
        let mut spot = MemSpot::with_store(cpu.clone(), FbdimmConfig::ddr2_667_paper(), cfg, Arc::clone(&store));
        let mut policy = spec.build(&cpu, cfg.limits);
        let result = spot.run(&scenario.mix, policy.as_mut());
        MatrixRun {
            cooling: scenario.cooling.label(),
            workload: scenario.mix.id.clone(),
            policy: policy.name(),
            result,
        }
    })
}

#[test]
fn every_execution_variant_reproduces_the_pre_refactor_literal_digest() {
    let make = |cooling: CoolingConfig| Scale::Smoke.memspot_config(cooling);
    let batched = |threads: usize| {
        SweepRunner::with_threads(threads).with_batch_options(BatchOptions::literal()).run(&grid(), make).runs
    };
    let variants: Vec<(&str, Vec<MatrixRun>)> = vec![
        ("per-cell 1 thread", per_cell(1)),
        ("per-cell 4 threads", per_cell(4)),
        ("batched 1 thread", batched(1)),
        ("batched 3 threads", batched(3)),
        ("batched 4 threads", batched(4)),
    ];
    for (label, runs) in variants {
        let got = digest(&runs);
        assert_eq!(
            got, GOLDEN_LITERAL,
            "{label}: digest {got:#018x} diverged from the pre-refactor golden {GOLDEN_LITERAL:#018x}"
        );
    }
}
