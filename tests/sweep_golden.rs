//! Pre-refactor golden digests of the sweep grid.
//!
//! These digests were produced by the sweep stack *before* the
//! scale-out refactor (a split level-1 store and disk cache, since folded
//! back into one map and one file; column-split decision pass,
//! deficit-aware scheduler) and pin the
//! bit-exact results of a Smoke-scale grid across every execution variant:
//! {per-cell vs batched-literal} × {worker counts} × {chunked vs
//! lane-parallel dispatch}. Any refactor of the store, the scheduler or the
//! batched engine must keep every variant's digest identical to these
//! constants — a single changed bit in any `f64` of any cell's result flips
//! the digest.
//!
//! The digest folds the `Debug` rendering of each cell's labels and full
//! [`MemSpotResult`] through FNV-1a. Rust's `Debug` for `f64` emits the
//! shortest round-trip decimal form, so two results digest equally iff they
//! are bit-identical (modulo NaN payloads, which the simulator never
//! distinguishes).

use experiments::ch4::PolicySpec;
use experiments::harness::Scale;
use experiments::sweep::{SweepExecution, SweepRunner, SweepScenario};
use memtherm::prelude::*;

/// Digest of the grid under literal (no fast-forward) execution — identical
/// for the per-cell engine and every batched/lane-parallel configuration.
const GOLDEN_LITERAL: u64 = 0x074b_3d8e_3c14_cded;

/// Digest of the grid under exact fast-forwarded execution (steady-state
/// fast-forward enabled, envelope fast-forward disabled) — identical for
/// every worker count, and equal to [`GOLDEN_LITERAL`] on this grid. The
/// envelope tier is excluded here: it guarantees relative 1e-9 agreement,
/// not bit-identity, so its results cannot be pinned by digest
/// (`tests/envelope_ff.rs` owns its bound).
const GOLDEN_FAST_FORWARD: u64 = 0x074b_3d8e_3c14_cded;

/// Default options minus the envelope tier: only the steady-state
/// fast-forward stays enabled.
fn exact_fast_forward() -> BatchOptions {
    BatchOptions { envelope_tolerance: 0.0, ..BatchOptions::default() }
}

fn grid() -> Vec<SweepScenario> {
    let specs = vec![PolicySpec::NoLimit, PolicySpec::Ts];
    vec![
        SweepScenario::isolated(CoolingConfig::aohs_1_5(), workloads::mixes::w1(), specs.clone()),
        SweepScenario::isolated(CoolingConfig::fdhs_1_0(), workloads::mixes::w1(), specs.clone()),
        SweepScenario::isolated(CoolingConfig::aohs_1_5(), workloads::mixes::w6(), specs.clone()),
        SweepScenario::stacked(CoolingConfig::aohs_1_5(), StackKind::stacked4(), workloads::mixes::w1(), specs),
    ]
}

fn digest(runs: &[experiments::ch4::MatrixRun]) -> u64 {
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

#[test]
fn every_execution_variant_reproduces_the_pre_refactor_literal_digest() {
    let make = |cooling: CoolingConfig| Scale::Smoke.memspot_config(cooling);
    let variants: Vec<(&str, SweepRunner)> = vec![
        ("per-cell 1 thread", SweepRunner::with_threads(1).with_execution(SweepExecution::PerCell)),
        ("per-cell 4 threads", SweepRunner::with_threads(4).with_execution(SweepExecution::PerCell)),
        ("batched 1 thread", SweepRunner::with_threads(1).with_batch_options(BatchOptions::literal())),
        ("batched 3 threads", SweepRunner::with_threads(3).with_batch_options(BatchOptions::literal())),
        (
            "lane-parallel 2 workers",
            SweepRunner::with_threads(1)
                .with_execution(SweepExecution::lane_parallel(2))
                .with_batch_options(BatchOptions::literal()),
        ),
        (
            "lane-parallel 4 workers",
            SweepRunner::with_threads(1)
                .with_execution(SweepExecution::lane_parallel(4))
                .with_batch_options(BatchOptions::literal()),
        ),
    ];
    for (label, runner) in variants {
        let outcome = runner.run(&grid(), make);
        let got = digest(&outcome.runs);
        assert_eq!(
            got, GOLDEN_LITERAL,
            "{label}: digest {got:#018x} diverged from the pre-refactor golden {GOLDEN_LITERAL:#018x}"
        );
    }
}

#[test]
fn fast_forwarded_execution_reproduces_the_pre_refactor_digest_for_any_worker_count() {
    let make = |cooling: CoolingConfig| Scale::Smoke.memspot_config(cooling);
    let variants: Vec<(&str, SweepRunner)> = vec![
        ("batched+FF 1 thread", SweepRunner::with_threads(1).with_batch_options(exact_fast_forward())),
        ("batched+FF 4 threads", SweepRunner::with_threads(4).with_batch_options(exact_fast_forward())),
        (
            "batched+FF lane-parallel 4",
            SweepRunner::with_threads(1)
                .with_execution(SweepExecution::lane_parallel(4))
                .with_batch_options(exact_fast_forward()),
        ),
    ];
    for (label, runner) in variants {
        let outcome = runner.run(&grid(), make);
        let got = digest(&outcome.runs);
        assert_eq!(
            got, GOLDEN_FAST_FORWARD,
            "{label}: digest {got:#018x} diverged from the pre-refactor golden {GOLDEN_FAST_FORWARD:#018x}"
        );
    }
}
