//! Digest pins for level-1 runs long enough to write back dirty lines.
//!
//! The goldens in `golden_multicore.rs` pin 25k-access runs, whose victims
//! are all clean warm-start lines (`mem_writes` is 0 in every one of them),
//! so they cannot see a change to the write-back path. The runs below are
//! long enough that demand writes dirty lines and later evict them. Each
//! platform's runs are hashed in a fixed order with FNV-1a 64 over their
//! `Debug` rendering; `f64` renders as its shortest round-trip form, so an
//! equal digest means bit-identical measurements. The digests were captured
//! before the closed loop's per-access rewrites (threshold Bernoulli draws,
//! memoized compute gaps, one-pass set scans, chain-derived AMB bypass,
//! sorted outstanding misses); any drift is a correctness bug.

use cpu_model::{CpuConfig, MulticoreSim, RunMeasurement, RunningMode};
use fbdimm_sim::FbdimmConfig;
use workloads::{mixes, WorkloadMix};

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Runs every mix under every mode on one reused simulator and returns the
/// digest of the measurements and how many of them wrote back dirty lines.
fn digest(sim: &mut MulticoreSim, mixes: &[WorkloadMix], modes: &[RunningMode], budget: u64) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut dirty_runs = 0;
    for mix in mixes {
        for mode in modes {
            let m: RunMeasurement = sim.run(&mix.apps, mode, budget);
            if m.cores.iter().any(|c| c.mem_writes > 0) {
                dirty_runs += 1;
            }
            fnv1a(&mut hash, format!("{m:?}").as_bytes());
        }
    }
    (hash, dirty_runs)
}

#[test]
fn quad_core_runs_with_dirty_writebacks_match_digest() {
    let cpu = CpuConfig::paper_quad_core();
    let full = RunningMode::full_speed(&cpu);
    let modes = [full, full.with_active_cores(2), full.with_op(cpu.dvfs.bottom()), full.with_bandwidth_cap_gbps(6.4)];
    let mut sim = MulticoreSim::new(cpu, FbdimmConfig::ddr2_667_paper());
    let (hash, dirty_runs) = digest(&mut sim, &mixes::all_ch4_mixes()[..8], &modes, 40_000);
    assert!(dirty_runs > 0, "no quad-core run wrote back a dirty line; the pin no longer covers write-backs");
    assert_eq!(format!("{hash:016x}"), "50f5fd79bef34321", "{dirty_runs} of 32 runs with write-backs");
}

#[test]
fn xeon_runs_with_dirty_writebacks_match_digest() {
    let cpu = CpuConfig::xeon_5160_dual_socket();
    let full = RunningMode::full_speed(&cpu);
    let modes = [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(4.0)];
    let mix_set = [mixes::w1(), mixes::w3(), mixes::w5(), mixes::w7()];
    for (dimms, want) in [(2, "710a6081815245bf"), (4, "2e724bfa6e2ef28e")] {
        let mut sim = MulticoreSim::new(cpu.clone(), FbdimmConfig::server(dimms));
        let (hash, dirty_runs) = digest(&mut sim, &mix_set, &modes, 100_000);
        assert!(dirty_runs > 0, "no server({dimms}) run wrote back a dirty line; the pin no longer covers write-backs");
        assert_eq!(format!("{hash:016x}"), want, "server({dimms}): {dirty_runs} of 12 runs with write-backs");
    }
}
