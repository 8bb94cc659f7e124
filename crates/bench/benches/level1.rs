//! Level-1 characterization benchmark: the CI perf gate of the closed-loop
//! simulator and its caches.
//!
//! Measures characterization throughput (design points per second) for the
//! workload the pre-PR baseline was recorded on — the W1 mix at a 40 000
//! demand-access budget, across the full-speed, core-gated (2 active) and
//! bandwidth-capped (6.4 GB/s) design points — in three configurations:
//!
//! * **cold / batch** — a fresh in-memory `CharStore` and table per pass,
//!   resolved through [`CharacterizationTable::points`] with one thread per
//!   core (independent design points fan out across cores, every run
//!   warm-started from per-interval cache templates);
//! * **cold / sequential** — the same work resolved one `point()` at a time
//!   by a table with the default single thread, isolating the
//!   single-thread engine;
//! * **disk-warm** — a `CharStore::with_disk_cache` store whose file was
//!   populated by an earlier pass: every lookup is served from disk and the
//!   closed loop never runs.
//!
//! The **ladder fill** resolves W1 over the Table 4.3 ladder (full speed and
//! every progress-making mode of DTM-TS, DTM-BW, DTM-ACG and DTM-CDVFS: ten
//! design points) on a fresh store with the default single thread, the way
//! each worker of a figure fills its mix, and reports the points simulated,
//! the points derived from their uncapped sibling (DTM-BW's 19.2 and
//! 12.8 GB/s rungs never bind on W1) and points per second.
//!
//! A Chapter 5 case repeats the cold batch path on the dual-socket Xeon 5160
//! (two shared L2s) with `FbdimmConfig::server(4)`, W1 at full speed, with 2
//! cores active and under a 4 GB/s cap. Both platforms also report the
//! per-run warm-start time, [`MulticoreSim::warm_start`] alone on a reused
//! simulator (median µs), beside the same measurement of the closed-form
//! fill the per-interval templates replaced, and the simulator's footprint,
//! the KiB of its simulated L2s' tag and recency arrays
//! ([`MulticoreSim::scratch_bytes`]; a level-1 store holds one simulator per
//! closed loop that ran at once).
//!
//! The closed loop's own cost is `ns_per_demand_access`: one thread runs 64
//! characterizations at the 40k budget — the quad core on
//! `ddr2_667_paper()` and the Xeon 5160 on `server(4)`, W1–W8, at full
//! speed, with 2 cores active, at the lowest DVFS point and under a
//! 6.4 GB/s cap — each platform on one reused simulator, and the best of
//! several passes is divided by the 64 × 40k demand accesses.
//!
//! Results go to `BENCH_level1.json` (uploaded by CI), with the host core
//! count as `host_nproc`. The bench exits non-zero on a 2+-core host if the
//! cold batch path drops below the gate multiple (default 1.2x,
//! `LEVEL1_GATE_MIN_SPEEDUP` to override) of the recorded pre-PR baseline,
//! or if the disk-warm path fails to beat cold by a wide margin (which would
//! mean the cache is not actually skipping level-1 work). On the 2-core reference container, interleaved
//! matched-window A/B runs of the pre- and post-PR binaries measure
//! 1.8-2.1x cold-batch speedup (median ~1.9x, best 0.0225 s vs 0.0111 s
//! for the three points) over the 133 points/s pre-PR baseline.
//!
//! Run with: `cargo bench -p experiments --bench level1`

use std::sync::Arc;
use std::time::Instant;

use cpu_model::MulticoreSim;
use experiments::harness::{bench_output_path, write_bench_json, BenchStats};
use memtherm::prelude::*;

/// Cold points/sec of the pre-refactor level-1 engine (sequential
/// `point()` calls, full prefill every run), best-of-12 on the 2-core
/// reference container immediately before this overhaul.
const PRE_PR_COLD_PPS_2CORE_REF: f64 = 133.0;

/// Per-run warm-start time (µs, median) of the closed-form fill that wrote
/// every survivor of every set one by one, measured the same way (W1, the
/// fill of each reused scratch cache) on the 2-core reference container
/// (host_nproc 2) just before the per-interval templates replaced it: the
/// quad core's one L2, then the Xeon 5160's two. Replaying a stored warm
/// image instead cost about 75 and 210 µs.
const CLOSED_FORM_WARM_START_US_REF: [f64; 2] = [1245.0, 1234.0];

const BUDGET: u64 = 40_000;
const PASSES: usize = 24;
const WARM_STARTS: usize = 200;
/// Passes of the single-thread closed-loop case (64 runs each).
const CLOSED_LOOP_PASSES: usize = 7;

fn modes(cpu: &CpuConfig) -> [RunningMode; 3] {
    let full = RunningMode::full_speed(cpu);
    [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(6.4)]
}

/// The Chapter 5 design points: full speed, 2 cores gated, 4 GB/s cap.
fn ch5_modes(cpu: &CpuConfig) -> [RunningMode; 3] {
    let full = RunningMode::full_speed(cpu);
    [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(4.0)]
}

/// The Table 4.3 ladder: full speed and every progress-making mode of the
/// DTM-TS, DTM-BW, DTM-ACG and DTM-CDVFS ladders, each once.
fn ladder_modes(cpu: &CpuConfig) -> Vec<RunningMode> {
    let mut modes = vec![RunningMode::full_speed(cpu)];
    for scheme in [DtmScheme::Ts, DtmScheme::Bw, DtmScheme::Acg, DtmScheme::Cdvfs] {
        for level in EmergencyLevel::ALL {
            let mode = scheme_mode(scheme, level, cpu);
            let key = ModeKey::from_mode(&mode);
            if key.makes_progress() && !modes.iter().any(|m| ModeKey::from_mode(m) == key) {
                modes.push(mode);
            }
        }
    }
    modes
}

fn fresh_table(store: Arc<CharStore>) -> CharacterizationTable {
    CharacterizationTable::with_store(
        CpuConfig::paper_quad_core(),
        FbdimmConfig::ddr2_667_paper(),
        "W1",
        workloads::mixes::w1().apps,
        BUDGET,
        store,
    )
}

fn ch5_table() -> CharacterizationTable {
    CharacterizationTable::with_store(
        CpuConfig::xeon_5160_dual_socket(),
        FbdimmConfig::server(4),
        "W1",
        workloads::mixes::w1().apps,
        BUDGET,
        Arc::new(CharStore::new()),
    )
}

/// Median time in µs of one W1 warm start on `cpu`, on a reused simulator,
/// and that simulator's footprint in KiB.
fn warm_start_us(cpu: CpuConfig, mem: FbdimmConfig) -> (f64, f64) {
    let apps = workloads::mixes::w1().apps;
    let refs: Vec<&workloads::AppBehavior> = apps.iter().collect();
    let mut sim = MulticoreSim::new(cpu, mem);
    let mut samples: Vec<f64> = (0..WARM_STARTS)
        .map(|_| {
            let start = Instant::now();
            sim.warm_start(&refs);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], sim.scratch_bytes() as f64 / 1024.0)
}

/// Seconds per pass of the single-thread closed-loop case (see the module
/// docs), one entry per pass.
fn closed_loop_passes() -> Vec<f64> {
    let platforms = [
        (CpuConfig::paper_quad_core(), FbdimmConfig::ddr2_667_paper()),
        (CpuConfig::xeon_5160_dual_socket(), FbdimmConfig::server(4)),
    ];
    let mixes = workloads::mixes::all_ch4_mixes();
    let mut sims: Vec<MulticoreSim> = platforms.iter().map(|(cpu, mem)| MulticoreSim::new(cpu.clone(), *mem)).collect();
    (0..CLOSED_LOOP_PASSES)
        .map(|_| {
            let start = Instant::now();
            for ((cpu, _), sim) in platforms.iter().zip(&mut sims) {
                let full = RunningMode::full_speed(cpu);
                let modes = [
                    full,
                    full.with_active_cores(2),
                    full.with_op(cpu.dvfs.bottom()),
                    full.with_bandwidth_cap_gbps(6.4),
                ];
                for mix in &mixes {
                    for mode in &modes {
                        std::hint::black_box(sim.run(&mix.apps, mode, BUDGET));
                    }
                }
            }
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn main() {
    let cpu = CpuConfig::paper_quad_core();
    let modes = modes(&cpu);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Cold, batch (production) path: fresh store and table per pass.
    let mut cold_batch_s = Vec::with_capacity(PASSES);
    let mut reference = None;
    for _ in 0..PASSES {
        let mut table = fresh_table(Arc::new(CharStore::new())).with_rotation_threads(threads);
        let start = Instant::now();
        let points = table.points(&modes);
        cold_batch_s.push(start.elapsed().as_secs_f64());
        reference = Some(points);
    }
    let reference = reference.expect("at least one pass");

    // Cold, sequential path (single-thread engine, one point at a time).
    let mut cold_seq_s = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let mut table = fresh_table(Arc::new(CharStore::new()));
        let start = Instant::now();
        for mode in &modes {
            std::hint::black_box(table.point(mode));
        }
        cold_seq_s.push(start.elapsed().as_secs_f64());
    }

    // Disk-warm path: populate a cache file once, then measure lookups that
    // never run the closed loop. Also proves bit-identity across the disk
    // round trip.
    let cache_path = std::env::temp_dir().join(format!("bench_level1_char_cache_{}.jsonl", std::process::id()));
    std::fs::remove_file(&cache_path).ok();
    fresh_table(Arc::new(CharStore::with_disk_cache(&cache_path).expect("open disk cache")))
        .with_rotation_threads(threads)
        .points(&modes);
    let mut warm_s = Vec::with_capacity(PASSES);
    let mut warm_misses = 0u64;
    for _ in 0..PASSES {
        let store = Arc::new(CharStore::with_disk_cache(&cache_path).expect("open disk cache"));
        let mut table = fresh_table(Arc::clone(&store));
        let start = Instant::now();
        let points = table.points(&modes);
        warm_s.push(start.elapsed().as_secs_f64());
        warm_misses += store.misses();
        for (a, b) in reference.iter().zip(points.iter()) {
            assert_eq!(**a, **b, "disk-cached points must be bit-identical to computed ones");
        }
    }
    std::fs::remove_file(&cache_path).ok();

    // Chapter 5 cold batch path: the dual-socket server, two shared L2s.
    let xeon = CpuConfig::xeon_5160_dual_socket();
    let ch5_modes = ch5_modes(&xeon);
    let ch5_s: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut table = ch5_table().with_rotation_threads(threads);
            let start = Instant::now();
            std::hint::black_box(table.points(&ch5_modes));
            start.elapsed().as_secs_f64()
        })
        .collect();

    // Ladder fill: one thread, fresh store per pass.
    let ladder = ladder_modes(&cpu);
    let mut ladder_s = Vec::with_capacity(PASSES);
    let (mut ladder_computed, mut ladder_derived) = (0, 0);
    for _ in 0..PASSES {
        let store = Arc::new(CharStore::new());
        let mut table = fresh_table(Arc::clone(&store));
        let start = Instant::now();
        std::hint::black_box(table.points(&ladder));
        ladder_s.push(start.elapsed().as_secs_f64());
        (ladder_computed, ladder_derived) = (store.misses() - store.derived(), store.derived());
    }

    let [(quad_warm_us, quad_kib), (xeon_warm_us, xeon_kib)] =
        [warm_start_us(cpu.clone(), FbdimmConfig::ddr2_667_paper()), warm_start_us(xeon, FbdimmConfig::server(4))];
    let warm_start = [quad_warm_us, xeon_warm_us];

    let closed_loop_s = closed_loop_passes();

    let min = |xs: &[f64]| xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let pps = |best_s: f64| modes.len() as f64 / best_s.max(1e-12);

    let cold_batch_pps = pps(min(&cold_batch_s));
    let cold_seq_pps = pps(min(&cold_seq_s));
    let warm_pps = pps(min(&warm_s));
    let speedup_vs_pre_pr = cold_batch_pps / PRE_PR_COLD_PPS_2CORE_REF;
    let ch5_pps = pps(min(&ch5_s));
    let ns_per_access = min(&closed_loop_s) * 1e9 / (64 * BUDGET) as f64;
    let ladder_pps = ladder.len() as f64 / min(&ladder_s).max(1e-12);

    println!("level1 characterization: {} passes x {} points, budget {BUDGET}", PASSES, modes.len());
    println!(
        "level1/cold_batch       {:>10.1} points/s (best) — {:.2}x vs pre-PR ref",
        cold_batch_pps, speedup_vs_pre_pr
    );
    println!(
        "level1/cold_sequential  {:>10.1} points/s (best) — {:.2}x vs pre-PR ref",
        cold_seq_pps,
        cold_seq_pps / PRE_PR_COLD_PPS_2CORE_REF
    );
    println!(
        "level1/disk_warm        {:>10.1} points/s (best), {} misses over {} passes",
        warm_pps, warm_misses, PASSES
    );
    println!(
        "level1/ladder_fill      {:>10.1} points/s (best) — {} points: {ladder_computed} simulated, {ladder_derived} derived",
        ladder_pps,
        ladder.len()
    );
    println!("level1/ch5_cold_batch   {:>10.1} points/s (best) — Xeon 5160, server(4)", ch5_pps);
    println!(
        "level1/warm_start       {:>10.1} µs/run quad, {:.1} µs/run Xeon (median; closed form: {:.0}, {:.0})",
        warm_start[0], warm_start[1], CLOSED_FORM_WARM_START_US_REF[0], CLOSED_FORM_WARM_START_US_REF[1]
    );
    println!(
        "level1/closed_loop      {:>10.1} ns/demand access (best of {CLOSED_LOOP_PASSES}, one thread)",
        ns_per_access
    );
    println!("level1/sim_scratch      {quad_kib:>10.0} KiB/simulator quad, {xeon_kib:.0} KiB/simulator Xeon");

    let to_stats = |label: &str, samples: &[f64]| BenchStats {
        label: label.to_string(),
        mean_ms: mean(samples) * 1e3,
        min_ms: min(samples) * 1e3,
        iters: samples.len(),
    };
    let stats = [
        to_stats("level1/cold_batch", &cold_batch_s),
        to_stats("level1/cold_sequential", &cold_seq_s),
        to_stats("level1/disk_warm", &warm_s),
        to_stats("level1/ladder_fill", &ladder_s),
        to_stats("level1/ch5_cold_batch", &ch5_s),
        to_stats("level1/closed_loop_64_runs", &closed_loop_s),
    ];
    let metrics = [
        ("points", modes.len() as f64),
        ("budget", BUDGET as f64),
        ("threads", threads as f64),
        ("cold_batch_points_per_sec", cold_batch_pps),
        ("cold_sequential_points_per_sec", cold_seq_pps),
        ("disk_warm_points_per_sec", warm_pps),
        ("disk_warm_misses", warm_misses as f64),
        ("pre_pr_cold_pps_2core_ref", PRE_PR_COLD_PPS_2CORE_REF),
        ("cold_speedup_vs_pre_pr", speedup_vs_pre_pr),
        ("ladder_fill_points", ladder.len() as f64),
        ("ladder_fill_computed", ladder_computed as f64),
        ("ladder_fill_derived", ladder_derived as f64),
        ("ladder_fill_points_per_sec", ladder_pps),
        ("ch5_cold_batch_points_per_sec", ch5_pps),
        ("warm_start_us_per_run", warm_start[0]),
        ("ch5_warm_start_us_per_run", warm_start[1]),
        ("closed_form_warm_start_us_ref", CLOSED_FORM_WARM_START_US_REF[0]),
        ("ch5_closed_form_warm_start_us_ref", CLOSED_FORM_WARM_START_US_REF[1]),
        ("sim_scratch_kib", quad_kib),
        ("ch5_sim_scratch_kib", xeon_kib),
        ("ns_per_demand_access", ns_per_access),
        ("host_nproc", threads as f64),
    ];
    let path = bench_output_path("BENCH_level1.json");
    write_bench_json(&path, &stats, &metrics).expect("write BENCH_level1.json");
    println!("wrote {}", path.display());

    if warm_misses > 0 {
        eprintln!("FAIL: disk-warm passes performed {warm_misses} level-1 computations; the cache must serve all");
        std::process::exit(1);
    }
    // The warm path skips the closed loop entirely; if it is not decisively
    // faster than cold, the disk cache is not actually doing its job.
    if warm_pps < 5.0 * cold_batch_pps {
        eprintln!("FAIL: disk-warm {warm_pps:.0} points/s is not clearly faster than cold {cold_batch_pps:.0}");
        std::process::exit(1);
    }
    // The default gate is a conservative regression floor rather than the
    // full same-host speedup (~2x on the reference container with matched
    // measurement windows): shared CI runners and this container both see
    // multiplicative host noise of tens of percent, and a flaky gate is
    // worse than a loose one.
    let gate: f64 = std::env::var("LEVEL1_GATE_MIN_SPEEDUP").ok().and_then(|v| v.parse().ok()).unwrap_or(1.2);
    if threads >= 2 && speedup_vs_pre_pr < gate {
        eprintln!(
            "FAIL: cold batch speedup {speedup_vs_pre_pr:.2}x vs the recorded pre-PR baseline is below the {gate:.2}x gate"
        );
        std::process::exit(1);
    }
}
