//! Parallel scenario sweep over the paper's cooling configurations.
//!
//! Builds a 16-cell grid — {AOHS_1.5, FDHS_1.0} × {W1, W6} × {No-limit,
//! DTM-TS, DTM-ACG, DTM-CDVFS} — and runs it three ways: per-cell
//! `MemSpot::run` on one thread (the reference execution, a fresh
//! `MemSpot` per cell), the `SweepRunner`'s batched lockstep + analytic
//! fast-forward on one worker (same results within 1e-9, printed with its
//! speedup, how many windows were fast-forwarded and how many
//! analytic segments the envelope tier replayed), and the runner's batched
//! chunks fanned across all cores. Each pass uses its own shared `CharStore`, so
//! the printed wall-clock comparisons are fair while still showing the
//! level-1 dedup (the same mix under two cooling configs characterizes
//! once). A further pass then runs against a *disk-backed* store
//! (`target/cooling_sweep_char_cache.jsonl`): the first execution of the
//! example populates the file, and every rerun loads it and reports
//! **0 level-1 misses** — the whole sweep skips the closed-loop
//! simulations.
//! All passes are written to `BENCH_cooling_sweep.json` (a separate file
//! from the sweep bench's gated `BENCH_sweep.json`, which this example
//! must not clobber), followed by a per-scheme summary of the paper's
//! headline quantities.
//!
//! A final stacked pass swaps the FBDIMM pair for a **4-high 3D stack**
//! (base logic die + four DRAM dies coupled through TSV resistances) and
//! prints the per-layer peak temperatures of the hottest position: the
//! inner die next to the hot base runs hottest, the spreader-side outer
//! die coolest — the per-layer resolution the stack topology adds.
//!
//! Run with: `cargo run --release --example cooling_sweep`

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dram_thermal::prelude::*;
use experiments::ch4::PolicySpec;
use experiments::harness::{bench_output_path, write_bench_json, BenchStats};
use experiments::sweep::{SweepRunner, SweepScenario};

fn grid() -> Vec<SweepScenario> {
    let specs =
        vec![PolicySpec::NoLimit, PolicySpec::Ts, PolicySpec::Acg { pid: false }, PolicySpec::Cdvfs { pid: false }];
    let mut scenarios = Vec::new();
    for cooling in [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()] {
        for mix in [mixes::w1(), mixes::w6()] {
            scenarios.push(SweepScenario::isolated(cooling, mix, specs.clone()));
        }
    }
    scenarios
}

fn sweep_config(cooling: CoolingConfig) -> MemSpotConfig {
    // Small batches: the example should finish in tens of seconds while
    // still letting every scheme reach its steady throttling behaviour.
    MemSpotConfig {
        copies_per_app: 12,
        instruction_scale: 1.0,
        characterization_budget: 40_000,
        ..MemSpotConfig::paper(cooling)
    }
}

fn main() {
    let scenarios = grid();
    let cells: usize = scenarios.iter().map(SweepScenario::cells).sum();
    println!("scenario grid: {} scenarios, {} cells", scenarios.len(), cells);

    // Reference: every cell stepped individually by its own `MemSpot` over
    // one shared store. The batched pass below must reproduce it within
    // 1e-9 while running the same grid faster on the same single worker.
    let cpu = CpuConfig::paper_quad_core();
    let per_cell_store = Arc::new(CharStore::new());
    let per_cell_start = Instant::now();
    let per_cell: Vec<MemSpotResult> = scenarios
        .iter()
        .flat_map(|scenario| scenario.specs.iter().map(move |spec| (scenario, spec)))
        .map(|(scenario, spec)| {
            let cfg = sweep_config(scenario.cooling);
            let mut spot =
                MemSpot::with_store(cpu.clone(), FbdimmConfig::ddr2_667_paper(), cfg, Arc::clone(&per_cell_store));
            spot.run(&scenario.mix, spec.build(&cpu, cfg.limits).as_mut())
        })
        .collect();
    let per_cell_s = per_cell_start.elapsed().as_secs_f64();
    println!("per-cell   (1 thread):      {per_cell_s:.2} s wall-clock");

    let sequential = SweepRunner::with_threads(1).run(&scenarios, sweep_config);
    let batched_speedup = per_cell_s / sequential.wall_clock_s.max(1e-9);
    println!(
        "batched+FF (1 worker):      {:.2} s wall-clock  ({:.2}x vs per-cell, {} windows fast-forwarded \
         across {} cells, {} envelope analytic segments)",
        sequential.wall_clock_s,
        batched_speedup,
        sequential.fast_forwarded_windows,
        sequential.fast_forwarded_cells,
        sequential.envelope_cycles
    );
    for (reference, run) in per_cell.iter().zip(&sequential.runs) {
        let rel = (run.result.running_time_s - reference.running_time_s).abs() / reference.running_time_s;
        assert!(rel <= 1e-9, "{}/{}/{}: batched running time off by {rel:.2e}", run.cooling, run.workload, run.policy);
    }

    let runner = SweepRunner::new();
    let parallel = runner.run(&scenarios, sweep_config);
    let speedup = sequential.wall_clock_s / parallel.wall_clock_s.max(1e-9);
    println!(
        "parallel   ({} workers):      {:.2} s wall-clock  ({:.2}x speedup)",
        parallel.threads, parallel.wall_clock_s, speedup
    );
    println!(
        "char store (parallel pass): {} hits / {} misses — each design point of a mix is characterized once",
        parallel.char_store_hits, parallel.char_store_misses
    );
    let slowest_cell = parallel.cell_wall_clock_s.iter().cloned().fold(0.0, f64::max);
    println!("slowest cell: {slowest_cell:.2} s of {} cells", parallel.runs.len());

    // Disk-backed pass: level-1 results persist across *processes*. The
    // first execution of this example computes and appends every design
    // point; any rerun loads them at startup and reports 0 misses.
    let cache_path = bench_output_path("target/cooling_sweep_char_cache.jsonl");
    let disk = match CharStore::with_disk_cache(&cache_path) {
        Ok(store) => {
            let store = Arc::new(store);
            let outcome = SweepRunner::new().with_char_store(store).run(&scenarios, sweep_config);
            println!(
                "disk-backed ({}): {:.2} s wall-clock, {} hits / {} misses{}",
                cache_path.display(),
                outcome.wall_clock_s,
                outcome.char_store_hits,
                outcome.char_store_misses,
                if outcome.char_store_misses == 0 { "  (warm cache: level-1 fully skipped)" } else { "" }
            );
            for (a, b) in parallel.runs.iter().zip(outcome.runs.iter()) {
                assert_eq!(a.result, b.result, "disk-cached points must not change any result");
            }
            Some(outcome)
        }
        Err(e) => {
            eprintln!("disk cache unavailable at {}: {e}", cache_path.display());
            None
        }
    };

    let stats = [
        BenchStats {
            label: "cooling_sweep/percell_1_worker".to_string(),
            mean_ms: per_cell_s * 1e3,
            min_ms: per_cell_s * 1e3,
            iters: 1,
        },
        BenchStats {
            label: "cooling_sweep/sequential_1_worker".to_string(),
            mean_ms: sequential.wall_clock_s * 1e3,
            min_ms: sequential.wall_clock_s * 1e3,
            iters: 1,
        },
        BenchStats {
            label: format!("cooling_sweep/parallel_{}_workers", parallel.threads),
            mean_ms: parallel.wall_clock_s * 1e3,
            min_ms: parallel.wall_clock_s * 1e3,
            iters: 1,
        },
    ];
    // The pre-PR reference numbers were measured on the same 2-core
    // container immediately before the shared-store / allocation-free-loop
    // overhaul (group-granular sweep, per-scenario tables, exp() per node
    // per window): 2.48 s sequential, 1.71 s parallel.
    let disk_misses = disk.as_ref().map(|o| o.char_store_misses as f64).unwrap_or(-1.0);
    let disk_wall_ms = disk.as_ref().map(|o| o.wall_clock_s * 1e3).unwrap_or(-1.0);
    let metrics = [
        ("cells", cells as f64),
        ("threads", parallel.threads as f64),
        ("speedup", speedup),
        ("batched_vs_percell_speedup", batched_speedup),
        ("fast_forwarded_windows", sequential.fast_forwarded_windows as f64),
        ("fast_forwarded_cells", sequential.fast_forwarded_cells as f64),
        ("envelope_cycles", sequential.envelope_cycles as f64),
        ("host_nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ("char_store_hits", parallel.char_store_hits as f64),
        ("char_store_misses", parallel.char_store_misses as f64),
        ("disk_pass_char_store_misses", disk_misses),
        ("disk_pass_wall_ms", disk_wall_ms),
        ("pre_pr_sequential_ms_2core_ref", 2480.0),
        ("pre_pr_parallel_ms_2core_ref", 1710.0),
    ];
    let path = bench_output_path("BENCH_cooling_sweep.json");
    match write_bench_json(&path, &stats, &metrics) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    // Per-scheme summary: mean normalized running time (vs the No-limit
    // baseline of the same cooling × workload) and the hottest AMB observed.
    let mut norm_times: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut max_amb: BTreeMap<(String, String), f64> = BTreeMap::new();
    for run in &parallel.runs {
        if run.policy == "No-limit" {
            continue;
        }
        let base = parallel
            .runs
            .iter()
            .find(|b| b.cooling == run.cooling && b.workload == run.workload && b.policy == "No-limit")
            .expect("every scenario carries its baseline");
        let key = (run.cooling.clone(), run.policy.clone());
        norm_times.entry(key.clone()).or_default().push(run.result.normalized_time(&base.result));
        let amb = max_amb.entry(key).or_insert(f64::MIN);
        *amb = amb.max(run.result.max_amb_c);
    }

    println!("\n{:<10} {:<12} {:>16} {:>14}", "cooling", "policy", "norm. time (avg)", "max AMB degC");
    for ((cooling, policy), times) in &norm_times {
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        println!("{cooling:<10} {policy:<12} {:>16.3} {:>14.1}", mean, max_amb[&(cooling.clone(), policy.clone())]);
    }
    println!("\n(normalized time is vs the thermally unconstrained No-limit baseline;");
    println!(" every DTM scheme must stay at or below ~110 degC AMB)");

    // Stacked pass: the same machinery with a 4-high 3D stack per position.
    let stacked_scenarios = vec![
        SweepScenario::stacked(
            CoolingConfig::aohs_1_5(),
            StackKind::stacked4(),
            mixes::w1(),
            vec![PolicySpec::NoLimit, PolicySpec::Ts],
        ),
        SweepScenario::stacked(
            CoolingConfig::aohs_1_5(),
            StackKind::stacked4(),
            mixes::w6(),
            vec![PolicySpec::NoLimit],
        ),
    ];
    let stacked = SweepRunner::new().run(&stacked_scenarios, sweep_config);
    println!("\n4-high 3D-stack scenario ({} cells, {:.2} s):", stacked.runs.len(), stacked.wall_clock_s);
    println!(
        "{:<10} {:<10} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload", "policy", "stack", "base", "die0", "die1", "die2", "die3"
    );
    for run in &stacked.runs {
        let hot = run.result.hottest_position().expect("stacked peaks");
        println!(
            "{:<10} {:<10} {:<10} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            run.workload,
            run.policy,
            run.result.stack,
            hot.layers_c[0],
            hot.layers_c[1],
            hot.layers_c[2],
            hot.layers_c[3],
            hot.layers_c[4]
        );
        let (inner, outer) = (hot.layers_c[1], hot.layers_c[4]);
        assert!(inner > outer, "the inner die ({inner:.1}) must run hotter than the outer die ({outer:.1})");
    }
    println!("(per-layer peak temperatures in degC; the inner die next to the base is the hottest DRAM die,");
    println!(" the die under the heat spreader the coolest — vertical TSV coupling resolved per layer)");

    // Spatial-DTM pass: the paper's global DTM-BW / DTM-ACG next to the
    // per-channel (DTM-CBW) and migration-aware (DTM-MIG) policies on the
    // {cooling × mix × 4-high stack} grid. The 3D stack runs cooler than
    // the FBDIMM AMB era, so the DRAM TDP is derated to 80 degC (TRP margin
    // preserved) — under AOHS_1.5 the stack then genuinely throttles, while
    // FDHS_1.0 keeps enough headroom to run unthrottled.
    let spatial_config = |cooling: CoolingConfig| {
        let mut cfg = sweep_config(cooling);
        cfg.limits = ThermalLimits::paper_fbdimm().with_dram_tdp(80.0);
        cfg
    };
    let spatial_scenarios: Vec<SweepScenario> = [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()]
        .into_iter()
        .flat_map(|cooling| {
            [mixes::w1(), mixes::w6()]
                .into_iter()
                .map(move |mix| SweepScenario::stacked(cooling, StackKind::stacked4(), mix, PolicySpec::spatial_set()))
        })
        .collect();
    let mut baseline_scenarios = spatial_scenarios.clone();
    for s in &mut baseline_scenarios {
        s.specs = vec![PolicySpec::NoLimit];
    }
    let mut all = spatial_scenarios;
    all.extend(baseline_scenarios);
    let spatial = SweepRunner::new().run(&all, spatial_config);

    println!("\nspatial DTM on the 4-high stack, DRAM TDP 80 degC ({:.2} s):", spatial.wall_clock_s);
    println!(
        "{:<10} {:<10} {:<12} {:>10} {:>10} {:>10} {:>11} {:>12}",
        "cooling", "workload", "policy", "norm. time", "peak degC", "spread degC", "throttle %", "migrated GB"
    );
    let mut mig_flattens_somewhere = false;
    let mut mig_migrates_somewhere = false;
    for run in &spatial.runs {
        if run.policy == "No-limit" {
            continue;
        }
        let base = spatial
            .runs
            .iter()
            .find(|b| b.cooling == run.cooling && b.workload == run.workload && b.policy == "No-limit")
            .expect("spatial baseline");
        let r = &run.result;
        let throttle_pct =
            100.0 * r.channel_throttle_residency.iter().sum::<f64>() / r.channel_throttle_residency.len().max(1) as f64;
        println!(
            "{:<10} {:<10} {:<12} {:>10.3} {:>10.1} {:>10.1} {:>11.1} {:>12.2}",
            run.cooling,
            run.workload,
            run.policy,
            r.normalized_time(&base.result),
            r.hottest_layer_peak_c(),
            r.position_peak_spread_c(),
            throttle_pct,
            r.migrated_traffic_bytes / 1e9
        );
        if run.policy == "DTM-MIG" {
            let bw = spatial
                .runs
                .iter()
                .find(|b| b.cooling == run.cooling && b.workload == run.workload && b.policy == "DTM-BW")
                .expect("DTM-BW reference");
            mig_flattens_somewhere |= r.position_peak_spread_c() < bw.result.position_peak_spread_c();
            // A cell whose spread never crosses the hysteresis band stays
            // scalar and legitimately migrates nothing.
            mig_migrates_somewhere |= r.migrated_traffic_bytes > 0.0;
        }
    }
    assert!(mig_flattens_somewhere, "DTM-MIG must flatten the position spread vs DTM-BW somewhere on the grid");
    assert!(mig_migrates_somewhere, "DTM-MIG must migrate traffic somewhere on the grid");
    println!("(normalized time vs No-limit on the same cell; peak/spread over per-position hottest-layer peaks;");
    println!(" throttle % is the mean per-channel throttle residency — DTM-CBW throttles hot channels only,");
    println!(" DTM-MIG migrates traffic toward cold positions instead of capping it)");
}
