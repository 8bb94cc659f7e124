//! Smoke-scale sweep benchmark: the CI perf gate of the sweep engine.
//!
//! Runs a 16-cell grid — {AOHS_1.5, FDHS_1.0} × {W1, W6} × {No-limit,
//! DTM-TS, DTM-ACG, DTM-CDVFS} — three times sequentially and three times
//! across all cores (every pass with its own fresh `CharStore`, so the
//! comparison is fair), writes the machine-readable `BENCH_sweep.json`
//! artifact and exits non-zero if the best-of-3 parallel speedup on a
//! 2+-core host drops below 1.2x. Gating on minimum times filters the
//! scheduler/noisy-neighbor interference that single-shot wall clocks pick
//! up on small shared CI runners.
//!
//! A `batched` case then reruns the same grid on ONE worker against a
//! pre-warmed shared `CharStore`, per-cell engine vs the batched lockstep
//! engine with steady-state fast-forward, and gates the batched engine's
//! best-of-3 speedup at 1.2x (`batched_vs_sequential_speedup`).
//!
//! A `lane_parallel` case reruns the warm grid as ONE batch whose lockstep
//! lanes fan across all cores (`SweepExecution::lane_parallel`), gating the
//! best-of-3 speedup over the single-thread batched run at 1.2x on 2+-core
//! hosts. A `stacked_window_cost` case then measures the literal per-window
//! cost of a 4-high 3D stack against the FBDIMM identity-split path through
//! direct `BatchedSimEngine` runs and gates the ratio at 2x — the cached
//! Ψ-superposition matrices are what keep deep stacks affordable.
//!
//! A `stacked` case then runs 4-high 3D-stack cells through the same
//! runner so `BENCH_sweep.json` tracks the stacked-scenario axis, and
//! gates that the per-layer thermal field is actually resolved: the peak
//! of the inner die (next to the hot base die) must exceed the peak of
//! the spreader-side outer die by a nonzero margin under load.
//!
//! A `spatial` case follows: DTM-BW (global throttling) vs DTM-MIG
//! (migration-aware steering) on the same 4-high stack. Migration must
//! *flatten* the thermal field — the hottest-vs-coldest position peak
//! spread under DTM-MIG has to come in strictly below DTM-BW's — and the
//! reduction in °C is recorded and gated > 0.
//!
//! The default grid also carries one relay-cadence cell (DTM-ACG at
//! dt = 5 s), where threshold decisions settle into an exactly periodic
//! relay orbit. A `relay` case reruns it alone under the default options
//! and forced literal: the orbit must leave the lane through the envelope
//! (`relay_envelope_cycles` > 0) within the 1e-9 bound and with the window
//! count conserved. A second cadence cell (DTM-BW at 10 ms under FDHS)
//! slides along its throttle threshold so only the envelope tier's exact
//! decision replay can fast-forward it: the default-options grid runs are
//! gated `grid_envelope_cycles` > 0.
//!
//! A `ts_relay` case runs Figure 4.2's DTM-TS cell (W1 under AOHS_1.5,
//! AMB TRP 106 °C) at the paper's 10 ms cadence, default options against
//! forced literal, best-of-3 each. The latched shutdown relay enters the
//! envelope through its decision-region certificate: gated on
//! `ts_relay_envelope_cycles` > 0, every reported quantity within 1e-9,
//! exact window conservation and a speedup of at least 10x over literal.
//!
//! A `paper_cadence` case runs the paper's own operating point: a 16-cell
//! pure-policy grid (all four policies, both coolings, six mixes) at
//! Lin et al.'s 10 ms DTM cadence, once with
//! the envelope tier enabled and once forced literal. It gates the
//! envelope speedup at 20x, the analytic replay phase at 25 ms summed
//! over the grid, `envelope_cycles` > 0, every reported quantity within
//! the contraction-certified 1e-9 bound, and exact window-count
//! conservation — and records the per-phase wall-clock split (detector /
//! verify / replay / literal stepping) so FF regressions are attributable
//! from the JSON artifact alone.
//!
//! The batch size is a few times the `Smoke` scale: large enough that the
//! parallelizable window loops dominate the (partly serialized, shared)
//! level-1 characterizations, which keeps the speedup measurement stable on
//! small CI runners while still finishing in a few seconds.
//!
//! Run with: `cargo bench -p experiments --bench sweep`

use std::sync::Arc;

use experiments::ch4::PolicySpec;
use experiments::harness::{bench_output_path, write_bench_json, BenchStats};
use experiments::sweep::{SweepExecution, SweepOutcome, SweepRunner, SweepScenario};
use memtherm::dtm::no_limit::NoLimit;
use memtherm::prelude::*;

fn grid() -> Vec<SweepScenario> {
    let specs =
        vec![PolicySpec::NoLimit, PolicySpec::Ts, PolicySpec::Acg { pid: false }, PolicySpec::Cdvfs { pid: false }];
    let mut scenarios = Vec::new();
    for cooling in [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()] {
        for mix in [workloads::mixes::w1(), workloads::mixes::w6()] {
            scenarios.push(SweepScenario::isolated(cooling, mix, specs.clone()));
        }
    }
    scenarios.push(relay_scenario());
    // Envelope-cadence cell: DTM-BW at the paper's native 10 ms interval
    // under the stronger cooling slides along its throttle threshold — the
    // plan flips every couple of windows, so the steady tier cannot engage
    // and only the envelope tier's exact decision replay carries it
    // analytically (gated below on the default-options grid:
    // grid_envelope_cycles > 0).
    scenarios.push(
        SweepScenario::isolated(CoolingConfig::fdhs_1_0(), workloads::mixes::w5(), vec![PolicySpec::Bw { pid: false }])
            .with_cadence(0.010),
    );
    scenarios
}

/// Relay-cadence cell: DTM-ACG driven at a 5 s decision interval under the
/// weaker cooling behaves as a relay oscillator locked into an exact limit
/// cycle, which the envelope must carry (gated in the `relay` case).
fn relay_scenario() -> SweepScenario {
    SweepScenario::isolated(CoolingConfig::aohs_1_5(), workloads::mixes::w1(), vec![PolicySpec::Acg { pid: false }])
        .with_cadence(5.0)
}

/// Figure 4.2's DTM-TS cell: W1 under AOHS_1.5 with the AMB release point
/// swept down to 106 °C, at the paper's 10 ms cadence. The shutdown latch
/// relays between TDP and TRP in phases thousands of windows long.
fn ts_relay_scenario() -> SweepScenario {
    SweepScenario::isolated(CoolingConfig::aohs_1_5(), workloads::mixes::w1(), vec![PolicySpec::Ts])
        .with_limits(ThermalLimits::paper_fbdimm().with_amb_trp(106.0))
        .with_cadence(0.010)
}

/// Largest relative disagreement between two runs of the same grid over
/// every reported scalar of every cell, including the per-position peaks
/// (mode-residency fractions are compared absolutely).
fn max_rel_err(runs: &SweepOutcome, reference: &SweepOutcome) -> f64 {
    let rel_err = |a: f64, b: f64| -> f64 {
        if a == b || (a.is_nan() && b.is_nan()) {
            0.0
        } else {
            (a - b).abs() / b.abs().max(1e-12)
        }
    };
    let mut max_err = 0.0f64;
    for (e, l) in runs.runs.iter().zip(reference.runs.iter()) {
        assert_eq!(e.result.completed, l.result.completed, "{}/{}/{}", e.cooling, e.workload, e.policy);
        let pairs = [
            (e.result.running_time_s, l.result.running_time_s),
            (e.result.total_instructions, l.result.total_instructions),
            (e.result.total_memory_bytes, l.result.total_memory_bytes),
            (e.result.total_l2_misses, l.result.total_l2_misses),
            (e.result.memory_energy_j, l.result.memory_energy_j),
            (e.result.cpu_energy_j, l.result.cpu_energy_j),
            (e.result.avg_memory_power_w, l.result.avg_memory_power_w),
            (e.result.avg_cpu_power_w, l.result.avg_cpu_power_w),
            (e.result.avg_ambient_c, l.result.avg_ambient_c),
            (e.result.max_amb_c, l.result.max_amb_c),
            (e.result.max_dram_c, l.result.max_dram_c),
            (e.result.migrated_traffic_bytes, l.result.migrated_traffic_bytes),
        ];
        for (a, b) in pairs {
            max_err = max_err.max(rel_err(a, b));
        }
        for (ep, lp) in e.result.position_peaks.iter().zip(l.result.position_peaks.iter()) {
            for (a, b) in ep.layers_c.iter().zip(lp.layers_c.iter()) {
                max_err = max_err.max(rel_err(*a, *b));
            }
        }
        for (key, a) in &e.result.mode_residency {
            let b = l.result.mode_residency.get(key).copied().unwrap_or(0.0);
            max_err = max_err.max((a - b).abs());
        }
    }
    max_err
}

fn main() {
    let scenarios = grid();
    let cells: usize = scenarios.iter().map(SweepScenario::cells).sum();
    let make = |cooling: CoolingConfig| MemSpotConfig {
        copies_per_app: 24,
        instruction_scale: 1.0,
        characterization_budget: 15_000,
        ..MemSpotConfig::paper(cooling)
    };

    const PASSES: usize = 3;
    let mut seq_ms = Vec::with_capacity(PASSES);
    let mut par_ms = Vec::with_capacity(PASSES);
    let mut last_parallel = None;
    for _ in 0..PASSES {
        seq_ms.push(SweepRunner::with_threads(1).run(&scenarios, make).wall_clock_s * 1e3);
        let parallel = SweepRunner::new().run(&scenarios, make);
        par_ms.push(parallel.wall_clock_s * 1e3);
        last_parallel = Some(parallel);
    }
    let parallel = last_parallel.expect("at least one parallel pass");
    let min = |xs: &[f64]| xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let speedup = min(&seq_ms) / min(&par_ms).max(1e-9);

    println!("sweep grid: {} cells, {PASSES} passes per variant", cells);
    println!(
        "sweep/sequential_1_worker                    {:>10.3} ms/pass (min {:.3} ms)",
        mean(&seq_ms),
        min(&seq_ms)
    );
    println!(
        "sweep/parallel_{}_workers                     {:>10.3} ms/pass (min {:.3} ms, {speedup:.2}x best-of-{PASSES} speedup)",
        parallel.threads,
        mean(&par_ms),
        min(&par_ms)
    );
    println!(
        "char store: {} hits / {} misses (last parallel pass)",
        parallel.char_store_hits, parallel.char_store_misses
    );

    // Batched-engine case: the batched lockstep engine + steady-state
    // fast-forward against the per-cell engine, both on ONE worker and both
    // against the same pre-warmed shared `CharStore`, so the comparison
    // isolates exactly the window-loop work the batched engine restructures
    // (level-1 characterization is identical either way and excluded).
    // The exact-tier cases (batched, lane-parallel) run with the envelope
    // tier off: they measure and gate the bit-identical layout tiers and
    // the steady-state fast-forward. The `relay` and `paper_cadence` cases
    // below own the envelope tier.
    let exact_ff = BatchOptions { envelope_tolerance: 0.0, ..BatchOptions::default() };
    let warm_store = Arc::new(CharStore::new());
    SweepRunner::with_threads(1)
        .with_char_store(Arc::clone(&warm_store))
        .with_execution(SweepExecution::PerCell)
        .run(&scenarios, make);
    let mut percell_ms = Vec::with_capacity(PASSES);
    let mut batched_ms = Vec::with_capacity(PASSES);
    let mut last_batched = None;
    for _ in 0..PASSES {
        percell_ms.push(
            SweepRunner::with_threads(1)
                .with_char_store(Arc::clone(&warm_store))
                .with_execution(SweepExecution::PerCell)
                .run(&scenarios, make)
                .wall_clock_s
                * 1e3,
        );
        let batched = SweepRunner::with_threads(1)
            .with_char_store(Arc::clone(&warm_store))
            .with_batch_options(exact_ff)
            .run(&scenarios, make);
        batched_ms.push(batched.wall_clock_s * 1e3);
        last_batched = Some(batched);
    }
    let batched = last_batched.expect("at least one batched pass");
    let batched_vs_sequential_speedup = min(&percell_ms) / min(&batched_ms).max(1e-9);
    println!(
        "sweep/warm_percell_1_worker                  {:>10.3} ms/pass (min {:.3} ms)",
        mean(&percell_ms),
        min(&percell_ms)
    );
    println!(
        "sweep/warm_batched_1_worker                  {:>10.3} ms/pass (min {:.3} ms, \
         {batched_vs_sequential_speedup:.2}x best-of-{PASSES} speedup, {} windows fast-forwarded across {} cells)",
        mean(&batched_ms),
        min(&batched_ms),
        batched.fast_forwarded_windows,
        batched.fast_forwarded_cells
    );

    // Lane-parallel case: the same warm grid, still one runner chunk (so
    // the whole grid is one batch), but the batch's lockstep lanes fanned
    // across all available cores. Bit-identical to the single-thread
    // batched run by construction; the gate only fires on multi-core hosts
    // (a 1-core container runs the worker pool degenerately).
    let lane_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut lane_ms = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        lane_ms.push(
            SweepRunner::with_threads(1)
                .with_char_store(Arc::clone(&warm_store))
                .with_batch_options(exact_ff)
                .with_execution(SweepExecution::lane_parallel(lane_workers))
                .run(&scenarios, make)
                .wall_clock_s
                * 1e3,
        );
    }
    let lane_parallel_speedup = min(&batched_ms) / min(&lane_ms).max(1e-9);
    println!(
        "sweep/warm_lane_parallel_{lane_workers}_workers            {:>10.3} ms/pass (min {:.3} ms, \
         {lane_parallel_speedup:.2}x best-of-{PASSES} vs single-thread batched)",
        mean(&lane_ms),
        min(&lane_ms)
    );

    // Relay case: the relay-cadence cell alone, default options against
    // forced literal on the warm store. Its exact limit cycle must leave
    // the lane through the envelope — the one analytic tier for
    // plan-changing orbits — within the 1e-9 bound and with the window
    // count conserved.
    let relay = [relay_scenario()];
    let relay_env = SweepRunner::with_threads(1).with_char_store(Arc::clone(&warm_store)).run(&relay, make);
    let relay_lit = SweepRunner::with_threads(1)
        .with_char_store(Arc::clone(&warm_store))
        .with_batch_options(BatchOptions::literal())
        .run(&relay, make);
    let relay_max_rel_err = max_rel_err(&relay_env, &relay_lit);
    let relay_env_windows = relay_env.stepped_windows + relay_env.fast_forwarded_windows;
    println!(
        "sweep/relay                                  {} of {} windows fast-forwarded, {} envelope \
         pseudo-cycles, max rel err {relay_max_rel_err:.2e}",
        relay_env.fast_forwarded_windows, relay_env_windows, relay_env.envelope_cycles
    );

    // DTM-TS relay case: Figure 4.2's shutdown relay at 10 ms, default
    // options against forced literal on the warm store, best-of-3 each.
    let ts_relay = [ts_relay_scenario()];
    let mut ts_relay_env_ms = Vec::with_capacity(PASSES);
    let mut ts_relay_lit_ms = Vec::with_capacity(PASSES);
    let mut ts_relay_runs = None;
    for _ in 0..PASSES {
        let env = SweepRunner::with_threads(1).with_char_store(Arc::clone(&warm_store)).run(&ts_relay, make);
        let lit = SweepRunner::with_threads(1)
            .with_char_store(Arc::clone(&warm_store))
            .with_batch_options(BatchOptions::literal())
            .run(&ts_relay, make);
        ts_relay_env_ms.push(env.wall_clock_s * 1e3);
        ts_relay_lit_ms.push(lit.wall_clock_s * 1e3);
        ts_relay_runs = Some((env, lit));
    }
    let (ts_relay_env, ts_relay_lit) = ts_relay_runs.expect("at least one DTM-TS relay pass");
    let ts_relay_speedup = min(&ts_relay_lit_ms) / min(&ts_relay_env_ms).max(1e-9);
    let ts_relay_max_rel_err = max_rel_err(&ts_relay_env, &ts_relay_lit);
    let ts_relay_env_windows = ts_relay_env.stepped_windows + ts_relay_env.fast_forwarded_windows;
    println!(
        "sweep/ts_relay_envelope                      {:>10.3} ms/pass (min {:.3} ms, {ts_relay_speedup:.2}x \
         best-of-{PASSES} vs literal {:.3} ms, {} of {} windows fast-forwarded, {} envelope pseudo-cycles, \
         max rel err {ts_relay_max_rel_err:.2e})",
        mean(&ts_relay_env_ms),
        min(&ts_relay_env_ms),
        min(&ts_relay_lit_ms),
        ts_relay_env.fast_forwarded_windows,
        ts_relay_env_windows,
        ts_relay_env.envelope_cycles
    );

    // Stacked window-cost case: the cached Ψ-superposition path must keep a
    // 4-high stack's literal per-window cost within 2x of the FBDIMM
    // identity-split path, despite stepping 2.5x the RC rows per position.
    // Direct BatchedSimEngine runs expose the stepped-window counts the
    // normalization needs; literal options keep the fast-forward out of the
    // denominator.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let fb_power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let window_engine = BatchedSimEngine::new(&cpu, &mem, &fb_power, &cpu_power);
    let window_store = Arc::new(CharStore::new());
    let window_cells = |stack: StackKind| -> Vec<BatchCell> {
        let cfg = make(CoolingConfig::aohs_1_5()).with_stack(stack);
        [Box::new(NoLimit::new(&cpu)) as Box<dyn DtmPolicy>, Box::new(DtmTs::new(cpu.clone(), cfg.limits))]
            .into_iter()
            .map(|policy| {
                BatchCell::new(&cpu, &mem, cfg, workloads::mixes::w1(), policy, Arc::clone(&window_store))
                    .with_rotation_threads(1)
            })
            .collect()
    };
    let window_cost_us = |stack: StackKind| -> f64 {
        let _ = window_engine.run(window_cells(stack), &BatchOptions::literal()); // warm the store
        (0..PASSES)
            .map(|_| {
                let start = std::time::Instant::now();
                let out = window_engine.run(window_cells(stack), &BatchOptions::literal());
                let windows: u64 = out.iter().map(|(_, s)| s.stepped_windows).sum();
                start.elapsed().as_secs_f64() * 1e6 / windows.max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let fbdimm_window_us = window_cost_us(StackKind::Fbdimm);
    let stacked_window_us = window_cost_us(StackKind::stacked4());
    let stacked_window_cost_ratio = stacked_window_us / fbdimm_window_us.max(1e-9);
    println!(
        "sweep/stacked_window_cost                    {:>10.3} us/window vs {:.3} us/window FBDIMM \
         ({stacked_window_cost_ratio:.2}x, best-of-{PASSES})",
        stacked_window_us, fbdimm_window_us
    );

    // Stacked-scenario case: 4-high 3D stacks through the same machinery.
    let stacked_scenarios = vec![
        SweepScenario::stacked(
            CoolingConfig::aohs_1_5(),
            StackKind::stacked4(),
            workloads::mixes::w1(),
            vec![PolicySpec::NoLimit, PolicySpec::Ts],
        ),
        SweepScenario::stacked(
            CoolingConfig::fdhs_1_0(),
            StackKind::stacked4(),
            workloads::mixes::w6(),
            vec![PolicySpec::NoLimit],
        ),
    ];
    let stacked_start = std::time::Instant::now();
    let stacked = SweepRunner::new().run(&stacked_scenarios, make);
    let stacked_ms = stacked_start.elapsed().as_secs_f64() * 1e3;
    // Per-layer peak spread of the thermally unconstrained W1 run: inner
    // die (layer 1, next to the base) vs spreader-side outer die (layer 4).
    let no_limit = stacked.runs.iter().find(|r| r.policy == "No-limit").expect("stacked baseline");
    let hot = no_limit.result.hottest_position().expect("stacked peaks");
    let layer_spread_c = hot.layers_c[1] - hot.layers_c[hot.layers_c.len() - 1];
    println!(
        "sweep/stacked_3d_4h                          {:>10.3} ms ({} cells, inner-outer die spread {:.2} degC)",
        stacked_ms,
        stacked.runs.len(),
        layer_spread_c
    );

    // Spatial-DTM case: global DTM-BW vs migration-aware DTM-MIG on the
    // 4-high stack grid. DTM-MIG steers traffic off the hottest position,
    // so its hottest-vs-coldest position peak spread must come in strictly
    // below DTM-BW's.
    let spatial_scenarios = vec![SweepScenario::stacked(
        CoolingConfig::aohs_1_5(),
        StackKind::stacked4(),
        workloads::mixes::w1(),
        vec![PolicySpec::Bw { pid: false }, PolicySpec::Mig],
    )];
    let spatial_start = std::time::Instant::now();
    let spatial = SweepRunner::new().run(&spatial_scenarios, make);
    let spatial_ms = spatial_start.elapsed().as_secs_f64() * 1e3;
    let bw_run = spatial.runs.iter().find(|r| r.policy == "DTM-BW").expect("spatial DTM-BW cell");
    let mig_run = spatial.runs.iter().find(|r| r.policy == "DTM-MIG").expect("spatial DTM-MIG cell");
    let bw_spread_c = bw_run.result.position_peak_spread_c();
    let mig_spread_c = mig_run.result.position_peak_spread_c();
    let mig_spread_reduction_c = bw_spread_c - mig_spread_c;
    println!(
        "sweep/spatial_dtm_4h                         {:>10.3} ms (spread {:.2} degC BW vs {:.2} degC MIG, \
         reduction {:.2} degC, {:.2} GB migrated)",
        spatial_ms,
        bw_spread_c,
        mig_spread_c,
        mig_spread_reduction_c,
        mig_run.result.migrated_traffic_bytes / 1e9
    );

    // Paper-cadence case: the tentpole gate of the envelope fast-forward.
    // 16 pure-policy cells at the paper's native 10 ms DTM cadence spanning
    // all four policies, both coolings, and six workload mixes, envelope
    // execution (all analytic tiers on) vs forced-literal stepping, both
    // single-threaded against the same warm store. Most cells here settle
    // into a frozen throttle plan whose two-exponential relaxation the
    // envelope tier certifies and jumps in closed form; DTM-BW is
    // threshold-pinned sliding mode on every mix (the plan flips every few
    // windows), and those cells are carried by the exact decision replay:
    // the binding rows and ambient are iterated bitwise-literally, every
    // window's decision is re-evaluated against the policy's decision
    // regions, and the dominated rows are closed per plan-run from the
    // run-length-encoded log — two BW cells stay in the grid as exactly
    // that worst case. Gates: best-of-3 speedup >= 20x, summed analytic
    // replay <= 25 ms, envelope_cycles > 0, every reported scalar within
    // relative 1e-9 of literal, and the simulated window count conserved
    // exactly. The per-phase wall-clock breakdown (detector / verification
    // / analytic replay / literal stepping) is recorded from the envelope
    // run's cell counters.
    let nl = PolicySpec::NoLimit;
    let bw = PolicySpec::Bw { pid: false };
    let acg = PolicySpec::Acg { pid: false };
    let cdvfs = PolicySpec::Cdvfs { pid: false };
    let aohs = CoolingConfig::aohs_1_5;
    let fdhs = CoolingConfig::fdhs_1_0;
    let paper_scenarios: Vec<SweepScenario> = vec![
        SweepScenario::isolated(aohs(), workloads::mixes::w2(), vec![nl, acg, cdvfs]),
        SweepScenario::isolated(aohs(), workloads::mixes::w4(), vec![cdvfs]),
        SweepScenario::isolated(aohs(), workloads::mixes::w5(), vec![nl, acg]),
        SweepScenario::isolated(aohs(), workloads::mixes::w7(), vec![acg]),
        SweepScenario::isolated(fdhs(), workloads::mixes::w2(), vec![nl, acg, cdvfs]),
        SweepScenario::isolated(fdhs(), workloads::mixes::w5(), vec![acg, bw]),
        SweepScenario::isolated(fdhs(), workloads::mixes::w6(), vec![nl, acg]),
        SweepScenario::isolated(fdhs(), workloads::mixes::w7(), vec![acg]),
        SweepScenario::isolated(fdhs(), workloads::mixes::w8(), vec![bw]),
    ]
    .into_iter()
    .map(|s| s.with_cadence(0.010))
    .collect();
    let paper_cells: usize = paper_scenarios.iter().map(SweepScenario::cells).sum();
    let paper_store = Arc::new(CharStore::new());
    SweepRunner::with_threads(1).with_char_store(Arc::clone(&paper_store)).run(&paper_scenarios, make); // warm
    let mut paper_env_ms = Vec::with_capacity(PASSES);
    let mut paper_lit_ms = Vec::with_capacity(PASSES);
    // Keep the counters of the *fastest* pass: the wall-clock gates are
    // best-of-3 to filter scheduler noise, so the per-phase split and the
    // replay gate must describe the same pass the speedup is measured on.
    let mut best_env = None;
    let mut last_lit = None;
    for _ in 0..PASSES {
        let env = SweepRunner::with_threads(1).with_char_store(Arc::clone(&paper_store)).run(&paper_scenarios, make);
        paper_env_ms.push(env.wall_clock_s * 1e3);
        if best_env.as_ref().is_none_or(|b: &SweepOutcome| env.wall_clock_s < b.wall_clock_s) {
            best_env = Some(env);
        }
        let lit = SweepRunner::with_threads(1)
            .with_char_store(Arc::clone(&paper_store))
            .with_batch_options(BatchOptions::literal())
            .run(&paper_scenarios, make);
        paper_lit_ms.push(lit.wall_clock_s * 1e3);
        last_lit = Some(lit);
    }
    let env = best_env.expect("at least one envelope pass");
    let lit = last_lit.expect("at least one literal pass");
    let paper_cadence_speedup = min(&paper_lit_ms) / min(&paper_env_ms).max(1e-9);
    let envelope_max_rel_err = max_rel_err(&env, &lit);
    // Exact window conservation: literal runs everything literally, so its
    // stepped count is the true window count of the grid.
    let env_windows = env.stepped_windows + env.fast_forwarded_windows;
    let lit_windows = lit.stepped_windows + lit.fast_forwarded_windows;
    let detector_ms = env.detector_ns as f64 / 1e6;
    let verify_ms = env.verify_ns as f64 / 1e6;
    let replay_ms = env.replay_ns as f64 / 1e6;
    let literal_ms = (min(&paper_env_ms) - detector_ms - verify_ms - replay_ms).max(0.0);
    println!(
        "sweep/paper_cadence_literal                  {:>10.3} ms/pass (min {:.3} ms, {paper_cells} cells at 10 ms)",
        mean(&paper_lit_ms),
        min(&paper_lit_ms)
    );
    println!(
        "sweep/paper_cadence_envelope                 {:>10.3} ms/pass (min {:.3} ms, \
         {paper_cadence_speedup:.2}x best-of-{PASSES} vs literal, {} envelope pseudo-cycles, \
         max rel err {envelope_max_rel_err:.2e})",
        mean(&paper_env_ms),
        min(&paper_env_ms),
        env.envelope_cycles
    );
    println!(
        "  phase breakdown: detector {detector_ms:.3} ms, verify {verify_ms:.3} ms, \
         replay {replay_ms:.3} ms, literal stepping {literal_ms:.3} ms"
    );

    let stats = [
        BenchStats {
            label: "sweep/sequential_1_worker".to_string(),
            mean_ms: mean(&seq_ms),
            min_ms: min(&seq_ms),
            iters: PASSES,
        },
        BenchStats {
            label: format!("sweep/parallel_{}_workers", parallel.threads),
            mean_ms: mean(&par_ms),
            min_ms: min(&par_ms),
            iters: PASSES,
        },
        BenchStats {
            label: "sweep/warm_percell_1_worker".to_string(),
            mean_ms: mean(&percell_ms),
            min_ms: min(&percell_ms),
            iters: PASSES,
        },
        BenchStats {
            label: "sweep/warm_batched_1_worker".to_string(),
            mean_ms: mean(&batched_ms),
            min_ms: min(&batched_ms),
            iters: PASSES,
        },
        BenchStats {
            label: format!("sweep/warm_lane_parallel_{lane_workers}_workers"),
            mean_ms: mean(&lane_ms),
            min_ms: min(&lane_ms),
            iters: PASSES,
        },
        BenchStats {
            label: "sweep/ts_relay_literal".to_string(),
            mean_ms: mean(&ts_relay_lit_ms),
            min_ms: min(&ts_relay_lit_ms),
            iters: PASSES,
        },
        BenchStats {
            label: "sweep/ts_relay_envelope".to_string(),
            mean_ms: mean(&ts_relay_env_ms),
            min_ms: min(&ts_relay_env_ms),
            iters: PASSES,
        },
        BenchStats { label: "sweep/stacked_3d_4h".to_string(), mean_ms: stacked_ms, min_ms: stacked_ms, iters: 1 },
        BenchStats { label: "sweep/spatial_dtm_4h".to_string(), mean_ms: spatial_ms, min_ms: spatial_ms, iters: 1 },
        BenchStats {
            label: "sweep/paper_cadence_literal".to_string(),
            mean_ms: mean(&paper_lit_ms),
            min_ms: min(&paper_lit_ms),
            iters: PASSES,
        },
        BenchStats {
            label: "sweep/paper_cadence_envelope".to_string(),
            mean_ms: mean(&paper_env_ms),
            min_ms: min(&paper_env_ms),
            iters: PASSES,
        },
    ];
    let metrics = [
        ("cells", cells as f64),
        ("threads", parallel.threads as f64),
        ("speedup", speedup),
        ("char_store_hits", parallel.char_store_hits as f64),
        ("char_store_misses", parallel.char_store_misses as f64),
        ("batched_vs_sequential_speedup", batched_vs_sequential_speedup),
        ("fast_forwarded_windows", batched.fast_forwarded_windows as f64),
        ("fast_forwarded_cells", batched.fast_forwarded_cells as f64),
        ("relay_envelope_cycles", relay_env.envelope_cycles as f64),
        ("relay_max_rel_err", relay_max_rel_err),
        ("ts_relay_speedup", ts_relay_speedup),
        ("ts_relay_envelope_cycles", ts_relay_env.envelope_cycles as f64),
        ("ts_relay_max_rel_err", ts_relay_max_rel_err),
        ("envelope_cycles", batched.envelope_cycles as f64),
        ("grid_envelope_cycles", parallel.envelope_cycles as f64),
        // Per-phase split of the default grid, both flavors: the warm
        // batched run times the steady tier (envelope off), the
        // default-options run times both tiers including the envelope
        // cells, so a regression in either tier is attributable from the
        // artifact alone.
        ("batched_detector_ms", batched.detector_ns as f64 / 1e6),
        ("batched_verify_ms", batched.verify_ns as f64 / 1e6),
        ("batched_replay_ms", batched.replay_ns as f64 / 1e6),
        ("grid_detector_ms", parallel.detector_ns as f64 / 1e6),
        ("grid_verify_ms", parallel.verify_ns as f64 / 1e6),
        ("grid_replay_ms", parallel.replay_ns as f64 / 1e6),
        ("lane_workers", lane_workers as f64),
        ("lane_parallel_speedup", lane_parallel_speedup),
        ("stacked_window_cost_ratio", stacked_window_cost_ratio),
        ("fbdimm_window_us", fbdimm_window_us),
        ("stacked_window_us", stacked_window_us),
        ("stacked_cells", stacked.runs.len() as f64),
        ("stacked_layer_spread_c", layer_spread_c),
        ("bw_position_spread_c", bw_spread_c),
        ("mig_position_spread_c", mig_spread_c),
        ("mig_spread_reduction_c", mig_spread_reduction_c),
        ("mig_migrated_gb", mig_run.result.migrated_traffic_bytes / 1e9),
        ("paper_cadence_cells", paper_cells as f64),
        ("paper_cadence_speedup", paper_cadence_speedup),
        ("paper_cadence_envelope_cycles", env.envelope_cycles as f64),
        ("paper_cadence_max_rel_err", envelope_max_rel_err),
        ("paper_cadence_windows", lit_windows as f64),
        ("paper_cadence_detector_ms", detector_ms),
        ("paper_cadence_verify_ms", verify_ms),
        ("paper_cadence_replay_ms", replay_ms),
        ("paper_cadence_literal_step_ms", literal_ms),
    ];
    let path = bench_output_path("BENCH_sweep.json");
    write_bench_json(&path, &stats, &metrics).expect("write BENCH_sweep.json");
    println!("wrote {}", path.display());

    if batched_vs_sequential_speedup < 1.2 {
        eprintln!(
            "FAIL: batched engine's best-of-{PASSES} speedup over the per-cell engine is \
             {batched_vs_sequential_speedup:.2}x, below the 1.2x gate (both single-threaded, warm store)"
        );
        std::process::exit(1);
    }
    if parallel.threads >= 2 && speedup < 1.2 {
        eprintln!(
            "FAIL: best-of-{PASSES} parallel speedup {speedup:.2}x on {} workers is below the 1.2x gate",
            parallel.threads
        );
        std::process::exit(1);
    }
    if lane_workers >= 2 && lane_parallel_speedup < 1.2 {
        eprintln!(
            "FAIL: best-of-{PASSES} lane-parallel speedup {lane_parallel_speedup:.2}x on \
             {lane_workers} workers is below the 1.2x gate (vs single-thread batched, warm store)"
        );
        std::process::exit(1);
    }
    if stacked_window_cost_ratio > 2.0 {
        eprintln!(
            "FAIL: a 4-high stack's literal per-window cost is {stacked_window_cost_ratio:.2}x \
             FBDIMM's, above the 2x gate (cached Ψ-superposition path regressed)"
        );
        std::process::exit(1);
    }
    let spread_resolved = layer_spread_c.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !spread_resolved {
        eprintln!(
            "FAIL: stacked sweep must resolve a nonzero per-layer peak spread \
             (inner die hotter than the outer die under load), got {layer_spread_c:.3} degC"
        );
        std::process::exit(1);
    }
    let migration_flattens = mig_spread_reduction_c.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !migration_flattens {
        eprintln!(
            "FAIL: DTM-MIG must reduce the hottest-vs-coldest position spread vs DTM-BW \
             on the 4-high stack, got {mig_spread_reduction_c:.3} degC"
        );
        std::process::exit(1);
    }
    let relay_within_bound = relay_max_rel_err.partial_cmp(&1e-9) != Some(std::cmp::Ordering::Greater);
    if relay_env.envelope_cycles == 0 || !relay_within_bound || relay_env_windows != relay_lit.stepped_windows {
        eprintln!(
            "FAIL: the relay-cadence cell (DTM-ACG at a 5 s interval) must leave the lane through \
             the envelope within 1e-9 with its window count conserved: {} pseudo-cycles, max rel \
             err {relay_max_rel_err:.3e}, {relay_env_windows} windows vs {} literal",
            relay_env.envelope_cycles, relay_lit.stepped_windows
        );
        std::process::exit(1);
    }
    let ts_relay_within_bound = ts_relay_max_rel_err.partial_cmp(&1e-9) != Some(std::cmp::Ordering::Greater);
    if ts_relay_env.envelope_cycles == 0
        || !ts_relay_within_bound
        || ts_relay_env_windows != ts_relay_lit.stepped_windows
        || ts_relay_speedup < 10.0
    {
        eprintln!(
            "FAIL: the DTM-TS relay cell (AOHS_1.5, AMB TRP 106 degC, 10 ms) must ride the envelope \
             within 1e-9 with its window count conserved and at least 10x over literal: {} \
             pseudo-cycles, max rel err {ts_relay_max_rel_err:.3e}, {ts_relay_env_windows} windows vs \
             {} literal, {ts_relay_speedup:.2}x",
            ts_relay_env.envelope_cycles, ts_relay_lit.stepped_windows
        );
        std::process::exit(1);
    }
    if parallel.envelope_cycles == 0 {
        eprintln!(
            "FAIL: the envelope-cadence cell (DTM-BW at a 10 ms interval) must engage the \
             envelope fast-forward on the default-options grid, got 0 pseudo-cycles"
        );
        std::process::exit(1);
    }
    if paper_cadence_speedup < 20.0 {
        eprintln!(
            "FAIL: envelope execution's best-of-{PASSES} speedup over literal stepping at the \
             paper's 10 ms cadence is {paper_cadence_speedup:.2}x, below the 20x gate"
        );
        std::process::exit(1);
    }
    if replay_ms > 25.0 {
        eprintln!(
            "FAIL: the envelope tier's analytic replay took {replay_ms:.1} ms summed over the \
             paper-cadence grid, above the 25 ms gate (plan-run-length accounting regressed)"
        );
        std::process::exit(1);
    }
    if env.envelope_cycles == 0 {
        eprintln!("FAIL: the paper-cadence grid must engage the envelope fast-forward, got 0 pseudo-cycles");
        std::process::exit(1);
    }
    let within_bound = envelope_max_rel_err.partial_cmp(&1e-9) != Some(std::cmp::Ordering::Greater);
    if !within_bound {
        eprintln!(
            "FAIL: envelope execution diverged from literal stepping by a max relative error of \
             {envelope_max_rel_err:.3e}, above the certified 1e-9 bound"
        );
        std::process::exit(1);
    }
    if env_windows != lit_windows {
        eprintln!(
            "FAIL: envelope execution must conserve the simulated window count exactly: \
             {env_windows} (stepped + fast-forwarded) vs {lit_windows} literal"
        );
        std::process::exit(1);
    }
}
