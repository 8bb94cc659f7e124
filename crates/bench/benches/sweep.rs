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
//! pre-warmed shared `CharStore`, per-cell engine vs the literal batched
//! lockstep engine, and gates the batched engine's best-of-3 speedup at
//! 1.2x (`batched_vs_sequential_speedup`).
//!
//! A `lane_parallel` case reruns the warm grid as ONE batch whose lockstep
//! lanes fan across all cores (`SweepExecution::lane_parallel`), gating the
//! best-of-3 speedup over the single-thread batched run at 1.2x on 2+-core
//! hosts. A `stacked_window_cost` case then measures the literal per-window
//! cost of a 4-high 3D stack against the FBDIMM identity-split path through
//! direct `BatchedSimEngine` runs and gates the ratio at 2x — the cached
//! Ψ-superposition matrices are what keep deep stacks affordable. Its
//! passes alternate between the two stacks and the gate reads the ratio of
//! the per-side minima, so host drift during the case lands on both sides.
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
//! A `pid_columns` case runs Figure 4.3's PID columns (DTM-BW, DTM-ACG
//! and DTM-CDVFS with the PID controllers, both coolings, the Smoke mixes)
//! at Smoke scale, default options against forced literal. The PID rules
//! certify and key decisions wherever their controllers are memory-one:
//! gated on every reported quantity within 1e-9, exact window counts and
//! at least 40% fewer windows stepped in the lane than literal stepping.
//!
//! A `chatter_columns` case runs Figure 4.3's DTM-ACG and DTM-CDVFS columns
//! at Quick scale and the 10 ms cadence (both coolings, the eight mixes,
//! one warm store), default options against forced literal. Near-twin rows
//! on the two channels defeat the decision replay's dominance certificate
//! there, and the replay steps them as literal rows. Gated on counts, not
//! time: every reported quantity within 1e-9, exact window counts, and at
//! most 10% of the windows the bursts stepped one at a time before the
//! replay stepped literal rows (`CHATTER_BURST_STEPPED_BEFORE`).
//!
//! Beside each gated wall-clock phase — the paper-cadence envelope, its
//! analytic replay and the stacked-vs-FBDIMM window cost — the bench
//! prints and records the thread's on-CPU and run-queue-wait time from
//! `/proc/thread-self/schedstat`, so a gate that fails because the thread
//! waited for a core shows as such. No gate reads them.
//!
//! At the end the bench prints and records its own peak resident set size
//! (`peak_rss_mb`, the `VmHWM` line of `/proc/self/status`), so the
//! artifact shows what the whole run held at once. No gate reads it.
//!
//! The batch size is a few times the `Smoke` scale: large enough that the
//! parallelizable window loops dominate the (partly serialized, shared)
//! level-1 characterizations, which keeps the speedup measurement stable on
//! small CI runners while still finishing in a few seconds.
//!
//! Run with: `cargo bench -p experiments --bench sweep`

use std::sync::Arc;

use experiments::ch4::PolicySpec;
use experiments::harness::{bench_output_path, write_bench_json, BenchStats, Scale};
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
    // plan flips every couple of windows, so only the envelope tier's exact
    // decision replay carries it analytically (gated below on the
    // default-options grid: grid_envelope_cycles > 0).
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

/// Windows the `chatter_columns` grid stepped one at a time inside envelope
/// bursts when the decision replay still refused any segment whose
/// dominance certificate failed for one row: the reference its count gate
/// is measured against.
const CHATTER_BURST_STEPPED_BEFORE: u64 = 453_742;

/// The calling thread's on-CPU and run-queue-wait nanoseconds so far:
/// fields 1 and 2 of `/proc/thread-self/schedstat`, `(0, 0)` where the
/// file is missing or unreadable. A wall-clock phase that reads slow while
/// its CPU time holds was waiting for a core, not working. The kernel folds
/// a running thread's time into these fields only when it schedules, so
/// the thread yields first: otherwise the reading lags by up to a tick.
fn thread_sched_ns() -> (u64, u64) {
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Runs `f` on the calling thread and returns its result with the on-CPU
/// and run-queue-wait milliseconds it took ([`thread_sched_ns`]).
fn with_thread_ms<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (cpu0, wait0) = thread_sched_ns();
    let out = f();
    let (cpu1, wait1) = thread_sched_ns();
    (out, cpu1.saturating_sub(cpu0) as f64 / 1e6, wait1.saturating_sub(wait0) as f64 / 1e6)
}

/// Peak resident set size of this process so far, MiB: the `VmHWM` line
/// of `/proc/self/status`, NaN where it is missing or unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.split_whitespace().next()?.parse().ok()
        })
        .map_or(f64::NAN, |kib: f64| kib / 1024.0)
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

    // Batched-engine case: the literal batched lockstep engine against the
    // per-cell engine, both on ONE worker and both against the same
    // pre-warmed shared `CharStore`, so the comparison isolates exactly the
    // window-loop work the batched engine restructures (level-1
    // characterization is identical either way and excluded). The
    // bit-identical cases (batched, lane-parallel) run with the envelope
    // tier off; the `relay` and `paper_cadence` cases below own it.
    let warm_store = Arc::new(CharStore::new());
    SweepRunner::with_threads(1)
        .with_char_store(Arc::clone(&warm_store))
        .with_execution(SweepExecution::PerCell)
        .run(&scenarios, make);
    let mut percell_ms = Vec::with_capacity(PASSES);
    let mut batched_ms = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        percell_ms.push(
            SweepRunner::with_threads(1)
                .with_char_store(Arc::clone(&warm_store))
                .with_execution(SweepExecution::PerCell)
                .run(&scenarios, make)
                .wall_clock_s
                * 1e3,
        );
        batched_ms.push(
            SweepRunner::with_threads(1)
                .with_char_store(Arc::clone(&warm_store))
                .with_batch_options(BatchOptions::literal())
                .run(&scenarios, make)
                .wall_clock_s
                * 1e3,
        );
    }
    let batched_vs_sequential_speedup = min(&percell_ms) / min(&batched_ms).max(1e-9);
    println!(
        "sweep/warm_percell_1_worker                  {:>10.3} ms/pass (min {:.3} ms)",
        mean(&percell_ms),
        min(&percell_ms)
    );
    println!(
        "sweep/warm_batched_1_worker                  {:>10.3} ms/pass (min {:.3} ms, \
         {batched_vs_sequential_speedup:.2}x best-of-{PASSES} speedup)",
        mean(&batched_ms),
        min(&batched_ms)
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
                .with_batch_options(BatchOptions::literal())
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

    // PID case: Figure 4.3's PID columns at Smoke scale, default options
    // against forced literal on one warm store, best-of-3 each.
    let pid_scenarios: Vec<SweepScenario> = [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()]
        .into_iter()
        .flat_map(|cooling| {
            Scale::Smoke.ch4_mixes().into_iter().map(move |mix| {
                let pid =
                    vec![PolicySpec::Bw { pid: true }, PolicySpec::Acg { pid: true }, PolicySpec::Cdvfs { pid: true }];
                SweepScenario::isolated(cooling, mix, pid)
            })
        })
        .collect();
    let pid_make = |cooling: CoolingConfig| Scale::Smoke.memspot_config(cooling);
    let pid_store = Arc::new(CharStore::new());
    let pid_runner = || SweepRunner::with_threads(1).with_char_store(Arc::clone(&pid_store));
    pid_runner().run(&pid_scenarios, pid_make); // warm
    let mut pid_env_ms = Vec::with_capacity(PASSES);
    let mut pid_lit_ms = Vec::with_capacity(PASSES);
    let mut pid_runs = None;
    for _ in 0..PASSES {
        let env = pid_runner().run(&pid_scenarios, pid_make);
        let lit = pid_runner().with_batch_options(BatchOptions::literal()).run(&pid_scenarios, pid_make);
        pid_env_ms.push(env.wall_clock_s * 1e3);
        pid_lit_ms.push(lit.wall_clock_s * 1e3);
        pid_runs = Some((env, lit));
    }
    let (pid_env, pid_lit) = pid_runs.expect("at least one PID pass");
    let pid_max_rel_err = max_rel_err(&pid_env, &pid_lit);
    let pid_env_windows = pid_env.stepped_windows + pid_env.fast_forwarded_windows;
    println!(
        "sweep/pid_columns_envelope                   {:>10.3} ms/pass (min {:.3} ms vs literal {:.3} ms, \
         {} cells, {} of {} windows stepped, max rel err {pid_max_rel_err:.2e})",
        mean(&pid_env_ms),
        min(&pid_env_ms),
        min(&pid_lit_ms),
        pid_env.runs.len(),
        pid_env.stepped_windows,
        pid_lit.stepped_windows
    );

    // Chatter case: Figure 4.3's DTM-ACG and DTM-CDVFS columns at Quick
    // scale and the 10 ms cadence, default options against forced literal
    // over one warm store; gated on counts, not time (module docs).
    let chatter_scenarios: Vec<SweepScenario> = [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()]
        .into_iter()
        .flat_map(|cooling| {
            Scale::Quick.ch4_mixes().into_iter().map(move |mix| {
                let specs = vec![PolicySpec::Acg { pid: false }, PolicySpec::Cdvfs { pid: false }];
                SweepScenario::isolated(cooling, mix, specs).with_cadence(0.010)
            })
        })
        .collect();
    let chatter_make = |cooling: CoolingConfig| Scale::Quick.memspot_config(cooling);
    let chatter_store = Arc::new(CharStore::new());
    let chatter_runner = || SweepRunner::with_threads(1).with_char_store(Arc::clone(&chatter_store));
    chatter_runner().run(&chatter_scenarios, chatter_make); // warm
    let chatter_env = chatter_runner().run(&chatter_scenarios, chatter_make);
    let chatter_lit =
        chatter_runner().with_batch_options(BatchOptions::literal()).run(&chatter_scenarios, chatter_make);
    let chatter_max_rel_err = max_rel_err(&chatter_env, &chatter_lit);
    let chatter_env_windows = chatter_env.stepped_windows + chatter_env.fast_forwarded_windows;
    println!(
        "sweep/chatter_columns_envelope               {:>10.3} ms (vs literal {:.3} ms, {} cells, {} of {} \
         windows replayed in {} constant-plan runs, {} stepped one at a time in bursts (was \
         {CHATTER_BURST_STEPPED_BEFORE}), max rel err {chatter_max_rel_err:.2e})",
        chatter_env.wall_clock_s * 1e3,
        chatter_lit.wall_clock_s * 1e3,
        chatter_env.runs.len(),
        chatter_env.replayed_windows,
        chatter_lit.stepped_windows,
        chatter_env.replay_runs,
        chatter_env.burst_stepped_windows
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
            .map(|policy| BatchCell::new(&cpu, &mem, cfg, workloads::mixes::w1(), policy, Arc::clone(&window_store)))
            .collect()
    };
    // Per-window wall, CPU and run-queue-wait microseconds of one pass.
    let window_cost_us = |stack: StackKind| -> (f64, f64, f64) {
        let start = std::time::Instant::now();
        let (out, cpu_ms, wait_ms) =
            with_thread_ms(|| window_engine.run(window_cells(stack), &BatchOptions::literal()));
        let windows = out.iter().map(|(_, s)| s.stepped_windows).sum::<u64>().max(1) as f64;
        (start.elapsed().as_secs_f64() * 1e6 / windows, cpu_ms * 1e3 / windows, wait_ms * 1e3 / windows)
    };
    // Warm the store for both stacks, then alternate the passes (FBDIMM,
    // stacked, FBDIMM, …) so host drift lands on both sides of the ratio
    // alike; each side keeps its pass with the least wall time.
    for stack in [StackKind::Fbdimm, StackKind::stacked4()] {
        let _ = window_engine.run(window_cells(stack), &BatchOptions::literal());
    }
    let best = |best: (f64, f64, f64), pass: (f64, f64, f64)| if pass.0 < best.0 { pass } else { best };
    let (mut fbdimm_window, mut stacked_window) = ((f64::INFINITY, 0.0, 0.0), (f64::INFINITY, 0.0, 0.0));
    for _ in 0..PASSES {
        fbdimm_window = best(fbdimm_window, window_cost_us(StackKind::Fbdimm));
        stacked_window = best(stacked_window, window_cost_us(StackKind::stacked4()));
    }
    let (fbdimm_window_us, fbdimm_window_cpu_us, fbdimm_window_wait_us) = fbdimm_window;
    let (stacked_window_us, stacked_window_cpu_us, stacked_window_wait_us) = stacked_window;
    let stacked_window_cost_ratio = stacked_window_us / fbdimm_window_us.max(1e-9);
    let stacked_window_cpu_ratio = stacked_window_cpu_us / fbdimm_window_cpu_us.max(1e-9);
    println!(
        "sweep/stacked_window_cost                    {:>10.3} us/window vs {:.3} us/window FBDIMM \
         ({stacked_window_cost_ratio:.2}x, best-of-{PASSES}; CPU {stacked_window_cpu_us:.3} vs \
         {fbdimm_window_cpu_us:.3} us/window, {stacked_window_cpu_ratio:.2}x; run-queue wait \
         {stacked_window_wait_us:.3} vs {fbdimm_window_wait_us:.3} us/window)",
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
    // the ambient and the literal rows (each device kind's binding row,
    // plus any row the dominance certificate cannot clear) are iterated
    // bitwise-literally, every window's decision is re-evaluated from their
    // maxima, and the dominated rows are closed per plan-run from the
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
    // Its on-CPU and run-queue-wait times ride along: a gate that fails
    // while the CPU time holds failed because the thread waited.
    let mut best_env = None;
    let mut last_lit = None;
    for _ in 0..PASSES {
        let (env, cpu_ms, wait_ms) = with_thread_ms(|| {
            SweepRunner::with_threads(1).with_char_store(Arc::clone(&paper_store)).run(&paper_scenarios, make)
        });
        paper_env_ms.push(env.wall_clock_s * 1e3);
        if best_env.as_ref().is_none_or(|(b, _, _): &(SweepOutcome, f64, f64)| env.wall_clock_s < b.wall_clock_s) {
            best_env = Some((env, cpu_ms, wait_ms));
        }
        let lit = SweepRunner::with_threads(1)
            .with_char_store(Arc::clone(&paper_store))
            .with_batch_options(BatchOptions::literal())
            .run(&paper_scenarios, make);
        paper_lit_ms.push(lit.wall_clock_s * 1e3);
        last_lit = Some(lit);
    }
    let (env, paper_env_cpu_ms, paper_env_wait_ms) = best_env.expect("at least one envelope pass");
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
    // The replay is timed inside the engine, per burst; its CPU time is
    // estimated from the pass's on-CPU share of its wall time.
    let paper_env_cpu_share = paper_env_cpu_ms / (paper_env_cpu_ms + paper_env_wait_ms).max(1e-9);
    let replay_cpu_ms = replay_ms * paper_env_cpu_share;
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
    println!(
        "  fastest envelope pass: CPU {paper_env_cpu_ms:.3} ms, run-queue wait {paper_env_wait_ms:.3} ms; \
         replay CPU ~{replay_cpu_ms:.3} ms; {} windows replayed, {} stepped one at a time in bursts",
        env.replayed_windows, env.burst_stepped_windows
    );
    let peak_rss_mb = peak_rss_mb();
    println!("peak resident set: {peak_rss_mb:.1} MiB (VmHWM)");

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
        BenchStats {
            label: "sweep/pid_columns_literal".to_string(),
            mean_ms: mean(&pid_lit_ms),
            min_ms: min(&pid_lit_ms),
            iters: PASSES,
        },
        BenchStats {
            label: "sweep/pid_columns_envelope".to_string(),
            mean_ms: mean(&pid_env_ms),
            min_ms: min(&pid_env_ms),
            iters: PASSES,
        },
        BenchStats {
            label: "sweep/chatter_columns_literal".to_string(),
            mean_ms: chatter_lit.wall_clock_s * 1e3,
            min_ms: chatter_lit.wall_clock_s * 1e3,
            iters: 1,
        },
        BenchStats {
            label: "sweep/chatter_columns_envelope".to_string(),
            mean_ms: chatter_env.wall_clock_s * 1e3,
            min_ms: chatter_env.wall_clock_s * 1e3,
            iters: 1,
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
        ("relay_envelope_cycles", relay_env.envelope_cycles as f64),
        ("relay_max_rel_err", relay_max_rel_err),
        ("ts_relay_speedup", ts_relay_speedup),
        ("ts_relay_envelope_cycles", ts_relay_env.envelope_cycles as f64),
        ("ts_relay_max_rel_err", ts_relay_max_rel_err),
        ("pid_columns_cells", pid_env.runs.len() as f64),
        ("pid_columns_stepped_windows", pid_env.stepped_windows as f64),
        ("pid_columns_fast_forwarded_windows", pid_env.fast_forwarded_windows as f64),
        ("pid_columns_literal_windows", pid_lit.stepped_windows as f64),
        ("pid_columns_max_rel_err", pid_max_rel_err),
        ("chatter_columns_cells", chatter_env.runs.len() as f64),
        ("chatter_columns_windows", chatter_lit.stepped_windows as f64),
        ("chatter_columns_replayed_windows", chatter_env.replayed_windows as f64),
        ("chatter_columns_replay_runs", chatter_env.replay_runs as f64),
        ("chatter_columns_burst_stepped_windows", chatter_env.burst_stepped_windows as f64),
        ("chatter_columns_burst_stepped_before", CHATTER_BURST_STEPPED_BEFORE as f64),
        ("chatter_columns_max_rel_err", chatter_max_rel_err),
        ("host_nproc", lane_workers as f64),
        ("peak_rss_mb", peak_rss_mb),
        ("grid_envelope_cycles", parallel.envelope_cycles as f64),
        // Per-phase split of the default-options grid, so a regression in
        // the envelope tier is attributable from the artifact alone.
        ("grid_detector_ms", parallel.detector_ns as f64 / 1e6),
        ("grid_verify_ms", parallel.verify_ns as f64 / 1e6),
        ("grid_replay_ms", parallel.replay_ns as f64 / 1e6),
        ("lane_workers", lane_workers as f64),
        ("lane_parallel_speedup", lane_parallel_speedup),
        ("stacked_window_cost_ratio", stacked_window_cost_ratio),
        ("fbdimm_window_us", fbdimm_window_us),
        ("stacked_window_us", stacked_window_us),
        ("stacked_window_cpu_ratio", stacked_window_cpu_ratio),
        ("fbdimm_window_cpu_us", fbdimm_window_cpu_us),
        ("stacked_window_cpu_us", stacked_window_cpu_us),
        ("fbdimm_window_wait_us", fbdimm_window_wait_us),
        ("stacked_window_wait_us", stacked_window_wait_us),
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
        ("paper_cadence_envelope_cpu_ms", paper_env_cpu_ms),
        ("paper_cadence_envelope_wait_ms", paper_env_wait_ms),
        ("paper_cadence_replay_cpu_ms", replay_cpu_ms),
        ("paper_cadence_replayed_windows", env.replayed_windows as f64),
        ("paper_cadence_burst_stepped_windows", env.burst_stepped_windows as f64),
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
    let pid_within_bound = pid_max_rel_err.partial_cmp(&1e-9) != Some(std::cmp::Ordering::Greater);
    // At least 40% fewer stepped windows, as a count: 10 · stepped ≤ 6 · literal.
    if !pid_within_bound
        || pid_env_windows != pid_lit.stepped_windows
        || 10 * pid_env.stepped_windows > 6 * pid_lit.stepped_windows
    {
        eprintln!(
            "FAIL: Figure 4.3's PID columns at Smoke scale must stay within 1e-9 of literal stepping \
             with their window count conserved and step at least 40% fewer windows: max rel err \
             {pid_max_rel_err:.3e}, {pid_env_windows} windows vs {} literal, {} stepped",
            pid_lit.stepped_windows, pid_env.stepped_windows
        );
        std::process::exit(1);
    }
    let chatter_within_bound = chatter_max_rel_err.partial_cmp(&1e-9) != Some(std::cmp::Ordering::Greater);
    if !chatter_within_bound
        || chatter_env_windows != chatter_lit.stepped_windows
        || 10 * chatter_env.burst_stepped_windows > CHATTER_BURST_STEPPED_BEFORE
    {
        eprintln!(
            "FAIL: Figure 4.3's DTM-ACG and DTM-CDVFS columns at Quick scale and 10 ms must stay within \
             1e-9 of literal stepping with their window count conserved and step at most 10% of \
             {CHATTER_BURST_STEPPED_BEFORE} windows one at a time in bursts: max rel err \
             {chatter_max_rel_err:.3e}, {chatter_env_windows} windows vs {} literal, {} burst-stepped",
            chatter_lit.stepped_windows, chatter_env.burst_stepped_windows
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
