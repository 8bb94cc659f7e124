//! Golden regression suite for the batched execution tier
//! (`memtherm::sim::batch`): the literal lockstep path must be
//! bit-identical to the per-cell engine for any batch composition, and the
//! envelope fast-forward must stay within 1e-9 of literal stepping for
//! every reported quantity.
//!
//! The bit-identity tests double as a CI guard: they assert the
//! fast-forward path never engages while literal results are being pinned
//! (`fast_forwarded_windows == 0` per cell).

use std::sync::Arc;

use dram_thermal::memtherm::dtm::{DtmTs, NoLimit};
use dram_thermal::prelude::*;

/// Tiny deterministic PRNG (xorshift64*) so the "random" batch composition
/// is reproducible from a literal seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

fn base_config(cooling: CoolingConfig) -> MemSpotConfig {
    MemSpotConfig {
        copies_per_app: 2,
        instruction_scale: 0.6,
        characterization_budget: 8_000,
        max_sim_time_s: 2_000.0,
        ..MemSpotConfig::paper(cooling)
    }
}

fn policy_for(kind: u64, cpu: &CpuConfig, limits: ThermalLimits) -> Box<dyn DtmPolicy> {
    match kind % 5 {
        0 => Box::new(NoLimit::new(cpu)),
        1 => Box::new(DtmTs::new(cpu.clone(), limits)),
        2 => Box::new(ThresholdPolicy::new(DtmScheme::Acg, cpu, limits)),
        3 => Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, cpu, limits)),
        _ => Box::new(ThresholdPolicy::with_pid(DtmScheme::Bw, cpu, limits)),
    }
}

/// Runs the same cells through the per-cell engine, one at a time.
fn run_per_cell(
    cpu: &CpuConfig,
    mem: FbdimmConfig,
    cells: Vec<BatchCell>,
    store: &Arc<CharStore>,
) -> Vec<MemSpotResult> {
    cells
        .into_iter()
        .map(|cell| {
            let mut spot = MemSpot::with_store(cpu.clone(), mem, cell.config, Arc::clone(store));
            let mut policy = cell.policy;
            spot.run(&cell.mix, policy.as_mut())
        })
        .collect()
}

#[test]
fn literal_batched_is_bit_identical_to_the_per_cell_engine_across_random_batches() {
    // Seeded sweep over {stack, dt, cooling, mix, policy} combinations: the
    // literal batched tier is a pure memory-layout transformation, so every
    // simulated quantity must carry identical bits — including heterogeneous
    // batches where cells land in different lockstep lanes (different step
    // lengths and stack topologies) and lanes whose members drop out at
    // different times.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);

    let stacks = [StackKind::Fbdimm, StackKind::RankPair, StackKind::stacked4()];
    let coolings = [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()];
    let mixes_pool = [mixes::w1(), mixes::w6()];
    let dts = [0.005, 0.010, 0.020];

    let build_cells = |rng: &mut Rng| {
        (0..6)
            .map(|i| {
                let stack = *rng.pick(&stacks);
                let mut cfg = base_config(*rng.pick(&coolings)).with_stack(stack);
                cfg.window_s = *rng.pick(&dts);
                cfg.dtm_interval_s = cfg.window_s;
                let mix = rng.pick(&mixes_pool).clone();
                let policy = policy_for(i ^ (rng.next() % 2), &cpu, cfg.limits);
                BatchCell::new(&cpu, &mem, cfg, mix, policy, Arc::clone(&store))
            })
            .collect::<Vec<_>>()
    };

    let batched_cells = build_cells(&mut rng);
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    let percell_cells = build_cells(&mut rng);

    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let batched = engine.run(batched_cells, &BatchOptions::literal());
    let per_cell = run_per_cell(&cpu, mem, percell_cells, &store);

    assert_eq!(batched.len(), per_cell.len());
    for (i, ((result, stats), expected)) in batched.iter().zip(&per_cell).enumerate() {
        // CI guard: the fast-forward path must never engage while literal
        // bit-identity is being pinned.
        assert_eq!(stats.fast_forwarded_windows, 0, "cell {i} fast-forwarded during the literal golden suite");
        assert!(stats.stepped_windows > 0, "cell {i} never stepped");
        assert_eq!(
            result, expected,
            "cell {i} ({}/{}) diverged from the per-cell engine",
            result.workload, result.policy
        );
    }
}

fn assert_abs(a: f64, b: f64, what: &str) {
    if a.is_nan() && b.is_nan() {
        return;
    }
    assert!((a - b).abs() <= 1e-9, "{what}: {a} vs {b} (abs err {})", (a - b).abs());
}

fn assert_rel(a: f64, b: f64, what: &str) {
    let denom = a.abs().max(b.abs()).max(1e-300);
    assert!(((a - b) / denom).abs() <= 1e-9, "{what}: {a} vs {b} (rel err {})", ((a - b) / denom).abs());
}

/// Field-by-field comparison of a fast-forwarded result against its literal
/// reference: temperatures and residency fractions within 1e-9 absolute,
/// energies / times / instruction counts within 1e-9 relative.
fn assert_within_ff_tolerance(ff: &MemSpotResult, lit: &MemSpotResult, label: &str) {
    assert_eq!(ff.workload, lit.workload, "{label}: workload");
    assert_eq!(ff.policy, lit.policy, "{label}: policy");
    assert_eq!(ff.completed, lit.completed, "{label}: completion");
    assert_rel(ff.running_time_s, lit.running_time_s, &format!("{label}: running_time_s"));
    assert_rel(ff.total_instructions, lit.total_instructions, &format!("{label}: total_instructions"));
    assert_rel(ff.total_memory_bytes, lit.total_memory_bytes, &format!("{label}: total_memory_bytes"));
    assert_rel(ff.total_l2_misses, lit.total_l2_misses, &format!("{label}: total_l2_misses"));
    assert_rel(ff.memory_energy_j, lit.memory_energy_j, &format!("{label}: memory_energy_j"));
    assert_rel(ff.cpu_energy_j, lit.cpu_energy_j, &format!("{label}: cpu_energy_j"));
    assert_rel(ff.avg_memory_power_w, lit.avg_memory_power_w, &format!("{label}: avg_memory_power_w"));
    assert_rel(ff.avg_cpu_power_w, lit.avg_cpu_power_w, &format!("{label}: avg_cpu_power_w"));
    assert_abs(ff.avg_ambient_c, lit.avg_ambient_c, &format!("{label}: avg_ambient_c"));
    assert_abs(ff.max_amb_c, lit.max_amb_c, &format!("{label}: max_amb_c"));
    assert_abs(ff.max_dram_c, lit.max_dram_c, &format!("{label}: max_dram_c"));
    assert_eq!(
        ff.mode_residency.keys().collect::<Vec<_>>(),
        lit.mode_residency.keys().collect::<Vec<_>>(),
        "{label}: residency modes"
    );
    for (mode, frac) in &ff.mode_residency {
        assert_abs(*frac, lit.mode_residency[mode], &format!("{label}: residency[{mode}]"));
    }
    assert_eq!(ff.position_peaks.len(), lit.position_peaks.len(), "{label}: peak count");
    for (a, b) in ff.position_peaks.iter().zip(&lit.position_peaks) {
        assert_eq!((a.channel, a.dimm), (b.channel, b.dimm), "{label}: peak position");
        assert_abs(a.max_amb_c, b.max_amb_c, &format!("{label}: peak amb ({},{})", a.channel, a.dimm));
        assert_abs(a.max_dram_c, b.max_dram_c, &format!("{label}: peak dram ({},{})", a.channel, a.dimm));
        for (l, (x, y)) in a.layers_c.iter().zip(&b.layers_c).enumerate() {
            assert_abs(*x, *y, &format!("{label}: peak layer {l} ({},{})", a.channel, a.dimm));
        }
    }
    for (ch, (a, b)) in ff.channel_throttle_residency.iter().zip(&lit.channel_throttle_residency).enumerate() {
        assert_abs(*a, *b, &format!("{label}: throttle residency ch{ch}"));
    }
}

#[test]
fn fast_forward_matches_literal_stepping_within_1e9() {
    // A cell whose plan never changes (No-limit) must leave the lane
    // through the envelope's frozen trigger, a latched DTM-TS cell may, and
    // a PID-driven cell must too wherever its controllers are memory-one
    // (integral off or frozen by anti-windup) — and every reported quantity
    // of every cell stays within 1e-9 of the literal run.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());

    let long = |cooling: CoolingConfig| MemSpotConfig { copies_per_app: 12, ..base_config(cooling) };
    let build_cells = || {
        vec![
            BatchCell::new(
                &cpu,
                &mem,
                long(CoolingConfig::aohs_1_5()),
                mixes::w1(),
                Box::new(NoLimit::new(&cpu)),
                Arc::clone(&store),
            ),
            BatchCell::new(
                &cpu,
                &mem,
                long(CoolingConfig::fdhs_1_0()),
                mixes::w1(),
                Box::new(DtmTs::new(cpu.clone(), ThermalLimits::paper_fbdimm())),
                Arc::clone(&store),
            ),
            BatchCell::new(
                &cpu,
                &mem,
                long(CoolingConfig::aohs_1_5()),
                mixes::w6(),
                Box::new(ThresholdPolicy::with_pid(DtmScheme::Acg, &cpu, ThermalLimits::paper_fbdimm())),
                Arc::clone(&store),
            ),
        ]
    };

    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let literal = engine.run(build_cells(), &BatchOptions::literal());
    let fast = engine.run(build_cells(), &BatchOptions::default());

    assert!(literal.iter().all(|(_, s)| s.fast_forwarded_windows == 0));
    let no_limit = &fast[0].1;
    assert!(
        no_limit.envelope_cycles > 0 && no_limit.fast_forwarded_windows > 0,
        "the No-limit cell must fast-forward through the envelope (stepped {}, envelope cycles {})",
        no_limit.stepped_windows,
        no_limit.envelope_cycles
    );
    let pid = &fast[2].1;
    assert!(
        pid.envelope_cycles > 0 && pid.fast_forwarded_windows > 0,
        "the PID-driven cell must fast-forward through the envelope where its controllers are memory-one \
         (stepped {}, envelope cycles {})",
        pid.stepped_windows,
        pid.envelope_cycles
    );

    for ((ff, _), (lit, _)) in fast.iter().zip(&literal) {
        assert_within_ff_tolerance(ff, lit, &format!("{}/{}", ff.workload, ff.policy));
    }

    // Window bookkeeping must be conserved: stepped + fast-forwarded under
    // fast-forward equals the literal window count of the same cell.
    for ((_, f), (_, l)) in fast.iter().zip(&literal) {
        assert_eq!(f.stepped_windows + f.fast_forwarded_windows, l.stepped_windows, "window count drifted");
    }
}

#[test]
fn lane_parallel_stepping_is_bit_identical_across_worker_counts() {
    // Lanes are independent and a column-chunked lane preserves each cell's
    // operation sequence, so every worker count must reproduce the
    // single-threaded batched results bit-for-bit — both for a
    // heterogeneous batch (many lanes, fanned across threads) and for a
    // homogeneous batch (one lane, split column-wise so every worker still
    // has work).
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());

    let stacks = [StackKind::Fbdimm, StackKind::RankPair, StackKind::stacked4()];
    let coolings = [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()];
    let mixes_pool = [mixes::w1(), mixes::w6()];
    let dts = [0.005, 0.010, 0.020];

    let heterogeneous = |rng: &mut Rng| {
        (0..6)
            .map(|i| {
                let stack = *rng.pick(&stacks);
                let mut cfg = base_config(*rng.pick(&coolings)).with_stack(stack);
                cfg.window_s = *rng.pick(&dts);
                cfg.dtm_interval_s = cfg.window_s;
                let mix = rng.pick(&mixes_pool).clone();
                let policy = policy_for(i ^ (rng.next() % 2), &cpu, cfg.limits);
                BatchCell::new(&cpu, &mem, cfg, mix, policy, Arc::clone(&store))
            })
            .collect::<Vec<_>>()
    };
    let homogeneous = || {
        (0..5u64)
            .map(|i| {
                let cfg = base_config(CoolingConfig::aohs_1_5());
                let policy = policy_for(i, &cpu, cfg.limits);
                BatchCell::new(&cpu, &mem, cfg, mixes::w1(), policy, Arc::clone(&store))
            })
            .collect::<Vec<_>>()
    };

    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    for workers in [2usize, 4] {
        let mut rng = Rng(0x5EED_CAFE_F00D_0002);
        let baseline = engine.run(heterogeneous(&mut rng), &BatchOptions::literal());
        let mut rng = Rng(0x5EED_CAFE_F00D_0002);
        let parallel = engine.run_with_workers(heterogeneous(&mut rng), &BatchOptions::literal(), workers);
        assert_eq!(baseline.len(), parallel.len());
        for (i, ((r, s), (pr, ps))) in baseline.iter().zip(&parallel).enumerate() {
            assert_eq!(r, pr, "heterogeneous cell {i} diverged under {workers} workers");
            assert_eq!(s, ps, "heterogeneous cell {i} stats diverged under {workers} workers");
        }
    }
    let baseline = engine.run(homogeneous(), &BatchOptions::literal());
    let chunked = engine.run_with_workers(homogeneous(), &BatchOptions::literal(), 4);
    for (i, ((r, s), (pr, ps))) in baseline.iter().zip(&chunked).enumerate() {
        assert_eq!(r, pr, "homogeneous cell {i} diverged under column chunking");
        assert_eq!(s, ps, "homogeneous cell {i} stats diverged under column chunking");
    }
}

#[test]
fn relay_limit_cycles_fast_forward_through_the_envelope_within_1e9() {
    // At a DTM cadence comparable to the device time constants a threshold
    // policy relaxes into a relay oscillation: the plan sequence locks into
    // an exact limit cycle with observations far from the thresholds. The
    // envelope is the one analytic tier for plan-changing orbits, so every
    // cell must leave the literal lane through it — its exact decision
    // replay re-deciding each virtual window from the keyed device maxima
    // — with every reported quantity within 1e-9 of the literal run and
    // the window bookkeeping conserved. (At the paper's 10 ms cadence the
    // same policies slip quasiperiodically; `tests/envelope_ff.rs` pins
    // that behavior.)
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());

    let relay = |dt: f64| {
        let mut cfg = MemSpotConfig {
            copies_per_app: 32,
            instruction_scale: 0.6,
            characterization_budget: 8_000,
            max_sim_time_s: 4_000.0,
            ..MemSpotConfig::paper(CoolingConfig::aohs_1_5())
        };
        cfg.window_s = dt;
        cfg.dtm_interval_s = dt;
        cfg
    };
    let build_cells = || {
        let acg = relay(5.0);
        let cdvfs = relay(25.0);
        vec![
            BatchCell::new(
                &cpu,
                &mem,
                acg,
                mixes::w1(),
                Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, acg.limits)),
                Arc::clone(&store),
            ),
            BatchCell::new(
                &cpu,
                &mem,
                cdvfs,
                mixes::w1(),
                Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, cdvfs.limits)),
                Arc::clone(&store),
            ),
        ]
    };

    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let literal = engine.run(build_cells(), &BatchOptions::literal());
    let fast = engine.run(build_cells(), &BatchOptions::default());

    assert!(literal.iter().all(|(_, s)| s.fast_forwarded_windows == 0 && s.envelope_cycles == 0));
    for (i, ((ff, fs), (lit, ls))) in fast.iter().zip(&literal).enumerate() {
        assert!(
            fs.envelope_cycles > 0,
            "cell {i} ({}) never left the literal lane through the envelope (stepped {})",
            ff.policy,
            fs.stepped_windows
        );
        assert!(fs.fast_forwarded_windows > 0, "cell {i} ({}) never fast-forwarded", ff.policy);
        assert_eq!(
            fs.stepped_windows + fs.fast_forwarded_windows,
            ls.stepped_windows,
            "cell {i} ({}) window count drifted",
            ff.policy
        );
        assert_within_ff_tolerance(ff, lit, &format!("{}/{}", ff.workload, ff.policy));
    }
}
