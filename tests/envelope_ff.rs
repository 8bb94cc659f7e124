//! Property suite for the contraction-certified envelope fast-forward tier
//! (`memtherm::sim::batch`): under randomized {stack, cooling, mix, policy,
//! DTM cadence} combinations, envelope execution must stay within the
//! claimed relative 1e-9 of literal stepping on every reported quantity,
//! conserve the simulated window count exactly, and fall back to literal
//! stepping — without losing accuracy — the moment a trajectory leaves its
//! certified band. A dedicated sliding-mode DTM-BW cell pins the exact
//! decision replay at the paper's native 10 ms cadence, two DTM-TS cells
//! pin the shutdown relay's frozen-phase jumps at the same cadence, and the
//! random pool carries the PID-driven schemes, whose rules certify and key
//! decisions wherever their controllers are memory-one.

use std::sync::Arc;

use dram_thermal::memtherm::dtm::{DtmCbw, DtmTs, NoLimit};
use dram_thermal::prelude::*;

/// Tiny deterministic PRNG (xorshift64*) so the "random" cell pool is
/// reproducible from a literal seed.
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
        copies_per_app: 4,
        instruction_scale: 0.6,
        characterization_budget: 8_000,
        max_sim_time_s: 3_000.0,
        ..MemSpotConfig::paper(cooling)
    }
}

/// The envelope-eligible policy pool drawn per cell: the pure threshold
/// policies plus the latched DTM-TS relay with a random release point
/// 0.5–4 °C below each TDP. The PID policies join the pool as cells of
/// their own, and a field-reading policy is added where coexistence with
/// ineligible cells is under test.
fn eligible_policy(rng: &mut Rng, cpu: &CpuConfig, limits: ThermalLimits) -> Box<dyn DtmPolicy> {
    match rng.next() % 5 {
        0 => Box::new(NoLimit::new(cpu)),
        1 => Box::new(ThresholdPolicy::new(DtmScheme::Acg, cpu, limits)),
        2 => Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, cpu, limits)),
        3 => Box::new(ThresholdPolicy::new(DtmScheme::Bw, cpu, limits)),
        _ => {
            let below = 0.5 + (rng.next() % 8) as f64 * 0.5;
            let limits = if rng.next().is_multiple_of(2) {
                limits.with_amb_trp(limits.amb_tdp_c - below)
            } else {
                limits.with_dram_trp(limits.dram_tdp_c - below)
            };
            Box::new(DtmTs::new(cpu.clone(), limits))
        }
    }
}

fn assert_abs(a: f64, b: f64, tol: f64, what: &str) {
    if a.is_nan() && b.is_nan() {
        return;
    }
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b} (abs err {})", (a - b).abs());
}

fn assert_rel(a: f64, b: f64, what: &str) {
    if a.is_nan() && b.is_nan() {
        return;
    }
    let denom = a.abs().max(b.abs()).max(1e-300);
    assert!(((a - b) / denom).abs() <= 1e-9, "{what}: {a} vs {b} (rel err {})", ((a - b) / denom).abs());
}

/// Field-by-field comparison of an envelope-executed result against its
/// literal reference at the envelope tier's claimed bound: every scalar
/// within relative 1e-9 (temperatures and residency fractions, whose
/// natural scale is O(1)–O(100), within 1e-9 of that scale absolute).
fn assert_envelope_tolerance(ff: &MemSpotResult, lit: &MemSpotResult, label: &str) {
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
    assert_rel(ff.avg_ambient_c, lit.avg_ambient_c, &format!("{label}: avg_ambient_c"));
    assert_rel(ff.max_amb_c, lit.max_amb_c, &format!("{label}: max_amb_c"));
    assert_rel(ff.max_dram_c, lit.max_dram_c, &format!("{label}: max_dram_c"));
    assert_rel(ff.migrated_traffic_bytes, lit.migrated_traffic_bytes, &format!("{label}: migrated_traffic_bytes"));
    assert_eq!(
        ff.mode_residency.keys().collect::<Vec<_>>(),
        lit.mode_residency.keys().collect::<Vec<_>>(),
        "{label}: residency modes"
    );
    for (mode, frac) in &ff.mode_residency {
        assert_abs(*frac, lit.mode_residency[mode], 1e-9, &format!("{label}: residency[{mode}]"));
    }
    assert_eq!(ff.position_peaks.len(), lit.position_peaks.len(), "{label}: peak count");
    for (a, b) in ff.position_peaks.iter().zip(&lit.position_peaks) {
        assert_eq!((a.channel, a.dimm), (b.channel, b.dimm), "{label}: peak position");
        assert_rel(a.max_amb_c, b.max_amb_c, &format!("{label}: peak amb ({},{})", a.channel, a.dimm));
        assert_rel(a.max_dram_c, b.max_dram_c, &format!("{label}: peak dram ({},{})", a.channel, a.dimm));
        for (l, (x, y)) in a.layers_c.iter().zip(&b.layers_c).enumerate() {
            assert_rel(*x, *y, &format!("{label}: peak layer {l} ({},{})", a.channel, a.dimm));
        }
    }
    for (ch, (a, b)) in ff.channel_throttle_residency.iter().zip(&lit.channel_throttle_residency).enumerate() {
        assert_abs(*a, *b, 1e-9, &format!("{label}: throttle residency ch{ch}"));
    }
}

#[test]
fn envelope_execution_matches_literal_within_1e9_across_random_cells() {
    // Seeded sweep over {stack, cooling, mix, eligible policy, cadence}:
    // the envelope tier replays decisions literally and certifies every
    // closed-form jump against the policy over the exact traversed band,
    // so every reported quantity must stay within relative 1e-9 of literal
    // stepping, the window count must be conserved exactly — and across
    // the pool the tier must actually engage (envelope_cycles > 0), or the
    // suite would be vacuous.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let stacks = [StackKind::Fbdimm, StackKind::RankPair, StackKind::stacked4()];
    let coolings = [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()];
    let mixes_pool = [mixes::w1(), mixes::w6()];
    // The paper's native cadence plus two relay-style cadences: at 10 ms
    // threshold orbits slip, at the slower cadences frozen-plan stretches
    // dominate — both envelope entry paths get exercised.
    let dts = [0.010, 0.100, 1.0];

    let build_cells = |rng: &mut Rng| {
        let mut cells = (0..8u64)
            .map(|i| {
                let stack = *rng.pick(&stacks);
                let mut cfg = base_config(*rng.pick(&coolings)).with_stack(stack);
                cfg.window_s = *rng.pick(&dts);
                cfg.dtm_interval_s = cfg.window_s;
                let mix = rng.pick(&mixes_pool).clone();
                // One field-reading (envelope-ineligible) DTM-CBW cell rides
                // along: ineligible members of a lane must coexist with
                // bursting neighbors without perturbing them.
                let policy: Box<dyn DtmPolicy> = if i == 5 {
                    Box::new(DtmCbw::new(cpu.clone(), cfg.limits))
                } else {
                    eligible_policy(rng, &cpu, cfg.limits)
                };
                BatchCell::new(&cpu, &mem, cfg, mix, policy, Arc::clone(&store))
            })
            .collect::<Vec<_>>();
        // The PID policies, after the draws above: all three schemes under
        // both coolings, each on a drawn stack, mix and cadence.
        for scheme in [DtmScheme::Bw, DtmScheme::Acg, DtmScheme::Cdvfs] {
            for &cooling in &coolings {
                let mut cfg = base_config(cooling).with_stack(*rng.pick(&stacks));
                cfg.window_s = *rng.pick(&dts);
                cfg.dtm_interval_s = cfg.window_s;
                let mix = rng.pick(&mixes_pool).clone();
                let policy = Box::new(ThresholdPolicy::with_pid(scheme, &cpu, cfg.limits));
                cells.push(BatchCell::new(&cpu, &mem, cfg, mix, policy, Arc::clone(&store)));
            }
        }
        cells
    };

    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let mut rng = Rng(0x0E17_BA5E_D5EE_D001);
    let literal = engine.run(build_cells(&mut rng), &BatchOptions::literal());
    let mut rng = Rng(0x0E17_BA5E_D5EE_D001);
    let envelope = engine.run(build_cells(&mut rng), &BatchOptions::default());

    assert_eq!(literal.len(), envelope.len());
    assert!(literal.iter().all(|(_, s)| s.fast_forwarded_windows == 0 && s.envelope_cycles == 0));
    let total_envelope: u64 = envelope.iter().map(|(_, s)| s.envelope_cycles).sum();
    assert!(total_envelope > 0, "no cell engaged the envelope tier; the property suite is vacuous");
    assert!(
        envelope.iter().any(|(r, s)| r.policy == "DTM-TS" && s.envelope_cycles > 0),
        "no DTM-TS cell engaged the envelope tier"
    );
    assert!(
        envelope.iter().any(|(r, s)| r.policy.ends_with("+PID") && s.envelope_cycles > 0),
        "no PID cell engaged the envelope tier"
    );
    for (i, ((ff, fs), (lit, ls))) in envelope.iter().zip(&literal).enumerate() {
        assert_eq!(
            fs.stepped_windows + fs.fast_forwarded_windows,
            ls.stepped_windows,
            "cell {i} ({}/{}) window count drifted",
            ff.workload,
            ff.policy
        );
        assert_envelope_tolerance(ff, lit, &format!("cell {i}: {}/{}", ff.workload, ff.policy));
    }
}

#[test]
fn a_drifting_trajectory_falls_back_to_literal_without_losing_accuracy() {
    // A deliberately non-confined cell: the ambient override is pushed so
    // close to the TDP shutdown threshold that the orbit escalates to a
    // full shutdown, freezes long enough while cooling for the envelope to
    // engage, and then re-heats straight through the certified band's upper
    // edge. The drift audit must catch the violation, hand the cell back to
    // literal lane stepping (envelope_fallbacks > 0), and the final result
    // must still satisfy the full envelope bound — fallback is a
    // performance event, never an accuracy event.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());

    let mut cfg = MemSpotConfig {
        copies_per_app: 8,
        instruction_scale: 1.0,
        characterization_budget: 10_000,
        max_sim_time_s: 2_000.0,
        ..MemSpotConfig::paper(CoolingConfig::fdhs_1_0())
    };
    cfg.ambient_override_c = Some(85.0);
    let build = || {
        vec![BatchCell::new(
            &cpu,
            &mem,
            cfg,
            mixes::w6(),
            Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, cfg.limits)),
            Arc::clone(&store),
        )]
    };

    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let literal = engine.run(build(), &BatchOptions::literal());
    let envelope = engine.run(build(), &BatchOptions::default());
    let (lit, ls) = &literal[0];
    let (ff, fs) = &envelope[0];
    assert!(
        fs.envelope_fallbacks > 0,
        "the drifting cell never violated a band (fallbacks {}, cycles {}, stepped {})",
        fs.envelope_fallbacks,
        fs.envelope_cycles,
        fs.stepped_windows
    );
    assert_eq!(fs.stepped_windows + fs.fast_forwarded_windows, ls.stepped_windows, "window count drifted");
    assert_envelope_tolerance(ff, lit, "drifting DTM-ACG cell");
}

#[test]
fn sliding_mode_bw_chatter_replays_exactly_at_paper_cadence() {
    // The worst case of the paper grid: DTM-BW at the native 10 ms cadence
    // pins itself to its throttle threshold in a sliding-mode orbit whose
    // plan flips every couple of windows — no frozen-plan band and no
    // limit-cycle certificate can hold, so only the exact decision replay
    // (pure decision keys + dominance certificate + plan-run-length
    // accounting) can carry the cell analytically. It must engage without
    // a single drift fallback, absorb the bulk of the run, conserve the
    // window count bit for bit, and stay within the tier's 1e-9 claim on
    // every reported scalar.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let mut cfg = MemSpotConfig {
        copies_per_app: 24,
        instruction_scale: 1.0,
        characterization_budget: 15_000,
        ..MemSpotConfig::paper(CoolingConfig::fdhs_1_0())
    };
    cfg.window_s = 0.010;
    cfg.dtm_interval_s = 0.010;
    let build = || {
        vec![BatchCell::new(
            &cpu,
            &mem,
            cfg,
            mixes::w5(),
            Box::new(ThresholdPolicy::new(DtmScheme::Bw, &cpu, cfg.limits)),
            Arc::clone(&store),
        )]
    };

    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let literal = engine.run(build(), &BatchOptions::literal());
    let envelope = engine.run(build(), &BatchOptions::default());
    let (lit, ls) = &literal[0];
    let (ff, fs) = &envelope[0];
    assert!(
        fs.envelope_cycles > 0,
        "the sliding-mode orbit never engaged the envelope tier (stepped {})",
        fs.stepped_windows
    );
    assert_eq!(fs.envelope_fallbacks, 0, "the decision replay drifted out of its certified band");
    assert_eq!(fs.stepped_windows + fs.fast_forwarded_windows, ls.stepped_windows, "window count drifted");
    assert!(
        fs.fast_forwarded_windows > ls.stepped_windows / 2,
        "the replay absorbed only {} of {} windows — the chatter fell to literal stepping",
        fs.fast_forwarded_windows,
        ls.stepped_windows
    );
    assert_envelope_tolerance(ff, lit, "sliding-mode DTM-BW cell");
}

#[test]
fn a_refuted_contraction_certificate_falls_back_with_exact_window_conservation() {
    // Mid-burst certificate refutation: the ambient override parks the
    // sliding-mode DTM-BW orbit so close to the escalation boundary that
    // the confinement band certified at burst entry is violated while the
    // replay is underway. The drift audit must refute the certificate and
    // hand the cell back to literal lane stepping (envelope_fallbacks > 0)
    // with nothing lost: the window count stays exactly conserved and
    // every reported scalar still meets the full 1e-9 envelope bound —
    // refutation is a performance event, never an accuracy event.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let mut cfg = MemSpotConfig {
        copies_per_app: 8,
        instruction_scale: 1.0,
        characterization_budget: 10_000,
        max_sim_time_s: 2_000.0,
        ..MemSpotConfig::paper(CoolingConfig::fdhs_1_0())
    };
    cfg.window_s = 0.010;
    cfg.dtm_interval_s = 0.010;
    cfg.ambient_override_c = Some(85.0);
    let build = || {
        vec![BatchCell::new(
            &cpu,
            &mem,
            cfg,
            mixes::w6(),
            Box::new(ThresholdPolicy::new(DtmScheme::Bw, &cpu, cfg.limits)),
            Arc::clone(&store),
        )]
    };

    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let literal = engine.run(build(), &BatchOptions::literal());
    let envelope = engine.run(build(), &BatchOptions::default());
    let (lit, ls) = &literal[0];
    let (ff, fs) = &envelope[0];
    assert!(
        fs.envelope_fallbacks > 0,
        "no certificate was refuted mid-burst (fallbacks {}, cycles {}, stepped {})",
        fs.envelope_fallbacks,
        fs.envelope_cycles,
        fs.stepped_windows
    );
    assert_eq!(fs.stepped_windows + fs.fast_forwarded_windows, ls.stepped_windows, "window count drifted");
    assert_envelope_tolerance(ff, lit, "refuted DTM-BW cell");
}

#[test]
fn literal_opt_out_disables_the_envelope_tier() {
    // The same No-limit cell takes the envelope under the default options
    // and never leaves the lane under `BatchOptions::literal()`.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let cfg = base_config(CoolingConfig::aohs_1_5());
    let build = || vec![BatchCell::new(&cpu, &mem, cfg, mixes::w1(), Box::new(NoLimit::new(&cpu)), Arc::clone(&store))];
    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let lit = engine.run(build(), &BatchOptions::literal());
    assert_eq!(lit[0].1.fast_forwarded_windows, 0);
    assert_eq!(lit[0].1.envelope_cycles, 0);
    let ff = engine.run(build(), &BatchOptions::default());
    assert!(ff[0].1.envelope_cycles > 0, "the default options must engage the envelope on this cell");
    assert!(ff[0].1.fast_forwarded_windows > 0);
}

/// A mix of four SPEC models looked up by name (CPU2000 first, then
/// CPU2006).
fn spec_mix(apps: [&str; 4]) -> WorkloadMix {
    let app = |name: &str| {
        dram_thermal::workloads::spec2000::by_name(name)
            .or_else(|| dram_thermal::workloads::spec2006::by_name(name))
            .unwrap_or_else(|| panic!("unknown SPEC app {name}"))
    };
    WorkloadMix::new(apps.join("/"), apps.iter().map(|&a| app(a)).collect())
}

#[test]
fn decision_replay_closes_a_run_that_exits_at_the_run_length_cap() {
    // Quick-scale cells at the paper's 10 ms cadence whose decision replay
    // logs a frozen run that flipped in and then reached the replay's
    // run-length cap: the run counts its flip window too, so the logged
    // length is one past the cap, and the λ-power tables that close the
    // dominated rows must cover it. Each cell runs alone under the default
    // options and must match its literal run within 1e-9 with the window
    // count conserved exactly.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let cases: [([&str; 4], CoolingConfig, DtmScheme); 6] = [
        (["lucas", "soplex", "omnetpp", "mgrid"], CoolingConfig::fdhs_1_0(), DtmScheme::Bw),
        (["wrf", "milc", "galgel", "lucas"], CoolingConfig::fdhs_1_0(), DtmScheme::Acg),
        (["swim", "wupwise", "milc", "mgrid"], CoolingConfig::fdhs_1_0(), DtmScheme::Cdvfs),
        (["art", "apsi", "leslie3d", "libquantum"], CoolingConfig::aohs_1_5(), DtmScheme::Acg),
        (["equake", "wupwise", "fma3d", "omnetpp"], CoolingConfig::aohs_1_5(), DtmScheme::Cdvfs),
        (["equake", "omnetpp", "milc", "wupwise"], CoolingConfig::aohs_1_5(), DtmScheme::Cdvfs),
    ];
    for (apps, cooling, scheme) in cases {
        let mut cfg = experiments::harness::Scale::Quick.memspot_config(cooling);
        cfg.window_s = 0.010;
        cfg.dtm_interval_s = 0.010;
        let build = || {
            let policy: Box<dyn DtmPolicy> = match scheme {
                DtmScheme::Bw => Box::new(ThresholdPolicy::new(DtmScheme::Bw, &cpu, cfg.limits)),
                DtmScheme::Acg => Box::new(ThresholdPolicy::new(DtmScheme::Acg, &cpu, cfg.limits)),
                _ => Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, &cpu, cfg.limits)),
            };
            vec![BatchCell::new(&cpu, &mem, cfg, spec_mix(apps), policy, Arc::clone(&store))]
        };
        let literal = engine.run(build(), &BatchOptions::literal());
        let envelope = engine.run(build(), &BatchOptions::default());
        let (lit, ls) = &literal[0];
        let (ff, fs) = &envelope[0];
        let label = format!("{} {} {scheme}", apps.join("/"), cooling.label());
        assert!(fs.envelope_cycles > 0, "{label}: the envelope tier never engaged (stepped {})", fs.stepped_windows);
        assert_eq!(fs.stepped_windows + fs.fast_forwarded_windows, ls.stepped_windows, "{label}: window count drifted");
        assert_envelope_tolerance(ff, lit, &label);
    }
}

#[test]
fn decision_replay_closes_a_long_run_log_chunk_by_chunk() {
    // Quick-scale cells at the paper's 10 ms cadence whose replay segments
    // log tens of thousands of runs: the replay closes its dominated rows
    // over every 4,096 logged runs, carrying each row's temperature, peak
    // and certificates across chunks (8 and 21 chunk closes when this test
    // was written). Dropping a chunk instead of closing it moves these
    // cells' results far past 1e-9; closing chunk by chunk must not move
    // them at all, so each cell still matches its literal run within 1e-9
    // with the window count conserved exactly.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let cases: [([&str; 4], CoolingConfig, DtmScheme); 2] = [
        (["apsi", "lucas", "wrf", "vpr"], CoolingConfig::fdhs_1_0(), DtmScheme::Acg),
        (["fma3d", "soplex", "GemsFDTD", "leslie3d"], CoolingConfig::aohs_1_5(), DtmScheme::Bw),
    ];
    for (apps, cooling, scheme) in cases {
        let mut cfg = experiments::harness::Scale::Quick.memspot_config(cooling);
        cfg.window_s = 0.010;
        cfg.dtm_interval_s = 0.010;
        let build = || {
            let policy = Box::new(ThresholdPolicy::new(scheme, &cpu, cfg.limits));
            vec![BatchCell::new(&cpu, &mem, cfg, spec_mix(apps), policy, Arc::clone(&store))]
        };
        let literal = engine.run(build(), &BatchOptions::literal());
        let envelope = engine.run(build(), &BatchOptions::default());
        let (lit, ls) = &literal[0];
        let (ff, fs) = &envelope[0];
        let label = format!("{} {} {scheme}", apps.join("/"), cooling.label());
        assert!(fs.replayed_windows > 50_000, "{label}: only {} windows replayed", fs.replayed_windows);
        assert_eq!(fs.stepped_windows + fs.fast_forwarded_windows, ls.stepped_windows, "{label}: window count drifted");
        assert_envelope_tolerance(ff, lit, &label);
    }
}

#[test]
fn ts_shutdown_relay_rides_the_envelope_at_paper_cadence() {
    // DTM-TS at the paper's 10 ms cadence: the shutdown latch relays
    // between its TDP and its release point in phases thousands of windows
    // long. The latched relay has no decision key, so it enters the
    // envelope through its decision-region certificate, and every shutdown
    // and run phase must collapse to closed-form jumps: the envelope
    // engages, under 1% of the windows are stepped, no band is violated,
    // every reported scalar stays within 1e-9 of literal stepping and the
    // window count is conserved exactly. Two cells: Figure 4.2's AOHS_1.5
    // cell at an AMB TRP of 106 °C, and a rank pair (no buffer die, so
    // the buffer axis is NaN and the DRAM alone latches and releases)
    // under a 70 °C inlet, hot enough for its DRAM to reach the TDP.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let quick = |cooling| experiments::harness::Scale::Quick.memspot_config(cooling);
    let fig4_2 = quick(CoolingConfig::aohs_1_5());
    let mut rank_pair = quick(CoolingConfig::aohs_1_5()).with_stack(StackKind::RankPair);
    rank_pair.ambient_override_c = Some(70.0);
    let cases = [
        ("fig4_2 AOHS_1.5 AMB TRP 106", fig4_2, fig4_2.limits.with_amb_trp(106.0)),
        ("rank pair", rank_pair, rank_pair.limits),
    ];
    for (label, cfg, limits) in cases {
        assert_eq!(cfg.window_s, 0.010);
        assert_eq!(cfg.dtm_interval_s, 0.010);
        let build = || {
            vec![BatchCell::new(
                &cpu,
                &mem,
                cfg,
                mixes::w1(),
                Box::new(DtmTs::new(cpu.clone(), limits)),
                Arc::clone(&store),
            )]
        };
        let literal = engine.run(build(), &BatchOptions::literal());
        let envelope = engine.run(build(), &BatchOptions::default());
        let (lit, ls) = &literal[0];
        let (ff, fs) = &envelope[0];
        let off = lit.mode_residency.get("off").copied().unwrap_or(0.0);
        assert!(off > 0.01 && off < 0.99, "{label}: the relay must cycle, but spent {off} of the run shut down");
        assert!(fs.envelope_cycles > 0, "{label}: the envelope tier never engaged (stepped {})", fs.stepped_windows);
        assert!(
            fs.stepped_windows * 100 < ls.stepped_windows,
            "{label}: stepped {} of {} windows literally",
            fs.stepped_windows,
            ls.stepped_windows
        );
        assert_eq!(fs.envelope_fallbacks, 0, "{label}: a band was violated");
        assert_eq!(fs.stepped_windows + fs.fast_forwarded_windows, ls.stepped_windows, "{label}: window count drifted");
        assert_envelope_tolerance(ff, lit, label);
    }
}

#[test]
fn decision_replay_steps_near_twin_rows_literally_instead_of_refusing() {
    // Figure 4.3 cells at Quick scale whose replay the dominance
    // certificate cannot clear: the AMB and DRAM rows of the first DIMM on
    // each of the two channels run within a fraction of a degree of each
    // other without being bitwise twins. The replay steps the second
    // channel's rows with the literal recurrence and folds them into every
    // decision's maxima. Under W1 with DTM-ACG those rows overtake the
    // binding rows inside a segment, so a decision that left them out, or a
    // peak credited to the wrong row, would show; under W6 with DTM-CDVFS
    // they stay just below. Each cell must carry its chatter in the replay
    // (a large share of the windows replayed, almost none stepped one at a
    // time inside the burst), match its literal run within 1e-9 —
    // per-position peaks included — and conserve the window count exactly.
    let cpu = CpuConfig::paper_quad_core();
    let mem = FbdimmConfig::ddr2_667_paper();
    let power = FbdimmPowerModel::paper_defaults();
    let cpu_power = PaperCpuPower::new();
    let store = Arc::new(CharStore::new());
    let engine = BatchedSimEngine::new(&cpu, &mem, &power, &cpu_power);
    let cases = [
        (mixes::w1(), CoolingConfig::fdhs_1_0(), DtmScheme::Acg),
        (mixes::w6(), CoolingConfig::fdhs_1_0(), DtmScheme::Cdvfs),
    ];
    for (mix, cooling, scheme) in cases {
        let cfg = experiments::harness::Scale::Quick.memspot_config(cooling);
        assert_eq!((cfg.window_s, cfg.dtm_interval_s), (0.010, 0.010));
        let build = || {
            vec![BatchCell::new(
                &cpu,
                &mem,
                cfg,
                mix.clone(),
                Box::new(ThresholdPolicy::new(scheme, &cpu, cfg.limits)),
                Arc::clone(&store),
            )]
        };
        let literal = engine.run(build(), &BatchOptions::literal());
        let envelope = engine.run(build(), &BatchOptions::default());
        let (lit, ls) = &literal[0];
        let (ff, fs) = &envelope[0];
        let label = format!("{} {} {scheme}", mix.id, cooling.label());
        assert_eq!(fs.stepped_windows + fs.fast_forwarded_windows, ls.stepped_windows, "{label}: window count drifted");
        assert!(
            fs.replayed_windows * 3 > ls.stepped_windows,
            "{label}: the decision replay carried only {} of {} windows",
            fs.replayed_windows,
            ls.stepped_windows
        );
        assert!(
            fs.burst_stepped_windows * 100 < ls.stepped_windows,
            "{label}: the bursts stepped {} of {} windows one at a time",
            fs.burst_stepped_windows,
            ls.stepped_windows
        );
        assert_envelope_tolerance(ff, lit, &label);
    }
}
