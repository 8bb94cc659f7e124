//! Chapter 4 experiments: the simulation study of the DTM schemes.

use std::sync::Arc;

use memtherm::dtm::policy::DtmPolicy;
use memtherm::prelude::*;
use memtherm::sim::characterize::CharStore;
use memtherm::sim::memspot::MemSpotResult;

use crate::harness::{f1, f3, mean, Scale, Table};
use crate::sweep::{SweepRunner, SweepScenario};

/// Which policy variant a matrix run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// No thermal limit (normalization baseline).
    NoLimit,
    /// DTM-TS.
    Ts,
    /// DTM-BW, optionally PID-driven.
    Bw {
        /// Use the PID formal controller.
        pid: bool,
    },
    /// DTM-ACG, optionally PID-driven.
    Acg {
        /// Use the PID formal controller.
        pid: bool,
    },
    /// DTM-CDVFS, optionally PID-driven.
    Cdvfs {
        /// Use the PID formal controller.
        pid: bool,
    },
    /// DTM-CBW: per-channel bandwidth caps keyed to each channel's hottest
    /// layer, optionally PID-driven.
    Cbw {
        /// Use the PID formal controller (one pair per channel).
        pid: bool,
    },
    /// DTM-MIG: migration-aware traffic steering away from the hottest
    /// DIMM position (global fail-safe on the DTM-BW ladder).
    Mig,
}

impl PolicySpec {
    /// The full set evaluated by Figure 4.3 (threshold and PID variants).
    pub fn figure_4_3_set() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Ts,
            PolicySpec::Bw { pid: false },
            PolicySpec::Acg { pid: false },
            PolicySpec::Cdvfs { pid: false },
            PolicySpec::Bw { pid: true },
            PolicySpec::Acg { pid: true },
            PolicySpec::Cdvfs { pid: true },
        ]
    }

    /// The threshold-only set used by the integrated-model experiments.
    pub fn threshold_set() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Ts,
            PolicySpec::Bw { pid: false },
            PolicySpec::Acg { pid: false },
            PolicySpec::Cdvfs { pid: false },
        ]
    }

    /// The spatially aware comparison set: the paper's global DTM-BW and
    /// DTM-ACG references next to the per-channel and migration-aware
    /// policies that exploit the resolved thermal field.
    pub fn spatial_set() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Bw { pid: false },
            PolicySpec::Acg { pid: false },
            PolicySpec::Cbw { pid: false },
            PolicySpec::Cbw { pid: true },
            PolicySpec::Mig,
        ]
    }

    /// Builds the concrete policy object.
    pub fn build(self, cpu: &CpuConfig, limits: ThermalLimits) -> Box<dyn DtmPolicy> {
        match self {
            PolicySpec::NoLimit => Box::new(memtherm::dtm::NoLimit::new(cpu)),
            PolicySpec::Ts => Box::new(DtmTs::new(cpu.clone(), limits)),
            PolicySpec::Bw { pid: false } => Box::new(ThresholdPolicy::new(DtmScheme::Bw, cpu, limits)),
            PolicySpec::Bw { pid: true } => Box::new(ThresholdPolicy::with_pid(DtmScheme::Bw, cpu, limits)),
            PolicySpec::Acg { pid: false } => Box::new(ThresholdPolicy::new(DtmScheme::Acg, cpu, limits)),
            PolicySpec::Acg { pid: true } => Box::new(ThresholdPolicy::with_pid(DtmScheme::Acg, cpu, limits)),
            PolicySpec::Cdvfs { pid: false } => Box::new(ThresholdPolicy::new(DtmScheme::Cdvfs, cpu, limits)),
            PolicySpec::Cdvfs { pid: true } => Box::new(ThresholdPolicy::with_pid(DtmScheme::Cdvfs, cpu, limits)),
            PolicySpec::Cbw { pid: false } => Box::new(DtmCbw::new(cpu.clone(), limits)),
            PolicySpec::Cbw { pid: true } => Box::new(DtmCbw::with_pid(cpu.clone(), limits)),
            PolicySpec::Mig => Box::new(DtmMig::new(cpu.clone(), limits)),
        }
    }
}

/// One run of the Chapter 4 matrix.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Cooling configuration label.
    pub cooling: String,
    /// Workload mix identifier.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Full simulation result.
    pub result: MemSpotResult,
}

/// Runs every mix under every policy (plus the no-limit baseline) for one
/// cooling configuration. Each mix becomes one [`SweepScenario`]; the
/// [`SweepRunner`] fans the individual {mix, policy} cells across cores,
/// and every cell reads its level-1 characterization from `store`. A
/// figure passes the same store to each of its matrices, so a design point
/// the first cooling (or interaction degree) characterized is reused by
/// the next one instead of being recomputed.
pub fn run_matrix(
    scale: Scale,
    cooling: CoolingConfig,
    integrated: bool,
    interaction_degree: Option<f64>,
    specs: &[PolicySpec],
    store: &Arc<CharStore>,
) -> Vec<MatrixRun> {
    let mut all_specs = vec![PolicySpec::NoLimit];
    all_specs.extend_from_slice(specs);
    let scenarios: Vec<SweepScenario> = scale
        .ch4_mixes()
        .into_iter()
        .map(|mix| SweepScenario {
            cooling,
            integrated,
            interaction_degree,
            stack: StackKind::Fbdimm,
            mix,
            specs: all_specs.clone(),
            dtm_interval_s: None,
            limits: None,
        })
        .collect();
    SweepRunner::new().with_char_store(Arc::clone(store)).run(&scenarios, |cooling| scale.memspot_config(cooling)).runs
}

fn baseline<'a>(runs: &'a [MatrixRun], cooling: &str, workload: &str, policy: &str) -> Option<&'a MatrixRun> {
    runs.iter().find(|r| r.cooling == cooling && r.workload == workload && r.policy == policy)
}

/// Table 4.3: thermal emergency levels and the per-scheme running levels.
pub fn tab4_3() -> Table {
    let cpu = CpuConfig::paper_quad_core();
    let mut t = Table::new(
        "tab4_3",
        "Thermal emergency levels and default DTM settings (Table 4.3)",
        &["level", "AMB range degC", "DRAM range degC", "DTM-BW", "DTM-ACG cores", "DTM-CDVFS"],
    );
    let ranges_amb = ["(-,108)", "[108,109)", "[109,109.5)", "[109.5,110)", "[110,-)"];
    let ranges_dram = ["(-,83)", "[83,84)", "[84,84.5)", "[84.5,85)", "[85,-)"];
    for (i, level) in EmergencyLevel::ALL.iter().enumerate() {
        let bw = scheme_mode(DtmScheme::Bw, *level, &cpu);
        let acg = scheme_mode(DtmScheme::Acg, *level, &cpu);
        let cdvfs = scheme_mode(DtmScheme::Cdvfs, *level, &cpu);
        let bw_str = match bw.bandwidth_cap {
            None => "no limit".to_string(),
            Some(0.0) => "off".to_string(),
            Some(c) => format!("{:.1} GB/s", c / 1e9),
        };
        let cdvfs_str = if cdvfs.makes_progress() {
            format!("{:.1} GHz @ {:.2} V", cdvfs.op.freq_ghz, cdvfs.op.voltage)
        } else {
            "stopped".to_string()
        };
        t.push_row([
            level.to_string(),
            ranges_amb[i].to_string(),
            ranges_dram[i].to_string(),
            bw_str,
            acg.active_cores.to_string(),
            cdvfs_str,
        ]);
    }
    t
}

/// Table 4.4: processor power consumption per DTM running state.
pub fn tab4_4() -> Table {
    let power = PaperCpuPower::new();
    let ladder = CpuConfig::paper_quad_core().dvfs;
    let mut t = Table::new(
        "tab4_4",
        "Processor power consumption of DTM schemes (Table 4.4)",
        &["scheme", "setting", "power W"],
    );
    for n in 0..=4usize {
        t.push_row(["DTM-ACG", &format!("{n} active cores"), &f1(power.power_watts(n, &ladder.top()))]);
    }
    t.push_row(["DTM-CDVFS", "stopped", &f1(power.halted_watts())]);
    for i in (0..4).rev() {
        let op = ladder.point(i);
        t.push_row([
            "DTM-CDVFS",
            &format!("{:.2} V, {:.1} GHz", op.voltage, op.freq_ghz),
            &f1(power.power_watts(4, &op)),
        ]);
    }
    t
}

/// The TRP sweeps of Figure 4.2: per cooling, the device whose release
/// point is swept and the swept values.
fn fig4_2_cases() -> [(CoolingConfig, &'static str, [f64; 5]); 2] {
    [
        (CoolingConfig::fdhs_1_0(), "DRAM", [81.0, 82.0, 83.0, 84.0, 84.5]),
        (CoolingConfig::aohs_1_5(), "AMB", [106.0, 107.0, 108.0, 109.0, 109.5]),
    ]
}

/// One cooling's Figure 4.2 grid: per mix, the no-limit baseline followed
/// by one DTM-TS cell per swept TRP (the TRP rides on the scenario's
/// limits override).
fn fig4_2_scenarios(scale: Scale, cooling: CoolingConfig, device: &str, trps: &[f64]) -> Vec<SweepScenario> {
    let mut scenarios = Vec::new();
    for mix in scale.ch4_mixes() {
        scenarios.push(SweepScenario::isolated(cooling, mix.clone(), vec![PolicySpec::NoLimit]));
        for &trp in trps {
            let limits = if device == "DRAM" {
                ThermalLimits::paper_fbdimm().with_dram_trp(trp)
            } else {
                ThermalLimits::paper_fbdimm().with_amb_trp(trp)
            };
            scenarios.push(SweepScenario::isolated(cooling, mix.clone(), vec![PolicySpec::Ts]).with_limits(limits));
        }
    }
    scenarios
}

/// Figure 4.2: DTM-TS running time with varied thermal release point.
/// Each cooling runs as one [`SweepRunner`] grid; a grid per cooling
/// rather than one for both keeps the batched lanes, and so peak memory,
/// at one cooling's width. Both grids read their level-1 points from
/// `store`, so the second cooling reuses the first one's.
pub fn fig4_2(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig4_2",
        "Performance of DTM-TS with varied TRP (normalized running time vs no thermal limit)",
        &["cooling", "swept TRP degC", "workload", "normalized time"],
    );
    for (cooling, device, trps) in fig4_2_cases() {
        let runs = SweepRunner::new()
            .with_char_store(Arc::clone(store))
            .run(&fig4_2_scenarios(scale, cooling, device, &trps), |c| scale.memspot_config(c))
            .runs;
        for per_mix in runs.chunks(trps.len() + 1) {
            let (base, ts) = per_mix.split_first().expect("every mix has a baseline cell");
            for (r, trp) in ts.iter().zip(trps) {
                t.push_row([
                    r.cooling.clone(),
                    format!("{device} {trp:.1}"),
                    r.workload.clone(),
                    f3(r.result.normalized_time(&base.result)),
                ]);
            }
        }
    }
    t
}

fn normalized_table(
    id: &str,
    title: &str,
    scale: Scale,
    metric: impl Fn(&MemSpotResult, &MemSpotResult) -> f64,
    base_policy: &str,
    specs: &[PolicySpec],
    store: &Arc<CharStore>,
) -> Table {
    let mut t = Table::new(id, title, &["cooling", "workload", "policy", "value"]);
    for cooling in [CoolingConfig::fdhs_1_0(), CoolingConfig::aohs_1_5()] {
        let runs = run_matrix(scale, cooling, false, None, specs, store);
        for r in &runs {
            if r.policy == base_policy {
                continue;
            }
            let Some(base) = baseline(&runs, &r.cooling, &r.workload, base_policy) else {
                continue;
            };
            t.push_row([r.cooling.clone(), r.workload.clone(), r.policy.clone(), f3(metric(&r.result, &base.result))]);
        }
    }
    t
}

/// Figure 4.3: normalized running time of all DTM schemes (± PID), both
/// cooling configurations, isolated thermal model.
pub fn fig4_3(scale: Scale, store: &Arc<CharStore>) -> Table {
    normalized_table(
        "fig4_3",
        "Normalized running time for DTM schemes (vs no thermal limit)",
        scale,
        |r, b| r.normalized_time(b),
        "No-limit",
        &PolicySpec::figure_4_3_set(),
        store,
    )
}

/// Figure 4.4: normalized total memory traffic of all DTM schemes.
pub fn fig4_4(scale: Scale, store: &Arc<CharStore>) -> Table {
    normalized_table(
        "fig4_4",
        "Normalized total memory traffic for DTM schemes (vs no thermal limit)",
        scale,
        |r, b| r.normalized_traffic(b),
        "No-limit",
        &PolicySpec::figure_4_3_set(),
        store,
    )
}

/// Figures 4.5–4.8: AMB temperature traces of W1 under AOHS_1.5 for DTM-TS,
/// DTM-BW, DTM-ACG and DTM-CDVFS (sampled every 10 s of the first 1000 s).
/// The four traced cells run as one [`SweepRunner`] grid over `store`;
/// traced cells never take the envelope, so each steps literally, with the
/// bits of the cell run alone.
pub fn fig4_5_8(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig4_5_8",
        "AMB temperature of W1 under AOHS_1.5 (first 1000 s, 10 s samples)",
        &["scheme", "time s", "AMB degC", "active cores", "freq GHz"],
    );
    let scenarios = [SweepScenario::isolated(CoolingConfig::aohs_1_5(), mixes::w1(), PolicySpec::threshold_set())];
    let traced = |cooling| MemSpotConfig { record_temp_trace: true, ..scale.memspot_config(cooling) };
    let runs = SweepRunner::new().with_char_store(Arc::clone(store)).run(&scenarios, traced).runs;
    for r in &runs {
        for sample in r.result.temp_trace.iter().filter(|s| s.time_s <= 1000.0).step_by(10) {
            t.push_row([
                r.policy.clone(),
                f1(sample.time_s),
                f1(sample.amb_c),
                sample.active_cores.to_string(),
                f1(sample.freq_ghz),
            ]);
        }
    }
    t
}

/// Figure 4.9: normalized FBDIMM energy consumption (vs DTM-TS).
pub fn fig4_9(scale: Scale, store: &Arc<CharStore>) -> Table {
    normalized_table(
        "fig4_9",
        "Normalized energy consumption of FBDIMM for DTM schemes (vs DTM-TS)",
        scale,
        |r, b| r.normalized_memory_energy(b),
        "DTM-TS",
        &PolicySpec::figure_4_3_set(),
        store,
    )
}

/// Figure 4.10: normalized processor energy consumption (vs DTM-TS).
pub fn fig4_10(scale: Scale, store: &Arc<CharStore>) -> Table {
    normalized_table(
        "fig4_10",
        "Normalized energy consumption of processors for DTM schemes (vs DTM-TS)",
        scale,
        |r, b| r.normalized_cpu_energy(b),
        "DTM-TS",
        &PolicySpec::figure_4_3_set(),
        store,
    )
}

/// The DTM intervals Figure 4.11 compares, milliseconds; the 10 ms column
/// is the reference.
const FIG4_11_INTERVALS_MS: [f64; 4] = [1.0, 10.0, 20.0, 100.0];

/// Figure 4.11's configuration of one cooling and interval: the scale's
/// configuration with only the DTM interval changed, so the simulation
/// window stays at the scale's 10 ms.
fn fig4_11_config(scale: Scale, cooling: CoolingConfig, interval_ms: f64) -> MemSpotConfig {
    let mut cfg = scale.memspot_config(cooling);
    cfg.dtm_interval_s = interval_ms / 1000.0;
    cfg
}

/// One (cooling, interval) grid of Figure 4.11: each of `mixes` under
/// every threshold policy, mix-major, over `runner`.
fn fig4_11_grid(
    runner: SweepRunner,
    scale: Scale,
    cooling: CoolingConfig,
    interval_ms: f64,
    mixes: &[WorkloadMix],
) -> Vec<MatrixRun> {
    let scenarios: Vec<SweepScenario> =
        mixes.iter().map(|mix| SweepScenario::isolated(cooling, mix.clone(), PolicySpec::threshold_set())).collect();
    runner.run(&scenarios, |c| fig4_11_config(scale, c, interval_ms)).runs
}

/// Figure 4.11: average normalized running time for different DTM intervals.
/// Each (cooling, interval) pair runs as one [`SweepRunner`] grid of every
/// mix under the four threshold policies, all over `store`: the interval,
/// the cooling and the policy change no level-1 point.
pub fn fig4_11(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig4_11",
        "Normalized average running time for different DTM intervals (vs the 10 ms interval)",
        &["cooling", "policy", "interval ms", "normalized avg time"],
    );
    let policies = PolicySpec::threshold_set().len();
    let mixes = scale.ch4_mixes();
    for cooling in [CoolingConfig::fdhs_1_0(), CoolingConfig::aohs_1_5()] {
        let grids: Vec<Vec<MatrixRun>> = FIG4_11_INTERVALS_MS
            .iter()
            .map(|&interval| {
                fig4_11_grid(SweepRunner::new().with_char_store(Arc::clone(store)), scale, cooling, interval, &mixes)
            })
            .collect();
        for p in 0..policies {
            // Per-interval average running time over the mixes, in mix order.
            let per_interval: Vec<f64> = grids
                .iter()
                .map(|runs| {
                    let times: Vec<f64> =
                        runs.iter().skip(p).step_by(policies).map(|r| r.result.running_time_s).collect();
                    mean(&times)
                })
                .collect();
            let reference = per_interval[1].max(1e-9); // 10 ms column
            for (avg, &interval) in per_interval.iter().zip(&FIG4_11_INTERVALS_MS) {
                t.push_row([cooling.label(), grids[0][p].policy.clone(), f1(interval), f3(avg / reference)]);
            }
        }
    }
    t
}

/// Figure 4.12: normalized running time under the *integrated* thermal
/// model.
pub fn fig4_12(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig4_12",
        "Normalized running time for DTM schemes under the integrated thermal model",
        &["cooling", "workload", "policy", "normalized time"],
    );
    for cooling in [CoolingConfig::fdhs_1_0(), CoolingConfig::aohs_1_5()] {
        let runs = run_matrix(scale, cooling, true, None, &PolicySpec::threshold_set(), store);
        for r in &runs {
            if r.policy == "No-limit" {
                continue;
            }
            let Some(base) = baseline(&runs, &r.cooling, &r.workload, "No-limit") else { continue };
            t.push_row([
                r.cooling.clone(),
                r.workload.clone(),
                r.policy.clone(),
                f3(r.result.normalized_time(&base.result)),
            ]);
        }
    }
    t
}

fn interaction_runs(scale: Scale, degree: f64, store: &Arc<CharStore>) -> Vec<MatrixRun> {
    run_matrix(scale, CoolingConfig::fdhs_1_0(), true, Some(degree), &PolicySpec::threshold_set(), store)
}

/// Figure 4.13: average normalized running time for different degrees of
/// CPU→memory thermal interaction.
pub fn fig4_13(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig4_13",
        "Average normalized running time with different degrees of thermal interaction (FDHS_1.0)",
        &["interaction degree", "policy", "avg normalized time"],
    );
    for degree in [1.0, 1.5, 2.0] {
        let runs = interaction_runs(scale, degree, store);
        for policy in ["DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"] {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.policy == policy)
                .filter_map(|r| {
                    baseline(&runs, &r.cooling, &r.workload, "No-limit").map(|b| r.result.normalized_time(&b.result))
                })
                .collect();
            t.push_row([f1(degree), policy.to_string(), f3(mean(&values))]);
        }
    }
    t
}

/// Figure 4.14: average performance improvement of DTM-ACG and DTM-CDVFS
/// over DTM-BW for different degrees of thermal interaction.
pub fn fig4_14(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig4_14",
        "Average improvement of DTM-ACG / DTM-CDVFS over DTM-BW vs thermal-interaction degree (FDHS_1.0)",
        &["interaction degree", "policy", "improvement %"],
    );
    for degree in [1.0, 1.5, 2.0] {
        let runs = interaction_runs(scale, degree, store);
        for policy in ["DTM-ACG", "DTM-CDVFS"] {
            let improvements: Vec<f64> = runs
                .iter()
                .filter(|r| r.policy == policy)
                .filter_map(|r| {
                    baseline(&runs, &r.cooling, &r.workload, "DTM-BW")
                        .map(|bw| 100.0 * (1.0 - r.result.running_time_s / bw.result.running_time_s.max(1e-9)))
                })
                .collect();
            t.push_row([f1(degree), policy.to_string(), f1(mean(&improvements))]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab4_3_and_tab4_4_have_the_expected_shape() {
        let t = tab4_3();
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.cell("DTM-ACG cores", |r| r[0] == "L3"), Some("2"));
        let p = tab4_4();
        assert_eq!(p.cell("power W", |r| r[0] == "DTM-ACG" && r[1] == "4 active cores"), Some("260.0"));
        assert_eq!(p.cell("power W", |r| r[1].contains("0.95 V")), Some("80.6"));
    }

    #[test]
    fn policy_specs_build_the_right_policies() {
        let cpu = CpuConfig::paper_quad_core();
        let limits = ThermalLimits::paper_fbdimm();
        assert_eq!(PolicySpec::Ts.build(&cpu, limits).name(), "DTM-TS");
        assert_eq!(PolicySpec::Acg { pid: true }.build(&cpu, limits).name(), "DTM-ACG+PID");
        assert_eq!(PolicySpec::Cbw { pid: false }.build(&cpu, limits).name(), "DTM-CBW");
        assert_eq!(PolicySpec::Cbw { pid: true }.build(&cpu, limits).name(), "DTM-CBW+PID");
        assert_eq!(PolicySpec::Mig.build(&cpu, limits).name(), "DTM-MIG");
        assert_eq!(PolicySpec::figure_4_3_set().len(), 7);
        assert_eq!(PolicySpec::threshold_set().len(), 4);
        assert_eq!(PolicySpec::spatial_set().len(), 5);
    }

    #[test]
    fn fig4_2_grid_reproduces_the_per_cell_engine_bit_for_bit() {
        // Under literal batching the Figure 4.2 grid must carry the exact
        // bits of the serial per-cell loop the figure used to run: one
        // `MemSpot` per cooling under the scale's limits, the swept TRP
        // handed to the policy alone.
        use memtherm::sim::batch::BatchOptions;
        let scale = Scale::Smoke;
        let cpu = CpuConfig::paper_quad_core();
        for (cooling, device, trps) in fig4_2_cases() {
            let scenarios = fig4_2_scenarios(scale, cooling, device, &trps);
            let grid = SweepRunner::with_threads(2)
                .with_batch_options(BatchOptions::literal())
                .run(&scenarios, |c| scale.memspot_config(c));
            let cfg = scale.memspot_config(cooling);
            let mut spot = MemSpot::with_hardware(cpu.clone(), FbdimmConfig::ddr2_667_paper(), cfg);
            let cells = scenarios.iter().flat_map(|s| s.specs.iter().map(move |spec| (s, spec)));
            assert_eq!(cells.clone().count(), grid.runs.len());
            for ((scenario, spec), got) in cells.zip(&grid.runs) {
                let mut policy = spec.build(&cpu, scenario.limits.unwrap_or(cfg.limits));
                let want = spot.run(&scenario.mix, policy.as_mut());
                assert_eq!(got.result, want, "{}/{}/{} diverged", got.cooling, got.workload, got.policy);
            }
        }
    }

    #[test]
    fn fig4_11_grids_reproduce_the_per_cell_engine_bit_for_bit() {
        // Every interval column of Figure 4.11 at Smoke scale, for the mix
        // and cooling where the policies engage: the literal grid carries the
        // exact bits of a fresh per-cell `MemSpot` run, and the figure's own
        // grid keeps every running time (all the table reads) bit for bit.
        // The envelope may take the 1 and 10 ms columns, whose step equals
        // the interval; the 20 and 100 ms columns step several 10 ms
        // windows per decision.
        use memtherm::sim::batch::BatchOptions;
        let scale = Scale::Smoke;
        let cpu = CpuConfig::paper_quad_core();
        let cooling = CoolingConfig::aohs_1_5();
        let store = Arc::new(CharStore::new());
        let runner = || SweepRunner::with_threads(2).with_char_store(Arc::clone(&store));
        let mix = mixes::w1();
        let specs = PolicySpec::threshold_set();
        for interval in FIG4_11_INTERVALS_MS {
            let grid = |runner: SweepRunner| fig4_11_grid(runner, scale, cooling, interval, std::slice::from_ref(&mix));
            let literal = grid(runner().with_batch_options(BatchOptions::literal()));
            let figure = grid(runner());
            let cfg = fig4_11_config(scale, cooling, interval);
            let per_cell = crate::sweep::parallel_map(2, &specs, |spec| {
                let mut spot =
                    MemSpot::with_store(cpu.clone(), FbdimmConfig::ddr2_667_paper(), cfg, Arc::clone(&store));
                spot.run(&mix, spec.build(&cpu, cfg.limits).as_mut())
            });
            assert_eq!(per_cell.len(), literal.len());
            for ((want, lit), fig) in per_cell.iter().zip(&literal).zip(&figure) {
                let cell = format!("{interval} ms/{}/{}", lit.workload, lit.policy);
                assert_eq!(&lit.result, want, "{cell}: literal grid diverged");
                assert_eq!(fig.result.running_time_s.to_bits(), want.running_time_s.to_bits(), "{cell}");
                assert_eq!(fig.result.completed, want.completed, "{cell}");
            }
        }
    }

    #[test]
    fn matrices_over_one_store_match_fresh_stores_and_share_points() {
        // Both coolings of one matrix over one store, as `normalized_table`
        // runs them: every result equals its fresh-store run, and the second
        // cooling finds every level-1 point the first one computed. At Smoke
        // scale FDHS_1.0 never leaves full speed, so AOHS_1.5 (which visits
        // every running level FDHS_1.0 does, and more) runs first.
        let scale = Scale::Smoke;
        let specs = PolicySpec::threshold_set();
        let store = Arc::new(CharStore::new());
        let mut computed = Vec::new();
        for cooling in [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()] {
            let misses_before = store.misses();
            let shared = run_matrix(scale, cooling, false, None, &specs, &store);
            computed.push(store.misses() - misses_before);
            let fresh = run_matrix(scale, cooling, false, None, &specs, &Arc::default());
            assert_eq!(shared.len(), fresh.len());
            for (a, b) in shared.iter().zip(&fresh) {
                assert_eq!((&a.cooling, &a.workload, &a.policy), (&b.cooling, &b.workload, &b.policy));
                assert_eq!(a.result, b.result, "{}/{}/{} diverged", a.cooling, a.workload, a.policy);
            }
        }
        assert!(computed[0] > 0, "the first cooling characterizes its points");
        assert_eq!(computed[1], 0, "the second cooling must reuse every point: {computed:?}");
    }

    #[test]
    #[ignore = "runs a smoke-scale simulation matrix (~seconds in release); exercised by the `figures_ch4` bench"]
    fn fig4_3_smoke_produces_sane_normalized_times() {
        let t = fig4_3(Scale::Smoke, &Arc::default());
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            let v: f64 = row[3].parse().unwrap();
            assert!(v > 0.9 && v < 5.0, "normalized time {v} out of range");
        }
    }
}
