//! Chapter 5 experiments: the server-platform case study.

use std::sync::Arc;

use memtherm::sim::characterize::CharStore;
use platform_emu::{Measurement, PlatformExperiment, PlatformPolicy, PolicyKind, Server, TimeSliceModel};
use workloads::mixes;

use crate::harness::{f1, f3, mean, Scale, Table};

fn experiment(scale: Scale, server: Server, store: &Arc<CharStore>) -> PlatformExperiment {
    PlatformExperiment::with_store(
        server,
        scale.platform_runs_per_app(),
        scale.platform_instruction_scale(),
        Arc::clone(store),
    )
}

fn ch5_mixes(scale: Scale) -> Vec<workloads::WorkloadMix> {
    match scale {
        Scale::Smoke => vec![mixes::w1(), mixes::w8()],
        _ => mixes::all_ch4_mixes(),
    }
}

/// Every mix of `mixes_list` on every server under No-limit and the four
/// policies; one run list per server, in server order. All (server, mix)
/// pairs form one queue fanned across cores, so a figure with two servers
/// keeps both cores busy to its end. Each pair owns an experiment over the
/// shared store and runs its level-1 points on its own thread. Points are
/// keyed per mix and hardware, so pairs rarely wait on each other, and a
/// later call for the same server hardware reuses them.
fn policy_runs(
    scale: Scale,
    servers: &[Server],
    mixes_list: &[workloads::WorkloadMix],
    store: &Arc<CharStore>,
) -> Vec<Vec<(String, String, Measurement)>> {
    let pairs: Vec<(&Server, &workloads::WorkloadMix)> =
        servers.iter().flat_map(|server| mixes_list.iter().map(move |mix| (server, mix))).collect();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let groups = crate::sweep::parallel_map(threads, &pairs, |&(server, mix)| {
        let mut exp = experiment(scale, server.clone(), store);
        let mut out = Vec::new();
        let base = exp.run_no_limit(mix);
        out.push((mix.id.clone(), "No-limit".to_string(), base.measurement));
        for kind in PolicyKind::ALL {
            let run = exp.run_policy(mix, kind);
            out.push((mix.id.clone(), kind.to_string(), run.measurement));
        }
        out
    });
    let mut groups = groups.into_iter();
    servers.iter().map(|_| groups.by_ref().take(mixes_list.len()).flatten().collect()).collect()
}

/// [`policy_runs`] on one server.
fn server_runs(
    scale: Scale,
    server: Server,
    mixes_list: &[workloads::WorkloadMix],
    store: &Arc<CharStore>,
) -> Vec<(String, String, Measurement)> {
    policy_runs(scale, &[server], mixes_list, store).swap_remove(0)
}

fn find<'a>(runs: &'a [(String, String, Measurement)], mix: &str, policy: &str) -> Option<&'a Measurement> {
    runs.iter().find(|(m, p, _)| m == mix && p == policy).map(|(_, _, meas)| meas)
}

/// Figure 5.4: AMB temperature of the first 500 s of homogeneous workloads
/// on the SR1500AL (no DTM control).
pub fn fig5_4(scale: Scale, store: &Arc<CharStore>) -> Table {
    let apps = ["swim", "mgrid", "galgel", "apsi", "vpr"];
    let mut t = Table::new(
        "fig5_4",
        "AMB temperature curve for the first 500 s of homogeneous workloads on the SR1500AL",
        &["application", "time s", "AMB degC"],
    );
    // One experiment per application over the shared store, fanned across
    // cores; rows follow the fixed application order.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let curves = crate::sweep::parallel_map(threads, &apps, |name| {
        let app = workloads::spec2000::by_name(name).expect("known application");
        experiment(scale, Server::sr1500al(), store).homogeneous_temperature_curve(&app, 500.0)
    });
    for (name, curve) in apps.into_iter().zip(curves) {
        for sample in curve.iter().step_by(10) {
            t.push_row([name.to_string(), f1(sample.time_s), f1(sample.amb_c)]);
        }
    }
    t
}

/// Figure 5.5: average AMB temperature of homogeneous SPEC CPU2000 workloads
/// on the PE1950 without DTM control.
pub fn fig5_5(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig5_5",
        "Average AMB temperature when memory is driven by homogeneous workloads on the PE1950 (no DTM)",
        &["application", "avg AMB degC"],
    );
    let apps = match scale {
        Scale::Smoke => vec!["swim", "galgel", "vpr"],
        _ => workloads::spec2000::all().iter().map(|a| a.name).collect(),
    };
    // One experiment per application over the shared store, fanned across
    // cores; rows follow the fixed application order.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let averages = crate::sweep::parallel_map(threads, &apps, |name| {
        let app = workloads::spec2000::by_name(name).expect("known application");
        experiment(scale, Server::pe1950(), store).homogeneous_average_amb(&app)
    });
    for (name, avg) in apps.into_iter().zip(averages) {
        t.push_row([name.to_string(), f1(avg)]);
    }
    t
}

fn normalized_time_table(
    id: &str,
    title: &str,
    scale: Scale,
    servers: &[Server],
    mixes_list: &[workloads::WorkloadMix],
    store: &Arc<CharStore>,
) -> Table {
    let mut t = Table::new(id, title, &["server", "workload", "policy", "normalized time"]);
    for (server, runs) in servers.iter().zip(policy_runs(scale, servers, mixes_list, store)) {
        for (mix, policy, m) in &runs {
            if policy == "No-limit" {
                continue;
            }
            let Some(base) = find(&runs, mix, "No-limit") else { continue };
            t.push_row([server.kind.to_string(), mix.clone(), policy.clone(), f3(m.normalized_time(base))]);
        }
    }
    t
}

/// Figure 5.6: normalized running time of the SPEC CPU2000 workloads on both
/// servers under the four software DTM policies. The servers share `store`;
/// their memory differs (2 vs 4 DIMMs), so the store key's geometry and
/// hardware fingerprint keep their points apart.
pub fn fig5_6(scale: Scale, store: &Arc<CharStore>) -> Table {
    normalized_time_table(
        "fig5_6",
        "Normalized running time of SPEC CPU2000 workloads (PE1950 and SR1500AL)",
        scale,
        &[Server::pe1950(), Server::sr1500al()],
        &ch5_mixes(scale),
        store,
    )
}

/// Figure 5.7: normalized running time of the SPEC CPU2006 workloads on the
/// PE1950.
pub fn fig5_7(scale: Scale, store: &Arc<CharStore>) -> Table {
    normalized_time_table(
        "fig5_7",
        "Normalized running time of SPEC CPU2006 workloads on the PE1950",
        scale,
        &[Server::pe1950()],
        &[mixes::w11(), mixes::w12()],
        store,
    )
}

/// Figure 5.8: normalized number of L2 cache misses (vs DTM-BW).
pub fn fig5_8(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig5_8",
        "Normalized numbers of L2 cache misses (vs DTM-BW)",
        &["server", "workload", "policy", "normalized L2 misses"],
    );
    let servers = [Server::pe1950(), Server::sr1500al()];
    for (server, runs) in servers.iter().zip(policy_runs(scale, &servers, &ch5_mixes(scale), store)) {
        for (mix, policy, m) in &runs {
            if policy == "No-limit" || policy == "DTM-BW" {
                continue;
            }
            let Some(base) = find(&runs, mix, "DTM-BW") else { continue };
            t.push_row([server.kind.to_string(), mix.clone(), policy.clone(), f3(m.normalized_llc_misses(base))]);
        }
    }
    t
}

/// Figure 5.9: measured memory inlet temperature per policy on the SR1500AL.
pub fn fig5_9(scale: Scale, store: &Arc<CharStore>) -> Table {
    let runs = server_runs(scale, Server::sr1500al(), &ch5_mixes(scale), store);
    let mut t = Table::new(
        "fig5_9",
        "Measured memory inlet (CPU exhaust) temperature on the SR1500AL",
        &["workload", "policy", "memory inlet degC"],
    );
    for (mix, policy, m) in &runs {
        if policy == "No-limit" {
            continue;
        }
        t.push_row([mix.clone(), policy.clone(), f1(m.memory_inlet_c)]);
    }
    t
}

/// Figure 5.10: CPU power consumption per policy on the SR1500AL
/// (normalized to DTM-BW).
pub fn fig5_10(scale: Scale, store: &Arc<CharStore>) -> Table {
    let runs = server_runs(scale, Server::sr1500al(), &ch5_mixes(scale), store);
    let mut t = Table::new(
        "fig5_10",
        "CPU power consumption on the SR1500AL (normalized to DTM-BW)",
        &["workload", "policy", "CPU power W", "normalized"],
    );
    for (mix, policy, m) in &runs {
        if policy == "No-limit" {
            continue;
        }
        let Some(base) = find(&runs, mix, "DTM-BW") else { continue };
        t.push_row([mix.clone(), policy.clone(), f1(m.cpu_power_w), f3(m.cpu_power_w / base.cpu_power_w.max(1e-9))]);
    }
    t
}

/// Figure 5.11: normalized CPU + memory energy per policy on the SR1500AL
/// (vs DTM-BW).
pub fn fig5_11(scale: Scale, store: &Arc<CharStore>) -> Table {
    let runs = server_runs(scale, Server::sr1500al(), &ch5_mixes(scale), store);
    let mut t = Table::new(
        "fig5_11",
        "Normalized energy consumption (CPU + memory) of DTM policies on the SR1500AL (vs DTM-BW)",
        &["workload", "policy", "normalized energy"],
    );
    for (mix, policy, m) in &runs {
        if policy == "No-limit" || policy == "DTM-BW" {
            continue;
        }
        let Some(base) = find(&runs, mix, "DTM-BW") else { continue };
        t.push_row([mix.clone(), policy.clone(), f3(m.normalized_energy(base))]);
    }
    t
}

/// Figure 5.12: normalized running time on the SR1500AL at a room ambient of
/// 26 °C with a 90 °C AMB TDP.
pub fn fig5_12(scale: Scale, store: &Arc<CharStore>) -> Table {
    let server = Server::sr1500al().with_ambient_c(26.0).with_amb_tdp(90.0);
    normalized_time_table(
        "fig5_12",
        "Normalized running time on the SR1500AL at 26 degC system ambient (90 degC AMB TDP)",
        scale,
        &[server],
        &ch5_mixes(scale),
        store,
    )
}

/// Figure 5.13: DTM-ACG vs DTM-BW at two fixed processor frequencies on the
/// SR1500AL.
pub fn fig5_13(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig5_13",
        "DTM-ACG vs DTM-BW under two processor frequencies on the SR1500AL (normalized to DTM-BW at 3.0 GHz)",
        &["workload", "policy", "frequency GHz", "normalized time"],
    );
    let server = Server::sr1500al();
    // One experiment per mix over the shared store, fanned across cores;
    // rows follow the mix order.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let per_mix = crate::sweep::parallel_map(threads, &ch5_mixes(scale), |mix| {
        let mut exp = experiment(scale, server.clone(), store);
        // Reference: DTM-BW at full frequency.
        let mut bw_fast = PlatformPolicy::new(PolicyKind::Bw, server.clone());
        let reference = exp.run_with(mix, &mut bw_fast).measurement;
        let mut rows = Vec::new();
        for (kind, label) in [(PolicyKind::Bw, "DTM-BW"), (PolicyKind::Acg, "DTM-ACG")] {
            for (freq_idx, freq_label) in [(0usize, 3.0f64), (3, 2.0)] {
                let mut policy = PlatformPolicy::new(kind, server.clone()).with_fixed_frequency_index(freq_idx);
                let m = exp.run_with(mix, &mut policy).measurement;
                rows.push([mix.id.clone(), label.to_string(), f1(freq_label), f3(m.normalized_time(&reference))]);
            }
        }
        rows
    });
    for row in per_mix.into_iter().flatten() {
        t.push_row(row);
    }
    t
}

/// Figure 5.14: average normalized running time on the PE1950 for AMB TDPs
/// of 88, 90 and 92 °C. The TDP changes no level-1 point, so the three
/// TDPs share `store`: a later TDP characterizes only the running modes an
/// earlier one never visited.
pub fn fig5_14(scale: Scale, store: &Arc<CharStore>) -> Table {
    let mut t = Table::new(
        "fig5_14",
        "Normalized running time averaged over all workloads on the PE1950 with different AMB TDPs",
        &["AMB TDP degC", "policy", "avg normalized time"],
    );
    let tdps = [88.0, 90.0, 92.0];
    let servers = tdps.map(|tdp| Server::pe1950().with_amb_tdp(tdp));
    for (tdp, runs) in tdps.into_iter().zip(policy_runs(scale, &servers, &ch5_mixes(scale), store)) {
        for kind in PolicyKind::ALL {
            let policy = kind.to_string();
            let values: Vec<f64> = runs
                .iter()
                .filter(|(_, p, _)| *p == policy)
                .filter_map(|(mix, _, m)| find(&runs, mix, "No-limit").map(|b| m.normalized_time(b)))
                .collect();
            t.push_row([f1(tdp), policy, f3(mean(&values))]);
        }
    }
    t
}

/// Figure 5.15: normalized running time and L2 misses vs the scheduler time
/// slice used when two programs share a core under DTM-ACG.
pub fn fig5_15(_scale: Scale) -> Table {
    let mut t = Table::new(
        "fig5_15",
        "Normalized running time and L2 misses vs scheduler time slice (DTM-ACG core sharing, PE1950)",
        &["time slice ms", "normalized L2 misses", "normalized running time"],
    );
    let apps: Vec<_> = mixes::all_ch4_mixes().into_iter().flat_map(|m| m.apps).collect();
    let reference = TimeSliceModel::linux_default();
    let ref_misses = reference.mix_miss_inflation(&apps);
    let ref_time = mean(&apps.iter().map(|a| reference.runtime_inflation(a)).collect::<Vec<_>>());
    for slice_ms in [5.0, 10.0, 20.0, 50.0, 100.0, 200.0] {
        let model = TimeSliceModel::linux_default().with_time_slice_s(slice_ms / 1000.0);
        let misses = model.mix_miss_inflation(&apps);
        let time = mean(&apps.iter().map(|a| model.runtime_inflation(a)).collect::<Vec<_>>());
        t.push_row([f1(slice_ms), f3(misses / ref_misses), f3(time / ref_time)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_15_penalty_grows_as_the_slice_shrinks() {
        let t = fig5_15(Scale::Smoke);
        let first: f64 = t.rows.first().unwrap()[2].parse().unwrap(); // 5 ms
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap(); // 200 ms
        assert!(first > last, "5 ms slice must be slower than 200 ms");
        assert!(last <= 1.001);
    }

    #[test]
    #[ignore = "runs smoke-scale platform simulations (~seconds in release); exercised by the `figures_ch5` bench"]
    fn fig5_6_smoke_has_rows_for_both_servers() {
        let t = fig5_6(Scale::Smoke, &Arc::default());
        assert!(t.rows.iter().any(|r| r[0] == "PE1950"));
        assert!(t.rows.iter().any(|r| r[0] == "SR1500AL"));
    }
}
