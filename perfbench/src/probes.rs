//! Per-layer probes of traced runs: each times calls into one layer's
//! public functions on the workload's own inputs, inside spans of that
//! layer.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use experiments::ch4::PolicySpec;
use experiments::harness::Scale;
use memtherm::prelude::*;
use memtherm::sim::modes::scheme_mode;
use platform_emu::{PlatformExperiment, PolicyKind, Server};

use crate::trace::Tracer;
use crate::{host, median};

/// The level-1 design points the threshold schemes visit (Table 4.3):
/// full speed plus every progress-making mode of the DTM-TS, DTM-BW,
/// DTM-ACG and DTM-CDVFS ladders.
pub fn ladder_modes(cpu: &CpuConfig) -> Vec<RunningMode> {
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

/// A characterization table of `mix` over `store`, one rotation thread.
pub fn table(mix: &WorkloadMix, budget: u64, store: Arc<CharStore>) -> CharacterizationTable {
    CharacterizationTable::with_store(
        CpuConfig::paper_quad_core(),
        FbdimmConfig::ddr2_667_paper(),
        mix.id.clone(),
        mix.apps.clone(),
        budget,
        store,
    )
    .with_rotation_threads(1)
}

/// `level1.ms_per_point`: `CharacterizationTable::point` on a fresh store
/// with one rotation thread, over the ladder modes of `mixes`. Returns the
/// mean time per point and one computed point (for the store probe).
pub fn level1_ms_per_point(tracer: &Tracer, mixes: &[&WorkloadMix], budget: u64) -> (f64, CharPoint) {
    let modes = ladder_modes(&CpuConfig::paper_quad_core());
    let store = Arc::new(CharStore::new());
    let mut total_s = 0.0;
    let mut points = 0usize;
    let mut sample = None;
    for mix in mixes {
        let mut table = table(mix, budget, Arc::clone(&store));
        for mode in &modes {
            let t = Instant::now();
            let point = tracer.span("characterize", "CharacterizationTable::point", || table.point(mode));
            total_s += t.elapsed().as_secs_f64();
            points += 1;
            sample.get_or_insert_with(|| (*point).clone());
        }
    }
    (total_s * 1e3 / points.max(1) as f64, sample.expect("at least one design point"))
}

/// Lookups per thread of the store hit probe.
const HIT_LOOKUPS: usize = 200_000;

/// `charstore.hit_ns`: `CharStore::get_or_compute` on keys already present
/// (the ladder modes of `mixes`), from `host::nproc()` threads at once;
/// the wall time per lookup of one thread.
pub fn charstore_hit_ns(tracer: &Tracer, mixes: &[&WorkloadMix], budget: u64, point: &CharPoint) -> f64 {
    let mem = FbdimmConfig::ddr2_667_paper();
    let keys: Vec<CharStoreKey> = mixes
        .iter()
        .flat_map(|mix| {
            ladder_modes(&CpuConfig::paper_quad_core()).into_iter().map(move |mode| CharStoreKey {
                mix_id: mix.id.clone(),
                mode: ModeKey::from_mode(&mode),
                budget,
                channels: mem.logical_channels,
                dimms_per_channel: mem.dimms_per_channel,
                hw_fingerprint: 0,
            })
        })
        .collect();
    let store = CharStore::new();
    for key in &keys {
        store.get_or_compute(key.clone(), || point.clone());
    }
    let threads = host::nproc();
    let t = Instant::now();
    tracer.span("charstore", "CharStore::get_or_compute", || {
        std::thread::scope(|scope| {
            for offset in 0..threads {
                let (keys, store) = (&keys, &store);
                scope.spawn(move || {
                    for i in 0..HIT_LOOKUPS {
                        let key = keys[(i + offset) % keys.len()].clone();
                        std::hint::black_box(store.get_or_compute(key, || unreachable!("every key is present")));
                    }
                });
            }
        });
    });
    t.elapsed().as_secs_f64() * 1e9 / HIT_LOOKUPS as f64
}

/// Total size of the files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).filter(|m| m.is_file()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

/// `diskcache.load_ms`, `.entries`, `.bytes`: `CharStore::with_disk_cache`
/// on a filled cache (median of five opens), the points it serves and the
/// size of its files.
pub fn diskcache_load(tracer: &Tracer, cache: &Path) -> (f64, usize, u64) {
    let mut times = Vec::new();
    let mut entries = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let store = tracer.span("diskcache", "CharStore::with_disk_cache", || {
            CharStore::with_disk_cache(cache).expect("reopen the filled disk cache")
        });
        times.push(t.elapsed().as_secs_f64() * 1e3);
        entries = store.len();
    }
    (median(&times), entries, cache.parent().map_or(0, dir_bytes))
}

/// `memspot.us_per_window`: `MemSpot::run` on a fixed set of cells (W1 and
/// W6 under DTM-TS and DTM-ACG, AOHS_1.5, Quick batches) with a 1 ms DTM
/// interval, per simulated window. Each cell runs once untimed first so its
/// level-1 points are warm.
pub fn memspot_us_per_window(tracer: &Tracer) -> f64 {
    let cpu = CpuConfig::paper_quad_core();
    let mut cfg = Scale::Quick.memspot_config(CoolingConfig::aohs_1_5());
    cfg.dtm_interval_s = 0.001;
    let step_s = cfg.window_s.min(cfg.dtm_interval_s);
    let limits = cfg.limits;
    let mut spot = MemSpot::with_hardware(cpu.clone(), FbdimmConfig::ddr2_667_paper(), cfg);
    let acg = PolicySpec::Acg { pid: false };
    let cells = [(mixes::w1(), PolicySpec::Ts), (mixes::w1(), acg), (mixes::w6(), PolicySpec::Ts), (mixes::w6(), acg)];
    for (mix, spec) in &cells {
        spot.run(mix, spec.build(&cpu, limits).as_mut());
    }
    let (mut secs, mut windows) = (0.0, 0.0);
    for (mix, spec) in &cells {
        let mut policy = spec.build(&cpu, limits);
        let t = Instant::now();
        let result = tracer.span("memspot", "MemSpot::run", || spot.run(mix, policy.as_mut()));
        secs += t.elapsed().as_secs_f64();
        windows += (result.running_time_s / step_s).ceil();
    }
    secs * 1e6 / windows.max(1.0)
}

/// `platform.run_ms`: median `PlatformExperiment::run_policy` on the
/// SR1500AL at Quick scale, W1 and W5 under each Chapter 5 policy. Each mix
/// first runs once without DTM, untimed, so its level-1 points are warm.
pub fn platform_run_ms(tracer: &Tracer) -> f64 {
    let scale = Scale::Quick;
    let mut exp = PlatformExperiment::with_scale(
        Server::sr1500al(),
        scale.platform_runs_per_app(),
        scale.platform_instruction_scale(),
    );
    let mut times = Vec::new();
    for mix in [mixes::w1(), mixes::w5()] {
        exp.run_no_limit(&mix);
        for kind in PolicyKind::ALL {
            let t = Instant::now();
            tracer.span("platform", "PlatformExperiment::run_policy", || exp.run_policy(&mix, kind));
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_modes_are_distinct_and_make_progress() {
        let modes = ladder_modes(&CpuConfig::paper_quad_core());
        // Full speed, three DTM-BW caps, three DTM-ACG core counts and three
        // DTM-CDVFS operating points.
        assert_eq!(modes.len(), 10);
        let keys: Vec<ModeKey> = modes.iter().map(ModeKey::from_mode).collect();
        assert!(keys.iter().all(ModeKey::makes_progress));
        assert!(keys.iter().enumerate().all(|(i, k)| !keys[..i].contains(k)));
    }
}
