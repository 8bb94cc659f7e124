//! Level-1 design-point characterization.
//!
//! The first level of the two-level simulator (Section 4.3.1) produces, for
//! every workload mix and every running mode the DTM schemes can select, the
//! performance and memory-throughput numbers the second level replays:
//! aggregate instruction rate, per-core weights, read/write throughput, the
//! per-DIMM local/bypass traffic split and the shared-cache miss statistics.
//! Each point costs one closed-loop `cpu-model` + `fbdimm-sim` run — by far
//! the most expensive unit of work in a scenario sweep — so the module is
//! built around sharing them:
//!
//! * [`CharStore`] is the thread-safe home of every computed point, keyed
//!   by [`CharStoreKey`] (mix id, quantized [`ModeKey`], characterization
//!   budget, memory geometry, hardware-config fingerprint). The level-1
//!   outcome is independent of the cooling configuration and the DTM
//!   policy, so everything that shares one store characterizes each design
//!   point exactly once per store: a sweep grid revisiting a mix under
//!   several coolings or policies, each paper figure (its grids, `MemSpot`s
//!   and platform experiments all run over one store) and a whole `paper`
//!   invocation, which hands one store to every figure it runs.
//!   It is one `Mutex<HashMap>` holding a per-key [`OnceLock`]: concurrent
//!   requests for the same key are deduplicated (losers block on the
//!   winner's in-flight computation, outside the map lock), and two atomic
//!   hit/miss counters expose how much work the sharing saved.
//! * [`CharStore::with_disk_cache`] extends the sharing **across
//!   processes**: points already in the cache file load at startup (and
//!   count as hits), and every point computed by this process is appended,
//!   so repeated sweeps, examples and CI runs skip level-1 entirely once
//!   the file is warm. The file is one versioned, line-delimited JSON file
//!   at the path the caller gives (see `sim::diskcache`); entries are keyed
//!   by the full [`CharStoreKey`] — including the hardware fingerprint, so
//!   caches from different hardware configurations coexist without
//!   aliasing — and a format-version mismatch discards the file wholesale
//!   rather than risking stale semantics. Floats round-trip bit-exactly: a
//!   reloaded point is indistinguishable from a computed one.
//! * [`CharacterizationTable`] is the per-run view: it keeps a lock-free
//!   local cache of `Arc<CharPoint>` handles for the modes it has already
//!   resolved and falls through to the shared store on local misses. Lookups
//!   return `Arc<CharPoint>` — a cache hit never deep-clones the point's
//!   inner vectors. This is the analogue of the paper's `Wi × D` trace set.
//!   [`CharacterizationTable::points`] resolves a whole batch of modes at
//!   once. A table runs its closed loops on the calling thread unless
//!   [`CharacterizationTable::with_rotation_threads`] gives it more: the
//!   figures, sweeps and platform experiments already run one table per
//!   worker, so level-1 is parallelized there and nowhere below. Given
//!   threads, a batch fans its distinct missing design points across them
//!   — closed-loop runs are independent and deterministic, so the
//!   parallelism changes wall-clock only, never a result.
//! * **Lent simulators.** Only a store miss that is neither derived nor idle
//!   runs a closed loop, and it borrows the `MulticoreSim` it runs on from
//!   the store: an idle one of the table's CPU configuration, retargeted at
//!   the table's memory configuration, or a new one when every simulator of
//!   that CPU is busy. It returns the simulator when the
//!   point is done; every rotation of a gated point runs on the one it
//!   borrowed. So a store holds one simulator (its shared-cache arrays are
//!   576 KiB per paper quad-core L2) per closed loop that ever ran at once,
//!   not one per table, and a table over a warm store borrows none. Lending
//!   is exact: a run warm-starts every cache set and builds its memory
//!   system afresh, so no result depends on which simulator ran it.
//!   [`CharStore::simulators_built`] counts the simulators a store built.
//! * **Derived capped points.** A bandwidth cap delays a request only when
//!   its 10 µs throttle window has already granted the cap's per-window
//!   activation limit, and every point records the most activations any of
//!   its windows granted ([`CharPoint::peak_window_activations`]). So when
//!   the uncapped sibling of a capped mode is already stored and its peak
//!   is at most the cap's limit
//!   ([`MemoryController::activation_limit`]), the capped run would be the
//!   uncapped run step for step: the table stores a clone of the sibling
//!   with the capped `mode` instead of simulating it. This is exact, not
//!   an approximation — on the paper quad core no Chapter 4 mix reaches
//!   DTM-BW's 19.2 or 12.8 GB/s rungs. A derived point counts as a store
//!   miss like a simulated one and is also counted by
//!   [`CharStore::derived`]; [`CharacterizationTable::points`] resolves a
//!   batch's uncapped modes before its capped ones so the batch can derive.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cpu_model::{CpuConfig, MulticoreSim, RunMeasurement, RunningMode};
use fbdimm_sim::{DimmTraffic, FbdimmConfig, MemoryController};
use workloads::AppBehavior;

use crate::sim::diskcache::DiskCache;

/// One characterized design point.
#[derive(Debug, Clone, PartialEq)]
pub struct CharPoint {
    /// The running mode this point describes.
    pub mode: RunningMode,
    /// Aggregate committed-instruction rate, instructions per second.
    pub instr_rate_total: f64,
    /// Per-core share of the aggregate instruction rate (sums to 1 over the
    /// active cores; inactive cores are 0).
    pub core_share: Vec<f64>,
    /// Memory read throughput in GB/s.
    pub read_gbps: f64,
    /// Memory write throughput in GB/s.
    pub write_gbps: f64,
    /// Per-DIMM-position traffic split (for the AMB/DRAM power models).
    pub dimm_traffic: Vec<DimmTraffic>,
    /// Sum over cores of reference-cycle IPC (the Σ IPC term of Eq. 3.6).
    pub ipc_ref_sum: f64,
    /// Shared-L2 miss rate over the run.
    pub l2_miss_rate: f64,
    /// L2 misses per committed instruction.
    pub l2_misses_per_instr: f64,
    /// Memory traffic per committed instruction, bytes.
    pub bytes_per_instr: f64,
    /// The most row activations any 10 µs throttle window granted during
    /// the run (the maximum over the runs of a rotation-averaged point; 0
    /// for an idle point). A bandwidth cap allowing at least this many per
    /// window would have delayed nothing (see the module docs).
    pub peak_window_activations: u64,
}

impl CharPoint {
    /// Derives a point from a raw first-level measurement and the run's
    /// per-window activation peak
    /// ([`MulticoreSim::last_run_peak_activations`]).
    pub fn from_measurement(m: &RunMeasurement, peak_window_activations: u64) -> Self {
        let total_instr: u64 = m.cores.iter().map(|c| c.instructions).sum();
        let total_misses: u64 = m.cores.iter().map(|c| c.l2_misses).sum();
        let secs = m.elapsed_secs().max(1e-12);
        let core_share = if total_instr == 0 {
            vec![0.0; m.cores.len()]
        } else {
            m.cores.iter().map(|c| c.instructions as f64 / total_instr as f64).collect()
        };
        CharPoint {
            mode: m.mode,
            instr_rate_total: total_instr as f64 / secs,
            core_share,
            read_gbps: m.traffic.read_gbps,
            write_gbps: m.traffic.write_gbps,
            dimm_traffic: m.traffic.dimms.clone(),
            ipc_ref_sum: m.total_ipc_ref(),
            l2_miss_rate: m.l2_miss_rate(),
            l2_misses_per_instr: if total_instr == 0 { 0.0 } else { total_misses as f64 / total_instr as f64 },
            bytes_per_instr: m.bytes_per_instruction(),
            peak_window_activations,
        }
    }

    /// Total memory throughput in GB/s.
    pub fn total_gbps(&self) -> f64 {
        self.read_gbps + self.write_gbps
    }

    /// An all-zero point for modes that make no progress.
    pub fn idle(mode: RunningMode, cores: usize, mem_cfg: &FbdimmConfig) -> Self {
        let dimm_traffic = mem_cfg.idle_dimm_traffic();
        CharPoint {
            mode,
            instr_rate_total: 0.0,
            core_share: vec![0.0; cores],
            read_gbps: 0.0,
            write_gbps: 0.0,
            dimm_traffic,
            ipc_ref_sum: 0.0,
            l2_miss_rate: 0.0,
            l2_misses_per_instr: 0.0,
            bytes_per_instr: 0.0,
            peak_window_activations: 0,
        }
    }
}

/// Quantized key identifying a running mode (so nearly identical floating
/// point modes share one characterization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModeKey {
    /// Number of active cores.
    pub active_cores: usize,
    /// Core frequency quantized to MHz.
    pub freq_mhz: u32,
    /// Bandwidth cap quantized to MB/s (`u32::MAX` = unlimited, 0 = off).
    pub cap_mbps: u32,
}

impl ModeKey {
    /// Quantizes a running mode.
    pub fn from_mode(mode: &RunningMode) -> Self {
        ModeKey {
            active_cores: mode.active_cores,
            freq_mhz: (mode.op.freq_ghz * 1000.0).round() as u32,
            cap_mbps: match mode.bandwidth_cap {
                None => u32::MAX,
                Some(cap) => (cap / 1e6).round() as u32,
            },
        }
    }

    /// Whether the quantized mode makes any forward progress (mirrors
    /// [`RunningMode::makes_progress`] at quantization granularity).
    pub fn makes_progress(&self) -> bool {
        self.active_cores > 0 && self.cap_mbps > 0
    }
}

/// Identity of one shared level-1 design point: the workload mix, the
/// quantized running mode, the characterization budget, the memory geometry
/// and a fingerprint of the full hardware configuration (everything the
/// closed-loop level-1 run depends on — notably *not* the cooling
/// configuration or the DTM policy).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CharStoreKey {
    /// Workload mix identifier.
    pub mix_id: String,
    /// Quantized running mode.
    pub mode: ModeKey,
    /// Demand L2 accesses simulated per design point.
    pub budget: u64,
    /// Logical memory channels.
    pub channels: usize,
    /// DIMMs per channel.
    pub dimms_per_channel: usize,
    /// Fingerprint of the complete `CpuConfig` + `FbdimmConfig` pair, so
    /// simulators sharing a store with different hardware (cache sizes,
    /// DVFS ladders, memory timings, ...) but identical geometry never alias
    /// each other's points. Stable within a process, which is the store's
    /// lifetime.
    pub hw_fingerprint: u64,
}

/// FNV-1a fingerprint of a canonical (`Debug`) rendering — cheap,
/// collision-resistant enough for a per-process key, and automatically
/// covers every field the rendered types grow.
fn fnv1a(rendering: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendering.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of the hardware configurations the level-1 run depends on.
fn hardware_fingerprint(cpu: &CpuConfig, mem: &FbdimmConfig) -> u64 {
    fnv1a(&format!("{cpu:?}\u{1f}{mem:?}"))
}

/// Thread-safe store of level-1 characterization points.
///
/// Sweep cells that revisit the same `(mix, mode, budget, geometry)` design
/// point — e.g. the same workload under two cooling configurations, or two
/// DTM policies exploring the same running level — share one `Arc<CharPoint>`
/// instead of recomputing the closed-loop level-1 run. Concurrent first
/// requests for one key are collapsed: a single caller computes while the
/// others block on the entry's [`OnceLock`] and then share the result, so a
/// design point is simulated at most once per store no matter how the
/// sweep is parallelized. The map lock is held only to find or insert a
/// key's cell, never while computing.
///
/// Who shares one: every cell of a sweep grid run over it, every `MemSpot`
/// built with `MemSpot::with_store`, and every platform experiment built
/// over it. A paper figure makes one store for all of its
/// grids and simulators, and the `paper` command shares one across all the
/// figures it runs.
///
/// The store also lends the level-1 simulators that compute its points
/// (see the module docs), so closed loops over one store share them.
///
/// The key names a mix only by its id. Debug builds therefore record a
/// fingerprint of each id's application list and panic when one store sees
/// the same id with a different list, which would otherwise silently share
/// points between two different workloads.
#[derive(Debug, Default)]
pub struct CharStore {
    cells: Mutex<HashMap<CharStoreKey, Arc<OnceLock<Arc<CharPoint>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    derived: AtomicU64,
    simulators: SimulatorPool,
    /// Optional disk backing: pre-loaded at construction, appended on miss.
    disk: Option<DiskCache>,
    /// Fingerprint of the application list seen under each mix id.
    #[cfg(debug_assertions)]
    mixes: Mutex<HashMap<String, u64>>,
}

impl CharStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store backed by a results-cache file at `path`: every entry
    /// already on disk is served as a hit (zero level-1 work), and every
    /// point computed by this process is appended, so repeated sweeps,
    /// examples and CI runs skip level-1 entirely once the cache is warm.
    /// The file is versioned and keyed by the full [`CharStoreKey`]
    /// including the hardware fingerprint; a stale format version discards
    /// the file, while entries from other hardware configurations simply
    /// never match.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading an existing cache file (a missing
    /// file is not an error — it is created on first append).
    pub fn with_disk_cache(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let (disk, entries) = DiskCache::open(path)?;
        let cells = entries.into_iter().map(|(key, point)| (key, Arc::new(OnceLock::from(Arc::new(point))))).collect();
        Ok(CharStore { cells: Mutex::new(cells), disk: Some(disk), ..Self::default() })
    }

    /// Returns the point for `key`, running `compute` (at most once per key
    /// and store) if it is not stored yet. Freshly computed points are
    /// appended to the disk cache, when one is attached.
    pub fn get_or_compute(&self, key: CharStoreKey, compute: impl FnOnce() -> CharPoint) -> Arc<CharPoint> {
        // A hit holds the one map lock only for the lookup: no key clone and
        // no cell refcount traffic inside it.
        if let Some(point) = self.peek(&key) {
            return point;
        }
        let cell = {
            let mut cells = self.cells.lock().expect("CharStore lock poisoned");
            Arc::clone(cells.entry(key.clone()).or_default())
        };
        // The map lock is released before computing: a miss on one key
        // never blocks progress on another. Racing callers of the *same* key
        // block here until the winner's computation lands.
        let mut computed = false;
        let point = Arc::clone(cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        }));
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(disk) = &self.disk {
                disk.append(&key, &point);
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        point
    }

    /// Returns the point for `key` if it is already computed, without
    /// blocking on (or joining) an in-flight computation. A found point
    /// counts as a hit; an absent or still-computing one is not counted at
    /// all.
    pub fn peek(&self, key: &CharStoreKey) -> Option<Arc<CharPoint>> {
        let point = self.stored(key);
        if point.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        point
    }

    /// [`Self::peek`] without counting: the sibling lookup of a derived
    /// point is not a lookup of the point itself.
    fn stored(&self, key: &CharStoreKey) -> Option<Arc<CharPoint>> {
        self.cells.lock().expect("CharStore lock poisoned").get(key).and_then(|cell| cell.get()).cloned()
    }

    /// Debug builds: records the application list `mix_id` names in this
    /// store, and panics if the id was seen before with a different list.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn check_mix_identity(&self, mix_id: &str, apps: &[AppBehavior]) {
        #[cfg(debug_assertions)]
        {
            let print = fnv1a(&format!("{apps:?}"));
            let seen = *self.mixes.lock().expect("CharStore lock poisoned").entry(mix_id.to_string()).or_insert(print);
            assert_eq!(seen, print, "CharStore: mix id {mix_id:?} names two different application lists");
        }
    }

    /// Number of lookups that found an already-computed point.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to produce a new point: simulated, or
    /// derived from a stored uncapped sibling (counted again by
    /// [`Self::derived`]). `misses() - derived()` closed loops ran.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of misses served by deriving a capped point from its stored
    /// uncapped sibling instead of running the closed loop (see the module
    /// docs).
    pub fn derived(&self) -> u64 {
        self.derived.load(Ordering::Relaxed)
    }

    /// Number of level-1 simulators this store has built to lend to its
    /// closed loops: at most the number of closed loops of one CPU
    /// configuration that ever ran at once, summed over CPU configurations.
    pub fn simulators_built(&self) -> u64 {
        self.simulators.built.load(Ordering::Relaxed)
    }

    /// Runs `run` on a simulator of `cpu` and `mem` lent from the store's
    /// idle ones, building one only when every simulator of `cpu` is busy,
    /// and takes it back afterwards.
    fn with_simulator<R>(&self, cpu: &CpuConfig, mem: &FbdimmConfig, run: impl FnOnce(&mut MulticoreSim) -> R) -> R {
        let idle = {
            let mut idle = self.simulators.idle.lock().expect("simulator pool lock poisoned");
            idle.iter().rposition(|sim| sim.cpu_config() == cpu).map(|i| idle.swap_remove(i))
        };
        let mut sim = idle.unwrap_or_else(|| {
            self.simulators.built.fetch_add(1, Ordering::Relaxed);
            MulticoreSim::new(cpu.clone(), *mem)
        });
        sim.set_memory_config(*mem);
        let result = run(&mut sim);
        self.simulators.idle.lock().expect("simulator pool lock poisoned").push(sim);
        result
    }

    /// Number of design points stored.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("CharStore lock poisoned").values().filter(|c| c.get().is_some()).count()
    }

    /// Whether the store holds no completed design point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The idle level-1 simulators a [`CharStore`] lends, and how many it has
/// built. Its `Debug` prints the counts, not the simulated caches.
#[derive(Default)]
struct SimulatorPool {
    idle: Mutex<Vec<MulticoreSim>>,
    built: AtomicU64,
}

impl std::fmt::Debug for SimulatorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let idle = self.idle.lock().map_or(0, |idle| idle.len());
        f.debug_struct("SimulatorPool").field("idle", &idle).field("built", &self.built).finish()
    }
}

/// Per-run view of one workload mix's characterization across running modes.
///
/// The table keeps a lock-free local cache of the modes it has already
/// resolved; local misses fall through to the shared [`CharStore`], whose
/// simulators compute the missing points (see the module docs). Its configs
/// are validated when it is made. Lookups hand out `Arc<CharPoint>`
/// handles, never deep clones.
#[derive(Debug)]
pub struct CharacterizationTable {
    cpu: CpuConfig,
    mem: FbdimmConfig,
    mix_id: String,
    apps: Vec<AppBehavior>,
    budget: u64,
    hw_fingerprint: u64,
    store: Arc<CharStore>,
    local: HashMap<ModeKey, Arc<CharPoint>>,
    /// Worker threads a batch ([`Self::points`]) fans its missing design
    /// points across; 1 (the default) runs every closed loop on the calling
    /// thread. The runs are independent deterministic simulations, so
    /// fanning them out changes wall-clock only, never results.
    threads: usize,
}

impl CharacterizationTable {
    /// Creates a table for the given mix of applications with a private
    /// store (no cross-table sharing). `budget` is the number of demand L2
    /// accesses simulated per design point (larger = more accurate, slower).
    pub fn new(cpu: CpuConfig, mem: FbdimmConfig, apps: Vec<AppBehavior>, budget: u64) -> Self {
        Self::with_store(cpu, mem, String::new(), apps, budget, Arc::new(CharStore::new()))
    }

    /// Creates a table whose points live in (and are shared through) an
    /// external [`CharStore`]. `mix_id` identifies the application mix in
    /// the store key, so every table created for the same mix against the
    /// same store shares one set of design points.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    pub fn with_store(
        cpu: CpuConfig,
        mem: FbdimmConfig,
        mix_id: impl Into<String>,
        apps: Vec<AppBehavior>,
        budget: u64,
        store: Arc<CharStore>,
    ) -> Self {
        cpu.validate().expect("invalid CPU configuration");
        mem.validate().expect("invalid FBDIMM configuration");
        let hw_fingerprint = hardware_fingerprint(&cpu, &mem);
        let mix_id = mix_id.into();
        store.check_mix_identity(&mix_id, &apps);
        CharacterizationTable {
            cpu,
            mem,
            mix_id,
            apps,
            budget,
            hw_fingerprint,
            store,
            local: HashMap::new(),
            threads: 1,
        }
    }

    /// Sets the number of worker threads a batch ([`Self::points`]) fans
    /// its missing design points across (default and minimum 1). Results
    /// are bit-identical for any value; callers that already run one table
    /// per core keep the default.
    pub fn with_rotation_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of design points this table has resolved so far.
    pub fn len(&self) -> usize {
        self.local.len()
    }

    /// Whether no design point has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }

    /// The applications of the mix being characterized.
    pub fn apps(&self) -> &[AppBehavior] {
        &self.apps
    }

    /// The shared store backing this table.
    pub fn store(&self) -> &Arc<CharStore> {
        &self.store
    }

    /// Returns the characterization of `mode`, simulating it on first use
    /// (once per store: every table over the same store reuses it).
    ///
    /// For modes that gate some cores (DTM-ACG / DTM-COMB), the schemes
    /// rotate the gated cores round-robin among the applications for
    /// fairness; the characterization therefore averages over all rotations
    /// of the application list, so every application's cache behaviour
    /// contributes to the gated design point.
    pub fn point(&mut self, mode: &RunningMode) -> Arc<CharPoint> {
        let key = ModeKey::from_mode(mode);
        if let Some(p) = self.local.get(&key) {
            return Arc::clone(p);
        }
        let store_key = self.store_key(key);
        let sibling = self.sibling_key(mode);
        let Self { cpu, mem, apps, budget, store, .. } = &*self;
        let point = store.get_or_compute(store_key, || {
            derive_capped(store, sibling.as_ref(), mem, mode)
                .unwrap_or_else(|| compute_point(store, cpu, mem, apps, *budget, mode))
        });
        self.local.insert(key, Arc::clone(&point));
        point
    }

    /// Resolves a whole batch of modes. With more than one thread (see
    /// [`Self::with_rotation_threads`]) the distinct *missing* design points
    /// are computed concurrently; they are independent closed-loop runs, so
    /// the results are bit-identical to resolving them one at a time. The
    /// batch's uncapped modes resolve before its capped ones, so a capped
    /// mode whose cap never binds is derived from its sibling (see the
    /// module docs). Each finished point is registered through the shared
    /// store (and appended to its disk cache, when present); points another
    /// table or an earlier process already computed are adopted up front
    /// and never scheduled.
    pub fn points(&mut self, modes: &[RunningMode]) -> Vec<Arc<CharPoint>> {
        let (capped, uncapped): (Vec<RunningMode>, Vec<RunningMode>) = modes.iter().partition(|mode| is_capped(mode));
        for wave in [uncapped, capped] {
            self.resolve_missing(&wave);
        }
        modes.iter().map(|mode| self.point(mode)).collect()
    }

    /// Resolves the modes of `modes` the table does not hold yet, fanning
    /// them across the table's threads when there are several.
    fn resolve_missing(&mut self, modes: &[RunningMode]) {
        let mut jobs: Vec<(RunningMode, CharStoreKey, Option<CharStoreKey>)> = Vec::new();
        for mode in modes {
            let key = ModeKey::from_mode(mode);
            if self.local.contains_key(&key) || jobs.iter().any(|(m, ..)| ModeKey::from_mode(m) == key) {
                continue;
            }
            // Adopt points already present in the (possibly disk-backed)
            // shared store instead of scheduling work for them.
            let store_key = self.store_key(key);
            if let Some(point) = self.store.peek(&store_key) {
                self.local.insert(key, point);
                continue;
            }
            jobs.push((*mode, store_key, self.sibling_key(mode)));
        }
        if self.threads == 1 || jobs.len() < 2 {
            for (mode, ..) in &jobs {
                self.point(mode);
            }
            return;
        }
        let Self { cpu, mem, apps, budget, store, .. } = &*self;
        // A few threads per core, timesliced by the OS: design points
        // differ widely in cost (a gated point is several rotation runs),
        // and on small shared hosts letting many points progress
        // concurrently rebalances around stalls better than a static
        // assignment of points to workers. The worker count is capped so a
        // large mode lattice cannot spawn hundreds of threads (and borrow as
        // many simulators) at once; surplus points queue behind a shared
        // cursor.
        let workers = jobs.len().min(self.threads.saturating_mul(4));
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let resolved: Vec<Vec<(ModeKey, Arc<CharPoint>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (jobs, cursor) = (&jobs, &cursor);
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let j = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some((mode, store_key, sibling)) = jobs.get(j) else { break };
                            let point = store.get_or_compute(store_key.clone(), || {
                                derive_capped(store, sibling.as_ref(), mem, mode)
                                    .unwrap_or_else(|| compute_point(store, cpu, mem, apps, *budget, mode))
                            });
                            done.push((ModeKey::from_mode(mode), point));
                        }
                        done
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("batch point worker panicked")).collect()
        });
        for (key, point) in resolved.into_iter().flatten() {
            self.local.insert(key, point);
        }
    }

    /// Store key of the uncapped sibling of a capped mode that makes
    /// progress — the point a capped point may be derived from — or `None`
    /// for any other mode.
    fn sibling_key(&self, mode: &RunningMode) -> Option<CharStoreKey> {
        is_capped(mode).then(|| self.store_key(ModeKey::from_mode(&RunningMode { bandwidth_cap: None, ..*mode })))
    }

    fn store_key(&self, key: ModeKey) -> CharStoreKey {
        CharStoreKey {
            mix_id: self.mix_id.clone(),
            mode: key,
            budget: self.budget,
            channels: self.mem.logical_channels,
            dimms_per_channel: self.mem.dimms_per_channel,
            hw_fingerprint: self.hw_fingerprint,
        }
    }
}

/// Whether `mode` is capped and makes progress: a mode whose point may be
/// derived from its uncapped sibling.
fn is_capped(mode: &RunningMode) -> bool {
    mode.makes_progress() && mode.bandwidth_cap.is_some()
}

/// The point of capped `mode` derived from its stored uncapped sibling
/// (`sibling` names its key), when the sibling's per-window activation peak
/// stays within the cap's limit on `mem`: the capped run is then the
/// uncapped run, so the point is the sibling's with `mode` set. Counts the
/// derivation in `store`. `None` when there is no sibling key, the sibling
/// is not stored (or still computing), or the cap would bind.
fn derive_capped(
    store: &CharStore,
    sibling: Option<&CharStoreKey>,
    mem: &FbdimmConfig,
    mode: &RunningMode,
) -> Option<CharPoint> {
    let limit = MemoryController::activation_limit(mem, mode.bandwidth_cap)?;
    let sibling = store.stored(sibling?)?;
    if sibling.peak_window_activations > limit {
        return None;
    }
    store.derived.fetch_add(1, Ordering::Relaxed);
    Some(CharPoint { mode: *mode, ..CharPoint::clone(&sibling) })
}

/// Computes one design point. A mode that makes progress runs its closed
/// loops on a simulator of `cpu` and `mem` borrowed from `store`; an idle
/// mode needs none.
fn compute_point(
    store: &CharStore,
    cpu: &CpuConfig,
    mem: &FbdimmConfig,
    apps: &[AppBehavior],
    budget: u64,
    mode: &RunningMode,
) -> CharPoint {
    if !mode.makes_progress() {
        return CharPoint::idle(*mode, cpu.cores, mem);
    }
    let active = mode.active_cores.min(apps.len()).min(cpu.cores);
    store.with_simulator(cpu, mem, |sim| {
        if active < apps.len() {
            rotation_averaged_point(sim, apps, budget, mode)
        } else {
            let m = sim.run(apps, mode, budget);
            CharPoint::from_measurement(&m, sim.last_run_peak_activations())
        }
    })
}

/// Characterizes a core-gated mode as the average over all cyclic rotations
/// of the application list (Section 4.3.1 fairness). Applications are
/// handed to the simulator by reference — the rotated orders borrow from
/// `apps` instead of cloning the behaviour models once per rotation.
fn rotation_averaged_point(
    sim: &mut MulticoreSim,
    apps: &[AppBehavior],
    table_budget: u64,
    mode: &RunningMode,
) -> CharPoint {
    let n = apps.len();
    let rotations = n.max(1);
    let cores = sim.cpu_config().cores;
    let budget = (table_budget / rotations as u64).max(1_000);
    let points = (0..rotations)
        .map(|offset| {
            let rotated: Vec<&AppBehavior> = (0..n).map(|i| &apps[(offset + i) % n]).collect();
            let m = sim.run_order(&rotated, mode, budget);
            CharPoint::from_measurement(&m, sim.last_run_peak_activations())
        })
        .collect();
    fold_rotations(points, cores, n, mode)
}

/// Folds per-rotation measurements, in rotation order, into one averaged
/// design point.
fn fold_rotations(points: Vec<CharPoint>, cores: usize, n: usize, mode: &RunningMode) -> CharPoint {
    let rotations = points.len().max(1);
    let mut acc: Option<CharPoint> = None;
    let mut app_share = vec![0.0f64; cores.max(n)];
    for (offset, p) in points.into_iter().enumerate() {
        // Attribute each core's share back to the application that was
        // running on it under this rotation.
        for (core_pos, share) in p.core_share.iter().enumerate() {
            let app_index = (offset + core_pos) % n;
            app_share[app_index] += share / rotations as f64;
        }
        acc = Some(match acc {
            None => p,
            Some(mut a) => {
                a.instr_rate_total += p.instr_rate_total;
                a.read_gbps += p.read_gbps;
                a.write_gbps += p.write_gbps;
                a.ipc_ref_sum += p.ipc_ref_sum;
                a.l2_miss_rate += p.l2_miss_rate;
                a.l2_misses_per_instr += p.l2_misses_per_instr;
                a.bytes_per_instr += p.bytes_per_instr;
                a.peak_window_activations = a.peak_window_activations.max(p.peak_window_activations);
                for (d, pd) in a.dimm_traffic.iter_mut().zip(p.dimm_traffic.iter()) {
                    d.local_gbps += pd.local_gbps;
                    d.bypass_gbps += pd.bypass_gbps;
                    d.read_fraction += pd.read_fraction;
                }
                a
            }
        });
    }
    let mut avg = acc.expect("at least one rotation");
    let r = rotations as f64;
    avg.instr_rate_total /= r;
    avg.read_gbps /= r;
    avg.write_gbps /= r;
    avg.ipc_ref_sum /= r;
    avg.l2_miss_rate /= r;
    avg.l2_misses_per_instr /= r;
    avg.bytes_per_instr /= r;
    for d in avg.dimm_traffic.iter_mut() {
        d.local_gbps /= r;
        d.bypass_gbps /= r;
        d.read_fraction /= r;
    }
    // Shares are per application; they already average to 1 across apps.
    app_share.truncate(cores.max(n));
    avg.core_share = app_share;
    avg.mode = *mode;
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::mixes;

    fn table() -> CharacterizationTable {
        CharacterizationTable::new(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            mixes::w1().apps,
            15_000,
        )
    }

    #[test]
    fn points_are_cached_and_deterministic() {
        let mut t = table();
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let a = t.point(&full);
        assert_eq!(t.len(), 1);
        let b = t.point(&full);
        assert_eq!(t.len(), 1, "second lookup must hit the cache");
        assert_eq!(a, b);
        assert!(!t.is_empty());
        assert_eq!(t.apps().len(), 4);
    }

    #[test]
    fn full_speed_point_has_plausible_w1_characteristics() {
        let mut t = table();
        let p = t.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
        assert!(p.total_gbps() > 8.0, "W1 aggregate throughput {}", p.total_gbps());
        assert!(p.instr_rate_total > 1e9, "instruction rate {}", p.instr_rate_total);
        assert!(p.ipc_ref_sum > 0.2 && p.ipc_ref_sum < 8.0);
        assert!((p.core_share.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.l2_miss_rate > 0.2 && p.l2_miss_rate <= 1.0);
        assert!(p.bytes_per_instr > 0.1);
        assert!(!p.dimm_traffic.is_empty());
    }

    #[test]
    fn gated_point_reduces_traffic_and_misses_per_instruction() {
        let mut t = table();
        let cpu = CpuConfig::paper_quad_core();
        let full = t.point(&RunningMode::full_speed(&cpu));
        let two = t.point(&RunningMode::full_speed(&cpu).with_active_cores(2));
        assert!(two.total_gbps() < full.total_gbps());
        assert!(two.l2_misses_per_instr < full.l2_misses_per_instr);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn shut_off_mode_characterizes_as_idle_without_simulation() {
        let mut t = table();
        let cpu = CpuConfig::paper_quad_core();
        let off = RunningMode { active_cores: 0, op: cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) };
        let p = t.point(&off);
        assert_eq!(p.instr_rate_total, 0.0);
        assert_eq!(p.total_gbps(), 0.0);
        assert_eq!(p.dimm_traffic.len(), 8);
        assert_eq!(t.store().simulators_built(), 0, "an idle point borrows no simulator");
    }

    #[test]
    fn mode_quantization_merges_equivalent_modes() {
        let mut t = table();
        let cpu = CpuConfig::paper_quad_core();
        let a = RunningMode::full_speed(&cpu).with_bandwidth_cap_gbps(6.4);
        let mut b = a;
        b.bandwidth_cap = Some(6.4e9 + 10.0); // negligible difference
        t.point(&a);
        t.point(&b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shared_store_deduplicates_points_across_tables() {
        let store = Arc::new(CharStore::new());
        let make = || {
            CharacterizationTable::with_store(
                CpuConfig::paper_quad_core(),
                FbdimmConfig::ddr2_667_paper(),
                "W1",
                mixes::w1().apps,
                15_000,
                Arc::clone(&store),
            )
        };
        let mut first = make();
        let mut second = make();
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let a = first.point(&full);
        assert_eq!((store.hits(), store.misses()), (0, 1));
        let b = second.point(&full);
        assert_eq!((store.hits(), store.misses()), (1, 1), "second table must reuse the stored point");
        assert!(Arc::ptr_eq(&a, &b), "a store hit must hand out the same allocation, not a deep clone");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn table_local_cache_hits_do_not_touch_the_store() {
        let mut t = table();
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let a = t.point(&full);
        let b = t.point(&full);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.store().misses(), 1);
        assert_eq!(t.store().hits(), 0, "repeat lookups are absorbed by the table-local cache");
    }

    #[test]
    fn concurrent_requests_for_one_key_compute_once() {
        let store = Arc::new(CharStore::new());
        let key = || CharStoreKey {
            mix_id: "W1".to_string(),
            mode: ModeKey { active_cores: 4, freq_mhz: 3200, cap_mbps: u32::MAX },
            budget: 1_000,
            channels: 2,
            dimms_per_channel: 4,
            hw_fingerprint: 0,
        };
        let computations = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                let computations = Arc::clone(&computations);
                scope.spawn(move || {
                    store.get_or_compute(key(), || {
                        computations.fetch_add(1, Ordering::Relaxed);
                        CharPoint::idle(
                            RunningMode::full_speed(&CpuConfig::paper_quad_core()),
                            4,
                            &FbdimmConfig::ddr2_667_paper(),
                        )
                    });
                });
            }
        });
        assert_eq!(computations.load(Ordering::Relaxed), 1, "exactly one thread computes");
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 3);
    }

    /// A synthetic key for the multi-thread store tests: `n` varies the
    /// budget so distinct `n` produce distinct keys.
    fn hammer_key(n: u64) -> CharStoreKey {
        CharStoreKey {
            mix_id: "W1".to_string(),
            mode: ModeKey { active_cores: 4, freq_mhz: 3200, cap_mbps: u32::MAX },
            budget: 1_000 + n,
            channels: 2,
            dimms_per_channel: 4,
            hw_fingerprint: 0,
        }
    }

    fn cheap_point() -> CharPoint {
        CharPoint::idle(RunningMode::full_speed(&CpuConfig::paper_quad_core()), 4, &FbdimmConfig::ddr2_667_paper())
    }

    #[test]
    fn stats_stay_exact_when_many_threads_hammer_many_keys() {
        // N threads × K keys: the counters must account for exactly K misses
        // and N·K−K hits — concurrent lookups must not lose or double-count
        // a single one.
        const THREADS: u64 = 8;
        const KEYS: u64 = 24;
        let store = Arc::new(CharStore::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    // A per-thread deterministic key order (rotated by the
                    // thread index) keeps the interleavings diverse without
                    // any randomness.
                    for i in 0..KEYS {
                        let n = (i + t * 7) % KEYS;
                        store.get_or_compute(hammer_key(n), cheap_point);
                    }
                });
            }
        });
        assert_eq!(store.misses(), KEYS, "each key computes exactly once");
        assert_eq!(store.hits(), THREADS * KEYS - KEYS, "every other lookup is a hit");
        assert_eq!(store.len() as u64, KEYS);
    }

    #[test]
    fn store_hands_out_one_allocation_per_key_under_contention() {
        // Seeded multi-thread hammer: every thread resolves every key and
        // records the allocation it got; all threads must agree per key, and
        // peek must find every point afterwards.
        const THREADS: usize = 6;
        const KEYS: u64 = 16;
        let store = Arc::new(CharStore::new());
        let per_thread: Vec<Vec<Arc<CharPoint>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || {
                        (0..KEYS)
                            .map(|i| store.get_or_compute(hammer_key((i + t as u64) % KEYS), cheap_point))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("hammer thread panicked")).collect()
        });
        for t in 1..THREADS {
            for i in 0..KEYS as usize {
                // Thread t resolved key (i + t) % KEYS at slot i; thread 0
                // resolved key k at slot k.
                let key = (i + t) % KEYS as usize;
                assert!(
                    Arc::ptr_eq(&per_thread[0][key], &per_thread[t][i]),
                    "all threads share one allocation per key"
                );
            }
        }
        for n in 0..KEYS {
            assert!(store.peek(&hammer_key(n)).is_some(), "peek finds every hammered key");
        }
    }

    #[test]
    fn different_hardware_with_identical_geometry_never_aliases() {
        // Same mix, budget and channel geometry but a different CPU config:
        // the hardware fingerprint must keep the store entries apart.
        let store = Arc::new(CharStore::new());
        let mut paper = CharacterizationTable::with_store(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            "W1",
            mixes::w1().apps,
            15_000,
            Arc::clone(&store),
        );
        let mut small_l2 = CpuConfig::paper_quad_core();
        small_l2.l2.capacity_bytes /= 4;
        let mut shrunk = CharacterizationTable::with_store(
            small_l2.clone(),
            FbdimmConfig::ddr2_667_paper(),
            "W1",
            mixes::w1().apps,
            15_000,
            Arc::clone(&store),
        );
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let a = paper.point(&full);
        let b = shrunk.point(&full);
        assert_eq!(store.misses(), 2, "distinct hardware must characterize separately");
        assert_eq!(store.hits(), 0);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(b.l2_miss_rate > a.l2_miss_rate, "a quarter-size L2 must miss more");
    }

    #[test]
    fn batch_points_match_sequential_points_exactly() {
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let modes = [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(6.4)];
        let mut sequential = table();
        let expected: Vec<_> = modes.iter().map(|m| sequential.point(m)).collect();
        assert_eq!(sequential.store().simulators_built(), 1, "one thread borrows one simulator for every point");
        let mut batched = table().with_rotation_threads(4);
        let got = batched.points(&modes);
        for (a, b) in expected.iter().zip(got.iter()) {
            assert_eq!(**a, **b, "parallel batch resolution must be bit-identical");
        }
        assert_eq!(batched.len(), 3);
        // The uncapped wave runs its two closed loops at once at most, and
        // the capped wave's one loop borrows an idle simulator.
        let built = batched.store().simulators_built();
        assert!((1..=2).contains(&built), "{built} simulators for at most two concurrent closed loops");
        // A second batch over the same modes is served from the local cache.
        let again = batched.points(&modes);
        for (a, b) in got.iter().zip(again.iter()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    /// The quick-scale characterization budget (`MemSpotConfig::quick`).
    const QUICK_BUDGET: u64 = 60_000;

    fn ch4_table(mix: &workloads::WorkloadMix, store: &Arc<CharStore>) -> CharacterizationTable {
        CharacterizationTable::with_store(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            mix.id.clone(),
            mix.apps.clone(),
            QUICK_BUDGET,
            Arc::clone(store),
        )
    }

    #[test]
    fn capped_points_that_never_bind_are_derived_and_equal_computed_ones() {
        // DTM-BW's Table 4.3 caps: 19.2 and 12.8 GB/s never bind on the
        // paper quad core, 6.4 GB/s does.
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let [l2, l3, l4] = [19.2, 12.8, 6.4].map(|gbps| full.with_bandwidth_cap_gbps(gbps));
        let path = temp_cache_path("derive");
        let (shared, cached) = (Arc::new(CharStore::new()), Arc::new(CharStore::with_disk_cache(&path).unwrap()));
        for mix in &mixes::all_ch4_mixes()[..8] {
            let derived_before = shared.derived();
            let mut table = ch4_table(mix, &shared);
            let got = table.points(&[l2, l3, l4, full]);
            assert_eq!(shared.derived() - derived_before, 2, "{}: the 19.2 and 12.8 GB/s points derive", mix.id);
            for (mode, point) in [l2, l3, l4].iter().zip(&got) {
                // A fresh store holds no sibling, so this one simulates.
                let fresh = ch4_table(mix, &Arc::new(CharStore::new())).point(mode);
                assert_eq!(
                    **point, *fresh,
                    "{} at {:?}: derived and simulated points differ",
                    mix.id, mode.bandwidth_cap
                );
            }
            assert_ne!(got[2].read_gbps, got[3].read_gbps, "{}: 6.4 GB/s must bind, so it is simulated", mix.id);
            assert!(got[3].peak_window_activations > 0);
            // Only the uncapped point goes to disk here.
            ch4_table(mix, &cached).point(&full);
        }
        assert_eq!(cached.derived(), 0);
        // A store reopened from the disk cache derives from the loaded
        // siblings, with no closed loop for the derivable caps.
        drop(cached);
        let reopened = Arc::new(CharStore::with_disk_cache(&path).unwrap());
        for mix in &mixes::all_ch4_mixes()[..8] {
            let point = ch4_table(mix, &reopened).point(&l2);
            assert_eq!(*point, *ch4_table(mix, &shared).point(&l2), "{}", mix.id);
        }
        assert_eq!((reopened.misses(), reopened.derived()), (8, 8));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_points_deduplicate_repeated_modes() {
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let mut t = table();
        let got = t.points(&[full, full, full]);
        assert_eq!(got.len(), 3);
        assert!(Arc::ptr_eq(&got[0], &got[1]) && Arc::ptr_eq(&got[1], &got[2]));
        assert_eq!(t.store().misses(), 1, "one computation for three requests");
    }

    /// A unique temp file path for disk-cache tests.
    fn temp_cache_path(tag: &str) -> std::path::PathBuf {
        let unique = format!("memtherm_char_cache_{}_{}_{tag}.jsonl", std::process::id(), {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed)
        });
        std::env::temp_dir().join(unique)
    }

    fn w1_table(store: &Arc<CharStore>) -> CharacterizationTable {
        CharacterizationTable::with_store(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            "W1",
            mixes::w1().apps,
            15_000,
            Arc::clone(store),
        )
    }

    fn disk_table(path: &std::path::Path) -> (Arc<CharStore>, CharacterizationTable) {
        let store = Arc::new(CharStore::with_disk_cache(path).expect("open disk cache"));
        let table = w1_table(&store);
        (store, table)
    }

    /// One mode of each way a point resolves: simulated, rotation-averaged,
    /// capped and binding, capped and derived, idle.
    fn every_kind_of_mode() -> [RunningMode; 5] {
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let off = RunningMode { active_cores: 0, op: cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) };
        [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(6.4), full.with_bandwidth_cap_gbps(19.2), off]
    }

    #[test]
    fn tables_over_a_warm_store_build_no_simulator() {
        let modes = every_kind_of_mode();
        let memory = Arc::new(CharStore::new());
        let computed = w1_table(&memory).points(&modes);
        let path = temp_cache_path("warm");
        w1_table(&Arc::new(CharStore::with_disk_cache(&path).expect("open disk cache"))).points(&modes);
        let reopened = Arc::new(CharStore::with_disk_cache(&path).expect("reopen disk cache"));
        for store in [&memory, &reopened] {
            let built = store.simulators_built();
            let (mut one_by_one, mut batched) = (w1_table(store), w1_table(store));
            let singles: Vec<_> = modes.iter().map(|mode| one_by_one.point(mode)).collect();
            for (got, want) in [singles, batched.points(&modes)].iter().flat_map(|got| got.iter().zip(&computed)) {
                assert_eq!(**got, **want);
            }
            assert_eq!(store.simulators_built(), built, "tables over a warm store built a simulator");
        }
        assert_eq!(reopened.simulators_built(), 0, "a store loaded from disk builds no simulator");
        assert_eq!(reopened.misses(), 0, "the reopened disk cache holds every mode");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "invalid CPU configuration")]
    fn an_invalid_cpu_config_panics_when_the_table_is_made() {
        let cpu = CpuConfig { cores: 0, ..CpuConfig::paper_quad_core() };
        CharacterizationTable::new(cpu, FbdimmConfig::ddr2_667_paper(), mixes::w1().apps, 15_000);
    }

    #[test]
    #[should_panic(expected = "invalid FBDIMM configuration")]
    fn an_invalid_memory_config_panics_when_the_table_is_made() {
        let mem = FbdimmConfig { logical_channels: 0, ..FbdimmConfig::ddr2_667_paper() };
        CharacterizationTable::new(CpuConfig::paper_quad_core(), mem, mixes::w1().apps, 15_000);
    }

    #[test]
    fn a_computing_table_builds_one_simulator_and_reuses_it() {
        let modes = every_kind_of_mode();
        let mut t = table();
        for mode in &modes {
            assert_eq!(*t.point(mode), *table().point(mode), "{mode:?}: a lent simulator changed the point");
        }
        assert_eq!(t.store().derived(), 1);
        assert_eq!(t.store().simulators_built(), 1, "the five kinds of mode ran on one simulator");
        // Another table over the store borrows the same simulator back.
        let store = Arc::clone(t.store());
        let mut w8 = CharacterizationTable::with_store(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            "W8",
            mixes::w8().apps,
            15_000,
            Arc::clone(&store),
        );
        let full = RunningMode::full_speed(&CpuConfig::paper_quad_core());
        let fresh = CharacterizationTable::new(
            CpuConfig::paper_quad_core(),
            FbdimmConfig::ddr2_667_paper(),
            mixes::w8().apps,
            15_000,
        )
        .point(&full);
        assert_eq!(*w8.point(&full), *fresh);
        assert_eq!(store.simulators_built(), 1, "a second table built a simulator instead of borrowing one");
        let debug = format!("{store:?}");
        assert!(debug.contains("SimulatorPool { idle: 1, built: 1 }"), "{debug}");
        assert!(debug.len() < 64 * 1024, "the store's Debug prints the simulated caches ({} bytes)", debug.len());
    }

    #[test]
    fn a_grid_on_two_threads_builds_at_most_two_simulators_per_cpu_config() {
        // 16 cells per CPU configuration (8 mixes x 2 modes, one table per
        // cell) on two workers over one store, one grid per configuration.
        let store = Arc::new(CharStore::new());
        let platforms = [
            (CpuConfig::paper_quad_core(), FbdimmConfig::ddr2_667_paper()),
            (CpuConfig::xeon_5160_dual_socket(), FbdimmConfig::server(4)),
        ];
        for (cpu, mem) in platforms {
            let full = RunningMode::full_speed(&cpu);
            let cells: Vec<(workloads::WorkloadMix, RunningMode)> = mixes::all_ch4_mixes()[..8]
                .iter()
                .flat_map(|mix| [full, full.with_op(cpu.dvfs.bottom())].map(|mode| (mix.clone(), mode)))
                .collect();
            let built = store.simulators_built();
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        while let Some((mix, mode)) = cells.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            let mut table = CharacterizationTable::with_store(
                                cpu.clone(),
                                mem,
                                mix.id.clone(),
                                mix.apps.clone(),
                                5_000,
                                Arc::clone(&store),
                            );
                            table.point(mode);
                        }
                    });
                }
            });
            let built = store.simulators_built() - built;
            assert!((1..=2).contains(&built), "{} cells on 2 threads built {built} simulators", cells.len());
        }
        assert_eq!(store.misses(), 32);
    }

    #[test]
    fn a_simulator_lent_across_memory_configs_gives_the_points_of_fresh_ones() {
        let cpu = CpuConfig::xeon_5160_dual_socket();
        let full = RunningMode::full_speed(&cpu);
        let modes = [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(4.0)];
        let server = |dimms, store: &Arc<CharStore>| {
            CharacterizationTable::with_store(
                cpu.clone(),
                FbdimmConfig::server(dimms),
                "W1",
                mixes::w1().apps,
                15_000,
                Arc::clone(store),
            )
        };
        let store = Arc::new(CharStore::new());
        for dimms in [2, 4] {
            let lent = server(dimms, &store).points(&modes);
            let fresh = server(dimms, &Arc::new(CharStore::new())).points(&modes);
            for ((got, want), mode) in lent.iter().zip(&fresh).zip(&modes) {
                assert_eq!(**got, **want, "server({dimms}) at {mode:?}");
            }
        }
        assert_eq!(store.simulators_built(), 1, "server(4) borrowed the simulator server(2) returned");
    }

    #[test]
    fn disk_cache_round_trips_points_bit_exactly_and_eliminates_misses() {
        let path = temp_cache_path("roundtrip");
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        let modes = [full, full.with_active_cores(2), full.with_bandwidth_cap_gbps(6.4)];

        // First process: cold cache, three misses, entries appended.
        let (store, mut table) = disk_table(&path);
        let computed: Vec<_> = modes.iter().map(|m| table.point(m)).collect();
        assert_eq!(store.misses(), 3);
        drop(table);
        drop(store);

        // Second process: warm cache — identical points, zero level-1 work.
        let (store2, mut table2) = disk_table(&path);
        assert_eq!(store2.len(), 3, "all entries load at startup");
        for (mode, original) in modes.iter().zip(computed.iter()) {
            let reloaded = table2.point(mode);
            assert_eq!(**original, *reloaded, "disk round-trip must be bit-identical");
        }
        assert_eq!(store2.misses(), 0, "a warm disk cache serves every lookup");
        assert_eq!(store2.hits(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_cache_version_bump_invalidates_cleanly() {
        let path = temp_cache_path("version");
        {
            let (store, mut table) = disk_table(&path);
            table.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
            assert_eq!(store.misses(), 1);
        }
        // Rewrite the file's header with a bumped version; entries must be
        // ignored.
        let bumped = format!(
            "{{\"format\": \"memtherm-char-cache\", \"version\": {}}}",
            crate::sim::diskcache::FORMAT_VERSION + 1
        );
        let body = std::fs::read_to_string(&path).expect("the cache file exists");
        let mut lines: Vec<&str> = body.lines().collect();
        lines[0] = &bumped;
        std::fs::write(&path, lines.join("\n")).unwrap();

        let (store, mut table) = disk_table(&path);
        assert!(store.is_empty(), "a future format version must not be trusted");
        table.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
        assert_eq!(store.misses(), 1, "the point is recomputed");
        drop(table);

        // The invalidated file was rewritten: a third store sees the fresh
        // entry under the current version again.
        let (store3, _) = disk_table(&path);
        assert_eq!(store3.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_cache_entries_of_other_hardware_never_alias() {
        let path = temp_cache_path("hw");
        {
            let (store, mut table) = disk_table(&path);
            table.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
            assert_eq!(store.misses(), 1);
        }
        // Same mix/budget/geometry, different L2 size: the fingerprint in the
        // stored key must keep the entry from matching.
        let store = Arc::new(CharStore::with_disk_cache(&path).expect("open disk cache"));
        assert_eq!(store.len(), 1, "the entry itself still loads");
        let mut small_l2 = CpuConfig::paper_quad_core();
        small_l2.l2.capacity_bytes /= 4;
        let mut shrunk = CharacterizationTable::with_store(
            small_l2,
            FbdimmConfig::ddr2_667_paper(),
            "W1",
            mixes::w1().apps,
            15_000,
            Arc::clone(&store),
        );
        shrunk.point(&RunningMode::full_speed(&CpuConfig::paper_quad_core()));
        assert_eq!(store.misses(), 1, "different hardware must recompute, not reuse");
        assert_eq!(store.hits(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "names two different application lists")]
    fn one_mix_id_naming_two_app_lists_panics_in_debug_builds() {
        let store = Arc::new(CharStore::new());
        let (cpu, mem) = (CpuConfig::paper_quad_core(), FbdimmConfig::ddr2_667_paper());
        let table =
            |id: &str, apps| CharacterizationTable::with_store(cpu.clone(), mem, id, apps, 15_000, Arc::clone(&store));
        // Reusing an id with the same list, or a list under its own id, is
        // what sharing is for.
        table("W1", mixes::w1().apps);
        table("W1", mixes::w1().apps);
        table("W8", mixes::w8().apps);
        // One id for two different lists would silently share their points.
        table("W1", mixes::w8().apps);
    }

    #[test]
    fn mode_key_progress_mirrors_running_mode() {
        let cpu = CpuConfig::paper_quad_core();
        let full = RunningMode::full_speed(&cpu);
        assert!(ModeKey::from_mode(&full).makes_progress());
        let off = RunningMode { active_cores: 0, op: cpu.dvfs.bottom(), bandwidth_cap: Some(0.0) };
        assert!(!ModeKey::from_mode(&off).makes_progress());
        let shut = full.with_bandwidth_cap_gbps(0.0);
        assert!(!ModeKey::from_mode(&shut).makes_progress());
    }
}
