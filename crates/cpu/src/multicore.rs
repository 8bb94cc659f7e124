//! Closed-loop multicore + memory simulation (the first-level simulator).
//!
//! [`MulticoreSim::run`] executes one *characterization run*: a fixed budget
//! of demand L2 accesses from the applications of a workload mix, under a
//! given [`RunningMode`] (active cores, DVFS operating point, bandwidth
//! cap). Cores are advanced in global time order; their misses contend in
//! the shared L2 and the FBDIMM memory system, so achieved IPC and memory
//! throughput are outputs, not inputs. The result, [`RunMeasurement`],
//! carries exactly the per-design-point quantities the paper's second-level
//! thermal simulator consumes.
//!
//! # Warm start
//!
//! Every run starts from *warmed* shared caches: the active instances' hot
//! regions are prefilled round-robin so measured miss rates reflect
//! steady-state contention, not cold-start compulsory misses. The prefill
//! is `hot_bytes/64` lines per instance, tens of thousands of accesses, but
//! no run simulates them: [`MulticoreSim::warm_start`] writes each cache's
//! final state directly, one template per interval of sets
//! ([`SetAssocCache::warm_fill_round_robin`]), into scratch caches the
//! simulator keeps across runs. That costs about one pass of stores over
//! each cache, no more than copying a stored warm image would, so nothing
//! is stored between runs.
//!
//! The closed loop itself is allocation-free: the memory system runs in
//! stats-only mode (no retained completion records), queue back-pressure
//! lives in a fixed ring, and the next core to advance comes from a cached
//! min/runner-up schedule instead of a per-access scan. Per access it does
//! no float division and no chain walk: the four coin flips (hot, write,
//! dependent, speculative) compare integers against thresholds fixed per
//! run, compute times come from a per-core memo, a cache access scans its
//! set once, and the memory statistics record only a transaction's local
//! traffic, the AMB bypass being derived when the window is taken. Every
//! one of these is exact: `tests/golden_multicore.rs` and
//! `tests/writeback_digest.rs` pin the measurements bit for bit.

use std::hint::select_unpredictable;

use fbdimm_sim::{FbdimmConfig, MemRequest, MemorySystem, Picos, RequestKind, TrafficWindow, PS_PER_SEC};
use workloads::AppBehavior;

use crate::cache::SetAssocCache;
use crate::config::CpuConfig;
use crate::core::{CoreSim, CoreStats};
use crate::dvfs::OperatingPoint;

/// A running mode of the machine: the lever settings the DTM schemes
/// manipulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningMode {
    /// Number of cores that execute (the rest are clock gated).
    pub active_cores: usize,
    /// Operating point shared by all active cores.
    pub op: OperatingPoint,
    /// Memory bandwidth cap in bytes/s (`None` = unlimited). `Some(0.0)`
    /// means the memory subsystem is shut off.
    pub bandwidth_cap: Option<f64>,
}

impl RunningMode {
    /// Full-speed mode: every core active at the top operating point, no
    /// bandwidth limit.
    pub fn full_speed(cfg: &CpuConfig) -> Self {
        RunningMode { active_cores: cfg.cores, op: cfg.dvfs.top(), bandwidth_cap: None }
    }

    /// Returns a copy with a different number of active cores.
    pub fn with_active_cores(mut self, n: usize) -> Self {
        self.active_cores = n;
        self
    }

    /// Returns a copy with a different operating point.
    pub fn with_op(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Returns a copy with a memory bandwidth cap in GB/s.
    pub fn with_bandwidth_cap_gbps(mut self, cap_gbps: f64) -> Self {
        self.bandwidth_cap = Some(cap_gbps * 1e9);
        self
    }

    /// Whether this mode makes any forward progress at all.
    pub fn makes_progress(&self) -> bool {
        self.active_cores > 0 && self.bandwidth_cap.is_none_or(|c| c > 0.0)
    }
}

/// Result of one characterization run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeasurement {
    /// Mode the run was executed under.
    pub mode: RunningMode,
    /// Reference (maximum) core frequency in GHz.
    pub reference_freq_ghz: f64,
    /// Wall-clock length of the run in picoseconds.
    pub elapsed_ps: Picos,
    /// Per-core statistics (indexed by core; inactive cores have all-zero
    /// entries).
    pub cores: Vec<CoreStats>,
    /// Memory traffic over the run (subsystem totals and per-DIMM split).
    pub traffic: TrafficWindow,
}

impl RunMeasurement {
    /// A run in which nothing executes (memory off or no active cores).
    pub fn idle(mode: RunningMode, cfg: &CpuConfig, mem_cfg: &FbdimmConfig) -> Self {
        let traffic = TrafficWindow { dimms: mem_cfg.idle_dimm_traffic(), ..Default::default() };
        RunMeasurement {
            mode,
            reference_freq_ghz: cfg.reference_freq_ghz(),
            elapsed_ps: PS_PER_SEC / 1_000,
            cores: vec![CoreStats::default(); cfg.cores],
            traffic,
        }
    }

    /// Elapsed time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ps as f64 / PS_PER_SEC as f64
    }

    /// IPC of `core` measured in *reference* cycles (committed instructions
    /// divided by elapsed reference cycles), the definition Eq. 3.6 uses.
    pub fn ipc_ref(&self, core: usize) -> f64 {
        let cycles = self.elapsed_secs() * self.reference_freq_ghz * 1e9;
        if cycles <= 0.0 {
            0.0
        } else {
            self.cores[core].instructions as f64 / cycles
        }
    }

    /// Sum of the reference-cycle IPCs of all cores.
    pub fn total_ipc_ref(&self) -> f64 {
        (0..self.cores.len()).map(|c| self.ipc_ref(c)).sum()
    }

    /// Aggregate instruction throughput in instructions per second.
    pub fn instructions_per_sec(&self) -> f64 {
        let total: u64 = self.cores.iter().map(|c| c.instructions).sum();
        total as f64 / self.elapsed_secs().max(1e-12)
    }

    /// Total memory throughput (read + write) in GB/s.
    pub fn total_throughput_gbps(&self) -> f64 {
        self.traffic.total_gbps()
    }

    /// Shared-cache miss rate over all cores.
    pub fn l2_miss_rate(&self) -> f64 {
        let accesses: u64 = self.cores.iter().map(|c| c.l2_accesses).sum();
        let misses: u64 = self.cores.iter().map(|c| c.l2_misses).sum();
        if accesses == 0 {
            0.0
        } else {
            misses as f64 / accesses as f64
        }
    }

    /// Memory traffic per committed instruction, in bytes.
    pub fn bytes_per_instruction(&self) -> f64 {
        let instr: u64 = self.cores.iter().map(|c| c.instructions).sum();
        if instr == 0 {
            return 0.0;
        }
        let bytes = self.total_throughput_gbps() * 1e9 * self.elapsed_secs();
        bytes / instr as f64
    }
}

/// First line of instance `i`'s footprint: a private 1 TB-aligned slice of
/// the line address space, so footprints never alias.
fn instance_base_line(i: usize) -> u64 {
    (i as u64 + 1) << 34
}

/// The first-level (architecture) simulator.
#[derive(Debug, Clone)]
pub struct MulticoreSim {
    cpu: CpuConfig,
    mem_cfg: FbdimmConfig,
    /// Persistent shared-cache instances the closed loop runs against
    /// (576 KiB for the paper quad core's 8-way L2, 544 KiB for each 16-way
    /// Xeon 5160 L2; see [`Self::scratch_bytes`]). Kept across runs once
    /// built, so a warm start writes into already-touched memory rather than
    /// a fresh allocation per run. They depend on the CPU configuration
    /// alone, so a level-1 store lends its simulators to closed loops of the
    /// same CPU whatever their memory configuration.
    scratch_caches: Vec<SetAssocCache>,
    /// The most row activations any throttle window granted in the last
    /// run (0 after an idle run); see [`Self::last_run_peak_activations`].
    last_peak_activations: u64,
}

impl MulticoreSim {
    /// Creates a simulator for the given processor and memory configuration.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    pub fn new(cpu: CpuConfig, mem_cfg: FbdimmConfig) -> Self {
        cpu.validate().expect("invalid CPU configuration");
        mem_cfg.validate().expect("invalid FBDIMM configuration");
        let scratch_caches = (0..cpu.l2_count).map(|_| SetAssocCache::new(cpu.l2)).collect();
        MulticoreSim { cpu, mem_cfg, scratch_caches, last_peak_activations: 0 }
    }

    /// The processor configuration.
    pub fn cpu_config(&self) -> &CpuConfig {
        &self.cpu
    }

    /// The memory configuration.
    pub fn memory_config(&self) -> &FbdimmConfig {
        &self.mem_cfg
    }

    /// Retargets the simulator at another memory configuration. Every run
    /// builds its memory system afresh and warm-starts the caches, so the
    /// next run is exactly that of a simulator built with `mem_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `mem_cfg` is invalid.
    pub fn set_memory_config(&mut self, mem_cfg: FbdimmConfig) {
        mem_cfg.validate().expect("invalid FBDIMM configuration");
        self.mem_cfg = mem_cfg;
    }

    /// Bytes of the simulated shared caches' tag and recency arrays, the
    /// bulk of the simulator's memory.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch_caches.iter().map(SetAssocCache::storage_bytes).sum()
    }

    /// The most row activations any 10 µs throttle window granted in the
    /// last run ([`fbdimm_sim::MemoryController::peak_activations_per_window`]),
    /// 0 after an idle run. A bandwidth cap whose per-window limit is at
    /// least this would have delayed no request of the run, so that run
    /// under the cap is the same run. Kept beside the measurement rather
    /// than in it, so [`RunMeasurement`] stays exactly what the second level
    /// consumes.
    pub fn last_run_peak_activations(&self) -> u64 {
        self.last_peak_activations
    }

    /// Warm-starts the shared caches for a run of `apps`, one instance per
    /// core in core order: each cache is left holding the hot regions of its
    /// cores, prefilled round-robin in ascending core order (see the module
    /// docs). [`Self::run_order`] calls this first; benchmarks time it alone.
    ///
    /// # Panics
    ///
    /// Panics if `apps` has more instances than the processor has cores.
    pub fn warm_start(&mut self, apps: &[&AppBehavior]) {
        assert!(apps.len() <= self.cpu.cores, "more instances than cores");
        for (cache_idx, scratch) in self.scratch_caches.iter_mut().enumerate() {
            let entries: Vec<(u64, u64)> = apps
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.cpu.l2_of_core(i) == cache_idx)
                .map(|(i, app)| (instance_base_line(i), (app.hot_bytes / 64).max(1)))
                .collect();
            scratch.warm_fill_round_robin(&entries);
            scratch.reset_stats();
        }
    }

    /// Runs one characterization: the first `mode.active_cores` applications
    /// of `apps` execute until `demand_access_budget` demand L2 accesses have
    /// been issued in total.
    ///
    /// Requests are delivered to the memory controller in globally
    /// non-decreasing time order (arrival times are clamped to the latest
    /// arrival seen, a sub-nanosecond approximation).
    pub fn run(&mut self, apps: &[AppBehavior], mode: &RunningMode, demand_access_budget: u64) -> RunMeasurement {
        let refs: Vec<&AppBehavior> = apps.iter().collect();
        self.run_order(&refs, mode, demand_access_budget)
    }

    /// [`Self::run`] over an explicit application order, borrowed rather
    /// than cloned — rotation-averaged characterizations re-run the same mix
    /// under every cyclic order without copying the behaviour models.
    pub fn run_order(
        &mut self,
        apps: &[&AppBehavior],
        mode: &RunningMode,
        demand_access_budget: u64,
    ) -> RunMeasurement {
        let active = mode.active_cores.min(apps.len()).min(self.cpu.cores);
        if active == 0 || !mode.makes_progress() {
            self.last_peak_activations = 0;
            return RunMeasurement::idle(*mode, &self.cpu, &self.mem_cfg);
        }

        let mut memory = MemorySystem::new(self.mem_cfg);
        memory.set_bandwidth_cap(mode.bandwidth_cap);
        // Characterization consumes every completion inline; keep the
        // controller in stats-only mode so nothing accumulates per access.
        memory.set_record_completions(false);

        let mut cores: Vec<CoreSim> =
            (0..active).map(|i| CoreSim::new(apps[i], i, instance_base_line(i), 0xD0A0 + i as u64)).collect();
        self.warm_start(&apps[..active]);
        let l2_of: Vec<usize> = (0..active).map(|i| self.cpu.l2_of_core(i)).collect();
        let caches = &mut self.scratch_caches;

        let freq = mode.op.freq_ghz;
        let freq_ratio = freq / self.cpu.reference_freq_ghz();
        let spec_threshold: Vec<u64> = cores.iter().map(|c| c.speculative_threshold(freq_ratio)).collect();
        let mut last_arrival: Picos = 0;
        let mut demand_issued = 0u64;

        // Core schedule: the run advances the core whose local clock is
        // furthest behind (first index among ties). Only that core's clock
        // moves, so the minimum is cached together with the runner-up over
        // the *other* cores; a full rescan happens only when the advanced
        // core overtakes the runner-up, and scans a compact times array
        // rather than the core structs. All clocks start at zero.
        let mut times: Vec<Picos> = vec![0; active];
        let mut min_idx = 0usize;
        let (mut runner_time, mut runner_idx) =
            if active > 1 { (0 as Picos, 1usize) } else { (Picos::MAX, usize::MAX) };

        while demand_issued < demand_access_budget {
            let idx = min_idx;
            let cache_idx = l2_of[idx];
            let core = &mut cores[idx];

            let access = core.next_demand(freq);
            demand_issued += 1;
            let line = core.absolute_line(access.line);

            let outcome = caches[cache_idx].access(line, access.is_write);
            match outcome {
                crate::cache::AccessOutcome::Hit => {}
                crate::cache::AccessOutcome::Miss { writeback } => {
                    core.stats_mut().l2_misses += 1;

                    if let Some(victim) = writeback {
                        last_arrival = last_arrival.max(core.time_ps);
                        if memory.enqueue(MemRequest::at(victim, RequestKind::Write, idx, last_arrival)).is_ok() {
                            core.stats_mut().mem_writes += 1;
                        }
                    }

                    core.reserve_miss_slot(self.cpu.max_mlp);
                    last_arrival = last_arrival.max(core.time_ps);
                    if let Ok(completion) =
                        memory.enqueue_returning(MemRequest::at(line, RequestKind::Read, idx, last_arrival))
                    {
                        core.stats_mut().mem_reads += 1;
                        if core.roll_dependent() {
                            core.stall_until(completion.finish_ps);
                        } else {
                            core.push_outstanding(completion.finish_ps);
                        }
                    }
                }
            }

            // Speculative / prefetch traffic: a next-line read that does not
            // block the core.
            if core.roll_speculative(spec_threshold[idx]) {
                let spec_line = core.absolute_line(access.line.wrapping_add(1));
                if !caches[cache_idx].access(spec_line, false).is_hit() {
                    last_arrival = last_arrival.max(core.time_ps);
                    if memory.enqueue(MemRequest::at(spec_line, RequestKind::Read, idx, last_arrival)).is_ok() {
                        core.stats_mut().mem_reads += 1;
                        core.stats_mut().spec_reads += 1;
                    }
                }
            }

            // Re-establish the schedule: `idx` stays the minimum while it
            // has not passed the cached runner-up (ties resolve to the lower
            // index, matching a first-minimum scan).
            let t_new = cores[idx].time_ps;
            times[idx] = t_new;
            if t_new > runner_time || (t_new == runner_time && runner_idx < idx) {
                let (mut best_t, mut best_i) = (Picos::MAX, 0usize);
                let (mut second_t, mut second_i) = (Picos::MAX, usize::MAX);
                for (i, &t) in times.iter().enumerate() {
                    // The clocks' order is data-dependent: select, not branch.
                    let (below_best, below_second) = (t < best_t, t < second_t);
                    (second_t, second_i) = select_unpredictable(
                        below_best,
                        (best_t, best_i),
                        select_unpredictable(below_second, (t, i), (second_t, second_i)),
                    );
                    (best_t, best_i) = select_unpredictable(below_best, (t, i), (best_t, best_i));
                }
                min_idx = best_i;
                runner_time = second_t;
                runner_idx = second_i;
            }
        }

        let elapsed = cores.iter().map(|c| c.time_ps).max().unwrap_or(1).max(1);
        let traffic = memory.take_window(elapsed);
        self.last_peak_activations = memory.controller().peak_activations_per_window();

        let mut per_core = vec![CoreStats::default(); self.cpu.cores];
        for core in &cores {
            per_core[core.core_id] = core.stats();
        }

        RunMeasurement {
            mode: *mode,
            reference_freq_ghz: self.cpu.reference_freq_ghz(),
            elapsed_ps: elapsed,
            cores: per_core,
            traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::mixes;

    const BUDGET: u64 = 30_000;

    fn sim() -> MulticoreSim {
        MulticoreSim::new(CpuConfig::paper_quad_core(), FbdimmConfig::ddr2_667_paper())
    }

    #[test]
    fn full_speed_w1_is_memory_intensive() {
        let mut s = sim();
        let mode = RunningMode::full_speed(s.cpu_config());
        let m = s.run(&mixes::w1().apps, &mode, BUDGET);
        // W1 contains four >10 GB/s applications; even a short run must show
        // substantial aggregate bandwidth.
        assert!(m.total_throughput_gbps() > 8.0, "throughput {}", m.total_throughput_gbps());
        assert!(m.l2_miss_rate() > 0.3, "miss rate {}", m.l2_miss_rate());
        assert!(m.total_ipc_ref() > 0.0);
    }

    #[test]
    fn fewer_active_cores_reduce_traffic_and_miss_rate() {
        let mut s = sim();
        let full = RunningMode::full_speed(s.cpu_config());
        let gated = full.with_active_cores(2);
        let m4 = s.run(&mixes::w1().apps, &full, BUDGET);
        let m2 = s.run(&mixes::w1().apps, &gated, BUDGET);
        assert!(m2.total_throughput_gbps() < m4.total_throughput_gbps());
        assert!(
            m2.l2_miss_rate() < m4.l2_miss_rate(),
            "2-core miss rate {} should undercut 4-core {}",
            m2.l2_miss_rate(),
            m4.l2_miss_rate()
        );
    }

    #[test]
    fn dvfs_reduces_traffic_but_keeps_all_cores_running() {
        let mut s = sim();
        let full = RunningMode::full_speed(s.cpu_config());
        let slowest = full.with_op(s.cpu_config().dvfs.bottom()); // 0.8 GHz
        let fast_m = s.run(&mixes::w1().apps, &full, BUDGET);
        let slow_m = s.run(&mixes::w1().apps, &slowest, BUDGET);
        // At the lowest operating point the demand rate drops well below the
        // memory system's capacity, so throughput must fall clearly.
        assert!(slow_m.total_throughput_gbps() < 0.8 * fast_m.total_throughput_gbps());
        // All four cores still commit instructions.
        assert!(slow_m.cores.iter().take(4).all(|c| c.instructions > 0));
    }

    #[test]
    fn bandwidth_cap_limits_achieved_throughput() {
        let mut s = sim();
        let full = RunningMode::full_speed(s.cpu_config());
        let capped = full.with_bandwidth_cap_gbps(6.4);
        let m = s.run(&mixes::w1().apps, &capped, BUDGET);
        assert!(m.total_throughput_gbps() < 7.5, "capped throughput {}", m.total_throughput_gbps());
    }

    #[test]
    fn idle_mode_produces_zero_work() {
        let mut s = sim();
        let mode = RunningMode::full_speed(s.cpu_config()).with_active_cores(0);
        let m = s.run(&mixes::w1().apps, &mode, BUDGET);
        assert_eq!(m.total_throughput_gbps(), 0.0);
        assert_eq!(m.total_ipc_ref(), 0.0);
        assert!(!m.traffic.dimms.is_empty(), "per-DIMM entries must still exist for the power model");
    }

    #[test]
    fn moderate_mix_uses_less_bandwidth_than_heavy_mix() {
        let mut s = sim();
        let mode = RunningMode::full_speed(s.cpu_config());
        let heavy = s.run(&mixes::w1().apps, &mode, BUDGET);
        let moderate = s.run(&mixes::w8().apps, &mode, BUDGET);
        assert!(moderate.total_throughput_gbps() < heavy.total_throughput_gbps());
    }

    #[test]
    fn runs_are_deterministic() {
        let mut s = sim();
        let mode = RunningMode::full_speed(s.cpu_config());
        let a = s.run(&mixes::w3().apps, &mode, 10_000);
        let b = s.run(&mixes::w3().apps, &mode, 10_000);
        assert_eq!(a.elapsed_ps, b.elapsed_ps);
        assert_eq!(a.cores, b.cores);
    }

    #[test]
    fn scratch_caches_hold_a_tag_word_per_way_and_a_recency_word_per_set() {
        assert_eq!(sim().scratch_bytes(), 576 * 1024, "8-way 4 MiB L2: 512 KiB of tags, 64 KiB of recency words");
        let xeon = MulticoreSim::new(CpuConfig::xeon_5160_dual_socket(), FbdimmConfig::server(4));
        assert_eq!(xeon.scratch_bytes(), 2 * 544 * 1024, "two 16-way 4 MiB L2s");
    }

    #[test]
    fn a_retargeted_simulator_runs_like_a_fresh_one() {
        let cpu = CpuConfig::xeon_5160_dual_socket();
        let mode = RunningMode::full_speed(&cpu);
        let mut lent = MulticoreSim::new(cpu.clone(), FbdimmConfig::server(2));
        lent.run(&mixes::w1().apps, &mode, 10_000);
        lent.set_memory_config(FbdimmConfig::server(4));
        let mut fresh = MulticoreSim::new(cpu, FbdimmConfig::server(4));
        assert_eq!(lent.run(&mixes::w2().apps, &mode, 10_000), fresh.run(&mixes::w2().apps, &mode, 10_000));
        assert_eq!(lent.last_run_peak_activations(), fresh.last_run_peak_activations());
    }

    #[test]
    fn measurement_helpers_are_consistent() {
        let mut s = sim();
        let mode = RunningMode::full_speed(s.cpu_config());
        let m = s.run(&mixes::w5().apps, &mode, 10_000);
        assert!(m.elapsed_secs() > 0.0);
        assert!(m.instructions_per_sec() > 0.0);
        assert!(m.bytes_per_instruction() > 0.0);
        let sum: f64 = (0..4).map(|c| m.ipc_ref(c)).sum();
        assert!((sum - m.total_ipc_ref()).abs() < 1e-12);
    }
}
