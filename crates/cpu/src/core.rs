//! Per-core execution state for the closed-loop first-level simulation.
//!
//! A core alternates between executing instructions at its base IPC and
//! issuing last-level-cache accesses produced by its application's synthetic
//! stream. Misses go to the FBDIMM simulator; the core can overlap a bounded
//! number of outstanding misses (its memory-level parallelism) and stalls on
//! dependent misses, so its achieved IPC emerges from memory latency and
//! bandwidth rather than being assumed.
//!
//! The per-access work is kept to integer operations where that changes no
//! bit: the dependent-miss and speculative-read coin flips are Bernoulli
//! draws against thresholds computed once ([`SmallRng::bernoulli_threshold`]),
//! and the compute time of a gap, `gap / (IPC·f)` rounded to picoseconds,
//! is memoized per gap for the run's frequency.

use workloads::rng::SmallRng;

use fbdimm_sim::Picos;
use workloads::{AccessStream, AppBehavior};

/// Statistics accumulated by one core over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Demand accesses presented to the shared L2.
    pub l2_accesses: u64,
    /// Demand L2 misses.
    pub l2_misses: u64,
    /// Read transactions sent to memory (demand fills + prefetches).
    pub mem_reads: u64,
    /// Speculative/prefetch reads included in `mem_reads`.
    pub spec_reads: u64,
    /// Write-back transactions sent to memory.
    pub mem_writes: u64,
    /// Time spent stalled on dependent misses or a full MSHR, in picoseconds.
    pub stall_ps: Picos,
}

impl CoreStats {
    /// L2 miss rate of this core in `[0, 1]`.
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }
}

/// Execution state of one core running one application instance.
#[derive(Debug, Clone)]
pub struct CoreSim {
    /// Core index within the processor.
    pub core_id: usize,
    app: AppBehavior,
    stream: AccessStream,
    rng: SmallRng,
    /// Bernoulli threshold of the dependent-miss draw.
    dependent_threshold: u64,
    /// Base line address offset isolating this instance's footprint.
    pub base_line: u64,
    /// Local time cursor of the core.
    pub time_ps: Picos,
    /// Completion times of outstanding (overlapped) misses.
    outstanding: Vec<Picos>,
    /// Compute time in picoseconds of each gap up to the stream's maximum,
    /// at the frequency whose bits are `memo_freq_bits`; 0 = not computed.
    exec_memo: Vec<Picos>,
    memo_freq_bits: u64,
    stats: CoreStats,
}

/// Most gaps [`CoreSim`] memoizes compute times for; longer gaps (none of
/// the SPEC models has one) are computed every time.
const EXEC_MEMO_GAPS: u64 = 1 << 12;

impl CoreSim {
    /// Creates a core running one instance of `app`, with its footprint
    /// placed at `base_line` and all randomness derived from `seed`.
    pub fn new(app: &AppBehavior, core_id: usize, base_line: u64, seed: u64) -> Self {
        let stream = AccessStream::new(app, seed);
        let memo_len = stream.max_gap().min(EXEC_MEMO_GAPS) as usize + 1;
        CoreSim {
            core_id,
            app: app.clone(),
            stream,
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ core_id as u64),
            dependent_threshold: SmallRng::bernoulli_threshold(app.dependent_fraction),
            base_line,
            time_ps: 0,
            outstanding: Vec::new(),
            exec_memo: vec![0; memo_len],
            memo_freq_bits: 0,
            stats: CoreStats::default(),
        }
    }

    /// The application behaviour model this core is executing.
    pub fn app(&self) -> &AppBehavior {
        &self.app
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Mutable access to the statistics (used by the multicore driver).
    pub fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
    }

    /// Produces the next demand access of the application and advances the
    /// core's time by the compute phase preceding it (`gap / (IPC * f)`).
    pub fn next_demand(&mut self, freq_ghz: f64) -> workloads::StreamAccess {
        let access = self.stream.next_access();
        self.time_ps += self.exec_ps(access.gap_instructions, freq_ghz);
        self.stats.instructions += access.gap_instructions;
        self.stats.l2_accesses += 1;
        access
    }

    /// The compute time of `gap` instructions at `freq_ghz`, rounded to
    /// picoseconds. Gaps are small integers and a run keeps one frequency,
    /// so the value is memoized per gap (the same expression, so the same
    /// bits); a new frequency clears the memo.
    #[inline]
    fn exec_ps(&mut self, gap: u64, freq_ghz: f64) -> Picos {
        let compute = || round_to_picos(gap as f64 / (self.app.base_ipc * freq_ghz).max(1e-6) * 1000.0);
        if freq_ghz.to_bits() != self.memo_freq_bits {
            self.exec_memo.fill(0);
            self.memo_freq_bits = freq_ghz.to_bits();
        }
        match self.exec_memo.get(gap as usize) {
            Some(&ps) if ps != 0 => ps,
            Some(_) => {
                let ps = compute();
                self.exec_memo[gap as usize] = ps;
                ps
            }
            None => compute(),
        }
    }

    /// Decides whether the miss that just occurred is a dependent
    /// (non-overlappable) miss.
    pub fn roll_dependent(&mut self) -> bool {
        self.rng.bernoulli(self.dependent_threshold)
    }

    /// The Bernoulli threshold of the per-access speculative-read draw at a
    /// current-to-reference frequency ratio (prefetchers issue fewer useless
    /// requests when the core runs slower). It is constant over a run, so
    /// drivers compute it once and pass it to [`Self::roll_speculative`].
    pub fn speculative_threshold(&self, freq_ratio: f64) -> u64 {
        let p = (self.app.speculative_apki / self.app.l2_apki.max(1e-9)) * freq_ratio.clamp(0.0, 1.0);
        SmallRng::bernoulli_threshold(p)
    }

    /// Decides whether a speculative/prefetch read accompanies this access,
    /// against a threshold from [`Self::speculative_threshold`].
    pub fn roll_speculative(&mut self, threshold: u64) -> bool {
        self.rng.bernoulli(threshold)
    }

    /// Ensures a miss slot is available, stalling the core until the oldest
    /// outstanding miss completes if its memory-level parallelism is
    /// exhausted.
    pub fn reserve_miss_slot(&mut self, max_mlp: usize) {
        while self.outstanding.len() >= max_mlp.max(1) {
            let (idx, &earliest) =
                self.outstanding.iter().enumerate().min_by_key(|(_, &t)| t).expect("outstanding set is non-empty");
            self.outstanding.swap_remove(idx);
            if earliest > self.time_ps {
                self.stats.stall_ps += earliest - self.time_ps;
                self.time_ps = earliest;
            }
        }
    }

    /// Records an overlapped (non-blocking) miss completing at `completion`.
    pub fn push_outstanding(&mut self, completion: Picos) {
        self.outstanding.push(completion);
    }

    /// Stalls the core until `completion` (dependent miss).
    pub fn stall_until(&mut self, completion: Picos) {
        if completion > self.time_ps {
            self.stats.stall_ps += completion - self.time_ps;
            self.time_ps = completion;
        }
    }

    /// Number of misses currently outstanding.
    pub fn outstanding_misses(&self) -> usize {
        self.outstanding.len()
    }

    /// Translates an application-relative line address into this instance's
    /// private region of the physical address space.
    pub fn absolute_line(&self, line: u64) -> u64 {
        self.base_line + line
    }
}

/// `x.round() as Picos` without the libm call: truncate, then round half
/// away from zero on the exactly computed fraction. Bit-identical for every
/// `f64`, including negative, NaN and out-of-range inputs, which both forms
/// saturate alike.
#[inline]
fn round_to_picos(x: f64) -> Picos {
    let whole = x as Picos;
    whole.saturating_add(Picos::from(x - whole as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec2000;

    fn core() -> CoreSim {
        CoreSim::new(&spec2000::swim(), 0, 1 << 32, 7)
    }

    #[test]
    fn demand_access_advances_time_and_instruction_count() {
        let mut c = core();
        let before = c.time_ps;
        let a = c.next_demand(3.2);
        assert!(c.time_ps > before);
        assert_eq!(c.stats().instructions, a.gap_instructions);
        assert_eq!(c.stats().l2_accesses, 1);
    }

    #[test]
    fn lower_frequency_means_slower_execution() {
        let mut fast = CoreSim::new(&spec2000::swim(), 0, 0, 5);
        let mut slow = CoreSim::new(&spec2000::swim(), 0, 0, 5);
        for _ in 0..100 {
            fast.next_demand(3.2);
            slow.next_demand(0.8);
        }
        assert!(slow.time_ps > fast.time_ps);
        assert_eq!(slow.stats().instructions, fast.stats().instructions);
    }

    #[test]
    fn memoized_compute_time_matches_the_direct_expression() {
        let app = spec2000::swim();
        let mut c = CoreSim::new(&app, 0, 0, 3);
        let max = c.stream.max_gap();
        for freq in [3.2, 2.4, 3.2, 0.8, 0.0, f64::NAN] {
            for gap in (0..=max + 2).chain([EXEC_MEMO_GAPS, EXEC_MEMO_GAPS + 1, 1 << 40]).chain(0..=max) {
                let direct = (gap as f64 / (app.base_ipc * freq).max(1e-6) * 1000.0).round() as Picos;
                assert_eq!(c.exec_ps(gap, freq), direct, "gap {gap} at {freq} GHz");
            }
        }
    }

    #[test]
    fn mlp_limit_forces_stall() {
        let mut c = core();
        for i in 0..8 {
            c.push_outstanding(1_000_000 + i);
        }
        assert_eq!(c.outstanding_misses(), 8);
        c.reserve_miss_slot(8);
        assert_eq!(c.outstanding_misses(), 7);
        assert!(c.time_ps >= 1_000_000);
        assert!(c.stats().stall_ps > 0);
    }

    #[test]
    fn dependent_stall_moves_time_forward_only() {
        let mut c = core();
        c.stall_until(500);
        assert_eq!(c.time_ps, 500);
        c.stall_until(100);
        assert_eq!(c.time_ps, 500, "stall never rewinds time");
    }

    #[test]
    fn absolute_line_is_offset_by_base() {
        let c = core();
        assert_eq!(c.absolute_line(10), (1 << 32) + 10);
    }

    #[test]
    fn speculative_probability_scales_with_frequency() {
        let mut c1 = CoreSim::new(&spec2000::swim(), 0, 0, 11);
        let mut c2 = CoreSim::new(&spec2000::swim(), 0, 0, 11);
        let n = 20_000;
        let (t_fast, t_slow) = (c1.speculative_threshold(1.0), c2.speculative_threshold(0.25));
        let fast = (0..n).filter(|_| c1.roll_speculative(t_fast)).count();
        let slow = (0..n).filter(|_| c2.roll_speculative(t_slow)).count();
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn round_to_picos_matches_libm_round() {
        let mut rng = SmallRng::seed_from_u64(17);
        let edge = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            -0.4,
            -2.5,
            4503599627370495.5,
            9007199254740993.0,
            1.8446744073709552e19,
            1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let random = (0..100_000).map(|i| {
            let x = rng.gen_range(0.0..1e6);
            if i % 2 == 0 {
                x
            } else {
                x.floor() + 0.5
            }
        });
        for x in edge.into_iter().chain(random) {
            assert_eq!(round_to_picos(x), x.round() as Picos, "x = {x:e}");
        }
    }

    #[test]
    fn miss_rate_helper_handles_zero_accesses() {
        assert_eq!(CoreStats::default().l2_miss_rate(), 0.0);
    }
}
