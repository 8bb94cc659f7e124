//! Deterministic synthetic address-stream generation.
//!
//! Each application instance owns an [`AccessStream`] that produces the
//! sequence of last-level-cache accesses the application would issue: the
//! number of instructions executed since the previous access (the *gap*),
//! the line address and whether the access is a write-back candidate.
//!
//! The stream has two components, governed by the application's behaviour
//! model:
//!
//! * **hot accesses** revisit a bounded "hot" region with a uniform random
//!   pattern, so their L2 hit rate depends on how much of the hot region the
//!   application manages to keep resident — the mechanism behind shared-cache
//!   contention and the DTM-ACG benefit;
//! * **streaming accesses** walk sequentially through a region much larger
//!   than the cache and essentially always miss.
//!
//! A slow sinusoid-like *phase modulation* varies the access gap over the
//! run, reproducing the program-phase-driven temperature drift the paper
//! observes on real machines (Section 5.4.1).
//!
//! [`AccessStream::next_access`] runs once per access of the level-1 closed
//! loop, so it costs no division, no int-to-float conversion and no branch
//! on a random outcome: the phase test is an integer compare against the
//! first quiet position, the gap jitter is one draw, the hot and write coin
//! flips are integer Bernoulli draws against thresholds fixed at
//! construction, and the hot line is computed for every access but its
//! draw consumed only by hot ones (`SmallRng::next_u64_if`), the line and
//! stream cursor being chosen by selects.

use std::hint::select_unpredictable;

use crate::rng::{self, SmallRng};

use crate::app::AppBehavior;

/// One last-level-cache access produced by the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamAccess {
    /// Instructions executed since the previous access.
    pub gap_instructions: u64,
    /// Line address (64-byte granularity), relative to the instance's base.
    pub line: u64,
    /// Whether the access will eventually produce a write-back.
    pub is_write: bool,
    /// Whether the access targets the hot (reusable) region.
    pub is_hot: bool,
}

/// Phase modulation of the access rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseModel {
    /// Length of one phase period, in instructions.
    pub period_instructions: u64,
    /// Fraction of the period spent in the memory-intensive phase.
    pub duty: f64,
    /// Multiplier applied to the access gap during the quiet phase
    /// (>= 1.0 means fewer accesses per instruction).
    pub quiet_gap_factor: f64,
}

impl Default for PhaseModel {
    fn default() -> Self {
        PhaseModel { period_instructions: 20_000_000_000, duty: 0.75, quiet_gap_factor: 2.0 }
    }
}

/// Deterministic per-instance access-stream generator.
#[derive(Debug, Clone)]
pub struct AccessStream {
    app: AppBehavior,
    rng: SmallRng,
    phase: PhaseModel,
    instructions_so_far: u64,
    /// `instructions_so_far % phase.period_instructions`, maintained
    /// incrementally so the per-access phase check costs no division.
    phase_pos: u64,
    /// First phase position of the quiet phase: the least position whose
    /// float value exceeds `phase.duty * phase.period_instructions`.
    quiet_from: u64,
    /// Mean access gap (instructions) in the memory-intensive phase.
    mean_gap_busy: f64,
    /// Mean access gap in the quiet phase (`mean_gap_busy * quiet factor`).
    mean_gap_quiet: f64,
    /// Bernoulli thresholds of the hot and write draws (see
    /// [`SmallRng::bernoulli_threshold`]).
    hot_threshold: u64,
    write_threshold: u64,
    stream_cursor: u64,
    hot_lines: u64,
    stream_lines: u64,
    accesses_generated: u64,
}

impl AccessStream {
    /// Creates a stream for one instance of `app`, seeded deterministically
    /// from `seed` (typically derived from the core index and copy number).
    pub fn new(app: &AppBehavior, seed: u64) -> Self {
        let hot_lines = (app.hot_bytes / 64).max(1);
        let stream_lines = (app.stream_bytes / 64).max(1);
        let mut stream = AccessStream {
            app: app.clone(),
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            phase: PhaseModel::default(),
            instructions_so_far: 0,
            phase_pos: 0,
            quiet_from: 0,
            mean_gap_busy: 0.0,
            mean_gap_quiet: 0.0,
            hot_threshold: SmallRng::bernoulli_threshold(app.hot_fraction),
            write_threshold: SmallRng::bernoulli_threshold(app.write_fraction),
            stream_cursor: 0,
            hot_lines,
            stream_lines,
            accesses_generated: 0,
        };
        stream.cache_phase_constants();
        stream
    }

    /// Overrides the default phase model.
    ///
    /// # Panics
    ///
    /// Panics if the phase period is 2^63 instructions or longer, or if the
    /// quiet gap factor allows gaps that long.
    pub fn with_phase(mut self, phase: PhaseModel) -> Self {
        self.phase = phase;
        self.cache_phase_constants();
        self
    }

    /// (Re)derives the per-access constants from the app and phase models.
    fn cache_phase_constants(&mut self) {
        // Phase positions and gaps are converted through `i64`.
        assert!(self.phase.period_instructions <= i64::MAX as u64, "phase period must be below 2^63 instructions");
        self.quiet_from = first_above(self.phase.duty * self.phase.period_instructions as f64);
        self.mean_gap_busy = 1000.0 / self.app.l2_apki.max(0.01);
        self.mean_gap_quiet = self.mean_gap_busy * self.phase.quiet_gap_factor;
        assert!(self.max_gap() < 1 << 63, "access gaps must stay below 2^63 instructions");
        self.phase_pos = self.instructions_so_far % self.phase.period_instructions;
    }

    /// The application this stream models.
    pub fn app(&self) -> &AppBehavior {
        &self.app
    }

    /// Total number of lines addressable by this instance (hot + streaming
    /// regions); the owner uses this to place instances at disjoint base
    /// addresses.
    pub fn footprint_lines(&self) -> u64 {
        self.hot_lines + self.stream_lines
    }

    /// An upper bound on the gap of every access the stream produces under
    /// its current phase model: the larger mean gap times the top of the
    /// jitter range.
    pub fn max_gap(&self) -> u64 {
        (self.mean_gap_busy.max(self.mean_gap_quiet) * 1.5).max(1.0) as u64
    }

    /// Instructions attributed to the accesses generated so far.
    pub fn instructions_generated(&self) -> u64 {
        self.instructions_so_far
    }

    /// Number of accesses generated so far.
    pub fn accesses_generated(&self) -> u64 {
        self.accesses_generated
    }

    /// Produces the next demand access.
    pub fn next_access(&mut self) -> StreamAccess {
        // Mean gap between demand L2 accesses in instructions (precomputed
        // per phase — this runs once per access of the closed loop).
        let mean_gap = if self.phase_pos >= self.quiet_from { self.mean_gap_quiet } else { self.mean_gap_busy };
        // Geometric-like jitter around the mean, bounded to keep the stream
        // well behaved. The gap is at least 1 and below 2^63 (asserted with
        // the phase constants), so the signed conversion (one instruction)
        // equals the unsigned one.
        let jitter: f64 = self.rng.gen_range(0.5..1.5);
        let gap = (mean_gap * jitter).max(1.0) as i64 as u64;

        let is_hot = self.rng.bernoulli(self.hot_threshold);
        // A hot access draws a uniform line of the hot region; a streaming
        // one walks sequentially through the streaming region, offset past
        // the hot region. Both candidates are computed and selected, so the
        // coin flip steers no branch: the hot draw is only consumed, and the
        // cursor only advanced, by the access that uses it.
        let hot_line = rng::below(self.rng.next_u64_if(is_hot), self.hot_lines);
        let next_cursor = if self.stream_cursor + 1 == self.stream_lines { 0 } else { self.stream_cursor + 1 };
        self.stream_cursor = select_unpredictable(is_hot, self.stream_cursor, next_cursor);
        let line = select_unpredictable(is_hot, hot_line, self.hot_lines + next_cursor);
        let is_write = self.rng.bernoulli(self.write_threshold);

        self.instructions_so_far += gap;
        self.phase_pos += gap;
        while self.phase_pos >= self.phase.period_instructions {
            self.phase_pos -= self.phase.period_instructions;
        }
        self.accesses_generated += 1;
        StreamAccess { gap_instructions: gap, line, is_write, is_hot }
    }
}

/// The least `p` below 2^63 with `p as f64 > threshold`, or 2^63 if there
/// is none (NaN, or a threshold at or past 2^63). The conversion is
/// monotone, so `p >= first_above(t)` equals `p as f64 > t` for every `p`
/// below 2^63, with no conversion per call.
fn first_above(threshold: f64) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 63);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if mid as f64 > threshold {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec2000;

    #[test]
    fn stream_is_deterministic_for_a_seed() {
        let app = spec2000::swim();
        let mut a = AccessStream::new(&app, 42);
        let mut b = AccessStream::new(&app, 42);
        for _ in 0..1_000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let app = spec2000::swim();
        let mut a = AccessStream::new(&app, 1);
        let mut b = AccessStream::new(&app, 2);
        let same = (0..100).filter(|_| a.next_access() == b.next_access()).count();
        assert!(same < 100, "streams with different seeds should diverge");
    }

    #[test]
    fn mean_gap_tracks_l2_apki() {
        let app = spec2000::swim(); // 30 accesses per kilo-instruction
        let mut s = AccessStream::new(&app, 7);
        let n = 50_000;
        for _ in 0..n {
            s.next_access();
        }
        let apki = 1000.0 * n as f64 / s.instructions_generated() as f64;
        // Phase modulation lowers the average rate a little; accept a band.
        assert!(apki > 0.55 * app.l2_apki && apki < 1.2 * app.l2_apki, "measured APKI {apki}");
        assert_eq!(s.accesses_generated(), n);
    }

    #[test]
    fn hot_fraction_is_respected() {
        let app = spec2000::galgel(); // hot_fraction 0.65
        let mut s = AccessStream::new(&app, 3);
        let n = 20_000;
        let hot = (0..n).filter(|_| s.next_access().is_hot).count();
        let frac = hot as f64 / n as f64;
        assert!((frac - app.hot_fraction).abs() < 0.05, "hot fraction {frac}");
    }

    #[test]
    fn addresses_stay_within_footprint() {
        let app = spec2000::art();
        let mut s = AccessStream::new(&app, 11);
        let fp = s.footprint_lines();
        for _ in 0..10_000 {
            assert!(s.next_access().line < fp);
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let app = spec2000::lucas(); // write_fraction 0.35
        let mut s = AccessStream::new(&app, 5);
        let n = 20_000;
        let writes = (0..n).filter(|_| s.next_access().is_write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - app.write_fraction).abs() < 0.05, "write fraction {frac}");
    }

    #[test]
    fn gaps_never_exceed_max_gap() {
        let phase = PhaseModel { period_instructions: 100_000, duty: 0.5, quiet_gap_factor: 3.0 };
        for app in spec2000::all().iter().chain(&crate::spec2006::all()) {
            let mut s = AccessStream::new(app, 13).with_phase(phase);
            let max = s.max_gap();
            assert!((0..5_000).all(|_| s.next_access().gap_instructions <= max), "{}", app.name);
        }
    }

    #[test]
    fn first_above_matches_the_float_compare() {
        let big = (1u64 << 53) as f64;
        let thresholds = [
            0.0,
            -0.0,
            -1.0,
            0.5,
            1.0,
            7.5e9,
            1.5e10,
            big - 1.0,
            big,
            big + 2.0,
            9.2e18,
            1e30,
            f64::INFINITY,
            f64::NAN,
        ];
        for t in thresholds {
            let first = first_above(t);
            for p in [first.saturating_sub(2), first.saturating_sub(1), first, first + 1, first + 2] {
                if p < 1 << 63 {
                    assert_eq!(p >= first, p as f64 > t, "threshold {t:e}, position {p}");
                }
            }
        }
    }

    #[test]
    fn quiet_phase_reduces_access_rate() {
        let app = spec2000::swim();
        let phase = PhaseModel { period_instructions: 1_000_000, duty: 0.5, quiet_gap_factor: 4.0 };
        let mut s = AccessStream::new(&app, 9).with_phase(phase);
        // Collect instantaneous APKI over many accesses; with a strong quiet
        // factor the variance must be visible.
        let mut gaps = Vec::new();
        for _ in 0..20_000 {
            gaps.push(s.next_access().gap_instructions);
        }
        let small = gaps.iter().filter(|&&g| g < 50).count();
        let large = gaps.iter().filter(|&&g| g >= 90).count();
        assert!(small > 0 && large > 0, "both phases should be visible");
    }
}
