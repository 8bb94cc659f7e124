//! Row-activation-window bandwidth throttling.
//!
//! The Intel 5000-series chipset (and the DTM-BW scheme built on it) limits
//! memory throughput by capping the number of row activations permitted in a
//! fixed time window. Under the close-page policy every transaction performs
//! exactly one activation, so an activation cap is equivalent to a byte
//! bandwidth cap, which is how the DTM schemes express their limits
//! (Table 4.3: "no limit", 19.2 GB/s, 12.8 GB/s, 6.4 GB/s, off).
//!
//! # Peak accounting
//!
//! The window state machine runs on every reservation, limited or not, and
//! records the most activations any window granted
//! ([`ActivationThrottle::peak_per_window`]). A limit delays a request only
//! when its window has already granted `max_per_window` activations, so a
//! run whose unlimited peak is at most a limit `L` would have been granted
//! every activation at the same time under `L`: the limited run is the
//! unlimited one, request for request. Level-1 characterization uses this
//! to derive a capped design point from its uncapped sibling instead of
//! simulating it. Because the window counts activations even while
//! unlimited, a limit set mid-run applies to the activations its current
//! window has already granted.

use crate::time::{Picos, PS_PER_SEC};

/// Window-based activation throttle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationThrottle {
    /// Length of the accounting window.
    window_ps: Picos,
    /// Maximum activations per window; `None` means unlimited and
    /// `Some(0)` means the memory system is fully shut off.
    max_per_window: Option<u64>,
    /// Start of the current window.
    window_start: Picos,
    /// Activations granted in the current window.
    used: u64,
    /// Most activations any window has granted so far.
    peak: u64,
}

impl ActivationThrottle {
    /// Creates an unlimited throttle with the given accounting window.
    pub fn unlimited(window_ps: Picos) -> Self {
        ActivationThrottle { window_ps: window_ps.max(1), max_per_window: None, window_start: 0, used: 0, peak: 0 }
    }

    /// Creates a throttle that permits `max_per_window` activations per
    /// window.
    pub fn with_limit(window_ps: Picos, max_per_window: u64) -> Self {
        ActivationThrottle {
            window_ps: window_ps.max(1),
            max_per_window: Some(max_per_window),
            window_start: 0,
            used: 0,
            peak: 0,
        }
    }

    /// Creates a throttle expressed as a byte-bandwidth cap, converting it to
    /// an activation cap assuming `bytes_per_activation` bytes move per
    /// activation (64 under the paper's close-page configuration).
    pub fn from_bandwidth_cap(window_ps: Picos, cap_bytes_per_sec: f64, bytes_per_activation: u64) -> Self {
        let window_secs = window_ps as f64 / PS_PER_SEC as f64;
        let max = (cap_bytes_per_sec * window_secs / bytes_per_activation as f64).floor() as u64;
        Self::with_limit(window_ps, max)
    }

    /// Replaces the limit while keeping window accounting state.
    pub fn set_limit(&mut self, max_per_window: Option<u64>) {
        self.max_per_window = max_per_window;
    }

    /// Returns the configured per-window limit.
    pub fn limit(&self) -> Option<u64> {
        self.max_per_window
    }

    /// Returns the accounting window length.
    pub fn window_ps(&self) -> Picos {
        self.window_ps
    }

    /// The most activations any accounting window has granted so far
    /// (see the module docs): with no limit, the smallest limit that would
    /// have delayed nothing.
    pub fn peak_per_window(&self) -> u64 {
        self.peak
    }

    /// Returns `true` if the throttle currently blocks all traffic.
    pub fn is_shut_off(&self) -> bool {
        self.max_per_window == Some(0)
    }

    /// Reserves one activation at or after `earliest`, returning the time at
    /// which the activation is allowed to proceed.
    ///
    /// # Panics
    ///
    /// Panics if the throttle is fully shut off (`Some(0)`); callers must
    /// check [`ActivationThrottle::is_shut_off`] first, because a shut-off
    /// memory system has no meaningful "next allowed" time.
    pub fn reserve(&mut self, earliest: Picos) -> Picos {
        assert!(self.max_per_window != Some(0), "reserve() called on a fully shut-off throttle");

        // Advance the window so that `earliest` falls inside it.
        self.roll_to(earliest);
        let granted = match self.max_per_window {
            // Window exhausted: the activation slides to the start of the
            // next window (and consumes a slot there).
            Some(max) if self.used >= max => {
                self.window_start += self.window_ps;
                self.used = 1;
                self.window_start
            }
            _ => {
                self.used += 1;
                earliest
            }
        };
        self.peak = self.peak.max(self.used);
        granted
    }

    fn roll_to(&mut self, t: Picos) {
        if t >= self.window_start + self.window_ps {
            let windows_ahead = (t - self.window_start) / self.window_ps;
            self.window_start += windows_ahead * self.window_ps;
            self.used = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::PS_PER_MS;

    #[test]
    fn unlimited_never_delays() {
        let mut th = ActivationThrottle::unlimited(PS_PER_MS);
        for i in 0..1_000u64 {
            assert_eq!(th.reserve(i * 10), i * 10);
        }
    }

    #[test]
    fn limit_delays_to_next_window() {
        let mut th = ActivationThrottle::with_limit(1_000, 2);
        assert_eq!(th.reserve(0), 0);
        assert_eq!(th.reserve(0), 0);
        // Third activation in the same window slides to the next window.
        assert_eq!(th.reserve(0), 1_000);
        // And it consumed a slot there: one more fits, then the next slides.
        assert_eq!(th.reserve(1_000), 1_000);
        assert_eq!(th.reserve(1_000), 2_000);
    }

    #[test]
    fn windows_roll_forward_with_time() {
        let mut th = ActivationThrottle::with_limit(1_000, 1);
        assert_eq!(th.reserve(0), 0);
        // A much later request lands in its own window with a fresh budget.
        assert_eq!(th.reserve(10_500), 10_500);
    }

    #[test]
    fn bandwidth_cap_translates_to_activations() {
        // 6.4 GB/s with a 10 ms window and 64-byte lines: 6.4e9 * 0.01 / 64 = 1e6.
        let th = ActivationThrottle::from_bandwidth_cap(10 * PS_PER_MS, 6.4e9, 64);
        assert_eq!(th.limit(), Some(1_000_000));
    }

    #[test]
    fn sustained_rate_respects_cap() {
        // 100 activations per 1 us window -> 1e8 activations/s -> with 64 B
        // lines that is 6.4 GB/s.
        let window = 1_000_000; // 1 us in ps
        let mut th = ActivationThrottle::with_limit(window, 100);
        let mut t = 0;
        let n = 10_000u64;
        for _ in 0..n {
            t = th.reserve(t);
        }
        // Completing n activations must take at least (n / 100 - 1) windows.
        assert!(t >= (n / 100 - 1) * window);
    }

    /// A seeded stream of non-decreasing request times: back-to-back
    /// bursts with now and then an idle gap of a few windows.
    fn seeded_times(seed: u64, window: Picos) -> Vec<Picos> {
        let mut state = seed;
        let mut t = 0;
        (0..5_000)
            .map(|_| {
                // SplitMix64.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                t += if z.is_multiple_of(32) { z % (3 * window) } else { z % (window / 20) };
                t
            })
            .collect()
    }

    #[test]
    fn a_limit_at_the_unlimited_peak_delays_nothing_and_one_below_does() {
        let window = 1_000_000;
        for seed in [3, 11, 2024, 987_654_321] {
            let times = seeded_times(seed, window);
            let mut free = ActivationThrottle::unlimited(window);
            for &t in &times {
                assert_eq!(free.reserve(t), t);
            }
            let peak = free.peak_per_window();
            assert!(peak > 1, "seed {seed}: the stream must fill some window");
            let mut at_peak = ActivationThrottle::with_limit(window, peak);
            for &t in &times {
                assert_eq!(at_peak.reserve(t), t, "seed {seed}: a limit of {peak} delayed a request");
            }
            assert_eq!(at_peak.peak_per_window(), peak);
            let mut below = ActivationThrottle::with_limit(window, peak - 1);
            let delayed = times.iter().filter(|&&t| below.reserve(t) > t).count();
            assert!(delayed > 0, "seed {seed}: a limit of {} delayed nothing", peak - 1);
        }
    }

    #[test]
    fn shut_off_is_detectable() {
        let th = ActivationThrottle::with_limit(1_000, 0);
        assert!(th.is_shut_off());
        let th = ActivationThrottle::unlimited(1_000);
        assert!(!th.is_shut_off());
    }

    #[test]
    #[should_panic(expected = "shut-off")]
    fn reserving_on_shut_off_panics() {
        let mut th = ActivationThrottle::with_limit(1_000, 0);
        th.reserve(0);
    }

    #[test]
    fn set_limit_switches_behaviour() {
        let mut th = ActivationThrottle::unlimited(1_000);
        th.set_limit(Some(1));
        assert_eq!(th.reserve(0), 0);
        assert!(th.reserve(0) >= 1_000);
        th.set_limit(None);
        assert_eq!(th.reserve(5_000), 5_000);
    }
}
