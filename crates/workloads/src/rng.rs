//! Small deterministic pseudo-random generator.
//!
//! The simulators only need reproducible, statistically reasonable jitter
//! (access gaps, sensor noise, dependence draws), not cryptographic quality,
//! so a SplitMix64 generator is plenty. The API mirrors the subset of the
//! `rand` crate the substrates use, which keeps the call sites conventional.

use std::ops::Range;

/// A deterministic SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // One warm-up step decorrelates small, similar seeds.
        let mut rng = SmallRng { state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15) };
        rng.next_u64();
        rng
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits. They fit an `i64` exactly, and the signed
        // conversion is one instruction where the unsigned one is several.
        ((self.next_u64() >> 11) as i64) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from a half-open range (`f64` or `u64`).
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// A Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

/// Ranges [`SmallRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut SmallRng) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut SmallRng) -> f64 {
        debug_assert!(self.start < self.end, "empty f64 range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl SampleRange<u64> for Range<u64> {
    fn sample(self, rng: &mut SmallRng) -> u64 {
        debug_assert!(self.start < self.end, "empty u64 range");
        let span = self.end - self.start;
        // Multiply-shift rejection-free mapping; the bias is < 2^-64 * span,
        // irrelevant for simulation jitter.
        self.start + ((rng.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn f64_draws_are_uniform_enough() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x: f64 = rng.gen_range(0.5..1.5);
            assert!((0.5..1.5).contains(&x));
            let y: u64 = rng.gen_range(10..20u64);
            assert!((10..20).contains(&y));
        }
    }

    #[test]
    fn bernoulli_frequency_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
