//! Small deterministic pseudo-random generator.
//!
//! The simulators only need reproducible, statistically reasonable jitter
//! (access gaps, sensor noise, dependence draws), not cryptographic quality,
//! so a SplitMix64 generator is plenty. The API mirrors the subset of the
//! `rand` crate the substrates use, which keeps the call sites conventional.
//!
//! A Bernoulli draw is an integer compare. [`SmallRng::gen_bool`] is defined
//! as `next_f64() < p` for `p` clamped to `[0, 1]`, and `next_f64()` is the
//! top 53 bits `k` of an output times `2^-53`. That scaling is exact, so the
//! test is `k < p·2^53`, and since `k` is an integer, `k < ceil(p·2^53)`:
//! [`SmallRng::bernoulli_threshold`] computes that bound once and
//! [`SmallRng::bernoulli`] draws against it, with the same outcome as the
//! float test for every `p`, NaN (never true) included. The level-1 closed
//! loop precomputes the thresholds of its per-access draws.

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
        let mut rng = SmallRng { state: seed.wrapping_add(GAMMA) };
        rng.next_u64();
        rng
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// The next raw output, consumed only if `advance`: otherwise the
    /// generator is left as it was and the same output comes next. Lets a
    /// caller compute a draw that only some outcomes use without branching.
    #[inline]
    pub(crate) fn next_u64_if(&mut self, advance: bool) -> u64 {
        let state = self.state.wrapping_add(GAMMA);
        self.state = std::hint::select_unpredictable(advance, state, self.state);
        mix(state)
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

    /// A Bernoulli draw with probability `p` (clamped to `[0, 1]`): true
    /// when `next_f64() < p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.bernoulli(Self::bernoulli_threshold(p))
    }

    /// The threshold of a Bernoulli draw with probability `p` (clamped to
    /// `[0, 1]`; NaN gives 0, a draw that is never true): `ceil(p·2^53)`,
    /// at most `2^53` (see the module docs).
    pub fn bernoulli_threshold(p: f64) -> u64 {
        // Scaling by 2^53 is exact; `as` truncates (NaN to 0), then the
        // compare rounds up a fractional part.
        let scaled = p.clamp(0.0, 1.0) * (1u64 << 53) as f64;
        let whole = scaled as u64;
        whole + u64::from((whole as f64) < scaled)
    }

    /// A Bernoulli draw against a threshold from
    /// [`Self::bernoulli_threshold`]: the same outcome, from the same state,
    /// as [`Self::gen_bool`] with that probability.
    #[inline]
    pub fn bernoulli(&mut self, threshold: u64) -> bool {
        self.next_u64() >> 11 < threshold
    }
}

/// SplitMix64's state increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output function of a state.
#[inline]
fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a raw output onto `0..span` by multiply-shift, as
/// [`SmallRng::gen_range`] does for `u64` ranges.
#[inline]
pub(crate) fn below(raw: u64, span: u64) -> u64 {
    ((raw as u128 * span as u128) >> 64) as u64
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
        // Multiply-shift rejection-free mapping; the bias is < 2^-64 * span,
        // irrelevant for simulation jitter.
        self.start + below(rng.next_u64(), self.end - self.start)
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

    /// The float definition the threshold draw replaces.
    fn float_draw(rng: &mut SmallRng, p: f64) -> bool {
        rng.next_f64() < p.clamp(0.0, 1.0)
    }

    #[test]
    fn threshold_draw_equals_the_float_draw() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut edge = vec![
            0.0,
            -0.0,
            1.0,
            f64::NAN,
            -f64::NAN,
            5e-324,
            f64::MIN_POSITIVE,
            1.0 - ulp,
            1.0 - 2.0 * ulp,
            0.5 + ulp,
            1.5,
            1e300,
            f64::INFINITY,
            -1e-300,
            f64::NEG_INFINITY,
        ];
        // Exact multiples k·2^-53 and their float neighbours.
        for k in [1u64, 2, 3, 1 << 20, (1 << 52) - 1, 1 << 52, (1 << 53) - 1] {
            let p = k as f64 * ulp;
            edge.extend([p, f64::from_bits(p.to_bits() - 1), f64::from_bits(p.to_bits() + 1)]);
        }
        let mut seeds = SmallRng::seed_from_u64(2024);
        let random: Vec<f64> = (0..2_000).map(|_| seeds.next_f64()).collect();
        for (i, &p) in edge.iter().chain(&random).enumerate() {
            let t = SmallRng::bernoulli_threshold(p);
            assert!(t <= 1 << 53, "p = {p:e}");
            // The float test is monotone in k = u >> 11, so it equals
            // `k < t` for every k when it does at the boundary.
            let q = p.clamp(0.0, 1.0);
            for k in [t.saturating_sub(1), t, t + 1].into_iter().filter(|&k| k < 1 << 53) {
                assert_eq!((k as f64) * ulp < q, k < t, "p = {p:e}, k = {k}");
            }
            let seed = i as u64;
            let (mut a, mut b, mut c) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            for _ in 0..64 {
                let want = float_draw(&mut a, p);
                assert_eq!(b.bernoulli(t), want, "p = {p:e}");
                assert_eq!(c.gen_bool(p), want, "p = {p:e}");
            }
        }
    }

    #[test]
    fn next_u64_if_consumes_only_when_asked() {
        let mut a = SmallRng::seed_from_u64(8);
        let mut b = SmallRng::seed_from_u64(8);
        for i in 0..1_000u64 {
            let advance = i % 3 == 0;
            let peeked = a.next_u64_if(advance);
            let mut copy = b.clone();
            assert_eq!(peeked, copy.next_u64());
            if advance {
                b.next_u64();
            }
            assert_eq!(a, b);
        }
    }
}
