//! Thermal emergency levels (Table 4.3 / Table 5.1).
//!
//! The DTM policies quantize the sensed AMB and DRAM temperatures into a
//! small number of *thermal emergency levels*; each level maps to one
//! control decision of the scheme (bandwidth limit, number of active cores,
//! DVFS point). Level 1 means "no emergency", the highest level means the
//! thermal design point has been reached and the memory must be shut off.

use crate::thermal::params::ThermalLimits;

/// A thermal emergency level. `L1` is the coolest (no action), `L5` the
/// hottest (memory shut off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EmergencyLevel {
    /// No thermal emergency.
    L1,
    /// Mild emergency.
    L2,
    /// Moderate emergency.
    L3,
    /// Severe emergency.
    L4,
    /// At or above the thermal design point.
    L5,
}

impl EmergencyLevel {
    /// All levels in increasing severity.
    pub const ALL: [EmergencyLevel; 5] =
        [EmergencyLevel::L1, EmergencyLevel::L2, EmergencyLevel::L3, EmergencyLevel::L4, EmergencyLevel::L5];

    /// Zero-based index (L1 = 0).
    pub fn index(self) -> usize {
        match self {
            EmergencyLevel::L1 => 0,
            EmergencyLevel::L2 => 1,
            EmergencyLevel::L3 => 2,
            EmergencyLevel::L4 => 3,
            EmergencyLevel::L5 => 4,
        }
    }

    /// Level from a zero-based index, clamped to `L5`.
    pub fn from_index(index: usize) -> Self {
        *Self::ALL.get(index).unwrap_or(&EmergencyLevel::L5)
    }

    /// The more severe of two levels.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The fraction of a channel's traffic a per-channel throttling policy
    /// serves at this level: the Table 4.3 DTM-BW caps
    /// ([`BW_LIMITS_GBPS`](crate::sim::modes::BW_LIMITS_GBPS) — no limit /
    /// 19.2 / 12.8 / 6.4 GB/s / off) normalized to the subsystem's
    /// [`PEAK_BANDWIDTH_GBPS`](crate::sim::modes::PEAK_BANDWIDTH_GBPS)
    /// (25.6 GB/s), i.e. 1.0 / 0.75 / 0.5 / 0.25 / 0.0 — derived from the
    /// same constants DTM-BW's global caps use, so retuning the caps
    /// retunes the fractions with them. Applying the fraction per channel
    /// instead of capping the whole subsystem is what lets
    /// [`DtmCbw`](crate::dtm::cbw::DtmCbw) throttle only the channels that
    /// are actually hot.
    pub fn service_fraction(self) -> f64 {
        use crate::sim::modes::{BW_LIMITS_GBPS, PEAK_BANDWIDTH_GBPS};
        match self {
            EmergencyLevel::L1 => 1.0,
            EmergencyLevel::L5 => 0.0,
            level => BW_LIMITS_GBPS[level.index() - 1] / PEAK_BANDWIDTH_GBPS,
        }
    }
}

impl std::fmt::Display for EmergencyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.index() + 1)
    }
}

/// Temperature boundaries defining the emergency levels for one pair of
/// sensed temperatures (AMB and DRAM).
///
/// `amb_bounds[i]` is the temperature at which level `i + 2` begins; a
/// temperature below `amb_bounds[0]` is level 1. The two devices may define
/// a different number of levels on the two servers, but within one table the
/// AMB and DRAM boundary lists have the same length.
#[derive(Debug, Clone, PartialEq)]
pub struct EmergencyThresholds {
    /// The boundaries in fixed-width arrays padded with `+∞` past `bounds`,
    /// so a level is a fixed-width count (decided every DTM interval, and
    /// every virtual window of the batched engine's decision replay).
    amb_bounds: [f64; MAX_BOUNDS],
    dram_bounds: [f64; MAX_BOUNDS],
    bounds: usize,
}

/// The most boundaries a table holds: one fewer than the emergency levels.
const MAX_BOUNDS: usize = EmergencyLevel::ALL.len() - 1;

impl EmergencyThresholds {
    /// Builds thresholds from explicit boundary lists (must be strictly
    /// increasing and of equal length, one to four boundaries each).
    ///
    /// # Panics
    ///
    /// Panics if the lists are empty, longer than four (there are five
    /// levels), of different lengths, or not strictly increasing.
    pub fn new(amb_bounds: Vec<f64>, dram_bounds: Vec<f64>) -> Self {
        assert!(!amb_bounds.is_empty(), "at least one boundary is required");
        assert!(amb_bounds.len() <= MAX_BOUNDS, "at most {MAX_BOUNDS} boundaries (five levels)");
        assert_eq!(amb_bounds.len(), dram_bounds.len(), "boundary lists must have equal length");
        for b in [&amb_bounds, &dram_bounds] {
            assert!(b.windows(2).all(|w| w[0] < w[1]), "boundaries must be strictly increasing");
        }
        let pad = |b: &[f64]| std::array::from_fn(|i| b.get(i).copied().unwrap_or(f64::INFINITY));
        EmergencyThresholds { amb_bounds: pad(&amb_bounds), dram_bounds: pad(&dram_bounds), bounds: amb_bounds.len() }
    }

    /// The Table 4.3 thresholds, expressed relative to the thermal design
    /// points so that a TDP sweep (Figure 5.14) shifts all levels together:
    /// boundaries at TDP − 2, TDP − 1, TDP − 0.5 and TDP.
    pub fn table_4_3(limits: &ThermalLimits) -> Self {
        let offsets = [2.0, 1.0, 0.5, 0.0];
        EmergencyThresholds::new(
            offsets.iter().map(|o| limits.amb_tdp_c - o).collect(),
            offsets.iter().map(|o| limits.dram_tdp_c - o).collect(),
        )
    }

    /// A table with no boundaries: every temperature pair is level 1 (the
    /// ladder of a policy with a single mode).
    pub(crate) fn single_level() -> Self {
        EmergencyThresholds {
            amb_bounds: [f64::INFINITY; MAX_BOUNDS],
            dram_bounds: [f64::INFINITY; MAX_BOUNDS],
            bounds: 0,
        }
    }

    /// Number of levels this table defines (boundaries + 1).
    pub fn levels(&self) -> usize {
        self.bounds + 1
    }

    /// The boundaries `temp` reaches. A `+∞` padding slot counts only for
    /// `temp = +∞`, which reaches every boundary, hence the cap; a NaN
    /// reaches none.
    fn level_of(&self, bounds: &[f64; MAX_BOUNDS], temp: f64) -> EmergencyLevel {
        let reached: usize = bounds.iter().map(|&b| usize::from(temp >= b)).sum();
        EmergencyLevel::from_index(reached.min(self.bounds))
    }

    /// Emergency level implied by the AMB temperature alone.
    pub fn amb_level(&self, amb_temp_c: f64) -> EmergencyLevel {
        self.level_of(&self.amb_bounds, amb_temp_c)
    }

    /// Emergency level implied by the DRAM temperature alone.
    pub fn dram_level(&self, dram_temp_c: f64) -> EmergencyLevel {
        self.level_of(&self.dram_bounds, dram_temp_c)
    }

    /// Overall emergency level: the more severe of the two devices' levels.
    pub fn level(&self, amb_temp_c: f64, dram_temp_c: f64) -> EmergencyLevel {
        self.amb_level(amb_temp_c).max(self.dram_level(dram_temp_c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> EmergencyThresholds {
        EmergencyThresholds::table_4_3(&ThermalLimits::paper_fbdimm())
    }

    #[test]
    fn table_4_3_boundaries_match_the_paper() {
        let t = table();
        assert_eq!(t.levels(), 5);
        // AMB ranges: (-,108) [108,109) [109,109.5) [109.5,110) [110,-)
        assert_eq!(t.amb_level(107.9), EmergencyLevel::L1);
        assert_eq!(t.amb_level(108.0), EmergencyLevel::L2);
        assert_eq!(t.amb_level(108.9), EmergencyLevel::L2);
        assert_eq!(t.amb_level(109.0), EmergencyLevel::L3);
        assert_eq!(t.amb_level(109.5), EmergencyLevel::L4);
        assert_eq!(t.amb_level(110.0), EmergencyLevel::L5);
        // DRAM ranges: (-,83) [83,84) [84,84.5) [84.5,85) [85,-)
        assert_eq!(t.dram_level(82.9), EmergencyLevel::L1);
        assert_eq!(t.dram_level(83.0), EmergencyLevel::L2);
        assert_eq!(t.dram_level(84.2), EmergencyLevel::L3);
        assert_eq!(t.dram_level(84.7), EmergencyLevel::L4);
        assert_eq!(t.dram_level(85.5), EmergencyLevel::L5);
    }

    #[test]
    fn combined_level_is_the_worse_of_the_two() {
        let t = table();
        assert_eq!(t.level(107.0, 84.6), EmergencyLevel::L4);
        assert_eq!(t.level(109.6, 80.0), EmergencyLevel::L4);
        assert_eq!(t.level(100.0, 70.0), EmergencyLevel::L1);
        assert_eq!(t.level(111.0, 86.0), EmergencyLevel::L5);
    }

    #[test]
    fn levels_order_and_index_round_trip() {
        for (i, l) in EmergencyLevel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
            assert_eq!(EmergencyLevel::from_index(i), *l);
        }
        assert_eq!(EmergencyLevel::from_index(42), EmergencyLevel::L5);
        assert!(EmergencyLevel::L4 > EmergencyLevel::L2);
        assert_eq!(EmergencyLevel::L2.max(EmergencyLevel::L3), EmergencyLevel::L3);
        assert_eq!(EmergencyLevel::L5.to_string(), "L5");
    }

    #[test]
    fn service_fractions_mirror_the_table_4_3_caps() {
        let fractions: Vec<f64> = EmergencyLevel::ALL.iter().map(|l| l.service_fraction()).collect();
        // The caps over the 25.6 GB/s peak: 1.0 / 0.75 / 0.5 / 0.25 / 0.0
        // (compared with tolerance — the fractions are *derived* from
        // BW_LIMITS_GBPS / PEAK_BANDWIDTH_GBPS, not restated literals).
        for (got, want) in fractions.iter().zip([1.0, 0.75, 0.5, 0.25, 0.0]) {
            assert!((got - want).abs() < 1e-12, "fraction {got} vs {want}");
        }
        assert_eq!(fractions[0], 1.0);
        assert_eq!(fractions[4], 0.0);
        // Strictly decreasing: a hotter channel is always served less.
        assert!(fractions.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn tdp_sweep_shifts_all_boundaries() {
        let lower = EmergencyThresholds::table_4_3(&ThermalLimits::paper_fbdimm().with_amb_tdp(100.0));
        assert_eq!(lower.amb_level(98.2), EmergencyLevel::L2);
        assert_eq!(lower.amb_level(100.0), EmergencyLevel::L5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_boundaries_are_rejected() {
        let _ = EmergencyThresholds::new(vec![108.0, 107.0], vec![83.0, 84.0]);
    }

    #[test]
    #[should_panic(expected = "at most 4 boundaries")]
    fn more_boundaries_than_levels_are_rejected() {
        let _ = EmergencyThresholds::new(vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn single_level_and_short_tables_count_only_their_boundaries() {
        let single = EmergencyThresholds::single_level();
        let short = EmergencyThresholds::new(vec![108.0], vec![83.0]);
        for t in [f64::NEG_INFINITY, 0.0, 200.0, f64::INFINITY, f64::NAN] {
            assert_eq!(single.level(t, t), EmergencyLevel::L1, "{t}");
        }
        assert_eq!(short.level(107.9, 82.9), EmergencyLevel::L1);
        assert_eq!(short.level(108.0, 0.0), EmergencyLevel::L2);
        assert_eq!(short.level(f64::INFINITY, f64::INFINITY), EmergencyLevel::L2);
        assert_eq!(short.level(f64::NAN, f64::NAN), EmergencyLevel::L1);
        assert_eq!(short.levels(), 2);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lists_are_rejected() {
        let _ = EmergencyThresholds::new(vec![108.0], vec![83.0, 84.0]);
    }
}
