//! Set-associative cache model with true LRU replacement.
//!
//! The shared L2 cache is the piece of the processor that matters most to
//! the thermal study: its miss rate under different numbers of co-running
//! programs determines the memory traffic, which determines DRAM/AMB heat
//! generation. The model is a tag-only set-associative cache with per-set
//! LRU, dirty bits for write-back traffic, and hit/miss/write-back
//! statistics.
//!
//! The cache is touched on every demand access of the closed-loop level-1
//! simulation, so its storage is a flat `sets × ways` array of tag words
//! (tag plus valid and dirty bits) and one 64-bit recency word per set, the
//! set's ways in LRU order as 4-bit indices, with set lookup by power-of-two
//! masking (a division fallback for odd set counts). There is no access
//! clock, so nothing limits how many accesses a cache may see; the recency
//! word limits a cache to 16 ways. Every run also starts from a warm-start
//! prefill of tens of thousands of lines, which
//! [`SetAssocCache::warm_fill_round_robin`] writes directly from one template
//! per interval of sets instead of simulating it.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / self.line_bytes / self.associativity as u64).max(1) as usize
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns an error message if any dimension is zero, the associativity
    /// exceeds 16 (the ways a set's recency word holds), or the capacity is
    /// not an exact multiple of `associativity * line_bytes`.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_bytes == 0 || self.line_bytes == 0 || self.associativity == 0 {
            return Err("cache dimensions must be positive".into());
        }
        if self.associativity > MAX_WAYS {
            return Err(format!(
                "associativity {} exceeds the {MAX_WAYS} ways a recency word holds",
                self.associativity
            ));
        }
        if !self.capacity_bytes.is_multiple_of(self.line_bytes * self.associativity as u64) {
            return Err("capacity must be a multiple of associativity x line size".into());
        }
        Ok(())
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; if a dirty victim was evicted its line address is
    /// carried here so the caller can issue the write-back.
    Miss {
        /// Dirty victim evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// Returns `true` for hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
    /// Dirty evictions (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Valid bit of a way's tag word.
const VALID: u64 = 0b01;
/// Dirty bit of a way's tag word.
const DIRTY: u64 = 0b10;
/// Tag words hold the tag above the two flag bits.
const FLAG_BITS: u32 = 2;
/// The most ways a set may have: its recency word holds one 4-bit way index
/// per way.
const MAX_WAYS: usize = 16;
/// A 1 in every nibble of a recency word.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// The recency word of a set no access has touched: way `i` at position `i`,
/// so invalid ways fill lowest index first and the untouched ways stay at
/// the LRU end in index order.
fn identity_order(assoc: usize) -> u64 {
    (0..assoc as u64).fold(0, |order, way| order | way << (4 * way))
}

/// Moves `way` to the front (the most recent position) of recency word
/// `order`: the nibbles more recent than it shift up by one, the older ones
/// stay. The zero-nibble test finds `way`'s position; its lowest set bit is
/// exact, and `way` occurs once among the set's positions, below any unused
/// (zero) high nibble.
#[inline]
fn move_to_front(order: u64, way: usize) -> u64 {
    let x = order ^ (way as u64 * NIBBLE_ONES);
    let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
    let shift = zero.trailing_zeros() & !3;
    let newer = order & ((1 << shift) - 1);
    let older = order & (u64::MAX << shift << 4);
    older | newer << 4 | way as u64
}

/// A set-associative, write-back, allocate-on-miss cache with LRU
/// replacement, addressed by 64-byte line address.
///
/// Storage is two contiguous arrays:
///
/// * `tags` holds one word per way, `tag << 2 | DIRTY | VALID`, in
///   `sets × ways` layout (set `s` occupies `s*assoc .. (s+1)*assoc`), so
///   the hit scan is one masked compare per way over one cache-line-sized
///   run and an empty way is the all-zero word;
/// * `order` holds one recency word per set: nibble `i` is the index of the
///   way at recency position `i`, most recent first, so the LRU way is
///   nibble `assoc - 1`. A hit or fill moves its way to the front.
///
/// Invalid ways fill first, lowest index first; a set with none evicts its
/// LRU way. The cache keeps no access clock. A power-of-two set count
/// resolves the set index with a mask instead of a division.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Flat `sets × associativity` tag words (tag plus valid/dirty bits).
    tags: Vec<u64>,
    /// One recency word per set: way indices as nibbles, most recent first.
    order: Vec<u64>,
    /// Number of sets (`tags.len() / cfg.associativity`).
    sets: usize,
    /// `sets - 1` when the set count is a power of two, else 0.
    set_mask: u64,
    /// `log2(sets)` when the set count is a power of two, else 0.
    set_shift: u32,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let sets = cfg.sets();
        let entries = sets * cfg.associativity;
        let (set_mask, set_shift) =
            if sets.is_power_of_two() { ((sets - 1) as u64, sets.trailing_zeros()) } else { (0, 0) };
        SetAssocCache {
            cfg,
            tags: vec![0; entries],
            order: vec![identity_order(cfg.associativity); sets],
            sets,
            set_mask,
            set_shift,
            stats: CacheStats::default(),
        }
    }

    /// Bytes of the tag and recency arrays.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.tags.as_slice()) + std::mem::size_of_val(self.order.as_slice())
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index_and_tag(&self, line: u64) -> (usize, u64) {
        if self.set_mask != 0 {
            ((line & self.set_mask) as usize, line >> self.set_shift)
        } else {
            let sets = self.sets as u64;
            ((line % sets) as usize, line / sets)
        }
    }

    /// The valid, clean tag word of `tag`. Only a cache of one or two sets
    /// can see a tag too wide for the word, from a line address of 2^62 or
    /// more.
    #[inline]
    fn tag_word(tag: u64) -> u64 {
        assert!(tag < 1 << (64 - FLAG_BITS), "tag {tag:#x} does not fit a tag word");
        tag << FLAG_BITS | VALID
    }

    /// Accesses `line`; `is_write` marks the line dirty on hit or fill.
    /// Returns whether the access hit and, on a miss, any dirty victim whose
    /// write-back the caller must issue.
    ///
    /// # Panics
    ///
    /// Panics if a cache of one or two sets is given a line address of 2^62
    /// or more.
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        self.stats.accesses += 1;
        let (set_idx, tag) = self.index_and_tag(line);
        let word = Self::tag_word(tag);
        let dirty = if is_write { DIRTY } else { 0 };
        let assoc = self.cfg.associativity;
        let base = set_idx * assoc;
        let set_tags = &mut self.tags[base..base + assoc];

        // One pass over the tag run: a masked compare per way for the hit,
        // noting the first invalid way for a miss's fill on the way.
        let mut invalid = None;
        for (w, &t) in set_tags.iter().enumerate() {
            if t & !DIRTY == word {
                set_tags[w] |= dirty;
                self.order[set_idx] = move_to_front(self.order[set_idx], w);
                return AccessOutcome::Hit;
            }
            if t & VALID == 0 && invalid.is_none() {
                invalid = Some(w);
            }
        }

        // Miss: fill into the first invalid way or evict the LRU way.
        self.stats.misses += 1;
        let order = self.order[set_idx];
        let victim = invalid.unwrap_or((order >> (4 * (assoc - 1)) & 0xF) as usize);
        let old = set_tags[victim];
        let writeback = if old & (VALID | DIRTY) == VALID | DIRTY {
            self.stats.writebacks += 1;
            Some((old >> FLAG_BITS) * self.sets as u64 + set_idx as u64)
        } else {
            None
        };
        set_tags[victim] = word | dirty;
        self.order[set_idx] = move_to_front(order, victim);
        AccessOutcome::Miss { writeback }
    }

    /// Invalidates the whole cache, discarding dirty data (used when a
    /// program's copy finishes and its footprint is recycled).
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.order.fill(identity_order(self.cfg.associativity));
    }

    /// Resets the cache to its just-constructed state: empty contents and
    /// zero statistics.
    pub fn reset(&mut self) {
        self.flush();
        self.stats = CacheStats::default();
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t & VALID != 0).count()
    }

    /// Fills this cache with the round-robin warm-start prefill the level-1
    /// simulator uses, producing *exactly* the state of the equivalent
    /// access loop on a reset cache
    ///
    /// ```text
    /// for offset in 0..max_hot {
    ///     for (base, hot) in entries {
    ///         if offset < hot { self.access(base + offset, false); }
    ///     }
    /// }
    /// ```
    ///
    /// but written directly. Every prefilled line is distinct, so every
    /// access misses and fills the ways of its set round-robin: the final
    /// contents of a set are its last `associativity` arrivals. With
    /// set-aligned bases, offset `o = r·sets + s` of any entry lands in set
    /// `s` in round `r`, and entry `j` (hot size `hot_j = q_j·sets + m_j`)
    /// sends `q_j + 1` arrivals to the sets below `m_j` and `q_j` to the
    /// rest. So the cuts `hot_j % sets` split the sets into at most
    /// `entries + 1` intervals whose sets all see the same arrival pattern:
    /// the same survivors in the same ways, each with the constant tag
    /// `(base_j >> log2(sets)) + r`, and the same recency order: a set's
    /// arrivals come in round order, then entry order, whatever the set.
    /// One template per interval (a tag word per way and one recency word)
    /// is built from the survivors, then written set by set.
    ///
    /// The whole cache state (contents, recency order, statistics) is
    /// defined by this call, so no prior reset is needed. Falls back to reset
    /// plus the literal loop for geometries the templates do not cover
    /// (non-power-of-two set counts, bases that are not set-aligned, or
    /// overlapping ranges).
    pub fn warm_fill_round_robin(&mut self, entries: &[(u64, u64)]) {
        let sets = self.sets as u64;
        let assoc = self.cfg.associativity;

        let templates_apply = self.set_mask != 0
            && entries.iter().all(|&(base, _)| base % sets == 0)
            && entries.iter().enumerate().all(|(i, &(base, hot))| {
                entries.iter().skip(i + 1).all(|&(b2, h2)| base + hot <= b2 || b2 + h2 <= base)
            });
        if !templates_apply {
            self.reset();
            for offset in 0..entries.iter().map(|&(_, hot)| hot).max().unwrap_or(0) {
                for &(base, hot) in entries {
                    if offset < hot {
                        self.access(base + offset, false);
                    }
                }
            }
            return;
        }

        let total: u64 = entries.iter().map(|&(_, hot)| hot).sum();
        let mut cuts: Vec<u64> = entries.iter().map(|&(_, hot)| hot % sets).chain([0, sets]).collect();
        cuts.sort_unstable();
        cuts.dedup();
        // Arrivals per entry in the current interval, and its template: per
        // way the tag word and the (1-based) index of the arrival that left
        // it, 0 for a way no arrival reaches, which stays empty (all zero).
        let mut rounds = vec![0u64; entries.len()];
        let (mut words, mut arrival) = (vec![0u64; assoc], vec![0u64; assoc]);
        for span in cuts.windows(2) {
            let (lo, hi) = (span[0], span[1]);
            for (k, &(_, hot)) in rounds.iter_mut().zip(entries) {
                *k = hot / sets + u64::from(lo < hot % sets);
            }
            // Walk the arrivals backwards from the last one until every way
            // holds its survivor: the m-th arrival (1-based) fills way
            // (m - 1) % assoc, and the first `overwritten` ones do not last.
            let arrivals: u64 = rounds.iter().sum();
            let overwritten = arrivals.saturating_sub(assoc as u64);
            words.fill(0);
            arrival.fill(0);
            let mut m = arrivals;
            let mut r = rounds.iter().copied().max().unwrap_or(0);
            while m > overwritten {
                r -= 1;
                for &(base, _) in entries.iter().zip(&rounds).rev().filter(|&(_, &k)| r < k).map(|(e, _)| e) {
                    if m > overwritten {
                        let way = ((m - 1) % assoc as u64) as usize;
                        words[way] = Self::tag_word((base >> self.set_shift) + r);
                        arrival[way] = m;
                    }
                    m -= 1;
                }
            }
            // Most recent arrival first; the stable sort keeps unreached
            // ways at the LRU end in index order, as a reset cache has them.
            let mut ways: Vec<usize> = (0..assoc).collect();
            ways.sort_by_key(|&way| std::cmp::Reverse(arrival[way]));
            let order = ways.iter().rev().fold(0, |order, &way| order << 4 | way as u64);
            self.tags[lo as usize * assoc..hi as usize * assoc]
                .chunks_exact_mut(assoc)
                .for_each(|tags| tags.copy_from_slice(&words));
            self.order[lo as usize..hi as usize].fill(order);
        }
        self.stats = CacheStats { accesses: total, misses: total, writebacks: 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::rng::SmallRng;

    fn small_cache() -> SetAssocCache {
        // 64 lines, 4-way, 16 sets.
        SetAssocCache::new(CacheConfig { capacity_bytes: 64 * 64, associativity: 4, line_bytes: 64 })
    }

    #[test]
    fn config_geometry_is_consistent() {
        let cfg = CacheConfig { capacity_bytes: 4 * 1024 * 1024, associativity: 8, line_bytes: 64 };
        cfg.validate().unwrap();
        assert_eq!(cfg.sets(), 8192);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(CacheConfig { capacity_bytes: 0, associativity: 8, line_bytes: 64 }.validate().is_err());
        assert!(CacheConfig { capacity_bytes: 1000, associativity: 8, line_bytes: 64 }.validate().is_err());
    }

    #[test]
    fn more_ways_than_a_recency_word_holds_are_rejected() {
        let ways = |associativity| CacheConfig { capacity_bytes: 64 * 64, associativity, line_bytes: 64 };
        assert!(ways(MAX_WAYS).validate().is_ok());
        let err = ways(MAX_WAYS + 1).validate().unwrap_err();
        assert!(err.contains("exceeds the 16 ways"), "{err}");
    }

    /// Reference LRU kept with clock stamps: a last-use stamp per way,
    /// invalid ways filled lowest index first, else the way with the
    /// smallest stamp evicted.
    struct StampLru {
        sets: u64,
        assoc: usize,
        /// Per way: the tag and dirty bit of a valid line.
        lines: Vec<Option<(u64, bool)>>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl StampLru {
        fn new(cfg: CacheConfig) -> Self {
            let (sets, assoc) = (cfg.sets(), cfg.associativity);
            StampLru {
                sets: sets as u64,
                assoc,
                lines: vec![None; sets * assoc],
                stamps: vec![0; sets * assoc],
                clock: 0,
            }
        }

        fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
            self.clock += 1;
            let (set, tag) = ((line % self.sets) as usize, line / self.sets);
            let ways = set * self.assoc..(set + 1) * self.assoc;
            if let Some(w) = ways.clone().find(|&w| self.lines[w].is_some_and(|(t, _)| t == tag)) {
                self.lines[w] = Some((tag, self.lines[w].is_some_and(|(_, d)| d) || is_write));
                self.stamps[w] = self.clock;
                return AccessOutcome::Hit;
            }
            let victim = ways
                .clone()
                .find(|&w| self.lines[w].is_none())
                .unwrap_or_else(|| ways.min_by_key(|&w| self.stamps[w]).expect("a set has at least one way"));
            let writeback = match self.lines[victim] {
                Some((old, true)) => Some(old * self.sets + set as u64),
                _ => None,
            };
            self.lines[victim] = Some((tag, is_write));
            self.stamps[victim] = self.clock;
            AccessOutcome::Miss { writeback }
        }

        fn flush(&mut self) {
            self.lines.fill(None);
            self.stamps.fill(0);
        }

        fn resident_lines(&self) -> usize {
            self.lines.iter().filter(|l| l.is_some()).count()
        }
    }

    #[test]
    fn recency_words_evict_exactly_like_stamp_lru() {
        // 1- to 16-way caches of power-of-two and odd set counts, seeded
        // random reads and writes over about twice the capacity (hits, clean
        // and dirty evictions) and the odd flush.
        let mut rng = SmallRng::seed_from_u64(0x1E0C_4A5E);
        for assoc in 1..=MAX_WAYS {
            for sets in [1u64, 3, 8, 64] {
                let cfg =
                    CacheConfig { capacity_bytes: sets * assoc as u64 * 64, associativity: assoc, line_bytes: 64 };
                let (mut cache, mut reference) = (SetAssocCache::new(cfg), StampLru::new(cfg));
                let span = 2 * sets * assoc as u64 + 1;
                for step in 0..3_000 {
                    if rng.gen_range(0..500u64) == 0 {
                        cache.flush();
                        reference.flush();
                    }
                    let (line, is_write) = (rng.gen_range(0..span), rng.gen_bool(0.3));
                    let (got, want) = (cache.access(line, is_write), reference.access(line, is_write));
                    assert_eq!(got, want, "{assoc}-way, {sets} sets, step {step}: line {line}");
                    assert_eq!(
                        cache.resident_lines(),
                        reference.resident_lines(),
                        "{assoc}-way, {sets} sets, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(42, false).is_hit());
        assert!(c.access(42, false).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn working_set_larger_than_cache_always_misses_on_second_pass_with_lru() {
        let mut c = small_cache(); // 64 lines capacity
                                   // Stream 128 distinct lines twice; LRU means nothing survives.
        for _pass in 0..2 {
            for line in 0..128u64 {
                c.access(line, false);
            }
        }
        assert_eq!(c.stats().misses, 256);
    }

    #[test]
    fn working_set_smaller_than_cache_hits_on_second_pass() {
        let mut c = small_cache();
        for line in 0..32u64 {
            c.access(line, false);
        }
        let misses_after_first = c.stats().misses;
        for line in 0..32u64 {
            assert!(c.access(line, false).is_hit());
        }
        assert_eq!(c.stats().misses, misses_after_first);
    }

    #[test]
    fn dirty_eviction_produces_writeback_of_correct_line() {
        // Direct-mapped single-set cache of 1 way to force eviction.
        let mut c = SetAssocCache::new(CacheConfig { capacity_bytes: 64, associativity: 1, line_bytes: 64 });
        c.access(5, true);
        match c.access(6, false) {
            AccessOutcome::Miss { writeback: Some(line) } => assert_eq!(line, 5),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = SetAssocCache::new(CacheConfig { capacity_bytes: 64, associativity: 1, line_bytes: 64 });
        c.access(5, false);
        match c.access(6, false) {
            AccessOutcome::Miss { writeback } => assert!(writeback.is_none()),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        // 2-way, 1 set.
        let mut c = SetAssocCache::new(CacheConfig { capacity_bytes: 128, associativity: 2, line_bytes: 64 });
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // 0 is now MRU
        c.access(2, false); // evicts 1
        assert!(c.access(0, false).is_hit(), "MRU line must survive");
        assert!(!c.access(1, false).is_hit(), "LRU line must have been evicted");
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut c = small_cache();
        for line in 0..32u64 {
            c.access(line, true);
        }
        assert!(c.resident_lines() > 0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0, false).is_hit());
    }

    /// Literal prefill loop the closed form must reproduce exactly.
    fn loop_warm_fill(cache: &mut SetAssocCache, entries: &[(u64, u64)]) {
        for offset in 0..entries.iter().map(|&(_, hot)| hot).max().unwrap_or(0) {
            for &(base, hot) in entries {
                if offset < hot {
                    cache.access(base + offset, false);
                }
            }
        }
    }

    #[test]
    fn closed_form_warm_fill_matches_access_loop_exactly() {
        // Sweep geometries around the interesting boundaries: fewer arrivals
        // than ways, exactly full sets, and many-times-overwritten sets, with
        // unequal per-entry hot sizes (the rotation-averaged case).
        let geometries = [
            (64 * 64u64, 4usize), // 16 sets, 4-way
            (64 * 64, 8),         // 8 sets, 8-way
            (4 * 1024 * 1024, 8), // the paper L2
        ];
        let hot_sets: &[&[u64]] = &[
            &[3],
            &[1, 1, 1, 1],
            &[40, 17],
            &[8192, 16384, 12800, 40960], // W1 hot regions
            &[5, 100, 33, 7],
        ];
        for &(capacity, assoc) in &geometries {
            let cfg = CacheConfig { capacity_bytes: capacity, associativity: assoc, line_bytes: 64 };
            for hots in hot_sets {
                let entries: Vec<(u64, u64)> =
                    hots.iter().enumerate().map(|(i, &h)| (((i as u64) + 1) << 34, h)).collect();
                let mut direct = SetAssocCache::new(cfg);
                direct.warm_fill_round_robin(&entries);
                let mut looped = SetAssocCache::new(cfg);
                loop_warm_fill(&mut looped, &entries);
                assert_eq!(direct, looped, "cfg {cfg:?} hots {hots:?}");
            }
        }
    }

    /// A prefill hot size relative to the set count: below it, equal to
    /// it, a multiple of it, or a multiple plus a remainder.
    fn hot_size(rng: &mut SmallRng, sets: u64) -> u64 {
        match rng.gen_range(0..4u64) {
            0 => rng.gen_range(1..sets.max(2)),
            1 => sets,
            2 => sets * rng.gen_range(1..5u64),
            _ => sets * rng.gen_range(1..4u64) + rng.gen_range(0..sets),
        }
    }

    #[test]
    fn template_fill_matches_literal_prefill_on_seeded_geometries() {
        // Set counts 1..=8192 (powers of two, so the templates apply), 1- to
        // 16-way, 1-4 entries of unequal hot sizes at random set-aligned
        // bases, each cache dirtied before the fill, which must define its
        // whole state. Odd cases split the entries over two caches the way
        // the dual-socket servers interleave cores (0, 2 | 1, 3).
        let mut rng = SmallRng::seed_from_u64(0x7E4D_F111);
        for log_sets in 0..=13 {
            let sets = 1u64 << log_sets;
            for case in 0..6 {
                let assoc = 1usize << rng.gen_range(0..5u64);
                let cfg =
                    CacheConfig { capacity_bytes: sets * assoc as u64 * 64, associativity: assoc, line_bytes: 64 };
                let cores = rng.gen_range(1..5u64) as usize;
                let entries: Vec<(u64, u64)> = (0..cores as u64)
                    .map(|i| (((i + 1) << 34) + sets * rng.gen_range(0..1 << 16), hot_size(&mut rng, sets)))
                    .collect();
                let l2s = 1 + case % 2;
                for l2 in 0..l2s {
                    let mine: Vec<(u64, u64)> =
                        entries.iter().enumerate().filter(|(i, _)| i % l2s == l2).map(|(_, &e)| e).collect();
                    let mut filled = SetAssocCache::new(cfg);
                    for _ in 0..rng.gen_range(0..200u64) {
                        filled.access(rng.gen_range(0..1 << 20), rng.gen_bool(0.5));
                    }
                    filled.warm_fill_round_robin(&mine);
                    let mut looped = SetAssocCache::new(cfg);
                    loop_warm_fill(&mut looped, &mine);
                    assert_eq!(filled, looped, "sets {sets}, {assoc}-way, case {case}, entries {mine:?}");
                }
            }
        }
    }

    #[test]
    fn warm_fill_fully_overwrites_a_dirty_cache() {
        // The fill defines the complete state, so filling a cache full of
        // unrelated dirty lines must equal filling a fresh one.
        let cfg = CacheConfig { capacity_bytes: 64 * 64, associativity: 4, line_bytes: 64 };
        let entries = [((1u64) << 34, 40u64), ((2u64) << 34, 7)];
        let mut fresh = SetAssocCache::new(cfg);
        fresh.warm_fill_round_robin(&entries);
        let mut dirty = SetAssocCache::new(cfg);
        for line in 0..500u64 {
            dirty.access(line * 3, true);
        }
        dirty.warm_fill_round_robin(&entries);
        assert_eq!(fresh, dirty);
        // Same contract on the fallback (unaligned) path.
        let unaligned = [(3u64, 40u64), (1 << 20, 17)];
        let mut fresh = SetAssocCache::new(cfg);
        fresh.warm_fill_round_robin(&unaligned);
        let mut dirty = SetAssocCache::new(cfg);
        for line in 0..500u64 {
            dirty.access(line * 3, true);
        }
        dirty.warm_fill_round_robin(&unaligned);
        assert_eq!(fresh, dirty);
    }

    #[test]
    fn warm_fill_falls_back_for_unaligned_bases() {
        // A base that is not a multiple of the set count forces the literal
        // loop; the result must still match it (trivially, by being it).
        let cfg = CacheConfig { capacity_bytes: 64 * 64, associativity: 4, line_bytes: 64 };
        let entries = [(3u64, 40u64), (1 << 20, 17)];
        let mut direct = SetAssocCache::new(cfg);
        direct.warm_fill_round_robin(&entries);
        let mut looped = SetAssocCache::new(cfg);
        loop_warm_fill(&mut looped, &entries);
        assert_eq!(direct, looped);
    }

    #[test]
    #[should_panic(expected = "does not fit a tag word")]
    fn line_too_wide_for_the_tag_word_panics() {
        let mut c = SetAssocCache::new(CacheConfig { capacity_bytes: 64, associativity: 1, line_bytes: 64 });
        c.access(1 << 62, false);
    }

    #[test]
    fn miss_rate_is_fraction_of_accesses() {
        let mut c = small_cache();
        c.access(1, false);
        c.access(1, false);
        c.access(2, false);
        c.access(2, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
    }
}
