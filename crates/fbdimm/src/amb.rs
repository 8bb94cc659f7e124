//! Advanced Memory Buffer (AMB) model.
//!
//! The AMB power model of the paper (Equation 3.2) distinguishes between
//! *local* traffic — requests served by the DIMM the AMB belongs to — and
//! *bypass* traffic — requests the AMB merely forwards along the daisy
//! chain. This module tracks that split per DIMM position, and computes the
//! AMB transport latency contribution to a memory transaction (the source of
//! variable read latency in FBDIMM).
//!
//! A transaction is recorded once, as local traffic of its destination.
//! Every AMB between the controller and the destination forwards it, so a
//! position's bypass bytes are exactly the local bytes of the positions
//! farther down its chain; [`AmbNetwork`] derives them as that suffix sum
//! when its counters are read, instead of walking the chain per transaction.

use crate::config::FbdimmConfig;
use crate::time::Picos;
use crate::types::RequestKind;

/// Traffic accumulated by a single AMB (one DIMM position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AmbCounters {
    /// Bytes of requests whose destination is this DIMM.
    pub local_bytes: u64,
    /// Bytes of requests this AMB forwarded to DIMMs farther down the chain
    /// (derived by [`AmbNetwork`] from their local bytes).
    pub bypass_bytes: u64,
    /// Local read transactions.
    pub local_reads: u64,
    /// Local write transactions.
    pub local_writes: u64,
}

impl AmbCounters {
    /// Adds a local transaction of `bytes` bytes.
    pub fn record_local(&mut self, kind: RequestKind, bytes: u64) {
        self.local_bytes += bytes;
        match kind {
            RequestKind::Read => self.local_reads += 1,
            RequestKind::Write => self.local_writes += 1,
        }
    }
}

/// Per-position AMB traffic accounting for the whole memory subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmbNetwork {
    /// Local traffic per position; `bypass_bytes` stays 0 here and is
    /// derived when read.
    counters: Vec<AmbCounters>,
    dimms_per_channel: usize,
}

impl AmbNetwork {
    /// Creates accounting state for the given configuration.
    pub fn new(cfg: &FbdimmConfig) -> Self {
        AmbNetwork {
            counters: vec![AmbCounters::default(); cfg.dimm_positions()],
            dimms_per_channel: cfg.dimms_per_channel,
        }
    }

    /// Flat position index of (channel, dimm).
    pub fn position(&self, channel: usize, dimm: usize) -> usize {
        channel * self.dimms_per_channel + dimm
    }

    /// Records a transaction destined for `(channel, dimm)` as local traffic
    /// of the destination AMB. Every AMB between the controller and the
    /// destination bypasses it; the counters derive that on read.
    ///
    /// Bypass traffic is counted for both reads and writes: a read's return
    /// data traverses the same intermediate AMBs northbound as its command
    /// did southbound, and the paper's model charges each bypassed request
    /// once (Section 3.3).
    pub fn record_transaction(&mut self, channel: usize, dimm: usize, kind: RequestKind, bytes: u64) {
        let idx = self.position(channel, dimm);
        self.counters[idx].record_local(kind, bytes);
    }

    /// Counters for a position, its bypass bytes included.
    pub fn counters(&self, channel: usize, dimm: usize) -> AmbCounters {
        self.at(self.position(channel, dimm))
    }

    /// Iterates over all positions as `(channel, dimm, counters)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, AmbCounters)> + '_ {
        let dpc = self.dimms_per_channel;
        (0..self.counters.len()).map(move |i| (i / dpc, i % dpc, self.at(i)))
    }

    /// Counters of flat position `idx`, with its bypass bytes summed from
    /// the local bytes of the positions farther down its chain.
    fn at(&self, idx: usize) -> AmbCounters {
        let chain_end = (idx / self.dimms_per_channel + 1) * self.dimms_per_channel;
        let bypass_bytes = self.counters[idx + 1..chain_end].iter().map(|c| c.local_bytes).sum();
        AmbCounters { bypass_bytes, ..self.counters[idx] }
    }

    /// Resets all counters (used when taking a traffic window snapshot).
    pub fn reset(&mut self) {
        for c in &mut self.counters {
            *c = AmbCounters::default();
        }
    }

    /// Number of positions tracked.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the network tracks no positions.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// Southbound transport latency from the controller to DIMM position `dimm`
/// (0-indexed): one AMB hop per DIMM traversed plus the destination AMB's
/// translation latency.
pub fn southbound_latency(cfg: &FbdimmConfig, dimm: usize) -> Picos {
    cfg.amb_hop_latency * (dimm as u64 + 1) + cfg.amb_local_latency
}

/// Northbound transport latency from DIMM position `dimm` back to the
/// controller. When variable read latency is disabled, every DIMM pays the
/// latency of the farthest DIMM in the chain.
pub fn northbound_latency(cfg: &FbdimmConfig, dimm: usize) -> Picos {
    let effective = if cfg.variable_read_latency { dimm } else { cfg.dimms_per_channel - 1 };
    cfg.amb_hop_latency * (effective as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FbdimmConfig;

    fn cfg() -> FbdimmConfig {
        FbdimmConfig::ddr2_667_paper()
    }

    #[test]
    fn local_and_bypass_split() {
        let cfg = cfg();
        let mut net = AmbNetwork::new(&cfg);
        // A read to DIMM 2 on channel 0 bypasses DIMMs 0 and 1.
        net.record_transaction(0, 2, RequestKind::Read, 64);
        assert_eq!(net.counters(0, 2).local_bytes, 64);
        assert_eq!(net.counters(0, 2).local_reads, 1);
        assert_eq!(net.counters(0, 0).bypass_bytes, 64);
        assert_eq!(net.counters(0, 1).bypass_bytes, 64);
        assert_eq!(net.counters(0, 3).bypass_bytes, 0);
        // Other channel unaffected.
        assert_eq!(net.counters(1, 0).bypass_bytes, 0);
    }

    #[test]
    fn first_dimm_never_sees_bypass_from_itself() {
        let cfg = cfg();
        let mut net = AmbNetwork::new(&cfg);
        net.record_transaction(0, 0, RequestKind::Write, 64);
        assert_eq!(net.counters(0, 0).local_bytes, 64);
        assert_eq!(net.counters(0, 0).bypass_bytes, 0);
        assert_eq!(net.counters(0, 0).local_writes, 1);
    }

    #[test]
    fn closest_dimm_carries_most_bypass_under_uniform_traffic() {
        let cfg = cfg();
        let mut net = AmbNetwork::new(&cfg);
        for dimm in 0..cfg.dimms_per_channel {
            net.record_transaction(0, dimm, RequestKind::Read, 64);
        }
        let b0 = net.counters(0, 0).bypass_bytes;
        let b_last = net.counters(0, cfg.dimms_per_channel - 1).bypass_bytes;
        assert!(b0 > b_last);
        assert_eq!(b_last, 0);
    }

    #[test]
    fn reset_clears_all_counters() {
        let cfg = cfg();
        let mut net = AmbNetwork::new(&cfg);
        net.record_transaction(1, 3, RequestKind::Read, 64);
        net.reset();
        assert!(net.iter().all(|(_, _, c)| c.local_bytes == 0 && c.bypass_bytes == 0));
        assert_eq!(net.len(), cfg.dimm_positions());
        assert!(!net.is_empty());
    }

    #[test]
    fn derived_bypass_matches_a_per_transaction_chain_walk() {
        use workloads::rng::SmallRng;
        for (seed, cfg) in [cfg(), FbdimmConfig::server(2), FbdimmConfig::server(4)].into_iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(seed as u64);
            let mut net = AmbNetwork::new(&cfg);
            // The accounting the derivation replaced: every upstream AMB
            // adds the bytes of each transaction to its bypass counter.
            let mut walked = vec![AmbCounters::default(); cfg.dimm_positions()];
            for i in 0..5_000 {
                let channel = rng.gen_range(0..cfg.logical_channels as u64) as usize;
                let dimm = rng.gen_range(0..cfg.dimms_per_channel as u64) as usize;
                let kind = if rng.gen_bool(0.3) { RequestKind::Write } else { RequestKind::Read };
                let bytes = 1 + rng.gen_range(0..256);
                net.record_transaction(channel, dimm, kind, bytes);
                for upstream in 0..dimm {
                    walked[net.position(channel, upstream)].bypass_bytes += bytes;
                }
                walked[net.position(channel, dimm)].record_local(kind, bytes);
                // Read mid-window, through both accessors.
                if i % 97 == 0 {
                    for (c, d, counters) in net.iter() {
                        assert_eq!(counters, walked[net.position(c, d)]);
                        assert_eq!(net.counters(c, d), counters);
                    }
                }
                if i % 1_000 == 999 {
                    net.reset();
                    walked.fill(AmbCounters::default());
                }
            }
        }
    }

    #[test]
    fn variable_read_latency_grows_with_distance() {
        let cfg = cfg();
        assert!(northbound_latency(&cfg, 3) > northbound_latency(&cfg, 0));
        assert!(southbound_latency(&cfg, 3) > southbound_latency(&cfg, 0));
    }

    #[test]
    fn fixed_read_latency_equals_farthest_dimm() {
        let mut cfg = cfg();
        cfg.variable_read_latency = false;
        let far = northbound_latency(&cfg, cfg.dimms_per_channel - 1);
        for dimm in 0..cfg.dimms_per_channel {
            assert_eq!(northbound_latency(&cfg, dimm), far);
        }
    }
}
