//! Traffic and latency statistics.
//!
//! The second-level thermal simulator consumes memory traffic in fixed
//! windows (10 ms in the paper). [`MemoryStats`] accumulates raw byte and
//! latency counters and can be snapshotted into a [`TrafficWindow`], which
//! reports the throughput quantities the power model needs: read/write
//! throughput of the subsystem and, per DIMM, the local/bypass split seen by
//! each AMB.

use crate::amb::AmbNetwork;
use crate::config::FbdimmConfig;
use crate::time::{bandwidth_gbps, Picos};
use crate::types::RequestKind;

/// Per-DIMM-position traffic over a window, in GB/s, normalized to one
/// *physical* DIMM (the simulator models ganged physical channels as one
/// logical position; the power model wants per-physical-DIMM numbers).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DimmTraffic {
    /// Logical channel index.
    pub channel: usize,
    /// DIMM position along the chain (0 = closest to controller).
    pub dimm: usize,
    /// Local (served-here) throughput in GB/s per physical DIMM.
    pub local_gbps: f64,
    /// Bypass (forwarded) throughput in GB/s per physical DIMM.
    pub bypass_gbps: f64,
    /// Read throughput fraction of the local traffic (0..=1).
    pub read_fraction: f64,
}

/// Per-logical-channel aggregate traffic over a window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelTraffic {
    /// Logical channel index.
    pub channel: usize,
    /// Read throughput in GB/s.
    pub read_gbps: f64,
    /// Write throughput in GB/s.
    pub write_gbps: f64,
}

/// A snapshot of memory traffic over one accounting window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficWindow {
    /// Window length in picoseconds.
    pub window_ps: Picos,
    /// Subsystem-wide read throughput, GB/s.
    pub read_gbps: f64,
    /// Subsystem-wide write throughput, GB/s.
    pub write_gbps: f64,
    /// Number of read transactions completed in the window.
    pub reads: u64,
    /// Number of write transactions completed in the window.
    pub writes: u64,
    /// Row activations performed in the window.
    pub activations: u64,
    /// Mean read latency (arrival to last data beat) in nanoseconds, or 0 if
    /// no reads completed.
    pub mean_read_latency_ns: f64,
    /// Per-channel traffic.
    pub channels: Vec<ChannelTraffic>,
    /// Per-DIMM-position traffic (local/bypass split for the AMB power
    /// model).
    pub dimms: Vec<DimmTraffic>,
}

impl TrafficWindow {
    /// Total throughput (read + write) in GB/s.
    pub fn total_gbps(&self) -> f64 {
        self.read_gbps + self.write_gbps
    }

    /// Traffic of the hottest DIMM position — the one with the highest
    /// local + bypass throughput — which the thermal model uses as the
    /// representative (worst-case) DIMM.
    pub fn hottest_dimm(&self) -> Option<&DimmTraffic> {
        self.dimms.iter().max_by(|a, b| {
            (a.local_gbps + a.bypass_gbps)
                .partial_cmp(&(b.local_gbps + b.bypass_gbps))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

/// Accumulating statistics for the memory subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryStats {
    cfg: FbdimmConfig,
    window_start: Picos,
    read_bytes: u64,
    write_bytes: u64,
    reads: u64,
    writes: u64,
    activations: u64,
    read_latency_sum_ps: u128,
    read_latency_count: u64,
    per_channel_read_bytes: Vec<u64>,
    per_channel_write_bytes: Vec<u64>,
    amb: AmbNetwork,
    // Lifetime totals (not reset by window snapshots).
    total_read_bytes: u64,
    total_write_bytes: u64,
    total_activations: u64,
}

impl MemoryStats {
    /// Creates empty statistics for a configuration.
    pub fn new(cfg: &FbdimmConfig) -> Self {
        MemoryStats {
            cfg: *cfg,
            window_start: 0,
            read_bytes: 0,
            write_bytes: 0,
            reads: 0,
            writes: 0,
            activations: 0,
            read_latency_sum_ps: 0,
            read_latency_count: 0,
            per_channel_read_bytes: vec![0; cfg.logical_channels],
            per_channel_write_bytes: vec![0; cfg.logical_channels],
            amb: AmbNetwork::new(cfg),
            total_read_bytes: 0,
            total_write_bytes: 0,
            total_activations: 0,
        }
    }

    /// Records one completed transaction. The AMB network keeps only its
    /// local traffic; the bypass of the positions it passed is derived when
    /// a window is taken.
    pub fn record(&mut self, channel: usize, dimm: usize, kind: RequestKind, bytes: u64, latency_ps: Picos) {
        self.activations += 1;
        self.total_activations += 1;
        match kind {
            RequestKind::Read => {
                self.read_bytes += bytes;
                self.total_read_bytes += bytes;
                self.reads += 1;
                self.per_channel_read_bytes[channel] += bytes;
                self.read_latency_sum_ps += latency_ps as u128;
                self.read_latency_count += 1;
            }
            RequestKind::Write => {
                self.write_bytes += bytes;
                self.total_write_bytes += bytes;
                self.writes += 1;
                self.per_channel_write_bytes[channel] += bytes;
            }
        }
        self.amb.record_transaction(channel, dimm, kind, bytes);
    }

    /// Lifetime read bytes (never reset).
    pub fn total_read_bytes(&self) -> u64 {
        self.total_read_bytes
    }

    /// Lifetime write bytes (never reset).
    pub fn total_write_bytes(&self) -> u64 {
        self.total_write_bytes
    }

    /// Lifetime activations (never reset).
    pub fn total_activations(&self) -> u64 {
        self.total_activations
    }

    /// Takes a window snapshot covering `[window_start, now_ps]` and resets
    /// the window accumulators (lifetime totals are preserved).
    pub fn take_window(&mut self, now_ps: Picos) -> TrafficWindow {
        let window_ps = now_ps.saturating_sub(self.window_start).max(1);
        let phys = self.cfg.phys_per_logical.max(1) as f64;

        let channels = (0..self.cfg.logical_channels)
            .map(|c| ChannelTraffic {
                channel: c,
                read_gbps: bandwidth_gbps(self.per_channel_read_bytes[c], window_ps),
                write_gbps: bandwidth_gbps(self.per_channel_write_bytes[c], window_ps),
            })
            .collect();

        let dimms = self
            .amb
            .iter()
            .map(|(channel, dimm, counters)| {
                let local = bandwidth_gbps(counters.local_bytes, window_ps) / phys;
                let bypass = bandwidth_gbps(counters.bypass_bytes, window_ps) / phys;
                let total_local = counters.local_reads + counters.local_writes;
                let read_fraction =
                    if total_local == 0 { 0.0 } else { counters.local_reads as f64 / total_local as f64 };
                DimmTraffic { channel, dimm, local_gbps: local, bypass_gbps: bypass, read_fraction }
            })
            .collect();

        let mean_read_latency_ns = if self.read_latency_count == 0 {
            0.0
        } else {
            self.read_latency_sum_ps as f64 / self.read_latency_count as f64 / 1_000.0
        };

        let window = TrafficWindow {
            window_ps,
            read_gbps: bandwidth_gbps(self.read_bytes, window_ps),
            write_gbps: bandwidth_gbps(self.write_bytes, window_ps),
            reads: self.reads,
            writes: self.writes,
            activations: self.activations,
            mean_read_latency_ns,
            channels,
            dimms,
        };

        // Reset window accumulators.
        self.window_start = now_ps;
        self.read_bytes = 0;
        self.write_bytes = 0;
        self.reads = 0;
        self.writes = 0;
        self.activations = 0;
        self.read_latency_sum_ps = 0;
        self.read_latency_count = 0;
        self.per_channel_read_bytes.iter_mut().for_each(|b| *b = 0);
        self.per_channel_write_bytes.iter_mut().for_each(|b| *b = 0);
        self.amb.reset();

        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::PS_PER_MS;

    fn cfg() -> FbdimmConfig {
        FbdimmConfig::ddr2_667_paper()
    }

    #[test]
    fn throughput_is_bytes_over_window() {
        let cfg = cfg();
        let mut stats = MemoryStats::new(&cfg);
        // 1 MB of reads over 1 ms = 1 GB/s.
        let lines = (1_000_000 / cfg.line_bytes) as usize;
        for i in 0..lines {
            stats.record(i % 2, 0, RequestKind::Read, cfg.line_bytes, 100_000);
        }
        let w = stats.take_window(PS_PER_MS);
        assert!((w.read_gbps - 1.0).abs() < 0.01, "read_gbps = {}", w.read_gbps);
        assert_eq!(w.write_gbps, 0.0);
        assert_eq!(w.reads as usize, lines);
    }

    #[test]
    fn window_reset_preserves_lifetime_totals() {
        let cfg = cfg();
        let mut stats = MemoryStats::new(&cfg);
        stats.record(0, 0, RequestKind::Read, 64, 1_000);
        stats.record(0, 0, RequestKind::Write, 64, 0);
        let _ = stats.take_window(PS_PER_MS);
        let w2 = stats.take_window(2 * PS_PER_MS);
        assert_eq!(w2.reads, 0);
        assert_eq!(w2.writes, 0);
        assert_eq!(stats.total_read_bytes(), 64);
        assert_eq!(stats.total_write_bytes(), 64);
        assert_eq!(stats.total_activations(), 2);
    }

    #[test]
    fn per_dimm_split_reaches_window() {
        let cfg = cfg();
        let mut stats = MemoryStats::new(&cfg);
        // Traffic to the farthest DIMM creates bypass on closer ones.
        for _ in 0..1_000 {
            stats.record(0, 3, RequestKind::Read, 64, 50_000);
        }
        let w = stats.take_window(PS_PER_MS);
        let d0 = w.dimms.iter().find(|d| d.channel == 0 && d.dimm == 0).unwrap();
        let d3 = w.dimms.iter().find(|d| d.channel == 0 && d.dimm == 3).unwrap();
        assert!(d0.bypass_gbps > 0.0);
        assert_eq!(d0.local_gbps, 0.0);
        assert!(d3.local_gbps > 0.0);
        assert_eq!(d3.bypass_gbps, 0.0);
        assert_eq!(d3.read_fraction, 1.0);
        let hottest = w.hottest_dimm().unwrap();
        assert_eq!((hottest.channel, hottest.dimm), (0, 3));
    }

    #[test]
    fn mean_read_latency_is_averaged_in_ns() {
        let cfg = cfg();
        let mut stats = MemoryStats::new(&cfg);
        stats.record(0, 0, RequestKind::Read, 64, 100_000); // 100 ns
        stats.record(0, 0, RequestKind::Read, 64, 300_000); // 300 ns
        let w = stats.take_window(PS_PER_MS);
        assert!((w.mean_read_latency_ns - 200.0).abs() < 1e-9);
    }

    #[test]
    fn total_gbps_sums_read_and_write() {
        let w = TrafficWindow { read_gbps: 3.0, write_gbps: 1.5, ..TrafficWindow::default() };
        assert!((w.total_gbps() - 4.5).abs() < 1e-12);
    }
}
