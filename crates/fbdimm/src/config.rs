//! Configuration of the FBDIMM memory subsystem.
//!
//! The default configuration ([`FbdimmConfig::ddr2_667_paper`]) reproduces
//! Table 4.1 of the paper: two logical (four physical) FBDIMM channels, four
//! DIMMs per physical channel, eight banks per DIMM, DDR2-667 devices with
//! 5-5-5 timing and a 64-entry controller queue with 12 ns overhead.

use crate::time::{ps_from_ns, Picos};

/// DDR2 device timing parameters, in picoseconds.
///
/// The names follow the usual JEDEC mnemonics; the values of the default
/// constructor are the DDR2-667 5-5-5 parameters listed in Table 4.1 of the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimings {
    /// Activate-to-read delay (`tRCD`).
    pub t_rcd: Picos,
    /// Read-to-data-valid delay (CAS latency, `tCL`).
    pub t_cl: Picos,
    /// Precharge-to-activate delay (`tRP`).
    pub t_rp: Picos,
    /// Activate-to-precharge minimum (`tRAS`).
    pub t_ras: Picos,
    /// Activate-to-activate minimum for the same bank (`tRC`).
    pub t_rc: Picos,
    /// Write-to-read turnaround (`tWTR`).
    pub t_wtr: Picos,
    /// Write latency (`tWL`).
    pub t_wl: Picos,
    /// Write-to-precharge delay (`tWPD`).
    pub t_wpd: Picos,
    /// Read-to-precharge delay (`tRPD`).
    pub t_rpd: Picos,
    /// Activate-to-activate minimum across banks of a DIMM (`tRRD`).
    pub t_rrd: Picos,
    /// Data burst duration for one 64-byte line transfer on the DDR2 bus.
    pub t_burst: Picos,
}

impl DramTimings {
    /// DDR2-667 (5-5-5) timings from Table 4.1.
    pub fn ddr2_667() -> Self {
        DramTimings {
            t_rcd: ps_from_ns(15.0),
            t_cl: ps_from_ns(15.0),
            t_rp: ps_from_ns(15.0),
            t_ras: ps_from_ns(39.0),
            t_rc: ps_from_ns(54.0),
            t_wtr: ps_from_ns(9.0),
            t_wl: ps_from_ns(12.0),
            t_wpd: ps_from_ns(36.0),
            t_rpd: ps_from_ns(9.0),
            t_rrd: ps_from_ns(9.0),
            // Burst length 4 at 667 MT/s moves 32 bytes per physical channel;
            // the 64-byte line is striped over the two ganged physical
            // channels, so the burst occupies 4 beats = 6 ns of DRAM bus time.
            t_burst: ps_from_ns(6.0),
        }
    }

    /// Read latency from activation to the last data beat at the DRAM pins
    /// (excluding channel/AMB transport): `tRCD + tCL + tBURST`.
    pub fn read_core_latency(&self) -> Picos {
        self.t_rcd + self.t_cl + self.t_burst
    }

    /// Time a bank remains unavailable after a close-page read with
    /// auto-precharge.
    pub fn read_bank_occupancy(&self) -> Picos {
        // The bank can be activated again after tRC, but the precharge that
        // follows the read must also respect tRAS + tRP.
        self.t_rc.max(self.t_ras + self.t_rp)
    }

    /// Time a bank remains unavailable after a close-page write with
    /// auto-precharge.
    pub fn write_bank_occupancy(&self) -> Picos {
        // Activate -> write command (tRCD) -> data (tWL + burst) -> write
        // recovery to precharge (tWPD) -> precharge (tRP).
        (self.t_rcd + self.t_wl + self.t_burst + self.t_wpd + self.t_rp).max(self.t_rc)
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        Self::ddr2_667()
    }
}

/// Full configuration of the FBDIMM memory subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbdimmConfig {
    /// Number of logical channels (each logical channel gangs
    /// `phys_per_logical` physical FBDIMM channels that operate in lockstep).
    pub logical_channels: usize,
    /// Physical channels ganged into one logical channel.
    pub phys_per_logical: usize,
    /// DIMMs per physical channel (daisy-chain depth).
    pub dimms_per_channel: usize,
    /// DRAM banks per DIMM.
    pub banks_per_dimm: usize,
    /// Bytes moved by one memory transaction (an L2 line).
    pub line_bytes: u64,
    /// DDR2 device timings.
    pub timings: DramTimings,
    /// Peak northbound (read-return) bandwidth of one *physical* channel in
    /// bytes per second.
    pub northbound_bw_bytes_per_sec: f64,
    /// Peak southbound (command + write data) bandwidth of one *physical*
    /// channel in bytes per second.
    pub southbound_bw_bytes_per_sec: f64,
    /// AMB pass-through (forwarding) latency per daisy-chain hop.
    pub amb_hop_latency: Picos,
    /// Fixed latency of translating a request inside the destination AMB.
    pub amb_local_latency: Picos,
    /// Memory controller overhead added to every transaction.
    pub controller_overhead: Picos,
    /// Capacity of the controller transaction queue.
    pub queue_entries: usize,
    /// Whether variable read latency (VRL) is enabled. When disabled every
    /// DIMM observes the latency of the farthest DIMM in the chain.
    pub variable_read_latency: bool,
}

impl FbdimmConfig {
    /// The configuration used throughout the paper's simulation study
    /// (Table 4.1): 2 logical / 4 physical channels of DDR2-667 FBDIMM,
    /// 4 DIMMs per physical channel, 8 banks per DIMM, 64-entry controller
    /// queue with 12 ns overhead.
    pub fn ddr2_667_paper() -> Self {
        FbdimmConfig {
            logical_channels: 2,
            phys_per_logical: 2,
            dimms_per_channel: 4,
            banks_per_dimm: 8,
            line_bytes: 64,
            timings: DramTimings::ddr2_667(),
            // DDR2-667: 667 MT/s x 8 bytes = 5.333 GB/s read return per
            // physical channel; the southbound link carries 16 bytes of write
            // data per 3 ns DRAM cycle = 5.333 GB/s as well.
            northbound_bw_bytes_per_sec: 667.0e6 * 8.0,
            southbound_bw_bytes_per_sec: 667.0e6 * 8.0,
            amb_hop_latency: ps_from_ns(3.0),
            amb_local_latency: ps_from_ns(5.0),
            controller_overhead: ps_from_ns(12.0),
            queue_entries: 64,
            variable_read_latency: true,
        }
    }

    /// Configuration matching the Chapter 5 servers: two FBDIMM channels
    /// with `dimms` DIMMs in total (2 on the PE1950, 4 on the SR1500AL).
    pub fn server(dimms: usize) -> Self {
        let mut cfg = Self::ddr2_667_paper();
        cfg.logical_channels = 1;
        cfg.phys_per_logical = 2;
        cfg.dimms_per_channel = dimms.max(1);
        cfg
    }

    /// Total number of DIMM *positions* (logical channels × chain depth).
    /// Each position corresponds to `phys_per_logical` physical DIMMs.
    pub fn dimm_positions(&self) -> usize {
        self.logical_channels * self.dimms_per_channel
    }

    /// One all-zero [`DimmTraffic`](crate::stats::DimmTraffic) entry per
    /// DIMM position, in (channel-major, chain-position) order — the
    /// canonical traffic split of an idle (or shut-off) memory subsystem,
    /// shaped exactly like a live
    /// [`TrafficWindow::dimms`](crate::stats::TrafficWindow::dimms) so the
    /// power model can consume
    /// either without special cases.
    pub fn idle_dimm_traffic(&self) -> Vec<crate::stats::DimmTraffic> {
        (0..self.logical_channels)
            .flat_map(|c| (0..self.dimms_per_channel).map(move |d| (c, d)))
            .map(|(channel, dimm)| crate::stats::DimmTraffic { channel, dimm, ..Default::default() })
            .collect()
    }

    /// Total number of physical DIMMs in the subsystem.
    pub fn physical_dimms(&self) -> usize {
        self.dimm_positions() * self.phys_per_logical
    }

    /// Peak northbound (read) bandwidth of one logical channel, bytes/s.
    pub fn logical_northbound_bw(&self) -> f64 {
        self.northbound_bw_bytes_per_sec * self.phys_per_logical as f64
    }

    /// Peak southbound bandwidth of one logical channel, bytes/s.
    pub fn logical_southbound_bw(&self) -> f64 {
        self.southbound_bw_bytes_per_sec * self.phys_per_logical as f64
    }

    /// Aggregate peak read bandwidth of the whole subsystem in GB/s.
    pub fn peak_read_bandwidth_gbps(&self) -> f64 {
        self.logical_northbound_bw() * self.logical_channels as f64 / 1e9
    }

    /// Time the northbound link of a logical channel is occupied by one
    /// line's read-return data.
    pub fn northbound_occupancy(&self) -> Picos {
        let secs = self.line_bytes as f64 / self.logical_northbound_bw();
        (secs * 1e12).round() as Picos
    }

    /// Time the southbound link of a logical channel is occupied by one
    /// line's write data (plus its command).
    pub fn southbound_write_occupancy(&self) -> Picos {
        let secs = self.line_bytes as f64 / self.logical_southbound_bw();
        (secs * 1e12).round() as Picos
    }

    /// Time the southbound link is occupied by a read command frame.
    pub fn southbound_command_occupancy(&self) -> Picos {
        // Up to three commands share one 3 ns southbound frame.
        ps_from_ns(1.0)
    }

    /// Validates structural parameters, returning a human-readable error for
    /// nonsensical configurations.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any of the structural counts is zero or a bandwidth
    /// is not strictly positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.logical_channels == 0 {
            return Err("logical_channels must be at least 1".into());
        }
        if self.phys_per_logical == 0 {
            return Err("phys_per_logical must be at least 1".into());
        }
        if self.dimms_per_channel == 0 {
            return Err("dimms_per_channel must be at least 1".into());
        }
        if self.banks_per_dimm == 0 {
            return Err("banks_per_dimm must be at least 1".into());
        }
        if self.line_bytes == 0 {
            return Err("line_bytes must be at least 1".into());
        }
        if self.queue_entries == 0 {
            return Err("queue_entries must be at least 1".into());
        }
        if self.northbound_bw_bytes_per_sec <= 0.0 || self.southbound_bw_bytes_per_sec <= 0.0 {
            return Err("link bandwidths must be positive".into());
        }
        Ok(())
    }
}

impl Default for FbdimmConfig {
    fn default() -> Self {
        Self::ddr2_667_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let cfg = FbdimmConfig::ddr2_667_paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.dimm_positions(), 8);
        assert_eq!(cfg.physical_dimms(), 16);
    }

    #[test]
    fn peak_read_bandwidth_matches_paper_order_of_magnitude() {
        // Table in Section 2.2 quotes ~21 GB/s peak for the two-way server.
        let cfg = FbdimmConfig::ddr2_667_paper();
        let peak = cfg.peak_read_bandwidth_gbps();
        assert!(peak > 20.0 && peak < 22.5, "peak read bandwidth {peak} GB/s");
    }

    #[test]
    fn ddr2_timing_relationships_hold() {
        let t = DramTimings::ddr2_667();
        assert!(t.t_rc >= t.t_ras, "tRC must cover tRAS");
        assert!(t.read_core_latency() >= t.t_rcd + t.t_cl);
        assert!(t.write_bank_occupancy() >= t.read_bank_occupancy());
    }

    #[test]
    fn occupancies_are_positive_and_sane() {
        let cfg = FbdimmConfig::ddr2_667_paper();
        // 64 bytes at ~10.7 GB/s is ~6 ns.
        let nb = cfg.northbound_occupancy();
        assert!(nb > ps_from_ns(4.0) && nb < ps_from_ns(8.0), "nb occupancy {nb}");
        assert!(cfg.southbound_write_occupancy() > 0);
        assert!(cfg.southbound_command_occupancy() > 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = FbdimmConfig::ddr2_667_paper();
        cfg.banks_per_dimm = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = FbdimmConfig::ddr2_667_paper();
        cfg.northbound_bw_bytes_per_sec = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = FbdimmConfig::ddr2_667_paper();
        cfg.queue_entries = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn idle_dimm_traffic_covers_every_position_with_zeroes() {
        let cfg = FbdimmConfig::ddr2_667_paper();
        let idle = cfg.idle_dimm_traffic();
        assert_eq!(idle.len(), cfg.dimm_positions());
        for (i, d) in idle.iter().enumerate() {
            assert_eq!((d.channel, d.dimm), (i / cfg.dimms_per_channel, i % cfg.dimms_per_channel));
            assert_eq!((d.local_gbps, d.bypass_gbps, d.read_fraction), (0.0, 0.0, 0.0));
        }
    }

    #[test]
    fn server_config_reflects_dimm_count() {
        let cfg = FbdimmConfig::server(4);
        cfg.validate().unwrap();
        assert_eq!(cfg.dimms_per_channel, 4);
        assert_eq!(cfg.logical_channels, 1);
    }
}
