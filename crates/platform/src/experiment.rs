//! The Chapter 5 experiment driver.
//!
//! [`PlatformExperiment`] wires a [`Server`] specification into the
//! two-level simulator: the Xeon 5160 processor complex and the server's
//! FBDIMM subsystem form the level-1 substrate, the integrated thermal model
//! (with the server's ambient temperature and CPU→memory interaction
//! strength) forms the level-2 plant, and the software DTM policies of
//! Section 5.2.2 act on it once per second through noisy AMB sensors.

use std::sync::Arc;

use memtherm::dtm::no_limit::NoLimit;
use memtherm::sim::characterize::CharStore;
use memtherm::sim::memspot::{MemSpot, MemSpotConfig, MemSpotResult, TempSample};
use workloads::{AppBehavior, WorkloadMix};

use crate::measurement::Measurement;
use crate::policies::{PlatformPolicy, PolicyKind};
use crate::server::Server;

/// Result of one policy run on a server: the raw MEMSpot result plus the
/// condensed Chapter 5 measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRun {
    /// Condensed measurement (counters, power, energy).
    pub measurement: Measurement,
    /// Full simulation result (traces, residency, totals).
    pub result: MemSpotResult,
}

/// Experiment driver for one server.
#[derive(Debug)]
pub struct PlatformExperiment {
    server: Server,
    spot: MemSpot,
    runs_per_app: usize,
}

impl PlatformExperiment {
    /// Creates the driver with the study's batch sizes (ten runs of every
    /// CPU2000 application, five of every CPU2006 application — approximated
    /// here by a configurable `runs_per_app`).
    pub fn new(server: Server) -> Self {
        Self::with_scale(server, 4, 0.2)
    }

    /// Creates the driver with an explicit batch size and instruction scale
    /// (tests use small values; normalized results are preserved) and a
    /// private characterization store.
    pub fn with_scale(server: Server, runs_per_app: usize, instruction_scale: f64) -> Self {
        Self::with_store(server, runs_per_app, instruction_scale, Arc::new(CharStore::new()))
    }

    /// Like [`PlatformExperiment::with_scale`], but the level-1
    /// characterizations live in (and are shared through) `store`. Several
    /// experiments over one store characterize each design point once: the
    /// same server at different AMB TDPs or ambients shares every point,
    /// while servers with different memory stay apart through the store
    /// key's geometry and hardware fingerprint.
    pub fn with_store(server: Server, runs_per_app: usize, instruction_scale: f64, store: Arc<CharStore>) -> Self {
        let mut cfg = MemSpotConfig::paper(server.cooling).with_integrated(Some(server.interaction_degree));
        cfg.limits = server.thermal_limits();
        cfg.ambient_override_c = Some(server.system_ambient_c);
        cfg.dtm_interval_s = server.dtm_interval_s;
        cfg.copies_per_app = runs_per_app;
        cfg.instruction_scale = instruction_scale;
        cfg.characterization_budget = 40_000;
        cfg.max_sim_time_s = 40_000.0;
        let spot = MemSpot::with_store(server.cpu.clone(), server.mem, cfg, store);
        PlatformExperiment { server, spot, runs_per_app }
    }

    /// The server being emulated.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Number of copies of each application in the batch.
    pub fn runs_per_app(&self) -> usize {
        self.runs_per_app
    }

    /// Runs a workload mix under one software DTM policy.
    pub fn run_policy(&mut self, mix: &WorkloadMix, kind: PolicyKind) -> PlatformRun {
        let mut policy = PlatformPolicy::new(kind, self.server.clone());
        self.run_with(mix, &mut policy)
    }

    /// Runs a workload mix under an explicitly constructed policy (used for
    /// the fixed-frequency comparison of Figure 5.13).
    pub fn run_with(&mut self, mix: &WorkloadMix, policy: &mut PlatformPolicy) -> PlatformRun {
        let result = self.spot.run(mix, policy);
        PlatformRun { measurement: Measurement::from_result(&self.server, &result), result }
    }

    /// Runs a workload mix with no thermal management at all — the baseline
    /// the study's "no-limit" bars normalize against (obtained on the
    /// SR1500AL by lowering the ambient temperature so no emergency occurs).
    pub fn run_no_limit(&mut self, mix: &WorkloadMix) -> PlatformRun {
        let mut policy = NoLimit::new(&self.server.cpu);
        let result = self.spot.run(mix, &mut policy);
        PlatformRun { measurement: Measurement::from_result(&self.server, &result), result }
    }

    /// Runs four copies of one application with no DTM control and returns
    /// the AMB temperature trace of the first `duration_s` seconds — the
    /// experiment behind Figures 5.4 and 5.5.
    ///
    /// The only run that records a temperature trace: it runs on a
    /// simulator of its own, over the same store, with trace recording on.
    /// (A homogeneous mix is never run twice, so a table kept in the
    /// experiment's simulator would not be reused anyway.)
    pub fn homogeneous_temperature_curve(&mut self, app: &AppBehavior, duration_s: f64) -> Vec<TempSample> {
        let mix = WorkloadMix::homogeneous(app.clone(), self.server.cpu.cores);
        let mut cfg = *self.spot.config();
        cfg.record_temp_trace = true;
        let mut spot =
            MemSpot::with_store(self.server.cpu.clone(), self.server.mem, cfg, Arc::clone(self.spot.char_store()));
        let result = spot.run(&mix, &mut NoLimit::new(&self.server.cpu));
        result.temp_trace.into_iter().filter(|s| s.time_s <= duration_s).collect()
    }

    /// Average AMB temperature over a homogeneous run of one application
    /// (Figure 5.5), with the hottest 0.5 % of samples filtered as sensor
    /// spikes.
    pub fn homogeneous_average_amb(&mut self, app: &AppBehavior) -> f64 {
        let trace = self.homogeneous_temperature_curve(app, f64::INFINITY);
        let samples: Vec<f64> = trace.iter().map(|s| s.amb_c).collect();
        let filtered = crate::sensors::filter_spikes(samples, 0.005);
        if filtered.is_empty() {
            return 0.0;
        }
        filtered.iter().sum::<f64>() / filtered.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{mixes, spec2000};

    fn small(server: Server) -> PlatformExperiment {
        // One copy of each application at full length: batches of a few
        // hundred simulated seconds, enough for the servers to heat into
        // their emergency ranges.
        PlatformExperiment::with_scale(server, 1, 1.0)
    }

    #[test]
    fn experiments_over_one_store_reproduce_private_runs_and_share_points() {
        // The PE1950 at two AMB TDPs: the thermal limits differ, the level-1
        // design points do not, so the second experiment computes none.
        let store = Arc::new(CharStore::new());
        let mix = mixes::w1();
        let mut computed = Vec::new();
        for tdp in [88.0, 92.0] {
            let server = Server::pe1950().with_amb_tdp(tdp);
            let misses_before = store.misses();
            let mut shared = PlatformExperiment::with_store(server.clone(), 1, 1.0, Arc::clone(&store));
            let mut private = small(server);
            assert_eq!(shared.run_no_limit(&mix), private.run_no_limit(&mix));
            assert_eq!(shared.run_policy(&mix, PolicyKind::Bw), private.run_policy(&mix, PolicyKind::Bw));
            computed.push(store.misses() - misses_before);
        }
        assert!(computed[0] > 0, "the first experiment characterizes its points");
        assert_eq!(computed[1], 0, "the second TDP must reuse every point: {computed:?}");
    }

    #[test]
    fn memory_intensive_workload_triggers_emergencies_on_the_sr1500al() {
        let mut exp = small(Server::sr1500al());
        let run = exp.run_policy(&mixes::w1(), PolicyKind::Bw);
        assert!(run.result.completed);
        assert!(run.measurement.max_amb_c > exp.server().emergency_bounds_c[0], "never reached an emergency level");
        assert!(run.measurement.max_amb_c < exp.server().amb_tdp_c + 1.0);
        assert!(run.measurement.memory_inlet_c > exp.server().system_ambient_c + 2.0, "CPU pre-heating missing");
    }

    #[test]
    fn acg_and_cdvfs_beat_bw_on_the_sr1500al() {
        let mut exp = small(Server::sr1500al());
        let bw = exp.run_policy(&mixes::w1(), PolicyKind::Bw);
        let acg = exp.run_policy(&mixes::w1(), PolicyKind::Acg);
        let cdvfs = exp.run_policy(&mixes::w1(), PolicyKind::Cdvfs);
        assert!(acg.measurement.running_time_s < bw.measurement.running_time_s * 1.02);
        assert!(cdvfs.measurement.running_time_s < bw.measurement.running_time_s * 1.02);
        // CDVFS lowers CPU power relative to BW (Figure 5.10).
        assert!(cdvfs.measurement.cpu_power_w < bw.measurement.cpu_power_w);
    }

    #[test]
    fn pe1950_stand_alone_box_stays_cooler_than_the_hot_box() {
        let mut pe = small(Server::pe1950());
        let mut sr = small(Server::sr1500al());
        let a = pe.run_no_limit(&mixes::w5());
        let b = sr.run_no_limit(&mixes::w5());
        assert!(a.measurement.max_amb_c < b.measurement.max_amb_c);
    }

    #[test]
    fn homogeneous_swim_heats_up_within_the_first_minutes() {
        let mut exp = small(Server::sr1500al());
        let curve = exp.homogeneous_temperature_curve(&spec2000::swim(), 500.0);
        assert!(curve.len() > 50);
        let start = curve.first().unwrap().amb_c;
        let end = curve.last().unwrap().amb_c;
        assert!(end > start + 5.0, "AMB should heat from {start:.1} to well above, got {end:.1}");
    }

    #[test]
    fn memory_intensive_apps_average_hotter_than_moderate_ones() {
        let mut exp = small(Server::pe1950());
        let hot = exp.homogeneous_average_amb(&spec2000::swim());
        let cool = exp.homogeneous_average_amb(&spec2000::vpr());
        assert!(hot > cool, "swim {hot:.1} vs vpr {cool:.1}");
    }
}
