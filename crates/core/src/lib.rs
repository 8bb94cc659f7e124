//! # memtherm
//!
//! The primary contribution of *Thermal modeling and management of DRAM
//! memory systems* (ISCA 2007), reproduced as a library:
//!
//! * **Power models** of FBDIMM ([`power`]): DRAM chip power as a linear
//!   function of read/write throughput (Eq. 3.1) and AMB power as a linear
//!   function of local/bypass throughput (Eq. 3.2, Table 3.1). The
//!   channel-resolved base API is `FbdimmPowerModel::scene_power`, which
//!   returns one power breakdown per DIMM position; the hottest-DIMM and
//!   subsystem-total figures are derived from it.
//! * **Thermal models** ([`thermal`]): steady-state device temperatures
//!   from thermal resistances (Eqs. 3.3–3.4, Table 3.2), first-order dynamic
//!   temperature (Eq. 3.5), and the integrated model that adds
//!   processor→memory heating of the DRAM ambient (Eq. 3.6, Table 3.3).
//!   Both dynamic models implement the
//!   [`ThermalModel`](crate::thermal::model::ThermalModel) trait, and a
//!   [`DimmThermalScene`](crate::thermal::scene::DimmThermalScene) tracks an
//!   RC node **stack** for every DIMM position (channels × DIMMs per
//!   channel): the legacy AMB+DRAM pair, DDR4/5-style rank pairs, or
//!   CoMeT-style 3D stacks whose dies couple vertically through TSV
//!   resistances ([`StackTopology`](crate::thermal::params::StackTopology)).
//!   The hottest device is derived by arg-max over positions *and layers*
//!   instead of being assumed.
//! * **DTM schemes** ([`dtm`]): thermal shutdown (DTM-TS), and bandwidth
//!   throttling (DTM-BW), adaptive core gating (DTM-ACG), coordinated DVFS
//!   (DTM-CDVFS) and the combined policy (DTM-COMB) — one
//!   [`ThresholdPolicy`](crate::dtm::threshold::ThresholdPolicy) over the
//!   Table 4.3 emergency levels, optionally driven by a PID formal
//!   controller (Eq. 4.1). Each policy describes its decision once as a
//!   [`DecisionRule`](crate::dtm::rule::DecisionRule), from which the
//!   batched engine derives its certificates. Policies consume a
//!   [`ThermalObservation`](crate::thermal::scene::ThermalObservation) — the
//!   sensed temperature field with per-position, per-layer resolution — and
//!   answer with an [`ActuationPlan`](crate::dtm::plan::ActuationPlan):
//!   the global running mode plus optional per-channel service fractions
//!   and traffic-steering weights. Two spatially aware schemes exploit the
//!   field the paper's policies ignore: DTM-CBW (per-channel bandwidth
//!   caps keyed to each channel's hottest layer) and DTM-MIG
//!   (migration-aware steering away from the hottest DIMM position).
//! * **The two-level thermal simulator** ([`sim`]): level 1 characterizes
//!   workload mixes under every running mode using the `cpu-model` and
//!   `fbdimm-sim` substrates; level 2 ("MEMSpot") replays those
//!   characterizations in 10 ms windows over thousands of simulated seconds.
//!   The window loop is the
//!   [`BatchedSimEngine`](crate::sim::batch::BatchedSimEngine)'s lockstep
//!   lanes, which step the thermal scenes of many cells from per-position
//!   power (with precomputed RC step coefficients — no per-window `exp()`)
//!   and feed each DTM policy the full observation; `MemSpot` is the
//!   facade for one run (a one-cell batch), backed
//!   by a thread-safe [`CharStore`](crate::sim::characterize::CharStore)
//!   that shares level-1 design points across runs, policies and — when
//!   injected into several simulators — whole sweep grids.
//!
//! ## Quick start
//!
//! ```
//! use memtherm::prelude::*;
//!
//! // Thermal emergency of a hot AMB under the paper's default cooling.
//! let cooling = CoolingConfig::aohs_1_5();
//! let mut model = IsolatedThermalModel::new(cooling, ThermalLimits::paper_fbdimm());
//! let power = FbdimmPowerModel::paper_defaults();
//! // 1 GB/s of local traffic plus 2 GB/s of bypass traffic on the hottest DIMM.
//! let amb_w = power.amb.power_watts(2.0, 1.0, false);
//! let dram_w = power.dram.power_watts(0.7, 0.3);
//! for _ in 0..600 {
//!     model.step(amb_w, dram_w, 1.0); // one second per step
//! }
//! assert!(model.amb_temp_c() > 100.0);
//!
//! // The same physics, resolved over every DIMM position: the scene derives
//! // the hottest DIMM instead of assuming it.
//! let mem = FbdimmConfig::ddr2_667_paper();
//! let mut scene = DimmThermalScene::isolated(&mem, cooling, ThermalLimits::paper_fbdimm());
//! // DIMM 0 of each channel carries the bypass traffic and runs hottest.
//! let powers: Vec<FbdimmPowerBreakdown> = (0..scene.len())
//!     .map(|i| FbdimmPowerBreakdown { amb_watts: 6.5 - 0.4 * (i % 4) as f64, dram_watts: 1.8 })
//!     .collect();
//! for _ in 0..600 {
//!     scene.step(&powers, 0.0, 1.0);
//! }
//! let obs = scene.observe();
//! assert_eq!(obs.positions.len(), 8);
//! assert!(obs.hottest_amb.is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dtm;
pub mod power;
pub mod sim;
pub mod thermal;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::dtm::emergency::{EmergencyLevel, EmergencyThresholds};
    pub use crate::dtm::pid::PidController;
    pub use crate::dtm::plan::{ActuationPlan, PlanTrafficStats};
    pub use crate::dtm::policy::{DtmPolicy, DtmScheme};
    pub use crate::dtm::{cbw::DtmCbw, mig::DtmMig, threshold::ThresholdPolicy, ts::DtmTs};
    pub use crate::power::amb::AmbPowerModel;
    pub use crate::power::dram::DramPowerModel;
    pub use crate::power::fbdimm::{FbdimmPowerBreakdown, FbdimmPowerModel};
    pub use crate::sim::batch::{BatchCell, BatchOptions, BatchedSimEngine, CellRunStats};
    pub use crate::sim::characterize::{CharPoint, CharStore, CharStoreKey, CharacterizationTable, ModeKey};
    pub use crate::sim::memspot::{MemSpot, MemSpotConfig, MemSpotResult, PositionPeak, TempSample};
    pub use crate::sim::modes::{scheme_mode, ThermalRunningLevel};
    pub use crate::thermal::integrated::IntegratedThermalModel;
    pub use crate::thermal::isolated::IsolatedThermalModel;
    pub use crate::thermal::model::ThermalModel;
    pub use crate::thermal::params::{
        AmbientParams, CoolingConfig, DeviceLayer, DeviceLayerKind, HeatSpreader, StackKind, StackTopology,
        ThermalLimits, ThermalResistances,
    };
    pub use crate::thermal::rc::ThermalNode;
    pub use crate::thermal::scene::{DimmThermalScene, PositionTemp, ThermalObservation};
    pub use cpu_model::{CpuConfig, OperatingPoint, PaperCpuPower, ProcessorPowerModel, RunningMode};
    pub use fbdimm_sim::FbdimmConfig;
    pub use workloads::{mixes, WorkloadMix};
}
