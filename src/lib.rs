//! # dram-thermal
//!
//! Facade crate for the reproduction of *Thermal modeling and management of
//! DRAM memory systems* (ISCA 2007). It re-exports the workspace crates so
//! downstream users can depend on a single crate:
//!
//! * [`fbdimm`] (`fbdimm-sim`) — the FBDIMM memory-system simulator;
//! * [`cpu`] (`cpu-model`) — the multicore processor model and power models;
//! * [`workloads`] — synthetic SPEC workload models and mixes;
//! * [`memtherm`] — the paper's power/thermal models, DTM schemes, PID
//!   controller and two-level thermal simulator;
//! * [`platform`] (`platform-emu`) — the Chapter 5 server-platform
//!   emulation.
//!
//! ## Architecture: trait + scene
//!
//! The thermal stack is organized around two abstractions. The
//! `ThermalModel` trait unifies the paper's isolated (Section 3.4) and
//! integrated (Section 3.5) single-DIMM models behind one interface. On top
//! of it, a `DimmThermalScene` resolves the whole subsystem: one RC node
//! **stack** per DIMM position (logical channels × DIMMs per channel),
//! described by a `StackTopology` — the paper's AMB+DRAM FBDIMM pair, a
//! DDR4/5-style rank pair, or a CoMeT-style 3D stack whose dies heat each
//! other through vertical TSV resistances — and stepped from the
//! per-position power that `FbdimmPowerModel::scene_power` computes out of
//! the memory simulator's per-DIMM traffic split (split over the stack's
//! layers by the topology). The hottest device — the only thing the
//! paper's simulator tracked — is *derived* by arg-max over positions and
//! layers at observation time, and DTM policies receive the full
//! `ThermalObservation` (NaN-safe maxima + per-position, per-layer field)
//! instead of two bare floats. Policies answer with an `ActuationPlan`:
//! the global running mode (scalar plans reproduce the paper's schemes
//! bit-identically) optionally extended with per-channel service fractions
//! (DTM-CBW) and per-position traffic-steering weights (DTM-MIG page
//! migration), which the engine folds back into per-position heat and
//! per-channel throttle residency. One window loop, the lockstep lanes of
//! the `BatchedSimEngine`, drives the scenes allocation-free (precomputed
//! per-layer RC step coefficients, reused observation buffers); a single
//! `MemSpot::run` is a one-cell batch, and the `experiments` crate's
//! `SweepRunner` fans grids of {cooling × stack × workload × policy} cells
//! across cores through a chunked work queue, deduplicating the expensive
//! level-1 characterizations in a shared, thread-safe `CharStore` whose
//! disk cache is safe to share between concurrent processes (advisory
//! lock-file protocol around appends).
//!
//! ## Quick start
//!
//! ```
//! use dram_thermal::prelude::*;
//!
//! // Simulate W1 under DTM-ACG on the paper's FBDIMM configuration.
//! let mut spot = MemSpot::new(MemSpotConfig::tiny(CoolingConfig::aohs_1_5()));
//! let mut policy = ThresholdPolicy::new(DtmScheme::Acg, &CpuConfig::paper_quad_core(), ThermalLimits::paper_fbdimm());
//! let result = spot.run(&mixes::w1(), &mut policy);
//! assert!(result.completed);
//! assert!(result.max_amb_c <= 110.5);
//! // The result resolves the thermal field per DIMM position; the hottest
//! // DIMM is derived from it, not assumed.
//! assert_eq!(result.position_peaks.len(), 8);
//! assert_eq!(result.hottest_position().unwrap().dimm, 0);
//! ```

#![warn(missing_docs)]

pub use cpu_model as cpu;
pub use fbdimm_sim as fbdimm;
pub use memtherm;
pub use platform_emu as platform;
pub use workloads;

/// Convenient re-exports of the most commonly used types across all crates.
pub mod prelude {
    pub use cpu_model::{CpuConfig, DvfsLadder, OperatingPoint, PaperCpuPower, ProcessorPowerModel, RunningMode};
    pub use fbdimm_sim::{FbdimmConfig, MemRequest, MemorySystem, RequestKind};
    pub use memtherm::prelude::*;
    pub use platform_emu::{PlatformExperiment, PolicyKind, Server, ServerKind};
    pub use workloads::{mixes, AppBehavior, BatchJob, WorkloadMix};
}
