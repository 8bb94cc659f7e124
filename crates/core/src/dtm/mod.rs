//! Dynamic thermal management (DTM) schemes (Section 4.2), actuating
//! through spatially resolved **actuation plans**.
//!
//! ## Decision model
//!
//! Every DTM interval the simulator hands the active [`DtmPolicy`] a
//! [`ThermalObservation`](crate::thermal::scene::ThermalObservation) — the
//! full per-position, per-layer temperature field — and the policy answers
//! with an [`ActuationPlan`]. A plan
//! layers up to three actuators:
//!
//! * **Global running mode** — active cores, DVFS operating point and the
//!   subsystem-wide bandwidth cap: everything the paper's Table 4.3 running
//!   levels control. A plan carrying only a global mode is *scalar* and
//!   reproduces the pre-plan policies bit-identically (pinned by
//!   `tests/policy_plan_regression.rs`); `From<RunningMode>` is the shim
//!   that keeps scalar policies one-liners (`mode.into()`).
//! * **Per-channel service fractions** — the share of each logical
//!   channel's traffic the memory controller serves next interval, so one
//!   hot channel no longer throttles its cool neighbors.
//! * **Per-position steering weights** — how the served traffic is spread
//!   over the DIMM positions (channel-major, summing to 1), emulating page
//!   migration away from hot DIMMs at the traffic level.
//!
//! ## Schemes
//!
//! The paper's global schemes all quantize the *hottest* device into a
//! thermal emergency level ([`emergency`], [`selector`]) and map it to a
//! running mode ([`crate::sim::modes::scheme_mode`]). Bandwidth throttling
//! (DTM-BW), adaptive core gating (DTM-ACG), coordinated DVFS (DTM-CDVFS)
//! and the combined Chapter 5 policy (DTM-COMB) differ only in that map,
//! so one type, [`ThresholdPolicy`], implements all four, each optionally
//! driven by the PID formal controller ([`pid`], Equation 4.1). Thermal
//! shutdown ([`DtmTs`]) is a latch that sets at a TDP and releases at the
//! TRPs. [`NoLimit`] is the thermally unconstrained baseline.
//!
//! Every policy also describes its decision once, as data: a
//! [`DecisionRule`] ([`rule`]). The batched engine derives all of its
//! certificates from it, and debug builds check it against every literal
//! decision.
//!
//! Two schemes exploit the resolved field that the scene provides and the
//! global schemes ignore:
//!
//! * [`DtmCbw`] — per-**c**hannel **b**and**w**idth throttling: one
//!   [`LevelSelector`](crate::dtm::selector::LevelSelector) per logical
//!   channel, keyed NaN-safely to that channel's hottest buffer/DRAM
//!   layers (bufferless rank pairs and 3D stacks report `NaN` buffers),
//!   emitting per-channel service fractions.
//! * [`DtmMig`] — **mig**ration-aware steering: shifts steering weight
//!   from the position whose hottest layer leads the field toward the
//!   coldest one inside a hysteresis band, flattening the thermal field so
//!   the global fail-safe (the same ladder as DTM-BW) engages later.
//!
//! CoMeT (arXiv:2109.12405) motivates the per-layer sensing for
//! processor-memory stacks; AL-DRAM (arXiv:1603.08454) motivates per-DIMM
//! actuation from the strong position dependence of thermal headroom.

pub mod cbw;
pub mod emergency;
pub mod mig;
pub mod no_limit;
pub mod pid;
pub mod plan;
pub mod policy;
pub mod rule;
pub mod selector;
pub mod threshold;
pub mod ts;

// Unit tests of `ThresholdPolicy`, one module per level-ladder scheme.
#[cfg(test)]
mod acg;
#[cfg(test)]
mod bw;
#[cfg(test)]
mod cdvfs;
#[cfg(test)]
mod comb;

pub use cbw::DtmCbw;
pub use emergency::{EmergencyLevel, EmergencyThresholds};
pub use mig::DtmMig;
pub use no_limit::NoLimit;
pub use pid::PidController;
pub use plan::{ActuationPlan, PlanTrafficStats};
pub use policy::{DtmPolicy, DtmScheme};
pub use rule::DecisionRule;
pub use threshold::ThresholdPolicy;
pub use ts::DtmTs;
