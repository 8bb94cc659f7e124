//! The two-level thermal simulator (Section 4.3.1).

pub mod batch;
pub mod characterize;
pub(crate) mod diskcache;
pub mod energy;
pub mod engine;
pub mod memspot;
pub mod modes;
mod replay;

pub use batch::{BatchCell, BatchOptions, BatchedSimEngine, CellRunStats};
pub use characterize::{CharPoint, CharStore, CharStoreKey, CharacterizationTable, ModeKey};
pub use diskcache::escape_json;
pub use energy::EnergyAccumulator;
pub use engine::SimEngine;
pub use memspot::{MemSpot, MemSpotConfig, MemSpotResult, PositionPeak, TempSample};
pub use modes::{scheme_mode, ThermalRunningLevel};
