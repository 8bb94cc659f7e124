//! # experiments
//!
//! The benchmark harness of the reproduction: one entry point per table and
//! figure of the paper's evaluation (Chapters 3–5 of the dissertation text,
//! i.e. the ISCA 2007 paper plus its measurement follow-on).
//!
//! Every experiment is a plain function that returns a [`harness::Table`];
//! the `paper` binary prints the requested experiment (or all of them) and
//! optionally dumps the rows as JSON. The `figures_ch4` and `figures_ch5`
//! benches in `benches/` time the same functions at smoke scale through
//! [`harness::bench_case`], so `cargo bench` exercises the experiments end
//! to end.
//!
//! A simulating figure takes a [`CharStore`] and runs every grid, `MemSpot`
//! and platform experiment it builds over it, so each level-1 design point
//! is characterized once per figure. [`run_experiment_in`] runs several
//! figures over one store (the `paper` command shares one across a whole
//! invocation); [`run_experiment`] gives each call a fresh one.
//!
//! ```no_run
//! use std::sync::Arc;
//! use experiments::{ch4, harness::Scale};
//! let table = ch4::fig4_3(Scale::Smoke, &Arc::default());
//! println!("{table}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ch3;
pub mod ch4;
pub mod ch5;
pub mod harness;
pub mod sweep;

use std::sync::Arc;

use harness::{Scale, Table};
use memtherm::sim::characterize::CharStore;

/// Returns the list of all experiment identifiers, in paper order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "tab3_1", "tab3_2", "tab3_3", "tab4_3", "tab4_4", "fig4_2", "fig4_3", "fig4_4", "fig4_5_8", "fig4_9",
        "fig4_10", "fig4_11", "fig4_12", "fig4_13", "fig4_14", "fig5_4", "fig5_5", "fig5_6", "fig5_7", "fig5_8",
        "fig5_9", "fig5_10", "fig5_11", "fig5_12", "fig5_13", "fig5_14", "fig5_15",
    ]
}

/// Runs one experiment by identifier over a fresh level-1 store, so no
/// characterization carries over from an earlier call.
///
/// # Errors
///
/// Returns an error string when the identifier is unknown.
pub fn run_experiment(id: &str, scale: Scale) -> Result<Table, String> {
    run_experiment_in(id, scale, &Arc::default())
}

/// Runs one experiment by identifier, reading and recording its level-1
/// characterizations in `store`. The tables do not depend on what the
/// store already holds: a point is the same whichever figure computed it.
///
/// # Errors
///
/// Returns an error string when the identifier is unknown.
pub fn run_experiment_in(id: &str, scale: Scale, store: &Arc<CharStore>) -> Result<Table, String> {
    let table = match id {
        "tab3_1" => ch3::tab3_1(),
        "tab3_2" => ch3::tab3_2(),
        "tab3_3" => ch3::tab3_3(),
        "tab4_3" => ch4::tab4_3(),
        "tab4_4" => ch4::tab4_4(),
        "fig4_2" => ch4::fig4_2(scale, store),
        "fig4_3" => ch4::fig4_3(scale, store),
        "fig4_4" => ch4::fig4_4(scale, store),
        "fig4_5_8" => ch4::fig4_5_8(scale, store),
        "fig4_9" => ch4::fig4_9(scale, store),
        "fig4_10" => ch4::fig4_10(scale, store),
        "fig4_11" => ch4::fig4_11(scale, store),
        "fig4_12" => ch4::fig4_12(scale, store),
        "fig4_13" => ch4::fig4_13(scale, store),
        "fig4_14" => ch4::fig4_14(scale, store),
        "fig5_4" => ch5::fig5_4(scale, store),
        "fig5_5" => ch5::fig5_5(scale, store),
        "fig5_6" => ch5::fig5_6(scale, store),
        "fig5_7" => ch5::fig5_7(scale, store),
        "fig5_8" => ch5::fig5_8(scale, store),
        "fig5_9" => ch5::fig5_9(scale, store),
        "fig5_10" => ch5::fig5_10(scale, store),
        "fig5_11" => ch5::fig5_11(scale, store),
        "fig5_12" => ch5::fig5_12(scale, store),
        "fig5_13" => ch5::fig5_13(scale, store),
        "fig5_14" => ch5::fig5_14(scale, store),
        "fig5_15" => ch5::fig5_15(scale),
        other => return Err(format!("unknown experiment id: {other}")),
    };
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_is_runnable_by_id() {
        // Only the cheap, simulation-free tables are actually executed here;
        // the id dispatch itself is what this test guards.
        for id in ["tab3_1", "tab3_2", "tab3_3", "tab4_3", "tab4_4"] {
            let t = run_experiment(id, Scale::Smoke).unwrap();
            assert!(!t.rows.is_empty());
        }
        assert!(run_experiment("fig9_9", Scale::Smoke).is_err());
        assert_eq!(all_experiment_ids().len(), 27);
    }

    #[test]
    fn figures_over_one_store_reproduce_their_fresh_store_tables() {
        // fig4_5_8 reuses W1 points fig4_2 computed; fig5_4 runs on the
        // SR1500AL's hardware, whose points the store keeps apart.
        let store = Arc::new(CharStore::new());
        for id in ["fig4_2", "fig4_5_8", "fig5_4"] {
            let hits_before = store.hits();
            let shared = run_experiment_in(id, Scale::Smoke, &store).unwrap();
            if id == "fig4_5_8" {
                assert!(store.hits() > hits_before, "fig4_5_8 must reuse fig4_2's W1 points");
            }
            assert_eq!(shared, run_experiment(id, Scale::Smoke).unwrap(), "{id}");
        }
    }
}
