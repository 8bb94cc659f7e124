//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run -p experiments --release --bin paper -- <experiment-id|all> [smoke|quick|paper] [--json <dir>]
//! ```
//!
//! `experiment-id` is one of the identifiers listed by `--list` (for example
//! `fig4_3` or `tab3_2`). The optional scale (default `quick`) controls the
//! batch sizes; `paper` uses the full batch sizes of the study. On a shared
//! 2-core Xeon host `all` took 3.4–4.7 s at `quick` and 17–26 s at `paper`.
//! `--json <dir>` also writes each table to `<dir>/<id>.json`.
//!
//! Every experiment of one invocation shares one level-1 characterization
//! store, so `all` characterizes each design point once, whichever figure
//! needs it first; the tables are the same as when each figure runs alone.
//! After each experiment, stderr reports its wall time and how many level-1
//! points it computed (closed loops run), how many it derived from a stored
//! uncapped sibling whose run never reached the cap, and how many it reused
//! from the store. With `--json` the same numbers go to
//! `<dir>/level1.jsonl`, one object per experiment:
//! `{"id", "wall_s", "level1_computed", "level1_derived", "level1_reused"}`.
//!
//! Exit status: 0 on success, 1 when an experiment fails or a JSON file
//! cannot be written, 2 on a malformed command line (an unknown scale or
//! option, or `--json` without a directory).

use std::sync::Arc;

use experiments::harness::Scale;
use experiments::{all_experiment_ids, run_experiment_in};
use memtherm::sim::characterize::CharStore;
use memtherm::sim::escape_json;

const USAGE: &str = "usage: paper <experiment-id|all|--list> [smoke|quick|paper] [--json <dir>]";

/// Prints `problem` and the usage line, and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// Prints `problem` and exits with status 1.
fn fail(problem: &str) -> ! {
    eprintln!("error: {problem}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if args[0] == "--list" {
        for id in all_experiment_ids() {
            println!("{id}");
        }
        return;
    }

    let mut scale = None;
    let mut json_dir = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if arg == "--json" {
            match rest.next() {
                Some(dir) => json_dir = Some(dir.clone()),
                None => usage_error("--json needs a directory"),
            }
        } else if scale.is_none() && !arg.starts_with('-') {
            scale = Some(Scale::parse(arg).unwrap_or_else(|| usage_error(&format!("unknown scale {arg:?}"))));
        } else {
            usage_error(&format!("unexpected argument {arg:?}"));
        }
    }
    let scale = scale.unwrap_or(Scale::Quick);
    if let Some(dir) = &json_dir {
        // Fail before the experiments run, not after.
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(&format!("cannot create {dir}: {e}"));
        }
    }

    let ids: Vec<String> = if args[0] == "all" {
        all_experiment_ids().into_iter().map(String::from).collect()
    } else {
        vec![args[0].clone()]
    };

    let store = Arc::new(CharStore::new());
    let mut level1_lines = Vec::new();
    for id in ids {
        let started = std::time::Instant::now();
        let (hits_before, misses_before, derived_before) = (store.hits(), store.misses(), store.derived());
        let table = run_experiment_in(&id, scale, &store).unwrap_or_else(|e| fail(&e));
        let wall_s = started.elapsed().as_secs_f64();
        let derived = store.derived() - derived_before;
        let (computed, reused) = (store.misses() - misses_before - derived, store.hits() - hits_before);
        println!("{table}");
        eprintln!("[{id}] finished in {wall_s:.1} s; level-1: {computed} computed, {derived} derived, {reused} reused");
        if let Some(dir) = &json_dir {
            write_or_fail(&format!("{dir}/{id}.json"), &table.to_json());
            level1_lines.push(format!(
                concat!(
                    "{{\"id\": \"{}\", \"wall_s\": {}, \"level1_computed\": {}, \"level1_derived\": {}, ",
                    "\"level1_reused\": {}}}\n"
                ),
                escape_json(&id),
                wall_s,
                computed,
                derived,
                reused
            ));
            write_or_fail(&format!("{dir}/level1.jsonl"), &level1_lines.concat());
        }
    }
}

/// Writes `contents` to `path`, or exits with status 1.
fn write_or_fail(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(&format!("cannot write {path}: {e}"));
    }
}
