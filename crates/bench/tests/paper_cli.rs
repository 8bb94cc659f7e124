//! The `paper` command line: malformed arguments and unwritable outputs
//! fail loudly instead of running at the wrong scale or exiting 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("run the paper binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory under the test target's scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("paper_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_misspelled_scale_is_rejected_with_usage() {
    let out = paper(&["tab3_1", "smoek"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown scale \"smoek\""), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("usage: paper"));
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn json_without_a_directory_is_rejected_with_usage() {
    let out = paper(&["tab3_1", "smoke", "--json"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--json needs a directory"), "stderr: {}", stderr(&out));
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn an_unwritable_json_directory_fails_before_running() {
    // A directory below a regular file cannot be created on any platform.
    let file = scratch("unwritable").join("not_a_dir");
    std::fs::write(&file, b"").unwrap();
    let out = paper(&["tab3_1", "smoke", "--json", file.join("out").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot create"), "stderr: {}", stderr(&out));
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn json_output_is_written_with_and_without_a_scale() {
    for (args, name) in [(&["tab3_1", "smoke"][..], "smoke"), (&["tab3_1"][..], "default")] {
        let dir = scratch(name);
        let mut argv = args.to_vec();
        argv.extend(["--json", dir.to_str().unwrap()]);
        let out = paper(&argv);
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {}", stderr(&out));
        let json = std::fs::read_to_string(dir.join("tab3_1.json")).expect("tab3_1.json written");
        assert!(json.starts_with('{'), "{json}");
    }
}

#[test]
fn each_figure_reports_its_level1_work_on_stderr_and_in_level1_jsonl() {
    let dir = scratch("level1");
    let out = paper(&["fig4_2", "smoke", "--json", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let line = stderr(&out).lines().find(|l| l.contains("level-1:")).map(str::to_owned);
    let line = line.unwrap_or_else(|| panic!("no level-1 line on stderr: {}", stderr(&out)));
    assert!(line.starts_with("[fig4_2]") && line.contains(" computed, ") && line.ends_with(" simulators"), "{line}");

    let jsonl = std::fs::read_to_string(dir.join("level1.jsonl")).expect("level1.jsonl written");
    let records: Vec<&str> = jsonl.lines().collect();
    assert_eq!(records.len(), 1, "one object per figure: {jsonl}");
    let record = records[0];
    assert!(record.starts_with("{\"id\": \"fig4_2\", \"wall_s\": "), "{record}");
    for field in ["\"level1_computed\": ", "\"level1_derived\": ", "\"level1_reused\": ", "\"level1_simulators\": "] {
        assert!(record.contains(field), "{field} missing: {record}");
    }
    let computed = record.split("\"level1_computed\": ").nth(1).and_then(|r| r.split(',').next()).unwrap();
    assert!(computed.parse::<u64>().unwrap() > 0, "a cold run computes points: {record}");
    let derived = record.split("\"level1_derived\": ").nth(1).and_then(|r| r.split(',').next()).unwrap();
    assert!(
        line.contains(&format!("level-1: {computed} computed, {derived} derived, ")),
        "stderr and JSON disagree: {line} vs {record}"
    );
    let simulators = record.split("\"level1_simulators\": ").nth(1).and_then(|r| r.split('}').next()).unwrap();
    assert!(simulators.parse::<u64>().unwrap() > 0, "a cold run builds a simulator: {record}");
    assert!(
        line.ends_with(&format!(" reused, {simulators} simulators")),
        "stderr and JSON disagree: {line} vs {record}"
    );
}
