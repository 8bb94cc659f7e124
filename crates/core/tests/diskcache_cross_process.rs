//! Cross-process disk-cache contract: two *processes* appending to one
//! results-cache file concurrently (serialized by its `<path>.lock`
//! advisory lock) must leave a file every entry of which loads back.
//!
//! The test re-executes its own test binary twice — once per writer role,
//! selected by an environment variable — from two threads, waits for both
//! children, then reopens the cache and verifies that all entries from both
//! processes survived without corruption. Each child's output is captured
//! (and shown only if it fails), so the two children's test-harness lines
//! never interleave into the parent's report. No cache file exists when the
//! children start, so they also race the lazy header initialization.

use std::process::Command;
use std::sync::Arc;

use cpu_model::{OperatingPoint, RunningMode};
use memtherm::sim::characterize::{CharPoint, CharStore, CharStoreKey, ModeKey};

const ROLE_ENV: &str = "MEMTHERM_XPROC_ROLE";
const PATH_ENV: &str = "MEMTHERM_XPROC_PATH";
const ENTRIES_PER_PROCESS: u64 = 60;

fn key_for(role: u64, i: u64) -> CharStoreKey {
    CharStoreKey {
        mix_id: format!("xproc-w{role}"),
        mode: ModeKey { active_cores: 4, freq_mhz: 3200, cap_mbps: u32::MAX },
        budget: 10_000 + role * 100_000 + i,
        channels: 2,
        dimms_per_channel: 4,
        hw_fingerprint: 0xfeed_beef,
    }
}

fn point_for(role: u64, i: u64) -> CharPoint {
    CharPoint {
        mode: RunningMode { active_cores: 4, op: OperatingPoint::new(3.2, 1.55), bandwidth_cap: None },
        instr_rate_total: 1e9 + (role * 1000 + i) as f64,
        core_share: vec![0.25; 4],
        read_gbps: role as f64 + 0.125,
        write_gbps: i as f64 * 0.5,
        dimm_traffic: Vec::new(),
        ipc_ref_sum: 3.5,
        l2_miss_rate: 0.25,
        l2_misses_per_instr: 0.01,
        bytes_per_instr: 1.5,
        peak_window_activations: role * 1000 + i,
    }
}

/// Child role: open the shared cache and append this role's entries through
/// the normal `CharStore` miss path, yielding between appends so the two
/// processes interleave at the file lock.
fn run_child(role: u64, path: &str) {
    let store = CharStore::with_disk_cache(path).expect("child opens the shared cache");
    for i in 0..ENTRIES_PER_PROCESS {
        let point = point_for(role, i);
        let got = store.get_or_compute(key_for(role, i), || point.clone());
        assert_eq!(*got, point);
        if i % 8 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
}

#[test]
fn two_processes_append_to_one_cache_without_corruption() {
    if let (Ok(role), Ok(path)) = (std::env::var(ROLE_ENV), std::env::var(PATH_ENV)) {
        run_child(role.parse().expect("numeric role"), &path);
        return;
    }

    let path = std::env::temp_dir().join(format!("memtherm_xproc_cache_{}.jsonl", std::process::id()));
    let lock = path.with_file_name(format!("{}.lock", path.file_name().unwrap().to_string_lossy()));
    let _ = std::fs::remove_file(&path);

    let exe = std::env::current_exe().expect("test binary path");
    let path_str = Arc::new(path.to_string_lossy().into_owned());

    // Two threads each spawn one writer process.
    let children: Vec<_> = (0..2u64)
        .map(|role| {
            let exe = exe.clone();
            let path = Arc::clone(&path_str);
            std::thread::spawn(move || {
                Command::new(exe)
                    .args([
                        "--exact",
                        "two_processes_append_to_one_cache_without_corruption",
                        "--test-threads",
                        "1",
                        "--nocapture",
                    ])
                    .env(ROLE_ENV, role.to_string())
                    .env(PATH_ENV, path.as_str())
                    .output()
                    .expect("spawn child test process")
            })
        })
        .collect();
    for child in children {
        let out = child.join().expect("join spawner thread");
        assert!(
            out.status.success(),
            "child writer failed: {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The file starts with the current header, ends on a whole line, and
    // its advisory lock did not outlive the writers.
    let body = std::fs::read_to_string(&path).expect("the cache file exists");
    assert_eq!(
        body.lines().next(),
        Some("{\"format\": \"memtherm-char-cache\", \"version\": 2}"),
        "the file carries the current versioned header"
    );
    assert!(body.ends_with('\n'), "the file has no torn tail");
    assert!(!lock.exists(), "the advisory lock is released");

    // Every entry from both processes must load back, and the values must
    // round-trip exactly (no torn or interleaved lines).
    let store = CharStore::with_disk_cache(path.as_path()).expect("reopen the shared cache");
    assert_eq!(
        store.len(),
        (2 * ENTRIES_PER_PROCESS) as usize,
        "all {} entries from both processes survive",
        2 * ENTRIES_PER_PROCESS
    );
    for role in 0..2u64 {
        for i in 0..ENTRIES_PER_PROCESS {
            let expected = point_for(role, i);
            let got = store.get_or_compute(key_for(role, i), || panic!("entry (role {role}, {i}) missing"));
            // `{:?}` prints each float's shortest round-trip form, so equal
            // renderings mean equal bits (signed zeros included).
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "entry (role {role}, {i}) corrupted");
        }
    }
    assert_eq!(store.misses(), 0, "every lookup is served from the file");
    let _ = std::fs::remove_file(&path);
}
