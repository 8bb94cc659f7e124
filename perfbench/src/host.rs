//! Host facts recorded beside every number: core count, CPU model, the code
//! measured, and the process's peak resident memory.

use std::path::{Path, PathBuf};

/// Root of the source tree the benchmark was built from.
pub fn source_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Caps glibc malloc at a single arena. With more arenas, which threads
/// happen to allocate first decides how many arenas a run creates and what
/// each holds: with glibc's default of eight per core the peak RSS of
/// identical runs spread by a third, and with one per core `paper_figures`
/// still read 43-58 MiB on a 2-core host; with one it repeats to within 1%.
/// Call before any thread starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn cap_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets a malloc tunable of the C library this
    // binary links against; it takes plain integers and is called before
    // the process starts any other thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Other C libraries: nothing to cap.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn cap_malloc_arenas() {}

/// Returns the free memory of glibc malloc's arenas to the kernel, so a
/// later peak RSS counts live memory and not what earlier work left cached.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free pages of the C library's own
    // heap; it takes a plain integer and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Other C libraries: nothing to trim.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// Restarts the kernel's peak-RSS (`VmHWM`) accounting of this process, so
/// a pass never inherits an earlier pass's or workload's peak. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process since start or the last
/// [`reset_peak_rss`], MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit checked out at the source root, read from `.git` without
/// running git (a checkout without `.git` has none).
pub fn git_commit() -> Option<String> {
    let git = source_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find(|l| l.ends_with(reference)).and_then(|l| l.split_whitespace().next()).map(str::to_string)
}

/// FNV-1a digest of the simulator's sources (`crates/`, `src/` and the root
/// manifests), so runs of a checkout without `.git` still name the code
/// they measured.
pub fn source_digest() -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let root = source_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    collect(&root.join("src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let name = file.strip_prefix(&root).unwrap_or(file).to_string_lossy().into_owned();
        for byte in name.bytes().chain(std::fs::read(file).unwrap_or_default()) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}
