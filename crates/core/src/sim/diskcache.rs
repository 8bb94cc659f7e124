//! Disk persistence for the level-1 characterization store.
//!
//! [`DiskCache`] backs a [`CharStore`](crate::sim::characterize::CharStore)
//! with one append-only, line-delimited JSON file at the path the caller
//! gives, so characterizations survive the process: repeated sweeps,
//! examples and CI runs skip level-1 entirely on a warm cache. The
//! workspace has no external dependencies (no serde), so both the writer
//! and the reader are hand-rolled:
//!
//! * **Format** — line 1 is a header `{"format": "memtherm-char-cache",
//!   "version": N}`; every further line is one `{"key": {...}, "point":
//!   {...}}` entry. Appending an entry is a single `write` of one line,
//!   which keeps concurrent writers from different threads safe behind the
//!   cache's mutex and makes a torn tail line recoverable: it is skipped on
//!   the next load, and the next append first terminates it so the new
//!   entry starts on a line of its own.
//! * **Cross-process locking** — every append additionally takes the
//!   file's advisory lock (a `<path>.lock` sibling created with
//!   `O_CREAT|O_EXCL` semantics via `create_new`, retried in a bounded
//!   sleep loop), so multiple *processes* sharing one cache serialize
//!   their appends and their lazy header initialization instead of racing;
//!   the header is re-checked under the lock, so a second process never
//!   truncates the entries of the first. Stale locks left by a crashed
//!   holder are broken after 10 s; if the lock cannot be acquired within
//!   the 2 s retry budget the append proceeds unlocked — the cache is an
//!   accelerator and a wedged lock file must not stall the simulation (the
//!   worst case is a torn line, which the loader already skips).
//! * **Compaction and capping** — concurrent writers legitimately append
//!   duplicate keys (each process computes and persists the point it was
//!   missing), so the file accumulates dead lines across warm runs. A load
//!   deduplicates (first occurrence wins, mirroring the in-memory store's
//!   first-write-wins insert) and rewrites the file atomically (temporary
//!   sibling + rename) under its advisory lock when either at least 8 dead
//!   lines make up a quarter of its entries, or it holds more than
//!   `ENTRY_CAP` (262,144) unique entries — capping evicts the oldest lines
//!   first, so the file cannot grow without bound.
//! * **Versioning** — a header whose format name or version does not match
//!   [`FORMAT_VERSION`] invalidates the file: the load returns no entries
//!   and the next append rewrites it from scratch. Entries whose
//!   `hw_fingerprint` belongs to a different hardware configuration are
//!   *not* special-cased — the fingerprint is part of the key, so they
//!   coexist harmlessly and simply never match. Version 2 added each
//!   point's per-window activation peak (`"peak"`), which capped points are
//!   derived from; a version-1 file has none, so it is discarded and the
//!   cache goes cold once.
//! * **Exactness** — floating-point fields are written with Rust's shortest
//!   round-trip formatting (`{:?}`), so a reloaded [`CharPoint`] is
//!   bit-identical to the computed one; malformed or truncated lines are
//!   skipped rather than failing the load.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cpu_model::{OperatingPoint, RunningMode};
use fbdimm_sim::DimmTraffic;

use crate::sim::characterize::{CharPoint, CharStoreKey, ModeKey};

/// Version of the on-disk format; bump on any incompatible layout change.
pub(crate) const FORMAT_VERSION: u64 = 2;

/// Format name written into (and required of) the header line.
const FORMAT_NAME: &str = "memtherm-char-cache";

/// Entry cap: a load that finds more unique entries evicts the oldest lines
/// down to this bound and rewrites the file.
const ENTRY_CAP: usize = 262_144;

/// The header line the cache file starts with.
fn header_line() -> String {
    format!("{{\"format\": \"{FORMAT_NAME}\", \"version\": {FORMAT_VERSION}}}\n")
}

/// Append-only disk backing of a characterization store: one JSONL file,
/// its advisory lock sibling and a lazily opened append handle.
#[derive(Debug)]
pub(crate) struct DiskCache {
    path: PathBuf,
    /// Sibling lock file serializing appends across processes.
    lock_path: PathBuf,
    /// Open append handle; `None` until the first append. The flag records
    /// whether the existing file must be rewritten (missing or invalidated).
    writer: Mutex<(Option<File>, bool)>,
}

/// Held advisory lock: the `.lock` file exists while the guard lives and is
/// removed on drop (including unwinds).
#[derive(Debug)]
struct PathLock {
    path: PathBuf,
}

impl Drop for PathLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// How long a lock file may sit unmodified before it is considered
/// abandoned by a crashed holder and broken.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(10);

/// Retry budget for acquiring the lock before proceeding unlocked.
const LOCK_RETRY_BUDGET: Duration = Duration::from_secs(2);

/// Acquires an advisory cross-process lock at `path` via `create_new`
/// (`O_EXCL`): only one process can create the file, everyone else retries
/// in a short sleep loop. Returns `None` when the budget runs out or the
/// filesystem rejects lock files entirely — callers degrade to unlocked
/// operation rather than failing.
fn acquire_path_lock(path: &Path) -> Option<PathLock> {
    let deadline = Instant::now() + LOCK_RETRY_BUDGET;
    loop {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut file) => {
                // Best effort breadcrumb for humans inspecting a stuck lock.
                let _ = writeln!(file, "{}", std::process::id());
                return Some(PathLock { path: path.to_path_buf() });
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                let stale = std::fs::metadata(path)
                    .ok()
                    .and_then(|m| m.modified().ok())
                    .and_then(|m| m.elapsed().ok())
                    .is_some_and(|age| age > LOCK_STALE_AFTER);
                if stale {
                    // The holder died. Only one breaker may win: atomically
                    // rename the stale lock aside before deleting it, so a
                    // second breaker cannot remove the lock a successful
                    // breaker has already re-created (which would let two
                    // processes hold it at once). Losers fall through and
                    // re-enter the `create_new` race.
                    let aside = path.with_extension(format!("stale.{}", std::process::id()));
                    if std::fs::rename(path, &aside).is_ok() {
                        let _ = std::fs::remove_file(&aside);
                    }
                    continue;
                }
                if Instant::now() >= deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return None,
        }
    }
}

impl DiskCache {
    /// Opens the cache file at `path` and loads every valid entry.
    ///
    /// A missing file yields no entries; a file whose header mismatches
    /// (older or newer format version) discards its contents and schedules
    /// the file to be rewritten on the first append.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub(crate) fn open(path: impl AsRef<Path>) -> std::io::Result<(Self, Vec<(CharStoreKey, CharPoint)>)> {
        Self::open_capped(path.as_ref(), ENTRY_CAP)
    }

    /// [`DiskCache::open`] with an explicit entry cap: a file holding more
    /// than `cap` unique entries after dedup is rewritten with only the
    /// newest `cap` lines kept (oldest evicted first).
    fn open_capped(path: &Path, cap: usize) -> std::io::Result<(Self, Vec<(CharStoreKey, CharPoint)>)> {
        let lock_path = lock_path_for(path);
        let (entries, must_reset) = match std::fs::read_to_string(path) {
            Ok(body) => {
                let mut lines = body.lines();
                if lines.next().map(header_is_current) == Some(true) {
                    let raw: Vec<(CharStoreKey, CharPoint)> = lines.filter_map(parse_entry).collect();
                    (compact_on_load(path, &lock_path, raw, cap), false)
                } else {
                    (Vec::new(), true)
                }
            }
            Err(e) if e.kind() == ErrorKind::NotFound => (Vec::new(), true),
            Err(e) => return Err(e),
        };
        let cache = DiskCache { path: path.to_path_buf(), lock_path, writer: Mutex::new((None, must_reset)) };
        Ok((cache, entries))
    }

    /// Appends one computed entry, holding the cross-process advisory lock
    /// around the write (and around the lazy header initialization, so two
    /// processes racing to create the file cannot clobber each other's
    /// entries). I/O failures are swallowed: the disk cache is an
    /// accelerator, and a read-only or full filesystem must not break the
    /// simulation that produced the point.
    pub(crate) fn append(&self, key: &CharStoreKey, point: &CharPoint) {
        let line = serialize_entry(key, point);
        let mut writer = self.writer.lock().expect("disk cache writer poisoned");
        // Degrading to an unlocked append on timeout is deliberate (see the
        // module docs): a wedged lock must not stall the simulation.
        let _lock = acquire_path_lock(&self.lock_path);
        if writer.0.is_none() {
            let mut truncate = writer.1;
            if truncate {
                // The file was missing or invalid when *we* loaded, but
                // another process may have created a valid cache since;
                // re-check under the lock instead of truncating its entries.
                if let Ok(body) = std::fs::read_to_string(&self.path) {
                    if body.lines().next().map(header_is_current) == Some(true) {
                        truncate = false;
                    }
                }
            }
            if truncate {
                // Rewrite the header through a scoped handle; the persistent
                // handle below is opened in append mode so a concurrent
                // process's lines can never be overwritten at a stale offset.
                let rewritten = OpenOptions::new()
                    .create(true)
                    .write(true)
                    .truncate(true)
                    .open(&self.path)
                    .and_then(|mut f| f.write_all(header_line().as_bytes()));
                if rewritten.is_err() {
                    // The reset stays scheduled: a later append retries.
                    return;
                }
            }
            let file = OpenOptions::new().create(true).read(true).append(true).open(&self.path);
            let mut file = match file {
                Ok(f) => f,
                // The reset stays scheduled: a later append retries the open.
                Err(_) => return,
            };
            let len = file.metadata().map(|m| m.len()).unwrap_or(0);
            if len == 0 {
                if file.write_all(header_line().as_bytes()).is_err() {
                    return;
                }
            } else if !truncate {
                // A previous process may have died mid-append, leaving a torn
                // tail without a newline; terminate it so the next entry
                // starts on its own line (the torn line alone is skipped on
                // load, as documented).
                let mut tail = [0u8; 1];
                let ends_with_newline = std::io::Seek::seek(&mut file, std::io::SeekFrom::End(-1))
                    .and_then(|_| std::io::Read::read_exact(&mut file, &mut tail))
                    .map(|()| tail[0] == b'\n')
                    .unwrap_or(true);
                if std::io::Seek::seek(&mut file, std::io::SeekFrom::End(0)).is_err() {
                    return;
                }
                if !ends_with_newline && file.write_all(b"\n").is_err() {
                    return;
                }
            }
            writer.1 = false;
            writer.0 = Some(file);
        }
        if let Some(file) = writer.0.as_mut() {
            let _ = file.write_all(line.as_bytes());
        }
    }
}

/// Minimum number of dead (superseded-duplicate) lines before a load
/// rewrites the file, and the dead fraction (dead ≥ total/4) that must be
/// reached alongside it. Concurrent appenders from different processes
/// routinely persist the same key twice; compaction keeps the file from
/// growing without bound across warm-cache runs.
const COMPACT_MIN_DEAD: usize = 8;

/// Deduplicates the loaded entries (first occurrence wins, matching the
/// in-memory store's first-write-wins semantics), evicts the oldest lines
/// beyond the entry cap, and — when enough dead lines have accumulated or
/// an eviction happened — rewrites the file through a temporary sibling
/// renamed into place under its cross-process advisory lock.
///
/// The rewrite is best-effort on two counts: failing to take the lock (or
/// any I/O error) simply skips compaction until a later load, and a
/// concurrent process holding an already-open append handle keeps writing
/// to the replaced inode — those appends are lost, which the cache
/// tolerates by construction (the points are recomputed and re-appended on
/// the next cold hit).
fn compact_on_load(
    path: &Path,
    lock_path: &Path,
    raw: Vec<(CharStoreKey, CharPoint)>,
    cap: usize,
) -> Vec<(CharStoreKey, CharPoint)> {
    let total = raw.len();
    let mut seen = std::collections::HashSet::with_capacity(total);
    let mut entries: Vec<(CharStoreKey, CharPoint)> = Vec::with_capacity(total);
    for (key, point) in raw {
        if seen.insert(key.clone()) {
            entries.push((key, point));
        }
    }
    let dead = total - entries.len();
    // Cap eviction drops the oldest surviving lines first: `entries` is in
    // file order, so the front is the oldest.
    let evicted = entries.len().saturating_sub(cap.max(1));
    if evicted > 0 {
        entries.drain(..evicted);
    }
    if evicted > 0 || (dead >= COMPACT_MIN_DEAD && dead * 4 >= total) {
        if let Some(_lock) = acquire_path_lock(lock_path) {
            let tmp = path.with_extension(format!("compact.{}", std::process::id()));
            let mut body = header_line();
            for (key, point) in &entries {
                body.push_str(&serialize_entry(key, point));
            }
            let rewritten = std::fs::write(&tmp, body).and_then(|()| std::fs::rename(&tmp, path));
            if rewritten.is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }
    entries
}

/// The sibling lock-file path of a cache file (`<path>.lock`).
fn lock_path_for(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".lock");
    path.with_file_name(name)
}

fn header_is_current(line: &str) -> bool {
    let Some(header) = Json::parse(line) else { return false };
    header.get("format").and_then(Json::as_str) == Some(FORMAT_NAME)
        && header.get("version").and_then(Json::as_u64) == Some(FORMAT_VERSION)
}

/// Formats an `f64` so that parsing the text reproduces the exact bits
/// (Rust's `{:?}` emits the shortest round-trip decimal form).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "inf".to_string()
    } else {
        "-inf".to_string()
    }
}

/// Escapes `s` for use inside a JSON string literal: quote, backslash and
/// the `\n`/`\r`/`\t` short forms, `\u00XX` for every other control
/// character, everything else verbatim.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn serialize_entry(key: &CharStoreKey, point: &CharPoint) -> String {
    let core_share: Vec<String> = point.core_share.iter().map(|&s| fmt_f64(s)).collect();
    let dimms: Vec<String> = point
        .dimm_traffic
        .iter()
        .map(|d| {
            format!(
                "[{}, {}, {}, {}, {}]",
                d.channel,
                d.dimm,
                fmt_f64(d.local_gbps),
                fmt_f64(d.bypass_gbps),
                fmt_f64(d.read_fraction)
            )
        })
        .collect();
    let cap = match point.mode.bandwidth_cap {
        None => "null".to_string(),
        Some(c) => fmt_f64(c),
    };
    format!(
        concat!(
            "{{\"key\": {{\"mix\": \"{}\", \"cores\": {}, \"freq_mhz\": {}, \"cap_mbps\": {}, \"budget\": {}, ",
            "\"channels\": {}, \"dimms_per_channel\": {}, \"hw\": {}}}, ",
            "\"point\": {{\"active_cores\": {}, \"freq_ghz\": {}, \"voltage\": {}, \"cap\": {}, ",
            "\"instr_rate\": {}, \"core_share\": [{}], \"read_gbps\": {}, \"write_gbps\": {}, ",
            "\"dimms\": [{}], \"ipc_ref_sum\": {}, \"l2_miss_rate\": {}, \"l2_mpi\": {}, \"bpi\": {}, \"peak\": {}}}}}\n"
        ),
        escape_json(&key.mix_id),
        key.mode.active_cores,
        key.mode.freq_mhz,
        key.mode.cap_mbps,
        key.budget,
        key.channels,
        key.dimms_per_channel,
        key.hw_fingerprint,
        point.mode.active_cores,
        fmt_f64(point.mode.op.freq_ghz),
        fmt_f64(point.mode.op.voltage),
        cap,
        fmt_f64(point.instr_rate_total),
        core_share.join(", "),
        fmt_f64(point.read_gbps),
        fmt_f64(point.write_gbps),
        dimms.join(", "),
        fmt_f64(point.ipc_ref_sum),
        fmt_f64(point.l2_miss_rate),
        fmt_f64(point.l2_misses_per_instr),
        fmt_f64(point.bytes_per_instr),
        point.peak_window_activations,
    )
}

fn parse_entry(line: &str) -> Option<(CharStoreKey, CharPoint)> {
    let entry = Json::parse(line)?;
    let key = entry.get("key")?;
    let point = key_sibling_point(&entry)?;
    let key = CharStoreKey {
        mix_id: key.get("mix")?.as_str()?.to_string(),
        mode: ModeKey {
            active_cores: key.get("cores")?.as_u64()? as usize,
            // Checked narrowing: an out-of-range value is a malformed line,
            // never a wrapped-around (and so wrong) key.
            freq_mhz: u32::try_from(key.get("freq_mhz")?.as_u64()?).ok()?,
            cap_mbps: u32::try_from(key.get("cap_mbps")?.as_u64()?).ok()?,
        },
        budget: key.get("budget")?.as_u64()?,
        channels: key.get("channels")?.as_u64()? as usize,
        dimms_per_channel: key.get("dimms_per_channel")?.as_u64()? as usize,
        hw_fingerprint: key.get("hw")?.as_u64()?,
    };
    Some((key, point))
}

fn key_sibling_point(entry: &Json) -> Option<CharPoint> {
    let p = entry.get("point")?;
    let cap = match p.get("cap")? {
        Json::Null => None,
        other => Some(other.as_f64()?),
    };
    let core_share = p.get("core_share")?.as_arr()?.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>()?;
    let mut dimm_traffic = Vec::new();
    for d in p.get("dimms")?.as_arr()? {
        let d = d.as_arr()?;
        if d.len() != 5 {
            return None;
        }
        dimm_traffic.push(DimmTraffic {
            channel: d[0].as_u64()? as usize,
            dimm: d[1].as_u64()? as usize,
            local_gbps: d[2].as_f64()?,
            bypass_gbps: d[3].as_f64()?,
            read_fraction: d[4].as_f64()?,
        });
    }
    Some(CharPoint {
        mode: RunningMode {
            active_cores: p.get("active_cores")?.as_u64()? as usize,
            op: OperatingPoint::new(p.get("freq_ghz")?.as_f64()?, p.get("voltage")?.as_f64()?),
            bandwidth_cap: cap,
        },
        instr_rate_total: p.get("instr_rate")?.as_f64()?,
        core_share,
        read_gbps: p.get("read_gbps")?.as_f64()?,
        write_gbps: p.get("write_gbps")?.as_f64()?,
        dimm_traffic,
        ipc_ref_sum: p.get("ipc_ref_sum")?.as_f64()?,
        l2_miss_rate: p.get("l2_miss_rate")?.as_f64()?,
        l2_misses_per_instr: p.get("l2_mpi")?.as_f64()?,
        bytes_per_instr: p.get("bpi")?.as_f64()?,
        peak_window_activations: p.get("peak")?.as_u64()?,
    })
}

/// Minimal JSON value: numbers keep their raw text so integers round-trip at
/// full `u64` precision and floats at full bit precision.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(input: &str) -> Option<Json> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => parse_object(bytes, pos),
        b'[' => parse_array(bytes, pos),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b't' => parse_literal(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_literal(bytes, pos, "null", Json::Null),
        _ => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Option<Json> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    // Accept the JSON number grammar plus the non-standard NaN/inf forms the
    // writer may emit; `f64::from_str` understands all of them.
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'N' | b'a' | b'i' | b'n' | b'f')
    {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    Some(Json::Num(std::str::from_utf8(&bytes[start..*pos]).ok()?.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos)? == &b']' {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos)? == &b'}' {
        *pos += 1;
        return Some(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos)? != &b'"' {
            return None;
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos)? != &b':' {
            return None;
        }
        *pos += 1;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_point() -> CharPoint {
        CharPoint {
            mode: RunningMode {
                active_cores: 4,
                op: OperatingPoint::new(3.2, 1.55),
                bandwidth_cap: Some(6.4e9 + 0.123456789),
            },
            instr_rate_total: 1.234567890123e9,
            core_share: vec![0.25, 0.3, 0.0, 0.45],
            read_gbps: 11.31177245,
            write_gbps: 0.0,
            dimm_traffic: vec![
                DimmTraffic { channel: 0, dimm: 0, local_gbps: 0.71, bypass_gbps: 2.13, read_fraction: 1.0 },
                DimmTraffic { channel: 1, dimm: 3, local_gbps: 0.69, bypass_gbps: 0.0, read_fraction: 0.875 },
            ],
            ipc_ref_sum: 0.3333333333333333,
            l2_miss_rate: 0.7182818284590452,
            l2_misses_per_instr: 0.0141421356,
            bytes_per_instr: 9.869604401,
            peak_window_activations: 1_729,
        }
    }

    fn sample_key() -> CharStoreKey {
        CharStoreKey {
            mix_id: "W1 \"quoted\"\n".to_string(),
            mode: ModeKey { active_cores: 4, freq_mhz: 3200, cap_mbps: u32::MAX },
            budget: 120_000,
            channels: 2,
            dimms_per_channel: 4,
            hw_fingerprint: u64::MAX - 12345,
        }
    }

    #[test]
    fn entry_round_trips_bit_exactly() {
        let (key, point) = (sample_key(), sample_point());
        let line = serialize_entry(&key, &point);
        let (k2, p2) = parse_entry(line.trim_end()).expect("entry parses");
        assert_eq!(key, k2, "key round-trip (incl. full-precision u64 fingerprint)");
        assert_eq!(point, p2, "point round-trip must be bit-identical");
    }

    #[test]
    fn nan_and_infinity_round_trip() {
        let mut point = sample_point();
        point.bytes_per_instr = f64::INFINITY;
        point.ipc_ref_sum = f64::NEG_INFINITY;
        point.l2_miss_rate = f64::NAN;
        let line = serialize_entry(&sample_key(), &point);
        let (_, p2) = parse_entry(line.trim_end()).expect("entry parses");
        assert!(p2.bytes_per_instr.is_infinite() && p2.bytes_per_instr > 0.0);
        assert!(p2.ipc_ref_sum.is_infinite() && p2.ipc_ref_sum < 0.0);
        assert!(p2.l2_miss_rate.is_nan(), "NaN reloads as NaN");
    }

    #[test]
    fn malformed_lines_are_skipped() {
        assert!(parse_entry("").is_none());
        assert!(parse_entry("{\"key\": {}}").is_none());
        assert!(parse_entry("{\"key\": {\"mix\": \"W1\"}, \"point\": 3}").is_none());
        assert!(parse_entry("{ truncated").is_none());
        // Key fields past `u32::MAX` are malformed, not wrapped: 2^32 + 3200
        // must not load as the 3200 MHz key, nor 2^32 as a 0 MB/s cap.
        let valid = serialize_entry(&sample_key(), &sample_point());
        for (field, out_of_range) in [("\"freq_mhz\": 3200", "4294970496"), ("\"cap_mbps\": 4294967295", "4294967296")]
        {
            assert!(valid.contains(field), "sample line carries {field}");
            let name = field.split(':').next().unwrap();
            let line = valid.replace(field, &format!("{name}: {out_of_range}"));
            assert!(parse_entry(line.trim_end()).is_none(), "{name} {out_of_range} is skipped");
        }
    }

    /// A key distinct from `of` (one larger budget).
    fn next_key(of: &CharStoreKey) -> CharStoreKey {
        CharStoreKey { budget: of.budget + 1, ..of.clone() }
    }

    /// Removes a test cache file and its lock sibling.
    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(lock_path_for(path));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn append_after_torn_tail_starts_a_fresh_line() {
        let path = temp_path("torn_tail");
        // A valid header + one valid entry + a torn (newline-less) tail.
        let key = sample_key();
        let valid = serialize_entry(&key, &sample_point());
        std::fs::write(&path, format!("{}{valid}{{\"key\": {{\"mix", header_line())).unwrap();
        let (cache, entries) = DiskCache::open(&path).unwrap();
        assert_eq!(entries.len(), 1, "torn tail is skipped, valid entry loads");
        cache.append(&next_key(&key), &sample_point());
        drop(cache);
        // The appended entry must not have merged into the torn line.
        let (_, entries) = DiskCache::open(&path).unwrap();
        assert_eq!(entries.len(), 2, "appended entry survives a torn predecessor");
        cleanup(&path);
    }

    #[test]
    fn path_lock_excludes_while_held_and_releases_on_drop() {
        let path = std::env::temp_dir().join(format!("diskcache_lock_{}.lock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let guard = acquire_path_lock(&path).expect("first acquire succeeds");
        // `create_new` semantics: nobody else can create the file while the
        // guard lives (this is what a second process's acquire loop hits).
        assert!(OpenOptions::new().write(true).create_new(true).open(&path).is_err());
        drop(guard);
        assert!(!path.exists(), "the lock file is removed on release");
        let guard = acquire_path_lock(&path).expect("re-acquire after release");
        drop(guard);
    }

    #[test]
    fn lock_path_is_a_sibling_of_the_cache_file() {
        assert_eq!(lock_path_for(Path::new("/tmp/cache.jsonl")), Path::new("/tmp/cache.jsonl.lock"));
        assert_eq!(lock_path_for(Path::new("cache.jsonl")), Path::new("cache.jsonl.lock"));
    }

    #[test]
    fn racing_header_initialization_does_not_clobber_a_foreign_writers_entries() {
        // The cross-process init race: two caches open the same missing
        // file, the second to append must detect the now-valid header under
        // the lock and append instead of truncating the first's entries.
        let path = temp_path("init_race");
        let (a, entries) = DiskCache::open(&path).unwrap();
        assert!(entries.is_empty());
        let (b, _) = DiskCache::open(&path).unwrap();
        let key = sample_key();
        b.append(&key, &sample_point());
        a.append(&next_key(&key), &sample_point());
        let (_, entries) = DiskCache::open(&path).unwrap();
        assert_eq!(entries.len(), 2, "both writers' entries survive the init race");
        cleanup(&path);
    }

    fn temp_path(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("diskcache_{}_{}.jsonl", tag, std::process::id()));
        cleanup(&path);
        path
    }

    #[test]
    fn load_compacts_duplicate_riddled_files_keeping_the_first_write() {
        let path = temp_path("compact");
        let mut body = header_line();
        // Nine duplicates of one key (the first carries a distinguishable
        // point) plus three unique keys: 12 entries, 9 dead — over the
        // threshold.
        let mut first = sample_point();
        first.read_gbps = 42.0;
        body.push_str(&serialize_entry(&sample_key(), &first));
        for _ in 0..8 {
            body.push_str(&serialize_entry(&sample_key(), &sample_point()));
        }
        let mut key = sample_key();
        for _ in 1..=3u64 {
            key = next_key(&key);
            body.push_str(&serialize_entry(&key, &sample_point()));
        }
        std::fs::write(&path, body).unwrap();

        let (_, entries) = DiskCache::open(&path).unwrap();
        assert_eq!(entries.len(), 4, "duplicates are dropped from the loaded set");
        assert_eq!(entries[0].1.read_gbps, 42.0, "the FIRST write of a duplicated key wins");

        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten.lines().count(), 5, "the file is rewritten as header + 4 unique entries");
        let (_, reloaded) = DiskCache::open(&path).unwrap();
        assert_eq!(reloaded, entries, "the compacted file round-trips");
        cleanup(&path);
    }

    #[test]
    fn load_leaves_files_below_the_dead_line_threshold_untouched() {
        let path = temp_path("no_compact");
        let mut body = header_line();
        // Two duplicates only: deduplicated in memory, but far below the
        // rewrite threshold.
        for _ in 0..3 {
            body.push_str(&serialize_entry(&sample_key(), &sample_point()));
        }
        std::fs::write(&path, &body).unwrap();
        let (_, entries) = DiskCache::open(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), body, "no rewrite below the threshold");
        cleanup(&path);
    }

    #[test]
    fn a_capped_cache_stays_capped_across_reloads() {
        let path = temp_path("capped");
        const CAP: usize = 3;
        let (cache, _) = DiskCache::open_capped(&path, CAP).unwrap();
        let mut key = sample_key();
        for i in 0..40u64 {
            key.budget = i;
            cache.append(&key, &sample_point());
        }
        drop(cache);

        let (_, entries) = DiskCache::open_capped(&path, CAP).unwrap();
        let budgets: Vec<u64> = entries.iter().map(|(k, _)| k.budget).collect();
        assert_eq!(budgets, [37, 38, 39], "eviction drops the OLDEST lines — the newest {CAP} survive in order");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), CAP + 1, "the file is rewritten to header + {CAP} entries");
        // A further reload finds the file already within cap and keeps it
        // byte-identical.
        let (_, reloaded) = DiskCache::open_capped(&path, CAP).unwrap();
        assert_eq!(reloaded, entries, "a capped cache is stable across reloads");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), body, "no rewrite within the cap");
        cleanup(&path);
    }

    #[test]
    fn header_detection_requires_exact_format_and_version() {
        assert!(header_is_current(&format!("{{\"format\": \"{FORMAT_NAME}\", \"version\": {FORMAT_VERSION}}}")));
        assert!(!header_is_current(&format!("{{\"format\": \"{FORMAT_NAME}\", \"version\": {}}}", FORMAT_VERSION + 1)));
        assert!(!header_is_current("{\"format\": \"something-else\", \"version\": 1}"));
        assert!(!header_is_current("not json"));
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = Json::parse(r#"{"a": [1, 2.5, null, true, false], "b": {"c": "x\tyA"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\tyA"));
        assert!(Json::parse("[1, 2").is_none(), "unterminated array");
        assert!(Json::parse("{\"a\" 1}").is_none(), "missing colon");
        assert!(Json::parse("[] trailing").is_none(), "trailing garbage");
    }
}
