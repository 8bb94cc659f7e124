//! Output checks. Every failure found here is counted in the run's
//! `failed` field.
//!
//! * Sweep cells must be `completed` and agree with a literal
//!   (`BatchOptions::literal()`) reference of the same grid: every scalar,
//!   every position peak and every residency within [`REL_TOL`].
//! * Figure tables must match the reference tables kept in
//!   `perfbench/reference/`, numeric cells to within one unit of the last
//!   printed digit.

use experiments::ch4::MatrixRun;
use experiments::harness::Table;
use memtherm::prelude::*;

/// Relative tolerance of a fast-forwarded result against literal stepping
/// (the bound the analytic tiers certify).
pub const REL_TOL: f64 = 1e-9;

fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        0.0
    } else {
        (a - b).abs() / b.abs().max(1e-12)
    }
}

/// The first quantity where `got` leaves `want` by more than [`REL_TOL`]
/// (relative for scalars and temperatures, absolute for residency
/// fractions), or `None` when the results agree.
pub fn result_mismatch(got: &MemSpotResult, want: &MemSpotResult) -> Option<String> {
    if (&got.workload, &got.policy, &got.stack) != (&want.workload, &want.policy, &want.stack) {
        return Some(format!("cell identity {}/{}/{} vs {}", got.workload, got.policy, got.stack, want.workload));
    }
    if !got.completed {
        return Some("cell did not complete".to_string());
    }
    let scalars = [
        ("running_time_s", got.running_time_s, want.running_time_s),
        ("total_instructions", got.total_instructions, want.total_instructions),
        ("total_memory_bytes", got.total_memory_bytes, want.total_memory_bytes),
        ("total_l2_misses", got.total_l2_misses, want.total_l2_misses),
        ("memory_energy_j", got.memory_energy_j, want.memory_energy_j),
        ("cpu_energy_j", got.cpu_energy_j, want.cpu_energy_j),
        ("avg_memory_power_w", got.avg_memory_power_w, want.avg_memory_power_w),
        ("avg_cpu_power_w", got.avg_cpu_power_w, want.avg_cpu_power_w),
        ("avg_ambient_c", got.avg_ambient_c, want.avg_ambient_c),
        ("max_amb_c", got.max_amb_c, want.max_amb_c),
        ("max_dram_c", got.max_dram_c, want.max_dram_c),
        ("migrated_traffic_bytes", got.migrated_traffic_bytes, want.migrated_traffic_bytes),
    ];
    for (name, a, b) in scalars {
        if rel_diff(a, b) > REL_TOL {
            return Some(format!("{name} {a:?} vs literal {b:?}"));
        }
    }
    if got.position_peaks.len() != want.position_peaks.len() {
        return Some("position peak count differs".to_string());
    }
    for (g, w) in got.position_peaks.iter().zip(&want.position_peaks) {
        let pairs = [(g.max_amb_c, w.max_amb_c), (g.max_dram_c, w.max_dram_c)];
        let layers = g.layers_c.iter().copied().zip(w.layers_c.iter().copied());
        if g.layers_c.len() != w.layers_c.len()
            || pairs.into_iter().chain(layers).any(|(a, b)| rel_diff(a, b) > REL_TOL)
        {
            return Some(format!("peak of channel {} DIMM {} differs", g.channel, g.dimm));
        }
    }
    for key in got.mode_residency.keys().chain(want.mode_residency.keys()) {
        let a = got.mode_residency.get(key).copied().unwrap_or(0.0);
        let b = want.mode_residency.get(key).copied().unwrap_or(0.0);
        if (a - b).abs() > REL_TOL {
            return Some(format!("residency of {key}: {a:?} vs literal {b:?}"));
        }
    }
    if got.channel_throttle_residency.len() != want.channel_throttle_residency.len()
        || got
            .channel_throttle_residency
            .iter()
            .zip(&want.channel_throttle_residency)
            .any(|(a, b)| (a - b).abs() > REL_TOL)
    {
        return Some("channel throttle residency differs".to_string());
    }
    None
}

/// Checks one pass of a sweep against the literal reference of its grid and
/// returns one message per failed cell. A pass whose simulated window count
/// (`stepped + fast_forwarded`) differs from the literal count fails as a
/// whole, since the count is not kept per cell.
pub fn sweep_failures(runs: &[MatrixRun], windows: u64, reference: &[MatrixRun], literal_windows: u64) -> Vec<String> {
    if runs.len() != reference.len() {
        return vec![format!("{} cells vs {} in the reference", runs.len(), reference.len()); reference.len().max(1)];
    }
    if windows != literal_windows {
        return vec![format!("{windows} windows vs {literal_windows} literal"); runs.len()];
    }
    runs.iter()
        .zip(reference)
        .filter_map(|(got, want)| {
            result_mismatch(&got.result, &want.result)
                .map(|why| format!("{}/{}/{}: {why}", got.cooling, got.workload, got.policy))
        })
        .collect()
}

/// A reference table: the headers and rows of a figure as first printed.
#[derive(Debug, Clone, PartialEq)]
pub struct RefTable {
    /// Column headers.
    pub headers: Vec<String>,
    /// Printed rows.
    pub rows: Vec<Vec<String>>,
}

/// Serializes a table as tab-separated lines: the headers, then the rows.
pub fn to_tsv(table: &Table) -> String {
    let mut out = table.headers.join("\t");
    out.push('\n');
    for row in &table.rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out
}

/// Parses [`to_tsv`]'s output.
pub fn parse_tsv(text: &str) -> RefTable {
    let mut lines = text.lines().map(|l| l.split('\t').map(str::to_string).collect::<Vec<_>>());
    let headers = lines.next().unwrap_or_default();
    RefTable { headers, rows: lines.collect() }
}

/// Whether a printed cell matches the reference: numbers within one unit of
/// the reference's last printed digit, anything else exactly.
fn cell_matches(got: &str, want: &str) -> bool {
    match (got.parse::<f64>(), want.parse::<f64>()) {
        (Ok(g), Ok(w)) => {
            let decimals = want.split_once('.').map_or(0, |(_, frac)| frac.len()) as i32;
            (g.is_nan() && w.is_nan()) || (g - w).abs() <= 10f64.powi(-decimals) * (1.0 + 1e-9)
        }
        _ => got == want,
    }
}

/// The first difference between a figure table and its reference, or
/// `None` when they match.
pub fn table_mismatch(got: &Table, want: &RefTable) -> Option<String> {
    if got.headers != want.headers {
        return Some(format!("headers {:?} vs {:?}", got.headers, want.headers));
    }
    if got.rows.len() != want.rows.len() {
        return Some(format!("{} rows vs {} in the reference", got.rows.len(), want.rows.len()));
    }
    for (i, (g, w)) in got.rows.iter().zip(&want.rows).enumerate() {
        if g.len() != w.len() || g.iter().zip(w).any(|(a, b)| !cell_matches(a, b)) {
            return Some(format!("row {i}: {g:?} vs {w:?}"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn result() -> MemSpotResult {
        MemSpotResult {
            workload: "C1-0".to_string(),
            stack: "fbdimm".to_string(),
            policy: "DTM-TS".to_string(),
            scheme: DtmScheme::Ts,
            completed: true,
            running_time_s: 812.25,
            total_instructions: 3.5e12,
            total_memory_bytes: 9.0e12,
            total_l2_misses: 1.25e11,
            memory_energy_j: 5.0e4,
            cpu_energy_j: 2.0e5,
            avg_memory_power_w: 61.5,
            avg_cpu_power_w: 246.0,
            avg_ambient_c: 50.5,
            max_amb_c: 110.0,
            max_dram_c: 84.75,
            mode_residency: BTreeMap::from([("4@3.2".to_string(), 0.75), ("0@0.8".to_string(), 0.25)]),
            temp_trace: Vec::new(),
            position_peaks: vec![PositionPeak {
                channel: 0,
                dimm: 3,
                max_amb_c: 110.0,
                max_dram_c: 84.75,
                hottest_layer: 0,
                layers_c: vec![110.0, 84.75],
            }],
            channel_throttle_residency: vec![0.0; 4],
            migrated_traffic_bytes: 0.0,
        }
    }

    fn run(result: MemSpotResult) -> MatrixRun {
        MatrixRun {
            cooling: "AOHS_1.5".to_string(),
            workload: result.workload.clone(),
            policy: result.policy.clone(),
            result,
        }
    }

    #[test]
    fn identical_and_in_tolerance_results_pass() {
        assert_eq!(result_mismatch(&result(), &result()), None);
        let mut close = result();
        close.running_time_s *= 1.0 + 1e-12;
        close.mode_residency.insert("4@3.2".to_string(), 0.75 + 1e-12);
        assert_eq!(result_mismatch(&close, &result()), None);
    }

    #[test]
    fn a_perturbed_result_is_counted_as_failed() {
        let reference = vec![run(result()), run(result())];
        assert!(sweep_failures(&reference, 100, &reference, 100).is_empty());

        let mut perturbed = reference.clone();
        perturbed[1].result.max_dram_c += 1e-6;
        assert_eq!(sweep_failures(&perturbed, 100, &reference, 100).len(), 1);

        let mut peak = reference.clone();
        peak[0].result.position_peaks[0].layers_c[1] *= 1.0 + 1e-8;
        assert_eq!(sweep_failures(&peak, 100, &reference, 100).len(), 1);

        let mut residency = reference.clone();
        residency[0].result.mode_residency.insert("2@3.2".to_string(), 1e-6);
        assert_eq!(sweep_failures(&residency, 100, &reference, 100).len(), 1);

        let mut unfinished = reference.clone();
        unfinished[0].result.completed = false;
        assert_eq!(sweep_failures(&unfinished, 100, &reference, 100).len(), 1);

        // A lost or invented window fails every cell of the pass.
        assert_eq!(sweep_failures(&reference, 99, &reference, 100).len(), 2);
        assert_eq!(sweep_failures(&reference[..1], 100, &reference, 100).len(), 2);
    }

    #[test]
    fn tables_match_to_one_unit_of_the_last_printed_digit() {
        let mut table = Table::new("fig", "t", &["policy", "value", "count"]);
        table.push_row(["DTM-BW", "1.234", "7"]);
        let reference = parse_tsv(&to_tsv(&table));
        assert_eq!(table_mismatch(&table, &reference), None);

        let mut within = table.clone();
        within.rows[0][1] = "1.235".to_string();
        assert_eq!(table_mismatch(&within, &reference), None);

        let mut beyond = table.clone();
        beyond.rows[0][1] = "1.236".to_string();
        assert!(table_mismatch(&beyond, &reference).is_some());

        let mut label = table.clone();
        label.rows[0][0] = "DTM-ACG".to_string();
        assert!(table_mismatch(&label, &reference).is_some());

        let mut short = table.clone();
        short.rows.clear();
        assert!(table_mismatch(&short, &reference).is_some());
    }
}
