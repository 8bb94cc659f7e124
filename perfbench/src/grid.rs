//! Seeded grids of the two sweep workloads.
//!
//! `--seed` goes in and the whole grid comes out: the 4-app mixes, the
//! coolings, the device stacks and the policies. Mixes come in *shuffles*:
//! shuffle `id` is a Fisher-Yates shuffle of the 20 SPEC CPU2000 + CPU2006
//! applications seeded with `id`, cut into five mixes of four, so every
//! shuffle uses every application once. A grid is a few shuffles drawn by
//! the seed from its workload's pool, one from each stratum of the pool.
//!
//! A pool holds the shuffles of a fixed candidate range whose single-thread
//! pass cost lies closest to the median of the range, so the host time of a
//! pass varies little between seeds while the pairings, and so the thermal
//! behaviour of each mix, change with every seed. Every pooled shuffle also
//! ran to completion and matched its literal reference in every cell when
//! the pools were built: about one cell in 350 of a threshold policy at the
//! 10 ms cadence panics in the envelope tier's decision replay (an index one
//! past its run-length table), and a benchmark input must not fail on the
//! code it measures. `--rebuild-pool <sweep>` screens and costs the
//! candidate range again and prints the new pool constant.

use std::ops::Range;

use experiments::ch4::PolicySpec;
use experiments::sweep::SweepScenario;
use memtherm::prelude::*;
use workloads::rng::SmallRng;
use workloads::AppBehavior;

use crate::json;

/// Applications per mix: one per core of the paper's quad-core processor.
const MIX_WIDTH: usize = 4;

/// Cadence of the paper's DTM decisions, seconds.
pub const PAPER_CADENCE_S: f64 = 0.010;

/// Shuffles per `cadence_sweep` grid (150 cells).
pub const CADENCE_SHUFFLES: usize = 3;

/// Shuffles per `design_sweep` grid (105 cells).
pub const DESIGN_SHUFFLES: usize = 1;

/// Shuffles kept in [`CADENCE_POOL`].
pub const CADENCE_POOL_SIZE: usize = 24;

/// Shuffles kept in [`DESIGN_POOL`].
pub const DESIGN_POOL_SIZE: usize = 8;

/// Worker threads of a sweep pass. On one, a pass costs the sum of its
/// cells, which the pools balance across seeds; on two, a few heavy cells
/// set a critical path that changes with the grid, and a pass that holds
/// every core of a shared host is slowed by any other tenant.
pub const SWEEP_THREADS: usize = 1;

/// Candidate shuffles of the `cadence_sweep` pool.
pub const CADENCE_CANDIDATES: Range<u64> = 0..72;

/// Candidate shuffles of the `design_sweep` pool, disjoint from
/// [`CADENCE_CANDIDATES`].
pub const DESIGN_CANDIDATES: Range<u64> = 1000..1048;

/// The [`CADENCE_POOL_SIZE`] `cadence_sweep` shuffles of
/// [`CADENCE_CANDIDATES`] that pass screening and cost closest to the
/// median, cheapest first, as `--rebuild-pool` prints them. When built, 66
/// of the 72 candidates passed, costing 0.86-4.70 s with a median of
/// 1.98 s; the pool spans 1.71-2.28 s.
#[rustfmt::skip]
pub const CADENCE_POOL: &[u64] = &[
    51, 26, 23, 32, 33, 62, 69, 53, 14, 5, 66, 44, 20, 1, 3, 15, 12, 29, 19, 60, 47, 43, 59, 49,
];

/// The [`DESIGN_POOL_SIZE`] `design_sweep` shuffles of
/// [`DESIGN_CANDIDATES`] that pass screening and cost closest to the
/// median, cheapest first, as `--rebuild-pool` prints them. When built, all
/// 48 candidates passed, costing 4.73-11.63 s with a median of 8.30 s; the
/// pool spans 8.18-8.59 s. A grid holds one shuffle, so the pool is kept
/// narrower than [`CADENCE_POOL`], whose grids add three.
#[rustfmt::skip]
pub const DESIGN_POOL: &[u64] = &[1036, 1041, 1022, 1032, 1028, 1009, 1011, 1007];

/// The pool mixes are drawn from: the 12 CPU2000 and 8 CPU2006 models.
fn spec_apps() -> Vec<AppBehavior> {
    let mut apps = workloads::spec2000::all();
    apps.extend(workloads::spec2006::all());
    apps
}

/// The five mixes of shuffle `id`, named `S<id>-<j>`.
pub fn shuffle_mixes(id: u64) -> Vec<WorkloadMix> {
    let pool = spec_apps();
    let mut rng = SmallRng::seed_from_u64(id);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for k in (1..order.len()).rev() {
        let j = rng.gen_range(0..(k as u64 + 1)) as usize;
        order.swap(k, j);
    }
    order
        .chunks(MIX_WIDTH)
        .enumerate()
        .map(|(j, apps)| WorkloadMix::new(format!("S{id}-{j}"), apps.iter().map(|&a| pool[a].clone()).collect()))
        .collect()
}

/// Draws `k` shuffle ids with a generator seeded by `seed`: `pool`, which
/// is ordered by cost, is cut into `k` contiguous strata and one id is drawn
/// from each, so every grid holds one cheap shuffle, one dear one and the
/// ranks between.
fn draw_stratified(seed: u64, pool: &[u64], k: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let per = pool.len().div_ceil(k.max(1)).max(1);
    pool.chunks(per).map(|stratum| stratum[rng.gen_range(0..stratum.len() as u64) as usize]).collect()
}

/// One seeded sweep grid.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Workload name the grid belongs to.
    pub workload: &'static str,
    /// Seed the grid was drawn from.
    pub seed: u64,
    /// The shuffles whose mixes the grid runs.
    pub shuffles: Vec<u64>,
    /// The scenarios, each one mix under one cooling and stack.
    pub scenarios: Vec<SweepScenario>,
}

impl Grid {
    /// Number of MEMSpot cells (scenario × policy).
    pub fn cells(&self) -> usize {
        self.scenarios.iter().map(SweepScenario::cells).sum()
    }

    /// The distinct mixes, in grid order.
    pub fn mixes(&self) -> Vec<&WorkloadMix> {
        let mut out: Vec<&WorkloadMix> = Vec::new();
        for s in &self.scenarios {
            if !out.iter().any(|m| m.id == s.mix.id) {
                out.push(&s.mix);
            }
        }
        out
    }

    /// The grid cut into one grid per mix, in grid order.
    pub fn by_mix(&self) -> Vec<Grid> {
        self.mixes()
            .iter()
            .map(|mix| Grid {
                workload: self.workload,
                seed: self.seed,
                shuffles: self.shuffles.clone(),
                scenarios: self.scenarios.iter().filter(|s| s.mix.id == mix.id).cloned().collect(),
            })
            .collect()
    }

    /// JSON record of the grid: mixes with their applications, and the
    /// coolings, stacks and policies each scenario runs.
    pub fn to_json(&self) -> String {
        let cpu = CpuConfig::paper_quad_core();
        let limits = ThermalLimits::paper_fbdimm();
        let mixes: Vec<String> = self
            .mixes()
            .iter()
            .map(|m| {
                json::object([
                    ("id", json::string(&m.id)),
                    ("apps", json::array(m.apps.iter().map(|a| json::string(a.name)))),
                ])
            })
            .collect();
        let scenarios: Vec<String> = self
            .scenarios
            .iter()
            .map(|s| {
                let policies: Vec<String> =
                    s.specs.iter().map(|p| json::string(&p.build(&cpu, limits).name())).collect();
                format!(
                    "{{\"mix\": {}, \"cooling\": {}, \"stack\": {}, \"cadence_s\": {}, \"policies\": [{}]}}",
                    json::string(&s.mix.id),
                    json::string(&s.cooling.label()),
                    json::string(&s.stack.label()),
                    s.dtm_interval_s.map_or("null".to_string(), json::number),
                    policies.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"shuffles\": {:?}, \"threads\": {}, \"cells\": {}, \"mixes\": [{}], \"scenarios\": [{}]}}",
            json::string(self.workload),
            self.seed,
            self.shuffles,
            SWEEP_THREADS,
            self.cells(),
            mixes.join(", "),
            scenarios.join(", ")
        )
    }
}

/// The `cadence_sweep` grid of the given shuffles: their mixes ×
/// {AOHS_1.5, FDHS_1.0} × {No-limit, DTM-TS, DTM-BW, DTM-ACG, DTM-CDVFS},
/// all at the paper's 10 ms cadence.
pub fn cadence_grid_of(seed: u64, shuffles: &[u64]) -> Grid {
    let specs = vec![
        PolicySpec::NoLimit,
        PolicySpec::Ts,
        PolicySpec::Bw { pid: false },
        PolicySpec::Acg { pid: false },
        PolicySpec::Cdvfs { pid: false },
    ];
    let mut scenarios = Vec::new();
    for mix in shuffles.iter().flat_map(|&id| shuffle_mixes(id)) {
        for cooling in [CoolingConfig::aohs_1_5(), CoolingConfig::fdhs_1_0()] {
            scenarios.push(SweepScenario::isolated(cooling, mix.clone(), specs.clone()).with_cadence(PAPER_CADENCE_S));
        }
    }
    Grid { workload: "cadence_sweep", seed, shuffles: shuffles.to_vec(), scenarios }
}

/// The `cadence_sweep` grid of `seed`: [`CADENCE_SHUFFLES`] shuffles drawn
/// from [`CADENCE_POOL`], one per stratum.
pub fn cadence_grid(seed: u64) -> Grid {
    cadence_grid_of(seed, &draw_stratified(seed, CADENCE_POOL, CADENCE_SHUFFLES))
}

/// The `design_sweep` grid of the given shuffles: their mixes under
/// AOHS_1.5 × {FBDIMM, rank pair, 4-high 3D stack} × {No-limit, DTM-TS,
/// DTM-BW+PID, DTM-ACG+PID, DTM-CDVFS+PID, DTM-CBW, DTM-MIG}, at the default
/// cadence.
pub fn design_grid_of(seed: u64, shuffles: &[u64]) -> Grid {
    let specs = vec![
        PolicySpec::NoLimit,
        PolicySpec::Ts,
        PolicySpec::Bw { pid: true },
        PolicySpec::Acg { pid: true },
        PolicySpec::Cdvfs { pid: true },
        PolicySpec::Cbw { pid: false },
        PolicySpec::Mig,
    ];
    let mut scenarios = Vec::new();
    for mix in shuffles.iter().flat_map(|&id| shuffle_mixes(id)) {
        for stack in [StackKind::Fbdimm, StackKind::RankPair, StackKind::stacked4()] {
            scenarios.push(SweepScenario::stacked(CoolingConfig::aohs_1_5(), stack, mix.clone(), specs.clone()));
        }
    }
    Grid { workload: "design_sweep", seed, shuffles: shuffles.to_vec(), scenarios }
}

/// The `design_sweep` grid of `seed`: [`DESIGN_SHUFFLES`] shuffles drawn
/// from [`DESIGN_POOL`], one per stratum.
pub fn design_grid(seed: u64) -> Grid {
    design_grid_of(seed, &draw_stratified(seed, DESIGN_POOL, DESIGN_SHUFFLES))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app_names(grid: &Grid) -> Vec<Vec<&'static str>> {
        grid.mixes().iter().map(|m| m.apps.iter().map(|a| a.name).collect()).collect()
    }

    #[test]
    fn one_seed_always_yields_the_same_grid() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(cadence_grid(seed).to_json(), cadence_grid(seed).to_json());
            assert_eq!(design_grid(seed).to_json(), design_grid(seed).to_json());
        }
    }

    #[test]
    fn two_seeds_yield_different_mixes() {
        assert_ne!(app_names(&cadence_grid(1)), app_names(&cadence_grid(2)));
        assert_ne!(app_names(&design_grid(1)), app_names(&design_grid(2)));
    }

    #[test]
    fn pools_lie_in_their_disjoint_candidate_ranges() {
        assert!(CADENCE_POOL.iter().all(|id| CADENCE_CANDIDATES.contains(id)));
        assert!(DESIGN_POOL.iter().all(|id| DESIGN_CANDIDATES.contains(id)));
        assert!(CADENCE_CANDIDATES.end <= DESIGN_CANDIDATES.start);
    }

    #[test]
    fn a_shuffle_holds_five_mixes_covering_the_20_apps_once() {
        let mixes = shuffle_mixes(9);
        assert_eq!(mixes.len(), 5);
        assert!(mixes.iter().all(|m| m.apps.len() == MIX_WIDTH));
        let mut all: Vec<&str> = mixes.iter().flat_map(|m| m.apps.iter().map(|a| a.name)).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 20);
        assert_ne!(shuffle_mixes(9)[0].apps, shuffle_mixes(10)[0].apps);
    }

    #[test]
    fn seeds_draw_one_shuffle_per_stratum() {
        for seed in 0..50 {
            let grid = cadence_grid(seed);
            // One shuffle from each stratum of the cost-ordered pool.
            let ranks: Vec<usize> =
                grid.shuffles.iter().map(|id| CADENCE_POOL.iter().position(|p| p == id).expect("pooled")).collect();
            let per = CADENCE_POOL.len().div_ceil(CADENCE_SHUFFLES);
            assert_eq!(ranks.iter().map(|r| r / per).collect::<Vec<_>>(), (0..CADENCE_SHUFFLES).collect::<Vec<_>>());
            assert!(design_grid(seed).shuffles.iter().all(|id| DESIGN_POOL.contains(id)));
        }
    }

    #[test]
    fn grids_have_the_documented_shape() {
        let cadence = cadence_grid(3);
        assert_eq!(cadence.cells(), CADENCE_SHUFFLES * 5 * 2 * 5);
        assert!(cadence.scenarios.iter().all(|s| s.dtm_interval_s == Some(PAPER_CADENCE_S)));
        let design = design_grid(3);
        assert_eq!(design.cells(), DESIGN_SHUFFLES * 5 * 3 * 7);
        // The per-mix units, run in order, cover the grid's scenarios in
        // grid order.
        let label = |s: &SweepScenario| format!("{}/{}", s.mix.id, s.stack.label());
        let units = design.by_mix();
        assert_eq!(units.len(), design.mixes().len());
        let rejoined: Vec<String> = units.iter().flat_map(|u| u.scenarios.iter().map(label)).collect();
        assert_eq!(rejoined, design.scenarios.iter().map(label).collect::<Vec<_>>());
        assert!(design.scenarios.iter().all(|s| s.dtm_interval_s.is_none()));
        let json = design.to_json();
        assert!(json.contains("\"seed\": 3") && json.contains("DTM-MIG") && json.contains("3d-4h"));
    }
}
