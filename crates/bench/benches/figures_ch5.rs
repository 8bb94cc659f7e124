//! Smoke-scale regeneration of the Chapter 5 figures (the server-platform
//! case study).
//!
//! Run with: `cargo bench -p experiments --bench figures_ch5`

use std::sync::Arc;

use experiments::ch5;
use experiments::harness::{bench_case, Scale};

fn main() {
    bench_case("figures_ch5/fig5_4_homogeneous_curves", 2, || ch5::fig5_4(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch5/fig5_5_homogeneous_averages", 2, || ch5::fig5_5(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch5/fig5_6_policy_comparison", 2, || ch5::fig5_6(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch5/fig5_8_l2_misses", 2, || ch5::fig5_8(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch5/fig5_13_fixed_frequency", 2, || ch5::fig5_13(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch5/fig5_15_time_slice_model", 2, || ch5::fig5_15(Scale::Smoke).rows.len());
}
