//! Smoke-scale regeneration of the Chapter 4 figures (the simulation study).
//! Each bench runs the same code path as the `paper` binary, at the smallest
//! scale, so `cargo bench` exercises every figure end to end.
//!
//! Run with: `cargo bench -p experiments --bench figures_ch4`

use std::sync::Arc;

use experiments::ch4;
use experiments::harness::{bench_case, Scale};

fn main() {
    bench_case("figures_ch4/fig4_2_trp_sweep", 2, || ch4::fig4_2(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch4/fig4_3_normalized_time", 2, || ch4::fig4_3(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch4/fig4_4_normalized_traffic", 2, || ch4::fig4_4(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch4/fig4_5_8_temperature_traces", 2, || {
        ch4::fig4_5_8(Scale::Smoke, &Arc::default()).rows.len()
    });
    bench_case("figures_ch4/fig4_9_memory_energy", 2, || ch4::fig4_9(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch4/fig4_12_integrated_model", 2, || ch4::fig4_12(Scale::Smoke, &Arc::default()).rows.len());
    bench_case("figures_ch4/fig4_13_interaction_degrees", 2, || ch4::fig4_13(Scale::Smoke, &Arc::default()).rows.len());
}
