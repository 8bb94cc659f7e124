//! Golden regression pins for [`MulticoreSim::run`].
//!
//! The exact measurements below (elapsed time, per-core statistics, traffic
//! window including the per-DIMM split, with floats pinned by bit pattern)
//! were captured from earlier versions of the closed loop: the quad-core
//! pins before the flat-cache, ring-queue and cached-min-schedule rewrites,
//! the dual-socket Xeon 5160 pins before the per-interval warm-fill
//! templates and the narrowed cache layout. Every rewrite of the level-1
//! simulator must be *behavior-preserving*: any drift in these values is a
//! correctness bug, not a tolerance issue.
//!
//! The quad-core processor has one shared L2; the Xeon pins cover the
//! Chapter 5 servers, whose two L2s each serve the interleaved cores
//! (0 and 2 on one chip, 1 and 3 on the other), on both memory
//! configurations.

use cpu_model::{CpuConfig, MulticoreSim, RunMeasurement, RunningMode};
use fbdimm_sim::FbdimmConfig;
use workloads::mixes;

struct Golden {
    label: &'static str,
    elapsed_ps: u64,
    /// (instructions, l2_accesses, l2_misses, mem_reads, spec_reads, mem_writes, stall_ps) per core.
    cores: [[u64; 7]; 4],
    /// (reads, writes, activations) of the traffic window.
    counts: [u64; 3],
    /// Bit patterns of (read_gbps, write_gbps, mean_read_latency_ns).
    rates_bits: [u64; 3],
    /// Bit patterns of (local_gbps, bypass_gbps, read_fraction) per DIMM
    /// position, in (channel-major, dimm) order.
    dimms_bits: &'static [[u64; 3]],
}

const GOLDENS: [Golden; 6] = [
    Golden {
        label: "W1/full",
        elapsed_ps: 99050534,
        cores: [
            [180504, 5456, 4804, 5502, 698, 0, 67501273],
            [235434, 5708, 4014, 4575, 561, 0, 60205883],
            [237728, 6266, 4011, 4608, 597, 0, 57563439],
            [417067, 7570, 2551, 2862, 311, 0, 39808287],
        ],
        counts: [17547, 0, 17547],
        rates_bits: [0x4026aceaaae4741f, 0x0, 0x405c25e420947164],
        dimms_bits: &[
            [0x3fe6e0db06c9c1ae, 0x4000da9162e765a4, 0x3ff0000000000000],
            [0x3fe6c663cfcf3510, 0x3ff651f0dde730c0, 0x3ff0000000000000],
            [0x3fe68984d15bbe72, 0x3fe61a5cea72a30f, 0x3ff0000000000000],
            [0x3fe61a5cea72a30f, 0x0, 0x3ff0000000000000],
            [0x3fe7088dd941949c, 0x400104e9badead07, 0x3ff0000000000000],
            [0x3fe6ce54604d9274, 0x3ff6a2a9459690d5, 0x3ff0000000000000],
            [0x3fe6d8ea764b644c, 0x3fe66c6814e1bd5e, 0x3ff0000000000000],
            [0x3fe66c6814e1bd5e, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W1/gated2",
        elapsed_ps: 130235737,
        cores: [
            [428337, 12996, 8454, 9765, 1311, 0, 55872275],
            [494961, 12004, 6286, 7208, 922, 0, 48721682],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        counts: [16973, 0, 16973],
        rates_bits: [0x4020ae7f1d1f8c5a, 0x0, 0x4054ef8879d1d2a4],
        dimms_bits: &[
            [0x3fe0b74d7f443fd6, 0x3ff900d6a834797e, 0x3ff0000000000000],
            [0x3fe0bb5412883a1e, 0x3ff0a32c9ef05c70, 0x3ff0000000000000],
            [0x3fe0ab39c57850ff, 0x3fe09b1f786867e0, 0x3ff0000000000000],
            [0x3fe09b1f786867e0, 0x0, 0x3ff0000000000000],
            [0x3fe0bb5412883a1e, 0x3ff8ffd503637aec, 0x3ff0000000000000],
            [0x3fe0bb5412883a1e, 0x3ff0a22afa1f5ddd, 0x3ff0000000000000],
            [0x3fe0a9367bd653db, 0x3fe09b1f786867e0, 0x3ff0000000000000],
            [0x3fe09b1f786867e0, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W1/cap6.4",
        elapsed_ps: 172473062,
        cores: [
            [178822, 5406, 4758, 5450, 692, 0, 141427811],
            [232933, 5649, 3968, 4524, 556, 0, 134138717],
            [239203, 6307, 4031, 4642, 611, 0, 130900461],
            [420843, 7638, 2577, 2878, 301, 0, 112655019],
        ],
        counts: [17494, 0, 17494],
        rates_bits: [0x4019f75698437c45, 0x0, 0x406b2695dfaaffae],
        dimms_bits: &[
            [0x3fda3af970c043d2, 0x3ff34bb76114cb54, 0x3ff0000000000000],
            [0x3fd9eefa8ec3e22c, 0x3fe99ff17ac7a592, 0x3ff0000000000000],
            [0x3fd9d39eccc52fa7, 0x3fd96c4428ca1b7d, 0x3ff0000000000000],
            [0x3fd96c4428ca1b7d, 0x0, 0x3ff0000000000000],
            [0x3fda65882cbe3d11, 0x3ff37ad568128cfe, 0x3ff0000000000000],
            [0x3fd9f81924c37302, 0x3fe9f99e3dc3607a, 0x3ff0000000000000],
            [0x3fda2ed0a8c0d809, 0x3fd9c46bd2c5e8ed, 0x3ff0000000000000],
            [0x3fd9c46bd2c5e8ed, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W6/full",
        elapsed_ps: 141873338,
        cores: [
            [351208, 8477, 7027, 7972, 945, 0, 84108926],
            [246307, 6746, 5333, 5954, 621, 0, 93725221],
            [78303, 3048, 1900, 1969, 69, 0, 114621830],
            [561244, 6729, 3223, 3653, 430, 0, 49482659],
        ],
        counts: [19548, 0, 19548],
        rates_bits: [0x4021a2ef4bda343e, 0x0, 0x40576e7b7e5752d1],
        dimms_bits: &[
            [0x3fe1d20d4b8b3bdc, 0x3ffa67ee0ffa53e1, 0x3ff0000000000000],
            [0x3fe1e2ae789c89d7, 0x3ff17696d3ac0ef4, 0x3ff0000000000000],
            [0x3fe175aa512b18d8, 0x3fe17783562d0511, 0x3ff0000000000000],
            [0x3fe17783562d0511, 0x0, 0x3ff0000000000000],
            [0x3fe1d3e6508d2814, 0x3ffa50d551624b1f, 0x3ff0000000000000],
            [0x3fe1e4877d9e7610, 0x3ff15e9192931018, 0x3ff0000000000000],
            [0x3fe15bcc0b102dc3, 0x3fe161571a15f26c, 0x3ff0000000000000],
            [0x3fe161571a15f26c, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W6/gated2",
        elapsed_ps: 147667414,
        cores: [
            [570634, 13804, 7238, 8292, 1054, 0, 53813273],
            [409363, 11196, 5564, 6226, 662, 0, 67709888],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        counts: [14518, 0, 14518],
        rates_bits: [0x40192b34dff84401, 0x0, 0x40543b694f441738],
        dimms_bits: &[
            [0x3fd944f289c19252, 0x3ff2d9f83d87df6c, 0x3ff0000000000000],
            [0x3fd936bedca1f45a, 0x3fe918910cbec4ac, 0x3ff0000000000000],
            [0x3fd91de46daa9fe8, 0x3fd9133dabd2e96f, 0x3ff0000000000000],
            [0x3fd9133dabd2e96f, 0x0, 0x3ff0000000000000],
            [0x3fd94c0c6051614e, 0x3ff2d831c7e3ebad, 0x3ff0000000000000],
            [0x3fd93331f15a0cdc, 0x3fe916ca971ad0ed, 0x3ff0000000000000],
            [0x3fd91a578262b86b, 0x3fd9133dabd2e96f, 0x3ff0000000000000],
            [0x3fd9133dabd2e96f, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "W6/cap6.4",
        elapsed_ps: 193260720,
        cores: [
            [347293, 8382, 6954, 7883, 929, 0, 136135687],
            [247692, 6781, 5359, 5990, 631, 0, 144883509],
            [77493, 3016, 1876, 1945, 69, 0, 166345927],
            [568679, 6821, 3251, 3679, 428, 0, 99726648],
        ],
        counts: [19497, 0, 19497],
        rates_bits: [0x4019d39015569a02, 0x0, 0x4060dbb15d30dd87],
        dimms_bits: &[
            [0x3fda0ee80ff66ce2, 0x3ff35dbd54d7ac89, 0x3ff0000000000000],
            [0x3fda4a96da482b05, 0x3fe9962f3c8b438f, 0x3ff0000000000000],
            [0x3fd9aa87ea3e6749, 0x3fd981d68ed81fd5, 0x3ff0000000000000],
            [0x3fd981d68ed81fd5, 0x0, 0x3ff0000000000000],
            [0x3fda0ee80ff66ce2, 0x3ff341eecdda510a, 0x3ff0000000000000],
            [0x3fda4a96da482b05, 0x3fe95e922e908c91, 0x3ff0000000000000],
            [0x3fd95bdbb1013278, 0x3fd96148ac1fe6aa, 0x3ff0000000000000],
            [0x3fd96148ac1fe6aa, 0x0, 0x3ff0000000000000],
        ],
    },
];

const BUDGET: u64 = 25_000;

fn mode_for(label: &str, cpu: &CpuConfig) -> RunningMode {
    let full = RunningMode::full_speed(cpu);
    match label.rsplit('/').next().unwrap() {
        "full" => full,
        "gated3" => full.with_active_cores(3),
        "gated2" => full.with_active_cores(2),
        "cap6.4" => full.with_bandwidth_cap_gbps(6.4),
        "cap4" => full.with_bandwidth_cap_gbps(4.0),
        other => panic!("unknown mode label {other}"),
    }
}

fn assert_matches(m: &RunMeasurement, g: &Golden) {
    assert_eq!(m.elapsed_ps, g.elapsed_ps, "{}: elapsed_ps", g.label);
    assert_eq!(m.cores.len(), 4, "{}", g.label);
    for (i, (c, want)) in m.cores.iter().zip(g.cores.iter()).enumerate() {
        let got = [c.instructions, c.l2_accesses, c.l2_misses, c.mem_reads, c.spec_reads, c.mem_writes, c.stall_ps];
        assert_eq!(got, *want, "{}: core {i} stats", g.label);
    }
    let t = &m.traffic;
    assert_eq!([t.reads, t.writes, t.activations], g.counts, "{}: traffic counts", g.label);
    let rates = [t.read_gbps.to_bits(), t.write_gbps.to_bits(), t.mean_read_latency_ns.to_bits()];
    assert_eq!(rates, g.rates_bits, "{}: traffic rates", g.label);
    assert_eq!(t.dimms.len(), g.dimms_bits.len(), "{}: dimm positions", g.label);
    for (d, want) in t.dimms.iter().zip(g.dimms_bits.iter()) {
        let got = [d.local_gbps.to_bits(), d.bypass_gbps.to_bits(), d.read_fraction.to_bits()];
        assert_eq!(got, *want, "{}: dimm ({}, {})", g.label, d.channel, d.dimm);
    }
}

#[test]
fn multicore_run_measurements_match_pre_refactor_goldens() {
    let cpu = CpuConfig::paper_quad_core();
    let mut sim = MulticoreSim::new(cpu.clone(), FbdimmConfig::ddr2_667_paper());
    for g in &GOLDENS {
        let mix = if g.label.starts_with("W1") { mixes::w1() } else { mixes::w6() };
        assert_matches(&sim.run(&mix.apps, &mode_for(g.label, &cpu), BUDGET), g);
    }
}

/// W1 on the dual-socket Xeon 5160 (two shared L2s, interleaved cores) over
/// the Chapter 5 memory configurations: `FbdimmConfig::server(2)` and
/// `server(4)`, each at full speed, with 3 and 2 cores active, and under a
/// 4 GB/s bandwidth cap.
const XEON_GOLDENS: [Golden; 8] = [
    Golden {
        label: "server2/W1/full",
        elapsed_ps: 135634065,
        cores: [
            [187271, 5664, 3716, 4281, 565, 0, 100795683],
            [248463, 6027, 3143, 3610, 467, 0, 92044096],
            [213004, 5608, 3129, 3603, 474, 0, 96037486],
            [424619, 7701, 2322, 2652, 330, 0, 71144036],
        ],
        counts: [14146, 0, 14146],
        rates_bits: [0x401ab3195524592a, 0x0, 0x406845eb415e980e],
        dimms_bits: &[
            [0x3ffab9dd0ef946fa, 0x3ffaac559b4f6b5b, 0x3ff0000000000000],
            [0x3ffaac559b4f6b5b, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "server2/W1/gated3",
        elapsed_ps: 159751593,
        cores: [
            [273944, 8287, 5422, 6262, 840, 0, 108988122],
            [352846, 8550, 4454, 5125, 671, 0, 97848839],
            [310059, 8163, 4546, 5243, 697, 0, 102303218],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        counts: [16630, 0, 16630],
        rates_bits: [0x401aa63d65394ab0, 0x0, 0x4064846b13066c9f],
        dimms_bits: &[
            [0x3ffaabfbaf3af8c3, 0x3ffaa07f1b379c9e, 0x3ff0000000000000],
            [0x3ffaa07f1b379c9e, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "server2/W1/gated2",
        elapsed_ps: 169766114,
        cores: [
            [421393, 12780, 8318, 9603, 1285, 0, 91648509],
            [503895, 12220, 6400, 7346, 946, 0, 81363555],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        counts: [16949, 0, 16949],
        rates_bits: [0x40198ef0e3f279d2, 0x0, 0x405d9287e6b609a7],
        dimms_bits: &[
            [0x3ff990df048c7941, 0x3ff98d02c3587a63, 0x3ff0000000000000],
            [0x3ff98d02c3587a63, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "server2/W1/cap4",
        elapsed_ps: 223776197,
        cores: [
            [187362, 5667, 3717, 4282, 565, 0, 188950456],
            [246380, 5978, 3116, 3582, 466, 0, 180551666],
            [212725, 5600, 3122, 3595, 473, 0, 184213187],
            [427919, 7755, 2339, 2669, 330, 0, 158936825],
        ],
        counts: [14128, 0, 14128],
        rates_bits: [0x401029954532044a, 0x0, 0x4073118cc6dcc7cb],
        dimms_bits: &[
            [0x3ff02bed0e4b69c4, 0x3ff0273d7c189ed1, 0x3ff0000000000000],
            [0x3ff0273d7c189ed1, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "server4/W1/full",
        elapsed_ps: 118378710,
        cores: [
            [192092, 5814, 3803, 4385, 582, 0, 82806032],
            [249970, 6062, 3165, 3635, 470, 0, 74479815],
            [214614, 5654, 3161, 3640, 479, 0, 78587772],
            [411714, 7470, 2256, 2572, 316, 0, 55954799],
        ],
        counts: [14232, 0, 14232],
        rates_bits: [0x401ec70565c4b43a, 0x0, 0x40653cd446a48bfe],
        dimms_bits: &[
            [0x3feed8bc9881a81c, 0x400710d63fa44a32, 0x3ff0000000000000],
            [0x3feed685b22a09a1, 0x3ffeb669a6338f96, 0x3ff0000000000000],
            [0x3feec29799157741, 0x3feeaa3bb351a7e9, 0x3ff0000000000000],
            [0x3feeaa3bb351a7e9, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "server4/W1/gated3",
        elapsed_ps: 137396447,
        cores: [
            [277195, 8384, 5491, 6337, 846, 0, 86055169],
            [351461, 8514, 4433, 5103, 670, 0, 75729577],
            [307806, 8102, 4509, 5200, 691, 0, 80395282],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        counts: [16640, 0, 16640],
        rates_bits: [0x401f010668e77230, 0x0, 0x4061632a08210523],
        dimms_bits: &[
            [0x3fef0e616f9a8b0e, 0x40073d6e0d00cf6c, 0x3ff0000000000000],
            [0x3fef1049de466a09, 0x3ffef2b72ade69d3, 0x3ff0000000000000],
            [0x3feef3ab62345951, 0x3feef1c2f3887a56, 0x3ff0000000000000],
            [0x3feef1c2f3887a56, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "server4/W1/gated2",
        elapsed_ps: 157812423,
        cores: [
            [422697, 12819, 8340, 9633, 1293, 0, 79535035],
            [502222, 12181, 6383, 7324, 941, 0, 69696843],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ],
        counts: [16957, 0, 16957],
        rates_bits: [0x401b81ddb8dc8665, 0x0, 0x405afd26fa6a59f0],
        dimms_bits: &[
            [0x3feb831ca7cde7a0, 0x4004a1168ee90c7c, 0x3ff0000000000000],
            [0x3feb831ca7cde7a0, 0x3ffb809ec9eb2529, 0x3ff0000000000000],
            [0x3feb831ca7cde7a0, 0x3feb7e20ec0862b2, 0x3ff0000000000000],
            [0x3feb7e20ec0862b2, 0x0, 0x3ff0000000000000],
        ],
    },
    Golden {
        label: "server4/W1/cap4",
        elapsed_ps: 223704115,
        cores: [
            [192729, 5831, 3813, 4398, 585, 0, 188013474],
            [249581, 6054, 3159, 3629, 470, 0, 179880223],
            [213264, 5614, 3134, 3608, 474, 0, 184177745],
            [413510, 7501, 2265, 2584, 319, 0, 161017952],
        ],
        counts: [14219, 0, 14219],
        rates_bits: [0x4010459354efcf81, 0x0, 0x4074899e7c03e86c],
        dimms_bits: &[
            [0x3fe0506a3bd81337, 0x3ff862f18bf39566, 0x3ff0000000000000],
            [0x3fe0519639219dff, 0x3ff03a266f62c666, 0x3ff0000000000000],
            [0x3fe0425a5c6591db, 0x3fe031f2825ffaf0, 0x3ff0000000000000],
            [0x3fe031f2825ffaf0, 0x0, 0x3ff0000000000000],
        ],
    },
];

#[test]
fn xeon_dual_socket_run_measurements_match_goldens() {
    let cpu = CpuConfig::xeon_5160_dual_socket();
    for dimms in [2, 4] {
        let mut sim = MulticoreSim::new(cpu.clone(), FbdimmConfig::server(dimms));
        let prefix = format!("server{dimms}/");
        for g in XEON_GOLDENS.iter().filter(|g| g.label.starts_with(&prefix)) {
            assert_matches(&sim.run(&mixes::w1().apps, &mode_for(g.label, &cpu), BUDGET), g);
        }
    }
}

#[test]
fn repeated_runs_reuse_warm_state_without_drift() {
    // Back-to-back runs of the same (mix, mode) on one simulator — the
    // second warm-fills scratch caches the first one dirtied — must be
    // bit-identical to the first.
    let cpu = CpuConfig::paper_quad_core();
    let mut sim = MulticoreSim::new(cpu.clone(), FbdimmConfig::ddr2_667_paper());
    let mode = RunningMode::full_speed(&cpu);
    let a = sim.run(&mixes::w1().apps, &mode, BUDGET);
    let b = sim.run(&mixes::w1().apps, &mode, BUDGET);
    assert_eq!(a, b);
}
