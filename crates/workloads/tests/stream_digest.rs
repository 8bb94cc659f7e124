//! Golden digests of the synthetic access streams.
//!
//! For every SPEC CPU2000 and CPU2006 model, the first accesses of one
//! stream under the default phase model and of one under a short phase
//! model (so both the busy and the quiet gap are drawn) are hashed with
//! FNV-1a 64 over their `Debug` rendering. The digests were captured before
//! the stream's draws were rewritten as threshold Bernoulli draws with a
//! branch-free hot/stream choice; every rewrite of the generator must keep
//! the streams identical.

use workloads::stream::PhaseModel;
use workloads::{spec2000, spec2006, AccessStream};

const ACCESSES: usize = 4_000;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn digest(stream: &mut AccessStream) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..ACCESSES {
        fnv1a(&mut hash, format!("{:?}", stream.next_access()).as_bytes());
    }
    hash
}

/// Per app, in `spec2000::all()` then `spec2006::all()` order: the digest
/// under the default phase model followed by the one under the short phase
/// model.
const GOLDEN: [(&str, &str); 20] = [
    ("swim", "242ab64ba3ee01f96c65a499b5004cf1"),
    ("mgrid", "07b95e2f26b123561febd94880132273"),
    ("applu", "80cedc83c5081991a614702dc22443ae"),
    ("galgel", "9e712698c0b15831ca566e2fc35a6176"),
    ("art", "c24229f9b921d9ac308a4d95a58a953b"),
    ("equake", "dfb08dba559d26dce6b276169223bd0d"),
    ("lucas", "dc1bae3ff634ba82bb955f5d0b11e607"),
    ("fma3d", "c34443b527038bc967a47826c674a492"),
    ("wupwise", "35cffad07982cbf6a2d2c9bc08de2fce"),
    ("vpr", "06cf250ac9e287df1eb6a2bb3c2afaa0"),
    ("mcf", "2c66cb2fc61ec903680d123ac67917a1"),
    ("apsi", "561376b31e4f49099f27bee586109a49"),
    ("milc", "99014996a285b7abd2bf1d0024850d56"),
    ("leslie3d", "a7ff6331dfdaad6b1080e3f59ead01f3"),
    ("soplex", "699ad2917b4e7a418c850afe1e82ef7e"),
    ("GemsFDTD", "8cc7862aec5369546336b0b301b96766"),
    ("libquantum", "09581be7b0002003e842b94762fdca76"),
    ("lbm", "a2225110abd12b5e989ba28dc26adf7d"),
    ("omnetpp", "258c3f287a94b56c024a753ffb1bc097"),
    ("wrf", "92bc9325aa78f4ea93b2f66da9076223"),
];

#[test]
fn every_spec_stream_matches_its_golden_digest() {
    let short_phase = PhaseModel { period_instructions: 50_000, duty: 0.6, quiet_gap_factor: 3.0 };
    let apps: Vec<_> = spec2000::all().into_iter().chain(spec2006::all()).collect();
    assert_eq!(apps.len(), GOLDEN.len());
    let mut got = Vec::new();
    for (seed, app) in apps.iter().enumerate() {
        let default_phase = digest(&mut AccessStream::new(app, 0xD0A0 + seed as u64));
        let short = digest(&mut AccessStream::new(app, seed as u64).with_phase(short_phase));
        got.push(format!("(\"{}\", \"{default_phase:016x}{short:016x}\"),", app.name));
    }
    let want: Vec<String> = GOLDEN.iter().map(|(name, d)| format!("(\"{name}\", \"{d}\"),")).collect();
    assert_eq!(got, want, "stream digests drifted; got:\n{}", got.join("\n"));
}
