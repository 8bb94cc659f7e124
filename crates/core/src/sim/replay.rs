//! The envelope tier's exact decision replay, as a stage of its own.
//!
//! An envelope burst ([`crate::sim::batch`]) hands a chattering segment to
//! [`replay_segment`]: the policy's decisions are re-evaluated per virtual
//! window from the decision key (`DecisionRule::key`) of the device maxima,
//! which bitwise-literal recurrences of the shared ambient, the binding
//! (hottest) row of each device kind and every row the dominance
//! certificate cannot clear carry exactly. Every other row is proved to
//! stay [`REPLAY_GAP_C`] below its binding row ([`replay_roles`]) and is
//! closed in closed form per constant-plan run from a run log
//! ([`DominatedLayer::close`]), [`REPLAY_LOG_CHUNK`] runs at a time.
//!
//! The stage is generic over its key function: the burst instantiates it
//! once per keyed rule kind with that rule's own key code
//! (`rule::ladder_key`, `rule::pid_key`), so the per-window loop never
//! dispatches on the rule. Inputs come in a [`Segment`] and a [`Start`];
//! the binding, twin, literal and dominated rows are written back in place,
//! everything else comes back in a [`SegmentEnd`].

use crate::sim::batch::env_row_range;
use crate::thermal::params::DeviceLayerKind;

/// Key space of `DecisionRule::key`: the exact decision replay indexes its
/// key → plan-entry table with keys below this.
pub(super) const REPLAY_KEYS: usize = 16;

/// Frozen-plan run length at which the exact decision replay hands the
/// segment back to the closed-form probe: a run this long is no longer
/// sliding-mode chatter but a monotone approach, which the frozen-plan
/// contraction jump advances in O(1) instead of O(windows).
pub(super) const REPLAY_RUN_EXIT: usize = 256;

/// Entries of the decision replay's λ-power tables: powers 0 through the
/// longest run the replay can log. A run that flips in logs its flip window
/// too, but the frozen-run length that stops the replay at
/// [`REPLAY_RUN_EXIT`] does not count it, so such a run logs up to
/// `REPLAY_RUN_EXIT + 1` windows.
const REPLAY_POWERS: usize = REPLAY_RUN_EXIT + 2;

/// Logged runs the exact decision replay buffers before it closes its
/// dominated rows over them ([`DominatedLayer::close`]): at 16 bytes a run
/// this bounds the run log to 64 KiB, however long the segment.
const REPLAY_LOG_CHUNK: usize = 4_096;

/// Dominance margin (°C) of the exact decision replay: a row the replay
/// does not step must provably stay at least this far below its device's
/// binding (hottest) row over the whole replayed segment, so the maximum
/// over the rows the replay does step *is* the device maximum every
/// virtual window. The convex-combination bound the audit uses is exact in
/// real arithmetic; the margin only has to dominate the ~1e-13 °C
/// accumulated rounding of the literal recurrences it stands in for.
const REPLAY_GAP_C: f64 = 1e-9;

/// One logged constant-plan run: (plan entry, windows, ambient at run
/// entry).
type Run = (u32, u32, f64);

/// A debug check of one replayed key: the key, the maxima it was taken at
/// and the plan entry it indexes.
pub(super) type KeyAudit<'a> = dyn Fn(u8, (f64, f64), usize) + 'a;

/// One plan entry's per-row forcing terms: the RC stable of row `r` is
/// `ambient + a[r]`, plus `b[r]` on identity-split stacks.
#[derive(Debug, Clone, Copy)]
pub(super) struct Forcing<'a> {
    /// The ambient-power term of each row.
    pub a: &'a [f64],
    /// The DRAM-power term of each row (identity-split stacks only).
    pub b: &'a [f64],
}

impl Forcing<'_> {
    /// Row `r`'s forcing offset above the ambient, in the RC sweep's
    /// float-op order.
    pub(super) fn off(&self, r: usize, identity_split: bool) -> f64 {
        if identity_split {
            self.a[r] + self.b[r]
        } else {
            self.a[r]
        }
    }
}

/// A row's part in one exact decision replay segment ([`replay_roles`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RowRole {
    /// The hottest row of its device kind at the segment start, iterated
    /// as a scalar with the literal recurrence.
    Binding,
    /// A bitwise twin of its binding row (equal state, forcings and band):
    /// it stays bitwise equal, so the binding scalar stands in for it.
    Twin,
    /// A row the dominance certificate cannot clear, stepped with the
    /// literal recurrence every virtual window; each decision reads the
    /// maximum over it and the binding row of its kind.
    Literal,
    /// Provably stays at least [`REPLAY_GAP_C`] below its binding row for
    /// the whole segment, so no decision reads it; closed per plan run at
    /// the segment close.
    Dominated,
}

/// The binding (hottest) rows `(buffer, dram)` of `rows_t`, rows being
/// `position × depth + layer` over layers of `kinds`; `usize::MAX` for a
/// kind with no row.
pub(super) fn binding_rows(kinds: &[DeviceLayerKind], rows_t: &[f64]) -> (usize, usize) {
    let depth = kinds.len();
    let (mut b_buf, mut b_dram) = (usize::MAX, usize::MAX);
    for (r, &t) in rows_t.iter().enumerate() {
        let b = match kinds[r % depth] {
            DeviceLayerKind::Buffer => &mut b_buf,
            DeviceLayerKind::Dram => &mut b_dram,
        };
        if *b == usize::MAX || t > rows_t[*b] {
            *b = r;
        }
    }
    (b_buf, b_dram)
}

/// The forcing half of the dominance certificate, per row against the
/// binding row of its kind: whether every entry forces it at least
/// [`REPLAY_GAP_C`] below a same-layer binding row, whether its forcings
/// equal the binding row's bit for bit, and its highest forcing offset.
/// It depends only on the plan entries and the binding rows, so
/// consecutive segments reuse it.
pub(super) fn forcing_audit<'a>(
    kinds: &'a [DeviceLayerKind],
    binding: (usize, usize),
    rows: usize,
    forcings: &'a [Forcing<'a>],
    identity_split: bool,
) -> impl Iterator<Item = (bool, bool, f64)> + 'a {
    let depth = kinds.len();
    (0..rows).map(move |r| {
        let b = match kinds[r % depth] {
            DeviceLayerKind::Buffer => binding.0,
            DeviceLayerKind::Dram => binding.1,
        };
        let same_layer = b != usize::MAX && r % depth == b % depth;
        let gap_ok =
            same_layer && forcings.iter().all(|f| f.off(r, identity_split) - f.off(b, identity_split) <= -REPLAY_GAP_C);
        let twin_ok = same_layer && forcings.iter().all(|f| f.a[r] == f.a[b] && (!identity_split || f.b[r] == f.b[b]));
        let hi_off = forcings.iter().map(|f| f.off(r, identity_split)).fold(f64::NEG_INFINITY, f64::max);
        (gap_ok, twin_ok, hi_off)
    })
}

/// Assigns every row its [`RowRole`] for a replay segment. `binding` holds
/// the binding rows `(buffer, dram)` (`usize::MAX` for an absent buffer
/// layer) and `kinds` the device kind of each layer (rows are
/// `position × depth + layer`); `band` is the burst's confinement band
/// `(lo, hi)`. Per row, `audit` holds the forcing half of the dominance
/// certificate ([`forcing_audit`]). A same-layer row is dominated when its
/// forcing gap holds and it also starts [`REPLAY_GAP_C`] below; a row on
/// another layer of the same kind when its highest reachable temperature —
/// its start or the ambient's highest value `amb.1` plus its highest
/// offset — stays that far below the binding row's lowest, its start or
/// `amb.0` plus the binding row's lowest offset `lo_off(binding)`. Every
/// other row is literal.
pub(super) fn replay_roles(
    kinds: &[DeviceLayerKind],
    binding: (usize, usize),
    rows_t: &[f64],
    band: (&[f64], &[f64]),
    audit: &[(bool, bool, f64)],
    amb: (f64, f64),
    lo_off: impl Fn(usize) -> f64,
) -> Vec<RowRole> {
    let depth = kinds.len();
    let (lo, hi) = band;
    (0..rows_t.len())
        .map(|r| {
            let b = match kinds[r % depth] {
                DeviceLayerKind::Buffer => binding.0,
                DeviceLayerKind::Dram => binding.1,
            };
            let (gap_ok, twin_ok, hi_off) = audit[r];
            if r == b {
                return RowRole::Binding;
            }
            if twin_ok && rows_t[r] == rows_t[b] && lo[r] == lo[b] && hi[r] == hi[b] {
                return RowRole::Twin;
            }
            let dominated = if r % depth == b % depth {
                gap_ok && rows_t[r] - rows_t[b] <= -REPLAY_GAP_C
            } else {
                rows_t[r].max(amb.1 + hi_off) <= rows_t[b].min(amb.0 + lo_off(b)) - REPLAY_GAP_C
            };
            if dominated {
                RowRole::Dominated
            } else {
                RowRole::Literal
            }
        })
        .collect()
}

/// The λ-power ladders the close reads, built once per burst: the first
/// [`REPLAY_POWERS`] powers of each layer's `1 − α` (layer-major) and of
/// the ambient's.
#[derive(Debug)]
pub(super) struct Powers {
    lam: Vec<f64>,
    laa: Vec<f64>,
}

impl Powers {
    /// The ladders of layers with RC coefficients `alphas` under an ambient
    /// with coefficient `ambient_alpha`.
    pub(super) fn new(alphas: &[f64], ambient_alpha: f64) -> Self {
        let ladder = |lambda: f64| (0..REPLAY_POWERS).scan(1.0, move |p, _| Some(std::mem::replace(p, *p * lambda)));
        Powers {
            lam: alphas.iter().flat_map(|&al| ladder(1.0 - al)).collect(),
            laa: ladder(1.0 - ambient_alpha).collect(),
        }
    }

    /// Layer `l`'s ladder.
    fn layer(&self, l: usize) -> &[f64] {
        &self.lam[l * REPLAY_POWERS..(l + 1) * REPLAY_POWERS]
    }
}

/// One layer's dominated rows in the exact decision replay's close: their
/// temperatures and peaks, their per-entry forcing offsets (entry-major)
/// and two run-level peak certificates. The state carries from one chunk
/// of the run log to the next, so closing the log chunk by chunk performs
/// exactly the arithmetic of closing it whole.
struct DominatedLayer {
    /// Layer index within the stack.
    layer: usize,
    /// The layer's dominated rows, ascending.
    rows: Vec<usize>,
    /// Each row's temperature after the runs closed so far.
    t: Vec<f64>,
    /// Each row's peak after the runs closed so far.
    pk: Vec<f64>,
    /// Forcing offset of row `j` under entry `e` at `e * rows.len() + j`.
    offs: Vec<f64>,
    /// `pkm[e]` under-approximates `min_r (pk_r − off_er)`: when a run's
    /// `ambx` sits below it, every in-run value of every row (bounded by
    /// `max(t, ambx + off_r)` with the `t ≤ pk` invariant) stays under the
    /// recorded peaks, so the run needs only the endpoint map. `pk` only
    /// grows, so a stale `pkm` is conservative.
    pkm: Vec<f64>,
    /// `pkx[e]` over-approximates `max_r (pk_r − off_er)`: when the run's
    /// ambient mode falls (`c < 0`) and `pkx[e] < S_amb,e + c`, every row
    /// starts below its two-exponential target with both modes pulling the
    /// same way — no interior extreme exists and the in-run max is the
    /// endpoint. Refreshed whenever a peak moved before it is trusted again.
    pkx: Vec<f64>,
    /// Whether a peak moved since the certificates were last refreshed.
    dirty: bool,
    /// The per-layer constant `α_l·λ_a/(λ_a − λ_l)` of the ambient mode's
    /// coefficient `c` (the division hoisted out of the run loop).
    q: f64,
}

impl DominatedLayer {
    /// The close state of layer `layer`'s dominated rows `rows`, starting
    /// from their temperatures and peaks in `rows_t` and `peaks`.
    fn new(layer: usize, rows: Vec<usize>, rows_t: &[f64], peaks: &[f64], offs: Vec<f64>, q: f64, nent: usize) -> Self {
        let t: Vec<f64> = rows.iter().map(|&r| rows_t[r]).collect();
        let pk: Vec<f64> = rows.iter().map(|&r| peaks[r]).collect();
        let (mut pkm, mut pkx) = (vec![f64::NEG_INFINITY; nent], vec![f64::INFINITY; nent]);
        refresh_certificates(&mut pkm, &mut pkx, &pk, &offs);
        DominatedLayer { layer, rows, t, pk, offs, pkm, pkx, dirty: false, q }
    }

    /// Replays the rows over `runs` (entry, length, ambient at run entry)
    /// in closed form. Within one run the ambient is a single exponential,
    /// so a row is the exact two-exponential
    /// `t(k) = S_r + a·λ_l^k + c·λ_a^k` with `c = α_l·A·λ_a/(λ_a − λ_l)`
    /// (A the ambient's offset from its run target). The row endpoint map
    /// is affine with shared coefficients per run —
    /// `t' = t·λ_l^n + base + off_r·(1 − λ_l^n)`, the powers read from the
    /// layer's ladder `lam` and the ambient's `laa` — so a row costs two
    /// multiplies per run, and `ambx` (the run's highest possible forcing
    /// ambient) pre-filters the in-run extremum search: any in-run value is
    /// bounded by `max(t_start, ambx + off_r)`.
    ///
    /// The rows are scanned run-major with the rows in the inner loop: each
    /// row's endpoint recurrence is a serial dependency chain over tens of
    /// thousands of runs, so keeping the rows innermost interleaves the
    /// chains instead of serializing on one. Runs of one and two windows —
    /// most runs of sliding-mode chatter — take exact bodies of their own:
    /// a one-window run's only in-run value is its endpoint, and a
    /// two-window run has one interior value `t(1)`, evaluated from the
    /// ladders beside the endpoint. Longer runs keep the in-run extremum
    /// search ([`env_row_range`]) out of the hot loop: an interior extreme
    /// needs the row mode and the ambient mode pulling in opposite
    /// directions AND a forcing ceiling above the recorded peak — chatter
    /// runs chase the same plan flip, so the slow path is cold.
    fn close(&mut self, runs: &[Run], stab_amb: &[f64], lam: &[f64], laa: &[f64], ln_l: f64, ln_a: f64) {
        let n = self.rows.len();
        let q = self.q;
        // The state lives in locals for the loop, as one pass would keep it.
        let DominatedLayer { t, pk, offs, pkm, pkx, dirty: dirty_out, .. } = self;
        let (t, pk, offs, pkm, pkx) = (&mut t[..], &mut pk[..], &offs[..], &mut pkm[..], &mut pkx[..]);
        let mut dirty = *dirty_out;
        for &(ei, len, amb0r) in runs {
            let s_amb_e = stab_amb[ei as usize];
            let lp = lam[len as usize];
            let k1 = 1.0 - lp;
            let c = (amb0r - s_amb_e) * q;
            let base = s_amb_e * k1 + c * (laa[len as usize] - lp);
            let ambx = amb0r.max(s_amb_e);
            let ob = &offs[ei as usize * n..(ei as usize + 1) * n];
            if ambx <= pkm[ei as usize] {
                endpoints(t, ob, (lp, base, k1));
                continue;
            }
            if dirty {
                refresh_certificates(pkm, pkx, pk, offs);
                dirty = false;
            }
            if len == 1 || (c < 0.0 && pkx[ei as usize] < s_amb_e + c) {
                // Endpoint-only body: peaks can move, extremes not.
                dirty |= endpoint_peaks(t, pk, ob, (lp, base, k1));
                continue;
            }
            if len == 2 {
                // Two-window body: the one interior value `t(1)` from the
                // first rungs of the ladders, the endpoint from `t(0)`.
                let (lp1, k11) = (lam[1], 1.0 - lam[1]);
                let base1 = s_amb_e * k11 + c * (laa[1] - lp1);
                dirty |= two_window_peaks(t, pk, ob, (lp, base, k1), (lp1, base1, k11));
                continue;
            }
            let mut hot = false;
            for j in 0..n {
                let ofr = ob[j];
                let tn = t[j] * lp + base + ofr * k1;
                let pkn = pk[j].max(tn);
                let a = (t[j] - s_amb_e - ofr) - c;
                hot |= ((a > 0.0) != (c > 0.0)) & (a != 0.0) & (c != 0.0) & (ambx + ofr > pkn);
                dirty |= tn > pk[j];
                t[j] = tn;
                pk[j] = pkn;
            }
            if hot {
                // Cold path: some row may peak inside the run. Recover each
                // row's run-entry state by inverting the affine endpoint
                // map (λ^len > 0; the ~1 ulp inversion slop only feeds the
                // peak bound, which tolerates far more than the 1e-9
                // guarantee).
                for j in 0..n {
                    let ofr = ob[j];
                    let s_r = s_amb_e + ofr;
                    let tp = (t[j] - base - ofr * k1) / lp;
                    let a = (tp - s_r) - c;
                    if a != 0.0 && c != 0.0 && (a > 0.0) != (c > 0.0) && ambx + ofr > pk[j] {
                        let nf = len as f64;
                        let (pow_l, pow_a) = ((nf * ln_l).exp(), (nf * ln_a).exp());
                        let (_, _, hi) = env_row_range(a, c, ln_l, ln_a, pow_l, pow_a, nf);
                        dirty |= s_r + hi > pk[j];
                        pk[j] = pk[j].max(s_r + hi);
                    }
                }
            }
        }
        *dirty_out = dirty;
    }
}

/// Advances rows `t` with forcing offsets `ob` by one run's affine endpoint
/// map `(λⁿ, base, 1 − λⁿ)`. The rows come in as slices of their own, so
/// the compiler knows they do not alias.
#[inline(always)]
fn endpoints(t: &mut [f64], ob: &[f64], (lp, base, k1): (f64, f64, f64)) {
    for (t, &o) in t.iter_mut().zip(ob) {
        *t = *t * lp + base + o * k1;
    }
}

/// Advances rows `t` as [`endpoints`] does and folds each endpoint into the
/// row's peak in `pk`. Returns whether a peak moved.
#[inline(always)]
fn endpoint_peaks(t: &mut [f64], pk: &mut [f64], ob: &[f64], (lp, base, k1): (f64, f64, f64)) -> bool {
    let mut moved = false;
    for ((t, p), &o) in t.iter_mut().zip(pk.iter_mut()).zip(ob) {
        let tn = *t * lp + base + o * k1;
        moved |= tn > *p;
        *p = p.max(tn);
        *t = tn;
    }
    moved
}

/// Advances rows `t` by a two-window run's endpoint map `end` as
/// [`endpoints`] does and folds into each row's peak in `pk` the larger of
/// the endpoint and the interior value under the one-window map `first`.
/// Returns whether a peak moved.
#[inline(always)]
fn two_window_peaks(t: &mut [f64], pk: &mut [f64], ob: &[f64], end: (f64, f64, f64), first: (f64, f64, f64)) -> bool {
    let mut moved = false;
    for ((t, p), &o) in t.iter_mut().zip(pk.iter_mut()).zip(ob) {
        let t1 = *t * first.0 + first.1 + o * first.2;
        let tn = *t * end.0 + end.1 + o * end.2;
        let hi = t1.max(tn);
        moved |= hi > *p;
        *p = p.max(hi);
        *t = tn;
    }
    moved
}

/// Recomputes a layer's two peak certificates (see [`DominatedLayer`]) from
/// its rows' peaks `pk` and entry-major forcing offsets `offs`.
fn refresh_certificates(pkm: &mut [f64], pkx: &mut [f64], pk: &[f64], offs: &[f64]) {
    let n = pk.len();
    for (e, (pkm, pkx)) in pkm.iter_mut().zip(pkx.iter_mut()).enumerate() {
        let ob = &offs[e * n..(e + 1) * n];
        let mut m = f64::INFINITY;
        let mut x = f64::NEG_INFINITY;
        for (&p, &o) in pk.iter().zip(ob) {
            m = m.min(p - o);
            x = x.max(p - o);
        }
        *pkm = m;
        *pkx = x;
    }
}

/// A replay segment's fixed inputs: the lane's geometry, the plan entries'
/// forcings, the key table, the row roles and the segment's caps.
pub(super) struct Segment<'a> {
    /// Device kind of each layer; rows are `position × depth + layer`.
    pub kinds: &'a [DeviceLayerKind],
    /// RC coefficient `α` of each layer.
    pub alphas: &'a [f64],
    /// `ln(1 − α)` of each layer, for the close's cold path.
    pub ln_l: &'a [f64],
    /// RC coefficient of the shared ambient node.
    pub ambient_alpha: f64,
    /// `ln(1 − ambient_alpha)`.
    pub ln_a: f64,
    /// Whether the stack splits its forcings into two terms.
    pub identity_split: bool,
    /// Whether the stack has a buffer layer.
    pub has_buffer: bool,
    /// Each plan entry's per-row forcings.
    pub forcings: &'a [Forcing<'a>],
    /// Each plan entry's stable ambient temperature.
    pub stab_amb: &'a [f64],
    /// Plan entry of each decision key; `usize::MAX` for a plan not
    /// materialized yet, which suspends the replay.
    pub key_entry: &'a [usize; REPLAY_KEYS],
    /// The binding rows `(buffer, dram)` ([`binding_rows`]).
    pub binding: (usize, usize),
    /// Each row's role ([`replay_roles`]).
    pub roles: &'a [RowRole],
    /// The burst's confinement band `(lo, hi)`, per row.
    pub band: (&'a [f64], &'a [f64]),
    /// The close's λ-power ladders.
    pub powers: &'a Powers,
    /// The window step (s), equal to the DTM interval bit for bit.
    pub step_s: f64,
    /// The DTM interval (s) the decision clock advances by.
    pub dtm_s: f64,
    /// The cell's simulated-time limit (s).
    pub max_s: f64,
    /// Windows the segment may replay at most (completion-safe).
    pub w_cap: u64,
    /// The burst's window count at the segment start.
    pub window0: u64,
    /// Debug builds call this with the key, the maxima it was taken at and
    /// its plan entry on every 64th burst window.
    pub audit: Option<&'a KeyAudit<'a>>,
}

/// The cell's state at a replay segment's start.
#[derive(Debug, Clone, Copy)]
pub(super) struct Start {
    /// Ambient temperature (°C).
    pub amb_c: f64,
    /// Simulated time (s).
    pub time_s: f64,
    /// Time of the next DTM decision (s).
    pub next_dtm_s: f64,
    /// Device maxima `(amb, dram)` the next decision reads.
    pub obs: (f64, f64),
    /// The maxima of the last two decisions, oldest first.
    pub seen: [(f64, f64); 2],
    /// Plan entry in force.
    pub cur: usize,
    /// Length of the plan's current frozen run.
    pub run: u64,
}

/// What a replay segment leaves behind besides the rows it writes back.
#[derive(Debug)]
pub(super) struct SegmentEnd {
    /// Virtual windows replayed (0: nothing replayed, nothing written).
    pub windows: u64,
    /// Constant-plan runs logged.
    pub runs: u64,
    /// Per plan entry, the windows that kept its plan.
    pub counts: Vec<u64>,
    /// Per plan entry, the windows that switched to its plan.
    pub counts_oh: Vec<u64>,
    /// The ambient temperature after the last window.
    pub amb_c: f64,
    /// The sum of the ambient temperature over the windows.
    pub amb_sum: f64,
    /// Simulated time after the segment (the literal repeated additions).
    pub time_s: f64,
    /// Time of the next DTM decision after the segment (the literal
    /// repeated additions).
    pub next_dtm_s: f64,
    /// Device maxima after the last window.
    pub obs: (f64, f64),
    /// The maxima of the last two decisions, oldest first.
    pub seen: [(f64, f64); 2],
    /// Plan entry in force after the segment.
    pub cur: usize,
    /// Length of that plan's frozen run.
    pub run: u64,
    /// Whether the plan changed during the segment.
    pub flipped: bool,
    /// Whether the segment reached the simulated-time limit.
    pub finished: bool,
    /// Whether a stepped or closed row left the band.
    pub violated: bool,
    /// Highest `(buffer, dram)` temperature a stepped row reached.
    pub peak: (f64, f64),
}

/// Replays one segment: per virtual window the decision from `key`
/// (previous maxima, current maxima), the literal ambient step, the
/// literal binding- and literal-row sweeps with their band audit, and the
/// per-entry occupancy counts; the run log is closed over the dominated
/// rows every [`REPLAY_LOG_CHUNK`] runs and at the end. The replay stops
/// before a window whose key refuses or names an unmaterialized plan, when
/// a frozen run reaches [`REPLAY_RUN_EXIT`] (a monotone approach is O(1)
/// in the closed-form probe, O(windows) here), at `w_cap` windows, after a
/// window that leaves the band or reaches the time limit. `rows_t` and
/// `peaks` hold the segment's start state and receive its end state.
pub(super) fn replay_segment<K>(
    seg: &Segment<'_>,
    start: Start,
    rows_t: &mut [f64],
    peaks: &mut [f64],
    mut key: K,
) -> SegmentEnd
where
    K: FnMut((f64, f64), (f64, f64)) -> Option<u8>,
{
    let depth = seg.kinds.len();
    let rows = rows_t.len();
    let nent = seg.forcings.len();
    let (b_buf, b_dram) = seg.binding;
    let (has_buffer, identity_split, ambient_alpha) = (seg.has_buffer, seg.identity_split, seg.ambient_alpha);
    let (band_lo, band_hi) = seg.band;
    let stab_amb = seg.stab_amb;
    let lambda_amb = 1.0 - ambient_alpha;
    // Binding-scalar constants: everything a virtual window reads.
    let a_dram = seg.alphas[b_dram % depth];
    let sa_dram: Vec<f64> = seg.forcings.iter().map(|f| f.a[b_dram]).collect();
    let sb_dram: Vec<f64> = seg.forcings.iter().map(|f| f.b[b_dram]).collect();
    let (a_buf, sa_buf, sb_buf) = if has_buffer {
        (
            seg.alphas[b_buf % depth],
            seg.forcings.iter().map(|f| f.a[b_buf]).collect::<Vec<f64>>(),
            seg.forcings.iter().map(|f| f.b[b_buf]).collect::<Vec<f64>>(),
        )
    } else {
        (0.0, Vec::new(), Vec::new())
    };
    // Literal rows: the same recurrence per row, with its forcings laid out
    // entry-major so a virtual window reads one slice.
    let lit_rows: Vec<usize> = (0..rows).filter(|&r| seg.roles[r] == RowRole::Literal).collect();
    let nl = lit_rows.len();
    let mut lit_t: Vec<f64> = lit_rows.iter().map(|&r| rows_t[r]).collect();
    let mut lit_peak: Vec<f64> = vec![f64::NEG_INFINITY; nl];
    let lit_alpha: Vec<f64> = lit_rows.iter().map(|&r| seg.alphas[r % depth]).collect();
    let lit_buf: Vec<bool> = lit_rows.iter().map(|&r| seg.kinds[r % depth] == DeviceLayerKind::Buffer).collect();
    let lit_lo: Vec<f64> = lit_rows.iter().map(|&r| band_lo[r]).collect();
    let lit_hi: Vec<f64> = lit_rows.iter().map(|&r| band_hi[r]).collect();
    let lit_sa: Vec<f64> = seg.forcings.iter().flat_map(|f| lit_rows.iter().map(|&r| f.a[r])).collect();
    let lit_sb: Vec<f64> = seg.forcings.iter().flat_map(|f| lit_rows.iter().map(|&r| f.b[r])).collect();
    // The run log: (entry, in-replay length, ambient at run entry) per
    // maximal constant-plan span — everything the close needs to replay a
    // dominated row run by run in closed form — closed every
    // [`REPLAY_LOG_CHUNK`] runs, each layer's close state carried across.
    let mut runs_log: Vec<Run> = Vec::with_capacity(REPLAY_LOG_CHUNK);
    // Built at the first close: `rows_t` and `peaks` hold the segment's
    // start state until the final write-back.
    let mut dominated: Option<Vec<DominatedLayer>> = None;
    let close_runs = |dominated: &mut Option<Vec<DominatedLayer>>, runs_log: &mut Vec<Run>| {
        let layers = dominated.get_or_insert_with(|| {
            (0..depth)
                .filter_map(|l| {
                    let rl: Vec<usize> =
                        (l..rows).step_by(depth).filter(|&r| seg.roles[r] == RowRole::Dominated).collect();
                    if rl.is_empty() {
                        return None;
                    }
                    let al = seg.alphas[l];
                    let q = al * lambda_amb / (lambda_amb - (1.0 - al));
                    let offs = seg.forcings.iter().flat_map(|f| rl.iter().map(|&r| f.off(r, identity_split))).collect();
                    Some(DominatedLayer::new(l, rl, rows_t, peaks, offs, q, nent))
                })
                .collect()
        });
        for layer in layers.iter_mut() {
            let l = layer.layer;
            layer.close(runs_log, stab_amb, seg.powers.layer(l), &seg.powers.laa, seg.ln_l[l], seg.ln_a);
        }
        runs_log.clear();
    };
    let mut counts: Vec<u64> = vec![0; nent];
    let mut counts_oh: Vec<u64> = vec![0; nent];
    let mut amb_l = start.amb_c;
    let mut time_l = start.time_s;
    let mut dtm_l = start.next_dtm_s;
    let mut t_dram = rows_t[b_dram];
    let mut t_buf = if has_buffer { rows_t[b_buf] } else { f64::NAN };
    // The maxima each decision reads: over the binding and literal rows of
    // each kind (the dominated rows stay below the binding row, and
    // `f64::max` is order-independent, so these carry the bits of the
    // literal fold over every row).
    let mut obs = start.obs;
    let mut peak_dram = f64::NEG_INFINITY;
    let mut peak_buf = f64::NEG_INFINITY;
    let mut w: u64 = 0;
    let mut runs: u64 = 0;
    let (lo_dram, hi_dram) = (band_lo[b_dram], band_hi[b_dram]);
    let (lo_buf, hi_buf) = if has_buffer { (band_lo[b_buf], band_hi[b_buf]) } else { (0.0, 0.0) };
    let mut cur_l = start.cur;
    let mut prev_l = usize::MAX;
    let mut run_l = start.run;
    let mut run_len: usize = 0;
    let mut flipped = false;
    let mut amb_sum = 0.0;
    let mut finished = false;
    let mut viol = false;
    let mut amb_run0 = start.amb_c;
    // The keys chain from the burst's last literal decision, and the
    // re-prime replays the last two virtual ones.
    let mut seen = start.seen;
    loop {
        if run_l >= REPLAY_RUN_EXIT as u64 || w >= seg.w_cap {
            break;
        }
        let Some(key) = key(seen[1], obs) else {
            break;
        };
        let ei = seg.key_entry.get(key as usize).copied().unwrap_or(usize::MAX);
        if ei == usize::MAX {
            break;
        }
        if cfg!(debug_assertions) && (seg.window0 + w).is_multiple_of(64) {
            if let Some(audit) = seg.audit {
                audit(key, obs, ei);
            }
        }
        seen = [seen[1], obs];
        if ei != cur_l {
            // Sliding-mode chatter mostly flips back to the plan it just
            // left. Naming that entry through a branch rather than the key
            // lets the CPU run the next window's ambient step under the
            // prediction instead of waiting for the key; `black_box` keeps
            // the compiler from folding the branch back into `ei`.
            let next = if ei == prev_l { std::hint::black_box(prev_l) } else { ei };
            prev_l = cur_l;
            if run_len > 0 {
                runs_log.push((cur_l as u32, run_len as u32, amb_run0));
                runs += 1;
                if runs_log.len() == REPLAY_LOG_CHUNK {
                    close_runs(&mut dominated, &mut runs_log);
                }
            }
            amb_run0 = amb_l;
            run_len = 1;
            run_l = 0;
            flipped = true;
            cur_l = next;
            counts_oh[next] += 1;
        } else {
            run_len += 1;
            run_l += 1;
            counts[ei] += 1;
        }
        amb_l += (stab_amb[cur_l] - amb_l) * ambient_alpha;
        let s = if identity_split { (amb_l + sa_dram[cur_l]) + sb_dram[cur_l] } else { amb_l + sa_dram[cur_l] };
        t_dram += (s - t_dram) * a_dram;
        peak_dram = peak_dram.max(t_dram);
        let mut in_band = lo_dram <= t_dram && t_dram <= hi_dram;
        if has_buffer {
            let s = if identity_split { (amb_l + sa_buf[cur_l]) + sb_buf[cur_l] } else { amb_l + sa_buf[cur_l] };
            t_buf += (s - t_buf) * a_buf;
            peak_buf = peak_buf.max(t_buf);
            in_band &= lo_buf <= t_buf && t_buf <= hi_buf;
        }
        obs = (t_buf, t_dram);
        if nl > 0 {
            let (sa, sb) = (&lit_sa[cur_l * nl..(cur_l + 1) * nl], &lit_sb[cur_l * nl..(cur_l + 1) * nl]);
            for i in 0..nl {
                let s = if identity_split { (amb_l + sa[i]) + sb[i] } else { amb_l + sa[i] };
                let t = &mut lit_t[i];
                *t += (s - *t) * lit_alpha[i];
                lit_peak[i] = lit_peak[i].max(*t);
                if lit_buf[i] {
                    obs.0 = obs.0.max(*t);
                } else {
                    obs.1 = obs.1.max(*t);
                }
                in_band &= lit_lo[i] <= *t && *t <= lit_hi[i];
            }
        }
        amb_sum += amb_l;
        time_l += seg.step_s;
        dtm_l += seg.dtm_s;
        w += 1;
        viol = !in_band;
        finished = time_l >= seg.max_s;
        if viol || finished {
            break;
        }
    }
    let mut end = SegmentEnd {
        windows: w,
        runs,
        counts,
        counts_oh,
        amb_c: amb_l,
        amb_sum,
        time_s: time_l,
        next_dtm_s: dtm_l,
        obs,
        seen,
        cur: cur_l,
        run: run_l,
        flipped,
        finished,
        violated: viol,
        peak: (peak_buf, peak_dram),
    };
    if w == 0 {
        return end;
    }
    runs_log.push((cur_l as u32, run_len as u32, amb_run0));
    end.runs += 1;
    // Close the segment: each dominated row replayed run by run in closed
    // form over the runs still in the log, then the exact binding, twin
    // and literal-row write-back, and the band audit of every row.
    close_runs(&mut dominated, &mut runs_log);
    for layer in dominated.iter().flatten() {
        for (j, &r) in layer.rows.iter().enumerate() {
            rows_t[r] = layer.t[j];
            peaks[r] = layer.pk[j];
        }
    }
    // Each literal row keeps its own peak; the cell maxima fold in every
    // peak the segment reached.
    for ((&r, &t), &pk) in lit_rows.iter().zip(&lit_t).zip(&lit_peak) {
        rows_t[r] = t;
        peaks[r] = peaks[r].max(pk);
        match seg.kinds[r % depth] {
            DeviceLayerKind::Dram => end.peak.1 = end.peak.1.max(pk),
            DeviceLayerKind::Buffer => end.peak.0 = end.peak.0.max(pk),
        }
    }
    for r in 0..rows {
        if matches!(seg.roles[r], RowRole::Binding | RowRole::Twin) {
            (rows_t[r], peaks[r]) = match seg.kinds[r % depth] {
                DeviceLayerKind::Dram => (t_dram, peaks[r].max(peak_dram)),
                DeviceLayerKind::Buffer => (t_buf, peaks[r].max(peak_buf)),
            };
        }
        end.violated |= !(band_lo[r] <= rows_t[r] && rows_t[r] <= band_hi[r]);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::rng::SmallRng;

    #[test]
    fn replay_row_roles_split_binding_twin_literal_and_dominated_rows() {
        use DeviceLayerKind::{Buffer, Dram};
        use RowRole::{Binding, Dominated, Literal, Twin};
        // FBDIMM-like: four positions of (buffer, DRAM), rows `2·pos + l`.
        // Audit per row: (forcing gap holds, forcings equal the binding
        // row's, highest forcing offset); the offsets only matter across
        // layers, so they are zero here.
        let kinds = [Buffer, Dram];
        // (buffer, DRAM) per position: the binding rows; a bitwise twin and
        // a clear gap; a near-twin whose forcing gap fails and a start gap
        // under the margin; twin forcings and state but a band of its own,
        // and a clear gap.
        let positions = [(108.0, 90.0), (108.0, 89.0), (107.957, 90.0 - 1e-10), (108.0, 80.0)];
        let rows_t: Vec<f64> = positions.iter().flat_map(|&(buf, dram)| [buf, dram]).collect();
        assert_eq!(binding_rows(&kinds, &rows_t), (0, 1));
        let audit = [
            (false, true, 0.0),
            (false, true, 0.0),
            (false, true, 0.0),
            (true, false, 0.0),
            (false, false, 0.0),
            (true, false, 0.0),
            (false, true, 0.0),
            (true, false, 0.0),
        ];
        let lo = vec![50.0; 8];
        let mut hi = vec![120.0; 8];
        hi[6] = 121.0;
        let roles = replay_roles(&kinds, (0, 1), &rows_t, (&lo, &hi), &audit, (40.0, 45.0), |_| 0.0);
        assert_eq!(roles, [Binding, Binding, Twin, Dominated, Literal, Literal, Literal, Dominated]);

        // A DRAM row on another layer than its binding row is dominated
        // only if its highest reachable temperature (its start, or the
        // highest ambient plus its highest forcing offset) stays a margin
        // below the binding row's lowest (its start, or the lowest ambient
        // plus the binding row's lowest offset: 40 + 40 = 80 here).
        let kinds = [Buffer, Dram, Dram];
        let (lo, hi) = (vec![50.0; 3], vec![120.0; 3]);
        let lo_off = |b: usize| {
            assert_eq!(b, 1, "the cross-layer bound reads the binding row's offsets");
            40.0
        };
        for (hi_off, want) in [(10.0, Dominated), (40.0, Literal)] {
            let audit = [(false, true, 0.0), (false, true, 0.0), (false, false, hi_off)];
            let roles = replay_roles(&kinds, (0, 1), &[100.0, 90.0, 70.0], (&lo, &hi), &audit, (40.0, 45.0), lo_off);
            assert_eq!(roles, [Binding, Binding, want], "highest offset {hi_off}");
        }
    }

    #[test]
    fn close_matches_the_literal_recurrence_on_runs_of_one_to_five_windows() {
        let close_enough = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs().max(got.abs());
        let mut rng = SmallRng::seed_from_u64(0x5EED_C105E);
        // Runs whose peak comes from an interior window, beyond the
        // tolerance: of two windows, and of three to five.
        let (mut interior_2, mut interior_long) = (0, 0);
        for case in 0..400 {
            let (nent, n) = (3, 5);
            let alpha = rng.gen_range(0.05..0.5);
            let ambient_alpha = loop {
                let a = rng.gen_range(0.05..0.9);
                if (a - alpha).abs() > 1e-3 {
                    break a;
                }
            };
            let powers = Powers::new(&[alpha], ambient_alpha);
            let (lambda, lambda_amb) = (1.0 - alpha, 1.0 - ambient_alpha);
            let q = alpha * lambda_amb / (lambda_amb - lambda);
            let stab_amb: Vec<f64> = (0..nent).map(|_| rng.gen_range(30.0..70.0)).collect();
            let offs: Vec<f64> = (0..nent * n).map(|_| rng.gen_range(0.0..40.0)).collect();
            let mut t: Vec<f64> = (0..n).map(|_| rng.gen_range(40.0..110.0)).collect();
            let mut pk: Vec<f64> = t.iter().map(|&t| t + rng.gen_range(0.0..0.5)).collect();
            let mut amb = rng.gen_range(30.0..70.0);
            let mut layer = DominatedLayer::new(0, (0..n).collect(), &t, &pk, offs.clone(), q, nent);
            for run in 0..60 {
                let (ei, len) = (rng.gen_range(0..nent as u64) as usize, rng.gen_range(1..6u64) as u32);
                // The literal recurrence: the ambient step, then each row's
                // RC step toward the ambient plus its forcing offset.
                let amb0 = amb;
                let before = pk.clone();
                let mut first = vec![0.0; n];
                for k in 0..len {
                    amb += (stab_amb[ei] - amb) * ambient_alpha;
                    for j in 0..n {
                        t[j] += (amb + offs[ei * n + j] - t[j]) * alpha;
                        pk[j] = pk[j].max(t[j]);
                        if k == 0 {
                            first[j] = t[j];
                        }
                    }
                }
                for j in 0..n {
                    if pk[j] > before[j].max(t[j]) * (1.0 + 1e-9) {
                        if len == 2 {
                            interior_2 += 1;
                            assert_eq!(pk[j], first[j]);
                        } else {
                            interior_long += 1;
                        }
                    }
                }
                // Closed run by run, so every run's result is checked.
                layer.close(
                    &[(ei as u32, len, amb0)],
                    &stab_amb,
                    powers.layer(0),
                    &powers.laa,
                    lambda.ln(),
                    lambda_amb.ln(),
                );
                for j in 0..n {
                    assert!(
                        close_enough(layer.t[j], t[j]) && close_enough(layer.pk[j], pk[j]),
                        "case {case}, run {run} (entry {ei}, {len} windows), row {j}: closed ({}, {}) vs literal ({}, {})",
                        layer.t[j],
                        layer.pk[j],
                        t[j],
                        pk[j]
                    );
                }
            }
        }
        assert!(
            interior_2 >= 50 && interior_long >= 50,
            "interior peaks: {interior_2} two-window, {interior_long} longer"
        );
    }
}
