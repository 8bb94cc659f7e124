//! Stack-resolved thermal scene: one RC node **stack** per DIMM position.
//!
//! The paper's two-level simulator tracks a single AMB+DRAM pair for the
//! hottest DIMM (Section 4.3.1). A [`DimmThermalScene`] generalizes that
//! twice over:
//!
//! * **Across positions** — every DIMM position (logical channels × DIMMs
//!   per channel) integrates its own temperatures from its own power, all
//!   breathing the same memory-ambient air, and the hottest device is
//!   derived by arg-max instead of assumed.
//! * **Across layers** — each position holds an ordered
//!   [`StackTopology`] of
//!   [`DeviceLayer`](crate::thermal::params::DeviceLayer) nodes: the legacy
//!   AMB+DRAM pair, a DDR4/5-style rank pair with no buffer die, or a
//!   CoMeT-style 3D stack whose dies couple vertically through TSV
//!   resistances and heat each other. Layer temperatures follow the same
//!   Equation 3.5 RC dynamics toward steady states given by the topology's
//!   Ψ coupling matrix (Eqs. 3.3–3.4 generalized to N layers).
//!
//! The FBDIMM topology is the two-layer instance of the general machinery
//! and reproduces the pre-stack trajectories **bit-identically** (pinned by
//! `tests/scene_regression.rs` and the bit-pattern golden in
//! `tests/stack_regression.rs`).
//!
//! The scene produces the [`ThermalObservation`] the DTM policies consume:
//! maximum device temperatures (NaN-safe — a stack with no buffer die has
//! no AMB maximum), the full per-position × per-layer temperature field,
//! and the derived hottest positions and layers.

use fbdimm_sim::FbdimmConfig;

use crate::power::fbdimm::FbdimmPowerBreakdown;
use crate::thermal::params::{AmbientParams, CoolingConfig, DeviceLayerKind, StackTopology, ThermalLimits};
use crate::thermal::rc::ThermalNode;

/// NaN-aware `f64` equality: a `NaN` buffer maximum is a regular value
/// ("this stack has no buffer die"), so two observations of the same
/// bufferless scene must compare equal instead of `NaN != NaN` poisoning
/// every derived comparison.
pub(crate) fn f64_eq_nan(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// Temperature summary of one DIMM position's device stack.
#[derive(Debug, Clone, Copy)]
pub struct PositionTemp {
    /// Logical channel index.
    pub channel: usize,
    /// DIMM position along the chain (0 = closest to the controller).
    pub dimm: usize,
    /// Buffer-layer (AMB / base-die) temperature, °C. `NaN` when the stack
    /// has no buffer layer (DDR4/5 rank pairs).
    pub amb_c: f64,
    /// Hottest DRAM-layer temperature of the stack, °C.
    pub dram_c: f64,
    /// Index of the hottest layer in the stack (arg-max over all layers).
    pub hottest_layer: usize,
    /// Temperature of that hottest layer, °C.
    pub hottest_layer_c: f64,
}

impl PartialEq for PositionTemp {
    fn eq(&self, other: &Self) -> bool {
        self.channel == other.channel
            && self.dimm == other.dimm
            && f64_eq_nan(self.amb_c, other.amb_c)
            && self.dram_c == other.dram_c
            && self.hottest_layer == other.hottest_layer
            && self.hottest_layer_c == other.hottest_layer_c
    }
}

/// What a DTM policy sees at a decision point: the sensed temperature field
/// of the memory subsystem.
///
/// Policies that act globally (all of Chapter 4's schemes) read the maxima;
/// the per-position and per-layer fields are carried alongside so spatially
/// aware policies can be written against the same interface.
///
/// Equality is NaN-aware on the fields where `NaN` is a meaningful value
/// (`max_amb_c` for bufferless stacks, `ambient_c` for synthesized
/// observations), so identical observations always compare equal.
#[derive(Debug, Clone)]
pub struct ThermalObservation {
    /// Hottest buffer (AMB / base-die) temperature across all positions,
    /// °C. `NaN` when the scene's stacks have no buffer layer — use
    /// [`ThermalObservation::max_amb_opt`] for Option-style access; all
    /// limit checks on this struct treat `NaN` as "no such device" rather
    /// than reporting 0.0 as a hot (or cold) spot.
    pub max_amb_c: f64,
    /// Hottest DRAM temperature across all positions and DRAM layers, °C.
    pub max_dram_c: f64,
    /// Memory ambient (DIMM inlet) temperature, °C. `NaN` when the
    /// observation was synthesized from scalar device sensors that cannot
    /// see the ambient ([`ThermalObservation::from_hottest`]).
    pub ambient_c: f64,
    /// `(channel, dimm)` of the position with the hottest buffer, if any.
    pub hottest_amb: Option<(usize, usize)>,
    /// `(channel, dimm)` of the position with the hottest DRAM layer, if any.
    pub hottest_dram: Option<(usize, usize)>,
    /// The per-position stack summaries (empty when the observation was
    /// synthesized from scalar sensors).
    pub positions: Vec<PositionTemp>,
    /// Number of layers per stack (0 for synthesized observations).
    pub layer_depth: usize,
    /// Flat per-layer temperature field, position-major: the stack of
    /// `positions[i]` occupies `layer_temps_c[i*layer_depth..(i+1)*layer_depth]`.
    pub layer_temps_c: Vec<f64>,
}

impl PartialEq for ThermalObservation {
    fn eq(&self, other: &Self) -> bool {
        f64_eq_nan(self.max_amb_c, other.max_amb_c)
            && self.max_dram_c == other.max_dram_c
            && f64_eq_nan(self.ambient_c, other.ambient_c)
            && self.hottest_amb == other.hottest_amb
            && self.hottest_dram == other.hottest_dram
            && self.positions == other.positions
            && self.layer_depth == other.layer_depth
            && self.layer_temps_c == other.layer_temps_c
    }
}

impl ThermalObservation {
    /// Builds an observation from scalar hottest-device temperatures, with
    /// no per-position field. This is what a pair of physical sensors (or a
    /// unit test) provides; a sensor board with no buffer device passes
    /// `f64::NAN` for `max_amb_c` and every limit check on the observation
    /// stays well-defined. `ambient_c` is `NaN` — the sensors cannot see
    /// the ambient; use [`ThermalObservation::with_ambient_c`] when the
    /// caller knows it.
    pub fn from_hottest(max_amb_c: f64, max_dram_c: f64) -> Self {
        ThermalObservation {
            max_amb_c,
            max_dram_c,
            ambient_c: f64::NAN,
            hottest_amb: None,
            hottest_dram: None,
            positions: Vec::new(),
            layer_depth: 0,
            layer_temps_c: Vec::new(),
        }
    }

    /// Returns a copy with a known ambient (inlet) temperature.
    pub fn with_ambient_c(mut self, ambient_c: f64) -> Self {
        self.ambient_c = ambient_c;
        self
    }

    /// The hottest buffer temperature, or `None` when the observed stacks
    /// have no buffer layer (`max_amb_c` is `NaN`).
    pub fn max_amb_opt(&self) -> Option<f64> {
        if self.max_amb_c.is_nan() {
            None
        } else {
            Some(self.max_amb_c)
        }
    }

    /// Whether either maximum reaches its thermal design point. `NaN`
    /// maxima (absent devices) never trip a limit.
    pub fn over_tdp(&self, limits: &ThermalLimits) -> bool {
        self.max_amb_c >= limits.amb_tdp_c || self.max_dram_c >= limits.dram_tdp_c
    }

    /// Whether every present device has cooled to (or below) its thermal
    /// release point — the DTM-TS re-enable condition. `NaN` maxima
    /// (absent devices) count as released.
    pub fn released(&self, limits: &ThermalLimits) -> bool {
        let at_or_below = |temp: f64, trp_c: f64| temp.is_nan() || temp <= trp_c;
        at_or_below(self.max_amb_c, limits.amb_trp_c) && at_or_below(self.max_dram_c, limits.dram_trp_c)
    }

    /// The per-layer temperatures of position `index`, in stack order
    /// (empty for synthesized observations).
    pub fn layers_of(&self, index: usize) -> &[f64] {
        if self.layer_depth == 0 {
            return &[];
        }
        &self.layer_temps_c[index * self.layer_depth..(index + 1) * self.layer_depth]
    }

    /// Number of logical channels covered by the per-position field (0 for
    /// synthesized observations).
    pub fn channels(&self) -> usize {
        self.positions.iter().map(|p| p.channel + 1).max().unwrap_or(0)
    }

    /// The hottest buffer and DRAM temperatures of one logical channel,
    /// NaN-safe: the buffer maximum is `NaN` for bufferless stacks, and both
    /// are `NaN` when the channel has no observed positions. This is the
    /// sensor input of per-channel policies
    /// ([`DtmCbw`](crate::dtm::cbw::DtmCbw)): each channel is throttled from
    /// its own hottest layer instead of the global maximum.
    pub fn channel_max_temps(&self, channel: usize) -> (f64, f64) {
        let nan_max = |acc: f64, t: f64| if t.is_nan() || t <= acc { acc } else { t };
        let mut amb = f64::NAN;
        let mut dram = f64::NAN;
        for p in self.positions.iter().filter(|p| p.channel == channel) {
            amb = if amb.is_nan() { p.amb_c } else { nan_max(amb, p.amb_c) };
            dram = if dram.is_nan() { p.dram_c } else { nan_max(dram, p.dram_c) };
        }
        (amb, dram)
    }

    /// Index (into `positions`) of the position whose hottest layer is the
    /// hottest of the field, or `None` for synthesized observations.
    pub fn hottest_position_index(&self) -> Option<usize> {
        self.positions
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.hottest_layer_c.total_cmp(&b.hottest_layer_c))
            .map(|(i, _)| i)
    }

    /// Index (into `positions`) of the position whose hottest layer is the
    /// coolest of the field, or `None` for synthesized observations.
    pub fn coldest_position_index(&self) -> Option<usize> {
        self.positions
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.hottest_layer_c.total_cmp(&b.hottest_layer_c))
            .map(|(i, _)| i)
    }
}

/// Precomputed per-step RC decay factors for one step length. Every position
/// shares the topology's per-layer time constants, so a whole-scene step
/// needs `depth + 1` `exp()` evaluations in total — computed once per
/// distinct `dt_s` and reused for every subsequent window of the same
/// length, instead of `depth × positions + 1` per step.
#[derive(Debug, Clone)]
struct StepCoeffs {
    dt_s: f64,
    ambient_alpha: f64,
    layer_alphas: Vec<f64>,
}

/// A thermal model of the whole DIMM population.
///
/// Positions are ordered channel-major (`index = channel ×
/// dimms_per_channel + dimm`), matching the order of
/// [`FbdimmPowerModel::scene_power`](crate::power::fbdimm::FbdimmPowerModel::scene_power)
/// for a full traffic window. Each position holds one device stack; layer
/// temperatures live in a flat position-major array so the window loop
/// touches contiguous memory.
///
/// All positions share one memory-ambient node (constant under isolated
/// parameters, processor-driven under integrated ones, Equation 3.6).
#[derive(Debug, Clone)]
pub struct DimmThermalScene {
    cooling: CoolingConfig,
    topology: StackTopology,
    limits: ThermalLimits,
    ambient_params: AmbientParams,
    ambient: ThermalNode,
    dimms_per_channel: usize,
    /// `(channel, dimm)` per position, channel-major.
    coords: Vec<(usize, usize)>,
    /// Current layer temperatures, position-major flat (positions × depth).
    temps_c: Vec<f64>,
    /// Running per-layer peak temperatures since construction, same layout.
    peaks_c: Vec<f64>,
    coeffs: Option<StepCoeffs>,
    /// Per-layer watts scratch for one position (reused every step).
    watts: Vec<f64>,
}

impl DimmThermalScene {
    /// Creates a scene with explicit shape and ambient parameters and the
    /// legacy FBDIMM (AMB + DRAM) stack at every position; every node
    /// starts at the ambient inlet temperature.
    pub fn new(
        channels: usize,
        dimms_per_channel: usize,
        cooling: CoolingConfig,
        limits: ThermalLimits,
        ambient_params: AmbientParams,
    ) -> Self {
        let topology = StackTopology::fbdimm(&cooling.resistances());
        Self::with_topology(channels, dimms_per_channel, cooling, limits, ambient_params, topology)
    }

    /// Creates a scene whose positions each hold the given device stack.
    pub fn with_topology(
        channels: usize,
        dimms_per_channel: usize,
        cooling: CoolingConfig,
        limits: ThermalLimits,
        ambient_params: AmbientParams,
        topology: StackTopology,
    ) -> Self {
        assert!(channels > 0 && dimms_per_channel > 0, "scene must contain at least one DIMM position");
        let start = ambient_params.system_inlet_c;
        let coords: Vec<(usize, usize)> =
            (0..channels).flat_map(|channel| (0..dimms_per_channel).map(move |dimm| (channel, dimm))).collect();
        let cells = coords.len() * topology.depth();
        DimmThermalScene {
            cooling,
            limits,
            ambient_params,
            ambient: ThermalNode::new(start, ambient_params.tau_cpu_dram_s),
            dimms_per_channel,
            coords,
            temps_c: vec![start; cells],
            peaks_c: vec![start; cells],
            coeffs: None,
            watts: vec![0.0; topology.depth()],
            topology,
        }
    }

    /// A scene shaped like `mem` under the isolated thermal model (constant
    /// ambient, Table 3.3), with the legacy FBDIMM stack.
    pub fn isolated(mem: &FbdimmConfig, cooling: CoolingConfig, limits: ThermalLimits) -> Self {
        Self::new(mem.logical_channels, mem.dimms_per_channel, cooling, limits, AmbientParams::isolated(&cooling))
    }

    /// A scene shaped like `mem` under the integrated thermal model
    /// (processor-heated ambient, Equation 3.6), with the legacy FBDIMM
    /// stack.
    pub fn integrated(mem: &FbdimmConfig, cooling: CoolingConfig, limits: ThermalLimits) -> Self {
        Self::new(mem.logical_channels, mem.dimms_per_channel, cooling, limits, AmbientParams::integrated(&cooling))
    }

    /// Number of DIMM positions in the scene.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the scene has no positions (never true for a constructed
    /// scene; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The device stack each position holds.
    pub fn topology(&self) -> &StackTopology {
        &self.topology
    }

    /// Number of layers per position (the stack depth).
    pub fn depth(&self) -> usize {
        self.topology.depth()
    }

    /// The cooling configuration in use.
    pub fn cooling(&self) -> &CoolingConfig {
        &self.cooling
    }

    /// The thermal limits in use.
    pub fn limits(&self) -> &ThermalLimits {
        &self.limits
    }

    /// The ambient parameters in use.
    pub fn ambient_params(&self) -> &AmbientParams {
        &self.ambient_params
    }

    /// Current memory ambient (DIMM inlet) temperature.
    pub fn ambient_c(&self) -> f64 {
        self.ambient.temp_c()
    }

    /// Flat index of a `(channel, dimm)` position.
    pub fn position_index(&self, channel: usize, dimm: usize) -> Option<usize> {
        let idx = channel * self.dimms_per_channel + dimm;
        (dimm < self.dimms_per_channel && idx < self.coords.len()).then_some(idx)
    }

    /// Advances every position by `dt_s` seconds.
    ///
    /// `powers` carries one buffer/DRAM power breakdown per position in
    /// scene order; the topology splits each breakdown over the stack's
    /// layers and the Ψ matrix couples the layer powers into per-layer
    /// steady states (vertically stacked dies heat each other through
    /// their TSV resistances). `sum_voltage_ipc` is the processors'
    /// Σ(V·IPC) term of Equation 3.6 (ignored under isolated ambient
    /// parameters, where Ψ_CPU_MEM×ξ = 0).
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` does not match the number of positions.
    pub fn step(&mut self, powers: &[FbdimmPowerBreakdown], sum_voltage_ipc: f64, dt_s: f64) {
        assert_eq!(powers.len(), self.coords.len(), "one power breakdown per DIMM position required");
        let depth = self.topology.depth();
        // All positions share the topology's per-layer time constants, so
        // one scene step costs `depth + 1` `exp()`s — and zero once the step
        // length repeats (the window loop always steps with a fixed
        // `step_s`).
        if !matches!(&self.coeffs, Some(c) if c.dt_s == dt_s) {
            self.coeffs = Some(StepCoeffs {
                dt_s,
                ambient_alpha: ThermalNode::decay_alpha(self.ambient.tau_s(), dt_s),
                layer_alphas: self.topology.layers().iter().map(|l| ThermalNode::decay_alpha(l.tau_s, dt_s)).collect(),
            });
        }
        let coeffs = self.coeffs.as_ref().expect("coefficients computed above");
        let stable_ambient = self.ambient_params.stable_ambient_c(sum_voltage_ipc);
        let ambient = self.ambient.step_with_alpha(stable_ambient, coeffs.ambient_alpha);
        if self.topology.is_identity_split() {
            // Legacy FBDIMM order (ambient-first accumulation) — preserved
            // exactly so the paper-configuration goldens stay bit-identical.
            for (pos, p) in powers.iter().enumerate() {
                self.topology.split_watts_into(p.amb_watts, p.dram_watts, &mut self.watts);
                let base = pos * depth;
                for l in 0..depth {
                    let mut stable = ambient;
                    for (w, psi) in self.watts.iter().zip(self.topology.psi_row(l)) {
                        stable += w * psi;
                    }
                    let t = &mut self.temps_c[base + l];
                    *t += (stable - *t) * coeffs.layer_alphas[l];
                    let peak = &mut self.peaks_c[base + l];
                    *peak = peak.max(*t);
                }
            }
        } else {
            // Non-identity stacks superpose Ψ from zero and add the ambient
            // last: the same operation order as the batched tier's cached
            // superposition matrix, so both paths round identically.
            for (pos, p) in powers.iter().enumerate() {
                self.topology.split_watts_into(p.amb_watts, p.dram_watts, &mut self.watts);
                let base = pos * depth;
                for l in 0..depth {
                    let stable = ambient + self.topology.psi_superpose(&self.watts, l);
                    let t = &mut self.temps_c[base + l];
                    *t += (stable - *t) * coeffs.layer_alphas[l];
                    let peak = &mut self.peaks_c[base + l];
                    *peak = peak.max(*t);
                }
            }
        }
    }

    /// Advances only the shared ambient node by one precomputed decay
    /// factor and returns the new ambient temperature. The batched engine
    /// ([`crate::sim::batch`]) steps each cell's ambient individually, then
    /// runs one fused per-layer RC loop over the whole lane; routing the
    /// update through the same `step_with_alpha` call keeps every cell's
    /// ambient bit-identical to a [`DimmThermalScene::step`] sequence.
    pub(crate) fn step_ambient(&mut self, sum_voltage_ipc: f64, alpha: f64) -> f64 {
        let stable_ambient = self.ambient_params.stable_ambient_c(sum_voltage_ipc);
        self.ambient.step_with_alpha(stable_ambient, alpha)
    }

    /// Overwrites the shared ambient node temperature. The batched
    /// engine's envelope tier advances the ambient in closed form during
    /// certified segment jumps and writes the exact endpoint back here.
    pub(crate) fn set_ambient_c(&mut self, temp_c: f64) {
        self.ambient.set_temp_c(temp_c);
    }

    /// Closed-form segment moments of the shared ambient node: over `m`
    /// windows of geometric relaxation toward `stable` (per-window decay
    /// factor `lambda_a`, current deviation `a0 = ambient − stable`), the
    /// node's endpoint is `stable + a0·λ_a^m` and the running sum of the
    /// per-window samples is the geometric series
    /// `stable·m + a0·λ_a·(1 − λ_a^m)/(1 − λ_a)`. Writes the endpoint back
    /// and returns the sum — the two moments the envelope replay accounts
    /// for a licensed segment jump without stepping the node per window.
    pub(crate) fn ambient_segment_moments(&mut self, stable: f64, a0: f64, lambda_a: f64, m: f64) -> f64 {
        let lam_am = (m * lambda_a.ln()).exp();
        let sum = stable * m + a0 * lambda_a * (1.0 - lam_am) / (1.0 - lambda_a);
        self.ambient.set_temp_c(stable + a0 * lam_am);
        sum
    }

    /// The flat position-major layer temperature field (positions × depth).
    pub(crate) fn layer_temps_flat(&self) -> &[f64] {
        &self.temps_c
    }

    /// The flat position-major running peak field (positions × depth).
    pub(crate) fn layer_peaks_flat(&self) -> &[f64] {
        &self.peaks_c
    }

    /// Overwrites the layer temperature field from a flat position-major
    /// slice (the batched engine synchronizes its lane matrix back into the
    /// scene before observations and at the end of a run).
    pub(crate) fn set_layer_temps(&mut self, temps_c: &[f64]) {
        assert_eq!(temps_c.len(), self.temps_c.len(), "temperature field shape mismatch");
        self.temps_c.copy_from_slice(temps_c);
    }

    /// Overwrites the running peak field from a flat position-major slice.
    pub(crate) fn set_layer_peaks(&mut self, peaks_c: &[f64]) {
        assert_eq!(peaks_c.len(), self.peaks_c.len(), "peak field shape mismatch");
        self.peaks_c.copy_from_slice(peaks_c);
    }

    /// Computes every layer's RC fixed point — the temperature it converges
    /// to if `powers` and `sum_voltage_ipc` were held forever, with the
    /// shared ambient at its own fixed point — into `out` (position-major
    /// flat, `positions × depth`, cleared first).
    ///
    /// The arithmetic mirrors [`DimmThermalScene::step`] operation for
    /// operation — identity splits accumulate ambient-first in ψ-row order,
    /// non-identity stacks superpose Ψ from zero via `psi_superpose` and add
    /// the ambient last — so a temperature field sitting exactly at the
    /// fixed point is bit-stationary under `step` with the same inputs. The steady-state
    /// fast-forward uses this to decide when the transient has died out and
    /// to evaluate its closed-form jump.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` does not match the number of positions.
    pub fn fixed_point_into(&self, powers: &[FbdimmPowerBreakdown], sum_voltage_ipc: f64, out: &mut Vec<f64>) {
        assert_eq!(powers.len(), self.coords.len(), "one power breakdown per DIMM position required");
        let depth = self.topology.depth();
        let ambient = self.ambient_params.stable_ambient_c(sum_voltage_ipc);
        out.clear();
        out.reserve(powers.len() * depth);
        let mut watts = vec![0.0; depth];
        if self.topology.is_identity_split() {
            for p in powers {
                self.topology.split_watts_into(p.amb_watts, p.dram_watts, &mut watts);
                for l in 0..depth {
                    let mut stable = ambient;
                    for (w, psi) in watts.iter().zip(self.topology.psi_row(l)) {
                        stable += w * psi;
                    }
                    out.push(stable);
                }
            }
        } else {
            for p in powers {
                self.topology.split_watts_into(p.amb_watts, p.dram_watts, &mut watts);
                for l in 0..depth {
                    out.push(ambient + self.topology.psi_superpose(&watts, l));
                }
            }
        }
    }

    /// The current hottest `(buffer, dram)` temperatures across all
    /// positions, without materializing a full observation (the per-window
    /// hot path of the simulation engine). The buffer maximum is `NaN` when
    /// the stack has no buffer layer.
    pub fn max_temps_c(&self) -> (f64, f64) {
        self.fold_kind_maxima(&self.temps_c)
    }

    /// Like [`DimmThermalScene::max_temps_c`] but over the running
    /// per-layer peaks instead of the current temperatures.
    pub fn peak_temps_c(&self) -> (f64, f64) {
        self.fold_kind_maxima(&self.peaks_c)
    }

    fn fold_kind_maxima(&self, field: &[f64]) -> (f64, f64) {
        let depth = self.topology.depth();
        let mut max_buffer = f64::NEG_INFINITY;
        let mut max_dram = f64::NEG_INFINITY;
        for stack in field.chunks_exact(depth) {
            for (layer, &t) in self.topology.layers().iter().zip(stack) {
                match layer.kind {
                    DeviceLayerKind::Buffer => max_buffer = max_buffer.max(t),
                    DeviceLayerKind::Dram => max_dram = max_dram.max(t),
                }
            }
        }
        if self.topology.has_buffer() {
            (max_buffer, max_dram)
        } else {
            (f64::NAN, max_dram)
        }
    }

    fn summarize(&self, pos: usize, field: &[f64]) -> PositionTemp {
        let depth = self.topology.depth();
        let stack = &field[pos * depth..(pos + 1) * depth];
        let (channel, dimm) = self.coords[pos];
        let mut amb_c = f64::NAN;
        let mut dram_c = f64::NEG_INFINITY;
        let mut hottest_layer = 0;
        let mut hottest_layer_c = f64::NEG_INFINITY;
        for (l, (layer, &t)) in self.topology.layers().iter().zip(stack).enumerate() {
            match layer.kind {
                DeviceLayerKind::Buffer => amb_c = if amb_c.is_nan() { t } else { amb_c.max(t) },
                DeviceLayerKind::Dram => dram_c = dram_c.max(t),
            }
            if t > hottest_layer_c {
                hottest_layer_c = t;
                hottest_layer = l;
            }
        }
        PositionTemp { channel, dimm, amb_c, dram_c, hottest_layer, hottest_layer_c }
    }

    /// The current per-position temperature summaries.
    pub fn position_temps(&self) -> Vec<PositionTemp> {
        (0..self.coords.len()).map(|pos| self.summarize(pos, &self.temps_c)).collect()
    }

    /// The running per-position peak summaries since construction.
    pub fn position_peaks(&self) -> Vec<PositionTemp> {
        (0..self.coords.len()).map(|pos| self.summarize(pos, &self.peaks_c)).collect()
    }

    /// The running per-layer peak temperatures of position `index`, in
    /// stack order.
    pub fn layer_peaks_of(&self, index: usize) -> &[f64] {
        let depth = self.topology.depth();
        &self.peaks_c[index * depth..(index + 1) * depth]
    }

    /// The current per-layer temperatures of position `index`, in stack
    /// order.
    pub fn layers_of(&self, index: usize) -> &[f64] {
        let depth = self.topology.depth();
        &self.temps_c[index * depth..(index + 1) * depth]
    }

    /// Snapshots the scene into the observation a DTM policy consumes, with
    /// the hottest devices *derived* (arg-max over positions and layers).
    pub fn observe(&self) -> ThermalObservation {
        let mut obs = ThermalObservation::from_hottest(f64::NEG_INFINITY, f64::NEG_INFINITY);
        self.observe_into(&mut obs);
        obs
    }

    /// Like [`DimmThermalScene::observe`] but refills a caller-owned
    /// observation, reusing its `positions` and `layer_temps_c`
    /// allocations. The window loop calls this once per DTM interval with
    /// one scratch buffer per run, so the hot path allocates nothing.
    pub fn observe_into(&self, obs: &mut ThermalObservation) {
        let depth = self.topology.depth();
        obs.max_amb_c = f64::NEG_INFINITY;
        obs.max_dram_c = f64::NEG_INFINITY;
        obs.ambient_c = self.ambient.temp_c();
        obs.hottest_amb = None;
        obs.hottest_dram = None;
        obs.layer_depth = depth;
        obs.positions.clear();
        obs.positions.reserve(self.coords.len());
        obs.layer_temps_c.clear();
        obs.layer_temps_c.extend_from_slice(&self.temps_c);
        for pos in 0..self.coords.len() {
            let summary = self.summarize(pos, &self.temps_c);
            if summary.amb_c > obs.max_amb_c {
                obs.max_amb_c = summary.amb_c;
                obs.hottest_amb = Some((summary.channel, summary.dimm));
            }
            if summary.dram_c > obs.max_dram_c {
                obs.max_dram_c = summary.dram_c;
                obs.hottest_dram = Some((summary.channel, summary.dimm));
            }
            obs.positions.push(summary);
        }
        if !self.topology.has_buffer() {
            obs.max_amb_c = f64::NAN;
        }
    }

    /// Like [`DimmThermalScene::observe_into`] but reading the temperature
    /// field from column `col` of a row-major lane matrix (`stride` cells
    /// per row) instead of the scene's own field. The batched engine
    /// ([`crate::sim::batch`]) keeps in-flight temperatures in its lane, so
    /// observing through this method skips the two full-field copies a
    /// sync-then-observe round trip would cost per DTM decision. The column
    /// is gathered once into the observation's own `layer_temps_c` buffer
    /// and summarized from there, so every derived quantity carries bits
    /// identical to a synced [`DimmThermalScene::observe_into`].
    pub(crate) fn observe_lane_into(&self, temps: &[f64], stride: usize, col: usize, obs: &mut ThermalObservation) {
        let depth = self.topology.depth();
        obs.max_amb_c = f64::NEG_INFINITY;
        obs.max_dram_c = f64::NEG_INFINITY;
        obs.ambient_c = self.ambient.temp_c();
        obs.hottest_amb = None;
        obs.hottest_dram = None;
        obs.layer_depth = depth;
        obs.positions.clear();
        obs.positions.reserve(self.coords.len());
        let mut field = std::mem::take(&mut obs.layer_temps_c);
        field.clear();
        field.extend(temps[col..].iter().step_by(stride).take(self.coords.len() * depth));
        for pos in 0..self.coords.len() {
            let summary = self.summarize(pos, &field);
            if summary.amb_c > obs.max_amb_c {
                obs.max_amb_c = summary.amb_c;
                obs.hottest_amb = Some((summary.channel, summary.dimm));
            }
            if summary.dram_c > obs.max_dram_c {
                obs.max_dram_c = summary.dram_c;
                obs.hottest_dram = Some((summary.channel, summary.dimm));
            }
            obs.positions.push(summary);
        }
        obs.layer_temps_c = field;
        if !self.topology.has_buffer() {
            obs.max_amb_c = f64::NAN;
        }
    }

    /// Whether any layer of any position currently exceeds the thermal
    /// design point of its device kind (buffer layers check the AMB TDP,
    /// DRAM layers the DRAM TDP).
    pub fn over_tdp(&self) -> bool {
        let depth = self.topology.depth();
        self.temps_c.chunks_exact(depth).any(|stack| {
            self.topology.layers().iter().zip(stack).any(|(layer, &t)| t >= self.limits.tdp_for(layer.kind))
        })
    }

    /// Forces every position to the given device temperatures: buffer
    /// layers to `amb_c`, DRAM layers to `dram_c` (used to start
    /// experiments from a known state).
    pub fn set_uniform_temps_c(&mut self, amb_c: f64, dram_c: f64) {
        let depth = self.topology.depth();
        for (cell, layer) in
            self.temps_c.iter_mut().zip(self.topology.layers().iter().cycle().take(depth * self.coords.len()))
        {
            let t = match layer.kind {
                DeviceLayerKind::Buffer => amb_c,
                DeviceLayerKind::Dram => dram_c,
            };
            *cell = t;
        }
        for (peak, &t) in self.peaks_c.iter_mut().zip(self.temps_c.iter()) {
            *peak = peak.max(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermal::isolated::IsolatedThermalModel;
    use crate::thermal::model::ThermalModel;
    use crate::thermal::params::StackKind;

    fn shape() -> FbdimmConfig {
        FbdimmConfig::ddr2_667_paper()
    }

    fn graded_powers(n: usize) -> Vec<FbdimmPowerBreakdown> {
        // Position 0 of each channel is the hottest (carries the bypass
        // traffic of everything behind it), like a real FBDIMM chain.
        (0..n).map(|i| FbdimmPowerBreakdown { amb_watts: 6.5 - 0.3 * (i % 4) as f64, dram_watts: 2.0 }).collect()
    }

    fn stacked_scene(kind: StackKind) -> DimmThermalScene {
        let mem = shape();
        let cooling = CoolingConfig::aohs_1_5();
        DimmThermalScene::with_topology(
            mem.logical_channels,
            mem.dimms_per_channel,
            cooling,
            ThermalLimits::paper_fbdimm(),
            AmbientParams::isolated(&cooling),
            kind.topology(&cooling),
        )
    }

    #[test]
    fn scene_has_one_position_per_dimm() {
        let mem = shape();
        let scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
        assert_eq!(scene.len(), mem.dimm_positions());
        assert!(!scene.is_empty());
        assert_eq!(scene.depth(), 2);
        assert_eq!(scene.topology().name(), "fbdimm");
        assert_eq!(scene.position_index(1, 3), Some(7));
        assert_eq!(scene.position_index(0, 4), None);
        assert_eq!(scene.position_index(7, 0), None);
    }

    #[test]
    fn hottest_dimm_is_derived_not_assumed() {
        let mem = shape();
        let mut scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
        let powers = graded_powers(scene.len());
        for _ in 0..200 {
            scene.step(&powers, 0.0, 1.0);
        }
        let obs = scene.observe();
        // Both channels' dimm 0 are equally hot; arg-max reports one of them.
        let (channel, dimm) = obs.hottest_amb.unwrap();
        assert_eq!(dimm, 0, "dimm 0 carries the most power");
        assert!(channel < mem.logical_channels);
        assert_eq!(obs.positions.len(), scene.len());
        assert_eq!(obs.layer_depth, 2);
        assert_eq!(obs.layer_temps_c.len(), scene.len() * 2);
        // The field is spatially resolved: the far end of the chain is cooler.
        let near = obs.positions.iter().find(|p| p.channel == 0 && p.dimm == 0).unwrap();
        let far = obs.positions.iter().find(|p| p.channel == 0 && p.dimm == 3).unwrap();
        assert!(near.amb_c > far.amb_c + 3.0, "near {:.1} vs far {:.1}", near.amb_c, far.amb_c);
        // Per-layer access agrees with the summary: the AMB layer is layer 0.
        assert_eq!(obs.layers_of(0)[0], obs.positions[0].amb_c);
        assert_eq!(obs.positions[0].hottest_layer, 0, "the AMB runs hotter than the DRAM");
    }

    #[test]
    fn hottest_position_tracks_the_legacy_single_model_exactly() {
        // The regression contract: when one position consistently carries
        // the worst-case power, the scene's maximum must reproduce the
        // legacy hottest-DIMM trajectory.
        let mem = shape();
        let cooling = CoolingConfig::aohs_1_5();
        let limits = ThermalLimits::paper_fbdimm();
        let mut scene = DimmThermalScene::isolated(&mem, cooling, limits);
        let mut legacy = IsolatedThermalModel::new(cooling, limits);
        let powers = graded_powers(scene.len());
        for _ in 0..600 {
            scene.step(&powers, 0.0, 1.0);
            legacy.step(powers[0].amb_watts, powers[0].dram_watts, 1.0);
            let obs = scene.observe();
            assert!((obs.max_amb_c - legacy.amb_temp_c()).abs() < 0.1, "AMB diverged");
            assert!((obs.max_dram_c - legacy.dram_temp_c()).abs() < 0.1, "DRAM diverged");
        }
    }

    #[test]
    fn integrated_scene_shares_one_processor_heated_ambient() {
        let mem = shape();
        let mut idle = DimmThermalScene::integrated(&mem, CoolingConfig::fdhs_1_0(), ThermalLimits::paper_fbdimm());
        let mut busy = idle.clone();
        let powers = vec![FbdimmPowerBreakdown { amb_watts: 5.5, dram_watts: 1.5 }; idle.len()];
        for _ in 0..300 {
            idle.step(&powers, 0.0, 1.0);
            busy.step(&powers, 6.0, 1.0);
        }
        assert!((idle.ambient_c() - idle.ambient_params().system_inlet_c).abs() < 0.01);
        assert!(busy.ambient_c() > idle.ambient_c() + 5.0);
        // The hotter air heats every position, not just the hottest one.
        let cold = idle.observe();
        let hot = busy.observe();
        for (c, h) in cold.positions.iter().zip(hot.positions.iter()) {
            assert!(h.amb_c > c.amb_c + 3.0);
        }
    }

    #[test]
    fn position_peaks_remember_transients() {
        let mem = shape();
        let mut scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
        let hot = vec![FbdimmPowerBreakdown { amb_watts: 6.5, dram_watts: 2.0 }; scene.len()];
        let idle = vec![FbdimmPowerBreakdown { amb_watts: 5.1, dram_watts: 0.98 }; scene.len()];
        for _ in 0..400 {
            scene.step(&hot, 0.0, 1.0);
        }
        let peak_during_burst = scene.observe().max_amb_c;
        for _ in 0..400 {
            scene.step(&idle, 0.0, 1.0);
        }
        assert!(scene.observe().max_amb_c < peak_during_burst - 5.0, "scene must cool down");
        let peaks = scene.position_peaks();
        assert!(peaks.iter().all(|p| p.amb_c >= peak_during_burst - 0.1), "peaks must persist");
        let (peak_amb, _) = scene.peak_temps_c();
        assert!(peak_amb >= peak_during_burst - 1e-9);
    }

    #[test]
    fn fixed_point_is_bit_stationary_under_step() {
        let mem = shape();
        let mut scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
        let powers = graded_powers(scene.len());
        let mut fp = Vec::new();
        scene.fixed_point_into(&powers, 0.0, &mut fp);
        assert_eq!(fp.len(), scene.len() * scene.depth());
        // A long constant-power run converges toward the fixed point…
        for _ in 0..5_000 {
            scene.step(&powers, 0.0, 1.0);
        }
        for (t, f) in scene.layer_temps_flat().iter().zip(fp.iter()) {
            assert!((t - f).abs() < 1e-9, "temp {t} vs fixed point {f}");
        }
        // …and a field placed exactly on it does not move by a single bit
        // (the fast-forward contract: stepping is the identity there).
        scene.set_layer_temps(&fp);
        scene.step(&powers, 0.0, 1.0);
        assert_eq!(scene.layer_temps_flat(), fp.as_slice());
    }

    #[test]
    fn over_tdp_and_forced_temperatures() {
        let mem = shape();
        let mut scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
        assert!(!scene.over_tdp());
        scene.set_uniform_temps_c(110.5, 80.0);
        assert!(scene.over_tdp());
        let obs = scene.observe();
        assert!(obs.over_tdp(scene.limits()));
        assert_eq!(obs.max_amb_c, 110.5);
    }

    #[test]
    fn observe_into_reuses_the_buffer_and_matches_observe() {
        let mem = shape();
        let mut scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
        let powers = graded_powers(scene.len());
        let mut scratch = scene.observe();
        for _ in 0..50 {
            scene.step(&powers, 0.0, 1.0);
            scene.observe_into(&mut scratch);
            assert_eq!(scratch, scene.observe());
        }
    }

    #[test]
    fn changing_step_lengths_invalidate_the_cached_coefficients() {
        // Stepping with alternating dt must match a scene that never cached
        // (i.e. per-step closed-form nodes), because the coefficient cache is
        // keyed by dt.
        let mem = shape();
        let cooling = CoolingConfig::aohs_1_5();
        let limits = ThermalLimits::paper_fbdimm();
        let mut scene = DimmThermalScene::isolated(&mem, cooling, limits);
        let r = cooling.resistances();
        let inlet = scene.ambient_params().system_inlet_c;
        let powers = graded_powers(scene.len());
        let mut mirror_amb = vec![inlet; scene.len()];
        let mut mirror_dram = vec![inlet; scene.len()];
        for i in 0..400 {
            let dt = if i % 3 == 0 { 0.01 } else { 1.0 };
            scene.step(&powers, 0.0, dt);
            for (j, p) in powers.iter().enumerate() {
                let stable_amb = inlet + p.amb_watts * r.psi_amb + p.dram_watts * r.psi_dram_amb;
                let stable_dram = inlet + p.amb_watts * r.psi_amb_dram + p.dram_watts * r.psi_dram;
                mirror_amb[j] += (stable_amb - mirror_amb[j]) * (1.0 - (-dt / r.tau_amb_s).exp());
                mirror_dram[j] += (stable_dram - mirror_dram[j]) * (1.0 - (-dt / r.tau_dram_s).exp());
            }
        }
        for (pos, (ma, md)) in scene.position_temps().iter().zip(mirror_amb.iter().zip(mirror_dram.iter())) {
            assert!((pos.amb_c - ma).abs() < 1e-12, "AMB {} vs mirror {}", pos.amb_c, ma);
            assert!((pos.dram_c - md).abs() < 1e-12, "DRAM {} vs mirror {}", pos.dram_c, md);
        }
    }

    #[test]
    fn synthesized_observation_carries_no_field() {
        let obs = ThermalObservation::from_hottest(109.0, 82.0);
        assert_eq!(obs.max_amb_c, 109.0);
        assert_eq!(obs.max_dram_c, 82.0);
        assert!(obs.positions.is_empty() && obs.hottest_amb.is_none());
        assert_eq!(obs.layer_depth, 0);
        assert!(obs.layers_of(0).is_empty());
        assert!(obs.ambient_c.is_nan(), "scalar sensors cannot see the ambient");
        assert_eq!(obs.with_ambient_c(50.0).ambient_c, 50.0);
        let obs = ThermalObservation::from_hottest(109.0, 82.0);
        assert!(!obs.over_tdp(&ThermalLimits::paper_fbdimm()));
    }

    #[test]
    fn bufferless_observation_is_nan_safe() {
        // A DDR4/5 rank pair has no AMB; the observation must not invent a
        // 0.0 (or -inf) hot spot and every limit check must stay sane.
        let mut scene = stacked_scene(StackKind::RankPair);
        let powers = vec![FbdimmPowerBreakdown { amb_watts: 1.0, dram_watts: 3.0 }; scene.len()];
        for _ in 0..200 {
            scene.step(&powers, 0.0, 1.0);
        }
        let obs = scene.observe();
        assert!(obs.max_amb_c.is_nan(), "no buffer layer -> NaN, got {}", obs.max_amb_c);
        assert_eq!(obs.max_amb_opt(), None);
        assert!(obs.hottest_amb.is_none());
        assert!(obs.max_dram_c > 55.0);
        let limits = ThermalLimits::paper_fbdimm();
        assert!(!obs.over_tdp(&limits), "NaN must never trip a limit");
        assert!(obs.released(&limits), "NaN counts as released");
        let (amb, dram) = scene.max_temps_c();
        assert!(amb.is_nan() && dram > 55.0);
        // The round-trip through scalar sensors stays NaN-safe too.
        let synth = ThermalObservation::from_hottest(obs.max_amb_c, obs.max_dram_c);
        assert!(synth.max_amb_opt().is_none());
        assert!(!synth.over_tdp(&limits));
    }

    #[test]
    fn stacked_positions_heat_their_inner_dies_most() {
        let mut scene = stacked_scene(StackKind::stacked4());
        assert_eq!(scene.depth(), 5);
        let powers = vec![FbdimmPowerBreakdown { amb_watts: 6.0, dram_watts: 2.0 }; scene.len()];
        for _ in 0..600 {
            scene.step(&powers, 0.0, 1.0);
        }
        let obs = scene.observe();
        // Layer 0 is the base buffer die; dies 1..=4 sit above it. The die
        // next to the hot base (the inner die) must beat the spreader-side
        // outer die.
        let stack = obs.layers_of(0);
        assert!(stack[1] > stack[4] + 1.0, "inner die {:.1} vs outer die {:.1}", stack[1], stack[4]);
        // The buffer maximum is real (base die), and per-layer peaks exist.
        assert!(obs.max_amb_opt().is_some());
        assert_eq!(scene.layer_peaks_of(0).len(), 5);
        assert!(scene.layer_peaks_of(0)[1] >= stack[1]);
    }

    #[test]
    fn channel_and_position_helpers_resolve_the_field() {
        let mem = shape();
        let mut scene = DimmThermalScene::isolated(&mem, CoolingConfig::aohs_1_5(), ThermalLimits::paper_fbdimm());
        let powers = graded_powers(scene.len());
        for _ in 0..200 {
            scene.step(&powers, 0.0, 1.0);
        }
        let obs = scene.observe();
        assert_eq!(obs.channels(), mem.logical_channels);
        let (amb0, dram0) = obs.channel_max_temps(0);
        let expected_amb =
            obs.positions.iter().filter(|p| p.channel == 0).map(|p| p.amb_c).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(amb0, expected_amb);
        assert!(dram0 > 0.0);
        // A channel outside the field reports NaN for both devices.
        let (nan_amb, nan_dram) = obs.channel_max_temps(99);
        assert!(nan_amb.is_nan() && nan_dram.is_nan());
        // Hottest/coldest positions: dimm 0 carries the bypass power, the
        // far end of the chain idles coolest.
        let hot = obs.hottest_position_index().unwrap();
        let cold = obs.coldest_position_index().unwrap();
        assert_eq!(obs.positions[hot].dimm, 0);
        assert_eq!(obs.positions[cold].dimm, 3);
        assert!(obs.positions[hot].hottest_layer_c > obs.positions[cold].hottest_layer_c);
        // Bufferless channels report a NaN buffer maximum but a real DRAM one.
        let mut rank = stacked_scene(StackKind::RankPair);
        let powers = vec![FbdimmPowerBreakdown { amb_watts: 1.0, dram_watts: 3.0 }; rank.len()];
        for _ in 0..100 {
            rank.step(&powers, 0.0, 1.0);
        }
        let obs = rank.observe();
        let (amb, dram) = obs.channel_max_temps(0);
        assert!(amb.is_nan() && dram > 45.0);
        // Synthesized observations have no field to resolve.
        let synth = ThermalObservation::from_hottest(100.0, 80.0);
        assert_eq!(synth.channels(), 0);
        assert!(synth.hottest_position_index().is_none() && synth.coldest_position_index().is_none());
    }

    #[test]
    fn per_layer_tdp_checks_catch_a_hot_inner_die() {
        let mut scene = stacked_scene(StackKind::stacked4());
        assert!(!scene.over_tdp());
        // Push only the DRAM dies over their TDP; the base stays cool.
        scene.set_uniform_temps_c(50.0, 86.0);
        assert!(scene.over_tdp(), "a DRAM layer at 86 degC must trip the 85 degC DRAM TDP");
        let obs = scene.observe();
        assert!(obs.over_tdp(scene.limits()));
        assert!(obs.max_amb_c < 85.0, "the base die is cool");
    }
}
