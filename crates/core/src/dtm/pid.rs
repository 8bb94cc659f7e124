//! PID formal controller (Section 4.2.3, Equation 4.1).
//!
//! `m(t) = Kc · ( e(t) + KI·∫e dt + KD·de/dt )`
//!
//! where `e(t)` is the difference between the target temperature and the
//! measured temperature. Two refinements from the paper are implemented:
//! *conditional integration* (the integral term only accumulates once the
//! temperature exceeds an enable threshold) and *anti-windup* (the integral
//! is frozen while the controller output saturates the actuator).

/// A single-input PID controller producing a throttling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidController {
    /// Proportional gain `Kc`.
    pub kc: f64,
    /// Integral gain `KI` (1/s).
    pub ki: f64,
    /// Differential gain `KD` (s).
    pub kd: f64,
    /// Target temperature in °C.
    pub target_c: f64,
    /// Temperature above which the integral term accumulates.
    pub integral_enable_c: f64,
    /// Output saturation bounds (anti-windup).
    pub output_min: f64,
    /// Upper output saturation bound.
    pub output_max: f64,
    integral: f64,
    prev_error: Option<f64>,
    last_output: f64,
}

impl PidController {
    /// Creates a controller with the given gains and target.
    pub fn new(kc: f64, ki: f64, kd: f64, target_c: f64, integral_enable_c: f64) -> Self {
        PidController {
            kc,
            ki,
            kd,
            target_c,
            integral_enable_c,
            output_min: -150.0,
            output_max: 150.0,
            integral: 0.0,
            prev_error: None,
            last_output: 0.0,
        }
    }

    /// The AMB controller of Section 4.3.4: `Kc = 10.4`, `KI = 180.24`,
    /// `KD = 0.001`, target 109.8 °C, integral enabled above 109.0 °C.
    pub fn paper_amb() -> Self {
        Self::new(10.4, 180.24, 0.001, 109.8, 109.0)
    }

    /// The DRAM controller of Section 4.3.4: `Kc = 12.4`, `KI = 155.12`,
    /// `KD = 0.001`, target 84.8 °C, integral enabled above 84.0 °C.
    pub fn paper_dram() -> Self {
        Self::new(12.4, 155.12, 0.001, 84.8, 84.0)
    }

    /// Resets the controller state (integral and derivative history).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
        self.last_output = 0.0;
    }

    /// The most recent controller output.
    pub fn last_output(&self) -> f64 {
        self.last_output
    }

    /// The accumulated integral `∫e dt` (°C·s).
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// The error of the previous sample, `None` before the first.
    pub fn prev_error(&self) -> Option<f64> {
        self.prev_error
    }

    /// Updates the controller with a new temperature sample taken `dt_s`
    /// seconds after the previous one and returns the controller output
    /// `m(t)`. Larger outputs mean "run faster"; strongly negative outputs
    /// mean "throttle hard".
    pub fn update(&mut self, measured_c: f64, dt_s: f64) -> f64 {
        let error = self.target_c - measured_c;
        let derivative = match self.prev_error {
            Some(prev) if dt_s > 0.0 => (error - prev) / dt_s,
            _ => 0.0,
        };
        self.prev_error = Some(error);

        // Conditional integration: only accumulate near/above the threshold,
        // and freeze while the output saturates in the direction the error
        // would push it further (anti-windup). Once the temperature falls
        // back below the enable threshold the integral state is discarded so
        // the controller does not stay wound up after an emergency ends.
        let saturated_high = self.last_output >= self.output_max && error > 0.0;
        let saturated_low = self.last_output <= self.output_min && error < 0.0;
        if measured_c < self.integral_enable_c {
            self.integral = 0.0;
        } else if !saturated_high && !saturated_low && dt_s > 0.0 {
            self.integral += error * dt_s;
        }

        let raw = self.kc * (error + self.ki * self.integral + self.kd * derivative);
        self.last_output = raw.clamp(self.output_min, self.output_max);
        self.last_output
    }

    /// Maps the controller output to a discrete actuator position among
    /// `levels` positions (0 = full performance, `levels - 1` = most severe
    /// throttling). The bands are uniform in the output range, which is all
    /// the mapping needs to be: the integral term settles wherever the
    /// thermal equilibrium requires.
    pub fn output_to_level(&self, output: f64, levels: usize) -> usize {
        debug_assert!(levels >= 2);
        // Outputs >= 20 mean "no throttling" (roughly: more than ~2 degC of
        // proportional headroom below the target); below that, each band of
        // 10 steps one actuator position down. The exact scale is not
        // critical — the integral term settles wherever the thermal
        // equilibrium requires — but the full-speed band must not start
        // throttling far below the temperatures at which the plain
        // threshold scheme would.
        let full_speed_threshold = 20.0;
        if output >= full_speed_threshold {
            return 0;
        }
        let band = 10.0;
        let steps = ((full_speed_threshold - output) / band).ceil() as usize;
        steps.min(levels - 1)
    }

    /// Convenience: update then map to a level.
    pub fn decide_level(&mut self, measured_c: f64, dt_s: f64, levels: usize) -> usize {
        let out = self.update(measured_c, dt_s);
        self.output_to_level(out, levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_reproduced() {
        let amb = PidController::paper_amb();
        assert_eq!((amb.kc, amb.ki, amb.kd), (10.4, 180.24, 0.001));
        assert_eq!(amb.target_c, 109.8);
        let dram = PidController::paper_dram();
        assert_eq!((dram.kc, dram.ki, dram.kd), (12.4, 155.12, 0.001));
        assert_eq!(dram.target_c, 84.8);
    }

    #[test]
    fn cool_temperatures_select_full_performance() {
        let mut pid = PidController::paper_amb();
        let level = pid.decide_level(95.0, 0.01, 5);
        assert_eq!(level, 0);
    }

    #[test]
    fn temperatures_above_target_throttle() {
        let mut pid = PidController::paper_amb();
        let mut level = 0;
        // Hold the temperature well above target; the integral term must wind
        // the output down into the throttling bands.
        for _ in 0..200 {
            level = pid.decide_level(110.5, 0.01, 5);
        }
        assert!(level >= 3, "level {level}");
    }

    #[test]
    fn output_is_clamped_and_integral_does_not_wind_up() {
        let mut pid = PidController::paper_amb();
        for _ in 0..10_000 {
            pid.update(112.0, 0.01);
        }
        assert!(pid.last_output() >= pid.output_min);
        // After the hot episode ends the controller must recover quickly
        // (within a few hundred control periods) rather than staying wound up.
        let mut recovered = false;
        for _ in 0..500 {
            let out = pid.update(105.0, 0.01);
            if pid.output_to_level(out, 5) == 0 {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "controller failed to recover from windup");
    }

    #[test]
    fn integral_only_accumulates_above_the_enable_threshold() {
        let mut pid = PidController::paper_amb();
        for _ in 0..1_000 {
            pid.update(108.0, 0.01); // below 109.0: no integration
        }
        let below = pid.last_output();
        // Proportional-only output for e = 1.8 °C.
        assert!((below - 10.4 * 1.8).abs() < 1.0, "output {below}");
    }

    #[test]
    fn level_mapping_is_monotone() {
        let pid = PidController::paper_amb();
        let mut prev = 0;
        for output in [100.0, 49.0, 20.0, -10.0, -40.0, -120.0] {
            let level = pid.output_to_level(output, 5);
            assert!(level >= prev, "levels must not decrease as output falls");
            prev = level;
        }
        assert_eq!(pid.output_to_level(-1_000.0, 5), 4);
    }

    /// The invariant the batched engine's re-prime relies on: inside a
    /// stationary state (integral off, or frozen by anti-windup at the same
    /// integral) the controller remembers only its last sample, so two
    /// controllers with different histories fed the same last two samples
    /// end equal.
    #[test]
    fn the_last_two_samples_determine_a_stationary_controller() {
        // Integral off: below the 109.0 °C enable threshold the integral is
        // reset every step, whatever came before.
        let mut wound = PidController::paper_amb();
        for _ in 0..300 {
            wound.update(109.6, 0.01);
        }
        let mut cool = PidController::paper_amb();
        cool.update(95.0, 0.01);
        assert_ne!(wound, cool);
        for pid in [&mut wound, &mut cool] {
            pid.update(107.3, 0.01);
            pid.update(108.1, 0.01);
        }
        assert_eq!(wound, cool);

        // Anti-windup frozen: wound up to saturation at 109.3 °C, then fed
        // different cooler samples above the enable threshold, every one of
        // which keeps the output pinned; the integral stays frozen, and the
        // same last two samples leave both controllers equal.
        let wind = |temps: &[f64]| {
            let mut pid = PidController::paper_amb();
            for _ in 0..300 {
                pid.update(109.3, 0.01);
            }
            for &t in temps {
                pid.update(t, 0.01);
                assert_eq!(pid.last_output(), pid.output_max);
            }
            pid
        };
        let (mut a, mut b) = (wind(&[109.1, 109.2]), wind(&[109.05]));
        assert_eq!(a.integral(), b.integral(), "the saturated integral is frozen");
        assert_ne!(a, b);
        for pid in [&mut a, &mut b] {
            pid.update(109.15, 0.01);
            pid.update(109.1, 0.01);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn reset_clears_history() {
        let mut pid = PidController::paper_dram();
        for _ in 0..100 {
            pid.update(86.0, 0.01);
        }
        pid.reset();
        assert_eq!(pid.last_output(), 0.0);
        // After a reset, a cool reading immediately selects full speed.
        assert_eq!(pid.decide_level(80.0, 0.01, 5), 0);
    }

    #[test]
    fn controller_converges_on_a_simple_thermal_plant() {
        // Close the loop around a first-order plant whose stable temperature
        // depends on the chosen level, and confirm the temperature settles
        // close to (and not above) the target.
        let mut pid = PidController::paper_amb();
        let stable_for_level = [116.0, 112.0, 109.5, 106.0, 101.0];
        let mut temp: f64 = 100.0;
        let tau = 50.0;
        let dt = 0.01;
        let mut max_after_settle: f64 = 0.0;
        for step in 0..200_000 {
            let level = pid.decide_level(temp, dt, 5);
            let stable = stable_for_level[level];
            temp += (stable - temp) * (1.0 - (-dt / tau).exp());
            if step > 150_000 {
                max_after_settle = max_after_settle.max(temp);
            }
        }
        assert!(temp > 108.0, "converged too cold: {temp}");
        assert!(max_after_settle < 110.0 + 0.2, "overshoot to {max_after_settle}");
    }
}
