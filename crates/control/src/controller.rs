//! Controllers: policies that turn an observed heart rate and a target range
//! into a desired actuator level.
//!
//! The paper's adaptive systems use a simple heuristic — add a core (or drop
//! an encoder knob) when the rate is below the target, remove one when it is
//! above — which [`StepController`] reproduces. [`PiController`] is a
//! proportional–integral alternative provided as an ablation: it shows that
//! richer observers plug into the same Heartbeats interface unchanged, and it
//! anticipates the control-theoretic machinery of the authors' follow-on
//! work (SEEC/POET).

/// A policy mapping `(observed rate, target range, current level)` to a
/// desired actuator level. Levels are continuous; actuators clamp and round
/// them to whatever discrete settings they support (cores, knob steps...).
pub trait Controller: Send + std::fmt::Debug {
    /// Computes the desired level.
    fn desired_level(&mut self, rate_bps: f64, target: (f64, f64), current_level: f64) -> f64;

    /// Clears any internal state (integral terms, cooldowns).
    fn reset(&mut self);

    /// Short, human-readable policy name (used in ablation reports).
    fn name(&self) -> &'static str;
}

/// The paper's step heuristic with optional hysteresis.
///
/// * rate below the target minimum → raise the level by `step`;
/// * rate above the target maximum → lower the level by `step`;
/// * otherwise hold.
///
/// A `cooldown` of *n* makes the controller hold for *n* decisions after each
/// change, giving the application time to reflect the new allocation in its
/// heart rate before the controller reacts again.
#[derive(Debug, Clone)]
pub struct StepController {
    step: f64,
    cooldown: u32,
    remaining_cooldown: u32,
}

impl StepController {
    /// Creates a step controller that moves one level at a time.
    pub fn new() -> Self {
        Self::with_step(1.0)
    }

    /// Creates a step controller with a custom step size.
    pub fn with_step(step: f64) -> Self {
        StepController {
            step: step.abs().max(f64::MIN_POSITIVE),
            cooldown: 0,
            remaining_cooldown: 0,
        }
    }

    /// Adds a hold-off of `decisions` controller invocations after each
    /// change.
    pub fn with_cooldown(mut self, decisions: u32) -> Self {
        self.cooldown = decisions;
        self
    }
}

impl Default for StepController {
    fn default() -> Self {
        Self::new()
    }
}

impl Controller for StepController {
    fn desired_level(&mut self, rate_bps: f64, target: (f64, f64), current_level: f64) -> f64 {
        if self.remaining_cooldown > 0 {
            self.remaining_cooldown -= 1;
            return current_level;
        }
        let (min, max) = target;
        if rate_bps < min {
            self.remaining_cooldown = self.cooldown;
            current_level + self.step
        } else if rate_bps > max {
            self.remaining_cooldown = self.cooldown;
            current_level - self.step
        } else {
            current_level
        }
    }

    fn reset(&mut self) {
        self.remaining_cooldown = 0;
    }

    fn name(&self) -> &'static str {
        "step"
    }
}

/// A proportional–integral controller over the heart-rate error.
///
/// The controller estimates the marginal rate contributed by one level unit
/// from the current operating point (`rate / level`) and converts the PI
/// output, which is expressed in beats/s, into level units. The integral
/// term is clamped to avoid wind-up when the actuator saturates.
#[derive(Debug, Clone)]
pub struct PiController {
    kp: f64,
    ki: f64,
    integral: f64,
    integral_limit: f64,
}

impl PiController {
    /// Creates a PI controller with the given proportional and integral
    /// gains (dimensionless, applied to the relative rate error).
    pub fn new(kp: f64, ki: f64) -> Self {
        PiController {
            kp,
            ki,
            integral: 0.0,
            integral_limit: 10.0,
        }
    }

    /// Conservative default gains that behave well on the paper's scenarios.
    pub fn default_gains() -> Self {
        Self::new(0.8, 0.25)
    }

    /// Sets the anti-windup clamp applied to the integral term.
    pub fn with_integral_limit(mut self, limit: f64) -> Self {
        self.integral_limit = limit.abs().max(f64::MIN_POSITIVE);
        self
    }
}

impl Controller for PiController {
    fn desired_level(&mut self, rate_bps: f64, target: (f64, f64), current_level: f64) -> f64 {
        let (min, max) = target;
        let midpoint = 0.5 * (min + max);
        if midpoint <= 0.0 {
            return current_level;
        }
        // Relative error: positive when the application is too slow.
        let error = (midpoint - rate_bps) / midpoint;
        self.integral = (self.integral + error).clamp(-self.integral_limit, self.integral_limit);
        let control = self.kp * error + self.ki * self.integral;
        // Convert the relative correction into level units using the current
        // operating point as the gain estimate (rate ≈ k * level near the
        // operating point).
        let level = current_level.max(1e-9);
        level * (1.0 + control)
    }

    fn reset(&mut self) {
        self.integral = 0.0;
    }

    fn name(&self) -> &'static str {
        "pi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_controller_moves_toward_target() {
        let mut c = StepController::new();
        assert_eq!(
            c.desired_level(10.0, (30.0, 35.0), 3.0),
            4.0,
            "too slow: add"
        );
        assert_eq!(
            c.desired_level(50.0, (30.0, 35.0), 3.0),
            2.0,
            "too fast: remove"
        );
        assert_eq!(
            c.desired_level(32.0, (30.0, 35.0), 3.0),
            3.0,
            "in range: hold"
        );
        assert_eq!(c.name(), "step");
    }

    #[test]
    fn step_controller_custom_step() {
        let mut c = StepController::with_step(2.0);
        assert_eq!(c.desired_level(1.0, (5.0, 6.0), 2.0), 4.0);
    }

    #[test]
    fn step_controller_cooldown_holds_after_change() {
        let mut c = StepController::new().with_cooldown(2);
        assert_eq!(c.desired_level(1.0, (5.0, 6.0), 1.0), 2.0);
        // Two decisions of cooldown follow even though the rate is still low.
        assert_eq!(c.desired_level(1.0, (5.0, 6.0), 2.0), 2.0);
        assert_eq!(c.desired_level(1.0, (5.0, 6.0), 2.0), 2.0);
        // Then it acts again.
        assert_eq!(c.desired_level(1.0, (5.0, 6.0), 2.0), 3.0);
    }

    #[test]
    fn step_controller_reset_clears_cooldown() {
        let mut c = StepController::new().with_cooldown(5);
        c.desired_level(1.0, (5.0, 6.0), 1.0);
        c.reset();
        assert_eq!(c.desired_level(1.0, (5.0, 6.0), 2.0), 3.0);
    }

    #[test]
    fn pi_controller_raises_level_when_slow() {
        let mut c = PiController::default_gains();
        let next = c.desired_level(10.0, (30.0, 35.0), 2.0);
        assert!(next > 2.0);
        assert_eq!(c.name(), "pi");
    }

    #[test]
    fn pi_controller_lowers_level_when_fast() {
        let mut c = PiController::default_gains();
        let next = c.desired_level(60.0, (30.0, 35.0), 6.0);
        assert!(next < 6.0);
    }

    #[test]
    fn pi_controller_holds_near_target() {
        let mut c = PiController::default_gains();
        let next = c.desired_level(32.5, (30.0, 35.0), 4.0);
        assert!((next - 4.0).abs() < 0.2);
    }

    #[test]
    fn pi_controller_integral_accumulates_and_resets() {
        let mut c = PiController::new(0.0, 0.5);
        // With a pure integral controller, persistent error keeps pushing.
        let first = c.desired_level(10.0, (20.0, 20.0), 2.0);
        let second = c.desired_level(10.0, (20.0, 20.0), 2.0);
        assert!(second > first);
        c.reset();
        let after_reset = c.desired_level(10.0, (20.0, 20.0), 2.0);
        assert!((after_reset - first).abs() < 1e-12);
    }

    #[test]
    fn pi_controller_integral_is_clamped() {
        let mut c = PiController::new(0.0, 1.0).with_integral_limit(2.0);
        for _ in 0..100 {
            c.desired_level(0.0, (10.0, 10.0), 1.0);
        }
        // error = 1.0 each time; clamped integral of 2 -> level * (1 + 2) = 3.
        let level = c.desired_level(0.0, (10.0, 10.0), 1.0);
        assert!(level <= 3.0 + 1e-9);
    }

    #[test]
    fn pi_controller_ignores_degenerate_target() {
        let mut c = PiController::default_gains();
        assert_eq!(c.desired_level(5.0, (0.0, 0.0), 3.0), 3.0);
    }

    #[test]
    fn pi_converges_on_a_linear_plant() {
        // Plant: rate = 5 * level. Target 30..35 -> level ≈ 6.5.
        let mut c = PiController::default_gains();
        let mut level = 1.0f64;
        for _ in 0..40 {
            let rate = 5.0 * level;
            level = c.desired_level(rate, (30.0, 35.0), level).clamp(1.0, 16.0);
        }
        let final_rate = 5.0 * level;
        assert!(
            (30.0..=35.0).contains(&final_rate),
            "PI failed to converge: rate {final_rate:.2}"
        );
    }

    #[test]
    fn step_converges_on_a_linear_plant() {
        let mut c = StepController::new();
        let mut level = 1.0f64;
        for _ in 0..40 {
            let rate = 5.0 * level;
            level = c.desired_level(rate, (30.0, 35.0), level).clamp(1.0, 16.0);
        }
        let final_rate = 5.0 * level;
        assert!(
            (30.0..=35.0).contains(&final_rate),
            "step heuristic failed to converge: rate {final_rate:.2}"
        );
    }
}
