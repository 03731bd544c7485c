//! Renewal-theory DPM policy (the authors' model \[2\]).
//!
//! The renewal model treats each idle period as a renewal cycle and picks
//! the sleep timeout `τ` that minimizes the expected energy per cycle
//!
//! ```text
//! E[J(τ)] = P_idle · E[min(L, τ)] + P_sleep · E[(L − τ)⁺] + P(L > τ) · E_wake
//! ```
//!
//! subject to a performance constraint on the expected wake-up delay per
//! cycle, `P(L > τ) · t_wake ≤ D`. Here `L` is the idle-period length,
//! whose distribution is general (typically heavy-tailed — see
//! [`crate::idle`]).
//!
//! The delay decreases and is monotone in `τ`, so the feasible region is
//! `τ ≥ τ_min`; when the unconstrained minimizer is infeasible the
//! optimal policy sits exactly on the constraint, and because `τ` lives
//! on a grid the policy **randomizes between the two bracketing grid
//! points** — the classic structure of constrained-optimal stochastic
//! policies that the paper's references obtain via linear programming.

use crate::costs::DpmCosts;
use crate::policy::{DpmPolicy, IdlePlan, SleepState};
use crate::DpmError;
use simcore::dist::Continuous;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// Numerically integrates the survival function `S(t) = 1 − F(t)` of
/// `dist` over `[a, b]`.
///
/// Uses the substitution `t = a + (b − a)·u³` (a graded mesh clustered
/// near `a`, where survival functions change fastest) with the trapezoid
/// rule in `u`. The grading is what keeps the integral accurate for
/// spiky distributions — e.g. millisecond-scale idle periods integrated
/// over a multi-minute horizon — where a uniform mesh would overshoot by
/// orders of magnitude.
///
/// # Panics
///
/// Panics if `a > b`, either bound is negative, or `steps == 0`.
#[must_use]
pub fn survival_integral<D: Continuous + ?Sized>(dist: &D, a: f64, b: f64, steps: usize) -> f64 {
    assert!(a >= 0.0 && b >= a, "invalid integration bounds [{a}, {b}]");
    assert!(steps > 0, "steps must be positive");
    if a == b {
        return 0.0;
    }
    let span = b - a;
    // ∫_a^b S(t) dt = ∫_0^1 S(a + span·u³) · 3u²·span du
    let h = 1.0 / steps as f64;
    let integrand = |u: f64| {
        let t = a + span * u * u * u;
        3.0 * u * u * span * (1.0 - dist.cdf(t))
    };
    let mut acc = 0.5 * (integrand(0.0) + integrand(1.0));
    for i in 1..steps {
        acc += integrand(h * i as f64);
    }
    acc * h
}

/// Configuration of the renewal optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenewalConfig {
    /// Number of candidate timeouts on the (log-spaced) grid.
    pub grid: usize,
    /// Shortest candidate timeout, seconds.
    pub tau_min: f64,
    /// Integration horizon as a multiple of the distribution's mean (the
    /// tail beyond it is truncated; heavy-tailed distributions with
    /// infinite mean fall back to `tau_max`).
    pub horizon_means: f64,
    /// Longest candidate timeout, seconds.
    pub tau_max: f64,
    /// Trapezoid steps per integral.
    pub steps: usize,
}

impl Default for RenewalConfig {
    fn default() -> Self {
        RenewalConfig {
            grid: 160,
            tau_min: 1e-3,
            horizon_means: 20.0,
            tau_max: 600.0,
            steps: 400,
        }
    }
}

/// The solved policy: a possibly randomized timeout into one sleep state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenewalPolicy {
    state: SleepState,
    tau_lo: f64,
    tau_hi: f64,
    /// Probability of using `tau_lo` on a given idle period.
    p_lo: f64,
    expected_energy_j: f64,
    expected_delay_s: f64,
}

impl RenewalPolicy {
    /// Solves for the optimal (possibly randomized) timeout into `state`
    /// for idle periods distributed as `dist`, with an expected per-cycle
    /// wake-delay budget of `delay_budget` seconds.
    ///
    /// # Errors
    ///
    /// Returns an error if the budget is negative/non-finite, the
    /// configuration is degenerate, or no timeout meets the budget (the
    /// budget is below the minimum achievable delay even when never
    /// sleeping — impossible here since `τ = ∞` gives zero delay, so
    /// infeasibility only occurs with a zero budget and mandatory sleep).
    pub fn solve<D: Continuous + ?Sized>(
        costs: &DpmCosts,
        dist: &D,
        state: SleepState,
        delay_budget: f64,
        config: RenewalConfig,
    ) -> Result<Self, DpmError> {
        if !(delay_budget.is_finite() && delay_budget >= 0.0) {
            return Err(DpmError::InvalidParameter {
                name: "delay_budget",
                value: delay_budget,
            });
        }
        if config.grid < 2 || config.tau_min <= 0.0 || config.tau_max <= config.tau_min {
            return Err(DpmError::InvalidParameter {
                name: "config",
                value: config.grid as f64,
            });
        }
        let mean = dist.mean();
        let horizon = if mean.is_finite() {
            f64::min(config.horizon_means * mean, config.tau_max)
        } else {
            config.tau_max
        }
        .max(config.tau_min * 4.0);

        // Log-spaced timeout grid, plus "never sleep" as τ = horizon-end
        // sentinel evaluated separately.
        let ratio = (horizon / config.tau_min).powf(1.0 / (config.grid - 1) as f64);
        let taus: Vec<f64> = (0..config.grid)
            .map(|i| f64::min(config.tau_min * ratio.powi(i as i32), horizon))
            .collect();

        let p_idle_w = costs.idle_mw * 1e-3;
        let p_sleep_w = costs.sleep_power_mw(state) * 1e-3;
        let t_wake = costs.wake_latency(state).as_secs_f64();
        let e_wake = costs.wake_energy_j(state);

        let evaluate = |tau: f64| -> (f64, f64) {
            let awake = survival_integral(dist, 0.0, tau, config.steps);
            let asleep = survival_integral(dist, tau, horizon, config.steps);
            let p_sleep_reached = 1.0 - dist.cdf(tau);
            let energy = p_idle_w * awake + p_sleep_w * asleep + p_sleep_reached * e_wake;
            let delay = p_sleep_reached * t_wake;
            (energy, delay)
        };

        let evals: Vec<(f64, f64)> = taus.iter().map(|&t| evaluate(t)).collect();
        // "Never sleep" option: energy = idle power over the full period.
        let never_energy = p_idle_w * survival_integral(dist, 0.0, horizon, config.steps);

        // Unconstrained energy minimizer over the grid.
        let (min_idx, min_eval) = evals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite energies"))
            .expect("grid is non-empty");
        let (min_energy, min_delay) = *min_eval;

        if min_delay <= delay_budget + 1e-12 {
            // Unconstrained optimum is feasible: deterministic policy
            // (or never-sleep if idling is cheaper still).
            if min_energy <= never_energy {
                return Ok(RenewalPolicy {
                    state,
                    tau_lo: taus[min_idx],
                    tau_hi: taus[min_idx],
                    p_lo: 1.0,
                    expected_energy_j: min_energy,
                    expected_delay_s: min_delay,
                });
            }
            return Ok(Self::never(state, never_energy, horizon));
        }

        // The constraint binds. Delay is decreasing in τ, so the feasible
        // set is a suffix of the grid; the constrained-optimal randomized
        // policy mixes the last infeasible and first feasible grid points
        // so the *expected* delay sits exactly on the budget — the
        // randomized-timeout structure the LP formulations produce.
        let feasible_idx = evals.iter().position(|&(_, d)| d <= delay_budget + 1e-12);
        match feasible_idx {
            Some(j) if j > 0 => {
                let (e_hi, d_hi) = evals[j];
                let (e_lo, d_lo) = evals[j - 1];
                // Mix α on the aggressive (shorter-τ) point.
                let alpha = ((delay_budget - d_hi) / (d_lo - d_hi)).clamp(0.0, 1.0);
                let mixed_energy = alpha * e_lo + (1.0 - alpha) * e_hi;
                // Candidate deterministic fallback: the first feasible τ.
                let best = if mixed_energy <= e_hi {
                    (mixed_energy, true)
                } else {
                    (e_hi, false)
                };
                if best.0 < never_energy {
                    if best.1 && alpha > 0.0 {
                        Ok(RenewalPolicy {
                            state,
                            tau_lo: taus[j - 1],
                            tau_hi: taus[j],
                            p_lo: alpha,
                            expected_energy_j: mixed_energy,
                            expected_delay_s: delay_budget,
                        })
                    } else {
                        Ok(RenewalPolicy {
                            state,
                            tau_lo: taus[j],
                            tau_hi: taus[j],
                            p_lo: 1.0,
                            expected_energy_j: e_hi,
                            expected_delay_s: d_hi,
                        })
                    }
                } else {
                    Ok(Self::never(state, never_energy, horizon))
                }
            }
            _ => {
                // Nothing feasible (or only τ_0 is): stay idle — zero
                // delay, always feasible.
                Ok(Self::never(state, never_energy, horizon))
            }
        }
    }

    fn never(state: SleepState, energy: f64, horizon: f64) -> Self {
        RenewalPolicy {
            state,
            tau_lo: horizon,
            tau_hi: horizon,
            p_lo: 1.0,
            expected_energy_j: energy,
            expected_delay_s: 0.0,
        }
    }

    /// Expected energy per idle period under this policy, joules.
    #[must_use]
    pub fn expected_energy_j(&self) -> f64 {
        self.expected_energy_j
    }

    /// Expected wake-up delay per idle period, seconds.
    #[must_use]
    pub fn expected_delay_s(&self) -> f64 {
        self.expected_delay_s
    }

    /// The (lower, upper) timeout pair; equal when deterministic.
    #[must_use]
    pub fn timeouts(&self) -> (f64, f64) {
        (self.tau_lo, self.tau_hi)
    }

    /// Probability of using the lower timeout.
    #[must_use]
    pub fn randomization(&self) -> f64 {
        self.p_lo
    }
}

impl DpmPolicy for RenewalPolicy {
    fn plan_idle(&mut self, rng: &mut SimRng) -> IdlePlan {
        let tau = if rng.next_f64() < self.p_lo {
            self.tau_lo
        } else {
            self.tau_hi
        };
        IdlePlan::single(SimDuration::from_secs_f64(tau), self.state)
    }

    fn name(&self) -> &'static str {
        "renewal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::SmartBadge;
    use simcore::dist::{Exponential, Pareto};

    fn costs() -> DpmCosts {
        DpmCosts::from_smartbadge(&SmartBadge::new())
    }

    #[test]
    fn survival_integral_exponential_closed_form() {
        let d = Exponential::new(2.0).unwrap();
        // ∫₀^∞ e^{−2t} dt = 0.5
        let v = survival_integral(&d, 0.0, 20.0, 4000);
        assert!((v - 0.5).abs() < 1e-4, "{v}");
        // ∫₀^τ = (1 − e^{−2τ})/2
        let v = survival_integral(&d, 0.0, 1.0, 2000);
        assert!((v - (1.0 - (-2.0f64).exp()) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn relaxed_budget_saves_energy_vs_idling() {
        let c = costs();
        let idle_dist = Pareto::new(2.0, 1.8).unwrap();
        let policy = RenewalPolicy::solve(
            &c,
            &idle_dist,
            SleepState::Standby,
            1.0,
            RenewalConfig::default(),
        )
        .unwrap();
        let never = c.idle_mw * 1e-3 * idle_dist.mean();
        assert!(
            policy.expected_energy_j() < 0.8 * never,
            "policy {} vs never-sleep {}",
            policy.expected_energy_j(),
            never
        );
    }

    #[test]
    fn tight_budget_increases_timeout_or_randomizes() {
        let c = costs();
        let idle_dist = Pareto::new(2.0, 1.8).unwrap();
        let loose = RenewalPolicy::solve(
            &c,
            &idle_dist,
            SleepState::Standby,
            1.0,
            RenewalConfig::default(),
        )
        .unwrap();
        let tight = RenewalPolicy::solve(
            &c,
            &idle_dist,
            SleepState::Standby,
            0.01,
            RenewalConfig::default(),
        )
        .unwrap();
        assert!(tight.expected_delay_s() <= 0.01 + 1e-9);
        assert!(tight.expected_energy_j() >= loose.expected_energy_j() - 1e-9);
        // The tight policy must sleep later (or not at all).
        assert!(tight.timeouts().1 >= loose.timeouts().1);
    }

    #[test]
    fn zero_budget_means_never_sleep() {
        let c = costs();
        let idle_dist = Pareto::new(2.0, 1.8).unwrap();
        let policy = RenewalPolicy::solve(
            &c,
            &idle_dist,
            SleepState::Standby,
            0.0,
            RenewalConfig::default(),
        )
        .unwrap();
        assert_eq!(policy.expected_delay_s(), 0.0);
        let mut p = policy;
        let plan = p.plan_idle(&mut SimRng::seed_from(1));
        // The "never" timeout is the horizon — effectively unreachable for
        // this distribution's realistic idle lengths.
        assert!(plan.transitions()[0].0.as_secs_f64() >= 50.0);
    }

    #[test]
    fn randomized_policy_mixes_both_timeouts() {
        let c = costs();
        let idle_dist = Pareto::new(2.0, 1.8).unwrap();
        // Find a budget that lands strictly between two grid deltas by
        // scanning a few values.
        let mut found_mix = false;
        for budget in [0.02, 0.05, 0.08, 0.11] {
            let policy = RenewalPolicy::solve(
                &c,
                &idle_dist,
                SleepState::Off,
                budget,
                RenewalConfig::default(),
            )
            .unwrap();
            if policy.randomization() > 0.0 && policy.randomization() < 1.0 {
                found_mix = true;
                let mut p = policy;
                let mut rng = SimRng::seed_from(2);
                let (lo, hi) = p.timeouts();
                let mut saw_lo = false;
                let mut saw_hi = false;
                for _ in 0..500 {
                    let tau = p.plan_idle(&mut rng).transitions()[0].0.as_secs_f64();
                    if (tau - lo).abs() < 1e-6 {
                        saw_lo = true;
                    }
                    if (tau - hi).abs() < 1e-6 {
                        saw_hi = true;
                    }
                }
                assert!(
                    saw_lo && saw_hi,
                    "randomization should use both grid points"
                );
                break;
            }
        }
        assert!(found_mix, "no budget produced a randomized policy");
    }

    #[test]
    fn deeper_state_with_short_idles_is_avoided() {
        let c = costs();
        // Idle periods of ~50 ms: far below off's break-even.
        let idle_dist = Exponential::new(20.0).unwrap();
        let policy = RenewalPolicy::solve(
            &c,
            &idle_dist,
            SleepState::Off,
            1.0,
            RenewalConfig::default(),
        )
        .unwrap();
        let never = c.idle_mw * 1e-3 * idle_dist.mean();
        // Best achievable should be (approximately) never-sleep.
        assert!(policy.expected_energy_j() <= never * 1.01);
        assert!(
            policy.timeouts().0 > 0.05,
            "should not sleep within typical idles"
        );
    }

    #[test]
    fn validates_input() {
        let c = costs();
        let d = Exponential::new(1.0).unwrap();
        assert!(
            RenewalPolicy::solve(&c, &d, SleepState::Standby, -1.0, RenewalConfig::default())
                .is_err()
        );
        let bad = RenewalConfig {
            grid: 1,
            ..RenewalConfig::default()
        };
        assert!(RenewalPolicy::solve(&c, &d, SleepState::Standby, 0.1, bad).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid integration bounds")]
    fn bad_integral_bounds_panic() {
        let d = Exponential::new(1.0).unwrap();
        let _ = survival_integral(&d, 2.0, 1.0, 10);
    }
}
