//! Time-Indexed Semi-Markov Decision Process policy (the authors' model \[3\]).
//!
//! The TISMDP model expands the idle state with a **time index** — how
//! long the current idle period has already lasted (paper Figure 7) —
//! because for non-exponential idle distributions the elapsed time
//! changes the distribution of the remaining idle time. Unlike the
//! renewal model, a transition decision "can be made from any number of
//! states": at every time-indexed decision epoch the policy may stay,
//! enter standby, or enter off, and may later *deepen* standby → off.
//!
//! We solve the model by backward induction over the time buckets: for
//! bucket `i` and mode `m ∈ {idle, standby, off}` the optimal cost-to-go
//! is
//!
//! ```text
//! J_i(m) = min_{m' ⊒ m}  P_{m'} · E[min(L, t_{i+1}) − t_i | L > t_i]
//!          + p_i · (E_wake(m') + η · t_wake(m'))
//!          + (1 − p_i) · J_{i+1}(m')
//! ```
//!
//! where `p_i = P(L ≤ t_{i+1} | L > t_i)` comes from the (general) idle
//! distribution and `η` is the Lagrangian weight that trades performance
//! (wake-up delay) against energy — sweeping `η` traces the
//! energy/performance Pareto curve the stochastic-DPM papers report.

use crate::costs::DpmCosts;
use crate::policy::{DpmPolicy, IdlePlan, SleepState};
use crate::renewal::survival_integral;
use crate::DpmError;
use simcore::dist::Continuous;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// The three modes a time-indexed state can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mode {
    Idle,
    Standby,
    Off,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Idle, Mode::Standby, Mode::Off];

    fn successors(self) -> &'static [Mode] {
        match self {
            Mode::Idle => &[Mode::Idle, Mode::Standby, Mode::Off],
            Mode::Standby => &[Mode::Standby, Mode::Off],
            Mode::Off => &[Mode::Off],
        }
    }

    fn index(self) -> usize {
        match self {
            Mode::Idle => 0,
            Mode::Standby => 1,
            Mode::Off => 2,
        }
    }
}

/// TISMDP solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TismdpConfig {
    /// Number of time buckets indexing the idle state.
    pub buckets: usize,
    /// First bucket edge, seconds (edges are log-spaced up to `horizon`).
    pub first_edge: f64,
    /// Last bucket edge, seconds; the terminal bucket integrates the
    /// residual tail beyond it.
    pub horizon: f64,
    /// Lagrangian weight on wake-up delay, joules per second of delay.
    /// `0` optimizes energy only; larger values buy responsiveness.
    pub delay_weight: f64,
    /// Trapezoid steps per bucket integral.
    pub steps: usize,
}

impl Default for TismdpConfig {
    fn default() -> Self {
        TismdpConfig {
            buckets: 48,
            first_edge: 0.02,
            horizon: 600.0,
            delay_weight: 2.0,
            steps: 64,
        }
    }
}

/// The solved time-indexed policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TismdpPolicy {
    /// Bucket edges `t_0 = 0 < t_1 < … < t_n`.
    edges: Vec<f64>,
    /// `choice[i][mode] = mode'` chosen at the start of bucket `i`.
    choice: Vec<[Mode; 3]>,
    /// Optimal expected cost from idle entry (energy + weighted delay).
    expected_cost: f64,
    plan: IdlePlan,
}

impl TismdpPolicy {
    /// Solves the TISMDP for the given costs and idle-length
    /// distribution.
    ///
    /// # Errors
    ///
    /// Returns an error for degenerate configurations.
    pub fn solve<D: Continuous + ?Sized>(
        costs: &DpmCosts,
        idle_dist: &D,
        config: TismdpConfig,
    ) -> Result<Self, DpmError> {
        if config.buckets < 2 {
            return Err(DpmError::InvalidParameter {
                name: "buckets",
                value: config.buckets as f64,
            });
        }
        if !(config.first_edge > 0.0 && config.horizon > config.first_edge) {
            return Err(DpmError::InvalidParameter {
                name: "first_edge/horizon",
                value: config.first_edge,
            });
        }
        if !(config.delay_weight.is_finite() && config.delay_weight >= 0.0) {
            return Err(DpmError::InvalidParameter {
                name: "delay_weight",
                value: config.delay_weight,
            });
        }
        if config.steps == 0 {
            return Err(DpmError::InvalidParameter {
                name: "steps",
                value: 0.0,
            });
        }

        // Edges: 0, then log-spaced from first_edge to horizon.
        let n = config.buckets;
        let ratio = (config.horizon / config.first_edge).powf(1.0 / (n - 1) as f64);
        let mut edges = Vec::with_capacity(n + 1);
        edges.push(0.0);
        for i in 0..n {
            edges.push(config.first_edge * ratio.powi(i as i32));
        }

        let power_w = |m: Mode| match m {
            Mode::Idle => costs.idle_mw * 1e-3,
            Mode::Standby => costs.standby_mw * 1e-3,
            Mode::Off => costs.off_mw * 1e-3,
        };
        let wake_cost = |m: Mode| match m {
            Mode::Idle => 0.0,
            Mode::Standby => {
                costs.wake_energy_j(SleepState::Standby)
                    + config.delay_weight * costs.wake_standby.as_secs_f64()
            }
            Mode::Off => {
                costs.wake_energy_j(SleepState::Off)
                    + config.delay_weight * costs.wake_off.as_secs_f64()
            }
        };

        // Terminal: expected residual beyond the horizon (truncated at 4x).
        let t_n = *edges.last().expect("edges non-empty");
        let s_n = (1.0 - idle_dist.cdf(t_n)).max(1e-300);
        let residual = survival_integral(idle_dist, t_n, 4.0 * t_n, config.steps * 8) / s_n;
        let mut next: [f64; 3] = [0.0; 3];
        for m in Mode::ALL {
            next[m.index()] = power_w(m) * residual + wake_cost(m);
        }

        let mut choice = vec![[Mode::Idle; 3]; n];
        // Backward induction over buckets n−1 .. 0.
        for i in (0..n).rev() {
            let (t_i, t_j) = (edges[i], edges[i + 1]);
            let s_i = (1.0 - idle_dist.cdf(t_i)).max(1e-300);
            let s_j = 1.0 - idle_dist.cdf(t_j);
            let p_end = (1.0 - s_j / s_i).clamp(0.0, 1.0);
            let expected_time = survival_integral(idle_dist, t_i, t_j, config.steps) / s_i;

            let mut current = [0.0f64; 3];
            for m in Mode::ALL {
                let mut best = f64::INFINITY;
                let mut best_mode = m;
                for &m2 in m.successors() {
                    let cost = power_w(m2) * expected_time
                        + p_end * wake_cost(m2)
                        + (1.0 - p_end) * next[m2.index()];
                    if cost < best {
                        best = cost;
                        best_mode = m2;
                    }
                }
                current[m.index()] = best;
                choice[i][m.index()] = best_mode;
            }
            next = current;
        }

        let expected_cost = next[Mode::Idle.index()];
        let plan = Self::extract_plan(&edges, &choice);
        Ok(TismdpPolicy {
            edges,
            choice,
            expected_cost,
            plan,
        })
    }

    fn extract_plan(edges: &[f64], choice: &[[Mode; 3]]) -> IdlePlan {
        let mut plan = IdlePlan::stay_idle();
        let mut mode = Mode::Idle;
        for (i, row) in choice.iter().enumerate() {
            let next_mode = row[mode.index()];
            if next_mode > mode {
                let state = match next_mode {
                    Mode::Standby => SleepState::Standby,
                    Mode::Off => SleepState::Off,
                    Mode::Idle => unreachable!("deepening only"),
                };
                plan = plan.then(SimDuration::from_secs_f64(edges[i]), state);
            }
            mode = next_mode;
        }
        plan
    }

    /// The optimal expected cost per idle period
    /// (joules + delay_weight · delay-seconds).
    #[must_use]
    pub fn expected_cost(&self) -> f64 {
        self.expected_cost
    }

    /// The time-indexed plan the policy follows each idle period.
    #[must_use]
    pub fn plan(&self) -> &IdlePlan {
        &self.plan
    }

    /// Bucket edges used by the solver (seconds from idle entry).
    #[must_use]
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// `true` if the policy never commands any sleep state.
    #[must_use]
    pub fn never_sleeps(&self) -> bool {
        self.plan.transitions().is_empty()
    }

    /// The time (seconds from idle entry) at which the policy first
    /// commands `state`, if it ever does.
    #[must_use]
    pub fn first_command(&self, state: SleepState) -> Option<f64> {
        self.plan
            .transitions()
            .iter()
            .find(|&&(_, s)| s == state)
            .map(|&(t, _)| t.as_secs_f64())
    }

    /// Internal invariant check used by tests: once a mode is left it is
    /// never re-entered (the time-indexed policy is monotone).
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        self.plan.is_well_formed()
    }

    #[cfg(test)]
    fn chosen_mode_path(&self) -> Vec<usize> {
        let mut mode = Mode::Idle;
        let mut path = Vec::new();
        for row in &self.choice {
            mode = row[mode.index()];
            path.push(mode.index());
        }
        path
    }
}

impl DpmPolicy for TismdpPolicy {
    fn plan_idle(&mut self, _rng: &mut SimRng) -> IdlePlan {
        self.plan
    }

    fn name(&self) -> &'static str {
        "tismdp"
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

    fn heavy_tail() -> Pareto {
        Pareto::new(2.0, 1.5).unwrap()
    }

    #[test]
    fn policy_is_monotone_and_well_formed() {
        let p = TismdpPolicy::solve(&costs(), &heavy_tail(), TismdpConfig::default()).unwrap();
        assert!(p.is_monotone());
        let path = p.chosen_mode_path();
        assert!(path.windows(2).all(|w| w[1] >= w[0]), "mode path {path:?}");
    }

    #[test]
    fn heavy_tail_policy_sleeps_and_eventually_powers_off() {
        let p = TismdpPolicy::solve(&costs(), &heavy_tail(), TismdpConfig::default()).unwrap();
        assert!(!p.never_sleeps());
        let sby = p.first_command(SleepState::Standby);
        let off = p.first_command(SleepState::Off);
        assert!(
            sby.is_some() || off.is_some(),
            "some sleep state must be commanded"
        );
        if let (Some(s), Some(o)) = (sby, off) {
            assert!(o > s, "off ({o}) should come after standby ({s})");
        }
    }

    #[test]
    fn beats_never_sleeping_on_heavy_tails() {
        let c = costs();
        let d = heavy_tail();
        let cfg = TismdpConfig {
            delay_weight: 0.0,
            ..TismdpConfig::default()
        };
        let p = TismdpPolicy::solve(&c, &d, cfg).unwrap();
        // Never-sleep cost: idle power for the (truncated) expected length.
        let never = c.idle_mw * 1e-3 * survival_integral(&d, 0.0, 600.0, 4000);
        assert!(
            p.expected_cost() < 0.7 * never,
            "tismdp {} vs never {never}",
            p.expected_cost()
        );
    }

    #[test]
    fn larger_delay_weight_postpones_sleep() {
        let c = costs();
        let d = heavy_tail();
        let eager = TismdpPolicy::solve(
            &c,
            &d,
            TismdpConfig {
                delay_weight: 0.0,
                ..TismdpConfig::default()
            },
        )
        .unwrap();
        let cautious = TismdpPolicy::solve(
            &c,
            &d,
            TismdpConfig {
                delay_weight: 50.0,
                ..TismdpConfig::default()
            },
        )
        .unwrap();
        let t_eager = eager
            .plan()
            .transitions()
            .first()
            .map(|&(t, _)| t.as_secs_f64())
            .unwrap_or(f64::INFINITY);
        let t_cautious = cautious
            .plan()
            .transitions()
            .first()
            .map(|&(t, _)| t.as_secs_f64())
            .unwrap_or(f64::INFINITY);
        assert!(
            t_cautious >= t_eager,
            "cautious ({t_cautious}) should sleep no earlier than eager ({t_eager})"
        );
    }

    #[test]
    fn huge_wake_cost_disables_sleeping() {
        let mut c = costs();
        c.wake_standby = SimDuration::from_secs(30);
        c.wake_off = SimDuration::from_secs(60);
        // Exponential with short mean: idle periods ~100 ms.
        let d = Exponential::new(10.0).unwrap();
        let p = TismdpPolicy::solve(&c, &d, TismdpConfig::default()).unwrap();
        assert!(p.never_sleeps(), "plan: {:?}", p.plan());
    }

    #[test]
    fn exponential_idle_gives_time_invariant_decision() {
        // With a memoryless distribution the optimal action cannot depend
        // on the time index: once sleeping is optimal it is optimal
        // immediately; the mode path jumps at the first bucket or never.
        let c = costs();
        let d = Exponential::new(0.2).unwrap(); // mean 5 s idle
        let p = TismdpPolicy::solve(
            &c,
            &d,
            TismdpConfig {
                delay_weight: 0.0,
                ..TismdpConfig::default()
            },
        )
        .unwrap();
        if let Some((t, _)) = p.plan().transitions().first() {
            assert!(
                t.as_secs_f64() <= p.edges()[1] + 1e-9,
                "memoryless ⇒ sleep immediately, got {t}"
            );
        }
    }

    #[test]
    fn validates_config() {
        let c = costs();
        let d = heavy_tail();
        for bad in [
            TismdpConfig {
                buckets: 1,
                ..TismdpConfig::default()
            },
            TismdpConfig {
                first_edge: 0.0,
                ..TismdpConfig::default()
            },
            TismdpConfig {
                horizon: 0.01,
                ..TismdpConfig::default()
            },
            TismdpConfig {
                delay_weight: -1.0,
                ..TismdpConfig::default()
            },
            TismdpConfig {
                steps: 0,
                ..TismdpConfig::default()
            },
        ] {
            assert!(TismdpPolicy::solve(&c, &d, bad).is_err());
        }
    }

    #[test]
    fn plan_idle_returns_the_solved_plan() {
        let mut p = TismdpPolicy::solve(&costs(), &heavy_tail(), TismdpConfig::default()).unwrap();
        let plan = p.plan_idle(&mut SimRng::seed_from(0));
        assert_eq!(&plan, p.plan());
        assert_eq!(p.name(), "tismdp");
    }
}
