//! Experiment configuration: which governor, which DPM policy, which
//! targets.

use crate::dvs::QueueModel;
use crate::PmError;
use detect::changepoint::ChangePointConfig;
use dpm::costs::DpmCosts;
use dpm::idle::IdleMixture;
use dpm::policy::{DpmPolicy, SleepState};
use dpm::predictive::PredictiveShutdown;
use dpm::renewal::{RenewalConfig, RenewalPolicy};
use dpm::timeout::{AdaptiveTimeout, FixedTimeout};
use dpm::tismdp::{TismdpConfig, TismdpPolicy};
use dpm::NoSleep;
use simcore::time::SimDuration;

/// The detection strategy driving DVS — the four columns of the paper's
/// Tables 3 and 4.
#[derive(Debug, Clone, PartialEq)]
pub enum GovernorKind {
    /// Ideal detection: reads the ground-truth rates from the trace
    /// ("assumes knowledge of the future").
    Ideal,
    /// The paper's change-point detection algorithm.
    ChangePoint(ChangePointConfig),
    /// Exponential moving average of instantaneous rates (Eq. 6) with
    /// the given gain.
    ExpAverage {
        /// EMA gain `g ∈ (0, 1]`; the paper plots 0.3 and 0.5.
        gain: f64,
    },
    /// No DVS: always run at maximum frequency and voltage.
    MaxPerformance,
}

impl GovernorKind {
    /// A change-point governor with the paper's default parameters
    /// (m = 100, 99.5 %, checked every 10 samples).
    #[must_use]
    pub fn change_point() -> Self {
        GovernorKind::ChangePoint(ChangePointConfig::default())
    }

    /// A change-point governor with a reduced calibration budget —
    /// identical online behaviour class, faster to construct. Used by
    /// doctests and unit tests.
    #[must_use]
    pub fn quick_change_point() -> Self {
        GovernorKind::ChangePoint(ChangePointConfig {
            window: 60,
            check_interval: 6,
            k_step: 6,
            calibration_trials: 400,
            ..ChangePointConfig::default()
        })
    }

    /// The label used in experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            GovernorKind::Ideal => "ideal",
            GovernorKind::ChangePoint(_) => "change-point",
            GovernorKind::ExpAverage { .. } => "exp-average",
            GovernorKind::MaxPerformance => "max",
        }
    }

    /// Parses the command-line / fleet-spec form of a governor name:
    /// `ideal`, `change-point`, `ema:<gain>`, or `max`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the expected forms.
    pub fn parse(s: &str) -> Result<GovernorKind, String> {
        match s {
            "ideal" => Ok(GovernorKind::Ideal),
            "change-point" => Ok(GovernorKind::change_point()),
            "max" => Ok(GovernorKind::MaxPerformance),
            other => {
                if let Some(gain) = other.strip_prefix("ema:") {
                    let gain: f64 = gain
                        .parse()
                        .map_err(|_| format!("invalid EMA gain `{gain}`"))?;
                    Ok(GovernorKind::ExpAverage { gain })
                } else {
                    Err(format!(
                        "unknown governor `{other}` (expected ideal|change-point|ema:<gain>|max)"
                    ))
                }
            }
        }
    }
}

/// The DPM policy choice for idle periods.
///
/// The timeout-family policies (fixed, break-even, adaptive,
/// predictive, renewal) target Standby, as in every experiment of the
/// paper; TISMDP chooses between Standby and Off itself.
#[derive(Debug, Clone, PartialEq)]
pub enum DpmKind {
    /// Never sleep (the "DVS only" / "no PM" rows of Table 5).
    None,
    /// Fixed timeout into Standby.
    FixedTimeout {
        /// Timeout in seconds.
        timeout_s: f64,
    },
    /// The 2-competitive break-even timeout.
    BreakEven,
    /// Adaptive timeout.
    Adaptive,
    /// Predictive shutdown: sleeps at idle entry when an EMA of past
    /// idle lengths (gain 0.3) predicts more than the break-even time.
    Predictive,
    /// Renewal-theory optimal (possibly randomized) timeout with an
    /// expected wake-delay budget of 0.05 s per idle period.
    Renewal,
    /// Time-indexed SMDP policy over both sleep states.
    Tismdp {
        /// Lagrangian weight on wake-up delay (J per second of delay).
        delay_weight: f64,
    },
}

/// Sleep state the timeout-family policies target.
const TIMEOUT_TARGET: SleepState = SleepState::Standby;

/// Idle-length EMA gain of [`DpmKind::Predictive`].
const PREDICTIVE_GAIN: f64 = 0.3;

/// Expected wake-delay budget per idle period of [`DpmKind::Renewal`],
/// seconds.
const RENEWAL_DELAY_BUDGET_S: f64 = 0.05;

impl DpmKind {
    /// The label used in experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DpmKind::None => "none",
            DpmKind::FixedTimeout { .. } => "fixed-timeout",
            DpmKind::BreakEven => "break-even",
            DpmKind::Adaptive => "adaptive-timeout",
            DpmKind::Predictive => "predictive",
            DpmKind::Renewal => "renewal",
            DpmKind::Tismdp { .. } => "tismdp",
        }
    }

    /// Parses the command-line / fleet-spec form of a DPM policy name:
    /// `none`, `timeout:<secs>`, `break-even`, `adaptive`, `predictive`,
    /// `renewal`, or `tismdp` (delay weight 2.0, the paper's setting).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the expected forms.
    pub fn parse(s: &str) -> Result<DpmKind, String> {
        match s {
            "none" => Ok(DpmKind::None),
            "break-even" => Ok(DpmKind::BreakEven),
            "adaptive" => Ok(DpmKind::Adaptive),
            "predictive" => Ok(DpmKind::Predictive),
            "renewal" => Ok(DpmKind::Renewal),
            "tismdp" => Ok(DpmKind::Tismdp { delay_weight: 2.0 }),
            other => {
                if let Some(t) = other.strip_prefix("timeout:") {
                    let timeout_s: f64 = t.parse().map_err(|_| format!("invalid timeout `{t}`"))?;
                    Ok(DpmKind::FixedTimeout { timeout_s })
                } else {
                    Err(format!(
                        "unknown dpm `{other}` \
                         (expected none|timeout:<s>|break-even|adaptive|predictive|renewal|tismdp)"
                    ))
                }
            }
        }
    }

    /// Instantiates the policy against device costs and the idle-period
    /// model.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy parameters are invalid for these
    /// costs.
    pub fn build(
        &self,
        costs: &DpmCosts,
        idle: &IdleMixture,
    ) -> Result<Box<dyn DpmPolicy>, PmError> {
        Ok(match self {
            DpmKind::None => Box::new(NoSleep::new()),
            DpmKind::FixedTimeout { timeout_s } => Box::new(FixedTimeout::new(
                SimDuration::from_secs_f64(*timeout_s),
                TIMEOUT_TARGET,
            )?),
            DpmKind::BreakEven => Box::new(FixedTimeout::break_even(costs, TIMEOUT_TARGET)?),
            DpmKind::Adaptive => Box::new(AdaptiveTimeout::new(
                costs,
                TIMEOUT_TARGET,
                SimDuration::from_millis(50),
                SimDuration::from_secs(120),
            )?),
            DpmKind::Predictive => Box::new(PredictiveShutdown::new(
                costs,
                TIMEOUT_TARGET,
                PREDICTIVE_GAIN,
            )?),
            DpmKind::Renewal => Box::new(RenewalPolicy::solve(
                costs,
                idle,
                TIMEOUT_TARGET,
                RENEWAL_DELAY_BUDGET_S,
                RenewalConfig::default(),
            )?),
            DpmKind::Tismdp { delay_weight } => Box::new(TismdpPolicy::solve(
                costs,
                idle,
                TismdpConfig {
                    delay_weight: *delay_weight,
                    ..TismdpConfig::default()
                },
            )?),
        })
    }
}

/// Graceful-degradation supervisor: the watchdog half of the fault
/// model.
///
/// The supervisor watches two health signals — the deadline-miss ratio
/// over a rolling window of completed frames, and the instantaneous
/// buffer occupancy. When either crosses its threshold it forces the
/// maximum operating point ("degraded mode", the paper's
/// max-performance column), and it re-enters rate-driven governing only
/// after the miss ratio has decayed below the exit threshold, the
/// backlog has drained, and a minimum dwell time has elapsed
/// (hysteresis, so a flapping fault cannot make the manager thrash).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Rolling window of completed frames over which the deadline-miss
    /// ratio is computed.
    pub miss_window: usize,
    /// Enter degraded mode when the windowed miss ratio reaches this
    /// (evaluated only once the window is full).
    pub miss_ratio_enter: f64,
    /// Leave degraded mode when the windowed miss ratio has decayed to
    /// this or below.
    pub miss_ratio_exit: f64,
    /// Enter degraded mode when the buffer occupancy reaches this many
    /// frames; the exit path requires it to drain below half of this.
    pub occupancy_enter: usize,
    /// Minimum time to stay degraded once entered, seconds.
    pub min_dwell_s: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            miss_window: 50,
            miss_ratio_enter: 0.25,
            miss_ratio_exit: 0.05,
            occupancy_enter: 64,
            min_dwell_s: 2.0,
        }
    }
}

impl SupervisorConfig {
    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns an error if the window is empty, a ratio is outside
    /// `[0, 1]`, the exit ratio exceeds the enter ratio, the occupancy
    /// threshold is zero, or the dwell is negative/non-finite.
    pub fn validate(&self) -> Result<(), PmError> {
        if self.miss_window == 0 {
            return Err(PmError::InvalidParameter {
                name: "supervisor.miss_window",
                value: 0.0,
            });
        }
        if self.occupancy_enter == 0 {
            return Err(PmError::InvalidParameter {
                name: "supervisor.occupancy_enter",
                value: 0.0,
            });
        }
        for (name, v) in [
            ("supervisor.miss_ratio_enter", self.miss_ratio_enter),
            ("supervisor.miss_ratio_exit", self.miss_ratio_exit),
        ] {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(PmError::InvalidParameter { name, value: v });
            }
        }
        if self.miss_ratio_exit > self.miss_ratio_enter {
            return Err(PmError::InvalidParameter {
                name: "supervisor.miss_ratio_exit",
                value: self.miss_ratio_exit,
            });
        }
        if !(self.min_dwell_s.is_finite() && self.min_dwell_s >= 0.0) {
            return Err(PmError::InvalidParameter {
                name: "supervisor.min_dwell_s",
                value: self.min_dwell_s,
            });
        }
        Ok(())
    }
}

/// Full experiment configuration: the values an experiment varies.
/// Everything the paper holds fixed (the per-media delay targets, the
/// idle-period model, the streaming-gap threshold, the deadline factor)
/// is a constant next to the code that reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// DVS detection strategy.
    pub governor: GovernorKind,
    /// DPM policy for idle periods.
    pub dpm: DpmKind,
    /// Queue model inverting the delay target into a decode rate.
    pub queue_model: QueueModel,
    /// Fault models to inject (`None` = the paper's clean runs).
    pub faults: Option<faults::FaultSpec>,
    /// Graceful-degradation supervisor (`None` = disabled; clean runs
    /// behave exactly as before).
    pub supervisor: Option<SupervisorConfig>,
    /// Frame-buffer capacity in frames (`None` = unbounded, the paper's
    /// idealization). A full buffer rejects the arriving frame, and the
    /// drop is counted in the report.
    pub buffer_capacity: Option<usize>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            governor: GovernorKind::change_point(),
            dpm: DpmKind::None,
            queue_model: QueueModel::Mm1,
            faults: None,
            supervisor: None,
            buffer_capacity: None,
        }
    }
}

/// Frame-buffer capacity that comes with a fault preset.
const FAULT_BUFFER_FRAMES: usize = 64;

impl SystemConfig {
    /// The paper's configuration for `governor` and `dpm` under
    /// `faults`. Any fault spec brings the graceful-degradation
    /// supervisor and a bounded 64-frame buffer (what makes drop
    /// accounting meaningful), so the reaction side of the fault model
    /// is exercised too; `None` is the clean run.
    #[must_use]
    pub fn with_faults(
        governor: GovernorKind,
        dpm: DpmKind,
        faults: Option<faults::FaultSpec>,
    ) -> SystemConfig {
        let faulted = faults.is_some();
        SystemConfig {
            governor,
            dpm,
            faults,
            supervisor: faulted.then(SupervisorConfig::default),
            buffer_capacity: faulted.then_some(FAULT_BUFFER_FRAMES),
            ..SystemConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::SmartBadge;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            GovernorKind::Ideal.label(),
            GovernorKind::change_point().label(),
            GovernorKind::ExpAverage { gain: 0.3 }.label(),
            GovernorKind::MaxPerformance.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn parse_round_trips_labels() {
        for name in ["ideal", "change-point", "max"] {
            assert_eq!(GovernorKind::parse(name).unwrap().label(), name);
        }
        assert_eq!(
            GovernorKind::parse("ema:0.3").unwrap().label(),
            "exp-average"
        );
        assert!(GovernorKind::parse("turbo").is_err());
        assert!(GovernorKind::parse("ema:fast").is_err());
        for name in ["none", "break-even", "predictive", "renewal", "tismdp"] {
            assert_eq!(DpmKind::parse(name).unwrap().label(), name);
        }
        assert_eq!(
            DpmKind::parse("adaptive").unwrap().label(),
            "adaptive-timeout"
        );
        assert_eq!(
            DpmKind::parse("timeout:2.5").unwrap().label(),
            "fixed-timeout"
        );
        assert!(DpmKind::parse("sleepy").is_err());
        assert!(DpmKind::parse("timeout:soon").is_err());
    }

    #[test]
    fn all_dpm_kinds_build() {
        let costs = DpmCosts::managed_subsystem(&SmartBadge::new());
        let idle = IdleMixture::streaming_default().unwrap();
        let kinds = [
            DpmKind::None,
            DpmKind::FixedTimeout { timeout_s: 1.0 },
            DpmKind::BreakEven,
            DpmKind::Adaptive,
            DpmKind::Predictive,
            DpmKind::Renewal,
            DpmKind::Tismdp { delay_weight: 2.0 },
        ];
        for k in kinds {
            let policy = k.build(&costs, &idle).unwrap();
            assert!(!policy.name().is_empty(), "{:?}", k.label());
        }
    }

    #[test]
    fn bad_dpm_parameters_error() {
        let costs = DpmCosts::managed_subsystem(&SmartBadge::new());
        let idle = IdleMixture::streaming_default().unwrap();
        let bad = DpmKind::FixedTimeout { timeout_s: 0.0 };
        assert!(bad.build(&costs, &idle).is_err());
    }

    #[test]
    fn default_config_is_sane() {
        let c = SystemConfig::default();
        assert_eq!(c.governor.label(), "change-point");
        assert_eq!(c.dpm.label(), "none");
        assert!(c.faults.is_none());
        assert!(c.supervisor.is_none());
        assert!(c.buffer_capacity.is_none());
    }

    #[test]
    fn default_supervisor_validates() {
        let s = SupervisorConfig::default();
        assert!(s.validate().is_ok());
        assert!(s.miss_ratio_exit < s.miss_ratio_enter);
    }

    #[test]
    fn supervisor_rejects_bad_thresholds() {
        let ok = SupervisorConfig::default();
        for bad in [
            SupervisorConfig {
                miss_window: 0,
                ..ok.clone()
            },
            SupervisorConfig {
                occupancy_enter: 0,
                ..ok.clone()
            },
            SupervisorConfig {
                miss_ratio_enter: 1.5,
                ..ok.clone()
            },
            SupervisorConfig {
                miss_ratio_exit: f64::NAN,
                ..ok.clone()
            },
            SupervisorConfig {
                miss_ratio_enter: 0.1,
                miss_ratio_exit: 0.2,
                ..ok.clone()
            },
            SupervisorConfig {
                min_dwell_s: -1.0,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
