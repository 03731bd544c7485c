//! Experiment reports.
//!
//! Every simulation run produces a [`SimReport`] carrying exactly the
//! quantities the paper's tables print — energy (kJ) and mean total
//! frame delay (s) — plus the diagnostic detail a systems reader wants:
//! per-component energy, time per system mode, switch/sleep counts.

use hardware::energy::EnergyMeter;
use simcore::json::{Json, ToJson};
use simcore::stats::OnlineStats;
use std::collections::BTreeMap;
use std::fmt;

/// The system modes time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModeKey {
    /// Actively decoding frames.
    Decoding,
    /// Powered but idle.
    Idle,
    /// In standby.
    Standby,
    /// Powered off.
    Off,
    /// Waking from a sleep state.
    Waking,
}

impl ModeKey {
    /// All modes.
    pub const ALL: [ModeKey; 5] = [
        ModeKey::Decoding,
        ModeKey::Idle,
        ModeKey::Standby,
        ModeKey::Off,
        ModeKey::Waking,
    ];

    /// The trace-layer mode with the same meaning (and the same label).
    #[must_use]
    pub fn trace_mode(self) -> trace::TraceMode {
        match self {
            ModeKey::Decoding => trace::TraceMode::Decoding,
            ModeKey::Idle => trace::TraceMode::Idle,
            ModeKey::Standby => trace::TraceMode::Standby,
            ModeKey::Off => trace::TraceMode::Off,
            ModeKey::Waking => trace::TraceMode::Waking,
        }
    }

    /// Inverse of [`ModeKey::trace_mode`].
    #[must_use]
    pub fn from_trace(mode: trace::TraceMode) -> ModeKey {
        match mode {
            trace::TraceMode::Decoding => ModeKey::Decoding,
            trace::TraceMode::Idle => ModeKey::Idle,
            trace::TraceMode::Standby => ModeKey::Standby,
            trace::TraceMode::Off => ModeKey::Off,
            trace::TraceMode::Waking => ModeKey::Waking,
        }
    }
}

impl fmt::Display for ModeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModeKey::Decoding => "decoding",
            ModeKey::Idle => "idle",
            ModeKey::Standby => "standby",
            ModeKey::Off => "off",
            ModeKey::Waking => "waking",
        };
        f.write_str(s)
    }
}

impl ToJson for ModeKey {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

/// Counters accumulated by the fault-injection layer and the
/// graceful-degradation supervisor.
///
/// All-zero (`Default`) for a run with no faults injected and the
/// supervisor disabled, so baseline reports are unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobustnessReport {
    /// Frames lost before reaching the buffer (WLAN burst loss).
    pub arrivals_dropped: u64,
    /// Frames dropped at the buffer because it was full.
    pub frames_dropped: u64,
    /// Completed frames that missed their delay deadline.
    pub deadline_misses: u64,
    /// Completed frames checked against a deadline.
    pub deadlines_total: u64,
    /// Decode jobs whose execution time was inflated by a fault.
    pub decode_overruns: u64,
    /// Frequency–voltage switch attempts that failed and were retried.
    pub switch_retries: u64,
    /// Switches abandoned after exhausting the retry budget.
    pub switch_failures: u64,
    /// Degenerate detector samples (zero/NaN interarrivals) rejected.
    pub samples_rejected: u64,
    /// Times the supervisor entered degraded (max-performance) mode.
    pub degraded_entries: u64,
    /// Seconds spent in degraded mode.
    pub degraded_secs: f64,
}

impl RobustnessReport {
    /// Fraction of deadline-checked frames that missed; `0.0` when no
    /// deadlines were checked.
    #[must_use]
    pub fn deadline_miss_ratio(&self) -> f64 {
        if self.deadlines_total == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.deadlines_total as f64
        }
    }

    /// `true` when every counter is zero (no faults, no degradation).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        *self == RobustnessReport::default()
    }
}

simcore::impl_to_json!(RobustnessReport {
    arrivals_dropped,
    frames_dropped,
    deadline_misses,
    deadlines_total,
    decode_overruns,
    switch_retries,
    switch_failures,
    samples_rejected,
    degraded_entries,
    degraded_secs,
});

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-component energy accounting.
    pub energy: EnergyMeter,
    /// Per-frame total delay (arrival → decode completion), seconds.
    pub frame_delays: OnlineStats,
    /// Frames decoded.
    pub frames_completed: u64,
    /// CPU frequency switches performed.
    pub freq_switches: u64,
    /// Rate changes signalled by the governor.
    pub rate_changes: u64,
    /// Sleep-state entries commanded by the DPM policy.
    pub sleeps: u64,
    /// Wake-up transitions performed.
    pub wakes: u64,
    /// Seconds spent in each mode.
    pub mode_secs: BTreeMap<ModeKey, f64>,
    /// Seconds spent decoding at each CPU frequency, keyed by the
    /// frequency in tenths of a MHz (so the map key is exact).
    pub freq_residency: BTreeMap<u32, f64>,
    /// Simulated wall-clock length, seconds.
    pub duration_secs: f64,
    /// The governor's table label.
    pub governor: &'static str,
    /// The DPM policy's table label.
    pub dpm: &'static str,
    /// Fault-injection and graceful-degradation counters.
    pub robustness: RobustnessReport,
    /// Streaming invariant verdicts, present only when an
    /// [`trace::AssertionMonitor`] was attached to the run.
    pub assertions: Option<trace::AssertionReport>,
}

impl ToJson for SimReport {
    /// Field order matches the struct; `assertions` is appended only
    /// when a monitor was attached, so unmonitored reports — including
    /// every pre-existing golden — keep their exact bytes.
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("energy".to_owned(), self.energy.to_json()),
            ("frame_delays".to_owned(), self.frame_delays.to_json()),
            (
                "frames_completed".to_owned(),
                self.frames_completed.to_json(),
            ),
            ("freq_switches".to_owned(), self.freq_switches.to_json()),
            ("rate_changes".to_owned(), self.rate_changes.to_json()),
            ("sleeps".to_owned(), self.sleeps.to_json()),
            ("wakes".to_owned(), self.wakes.to_json()),
            ("mode_secs".to_owned(), self.mode_secs.to_json()),
            ("freq_residency".to_owned(), self.freq_residency.to_json()),
            ("duration_secs".to_owned(), self.duration_secs.to_json()),
            ("governor".to_owned(), self.governor.to_json()),
            ("dpm".to_owned(), self.dpm.to_json()),
            ("robustness".to_owned(), self.robustness.to_json()),
        ];
        if let Some(assertions) = &self.assertions {
            pairs.push(("assertions".to_owned(), assertions.to_json()));
        }
        Json::obj(pairs)
    }
}

impl SimReport {
    /// Total energy, joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_joules()
    }

    /// Total energy, kilojoules (the paper's unit).
    #[must_use]
    pub fn total_energy_kj(&self) -> f64 {
        self.energy.total_kilojoules()
    }

    /// Mean total frame delay, seconds (the paper's "Fr. Delay").
    #[must_use]
    pub fn mean_frame_delay_s(&self) -> f64 {
        self.frame_delays.mean()
    }

    /// Average system power over the run, milliwatts.
    ///
    /// `duration_secs` and the meter's own `elapsed_secs` are fed from
    /// the same accounted intervals, so this agrees with
    /// [`EnergyMeter::average_power_mw`] (see [`Self::clock_skew_secs`]).
    #[must_use]
    pub fn average_power_mw(&self) -> f64 {
        if self.duration_secs == 0.0 {
            0.0
        } else {
            self.total_energy_j() / self.duration_secs * 1e3
        }
    }

    /// Absolute difference between the report's wall clock
    /// (`duration_secs`) and the energy meter's accumulated
    /// `elapsed_secs`. Both are driven by the same accounting steps;
    /// anything beyond float-summation noise indicates the two
    /// bookkeeping paths diverged.
    #[must_use]
    pub fn clock_skew_secs(&self) -> f64 {
        (self.duration_secs - self.energy.elapsed_secs()).abs()
    }

    /// `true` when the report clock and the energy-meter clock agree to
    /// within `tol` (relative to the run length, with a 1 s floor).
    #[must_use]
    pub fn clocks_consistent(&self, tol: f64) -> bool {
        self.clock_skew_secs() <= tol * self.duration_secs.abs().max(1.0)
    }

    /// Seconds attributed to one mode.
    #[must_use]
    pub fn mode_secs(&self, mode: ModeKey) -> f64 {
        self.mode_secs.get(&mode).copied().unwrap_or(0.0)
    }

    /// Seconds spent decoding at `freq_mhz` (tolerance 0.05 MHz).
    ///
    /// Invalid frequencies (NaN, negative, or beyond the key range)
    /// report zero residency. Without the guard the `as u32` cast would
    /// saturate them onto real buckets — NaN and negatives onto key 0,
    /// huge values onto `u32::MAX`.
    #[must_use]
    pub fn freq_secs(&self, freq_mhz: f64) -> f64 {
        let scaled = freq_mhz * 10.0;
        if !(scaled.is_finite() && (0.0..=u32::MAX as f64).contains(&scaled)) {
            return 0.0;
        }
        let key = scaled.round() as u32;
        self.freq_residency.get(&key).copied().unwrap_or(0.0)
    }

    /// The decoding-time-weighted mean CPU frequency, MHz; `0.0` if the
    /// device never decoded.
    #[must_use]
    pub fn mean_decode_frequency_mhz(&self) -> f64 {
        let total: f64 = self.freq_residency.values().sum();
        if total == 0.0 {
            return 0.0;
        }
        self.freq_residency
            .iter()
            .map(|(&k, &secs)| k as f64 / 10.0 * secs)
            .sum::<f64>()
            / total
    }

    /// A one-line table row: `governor dpm energy_kJ delay_s`.
    #[must_use]
    pub fn summary_row(&self) -> String {
        format!(
            "{gov:<13} {dpm:<16} {kj:>9.3} kJ {delay:>8.3} s",
            gov = self.governor,
            dpm = self.dpm,
            kj = self.total_energy_kj(),
            delay = self.mean_frame_delay_s()
        )
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: governor={} dpm={} duration={:.1}s frames={}",
            self.governor, self.dpm, self.duration_secs, self.frames_completed
        )?;
        writeln!(
            f,
            "  energy: {:.3} kJ (avg {:.0} mW)",
            self.total_energy_kj(),
            self.average_power_mw()
        )?;
        writeln!(
            f,
            "  frame delay: mean {:.3} s, max {:.3} s",
            self.mean_frame_delay_s(),
            self.frame_delays.max()
        )?;
        writeln!(
            f,
            "  activity: {} freq switches, {} rate changes, {} sleeps, {} wakes",
            self.freq_switches, self.rate_changes, self.sleeps, self.wakes
        )?;
        write!(f, "  time:")?;
        for mode in ModeKey::ALL {
            write!(f, " {}={:.1}s", mode, self.mode_secs(mode))?;
        }
        if !self.freq_residency.is_empty() {
            write!(
                f,
                "\n  mean decode frequency: {:.1} MHz",
                self.mean_decode_frequency_mhz()
            )?;
        }
        let r = &self.robustness;
        if !r.is_quiet() {
            write!(
                f,
                "\n  robustness: {} arrivals lost, {} frames dropped, \
                 {}/{} deadlines missed, {} switch retries ({} abandoned), \
                 {} samples rejected, degraded {:.1}s over {} entries",
                r.arrivals_dropped,
                r.frames_dropped,
                r.deadline_misses,
                r.deadlines_total,
                r.switch_retries,
                r.switch_failures,
                r.samples_rejected,
                r.degraded_secs,
                r.degraded_entries
            )?;
        }
        if let Some(assertions) = &self.assertions {
            write!(f, "\n  assertions: {assertions}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        let mut energy = EnergyMeter::new();
        energy.accumulate(
            hardware::component::ComponentId::Cpu,
            400.0,
            simcore::time::SimDuration::from_secs(100),
        );
        energy.advance_time(simcore::time::SimDuration::from_secs(100));
        let mut delays = OnlineStats::new();
        delays.push(0.1);
        delays.push(0.3);
        let mut mode_secs = BTreeMap::new();
        mode_secs.insert(ModeKey::Decoding, 80.0);
        mode_secs.insert(ModeKey::Idle, 20.0);
        let mut freq_residency = BTreeMap::new();
        freq_residency.insert(2212, 60.0); // 221.2 MHz for 60 s
        freq_residency.insert(1032, 20.0); // 103.2 MHz for 20 s
        SimReport {
            energy,
            frame_delays: delays,
            frames_completed: 2,
            freq_switches: 3,
            rate_changes: 4,
            sleeps: 1,
            wakes: 1,
            mode_secs,
            freq_residency,
            duration_secs: 100.0,
            governor: "ideal",
            dpm: "none",
            robustness: RobustnessReport::default(),
            assertions: None,
        }
    }

    #[test]
    fn unit_conversions() {
        let r = report();
        assert!((r.total_energy_j() - 40.0).abs() < 1e-9);
        assert!((r.total_energy_kj() - 0.04).abs() < 1e-12);
        assert!((r.average_power_mw() - 400.0).abs() < 1e-9);
        assert!((r.mean_frame_delay_s() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mode_lookup_defaults_to_zero() {
        let r = report();
        assert_eq!(r.mode_secs(ModeKey::Off), 0.0);
        assert_eq!(r.mode_secs(ModeKey::Decoding), 80.0);
    }

    #[test]
    fn freq_residency_lookup_and_mean() {
        let r = report();
        assert_eq!(r.freq_secs(221.2), 60.0);
        assert_eq!(r.freq_secs(103.2), 20.0);
        assert_eq!(r.freq_secs(59.0), 0.0);
        let expected = (221.2 * 60.0 + 103.2 * 20.0) / 80.0;
        assert!((r.mean_decode_frequency_mhz() - expected).abs() < 1e-9);
    }

    #[test]
    fn invalid_frequencies_never_collide_with_real_buckets() {
        let mut r = report();
        // A genuine 0.0-MHz bucket, the old saturation target for NaN
        // and negative inputs.
        r.freq_residency.insert(0, 5.0);
        r.freq_residency.insert(u32::MAX, 7.0);
        assert_eq!(r.freq_secs(0.0), 5.0, "the real bucket is reachable");
        assert_eq!(r.freq_secs(f64::NAN), 0.0);
        assert_eq!(r.freq_secs(-221.2), 0.0);
        assert_eq!(r.freq_secs(f64::NEG_INFINITY), 0.0);
        assert_eq!(r.freq_secs(f64::INFINITY), 0.0);
        assert_eq!(
            r.freq_secs(1e18),
            0.0,
            "huge values don't saturate onto u32::MAX"
        );
    }

    #[test]
    fn clock_consistency_is_observable() {
        let r = report();
        // The fixture accumulates 100 s into the meter and reports
        // duration_secs = 100.0: consistent.
        assert_eq!(r.clock_skew_secs(), 0.0);
        assert!(r.clocks_consistent(1e-9));
        // With one clock, the two average-power paths cannot disagree.
        assert!((r.average_power_mw() - r.energy.average_power_mw()).abs() < 1e-9);
        let mut skewed = report();
        skewed.duration_secs = 90.0;
        assert!((skewed.clock_skew_secs() - 10.0).abs() < 1e-12);
        assert!(!skewed.clocks_consistent(1e-6));
    }

    #[test]
    fn mode_keys_round_trip_through_trace_modes() {
        for mode in ModeKey::ALL {
            let t = mode.trace_mode();
            assert_eq!(ModeKey::from_trace(t), mode);
            assert_eq!(t.label(), mode.to_string(), "labels stay in sync");
        }
    }

    #[test]
    fn summary_row_contains_labels_and_units() {
        let row = report().summary_row();
        assert!(row.contains("ideal"));
        assert!(row.contains("none"));
        assert!(row.contains("kJ"));
    }

    #[test]
    fn report_serializes_to_json() {
        let r = report();
        let json = r.to_json();
        assert_eq!(json["frames_completed"], 2u64);
        assert_eq!(json["mode_secs"]["decoding"], 80.0);
        assert!(json["freq_residency"]["2212"].as_f64().unwrap() > 0.0);
        assert_eq!(json["governor"], "ideal");
        assert_eq!(json["robustness"]["frames_dropped"], 0u64);
        // The dump must parse back.
        assert!(Json::parse(&json.dump()).is_ok());
    }

    #[test]
    fn assertions_key_appears_only_when_a_monitor_ran() {
        let bare = report();
        assert!(
            !bare.to_json().dump().contains("assertions"),
            "unmonitored reports keep their pre-assertion bytes"
        );
        assert!(!bare.to_string().contains("assertions"));

        let mut monitored = report();
        monitored.assertions = Some(trace::AssertionReport {
            delay: Some(trace::InvariantReport {
                checked: 10,
                violations: 2,
                first_violation: None,
                worst_margin: 1.5,
            }),
            ..trace::AssertionReport::default()
        });
        let json = monitored.to_json();
        assert_eq!(json["assertions"]["delay"]["violations"], 2u64);
        assert!(monitored.to_string().contains("assertions: 2 violation(s)"));
    }

    #[test]
    fn display_is_multiline_and_complete() {
        let text = report().to_string();
        assert!(text.contains("energy"));
        assert!(text.contains("frame delay"));
        assert!(text.contains("decoding=80.0s"));
        // Quiet robustness counters stay out of the baseline summary.
        assert!(!text.contains("robustness"));
    }

    #[test]
    fn display_shows_robustness_when_faulted() {
        let mut r = report();
        r.robustness.frames_dropped = 3;
        r.robustness.deadline_misses = 1;
        r.robustness.deadlines_total = 2;
        let text = r.to_string();
        assert!(text.contains("robustness"));
        assert!(text.contains("3 frames dropped"));
        assert!(text.contains("1/2 deadlines missed"));
    }

    #[test]
    fn deadline_miss_ratio_handles_empty() {
        let mut r = RobustnessReport::default();
        assert_eq!(r.deadline_miss_ratio(), 0.0);
        assert!(r.is_quiet());
        r.deadline_misses = 1;
        r.deadlines_total = 4;
        assert!((r.deadline_miss_ratio() - 0.25).abs() < 1e-12);
        assert!(!r.is_quiet());
    }
}
