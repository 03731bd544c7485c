//! Running the paper's scenarios.
//!
//! Every experiment the paper reports (Tables 3–5) is one simulation of
//! one frame trace under one configuration, so there is one way to run
//! it: [`run_trace`], or [`Workload::run`], which generates a named
//! workload's trace first. What varies between callers is carried by
//! [`Attachments`]: pre-resolved shared resources, a trace sink, and an
//! assertion monitor, all optional. None of them perturbs the
//! simulation, and with none attached the run takes the monomorphized
//! untraced kernel path.
//!
//! [`Workload`] names the paper's three experiment families:
//!
//! * `mp3:<labels>` — a Table 3 cell (one MP3 sequence under one
//!   governor),
//! * `mpeg:<clip>` — a Table 4 cell,
//! * `session` — a Table 5 cell (the mixed audio/video session with
//!   idle gaps, under DVS and/or DPM).

use crate::config::SystemConfig;
use crate::metrics::SimReport;
use crate::resolve::SharedResources;
use crate::system::SystemSimulator;
use crate::PmError;
use simcore::rng::SimRng;
use std::fmt;
use trace::{AssertionMonitor, TraceSink};
use workload::session::Session;
use workload::{mp3, MpegClip, Trace};

/// A named workload choice — the `--workload` axis of the CLI and the
/// per-device workload mix of a fleet spec. Parsing and execution live
/// here so every front end (CLI `run`, `dvsdpm fleet`, benches)
/// resolves the same string to the same scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// An MP3 clip sequence over the Table 3 clips `A`–`F`.
    Mp3(String),
    /// One of the Table 4 MPEG clips (`football` or `terminator2`).
    Mpeg(String),
    /// The Table 5 mixed audio/video session with idle gaps.
    Session,
}

impl Workload {
    /// Parses `mp3:<labels>`, `mpeg:<clip>`, or `session`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the expected forms.
    pub fn parse(s: &str) -> Result<Workload, String> {
        if let Some(labels) = s.strip_prefix("mp3:") {
            if labels.is_empty() {
                return Err("mp3 workload needs clip labels, e.g. mp3:ACEFBD".to_owned());
            }
            Ok(Workload::Mp3(labels.to_owned()))
        } else if let Some(clip) = s.strip_prefix("mpeg:") {
            match clip {
                "football" | "terminator2" => Ok(Workload::Mpeg(clip.to_owned())),
                other => Err(format!(
                    "unknown MPEG clip `{other}` (expected football|terminator2)"
                )),
            }
        } else if s == "session" {
            Ok(Workload::Session)
        } else {
            Err(format!(
                "unknown workload `{s}` (expected mp3:<labels>|mpeg:<clip>|session)"
            ))
        }
    }

    /// Generates this workload's trace exactly as [`Self::run`] would.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clip labels.
    pub fn build(&self, seed: u64) -> Result<Trace, PmError> {
        match self {
            Workload::Mp3(labels) => build_mp3_sequence(labels, seed),
            Workload::Mpeg(clip) => build_mpeg_clip(clip, seed),
            Workload::Session => build_session(seed),
        }
    }

    /// Runs this workload under `config` at `seed`: [`run_trace`] over
    /// [`Self::build`]'s trace.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clip labels or invalid configuration.
    pub fn run(
        &self,
        config: &SystemConfig,
        seed: u64,
        attach: Attachments<'_>,
    ) -> Result<SimReport, PmError> {
        run_trace(&self.build(seed)?, config, seed, attach)
    }
}

impl fmt::Display for Workload {
    /// Formats back to the parseable `mp3:…` / `mpeg:…` / `session`
    /// form, so `Workload::parse(&w.to_string()) == Ok(w)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Mp3(labels) => write!(f, "mp3:{labels}"),
            Workload::Mpeg(clip) => write!(f, "mpeg:{clip}"),
            Workload::Session => write!(f, "session"),
        }
    }
}

/// The optional extras of one run. `Attachments::default()` is the
/// plain run: thresholds resolved through the process-wide cache, no
/// sink, no monitor, the untraced kernel path.
#[derive(Default)]
pub struct Attachments<'a> {
    /// Pre-resolved shared resources — the fleet engine's cohort path.
    /// Bit-identical to resolving through the cache when they were
    /// resolved from the run's config.
    pub shared: Option<&'a SharedResources>,
    /// Records the run's structured events. The report is bit-identical
    /// to the untraced run's.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Checks invariants as the run streams; the report then carries
    /// [`SimReport::assertions`]. Monitoring alone takes the traced
    /// kernel path, since the monitor must see every event.
    pub monitor: Option<&'a mut AssertionMonitor>,
}

/// Generates the trace of one MP3 listening sequence (e.g. `"ACEFBD"`).
fn build_mp3_sequence(labels: &str, seed: u64) -> Result<Trace, PmError> {
    let mut rng = SimRng::seed_from(seed).fork("mp3-sequence");
    Ok(mp3::sequence(labels, &mut rng)?)
}

/// Generates the trace of one MPEG clip (`"football"` or
/// `"terminator2"`).
fn build_mpeg_clip(name: &str, seed: u64) -> Result<Trace, PmError> {
    let clip = match name {
        "football" => MpegClip::football(),
        "terminator2" => MpegClip::terminator2(),
        _ => {
            return Err(PmError::InvalidParameter {
                name: "clip name (expected football|terminator2)",
                value: f64::NAN,
            })
        }
    };
    let mut rng = SimRng::seed_from(seed).fork("mpeg-clip");
    Ok(clip.generate(&mut rng))
}

/// Generates the canonical Table 5 mixed-session trace.
fn build_session(seed: u64) -> Result<Trace, PmError> {
    let mut rng = SimRng::seed_from(seed).fork("session");
    let session = Session::table5(&mut rng);
    Ok(session.generate(&mut rng)?)
}

/// Runs a prepared trace under `config`, seeding every stochastic
/// element from `seed`, with `attach`'s extras.
///
/// # Errors
///
/// Returns an error for invalid configuration.
pub fn run_trace(
    trace: &Trace,
    config: &SystemConfig,
    seed: u64,
    attach: Attachments<'_>,
) -> Result<SimReport, PmError> {
    let resolve_through_cache = SharedResources::default();
    let shared = attach.shared.unwrap_or(&resolve_through_cache);
    let mut sim = match attach.sink {
        Some(sink) => {
            SystemSimulator::new_traced_shared(trace, config.clone(), seed, shared, sink)?
        }
        None => SystemSimulator::new_shared(trace, config.clone(), seed, shared)?,
    };
    if let Some(monitor) = attach.monitor {
        sim.attach_monitor(monitor);
    }
    sim.run(trace.end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DpmKind, GovernorKind};
    use simcore::json::ToJson;

    fn cfg(governor: GovernorKind, dpm: DpmKind) -> SystemConfig {
        SystemConfig {
            governor,
            dpm,
            ..SystemConfig::default()
        }
    }

    fn run(workload: &str, config: &SystemConfig, seed: u64) -> SimReport {
        Workload::parse(workload)
            .unwrap()
            .run(config, seed, Attachments::default())
            .unwrap()
    }

    #[test]
    fn workload_parse_round_trips_and_runs_same_scenario() {
        for s in ["mp3:ACE", "mpeg:football", "mpeg:terminator2", "session"] {
            let w = Workload::parse(s).unwrap();
            assert_eq!(w.to_string(), s);
        }
        for bad in ["mp3:", "mpeg:matrix", "vhs:ghostbusters", ""] {
            assert!(Workload::parse(bad).is_err(), "{bad}");
        }
        // Workload::run is run_trace over the built trace.
        let config = cfg(GovernorKind::MaxPerformance, DpmKind::None);
        let workload = Workload::parse("mp3:A").unwrap();
        let via_enum = workload.run(&config, 5, Attachments::default()).unwrap();
        let trace = workload.build(5).unwrap();
        let direct = run_trace(&trace, &config, 5, Attachments::default()).unwrap();
        assert_eq!(via_enum.to_json().dump(), direct.to_json().dump());
    }

    #[test]
    fn mp3_sequence_runs_and_labels_match() {
        let report = run(
            "mp3:AF",
            &cfg(GovernorKind::MaxPerformance, DpmKind::None),
            11,
        );
        assert_eq!(report.governor, "max");
        assert_eq!(report.dpm, "none");
        assert!(report.frames_completed > 1000);
    }

    #[test]
    fn unknown_clip_is_rejected() {
        let config = SystemConfig::default();
        for workload in [Workload::Mpeg("matrix".into()), Workload::Mp3("XYZ".into())] {
            assert!(workload.run(&config, 0, Attachments::default()).is_err());
        }
    }

    #[test]
    fn traced_scenario_matches_untraced() {
        let config = cfg(GovernorKind::Ideal, DpmKind::None);
        let plain = run("mp3:A", &config, 19);
        let mut sink = trace::RingSink::new(1 << 16);
        let traced = Workload::parse("mp3:A")
            .unwrap()
            .run(
                &config,
                19,
                Attachments {
                    sink: Some(&mut sink),
                    ..Attachments::default()
                },
            )
            .unwrap();
        assert_eq!(plain.to_json().dump(), traced.to_json().dump());
        let summary = trace::replay(&sink.events());
        assert_eq!(summary.frames_completed, traced.frames_completed);
    }

    #[test]
    fn observed_run_matches_plain_run_and_attaches_assertions() {
        let config = cfg(GovernorKind::quick_change_point(), DpmKind::None);
        let shared = SharedResources::resolve_governor(&config.governor).unwrap();
        let workload = Workload::parse("mp3:AB").unwrap();
        let plain = workload.run(&config, 7, Attachments::default()).unwrap();
        let cohort = workload
            .run(
                &config,
                7,
                Attachments {
                    shared: Some(&shared),
                    ..Attachments::default()
                },
            )
            .unwrap();
        assert_eq!(plain.to_json().dump(), cohort.to_json().dump());

        // Neither a sink nor a monitor may perturb the simulation.
        let assert_config = trace::AssertionConfig::paper();
        let mut monitor = trace::AssertionMonitor::new(&assert_config).unwrap();
        let mut sink = trace::RingSink::new(1 << 20);
        let observed = workload
            .run(
                &config,
                7,
                Attachments {
                    shared: Some(&shared),
                    sink: Some(&mut sink),
                    monitor: Some(&mut monitor),
                },
            )
            .unwrap();
        let assertions = observed.assertions.expect("monitor attached");
        let mut stripped = observed.clone();
        stripped.assertions = None;
        assert_eq!(plain.to_json().dump(), stripped.to_json().dump());

        // Monitor-only (no sink) takes the same traced instantiation and
        // reaches the same verdict.
        let mut solo = trace::AssertionMonitor::new(&assert_config).unwrap();
        let monitored = workload
            .run(
                &config,
                7,
                Attachments {
                    monitor: Some(&mut solo),
                    ..Attachments::default()
                },
            )
            .unwrap();
        assert_eq!(
            monitored.assertions.unwrap().to_json().dump(),
            assertions.to_json().dump()
        );

        // Offline replay of the recorded trace agrees bit for bit.
        let offline = trace::AssertionMonitor::check(&assert_config, &sink.events()).unwrap();
        assert_eq!(sink.dropped(), 0, "ring must hold the full trace");
        assert_eq!(offline.to_json().dump(), assertions.to_json().dump());
        assert!(assertions.delay.unwrap().checked > 1000);
    }

    #[test]
    fn ideal_beats_max_on_mp3_sequence() {
        let max = run(
            "mp3:AF",
            &cfg(GovernorKind::MaxPerformance, DpmKind::None),
            12,
        );
        let ideal = run("mp3:AF", &cfg(GovernorKind::Ideal, DpmKind::None), 12);
        assert!(ideal.total_energy_j() < max.total_energy_j());
    }

    #[test]
    fn session_with_both_beats_either_alone() {
        let standby = DpmKind::BreakEven;
        let neither = run(
            "session",
            &cfg(GovernorKind::MaxPerformance, DpmKind::None),
            13,
        );
        let dvs_only = run("session", &cfg(GovernorKind::Ideal, DpmKind::None), 13);
        let dpm_only = run(
            "session",
            &cfg(GovernorKind::MaxPerformance, standby.clone()),
            13,
        );
        let both = run("session", &cfg(GovernorKind::Ideal, standby), 13);
        assert!(dvs_only.total_energy_j() < neither.total_energy_j());
        assert!(dpm_only.total_energy_j() < neither.total_energy_j());
        assert!(both.total_energy_j() < dvs_only.total_energy_j());
        assert!(both.total_energy_j() < dpm_only.total_energy_j());
    }
}
