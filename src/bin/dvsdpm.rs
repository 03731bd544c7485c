//! `dvsdpm` — command-line front end to the DVS+DPM reproduction.
//!
//! Run any paper scenario without writing Rust:
//!
//! ```text
//! dvsdpm run --workload mp3:ACEFBD --governor change-point --dpm tismdp --seed 42
//! dvsdpm run --workload mpeg:football --governor ideal --dpm none --json report.json
//! dvsdpm run --workload session --governor max --dpm renewal
//! dvsdpm run --workload mp3:A --trace out.jsonl --trace-filter freq,sleep
//! dvsdpm fleet --spec fleet.json --jobs 8 --json report.json
//! dvsdpm list
//! ```
//!
//! `list` prints the available workloads, governors and DPM policies.
//! `--trace <path>` records every structured simulator event as JSONL;
//! `--trace-filter <kinds>` restricts it to a comma-separated list of
//! event kinds. Inspect the result with the companion `tracecat` tool.
//! `--assert` attaches the streaming assertion monitor (paper-default
//! invariants; `--assert-config <path>` loads a JSON `assertions` block
//! instead) — the verdict lands in the report's `assertions` object,
//! and works with or without `--trace`.
//!
//! `fleet` runs a whole population of devices from a JSON spec (see
//! `fleet::FleetSpec`) over the deterministic parallel engine and
//! prints/writes the aggregate `FleetReport`. The report bytes are
//! identical at any `--jobs` count.

use faults::FaultPreset;
use fleet::FleetSpec;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Attachments, Workload};
use powermgr::SimReport;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{FilteredSink, JsonlSink, KindSet, TraceSink};

/// Parsed `run` command-line request.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Workload,
    governor: GovernorKind,
    dpm: DpmKind,
    seed: u64,
    faults: FaultPreset,
    json: Option<String>,
    /// Worker threads for parallel sections (threshold calibration);
    /// `None` = machine default. Never affects results, only wall-clock:
    /// the parallel engine is bit-deterministic at any thread count.
    jobs: Option<usize>,
    /// Write a structured JSONL event trace to this path.
    trace: Option<String>,
    /// Restrict the trace to these event kinds (requires `--trace`).
    trace_filter: Option<KindSet>,
    /// Attach a streaming assertion monitor with this invariant set.
    assertions: Option<trace::AssertionConfig>,
}

/// Parsed `fleet` command-line request.
#[derive(Debug, Clone, PartialEq)]
struct FleetArgs {
    /// Path to the JSON fleet spec.
    spec: String,
    /// Worker threads; `None` = machine default. Results are identical
    /// at any value, only wall-clock changes.
    jobs: Option<usize>,
    /// Write the aggregate `FleetReport` JSON to this path.
    json: Option<String>,
    /// Write per-device + fleet JSONL traces under this directory.
    trace_dir: Option<String>,
    /// Write resume checkpoints under this directory.
    checkpoint: Option<String>,
    /// Batches between checkpoints (default: engine's).
    checkpoint_every: Option<usize>,
    /// Resume from the checkpoint in this directory.
    resume: Option<String>,
    /// Devices per parallel wave (default: engine's).
    batch: Option<usize>,
}

/// How a fleet run ended, mapped onto the process exit code: 0 clean,
/// 2 partial (some devices failed but the report covers the
/// survivors), 1 fatal.
#[derive(Debug)]
enum FleetOutcome {
    Clean,
    Partial,
}

/// Parses `--jobs`' value: a positive worker-thread count.
fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .ok_or_else(|| format!("--jobs expects a positive integer, got `{v}`"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut governor = GovernorKind::change_point();
    let mut dpm = DpmKind::None;
    let mut seed = 42u64;
    let mut faults = FaultPreset::Off;
    let mut json = None;
    let mut jobs = None;
    let mut trace_path = None;
    let mut trace_filter = None;
    let mut assert_default = false;
    let mut assert_config: Option<trace::AssertionConfig> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value("--workload")?)?),
            "--governor" => governor = GovernorKind::parse(&value("--governor")?)?,
            "--dpm" => dpm = DpmKind::parse(&value("--dpm")?)?,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "invalid seed".to_owned())?;
            }
            "--faults" => faults = FaultPreset::parse(&value("--faults")?)?,
            "--json" => json = Some(value("--json")?),
            "--jobs" => jobs = Some(parse_jobs(&value("--jobs")?)?),
            "--trace" => trace_path = Some(value("--trace")?),
            "--trace-filter" => trace_filter = Some(KindSet::parse(&value("--trace-filter")?)?),
            "--assert" => assert_default = true,
            "--assert-config" => {
                let path = value("--assert-config")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read assertion config {path}: {e}"))?;
                let json = simcore::json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                assert_config = Some(
                    trace::AssertionConfig::from_json(&json).map_err(|e| format!("{path}: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if trace_filter.is_some() && trace_path.is_none() {
        return Err("--trace-filter requires --trace".to_owned());
    }
    // `--assert-config` implies `--assert`; bare `--assert` means the
    // paper-default invariant set.
    let assertions = match (assert_config, assert_default) {
        (Some(cfg), _) => Some(cfg),
        (None, true) => Some(trace::AssertionConfig::paper()),
        (None, false) => None,
    };
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        governor,
        dpm,
        seed,
        faults,
        json,
        jobs,
        trace: trace_path,
        trace_filter,
        assertions,
    })
}

fn parse_fleet(args: &[String]) -> Result<FleetArgs, String> {
    let mut spec = None;
    let mut jobs = None;
    let mut json = None;
    let mut trace_dir = None;
    let mut checkpoint = None;
    let mut checkpoint_every = None;
    let mut resume = None;
    let mut batch = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--spec" => spec = Some(value("--spec")?),
            "--jobs" => jobs = Some(parse_jobs(&value("--jobs")?)?),
            "--json" => json = Some(value("--json")?),
            "--trace-dir" => trace_dir = Some(value("--trace-dir")?),
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
            "--checkpoint-every" => {
                let v = value("--checkpoint-every")?;
                checkpoint_every =
                    Some(v.parse().ok().filter(|&n: &usize| n > 0).ok_or_else(|| {
                        format!("--checkpoint-every expects a positive batch count, got `{v}`")
                    })?);
            }
            "--resume" => resume = Some(value("--resume")?),
            "--batch" => {
                let v = value("--batch")?;
                batch = Some(v.parse().ok().filter(|&n: &usize| n > 0).ok_or_else(|| {
                    format!("--batch expects a positive device count, got `{v}`")
                })?);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if checkpoint_every.is_some() && checkpoint.is_none() {
        return Err("--checkpoint-every requires --checkpoint".to_owned());
    }
    Ok(FleetArgs {
        spec: spec.ok_or("missing --spec (path to a fleet spec JSON file)")?,
        jobs,
        json,
        trace_dir,
        checkpoint,
        checkpoint_every,
        resume,
        batch,
    })
}

fn execute(run: &RunArgs) -> Result<SimReport, String> {
    if let Some(jobs) = run.jobs {
        simcore::par::set_default_jobs(jobs);
    }
    let config = SystemConfig::with_faults(
        run.governor.clone(),
        run.dpm.clone(),
        run.faults.spec(run.seed),
    );
    // A monitor makes the report grow an `assertions` verdict, with or
    // without a trace file.
    let mut monitor = match &run.assertions {
        None => None,
        Some(cfg) => Some(
            trace::AssertionMonitor::new(cfg)
                .map_err(|e| format!("invalid assertion config: {e}"))?,
        ),
    };
    let mut sink: Option<Box<dyn TraceSink>> = match &run.trace {
        None => None,
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
            let jsonl = JsonlSink::new(file);
            Some(match run.trace_filter {
                Some(keep) => Box::new(FilteredSink::new(jsonl, keep)),
                None => Box::new(jsonl),
            })
        }
    };
    let report = run.workload.run(
        &config,
        run.seed,
        Attachments {
            shared: None,
            sink: sink.as_mut().map(|s| s.as_mut() as &mut dyn TraceSink),
            monitor: monitor.as_mut(),
        },
    );
    if let (Some(sink), Some(path)) = (sink.as_mut(), &run.trace) {
        sink.finish()
            .map_err(|e| format!("trace write to {path} failed: {e}"))?;
    }
    report.map_err(|e| e.to_string())
}

/// Runs the `fleet` subcommand: load + run the spec, print the report
/// and a threshold-cache summary, optionally write the JSON document.
/// Reports whether any device failed so `main` can exit 2 for partial
/// reports.
fn execute_fleet(args: &FleetArgs) -> Result<FleetOutcome, String> {
    if let Some(jobs) = args.jobs {
        simcore::par::set_default_jobs(jobs);
    }
    let text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read spec file {}: {e}", args.spec))?;
    let spec = FleetSpec::parse(&text).map_err(|e| e.to_string())?;

    let opts = fleet::RunOptions {
        trace_dir: args.trace_dir.as_deref().map(PathBuf::from),
        checkpoint_dir: args.checkpoint.as_deref().map(PathBuf::from),
        checkpoint_every: args.checkpoint_every.unwrap_or(0),
        resume_dir: args.resume.as_deref().map(PathBuf::from),
        batch: args.batch.unwrap_or(0),
    };
    let cache_before = detect::cache::cache_stats_detailed();
    let report =
        fleet::run_fleet_opts(&spec, simcore::par::Jobs::Auto, &opts).map_err(|e| e.to_string())?;
    let cache = detect::cache::cache_stats_detailed().since(&cache_before);

    println!("{report}");
    // Diagnostics only — deliberately not part of the JSON report: the
    // cache counters are process-global, so folding them in would make
    // the report depend on what else ran in this process.
    println!(
        "threshold cache: {} hits / {} misses (hit ratio {:.3})",
        cache.hits,
        cache.misses,
        cache.hit_ratio()
    );
    if let Some(dir) = &args.trace_dir {
        println!("[traces written under {dir}]");
    }
    if let Some(dir) = &args.checkpoint {
        println!("[checkpoint written under {dir}]");
    }
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("[json written to {path}]");
    }
    Ok(if report.partial {
        FleetOutcome::Partial
    } else {
        FleetOutcome::Clean
    })
}

fn print_list() {
    println!("workloads:");
    println!("  mp3:<labels>      MP3 clip sequence over A-F, e.g. mp3:ACEFBD (Table 3)");
    println!("  mpeg:football     875 s MPEG video clip (Table 4)");
    println!("  mpeg:terminator2  1200 s MPEG video clip (Table 4)");
    println!("  session           mixed audio/video session with idle gaps (Table 5)");
    println!("governors: ideal | change-point | ema:<gain> | max");
    println!("dpm      : none | timeout:<secs> | break-even | adaptive | predictive");
    println!("           | renewal | tismdp");
    println!("faults   : off | wlan | decoder | all | random");
    println!("           (presets enable the degradation supervisor + 64-frame buffer)");
    println!("jobs     : --jobs <n> worker threads for threshold calibration");
    println!("           (default: all cores; results are identical for any value)");
    println!("trace    : --trace <path> structured JSONL event trace");
    println!("           --trace-filter <kinds> comma list of");
    println!("           run|mode|freq|rate|sleep|wake|drop|degrade|frame");
    println!("assert   : --assert streaming invariant monitor (paper defaults:");
    println!("           Eq. 5 delay bound, V/f oscillation rate, buffer watchdog,");
    println!("           energy-vs-frequency monotonicity);");
    println!("           --assert-config <path.json> custom invariant set");
    println!("fleet    : dvsdpm fleet --spec <path.json> [--jobs <n>] [--json <path>]");
    println!("           [--trace-dir <dir>] [--checkpoint <dir> [--checkpoint-every <b>]]");
    println!("           [--resume <dir>] [--batch <n>]; spec keys: name, devices, base_seed,");
    println!("           workloads, policies ([{{governor, dpm}}]), faults,");
    println!("           on_error (fail_fast|continue|retry:<n>), assertions (optional");
    println!("           invariant block -> per-cohort SLO rollup in the report)");
    println!("           exit codes: 0 clean, 2 partial (some devices failed), 1 fatal");
}

fn print_usage() {
    eprintln!("usage: dvsdpm run --workload <w> [--governor <g>] [--dpm <d>] [--seed <n>] [--faults <preset>] [--json <path>] [--jobs <n>] [--trace <path>] [--trace-filter <kinds>] [--assert] [--assert-config <path>]");
    eprintln!("       dvsdpm fleet --spec <path> [--jobs <n>] [--json <path>] [--trace-dir <dir>] [--checkpoint <dir>] [--checkpoint-every <b>] [--resume <dir>] [--batch <n>]");
    eprintln!("       dvsdpm list");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run) => match execute(&run) {
                Ok(report) => {
                    println!("{report}");
                    if let Some(path) = &run.json {
                        let json = simcore::json::ToJson::to_json(&report).pretty();
                        if let Err(e) = std::fs::write(path, json) {
                            eprintln!("cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("\n[json written to {path}]");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n");
                print_list();
                ExitCode::FAILURE
            }
        },
        Some("fleet") => match parse_fleet(&args[1..]) {
            Ok(fleet_args) => match execute_fleet(&fleet_args) {
                Ok(FleetOutcome::Clean) => ExitCode::SUCCESS,
                // Partial: the run finished and the report is valid for
                // the survivors, but some devices failed — distinct
                // from both success and a fatal error so scripts can
                // react without parsing the report.
                Ok(FleetOutcome::Partial) => ExitCode::from(2),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n");
                print_usage();
                ExitCode::FAILURE
            }
        },
        Some("list") => {
            print_list();
            ExitCode::SUCCESS
        }
        _ => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm::policy::SleepState;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_full_run() {
        let run = parse_run(&strs(&[
            "--workload",
            "mp3:ACE",
            "--governor",
            "ideal",
            "--dpm",
            "tismdp",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(run.workload, Workload::Mp3("ACE".to_owned()));
        assert_eq!(run.governor.label(), "ideal");
        assert_eq!(run.dpm.label(), "tismdp");
        assert_eq!(run.seed, 7);
        assert_eq!(run.faults, FaultPreset::Off);
        assert!(run.json.is_none());
        assert!(run.jobs.is_none());
    }

    #[test]
    fn parses_jobs_flag() {
        let run = parse_run(&strs(&["--workload", "session", "--jobs", "4"])).unwrap();
        assert_eq!(run.jobs, Some(4));
        assert!(parse_run(&strs(&["--workload", "session", "--jobs", "0"])).is_err());
        assert!(parse_run(&strs(&["--workload", "session", "--jobs", "many"])).is_err());
        assert!(parse_run(&strs(&["--workload", "session", "--jobs"])).is_err());
    }

    #[test]
    fn parses_fault_presets() {
        assert_eq!(FaultPreset::parse("off").unwrap(), FaultPreset::Off);
        assert_eq!(FaultPreset::parse("wlan").unwrap(), FaultPreset::Wlan);
        assert_eq!(FaultPreset::parse("decoder").unwrap(), FaultPreset::Decoder);
        assert_eq!(FaultPreset::parse("all").unwrap(), FaultPreset::All);
        assert_eq!(FaultPreset::parse("random").unwrap(), FaultPreset::Random);
        assert!(FaultPreset::parse("gremlins").is_err());
        assert!(FaultPreset::Off.spec(1).is_none());
        let all = FaultPreset::All.spec(1).expect("spec");
        assert!(all.burst_loss.is_some() && all.overrun.is_some());
        // The random preset is a pure function of the seed.
        assert_eq!(FaultPreset::Random.spec(9), FaultPreset::Random.spec(9));
    }

    #[test]
    fn faulted_execution_reports_robustness() {
        let run = RunArgs {
            workload: Workload::Mp3("A".to_owned()),
            governor: GovernorKind::MaxPerformance,
            dpm: DpmKind::None,
            seed: 2,
            faults: FaultPreset::Wlan,
            json: None,
            jobs: None,
            trace: None,
            trace_filter: None,
            assertions: None,
        };
        let report = execute(&run).unwrap();
        assert!(!report.robustness.is_quiet());
        assert!(report.robustness.arrivals_dropped > 0);
    }

    #[test]
    fn defaults_apply() {
        let run = parse_run(&strs(&["--workload", "session"])).unwrap();
        assert_eq!(run.workload, Workload::Session);
        assert_eq!(run.governor.label(), "change-point");
        assert_eq!(run.dpm.label(), "none");
        assert_eq!(run.seed, 42);
    }

    #[test]
    fn parses_parameterized_forms() {
        assert_eq!(
            GovernorKind::parse("ema:0.3").unwrap().label(),
            "exp-average"
        );
        assert_eq!(
            DpmKind::parse("timeout:2.5").unwrap().label(),
            "fixed-timeout"
        );
        assert_eq!(
            Workload::parse("mpeg:terminator2").unwrap(),
            Workload::Mpeg("terminator2".to_owned())
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_run(&strs(&[])).is_err());
        assert!(parse_run(&strs(&["--workload"])).is_err());
        assert!(parse_run(&strs(&["--workload", "vhs:ghostbusters"])).is_err());
        assert!(GovernorKind::parse("turbo").is_err());
        assert!(GovernorKind::parse("ema:fast").is_err());
        assert!(DpmKind::parse("sleepy").is_err());
        assert!(DpmKind::parse("timeout:soon").is_err());
        assert!(Workload::parse("mp3:").is_err());
        assert!(Workload::parse("mpeg:matrix").is_err());
        assert!(parse_run(&strs(&["--workload", "session", "--frobnicate", "1"])).is_err());
    }

    #[test]
    fn parses_fleet_flags() {
        let args = parse_fleet(&strs(&[
            "--spec",
            "fleet.json",
            "--jobs",
            "8",
            "--json",
            "out.json",
            "--trace-dir",
            "traces",
        ]))
        .unwrap();
        assert_eq!(args.spec, "fleet.json");
        assert_eq!(args.jobs, Some(8));
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.trace_dir.as_deref(), Some("traces"));

        let minimal = parse_fleet(&strs(&["--spec", "f.json"])).unwrap();
        assert_eq!(minimal.jobs, None);
        assert_eq!(minimal.json, None);
        assert_eq!(minimal.trace_dir, None);
        assert_eq!(minimal.checkpoint, None);
        assert_eq!(minimal.checkpoint_every, None);
        assert_eq!(minimal.resume, None);
        assert_eq!(minimal.batch, None);

        let batched = parse_fleet(&strs(&["--spec", "f.json", "--batch", "64"])).unwrap();
        assert_eq!(batched.batch, Some(64));
        assert!(parse_fleet(&strs(&["--spec", "f.json", "--batch", "0"])).is_err());

        let err = parse_fleet(&strs(&[])).unwrap_err();
        assert!(err.contains("missing --spec"), "{err}");
        assert!(parse_fleet(&strs(&["--spec", "f.json", "--jobs", "0"])).is_err());
        assert!(parse_fleet(&strs(&["--spec", "f.json", "--mystery"])).is_err());
    }

    #[test]
    fn parses_checkpoint_and_resume_flags() {
        let args = parse_fleet(&strs(&[
            "--spec",
            "f.json",
            "--checkpoint",
            "ckpt",
            "--checkpoint-every",
            "2",
            "--resume",
            "ckpt",
        ]))
        .unwrap();
        assert_eq!(args.checkpoint.as_deref(), Some("ckpt"));
        assert_eq!(args.checkpoint_every, Some(2));
        assert_eq!(args.resume.as_deref(), Some("ckpt"));

        // A cadence without a destination is meaningless.
        let err = parse_fleet(&strs(&["--spec", "f.json", "--checkpoint-every", "2"])).unwrap_err();
        assert!(err.contains("requires --checkpoint"), "{err}");
        assert!(parse_fleet(&strs(&[
            "--spec",
            "f.json",
            "--checkpoint",
            "c",
            "--checkpoint-every",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn fleet_execution_reports_missing_spec_file() {
        let args = FleetArgs {
            spec: "/nonexistent/fleet-spec.json".to_owned(),
            jobs: None,
            json: None,
            trace_dir: None,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
            batch: None,
        };
        let err = execute_fleet(&args).unwrap_err();
        assert!(err.contains("cannot read spec file"), "{err}");
    }

    #[test]
    fn executes_a_small_run() {
        let run = RunArgs {
            workload: Workload::Mp3("A".to_owned()),
            governor: GovernorKind::MaxPerformance,
            dpm: DpmKind::None,
            seed: 1,
            faults: FaultPreset::Off,
            json: None,
            jobs: None,
            trace: None,
            trace_filter: None,
            assertions: None,
        };
        let report = execute(&run).unwrap();
        assert!(report.frames_completed > 1000);
    }

    #[test]
    fn parses_trace_flags() {
        let run = parse_run(&strs(&[
            "--workload",
            "session",
            "--trace",
            "out.jsonl",
            "--trace-filter",
            "freq,sleep",
        ]))
        .unwrap();
        assert_eq!(run.trace.as_deref(), Some("out.jsonl"));
        let keep = run.trace_filter.unwrap();
        assert!(keep.contains(trace::EventKind::Freq));
        assert!(keep.contains(trace::EventKind::Sleep));
        assert!(!keep.contains(trace::EventKind::Frame));
        // A filter without a destination is meaningless.
        assert!(parse_run(&strs(&["--workload", "session", "--trace-filter", "freq"])).is_err());
        assert!(parse_run(&strs(&[
            "--workload",
            "session",
            "--trace",
            "t.jsonl",
            "--trace-filter",
            "freq,unicorns"
        ]))
        .is_err());
    }

    #[test]
    fn parses_assert_flags() {
        // Bare --assert selects the paper-default invariant set.
        let run = parse_run(&strs(&["--workload", "session", "--assert"])).unwrap();
        assert_eq!(run.assertions, Some(trace::AssertionConfig::paper()));
        // No flag, no monitor.
        let run = parse_run(&strs(&["--workload", "session"])).unwrap();
        assert_eq!(run.assertions, None);
        // --assert-config loads a custom block (and implies --assert).
        let path =
            std::env::temp_dir().join(format!("dvsdpm-assert-config-{}.json", std::process::id()));
        std::fs::write(&path, r#"{"occupancy": {"max": 8}}"#).unwrap();
        let run = parse_run(&strs(&[
            "--workload",
            "session",
            "--assert-config",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let cfg = run.assertions.expect("config implies assert");
        assert_eq!(cfg.occupancy.map(|o| o.max_occupancy), Some(8));
        assert!(cfg.delay.is_none());
        // A bad config file is rejected at parse time with its path.
        std::fs::write(&path, r#"{"delay": {"bound_s": -1.0}}"#).unwrap();
        let err = parse_run(&strs(&[
            "--workload",
            "session",
            "--assert-config",
            path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("bound_s"), "{err}");
        std::fs::remove_file(&path).ok();
        assert!(
            parse_run(&strs(&["--workload", "session", "--assert-config"])).is_err(),
            "flag without a value"
        );
    }

    #[test]
    fn monitored_execution_attaches_a_verdict_without_a_trace() {
        let run = RunArgs {
            workload: Workload::Mp3("A".to_owned()),
            governor: GovernorKind::MaxPerformance,
            dpm: DpmKind::None,
            seed: 1,
            faults: FaultPreset::Off,
            json: None,
            jobs: None,
            trace: None,
            trace_filter: None,
            assertions: Some(trace::AssertionConfig::paper()),
        };
        let report = execute(&run).unwrap();
        let verdict = report.assertions.expect("monitor ran");
        let delay = verdict.delay.expect("delay invariant enabled");
        assert_eq!(delay.checked, report.frames_completed);
        // The unmonitored run is otherwise bit-identical: strip the
        // verdict and compare the full JSON documents.
        let mut plain_args = run.clone();
        plain_args.assertions = None;
        let plain = execute(&plain_args).unwrap();
        let mut stripped = report.clone();
        stripped.assertions = None;
        use simcore::json::ToJson;
        assert_eq!(stripped.to_json().pretty(), plain.to_json().pretty());
    }

    #[test]
    fn traced_execution_writes_replayable_jsonl() {
        let path = std::env::temp_dir().join("dvsdpm-cli-trace-test.jsonl");
        let run = RunArgs {
            workload: Workload::Mp3("A".to_owned()),
            governor: GovernorKind::Ideal,
            dpm: DpmKind::BreakEven {
                state: SleepState::Standby,
            },
            seed: 3,
            faults: FaultPreset::Off,
            json: None,
            jobs: None,
            trace: Some(path.to_string_lossy().into_owned()),
            trace_filter: None,
            assertions: None,
        };
        let report = execute(&run).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let events = trace::parse_jsonl(&text).unwrap();
        let summary = trace::replay(&events);
        assert_eq!(summary.frames_completed, report.frames_completed);
        assert_eq!(summary.freq_switches, report.freq_switches);
        assert_eq!(summary.sleeps, report.sleeps);
        assert_eq!(
            summary.duration_secs().to_bits(),
            report.duration_secs.to_bits()
        );
    }
}
