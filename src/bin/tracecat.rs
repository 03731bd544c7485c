//! `tracecat` — inspect and replay `dvsdpm` JSONL event traces.
//!
//! ```text
//! tracecat summary trace.jsonl
//! tracecat filter --kinds freq,sleep trace.jsonl
//! tracecat freq-table trace.jsonl
//! tracecat replay [--json] [--check report.json] trace.jsonl
//! tracecat assert [--json] [--config assertions.json] trace.jsonl
//! ```
//!
//! * `summary` — event counts by kind and the covered time range.
//! * `filter` — re-emit only the listed event kinds as JSONL on stdout.
//! * `freq-table` — the paper's Figure 6 view reconstructed from events
//!   alone: every frequency transition with its timestamp, plus the
//!   per-frequency decode residency.
//! * `replay` — integrate the events into run aggregates
//!   ([`trace::ReplaySummary`]); with `--check`, compare them against a
//!   `SimReport` JSON written by `dvsdpm run --json` and exit non-zero
//!   on any mismatch. Counters must match exactly, and both residency
//!   maps must hold the same buckets with bit-equal times — the
//!   simulator and the replay share the same integer-nanosecond
//!   accumulation.
//! * `assert` — replay the trace through the same
//!   [`trace::AssertionMonitor`] the simulator attaches online (paper
//!   defaults, or a `--config` JSON `assertions` block) and print the
//!   verdict. Exit 0 when every invariant held, 3 on violations, 1 on
//!   any error.
//!
//! Both `replay` and `assert` *reject* out-of-time-order traces with an
//! error naming the first offending pair: a disordered trace is treated
//! as corrupt, never silently re-sorted.

use simcore::json::{Json, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufWriter, ErrorKind, Write};
use std::process::ExitCode;
use trace::{
    parse_jsonl, replay, AssertionConfig, AssertionMonitor, Event, KindSet, ReplaySummary,
};

/// Exit code for a trace that parses and replays cleanly but violates
/// at least one assertion (distinct from `1`, any hard error).
const EXIT_VIOLATIONS: u8 = 3;

fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Checks a write to stdout. A reader that closes early
/// (`tracecat … | head`) ends the output cleanly rather than as an
/// error, and the command still exits with its own verdict.
fn written(result: io::Result<()>) -> Result<(), String> {
    match result {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write to stdout: {e}")),
        _ => Ok(()),
    }
}

fn cmd_summary(events: &[Event], out: &mut impl Write) -> io::Result<()> {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in events {
        *by_kind.entry(ev.name()).or_insert(0) += 1;
    }
    writeln!(out, "events: {}", events.len())?;
    for (name, count) in &by_kind {
        writeln!(out, "  {name:<12} {count}")?;
    }
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        writeln!(
            out,
            "span  : {:.6} s .. {:.6} s",
            first.at().as_secs_f64(),
            last.at().as_secs_f64()
        )?;
    }
    let s = replay(events);
    for (mode, secs) in s.mode_secs() {
        writeln!(out, "mode  : {:<8} {secs:.6} s", mode.label())?;
    }
    Ok(())
}

/// Writes the kept events as JSONL.
fn cmd_filter(events: &[Event], keep: KindSet, out: &mut impl Write) -> io::Result<()> {
    let mut line = Vec::new();
    events
        .iter()
        .filter(|ev| keep.contains(ev.kind()))
        .try_for_each(|ev| {
            line.clear();
            ev.write_json(&mut line);
            line.push(b'\n');
            out.write_all(&line)
        })
}

/// Writes the Figure 6 view: the decode frequency each time it changes,
/// reconstructed purely from `decode_start` and `freq_switch` events.
fn cmd_freq_table(events: &[Event], out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{:>12}  {:>10}", "t_s", "freq_mhz")?;
    let mut current: Option<u32> = None;
    for ev in events {
        let (at, tenths) = match *ev {
            Event::DecodeStart {
                at,
                freq_tenths_mhz,
            } => (at, freq_tenths_mhz),
            Event::FreqSwitch {
                at, to_tenths_mhz, ..
            } => (at, to_tenths_mhz),
            _ => continue,
        };
        if current != Some(tenths) {
            writeln!(
                out,
                "{:>12.6}  {:>10.1}",
                at.as_secs_f64(),
                f64::from(tenths) / 10.0
            )?;
            current = Some(tenths);
        }
    }
    let s = replay(events);
    writeln!(out)?;
    writeln!(out, "{:>10}  {:>14}", "freq_mhz", "decode_secs")?;
    for (tenths, secs) in s.freq_secs() {
        writeln!(out, "{:>10.1}  {secs:>14.6}", f64::from(tenths) / 10.0)?;
    }
    Ok(())
}

/// Compares a replayed summary against a `SimReport` JSON object and
/// returns a human-readable line per mismatch (empty = consistent).
fn check_against_report(summary: &ReplaySummary, report: &Json) -> Vec<String> {
    let mut mismatches = Vec::new();
    // `name` may be a dotted path into a nested object. Of the
    // robustness counters only buffer drops and degraded entries have
    // trace events: a frame lost on the link never reaches the device.
    let counter = |name: &str| {
        name.split('.')
            .try_fold(report, |json, key| json.get(key))
            .and_then(Json::as_u64)
    };
    let pairs: [(&str, u64); 7] = [
        ("frames_completed", summary.frames_completed),
        ("freq_switches", summary.freq_switches),
        ("rate_changes", summary.rate_changes),
        ("sleeps", summary.sleeps),
        ("wakes", summary.wakes),
        ("robustness.frames_dropped", summary.buffer_drops),
        ("robustness.degraded_entries", summary.degraded_entries),
    ];
    for (name, replayed) in pairs {
        match counter(name) {
            Some(reported) if reported == replayed => {}
            got => mismatches.push(format!("{name}: trace {replayed}, report {got:?}")),
        }
    }
    let duration = report.get("duration_secs").and_then(Json::as_f64);
    if duration != Some(summary.duration_secs()) {
        mismatches.push(format!(
            "duration_secs: trace {}, report {duration:?}",
            summary.duration_secs()
        ));
    }
    let mean = report
        .get("frame_delays")
        .and_then(|d| d.get("mean"))
        .and_then(Json::as_f64);
    if mean != Some(summary.delays.mean()) {
        mismatches.push(format!(
            "mean frame delay: trace {}, report {mean:?}",
            summary.delays.mean()
        ));
    }
    let modes: BTreeMap<String, f64> = summary
        .mode_secs()
        .into_iter()
        .map(|(m, secs)| (m.label().to_owned(), secs))
        .collect();
    check_residency(report, "mode_secs", &modes, &mut mismatches);
    let freqs: BTreeMap<String, f64> = summary
        .freq_secs()
        .into_iter()
        .map(|(k, secs)| (k.to_string(), secs))
        .collect();
    check_residency(report, "freq_residency", &freqs, &mut mismatches);
    mismatches
}

/// Compares the report's residency map `name` with the replayed
/// buckets in both directions: a missing or non-object map, and a
/// bucket present on only one side, are mismatches too.
fn check_residency(
    report: &Json,
    name: &str,
    replayed: &BTreeMap<String, f64>,
    mismatches: &mut Vec<String>,
) {
    let Some(Json::Obj(entries)) = report.get(name) else {
        mismatches.push(format!("{name}: missing from the report or not an object"));
        return;
    };
    let reported: BTreeMap<&str, Option<f64>> = entries
        .iter()
        .map(|(key, value)| (key.as_str(), value.as_f64()))
        .collect();
    let keys: BTreeSet<&str> = reported
        .keys()
        .copied()
        .chain(replayed.keys().map(String::as_str))
        .collect();
    for key in keys {
        let traced = replayed.get(key).copied();
        let got = reported.get(key).copied().flatten();
        if traced != got {
            mismatches.push(format!("{name}[{key}]: trace {traced:?}, report {got:?}"));
        }
    }
}

fn write_replay_summary(
    summary: &ReplaySummary,
    as_json: bool,
    out: &mut impl Write,
) -> io::Result<()> {
    if as_json {
        return writeln!(out, "{}", summary.to_json().pretty());
    }
    writeln!(
        out,
        "frames {} | switches {} | rate changes {} | sleeps {} | wakes {} | {:.3} s",
        summary.frames_completed,
        summary.freq_switches,
        summary.rate_changes,
        summary.sleeps,
        summary.wakes,
        summary.duration_secs()
    )?;
    for (mode, secs) in summary.mode_secs() {
        writeln!(out, "  {:<8} {secs:.6} s", mode.label())?;
    }
    Ok(())
}

fn cmd_replay(
    events: &[Event],
    as_json: bool,
    check: Option<&str>,
    out: &mut impl Write,
) -> Result<(), String> {
    trace::ensure_time_ordered(events)?;
    let summary = replay(events);
    written(write_replay_summary(&summary, as_json, out))?;
    if let Some(path) = check {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mismatches = check_against_report(&summary, &report);
        if mismatches.is_empty() {
            written(writeln!(out, "[check] trace is consistent with {path}"))?;
        } else {
            // The summary goes out before the mismatches that follow it.
            written(out.flush())?;
            for m in &mismatches {
                eprintln!("[check] MISMATCH {m}");
            }
            return Err(format!(
                "trace disagrees with {path} on {} aggregate(s)",
                mismatches.len()
            ));
        }
    }
    Ok(())
}

/// Replays the trace through the shared invariant definitions and
/// writes the verdict. Returns the process exit code: `0` clean,
/// [`EXIT_VIOLATIONS`] when any invariant tripped.
fn cmd_assert(
    events: &[Event],
    config: &AssertionConfig,
    as_json: bool,
    out: &mut impl Write,
) -> Result<u8, String> {
    let report = AssertionMonitor::check(config, events)?;
    written(if as_json {
        writeln!(out, "{}", report.to_json().pretty())
    } else {
        writeln!(out, "{report}")
    })?;
    Ok(if report.is_clean() {
        0
    } else {
        EXIT_VIOLATIONS
    })
}

/// Loads an assertion config from a JSON file holding the same
/// `assertions` block a fleet spec embeds.
fn load_assert_config(path: &str) -> Result<AssertionConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    AssertionConfig::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> &'static str {
    "usage: tracecat summary <trace.jsonl>\n       \
     tracecat filter --kinds <k1,k2,...> <trace.jsonl>\n       \
     tracecat freq-table <trace.jsonl>\n       \
     tracecat replay [--json] [--check <report.json>] <trace.jsonl>\n       \
     tracecat assert [--json] [--config <assertions.json>] <trace.jsonl>"
}

/// Parses the `[--json] [--<flag> <value>] <path>` tail shared by
/// `replay` and `assert`; returns (json, flag value, trace path).
fn parse_tail(args: &[String], flag: &str) -> Result<(bool, Option<String>, String), String> {
    let mut as_json = false;
    let mut value = None;
    let mut path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => as_json = true,
            a if a == flag => {
                value = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{flag} needs a path"))?,
                );
            }
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    Ok((as_json, value, path.ok_or_else(|| usage().to_owned())?))
}

/// Runs one subcommand, writing its output to stdout through one
/// buffered lock.
fn run(args: &[String]) -> Result<u8, String> {
    let mut out = BufWriter::new(io::stdout().lock());
    let code = match args.first().map(String::as_str) {
        Some("summary") => {
            let [path] = &args[1..] else {
                return Err(usage().to_owned());
            };
            written(cmd_summary(&load(path)?, &mut out))?;
            0
        }
        Some("filter") => match &args[1..] {
            [kinds_flag, kinds, path] if kinds_flag == "--kinds" => {
                written(cmd_filter(&load(path)?, KindSet::parse(kinds)?, &mut out))?;
                0
            }
            _ => return Err(usage().to_owned()),
        },
        Some("freq-table") => {
            let [path] = &args[1..] else {
                return Err(usage().to_owned());
            };
            written(cmd_freq_table(&load(path)?, &mut out))?;
            0
        }
        Some("replay") => {
            let (as_json, check, path) = parse_tail(&args[1..], "--check")?;
            cmd_replay(&load(&path)?, as_json, check.as_deref(), &mut out)?;
            0
        }
        Some("assert") => {
            let (as_json, config_path, path) = parse_tail(&args[1..], "--config")?;
            let config = match config_path {
                Some(p) => load_assert_config(&p)?,
                None => AssertionConfig::paper(),
            };
            cmd_assert(&load(&path)?, &config, as_json, &mut out)?
        }
        _ => return Err(usage().to_owned()),
    };
    written(out.flush())?;
    Ok(code)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};
    use trace::SleepKind;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart { at: t(0) },
            Event::IdleEnter { at: t(0) },
            Event::DecodeStart {
                at: t(1_000),
                freq_tenths_mhz: 2212,
            },
            Event::FrameDone {
                at: t(3_000),
                delay_s: 2e-6,
                freq_tenths_mhz: 2212,
            },
            Event::IdleEnter { at: t(3_000) },
            Event::SleepEnter {
                at: t(5_000),
                state: SleepKind::Standby,
            },
            Event::WakeStart {
                at: t(8_000),
                latency: SimDuration::from_nanos(500),
            },
            Event::IdleEnter { at: t(8_500) },
            Event::RunEnd { at: t(10_000) },
        ]
    }

    /// A minimal SimReport-shaped JSON carrying exactly the replayed
    /// aggregates of `summary`.
    fn consistent_report(summary: &ReplaySummary) -> Json {
        Json::obj(vec![
            ("frames_completed".into(), 1u64.to_json()),
            ("freq_switches".into(), 0u64.to_json()),
            ("rate_changes".into(), 0u64.to_json()),
            ("sleeps".into(), 1u64.to_json()),
            ("wakes".into(), 1u64.to_json()),
            ("duration_secs".into(), summary.duration_secs().to_json()),
            (
                "frame_delays".into(),
                Json::obj(vec![("mean".into(), summary.delays.mean().to_json())]),
            ),
            (
                "mode_secs".into(),
                Json::obj(
                    summary
                        .mode_secs()
                        .into_iter()
                        .map(|(m, s)| (m.label().to_owned(), s.to_json()))
                        .collect(),
                ),
            ),
            (
                "freq_residency".into(),
                Json::obj(
                    summary
                        .freq_secs()
                        .into_iter()
                        .map(|(k, s)| (k.to_string(), s.to_json()))
                        .collect(),
                ),
            ),
            (
                "robustness".into(),
                Json::obj(vec![
                    ("frames_dropped".into(), summary.buffer_drops.to_json()),
                    (
                        "degraded_entries".into(),
                        summary.degraded_entries.to_json(),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn check_accepts_a_consistent_report() {
        let summary = replay(&sample_events());
        assert_eq!(
            check_against_report(&summary, &consistent_report(&summary)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn check_flags_missing_residency_maps() {
        let summary = replay(&sample_events());
        let Json::Obj(mut fields) = consistent_report(&summary) else {
            unreachable!()
        };
        fields.retain(|(key, _)| key != "mode_secs" && key != "freq_residency");
        let mismatches = check_against_report(&summary, &Json::Obj(fields));
        assert_eq!(
            mismatches,
            [
                "mode_secs: missing from the report or not an object",
                "freq_residency: missing from the report or not an object"
            ]
        );
    }

    #[test]
    fn check_flags_a_bucket_missing_from_the_report() {
        let summary = replay(&sample_events());
        let mut report = consistent_report(&summary);
        for name in ["mode_secs", "freq_residency"] {
            let Json::Obj(buckets) = &mut report[name] else {
                unreachable!()
            };
            buckets.remove(0);
        }
        let mismatches = check_against_report(&summary, &report);
        assert_eq!(mismatches.len(), 2, "{mismatches:?}");
        assert!(mismatches[0].starts_with("mode_secs[decoding]: trace Some("));
        assert!(mismatches[0].ends_with("report None"));
        assert!(mismatches[1].starts_with("freq_residency[2212]: trace Some("));
    }

    #[test]
    fn check_compares_robustness_counters() {
        let mut events = sample_events();
        let at = t(3_000);
        events.splice(
            4..4,
            [
                Event::BufferDrop { at, occupancy: 4 },
                Event::BufferDrop { at, occupancy: 4 },
                Event::Degraded { at, entered: true },
            ],
        );
        let summary = replay(&events);
        let mut report = consistent_report(&summary);
        assert!(check_against_report(&summary, &report).is_empty());
        report["robustness"]["frames_dropped"] = 7u64.to_json();
        report["robustness"]["degraded_entries"] = 4u64.to_json();
        let drift = [
            "robustness.frames_dropped: trace 2, report Some(7)",
            "robustness.degraded_entries: trace 1, report Some(4)",
        ];
        assert_eq!(check_against_report(&summary, &report), drift);
        // A report with no robustness object mismatches on both.
        report["robustness"] = Json::Null;
        let mismatches = check_against_report(&summary, &report);
        assert_eq!(mismatches.len(), 2, "{mismatches:?}");
        assert!(mismatches.iter().all(|m| m.ends_with("report None")));
    }

    #[test]
    fn check_flags_counter_and_residency_drift() {
        let summary = replay(&sample_events());
        let report = Json::obj(vec![
            ("frames_completed".into(), 2u64.to_json()),
            ("freq_switches".into(), 0u64.to_json()),
            ("rate_changes".into(), 0u64.to_json()),
            ("sleeps".into(), 1u64.to_json()),
            ("wakes".into(), 1u64.to_json()),
            ("duration_secs".into(), summary.duration_secs().to_json()),
            (
                "mode_secs".into(),
                Json::obj(vec![("decoding".into(), 123.0.to_json())]),
            ),
        ]);
        let mismatches = check_against_report(&summary, &report);
        assert!(mismatches.iter().any(|m| m.contains("frames_completed")));
        assert!(mismatches.iter().any(|m| m.contains("mode_secs[decoding]")));
        // The absent frame_delays object also counts as a mismatch.
        assert!(mismatches.iter().any(|m| m.contains("mean frame delay")));
    }

    #[test]
    fn cli_shape_is_validated() {
        assert!(run(&[]).is_err());
        assert!(run(&["summarize".into()]).is_err());
        assert!(run(&["summary".into()]).is_err());
        assert!(run(&["filter".into(), "--kinds".into(), "freq".into()]).is_err());
        assert!(run(&["replay".into(), "--check".into()]).is_err());
        assert!(run(&["replay".into(), "/nonexistent/trace.jsonl".into()]).is_err());
        assert!(run(&["assert".into(), "--config".into()]).is_err());
        assert!(run(&["assert".into(), "/nonexistent/trace.jsonl".into()]).is_err());
    }

    #[test]
    fn replay_rejects_out_of_order_traces() {
        let mut events = sample_events();
        events.swap(2, 3); // frame_done now precedes its decode_start
        let mut out = Vec::new();
        let err = cmd_replay(&events, false, None, &mut out).expect_err("disordered trace");
        assert!(err.contains("out of time order"), "{err}");
        assert!(out.is_empty(), "nothing is written for a rejected trace");
        // The same trace in order replays fine.
        cmd_replay(&sample_events(), false, None, &mut out).expect("ordered trace");
        assert!(out.starts_with(b"frames 1 | "));
    }

    #[test]
    fn assert_exit_codes_separate_clean_violating_and_corrupt() {
        let config = AssertionConfig::paper();
        let out = &mut io::sink();
        // The sample trace is clean under the paper invariants.
        assert_eq!(cmd_assert(&sample_events(), &config, false, out), Ok(0));
        // An occupancy overflow trips the watchdog invariant: exit 3.
        let mut events = sample_events();
        events.insert(
            events.len() - 1,
            Event::BufferDrop {
                at: t(9_000),
                occupancy: 100,
            },
        );
        assert_eq!(cmd_assert(&events, &config, true, out), Ok(EXIT_VIOLATIONS));
        // A disordered trace is an error, not a verdict.
        events.swap(2, 3);
        let err = cmd_assert(&events, &config, false, out).expect_err("disordered");
        assert!(err.contains("out of time order"), "{err}");
    }
}
