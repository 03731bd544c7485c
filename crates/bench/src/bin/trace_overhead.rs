//! Tracing overhead guard: the observability layer must be free when
//! off and cheap when on.
//!
//! Runs the same MP3 scenario four ways — untraced, null sink, ring
//! sink, in-memory JSONL sink — timing each with a min-of-N loop, and
//!
//! * asserts all four produce byte-identical reports (tracing never
//!   perturbs the simulation),
//! * fails (exit code 1) unless the JSONL lane's bytes parse back to
//!   exactly the events the ring lane holds, and prints each lane's
//!   time per event, and
//! * fails (exit code 1) if the null-sink run is more than 10 % slower
//!   than the untraced run beyond a small absolute epsilon, so a
//!   regression on the disabled-tracing hot path fails CI.
//!
//! A fifth variant runs the ring sink with the streaming assertion
//! monitor attached (paper-default invariants) and holds it to the same
//! shape of budget against the plain ring-sink run: monitoring a traced
//! run must cost no more than 10 % + 2 ms on top of tracing alone, and
//! the report must stay byte-identical once its `assertions` verdict is
//! stripped.
//!
//! The Ideal governor is used on purpose: it involves no threshold
//! calibration, so the timed region is the pure simulation loop the
//! tracing hooks live in.

use bench::EXPERIMENT_SEED;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Attachments, Workload};
use simcore::json::ToJson;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{parse_jsonl, JsonlSink, NullSink, RingSink, TraceSink};

const ROUNDS: usize = 7;

fn config() -> SystemConfig {
    SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::BreakEven,
        ..SystemConfig::default()
    }
}

/// A run recording into `sink`.
fn traced(sink: &mut dyn TraceSink) -> Attachments<'_> {
    Attachments {
        sink: Some(sink),
        ..Attachments::default()
    }
}

/// Minimum wall time over `ROUNDS` runs of `f` — the usual estimator
/// for "how fast can this go", robust to scheduler noise — and the last
/// run's output.
fn min_time<T, F: FnMut() -> T>(mut f: F) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed());
        last = Some(r);
    }
    (best, last.expect("at least one round"))
}

fn main() -> ExitCode {
    let cfg = config();
    let seed = EXPERIMENT_SEED;
    bench::header(
        "trace-overhead",
        "tracing hot-path cost vs untraced baseline",
    );

    let workload = Workload::Mp3("AB".to_owned());
    let (t_off, r_off) = min_time(|| {
        workload
            .run(&cfg, seed, Attachments::default())
            .expect("untraced run")
    });
    let (t_null, r_null) = min_time(|| {
        let mut sink = NullSink;
        workload
            .run(&cfg, seed, traced(&mut sink))
            .expect("null-sink run")
    });
    let (t_ring, (r_ring, ring)) = min_time(|| {
        let mut sink = RingSink::new(1 << 16);
        let r = workload
            .run(&cfg, seed, traced(&mut sink))
            .expect("ring-sink run");
        (r, sink)
    });
    let (t_jsonl, (r_jsonl, jsonl)) = min_time(|| {
        let mut sink = JsonlSink::new(Vec::with_capacity(1 << 20));
        let r = workload
            .run(&cfg, seed, traced(&mut sink))
            .expect("jsonl run");
        sink.finish().expect("in-memory write");
        (r, sink.into_inner())
    });
    let (t_mon, mut r_mon) = min_time(|| {
        let mut sink = RingSink::new(1 << 16);
        let mut monitor =
            trace::AssertionMonitor::new(&trace::AssertionConfig::paper()).expect("valid config");
        let attach = Attachments {
            shared: None,
            sink: Some(&mut sink),
            monitor: Some(&mut monitor),
        };
        workload.run(&cfg, seed, attach).expect("monitored run")
    });

    assert!(
        r_mon.assertions.is_some(),
        "monitored run must carry a verdict"
    );
    r_mon.assertions = None; // the verdict is the only permitted delta
    let baseline = r_off.to_json().dump();
    for (label, r) in [
        ("null", &r_null),
        ("ring", &r_ring),
        ("jsonl", &r_jsonl),
        ("ring+mon", &r_mon),
    ] {
        assert_eq!(
            baseline,
            r.to_json().dump(),
            "{label}-sink report diverged from untraced baseline"
        );
    }

    // The JSONL lane's bytes must decode to exactly the stream the ring
    // lane kept (all of it: the ring must not have wrapped).
    let events = ring.events();
    let decoded = std::str::from_utf8(&jsonl)
        .map_err(|e| e.to_string())
        .and_then(parse_jsonl);
    if ring.dropped() != 0 || decoded.as_ref() != Ok(&events) {
        eprintln!(
            "FAIL: the JSONL lane's {} bytes do not decode to the ring lane's {} events \
             ({} dropped from the ring)",
            jsonl.len(),
            events.len(),
            ring.dropped()
        );
        if let Err(e) = decoded {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ns_per_event = |d: Duration| d.as_secs_f64() * 1e9 / events.len() as f64;
    println!(
        "{} events, {} JSONL bytes; the JSONL lane decodes to the ring lane's events\n",
        events.len(),
        jsonl.len()
    );
    println!("{:<10} {:>10} {:>12}", "sink", "min_ms", "ns_per_event");
    for (label, t) in [
        ("off", t_off),
        ("null", t_null),
        ("ring", t_ring),
        ("jsonl", t_jsonl),
        ("ring+mon", t_mon),
    ] {
        println!("{label:<10} {:>10.3} {:>12.1}", ms(t), ns_per_event(t));
    }
    println!(
        "jsonl sink costs {:.1} ns/event over the null sink",
        ns_per_event(t_jsonl.saturating_sub(t_null))
    );

    // Budget: disabled-or-null tracing within 10 % of untraced, plus a
    // 2 ms absolute epsilon so sub-millisecond jitter cannot flake.
    let budget = Duration::from_secs_f64(t_off.as_secs_f64() * 1.10) + Duration::from_millis(2);
    if t_null > budget {
        eprintln!(
            "FAIL: null-sink run {:.3} ms exceeds budget {:.3} ms (untraced {:.3} ms + 10% + 2 ms)",
            ms(t_null),
            ms(budget),
            ms(t_off)
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\nnull-sink overhead {:+.1}% (budget +10% + 2 ms) — OK",
        (t_null.as_secs_f64() / t_off.as_secs_f64() - 1.0) * 100.0
    );

    // Same shape of budget for the assertion monitor, measured against
    // tracing alone: the invariant state machines are fixed-size and
    // allocation-free, so they must stay in the noise of a traced run.
    let mon_budget =
        Duration::from_secs_f64(t_ring.as_secs_f64() * 1.10) + Duration::from_millis(2);
    if t_mon > mon_budget {
        eprintln!(
            "FAIL: monitored run {:.3} ms exceeds budget {:.3} ms (ring-sink {:.3} ms + 10% + 2 ms)",
            ms(t_mon),
            ms(mon_budget),
            ms(t_ring)
        );
        return ExitCode::FAILURE;
    }
    println!(
        "monitor overhead {:+.1}% over ring sink (budget +10% + 2 ms) — OK",
        (t_mon.as_secs_f64() / t_ring.as_secs_f64() - 1.0) * 100.0
    );
    ExitCode::SUCCESS
}
