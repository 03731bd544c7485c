//! Trace round-trip: a traced run's JSONL stream is a faithful,
//! replayable record of the simulation.
//!
//! Four properties are pinned down:
//!
//! 1. attaching a sink never perturbs the simulation (traced and
//!    untraced reports serialize byte-identically),
//! 2. parsing the JSONL back and replaying it reconstructs the report's
//!    aggregates **exactly** — counters as equal integers, residency
//!    and delay statistics as bit-equal `f64`s,
//! 3. filtering keeps the stream parseable and the kept kinds intact,
//! 4. the direct encoder `Event::write_json` appends exactly the bytes
//!    of the reference `Event::to_json().dump()` for every variant and
//!    every value, including the ones no simulator run produces:
//!    non-finite floats (written as `null`), subnormals, `u32::MAX`,
//!    and timestamps above `i64::MAX`; and every float it writes is
//!    std's `{}` spelling.

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Attachments, Workload};
use proptest::prelude::*;
use simcore::json::ToJson;
use simcore::time::{SimDuration, SimTime};
use trace::{
    parse_jsonl, replay, Event, EventKind, FilteredSink, JsonlSink, KindSet, SleepKind, StreamKind,
    TraceSink,
};

fn traced_jsonl(config: &SystemConfig, seed: u64) -> (String, powermgr::SimReport) {
    let mut sink = JsonlSink::new(Vec::new());
    let report = Workload::Mp3("AB".into())
        .run(
            config,
            seed,
            Attachments {
                sink: Some(&mut sink),
                ..Attachments::default()
            },
        )
        .expect("runs");
    sink.finish().expect("in-memory write");
    (String::from_utf8(sink.into_inner()).expect("utf8"), report)
}

#[test]
fn traced_jsonl_replays_to_the_exact_report() {
    let config = SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::BreakEven {
            state: dpm::policy::SleepState::Standby,
        },
        ..SystemConfig::default()
    };
    let untraced = Workload::Mp3("AB".into())
        .run(&config, 101, Attachments::default())
        .expect("runs");
    let (text, traced) = traced_jsonl(&config, 101);
    assert_eq!(
        untraced.to_json().dump(),
        traced.to_json().dump(),
        "tracing must not perturb the run"
    );

    let events = parse_jsonl(&text).expect("valid JSONL");
    assert!(events.len() > 1000, "rich event stream expected");
    let summary = replay(&events);
    assert_eq!(summary.frames_completed, traced.frames_completed);
    assert_eq!(summary.freq_switches, traced.freq_switches);
    assert_eq!(summary.rate_changes, traced.rate_changes);
    assert_eq!(summary.sleeps, traced.sleeps);
    assert_eq!(summary.wakes, traced.wakes);
    assert!(traced.sleeps > 0 && traced.freq_switches > 0);

    // Residency: bit-equal, both sides built from the same integer
    // nanosecond totals through the same conversion.
    let modes = summary.mode_secs();
    for (&key, &secs) in &traced.mode_secs {
        let replayed = modes
            .iter()
            .find(|(m, _)| m.label() == key.to_string())
            .map(|(_, &s)| s)
            .unwrap_or(0.0);
        assert_eq!(replayed.to_bits(), secs.to_bits(), "mode {key}");
    }
    let freqs = summary.freq_secs();
    for (&key, &secs) in &traced.freq_residency {
        let replayed = freqs.get(&key).copied().unwrap_or(0.0);
        assert_eq!(replayed.to_bits(), secs.to_bits(), "freq key {key}");
    }
    assert_eq!(
        summary.duration_secs().to_bits(),
        traced.duration_secs.to_bits()
    );
    // Delays go through the same Welford accumulator in the same order.
    assert_eq!(
        summary.delays.mean().to_bits(),
        traced.frame_delays.mean().to_bits()
    );
    assert_eq!(
        summary.delays.max().to_bits(),
        traced.frame_delays.max().to_bits()
    );
    assert_eq!(summary.delays.count(), traced.frame_delays.count());
}

#[test]
fn events_survive_a_json_round_trip_individually() {
    let config = SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::BreakEven {
            state: dpm::policy::SleepState::Standby,
        },
        ..SystemConfig::default()
    };
    let (text, _) = traced_jsonl(&config, 102);
    let events = parse_jsonl(&text).expect("valid JSONL");
    for (i, ev) in events.iter().enumerate() {
        let line = ev.to_json().dump();
        let back = parse_jsonl(&line).expect("single line parses");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], *ev, "event {i} changed across a round trip");
    }
}

#[test]
fn filtered_stream_keeps_only_requested_kinds() {
    let config = SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::BreakEven {
            state: dpm::policy::SleepState::Standby,
        },
        ..SystemConfig::default()
    };
    let keep = KindSet::parse("freq,sleep").expect("valid kinds");
    let mut sink = FilteredSink::new(JsonlSink::new(Vec::new()), keep);
    let report = Workload::Mp3("AB".into())
        .run(
            &config,
            101,
            Attachments {
                sink: Some(&mut sink),
                ..Attachments::default()
            },
        )
        .expect("runs");
    sink.finish().expect("in-memory write");
    let text = String::from_utf8(sink.into_inner().into_inner()).expect("utf8");
    let events = parse_jsonl(&text).expect("valid JSONL");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| matches!(e.kind(), EventKind::Freq | EventKind::Sleep)));
    let switches = events
        .iter()
        .filter(|e| e.kind() == EventKind::Freq)
        .count() as u64;
    let sleeps = events
        .iter()
        .filter(|e| e.kind() == EventKind::Sleep)
        .count() as u64;
    assert_eq!(switches, report.freq_switches);
    assert_eq!(sleeps, report.sleeps);
}

/// Float values at the edges of `Display` formatting and of JSON.
const EDGE_FLOATS: [f64; 18] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    1e21,
    -123_456_789.0,
    9_007_199_254_740_992.0,
    0.1,
    1e-7,
    f64::EPSILON,
    f64::MIN_POSITIVE,
    5e-324,
    -2.225e-309,
    f64::MAX,
    f64::MIN,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const EDGE_U32: [u32; 4] = [0, 1, 2212, u32::MAX];

const EDGE_NANOS: [u64; 6] = [
    0,
    1,
    123_456_789_012_345,
    i64::MAX as u64,
    i64::MAX as u64 + 1,
    u64::MAX,
];

/// Builds variant `variant % 11` from one set of field values, so a
/// single draw (or one row of edge values) reaches every variant.
fn build(
    variant: u8,
    t: u64,
    (a, b, c, d): (u32, u32, u32, u32),
    (x, p, q): (f64, Option<f64>, Option<f64>),
    flag: bool,
) -> Event {
    let at = SimTime::from_nanos(t);
    match variant % 11 {
        0 => Event::RunStart { at },
        1 => Event::IdleEnter { at },
        2 => Event::DecodeStart {
            at,
            freq_tenths_mhz: a,
        },
        3 => Event::FreqSwitch {
            at,
            from_tenths_mhz: a,
            to_tenths_mhz: b,
            from_mv: c,
            to_mv: d,
        },
        4 => Event::RateChange {
            at,
            stream: if flag {
                StreamKind::Arrival
            } else {
                StreamKind::Service
            },
            new_rate: x,
            ln_p_max: p,
            threshold: q,
        },
        5 => Event::SleepEnter {
            at,
            state: if flag {
                SleepKind::Standby
            } else {
                SleepKind::Off
            },
        },
        6 => Event::WakeStart {
            at,
            // Mirrored so small stamps pair with latencies past i64::MAX.
            latency: SimDuration::from_nanos(u64::MAX - t),
        },
        7 => Event::BufferDrop { at, occupancy: a },
        8 => Event::Degraded { at, entered: flag },
        9 => Event::FrameDone {
            at,
            delay_s: x,
            freq_tenths_mhz: a,
        },
        _ => Event::RunEnd { at },
    }
}

/// The encoder must append (not overwrite) exactly the reference bytes,
/// and spell every float as std's `{}` does. Both sides spell numbers
/// through `simcore::json::write_f64`, so the reference alone would not
/// catch a misspelled float; std is the independent oracle.
fn assert_encodes_like_the_reference(ev: &Event, line: &mut Vec<u8>) {
    line.clear();
    line.extend_from_slice(b"prefix ");
    ev.write_json(line);
    let encoded = std::str::from_utf8(line)
        .expect("UTF-8")
        .strip_prefix("prefix ")
        .expect("the encoder appends");
    assert_eq!(encoded, ev.to_json().dump(), "{ev:?}");
    for (key, x) in float_fields(ev) {
        let key = format!("\"{key}\":");
        let start = encoded.find(&key).expect("float field present") + key.len();
        let value = encoded[start..].split([',', '}']).next().unwrap();
        assert_eq!(value, std_spelling(x), "{key} of {ev:?}");
    }
}

/// The float-valued fields of an event, `None` where the field is null.
fn float_fields(ev: &Event) -> Vec<(&'static str, Option<f64>)> {
    match *ev {
        Event::RateChange {
            new_rate,
            ln_p_max,
            threshold,
            ..
        } => vec![
            ("new_rate", Some(new_rate)),
            ("ln_p_max", ln_p_max),
            ("threshold", threshold),
        ],
        Event::FrameDone { delay_s, .. } => vec![("delay_s", Some(delay_s))],
        _ => Vec::new(),
    }
}

/// std's `{}`, with `.0` appended when it has no `.`; `null` for a
/// missing or non-finite value.
fn std_spelling(x: Option<f64>) -> String {
    match x {
        Some(x) if x.is_finite() => {
            let text = format!("{x}");
            if text.contains('.') {
                text
            } else {
                text + ".0"
            }
        }
        _ => "null".to_owned(),
    }
}

#[test]
fn encoder_matches_the_reference_on_edge_values() {
    let mut line = Vec::new();
    let mut names = std::collections::BTreeSet::new();
    for variant in 0..11u8 {
        for (i, &x) in EDGE_FLOATS.iter().enumerate() {
            let other = EDGE_FLOATS[(i + 7) % EDGE_FLOATS.len()];
            for (p, q) in [
                (Some(x), Some(other)),
                (None, Some(x)),
                (Some(x), None),
                (None, None),
            ] {
                for (j, &t) in EDGE_NANOS.iter().enumerate() {
                    let ints = (
                        EDGE_U32[j % 4],
                        EDGE_U32[(j + 1) % 4],
                        EDGE_U32[(j + 2) % 4],
                        EDGE_U32[(j + 3) % 4],
                    );
                    for flag in [false, true] {
                        let ev = build(variant, t, ints, (x, p, q), flag);
                        assert_encodes_like_the_reference(&ev, &mut line);
                        names.insert(ev.name());
                    }
                }
            }
        }
    }
    assert_eq!(names.len(), 11, "every variant covered: {names:?}");
    // The spellings the edge table exists for, pinned independently of
    // the reference.
    let pinned = [
        (
            build(
                4,
                0,
                (0, 0, 0, 0),
                (f64::NAN, None, Some(f64::INFINITY)),
                true,
            ),
            r#"{"kind":"rate_change","t":0,"stream":"arrival","new_rate":null,"ln_p_max":null,"threshold":null}"#,
        ),
        (
            build(
                9,
                i64::MAX as u64 + 1,
                (u32::MAX, 0, 0, 0),
                (-0.0, None, None),
                false,
            ),
            r#"{"kind":"frame_done","t":-9223372036854775808,"delay_s":-0.0,"freq_tenths_mhz":4294967295}"#,
        ),
        (
            build(5, 7, (0, 0, 0, 0), (0.0, None, None), false),
            r#"{"kind":"sleep_enter","t":7,"state":"off"}"#,
        ),
        (
            build(7, 9, (64, 0, 0, 0), (0.0, None, None), false),
            r#"{"kind":"buffer_drop","t":9,"occupancy":64}"#,
        ),
    ];
    for (ev, wire) in pinned {
        line.clear();
        ev.write_json(&mut line);
        assert_eq!(line, wire.as_bytes());
    }
}

/// Any `f64` bit pattern (NaNs, infinities, subnormals, both zeros),
/// mixed with integral and everyday values.
fn floats() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => any::<u64>().prop_map(f64::from_bits),
        2 => (-1e7f64..1e7).prop_map(f64::trunc),
        2 => 0.0f64..1.0,
        1 => (0usize..EDGE_FLOATS.len()).prop_map(|i| EDGE_FLOATS[i]),
    ]
}

fn opt_floats() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![1 => Just(None), 3 => floats().prop_map(Some)]
}

fn u32s() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), 0u32..3000, Just(u32::MAX)]
}

fn nanos() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        0u64..100_000_000_000,
        (0usize..EDGE_NANOS.len()).prop_map(|i| EDGE_NANOS[i]),
    ]
}

fn events() -> impl Strategy<Value = Event> {
    (
        0u8..11,
        nanos(),
        (u32s(), u32s(), u32s(), u32s()),
        (floats(), opt_floats(), opt_floats()),
        any::<bool>(),
    )
        .prop_map(|(variant, t, ints, reals, flag)| build(variant, t, ints, reals, flag))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Randomized differential: encoder bytes equal reference bytes.
    #[test]
    fn encoder_matches_the_reference_on_random_events(ev in events()) {
        let mut line = Vec::new();
        assert_encodes_like_the_reference(&ev, &mut line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000_000))]

    /// The same differential at a nightly case count (run in release:
    /// `cargo test --release --test trace_roundtrip -- --ignored`).
    #[test]
    #[ignore = "heavy: 2M cases, run nightly"]
    fn encoder_matches_the_reference_on_random_events_heavy(ev in events()) {
        let mut line = Vec::new();
        assert_encodes_like_the_reference(&ev, &mut line);
    }
}
