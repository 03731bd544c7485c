//! Typed simulator events and their JSONL wire format.
//!
//! Every [`Event`] is a small `Copy` enum variant stamped with the
//! [`SimTime`] at which it occurred. Constructing one never allocates,
//! so the simulator can build events unconditionally on its hot path
//! and let the attached sink decide whether anything further happens.
//!
//! The wire format is one JSON object per line (JSONL). Timestamps
//! serialize as integer nanoseconds — the simulator's native clock —
//! so a parsed trace reconstructs time *exactly*, with no float
//! round-trip involved.

use simcore::json::{self, Json, ToJson};
use simcore::time::{SimDuration, SimTime};

/// Operating mode of the simulated system, as carried by mode-boundary
/// events. Indices double as the metrics-registry series keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceMode {
    /// CPU busy decoding a frame.
    Decoding,
    /// Awake but idle.
    Idle,
    /// Light sleep (fast wake).
    Standby,
    /// Deep sleep (slow wake).
    Off,
    /// Transitioning from sleep back to idle.
    Waking,
}

impl TraceMode {
    /// All modes, in index order.
    pub const ALL: [TraceMode; 5] = [
        TraceMode::Decoding,
        TraceMode::Idle,
        TraceMode::Standby,
        TraceMode::Off,
        TraceMode::Waking,
    ];

    /// Stable small-integer key (`0..5`) for registry series.
    #[must_use]
    pub fn index(self) -> u32 {
        match self {
            TraceMode::Decoding => 0,
            TraceMode::Idle => 1,
            TraceMode::Standby => 2,
            TraceMode::Off => 3,
            TraceMode::Waking => 4,
        }
    }

    /// Inverse of [`TraceMode::index`].
    #[must_use]
    pub fn from_index(index: u32) -> Option<TraceMode> {
        TraceMode::ALL.get(index as usize).copied()
    }

    /// Human-readable label; matches the simulator report's mode keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Decoding => "decoding",
            TraceMode::Idle => "idle",
            TraceMode::Standby => "standby",
            TraceMode::Off => "off",
            TraceMode::Waking => "waking",
        }
    }
}

/// Which sleep state a [`Event::SleepEnter`] transition targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SleepKind {
    /// Light sleep: clocks gated, fast wake.
    Standby,
    /// Deep sleep: power removed, slow wake.
    Off,
}

impl SleepKind {
    /// The mode the system occupies while in this sleep state.
    #[must_use]
    pub fn mode(self) -> TraceMode {
        match self {
            SleepKind::Standby => TraceMode::Standby,
            SleepKind::Off => TraceMode::Off,
        }
    }

    fn label(self) -> &'static str {
        match self {
            SleepKind::Standby => "standby",
            SleepKind::Off => "off",
        }
    }

    fn parse(s: &str) -> Option<SleepKind> {
        match s {
            "standby" => Some(SleepKind::Standby),
            "off" => Some(SleepKind::Off),
            _ => None,
        }
    }
}

/// Which rate stream a [`Event::RateChange`] detection fired on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Frame inter-arrival rate.
    Arrival,
    /// Frame service (decode) rate.
    Service,
}

impl StreamKind {
    fn label(self) -> &'static str {
        match self {
            StreamKind::Arrival => "arrival",
            StreamKind::Service => "service",
        }
    }

    fn parse(s: &str) -> Option<StreamKind> {
        match s {
            "arrival" => Some(StreamKind::Arrival),
            "service" => Some(StreamKind::Service),
            _ => None,
        }
    }
}

/// A structured simulator event, stamped with its simulation time.
///
/// Frequencies are carried as tenths of a MHz (`u32`), the same
/// quantization the report's residency histogram uses; voltages as
/// millivolts. Both are exact integers on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Simulation run began.
    RunStart {
        /// Event timestamp.
        at: SimTime,
    },
    /// System entered the awake-idle mode.
    IdleEnter {
        /// Event timestamp.
        at: SimTime,
    },
    /// System started decoding a frame.
    DecodeStart {
        /// Event timestamp.
        at: SimTime,
        /// Operating frequency during the decode, in tenths of a MHz.
        freq_tenths_mhz: u32,
    },
    /// The DVS layer committed a frequency/voltage switch.
    FreqSwitch {
        /// Event timestamp.
        at: SimTime,
        /// Previous frequency, tenths of a MHz.
        from_tenths_mhz: u32,
        /// New frequency, tenths of a MHz.
        to_tenths_mhz: u32,
        /// Previous core voltage, millivolts.
        from_mv: u32,
        /// New core voltage, millivolts.
        to_mv: u32,
    },
    /// A rate estimator reported a change in arrival or service rate.
    RateChange {
        /// Event timestamp.
        at: SimTime,
        /// Which stream changed.
        stream: StreamKind,
        /// The stream's new rate estimate (events per second).
        new_rate: f64,
        /// Peak log-likelihood ratio of the change-point test, when the
        /// detecting estimator computes one.
        ln_p_max: Option<f64>,
        /// Calibrated detection threshold the statistic cleared, when
        /// the detecting estimator uses one.
        threshold: Option<f64>,
    },
    /// The DPM layer put the system into a sleep state.
    SleepEnter {
        /// Event timestamp.
        at: SimTime,
        /// Which sleep state was entered.
        state: SleepKind,
    },
    /// The system began waking from sleep.
    WakeStart {
        /// Event timestamp.
        at: SimTime,
        /// Wake-up latency: the system reaches idle at `at + latency`.
        latency: SimDuration,
    },
    /// The bounded frame buffer dropped an arriving frame.
    BufferDrop {
        /// Event timestamp.
        at: SimTime,
        /// Buffer occupancy after the drop.
        occupancy: u32,
    },
    /// The supervisor entered (`entered = true`) or left degraded mode.
    Degraded {
        /// Event timestamp.
        at: SimTime,
        /// `true` when degradation began, `false` when it was lifted.
        entered: bool,
    },
    /// A frame finished decoding.
    FrameDone {
        /// Event timestamp.
        at: SimTime,
        /// Queueing delay the frame experienced, seconds.
        delay_s: f64,
        /// Frequency the frame was decoded at, tenths of a MHz.
        freq_tenths_mhz: u32,
    },
    /// Simulation run ended; `at` is the end of the accounted interval.
    RunEnd {
        /// Event timestamp.
        at: SimTime,
    },
}

impl Event {
    /// The simulation time stamped on the event.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match *self {
            Event::RunStart { at }
            | Event::IdleEnter { at }
            | Event::DecodeStart { at, .. }
            | Event::FreqSwitch { at, .. }
            | Event::RateChange { at, .. }
            | Event::SleepEnter { at, .. }
            | Event::WakeStart { at, .. }
            | Event::BufferDrop { at, .. }
            | Event::Degraded { at, .. }
            | Event::FrameDone { at, .. }
            | Event::RunEnd { at } => at,
        }
    }

    /// The filterable category the event belongs to.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::RunStart { .. } | Event::RunEnd { .. } => EventKind::Run,
            Event::IdleEnter { .. } | Event::DecodeStart { .. } => EventKind::Mode,
            Event::FreqSwitch { .. } => EventKind::Freq,
            Event::RateChange { .. } => EventKind::Rate,
            Event::SleepEnter { .. } => EventKind::Sleep,
            Event::WakeStart { .. } => EventKind::Wake,
            Event::BufferDrop { .. } => EventKind::Drop,
            Event::Degraded { .. } => EventKind::Degrade,
            Event::FrameDone { .. } => EventKind::Frame,
        }
    }

    /// The event's wire name (the `"kind"` field of its JSON object).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::IdleEnter { .. } => "idle_enter",
            Event::DecodeStart { .. } => "decode_start",
            Event::FreqSwitch { .. } => "freq_switch",
            Event::RateChange { .. } => "rate_change",
            Event::SleepEnter { .. } => "sleep_enter",
            Event::WakeStart { .. } => "wake_start",
            Event::BufferDrop { .. } => "buffer_drop",
            Event::Degraded { .. } => "degraded",
            Event::FrameDone { .. } => "frame_done",
            Event::RunEnd { .. } => "run_end",
        }
    }

    /// Appends the event's compact JSON object to `out`: exactly the
    /// bytes `self.to_json().dump()` produces, written field by field
    /// without building a [`Json`] tree. This is the encoder every
    /// JSONL writer uses; the [`ToJson`] impl stays as the reference the
    /// differential tests compare it against.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"kind\":\"");
        out.extend_from_slice(self.name().as_bytes());
        out.extend_from_slice(b"\",\"t\":");
        json::write_i64(out, self.at().as_nanos() as i64);
        match *self {
            Event::RunStart { .. } | Event::IdleEnter { .. } | Event::RunEnd { .. } => {}
            Event::DecodeStart {
                freq_tenths_mhz, ..
            } => {
                out.extend_from_slice(b",\"freq_tenths_mhz\":");
                json::write_i64(out, i64::from(freq_tenths_mhz));
            }
            Event::FreqSwitch {
                from_tenths_mhz,
                to_tenths_mhz,
                from_mv,
                to_mv,
                ..
            } => {
                out.extend_from_slice(b",\"from_tenths_mhz\":");
                json::write_i64(out, i64::from(from_tenths_mhz));
                out.extend_from_slice(b",\"to_tenths_mhz\":");
                json::write_i64(out, i64::from(to_tenths_mhz));
                out.extend_from_slice(b",\"from_mv\":");
                json::write_i64(out, i64::from(from_mv));
                out.extend_from_slice(b",\"to_mv\":");
                json::write_i64(out, i64::from(to_mv));
            }
            Event::RateChange {
                stream,
                new_rate,
                ln_p_max,
                threshold,
                ..
            } => {
                out.extend_from_slice(b",\"stream\":\"");
                out.extend_from_slice(stream.label().as_bytes());
                out.extend_from_slice(b"\",\"new_rate\":");
                json::write_f64(out, new_rate);
                out.extend_from_slice(b",\"ln_p_max\":");
                write_opt_f64(out, ln_p_max);
                out.extend_from_slice(b",\"threshold\":");
                write_opt_f64(out, threshold);
            }
            Event::SleepEnter { state, .. } => {
                out.extend_from_slice(b",\"state\":\"");
                out.extend_from_slice(state.label().as_bytes());
                out.push(b'"');
            }
            Event::WakeStart { latency, .. } => {
                out.extend_from_slice(b",\"latency_ns\":");
                json::write_i64(out, latency.as_nanos() as i64);
            }
            Event::BufferDrop { occupancy, .. } => {
                out.extend_from_slice(b",\"occupancy\":");
                json::write_i64(out, i64::from(occupancy));
            }
            Event::Degraded { entered, .. } => {
                let field: &[u8] = if entered {
                    b",\"entered\":true"
                } else {
                    b",\"entered\":false"
                };
                out.extend_from_slice(field);
            }
            Event::FrameDone {
                delay_s,
                freq_tenths_mhz,
                ..
            } => {
                out.extend_from_slice(b",\"delay_s\":");
                json::write_f64(out, delay_s);
                out.extend_from_slice(b",\"freq_tenths_mhz\":");
                json::write_i64(out, i64::from(freq_tenths_mhz));
            }
        }
        out.push(b'}');
    }

    /// Decodes one event from its parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Event, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\"")?;
        let at = time_field(json, "t")?;
        let ev = match kind {
            "run_start" => Event::RunStart { at },
            "idle_enter" => Event::IdleEnter { at },
            "decode_start" => Event::DecodeStart {
                at,
                freq_tenths_mhz: u32_field(json, "freq_tenths_mhz")?,
            },
            "freq_switch" => Event::FreqSwitch {
                at,
                from_tenths_mhz: u32_field(json, "from_tenths_mhz")?,
                to_tenths_mhz: u32_field(json, "to_tenths_mhz")?,
                from_mv: u32_field(json, "from_mv")?,
                to_mv: u32_field(json, "to_mv")?,
            },
            "rate_change" => Event::RateChange {
                at,
                stream: json
                    .get("stream")
                    .and_then(Json::as_str)
                    .and_then(StreamKind::parse)
                    .ok_or("bad \"stream\"")?,
                new_rate: f64_field(json, "new_rate")?,
                ln_p_max: opt_f64_field(json, "ln_p_max"),
                threshold: opt_f64_field(json, "threshold"),
            },
            "sleep_enter" => Event::SleepEnter {
                at,
                state: json
                    .get("state")
                    .and_then(Json::as_str)
                    .and_then(SleepKind::parse)
                    .ok_or("bad \"state\"")?,
            },
            "wake_start" => Event::WakeStart {
                at,
                latency: SimDuration::from_nanos(
                    json.get("latency_ns")
                        .and_then(Json::as_u64)
                        .ok_or("bad \"latency_ns\"")?,
                ),
            },
            "buffer_drop" => Event::BufferDrop {
                at,
                occupancy: u32_field(json, "occupancy")?,
            },
            "degraded" => Event::Degraded {
                at,
                entered: json
                    .get("entered")
                    .and_then(Json::as_bool)
                    .ok_or("bad \"entered\"")?,
            },
            "frame_done" => Event::FrameDone {
                at,
                delay_s: f64_field(json, "delay_s")?,
                freq_tenths_mhz: u32_field(json, "freq_tenths_mhz")?,
            },
            "run_end" => Event::RunEnd { at },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(ev)
    }
}

fn time_field(json: &Json, key: &str) -> Result<SimTime, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .map(SimTime::from_nanos)
        .ok_or_else(|| format!("bad {key:?}"))
}

fn u32_field(json: &Json, key: &str) -> Result<u32, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("bad {key:?}"))
}

fn f64_field(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("bad {key:?}"))
}

fn opt_f64_field(json: &Json, key: &str) -> Option<f64> {
    json.get(key).and_then(Json::as_f64)
}

fn write_opt_f64(out: &mut Vec<u8>, x: Option<f64>) {
    match x {
        Some(x) => json::write_f64(out, x),
        None => out.extend_from_slice(b"null"),
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("kind".into(), Json::Str(self.name().into())),
            ("t".into(), Json::Int(self.at().as_nanos() as i64)),
        ];
        match *self {
            Event::RunStart { .. } | Event::IdleEnter { .. } | Event::RunEnd { .. } => {}
            Event::DecodeStart {
                freq_tenths_mhz, ..
            } => {
                pairs.push(("freq_tenths_mhz".into(), freq_tenths_mhz.to_json()));
            }
            Event::FreqSwitch {
                from_tenths_mhz,
                to_tenths_mhz,
                from_mv,
                to_mv,
                ..
            } => {
                pairs.push(("from_tenths_mhz".into(), from_tenths_mhz.to_json()));
                pairs.push(("to_tenths_mhz".into(), to_tenths_mhz.to_json()));
                pairs.push(("from_mv".into(), from_mv.to_json()));
                pairs.push(("to_mv".into(), to_mv.to_json()));
            }
            Event::RateChange {
                stream,
                new_rate,
                ln_p_max,
                threshold,
                ..
            } => {
                pairs.push(("stream".into(), Json::Str(stream.label().into())));
                pairs.push(("new_rate".into(), new_rate.to_json()));
                pairs.push(("ln_p_max".into(), ln_p_max.to_json()));
                pairs.push(("threshold".into(), threshold.to_json()));
            }
            Event::SleepEnter { state, .. } => {
                pairs.push(("state".into(), Json::Str(state.label().into())));
            }
            Event::WakeStart { latency, .. } => {
                pairs.push(("latency_ns".into(), Json::Int(latency.as_nanos() as i64)));
            }
            Event::BufferDrop { occupancy, .. } => {
                pairs.push(("occupancy".into(), occupancy.to_json()));
            }
            Event::Degraded { entered, .. } => {
                pairs.push(("entered".into(), Json::Bool(entered)));
            }
            Event::FrameDone {
                delay_s,
                freq_tenths_mhz,
                ..
            } => {
                pairs.push(("delay_s".into(), delay_s.to_json()));
                pairs.push(("freq_tenths_mhz".into(), freq_tenths_mhz.to_json()));
            }
        }
        Json::Obj(pairs)
    }
}

/// Filterable event category, used by `--trace-filter` and `tracecat
/// filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `run_start` / `run_end` markers.
    Run,
    /// Mode boundaries: `idle_enter`, `decode_start`.
    Mode,
    /// `freq_switch`.
    Freq,
    /// `rate_change`.
    Rate,
    /// `sleep_enter`.
    Sleep,
    /// `wake_start`.
    Wake,
    /// `buffer_drop`.
    Drop,
    /// `degraded`.
    Degrade,
    /// `frame_done`.
    Frame,
}

impl EventKind {
    /// All kinds, in bit order.
    pub const ALL: [EventKind; 9] = [
        EventKind::Run,
        EventKind::Mode,
        EventKind::Freq,
        EventKind::Rate,
        EventKind::Sleep,
        EventKind::Wake,
        EventKind::Drop,
        EventKind::Degrade,
        EventKind::Frame,
    ];

    /// The kind's filter name, as accepted by [`KindSet::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Run => "run",
            EventKind::Mode => "mode",
            EventKind::Freq => "freq",
            EventKind::Rate => "rate",
            EventKind::Sleep => "sleep",
            EventKind::Wake => "wake",
            EventKind::Drop => "drop",
            EventKind::Degrade => "degrade",
            EventKind::Frame => "frame",
        }
    }

    fn bit(self) -> u16 {
        1 << (EventKind::ALL.iter().position(|&k| k == self).unwrap_or(0) as u16)
    }
}

/// A set of [`EventKind`]s, stored as a bitmask. Used to filter traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KindSet(u16);

impl KindSet {
    /// The empty set.
    pub const EMPTY: KindSet = KindSet(0);

    /// The set containing every kind.
    #[must_use]
    pub fn all() -> KindSet {
        EventKind::ALL
            .iter()
            .fold(KindSet::EMPTY, |s, &k| s.with(k))
    }

    /// Returns the set with `kind` added.
    #[must_use]
    pub fn with(self, kind: EventKind) -> KindSet {
        KindSet(self.0 | kind.bit())
    }

    /// `true` if `kind` is in the set.
    #[must_use]
    pub fn contains(self, kind: EventKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// `true` if no kind is in the set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated kind list, e.g. `"freq,sleep"`.
    ///
    /// # Errors
    ///
    /// Returns the first unrecognized name, with the valid vocabulary.
    pub fn parse(list: &str) -> Result<KindSet, String> {
        let mut set = KindSet::EMPTY;
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let kind = EventKind::ALL
                .iter()
                .copied()
                .find(|k| k.name() == name)
                .ok_or_else(|| {
                    let valid: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown event kind {name:?} (valid: {})", valid.join(", "))
                })?;
            set = set.with(kind);
        }
        if set.is_empty() {
            return Err("empty event-kind list".into());
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart { at: SimTime::ZERO },
            Event::IdleEnter { at: SimTime::ZERO },
            Event::DecodeStart {
                at: SimTime::from_nanos(1_500),
                freq_tenths_mhz: 2212,
            },
            Event::FreqSwitch {
                at: SimTime::from_nanos(1_500),
                from_tenths_mhz: 1032,
                to_tenths_mhz: 2212,
                from_mv: 1100,
                to_mv: 1650,
            },
            Event::RateChange {
                at: SimTime::from_nanos(2_000),
                stream: StreamKind::Arrival,
                new_rate: 38.75,
                ln_p_max: Some(12.5),
                threshold: Some(9.25),
            },
            Event::RateChange {
                at: SimTime::from_nanos(2_100),
                stream: StreamKind::Service,
                new_rate: 120.0,
                ln_p_max: None,
                threshold: None,
            },
            Event::SleepEnter {
                at: SimTime::from_nanos(9_000),
                state: SleepKind::Off,
            },
            Event::WakeStart {
                at: SimTime::from_nanos(12_345),
                latency: SimDuration::from_nanos(640_000),
            },
            Event::BufferDrop {
                at: SimTime::from_nanos(13_000),
                occupancy: 64,
            },
            Event::Degraded {
                at: SimTime::from_nanos(14_000),
                entered: true,
            },
            Event::FrameDone {
                at: SimTime::from_nanos(15_000),
                delay_s: 0.002_5,
                freq_tenths_mhz: 2212,
            },
            Event::RunEnd {
                at: SimTime::from_nanos(20_000),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let mut line = Vec::new();
        for ev in sample_events() {
            let json = ev.to_json();
            line.clear();
            ev.write_json(&mut line);
            let line = std::str::from_utf8(&line).expect("event JSON is UTF-8");
            assert_eq!(line, json.dump(), "{}", ev.name());
            let reparsed = Json::parse(line).expect("event JSON parses");
            let back = Event::from_json(&reparsed).expect("event decodes");
            assert_eq!(ev, back, "{}", ev.name());
        }
    }

    #[test]
    fn timestamps_are_exact_integer_nanos() {
        let ev = Event::RunEnd {
            at: SimTime::from_nanos(123_456_789_012_345),
        };
        let json = Json::parse(&ev.to_json().dump()).unwrap();
        assert_eq!(
            json.get("t").and_then(Json::as_u64),
            Some(123_456_789_012_345)
        );
    }

    #[test]
    fn kind_set_parses_and_filters() {
        let set = KindSet::parse("freq, sleep").unwrap();
        assert!(set.contains(EventKind::Freq));
        assert!(set.contains(EventKind::Sleep));
        assert!(!set.contains(EventKind::Frame));
        assert!(KindSet::parse("bogus").is_err());
        assert!(KindSet::parse("").is_err());
        assert!(KindSet::all().contains(EventKind::Degrade));
        for ev in sample_events() {
            assert!(KindSet::all().contains(ev.kind()));
        }
    }

    #[test]
    fn unknown_kind_and_missing_fields_are_rejected() {
        let bad = Json::parse(r#"{"kind":"warp_drive","t":1}"#).unwrap();
        assert!(Event::from_json(&bad).is_err());
        let missing = Json::parse(r#"{"kind":"frame_done","t":1}"#).unwrap();
        assert!(Event::from_json(&missing).is_err());
        let no_time = Json::parse(r#"{"kind":"run_start"}"#).unwrap();
        assert!(Event::from_json(&no_time).is_err());
    }

    #[test]
    fn mode_indices_round_trip() {
        for mode in TraceMode::ALL {
            assert_eq!(TraceMode::from_index(mode.index()), Some(mode));
        }
        assert_eq!(TraceMode::from_index(99), None);
    }
}
