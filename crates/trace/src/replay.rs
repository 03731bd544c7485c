//! Trace replay: reconstructing run aggregates from events alone.
//!
//! A traced run's JSONL stream contains every mode boundary, frequency
//! switch, and frame completion. [`replay`] integrates those boundary
//! events into the same integer-nanosecond residency buckets the live
//! simulator keeps, so the reconstructed aggregates match the run's
//! `SimReport` **exactly** — counters as equal integers, residency and
//! delay statistics as bit-equal `f64`s (integer addition is
//! associative, and the delay stream is pushed through the same
//! Welford accumulator in the same order).

use crate::event::{Event, TraceMode};
use simcore::json::{Json, ToJson};
use simcore::stats::OnlineStats;
use simcore::time::SimTime;
use std::collections::BTreeMap;

/// Converts integer nanoseconds to seconds.
///
/// This is *the* conversion used by both the simulator's report
/// assembly and trace replay; sharing it guarantees the two produce
/// identical `f64` values from identical nanosecond totals. Totals of
/// any realistic run (≤ ~10⁴ s ≈ 10¹³ ns) are far below 2⁵³, so the
/// only rounding is the final division.
#[must_use]
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Aggregates reconstructed from a trace by [`replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Frames that finished decoding (`frame_done` events).
    pub frames_completed: u64,
    /// Committed frequency/voltage switches.
    pub freq_switches: u64,
    /// Rate-change detections (arrival + service).
    pub rate_changes: u64,
    /// Sleep-state entries.
    pub sleeps: u64,
    /// Wake-ups from sleep.
    pub wakes: u64,
    /// Frames dropped by the bounded buffer.
    pub buffer_drops: u64,
    /// Times the supervisor entered degraded operation.
    pub degraded_entries: u64,
    /// Residency per operating mode, integer nanoseconds.
    pub mode_ns: BTreeMap<u32, u64>,
    /// Residency per decode frequency (tenths of a MHz), nanoseconds.
    pub freq_ns: BTreeMap<u32, u64>,
    /// Per-frame queueing-delay statistics, in event order.
    pub delays: OnlineStats,
    /// Timestamp of the last event (the accounted end of the run).
    pub end: SimTime,
}

impl ReplaySummary {
    /// Mode residency in seconds, keyed by [`TraceMode`].
    #[must_use]
    pub fn mode_secs(&self) -> BTreeMap<TraceMode, f64> {
        self.mode_ns
            .iter()
            .filter_map(|(&k, &ns)| TraceMode::from_index(k).map(|m| (m, ns_to_secs(ns))))
            .collect()
    }

    /// Frequency residency in seconds, keyed by tenths of a MHz —
    /// the exact shape of `SimReport::freq_residency`.
    #[must_use]
    pub fn freq_secs(&self) -> BTreeMap<u32, f64> {
        self.freq_ns
            .iter()
            .map(|(&k, &ns)| (k, ns_to_secs(ns)))
            .collect()
    }

    /// Total accounted time in seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        ns_to_secs(self.mode_ns.values().sum())
    }
}

impl ToJson for ReplaySummary {
    fn to_json(&self) -> Json {
        let mode_secs: BTreeMap<String, f64> = self
            .mode_secs()
            .into_iter()
            .map(|(m, s)| (m.label().to_owned(), s))
            .collect();
        Json::obj(vec![
            ("frames_completed".into(), self.frames_completed.to_json()),
            ("freq_switches".into(), self.freq_switches.to_json()),
            ("rate_changes".into(), self.rate_changes.to_json()),
            ("sleeps".into(), self.sleeps.to_json()),
            ("wakes".into(), self.wakes.to_json()),
            ("buffer_drops".into(), self.buffer_drops.to_json()),
            ("degraded_entries".into(), self.degraded_entries.to_json()),
            ("duration_secs".into(), self.duration_secs().to_json()),
            ("mode_secs".into(), mode_secs.to_json()),
            ("freq_residency".into(), self.freq_secs().to_json()),
            ("mean_delay_s".into(), self.delays.mean().to_json()),
            ("max_delay_s".into(), self.delays.max().to_json()),
            ("end_ns".into(), Json::Int(self.end.as_nanos() as i64)),
        ])
    }
}

/// Integrates a time-ordered event stream into run aggregates.
///
/// Only mode-boundary events (`run_start`, `idle_enter`,
/// `decode_start`, `sleep_enter`, `wake_start`, `run_end`) advance the
/// residency clock; the frequency active during each decoding span is
/// the one carried by its `decode_start`. Events must be in
/// non-decreasing time order, which is how every sink receives them.
#[must_use]
pub fn replay(events: &[Event]) -> ReplaySummary {
    let mut summary = ReplaySummary {
        frames_completed: 0,
        freq_switches: 0,
        rate_changes: 0,
        sleeps: 0,
        wakes: 0,
        buffer_drops: 0,
        degraded_entries: 0,
        mode_ns: BTreeMap::new(),
        freq_ns: BTreeMap::new(),
        delays: OnlineStats::new(),
        end: SimTime::ZERO,
    };
    // Integration state: the mode and decode frequency in effect since
    // `prev`, pending the next boundary event.
    let mut mode: Option<TraceMode> = None;
    let mut freq_tenths: u32 = 0;
    let mut prev = SimTime::ZERO;

    for ev in events {
        match *ev {
            Event::RunStart { at } => {
                close_span(&mut summary, mode, freq_tenths, &mut prev, at);
                mode = Some(TraceMode::Idle);
            }
            Event::IdleEnter { at } => {
                close_span(&mut summary, mode, freq_tenths, &mut prev, at);
                mode = Some(TraceMode::Idle);
            }
            Event::DecodeStart {
                at,
                freq_tenths_mhz,
            } => {
                close_span(&mut summary, mode, freq_tenths, &mut prev, at);
                mode = Some(TraceMode::Decoding);
                freq_tenths = freq_tenths_mhz;
            }
            Event::SleepEnter { at, state } => {
                close_span(&mut summary, mode, freq_tenths, &mut prev, at);
                mode = Some(state.mode());
                summary.sleeps += 1;
            }
            Event::WakeStart { at, .. } => {
                close_span(&mut summary, mode, freq_tenths, &mut prev, at);
                mode = Some(TraceMode::Waking);
                summary.wakes += 1;
            }
            Event::RunEnd { at } => {
                close_span(&mut summary, mode, freq_tenths, &mut prev, at);
                mode = None;
            }
            Event::FreqSwitch { .. } => summary.freq_switches += 1,
            Event::RateChange { .. } => summary.rate_changes += 1,
            Event::BufferDrop { .. } => summary.buffer_drops += 1,
            Event::Degraded { entered, .. } => {
                if entered {
                    summary.degraded_entries += 1;
                }
            }
            Event::FrameDone { delay_s, .. } => {
                summary.frames_completed += 1;
                summary.delays.push(delay_s);
            }
        }
        summary.end = summary.end.max(ev.at());
    }
    summary
}

/// Closes the residency span `[prev, at)` against the mode/frequency in
/// effect, then advances `prev`.
fn close_span(
    summary: &mut ReplaySummary,
    mode: Option<TraceMode>,
    freq_tenths: u32,
    prev: &mut SimTime,
    at: SimTime,
) {
    let ns = at.saturating_since(*prev).as_nanos();
    if let Some(m) = mode {
        if ns > 0 {
            *summary.mode_ns.entry(m.index()).or_insert(0) += ns;
            if m == TraceMode::Decoding {
                *summary.freq_ns.entry(freq_tenths).or_insert(0) += ns;
            }
        }
    }
    *prev = at;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SleepKind;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn replay_integrates_mode_and_frequency_residency() {
        let events = vec![
            Event::RunStart { at: t(0) },
            Event::IdleEnter { at: t(0) },
            Event::DecodeStart {
                at: t(100),
                freq_tenths_mhz: 2212,
            },
            Event::FrameDone {
                at: t(400),
                delay_s: 3e-7,
                freq_tenths_mhz: 2212,
            },
            Event::IdleEnter { at: t(400) },
            Event::SleepEnter {
                at: t(600),
                state: SleepKind::Standby,
            },
            Event::WakeStart {
                at: t(900),
                latency: simcore::time::SimDuration::from_nanos(50),
            },
            Event::IdleEnter { at: t(950) },
            Event::RunEnd { at: t(1000) },
        ];
        let s = replay(&events);
        assert_eq!(s.frames_completed, 1);
        assert_eq!(s.sleeps, 1);
        assert_eq!(s.wakes, 1);
        assert_eq!(s.mode_ns[&TraceMode::Decoding.index()], 300);
        assert_eq!(s.mode_ns[&TraceMode::Idle.index()], 100 + 200 + 50);
        assert_eq!(s.mode_ns[&TraceMode::Standby.index()], 300);
        assert_eq!(s.mode_ns[&TraceMode::Waking.index()], 50);
        assert_eq!(s.freq_ns[&2212], 300);
        assert_eq!(s.end, t(1000));
        assert_eq!(s.duration_secs(), 1e-6);
        assert_eq!(s.delays.count(), 1);
    }

    #[test]
    fn non_boundary_events_do_not_advance_the_clock() {
        let events = vec![
            Event::RunStart { at: t(0) },
            Event::DecodeStart {
                at: t(0),
                freq_tenths_mhz: 591,
            },
            Event::BufferDrop {
                at: t(40),
                occupancy: 3,
            },
            Event::Degraded {
                at: t(50),
                entered: true,
            },
            Event::Degraded {
                at: t(60),
                entered: false,
            },
            Event::RunEnd { at: t(100) },
        ];
        let s = replay(&events);
        assert_eq!(s.mode_ns[&TraceMode::Decoding.index()], 100);
        assert_eq!(s.buffer_drops, 1);
        assert_eq!(s.degraded_entries, 1);
    }

    #[test]
    fn ns_to_secs_is_exact_for_realistic_magnitudes() {
        // Totals below 2^53 ns (~104 days) convert without precision loss.
        let ns = 86_400_000_000_000u64; // one day
        assert_eq!(ns_to_secs(ns), 86_400.0);
        assert!(((1u64 << 53) as f64) > 1e16 * 0.9);
    }

    #[test]
    fn empty_trace_replays_to_zeroes() {
        let s = replay(&[]);
        assert_eq!(s.frames_completed, 0);
        assert!(s.mode_ns.is_empty());
        assert_eq!(s.duration_secs(), 0.0);
    }
}
