//! In-memory spans of a traced fleet run, their self times, and the
//! per-layer table built from them.
//!
//! A span is one timed call into a layer: its name, when it started,
//! how long it took, the span that caused it and the device (the
//! request id) it worked for. Spans are kept in memory while the run
//! goes and written out as JSONL when it ends.
//!
//! Two calls that happen tens of thousands of times per device — the
//! assertion monitor's `observe` and the JSONL sink's `record` — are
//! not kept one span per call. Each is folded into one *aggregate*
//! span per device whose `dur_ns` is the sum of its calls and whose
//! `items` counts its work (calls for the monitor, bytes written for
//! the sink). Its calls are disjoint sub-intervals of
//! the parent kernel span, so the self-time rule below holds for it
//! exactly as for an ordinary span.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `core.kernel`.
    pub name: &'static str,
    /// The device this span worked for; `None` for fleet-level work on
    /// the calling thread (checkpoints, the fleet log, report assembly).
    pub device: Option<u64>,
    /// Index of the parent span in the same list; `None` for a root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the traced run began.
    pub start_ns: u64,
    /// Duration, nanoseconds (for an aggregate span, the sum of its
    /// calls).
    pub dur_ns: u64,
    /// Work done inside the span, in the unit its layer counts: frames
    /// for `workload.build`, kernel events for `core.kernel`, calls for
    /// `trace.monitor`, bytes for `trace.sink` and `fleet.checkpoint`.
    pub items: u64,
}

impl Span {
    /// The span as one JSON line of the span dump.
    #[must_use]
    pub fn to_jsonl(&self, id: usize) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        format!(
            "{{\"id\":{id},\"name\":\"{}\",\"device\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"items\":{}}}",
            self.name,
            opt(self.device),
            opt(self.parent.map(|p| p as u64)),
            self.start_ns,
            self.dur_ns,
            self.items
        )
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children of one parent never overlap (they are
/// sequential calls on one thread), so this is the part of the span no
/// child covers. Saturates at zero against clock granularity.
///
/// # Panics
///
/// Panics if a parent index points at or past its child: spans are
/// recorded parent first, so a forward or self reference is a bug.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            assert!(
                p < i,
                "span {i} names parent {p}, which is not recorded before it"
            );
            child_ns[p] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Totals of one span name: self time, call count and items.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed duration including children, nanoseconds.
    pub total_ns: u64,
    /// Number of spans.
    pub spans: u64,
    /// Summed items.
    pub items: u64,
}

/// Per-name totals, keyed by span name in sorted order.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.self_ns += self_ns;
        t.total_ns += s.dur_ns;
        t.spans += 1;
        t.items += s.items;
    }
    out
}

/// The self-time table: one row per layer (a group of span names), the
/// unattributed remainder as a row of its own, and each row's share of
/// `accounted_ns` (worker busy time plus serial time on the calling
/// thread).
#[must_use]
pub fn layer_table(
    layers: &[(&str, &[&str])],
    totals: &BTreeMap<&'static str, NameTotals>,
    accounted_ns: u64,
) -> String {
    let mut out = String::new();
    let share = |ns: u64| {
        if accounted_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / accounted_ns as f64
        }
    };
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>8} {:>10}",
        "layer", "self (ms)", "share", "spans"
    );
    let mut attributed = 0u64;
    for (layer, names) in layers {
        let (ns, spans) = names.iter().fold((0u64, 0u64), |(ns, n), name| {
            let t = totals.get(name).copied().unwrap_or_default();
            (ns + t.self_ns, n + t.spans)
        });
        attributed += ns;
        let _ = writeln!(
            out,
            "{layer:<18} {:>12.3} {:>7.2}% {spans:>10}",
            ns as f64 / 1e6,
            share(ns)
        );
    }
    let rest = accounted_ns.saturating_sub(attributed);
    let _ = writeln!(
        out,
        "{:<18} {:>12.3} {:>7.2}% {:>10}",
        "unattributed",
        rest as f64 / 1e6,
        share(rest),
        "-"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12.3} {:>7.2}%",
        "total",
        accounted_ns as f64 / 1e6,
        share(accounted_ns)
    );
    out
}

/// The `q`-quantile (nearest rank) of `values`; `0` when empty.
#[must_use]
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            device: Some(0),
            parent,
            start_ns,
            dur_ns,
            items: 1,
        }
    }

    /// device(100) ─┬─ build(20)
    ///              ├─ kernel(50) ─┬─ monitor(10, aggregate)
    ///              │              └─ sink(15, aggregate)
    ///              └─ probe(5)
    fn tree() -> Vec<Span> {
        vec![
            span("fleet.device", None, 0, 100),
            span("workload.build", Some(0), 2, 20),
            span("core.kernel", Some(0), 25, 50),
            span("trace.monitor", Some(2), 26, 10),
            span("trace.sink", Some(2), 27, 15),
            span("fleet.probe", Some(0), 80, 5),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&tree()), vec![25, 20, 25, 10, 15, 5]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = tree();
        let sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(sum, spans[0].dur_ns);
    }

    #[test]
    fn self_time_saturates_when_children_outrun_the_parent() {
        let spans = vec![span("p", None, 0, 10), span("c", Some(0), 0, 12)];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    #[should_panic(expected = "not recorded before it")]
    fn forward_parent_is_a_bug() {
        let _ = self_times(&[span("a", Some(1), 0, 1), span("b", None, 0, 1)]);
    }

    #[test]
    fn totals_group_by_name() {
        let mut spans = tree();
        spans.push(span("fleet.device", None, 200, 40));
        let totals = totals_by_name(&spans);
        let device = totals["fleet.device"];
        assert_eq!(device.self_ns, 25 + 40);
        assert_eq!(device.total_ns, 140);
        assert_eq!(device.spans, 2);
        assert_eq!(totals["trace.sink"].self_ns, 15);
    }

    #[test]
    fn layer_table_reports_the_remainder_as_its_own_row() {
        let totals = totals_by_name(&tree());
        let table = layer_table(
            &[
                ("kernel", &["core.kernel"][..]),
                ("trace", &["trace.monitor", "trace.sink"][..]),
            ],
            &totals,
            200,
        );
        // 25 (kernel) + 25 (trace) attributed of 200: 150 left over.
        assert!(table.contains("unattributed"), "{table}");
        let rest = table
            .lines()
            .find(|l| l.starts_with("unattributed"))
            .unwrap();
        assert!(rest.contains("75.00%"), "{rest}");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(quantile(&mut [7], 0.99), 7);
    }

    #[test]
    fn jsonl_line_names_every_field() {
        let line = tree()[3].to_jsonl(3);
        assert_eq!(
            line,
            "{\"id\":3,\"name\":\"trace.monitor\",\"device\":0,\"parent\":2,\"start_ns\":26,\"dur_ns\":10,\"items\":1}"
        );
    }
}
