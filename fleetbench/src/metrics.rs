//! Metric names, units and values, and the result line the benchmark
//! prints last.

use std::collections::BTreeMap;

use simcore::par::ParSpan;

use crate::spans::{quantile, totals_by_name, NameTotals};
use crate::traced::TracedRun;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("devices_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("attempts_per_device", "attempts/device"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every one is
/// emitted on every workload, as zero where the layer is bypassed.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workload.build_s", "s"),
    ("workload.frames", "count"),
    ("workload.ns_per_frame", "ns"),
    ("core.setup_s", "s"),
    ("core.setup_us_per_device", "us"),
    ("core.kernel_s", "s"),
    ("core.kernel_events", "count"),
    ("core.kernel_ns_per_event", "ns"),
    ("detect.calibrate_s", "s"),
    ("detect.cache_hits", "count"),
    ("detect.cache_misses", "count"),
    ("fleet.probe_s", "s"),
    ("fleet.probe_us_per_device", "us"),
    ("fleet.fold_s", "s"),
    ("fleet.fold_pushes", "count"),
    ("fleet.supervisor_s", "s"),
    ("fleet.attempts", "count"),
    ("fleet.retries", "count"),
    ("fleet.failed_attempt_s", "s"),
    ("fleet.useful_ratio", "ratio"),
    ("fleet.checkpoint_s", "s"),
    ("fleet.checkpoint_writes", "count"),
    ("fleet.checkpoint_bytes", "bytes"),
    ("trace.monitor_s", "s"),
    ("trace.monitor_events", "count"),
    ("trace.violations", "count"),
    ("trace.sink_s", "s"),
    ("trace.sink_bytes", "bytes"),
    ("trace.promote_s", "s"),
    ("trace.fleet_log_s", "s"),
    ("par.batches", "count"),
    ("par.busy_s", "s"),
    ("par.idle_s", "s"),
    ("par.efficiency", "ratio"),
    ("device.count", "count"),
    ("device.ms_p50", "ms"),
    ("device.ms_p99", "ms"),
    ("traced.wall_s", "s"),
    ("traced.coverage", "ratio"),
    ("traced.overhead", "ratio"),
    ("traced.unattributed_s", "s"),
    ("traced.serial_s", "s"),
];

/// Rows of the self-time table: each layer and the span names whose
/// self time it owns.
pub const LAYERS: [(&str, &[&str]); 12] = [
    ("workload", &["workload.build"]),
    ("core.setup", &["core.setup"]),
    ("core.kernel", &["core.kernel"]),
    ("trace.monitor", &["trace.monitor"]),
    ("trace.sink", &["trace.sink"]),
    ("trace.promote", &["trace.promote"]),
    ("fleet.probe", &["fleet.probe"]),
    (
        "fleet.supervisor",
        &["fleet.device", "fleet.attempt", "fleet.failed_attempt"],
    ),
    ("fleet.fold", &["fleet.fold", "fleet.finish"]),
    ("trace.fleet_log", &["trace.fleet_log"]),
    ("fleet.checkpoint", &["fleet.checkpoint"]),
    ("detect", &["detect.prepare"]),
];

/// One cold set-up, timed in a fresh process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupProbe {
    /// `FleetSpec::parse` + `validate` + `CohortResources::prepare`.
    pub setup_s: f64,
    /// `CohortResources::prepare` alone.
    pub prepare_s: f64,
    /// Threshold calibrations the cold set-up ran.
    pub misses: u64,
    /// One pass of [`crate::reference`] made right after the set-up in
    /// the same process, seconds; 0 where no pass was made.
    pub reference_s: f64,
}

impl SetupProbe {
    /// The probe as the one line a probe process prints.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "setup {:?} {:?} {} {:?}",
            self.setup_s, self.prepare_s, self.misses, self.reference_s
        )
    }

    /// Parses [`Self::to_line`]'s output.
    ///
    /// # Errors
    ///
    /// Quotes the line when it is not a probe line.
    pub fn from_line(line: &str) -> Result<SetupProbe, String> {
        let bad = || format!("unexpected set-up probe output `{line}`");
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [tag, setup_s, prepare_s, misses, reference_s] = fields[..] else {
            return Err(bad());
        };
        if tag != "setup" {
            return Err(bad());
        }
        Ok(SetupProbe {
            setup_s: setup_s.parse().map_err(|_| bad())?,
            prepare_s: prepare_s.parse().map_err(|_| bad())?,
            misses: misses.parse().map_err(|_| bad())?,
            reference_s: reference_s.parse().map_err(|_| bad())?,
        })
    }
}

/// Wall time the parallel batches kept their workers busy and idle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParTotals {
    /// Σ wall time of every batch, nanoseconds.
    pub wall_ns: u64,
    /// Σ worker busy time, nanoseconds.
    pub busy_ns: u64,
    /// Σ (threads × batch wall − busy), nanoseconds.
    pub idle_ns: u64,
}

impl ParTotals {
    /// Totals over `spans`.
    #[must_use]
    pub fn of(spans: &[ParSpan]) -> ParTotals {
        spans.iter().fold(ParTotals::default(), |t, s| {
            let busy: u64 = s.workers.iter().map(|w| w.busy_ns).sum();
            ParTotals {
                wall_ns: t.wall_ns + s.wall_ns,
                busy_ns: t.busy_ns + busy,
                idle_ns: t.idle_ns + (s.threads as u64 * s.wall_ns).saturating_sub(busy),
            }
        })
    }
}

/// How the traced run's time splits between layers.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Per span-name totals.
    pub totals: BTreeMap<&'static str, NameTotals>,
    /// Parallel batch totals.
    pub par: ParTotals,
    /// Time on the calling thread outside the parallel batches, ns.
    pub serial_ns: u64,
    /// Worker busy time plus serial time: what the layers must explain.
    pub accounted_ns: u64,
    /// Σ self time of every span.
    pub attributed_ns: u64,
}

impl Decomposition {
    /// Decomposes `run`.
    #[must_use]
    pub fn of(run: &TracedRun) -> Decomposition {
        let totals = totals_by_name(&run.spans);
        let par = ParTotals::of(&run.par);
        let serial_ns = run.wall_ns.saturating_sub(par.wall_ns);
        Decomposition {
            attributed_ns: totals.values().map(|t| t.self_ns).sum(),
            totals,
            par,
            serial_ns,
            accounted_ns: par.busy_ns + serial_ns,
        }
    }

    /// Σ self times ÷ (worker busy time + serial time).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        ratio(self.attributed_ns as f64, self.accounted_ns as f64)
    }

    fn get(&self, name: &str) -> NameTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    fn self_s(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n).self_ns).sum::<u64>() as f64 / 1e9
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the middle two for an even count); 0
/// when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Inputs of the per-layer metrics beyond the traced run itself.
#[derive(Debug, Clone, Copy)]
pub struct LayerContext {
    /// Median cold `CohortResources::prepare`, seconds.
    pub calibrate_s: f64,
    /// Calibrations a cold set-up runs.
    pub cold_misses: u64,
    /// Threshold-cache hits during the traced run.
    pub traced_hits: u64,
    /// Median untraced wall time of the timed runs made just before
    /// the traced run, seconds.
    pub untraced_wall_s: f64,
}

/// Every [`PER_LAYER`] metric, in that order.
#[must_use]
pub fn per_layer(
    run: &TracedRun,
    d: &Decomposition,
    ctx: &LayerContext,
) -> Vec<(&'static str, f64)> {
    let devices = d.get("fleet.device").spans as f64;
    let build = d.get("workload.build");
    let kernel = d.get("core.kernel");
    let mut device_ns: Vec<u64> = run
        .spans
        .iter()
        .filter(|s| s.name == "fleet.device")
        .map(|s| s.dur_ns)
        .collect();
    let wall_s = run.wall_ns as f64 / 1e9;
    let values = [
        d.self_s(&["workload.build"]),
        build.items as f64,
        ratio(build.self_ns as f64, build.items as f64),
        d.self_s(&["core.setup"]),
        ratio(d.get("core.setup").self_ns as f64 / 1e3, devices),
        d.self_s(&["core.kernel"]),
        kernel.items as f64,
        ratio(kernel.self_ns as f64, kernel.items as f64),
        ctx.calibrate_s,
        ctx.traced_hits as f64,
        ctx.cold_misses as f64,
        d.self_s(&["fleet.probe"]),
        ratio(d.get("fleet.probe").self_ns as f64 / 1e3, devices),
        d.self_s(&["fleet.fold", "fleet.finish"]),
        d.get("fleet.fold").spans as f64,
        d.self_s(&["fleet.device", "fleet.attempt", "fleet.failed_attempt"]),
        run.attempts as f64,
        run.attempts as f64 - devices,
        d.get("fleet.failed_attempt").total_ns as f64 / 1e9,
        ratio(run.completed as f64, run.attempts as f64),
        d.self_s(&["fleet.checkpoint"]),
        d.get("fleet.checkpoint").spans as f64,
        d.get("fleet.checkpoint").items as f64,
        d.self_s(&["trace.monitor"]),
        d.get("trace.monitor").items as f64,
        run.violations as f64,
        d.self_s(&["trace.sink"]),
        d.get("trace.sink").items as f64,
        d.self_s(&["trace.promote"]),
        d.self_s(&["trace.fleet_log"]),
        run.par.len() as f64,
        d.par.busy_ns as f64 / 1e9,
        d.par.idle_ns as f64 / 1e9,
        ratio(d.par.busy_ns as f64, (d.par.busy_ns + d.par.idle_ns) as f64),
        devices,
        quantile(&mut device_ns, 0.5) as f64 / 1e6,
        quantile(&mut device_ns, 0.99) as f64 / 1e6,
        wall_s,
        d.coverage(),
        ratio(wall_s, ctx.untraced_wall_s),
        d.accounted_ns.saturating_sub(d.attributed_ns) as f64 / 1e9,
        d.serial_ns as f64 / 1e9,
    ];
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .zip(values)
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and each metric
/// with its unit. Non-finite values are written as 0.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    units: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|&(name, value)| {
            let unit = units
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::par::WorkerSpan;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` of `{name}`");
            assert!(seen.insert(*name), "duplicate metric `{name}`");
        }
    }

    #[test]
    fn every_layer_row_names_a_span_the_traced_run_records() {
        let names: Vec<&str> = LAYERS.iter().flat_map(|(_, n)| n.iter().copied()).collect();
        let source = include_str!("traced.rs");
        for name in names {
            assert!(
                source.contains(&format!("\"{name}\"")),
                "`{name}` is never recorded"
            );
        }
    }

    #[test]
    fn setup_probe_line_round_trips() {
        let probe = SetupProbe {
            setup_s: 0.012_345_6,
            prepare_s: 0.011,
            misses: 1,
            reference_s: 0.021,
        };
        assert_eq!(SetupProbe::from_line(&probe.to_line()), Ok(probe));
        assert!(SetupProbe::from_line("setup 1 2").is_err());
        assert!(SetupProbe::from_line("rss 1 2 3").is_err());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn par_totals_count_idle_worker_time() {
        let span = ParSpan {
            threads: 2,
            items: 4,
            wall_ns: 100,
            workers: vec![
                WorkerSpan {
                    worker: 0,
                    items: 3,
                    busy_ns: 100,
                },
                WorkerSpan {
                    worker: 1,
                    items: 1,
                    busy_ns: 40,
                },
            ],
        };
        let t = ParTotals::of(&[span.clone(), span]);
        assert_eq!(
            t,
            ParTotals {
                wall_ns: 200,
                busy_ns: 280,
                idle_ns: 120
            }
        );
    }

    #[test]
    fn result_json_writes_units_and_full_precision() {
        let line = result_json(
            true,
            5,
            0,
            &END_TO_END,
            &[("setup_s", 0.123_456_789), ("devices_per_s", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}, \"devices_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}}}"
        );
    }
}
