//! Shared helpers for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! that regenerates it (see `DESIGN.md` § 4 for the index). The binaries
//! print a human-readable table to stdout and, when `--json <path>` is
//! passed, also write machine-readable rows for `EXPERIMENTS.md`.

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use simcore::json::ToJson;
use std::io::Write;
use std::path::Path;

/// The fixed base seed all experiment binaries derive their randomness
/// from, so printed tables are reproducible run-to-run.
pub const EXPERIMENT_SEED: u64 = 0xDAC_2001;

/// The paper-parameter change-point governor (window 100, 99.5 %
/// confidence, checked every 10 samples).
#[must_use]
pub fn paper_change_point() -> GovernorKind {
    GovernorKind::change_point()
}

/// The four governor columns of Tables 3 and 4, in paper order:
/// ideal, change-point, exponential average, maximum performance.
#[must_use]
pub fn table_governors() -> Vec<(&'static str, GovernorKind)> {
    vec![
        ("Ideal", GovernorKind::Ideal),
        ("Change Point", paper_change_point()),
        ("Exp. Ave.", GovernorKind::ExpAverage { gain: 0.5 }),
        ("Max", GovernorKind::MaxPerformance),
    ]
}

/// A config with the given governor and no DPM (the Table 3/4 setting:
/// DVS in isolation).
#[must_use]
pub fn dvs_only(governor: GovernorKind) -> SystemConfig {
    SystemConfig {
        governor,
        dpm: DpmKind::None,
        ..SystemConfig::default()
    }
}

/// Prints the standard experiment header.
pub fn header(id: &str, caption: &str) {
    println!("== {id} — {caption}");
    println!("   (reproduction of Simunic et al., DAC 2001; synthetic workloads, see DESIGN.md)");
    println!();
}

/// Writes `rows` as pretty JSON to `path`.
///
/// # Panics
///
/// Panics if the file cannot be written — experiment binaries want loud
/// failures, not silent truncation.
pub fn write_json<T: ToJson + ?Sized>(path: &Path, rows: &T) {
    let json = rows.to_json().pretty();
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    f.write_all(json.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\n[json written to {}]", path.display());
}

/// Parses an optional `--json <path>` argument pair from `args`.
#[must_use]
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    flag_value("--json").map(std::path::PathBuf::from)
}

/// Whether the bare flag `name` appears in the process arguments.
#[must_use]
pub fn has_flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

/// Peak resident-set size of this process so far, in MiB, read from the
/// `VmHWM` line of `/proc/self/status`. `VmHWM` is the kernel's
/// high-water mark: it only ever grows over the process lifetime, so a
/// reading taken after a run bounds every earlier moment of it too.
/// Returns `None` where the proc filesystem is unavailable (non-Linux).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Returns the value following `name` in the process arguments, if any.
#[must_use]
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// The `n`-th positional (non-flag) process argument, skipping the
/// `--json`/`--jobs` value pairs the harness binaries share.
#[must_use]
pub fn positional_arg(n: usize) -> Option<String> {
    let mut args = std::env::args().skip(1);
    let mut seen = 0usize;
    while let Some(a) = args.next() {
        if a == "--json" || a == "--jobs" {
            let _ = args.next();
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        if seen == n {
            return Some(a);
        }
        seen += 1;
    }
    None
}

/// Installs the `--jobs N` process argument (if present) as the
/// process-wide parallelism default and returns the resolved job count.
///
/// Every experiment binary calls this first. Results are bit-identical
/// at any job count — the deterministic parallel engine guarantees it —
/// so `--jobs` only changes wall-clock time.
///
/// # Panics
///
/// Panics with a usage message if the `--jobs` value is not a positive
/// integer.
pub fn init_jobs_from_args() -> usize {
    if let Some(v) = flag_value("--jobs") {
        let n: usize = v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("--jobs expects a positive integer, got `{v}`"));
        simcore::par::set_default_jobs(n);
    }
    simcore::par::default_jobs()
}

/// The chaos-sweep harness: randomized fault plans against the full
/// stack, one independent run per seed.
pub mod chaos {
    use faults::FaultSpec;
    use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
    use powermgr::metrics::ModeKey;
    use powermgr::scenario::{Attachments, Workload};
    use simcore::json::ToJson;
    use simcore::par::{par_map_range, Jobs};
    use simcore::rng::SimRng;

    /// The MP3 clip sequence every chaos run decodes.
    pub const LABELS: &str = "ACE";

    /// One seed's sweep outcome.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChaosRow {
        /// The sweep seed (fault plan and workload randomness).
        pub seed: u64,
        /// Total energy for the run, kJ.
        pub energy_kj: f64,
        /// Frames decoded to completion.
        pub frames_completed: u64,
        /// Frames lost to injected network faults.
        pub arrivals_dropped: u64,
        /// Frames shed by the bounded buffer.
        pub frames_dropped: u64,
        /// Fraction of completed frames that missed their deadline.
        pub deadline_miss_ratio: f64,
        /// Frequency-switch retries after injected switch faults.
        pub switch_retries: u64,
        /// Frequency switches abandoned after retry exhaustion.
        pub switch_failures: u64,
        /// Corrupted timing samples rejected by the supervisor.
        pub samples_rejected: u64,
        /// Times the supervisor entered degraded mode.
        pub degraded_entries: u64,
        /// Seconds spent in degraded mode.
        pub degraded_secs: f64,
        /// Invariant violations detected for this seed (0 = healthy).
        pub violations: u64,
    }

    simcore::impl_to_json!(ChaosRow {
        seed,
        energy_kj,
        frames_completed,
        arrivals_dropped,
        frames_dropped,
        deadline_miss_ratio,
        switch_retries,
        switch_failures,
        samples_rejected,
        degraded_entries,
        degraded_secs,
        violations,
    });

    fn chaos_config(spec: FaultSpec) -> SystemConfig {
        SystemConfig::with_faults(
            GovernorKind::quick_change_point(),
            DpmKind::None,
            Some(spec),
        )
    }

    /// Runs one chaos seed and checks the harness invariants: frame
    /// accounting closes, mode residencies sum to the run duration,
    /// energy is finite and non-negative, miss ratios stay in `[0, 1]`,
    /// and a replay with the same seed reproduces the report
    /// byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns the simulation error message if the run itself fails.
    pub fn run_seed(seed: u64) -> Result<ChaosRow, String> {
        let mut rng = SimRng::seed_from(seed).fork("chaos-spec");
        let spec = FaultSpec::randomized(&mut rng);
        let report = Workload::Mp3(LABELS.into())
            .run(&chaos_config(spec.clone()), seed, Attachments::default())
            .map_err(|e| e.to_string())?;

        // Invariant checks (mirrors tests/chaos.rs, but reported not
        // asserted, so one bad seed doesn't hide the rest).
        let mut violations = 0u64;
        let mut trace_rng = SimRng::seed_from(seed).fork("mp3-sequence");
        let generated = workload::mp3::sequence(LABELS, &mut trace_rng)
            .expect("known labels")
            .frames()
            .len() as u64;
        let r = report.robustness.clone();
        if report.frames_completed + r.arrivals_dropped + r.frames_dropped != generated {
            violations += 1;
        }
        let mode_secs: f64 = ModeKey::ALL.iter().map(|&m| report.mode_secs(m)).sum();
        if (mode_secs - report.duration_secs).abs() >= 1.0 {
            violations += 1;
        }
        if !report.total_energy_j().is_finite() || report.total_energy_j() < 0.0 {
            violations += 1;
        }
        if !(0.0..=1.0).contains(&r.deadline_miss_ratio()) {
            violations += 1;
        }
        let replay =
            Workload::Mp3(LABELS.into()).run(&chaos_config(spec), seed, Attachments::default());
        match replay {
            Ok(b) if b.to_json().dump() == report.to_json().dump() => {}
            _ => violations += 1,
        }

        Ok(ChaosRow {
            seed,
            energy_kj: report.total_energy_kj(),
            frames_completed: report.frames_completed,
            arrivals_dropped: r.arrivals_dropped,
            frames_dropped: r.frames_dropped,
            deadline_miss_ratio: r.deadline_miss_ratio(),
            switch_retries: r.switch_retries,
            switch_failures: r.switch_failures,
            samples_rejected: r.samples_rejected,
            degraded_entries: r.degraded_entries,
            degraded_secs: r.degraded_secs,
            violations,
        })
    }

    /// Runs seeds `0..n_seeds` on the deterministic parallel engine.
    /// Results are in seed order and bit-identical at any job count
    /// (each seed's randomness is derived from the seed alone).
    #[must_use]
    pub fn sweep(n_seeds: u64, jobs: Jobs) -> Vec<Result<ChaosRow, String>> {
        par_map_range(jobs, n_seeds as usize, |i| run_seed(i as u64))
    }
}

/// Shared computation for Figures 4 and 5: normalized performance and
/// energy per frame vs CPU frequency.
pub mod perf_energy {
    use hardware::perf::PerformanceCurve;
    use hardware::SmartBadge;
    use powermgr::power::PowerProfile;
    use workload::MediaKind;

    /// One operating point's performance/energy pair.
    #[derive(Debug, Clone, Copy)]
    pub struct Row {
        /// CPU frequency, MHz.
        pub freq_mhz: f64,
        /// Normalized decode performance (1.0 at the top frequency).
        pub performance: f64,
        /// Energy per frame relative to the top frequency:
        /// `(P(f)·t(f)) / (P(f_max)·t(f_max))`.
        pub energy_ratio: f64,
    }

    simcore::impl_to_json!(Row {
        freq_mhz,
        performance,
        energy_ratio,
    });

    /// Computes the rows for one application curve.
    #[must_use]
    pub fn rows(badge: &SmartBadge, curve: &PerformanceCurve, kind: MediaKind) -> Vec<Row> {
        let max = badge.cpu().max_operating_point();
        let p_max = PowerProfile::decode(badge, max, kind, 1.0).total_mw();
        badge
            .cpu()
            .operating_points()
            .iter()
            .map(|&op| {
                let perf = curve.performance_at(op.freq_mhz);
                let p = PowerProfile::decode(badge, op, kind, perf).total_mw();
                Row {
                    freq_mhz: op.freq_mhz,
                    performance: perf,
                    energy_ratio: (p / perf) / p_max,
                }
            })
            .collect()
    }

    /// Prints the rows as the figure's table.
    pub fn print(rows: &[Row]) {
        println!(
            "{:>9} {:>13} {:>13}",
            "f (MHz)", "perf ratio", "energy ratio"
        );
        for r in rows {
            println!(
                "{:>9.1} {:>13.3} {:>13.3}",
                r.freq_mhz, r.performance, r.energy_ratio
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_columns_match_paper_order() {
        let names: Vec<&str> = table_governors().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["Ideal", "Change Point", "Exp. Ave.", "Max"]);
    }

    #[test]
    fn dvs_only_has_no_dpm() {
        let c = dvs_only(GovernorKind::MaxPerformance);
        assert_eq!(c.dpm.label(), "none");
    }

    #[test]
    fn perf_energy_rows_normalize_to_one_at_max() {
        let badge = hardware::SmartBadge::new();
        let curve = hardware::perf::PerformanceCurve::mpeg_on_sdram(badge.cpu());
        let rows = perf_energy::rows(&badge, &curve, workload::MediaKind::MpegVideo);
        let last = rows.last().unwrap();
        assert!((last.performance - 1.0).abs() < 1e-9);
        assert!((last.energy_ratio - 1.0).abs() < 1e-9);
        // DVS rationale: lower frequency means lower energy per frame.
        assert!(rows[0].energy_ratio < 1.0);
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.json");
        write_json(&path, &vec![1, 2, 3]);
        let back = simcore::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, simcore::Json::parse("[1,2,3]").unwrap());
    }
}
