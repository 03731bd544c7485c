//! The benchmark's workloads: each one is a fleet spec (generated from
//! the workload seed), a worker count, and the engine options it runs
//! with.

use std::path::Path;

use fleet::RunOptions;
use simcore::par::available_jobs;

/// Every workload name, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["paper_mix", "short_mp3", "ops_traced"];

/// Streaming invariants of `ops_traced`: the `assertions` block of the
/// repository's golden monitored fleet (`fleet_assert_8dev_spec.json`).
const ASSERTIONS: &str = r#"{
    "delay": { "bound_s": 0.2, "tolerance": 4.0 },
    "oscillation": { "max_switches": 16, "window_s": 1.0 },
    "occupancy": { "max": 64 },
    "energy_monotone": true
}"#;

/// Workers of the parallel workloads: one core is left to the rest of
/// the host, and at most four are used. On a shared host every worker
/// waits at the batch barrier for the slowest core, so a fleet that
/// fills every core measures its neighbours' load; on two cores this is
/// one worker.
fn wide_jobs() -> usize {
    available_jobs().saturating_sub(1).clamp(1, 4)
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Fleet spec JSON; parsing it is part of the timed set-up.
    pub spec_json: String,
    /// Worker threads the fleet runs on.
    pub jobs: usize,
    /// `true` when the run streams traces and checkpoints after every
    /// batch (`ops_traced`).
    pub io: bool,
}

impl Workload {
    /// The workload `name` at `seed`. `devices` overrides the fleet
    /// size (tests run tiny fleets) and `jobs` the worker count.
    ///
    /// # Errors
    ///
    /// Names the known workloads when `name` is not one of them.
    pub fn new(
        name: &str,
        seed: u64,
        devices: Option<usize>,
        jobs: Option<usize>,
    ) -> Result<Workload, String> {
        let wide = wide_jobs();
        let (name, default_devices, default_jobs, io, body) = match name {
            // Long devices (~30k frames on average) under the four
            // Table 5 policies.
            "paper_mix" => (
                NAMES[0],
                96,
                wide,
                false,
                r#""workloads": ["session", "mpeg:football", "mp3:ACEFBD"],
                "policies": [
                    { "governor": "change-point", "dpm": "break-even" },
                    { "governor": "ideal", "dpm": "tismdp" },
                    { "governor": "ema:0.05", "dpm": "timeout:1.0" },
                    { "governor": "max", "dpm": "none" }
                ],
                "faults": ["off"]"#
                    .to_string(),
            ),
            // The `bench_fleet` spec: short devices (~3.8k frames) at
            // one worker, with no scheduler in the way.
            "short_mp3" => (
                NAMES[1],
                1000,
                1,
                false,
                r#""workloads": ["mp3:A"],
                "policies": [
                    { "governor": "change-point", "dpm": "break-even" },
                    { "governor": "ema:0.05", "dpm": "timeout:1.0" },
                    { "governor": "max", "dpm": "none" }
                ],
                "faults": ["off"]"#
                    .to_string(),
            ),
            // Monitors, faults, retries, trace and checkpoint I/O. The
            // mistuned `ema:0.9`/`timeout:0.01` cohort trips real
            // violations; `flaky:10` dooms a tenth of its attempts.
            "ops_traced" => (
                NAMES[2],
                54,
                wide,
                true,
                format!(
                    r#""workloads": ["mp3:A", "mp3:BD"],
                    "policies": [
                        {{ "governor": "change-point", "dpm": "break-even" }},
                        {{ "governor": "ema:0.05", "dpm": "timeout:1.0" }},
                        {{ "governor": "ema:0.9", "dpm": "timeout:0.01" }}
                    ],
                    "faults": ["off", "wlan", "flaky:10"],
                    "on_error": "retry:8",
                    "assertions": {ASSERTIONS}"#
                ),
            ),
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of {})",
                    NAMES.join(", ")
                ))
            }
        };
        let devices = devices.unwrap_or(default_devices);
        Ok(Workload {
            name,
            spec_json: format!(
                "{{\"name\": \"{name}\", \"devices\": {devices}, \"base_seed\": {seed}, {body}}}"
            ),
            jobs: jobs.unwrap_or(default_jobs),
            io,
        })
    }

    /// Engine options for a run whose files go under `dir`: traces in
    /// `dir/trace` and a checkpoint after every batch in `dir/ckpt` for
    /// `ops_traced`, nothing for the others.
    #[must_use]
    pub fn options(&self, dir: &Path) -> RunOptions {
        if self.io {
            RunOptions {
                trace_dir: Some(dir.join("trace")),
                checkpoint_dir: Some(dir.join("ckpt")),
                checkpoint_every: 1,
                ..RunOptions::default()
            }
        } else {
            RunOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_parses_and_carries_the_seed() {
        for name in NAMES {
            let w = Workload::new(name, 7, None, None).unwrap();
            let spec = fleet::FleetSpec::parse(&w.spec_json).unwrap();
            assert_eq!(spec.base_seed, 7, "{name}");
            assert_eq!(spec.name, name);
        }
    }

    #[test]
    fn short_mp3_is_the_bench_fleet_spec_at_one_worker() {
        let w = Workload::new("short_mp3", bench::EXPERIMENT_SEED, None, None).unwrap();
        let spec = fleet::FleetSpec::parse(&w.spec_json).unwrap();
        assert_eq!(w.jobs, 1);
        assert_eq!(spec.devices, 1000);
        assert_eq!(spec.workloads.len(), 1);
        assert_eq!(spec.policies.len(), 3);
    }

    #[test]
    fn ops_traced_monitors_retries_and_writes_files() {
        let w = Workload::new("ops_traced", 1, None, None).unwrap();
        let spec = fleet::FleetSpec::parse(&w.spec_json).unwrap();
        assert!(spec.assertions.is_some());
        assert_eq!(spec.on_error, fleet::OnError::Retry(8));
        let opts = w.options(Path::new("x"));
        assert!(opts.trace_dir.is_some() && opts.checkpoint_dir.is_some());
        assert_eq!(opts.checkpoint_every, 1);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(Workload::new("nope", 1, None, None).is_err());
    }
}
