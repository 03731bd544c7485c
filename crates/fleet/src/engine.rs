//! The batched fleet engine: run every device of a [`FleetSpec`] over
//! the deterministic parallel engine and fold the results — in device
//! order, regardless of worker count — into a [`FleetReport`].
//!
//! Determinism invariants (checked by `tests/determinism.rs`,
//! `tests/partial.rs`, and the CI `fleet-determinism` job):
//!
//! * Every device's RNG is a labelled fork of the base seed
//!   ([`FleetSpec::device_seed`]), so no device's stream depends on any
//!   other device or on scheduling. Retry attempts draw from their own
//!   indexed forks ([`FleetSpec::retry_seed`]), so even a retried
//!   device is a pure function of its index.
//! * Devices are mapped with [`par_try_fold_range_batched_by`], which
//!   folds results in strictly ascending index order on the calling
//!   thread — the report is byte-identical at any `jobs` count, while
//!   memory stays bounded by one batch of `SimReport`s rather than the
//!   fleet.
//! * Failures are *contained*: each device attempt runs under
//!   [`catch_unwind`], and both panics and typed simulation errors
//!   become a [`DeviceOutcome::Failed`] handled per the spec's
//!   [`OnError`] policy. Only infrastructure errors (trace or
//!   checkpoint I/O) abort the run.
//! * Change-point calibration is resolved **once per policy** before
//!   the loop starts ([`crate::cohort::CohortResources::prepare`]) and the
//!   shared table handed to every device construction, so the
//!   per-device hot path performs zero threshold-cache traffic. The
//!   calibration itself (bit-identical at any thread count) still goes
//!   through the process-wide [`detect::cache`], so distinct runs in
//!   one process share tables too.
//! * Within a batch, devices are *scheduled* in cohort order
//!   ([`crate::cohort::cohort_key`], the schedule key):
//!   identical-config devices step back-to-back on one worker while
//!   results still land (and fold) in device order.

use std::cell::RefCell;
use std::fs;
use std::io::{BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use powermgr::config::SystemConfig;
use powermgr::scenario::Attachments;
use powermgr::{PmError, SharedResources};
use simcore::json::ToJson;
use simcore::par::{par_try_fold_range_batched_by, Jobs};
use trace::{FleetEvent, JsonlSink, TraceSink};

use crate::accum::FleetAccumulator;
use crate::checkpoint;
use crate::cohort::{self, CohortResources};
use crate::report::{DeviceAssertions, DeviceFailure, DeviceOutcome, DeviceRecord, FleetReport};
use crate::spec::{DeviceAssignment, FleetSpec, OnError};
use crate::FleetError;

/// Devices simulated per parallel wave. Large enough to keep every
/// worker busy, small enough that at most one batch of reports is ever
/// resident before being folded into records.
pub const BATCH: usize = 256;

/// Default checkpoint cadence: a snapshot every this many batches.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 4;

/// Optional engine features beyond the plain spec + jobs run: trace
/// streaming, periodic checkpoints, and resuming from one.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stream traces under this directory: `device_NNNNN.jsonl` per
    /// device plus a fleet-level `fleet.jsonl`.
    pub trace_dir: Option<PathBuf>,
    /// Write resume checkpoints into this directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Batches between checkpoints; `0` means
    /// [`DEFAULT_CHECKPOINT_EVERY`].
    pub checkpoint_every: usize,
    /// Resume from the checkpoint in this directory (no checkpoint file
    /// yet simply starts from device 0).
    pub resume_dir: Option<PathBuf>,
    /// Devices per parallel wave; `0` means [`BATCH`].
    pub batch: usize,
}

/// Runs the fleet and aggregates the report; `opts` adds trace
/// streaming, checkpoints, and resume. With traces, the run writes
/// `device_NNNNN.jsonl` per device (the full simulator event stream)
/// plus `fleet.jsonl` of fleet-level [`FleetEvent`]s.
///
/// The report is a pure function of the spec: running with any `jobs`
/// count, with or without checkpointing, or resumed from any checkpoint
/// prefix produces byte-identical report JSON.
///
/// # Errors
///
/// * [`FleetError::Spec`] — the spec fails validation.
/// * [`FleetError::Device`] — a device failed and the spec says
///   `fail_fast` (the failing device's last error is embedded).
/// * [`FleetError::Checkpoint`] — the resume checkpoint exists but
///   fails verification (foreign spec, corruption, bad version).
/// * [`FleetError::Io`] — trace or checkpoint files cannot be written.
pub fn run_fleet_opts(
    spec: &FleetSpec,
    jobs: Jobs,
    opts: &RunOptions,
) -> Result<FleetReport, FleetError> {
    spec.validate()?;
    if let Some(dir) = &opts.trace_dir {
        fs::create_dir_all(dir).map_err(|e| {
            FleetError::Io(format!("cannot create trace dir {}: {e}", dir.display()))
        })?;
    }

    // Resume: restore the accumulator state and re-run only the
    // remaining devices. Each device is a pure function of the spec and
    // the accumulator folds in device order, so the join is seamless.
    let max_attempts = u64::from(spec.on_error.max_attempts());
    let resumed: FleetAccumulator = match &opts.resume_dir {
        Some(dir) => checkpoint::load_checkpoint(dir, spec)?
            .unwrap_or_else(|| FleetAccumulator::new(spec.policies.len(), max_attempts)),
        None => FleetAccumulator::new(spec.policies.len(), max_attempts),
    };
    let start = usize::try_from(resumed.devices()).expect("device count fits in usize");

    // Resolve each policy's shared threshold table once, before any
    // device runs: the per-device hot path then performs zero cache
    // traffic, and cohorts of identical-config devices share one table.
    let cohorts = CohortResources::prepare(spec);

    let every = if opts.checkpoint_every == 0 {
        DEFAULT_CHECKPOINT_EVERY
    } else {
        opts.checkpoint_every
    };
    let batch = if opts.batch == 0 { BATCH } else { opts.batch };
    let mut batches = 0usize;
    let trace_dir = opts.trace_dir.as_deref();

    // The fleet log streams during the fold. Both the fold and the
    // after-batch closure run on the calling thread, so a `RefCell`
    // hands the single `&mut` between them without locking. A resumed
    // run's log covers only the devices it actually ran.
    let fleet_log: RefCell<Option<FleetLog>> = RefCell::new(match trace_dir {
        Some(dir) => Some(FleetLog::create(dir, spec)?),
        None => None,
    });

    // Map devices in parallel batches; the fold arrives in ascending
    // device order, so the accumulator (and everything derived from it)
    // is independent of the worker count — and each outcome is dropped
    // as soon as it is folded, so memory no longer grows with the fleet.
    // The schedule key groups each batch into cohorts: identical-config
    // devices step consecutively on one worker (their shared tables
    // stay hot) without perturbing result slots or fold order.
    let run = || -> Result<FleetAccumulator, FleetError> {
        let acc = par_try_fold_range_batched_by(
            jobs,
            start..spec.devices,
            batch,
            |i| cohort::cohort_key(spec, i),
            |i| supervised_run(spec, i, trace_dir, &cohorts),
            resumed,
            |mut acc: FleetAccumulator, _i, result| {
                let outcome = result?;
                if spec.on_error == OnError::FailFast {
                    if let DeviceOutcome::Failed(f) = &outcome {
                        return Err(FleetError::Device {
                            device: f.device,
                            attempts: f.attempts,
                            error: f.error.clone(),
                        });
                    }
                }
                if let Some(log) = fleet_log.borrow_mut().as_mut() {
                    log.outcome(&outcome)?;
                }
                acc.push(outcome);
                Ok(acc)
            },
            |acc, _next| {
                batches += 1;
                if let Some(dir) = &opts.checkpoint_dir {
                    let done = usize::try_from(acc.devices()).expect("fits in usize");
                    if batches.is_multiple_of(every) && done < spec.devices {
                        checkpoint::write_checkpoint(dir, spec, acc)?;
                        if let Some(log) = fleet_log.borrow_mut().as_mut() {
                            log.checkpoint(acc.devices())?;
                        }
                    }
                }
                Ok(())
            },
        )?;

        // A final checkpoint covering the whole fleet, so resuming a
        // completed run replays nothing.
        if let Some(dir) = &opts.checkpoint_dir {
            checkpoint::write_checkpoint(dir, spec, &acc)?;
            if let Some(log) = fleet_log.borrow_mut().as_mut() {
                log.checkpoint(acc.devices())?;
            }
        }
        Ok(acc)
    };
    let result = run();

    match result {
        Ok(acc) => {
            if let Some(log) = fleet_log.into_inner() {
                log.finish(acc.completed)?;
            }
            Ok(acc.finish(&spec.name, spec.base_seed, &spec.on_error.to_string()))
        }
        Err(e) => {
            // Scrub the half-written log so no truncated
            // `fleet.jsonl.tmp` outlives a failed run.
            if let Some(log) = fleet_log.into_inner() {
                log.abandon();
            }
            Err(e)
        }
    }
}

/// Runs a single device of the fleet exactly as the engine would —
/// supervised, deterministically retried per the spec's failure policy
/// — and returns its outcome. This is the engine's unit of work,
/// exposed so tools (and tests) can stream outcomes through their own
/// [`FleetAccumulator`].
///
/// This is the *per-device reference path*: no cohort pre-resolution,
/// every construction goes through the threshold cache itself. The
/// engine's cohort path is held byte-equal to it by
/// `tests/soa_differential.rs`.
///
/// # Errors
///
/// [`FleetError::Spec`] for an invalid spec or out-of-range device
/// index; device failures are *contained* in the returned
/// [`DeviceOutcome::Failed`], never surfaced as `Err`.
pub fn run_device(spec: &FleetSpec, device: usize) -> Result<DeviceOutcome, FleetError> {
    spec.validate()?;
    if device >= spec.devices {
        return Err(FleetError::Spec(format!(
            "device {device} is out of range for a {}-device fleet",
            spec.devices
        )));
    }
    supervised_run(spec, device, None, &CohortResources::default())
}

/// How one device attempt ended, seen from the supervisor.
enum AttemptError {
    /// The simulation itself failed (typed error or caught panic);
    /// retryable and containable.
    Contained(String),
    /// Infrastructure failed (trace I/O); never retried, always fatal.
    Fatal(FleetError),
}

/// Supervises one device: run it under [`catch_unwind`], retrying on
/// deterministically forked seeds up to the policy's attempt budget,
/// and condense the result into a [`DeviceOutcome`]. Only
/// infrastructure (I/O) failures escape as errors.
fn supervised_run(
    spec: &FleetSpec,
    device: usize,
    trace_dir: Option<&Path>,
    cohorts: &CohortResources,
) -> Result<DeviceOutcome, FleetError> {
    let a = spec.assignment(device);
    let shared = cohorts.for_policy(a.policy_index);
    let max_attempts = spec.on_error.max_attempts();
    let mut last_error = String::new();
    let mut last_seed = a.seed;
    for attempt in 1..=max_attempts {
        // Attempt 1 runs the regular device seed; retries fork fresh,
        // collision-free streams that depend only on (device, attempt).
        let seed = spec.retry_seed(device, attempt - 1);
        last_seed = seed;
        let attempted = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(
                &a,
                seed,
                u64::from(attempt),
                trace_dir,
                shared,
                spec.assertions.as_ref(),
            )
        }));
        match attempted {
            Ok(Ok(record)) => return Ok(DeviceOutcome::Completed(record)),
            Ok(Err(AttemptError::Fatal(e))) => return Err(e),
            Ok(Err(AttemptError::Contained(msg))) => last_error = msg,
            Err(payload) => last_error = format!("panic: {}", panic_message(&*payload)),
        }
        // A failed attempt may leave a partial trace temp file behind;
        // scrub it so retries (and final failure) stay crash-safe.
        if let Some(dir) = trace_dir {
            fs::remove_file(trace_tmp_path(dir, device)).ok();
        }
    }
    Ok(DeviceOutcome::Failed(DeviceFailure {
        device: device as u64,
        seed: last_seed,
        workload: a.workload.to_string(),
        policy: a.policy_index as u64,
        governor: a.policy.governor.label().to_string(),
        dpm: a.policy.dpm.label().to_string(),
        faults: a.faults.to_string(),
        attempts: u64::from(max_attempts),
        error: last_error,
    }))
}

/// Best-effort panic payload rendering: `&str` and `String` payloads
/// (what `panic!` produces) come through verbatim.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// The final per-device trace path and the temp path it is staged at.
fn trace_path(dir: &Path, device: usize) -> PathBuf {
    dir.join(format!("device_{device:05}.jsonl"))
}

fn trace_tmp_path(dir: &Path, device: usize) -> PathBuf {
    dir.join(format!("device_{device:05}.jsonl.tmp"))
}

/// Runs one attempt of one device: resolve its config (fault spec
/// derivation is seed-dependent, so this happens per attempt inside the
/// supervisor's `catch_unwind`), run its workload from the cohort's
/// pre-resolved shared resources, and condense the
/// [`powermgr::SimReport`] plus the detection probe into a
/// [`DeviceRecord`]. Empty `shared` resources (the reference path)
/// resolve through the threshold cache per construction instead —
/// byte-identical either way.
fn run_attempt(
    a: &DeviceAssignment<'_>,
    seed: u64,
    attempt: u64,
    trace_dir: Option<&Path>,
    shared: &SharedResources,
    assertions: Option<&trace::AssertionConfig>,
) -> Result<DeviceRecord, AttemptError> {
    let config = device_config(a, seed);
    let sim_err = |e: PmError| AttemptError::Contained(e.to_string());

    // A fresh monitor per attempt: verdicts never bleed across retries.
    // The spec validator vetted the config, so construction failing here
    // is an engine bug, not a device fault — fatal, never retried.
    let mut monitor = match assertions {
        None => None,
        Some(cfg) => Some(
            trace::AssertionMonitor::new(cfg)
                .map_err(|e| AttemptError::Fatal(FleetError::Spec(e)))?,
        ),
    };

    let report = match trace_dir {
        None => a
            .workload
            .run(
                &config,
                seed,
                Attachments {
                    shared: Some(shared),
                    sink: None,
                    monitor: monitor.as_mut(),
                },
            )
            .map_err(sim_err)?,
        Some(dir) => {
            // Stage the trace at a temp path and rename only on
            // success: an interrupted or failed attempt never leaves a
            // truncated `device_NNNNN.jsonl` for `tracecat replay
            // --check` to trip over.
            let path = trace_path(dir, a.device);
            let tmp = trace_tmp_path(dir, a.device);
            let io_err = |what: &str, p: &Path, e: std::io::Error| {
                AttemptError::Fatal(FleetError::Io(format!("{what} {}: {e}", p.display())))
            };
            let file = fs::File::create(&tmp).map_err(|e| io_err("cannot create", &tmp, e))?;
            let mut sink = JsonlSink::new(BufWriter::new(file));
            let report = a
                .workload
                .run(
                    &config,
                    seed,
                    Attachments {
                        shared: Some(shared),
                        sink: Some(&mut sink),
                        monitor: monitor.as_mut(),
                    },
                )
                .map_err(sim_err)?;
            sink.finish().map_err(|e| {
                AttemptError::Fatal(FleetError::Io(format!(
                    "trace write to {} failed: {e}",
                    tmp.display()
                )))
            })?;
            // Sync before promoting: a rename can hit disk before the
            // file contents, so an unsynced promote could survive a
            // crash as a valid-looking truncated trace.
            let file = sink
                .into_inner()
                .into_inner()
                .map_err(|e| io_err("cannot flush", &tmp, e.into_error()))?;
            file.sync_all()
                .map_err(|e| io_err("cannot sync", &tmp, e))?;
            trace::durable::promote(&tmp, &path).map_err(|e| io_err("cannot rename", &tmp, e))?;
            report
        }
    };

    let offered = report.frames_completed
        + report.robustness.arrivals_dropped
        + report.robustness.frames_dropped;
    let dropped = report.robustness.arrivals_dropped + report.robustness.frames_dropped;
    let drop_rate = if offered == 0 {
        0.0
    } else {
        dropped as f64 / offered as f64
    };

    Ok(DeviceRecord {
        device: a.device as u64,
        seed,
        workload: a.workload.to_string(),
        policy: a.policy_index as u64,
        governor: config.governor.label().to_string(),
        dpm: config.dpm.label().to_string(),
        faults: a.faults.to_string(),
        attempts: attempt,
        energy_kj: report.total_energy_kj(),
        mean_delay_s: report.mean_frame_delay_s(),
        drop_rate,
        detection_latency_frames: cohort::probe_detection_latency(&config.governor, seed, shared)
            .map_err(AttemptError::Contained)?,
        frames_completed: report.frames_completed,
        duration_secs: report.duration_secs,
        deadline_miss_ratio: report.robustness.deadline_miss_ratio(),
        assertions: report.assertions.map(|r| DeviceAssertions::from_report(&r)),
    })
}

/// Expands a device assignment into the full [`SystemConfig`],
/// mirroring the single-device CLI ([`SystemConfig::with_faults`]). The
/// fault spec derives from the attempt seed, so a retried flaky device
/// re-rolls its failure.
fn device_config(a: &DeviceAssignment<'_>, seed: u64) -> SystemConfig {
    SystemConfig::with_faults(
        a.policy.governor.clone(),
        a.policy.dpm.clone(),
        a.faults.spec(seed),
    )
}

/// Streams `fleet.jsonl` as the fold progresses — start, one
/// start/done-or-failed pair per device in device order, checkpoint
/// markers at their true positions, done — staged at a temp path and
/// promoted durably (fsync + rename + directory fsync) on success, so
/// a crash or failed run never leaves a valid-looking truncated log.
struct FleetLog {
    out: BufWriter<fs::File>,
    tmp: PathBuf,
    path: PathBuf,
}

impl FleetLog {
    fn create(dir: &Path, spec: &FleetSpec) -> Result<FleetLog, FleetError> {
        let path = dir.join("fleet.jsonl");
        let tmp = dir.join("fleet.jsonl.tmp");
        let file = fs::File::create(&tmp)
            .map_err(|e| FleetError::Io(format!("cannot create {}: {e}", tmp.display())))?;
        let mut log = FleetLog {
            out: BufWriter::new(file),
            tmp,
            path,
        };
        log.push(&FleetEvent::FleetStart {
            name: spec.name.clone(),
            devices: spec.devices as u64,
            base_seed: spec.base_seed,
        })?;
        Ok(log)
    }

    fn push(&mut self, event: &FleetEvent) -> Result<(), FleetError> {
        let mut line = event.to_json().dump();
        line.push('\n');
        self.out
            .write_all(line.as_bytes())
            .map_err(|e| FleetError::Io(format!("cannot write {}: {e}", self.tmp.display())))
    }

    fn outcome(&mut self, outcome: &DeviceOutcome) -> Result<(), FleetError> {
        match outcome {
            DeviceOutcome::Completed(r) => {
                self.push(&FleetEvent::DeviceStart {
                    device: r.device,
                    seed: r.seed,
                    workload: r.workload.clone(),
                    governor: r.governor.clone(),
                    dpm: r.dpm.clone(),
                    faults: r.faults.clone(),
                })?;
                self.push(&FleetEvent::DeviceDone {
                    device: r.device,
                    frames_completed: r.frames_completed,
                    energy_j: r.energy_kj * 1000.0,
                    mean_delay_s: r.mean_delay_s,
                })
            }
            DeviceOutcome::Failed(f) => {
                self.push(&FleetEvent::DeviceStart {
                    device: f.device,
                    seed: f.seed,
                    workload: f.workload.clone(),
                    governor: f.governor.clone(),
                    dpm: f.dpm.clone(),
                    faults: f.faults.clone(),
                })?;
                self.push(&FleetEvent::DeviceFailed {
                    device: f.device,
                    seed: f.seed,
                    attempts: f.attempts,
                    error: f.error.clone(),
                })
            }
        }
    }

    fn checkpoint(&mut self, done: u64) -> Result<(), FleetError> {
        self.push(&FleetEvent::FleetCheckpoint { done })
    }

    fn finish(mut self, completed: u64) -> Result<(), FleetError> {
        self.push(&FleetEvent::FleetDone { devices: completed })?;
        let FleetLog { out, tmp, path } = self;
        let io_err = |what: &str, p: &Path, e: String| {
            FleetError::Io(format!("{what} {}: {e}", p.display()))
        };
        let file = out
            .into_inner()
            .map_err(|e| io_err("cannot flush", &tmp, e.to_string()))?;
        file.sync_all()
            .map_err(|e| io_err("cannot sync", &tmp, e.to_string()))?;
        trace::durable::promote(&tmp, &path)
            .map_err(|e| io_err("cannot rename", &tmp, e.to_string()))
    }

    fn abandon(self) {
        let FleetLog { out, tmp, .. } = self;
        drop(out);
        let _ = fs::remove_file(&tmp);
    }
}
