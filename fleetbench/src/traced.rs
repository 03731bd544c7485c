//! The traced run: the fleet engine's loop rebuilt from public pieces,
//! with a span around every call into a layer.
//!
//! [`run_traced`] drives the same `par_try_fold_range_batched_by` loop
//! as `fleet::run_fleet_opts` — same batch size, same `cohort_key`
//! schedule, same worker count — but its per-device closure calls each
//! layer's public function itself, in the engine's order:
//!
//! 1. the supervisor's retry ladder (`FleetSpec::retry_seed`,
//!    `catch_unwind`) around every attempt;
//! 2. the device config (`FaultPreset::spec`, the default supervisor
//!    and a 64-frame buffer when faults are on);
//! 3. `Workload::build`, then `SystemSimulator::new_shared` (or
//!    `new_traced_shared` with a [`TimedSink`]) and `run_counted`;
//! 4. `JsonlSink` finish, `sync_all` and `trace::durable::promote`;
//! 5. `probe_detection_latency`;
//!
//! and on the calling thread folds each outcome into a
//! `FleetAccumulator`, writes `fleet.jsonl` and checkpoints between
//! batches. The engine's report bytes must come out unchanged; the
//! benchmark fails otherwise.
//!
//! The assertion monitor and the JSONL sink run inside the simulator's
//! event loop. They are timed through [`TimedSink`], a sink owned by
//! this module that forwards each event to the monitor and then to the
//! JSONL sink (the order the simulator itself uses), timing every call.
//! The monitor is therefore never attached to the simulator, and the
//! device record's assertion counts come from the monitor's own report.

use std::cell::{Cell, RefCell};
use std::fs;
use std::io::{BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use fleet::engine::{BATCH, DEFAULT_CHECKPOINT_EVERY};
use fleet::{
    checkpoint, cohort_key, probe_detection_latency, CohortResources, DeviceAssertions,
    DeviceAssignment, DeviceFailure, DeviceOutcome, DeviceRecord, FleetAccumulator, FleetError,
    FleetReport, FleetSpec, OnError, RunOptions,
};
use powermgr::config::{SupervisorConfig, SystemConfig};
use powermgr::{PmError, SharedResources, SystemSimulator};
use simcore::json::ToJson;
use simcore::par::{par_try_fold_range_batched_by, Jobs, ParSpan};
use trace::{AssertionMonitor, Event, FleetEvent, JsonlSink, TraceSink};

use crate::spans::Span;

/// Frame buffer paired with fault presets; the engine's value.
const FAULT_BUFFER_FRAMES: usize = 64;

/// Marks a span that has been opened but not yet closed.
const OPEN: u64 = u64::MAX;

/// What one traced fleet run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// The fleet report.
    pub report: FleetReport,
    /// `report.to_json_pretty()`, compared with the engine's bytes.
    pub bytes: String,
    /// Every span, parents before children.
    pub spans: Vec<Span>,
    /// Profiles of the parallel batches (one per batch).
    pub par: Vec<ParSpan>,
    /// Wall time of the whole traced run, nanoseconds.
    pub wall_ns: u64,
    /// Attempts made, retries included.
    pub attempts: u64,
    /// Devices that completed.
    pub completed: u64,
    /// Assertion violations over all completed devices.
    pub violations: u64,
}

/// Nanoseconds since the traced run began; shared by every thread.
#[derive(Debug, Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn now(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX - 1)
    }
}

/// A list of spans being recorded on one thread.
#[derive(Debug)]
struct Recorder {
    clock: Clock,
    device: Option<u64>,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(clock: Clock, device: Option<u64>) -> Recorder {
        Recorder {
            clock,
            device,
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            device: self.device,
            parent,
            start_ns: self.clock.now(),
            dur_ns: OPEN,
            items: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize, items: u64) {
        let now = self.clock.now();
        let s = &mut self.spans[span];
        s.dur_ns = now.saturating_sub(s.start_ns);
        s.items = items;
    }

    /// Closes `span` and every span opened after it that an early
    /// return or a panic left open.
    fn close_from(&mut self, span: usize) {
        for i in span..self.spans.len() {
            if self.spans[i].dur_ns == OPEN {
                self.close(i, 0);
            }
        }
    }

    /// Records an aggregate child of `parent` (see [`crate::spans`]).
    fn aggregate(&mut self, name: &'static str, parent: usize, dur_ns: u64, items: u64) -> usize {
        self.spans.push(Span {
            name,
            device: self.device,
            parent: Some(parent),
            start_ns: self.spans[parent].start_ns,
            dur_ns,
            items,
        });
        self.spans.len() - 1
    }

    /// Appends another recorder's spans, rebasing their parent indices.
    fn append(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Forwards each simulator event to the assertion monitor and then to
/// the JSONL sink, timing each call.
struct TimedSink<'a> {
    monitor: Option<&'a mut AssertionMonitor>,
    jsonl: Option<&'a mut JsonlSink<BufWriter<fs::File>>>,
    monitor_ns: u64,
    monitor_calls: u64,
    sink_ns: u64,
}

impl TraceSink for TimedSink<'_> {
    fn record(&mut self, event: &Event) {
        if let Some(monitor) = self.monitor.as_mut() {
            let t0 = Instant::now();
            monitor.observe(event);
            self.monitor_ns += t0.elapsed().as_nanos() as u64;
            self.monitor_calls += 1;
        }
        if let Some(sink) = self.jsonl.as_mut() {
            let t0 = Instant::now();
            sink.record(event);
            self.sink_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

/// How one attempt ended, seen from the supervisor.
enum AttemptError {
    /// The simulation failed; retryable.
    Contained(String),
    /// Trace I/O failed; aborts the run.
    Fatal(FleetError),
}

/// The engine's device config: fault presets bring the default
/// supervisor and a bounded buffer. Fault specs derive from the attempt
/// seed, so a retried flaky device re-rolls.
fn device_config(a: &DeviceAssignment<'_>, seed: u64) -> SystemConfig {
    let faults = a.faults.spec(seed);
    let (supervisor, buffer_capacity) = if faults.is_some() {
        (Some(SupervisorConfig::default()), Some(FAULT_BUFFER_FRAMES))
    } else {
        (None, None)
    };
    SystemConfig {
        governor: a.policy.governor.clone(),
        dpm: a.policy.dpm.clone(),
        faults,
        supervisor,
        buffer_capacity,
        ..SystemConfig::default()
    }
}

fn trace_path(dir: &Path, device: usize) -> PathBuf {
    dir.join(format!("device_{device:05}.jsonl"))
}

fn trace_tmp_path(dir: &Path, device: usize) -> PathBuf {
    dir.join(format!("device_{device:05}.jsonl.tmp"))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// One attempt of one device, with a span around each layer call.
#[allow(clippy::too_many_arguments)]
fn traced_attempt(
    a: &DeviceAssignment<'_>,
    seed: u64,
    attempt: u64,
    trace_dir: Option<&Path>,
    shared: &SharedResources,
    assertions: Option<&trace::AssertionConfig>,
    rec: &mut Recorder,
    parent: usize,
) -> Result<DeviceRecord, AttemptError> {
    let span = rec.open("core.setup", Some(parent));
    let config = device_config(a, seed);
    rec.close(span, 0);
    let sim_err = |e: PmError| AttemptError::Contained(e.to_string());
    let io_err = |what: &str, p: &Path, e: std::io::Error| {
        AttemptError::Fatal(FleetError::Io(format!("{what} {}: {e}", p.display())))
    };

    let mut monitor = match assertions {
        None => None,
        Some(cfg) => {
            Some(AssertionMonitor::new(cfg).map_err(|e| AttemptError::Fatal(FleetError::Spec(e)))?)
        }
    };
    let mut file_sink = match trace_dir {
        None => None,
        Some(dir) => {
            let tmp = trace_tmp_path(dir, a.device);
            let file = fs::File::create(&tmp).map_err(|e| io_err("cannot create", &tmp, e))?;
            Some((
                JsonlSink::new(BufWriter::new(file)),
                tmp,
                trace_path(dir, a.device),
            ))
        }
    };

    let span = rec.open("workload.build", Some(parent));
    let trace = a.workload.build(seed).map_err(sim_err)?;
    rec.close(span, trace.frames().len() as u64);

    let (report, kernel, monitor_ns, monitor_calls, sink_ns) = {
        let mut timed = TimedSink {
            monitor: monitor.as_mut(),
            jsonl: file_sink.as_mut().map(|(sink, _, _)| sink),
            monitor_ns: 0,
            monitor_calls: 0,
            sink_ns: 0,
        };
        let observed = timed.monitor.is_some() || timed.jsonl.is_some();
        let span = rec.open("core.setup", Some(parent));
        let sim = if observed {
            SystemSimulator::new_traced_shared(&trace, config.clone(), seed, shared, &mut timed)
        } else {
            SystemSimulator::new_shared(&trace, config.clone(), seed, shared)
        }
        .map_err(sim_err)?;
        rec.close(span, 0);
        let kernel = rec.open("core.kernel", Some(parent));
        let (report, events) = sim.run_counted(trace.end()).map_err(sim_err)?;
        rec.close(kernel, events);
        (
            report,
            kernel,
            timed.monitor_ns,
            timed.monitor_calls,
            timed.sink_ns,
        )
    };
    if monitor.is_some() {
        rec.aggregate("trace.monitor", kernel, monitor_ns, monitor_calls);
    }

    if let Some((mut sink, tmp, path)) = file_sink {
        let sink_span = rec.aggregate("trace.sink", kernel, sink_ns, 0);
        let span = rec.open("trace.promote", Some(parent));
        sink.finish().map_err(|e| {
            AttemptError::Fatal(FleetError::Io(format!(
                "trace write to {} failed: {e}",
                tmp.display()
            )))
        })?;
        let file = sink
            .into_inner()
            .into_inner()
            .map_err(|e| io_err("cannot flush", &tmp, e.into_error()))?;
        file.sync_all()
            .map_err(|e| io_err("cannot sync", &tmp, e))?;
        trace::durable::promote(&tmp, &path).map_err(|e| io_err("cannot rename", &tmp, e))?;
        rec.close(span, 0);
        rec.spans[sink_span].items = fs::metadata(&path).map_or(0, |m| m.len());
    }

    let offered = report.frames_completed
        + report.robustness.arrivals_dropped
        + report.robustness.frames_dropped;
    let dropped = report.robustness.arrivals_dropped + report.robustness.frames_dropped;
    let drop_rate = if offered == 0 {
        0.0
    } else {
        dropped as f64 / offered as f64
    };

    let span = rec.open("fleet.probe", Some(parent));
    let detection_latency_frames =
        probe_detection_latency(&config.governor, seed, shared).map_err(AttemptError::Contained)?;
    rec.close(span, 0);

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
        detection_latency_frames,
        frames_completed: report.frames_completed,
        duration_secs: report.duration_secs,
        deadline_miss_ratio: report.robustness.deadline_miss_ratio(),
        assertions: monitor
            .as_ref()
            .map(|m| DeviceAssertions::from_report(&m.report())),
    })
}

/// One supervised device: the retry ladder around [`traced_attempt`].
/// Failed attempts are renamed `fleet.failed_attempt`.
fn traced_device(
    spec: &FleetSpec,
    device: usize,
    trace_dir: Option<&Path>,
    cohorts: &CohortResources,
    clock: Clock,
) -> (Result<DeviceOutcome, FleetError>, Vec<Span>) {
    let mut rec = Recorder::new(clock, Some(device as u64));
    let root = rec.open("fleet.device", None);
    let a = spec.assignment(device);
    let shared = cohorts.for_policy(a.policy_index);
    let max_attempts = spec.on_error.max_attempts();
    let mut last_error = String::new();
    let mut last_seed = a.seed;
    let mut outcome = None;
    for attempt in 1..=max_attempts {
        let seed = spec.retry_seed(device, attempt - 1);
        last_seed = seed;
        let span = rec.open("fleet.attempt", Some(root));
        let attempted = catch_unwind(AssertUnwindSafe(|| {
            traced_attempt(
                &a,
                seed,
                u64::from(attempt),
                trace_dir,
                shared,
                spec.assertions.as_ref(),
                &mut rec,
                span,
            )
        }));
        rec.close_from(span);
        match attempted {
            Ok(Ok(record)) => {
                outcome = Some(Ok(DeviceOutcome::Completed(record)));
                break;
            }
            Ok(Err(AttemptError::Fatal(e))) => {
                outcome = Some(Err(e));
                break;
            }
            Ok(Err(AttemptError::Contained(msg))) => last_error = msg,
            Err(payload) => last_error = format!("panic: {}", panic_message(&*payload)),
        }
        rec.spans[span].name = "fleet.failed_attempt";
        if let Some(dir) = trace_dir {
            fs::remove_file(trace_tmp_path(dir, device)).ok();
        }
    }
    let outcome = outcome.unwrap_or_else(|| {
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
    });
    rec.close(root, 0);
    (outcome, rec.spans)
}

/// Runs `spec` as `fleet::run_fleet_opts(spec, jobs, opts)` would,
/// recording spans, and returns the report with the trace.
///
/// The batches' worker profiles come from `simcore::par`'s profiling,
/// which is process-wide: no other parallel loop may run meanwhile.
///
/// # Errors
///
/// As `run_fleet_opts`; resuming is not supported and is rejected.
pub fn run_traced(
    spec: &FleetSpec,
    jobs: Jobs,
    opts: &RunOptions,
) -> Result<TracedRun, FleetError> {
    if opts.resume_dir.is_some() {
        return Err(FleetError::Spec("the traced run does not resume".into()));
    }
    let clock = Clock(Instant::now());
    let rec = RefCell::new(Recorder::new(clock, None));

    spec.validate()?;
    let trace_dir = opts.trace_dir.as_deref();
    if let Some(dir) = trace_dir {
        fs::create_dir_all(dir).map_err(|e| {
            FleetError::Io(format!("cannot create trace dir {}: {e}", dir.display()))
        })?;
    }
    let max_attempts = u64::from(spec.on_error.max_attempts());
    let init = FleetAccumulator::new(spec.policies.len(), max_attempts);

    let span = rec.borrow_mut().open("detect.prepare", None);
    let cohorts = CohortResources::prepare(spec);
    rec.borrow_mut().close(span, spec.policies.len() as u64);

    let every = if opts.checkpoint_every == 0 {
        DEFAULT_CHECKPOINT_EVERY
    } else {
        opts.checkpoint_every
    };
    let batch = if opts.batch == 0 { BATCH } else { opts.batch };
    let mut batches = 0usize;
    let fleet_log: RefCell<Option<FleetLog>> = RefCell::new(match trace_dir {
        Some(dir) => {
            let span = rec.borrow_mut().open("trace.fleet_log", None);
            let log = FleetLog::create(dir, spec)?;
            rec.borrow_mut().close(span, 0);
            Some(log)
        }
        None => None,
    });
    let (attempts, completed, violations) = (Cell::new(0u64), Cell::new(0u64), Cell::new(0u64));

    let snapshot = |acc: &FleetAccumulator, dir: &Path| -> Result<(), FleetError> {
        let span = rec.borrow_mut().open("fleet.checkpoint", None);
        checkpoint::write_checkpoint(dir, spec, acc)?;
        let bytes = fs::metadata(checkpoint::checkpoint_path(dir)).map_or(0, |m| m.len());
        rec.borrow_mut().close(span, bytes);
        if let Some(log) = fleet_log.borrow_mut().as_mut() {
            let span = rec.borrow_mut().open("trace.fleet_log", None);
            log.checkpoint(acc.devices())?;
            rec.borrow_mut().close(span, 0);
        }
        Ok(())
    };

    simcore::par::set_profiling(true);
    let _ = simcore::par::take_spans();
    let run = || -> Result<FleetAccumulator, FleetError> {
        let acc = par_try_fold_range_batched_by(
            jobs,
            0..spec.devices,
            batch,
            |i| cohort_key(spec, i),
            |i| traced_device(spec, i, trace_dir, &cohorts, clock),
            init,
            |mut acc: FleetAccumulator, _i, (result, device_spans)| {
                rec.borrow_mut().append(device_spans);
                let fold = rec.borrow_mut().open("fleet.fold", None);
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
                    let span = rec.borrow_mut().open("trace.fleet_log", Some(fold));
                    log.outcome(&outcome)?;
                    rec.borrow_mut().close(span, 0);
                }
                attempts.set(attempts.get() + outcome.attempts());
                if let DeviceOutcome::Completed(r) = &outcome {
                    completed.set(completed.get() + 1);
                    violations.set(violations.get() + r.assertions.map_or(0, |a| a.total()));
                }
                acc.push(outcome);
                rec.borrow_mut().close(fold, 1);
                Ok(acc)
            },
            |acc, _next| {
                batches += 1;
                if let Some(dir) = &opts.checkpoint_dir {
                    let done = usize::try_from(acc.devices()).expect("fits in usize");
                    if batches.is_multiple_of(every) && done < spec.devices {
                        snapshot(acc, dir)?;
                    }
                }
                Ok(())
            },
        )?;
        if let Some(dir) = &opts.checkpoint_dir {
            snapshot(&acc, dir)?;
        }
        Ok(acc)
    };
    let result = run();
    simcore::par::set_profiling(false);
    let par = simcore::par::take_spans();

    let acc = match result {
        Ok(acc) => acc,
        Err(e) => {
            if let Some(log) = fleet_log.into_inner() {
                log.abandon();
            }
            return Err(e);
        }
    };
    if let Some(log) = fleet_log.into_inner() {
        let span = rec.borrow_mut().open("trace.fleet_log", None);
        log.finish(completed.get())?;
        rec.borrow_mut().close(span, 0);
    }
    let span = rec.borrow_mut().open("fleet.finish", None);
    let report = acc.finish(&spec.name, spec.base_seed, &spec.on_error.to_string());
    let bytes = report.to_json_pretty();
    rec.borrow_mut().close(span, 0);
    let wall_ns = clock.now();

    Ok(TracedRun {
        report,
        bytes,
        spans: rec.into_inner().spans,
        par,
        wall_ns,
        attempts: attempts.get(),
        completed: completed.get(),
        violations: violations.get(),
    })
}

/// `fleet.jsonl`, written as the engine writes it: start, one
/// start/done-or-failed pair per device in device order, checkpoint
/// markers, done; staged at a temp path and promoted durably.
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
        let (device, seed, workload, governor, dpm, faults) = match outcome {
            DeviceOutcome::Completed(r) => (
                r.device,
                r.seed,
                &r.workload,
                &r.governor,
                &r.dpm,
                &r.faults,
            ),
            DeviceOutcome::Failed(f) => (
                f.device,
                f.seed,
                &f.workload,
                &f.governor,
                &f.dpm,
                &f.faults,
            ),
        };
        self.push(&FleetEvent::DeviceStart {
            device,
            seed,
            workload: workload.clone(),
            governor: governor.clone(),
            dpm: dpm.clone(),
            faults: faults.clone(),
        })?;
        self.push(&match outcome {
            DeviceOutcome::Completed(r) => FleetEvent::DeviceDone {
                device: r.device,
                frames_completed: r.frames_completed,
                energy_j: r.energy_kj * 1000.0,
                mean_delay_s: r.mean_delay_s,
            },
            DeviceOutcome::Failed(f) => FleetEvent::DeviceFailed {
                device: f.device,
                seed: f.seed,
                attempts: f.attempts,
                error: f.error.clone(),
            },
        })
    }

    fn checkpoint(&mut self, done: u64) -> Result<(), FleetError> {
        self.push(&FleetEvent::FleetCheckpoint { done })
    }

    fn finish(mut self, completed: u64) -> Result<(), FleetError> {
        self.push(&FleetEvent::FleetDone { devices: completed })?;
        let FleetLog { out, tmp, path } = self;
        let io_err =
            |what: &str, e: String| FleetError::Io(format!("{what} {}: {e}", tmp.display()));
        let file = out
            .into_inner()
            .map_err(|e| io_err("cannot flush", e.to_string()))?;
        file.sync_all()
            .map_err(|e| io_err("cannot sync", e.to_string()))?;
        trace::durable::promote(&tmp, &path).map_err(|e| io_err("cannot rename", e.to_string()))
    }

    fn abandon(self) {
        let FleetLog { out, tmp, .. } = self;
        drop(out);
        let _ = fs::remove_file(&tmp);
    }
}
