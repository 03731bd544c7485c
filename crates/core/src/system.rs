//! The event-driven full-system simulator.
//!
//! [`SystemSimulator`] plays a workload [`Trace`] against the SmartBadge
//! model under a [`PowerManager`], reproducing the paper's measurement
//! loop in simulation:
//!
//! * frames arrive from the (simulated) WLAN into the frame buffer,
//! * the decoder services them at the speed of the current operating
//!   point (decode time = `work_at_fmax / perf(f)` through the
//!   application's performance curve),
//! * on every arrival and decode completion the power manager updates its
//!   rate estimates and may re-select the frequency/voltage (a switch
//!   costs the SA-1100's 150 µs),
//! * when the buffer drains, the device idles and the DPM policy's sleep
//!   schedule takes over; an arriving frame wakes the system, paying the
//!   component wake-up latency (uniformly distributed, per Section 2.1),
//! * every mode interval is integrated into the per-component
//!   [`EnergyMeter`].

use crate::config::SystemConfig;
use crate::manager::PowerManager;
use crate::metrics::{ModeKey, RobustnessReport, SimReport};
use crate::power::PowerProfile;
use crate::PmError;
use dpm::costs::DpmCosts;
use dpm::policy::SleepState;
use faults::{FaultInjector, FaultPlan};
use framequeue::FrameBuffer;
use hardware::cpu::OperatingPoint;
use hardware::energy::EnergyMeter;
use hardware::{PowerState, SmartBadge};
use simcore::event::LaneQueue;
use simcore::rng::SimRng;
use simcore::stats::OnlineStats;
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use trace::{ns_to_secs, Event as TraceEvent, SleepKind, StreamKind, TraceMode, TraceSink};
use workload::{FrameRecord, Trace};

/// Residency/trace key for an operating point: frequency in tenths of a
/// MHz, matching [`SimReport::freq_secs`] quantization.
fn freq_key(op: OperatingPoint) -> u32 {
    (op.freq_mhz * 10.0).round() as u32
}

/// Arrival gaps longer than this many seconds are idle periods, not
/// samples of the streaming interarrival distribution (the paper
/// excludes idle-state arrivals from the exponential model).
const STREAMING_GAP_THRESHOLD_S: f64 = 2.0;

/// A completed frame misses its deadline when its total delay exceeds
/// this multiple of the media kind's target mean delay. Deadlines are
/// only tracked when faults or the supervisor are enabled, so baseline
/// reports stay byte-identical.
const DEADLINE_FACTOR: f64 = 4.0;

/// Core voltage in integer millivolts for the trace wire format.
fn millivolts(op: OperatingPoint) -> u32 {
    (op.voltage_v * 1000.0).round() as u32
}

/// The trace-level sleep kind for a DPM sleep state.
fn sleep_kind(state: SleepState) -> SleepKind {
    match state {
        SleepState::Standby => SleepKind::Standby,
        SleepState::Off => SleepKind::Off,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Event {
    /// Frame `index` of the trace arrives.
    Arrival(usize),
    /// The frame currently decoding completes. Also the filler of a
    /// free [`LaneQueue`] lane, which is never read.
    #[default]
    DecodeDone,
    /// The DPM plan commands a sleep state (valid only for `epoch`).
    SleepCmd { epoch: u64, state: SleepState },
    /// A wake-up transition completes (valid only for `epoch`).
    WakeDone { epoch: u64 },
}

/// [`LaneQueue`] lane per event kind. Arrivals, decode completions,
/// and wake-ups are single-pending by construction (the
/// `next_arrival_scheduled` protocol, one frame in flight, one wake
/// per idle epoch); sleep commands get one lane for the common
/// single-transition plan and spill into the queue's overflow heap
/// for multi-step plans or stale leftovers. Lanes are placement hints
/// only — pop order is the global `(time, sequence)` order either way.
const LANE_ARRIVAL: usize = 0;
const LANE_DECODE: usize = 1;
const LANE_WAKE: usize = 2;
const LANE_SLEEP: usize = 3;
const LANES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Decoding,
    Idle,
    Sleeping(SleepState),
    Waking,
}

/// Plain-field accumulators for everything the event loop counts: the
/// run statistics [`SimReport`] is built from.
///
/// Residency is integrated in integer nanoseconds, so a trace replay
/// (which integrates the same spans at mode-boundary granularity)
/// reconstructs it bit-exactly: integer addition is associative, and
/// both sides convert the totals once through [`ns_to_secs`].
#[derive(Debug, Default)]
struct HotStats {
    /// Residency per [`TraceMode::index`] (5 modes).
    mode_ns: [u64; 5],
    /// Decode residency per frequency key; the SmartBadge exposes ~10
    /// operating points, so a linear scan beats any map.
    freq_ns: Vec<(u32, u64)>,
    frames_completed: u64,
    freq_switches: u64,
    sleeps: u64,
    wakes: u64,
    deadlines_total: u64,
    deadline_misses: u64,
}

impl HotStats {
    #[inline]
    fn add_freq_ns(&mut self, key: u32, ns: u64) {
        for e in &mut self.freq_ns {
            if e.0 == key {
                e.1 += ns;
                return;
            }
        }
        self.freq_ns.push((key, ns));
    }
}

impl Mode {
    fn key(self) -> ModeKey {
        match self {
            Mode::Decoding => ModeKey::Decoding,
            Mode::Idle => ModeKey::Idle,
            Mode::Sleeping(SleepState::Standby) => ModeKey::Standby,
            Mode::Sleeping(SleepState::Off) => ModeKey::Off,
            Mode::Waking => ModeKey::Waking,
        }
    }
}

/// Simulates one workload trace under one configuration.
///
/// The lifetime `'t` covers the borrowed workload [`Trace`] and any
/// attached [`TraceSink`] or monitor: the simulator reads the trace's
/// frames in place rather than copying them.
pub struct SystemSimulator<'t> {
    badge: SmartBadge,
    costs: DpmCosts,
    manager: PowerManager,
    rng: SimRng,
    injector: FaultInjector,

    queue: LaneQueue<Event, LANES>,
    frames: &'t [FrameRecord],
    buffer: FrameBuffer<FrameRecord>,
    mode: Mode,
    profile: PowerProfile,
    /// Profiles for the modes that depend on nothing dynamic, computed
    /// once so mode transitions in the hot loop don't rebuild them.
    idle_profile: PowerProfile,
    standby_profile: PowerProfile,
    off_profile: PowerProfile,
    waking_profile: PowerProfile,
    /// One-entry cache for the decode profile, keyed by media kind and
    /// the physical operating point's bits. The operating point only
    /// moves at frequency switches (rare next to decode starts), so
    /// nearly every decode reuses the cached profile.
    decode_profile: Option<(workload::MediaKind, u64, u64, PowerProfile)>,
    last_account: SimTime,
    idle_epoch: u64,
    idle_since: SimTime,
    deepest_this_idle: Option<SleepState>,
    decoding_frame: Option<FrameRecord>,
    last_arrival: Option<SimTime>,
    next_arrival_scheduled: bool,
    /// The operating point the CPU is physically at; lags the manager's
    /// selection until the switch lands at a decode start (and stays
    /// behind it if a faulty switch is abandoned).
    physical_op: OperatingPoint,
    /// `freq_key(physical_op)`, computed once per switch rather than per
    /// decoding interval.
    physical_freq_key: u32,
    /// `true` when deadline misses are tracked (faults or supervisor
    /// configured); clean paper runs skip it so reports stay identical.
    track_deadlines: bool,

    meter: EnergyMeter,
    delays: OnlineStats,
    /// Event counters and integer-nanosecond residency; [`SimReport`]
    /// is built from them at the end of `run`.
    hot: HotStats,
    /// Structured event sink; `None` (the untraced default) keeps the
    /// hot path to a branch on an `Option`.
    sink: Option<&'t mut dyn TraceSink>,
    /// Streaming invariant checker. Attaching one forces the traced
    /// event-loop instantiation (the monitor must see every event) even
    /// when no sink is present; the untraced fast path stays reserved
    /// for runs with neither.
    monitor: Option<&'t mut trace::AssertionMonitor>,
}

impl<'t> SystemSimulator<'t> {
    /// Creates a simulator for `trace` under `config`, seeding all
    /// stochastic elements (wake-up latencies, randomized DPM timeouts)
    /// from `seed`. A change-point governor takes its threshold table
    /// from `shared` when present and resolves it through the
    /// process-wide cache otherwise; the simulation is bit-identical
    /// either way when the resources were resolved from `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the power manager rejects the configuration.
    pub fn new_shared(
        trace: &'t Trace,
        config: SystemConfig,
        seed: u64,
        shared: &crate::resolve::SharedResources,
    ) -> Result<Self, PmError> {
        let badge = SmartBadge::new();
        let costs = DpmCosts::managed_subsystem(&badge);
        let manager = PowerManager::build_shared(&badge, &config, shared)?;
        let profile = PowerProfile::uniform(&badge, PowerState::Idle);
        // Forking is independent of consumption, so adding the injector
        // stream does not perturb the clean-run event sequence.
        let base_rng = SimRng::seed_from(seed);
        let injector = match &config.faults {
            Some(spec) => FaultPlan::new(spec.clone())?.injector(&base_rng),
            None => FaultInjector::disabled(&base_rng),
        };
        let track_deadlines = config.faults.is_some() || config.supervisor.is_some();
        let buffer = match config.buffer_capacity {
            Some(cap) => FrameBuffer::bounded(cap),
            None => FrameBuffer::new(),
        };
        let physical_op = badge.cpu().max_operating_point();
        let standby_profile = PowerProfile::uniform(&badge, SleepState::Standby.to_power_state());
        let off_profile = PowerProfile::uniform(&badge, SleepState::Off.to_power_state());
        let waking_profile = PowerProfile::waking(&badge);
        Ok(SystemSimulator {
            badge,
            costs,
            manager,
            rng: base_rng.fork("system"),
            injector,
            // One lane per event kind; only surplus sleep commands
            // spill. Stale ones stay queued until their due time (each
            // pop splits the energy integration), so the spill holds a
            // few dozen at most under timeout policies but around a
            // thousand under TISMDP, growing past this preallocation
            // by doubling.
            queue: LaneQueue::with_spill_capacity(16),
            frames: trace.frames(),
            buffer,
            mode: Mode::Idle,
            profile,
            idle_profile: profile,
            standby_profile,
            off_profile,
            waking_profile,
            decode_profile: None,
            last_account: SimTime::ZERO,
            idle_epoch: 0,
            idle_since: SimTime::ZERO,
            deepest_this_idle: None,
            decoding_frame: None,
            last_arrival: None,
            next_arrival_scheduled: false,
            physical_op,
            physical_freq_key: freq_key(physical_op),
            track_deadlines,
            meter: EnergyMeter::new(),
            delays: OnlineStats::new(),
            hot: HotStats::default(),
            sink: None,
            monitor: None,
        })
    }

    /// [`Self::new_shared`], recording structured [`TraceEvent`]s into
    /// `sink` as it runs. The event sequence, report, and random streams
    /// of a traced run match the untraced run bit for bit.
    ///
    /// # Errors
    ///
    /// Returns an error if the power manager rejects the configuration.
    pub fn new_traced_shared(
        trace: &'t Trace,
        config: SystemConfig,
        seed: u64,
        shared: &crate::resolve::SharedResources,
        sink: &'t mut dyn TraceSink,
    ) -> Result<Self, PmError> {
        let mut sim = SystemSimulator::new_shared(trace, config, seed, shared)?;
        sim.sink = Some(sink);
        Ok(sim)
    }

    /// Attaches a streaming [`trace::AssertionMonitor`]. The monitor
    /// observes the identical event stream a sink would record, so its
    /// verdict matches an offline `tracecat assert` of that trace
    /// bit for bit; the run's report carries [`SimReport::assertions`].
    pub fn attach_monitor(&mut self, monitor: &'t mut trace::AssertionMonitor) {
        self.monitor = Some(monitor);
    }

    /// Records `event` into the attached monitor and sink, if any.
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.observe(&event);
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&event);
        }
    }

    /// Emits a [`TraceEvent::RateChange`] carrying the manager's latest
    /// detection details (new rate, and the change-point statistic when
    /// the governor computes one).
    fn emit_rate_change(&mut self, now: SimTime) {
        let Some(d) = self.manager.last_rate_detection() else {
            return;
        };
        let (ln_p_max, threshold) = match d.stat {
            Some(s) => (Some(s.ln_p_max), Some(s.threshold)),
            None => (None, None),
        };
        self.emit(TraceEvent::RateChange {
            at: now,
            stream: if d.arrival {
                StreamKind::Arrival
            } else {
                StreamKind::Service
            },
            new_rate: d.new_rate,
            ln_p_max,
            threshold,
        });
    }

    /// Runs the trace to completion and returns the report.
    ///
    /// Dispatches once on whether a sink is attached and runs a
    /// monomorphized event loop either way: the untraced path (the
    /// fleet default) has tracing compiled out entirely, so it
    /// constructs no [`TraceEvent`]s at all — not even discarded ones —
    /// while remaining bit-identical to the traced run in every
    /// reported number.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::InvalidState`] if an event handler observes a
    /// state that violates the simulator's invariants (a decode
    /// completion with no frame in flight, a decode start on an empty
    /// buffer).
    pub fn run(self, trace_end: SimTime) -> Result<SimReport, PmError> {
        self.run_counted(trace_end).map(|(report, _)| report)
    }

    /// [`Self::run`], additionally returning the number of events the
    /// kernel processed (pops of the main event loop, stale sleep
    /// commands included) — the denominator throughput benchmarks use.
    /// The report is identical to [`Self::run`]'s.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_counted(self, trace_end: SimTime) -> Result<(SimReport, u64), PmError> {
        if self.sink.is_some() || self.monitor.is_some() {
            self.run_impl::<true>(trace_end)
        } else {
            self.run_impl::<false>(trace_end)
        }
    }

    fn run_impl<const TRACED: bool>(
        mut self,
        trace_end: SimTime,
    ) -> Result<(SimReport, u64), PmError> {
        // Device starts idle with a DPM plan, waiting for the stream.
        if TRACED {
            self.emit(TraceEvent::RunStart { at: SimTime::ZERO });
        }
        self.enter_idle::<TRACED>(SimTime::ZERO);
        self.schedule_arrival(0);

        let mut pops: u64 = 0;
        while let Some(scheduled) = self.queue.pop() {
            pops += 1;
            let now = scheduled.at;
            self.account(now);
            match scheduled.event {
                Event::Arrival(i) => self.handle_arrival::<TRACED>(now, i)?,
                Event::DecodeDone => self.handle_decode_done::<TRACED>(now)?,
                Event::SleepCmd { epoch, state } => {
                    self.handle_sleep_cmd::<TRACED>(now, epoch, state);
                }
                Event::WakeDone { epoch } => self.handle_wake_done::<TRACED>(now, epoch)?,
            }
            // Once the stream is exhausted and drained, account the tail
            // and stop — remaining queue entries are stale sleep commands.
            if self.stream_drained() {
                self.finish::<TRACED>(trace_end);
                break;
            }
        }
        // If the event queue ran dry without hitting the drain check
        // (e.g. an empty trace under a no-sleep plan), account the tail
        // now; a second call after an in-loop finish is a no-op.
        self.finish::<TRACED>(trace_end);
        if TRACED {
            self.emit(TraceEvent::RunEnd {
                at: self.last_account,
            });
        }

        // The report's residency maps are the nanosecond totals
        // converted once through `ns_to_secs`: the same totals a trace
        // replay reconstructs, so the two agree bit for bit. Modes the
        // run never entered stay absent, as they do in a replay.
        let mode_secs: BTreeMap<ModeKey, f64> = TraceMode::ALL
            .into_iter()
            .zip(self.hot.mode_ns)
            .filter(|&(_, ns)| ns > 0)
            .map(|(m, ns)| (ModeKey::from_trace(m), ns_to_secs(ns)))
            .collect();
        let freq_residency: BTreeMap<u32, f64> = self
            .hot
            .freq_ns
            .iter()
            .map(|&(key, ns)| (key, ns_to_secs(ns)))
            .collect();
        // Every accounted interval lands in exactly one mode bucket, so
        // their sum is the run's clock.
        let accounted_secs = ns_to_secs(self.hot.mode_ns.iter().sum());
        let duration_secs = accounted_secs.max(trace_end.as_secs_f64());
        // One clock, two views: the energy meter integrates the same
        // intervals as f64 seconds. They may differ by accumulated
        // rounding only.
        debug_assert!(
            (self.meter.elapsed_secs() - accounted_secs).abs() <= 1e-6 * accounted_secs.max(1.0),
            "energy-meter clock {} drifted from residency clock {}",
            self.meter.elapsed_secs(),
            accounted_secs,
        );
        let end_now = self.queue.now().max(trace_end);
        let fc = self.injector.counters();
        let (degraded_entries, degraded_secs) = self.manager.degraded_stats(end_now);
        let robustness = RobustnessReport {
            arrivals_dropped: fc.arrivals_dropped,
            frames_dropped: self.buffer.total_dropped(),
            deadline_misses: self.hot.deadline_misses,
            deadlines_total: self.hot.deadlines_total,
            decode_overruns: fc.overruns,
            switch_retries: fc.switch_retries,
            switch_failures: fc.switch_failures,
            samples_rejected: self.manager.rejected_samples(),
            degraded_entries,
            degraded_secs,
        };
        Ok((
            SimReport {
                energy: self.meter,
                frame_delays: self.delays,
                frames_completed: self.hot.frames_completed,
                freq_switches: self.hot.freq_switches,
                rate_changes: self.manager.rate_changes(),
                sleeps: self.hot.sleeps,
                wakes: self.hot.wakes,
                mode_secs,
                freq_residency,
                duration_secs,
                governor: self.manager.governor_label(),
                dpm: self.manager.dpm_label(),
                robustness,
                assertions: self.monitor.as_ref().map(|m| m.report()),
            },
            pops,
        ))
    }

    /// Schedules delivery of trace frame `index`, applying any jitter
    /// spike to its nominal arrival time.
    fn schedule_arrival(&mut self, index: usize) {
        if index >= self.frames.len() {
            self.next_arrival_scheduled = false;
            return;
        }
        let nominal = self.frames[index].arrival;
        // Clamp to the current clock: a heavily jittered predecessor may
        // already have pushed simulation time past this frame's nominal
        // arrival, in which case it is delivered back-to-back.
        let at = nominal
            .saturating_add(self.injector.arrival_jitter(nominal))
            .max(self.queue.now());
        self.queue.push(LANE_ARRIVAL, at, Event::Arrival(index));
        self.next_arrival_scheduled = true;
    }

    fn stream_drained(&self) -> bool {
        self.decoding_frame.is_none() && self.buffer.is_empty() && !self.next_arrival_scheduled
    }

    fn account(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_account);
        if !dt.is_zero() {
            self.profile.accumulate_into(&mut self.meter, dt);
            // Residency is integrated in integer nanoseconds so a trace
            // replay (which integrates the same spans at mode-boundary
            // granularity) reconstructs the histogram bit-exactly.
            let ns = dt.as_nanos();
            self.hot.mode_ns[self.mode.key().trace_mode().index() as usize] += ns;
            if matches!(self.mode, Mode::Decoding) {
                self.hot.add_freq_ns(self.physical_freq_key, ns);
            }
            self.last_account = now;
        }
    }

    fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
        self.profile = match mode {
            Mode::Decoding => {
                let kind = self
                    .decoding_frame
                    .map(|f| f.kind)
                    .unwrap_or(workload::MediaKind::Mp3Audio);
                let op = self.physical_op;
                let key = (kind, op.freq_mhz.to_bits(), op.voltage_v.to_bits());
                match self.decode_profile {
                    Some((k, f, v, p)) if (k, f, v) == key => p,
                    _ => {
                        // Clamp into PowerProfile::decode's (0, 1] domain
                        // so no curve corner case can panic the simulator
                        // mid-run (clamp alone would pass NaN through).
                        let raw = self.manager.dvs().curve(kind).performance_at(op.freq_mhz);
                        let activity = if raw.is_finite() {
                            raw.clamp(f64::MIN_POSITIVE, 1.0)
                        } else {
                            1.0
                        };
                        let p = PowerProfile::decode(&self.badge, op, kind, activity);
                        self.decode_profile = Some((key.0, key.1, key.2, p));
                        p
                    }
                }
            }
            Mode::Idle => self.idle_profile,
            Mode::Sleeping(SleepState::Standby) => self.standby_profile,
            Mode::Sleeping(SleepState::Off) => self.off_profile,
            Mode::Waking => self.waking_profile,
        };
    }

    fn handle_arrival<const TRACED: bool>(
        &mut self,
        now: SimTime,
        index: usize,
    ) -> Result<(), PmError> {
        // The next arrival is scheduled regardless of this frame's fate.
        self.schedule_arrival(index + 1);

        // The WLAN channel may lose the frame entirely: the device never
        // sees it, so neither the buffer nor the governor is touched.
        if self.injector.arrival_dropped(now) {
            return Ok(());
        }

        let frame = self.frames[index];
        // Interarrival gap, gated by the streaming threshold: long gaps
        // are idle periods, not samples of the streaming distribution. A
        // faulty link may corrupt the observed gap into a degenerate
        // value; the governor rejects (and counts) those.
        let gap_s = self
            .last_arrival
            .and_then(|prev| {
                let g = now - prev;
                (g.as_secs_f64() <= STREAMING_GAP_THRESHOLD_S).then_some(g)
            })
            .map(|g| self.injector.corrupt_sample(now, g.as_secs_f64()));
        self.last_arrival = Some(now);
        // A new operating point applies from the next decode start: any
        // in-flight frame finishes at its old speed, and the switch cost
        // (plus any faulty-switch retries) is paid when the decode starts.
        if TRACED {
            let changes_before = self.manager.rate_changes();
            self.manager
                .on_arrival(frame.kind, gap_s, frame.true_arrival_rate);
            if self.manager.rate_changes() > changes_before {
                self.emit_rate_change(now);
            }
        } else {
            self.manager
                .on_arrival(frame.kind, gap_s, frame.true_arrival_rate);
        }
        if self.buffer.offer(now, frame).is_some() {
            // Buffer overflow: the drop is counted by the buffer; the
            // supervisor still sees the resulting occupancy below.
            debug_assert!(self.buffer.capacity().is_some());
            if TRACED {
                self.emit(TraceEvent::BufferDrop {
                    at: now,
                    occupancy: self.buffer.len() as u32,
                });
            }
        }
        let was_degraded = TRACED && self.manager.is_degraded();
        self.manager.note_occupancy(now, self.buffer.len());
        if TRACED && self.manager.is_degraded() != was_degraded {
            self.emit(TraceEvent::Degraded {
                at: now,
                entered: !was_degraded,
            });
        }

        match self.mode {
            Mode::Idle => {
                self.leave_idle(now);
                if !self.buffer.is_empty() {
                    self.start_decode::<TRACED>(now)?;
                } else {
                    // The only frame in flight was dropped by a
                    // zero-capacity buffer; go straight back to idle.
                    self.enter_idle::<TRACED>(now);
                }
            }
            Mode::Sleeping(state) => {
                self.leave_idle(now);
                self.begin_wake::<TRACED>(now, state);
            }
            Mode::Decoding | Mode::Waking => {}
        }
        Ok(())
    }

    fn leave_idle(&mut self, now: SimTime) {
        let idle_len = now.saturating_since(self.idle_since);
        self.manager.on_idle_end(idle_len, self.deepest_this_idle);
        self.idle_epoch += 1; // invalidates pending SleepCmds
        self.deepest_this_idle = None;
    }

    fn begin_wake<const TRACED: bool>(&mut self, now: SimTime, state: SleepState) {
        let nominal = self.costs.wake_latency(state).as_secs_f64();
        // Uniform [0.5, 1.5]x around the nominal latency (Section 2.1).
        let latency = SimDuration::from_secs_f64(nominal * (0.5 + self.rng.next_f64()));
        self.hot.wakes += 1;
        self.set_mode(Mode::Waking);
        if TRACED {
            self.emit(TraceEvent::WakeStart { at: now, latency });
        }
        self.queue.push(
            LANE_WAKE,
            now + latency,
            Event::WakeDone {
                epoch: self.idle_epoch,
            },
        );
    }

    fn handle_wake_done<const TRACED: bool>(
        &mut self,
        now: SimTime,
        epoch: u64,
    ) -> Result<(), PmError> {
        if epoch != self.idle_epoch || !matches!(self.mode, Mode::Waking) {
            return Ok(());
        }
        if self.buffer.is_empty() {
            // Defensive: a wake with nothing to do returns to idle.
            self.enter_idle::<TRACED>(now);
            Ok(())
        } else {
            self.start_decode::<TRACED>(now)
        }
    }

    fn start_decode<const TRACED: bool>(&mut self, now: SimTime) -> Result<(), PmError> {
        let Some((frame, _waited)) = self.buffer.pop(now) else {
            return Err(PmError::InvalidState {
                what: "decode started on an empty buffer",
            });
        };
        // A frequency switch pends whenever the manager's selection has
        // moved away from the physical operating point; it is attempted
        // (and under a switch-fault model possibly retried or abandoned)
        // at the decode start.
        let desired = self.manager.operating_point();
        let mut switch_cost = 0.0;
        if (desired.freq_mhz - self.physical_op.freq_mhz).abs() > 1e-9 {
            let outcome = self
                .injector
                .switch_attempt(now, self.badge.cpu().switch_latency());
            switch_cost = outcome.latency.as_secs_f64();
            if outcome.abandoned {
                // The CPU keeps its old point; the manager's selection
                // stays pending and is retried at the next decode start.
            } else {
                let from = self.physical_op;
                let from_key = self.physical_freq_key;
                self.physical_op = desired;
                self.physical_freq_key = freq_key(desired);
                self.hot.freq_switches += 1;
                if TRACED {
                    self.emit(TraceEvent::FreqSwitch {
                        at: now,
                        from_tenths_mhz: from_key,
                        to_tenths_mhz: self.physical_freq_key,
                        from_mv: millivolts(from),
                        to_mv: millivolts(desired),
                    });
                }
            }
        }
        self.decoding_frame = Some(frame);
        self.set_mode(Mode::Decoding);
        if TRACED {
            self.emit(TraceEvent::DecodeStart {
                at: now,
                freq_tenths_mhz: self.physical_freq_key,
            });
        }
        let stretch = self.manager.dvs().stretch(frame.kind, self.physical_op);
        let overrun = self.injector.decode_overrun_factor(now);
        let decode = frame.work * stretch * overrun + switch_cost;
        self.queue.push(
            LANE_DECODE,
            now + SimDuration::from_secs_f64(decode),
            Event::DecodeDone,
        );
        Ok(())
    }

    fn handle_decode_done<const TRACED: bool>(&mut self, now: SimTime) -> Result<(), PmError> {
        let Some(frame) = self.decoding_frame.take() else {
            return Err(PmError::InvalidState {
                what: "decode completion without a frame in flight",
            });
        };
        self.hot.frames_completed += 1;
        let delay_s = now.saturating_since(frame.arrival).as_secs_f64();
        self.delays.push(delay_s);
        if TRACED {
            self.emit(TraceEvent::FrameDone {
                at: now,
                delay_s,
                freq_tenths_mhz: self.physical_freq_key,
            });
        }
        let was_degraded = TRACED && self.manager.is_degraded();
        if self.track_deadlines {
            let deadline_s = DEADLINE_FACTOR * self.manager.dvs().target_delay_s(frame.kind);
            let missed = delay_s > deadline_s;
            self.hot.deadlines_total += 1;
            if missed {
                self.hot.deadline_misses += 1;
            }
            self.manager.note_deadline(now, missed);
        }
        if TRACED {
            let changes_before = self.manager.rate_changes();
            self.manager
                .on_decode_complete(frame.kind, frame.work, frame.true_service_rate);
            if self.manager.rate_changes() > changes_before {
                self.emit_rate_change(now);
            }
        } else {
            self.manager
                .on_decode_complete(frame.kind, frame.work, frame.true_service_rate);
        }
        self.manager.note_occupancy(now, self.buffer.len());
        if TRACED && self.manager.is_degraded() != was_degraded {
            self.emit(TraceEvent::Degraded {
                at: now,
                entered: !was_degraded,
            });
        }
        if self.buffer.is_empty() {
            self.enter_idle::<TRACED>(now);
            Ok(())
        } else {
            self.start_decode::<TRACED>(now)
        }
    }

    fn enter_idle<const TRACED: bool>(&mut self, now: SimTime) {
        self.idle_epoch += 1;
        self.idle_since = now;
        self.deepest_this_idle = None;
        self.set_mode(Mode::Idle);
        if TRACED {
            self.emit(TraceEvent::IdleEnter { at: now });
        }
        let plan = self.manager.plan_idle(&mut self.rng);
        for &(after, state) in plan.transitions() {
            self.queue.push(
                LANE_SLEEP,
                now.saturating_add(after),
                Event::SleepCmd {
                    epoch: self.idle_epoch,
                    state,
                },
            );
        }
    }

    fn handle_sleep_cmd<const TRACED: bool>(
        &mut self,
        now: SimTime,
        epoch: u64,
        state: SleepState,
    ) {
        if epoch != self.idle_epoch {
            return;
        }
        let allowed = match self.mode {
            Mode::Idle => true,
            Mode::Sleeping(current) => state > current,
            Mode::Decoding | Mode::Waking => false,
        };
        if allowed {
            self.hot.sleeps += 1;
            self.deepest_this_idle =
                Some(
                    self.deepest_this_idle
                        .map_or(state, |d| if state > d { state } else { d }),
                );
            self.set_mode(Mode::Sleeping(state));
            if TRACED {
                self.emit(TraceEvent::SleepEnter {
                    at: now,
                    state: sleep_kind(state),
                });
            }
        }
    }

    /// Accounts the trailing interval after the last frame: the device
    /// follows its final idle plan until the trace end.
    fn finish<const TRACED: bool>(&mut self, trace_end: SimTime) {
        let now = self.queue.now();
        if !matches!(self.mode, Mode::Idle | Mode::Sleeping(_)) || trace_end <= now {
            self.account(now.max(trace_end));
            return;
        }
        // Walk the remaining queued sleep commands up to the end. Pops
        // already arrive in (time, seq) order, so stale epochs and
        // post-end commands are skipped where they stand — no scratch
        // buffer and no sort — while the queue clock still advances
        // over them exactly as the old drain did.
        while let Some(s) = self.queue.pop() {
            let Event::SleepCmd { epoch, state } = s.event else {
                continue;
            };
            if epoch != self.idle_epoch || s.at > trace_end {
                continue;
            }
            self.account(s.at);
            let allowed = match self.mode {
                Mode::Idle => true,
                Mode::Sleeping(current) => state > current,
                _ => false,
            };
            if allowed {
                self.hot.sleeps += 1;
                self.set_mode(Mode::Sleeping(state));
                if TRACED {
                    self.emit(TraceEvent::SleepEnter {
                        at: s.at,
                        state: sleep_kind(state),
                    });
                }
            }
        }
        self.account(trace_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DpmKind, GovernorKind};
    use crate::resolve::SharedResources;
    use workload::Mp3Clip;

    fn run(config: SystemConfig, seed: u64) -> SimReport {
        let mut rng = SimRng::seed_from(seed);
        let trace = Mp3Clip::table2()[0].generate(&mut rng);
        let end = trace.end();
        SystemSimulator::new_shared(&trace, config, seed, &SharedResources::default())
            .unwrap()
            .run(end)
            .unwrap()
    }

    fn config(governor: GovernorKind, dpm: DpmKind) -> SystemConfig {
        SystemConfig {
            governor,
            dpm,
            ..SystemConfig::default()
        }
    }

    fn max_config() -> SystemConfig {
        config(GovernorKind::MaxPerformance, DpmKind::None)
    }

    #[test]
    fn completes_every_frame() {
        let report = run(max_config(), 1);
        let mut rng = SimRng::seed_from(1);
        let trace = Mp3Clip::table2()[0].generate(&mut rng);
        assert_eq!(report.frames_completed, trace.frames().len() as u64);
    }

    #[test]
    fn energy_and_delay_are_positive_and_sane() {
        let report = run(max_config(), 2);
        assert!(report.total_energy_j() > 0.0);
        // 100 s clip; the managed subsystem peaks at ~0.53 W for MP3.
        assert!(report.total_energy_j() < 60.0);
        assert!(report.mean_frame_delay_s() > 0.0);
        assert!(report.mean_frame_delay_s() < 0.5);
    }

    #[test]
    fn max_governor_mostly_idles_on_easy_audio() {
        let report = run(max_config(), 3);
        // Clip A: 38 fr/s arrivals, 80 fr/s decode: device is idle roughly
        // half the time.
        assert!(report.mode_secs(ModeKey::Idle) > 20.0);
        assert!(report.mode_secs(ModeKey::Decoding) > 20.0);
    }

    #[test]
    fn ideal_dvs_saves_energy_vs_max() {
        let max = run(max_config(), 4);
        let ideal = run(config(GovernorKind::Ideal, DpmKind::None), 4);
        assert!(
            ideal.total_energy_j() < max.total_energy_j(),
            "ideal {} vs max {}",
            ideal.total_energy_j(),
            max.total_energy_j()
        );
    }

    #[test]
    fn dvs_keeps_delay_near_target() {
        let ideal = run(config(GovernorKind::Ideal, DpmKind::None), 5);
        // Target 0.2 s for MP3: observed mean should be within a factor.
        assert!(
            ideal.mean_frame_delay_s() < 0.5,
            "delay {}",
            ideal.mean_frame_delay_s()
        );
    }

    #[test]
    fn dpm_sleeps_during_long_tail() {
        // A trace whose end is long after the last frame: the DPM policy
        // should park the device.
        let mut rng = SimRng::seed_from(6);
        let trace = Mp3Clip::table2()[0].generate(&mut rng);
        let end = trace.end() + SimDuration::from_secs(120);
        let config = config(GovernorKind::MaxPerformance, DpmKind::BreakEven);
        let report = SystemSimulator::new_shared(&trace, config, 6, &SharedResources::default())
            .unwrap()
            .run(end)
            .unwrap();
        assert!(report.mode_secs(ModeKey::Standby) > 100.0, "{report}");
        assert!(report.sleeps > 0);
    }

    #[test]
    fn dpm_reduces_energy_on_gappy_workload() {
        let mut rng = SimRng::seed_from(7);
        let a = Mp3Clip::table2()[0].generate(&mut rng);
        let b = Mp3Clip::table2()[5].generate(&mut rng);
        let trace = workload::Trace::sequence(&[a, b], SimDuration::from_secs(60));
        let end = trace.end();
        let no_dpm =
            SystemSimulator::new_shared(&trace, max_config(), 7, &SharedResources::default())
                .unwrap()
                .run(end)
                .unwrap();
        let with_dpm = SystemSimulator::new_shared(
            &trace,
            config(GovernorKind::MaxPerformance, DpmKind::BreakEven),
            7,
            &SharedResources::default(),
        )
        .unwrap()
        .run(end)
        .unwrap();
        assert!(with_dpm.total_energy_j() < no_dpm.total_energy_j());
        assert!(with_dpm.wakes >= 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(max_config(), 8);
        let b = run(max_config(), 8);
        assert_eq!(a.total_energy_j(), b.total_energy_j());
        assert_eq!(a.frames_completed, b.frames_completed);
    }

    #[test]
    fn frequency_residency_tracks_decode_time() {
        // Max-performance: all decode time at 221.2 MHz.
        let report = run(max_config(), 10);
        let decode_secs = report.mode_secs(ModeKey::Decoding);
        assert!((report.freq_secs(221.2) - decode_secs).abs() < 1e-6);
        assert!((report.mean_decode_frequency_mhz() - 221.2).abs() < 1e-6);
        // Ideal DVS on easy audio: most decode time below max frequency.
        let ideal = run(config(GovernorKind::Ideal, DpmKind::None), 10);
        assert!(ideal.mean_decode_frequency_mhz() < 200.0);
        let total: f64 = ideal.freq_residency.values().sum();
        assert!((total - ideal.mode_secs(ModeKey::Decoding)).abs() < 1e-6);
    }

    #[test]
    fn energy_is_conserved_across_modes() {
        // Total metered time ≈ trace duration.
        let report = run(max_config(), 9);
        let total_mode_secs: f64 = ModeKey::ALL.iter().map(|&m| report.mode_secs(m)).sum();
        assert!(
            (total_mode_secs - report.duration_secs).abs() < 1.0,
            "mode {total_mode_secs} vs duration {}",
            report.duration_secs
        );
    }

    #[test]
    fn clean_run_robustness_is_quiet() {
        let report = run(max_config(), 11);
        assert!(report.robustness.is_quiet(), "{:?}", report.robustness);
    }

    #[test]
    fn faulted_run_counts_and_still_completes() {
        use faults::{BurstLossSpec, DegenerateSampleSpec, FaultSpec, JitterSpec, OverrunSpec};
        let config = SystemConfig {
            governor: GovernorKind::quick_change_point(),
            dpm: DpmKind::None,
            faults: Some(FaultSpec {
                burst_loss: Some(BurstLossSpec {
                    enter_prob: 0.05,
                    exit_prob: 0.2,
                    drop_prob: 0.8,
                }),
                jitter: Some(JitterSpec {
                    prob: 0.1,
                    max_secs: 0.1,
                }),
                overrun: Some(OverrunSpec {
                    prob: 0.1,
                    max_factor: 2.0,
                }),
                degenerate_samples: Some(DegenerateSampleSpec { prob: 0.1 }),
                ..FaultSpec::default()
            }),
            ..SystemConfig::default()
        };
        let report = run(config, 12);
        let r = &report.robustness;
        assert!(!r.is_quiet());
        assert!(r.arrivals_dropped > 0, "{r:?}");
        assert!(r.decode_overruns > 0, "{r:?}");
        assert!(r.samples_rejected > 0, "{r:?}");
        assert!(r.deadlines_total > 0, "{r:?}");
        assert!(report.total_energy_j() > 0.0);
        // Dropped arrivals never reach the buffer, so completions account
        // for exactly the surviving frames.
        let mut rng = SimRng::seed_from(12);
        let trace = Mp3Clip::table2()[0].generate(&mut rng);
        assert_eq!(
            report.frames_completed + r.arrivals_dropped,
            trace.frames().len() as u64
        );
    }

    #[test]
    fn failed_switches_are_retried_and_counted() {
        use faults::{FaultSpec, SwitchFaultSpec};
        let config = SystemConfig {
            governor: GovernorKind::Ideal,
            dpm: DpmKind::None,
            faults: Some(FaultSpec {
                switch_fault: Some(SwitchFaultSpec {
                    fail_prob: 0.95,
                    max_retries: 2,
                }),
                ..FaultSpec::default()
            }),
            ..SystemConfig::default()
        };
        let report = run(config, 13);
        assert!(
            report.robustness.switch_retries > 0,
            "{:?}",
            report.robustness
        );
    }

    #[test]
    fn bounded_buffer_drops_are_counted() {
        use faults::{FaultSpec, OverrunSpec};
        // Heavy overruns push utilization past 1 so a 4-slot buffer must
        // shed frames; the report has to account for every one.
        let config = SystemConfig {
            governor: GovernorKind::MaxPerformance,
            dpm: DpmKind::None,
            faults: Some(FaultSpec {
                overrun: Some(OverrunSpec {
                    prob: 1.0,
                    max_factor: 6.0,
                }),
                ..FaultSpec::default()
            }),
            buffer_capacity: Some(4),
            ..SystemConfig::default()
        };
        let report = run(config, 14);
        let r = &report.robustness;
        assert!(r.frames_dropped > 0, "{r:?}");
        let mut rng = SimRng::seed_from(14);
        let trace = Mp3Clip::table2()[0].generate(&mut rng);
        assert_eq!(
            report.frames_completed + r.frames_dropped,
            trace.frames().len() as u64
        );
    }

    #[test]
    fn supervisor_degrades_during_fault_window_and_recovers() {
        use crate::config::SupervisorConfig;
        use faults::{FaultSpec, FaultWindow, OverrunSpec};
        // Saturating overruns confined to [10 s, 40 s): the supervisor must
        // enter degraded mode inside the window and leave once the backlog
        // drains, well before the 100 s clip ends.
        let config = SystemConfig {
            governor: GovernorKind::quick_change_point(),
            dpm: DpmKind::None,
            faults: Some(FaultSpec {
                overrun: Some(OverrunSpec {
                    prob: 1.0,
                    max_factor: 6.0,
                }),
                windows: vec![FaultWindow {
                    start_s: 10.0,
                    end_s: 40.0,
                }],
                ..FaultSpec::default()
            }),
            supervisor: Some(SupervisorConfig {
                miss_window: 10,
                miss_ratio_enter: 0.5,
                miss_ratio_exit: 0.1,
                occupancy_enter: 8,
                min_dwell_s: 1.0,
            }),
            ..SystemConfig::default()
        };
        let report = run(config, 15);
        let r = &report.robustness;
        assert!(r.degraded_entries >= 1, "{r:?}");
        assert!(r.degraded_secs > 0.0, "{r:?}");
        // Recovery: degraded time is a strict fraction of the run.
        assert!(
            r.degraded_secs < 0.8 * report.duration_secs,
            "degraded {:.1} s of {:.1} s",
            r.degraded_secs,
            report.duration_secs
        );
        assert!(r.deadline_misses > 0, "{r:?}");
    }

    #[test]
    fn traced_run_matches_untraced_and_replays_exactly() {
        use simcore::json::ToJson;
        use trace::{replay, RingSink};
        let mut rng = SimRng::seed_from(21);
        let clip = Mp3Clip::table2()[0].generate(&mut rng);
        let end = clip.end() + SimDuration::from_secs(30);
        let config = config(GovernorKind::Ideal, DpmKind::BreakEven);
        let untraced =
            SystemSimulator::new_shared(&clip, config.clone(), 21, &SharedResources::default())
                .unwrap()
                .run(end)
                .unwrap();
        let mut sink = RingSink::new(1 << 16);
        let traced = SystemSimulator::new_traced_shared(
            &clip,
            config,
            21,
            &SharedResources::default(),
            &mut sink,
        )
        .unwrap()
        .run(end)
        .unwrap();
        // Attaching a sink must not perturb the simulation at all.
        assert_eq!(untraced.to_json().dump(), traced.to_json().dump());
        assert_eq!(sink.dropped(), 0, "ring under-sized for this clip");

        // The event stream alone reconstructs the report's aggregates
        // bit for bit: counters exactly, residency via the shared
        // integer-nanosecond accumulation.
        let summary = replay(&sink.events());
        assert_eq!(summary.frames_completed, traced.frames_completed);
        assert_eq!(summary.freq_switches, traced.freq_switches);
        assert_eq!(summary.rate_changes, traced.rate_changes);
        assert_eq!(summary.sleeps, traced.sleeps);
        assert_eq!(summary.wakes, traced.wakes);
        assert!(traced.sleeps > 0 && traced.freq_switches > 0);
        // Whole maps, compared as bits: a bucket on either side only is
        // a mismatch too.
        let replayed_modes: BTreeMap<ModeKey, u64> = summary
            .mode_secs()
            .into_iter()
            .map(|(m, secs)| (ModeKey::from_trace(m), secs.to_bits()))
            .collect();
        let report_modes: BTreeMap<ModeKey, u64> = traced
            .mode_secs
            .iter()
            .map(|(&k, secs)| (k, secs.to_bits()))
            .collect();
        assert_eq!(replayed_modes, report_modes);
        let bits = |m: &BTreeMap<u32, f64>| -> BTreeMap<u32, u64> {
            m.iter().map(|(&k, secs)| (k, secs.to_bits())).collect()
        };
        assert_eq!(bits(&summary.freq_secs()), bits(&traced.freq_residency));
        assert_eq!(
            summary.duration_secs().to_bits(),
            traced.duration_secs.to_bits()
        );
        assert_eq!(
            summary.delays.mean().to_bits(),
            traced.frame_delays.mean().to_bits()
        );
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        use faults::{FaultSpec, JitterSpec, OverrunSpec};
        let config = SystemConfig {
            governor: GovernorKind::quick_change_point(),
            dpm: DpmKind::None,
            faults: Some(FaultSpec {
                jitter: Some(JitterSpec {
                    prob: 0.2,
                    max_secs: 0.2,
                }),
                overrun: Some(OverrunSpec {
                    prob: 0.2,
                    max_factor: 3.0,
                }),
                ..FaultSpec::default()
            }),
            ..SystemConfig::default()
        };
        use simcore::json::ToJson;
        let a = run(config.clone(), 16);
        let b = run(config, 16);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
    }
}
