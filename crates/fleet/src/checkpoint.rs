//! Checkpoint/resume for long fleet runs.
//!
//! A checkpoint is the full [`FleetAccumulator`] state after the first
//! N devices, snapshotted durably (temp file + fsync + rename + parent
//! directory fsync) every few batches so a killed process loses at most
//! one checkpoint interval of work. Resuming restores the accumulator
//! and re-runs only the remaining devices; because every device's
//! outcome is a pure function of the spec and the accumulator folds
//! outcomes in device order, the resumed report is byte-identical to an
//! uninterrupted run — at *constant* checkpoint size, where the v1
//! format grew linearly with the outcome prefix.
//!
//! On-disk format (`fleet.ckpt` in the checkpoint directory):
//!
//! ```text
//! {"kind":"fleet_checkpoint","version":3,"spec_digest":…,"done":N,"checksum":…}
//! {"max_attempts":…,"completed":…,…,"records":[…],"records_truncated":…}
//! ```
//!
//! Two properties make resume trustworthy:
//!
//! * **Integrity**: the header carries an FNV-1a checksum of the
//!   payload line and a digest of the spec's canonical JSON form; a
//!   truncated file, a flipped bit, or a checkpoint from a different
//!   spec is rejected with a typed error rather than silently
//!   corrupting the report.
//!   `sync_all` before the rename means a post-crash file can only be
//!   the previous checkpoint or this one — never a valid-looking name
//!   over unsynced bytes.
//! * **Bit-exactness**: every `f64` is stored as its IEEE-754 bit
//!   pattern (the JSON layer's decimal round-trip would lose NaN and
//!   collapse payload bytes), so a resumed report's bytes match the
//!   uninterrupted run's exactly — including the quantile sketches,
//!   whose future compactions depend on the exact restored items.

use std::fs;
use std::path::{Path, PathBuf};

use detect::changepoint::ChangePointConfig;
use powermgr::config::{DpmKind, GovernorKind};
use simcore::json::{Json, ToJson};
use simcore::stats::{OnlineStats, QuantileSketch};

use crate::accum::{CohortAcc, FleetAccumulator, MetricAcc};
use crate::report::{DeviceAssertions, DeviceRecord, FailureSample, SloSummary};
use crate::spec::{FleetSpec, PolicySpec};
use crate::FleetError;

/// Format version; bumped on any incompatible layout change.
/// Version 2 replaced the v1 outcome-prefix payload with serialized
/// accumulator state (constant-size checkpoints); version 3 digests the
/// spec's canonical JSON form instead of its `Debug` output.
pub const CHECKPOINT_VERSION: u64 = 3;

/// File name of the checkpoint inside its directory.
pub const CHECKPOINT_FILE: &str = "fleet.ckpt";

/// The checkpoint path for a directory.
#[must_use]
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join(CHECKPOINT_FILE)
}

/// FNV-1a 64-bit over `bytes` — dependency-free and stable across
/// platforms, which is all an integrity stamp needs.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of the spec a checkpoint belongs to: FNV-1a over a JSON
/// document that covers every field (seed, axes, every policy
/// parameter, failure policy, assertions), so any spec edit — even a
/// changed `on_error` — invalidates old checkpoints instead of quietly
/// mixing outcomes from two different fleets. A change to that document
/// must come with a [`CHECKPOINT_VERSION`] bump.
#[must_use]
pub fn spec_digest(spec: &FleetSpec) -> u64 {
    fnv1a64(spec_json(spec).dump().as_bytes())
}

/// The canonical form [`spec_digest`] hashes, built field by field:
/// axes in their parse forms, each policy as tagged objects carrying
/// every parameter.
fn spec_json(spec: &FleetSpec) -> Json {
    fn parse_forms<T: ToString>(items: &[T]) -> Json {
        Json::Arr(items.iter().map(|i| Json::Str(i.to_string())).collect())
    }
    Json::obj(vec![
        ("name".into(), Json::Str(spec.name.clone())),
        ("devices".into(), spec.devices.to_json()),
        ("base_seed".into(), spec.base_seed.to_json()),
        ("workloads".into(), parse_forms(&spec.workloads)),
        (
            "policies".into(),
            Json::Arr(spec.policies.iter().map(policy_json).collect()),
        ),
        ("faults".into(), parse_forms(&spec.faults)),
        ("on_error".into(), Json::Str(spec.on_error.to_string())),
        (
            "assertions".into(),
            spec.assertions.as_ref().map_or(Json::Null, ToJson::to_json),
        ),
    ])
}

/// One policy's governor and DPM as `{"kind": label, parameters…}`
/// objects. The matches are exhaustive, so a new parameter cannot be
/// left out of the digest silently.
fn policy_json(policy: &PolicySpec) -> Json {
    let tagged = |label: &str, params: Vec<(&str, Json)>| {
        let mut pairs = vec![("kind".to_owned(), Json::Str(label.to_owned()))];
        pairs.extend(params.into_iter().map(|(k, v)| (k.to_owned(), v)));
        Json::obj(pairs)
    };
    let governor_params = match &policy.governor {
        GovernorKind::Ideal | GovernorKind::MaxPerformance => vec![],
        GovernorKind::ChangePoint(ChangePointConfig {
            window,
            check_interval,
            k_step,
            ratios,
            confidence,
            calibration_trials,
            calibration_seed,
        }) => vec![
            ("window", window.to_json()),
            ("check_interval", check_interval.to_json()),
            ("k_step", k_step.to_json()),
            (
                "ratios",
                Json::Arr(ratios.iter().map(ToJson::to_json).collect()),
            ),
            ("confidence", confidence.to_json()),
            ("calibration_trials", calibration_trials.to_json()),
            ("calibration_seed", calibration_seed.to_json()),
        ],
        GovernorKind::ExpAverage { gain } => vec![("gain", gain.to_json())],
    };
    let dpm_params = match &policy.dpm {
        DpmKind::None
        | DpmKind::BreakEven
        | DpmKind::Adaptive
        | DpmKind::Predictive
        | DpmKind::Renewal => vec![],
        DpmKind::FixedTimeout { timeout_s } => vec![("timeout_s", timeout_s.to_json())],
        DpmKind::Tismdp { delay_weight } => vec![("delay_weight", delay_weight.to_json())],
    };
    Json::obj(vec![
        (
            "governor".into(),
            tagged(policy.governor.label(), governor_params),
        ),
        ("dpm".into(), tagged(policy.dpm.label(), dpm_params)),
    ])
}

/// Writes a durable, atomic checkpoint of the accumulator state after
/// the first [`FleetAccumulator::devices`] devices.
///
/// The payload goes to `fleet.ckpt.tmp`, is synced to disk, renamed
/// into place, and the directory is synced (on Unix) — so a crash at
/// any point leaves either the previous checkpoint or this one, both
/// fully written; never a torn or unsynced file.
///
/// # Errors
///
/// Returns [`FleetError::Io`] when the directory or file cannot be
/// written.
pub fn write_checkpoint(
    dir: &Path,
    spec: &FleetSpec,
    acc: &FleetAccumulator,
) -> Result<(), FleetError> {
    fs::create_dir_all(dir).map_err(|e| {
        FleetError::Io(format!(
            "cannot create checkpoint dir {}: {e}",
            dir.display()
        ))
    })?;
    let mut payload = encode_accumulator(acc).dump();
    payload.push('\n');
    let header = Json::obj(vec![
        ("kind".into(), Json::Str("fleet_checkpoint".into())),
        ("version".into(), Json::Int(CHECKPOINT_VERSION as i64)),
        ("spec_digest".into(), Json::Int(spec_digest(spec) as i64)),
        ("done".into(), Json::Int(acc.devices() as i64)),
        (
            "checksum".into(),
            Json::Int(fnv1a64(payload.as_bytes()) as i64),
        ),
    ]);
    let mut text = header.dump();
    text.push('\n');
    text.push_str(&payload);

    let path = checkpoint_path(dir);
    let tmp = path.with_extension("ckpt.tmp");
    trace::durable::write_atomic(&path, &tmp, text.as_bytes())
        .map_err(|e| FleetError::Io(format!("cannot write {}: {e}", path.display())))
}

/// Loads and verifies a checkpoint for `spec`, restoring the
/// accumulator exactly as it was when written.
///
/// `Ok(None)` when the directory holds no checkpoint yet (a resume of a
/// run that died before its first snapshot simply starts from device
/// 0).
///
/// # Errors
///
/// [`FleetError::Io`] when the file exists but cannot be read;
/// [`FleetError::Checkpoint`] when it fails verification: wrong
/// version, a digest from a different spec, a checksum mismatch
/// (truncation/corruption), more devices than the spec has, or
/// accumulator state that is internally inconsistent (e.g. a sketch
/// whose level weights do not sum to its count).
pub fn load_checkpoint(
    dir: &Path,
    spec: &FleetSpec,
) -> Result<Option<FleetAccumulator>, FleetError> {
    let path = checkpoint_path(dir);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(FleetError::Io(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    };
    let bad = |msg: String| FleetError::Checkpoint(format!("{}: {msg}", path.display()));

    let (header_line, payload) = text
        .split_once('\n')
        .ok_or_else(|| bad("missing header line".into()))?;
    let header = Json::parse(header_line).map_err(|e| bad(format!("malformed header: {e}")))?;
    if header.get("kind").and_then(Json::as_str) != Some("fleet_checkpoint") {
        return Err(bad("not a fleet checkpoint".into()));
    }
    let version = int_field(&header, "version").map_err(&bad)?;
    if version != CHECKPOINT_VERSION {
        return Err(bad(format!(
            "version {version} is not the supported {CHECKPOINT_VERSION}"
        )));
    }
    let digest = int_field(&header, "spec_digest").map_err(&bad)?;
    if digest != spec_digest(spec) {
        return Err(bad(
            "spec digest mismatch (checkpoint belongs to a different fleet spec)".into(),
        ));
    }
    let checksum = int_field(&header, "checksum").map_err(&bad)?;
    if checksum != fnv1a64(payload.as_bytes()) {
        return Err(bad(
            "payload checksum mismatch (truncated or corrupted checkpoint)".into(),
        ));
    }
    let done = int_field(&header, "done").map_err(&bad)?;
    if done > spec.devices as u64 {
        return Err(bad(format!(
            "records {done} devices but the spec has only {}",
            spec.devices
        )));
    }

    let json = Json::parse(payload.trim_end())
        .map_err(|e| bad(format!("malformed accumulator payload: {e}")))?;
    let acc = decode_accumulator(&json).map_err(&bad)?;
    if acc.devices() != done {
        return Err(bad(format!(
            "header promises {done} devices, accumulator holds {}",
            acc.devices()
        )));
    }
    if acc.cohorts.len() != spec.policies.len() {
        return Err(bad(format!(
            "accumulator has {} cohort slots, spec has {} policies",
            acc.cohorts.len(),
            spec.policies.len()
        )));
    }
    Ok(Some(acc))
}

/// Encodes an `f64` as its bit pattern (see module docs).
fn bits(v: f64) -> Json {
    Json::Int(v.to_bits() as i64)
}

fn encode_stats(s: &OnlineStats) -> Json {
    Json::obj(vec![
        ("count".into(), Json::Int(s.count() as i64)),
        ("mean_bits".into(), bits(s.mean())),
        ("m2_bits".into(), bits(s.m2())),
        ("min_bits".into(), bits(s.min())),
        ("max_bits".into(), bits(s.max())),
        ("sum_bits".into(), bits(s.sum())),
    ])
}

fn decode_stats(json: &Json) -> Result<OnlineStats, String> {
    Ok(OnlineStats::from_raw(
        int_field(json, "count")?,
        f64_bits_field(json, "mean_bits")?,
        f64_bits_field(json, "m2_bits")?,
        f64_bits_field(json, "min_bits")?,
        f64_bits_field(json, "max_bits")?,
        f64_bits_field(json, "sum_bits")?,
    ))
}

fn encode_sketch(s: &QuantileSketch) -> Json {
    let (capacity, count, err_ranks, levels) = s.to_parts();
    Json::obj(vec![
        ("capacity".into(), Json::Int(capacity as i64)),
        ("count".into(), Json::Int(count as i64)),
        ("err_ranks".into(), Json::Int(err_ranks as i64)),
        (
            "levels".into(),
            Json::Arr(
                levels
                    .into_iter()
                    .map(|(items, keep_odd)| {
                        Json::obj(vec![
                            ("keep_odd".into(), Json::Bool(keep_odd)),
                            (
                                "items_bits".into(),
                                Json::Arr(items.into_iter().map(bits).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_sketch(json: &Json) -> Result<QuantileSketch, String> {
    let capacity = usize::try_from(int_field(json, "capacity")?).map_err(|e| e.to_string())?;
    let count = int_field(json, "count")?;
    let err_ranks = int_field(json, "err_ranks")?;
    let mut levels = Vec::new();
    for (i, level) in json
        .get("levels")
        .and_then(Json::as_array)
        .ok_or("missing \"levels\"")?
        .iter()
        .enumerate()
    {
        let keep_odd = level
            .get("keep_odd")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("level {i}: missing \"keep_odd\""))?;
        let items = level
            .get("items_bits")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("level {i}: missing \"items_bits\""))?
            .iter()
            .map(|v| {
                v.as_i64()
                    .map(|b| f64::from_bits(b as u64))
                    .ok_or_else(|| format!("level {i}: non-integer item bits"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        levels.push((items, keep_odd));
    }
    QuantileSketch::from_parts(capacity, count, err_ranks, levels)
}

fn encode_metric(m: &MetricAcc) -> Json {
    Json::obj(vec![
        ("stats".into(), encode_stats(&m.stats)),
        ("sketch".into(), encode_sketch(&m.sketch)),
    ])
}

fn decode_metric(json: &Json) -> Result<MetricAcc, String> {
    let stats = decode_stats(json.get("stats").ok_or("missing \"stats\"")?)?;
    let sketch = decode_sketch(json.get("sketch").ok_or("missing \"sketch\"")?)?;
    if stats.count() != sketch.count() {
        return Err(format!(
            "metric stats count {} disagrees with sketch count {}",
            stats.count(),
            sketch.count()
        ));
    }
    Ok(MetricAcc { stats, sketch })
}

fn encode_slo(s: &SloSummary) -> Json {
    Json::obj(vec![
        ("monitored".into(), Json::Int(s.monitored as i64)),
        ("violating".into(), Json::Int(s.violating as i64)),
        ("delay".into(), Json::Int(s.delay as i64)),
        ("oscillation".into(), Json::Int(s.oscillation as i64)),
        ("occupancy".into(), Json::Int(s.occupancy as i64)),
        (
            "energy_monotone".into(),
            Json::Int(s.energy_monotone as i64),
        ),
    ])
}

fn decode_slo(json: &Json) -> Result<SloSummary, String> {
    let slo = SloSummary {
        monitored: int_field(json, "monitored")?,
        violating: int_field(json, "violating")?,
        delay: int_field(json, "delay")?,
        oscillation: int_field(json, "oscillation")?,
        occupancy: int_field(json, "occupancy")?,
        energy_monotone: int_field(json, "energy_monotone")?,
    };
    if slo.violating > slo.monitored {
        return Err(format!(
            "slo claims {} violating devices out of {} monitored",
            slo.violating, slo.monitored
        ));
    }
    Ok(slo)
}

fn encode_cohort(c: &CohortAcc) -> Json {
    Json::obj(vec![
        ("devices".into(), Json::Int(c.devices as i64)),
        ("failed".into(), Json::Int(c.failed as i64)),
        ("survivors".into(), Json::Int(c.survivors as i64)),
        ("governor".into(), Json::Str(c.governor.clone())),
        ("dpm".into(), Json::Str(c.dpm.clone())),
        ("sum_energy_kj_bits".into(), bits(c.sum_energy_kj)),
        ("sum_delay_s_bits".into(), bits(c.sum_delay_s)),
        ("sum_drop_rate_bits".into(), bits(c.sum_drop_rate)),
        ("slo".into(), encode_slo(&c.slo)),
    ])
}

fn decode_cohort(json: &Json) -> Result<CohortAcc, String> {
    let devices = int_field(json, "devices")?;
    let failed = int_field(json, "failed")?;
    let survivors = int_field(json, "survivors")?;
    if failed + survivors != devices {
        return Err(format!(
            "cohort devices {devices} != failed {failed} + survivors {survivors}"
        ));
    }
    let slo = decode_slo(json.get("slo").ok_or("missing \"slo\"")?)?;
    if slo.monitored > survivors {
        return Err(format!(
            "cohort slo monitors {} devices but only {survivors} survived",
            slo.monitored
        ));
    }
    Ok(CohortAcc {
        devices,
        failed,
        survivors,
        governor: str_field(json, "governor")?,
        dpm: str_field(json, "dpm")?,
        sum_energy_kj: f64_bits_field(json, "sum_energy_kj_bits")?,
        sum_delay_s: f64_bits_field(json, "sum_delay_s_bits")?,
        sum_drop_rate: f64_bits_field(json, "sum_drop_rate_bits")?,
        slo,
    })
}

fn encode_sample(s: &FailureSample) -> Json {
    Json::obj(vec![
        ("device".into(), Json::Int(s.device as i64)),
        ("attempts".into(), Json::Int(s.attempts as i64)),
        ("error".into(), Json::Str(s.error.clone())),
    ])
}

fn decode_sample(json: &Json) -> Result<FailureSample, String> {
    Ok(FailureSample {
        device: int_field(json, "device")?,
        attempts: int_field(json, "attempts")?,
        error: str_field(json, "error")?,
    })
}

fn encode_accumulator(acc: &FleetAccumulator) -> Json {
    Json::obj(vec![
        ("max_attempts".into(), Json::Int(acc.max_attempts as i64)),
        ("completed".into(), Json::Int(acc.completed as i64)),
        ("failed".into(), Json::Int(acc.failed as i64)),
        ("retried".into(), Json::Int(acc.retried as i64)),
        ("recovered".into(), Json::Int(acc.recovered as i64)),
        ("quarantined".into(), Json::Int(acc.quarantined as i64)),
        (
            "retry_attempts".into(),
            Json::Int(acc.retry_attempts as i64),
        ),
        (
            "first_errors".into(),
            Json::Arr(acc.first_errors.iter().map(encode_sample).collect()),
        ),
        (
            "cohorts".into(),
            Json::Arr(acc.cohorts.iter().map(encode_cohort).collect()),
        ),
        ("energy_kj".into(), encode_metric(&acc.energy_kj)),
        ("mean_delay_s".into(), encode_metric(&acc.mean_delay_s)),
        ("drop_rate".into(), encode_metric(&acc.drop_rate)),
        (
            "detection_latency_frames".into(),
            encode_metric(&acc.detection_latency_frames),
        ),
        (
            "records".into(),
            Json::Arr(acc.records.iter().map(encode_record).collect()),
        ),
        (
            "records_truncated".into(),
            Json::Int(acc.records_truncated as i64),
        ),
    ])
}

fn decode_accumulator(json: &Json) -> Result<FleetAccumulator, String> {
    let completed = int_field(json, "completed")?;
    let failed = int_field(json, "failed")?;
    let first_errors = json
        .get("first_errors")
        .and_then(Json::as_array)
        .ok_or("missing \"first_errors\"")?
        .iter()
        .map(decode_sample)
        .collect::<Result<Vec<FailureSample>, String>>()?;
    let cohorts = json
        .get("cohorts")
        .and_then(Json::as_array)
        .ok_or("missing \"cohorts\"")?
        .iter()
        .map(decode_cohort)
        .collect::<Result<Vec<CohortAcc>, String>>()?;
    if cohorts.iter().map(|c| c.devices).sum::<u64>() != completed + failed {
        return Err("cohort device counts do not sum to completed + failed".into());
    }
    let records = json
        .get("records")
        .and_then(Json::as_array)
        .ok_or("missing \"records\"")?
        .iter()
        .map(decode_record)
        .collect::<Result<Vec<DeviceRecord>, String>>()?;
    let acc = FleetAccumulator {
        max_attempts: int_field(json, "max_attempts")?,
        completed,
        failed,
        retried: int_field(json, "retried")?,
        recovered: int_field(json, "recovered")?,
        quarantined: int_field(json, "quarantined")?,
        retry_attempts: int_field(json, "retry_attempts")?,
        first_errors,
        cohorts,
        energy_kj: decode_metric(json.get("energy_kj").ok_or("missing \"energy_kj\"")?)?,
        mean_delay_s: decode_metric(json.get("mean_delay_s").ok_or("missing \"mean_delay_s\"")?)?,
        drop_rate: decode_metric(json.get("drop_rate").ok_or("missing \"drop_rate\"")?)?,
        detection_latency_frames: decode_metric(
            json.get("detection_latency_frames")
                .ok_or("missing \"detection_latency_frames\"")?,
        )?,
        records,
        records_truncated: int_field(json, "records_truncated")?,
    };
    if acc.energy_kj.stats.count() > completed {
        return Err("energy metric counts more devices than completed".into());
    }
    Ok(acc)
}

fn encode_record(r: &DeviceRecord) -> Json {
    Json::obj(vec![
        ("device".into(), Json::Int(r.device as i64)),
        ("seed".into(), Json::Int(r.seed as i64)),
        ("workload".into(), Json::Str(r.workload.clone())),
        ("policy".into(), Json::Int(r.policy as i64)),
        ("governor".into(), Json::Str(r.governor.clone())),
        ("dpm".into(), Json::Str(r.dpm.clone())),
        ("faults".into(), Json::Str(r.faults.clone())),
        ("attempts".into(), Json::Int(r.attempts as i64)),
        ("energy_kj_bits".into(), bits(r.energy_kj)),
        ("mean_delay_s_bits".into(), bits(r.mean_delay_s)),
        ("drop_rate_bits".into(), bits(r.drop_rate)),
        (
            "detection_latency_frames_bits".into(),
            r.detection_latency_frames.map_or(Json::Null, bits),
        ),
        (
            "frames_completed".into(),
            Json::Int(r.frames_completed as i64),
        ),
        ("duration_secs_bits".into(), bits(r.duration_secs)),
        (
            "deadline_miss_ratio_bits".into(),
            bits(r.deadline_miss_ratio),
        ),
        (
            "assertions".into(),
            match &r.assertions {
                None => Json::Null,
                Some(a) => Json::obj(vec![
                    ("delay".into(), Json::Int(a.delay as i64)),
                    ("oscillation".into(), Json::Int(a.oscillation as i64)),
                    ("occupancy".into(), Json::Int(a.occupancy as i64)),
                    (
                        "energy_monotone".into(),
                        Json::Int(a.energy_monotone as i64),
                    ),
                ]),
            },
        ),
    ])
}

fn decode_record(json: &Json) -> Result<DeviceRecord, String> {
    Ok(DeviceRecord {
        device: int_field(json, "device")?,
        seed: int_field(json, "seed")?,
        workload: str_field(json, "workload")?,
        policy: int_field(json, "policy")?,
        governor: str_field(json, "governor")?,
        dpm: str_field(json, "dpm")?,
        faults: str_field(json, "faults")?,
        attempts: int_field(json, "attempts")?,
        energy_kj: f64_bits_field(json, "energy_kj_bits")?,
        mean_delay_s: f64_bits_field(json, "mean_delay_s_bits")?,
        drop_rate: f64_bits_field(json, "drop_rate_bits")?,
        detection_latency_frames: match json.get("detection_latency_frames_bits") {
            Some(Json::Null) => None,
            _ => Some(f64_bits_field(json, "detection_latency_frames_bits")?),
        },
        frames_completed: int_field(json, "frames_completed")?,
        duration_secs: f64_bits_field(json, "duration_secs_bits")?,
        deadline_miss_ratio: f64_bits_field(json, "deadline_miss_ratio_bits")?,
        assertions: match json.get("assertions") {
            Some(Json::Null) => None,
            Some(v) => Some(DeviceAssertions {
                delay: int_field(v, "delay")?,
                oscillation: int_field(v, "oscillation")?,
                occupancy: int_field(v, "occupancy")?,
                energy_monotone: int_field(v, "energy_monotone")?,
            }),
            None => return Err("missing \"assertions\"".into()),
        },
    })
}

/// Reads a `u64` stored as `Json::Int` (two's-complement cast for
/// values above `i64::MAX`, e.g. full-width seeds and bit patterns).
fn int_field(json: &Json, name: &'static str) -> Result<u64, String> {
    match json.get(name) {
        Some(Json::Int(i)) => Ok(*i as u64),
        _ => Err(format!("missing \"{name}\"")),
    }
}

fn str_field(json: &Json, name: &'static str) -> Result<String, String> {
    json.get(name)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing \"{name}\""))
}

fn f64_bits_field(json: &Json, name: &'static str) -> Result<f64, String> {
    int_field(json, name).map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DeviceFailure, DeviceOutcome};
    use crate::spec::OnError;
    use faults::FaultPreset;
    use powermgr::scenario::Workload;

    fn spec() -> FleetSpec {
        FleetSpec {
            name: "ckpt".into(),
            devices: 4,
            base_seed: 9,
            workloads: vec![Workload::Session],
            policies: vec![PolicySpec {
                governor: GovernorKind::MaxPerformance,
                dpm: DpmKind::None,
            }],
            faults: vec![FaultPreset::Off],
            on_error: OnError::Continue,
            assertions: None,
        }
    }

    fn outcomes() -> Vec<DeviceOutcome> {
        vec![
            DeviceOutcome::Completed(DeviceRecord {
                device: 0,
                seed: u64::MAX - 3, // exercises the two's-complement cast
                workload: "session".into(),
                policy: 0,
                governor: "max".into(),
                dpm: "none".into(),
                faults: "off".into(),
                attempts: 1,
                energy_kj: 1.25,
                mean_delay_s: 0.5,
                drop_rate: 0.125,
                // NaN is filtered by the metric accumulators but must
                // survive the record sample bit-exactly.
                detection_latency_frames: Some(f64::NAN),
                frames_completed: 100,
                duration_secs: 60.0,
                deadline_miss_ratio: 0.0,
                // Monitored device: the violation counts must survive
                // the round-trip and land back in the cohort SLO.
                assertions: Some(DeviceAssertions {
                    delay: 3,
                    oscillation: 1,
                    occupancy: 0,
                    energy_monotone: 2,
                }),
            }),
            DeviceOutcome::Failed(DeviceFailure {
                device: 1,
                seed: 7,
                workload: "session".into(),
                policy: 0,
                governor: "max".into(),
                dpm: "none".into(),
                faults: "poison".into(),
                attempts: 3,
                error: "injected".into(),
            }),
        ]
    }

    fn accumulated(outcomes: Vec<DeviceOutcome>) -> FleetAccumulator {
        let mut acc = FleetAccumulator::new(1, 3);
        for o in outcomes {
            acc.push(o);
        }
        acc
    }

    /// The restored accumulator must not merely *look* equal — it must
    /// produce bit-identical behaviour forever after. Comparing the
    /// re-encoded forms covers every bit pattern, NaN included.
    fn bit_eq(a: &FleetAccumulator, b: &FleetAccumulator) -> bool {
        encode_accumulator(a).dump() == encode_accumulator(b).dump()
    }

    #[test]
    fn round_trips_accumulator_state_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("dvsdpm-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = spec();
        let want = accumulated(outcomes());
        write_checkpoint(&dir, &spec, &want).expect("write");
        let got = load_checkpoint(&dir, &spec)
            .expect("load")
            .expect("present");
        assert!(bit_eq(&got, &want), "round-trip changed the accumulator");
        assert_eq!(got.devices(), 2);
        // The restored accumulator continues identically: pushing the
        // same future outcomes yields byte-identical reports.
        let mut live = accumulated(outcomes());
        let mut restored = got;
        for acc in [&mut live, &mut restored] {
            let mut extra = outcomes();
            if let DeviceOutcome::Completed(r) = &mut extra[0] {
                r.device = 2;
                r.energy_kj = 9.75;
            }
            acc.push(extra.swap_remove(0));
        }
        assert!(bit_eq(&live, &restored), "futures diverged after restore");
        // No temp file left behind.
        assert!(!checkpoint_path(&dir).with_extension("ckpt.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_none_not_an_error() {
        let dir = std::env::temp_dir().join(format!("dvsdpm-ckpt-none-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        assert!(load_checkpoint(&dir, &spec()).expect("ok").is_none());
    }

    #[test]
    fn verification_rejects_corruption_and_foreign_specs() {
        let dir = std::env::temp_dir().join(format!("dvsdpm-ckpt-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = spec();
        write_checkpoint(&dir, &spec, &accumulated(outcomes())).expect("write");

        // A different spec (changed on_error) must be rejected.
        let mut other = spec.clone();
        other.on_error = OnError::FailFast;
        let err = load_checkpoint(&dir, &other).expect_err("digest mismatch");
        assert!(err.to_string().contains("digest mismatch"), "{err}");

        // Truncate the payload: checksum mismatch.
        let path = checkpoint_path(&dir);
        let good = fs::read_to_string(&path).expect("read");
        let truncated = &good[..good.len() - 2];
        fs::write(&path, truncated).expect("write corrupt");
        let err = load_checkpoint(&dir, &spec).expect_err("checksum mismatch");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // Wrong version: a v2 checkpoint (Debug-form spec digest) is
        // rejected by its version, not misread as a foreign spec.
        fs::write(&path, good.replacen("\"version\":3", "\"version\":2", 1))
            .expect("write version");
        let err = load_checkpoint(&dir, &spec).expect_err("version mismatch");
        assert!(
            err.to_string().contains("version 2 is not the supported 3"),
            "{err}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inconsistent_accumulator_state_is_rejected() {
        let dir = std::env::temp_dir().join(format!("dvsdpm-ckpt-incons-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = spec();
        let mut acc = accumulated(outcomes());
        // Claim an extra completion the cohorts know nothing about: the
        // decoder's cross-checks must catch it even though header
        // checksum and digest are valid (we re-write the checkpoint, so
        // both are freshly computed over the corrupt state).
        acc.completed += 1;
        write_checkpoint(&dir, &spec, &acc).expect("write");
        let err = load_checkpoint(&dir, &spec).expect_err("inconsistency rejected");
        assert!(
            err.to_string().contains("do not sum"),
            "unexpected error: {err}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
