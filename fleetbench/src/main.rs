//! `fleetbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Every
//! invocation also makes the traced run, checks its report bytes
//! against the engine's, and writes the span dump (`spans.jsonl`) and
//! the self-time table (`layers.txt`) under `.bench_out/<workload>/`.
//!
//! Order of work:
//! 1. `RSS_PROBES` fresh processes each set up, run the fleet once
//!    untraced and report `VmHWM` (`peak_rss_mb` is their median);
//! 2. this process sets up, makes one warm-up run, then times untraced
//!    runs for `--seconds`, failing any run that misses the threshold
//!    cache or changes the report bytes. After each timed run a fresh
//!    process times one cold set-up (`setup_s` is their median), so the
//!    set-up samples spread over the whole measuring window;
//! 3. one traced run, whose report, `fleet.jsonl` and device traces
//!    must match the engine's.
//!
//! On a shared host the same run can take 1.5× longer for seconds or
//! minutes at a time. Every timed run and every cold set-up is therefore
//! timed next to a pass of the frozen [`reference`] workload and
//! rescaled to the nominal host speed: `devices_per_s` is the devices of
//! all timed runs over their summed rescaled wall time, `setup_s` the
//! median rescaled set-up. The figures as measured are printed beside
//! them.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use detect::cache::cache_stats_detailed;
use fleet::checkpoint::fnv1a64;
use fleet::{run_fleet_opts, CohortResources, FleetSpec};
use fleetbench::metrics::{
    median, per_layer, result_json, Decomposition, LayerContext, SetupProbe, END_TO_END, LAYERS,
    PER_LAYER,
};
use fleetbench::reference;
use fleetbench::spans::layer_table;
use fleetbench::traced::run_traced;
use fleetbench::workloads::Workload;
use simcore::par::{available_jobs, Jobs};

/// Processes that measure peak RSS; `peak_rss_mb` is their median.
const RSS_PROBES: usize = 3;
/// Timed untraced runs (and set-up probes) made even when `--seconds`
/// is shorter.
const MIN_RUNS: usize = 5;
/// How far `traced.coverage` may sit from 1 before the run fails.
const COVERAGE_TOLERANCE: f64 = 0.05;

/// What one invocation is asked to do.
#[derive(Debug)]
enum Mode {
    /// Measure the workload and print the result line.
    Bench { seconds: f64, trace: bool },
    /// Child: time one cold set-up and print [`SetupProbe::to_line`].
    SetupProbe,
    /// Child: set up, run the fleet once under this directory, print
    /// `rss <VmHWM MiB>`.
    RssProbe(PathBuf),
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    mode: Mode,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = String::new();
        let mut seed = bench::EXPERIMENT_SEED;
        let (mut seconds, mut trace) = (10.0, false);
        let mut probe: Option<Mode> = None;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = value()?,
                "--seed" => {
                    let v = value()?;
                    seed = v
                        .parse()
                        .map_err(|_| format!("--seed expects a non-negative integer, got `{v}`"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds expects a positive number, got `{v}`"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                    }
                }
                "--setup-probe" => probe = Some(Mode::SetupProbe),
                "--rss-probe" => probe = Some(Mode::RssProbe(PathBuf::from(value()?))),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(Args {
            workload,
            seed,
            mode: probe.unwrap_or(Mode::Bench { seconds, trace }),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome =
        Workload::new(&args.workload, args.seed, None, None).and_then(|w| match &args.mode {
            Mode::Bench { seconds, trace } => bench(&w, args.seed, *seconds, *trace),
            Mode::SetupProbe => setup(&w).map(|(_, probe)| {
                let probe = SetupProbe {
                    reference_s: reference::pass_s(available_jobs()),
                    ..probe
                };
                println!("{}", probe.to_line());
                true
            }),
            Mode::RssProbe(dir) => rss_probe(&w, dir).map(|mb| {
                println!("rss {mb:?}");
                true
            }),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The set-up every `dvsdpm fleet` invocation pays: parse, validate,
/// and resolve every policy's threshold table.
fn setup(w: &Workload) -> Result<(FleetSpec, SetupProbe), String> {
    let t0 = Instant::now();
    let spec = FleetSpec::parse(&w.spec_json).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    let before = cache_stats_detailed();
    let tp = Instant::now();
    drop(CohortResources::prepare(&spec));
    let prepare_s = tp.elapsed().as_secs_f64();
    let probe = SetupProbe {
        setup_s: t0.elapsed().as_secs_f64(),
        prepare_s,
        misses: cache_stats_detailed().since(&before).misses,
        reference_s: 0.0,
    };
    Ok((spec, probe))
}

/// Sets up and runs the fleet once untraced; returns `VmHWM` in MiB.
fn rss_probe(w: &Workload, dir: &Path) -> Result<f64, String> {
    let (spec, _) = setup(w)?;
    run_fleet_opts(&spec, Jobs::Count(w.jobs), &w.options(dir)).map_err(|e| e.to_string())?;
    remove_dir(dir)?;
    bench::peak_rss_mb().ok_or_else(|| "cannot read VmHWM from /proc/self/status".into())
}

/// Runs this program again as a probe child and returns its last line.
fn child(w: &Workload, seed: u64, probe: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(probe)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a probe process: {e}"))?;
    if !output.status.success() {
        return Err(format!("probe {probe:?} failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Ok(stdout.lines().last().unwrap_or_default().to_string())
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// What a run leaves in its trace directory: `fleet.jsonl`, and the
/// count and total size of the per-device traces.
fn trace_files(dir: &Path) -> Result<(Vec<u8>, u64, u64), String> {
    let trace = dir.join("trace");
    if !trace.exists() {
        return Ok((Vec::new(), 0, 0));
    }
    let log =
        fs::read(trace.join("fleet.jsonl")).map_err(|e| format!("cannot read fleet.jsonl: {e}"))?;
    let (mut files, mut bytes) = (0u64, 0u64);
    for entry in fs::read_dir(&trace).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_name().to_string_lossy().starts_with("device_") {
            files += 1;
            bytes += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok((log, files, bytes))
}

fn bench(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let out = PathBuf::from(".bench_out").join(w.name);
    remove_dir(&out)?;
    fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut problems: Vec<String> = Vec::new();

    // 1. Peak RSS, each in a process that runs nothing larger.
    let mut rss = Vec::with_capacity(RSS_PROBES);
    for k in 0..RSS_PROBES {
        let dir = out.join(format!("rss{k}"));
        let line = child(w, seed, &["--rss-probe", &dir.to_string_lossy()])?;
        let mb = line
            .strip_prefix("rss ")
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("unexpected rss probe output `{line}`"))?;
        rss.push(mb);
    }

    // 2. Warm set-up, a warm-up run, then timed runs, each followed by
    // one cold set-up in a fresh process.
    let (spec, _) = setup(w)?;
    let jobs = Jobs::Count(w.jobs);
    let dir = out.join("untraced");
    let opts = w.options(&dir);
    let expected = run_fleet_opts(&spec, jobs, &opts).map_err(|e| e.to_string())?;
    let expected_bytes = expected.to_json_pretty();
    let expected_files = trace_files(&dir)?;
    remove_dir(&dir)?;

    let (mut attempted, mut failed, mut retry_attempts) = (0u64, 0u64, 0u64);
    // Per timed run: raw wall, and wall at the nominal host speed.
    let mut walls: Vec<(f64, f64)> = Vec::new();
    let mut setups: Vec<SetupProbe> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut reference_before = reference::pass_s(w.jobs);
    while walls.len() < MIN_RUNS || started.elapsed() < budget {
        let before = cache_stats_detailed();
        let t0 = Instant::now();
        let report = run_fleet_opts(&spec, jobs, &opts).map_err(|e| e.to_string())?;
        let wall = t0.elapsed().as_secs_f64();
        let cache = cache_stats_detailed().since(&before);
        let reference_after = reference::pass_s(w.jobs);
        let nominal =
            reference::at_nominal(wall, (reference_before + reference_after) / 2.0, w.jobs);
        reference_before = reference_after;
        if cache.misses > 0 {
            problems.push(format!(
                "timed run {} missed the threshold cache {} time(s): calibration leaked into devices_per_s",
                walls.len(),
                cache.misses
            ));
        }
        if report.to_json_pretty() != expected_bytes {
            problems.push(format!(
                "timed run {} changed the report bytes",
                walls.len()
            ));
        }
        remove_dir(&dir)?;
        attempted += report.devices;
        failed += report.health.failed;
        retry_attempts += report.health.retry_attempts;
        walls.push((wall, nominal));
        setups.push(SetupProbe::from_line(&child(w, seed, &["--setup-probe"])?)?);
    }
    let raw: Vec<f64> = walls.iter().map(|&(raw, _)| raw).collect();
    let nominal_wall_s = walls.iter().map(|&(_, n)| n).sum::<f64>() / walls.len() as f64;
    let setup_s = median(
        &setups
            .iter()
            .map(|p| reference::at_nominal(p.setup_s, p.reference_s, available_jobs()))
            .collect::<Vec<_>>(),
    );
    let listing: String = walls
        .iter()
        .map(|(raw, nominal)| format!("{raw:?} {nominal:?}\n"))
        .collect();
    fs::write(out.join("walls.txt"), listing).map_err(|e| e.to_string())?;
    let listing: String = setups
        .iter()
        .map(|p| format!("{:?} {:?}\n", p.setup_s, p.reference_s))
        .collect();
    fs::write(out.join("setups.txt"), listing).map_err(|e| e.to_string())?;

    // 3. The traced run.
    let traced_dir = out.join("traced");
    let before = cache_stats_detailed();
    let traced = run_traced(&spec, jobs, &w.options(&traced_dir)).map_err(|e| e.to_string())?;
    let traced_cache = cache_stats_detailed().since(&before);
    if traced.bytes != expected_bytes {
        problems.push("the traced run's report bytes differ from run_fleet_opts".into());
    }
    if trace_files(&traced_dir)? != expected_files {
        problems.push(
            "the traced run's fleet.jsonl or device traces differ from run_fleet_opts".into(),
        );
    }
    remove_dir(&traced_dir)?;

    let d = Decomposition::of(&traced);
    let coverage = d.coverage();
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        problems.push(format!(
            "traced.coverage {coverage:.4} is more than {COVERAGE_TOLERANCE} from 1"
        ));
    }
    let ctx = LayerContext {
        calibrate_s: median(&setups.iter().map(|p| p.prepare_s).collect::<Vec<_>>()),
        cold_misses: median(&setups.iter().map(|p| p.misses as f64).collect::<Vec<_>>()) as u64,
        traced_hits: traced_cache.hits,
        // The runs just before the traced one: the host's speed drifts,
        // so the overhead compares runs made close together.
        untraced_wall_s: median(&raw[raw.len() - MIN_RUNS..]),
    };
    let layers = per_layer(&traced, &d, &ctx);

    // Span dump and self-time table.
    let table = layer_table(&LAYERS, &d.totals, d.accounted_ns);
    let dump: String = traced
        .spans
        .iter()
        .enumerate()
        .map(|(id, s)| s.to_jsonl(id) + "\n")
        .collect();
    fs::write(out.join("spans.jsonl"), dump).map_err(|e| e.to_string())?;
    let mut listing = table.clone();
    listing.push('\n');
    for (name, value) in &layers {
        listing.push_str(&format!("{name:<28} {value}\n"));
    }
    fs::write(out.join("layers.txt"), &listing).map_err(|e| e.to_string())?;

    println!(
        "fleetbench {}: {} devices at jobs {} on {} core(s), seed {seed}",
        w.name,
        spec.devices,
        w.jobs,
        available_jobs(),
    );
    println!(
        "report digest {:016x} ({} bytes); traced run reproduces it: {}",
        fnv1a64(expected_bytes.as_bytes()),
        expected_bytes.len(),
        traced.bytes == expected_bytes
    );
    println!(
        "{} timed runs: mean {nominal_wall_s:.4} s at nominal host speed; as measured fastest {:.4} s, median {:.4} s, slowest {:.4} s",
        raw.len(),
        raw.iter().copied().fold(f64::INFINITY, f64::min),
        median(&raw),
        raw.iter().copied().fold(0.0, f64::max),
    );
    println!(
        "{} cold set-ups: median {setup_s:.4} s at nominal host speed, {:.4} s as measured; {RSS_PROBES} rss probes: median {:.2} MiB",
        setups.len(),
        median(&setups.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
        median(&rss)
    );
    if w.jobs == 1 {
        println!("one worker: par.* is trivial");
    }
    println!(
        "\nself time of the traced run ({:.3} s wall, spans in {}):",
        traced.wall_ns as f64 / 1e9,
        out.join("spans.jsonl").display()
    );
    print!("{table}");
    for problem in &problems {
        eprintln!("fleetbench: check failed: {problem}");
    }

    let correct = problems.is_empty();
    let line = if trace {
        result_json(correct, attempted, failed, &PER_LAYER, &layers)
    } else {
        let e2e = [
            ("devices_per_s", spec.devices as f64 / nominal_wall_s),
            ("setup_s", setup_s),
            ("peak_rss_mb", median(&rss)),
            (
                "attempts_per_device",
                (attempted + retry_attempts) as f64 / attempted as f64,
            ),
        ];
        result_json(correct, attempted, failed, &END_TO_END, &e2e)
    };
    println!("{line}");
    Ok(correct)
}
