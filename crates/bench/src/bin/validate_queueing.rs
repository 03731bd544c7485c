//! Model validation: the full-system simulator against M/M/1 theory.
//!
//! The paper's DVS policy is built on Eq. 5 holding for the real frame
//! buffer. This binary pins the simulator at a fixed operating point
//! (max-performance governor), feeds it a long exponential workload, and
//! compares the *measured* mean frame delay against the analytical
//! `1/(λ_D − λ_U)` — closing the loop between the event-driven system
//! model and the queueing theory that drives its decisions.

use hardware::perf::PerformanceCurve;
use hardware::CpuModel;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{self, Attachments};
use simcore::rng::SimRng;
use workload::schedule::RateSchedule;
use workload::MpegClip;

struct Row {
    arrival_rate: f64,
    service_rate: f64,
    utilization: f64,
    analytical_delay_s: f64,
    simulated_delay_s: f64,
    rel_error_pct: f64,
}

simcore::impl_to_json!(Row {
    arrival_rate,
    service_rate,
    utilization,
    analytical_delay_s,
    simulated_delay_s,
    rel_error_pct,
});

fn main() {
    bench::header(
        "Validation",
        "simulated frame delay vs M/M/1 Eq. 5 at a pinned operating point",
    );
    let config = SystemConfig {
        governor: GovernorKind::MaxPerformance,
        dpm: DpmKind::None,
        ..SystemConfig::default()
    };
    // At max frequency the MPEG curve's performance is exactly 1.0, so
    // the trace's service rate is the effective decode rate.
    let curve = PerformanceCurve::mpeg_on_sdram(&CpuModel::sa1100());
    assert!((curve.performance_at(221.2) - 1.0).abs() < 1e-12);

    println!(
        "{:>8} {:>8} {:>6} {:>14} {:>14} {:>9}",
        "λ_U fr/s", "λ_D fr/s", "ρ", "Eq.5 delay s", "simulated s", "err %"
    );
    let mut rows = Vec::new();
    let duration = 3000.0;
    for (arrival, service) in [(20.0, 60.0), (30.0, 60.0), (45.0, 60.0), (54.0, 60.0)] {
        let clip = MpegClip::new(
            "validation",
            RateSchedule::constant(arrival, duration).expect("valid"),
            RateSchedule::constant(service, duration).expect("valid"),
        );
        let mut rng = SimRng::seed_from(bench::EXPERIMENT_SEED).fork("validate-queueing");
        let trace = clip.generate(&mut rng);
        let report = scenario::run_trace(
            &trace,
            &config,
            bench::EXPERIMENT_SEED,
            Attachments::default(),
        )
        .expect("validation scenario runs");
        let analytical = framequeue::mm1::mean_delay(arrival, service).expect("stable");
        let simulated = report.mean_frame_delay_s();
        let err = 100.0 * (simulated - analytical).abs() / analytical;
        println!(
            "{:>8.1} {:>8.1} {:>6.2} {:>14.4} {:>14.4} {:>9.1}",
            arrival,
            service,
            arrival / service,
            analytical,
            simulated,
            err
        );
        rows.push(Row {
            arrival_rate: arrival,
            service_rate: service,
            utilization: arrival / service,
            analytical_delay_s: analytical,
            simulated_delay_s: simulated,
            rel_error_pct: err,
        });
    }
    // MPEG decode times are *less* variable than exponential (GOP
    // structure, SCV ≈ 0.13), so the simulator should sit between the
    // M/G/1 prediction and the M/M/1 bound and below M/M/1 at high load.
    let worst = rows.iter().map(|r| r.rel_error_pct).fold(0.0f64, f64::max);
    let high_load = rows.last().expect("rows non-empty");
    let scv = 0.125;
    let pk = framequeue::mg1::mean_delay(high_load.arrival_rate, high_load.service_rate, scv)
        .expect("stable");
    println!(
        "\nat ρ = {:.2}: M/G/1(scv={scv}) predicts {pk:.4} s vs simulated {:.4} s",
        high_load.utilization, high_load.simulated_delay_s
    );
    println!(
        "Shape check: simulated delay within M/G/1…M/M/1 band at high load: {}",
        if high_load.simulated_delay_s >= pk * 0.8
            && high_load.simulated_delay_s <= high_load.analytical_delay_s * 1.2
        {
            "yes"
        } else {
            "NO"
        }
    );
    println!("(worst M/M/1 deviation across loads: {worst:.1} % — the GOP structure's");
    println!(" sub-exponential variance makes the real queue slightly faster than Eq. 5.)");
    if let Some(path) = bench::json_path_from_args() {
        bench::write_json(&path, &rows);
    }
}
