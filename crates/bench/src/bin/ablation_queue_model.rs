//! Ablation: M/M/1 vs M/G/1 frequency selection.
//!
//! The paper's policy assumes exponential service (Eq. 5) and notes that
//! general service distributions need "another method of frequency and
//! voltage adjustment". MPEG decode times are *less* variable than
//! exponential (the GOP structure is deterministic, SCV ≈ 0.13), so the
//! Pollaczek–Khinchine inversion can run the CPU slightly slower for the
//! same delay target. This bench measures what that refinement buys.

use powermgr::config::{DpmKind, SystemConfig};
use powermgr::dvs::QueueModel;
use powermgr::scenario::{Attachments, Workload};
use simcore::rng::SimRng;
use workload::MpegClip;

struct Row {
    model: String,
    energy_kj: f64,
    frame_delay_s: f64,
}

simcore::impl_to_json!(Row {
    model,
    energy_kj,
    frame_delay_s,
});

fn measured_scv() -> f64 {
    // Estimate the decode-time SCV from a generated football trace,
    // normalizing out the scene-level rate (the within-scene variance is
    // what the queue sees at a fixed operating point).
    let clip = MpegClip::football();
    let trace = clip.generate(&mut SimRng::seed_from(bench::EXPERIMENT_SEED).fork("scv"));
    let normalized: Vec<f64> = trace
        .frames()
        .iter()
        .map(|f| f.work * f.true_service_rate)
        .collect();
    let mean = normalized.iter().sum::<f64>() / normalized.len() as f64;
    let var = normalized
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / normalized.len() as f64;
    var / (mean * mean)
}

fn main() {
    bench::header(
        "Ablation",
        "M/M/1 vs M/G/1 frequency selection (football, ideal detection)",
    );
    let scv = measured_scv();
    println!("measured MPEG decode-time SCV ≈ {scv:.3} (exponential would be 1.0)\n");

    let models: Vec<(String, QueueModel)> = vec![
        ("M/M/1 (paper Eq. 5)".to_owned(), QueueModel::Mm1),
        (format!("M/G/1 (scv={scv:.2})"), QueueModel::Mg1 { scv }),
        (
            "M/G/1 (scv=1, sanity)".to_owned(),
            QueueModel::Mg1 { scv: 1.0 },
        ),
    ];
    println!("{:<24} {:>11} {:>12}", "model", "energy kJ", "delay s");
    let mut rows = Vec::new();
    for (name, model) in models {
        let config = SystemConfig {
            governor: powermgr::config::GovernorKind::Ideal,
            dpm: DpmKind::None,
            queue_model: model,
            ..SystemConfig::default()
        };
        let report = Workload::Mpeg("football".into())
            .run(&config, bench::EXPERIMENT_SEED, Attachments::default())
            .expect("ablation scenario runs");
        println!(
            "{:<24} {:>11.3} {:>12.3}",
            name,
            report.total_energy_kj(),
            report.mean_frame_delay_s()
        );
        rows.push(Row {
            model: name,
            energy_kj: report.total_energy_kj(),
            frame_delay_s: report.mean_frame_delay_s(),
        });
    }
    println!("\nExpected: the low-variance M/G/1 saves a little energy at slightly");
    println!("higher (but still in-budget) delay; scv=1 matches M/M/1 exactly.");
    if let Some(path) = bench::json_path_from_args() {
        bench::write_json(&path, &rows);
    }
}
