//! MPEG streaming scenario: watch the detector track a video stream.
//!
//! Generates the football clip and feeds its arrival stream to the
//! change-point detector directly, printing each detected rate change
//! against the generator's ground truth, then runs the full system
//! simulation and summarizes.
//!
//! Run with: `cargo run --release --example mpeg_streaming`

use detect::changepoint::{ChangePointConfig, ChangePointDetector};
use detect::estimator::RateEstimator;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Attachments, Workload};
use simcore::rng::SimRng;
use workload::MpegClip;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clip = MpegClip::football();
    println!(
        "football clip: {:.0} s, {} scenes, arrival 9-32 fr/s\n",
        clip.duration_secs(),
        clip.arrival_schedule().segments().len()
    );

    // Ground truth scene boundaries.
    println!("ground-truth arrival-rate schedule:");
    let mut t = 0.0;
    for seg in clip.arrival_schedule().segments().iter().take(8) {
        println!(
            "  t={t:>6.1}s  rate={:.1} fr/s for {:.0}s",
            seg.rate, seg.duration
        );
        t += seg.duration;
    }
    println!(
        "  ... ({} scenes total)\n",
        clip.arrival_schedule().segments().len()
    );

    // Feed the arrival gaps to a standalone detector and log detections.
    let mut rng = SimRng::seed_from(99);
    let trace = clip.generate(&mut rng);
    let first_rate = trace.frames()[0].true_arrival_rate;
    let mut detector = ChangePointDetector::new(first_rate, ChangePointConfig::default())?;
    println!("change-point detections (first 10):");
    let mut shown = 0;
    for w in trace.frames().windows(2) {
        let gap = (w[1].arrival - w[0].arrival).as_secs_f64();
        if let Some(change) = detector.observe(gap) {
            if shown < 10 {
                println!(
                    "  t={:>6.1}s  detected {:.1} fr/s (truth {:.1})",
                    w[1].arrival.as_secs_f64(),
                    change.new_rate,
                    w[1].true_arrival_rate
                );
                shown += 1;
            }
        }
    }

    // Full-system comparison.
    let config = SystemConfig {
        governor: GovernorKind::change_point(),
        dpm: DpmKind::None,
        ..SystemConfig::default()
    };
    let report = Workload::Mpeg("football".into()).run(&config, 99, Attachments::default())?;
    println!("\nfull-system run under change-point DVS:\n{report}");
    Ok(())
}
