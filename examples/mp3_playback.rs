//! MP3 playback scenario: the Table 3 experiment as an application.
//!
//! Plays a user-chosen sequence of the six Table 2 audio clips under all
//! four detection strategies and prints the comparative energy/delay
//! table. Pass the sequence as the first argument (default `ACEFBD`).
//!
//! Run with: `cargo run --release --example mp3_playback -- BADECF`

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Attachments, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sequence = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ACEFBD".to_owned());
    println!("MP3 playback sequence {sequence} (653 s of audio when all six clips are used)\n");
    let workload = Workload::Mp3(sequence);

    let governors = [
        ("ideal (oracle)", GovernorKind::Ideal),
        ("change-point", GovernorKind::change_point()),
        ("exp-average g=0.5", GovernorKind::ExpAverage { gain: 0.5 }),
        ("max frequency", GovernorKind::MaxPerformance),
    ];

    println!(
        "{:<19} {:>11} {:>11} {:>10} {:>13}",
        "governor", "energy J", "delay ms", "switches", "rate changes"
    );
    let mut baseline = None;
    for (name, governor) in governors {
        let config = SystemConfig {
            governor,
            dpm: DpmKind::None,
            ..SystemConfig::default()
        };
        let report = workload.run(&config, 2001, Attachments::default())?;
        println!(
            "{:<19} {:>11.1} {:>11.1} {:>10} {:>13}",
            name,
            report.total_energy_j(),
            report.mean_frame_delay_s() * 1e3,
            report.freq_switches,
            report.rate_changes
        );
        if name == "max frequency" {
            baseline = Some(report.total_energy_j());
        }
    }

    let config = SystemConfig {
        governor: GovernorKind::change_point(),
        dpm: DpmKind::None,
        ..SystemConfig::default()
    };
    let cp = workload.run(&config, 2001, Attachments::default())?;
    if let Some(max_energy) = baseline {
        println!(
            "\nchange-point DVS uses {:.0}% of the max-frequency energy",
            100.0 * cp.total_energy_j() / max_energy
        );
    }
    println!(
        "time spent decoding {:.0} s vs idle {:.0} s",
        cp.mode_secs(powermgr::metrics::ModeKey::Decoding),
        cp.mode_secs(powermgr::metrics::ModeKey::Idle)
    );
    Ok(())
}
