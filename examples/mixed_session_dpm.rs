//! Mixed session with DPM: the Table 5 experiment as an application,
//! extended with a battery-lifetime estimate through the DC-DC
//! converter.
//!
//! Run with: `cargo run --release --example mixed_session_dpm`

use hardware::battery::Battery;
use hardware::dcdc::DcDcConverter;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::metrics::ModeKey;
use powermgr::scenario::{Attachments, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("mixed audio/video session with user-absence gaps (Table 5 workload)\n");

    let dvs = GovernorKind::change_point();
    let dpm = DpmKind::Tismdp { delay_weight: 2.0 };
    let cells = [
        ("no PM", GovernorKind::MaxPerformance, DpmKind::None),
        ("DVS only", dvs.clone(), DpmKind::None),
        ("DPM only", GovernorKind::MaxPerformance, dpm.clone()),
        ("DVS + DPM", dvs, dpm),
    ];

    // The managed subsystem's share of a small 5 Wh badge battery.
    let battery = Battery::new(5.0)?;
    let converter = DcDcConverter::smartbadge();

    println!(
        "{:<10} {:>10} {:>8} {:>10} {:>9} {:>9} {:>14}",
        "policy", "energy J", "factor", "delay ms", "standby s", "off s", "battery life h"
    );
    let mut baseline = None;
    for (name, governor, dpm) in cells {
        let config = SystemConfig {
            governor,
            dpm,
            ..SystemConfig::default()
        };
        let report = Workload::Session.run(&config, 555, Attachments::default())?;
        let energy = report.total_energy_j();
        let base = *baseline.get_or_insert(energy);
        // Battery life if the subsystem kept this average draw all day.
        let life = battery.lifetime_hours_through(report.average_power_mw().max(1.0), &converter);
        println!(
            "{:<10} {:>10.1} {:>8.2} {:>10.1} {:>9.0} {:>9.0} {:>14.1}",
            name,
            energy,
            base / energy,
            report.mean_frame_delay_s() * 1e3,
            report.mode_secs(ModeKey::Standby),
            report.mode_secs(ModeKey::Off),
            life
        );
    }

    println!("\nThe combined policy approaches the paper's factor of three: DVS compresses");
    println!("the active-state energy while DPM eliminates the idle-state energy, and the");
    println!("two savings multiply because they act on disjoint parts of the timeline.");
    Ok(())
}
