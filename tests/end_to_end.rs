//! Cross-crate end-to-end tests: the paper's headline results as
//! assertions, run through the full public API (workload generation →
//! detection → DVS/DPM → system simulation → report).

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::metrics::ModeKey;
use powermgr::scenario::{Attachments, Workload};
use powermgr::SimReport;

fn cfg(governor: GovernorKind, dpm: DpmKind) -> SystemConfig {
    SystemConfig {
        governor,
        dpm,
        ..SystemConfig::default()
    }
}

/// Runs `workload` (the CLI's `--workload` form) with no attachments.
fn run(workload: &str, config: &SystemConfig, seed: u64) -> SimReport {
    Workload::parse(workload)
        .expect("known workload")
        .run(config, seed, Attachments::default())
        .expect("runs")
}

/// Table 3 shape: on MP3 sequences the change-point governor's energy is
/// within 15 % of the oracle, and the max-frequency baseline pays > 1.3x.
#[test]
fn table3_shape_change_point_tracks_ideal_on_audio() {
    for (i, seq) in ["ACEFBD", "BADECF", "CEDAFB"].iter().enumerate() {
        let seed = 9000 + i as u64;
        let ideal = run(
            &format!("mp3:{seq}"),
            &cfg(GovernorKind::Ideal, DpmKind::None),
            seed,
        );
        let cp = run(
            &format!("mp3:{seq}"),
            &cfg(GovernorKind::quick_change_point(), DpmKind::None),
            seed,
        );
        let max = run(
            &format!("mp3:{seq}"),
            &cfg(GovernorKind::MaxPerformance, DpmKind::None),
            seed,
        );
        let rel = (cp.total_energy_j() - ideal.total_energy_j()) / ideal.total_energy_j();
        assert!(
            rel < 0.15,
            "{seq}: change-point {:.1} J vs ideal {:.1} J",
            cp.total_energy_j(),
            ideal.total_energy_j()
        );
        assert!(
            max.total_energy_j() > 1.3 * ideal.total_energy_j(),
            "{seq}: max {:.1} J vs ideal {:.1} J",
            max.total_energy_j(),
            ideal.total_energy_j()
        );
    }
}

/// Table 3/4 shape: the EMA governor wastes energy relative to the
/// change-point governor on both media types.
#[test]
fn ema_wastes_energy_relative_to_change_point() {
    let seed = 9100;
    let ema = cfg(GovernorKind::ExpAverage { gain: 0.5 }, DpmKind::None);
    let cp = cfg(GovernorKind::quick_change_point(), DpmKind::None);
    let ema_audio = run("mp3:ACEFBD", &ema, seed);
    let cp_audio = run("mp3:ACEFBD", &cp, seed);
    assert!(ema_audio.total_energy_j() > 1.1 * cp_audio.total_energy_j());
    let ema_video = run("mpeg:football", &ema, seed);
    let cp_video = run("mpeg:football", &cp, seed);
    assert!(ema_video.total_energy_j() > cp_video.total_energy_j());
    // Instability is visible as orders of magnitude more switches.
    assert!(ema_video.freq_switches > 20 * cp_video.freq_switches.max(1));
}

/// Table 4 shape: DVS saves on video and the delay stays near target.
#[test]
fn table4_shape_video_dvs_saves_energy_within_delay_budget() {
    let seed = 9200;
    for clip in ["football", "terminator2"] {
        let ideal = run(
            &format!("mpeg:{clip}"),
            &cfg(GovernorKind::Ideal, DpmKind::None),
            seed,
        );
        let max = run(
            &format!("mpeg:{clip}"),
            &cfg(GovernorKind::MaxPerformance, DpmKind::None),
            seed,
        );
        assert!(
            ideal.total_energy_j() < 0.9 * max.total_energy_j(),
            "{clip}: {:.1} vs {:.1}",
            ideal.total_energy_j(),
            max.total_energy_j()
        );
        // Target is 0.1 s; the mean should stay within ~2x of it.
        assert!(
            ideal.mean_frame_delay_s() < 0.2,
            "{clip}: delay {:.3}",
            ideal.mean_frame_delay_s()
        );
        assert_eq!(ideal.frames_completed, max.frames_completed);
    }
}

/// Table 5 shape: DVS and DPM each save; combined saves more than either
/// and approaches the paper's factor of three.
#[test]
fn table5_shape_combined_approach_factor_three() {
    let seed = 9300;
    let dvs = GovernorKind::quick_change_point();
    let dpm = DpmKind::Tismdp { delay_weight: 2.0 };
    let none = run(
        "session",
        &cfg(GovernorKind::MaxPerformance, DpmKind::None),
        seed,
    );
    let dvs_only = run("session", &cfg(dvs.clone(), DpmKind::None), seed);
    let dpm_only = run(
        "session",
        &cfg(GovernorKind::MaxPerformance, dpm.clone()),
        seed,
    );
    let both = run("session", &cfg(dvs, dpm), seed);

    let f = |r: &SimReport| none.total_energy_j() / r.total_energy_j();
    assert!(f(&dvs_only) > 1.08, "DVS factor {:.2}", f(&dvs_only));
    assert!(f(&dpm_only) > 1.5, "DPM factor {:.2}", f(&dpm_only));
    assert!(
        f(&both) > f(&dvs_only) && f(&both) > f(&dpm_only),
        "combined must beat each alone"
    );
    assert!(
        f(&both) > 2.2,
        "combined factor {:.2} should approach 3",
        f(&both)
    );
    // The DPM policy actually used the deep state during the long gaps.
    assert!(both.mode_secs(ModeKey::Off) + both.mode_secs(ModeKey::Standby) > 1000.0);
}

/// Stochastic DPM beats the naive fixed timeout on the same session at
/// comparable delay (the motivation for renewal/TISMDP policies).
#[test]
fn stochastic_dpm_competitive_with_timeouts() {
    let seed = 9400;
    let governor = GovernorKind::MaxPerformance;
    let timeout = run(
        "session",
        &cfg(governor.clone(), DpmKind::FixedTimeout { timeout_s: 5.0 }),
        seed,
    );
    let tismdp = run(
        "session",
        &cfg(governor, DpmKind::Tismdp { delay_weight: 2.0 }),
        seed,
    );
    // TISMDP can use off (0 mW) where the fixed policy only reaches
    // standby, so in expectation it does at least as well. A single
    // realization can land slightly above the timeout policy (randomized
    // wake decisions on one idle-length draw), so allow a small margin.
    assert!(
        tismdp.total_energy_j() < timeout.total_energy_j() * 1.02,
        "tismdp {:.1} J vs 5s-timeout {:.1} J",
        tismdp.total_energy_j(),
        timeout.total_energy_j()
    );
}

/// All frames always complete, under every governor/DPM combination.
#[test]
fn no_frames_are_lost() {
    let seed = 9500;
    let governors = [
        GovernorKind::Ideal,
        GovernorKind::quick_change_point(),
        GovernorKind::ExpAverage { gain: 0.3 },
        GovernorKind::MaxPerformance,
    ];
    let mut expected = None;
    for governor in governors {
        let report = run("mp3:AF", &cfg(governor, DpmKind::BreakEven), seed);
        let e = *expected.get_or_insert(report.frames_completed);
        assert_eq!(report.frames_completed, e, "same trace, same frame count");
        assert!(report.frames_completed > 3000);
    }
}
