//! Property-based tests for the DPM policy stack.

use dpm::costs::DpmCosts;
use dpm::idle::IdleMixture;
use dpm::policy::{DpmPolicy, SleepState};
use dpm::renewal::{survival_integral, RenewalConfig, RenewalPolicy};
use dpm::tismdp::{TismdpConfig, TismdpPolicy};
use hardware::SmartBadge;
use proptest::prelude::*;
use simcore::dist::{Continuous, Exponential, Pareto};
use simcore::rng::SimRng;
use simcore::time::SimDuration;

fn costs() -> DpmCosts {
    DpmCosts::managed_subsystem(&SmartBadge::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Survival integrals are additive over adjacent intervals and
    /// bounded by the interval length.
    #[test]
    fn survival_integral_additive(
        rate in 0.05f64..50.0,
        a in 0.0f64..5.0,
        d1 in 0.01f64..5.0,
        d2 in 0.01f64..5.0,
    ) {
        let dist = Exponential::new(rate).expect("valid");
        let b = a + d1;
        let c = b + d2;
        let whole = survival_integral(&dist, a, c, 2000);
        let parts = survival_integral(&dist, a, b, 1000) + survival_integral(&dist, b, c, 1000);
        prop_assert!((whole - parts).abs() < 1e-4 * (1.0 + whole));
        prop_assert!(whole <= (c - a) + 1e-12);
        prop_assert!(whole >= 0.0);
    }

    /// Renewal policies always respect their delay budget in expectation
    /// and never do worse than never-sleeping.
    #[test]
    fn renewal_respects_budget(
        scale in 0.5f64..10.0,
        shape in 1.1f64..3.0,
        budget in 0.0f64..0.2,
    ) {
        let idle = Pareto::new(scale, shape).expect("valid");
        let policy = RenewalPolicy::solve(
            &costs(),
            &idle,
            SleepState::Standby,
            budget,
            RenewalConfig::default(),
        )
        .expect("solves");
        prop_assert!(policy.expected_delay_s() <= budget + 1e-9);
        let never = costs().idle_mw * 1e-3
            * survival_integral(&idle, 0.0, f64::min(20.0 * idle.mean(), 600.0).max(0.004), 2000);
        prop_assert!(policy.expected_energy_j() <= never * 1.001);
    }

    /// TISMDP plans are always monotone (idle → standby → off) and the
    /// optimal cost never exceeds the stay-idle cost.
    #[test]
    fn tismdp_plans_monotone_and_no_worse_than_idle(
        short_weight in 0.5f64..0.99,
        short_rate in 5.0f64..100.0,
        long_scale in 0.5f64..20.0,
        long_shape in 1.1f64..3.0,
        delay_weight in 0.0f64..20.0,
    ) {
        let idle = IdleMixture::new(short_weight, short_rate, long_scale, long_shape)
            .expect("valid mixture");
        let config = TismdpConfig {
            delay_weight,
            ..TismdpConfig::default()
        };
        let policy = TismdpPolicy::solve(&costs(), &idle, config).expect("solves");
        prop_assert!(policy.is_monotone());
        // Stay-idle forever cost over the solver's horizon:
        let horizon = *policy.edges().last().expect("non-empty edges");
        let idle_cost = costs().idle_mw * 1e-3
            * (survival_integral(&idle, 0.0, horizon, 2000)
                + survival_integral(&idle, horizon, 4.0 * horizon, 2000));
        prop_assert!(
            policy.expected_cost() <= idle_cost * 1.01 + 1e-9,
            "cost {} vs idle {idle_cost}",
            policy.expected_cost()
        );
    }

    /// Increasing the delay weight never makes the policy sleep earlier.
    #[test]
    fn tismdp_delay_weight_monotone(
        w1 in 0.0f64..10.0,
        extra in 0.5f64..40.0,
    ) {
        let idle = IdleMixture::streaming_default().expect("static params");
        let solve = |weight| {
            TismdpPolicy::solve(
                &costs(),
                &idle,
                TismdpConfig {
                    delay_weight: weight,
                    ..TismdpConfig::default()
                },
            )
            .expect("solves")
        };
        let eager = solve(w1);
        let cautious = solve(w1 + extra);
        let first = |p: &TismdpPolicy| {
            p.plan()
                .transitions()
                .first()
                .map(|&(t, _)| t.as_secs_f64())
                .unwrap_or(f64::INFINITY)
        };
        prop_assert!(first(&cautious) >= first(&eager) - 1e-9);
    }

    /// Mixture CDF equals the weighted component CDFs everywhere.
    #[test]
    fn mixture_cdf_is_convex_combination(
        w in 0.01f64..0.99,
        sr in 0.1f64..100.0,
        ls in 0.1f64..10.0,
        sh in 0.2f64..5.0,
        x in 0.0f64..100.0,
    ) {
        let m = IdleMixture::new(w, sr, ls, sh).expect("valid");
        let e = Exponential::new(sr).expect("valid");
        let p = Pareto::new(ls, sh).expect("valid");
        let expected = w * e.cdf(x) + (1.0 - w) * p.cdf(x);
        prop_assert!((m.cdf(x) - expected).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy's plan is well-formed for random RNG draws
    /// (randomized renewal timeouts included).
    #[test]
    fn all_plans_well_formed(seed in 0u64..10_000, budget in 0.0f64..0.1) {
        let idle = IdleMixture::streaming_default().expect("static params");
        let c = costs();
        let mut policies: Vec<Box<dyn DpmPolicy>> = vec![
            Box::new(dpm::NoSleep::new()),
            Box::new(
                dpm::timeout::FixedTimeout::break_even(&c, SleepState::Standby)
                    .expect("pays off"),
            ),
            Box::new(
                RenewalPolicy::solve(&c, &idle, SleepState::Off, budget, RenewalConfig::default())
                    .expect("solves"),
            ),
            Box::new(
                TismdpPolicy::solve(&c, &idle, TismdpConfig::default()).expect("solves"),
            ),
        ];
        let mut rng = SimRng::seed_from(seed);
        for p in &mut policies {
            let plan = p.plan_idle(&mut rng);
            prop_assert!(plan.is_well_formed(), "{}: {:?}", p.name(), plan);
            // Feedback must never panic.
            p.on_idle_end(SimDuration::from_secs(1), plan.deepest_reached(SimDuration::from_secs(1)));
        }
    }
}
