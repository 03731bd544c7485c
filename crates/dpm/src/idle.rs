//! Idle-period models.
//!
//! The paper's DPM sections build on the authors' observation that real
//! idle-time distributions have heavier-than-exponential tails, which is
//! precisely why the time elapsed in idle carries information and why the
//! renewal / TISMDP formulations index their states by it. This module
//! holds the idle-period model the time-indexed policies plan against.

use crate::DpmError;
use simcore::dist::{Continuous, Exponential, Pareto, Sample};
use simcore::rng::SimRng;

/// The idle-period model of a streaming device: a mixture of **short**
/// intra-stream gaps (exponential — the lull between one frame's decode
/// completing and the next frame arriving) and **long** session gaps
/// (Pareto — the user walked away), in proportion `short_weight`.
///
/// This mixture is exactly why time-indexed DPM works: the longer an
/// idle period has already lasted, the more likely it is a session gap,
/// and the more confidently the policy can power down. A memoryless
/// model cannot express that.
///
/// # Example
///
/// ```
/// use dpm::idle::IdleMixture;
/// use simcore::dist::Continuous;
///
/// # fn main() -> Result<(), dpm::DpmError> {
/// let model = IdleMixture::streaming_default()?;
/// // Most idle periods are short…
/// assert!(model.cdf(0.5) > 0.8);
/// // …but a period that has survived one second is almost surely a
/// // session gap, far more persistent than an exponential tail would be.
/// let s = |t: f64| 1.0 - model.cdf(t);
/// assert!(s(10.0) / s(1.0) > 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleMixture {
    short_weight: f64,
    short: Exponential,
    long: Pareto,
}

impl IdleMixture {
    /// Builds a mixture: `short_weight` of Exp(`short_rate`) plus the
    /// complement of Pareto(`long_scale`, `long_shape`).
    ///
    /// # Errors
    ///
    /// Returns an error if the weight is outside `(0, 1)` or a component
    /// parameter is invalid.
    pub fn new(
        short_weight: f64,
        short_rate: f64,
        long_scale: f64,
        long_shape: f64,
    ) -> Result<Self, DpmError> {
        if !(short_weight.is_finite() && short_weight > 0.0 && short_weight < 1.0) {
            return Err(DpmError::InvalidParameter {
                name: "short_weight",
                value: short_weight,
            });
        }
        let short = Exponential::new(short_rate).map_err(|_| DpmError::InvalidParameter {
            name: "short_rate",
            value: short_rate,
        })?;
        let long = Pareto::new(long_scale, long_shape).map_err(|_| DpmError::InvalidParameter {
            name: "long_scale/long_shape",
            value: long_shape,
        })?;
        Ok(IdleMixture {
            short_weight,
            short,
            long,
        })
    }

    /// The default model for SmartBadge streaming workloads: 95 % short
    /// gaps with mean 40 ms, 5 % heavy-tailed session gaps
    /// (Pareto scale 2 s, shape 1.5).
    ///
    /// # Errors
    ///
    /// Infallible with the built-in constants; kept fallible for
    /// signature consistency.
    pub fn streaming_default() -> Result<Self, DpmError> {
        IdleMixture::new(0.95, 25.0, 2.0, 1.5)
    }

    /// The fraction of idle periods that are short intra-stream gaps.
    #[must_use]
    pub fn short_weight(&self) -> f64 {
        self.short_weight
    }
}

impl Sample for IdleMixture {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if rng.next_f64() < self.short_weight {
            self.short.sample(rng)
        } else {
            self.long.sample(rng)
        }
    }
}

impl Continuous for IdleMixture {
    fn cdf(&self, x: f64) -> f64 {
        self.short_weight * self.short.cdf(x) + (1.0 - self.short_weight) * self.long.cdf(x)
    }

    fn mean(&self) -> f64 {
        self.short_weight * self.short.mean() + (1.0 - self.short_weight) * self.long.mean()
    }

    fn variance(&self) -> f64 {
        // Var = E[X²] − (E[X])² with E[X²] mixed from the components.
        let ex2_short = self.short.variance() + self.short.mean() * self.short.mean();
        let ex2_long = self.long.variance() + self.long.mean() * self.long.mean();
        let ex2 = self.short_weight * ex2_short + (1.0 - self.short_weight) * ex2_long;
        let m = self.mean();
        ex2 - m * m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::fit;

    #[test]
    fn mixture_cdf_blends_components() {
        let m = IdleMixture::new(0.5, 10.0, 1.0, 2.0).unwrap();
        let e = Exponential::new(10.0).unwrap();
        let p = Pareto::new(1.0, 2.0).unwrap();
        for x in [0.05, 0.5, 2.0, 10.0] {
            let expected = 0.5 * e.cdf(x) + 0.5 * p.cdf(x);
            assert!((m.cdf(x) - expected).abs() < 1e-12);
        }
        assert!((m.mean() - 0.5 * (0.1 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn mixture_residual_life_grows_with_elapsed_time() {
        let m = IdleMixture::streaming_default().unwrap();
        let s = |t: f64| 1.0 - m.cdf(t);
        // P(survive one more second | alive at t).
        let cond = |t: f64| s(t + 1.0) / s(t);
        assert!(
            cond(5.0) > cond(0.05),
            "aging should predict longer remaining idle"
        );
    }

    #[test]
    fn mixture_sampling_matches_weights() {
        let m = IdleMixture::new(0.9, 25.0, 2.0, 1.5).unwrap();
        let mut rng = SimRng::seed_from(3);
        let n = 20_000;
        let long = (0..n).filter(|_| m.sample(&mut rng) >= 2.0).count();
        let frac = long as f64 / n as f64;
        // All Pareto draws are >= 2.0; a small tail of the exponential too.
        assert!((0.08..0.16).contains(&frac), "long fraction {frac}");
        assert!((m.short_weight() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mixture_validates() {
        assert!(IdleMixture::new(0.0, 10.0, 1.0, 2.0).is_err());
        assert!(IdleMixture::new(1.0, 10.0, 1.0, 2.0).is_err());
        assert!(IdleMixture::new(0.5, 0.0, 1.0, 2.0).is_err());
        assert!(IdleMixture::new(0.5, 10.0, -1.0, 2.0).is_err());
    }

    #[test]
    fn mixture_variance_is_positive_and_finite_for_light_tail() {
        let m = IdleMixture::new(0.5, 10.0, 1.0, 3.0).unwrap();
        assert!(m.variance() > 0.0);
        assert!(m.variance().is_finite());
    }

    /// `true` when the Pareto fit has a lower Kolmogorov–Smirnov
    /// distance to the observed idle lengths than the exponential fit —
    /// the paper's "idle tails are not exponential" observation as a
    /// test.
    fn pareto_fits_better(lengths: &[f64]) -> bool {
        let exp = Exponential::fit_mle(lengths).unwrap();
        let par = Pareto::fit_mle(lengths).unwrap();
        fit::ks_statistic(lengths, &par) < fit::ks_statistic(lengths, &exp)
    }

    #[test]
    fn exponential_data_prefers_exponential() {
        let truth = Exponential::new(0.5).unwrap();
        let mut rng = SimRng::seed_from(1);
        let lengths: Vec<f64> = (0..5000).map(|_| truth.sample(&mut rng)).collect();
        assert!(!pareto_fits_better(&lengths));
        let fitted = Exponential::fit_mle(&lengths).unwrap();
        assert!((fitted.rate() - 0.5).abs() < 0.05);
    }

    #[test]
    fn pareto_data_prefers_pareto() {
        let truth = Pareto::new(2.0, 1.4).unwrap();
        let mut rng = SimRng::seed_from(2);
        let lengths: Vec<f64> = (0..5000).map(|_| truth.sample(&mut rng)).collect();
        assert!(pareto_fits_better(&lengths));
    }

    #[test]
    fn empty_history_errors() {
        assert!(Exponential::fit_mle(&[]).is_err());
        assert!(Pareto::fit_mle(&[]).is_err());
    }
}
