//! Sampling helpers for the distributions the FlexPipe experiments use.
//!
//! The central one is [`GammaInterarrival`]: a renewal process whose
//! inter-arrival times are Gamma distributed has coefficient of variation
//! `CV = 1/sqrt(shape)`, so any target `(mean, CV)` pair maps to exactly one
//! Gamma. The paper sweeps CV from 0.1 to 8 (§3.3, §9); CV = 1 degenerates to
//! a Poisson process.

use rand_distr::{Distribution, Gamma, LogNormal};
use serde::{Deserialize, Serialize};

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Error constructing a distribution from invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BadParams(pub String);

impl std::fmt::Display for BadParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameters: {}", self.0)
    }
}

impl std::error::Error for BadParams {}

/// Gamma-distributed inter-arrival times with exact target mean and CV.
///
/// # Examples
///
/// ```
/// use flexpipe_sim::dist::GammaInterarrival;
/// use flexpipe_sim::rng::SimRng;
///
/// // 20 requests/s with bursty CV = 4 arrivals.
/// let d = GammaInterarrival::from_rate_cv(20.0, 4.0).unwrap();
/// let mut rng = SimRng::seed(1);
/// let gap = d.sample(&mut rng);
/// assert!(gap.as_secs_f64() >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct GammaInterarrival {
    gamma: Gamma<f64>,
    mean_secs: f64,
    cv: f64,
}

impl GammaInterarrival {
    /// Builds from a mean inter-arrival time in seconds and a target CV.
    pub fn new(mean_secs: f64, cv: f64) -> Result<Self, BadParams> {
        if !(mean_secs.is_finite() && mean_secs > 0.0) {
            return Err(BadParams(format!(
                "mean_secs must be positive: {mean_secs}"
            )));
        }
        if !(cv.is_finite() && cv > 0.0) {
            return Err(BadParams(format!("cv must be positive: {cv}")));
        }
        // Gamma(shape k, scale θ): mean = kθ, CV = 1/sqrt(k).
        let shape = 1.0 / (cv * cv);
        let scale = mean_secs / shape;
        let gamma = Gamma::new(shape, scale)
            .map_err(|e| BadParams(format!("gamma({shape}, {scale}): {e}")))?;
        Ok(GammaInterarrival {
            gamma,
            mean_secs,
            cv,
        })
    }

    /// Builds from an arrival rate (requests per second) and a target CV.
    pub fn from_rate_cv(rate_per_sec: f64, cv: f64) -> Result<Self, BadParams> {
        if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
            return Err(BadParams(format!("rate must be positive: {rate_per_sec}")));
        }
        Self::new(1.0 / rate_per_sec, cv)
    }

    /// Mean inter-arrival time in seconds.
    pub fn mean_secs(&self) -> f64 {
        self.mean_secs
    }

    /// Target coefficient of variation.
    pub fn cv(&self) -> f64 {
        self.cv
    }

    /// Draws one inter-arrival gap.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.gamma.sample(rng))
    }

    /// Draws one inter-arrival gap as fractional seconds.
    pub fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        self.gamma.sample(rng).max(0.0)
    }
}

/// Log-normal sampler parameterised by its median and the σ of ln X.
///
/// Used for prompt-length distributions (Splitwise-like corpora have heavy
/// right tails well matched by a log-normal).
#[derive(Debug, Clone)]
pub struct LogNormalSampler {
    ln: LogNormal<f64>,
    median: f64,
}

impl LogNormalSampler {
    /// Builds from the distribution median and log-space sigma.
    pub fn from_median_sigma(median: f64, sigma: f64) -> Result<Self, BadParams> {
        if !(median.is_finite() && median > 0.0) {
            return Err(BadParams(format!("median must be positive: {median}")));
        }
        LogNormal::new(median.ln(), sigma)
            .map(|ln| LogNormalSampler { ln, median })
            .map_err(|e| BadParams(format!("lognormal({median}, {sigma}): {e}")))
    }

    /// The distribution median.
    pub fn median(&self) -> f64 {
        self.median
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.ln.sample(rng)
    }

    /// Draws one value, clamped into `[lo, hi]` and rounded to u64.
    pub fn sample_clamped(&self, rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
        (self.sample(rng).round() as u64).clamp(lo, hi)
    }
}

/// Summary statistics of a sample, used throughout tests and monitors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SampleStats {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum observation (0 for empty samples).
    pub min: f64,
    /// Maximum observation (0 for empty samples).
    pub max: f64,
}

impl SampleStats {
    /// Computes summary statistics over `xs`.
    pub fn of(xs: &[f64]) -> SampleStats {
        if xs.is_empty() {
            return SampleStats::default();
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        SampleStats {
            count: xs.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (`std_dev / mean`), 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaps(mean: f64, cv: f64, n: usize, seed: u64) -> Vec<f64> {
        let d = GammaInterarrival::new(mean, cv).unwrap();
        let mut rng = SimRng::seed(seed);
        (0..n).map(|_| d.sample_secs(&mut rng)).collect()
    }

    #[test]
    fn gamma_hits_target_mean_and_cv() {
        for &(mean, cv) in &[(0.05, 0.5), (0.05, 1.0), (0.05, 2.0), (0.05, 4.0)] {
            let xs = gaps(mean, cv, 200_000, 42);
            let s = SampleStats::of(&xs);
            assert!(
                (s.mean - mean).abs() / mean < 0.03,
                "mean {} target {mean} (cv {cv})",
                s.mean
            );
            assert!((s.cv() - cv).abs() / cv < 0.05, "cv {} target {cv}", s.cv());
        }
    }

    #[test]
    fn cv_one_matches_exponential_shape() {
        // Gamma with CV=1 is the exponential distribution.
        let xs = gaps(1.0, 1.0, 100_000, 9);
        let below_mean = xs.iter().filter(|&&x| x < 1.0).count() as f64 / xs.len() as f64;
        // P(X < mean) for Exp = 1 - 1/e ≈ 0.632.
        assert!((below_mean - 0.632).abs() < 0.01, "got {below_mean}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(GammaInterarrival::new(0.0, 1.0).is_err());
        assert!(GammaInterarrival::new(1.0, 0.0).is_err());
        assert!(GammaInterarrival::from_rate_cv(-3.0, 1.0).is_err());
        assert!(LogNormalSampler::from_median_sigma(0.0, 1.0).is_err());
    }

    #[test]
    fn lognormal_median_is_respected() {
        let d = LogNormalSampler::from_median_sigma(1500.0, 0.8).unwrap();
        let mut rng = SimRng::seed(5);
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med - 1500.0).abs() / 1500.0 < 0.03, "median {med}");
    }

    #[test]
    fn sample_clamped_stays_in_bounds() {
        let d = LogNormalSampler::from_median_sigma(100.0, 2.0).unwrap();
        let mut rng = SimRng::seed(6);
        for _ in 0..10_000 {
            let v = d.sample_clamped(&mut rng, 10, 500);
            assert!((10..=500).contains(&v));
        }
    }

    #[test]
    fn stats_of_constant_sample() {
        let s = SampleStats::of(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cv(), 0.0);
        assert_eq!(SampleStats::of(&[]).count, 0);
    }
}
