//! Arrival-time generators.
//!
//! The experiments need three families:
//!
//! - **Gamma renewal** — inter-arrival times Gamma-distributed with an exact
//!   target CV (the x-axis of Figs. 3, 4, 8, 10, 11, 12);
//! - **MMPP** — Markov-modulated Poisson, for regime-switching burst
//!   structure (the CV=8 stress test of Fig. 9 and trace synthesis);
//! - **Modulated NHPP** — non-homogeneous Poisson over a rate function
//!   (diurnal × regime), generated by thinning, for the 31-day Fig. 1
//!   traces.

use flexpipe_sim::{GammaInterarrival, SimRng, SimTime};

/// A time-varying rate function for thinning-based generation.
pub trait RateFn {
    /// Instantaneous rate at time `t` seconds, requests/second.
    fn rate(&self, t: f64) -> f64;
    /// A bound on [`RateFn::rate`] over the whole horizon.
    fn max_rate(&self) -> f64;
}

/// The most arrivals a spec may expect one generated workload to hold.
///
/// Generators materialize every arrival up front (40 bytes per request
/// with its record), so an oversize spec would abort the process on
/// allocation before any step budget could act. 2e7 arrivals is under
/// 1 GB of records and about 90× the largest committed workload (the
/// pinned live-scaling spec, ~2.2e5 arrivals).
pub const MAX_EXPECTED_ARRIVALS: f64 = 2e7;

/// Spec validation shared by every spec kind that generates arrivals:
/// the arrival span (warmup + horizon, stretched by any rate surges)
/// must be finite, and the expected arrival count `rate_per_sec ×
/// span_secs` at most [`MAX_EXPECTED_ARRIVALS`]. Returns a message
/// naming the problem.
pub fn check_arrival_budget(rate_per_sec: f64, span_secs: f64) -> Result<(), String> {
    if !span_secs.is_finite() {
        return Err(format!(
            "the arrival span (warmup + horizon) must be finite, got {span_secs} s"
        ));
    }
    let expected = rate_per_sec * span_secs;
    if !expected.is_finite() || expected > MAX_EXPECTED_ARRIVALS {
        return Err(format!(
            "{rate_per_sec} req/s over {span_secs} s expects {expected:.3e} arrivals, \
             above the cap of {MAX_EXPECTED_ARRIVALS:.0e}"
        ));
    }
    Ok(())
}

/// Generates Gamma-renewal arrivals until `horizon_secs`.
pub fn gen_gamma_renewal(
    rate_per_sec: f64,
    cv: f64,
    horizon_secs: f64,
    rng: &mut SimRng,
) -> Vec<SimTime> {
    let d =
        GammaInterarrival::from_rate_cv(rate_per_sec, cv).expect("rate and cv must be positive");
    let mut out = Vec::with_capacity((rate_per_sec * horizon_secs) as usize + 16);
    let mut t = 0.0;
    loop {
        t += d.sample_secs(rng);
        if t >= horizon_secs {
            break;
        }
        out.push(SimTime::from_secs_f64(t));
    }
    out
}

/// Generates Poisson arrivals (Gamma renewal with CV = 1).
pub fn gen_poisson(rate_per_sec: f64, horizon_secs: f64, rng: &mut SimRng) -> Vec<SimTime> {
    gen_gamma_renewal(rate_per_sec, 1.0, horizon_secs, rng)
}

/// One MMPP state: a Poisson rate and a mean dwell time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppState {
    /// Arrival rate while in this state, requests/second.
    pub rate: f64,
    /// Mean sojourn time in this state, seconds.
    pub dwell_mean_secs: f64,
}

/// Generates Markov-modulated Poisson arrivals cycling through `states`
/// (state transitions are round-robin with exponential dwell, which is
/// sufficient for two-state burst/idle structure).
pub fn gen_mmpp(states: &[MmppState], horizon_secs: f64, rng: &mut SimRng) -> Vec<SimTime> {
    assert!(!states.is_empty(), "MMPP needs at least one state");
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut s = 0usize;
    while t < horizon_secs {
        let state = states[s];
        let dwell = -state.dwell_mean_secs * rng.f64().max(1e-12).ln();
        let end = (t + dwell).min(horizon_secs);
        if state.rate > 0.0 {
            let mut at = t;
            loop {
                at += -rng.f64().max(1e-12).ln() / state.rate;
                if at >= end {
                    break;
                }
                out.push(SimTime::from_secs_f64(at));
            }
        }
        t = end;
        s = (s + 1) % states.len();
    }
    out
}

/// Generates a non-homogeneous Poisson process over `rate_fn` by thinning.
pub fn gen_nhpp<R: RateFn>(rate_fn: &R, horizon_secs: f64, rng: &mut SimRng) -> Vec<SimTime> {
    let lambda_max = rate_fn.max_rate();
    assert!(lambda_max > 0.0, "max rate must be positive");
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.f64().max(1e-12).ln() / lambda_max;
        if t >= horizon_secs {
            break;
        }
        if rng.f64() < rate_fn.rate(t) / lambda_max {
            out.push(SimTime::from_secs_f64(t));
        }
    }
    out
}

/// Coefficient of variation of the inter-arrival gaps of `arrivals`.
///
/// Returns 0 for fewer than three arrivals.
pub fn interarrival_cv(arrivals: &[SimTime]) -> f64 {
    if arrivals.len() < 3 {
        return 0.0;
    }
    let gaps: Vec<f64> = arrivals
        .windows(2)
        .map(|w| w[1].saturating_since(w[0]).as_secs_f64())
        .collect();
    let n = gaps.len() as f64;
    let mean = gaps.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_budget_rejects_infinite_and_oversize_spans() {
        assert!(check_arrival_budget(20.0, 150.0).is_ok());
        assert!(check_arrival_budget(1e3, 2e4).is_ok()); // exactly the cap
        assert!(check_arrival_budget(1.0, f64::INFINITY).is_err());
        assert!(check_arrival_budget(1.0, f64::NAN).is_err());
        let err = check_arrival_budget(1e6, 1e5).unwrap_err();
        assert!(err.contains("1.000e11"), "{err}");
        // A finite but overflowing product is rejected, not wrapped.
        assert!(check_arrival_budget(1e300, 1e300).is_err());
    }

    #[test]
    fn gamma_renewal_hits_rate_and_cv() {
        let mut rng = SimRng::seed(1);
        for &cv in &[0.5, 1.0, 2.0, 4.0] {
            let arr = gen_gamma_renewal(20.0, cv, 2000.0, &mut rng);
            let rate = arr.len() as f64 / 2000.0;
            assert!((rate - 20.0).abs() / 20.0 < 0.05, "rate {rate} at cv {cv}");
            let got = interarrival_cv(&arr);
            assert!((got - cv).abs() / cv < 0.08, "cv {got} target {cv}");
        }
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let mut rng = SimRng::seed(2);
        let arr = gen_gamma_renewal(50.0, 4.0, 100.0, &mut rng);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|t| t.as_secs_f64() < 100.0));
    }

    #[test]
    fn mmpp_burst_structure_raises_cv() {
        let mut rng = SimRng::seed(3);
        let states = [
            MmppState {
                rate: 2.0,
                dwell_mean_secs: 30.0,
            },
            MmppState {
                rate: 80.0,
                dwell_mean_secs: 3.0,
            },
        ];
        let arr = gen_mmpp(&states, 5000.0, &mut rng);
        let cv = interarrival_cv(&arr);
        // Regime switching pushes CV well above Poisson's 1.
        assert!(cv > 1.5, "cv {cv}");
        // Mean rate between the two state rates.
        let rate = arr.len() as f64 / 5000.0;
        assert!((2.0..80.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn nhpp_tracks_rate_function() {
        struct Step;
        impl RateFn for Step {
            fn rate(&self, t: f64) -> f64 {
                if t < 100.0 {
                    5.0
                } else {
                    50.0
                }
            }
            fn max_rate(&self) -> f64 {
                50.0
            }
        }
        let mut rng = SimRng::seed(4);
        let arr = gen_nhpp(&Step, 200.0, &mut rng);
        let early = arr.iter().filter(|t| t.as_secs_f64() < 100.0).count() as f64;
        let late = arr.len() as f64 - early;
        assert!(
            (early / 100.0 - 5.0).abs() < 1.0,
            "early rate {}",
            early / 100.0
        );
        assert!(
            (late / 100.0 - 50.0).abs() < 4.0,
            "late rate {}",
            late / 100.0
        );
    }

    #[test]
    fn cv_of_degenerate_inputs_is_zero() {
        assert_eq!(interarrival_cv(&[]), 0.0);
        assert_eq!(interarrival_cv(&[SimTime::from_secs(1)]), 0.0);
        assert_eq!(
            interarrival_cv(&[SimTime::from_secs(1), SimTime::from_secs(2)]),
            0.0
        );
    }

    #[test]
    fn determinism_under_same_seed() {
        let a = gen_gamma_renewal(10.0, 2.0, 50.0, &mut SimRng::seed(9));
        let b = gen_gamma_renewal(10.0, 2.0, 50.0, &mut SimRng::seed(9));
        assert_eq!(a, b);
    }
}
