//! Order statistics under the benchmark's sample-count rule: timings are
//! reported as medians, and a p90 only when at least ten samples lie
//! beyond it.

/// Samples that must lie strictly beyond a reported p90.
pub const MIN_BEYOND_P90: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank p90, refused when fewer than [`MIN_BEYOND_P90`] samples lie
/// beyond it (so at least 100 samples are needed).
pub fn p90(xs: &[f64]) -> Result<f64, String> {
    let n = xs.len();
    let rank = (9 * n).div_ceil(10); // ceil(0.9 n), 1-based
    let beyond = n - rank;
    if n == 0 || beyond < MIN_BEYOND_P90 {
        return Err(format!(
            "p90 of {n} samples has {beyond} beyond it; {MIN_BEYOND_P90} are required"
        ));
    }
    Ok(sorted(xs)[rank - 1])
}

/// Tokens per second an open loop served: completed tokens over the
/// window from the first due time to the later of the schedule's end and
/// the last observed outcome. The denominator is never shorter than the
/// schedule, so the served rate cannot exceed the offered one.
pub fn served_rate(completed_tokens: u64, window_s: f64, last_outcome_s: f64) -> f64 {
    completed_tokens as f64 / window_s.max(last_outcome_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Tokens per second an open loop offered: every scheduled token over
    /// the schedule's window.
    fn offered_rate(scheduled_tokens: u64, window_s: f64) -> f64 {
        scheduled_tokens as f64 / window_s
    }

    #[test]
    fn p90_refused_below_ten_samples_beyond() {
        for n in 0..100 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(p90(&xs).is_err(), "p90 of {n} samples must be refused");
        }
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(p90(&xs), Ok(89.0));
        let xs: Vec<f64> = (0..250).map(|i| i as f64).collect();
        let v = p90(&xs).expect("250 samples support a p90");
        assert!(xs.iter().filter(|&&x| x > v).count() >= MIN_BEYOND_P90);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn served_rate_never_exceeds_offered_rate() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let window = 1.0 + rng.unit() * 30.0;
            let scheduled = 1 + rng.below(10_000) as u64;
            let completed = rng.below(scheduled as usize + 1) as u64;
            // Outcomes are observed no earlier than the schedule starts and
            // may run past its end.
            let last = rng.unit() * 2.0 * window;
            assert!(served_rate(completed, window, last) <= offered_rate(scheduled, window));
        }
    }
}
