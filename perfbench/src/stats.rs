//! Order statistics over latency samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer, one outlier decides the value and two runs of
//! the same code disagree. The median is exempt: it is the centre, not a
//! tail.

/// Samples that must lie strictly beyond a reported percentile.
pub(crate) const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, refused with an
/// error when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub(crate) fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} samples beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub(crate) fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples: rank 90, 9 beyond.
        assert!(percentile(&xs, 0.90).is_err());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(percentile(&xs, 0.90), Ok(90.0));
        // p99 needs 1000 samples.
        assert!(percentile(&xs, 0.99).is_err());
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Ok(990.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
