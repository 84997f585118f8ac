//! Order statistics for latency samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewBeyond {
        /// Samples in the set.
        samples: usize,
        /// Samples beyond the percentile.
        beyond: usize,
    },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::Empty => write!(f, "no samples"),
            PercentileError::TooFewBeyond { samples, beyond } => write!(
                f,
                "only {beyond} of {samples} samples lie beyond the percentile (need {MIN_BEYOND})"
            ),
        }
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the smallest
/// value with at least `p`% of the samples at or below it. Refuses when
/// fewer than [`MIN_BEYOND`] samples lie beyond that rank, since the
/// value would then rest on a handful of outliers.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond { samples: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// The median (mean of the two middle values for an even count); 0 for
/// an empty set.
pub fn median(samples: &[f64]) -> f64 {
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

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_inputs() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(500.0));
        assert_eq!(percentile(&xs, 99.0), Ok(990.0));
        assert_eq!(percentile(&xs, 90.0), Ok(900.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), Ok(990.0));
        assert_eq!(percentile(&[3.0; 40], 50.0), Ok(3.0));
    }

    #[test]
    fn p99_is_refused_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 99.0),
            Err(PercentileError::TooFewBeyond {
                samples: 999,
                beyond: 9
            })
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&xs, 99.0).is_ok());
        assert_eq!(percentile(&[], 50.0), Err(PercentileError::Empty));
        // A p50 over 19 samples has 9 beyond it: refused too.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&xs, 50.0).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
