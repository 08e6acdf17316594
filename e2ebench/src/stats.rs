//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p/100 · n)`. A tail
//! percentile is only meaningful when enough samples lie beyond it, so
//! [`percentile`] refuses one with fewer than [`MIN_BEYOND`] samples
//! above its rank instead of reporting the maximum under another name.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`.
///
/// Refuses (returns `Err`) an empty sample, and any percentile other
/// than the median with fewer than [`MIN_BEYOND`] samples beyond its
/// rank. The median is always reportable from one sample up.
pub fn percentile(values: &[f64], p: f64) -> Result<Quantile, String> {
    if values.is_empty() {
        return Err(format!("p{p}: no samples"));
    }
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("p{p}: percentile out of range"));
    }
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if p > 50.0 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{p}: {n} samples leave {beyond} beyond rank {rank}, need {MIN_BEYOND}"
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Quantile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The median of `values` by the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).map_or(f64::NAN, |q| q.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 90.0).unwrap().value, 90.0);
        assert_eq!(percentile(&v, 90.0).unwrap().samples, 100);
        // Order of input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0).unwrap().value, 90.0);
    }

    #[test]
    fn median_of_small_samples() {
        assert_eq!(percentile(&[7.0], 50.0).unwrap().value, 7.0);
        assert_eq!(percentile(&[3.0, 1.0], 50.0).unwrap().value, 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn refuses_a_tail_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: rank 990 leaves 9 beyond.
        assert!(percentile(&v, 99.0).is_err());
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = percentile(&v, 99.0).unwrap();
        assert_eq!((q.value, q.samples), (990.0, 1000));
        assert!(percentile(&v[..99], 90.0).is_err());
        assert!(percentile(&v[..100], 90.0).is_ok());
    }
}
