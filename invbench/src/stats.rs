//! Percentiles and summaries for benchmark samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p/100 · n)` (1-based).
//! A percentile is only *reported* when at least [`MIN_BEYOND`] samples
//! lie strictly above its rank; below that the tail is a handful of
//! samples and the figure would be noise.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    assert!(n > 0, "no samples");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Samples strictly beyond the nearest rank of `p` among `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// True when percentile `p` of `n` samples has enough samples beyond it
/// to be reported.
pub fn supported(p: f64, n: usize) -> bool {
    n > 0 && beyond(p, n) >= MIN_BEYOND
}

/// A sorted copy of a sample set, for repeated percentile queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are a caller bug).
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN sample");
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile, whether or not the tail rule holds.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[nearest_rank(p, self.sorted.len()) - 1])
    }

    /// Nearest-rank percentile, only when [`supported`].
    pub fn reported(&self, p: f64) -> Option<f64> {
        supported(p, self.sorted.len())
            .then(|| self.percentile(p))
            .flatten()
    }

    /// The highest of `candidates` (descending) this sample set supports,
    /// with its value; the median is the last resort and needs only one
    /// sample.
    pub fn highest_supported(&self, candidates: &[f64]) -> Option<(f64, f64)> {
        for &p in candidates {
            if let Some(v) = self.reported(p) {
                return Some((p, v));
            }
        }
        self.percentile(50.0).map(|v| (50.0, v))
    }

    /// The median (nearest rank).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// Percentile `p` of each of up to `max_segments` consecutive equal-count
/// segments of `values` (in arrival order), each holding at least
/// `min_per_segment` samples; one segment, the whole run, when there are
/// too few samples. The median of the returned figures is the scored
/// value: a host stall that slows a few seconds of a run moves one
/// segment, not the figure.
pub fn segmented(values: &[f64], p: f64, min_per_segment: usize, max_segments: usize) -> Vec<f64> {
    let k = (values.len() / min_per_segment.max(1)).clamp(1, max_segments.max(1));
    (0..k)
        .filter_map(|i| {
            let lo = i * values.len() / k;
            let hi = (i + 1) * values.len() / k;
            Samples::new(values[lo..hi].to_vec()).percentile(p)
        })
        .collect()
}

/// Median of a small set (nearest rank), e.g. repeated set-up times.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec())
        .median()
        .expect("median of an empty set")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        // ceil(0.5 * 10) = 5, ceil(0.9 * 10) = 9, ceil(0.99 * 10) = 10.
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(90.0, 10), 9);
        assert_eq!(nearest_rank(99.0, 10), 10);
        assert_eq!(nearest_rank(100.0, 7), 7);
        assert_eq!(nearest_rank(1.0, 7), 1);
        // ceil(0.99 * 1000) = 990.
        assert_eq!(nearest_rank(99.0, 1000), 990);
    }

    #[test]
    fn percentile_picks_a_sample_never_an_interpolation() {
        let s = Samples::new((1..=10).rev().map(f64::from).collect());
        assert_eq!(s.percentile(50.0), Some(5.0));
        assert_eq!(s.percentile(90.0), Some(9.0));
        assert_eq!(s.percentile(95.0), Some(10.0));
        assert_eq!(s.median(), Some(5.0));
        assert_eq!(Samples::new(vec![]).percentile(50.0), None);
    }

    #[test]
    fn a_reported_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert!(supported(99.0, 1000));
        assert!(!supported(99.0, 999));
        // p90 needs 100 samples, p50 needs 20.
        assert!(supported(90.0, 100));
        assert!(!supported(90.0, 99));
        assert!(supported(50.0, 20));
        assert!(!supported(50.0, 19));
        let s = Samples::new((0..999).map(f64::from).collect());
        assert_eq!(s.reported(99.0), None);
        assert_eq!(s.reported(90.0), Some(899.0));
        assert_eq!(s.highest_supported(&[99.0, 90.0]), Some((90.0, 899.0)));
    }

    #[test]
    fn segmented_percentile_ignores_one_slow_stretch() {
        // 10 segments of 100; one segment is 10x slower.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[300..400] {
            *x *= 10.0;
        }
        let per = segmented(&v, 90.0, 100, 10);
        assert_eq!(per.len(), 10);
        assert_eq!(per[3], 890.0);
        assert_eq!(Samples::new(per).median(), Some(89.0));
        // The whole run's p90 is pulled up by the slow stretch.
        assert_eq!(Samples::new(v.clone()).percentile(90.0), Some(98.0));
        // Too few samples for two segments: the whole run.
        assert_eq!(
            segmented(&v[..150], 50.0, 100, 10),
            vec![Samples::new(v[..150].to_vec()).median().unwrap()]
        );
        assert!(segmented(&[], 50.0, 100, 10).is_empty());
    }

    #[test]
    fn highest_supported_falls_back_to_the_median() {
        let s = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.highest_supported(&[99.0, 90.0]), Some((50.0, 2.0)));
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }
}
