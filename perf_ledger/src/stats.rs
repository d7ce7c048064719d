//! Order statistics for the ledger.
//!
//! Latencies go into a [`Histogram`] with log-spaced buckets 0.1% wide,
//! so a run of any length keeps the same few hundred KiB of counts and
//! the benchmark's own memory does not grow into `peak_rss_mb`.
//! Percentiles use the nearest-rank rule: the `q`-quantile of `n`
//! samples is the sample at rank `⌈q·n⌉`, here read back as the centre
//! of its bucket. A percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie above that rank, so a "p99" always
//! describes a real tail and never a handful of values (or a mean).

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// Relative bucket width.
const STEP: f64 = 1e-3;
/// Buckets: values from 1 up to `(1 + STEP)^BUCKETS` ≈ 2·10¹² units.
const BUCKETS: usize = 28_500;

/// Counts of positive samples in log-spaced buckets.
pub struct Histogram {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; BUCKETS], n: 0 }
    }
}

impl Histogram {
    /// Records one sample (values below 1 land in the first bucket).
    pub fn record(&mut self, value: f64) {
        let b = if value > 1.0 { (value.ln() / STEP.ln_1p()) as usize } else { 0 };
        self.counts[b.min(BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile for `q` in `(0, 1]`, or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.n == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        if self.n - rank < MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(((b as f64 + 0.5) * STEP.ln_1p()).exp());
            }
        }
        None
    }
}

/// The median of `samples` (nearest rank), without the tail rule: used
/// for per-pass and per-round aggregates, where the count is the number
/// of passes or rounds. `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (n > 0).then(|| sorted[n.div_ceil(2) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: impl IntoIterator<Item = f64>) -> Histogram {
        let mut h = Histogram::default();
        samples.into_iter().for_each(|v| h.record(v));
        h
    }

    fn close(got: Option<f64>, want: f64) -> bool {
        got.is_some_and(|g| (g / want - 1.0).abs() < STEP)
    }

    #[test]
    fn p99_of_a_skewed_distribution_is_its_tail_not_its_mean() {
        // 980 fast requests at 1 ms, then 10 at 50 ms and 10 at 100 ms.
        // The p99 must land on a slow request. The mean is 2.48 ms; a
        // "p99" taken over per-round means would report about that.
        let samples: Vec<f64> = std::iter::repeat_n(1000.0, 980)
            .chain(std::iter::repeat_n(50_000.0, 10))
            .chain(std::iter::repeat_n(100_000.0, 10))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let h = hist(samples);
        assert!(close(h.percentile(0.99), 50_000.0), "{:?}", h.percentile(0.99));
        assert!(h.percentile(0.99).is_some_and(|p| p > 10.0 * mean));
        assert!(close(h.percentile(0.5), 1000.0));
    }

    #[test]
    fn nearest_rank_picks_the_bucket_of_an_observed_sample() {
        let h = hist((1..=200).map(|v| f64::from(v) * 1000.0));
        assert!(close(h.percentile(0.5), 100_000.0));
        assert!(close(h.percentile(0.9), 180_000.0));
        // 0.9025·200 → rank 181: an observed value, never interpolated.
        assert!(close(h.percentile(0.9025), 181_000.0));
        assert_eq!(h.len(), 200);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let h = hist((1..=100).map(f64::from));
        // p90 of 100 leaves exactly 10 beyond; p95 leaves 5.
        assert!(h.percentile(0.90).is_some());
        assert_eq!(h.percentile(0.95), None);
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(Histogram::default().percentile(0.5), None);
    }

    #[test]
    fn median_is_the_lower_middle_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
