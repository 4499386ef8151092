//! Order statistics: nearest-rank percentiles, the median and the tail rule.

/// Percentile ladder for tails, in parts per 100 000 (p50 … p99.999).
const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `ppm` (parts per 100 000) among `n`.
fn rank(n: usize, ppm: u64) -> usize {
    ((n as u128 * ppm as u128).div_ceil(100_000) as usize).max(1)
}

/// Nearest-rank percentile of an ascending slice (`ppm` in parts per
/// 100 000, so 50 000 is the median). `None` when empty.
pub fn percentile(sorted: &[f64], ppm: u64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), ppm).min(sorted.len()) - 1])
}

/// Median of unsorted samples (nearest rank, so always an observed value).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50_000)
}

/// A tail value: the highest ladder percentile with at least
/// [`TAIL_BEYOND`] samples strictly ranked beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile, e.g. 99.9.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// `None` when fewer than `2 * TAIL_BEYOND` samples exist (not even the
    /// median has ten beyond it).
    pub fn of_sorted(sorted: &[f64]) -> Option<Tail> {
        let n = sorted.len();
        let ppm = LADDER
            .into_iter()
            .rev()
            .find(|&p| n >= rank(n, p) + TAIL_BEYOND)?;
        Some(Tail {
            value: percentile(sorted, ppm)?,
            percentile: ppm as f64 / 1000.0,
            samples: n,
        })
    }

    /// Label such as `p99.9 of 2138`.
    pub fn describe(&self) -> String {
        format!("p{} of {}", self.percentile, self.samples)
    }
}

/// Each work item's median over its repeats (`items[i]` holds item `i`'s
/// repeats). Latency samples are taken this way so that a burst of host
/// interference in one repeat stays out of the tail, while the work's own
/// slow items stay in it.
pub fn item_medians(items: &[Vec<f64>]) -> Vec<f64> {
    items.iter().filter_map(|r| median(r)).collect()
}

/// Median and tail of samples, with the tail's note naming the fewest
/// repeats any sample is the median of.
pub fn median_and_tail(samples: &[f64], repeats: usize) -> Option<(f64, f64, String)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let tail = Tail::of_sorted(&v)?;
    let note = format!("{}, each the median of {repeats}+ repeats", tail.describe());
    Some((percentile(&v, 50_000)?, tail.value, note))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = seq(100);
        assert_eq!(percentile(&v, 50_000), Some(50.0));
        assert_eq!(percentile(&v, 99_000), Some(99.0));
        assert_eq!(percentile(&v, 100_000), Some(100.0));
        assert_eq!(percentile(&[7.0], 99_000), Some(7.0));
        assert_eq!(percentile(&[], 50_000), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 19 samples: the median (rank 10) has only 9 beyond it.
        assert_eq!(Tail::of_sorted(&seq(19)), None);
        // 20 samples: p50 = 10th value, 10 beyond; p90 = 18th, 2 beyond.
        let t = Tail::of_sorted(&seq(20)).expect("tail");
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
        // 100 samples: p90 has exactly 10 beyond, p99 only 1.
        let t = Tail::of_sorted(&seq(100)).expect("tail");
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // 999 samples: p99 rank 990 leaves 9 beyond, so p90.
        assert_eq!(Tail::of_sorted(&seq(999)).expect("tail").percentile, 90.0);
        // 1000 samples: p99 rank 990 leaves exactly 10.
        let t = Tail::of_sorted(&seq(1000)).expect("tail");
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        assert_eq!(t.describe(), "p99 of 1000");
        let t = Tail::of_sorted(&seq(100_000)).expect("tail");
        assert_eq!((t.percentile, t.value), (99.99, 99_990.0));
        let t = Tail::of_sorted(&seq(1_000_000)).expect("tail");
        assert_eq!(t.percentile, 99.999);
        assert_eq!(t.describe(), "p99.999 of 1000000");
    }

    #[test]
    fn latency_samples_take_item_medians_first() {
        // 40 items; item i repeats as [i, 1000 i, i]: one disturbed repeat
        // per item never reaches the tail.
        let items: Vec<Vec<f64>> = (1..=40)
            .map(|i| vec![i as f64, 1e3 * i as f64, i as f64])
            .collect();
        let samples = item_medians(&items);
        assert_eq!(samples, (1..=40).map(|i| i as f64).collect::<Vec<_>>());
        let (p50, tail, note) = median_and_tail(&samples, 3).expect("enough samples");
        assert_eq!((p50, tail), (20.0, 20.0));
        assert_eq!(note, "p50 of 40, each the median of 3+ repeats");
        assert!(median_and_tail(&samples[..5], 3).is_none());
    }
}
