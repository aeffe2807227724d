//! Order statistics for the reported timings.

/// Percentiles the tail is chosen from, highest last, in thousandths of a
/// percent so that ranks are exact integer arithmetic.
const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

const WHOLE: u64 = 100_000;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

fn rank(p: u64, n: usize) -> usize {
    (p * n as u64).div_ceil(WHOLE) as usize
}

/// The highest percentile of [`LADDER`] that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond it by nearest rank, in thousandths
/// of a percent; `None` when even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<u64> {
    LADDER.iter().rev().copied().find(|&p| {
        let r = rank(p, n);
        r >= 1 && n - r >= TAIL_BEYOND
    })
}

/// The nearest-rank percentile `p` (in thousandths of a percent) of
/// `values`; `None` when empty.
pub fn percentile(values: &[f64], p: u64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let r = rank(p, v.len()).max(1);
    v.get(r - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail_percentile(1000), Some(99_000));
        assert_eq!(percentile(&one_to(1000), 99_000), Some(990.0));
        // 999 samples: p99 leaves 9 beyond, so the tail drops to p90.
        assert_eq!(tail_percentile(999), Some(90_000));
        assert_eq!(percentile(&one_to(999), 90_000), Some(900.0));
        // 20 samples: only the median has 10 beyond.
        assert_eq!(tail_percentile(20), Some(50_000));
        assert_eq!(percentile(&one_to(20), 50_000), Some(10.0));
        // 19 samples: nothing qualifies.
        assert_eq!(tail_percentile(19), None);
        // 10⁶ samples reach the top of the ladder.
        assert_eq!(tail_percentile(1_000_000), Some(99_999));
        assert_eq!(percentile(&one_to(1_000_000), 99_999), Some(999_990.0));
        assert_eq!(percentile(&[], 50_000), None);
    }
}
