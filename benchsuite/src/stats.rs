//! Order statistics over latency samples.

/// The percentiles the tail metric may report, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); `NaN`
/// for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of `values`; `NaN` for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// A tail percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its nearest rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank. With fewer than
/// 20 samples no percentile qualifies and the median (the ladder's
/// lowest rung) is reported, its `beyond` count showing the shortfall.
/// `None` for no samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let beyond = |p: f64| n - nearest_rank(p, n);
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    Some(Tail {
        percentile: p,
        value: percentile(values, p),
        beyond: beyond(p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99's rank is 990 with only 9 beyond, so p95.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 999 - 950));
        // 100 samples: p90 has exactly 10 beyond.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 20 samples: only the median qualifies.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
        // 40 samples: p75 has exactly 10 beyond.
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.percentile, t.beyond), (75.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_below_twenty_samples() {
        let t = tail(&ramp(14)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 7.0, 7));
        assert!(tail(&[]).is_none());
    }
}
