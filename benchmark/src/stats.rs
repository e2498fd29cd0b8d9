//! Order statistics the benchmark reports: the median and the tail rule.

/// Percentiles the tail rule may choose, lowest first.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail of a sample: which percentile was chosen, its value, and the
/// sample counts that justify the choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The chosen percentile.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples ranked strictly beyond the chosen one.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The tail rule: the highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, by nearest rank. A sample too
/// small for any ladder percentile falls back to the median (p50) and
/// reports how few samples lie beyond it.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest 1-based rank k with k >= p/100 * n.
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    let k = rank(p);
    Tail {
        percentile: p,
        value: v[k - 1],
        beyond: n - k,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the rule must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples 1..=1000: p99 has rank 990 and 10 beyond; p99.9
        // has rank 999 and only 1 beyond.
        let t = tail(&ramp(1000));
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_steps_down_when_one_sample_short() {
        // 999 samples: p99 has rank 990 and 9 beyond, so p95 (rank 950,
        // 49 beyond) is the highest that qualifies.
        let t = tail(&ramp(999));
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.beyond, 49);
        assert_eq!(t.samples, 999);
    }

    #[test]
    fn tail_reaches_the_top_of_the_ladder_on_large_samples() {
        let t = tail(&ramp(200_000));
        assert_eq!(t.percentile, 99.99);
        assert_eq!(t.beyond, 20);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.beyond, 1);
        assert_eq!(t.samples, 3);
        // Exactly 20 samples: p50 has rank 10 and 10 beyond; p75 only 5.
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }
}
