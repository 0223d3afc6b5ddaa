//! Order statistics for the reported figures.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `xs`; `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// The tail of a timing distribution: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The value at that percentile.
    pub value: f64,
    /// Which percentile it is, in `[0, 100]`.
    pub percentile: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// above it: in ascending order, the value at 0-based index
/// `n - TAIL_BEYOND - 1`, which is percentile `100 (n - TAIL_BEYOND) / n`.
/// With too few samples for any such percentile, the median stands in
/// (percentile 50); `None` when empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    if n <= 2 * TAIL_BEYOND {
        return Some(Tail {
            value: median(&s)?,
            percentile: 50.0,
            samples: n,
        });
    }
    Some(Tail {
        value: s[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        // 1..=100: the value at index 89 is 90; ten values (91..=100)
        // lie beyond it, so the tail is the 90th percentile.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(t.samples, 100);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        // 1000 samples: the 99th percentile.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_on_odd_counts_and_the_smallest_eligible_sample() {
        // 21 samples: index 10 is the only value with ten above it.
        let xs: Vec<f64> = (0..21).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!(t.value, 10.0);
        assert!((t.percentile - 100.0 * 11.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_small_samples() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!(t.value, 10.5);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(tail(&[]), None);
    }
}
