//! The numeric rules of the ledger: how a run's timings collapse to the
//! numbers it reports, and how spread is measured between runs.

/// The percentile ladder the tail rule picks from, in tenths of a percent
/// so that ranks are computed in whole numbers.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail a timing is reported with: the highest percentile of the
/// ladder that still has at least ten samples beyond it, and the sample
/// at that percentile (nearest rank). `None` below twenty samples, when
/// not even the median has ten samples beyond it.
pub fn hi_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .map(|&p| (p, (p * n).div_ceil(1000)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
        .map(|(p, rank)| (p as f64 / 10.0, sorted[rank - 1]))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here agrees
/// with one computed by a driver script. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the spread
/// between a side's own runs. Zero for a single run, which carries none.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let med = median(values);
            if med == 0.0 {
                0.0
            } else {
                ((q3 - q1) / med).abs()
            }
        }
        None => 0.0,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled deterministically so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(hi_percentile(&ramp(19)), None);
        assert_eq!(hi_percentile(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(hi_percentile(&ramp(40)), Some((75.0, 30.0)));
        assert_eq!(hi_percentile(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(hi_percentile(&ramp(199)), Some((90.0, 180.0)));
        assert_eq!(hi_percentile(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(hi_percentile(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(hi_percentile(&ramp(10_000)), Some((99.9, 9990.0)));
        for n in [20, 57, 100, 1000, 4321] {
            let v = ramp(n);
            let (_, at) = hi_percentile(&v).unwrap();
            assert!(v.iter().filter(|&&x| x > at).count() >= 10, "n={n}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
