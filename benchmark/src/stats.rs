//! Order statistics over small samples (pass times, per-case times).

/// First quartile, median and third quartile of `values`, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method: quartile `i` sits at position `i·(len+1)/4`, 1-based, linearly
/// interpolated), so a spread computed here
/// agrees with one computed by an outside driver.
///
/// A single value is its own three quartiles; an empty sample is all zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let at = |i: i64| {
                // Position i·(len+1)/4, 1-based; the index is clamped to the
                // sample and the remainder taken after clamping, so the ends
                // extrapolate exactly as Python's do.
                let pos = i * (len as i64 + 1);
                let j = (pos / 4).clamp(1, len as i64 - 1);
                let delta = (pos - j * 4) as f64;
                let (lo, hi) = (v[j as usize - 1], v[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// The median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median — the run-to-run spread the
/// metrics guide compares against a regression bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4) == [20, 40, 60]
        let w: Vec<f64> = (1..=7).map(|x| f64::from(x) * 10.0).collect();
        assert_eq!(quartiles(&w), (20.0, 40.0, 60.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 100);
        assert_eq!(percentile_sorted(&v, 99.0), 198);
        assert_eq!(percentile_sorted(&v, 100.0), 200);
        assert_eq!(percentile_sorted(&[], 99.0), 0);
        assert_eq!(percentile_sorted(&[7], 1.0), 7);
    }
}
