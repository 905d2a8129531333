//! Order statistics.

/// `(q1, median, q3)` of `values`, with the quartiles computed like
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |m: f64| {
        // Position m * (n + 1) / 4, 1-based, clamped to the data.
        let pos = (m * (v.len() + 1) as f64 / 4.0).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let a = v[lo - 1];
        let b = v[lo.min(v.len() - 1)];
        a + (b - a) * frac
    };
    (at(1.0), at(2.0), at(3.0))
}

/// The `q`-quantile of sorted `values` (nearest rank).
pub fn nearest_rank(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
    }
}
