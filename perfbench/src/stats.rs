//! Order statistics over measured samples.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method), so a spread printed here matches the
/// one a reader recomputes from the raw values. A single sample has all
/// three quartiles equal to it; no samples gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    // CPython's integer formulation, including its clamp of `j` to
    // `1..=ld-1` before `delta` is taken (which extrapolates for tiny
    // samples, exactly as Python does).
    let m = ld as i64 + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = i * m - j * 4;
        let (a, b) = (v[j as usize - 1], v[j as usize]);
        (a * (4 - delta) as f64 + b * delta as f64) / 4.0
    };
    [at(1), at(2), at(3)]
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0] (extrapolated)
        assert_eq!(quartiles(&[1.0, 5.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert!((relative_iqr(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
