//! Order statistics shared by the runner and `ambench compare`.

/// The fewest timed samples a workload may report latency percentiles from:
/// p90 needs at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Nearest-rank percentile: the smallest sample with at least `q` of all
/// samples at or below it. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and p90 (nearest rank) of a workload's latency samples; an error
/// when there are too few samples for p90 to mean anything.
pub fn latency_percentiles(samples: &[f64]) -> Result<(f64, f64), String> {
    if samples.len() < MIN_SAMPLES {
        return Err(format!(
            "{} timed samples, fewer than the {MIN_SAMPLES} a p90 needs; lengthen the run",
            samples.len()
        ));
    }
    let sorted = sorted(samples);
    Ok((percentile(&sorted, 0.5), percentile(&sorted, 0.9)))
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so spreads match
/// the ones the benchmark's acceptance rule is stated in. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j` up: Python extrapolates then.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Geometric mean of positive values; 1 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole`, or 0 when nothing was measured.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Ranks round up: the 0.5 point of three samples is the second.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn fewer_than_one_hundred_samples_is_an_error() {
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        let err = latency_percentiles(&short).unwrap_err();
        assert!(err.contains("99 timed samples"), "{err}");
        let enough: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(latency_percentiles(&enough).unwrap(), (50.0, 90.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_geomean_and_share() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
