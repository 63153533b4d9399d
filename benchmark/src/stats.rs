//! Order statistics the harness reports: median, quartiles, geometric mean
//! and the tail-percentile rule ("the highest percentile that still leaves
//! at least ten samples beyond it").

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice so an unexercised layer reads as zero.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First and third quartile, linearly interpolated between closest ranks.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.75))
}

/// The `q`-quantile (0..=1) by linear interpolation between closest ranks.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(xs), q)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive samples; `0.0` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The tail the sample supports: of p99.9, p99, p95 and p90, the highest
/// that leaves at least ten samples beyond it, with its value. `None` when
/// even p90 does not (fewer than 100 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    // (percentile, samples beyond it per thousand): whole numbers, so that
    // 10 000 samples do support p99.9.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|(_, beyond)| xs.len() * beyond >= 10 * 1000)
        .map(|(p, _)| (p, quantile(xs, p / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (1.25, 1.75));
    }

    #[test]
    fn geomean_is_multiplicative() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let n = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&n(99)), None);
        assert_eq!(tail(&n(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&n(199)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&n(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&n(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&n(10_000)).map(|t| t.0), Some(99.9));
    }
}
