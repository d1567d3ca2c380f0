//! Order statistics over host-time samples.

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The least sample; 0 when empty. Host contention only ever adds time to
/// a pass whose work is fixed (every pass repeats the same exact counters),
/// so the fastest pass is the steadiest estimate of what the program
/// itself costs.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The tail: the highest sample that has at least ten samples above it,
/// with the percentile it sits at. `None` with fewer than eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n > BEYOND).then(|| {
        let at = n - 1 - BEYOND;
        (v[at], 100.0 * (at + 1) as f64 / n as f64)
    })
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn least_of_samples() {
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(pct, 90.0);
        assert!(tail(&v[..10]).is_none());
    }
}
