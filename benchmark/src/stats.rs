//! Order statistics, the FNV-1a digest and the log-log slope the
//! benchmark reports with.

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile by the *exclusive* method —
/// the one Python's `statistics.quantiles(xs, n=4)` uses, so a spread
/// computed here equals the one the acceptance driver computes. Needs
/// at least two samples; with fewer there is no spread and all three
/// are the single value.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a 64-bit offset basis: the starting state of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a 64-bit digest.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Least-squares slope of `ln y` on `ln x`: the exponent `k` of
/// `y ∝ x^k`. 1 means linear, 2 quadratic.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from Python:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` → 2.75, 5.5, 8.25
    /// `statistics.quantiles([10, 20, 40], n=4)` → 10.0, 20.0, 40.0
    /// `statistics.quantiles([1, 2], n=4)` → 0.75, 1.5, 2.25
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.0), 1.0);
    }

    /// Published FNV-1a 64 test vectors.
    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces equals folding at once.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn loglog_slope_recovers_the_exponent() {
        let quad: Vec<(f64, f64)> = [1024.0, 4096.0, 8192.0]
            .iter()
            .map(|&x| (x, 3.0 * x * x))
            .collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = [1024.0, 4096.0, 8192.0]
            .iter()
            .map(|&x| (x, 0.5 * x))
            .collect();
        assert!((loglog_slope(&lin) - 1.0).abs() < 1e-9);
    }
}
