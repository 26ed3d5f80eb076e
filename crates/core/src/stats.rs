//! Descriptive and inferential statistics for execution-time samples.
//!
//! Implements exactly the quantities the paper reports: mean, standard
//! deviation, coefficient of variation (CV), minimum/maximum and their
//! *normalized* forms (min/avg, max/avg), percentiles, MAD-based outlier
//! detection and a two-sample Kolmogorov–Smirnov test. Distributions are
//! binned in one place, `obs::QuantileSketch`.

/// Summary statistics of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub sd: f64,
    /// Coefficient of variation: `sd / mean` (0 when the mean is 0).
    pub cv: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
}

impl Summary {
    /// Compute a summary. Panics on an empty sample or non-finite values.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "empty sample");
        assert!(
            xs.iter().all(|x| x.is_finite()),
            "non-finite value in sample"
        );
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let sd = var.sqrt();
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Summary {
            n,
            mean,
            sd,
            cv: if mean != 0.0 { sd / mean.abs() } else { 0.0 },
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
        }
    }

    /// Minimum normalized to the mean (`min/avg` — the paper's Figure 3
    /// lower series). 1.0 means no downside variability.
    pub fn norm_min(&self) -> f64 {
        if self.mean != 0.0 {
            self.min / self.mean
        } else {
            1.0
        }
    }

    /// Maximum normalized to the mean (`max/avg` — the paper's Figure 3
    /// upper series). 1.0 means no upside variability.
    pub fn norm_max(&self) -> f64 {
        if self.mean != 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }

    /// `max/min` spread, a robust "how bad can it get" ratio.
    pub fn spread(&self) -> f64 {
        if self.min > 0.0 {
            self.max / self.min
        } else {
            f64::INFINITY
        }
    }
}

/// Percentile (0–100) with linear interpolation on a *sorted* slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Percentile of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&sorted, p)
}

/// Median absolute deviation (scaled by 1.4826 for normal consistency).
pub fn mad(xs: &[f64]) -> f64 {
    let med = percentile(xs, 50.0);
    let dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    1.4826 * percentile(&dev, 50.0)
}

/// Indices of MAD-outliers: points with a robust z-score above `z`.
/// A `z` of 3.5 is the conventional threshold.
pub fn mad_outliers(xs: &[f64], z: f64) -> Vec<usize> {
    let med = percentile(xs, 50.0);
    let m = mad(xs);
    if m == 0.0 {
        // Degenerate: more than half the sample is identical; flag any
        // point that differs at all by more than a relative epsilon.
        return xs
            .iter()
            .enumerate()
            .filter(|(_, &x)| (x - med).abs() > 1e-9 * med.abs().max(1.0))
            .map(|(i, _)| i)
            .collect();
    }
    xs.iter()
        .enumerate()
        .filter(|(_, &x)| ((x - med) / m).abs() > z)
        .map(|(i, _)| i)
        .collect()
}

/// Two-sample Kolmogorov–Smirnov test: returns `(d, approx_p)` where `d`
/// is the maximum CDF distance and `p` uses the asymptotic Kolmogorov
/// distribution (adequate for n ≥ ~20 per side). Useful for asking "did
/// pinning actually change the repetition-time *distribution*?", not just
/// its mean.
pub fn ks_test(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert!(!a.is_empty() && !b.is_empty());
    let mut xa = a.to_vec();
    let mut xb = b.to_vec();
    xa.sort_by(|x, y| x.partial_cmp(y).unwrap());
    xb.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let (na, nb) = (xa.len(), xb.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < na && j < nb {
        let x = xa[i].min(xb[j]);
        while i < na && xa[i] <= x {
            i += 1;
        }
        while j < nb && xb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na as f64 - j as f64 / nb as f64).abs());
    }
    let ne = (na * nb) as f64 / (na + nb) as f64;
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    // Asymptotic Kolmogorov survival function; the series only converges
    // for λ bounded away from 0, and P → 1 there anyway.
    if lambda < 0.3 {
        return (d, 1.0);
    }
    let mut p = 0.0;
    for k in 1..=100 {
        let kf = k as f64;
        let term = 2.0 * (-1.0f64).powi(k + 1) * (-2.0 * kf * kf * lambda * lambda).exp();
        p += term;
        if term.abs() < 1e-12 {
            break;
        }
    }
    (d, p.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.sd - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.cv - s.sd / 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_point_summary() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn normalized_bounds() {
        let s = Summary::of(&[8.0, 10.0, 12.0]);
        assert!(s.norm_min() <= 1.0 && s.norm_min() > 0.0);
        assert!(s.norm_max() >= 1.0);
        assert!((s.spread() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cv_is_scale_invariant() {
        let a = Summary::of(&[1.0, 2.0, 3.0]).cv;
        let b = Summary::of(&[10.0, 20.0, 30.0]).cv;
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn mad_outlier_detection() {
        let mut xs = vec![10.0; 20];
        xs.extend_from_slice(&[10.1, 9.9, 10.05]);
        xs.push(100.0); // obvious outlier
        let out = mad_outliers(&xs, 3.5);
        assert!(out.contains(&(xs.len() - 1)));
        assert!(out.len() <= 4);
    }

    #[test]
    fn ks_test_separates_distributions() {
        let a: Vec<f64> = (0..200).map(|i| (i % 50) as f64).collect();
        let b: Vec<f64> = (0..200).map(|i| (i % 50) as f64 + 40.0).collect();
        let (d, p) = ks_test(&a, &b);
        assert!(d > 0.5, "d = {d}");
        assert!(p < 1e-6, "p = {p}");
        let (d, p) = ks_test(&a, &a);
        assert!(d < 1e-12);
        assert!(p > 0.99);
    }
}
