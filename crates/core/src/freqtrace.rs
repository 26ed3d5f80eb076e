//! Frequency-trace analysis: the quantities behind the paper's Figures
//! 6 and 7 (frequency bands, transition counts), over one core's series
//! of logger samples in GHz, in time order.

/// Min and max frequency of one core's `series`; `(∞, −∞)` when empty.
pub fn band(series: impl IntoIterator<Item = f32>) -> (f32, f32) {
    series
        .into_iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), f| (lo.min(f), hi.max(f)))
}

/// Count of frequency changes larger than `threshold_ghz` between
/// consecutive samples of one core's `series`.
pub fn transitions(series: impl IntoIterator<Item = f32>, threshold_ghz: f32) -> usize {
    let mut prev = None;
    series
        .into_iter()
        .filter(|&f| prev.replace(f).is_some_and(|p: f32| (f - p).abs() > threshold_ghz))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cores' series: core 0 droops once, core 1 holds.
    const CORES: [[f32; 5]; 2] = [[3.5, 3.5, 3.0, 3.5, 3.5], [2.0; 5]];

    #[test]
    fn transitions_counted_per_core() {
        assert_eq!(transitions(CORES[0], 0.1), 2); // down then up
        assert_eq!(transitions(CORES[1], 0.1), 0);
        assert_eq!(transitions(CORES[0], 0.5), 0, "a change must exceed the threshold");
    }

    #[test]
    fn band_is_each_cores_min_and_max() {
        assert_eq!(band(CORES[0]), (3.0, 3.5));
        assert_eq!(band(CORES[1]), (2.0, 2.0));
    }

    #[test]
    fn empty_trace_is_harmless() {
        assert_eq!(transitions([], 0.1), 0);
        assert_eq!(transitions([3.5], 0.1), 0);
        assert_eq!(band([]), (f32::INFINITY, f32::NEG_INFINITY));
    }
}
