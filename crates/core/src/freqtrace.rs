//! Frequency-trace analysis: turning the logger's per-core samples into
//! the quantities behind the paper's Figures 6 and 7 (frequency bands,
//! transition counts).

use std::fmt;

/// Why a sample list cannot form a [`FreqTrace`].
///
/// Real logger files (the paper's sysfs poller) can be malformed —
/// clock steps backwards across a resync, truncated lines with missing
/// cores — so construction reports a typed error instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreqTraceError {
    /// Sample `index` has a timestamp earlier than its predecessor.
    UnorderedSamples {
        /// Offending sample position.
        index: usize,
        /// Predecessor's timestamp (ns).
        prev_ns: u64,
        /// Offending timestamp (ns).
        time_ns: u64,
    },
    /// Sample `index` covers a different number of cores than the first
    /// sample.
    InconsistentCoreCount {
        /// Offending sample position.
        index: usize,
        /// Core count of the first sample.
        expected: usize,
        /// Core count of the offending sample.
        found: usize,
    },
}

impl fmt::Display for FreqTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreqTraceError::UnorderedSamples { index, prev_ns, time_ns } => write!(
                f,
                "samples must be time-ordered: sample {index} at {time_ns} ns \
                 precedes its predecessor at {prev_ns} ns"
            ),
            FreqTraceError::InconsistentCoreCount { index, expected, found } => write!(
                f,
                "inconsistent core count: sample {index} covers {found} core(s), \
                 the first sample covers {expected}"
            ),
        }
    }
}

impl std::error::Error for FreqTraceError {}

/// A frequency trace: sample times (ns) and, per sample, the frequency of
/// every core in GHz. Mirrors the simulator's logger output without
/// depending on it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FreqTrace {
    /// Sample timestamps, nanoseconds, ascending.
    pub times_ns: Vec<u64>,
    /// `core_ghz[i][c]` = frequency of core `c` at sample `i`.
    pub core_ghz: Vec<Vec<f32>>,
}

impl FreqTrace {
    /// Build from `(time, freqs)` pairs. Samples must be time-ordered
    /// (ties allowed) and rectangular — every sample covering the same
    /// cores as the first.
    pub fn new(samples: Vec<(u64, Vec<f32>)>) -> Result<FreqTrace, FreqTraceError> {
        let mut t = FreqTrace::default();
        for (index, (time, f)) in samples.into_iter().enumerate() {
            if let Some(&prev) = t.times_ns.last() {
                if time < prev {
                    return Err(FreqTraceError::UnorderedSamples {
                        index,
                        prev_ns: prev,
                        time_ns: time,
                    });
                }
            }
            if let Some(first) = t.core_ghz.first() {
                if first.len() != f.len() {
                    return Err(FreqTraceError::InconsistentCoreCount {
                        index,
                        expected: first.len(),
                        found: f.len(),
                    });
                }
            }
            t.times_ns.push(time);
            t.core_ghz.push(f);
        }
        Ok(t)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// Number of cores covered.
    pub fn n_cores(&self) -> usize {
        self.core_ghz.first().map_or(0, |f| f.len())
    }

    /// Time series of one core.
    pub fn core_series(&self, core: usize) -> Vec<f32> {
        self.core_ghz.iter().map(|s| s[core]).collect()
    }

    /// Count of observed frequency changes of `core` larger than
    /// `threshold_ghz` between consecutive samples.
    pub fn transitions(&self, core: usize, threshold_ghz: f32) -> usize {
        let s = self.core_series(core);
        s.windows(2)
            .filter(|w| (w[1] - w[0]).abs() > threshold_ghz)
            .count()
    }

    /// Total transitions across a set of cores.
    pub fn transitions_over(&self, cores: &[usize], threshold_ghz: f32) -> usize {
        cores
            .iter()
            .map(|&c| self.transitions(c, threshold_ghz))
            .sum()
    }

    /// Min and max frequency observed on `core`.
    pub fn band(&self, core: usize) -> (f32, f32) {
        let s = self.core_series(core);
        let lo = s.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> FreqTrace {
        FreqTrace::new(vec![
            (0, vec![3.5, 2.0]),
            (100, vec![3.5, 2.0]),
            (200, vec![3.0, 2.0]),
            (300, vec![3.5, 2.0]),
            (400, vec![3.5, 2.0]),
        ])
        .expect("samples are ordered and rectangular")
    }

    #[test]
    fn transitions_counted_per_core() {
        let t = trace();
        assert_eq!(t.transitions(0, 0.1), 2); // down then up
        assert_eq!(t.transitions(1, 0.1), 0);
        assert_eq!(t.transitions_over(&[0, 1], 0.1), 2);
    }

    #[test]
    fn band_is_each_cores_min_and_max() {
        let t = trace();
        assert_eq!(t.band(0), (3.0, 3.5));
        assert_eq!(t.band(1), (2.0, 2.0));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = FreqTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.n_cores(), 0);
    }

    #[test]
    fn unordered_samples_rejected_with_typed_error() {
        let err = FreqTrace::new(vec![(100, vec![1.0]), (50, vec![1.0])]).unwrap_err();
        assert_eq!(
            err,
            FreqTraceError::UnorderedSamples { index: 1, prev_ns: 100, time_ns: 50 }
        );
        assert!(err.to_string().contains("time-ordered"), "{err}");
    }

    #[test]
    fn ragged_samples_rejected_with_typed_error() {
        let err = FreqTrace::new(vec![(0, vec![1.0]), (1, vec![1.0, 2.0])]).unwrap_err();
        assert_eq!(
            err,
            FreqTraceError::InconsistentCoreCount { index: 1, expected: 1, found: 2 }
        );
        assert!(err.to_string().contains("inconsistent core count"), "{err}");
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let t = FreqTrace::new(vec![(5, vec![1.0]), (5, vec![2.0])]).expect("ties are ordered");
        assert_eq!(t.len(), 2);
    }
}
