//! Seeded, deterministic exponential backoff with jitter.
//!
//! The delay before retry `attempt` (0-based) is
//! `min(cap, base * factor^attempt)` scaled by a jitter factor in
//! `[0.5, 1.5)` drawn from [`splitmix64`] keyed on `(seed, attempt)`.
//! Everything is a pure function of the inputs, so a replayed campaign
//! reproduces the exact same schedule — which the retry-determinism
//! tests assert bit-for-bit.

use ompvar_sim::rng::splitmix64;

/// Shape of the backoff curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffCfg {
    /// First delay, before jitter (milliseconds).
    pub base_ms: u64,
    /// Multiplier per attempt.
    pub factor: f64,
    /// Upper bound on the un-jittered delay (milliseconds).
    pub cap_ms: u64,
}

impl Default for BackoffCfg {
    fn default() -> Self {
        // Small enough that a quarantine costs well under a second of
        // sleeping in CI, large enough to be visible on a trace.
        BackoffCfg { base_ms: 25, factor: 2.0, cap_ms: 1_000 }
    }
}

/// A deterministic backoff schedule for one supervised unit.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    cfg: BackoffCfg,
    seed: u64,
}

impl Backoff {
    /// Schedule keyed on `seed`. The supervisor keys a unit's retries on
    /// `child(seed, name, 0)` and its journal's I/O retries on
    /// `child(seed, name, 1)` (see [`ompvar_sim::rng::child`]).
    pub fn new(cfg: BackoffCfg, seed: u64) -> Backoff {
        Backoff { cfg, seed }
    }

    /// Delay in milliseconds before retry `attempt` (0-based: the delay
    /// between the first failure and the second attempt is `delay_ms(0)`).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = self.cfg.factor.powi(attempt.min(63) as i32);
        let raw = ((self.cfg.base_ms as f64 * exp) as u64).min(self.cfg.cap_ms);
        // Jitter in [0.5, 1.5): decorrelates retries of parallel
        // campaigns without losing determinism per (seed, attempt).
        let draw = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0xa076_1d64_78bd_642f));
        let jitter = 0.5 + (draw >> 11) as f64 / (1u64 << 53) as f64;
        ((raw as f64) * jitter) as u64
    }

    /// The first `n` delays, in order.
    pub fn schedule(&self, n: u32) -> Vec<u64> {
        (0..n).map(|a| self.delay_ms(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let b = Backoff::new(BackoffCfg::default(), 42);
        assert_eq!(b.schedule(8), b.schedule(8));
        let other = Backoff::new(BackoffCfg::default(), 43);
        assert_ne!(b.schedule(8), other.schedule(8), "seed must matter");
    }

    #[test]
    fn delays_grow_and_cap() {
        let cfg = BackoffCfg { base_ms: 10, factor: 2.0, cap_ms: 100 };
        let b = Backoff::new(cfg, 7);
        for a in 0..20 {
            let d = b.delay_ms(a);
            // Jitter is [0.5, 1.5) around min(cap, base * 2^a).
            let raw = (10u64 << a.min(32)).min(100) as f64;
            assert!(d as f64 >= raw * 0.5 - 1.0, "attempt {a}: {d}");
            assert!((d as f64) < raw * 1.5 + 1.0, "attempt {a}: {d}");
        }
    }

    proptest! {
        /// Determinism and bounds hold for arbitrary seeds and attempts
        /// (extends the PR 1 replay-determinism property tests to the
        /// supervisor layer).
        #[test]
        fn backoff_pure_function_of_inputs(seed in any::<u64>(), attempt in 0u32..64) {
            let b = Backoff::new(BackoffCfg::default(), seed);
            let d1 = b.delay_ms(attempt);
            let d2 = b.delay_ms(attempt);
            prop_assert_eq!(d1, d2);
            // Hard ceiling: cap * 1.5.
            prop_assert!(d1 <= 1_500);
        }
    }
}
