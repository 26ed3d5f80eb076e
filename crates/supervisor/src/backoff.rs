//! Seeded, deterministic exponential backoff with jitter.
//!
//! The delay before retry `attempt` (0-based) is
//! `min(cap, base * factor^attempt)` scaled by a jitter factor in
//! `[0.5, 1.5)` drawn from a splitmix64 stream keyed on
//! `(seed, attempt)`. Everything is a pure function of the inputs, so a
//! replayed campaign reproduces the exact same schedule — which the
//! retry-determinism tests assert bit-for-bit.

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

/// splitmix64's increment, also the usual odd multiplier for spreading
/// a small counter over 64 bits.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64's output finalizer: a bijective 64-bit mixer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64: the same tiny seeded generator the simulator's RNG layer
/// bootstraps from. One step, keyed on the full input. The one copy in
/// this crate: backoff jitter, attempt seeds and every chaos roll draw
/// from it.
pub(crate) fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN_GAMMA))
}

/// A deterministic backoff schedule for one supervised unit.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    cfg: BackoffCfg,
    seed: u64,
}

impl Backoff {
    /// Schedule keyed on the supervisor seed and the unit's name hash.
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

/// Hash a unit name into a seed component (FNV-1a, stable across runs).
pub fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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

    #[test]
    fn name_seed_is_stable_and_distinguishes() {
        assert_eq!(name_seed("faults"), name_seed("faults"));
        assert_ne!(name_seed("faults"), name_seed("trace"));
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
