//! Deterministic pseudo-random number generation for the simulator.
//!
//! Reproducibility is a hard requirement: every figure in the paper
//! reproduction must be regenerable bit-for-bit from a single `u64` seed.
//! To avoid depending on external RNG crates whose streams may change
//! across versions, the simulator carries its own implementation of
//! SplitMix64 (for seeding and stream derivation) and xoshiro256++ (the
//! workhorse generator), both from the public-domain reference algorithms
//! by Blackman & Vigna.
//!
//! Independent *named sub-streams* are derived with [`Rng::fork`], so that
//! e.g. the noise model and the frequency model never share a stream and
//! adding draws to one cannot perturb the other.
//!
//! This module is also the one place a *seed* is derived from another
//! seed. Every derivation in the workspace is one of the free functions
//! below, each a named function of its root: [`child`] for a labelled,
//! indexed sub-seed, [`retry`] for a unit's retry attempt, [`offset`] for
//! the additive run and case seeds. They are plain `u64` functions
//! because seeds cross every crate API as `u64`.

/// SplitMix64's increment (the golden ratio), also the odd multiplier
/// that spreads a small index over 64 bits.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer: a bijective 64-bit mixer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step from state `x`: `mix64(x + γ)`. Output `k` of
/// the generator seeded with `s` is `splitmix64(s + k·γ)`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GAMMA))
}

/// FNV-1a hash of a byte string, used to turn labels into seeds.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Sub-seed `index` of the stream named `label` under `seed`:
/// `seed ^ fnv1a(label) ^ index·γ`. Labels keep streams apart; the
/// index spreads runs of one stream over all 64 bits.
#[inline]
pub fn child(seed: u64, label: &str, index: u64) -> u64 {
    seed ^ fnv1a(label.as_bytes()) ^ index.wrapping_mul(GAMMA)
}

/// The seed a supervised unit uses for retry `attempt`. Attempt 0 keeps
/// `seed` unchanged — a never-retried supervised run is bit-identical
/// to an unsupervised one — and each retry gets a decorrelated
/// derivative.
#[inline]
pub fn retry(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        seed
    } else {
        mix64(seed ^ u64::from(attempt).wrapping_mul(GAMMA))
    }
}

/// The additive derivation `seed + i`: seeds of consecutive items
/// overlap between roots (item `i` of `seed + 1` is item `i + 1` of
/// `seed`). Kept where that overlap is the point, or until a caller
/// switches to [`child`].
#[inline]
pub fn offset(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i)
}

/// xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal deviate from the Box–Muller transform.
    cached_normal: Option<f64>,
}

impl Rng {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let s = std::array::from_fn(|k| {
            splitmix64(seed.wrapping_add(GAMMA.wrapping_mul(k as u64)))
        });
        Rng {
            s,
            cached_normal: None,
        }
    }

    /// Derive an independent sub-stream identified by `label` and `index`:
    /// the generator of [`child`] of the parent's seed material.
    ///
    /// Forking is stable: the child stream depends only on the parent seed
    /// material, the label and the index — not on how many numbers the
    /// parent has generated... as long as `fork` is called on a freshly
    /// seeded parent. By convention the engine forks everything from the
    /// root RNG at construction time.
    pub fn fork(&self, label: &str, index: u64) -> Rng {
        Rng::new(child(self.s[0] ^ self.s[1].rotate_left(17), label, index))
    }

    /// The whole generator state as words: the four xoshiro words, then
    /// whether a normal deviate is cached and its bits. Two generators
    /// with equal words draw identical streams.
    pub(crate) fn state_words(&self) -> [u64; 6] {
        let [a, b, c, d] = self.s;
        let cached = self.cached_normal.map_or(0, f64::to_bits);
        [a, b, c, d, u64::from(self.cached_normal.is_some()), cached]
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential deviate with the given mean (`mean > 0`).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Avoid ln(0): f64() < 1 always, so 1 - f64() > 0.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal deviate (Box–Muller, cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.cached_normal = Some(r * s);
        r * c
    }

    /// Log-normal deviate parameterized by the *median* `median` and the
    /// shape `sigma` (std-dev of the underlying normal). Heavy-tailed —
    /// used for OS daemon durations.
    #[inline]
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        median * (sigma * self.normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forked_streams_are_independent_and_stable() {
        let root = Rng::new(7);
        let mut c1 = root.fork("noise", 0);
        let mut c2 = root.fork("noise", 1);
        let mut c3 = root.fork("freq", 0);
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| c3.next_u64()).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stability: forking again yields the same stream.
        let mut c1bis = root.fork("noise", 0);
        let abis: Vec<u64> = (0..8).map(|_| c1bis.next_u64()).collect();
        assert_eq!(a, abis);
    }

    /// The run-seed switch point. With `child(s, "run", i)` the runs of
    /// user seeds `s` and `s + 1` share no seed for n ≤ 1024; with
    /// `offset`, which `run_seed` uses, they share n − 1 of n.
    #[test]
    fn child_run_seeds_of_adjacent_roots_are_disjoint() {
        use std::collections::HashSet;
        let n = 1024u64;
        let roots = std::iter::once(20230714).chain(1..=10).chain((1..=20).map(|k| k << 32));
        for s in roots {
            let ours: HashSet<u64> = (0..n).map(|i| child(s, "run", i)).collect();
            assert_eq!(ours.len(), n as usize, "root {s}: child collides with itself");
            let shared = (0..n).filter(|&j| ours.contains(&child(s + 1, "run", j))).count();
            assert_eq!(shared, 0, "root {s}: child shares run seeds with root {}", s + 1);

            let ours: HashSet<u64> = (0..n).map(|i| offset(s, i)).collect();
            let shared = (0..n).filter(|&j| ours.contains(&offset(s + 1, j))).count();
            assert_eq!(shared, n as usize - 1, "root {s}: offset overlaps in all but one run");
        }
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let mut r = Rng::new(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::new(11);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn exponential_moments() {
        let mut r = Rng::new(5);
        let n = 50_000;
        let mean_target = 3.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.exp(mean_target);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.1, "exp mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(9);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal var {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = Rng::new(13);
        let mut xs: Vec<f64> = (0..10_001).map(|_| r.lognormal(50.0, 1.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med / 50.0 - 1.0).abs() < 0.15, "lognormal median {med}");
    }
}
