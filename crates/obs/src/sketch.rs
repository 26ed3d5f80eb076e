//! Streaming, mergeable statistics for cross-run variability analytics.
//!
//! Two accumulators with **deterministic associative merge** — both are
//! plain integer structures whose merge is element-wise saturating
//! addition (plus min/max), so merging is exactly associative and
//! commutative at the bit level. That is what lets the sharded campaign
//! executor fold per-run statistics worker-by-worker in any order
//! and still produce byte-identical reports at any `--jobs` count:
//!
//! * [`QuantileSketch`] — a log-bucketed quantile sketch over `u64`
//!   nanoseconds (8 sub-buckets per octave ⇒ ≤ 12.5% relative
//!   quantization error on interior quantiles; exact min/max), constant
//!   memory, O(1) insert, O(buckets) merge. Also the per-construct
//!   latency histogram behind [`span_stats`](crate::span_stats).
//! * [`VarAccum`] — exact streaming moments (count, Σx, Σx² in `u128`,
//!   min, max) for mean / population standard deviation / coefficient of
//!   variation. `u128` sums are exact for any realistic campaign
//!   (overflow would need ~10¹⁸ samples of ~10¹⁰ ns each), so merged
//!   moments equal bulk-recorded moments bit-for-bit.

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power of two, i.e. a
/// worst-case quantization error of 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;
/// 64 octaves × 8 sub-buckets (small values get exact buckets).
const N_BUCKETS: usize = 64 * SUBS as usize;

/// Bucket index of value `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as u64;
        (exp * SUBS + ((v >> (exp - SUB_BITS as u64)) & (SUBS - 1))) as usize
    }
}

/// Lower bound of bucket `i` — the value reported for quantiles falling
/// in it.
fn bucket_floor(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBS {
        i
    } else {
        let exp = i / SUBS;
        let sub = i % SUBS;
        (1 << exp) | (sub << (exp - SUB_BITS as u64))
    }
}

/// A mergeable log-bucketed quantile sketch over `u64` nanoseconds.
///
/// Guarantees:
/// * `quantile(0.0)` is the exact minimum, `quantile(1.0)` the exact
///   maximum; interior quantiles carry ≤ 12.5% relative quantization
///   error (the bucket width).
/// * `a.merge(&b)` is associative and commutative bit-for-bit, and
///   equals recording `b`'s samples into `a` directly (counts saturate
///   identically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch { counts: vec![0; N_BUCKETS], count: 0, min: u64::MAX, max: 0 }
    }
}

impl QuantileSketch {
    /// Fresh empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch::default()
    }

    /// Record one value.
    pub fn record(&mut self, value_ns: u64) {
        let b = bucket_of(value_ns);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.min = self.min.min(value_ns);
        self.max = self.max.max(value_ns);
    }

    /// Fold another sketch into this one (element-wise saturating add).
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(b);
        }
        self.count = self.count.saturating_add(other.count);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples (saturating).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0.0..=1.0`, clamped), nearest-rank, `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen: u64 = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_floor(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Interquartile range: `quantile(0.75) − quantile(0.25)`, `None`
    /// when empty.
    pub fn iqr(&self) -> Option<u64> {
        Some(self.quantile(0.75)?.saturating_sub(self.quantile(0.25)?))
    }
}

/// Exact streaming moment accumulator over `u64` nanoseconds.
///
/// Integer sums make the merge exactly associative/commutative;
/// mean/CoV are computed only at render time, so a merged accumulator
/// yields bit-identical derived statistics regardless of merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarAccum {
    count: u64,
    sum: u128,
    sumsq: u128,
    min: u64,
    max: u64,
}

impl Default for VarAccum {
    fn default() -> Self {
        VarAccum { count: 0, sum: 0, sumsq: 0, min: u64::MAX, max: 0 }
    }
}

impl VarAccum {
    /// Fresh empty accumulator.
    pub fn new() -> VarAccum {
        VarAccum::default()
    }

    /// Record one value.
    pub fn record(&mut self, value_ns: u64) {
        self.count += 1;
        self.sum += value_ns as u128;
        self.sumsq += (value_ns as u128) * (value_ns as u128);
        self.min = self.min.min(value_ns);
        self.max = self.max.max(value_ns);
    }

    /// Fold another accumulator into this one.
    pub fn merge(&mut self, other: &VarAccum) {
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Population standard deviation, 0.0 when empty.
    pub fn std(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum as f64 / n;
        let var = (self.sumsq as f64 / n - mean * mean).max(0.0);
        var.sqrt()
    }

    /// Coefficient of variation (`std / mean`), 0.0 when the mean is 0.
    pub fn cov(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std() / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: deterministic test data without external deps.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_samples(seed: u64, n: usize, span: u64) -> Vec<u64> {
        let mut rng = Rng(seed);
        (0..n).map(|_| rng.below(span)).collect()
    }

    #[test]
    fn sketch_merge_is_associative_and_commutative() {
        for seed in 0..8u64 {
            let xs = random_samples(seed, 300, 1 << 40);
            let (a0, b0, c0) = (&xs[..100], &xs[100..200], &xs[200..]);
            let fill = |vals: &[u64]| {
                let mut s = QuantileSketch::new();
                vals.iter().for_each(|&v| s.record(v));
                s
            };
            let (a, b, c) = (fill(a0), fill(b0), fill(c0));
            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "associativity, seed {seed}");
            // b ⊕ a == a ⊕ b
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "commutativity, seed {seed}");
            // Merge equals bulk record.
            assert_eq!(left, fill(&xs), "merge vs bulk, seed {seed}");
        }
    }

    #[test]
    fn sketch_rank_error_within_bucket_bound() {
        for seed in [1u64, 7, 42] {
            let mut xs = random_samples(seed, 2000, 10_000_000);
            let mut s = QuantileSketch::new();
            xs.iter().for_each(|&v| s.record(v));
            xs.sort_unstable();
            for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
                let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
                let exact = xs[rank - 1] as f64;
                let got = s.quantile(q).unwrap() as f64;
                // Sketch reports the bucket floor of a value whose rank
                // matches: relative error bounded by the bucket width.
                let rel = if exact > 0.0 { (got - exact).abs() / exact } else { 0.0 };
                assert!(rel <= 0.125, "seed {seed} q{q}: got {got}, exact {exact}, rel {rel}");
            }
            assert_eq!(s.quantile(0.0), Some(xs[0]));
            assert_eq!(s.quantile(1.0), Some(*xs.last().unwrap()));
        }
    }

    #[test]
    fn empty_sketch_and_accum_report_nothing() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.iqr(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        let a = VarAccum::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.cov(), 0.0);
        assert_eq!(a.max(), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut s = QuantileSketch::new();
        s.record(1234);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(1234), "q{q}");
        }
        assert_eq!(s.min(), Some(1234));
        assert_eq!(s.max(), Some(1234));
    }

    #[test]
    fn zero_and_small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..8u64 {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(7));
        // Nearest rank of the median over 8 samples is the 4th (value 3).
        assert_eq!(s.quantile(0.5), Some(3));
    }

    #[test]
    fn interior_quantiles_within_bucket_error() {
        let mut s = QuantileSketch::new();
        for v in 1..=10_000u64 {
            s.record(v);
        }
        for (q, exact) in [(0.50, 5000.0), (0.95, 9500.0), (0.99, 9900.0)] {
            let got = s.quantile(q).unwrap() as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel <= 0.125, "q{q}: got {got}, exact {exact}, rel {rel}");
        }
        assert_eq!(s.quantile(1.0), Some(10_000));
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let mut s = QuantileSketch::new();
        s.record(42);
        for _ in 0..64 {
            let same = s.clone();
            s.merge(&same); // the 64th doubling would wrap if unchecked
        }
        s.record(7);
        assert_eq!(s.count(), u64::MAX);
        let p50 = s.quantile(0.5).expect("nonempty");
        assert!((37..=42).contains(&p50), "{p50}"); // within bucket error of 42
        assert_eq!(s.min(), Some(7));
        // u64::MAX itself lands in the last bucket without overflow.
        let mut g = QuantileSketch::new();
        g.record(u64::MAX);
        assert_eq!(g.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn accum_merge_matches_bulk_exactly() {
        let xs = random_samples(99, 500, 1 << 33);
        let mut bulk = VarAccum::new();
        xs.iter().for_each(|&v| bulk.record(v));
        let mut merged = VarAccum::new();
        for chunk in xs.chunks(37) {
            let mut part = VarAccum::new();
            chunk.iter().for_each(|&v| part.record(v));
            merged.merge(&part);
        }
        // Integer state identical ⇒ derived f64 stats identical bits.
        assert_eq!(bulk, merged);
        assert_eq!(bulk.mean().to_bits(), merged.mean().to_bits());
        assert_eq!(bulk.cov().to_bits(), merged.cov().to_bits());
    }

    #[test]
    fn accum_moments_are_correct() {
        let mut a = VarAccum::new();
        for v in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            a.record(v);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert!((a.std() - 2.0).abs() < 1e-12);
        assert!((a.cov() - 0.4).abs() < 1e-12);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(9));
    }

    #[test]
    fn constant_samples_have_zero_cov_and_iqr() {
        let mut a = VarAccum::new();
        let mut s = QuantileSketch::new();
        for _ in 0..50 {
            a.record(1234);
            s.record(1234);
        }
        assert_eq!(a.cov(), 0.0);
        assert_eq!(s.iqr(), Some(0));
        assert_eq!(s.quantile(0.5), Some(1234));
    }
}
