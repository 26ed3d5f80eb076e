//! Virtual time for the simulator.
//!
//! Time is an integer number of nanoseconds since simulation start. All
//! model arithmetic happens in `f64` (cycles, bytes, rates) and is rounded
//! to whole nanoseconds when events are scheduled, which keeps the event
//! order deterministic across runs of the same seed.

/// Virtual time in nanoseconds.
pub type Time = u64;

/// One microsecond in [`Time`] units.
pub const US: Time = 1_000;
/// One millisecond in [`Time`] units.
pub const MS: Time = 1_000_000;
/// One second in [`Time`] units.
pub const SEC: Time = 1_000_000_000;

/// Convert a fractional nanosecond quantity to [`Time`], rounding up so a
/// nonzero duration never becomes zero (which could livelock the engine).
#[inline]
pub fn from_ns_f64(ns: f64) -> Time {
    debug_assert!(ns.is_finite() && ns >= 0.0, "bad duration {ns}");
    if ns <= 0.0 {
        0
    } else {
        // Clamp so that `now + duration` can never overflow u64 in any
        // realistic run (2^62 ns ≈ 146 years of virtual time).
        (ns.ceil() as u64).clamp(1, u64::MAX / 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_never_produces_zero_for_positive_input() {
        assert_eq!(from_ns_f64(0.0), 0);
        assert_eq!(from_ns_f64(0.1), 1);
        assert_eq!(from_ns_f64(1.0), 1);
        assert_eq!(from_ns_f64(1.2), 2);
    }

    #[test]
    fn unit_constants() {
        assert_eq!(US * 1_000, MS);
        assert_eq!(MS * 1_000, SEC);
    }
}
