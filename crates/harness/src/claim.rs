//! Comparative shape checks as claims.
//!
//! The paper's findings are comparisons — pinned vs unbound, ST vs MT,
//! 1 vs 2 NUMA domains, low vs high thread count. A [`Claim`] states
//! one once, as terms `lhs REL rhs` over labelled quantities, and
//! derives from that alone the verdict, the detail line and a signed
//! margin: how far the check sits from its boundary, positive when it
//! holds. A check that compares nothing (an artifact written, a charge
//! that must be exactly zero) stays a plain [`Check`].

use crate::common::Check;

/// One side of a [`Term`]: a labelled quantity or a bare constant,
/// compared as `value * mul / div` — where one factor is always 1, so
/// a boundary written `x / 5.0` stays that arithmetic bit for bit (it
/// is not `x * 0.2`).
#[derive(Debug, Clone)]
pub struct Side {
    label: String,
    value: f64,
    unit: &'static str,
    mul: f64,
    div: f64,
}

/// A measured quantity; `unit` is `""` for a ratio or a count.
pub fn qty(label: impl Into<String>, value: f64, unit: &'static str) -> Side {
    Side { label: label.into(), value, unit, mul: 1.0, div: 1.0 }
}

/// A bare constant boundary.
pub fn bound(value: f64) -> Side {
    qty("", value, "")
}

impl Side {
    /// Compared as `value * k`.
    pub fn times(self, k: f64) -> Side {
        Side { mul: k, div: 1.0, ..self }
    }

    /// Compared as `value / d`.
    pub fn over(self, d: f64) -> Side {
        Side { mul: 1.0, div: d, ..self }
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Side) -> Term {
        Term { lhs: self, rel: Rel::Lt, rhs }
    }

    /// `self ≤ rhs`.
    pub fn le(self, rhs: Side) -> Term {
        Term { lhs: self, rel: Rel::Le, rhs }
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Side) -> Term {
        Term { lhs: self, rel: Rel::Gt, rhs }
    }

    /// `self ≥ rhs`.
    pub fn ge(self, rhs: Side) -> Term {
        Term { lhs: self, rel: Rel::Ge, rhs }
    }

    /// The label, the unscaled value at 4 significant digits, the unit,
    /// and the scale factor if there is one.
    fn show(&self) -> String {
        let value = num(self.value);
        let parts = [self.label.as_str(), &value, self.unit].into_iter().filter(|p| !p.is_empty());
        let mut s = parts.collect::<Vec<_>>().join(" ");
        for (op, k) in [("×", self.mul), ("/", self.div)] {
            if k != 1.0 {
                s += &format!(" {op} {}", num(k));
            }
        }
        s
    }
}

#[derive(Debug, Clone, Copy)]
enum Rel {
    Lt,
    Le,
    Gt,
    Ge,
}

/// One comparison `lhs REL rhs`.
#[derive(Debug)]
pub struct Term {
    lhs: Side,
    rel: Rel,
    rhs: Side,
}

impl Term {
    /// The relation's symbol, whether the term holds (today's
    /// comparison, on the scaled sides), and its margin
    /// `(lhs − rhs) / max(|lhs|, |rhs|)` signed so that positive means
    /// it holds — 0 when both sides are 0, `None` when either is not
    /// finite.
    fn judge(&self) -> (&'static str, bool, Option<f64>) {
        let compared = |s: &Side| s.value * s.mul / s.div;
        let (l, r) = (compared(&self.lhs), compared(&self.rhs));
        let (symbol, holds, (hi, lo)) = match self.rel {
            Rel::Lt => ("<", l < r, (r, l)),
            Rel::Le => ("≤", l <= r, (r, l)),
            Rel::Gt => (">", l > r, (l, r)),
            Rel::Ge => ("≥", l >= r, (l, r)),
        };
        let scale = l.abs().max(r.abs());
        let margin = if scale == 0.0 { 0.0 } else { (hi - lo) / scale };
        (symbol, holds, (l.is_finite() && r.is_finite()).then_some(margin))
    }
}

/// A named conjunction of terms: the one rule by which a comparative
/// shape check states, judges and explains itself.
#[derive(Debug)]
pub struct Claim {
    name: String,
    terms: Vec<Term>,
}

impl Claim {
    /// A claim that every one of `terms` holds (at least one).
    pub fn new(name: impl Into<String>, terms: impl IntoIterator<Item = Term>) -> Claim {
        let terms: Vec<Term> = terms.into_iter().collect();
        assert!(!terms.is_empty(), "a claim states at least one term");
        Claim { name: name.into(), terms }
    }

    /// The verdict (every term holds), the margin (the smallest term
    /// margin; absent if any side is not finite, and then the verdict
    /// is false) and the detail line (the terms, then the margin).
    pub fn check(&self) -> Check {
        let (mut passed, mut margin, mut shown) = (true, Some(f64::INFINITY), Vec::new());
        for t in &self.terms {
            let (symbol, holds, m) = t.judge();
            passed &= holds;
            // No NaN reaches `min`: a non-finite side has no margin at all.
            margin = margin.zip(m).map(|(a, b)| a.min(b));
            shown.push(format!("{} {symbol} {}", t.lhs.show(), t.rhs.show()));
        }
        let m = margin.map_or("undefined".to_string(), |m| format!("{m:+.4}"));
        let detail = format!("{}; margin {m}", shown.join("; "));
        Check { name: self.name.clone(), passed: passed && margin.is_some(), margin, detail }
    }
}

/// `x` at 4 significant digits (whole numbers below 1e6 keep every
/// digit), trailing zeros dropped; scientific notation outside
/// `[1e-3, 1e6)`.
fn num(x: f64) -> String {
    let a = x.abs();
    let s = if a == 0.0 || !a.is_finite() {
        return x.to_string();
    } else if (1e-3..1e6).contains(&a) {
        format!("{x:.*}", (3 - a.log10().floor() as i32).max(0) as usize)
    } else {
        format!("{x:.3e}")
    };
    // Re-read, the mantissa prints without its trailing zeros.
    let (mantissa, exp) = s.split_at(s.find('e').unwrap_or(s.len()));
    format!("{}{exp}", mantissa.parse::<f64>().expect("a formatted number parses"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(t: Term) -> Check {
        Claim::new("c", [t]).check()
    }

    #[test]
    fn each_relation_on_both_sides_of_its_boundary_and_at_the_tie() {
        type Make = fn(Side, Side) -> Term;
        // (relation, holds when lhs is below, at, above the rhs)
        let rels: [(Make, [bool; 3]); 4] = [
            (Side::lt, [true, false, false]),
            (Side::le, [true, true, false]),
            (Side::gt, [false, false, true]),
            (Side::ge, [false, true, true]),
        ];
        for (rel, holds) in rels {
            for (lhs, want) in [1.0, 2.0, 3.0].into_iter().zip(holds) {
                let c = one(rel(qty("x", lhs, "µs"), qty("y", 2.0, "µs")));
                assert_eq!(c.passed, want, "{}", c.detail);
                let m = c.margin.expect("finite sides have a margin");
                if lhs == 2.0 {
                    // On the boundary: +0, never -0, whichever way the relation points.
                    assert_eq!(m.to_bits(), 0.0f64.to_bits(), "{}", c.detail);
                    assert!(c.detail.ends_with("; margin +0.0000"), "{}", c.detail);
                } else {
                    assert_eq!(m > 0.0, want, "{}", c.detail);
                    assert_eq!(m.abs(), (lhs - 2.0).abs() / lhs.max(2.0));
                }
            }
        }
    }

    #[test]
    fn a_zero_boundary_keeps_the_margin_defined() {
        let c = one(qty("charge", 0.0, "ns").gt(bound(0.0)));
        assert!(!c.passed);
        assert_eq!(c.margin, Some(0.0));
        let c = one(qty("charge", 37.0, "ns").gt(bound(0.0)));
        assert!(c.passed);
        assert_eq!(c.margin, Some(1.0));
        let c = one(qty("transitions", 0.0, "/s").times(1.5).lt(qty("t2", 4.0, "/s")));
        assert!(c.passed);
        assert_eq!(c.margin, Some(1.0));
    }

    #[test]
    fn a_non_finite_side_fails_without_a_margin() {
        for c in [
            one(qty("x", f64::NAN, "µs").gt(qty("y", 1.0, "µs"))),
            one(qty("x", 1.0, "µs").le(qty("y", f64::NAN, "µs"))),
            one(qty("x", f64::INFINITY, "µs").gt(qty("y", 1.0, "µs"))),
            one(qty("x", 1.0, "µs").lt(qty("y", 1.0, "µs").over(0.0))),
        ] {
            assert!(!c.passed, "{}", c.detail);
            assert_eq!(c.margin, None);
            assert!(c.detail.ends_with("; margin undefined"), "{}", c.detail);
        }
    }

    #[test]
    fn a_conjunction_fails_on_one_term_with_that_terms_margin() {
        let c = Claim::new(
            "unstable / stable",
            [qty("unbound", 6.0, "").gt(bound(3.0)), qty("pinned", 2.5, "").lt(bound(2.0))],
        )
        .check();
        assert!(!c.passed);
        assert_eq!(c.margin, Some(-0.5 / 2.5));
        assert_eq!(c.detail, "unbound 6 > 3; pinned 2.5 < 2; margin -0.2000");
    }

    #[test]
    fn a_division_is_not_a_multiplication_by_the_inverse() {
        let (x, y) = (3.0 / 5.0, 3.0);
        assert_ne!(y / 5.0, y * 0.2, "premise: the two boundaries differ here");
        let over = one(qty("x", x, "").lt(qty("y", y, "").over(5.0)));
        assert!(!over.passed);
        assert_eq!(over.margin, Some(0.0));
        let times = one(qty("x", x, "").lt(qty("y", y, "").times(0.2)));
        assert!(times.passed);
        assert!(times.margin.unwrap() > 0.0);
    }

    #[test]
    fn one_formatter_for_every_detail_line() {
        let c = Claim::new(
            "c",
            [qty("a", 1.23456, "µs").lt(qty("b", 12345.678, "µs").over(4.0)), qty("n", 3e-7, "s").ge(bound(0.0))],
        )
        .check();
        assert!(c.passed);
        assert_eq!(c.detail, "a 1.235 µs < b 12346 µs / 4; n 3e-7 s ≥ 0; margin +0.9996");
        assert_eq!(num(0.05), "0.05");
        assert_eq!(num(-1.5e9), "-1.5e9");
        assert_eq!(num(0.0104567), "0.01046");
    }
}
