//! Exact rational arithmetic.
//!
//! Every probability in the Halpern–Tuttle framework is a rational number
//! (1/2, 2/3, 1/2¹⁰, 1024/1025, …). Using exact rationals rather than
//! floating point makes "this matches the paper" a decidable equality test.
//!
//! [`Rat`] is an `i128`-backed fraction kept in canonical form: the
//! denominator is strictly positive and the fraction is fully reduced.
//! All arithmetic is checked; overflow panics with a descriptive message
//! (the paper's computations stay far below `i128` range, so an overflow
//! indicates a logic error rather than a capacity problem). Comparison
//! never overflows: any two representable rationals compare exactly,
//! through a 256-bit cross-multiply when an `i128` product would not
//! fit, so a threshold read from outside the program cannot panic a
//! `Pr_i ≥ α` test.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number backed by `i128`.
///
/// Invariants: the denominator is strictly positive and
/// `gcd(|numerator|, denominator) == 1`.
///
/// # Examples
///
/// ```
/// use kpa_measure::Rat;
///
/// let half = Rat::new(1, 2);
/// let third = Rat::new(1, 3);
/// assert_eq!(half + third, Rat::new(5, 6));
/// assert_eq!(half * third, Rat::new(1, 6));
/// assert!(half > third);
/// assert_eq!(half.pow(10), Rat::new(1, 1024));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor of two non-negative integers.
fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Greatest common divisor over `u128`, used by [`Rat::new`] so that
/// `i128::MIN.unsigned_abs()` (which exceeds `i128::MAX`) reduces
/// correctly instead of wrapping negative when cast back to `i128`.
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// The rational number zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates the rational `num / den` in canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
    /// assert_eq!(Rat::new(1, -2), Rat::new(-1, 2));
    /// ```
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let neg = (num < 0) != (den < 0) && num != 0;
        // Reduce over u128: `i128::MIN.unsigned_abs()` is 2¹²⁷, which a
        // naive `as i128` round-trip would wrap negative *before* the
        // gcd, yielding a non-canonical (or sign-flipped) fraction.
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_u128(n, d).max(1);
        let (n, d) = (n / g, d / g);
        assert!(
            d <= i128::MAX as u128,
            "rational denominator overflow after reduction"
        );
        let num = if neg {
            assert!(
                n <= i128::MAX as u128 + 1,
                "rational numerator overflow after reduction"
            );
            // 2¹²⁷ wraps to `i128::MIN` under `as`, which is exactly
            // the negative value we want; smaller magnitudes negate
            // normally.
            (n as i128).wrapping_neg()
        } else {
            assert!(
                n <= i128::MAX as u128,
                "rational numerator overflow after reduction"
            );
            n as i128
        };
        Rat {
            num,
            den: d as i128,
        }
    }

    /// Creates the rational `num / den`, returning `None` if `den == 0`.
    #[must_use]
    pub fn checked_new(num: i128, den: i128) -> Option<Rat> {
        if den == 0 {
            None
        } else {
            Some(Rat::new(num, den))
        }
    }

    /// Creates the integer rational `n / 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert_eq!(Rat::from_int(3), Rat::new(3, 1));
    /// ```
    #[must_use]
    pub const fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The numerator of the canonical form (may be negative).
    #[must_use]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator of the canonical form (always positive).
    #[must_use]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is exactly one.
    #[must_use]
    pub const fn is_one(self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// Returns `true` if this rational lies in the closed interval `[0, 1]`,
    /// i.e. is a valid probability.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert!(Rat::new(2, 3).is_probability());
    /// assert!(!Rat::new(4, 3).is_probability());
    /// assert!(!Rat::new(-1, 3).is_probability());
    /// ```
    #[must_use]
    pub fn is_probability(self) -> bool {
        !self.is_negative() && self <= Rat::ONE
    }

    /// Returns `true` if this rational is strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if this rational is strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// The absolute value.
    #[must_use]
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[must_use]
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Raises `self` to an integer power (negative exponents invert).
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero and `exp` is negative, or on overflow.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert_eq!(Rat::new(1, 2).pow(10), Rat::new(1, 1024));
    /// assert_eq!(Rat::new(2, 3).pow(-2), Rat::new(9, 4));
    /// assert_eq!(Rat::new(5, 7).pow(0), Rat::ONE);
    /// ```
    #[must_use]
    pub fn pow(self, exp: i32) -> Rat {
        if exp == 0 {
            return Rat::ONE;
        }
        let base = if exp < 0 { self.recip() } else { self };
        let mut out = Rat::ONE;
        for _ in 0..exp.unsigned_abs() {
            out *= base;
        }
        out
    }

    /// The smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    #[must_use]
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// An `f64` approximation, for display and plotting only.
    ///
    /// All decision procedures in this workspace use exact arithmetic;
    /// this conversion exists so harnesses can print human-friendly values.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Checked addition, returning `None` on `i128` overflow.
    ///
    /// Fast paths skip the cross-denominator gcd when the denominators
    /// are already equal or one of them is 1 — the two shapes that
    /// dominate measure-kernel accumulation loops.
    #[must_use]
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        if self.den == rhs.den {
            // Common denominator: one canonicalizing gcd, no lcm work.
            return Some(Rat::new(self.num.checked_add(rhs.num)?, self.den));
        }
        if self.den == 1 {
            // Integer + fraction stays reduced: gcd(a·d + b, d) = gcd(b, d) = 1.
            let num = self.num.checked_mul(rhs.den)?.checked_add(rhs.num)?;
            return Some(Rat { num, den: rhs.den });
        }
        if rhs.den == 1 {
            let num = rhs.num.checked_mul(self.den)?.checked_add(self.num)?;
            return Some(Rat { num, den: self.den });
        }
        // The general cross-denominator path: rare in kernel-shaped
        // accumulation (the fast paths above dominate), so its count is
        // a direct health signal for the common-denominator tables.
        kpa_trace::count!("measure.rat_slow_add");
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Some(Rat::new(num, den))
    }

    /// Sums integer numerators over the shared denominator `den`,
    /// canonicalizing once at the end instead of once per addition.
    ///
    /// This is the accumulation primitive of the dense measure kernel:
    /// block weights expressed over a common denominator are summed as
    /// plain integers and converted to an exact canonical [`Rat`] in a
    /// single final reduction — bit-identical to folding
    /// `Rat::new(nᵢ, den)` with `+`, but with one gcd total.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or the numerator sum overflows `i128`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert_eq!(Rat::sum_with_denom([1, 2, 3], 12), Rat::new(1, 2));
    /// assert_eq!(Rat::sum_with_denom([], 7), Rat::ZERO);
    /// ```
    #[must_use]
    pub fn sum_with_denom<I: IntoIterator<Item = i128>>(nums: I, den: i128) -> Rat {
        let mut acc: i128 = 0;
        for n in nums {
            acc = acc.checked_add(n).expect("rational numerator sum overflow");
        }
        Rat::new(acc, den)
    }

    /// Checked multiplication, returning `None` on `i128` overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num.unsigned_abs() as i128, rhs.den).max(1);
        let g2 = gcd(rhs.num.unsigned_abs() as i128, self.den).max(1);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rat::new(num, den))
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::ZERO
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b vs c/d with b, d > 0: compare a·d with c·b.
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => cmp_products(self.num, other.den, other.num, self.den),
        }
    }
}

/// Compares `a·d` with `c·b` exactly, for `b, d > 0`: the fallback of
/// [`Rat::cmp`] when a cross product leaves `i128`.
fn cmp_products(a: i128, d: i128, c: i128, b: i128) -> Ordering {
    // b, d > 0, so each product has the sign of its numerator.
    let by_sign = a.signum().cmp(&c.signum());
    if by_sign != Ordering::Equal || a == 0 {
        return by_sign;
    }
    let lhs = mul_u256(a.unsigned_abs(), d.unsigned_abs());
    let rhs = mul_u256(c.unsigned_abs(), b.unsigned_abs());
    if a < 0 {
        rhs.cmp(&lhs)
    } else {
        lhs.cmp(&rhs)
    }
}

/// The exact 256-bit product `x·y` as `(high, low)` `u128` halves,
/// schoolbook over 64-bit limbs; the tuple order is the numeric order.
fn mul_u256(x: u128, y: u128) -> (u128, u128) {
    const LIMB: u128 = u64::MAX as u128;
    let (x1, x0) = (x >> 64, x & LIMB);
    let (y1, y0) = (y >> 64, y & LIMB);
    let low_limbs = x0 * y0;
    let (mid, c1) = (x0 * y1).overflowing_add(x1 * y0);
    let (mid, c2) = mid.overflowing_add(low_limbs >> 64);
    let low = (mid << 64) | (low_limbs & LIMB);
    let high = x1 * y1 + (mid >> 64) + ((u128::from(c1) + u128::from(c2)) << 64);
    (high, low)
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        self.checked_add(rhs).expect("rational addition overflow")
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        self.checked_mul(rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rat {
    type Output = Rat;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a * (1/b) by definition
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl Sum for Rat {
    /// Folds with `+`, skipping zero terms so runs of zeros (common in
    /// sparse weight tables) cost no gcd at all; the equal-denominator
    /// and integer fast paths in [`Rat::checked_add`] handle the rest.
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |acc, x| {
            if x.is_zero() {
                acc
            } else if acc.is_zero() {
                x
            } else {
                acc + x
            }
        })
    }
}

impl<'a> Sum<&'a Rat> for Rat {
    fn sum<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.copied().sum()
    }
}

impl Product for Rat {
    fn product<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ONE, Mul::mul)
    }
}

impl<'a> Product<&'a Rat> for Rat {
    fn product<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.copied().product()
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::from_int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<u32> for Rat {
    fn from(n: u32) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<usize> for Rat {
    fn from(n: usize) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    input: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"3"`, `"-3"`, `"3/4"`, or decimal notation like `"0.99"`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// let p: Rat = "0.99".parse()?;
    /// assert_eq!(p, Rat::new(99, 100));
    /// let q: Rat = "-7/2".parse()?;
    /// assert_eq!(q, Rat::new(-7, 2));
    /// # Ok::<(), kpa_measure::ParseRatError>(())
    /// ```
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        let err = || ParseRatError {
            input: s.to_owned(),
        };
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n.trim().parse().map_err(|_| err())?;
            let d: i128 = d.trim().parse().map_err(|_| err())?;
            return Rat::checked_new(n, d).ok_or_else(err);
        }
        if let Some((whole, frac)) = s.split_once('.') {
            let neg = whole.trim_start().starts_with('-');
            let whole: i128 = if whole.is_empty() || whole == "-" {
                0
            } else {
                whole.parse().map_err(|_| err())?
            };
            if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let digits: i128 = frac.parse().map_err(|_| err())?;
            let scale = 10i128
                .checked_pow(u32::try_from(frac.len()).map_err(|_| err())?)
                .ok_or_else(err)?;
            let frac_part = Rat::new(digits, scale);
            let frac_part = if neg { -frac_part } else { frac_part };
            return Rat::from_int(whole).checked_add(frac_part).ok_or_else(err);
        }
        let n: i128 = s.parse().map_err(|_| err())?;
        Ok(Rat::from_int(n))
    }
}

/// Convenience constructor macro for [`Rat`] literals.
///
/// # Examples
///
/// ```
/// use kpa_measure::{rat, Rat};
/// assert_eq!(rat!(1 / 2), Rat::new(1, 2));
/// assert_eq!(rat!(3), Rat::from_int(3));
/// ```
#[macro_export]
macro_rules! rat {
    ($n:literal / $d:literal) => {
        $crate::Rat::new($n, $d)
    };
    ($n:literal) => {
        $crate::Rat::from_int($n)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
        assert_eq!(Rat::new(0, 7).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn checked_new_rejects_zero_denominator() {
        assert_eq!(Rat::checked_new(1, 0), None);
        assert_eq!(Rat::checked_new(3, 6), Some(Rat::new(1, 2)));
    }

    #[test]
    fn arithmetic() {
        let a = rat!(1 / 2);
        let b = rat!(1 / 3);
        assert_eq!(a + b, rat!(5 / 6));
        assert_eq!(a - b, rat!(1 / 6));
        assert_eq!(a * b, rat!(1 / 6));
        assert_eq!(a / b, rat!(3 / 2));
        assert_eq!(-a, rat!(-1 / 2));
    }

    #[test]
    fn assign_ops() {
        let mut x = rat!(1 / 2);
        x += rat!(1 / 4);
        assert_eq!(x, rat!(3 / 4));
        x -= rat!(1 / 4);
        assert_eq!(x, rat!(1 / 2));
        x *= rat!(2 / 3);
        assert_eq!(x, rat!(1 / 3));
        x /= rat!(1 / 3);
        assert_eq!(x, Rat::ONE);
    }

    #[test]
    fn ordering() {
        assert!(rat!(1 / 2) > rat!(1 / 3));
        assert!(rat!(-1 / 2) < rat!(1 / 3));
        assert!(rat!(2 / 4) == rat!(1 / 2));
        assert_eq!(rat!(1 / 2).max(rat!(2 / 3)), rat!(2 / 3));
        assert_eq!(rat!(1 / 2).min(rat!(2 / 3)), rat!(1 / 2));
    }

    /// Orders `a/b` and `c/d` (b, d > 0) by their continued fractions,
    /// with Euclid's division alone: a comparison that shares no
    /// arithmetic with [`Rat::cmp`].
    fn cmp_by_continued_fraction(a: i128, b: i128, c: i128, d: i128) -> Ordering {
        let (mut a, mut b, mut c, mut d) = (a, b, c, d);
        // At odd depth the pair compared is the reciprocal of the
        // fractional parts one level up, which reverses the order.
        let mut reversed = false;
        loop {
            let (qa, ra) = (a.div_euclid(b), a.rem_euclid(b));
            let (qc, rc) = (c.div_euclid(d), c.rem_euclid(d));
            let here = qa.cmp(&qc).then_with(|| match (ra == 0, rc == 0) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => Ordering::Equal,
            });
            if here != Ordering::Equal || ra == 0 {
                return if reversed { here.reverse() } else { here };
            }
            (a, b, c, d) = (b, ra, d, rc);
            reversed = !reversed;
        }
    }

    #[test]
    fn ordering_is_exact_at_the_i128_edge() {
        const M: i128 = i128::MAX;
        // (2¹²⁷−7)/(2¹²⁷−5) is the threshold a wire client can send.
        let mut edge = vec![
            Rat::new(M - 6, M - 4),
            Rat::new(M - 8, M - 6),
            Rat::new(M - 1, M),
            Rat::new(M - 2, M - 1),
            Rat::new(M, M - 1),
            Rat::new(1, M),
            Rat::new(1, M - 1),
            Rat::new(M, 1),
            Rat::new(M - 1, 1),
            Rat::new(-M, M - 1),
            Rat::new(-(M - 1), M),
            Rat::new(-(M - 6), M - 4),
            Rat::new(i128::MIN, 1),
            Rat::new(i128::MIN, M),
            Rat::new(M / 2, M),
            Rat::new(M / 2 + 1, M),
            Rat::ZERO,
            Rat::ONE,
            rat!(1 / 2),
            rat!(-1 / 2),
            rat!(1 / 3),
        ];
        // Plus near-edge values drawn at random.
        let mut rng = crate::Rng64::new(0x5eed_2127);
        for _ in 0..40 {
            let near = |rng: &mut crate::Rng64| M - (rng.below(1 << 20) as i128);
            let (n, d) = (near(&mut rng), near(&mut rng));
            edge.push(Rat::new(if rng.chance(1, 4) { -n } else { n }, d));
        }
        for x in &edge {
            for y in &edge {
                let want = cmp_by_continued_fraction(x.numer(), x.denom(), y.numer(), y.denom());
                assert_eq!(x.cmp(y), want, "{x:?} vs {y:?}");
                assert_eq!(x.cmp(y) == Ordering::Equal, x == y);
            }
        }
        assert!(Rat::new(M - 6, M - 4) > rat!(1 / 2));
        assert!(Rat::new(M - 6, M - 4) < Rat::ONE);
    }

    #[test]
    fn wide_products_are_exact() {
        let max = u128::MAX;
        assert_eq!(mul_u256(max, max), (max - 1, 1));
        assert_eq!(mul_u256(1 << 127, 2), (1, 0));
        assert_eq!(mul_u256(0, max), (0, 0));
        assert_eq!(mul_u256(max, 1), (0, max));
        assert_eq!(mul_u256(1 << 64, 1 << 64), (1, 0));
        // The middle limbs sum to 2¹²⁸ − 1, so adding the low limb's
        // carry wraps: (3·2⁶⁴ − 1)(2¹²⁸ − 1).
        assert_eq!(
            mul_u256((3 << 64) - 1, max),
            ((3 << 64) - 2, max - (3 << 64) + 2)
        );
    }

    #[test]
    fn pow_and_recip() {
        assert_eq!(rat!(1 / 2).pow(11), Rat::new(1, 2048));
        assert_eq!(rat!(2 / 3).pow(-2), rat!(9 / 4));
        assert_eq!(rat!(0).pow(0), Rat::ONE);
        assert_eq!(rat!(7 / 3).recip(), rat!(3 / 7));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_of_zero_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    fn predicates() {
        assert!(Rat::ZERO.is_zero());
        assert!(Rat::ONE.is_one());
        assert!(rat!(99 / 100).is_probability());
        assert!(Rat::ZERO.is_probability());
        assert!(Rat::ONE.is_probability());
        assert!(!rat!(101 / 100).is_probability());
        assert!(rat!(-1 / 2).is_negative());
        assert!(rat!(1 / 2).is_positive());
        assert_eq!(rat!(-3 / 4).abs(), rat!(3 / 4));
    }

    #[test]
    fn sums_and_products() {
        let xs = [rat!(1 / 2), rat!(1 / 3), rat!(1 / 6)];
        assert_eq!(xs.iter().sum::<Rat>(), Rat::ONE);
        assert_eq!(xs.iter().copied().sum::<Rat>(), Rat::ONE);
        assert_eq!(xs.iter().product::<Rat>(), Rat::new(1, 36));
    }

    #[test]
    fn parse() {
        assert_eq!("3/4".parse::<Rat>().unwrap(), rat!(3 / 4));
        assert_eq!(" -3 / 4 ".parse::<Rat>().unwrap(), rat!(-3 / 4));
        assert_eq!("5".parse::<Rat>().unwrap(), rat!(5));
        assert_eq!("0.99".parse::<Rat>().unwrap(), rat!(99 / 100));
        assert_eq!("-0.5".parse::<Rat>().unwrap(), rat!(-1 / 2));
        assert_eq!("1.25".parse::<Rat>().unwrap(), rat!(5 / 4));
        assert!("1/0".parse::<Rat>().is_err());
        assert!("abc".parse::<Rat>().is_err());
        assert!("1.x".parse::<Rat>().is_err());
    }

    #[test]
    fn decimals_past_the_i128_edge_are_parse_errors() {
        for s in [
            "170141183460469231731687303715884105727.5",
            "-170141183460469231731687303715884105728.5",
        ] {
            assert!(
                s.parse::<Rat>().is_err(),
                "{s} does not fit an i128 rational"
            );
        }
        assert_eq!(
            "85070591730234615865843651857942052863.5".parse::<Rat>(),
            Ok(Rat::new(i128::MAX, 2))
        );
    }

    #[test]
    fn display() {
        assert_eq!(rat!(1 / 2).to_string(), "1/2");
        assert_eq!(rat!(-5).to_string(), "-5");
        assert_eq!(format!("{:?}", rat!(2 / 3)), "2/3");
    }

    #[test]
    fn f64_approximation() {
        assert!((rat!(1 / 3).to_f64() - 0.333_333).abs() < 1e-5);
    }

    #[test]
    fn i128_min_numerator_is_canonical() {
        // Regression: `i128::MIN.unsigned_abs()` is 2¹²⁷; casting it
        // back `as i128` before the gcd used to wrap negative, breaking
        // canonical form. The magnitude is even, so any even denominator
        // reduces it into range.
        assert_eq!(Rat::new(i128::MIN, 2), Rat::new(i128::MIN / 2, 1));
        assert_eq!(Rat::new(i128::MIN, 4), Rat::new(i128::MIN / 4, 1));
        assert_eq!(Rat::new(i128::MIN, i128::MIN), Rat::ONE);
        assert_eq!(Rat::new(i128::MIN, -2), Rat::new(i128::MIN / -2, 1));
        // An odd denominator leaves |num| = 2¹²⁷, which still fits as
        // the negative value i128::MIN exactly.
        let r = Rat::new(i128::MIN, 3);
        assert_eq!(r.numer(), i128::MIN);
        assert_eq!(r.denom(), 3);
        assert!(r.is_negative());
    }

    #[test]
    #[should_panic(expected = "denominator overflow")]
    fn i128_min_denominator_overflow_panics() {
        // 1 / 2¹²⁷ has no positive i128 denominator; this used to wrap
        // silently and now panics with a descriptive message.
        let _ = Rat::new(1, i128::MIN);
    }

    #[test]
    fn add_fast_paths_match_general_path() {
        let cases = [
            (Rat::new(1, 6), Rat::new(1, 6)),  // equal denominators
            (Rat::new(1, 3), Rat::new(2, 3)),  // equal, sum reduces
            (Rat::new(5, 1), Rat::new(2, 7)),  // integer lhs
            (Rat::new(3, 8), Rat::new(-2, 1)), // integer rhs
            (Rat::new(-1, 6), Rat::new(1, 6)), // cancel to zero
            (Rat::new(1, 4), Rat::new(1, 6)),  // general lcm path
        ];
        for (a, b) in cases {
            // Reference: brute-force cross-multiplication.
            let want = Rat::new(
                a.numer() * b.denom() + b.numer() * a.denom(),
                a.denom() * b.denom(),
            );
            assert_eq!(a + b, want, "{a} + {b}");
            assert_eq!(b + a, want, "{b} + {a}");
        }
    }

    #[test]
    fn sum_with_denom_matches_folded_sum() {
        let nums = [3i128, 0, -1, 5, 12, 0, 7];
        let den = 24i128;
        let folded: Rat = nums.iter().map(|&n| Rat::new(n, den)).sum();
        assert_eq!(Rat::sum_with_denom(nums, den), folded);
        assert_eq!(Rat::sum_with_denom([], 5), Rat::ZERO);
        assert_eq!(Rat::sum_with_denom([2, 2], -8), Rat::new(-1, 2));
    }

    #[test]
    fn paper_values_fit() {
        // 1/2^11 from the coordinated-attack analysis and 1024/1025 from CA2.
        let loss_all = rat!(1 / 2).pow(11);
        assert_eq!(loss_all, Rat::new(1, 2048));
        let half = rat!(1 / 2);
        let conf = half / (half + half * rat!(1 / 2).pow(10));
        assert_eq!(conf, Rat::new(1024, 1025));
        assert!(conf > rat!(99 / 100));
    }
}
