//! Minimal complex arithmetic for AC (frequency-domain) network analysis.
//!
//! The AUDIT reproduction deliberately avoids pulling in a numerics crate;
//! impedance analysis only needs addition, multiplication, division,
//! reciprocal, and magnitude on `f64` pairs.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number `re + j·im` with `f64` components.
///
/// # Example
///
/// ```
/// use audit_pdn::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// let one = z * z.recip();
/// assert!((one.re - 1.0).abs() < 1e-12 && one.im.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + j0`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + j0`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + j1`.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates `jωL`-style purely imaginary numbers.
    pub const fn from_imag(im: f64) -> Self {
        Complex { re: 0.0, im }
    }

    /// Magnitude `|z| = sqrt(re² + im²)`.
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, avoiding the square root of [`Complex::norm`].
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns infinities when `z` is zero, mirroring `f64` division.
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Returns true if both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division via reciprocal multiplication is the standard complex
    // formula, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+j{}", self.re, self.im)
        } else {
            write!(f, "{}-j{}", self.re, -self.im)
        }
    }
}

/// Parallel combination of two impedances: `z1·z2 / (z1 + z2)`.
///
/// # Example
///
/// ```
/// use audit_pdn::complex::{parallel, Complex};
/// let r = parallel(Complex::from_real(2.0), Complex::from_real(2.0));
/// assert!((r.re - 1.0).abs() < 1e-12);
/// ```
pub fn parallel(z1: Complex, z2: Complex) -> Complex {
    (z1 * z2) / (z1 + z2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.5, 4.0);
        let c = a + b - b;
        assert!((c.re - a.re).abs() < 1e-15);
        assert!((c.im - a.im).abs() < 1e-15);
    }

    #[test]
    fn mul_matches_foil() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(4.0, -5.0);
        let c = a * b;
        assert_eq!(
            c,
            Complex::new(2.0 * 4.0 + 3.0 * 5.0, -2.0 * 5.0 + 3.0 * 4.0)
        );
    }

    #[test]
    fn j_squared_is_minus_one() {
        let c = Complex::J * Complex::J;
        assert_eq!(c, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.0, 7.0);
        let b = Complex::new(-3.0, 0.5);
        let c = (a * b) / b;
        assert!((c.re - a.re).abs() < 1e-12);
        assert!((c.im - a.im).abs() < 1e-12);
    }

    #[test]
    fn recip_of_zero_is_not_finite() {
        assert!(!Complex::ZERO.recip().is_finite());
    }

    #[test]
    fn norm_and_arg() {
        let z = Complex::new(0.0, 2.0);
        assert_eq!(z.norm(), 2.0);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn parallel_of_equal_resistors_halves() {
        let z = parallel(Complex::from_real(10.0), Complex::from_real(10.0));
        assert!((z.re - 5.0).abs() < 1e-12);
        assert!(z.im.abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-j2");
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+j2");
    }
}
