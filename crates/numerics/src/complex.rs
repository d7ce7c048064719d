//! Double-precision complex arithmetic.
//!
//! The Rust ecosystem's complex-number support lives in external crates;
//! this reproduction is self-contained, so [`Complex`] implements the small
//! slice of complex analysis the TFT/RVF pipeline needs: field arithmetic,
//! conjugation, polar decomposition, `exp`, `sqrt` and the principal `log`
//! (the RVF base functions integrate to `log(u - b)`, see the paper's
//! eq. (19)).

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use rvf_numerics::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The imaginary unit `j`.
pub(crate) const J: Complex = Complex { re: 0.0, im: 1.0 };

/// Convenience constructor: `c(re, im)`.
#[inline]
pub const fn c(re: f64, im: f64) -> Complex {
    Complex { re, im }
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = J;

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number `j·im`.
    #[inline]
    pub const fn from_im(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Creates a complex number from polar form `r·e^{jθ}`.
    ///
    /// ```
    /// use rvf_numerics::Complex;
    /// let z = Complex::from_polar(2.0, core::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-15 && (z.im - 2.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Magnitude `|z|` (hypot, overflow-safe).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Principal argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to stay accurate when components differ
    /// wildly in magnitude.
    #[inline]
    pub fn inv(self) -> Self {
        // Smith's algorithm for robust complex division 1/(c+jd).
        let (cr, ci) = (self.re, self.im);
        if cr.abs() >= ci.abs() {
            let r = ci / cr;
            let d = cr + ci * r;
            Self::new(1.0 / d, -r / d)
        } else {
            let r = cr / ci;
            let d = cr * r + ci;
            Self::new(r / d, -1.0 / d)
        }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Principal branch of the natural logarithm.
    ///
    /// `log z = ln|z| + j·arg z`, with `arg z ∈ [-π, π]` (the sign of a
    /// zero imaginary part picks the side of the cut, as `atan2` does).
    /// This is the closed-form antiderivative underlying the RVF static
    /// stages, and the serving kernel's per-pole log feature.
    ///
    /// The routine is in-tree and branch-free: IEEE `+ − × ÷`,
    /// comparisons/selects and exponent bit manipulation only, with no
    /// libm call, no fused multiply-add and no table, so its bits do not
    /// depend on the platform's libm. Whether a loop over `ln` calls
    /// vectorises is left to the inliner, and only ever for the baseline
    /// target; [`ln_shifted_into`] inlines the same kernel into one slice
    /// loop that vectorises, built for AVX2 as well, with every lane
    /// bit-equal to this method. Both halves use fdlibm's kernels:
    ///
    /// * `ln|z|`: with `m = max(|x|,|y|)`, both parts are scaled by the
    ///   exact power of two that brings `m` into `[2, 4)` (subnormals are
    ///   prescaled by `2⁵⁴` first), `s = x'² + y'²` is split as
    ///   `2ᵏ·(1+f)` with `1+f ∈ [√½, √2)`, and `log1p(f)` comes from
    ///   `e_log`'s `Lg1..Lg7` kernel; `ln|z| = c·ln2_hi + (½·log1p(f) +
    ///   c·ln2_lo)` with `c` half the total power of two.
    /// * `arg z`: with `n = min(|x|,|y|)`, `atan(n/m)` is `atan(t)` or
    ///   `π/4 + atan(t)` with `t = n/m` or `(n − m)/(m + n)` (above
    ///   `tan(π/8)`), from `s_atan`'s 11-term odd polynomial; the octant
    ///   fix-ups add multiples of π/4 as exact hi/lo pairs, and the sign
    ///   is copied from `y`'s sign bit.
    ///
    /// Measured against `hypot().ln()` and `atan2` over seeded sweeps
    /// spanning `1e-300..1e300`: `ln|z|` is within
    /// `2.3e-16·max(1, |ln|z||)` and `arg z` within 2 ulp. Conjugate
    /// symmetry is exact: `z.conj().ln()` is bit-equal to
    /// `z.ln().conj()`. Zeros, infinities and NaNs give exactly what
    /// `hypot().ln()` and `atan2` give (`ln 0 = −∞` with a signed-zero
    /// argument, `ln ∞ = ∞`, NaN in, NaN out).
    #[inline]
    pub fn ln(self) -> Self {
        let (re, im) = ln_parts(self.re, self.im);
        Self::new(re, im)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

/// The kernel of [`Complex::ln`] at `re + j·im`, as `(ln|z|, arg z)`.
///
/// Always inlined, so that [`ln_shifted_into`]'s loop sees the whole body
/// and can vectorise it; `Complex::ln` is its scalar instance.
#[inline(always)]
// The kernel constants are fdlibm's, digit for digit.
#[allow(clippy::excessive_precision)]
fn ln_parts(re: f64, im: f64) -> (f64, f64) {
    const LN2_HI: f64 = 6.93147180369123816490e-01;
    const LN2_LO: f64 = 1.90821492927058770002e-10;
    const LG: [f64; 7] = [
        6.666666666666735130e-01,
        3.999999999940941908e-01,
        2.857142874366239149e-01,
        2.222219843214978396e-01,
        1.818357216161805012e-01,
        1.531383769920937332e-01,
        1.479819860511658591e-01,
    ];
    const AT: [f64; 11] = [
        3.33333333333329318027e-01,
        -1.99999999998764832476e-01,
        1.42857142725034663711e-01,
        -1.11111104054623557880e-01,
        9.09088713343650656196e-02,
        -7.69187620504482999495e-02,
        6.66107313738753120669e-02,
        -5.83357013379057348645e-02,
        4.97687799461593236017e-02,
        -3.65315727442169155270e-02,
        1.62858201153657823623e-02,
    ];
    // π/4 split so that 0..=4 multiples of the high part are exact.
    const PI_4_HI: f64 = core::f64::consts::FRAC_PI_4;
    const PI_4_LO: f64 = 3.06161699786838301793e-17;
    const TAN_PI_8: f64 = 4.14213562373095034e-01;
    const TWO54: f64 = 1.8014398509481984e16;
    const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e_0000_0000;

    let (ax, ay) = (re.abs(), im.abs());
    let swap = ay > ax;
    let (m, n) = if swap { (ay, ax) } else { (ax, ay) };

    // ln|z| = ½·ln(x² + y²) on parts rescaled by the power of two
    // 2^(1−e) that puts `m` in [2, 4): exact, and its biased exponent
    // 2047 − (e + 1023) is a normal number for every normal `m`.
    let tiny = m < f64::MIN_POSITIVE;
    let pre = if tiny { TWO54 } else { 1.0 };
    let (ms, ns) = (m * pre, n * pre);
    let biased = ms.to_bits() >> 52;
    let scale = f64::from_bits((2047 - biased) << 52);
    let (mu, nu) = (ms * scale, ns * scale);
    let sq = mu * mu + nu * nu;
    let ix = sq.to_bits().wrapping_add(0x3ff0_0000_0000_0000 - SQRT_HALF_HI);
    let f = f64::from_bits((ix & MANTISSA) + SQRT_HALF_HI) - 1.0;
    let hfsq = 0.5 * f * f;
    let r = f / (2.0 + f);
    // log1p(f) = f − (hfsq − r·(hfsq + z·L(z))), z = r², L of degree 6
    // by Estrin's scheme.
    let z = r * r;
    let (z2, z4) = (z * z, z * z * (z * z));
    let l03 = (LG[0] + LG[1] * z) + (LG[2] + LG[3] * z) * z2;
    let l46 = (LG[4] + LG[5] * z) + LG[6] * z2;
    let log1p = f - (hfsq - r * (hfsq + z * (l03 + l46 * z4)));
    // x² + y² = 2^(2e − 2)·sq and sq = 2^k·(1+f): c = k/2 + e − 1.
    let k = (ix >> 52) as i32 - 1023;
    let e = biased as i32 - 1023 - if tiny { 54 } else { 0 };
    let c = 0.5 * f64::from(k) + f64::from(e - 1);
    let ln_abs = c * LN2_HI + (0.5 * log1p + c * LN2_LO);

    // arg z: atan(n/m) ∈ [0, π/4] as q₀·π/4 + atan(t), where
    // t = tan(atan(n/m) − q₀·π/4) = (n − q₀·m)/(m + q₀·n) with
    // q₀ = [n ≥ tan(π/8)·m], so |t| ≤ tan(π/8). The corners 0/0 and
    // ∞/∞ make t NaN; they read t = 0 (q₀ is 0 and 1 there, so θ is
    // atan2's 0 and π/4).
    let q0 = if n >= TAN_PI_8 * m && n > 0.0 { 1.0 } else { 0.0 };
    let t = (n - q0 * m) / (m + q0 * n);
    let t = if t.is_nan() { 0.0 } else { t };
    // atan(t) = t − t·z·P(z), z = t², P of degree 10 by Estrin's scheme.
    let z = t * t;
    let (z2, z4) = (z * z, z * z * (z * z));
    let p03 = (AT[0] + AT[1] * z) + (AT[2] + AT[3] * z) * z2;
    let p47 = (AT[4] + AT[5] * z) + (AT[6] + AT[7] * z) * z2;
    let p8 = (AT[8] + AT[9] * z) + AT[10] * z2;
    let tzp = t * (z * ((p03 + p47 * z4) + p8 * (z4 * z4)));
    // θ = q·π/4 ± atan(t) with q ∈ 0..=4: swapping the parts reflects
    // about π/4 (q → 2 − q), a negative real part about π/2
    // (q → 4 − q); each reflection flips the sign of atan(t). Every
    // such q·PI_4_HI is exact.
    let negative = re.is_sign_negative();
    let q = if swap { 2.0 - q0 } else { q0 };
    let q = if negative { 4.0 - q } else { q };
    let (t, tzp) = if swap != negative { (-t, -tzp) } else { (t, tzp) };
    let theta = q * PI_4_HI - ((tzp - q * PI_4_LO) - t);
    let arg = theta.copysign(im);

    // hypot's classification: ∞ wins over NaN; ln 0 = −∞.
    let nan = re.is_nan() || im.is_nan();
    let inf = ax == f64::INFINITY || ay == f64::INFINITY;
    let ln_abs = if ms == 0.0 { f64::NEG_INFINITY } else { ln_abs };
    let ln_abs = if nan { f64::NAN } else { ln_abs };
    let ln_abs = if inf { f64::INFINITY } else { ln_abs };
    (ln_abs, if nan { f64::NAN } else { arg })
}

/// Writes `ln(u − poles[p])` into `(re[p], im[p])` for every pole: the
/// serving kernel's per-sample log features, one per distinct pole.
///
/// Every element is bit-equal to `(Complex::from_re(u) - poles[p]).ln()`.
/// The loop inlines [`Complex::ln`]'s kernel, so it vectorises whatever
/// the inliner makes of `ln` calls elsewhere. Its one body is compiled
/// twice: for the baseline target, and in a function with AVX2 enabled
/// (four poles per vector).
/// On `x86_64` each call picks the AVX2 build when the CPU has it (a
/// cached feature check, one atomic load); other targets run the
/// baseline build. Both builds run the same IEEE `+ − × ÷`, selects and
/// bit operations in the same order, and Rust never contracts `a·b + c`
/// into a fused multiply-add (AVX2 is enabled without FMA), so the bits
/// cannot depend on which build runs or on the vector width.
///
/// # Panics
///
/// If `re` or `im` is not as long as `poles`.
pub fn ln_shifted_into(u: f64, poles: &[Complex], re: &mut [f64], im: &mut [f64]) {
    assert!(
        re.len() == poles.len() && im.len() == poles.len(),
        "ln_shifted_into: {} poles into {}/{} outputs",
        poles.len(),
        re.len(),
        im.len()
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the only feature the build enables.
        return unsafe { ln_shifted_avx2(u, poles, re, im) };
    }
    ln_shifted(u, poles, re, im);
}

/// [`ln_shifted_into`]'s one loop body. Inlined into a caller built for
/// the baseline target it is the baseline build; inlined into
/// `ln_shifted_avx2` it is the AVX2 build.
#[inline(always)]
fn ln_shifted(u: f64, poles: &[Complex], re: &mut [f64], im: &mut [f64]) {
    for ((r, i), pole) in re.iter_mut().zip(im.iter_mut()).zip(poles) {
        // `Complex::from_re(u) - pole`, part by part: 0.0 − im, not −im,
        // so a zero imaginary part stays +0.
        (*r, *i) = ln_parts(u - pole.re, 0.0 - pole.im);
    }
}

/// The AVX2 build of [`ln_shifted_into`].
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ln_shifted_avx2(u: f64, poles: &[Complex], re: &mut [f64], im: &mut [f64]) {
    ln_shifted(u, poles, re, im);
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_re(re)
    }
}

impl From<(f64, f64)> for Complex {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Self::new(re, im)
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}j)", self.re, self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}-{}j", self.re, -self.im)
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $f:expr) => {
        impl $trait for Complex {
            type Output = Complex;
            #[inline]
            fn $method(self, rhs: Complex) -> Complex {
                let f: fn(Complex, Complex) -> Complex = $f;
                f(self, rhs)
            }
        }
        impl $trait<f64> for Complex {
            type Output = Complex;
            #[inline]
            fn $method(self, rhs: f64) -> Complex {
                let f: fn(Complex, Complex) -> Complex = $f;
                f(self, Complex::from_re(rhs))
            }
        }
        impl $trait<Complex> for f64 {
            type Output = Complex;
            #[inline]
            fn $method(self, rhs: Complex) -> Complex {
                let f: fn(Complex, Complex) -> Complex = $f;
                f(Complex::from_re(self), rhs)
            }
        }
        impl $assign_trait for Complex {
            // `$f` is the one operator body all four impls share.
            #[allow(clippy::redundant_closure_call)]
            #[inline]
            fn $assign_method(&mut self, rhs: Complex) {
                let f: fn(Complex, Complex) -> Complex = $f;
                *self = f(*self, rhs);
            }
        }
        impl $assign_trait<f64> for Complex {
            // `$f` is the one operator body all four impls share.
            #[allow(clippy::redundant_closure_call)]
            #[inline]
            fn $assign_method(&mut self, rhs: f64) {
                let f: fn(Complex, Complex) -> Complex = $f;
                *self = f(*self, Complex::from_re(rhs));
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, |a: Complex, b: Complex| {
    Complex::new(a.re + b.re, a.im + b.im)
});
impl_binop!(Sub, sub, SubAssign, sub_assign, |a: Complex, b: Complex| {
    Complex::new(a.re - b.re, a.im - b.im)
});
impl_binop!(Mul, mul, MulAssign, mul_assign, |a: Complex, b: Complex| {
    Complex::new(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
});
impl_binop!(Div, div, DivAssign, div_assign, |a: Complex, b: Complex| { a * b.inv() });

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex> for Complex {
    fn sum<I: Iterator<Item = &'a Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + *b)
    }
}

impl Product for Complex {
    fn product<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::PI;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_basics() {
        let a = c(1.0, 2.0);
        let b = c(3.0, -1.0);
        assert_eq!(a + b, c(4.0, 1.0));
        assert_eq!(a - b, c(-2.0, 3.0));
        assert_eq!(a * b, c(5.0, 5.0));
        assert!(close(a / b, c(0.1, 0.7), 1e-15));
    }

    #[test]
    fn mixed_real_ops() {
        let a = c(1.0, 2.0);
        assert_eq!(a + 1.0, c(2.0, 2.0));
        assert_eq!(2.0 * a, c(2.0, 4.0));
        assert_eq!(a / 2.0, c(0.5, 1.0));
        assert_eq!(1.0 - a, c(0.0, -2.0));
    }

    #[test]
    fn inv_is_reciprocal() {
        let z = c(3.0, 4.0);
        assert!(close(z * z.inv(), Complex::ONE, 1e-15));
        // Very skewed magnitudes (Smith's algorithm territory).
        let w = c(1e-300, 1e300);
        let r = w * w.inv();
        assert!(close(r, Complex::ONE, 1e-12));
    }

    #[test]
    fn exp_and_ln_are_inverse() {
        let z = c(0.3, -1.2);
        assert!(close(z.exp().ln(), z, 1e-14));
        // Euler identity.
        assert!(close(c(0.0, core::f64::consts::PI).exp(), c(-1.0, 0.0), 1e-15));
    }

    #[test]
    fn ln_branch_is_principal() {
        let z = c(-1.0, -1e-30);
        assert!(z.ln().im < 0.0, "just below the cut → arg near -π");
        let z = c(-1.0, 1e-30);
        assert!(z.ln().im > 0.0, "just above the cut → arg near +π");
    }

    /// SplitMix64: a seeded stream for the sweeps below.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`.
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }

        /// `10^u` with `u` uniform in `[lo, hi)`.
        fn decades(&mut self, lo: f64, hi: f64) -> f64 {
            10f64.powf(self.uniform(lo, hi))
        }

        fn sign(&mut self) -> f64 {
            if self.next() & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        }

        /// `v` moved by up to `ulps` units in the last place either way.
        fn nudge(&mut self, v: f64, ulps: u64) -> f64 {
            f64::from_bits(v.to_bits() + self.next() % (2 * ulps + 1) - ulps)
        }
    }

    /// The oracle: `ln|z|` and `arg z` from the platform libm.
    fn std_ln(x: f64, y: f64) -> (f64, f64) {
        (x.hypot(y).ln(), y.atan2(x))
    }

    /// Checks `ln` at `x + jy` against the oracle's accuracy bounds:
    /// `ln|z|` within `2.3e-16·max(1, |ln|z||)`, `arg z` within 2 ulp.
    fn assert_close_to_std(x: f64, y: f64) {
        let (re, im) = std_ln(x, y);
        let got = c(x, y).ln();
        assert!(
            (got.re - re).abs() <= 2.3e-16 * re.abs().max(1.0),
            "ln|z| at ({x:e}, {y:e}): {} vs std {re}",
            got.re
        );
        assert_arg_within_2_ulp(x, y, got.im, im);
    }

    fn assert_arg_within_2_ulp(x: f64, y: f64, got: f64, want: f64) {
        let ulps = (got.to_bits() as i64).wrapping_sub(want.to_bits() as i64).unsigned_abs();
        assert!(
            want.is_sign_negative() == got.is_sign_negative() && ulps <= 2,
            "arg z at ({x:e}, {y:e}): {got} vs std {want} ({ulps} ulp)"
        );
    }

    #[test]
    fn ln_matches_std_over_a_seeded_sweep() {
        const PER_CLASS: usize = 200_000;
        let mut rng = Stream(0x6c6e_5f73_7765_6570);
        for _ in 0..PER_CLASS {
            // Every quadrant, magnitudes 1e-300..1e300.
            let (r, phi) = (rng.decades(-300.0, 300.0), rng.uniform(-PI, PI));
            assert_close_to_std(r * phi.cos(), r * phi.sin());
            // Around |z| = 1, where the ln|z| bound is absolute.
            let (r, phi) = (rng.decades(-2.0, 2.0), rng.uniform(-PI, PI));
            assert_close_to_std(r * phi.cos(), r * phi.sin());
            // |y|/|x| from 1e-12 to 1e12, every sign combination.
            let (m, ratio) = (rng.decades(-288.0, 288.0), rng.decades(-12.0, 12.0));
            assert_close_to_std(rng.sign() * m, rng.sign() * m * ratio);
            // Both axes, with signed zeros.
            let (v, zero) = (rng.sign() * rng.decades(-300.0, 300.0), rng.sign() * 0.0);
            assert_close_to_std(v, zero);
            assert_close_to_std(zero, v);
            // Neighbours of the reduction threshold a = tan(π/8) and of
            // |x| = |y|, with either part the larger.
            let m = rng.decades(-300.0, 300.0);
            let (near_tan, near_one) =
                (rng.nudge(m * core::f64::consts::SQRT_2 - m, 8), rng.nudge(m, 8));
            let (sx, sy) = (rng.sign(), rng.sign());
            assert_close_to_std(sx * m, sy * near_tan);
            assert_close_to_std(sx * near_tan, sy * m);
            assert_close_to_std(sx * m, sy * near_one);
        }
    }

    #[test]
    fn ln_special_values_match_std_exactly() {
        let tiny = 4.9e-324; // the smallest subnormal
        let specials = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 3.0,
            1.0,
            -1.0,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for &x in &specials {
            for &y in &specials {
                let (re, im) = std_ln(x, y);
                let got = c(x, y).ln();
                let finite_pair = x.is_finite() && y.is_finite() && x != 0.0 && y != 0.0;
                if !finite_pair {
                    assert!(
                        same(got.re, re) && same(got.im, im),
                        "ln({x:e}, {y:e}) = {got:?}, std ({re:?}, {im:?})"
                    );
                } else if x.hypot(y) >= f64::MIN_POSITIVE && re.is_finite() {
                    assert_close_to_std(x, y);
                } else if re.is_finite() {
                    // hypot rounds a subnormal |z| to the subnormal grid;
                    // take the oracle on parts scaled up by 2⁶⁰⁰ instead.
                    let up = 2f64.powi(600);
                    let want = (x * up).hypot(y * up).ln() - 600.0 * core::f64::consts::LN_2;
                    assert!((got.re - want).abs() <= 2.3e-16 * want.abs(), "{got:?} vs {want}");
                    assert_arg_within_2_ulp(x, y, got.im, im);
                } else {
                    // hypot overflows at |x| = |y| = MAX; the scaled sum
                    // does not: ln(√2·MAX).
                    let want = f64::MAX.ln() + core::f64::consts::LN_2 / 2.0;
                    assert!((got.re - want).abs() <= 2.3e-16 * want, "{got:?}");
                }
            }
        }
        // The branch cut: a signed zero picks ±π exactly.
        assert_eq!(c(-1.0, 0.0).ln().im, PI);
        assert_eq!(c(-1.0, -0.0).ln().im, -PI);
        assert_eq!(c(-0.0, 0.0).ln(), c(f64::NEG_INFINITY, PI));
    }

    /// One build of `ln_shifted_into`'s loop.
    type ShiftedLn = fn(f64, &[Complex], &mut [f64], &mut [f64]);

    /// Every build of `ln_shifted_into`'s loop this CPU can run, by name:
    /// the baseline build, the AVX2 build when the CPU has AVX2 (the
    /// skip is printed), and the dispatching entry point.
    fn shifted_builds() -> Vec<(&'static str, ShiftedLn)> {
        let mut builds: Vec<(&'static str, ShiftedLn)> =
            vec![("baseline", ln_shifted), ("dispatch", ln_shifted_into)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2.
            builds.push(("avx2", |u, p, r, i| unsafe { ln_shifted_avx2(u, p, r, i) }));
        } else {
            println!("ln_shifted_into: the CPU has no AVX2, AVX2 build skipped");
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("ln_shifted_into: not x86_64, AVX2 build skipped");
        builds
    }

    /// Checks that every build writes `(Complex::from_re(u) - pole).ln()`
    /// for every pole, bit for bit.
    fn assert_shifted_bits(builds: &[(&str, ShiftedLn)], u: f64, poles: &[Complex]) {
        // A NaN payload the kernel never produces: an unwritten output
        // cannot pass.
        let unwritten = f64::from_bits(0x7ff8_dead_beef_0001);
        let (mut re, mut im) = (vec![0.0; poles.len()], vec![0.0; poles.len()]);
        for &(name, build) in builds {
            re.fill(unwritten);
            im.fill(unwritten);
            build(u, poles, &mut re, &mut im);
            for (p, &pole) in poles.iter().enumerate() {
                let want = (Complex::from_re(u) - pole).ln();
                assert!(
                    re[p].to_bits() == want.re.to_bits() && im[p].to_bits() == want.im.to_bits(),
                    "{name} build, u = {u:e}, pole {p} of {} = {pole:?}: ({:?}, {:?}) vs ln {want:?}",
                    poles.len(),
                    re[p],
                    im[p]
                );
            }
        }
    }

    /// A seeded pole: real, a conjugate pair, near `u` (so `u − pole` is
    /// small) or complex with unrelated part magnitudes, over 1e-300..1e300.
    fn push_pole(rng: &mut Stream, u: f64, poles: &mut Vec<Complex>) {
        let part = |rng: &mut Stream| rng.sign() * rng.decades(-300.0, 300.0);
        match rng.next() % 4 {
            0 => poles.push(c(part(rng), 0.0)),
            1 => {
                let (a, b) = (part(rng), part(rng));
                poles.extend([c(a, b), c(a, -b)]);
            }
            2 => {
                let im = rng.sign() * rng.decades(-300.0, 0.0);
                poles.push(c(rng.nudge(u, 4), im));
            }
            _ => poles.push(c(part(rng), part(rng))),
        }
    }

    #[test]
    fn ln_shifted_into_matches_ln_bits_over_a_seeded_sweep() {
        let builds = shifted_builds();
        let mut rng = Stream(0x6c6e_5f73_6869_6674);
        let mut poles = Vec::new();
        for _ in 0..20_000 {
            let u = rng.sign() * rng.decades(-300.0, 300.0);
            poles.clear();
            while poles.len() < 12 {
                push_pole(&mut rng, u, &mut poles);
            }
            assert_shifted_bits(&builds, u, &poles);
        }
    }

    #[test]
    fn ln_shifted_into_matches_ln_bits_on_special_values() {
        let builds = shifted_builds();
        let specials = [
            0.0,
            -0.0,
            4.9e-324,
            -4.9e-324,
            f64::MIN_POSITIVE / 3.0,
            1.0,
            -1.0,
            PI,
            -PI,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Every pole from the table, at every `u` from it: this covers
        // the ±0 combinations, the ±π cut (u = −1 against the zero-part
        // poles), subnormals, MAX, ±∞ and NaN, one lane each.
        let poles: Vec<Complex> =
            specials.iter().flat_map(|&a| specials.iter().map(move |&b| c(a, b))).collect();
        for &u in &specials {
            assert_shifted_bits(&builds, u, &poles);
        }
    }

    #[test]
    fn ln_shifted_into_matches_ln_bits_at_every_remainder() {
        let builds = shifted_builds();
        let mut rng = Stream(0x7265_6d61_696e_6472);
        for len in 0..=17 {
            for _ in 0..50 {
                let u = rng.sign() * rng.decades(-3.0, 3.0);
                let mut poles = Vec::new();
                while poles.len() < len + 3 {
                    push_pole(&mut rng, u, &mut poles);
                }
                // Every start offset in a vector's reach, so each length
                // runs at every alignment too.
                for start in 0..4.min(poles.len() - len + 1) {
                    assert_shifted_bits(&builds, u, &poles[start..start + len]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "3 poles into 3/2 outputs")]
    fn ln_shifted_into_rejects_short_outputs() {
        let poles = [Complex::ONE; 3];
        ln_shifted_into(0.5, &poles, &mut [0.0; 3], &mut [0.0; 2]);
    }

    #[test]
    fn polar_round_trip() {
        let z = c(-2.0, 5.0);
        let w = Complex::from_polar(z.abs(), z.arg());
        assert!(close(z, w, 1e-12));
    }

    #[test]
    fn sum_and_product_fold() {
        let v = [c(1.0, 1.0), c(2.0, -1.0), c(-1.0, 0.5)];
        let s: Complex = v.iter().sum();
        assert_eq!(s, c(2.0, 0.5));
        let p: Complex = v.iter().copied().product();
        assert!(close(p, c(1.0, 1.0) * c(2.0, -1.0) * c(-1.0, 0.5), 1e-15));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(c(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(c(1.0, -2.0).to_string(), "1-2j");
    }
}
