//! Model lowering: [`SimBuilder`] → [`CompiledSim`] flat serving
//! tables.
//!
//! [`CompiledSim`] lowers a model **once** into structure-of-arrays
//! form:
//!
//! * the static nonlinearities become rows of one coefficient matrix
//!   over a *shared feature basis* evaluated once per sample — the
//!   power basis `[1, u, u², …]` for polynomial stages (the CAFFEINE
//!   primitives) plus, for the RVF log-form primitives, the pair
//!   `(Re ln(u − x̃), Im ln(u − x̃))` per **distinct** pole. Pole
//!   sequences are deduplicated by bit pattern, so the two responses of
//!   a pair block price their transcendentals once instead of twice;
//! * every LTI block becomes one uniform 2-wide state slot with
//!   contiguous first-order-hold coefficients (a real pole is a pair
//!   with zero imaginary parts — at a finite drive the extra multiplies
//!   are by ±0.0 and exact; at an infinite drive `∞·0` makes the
//!   kernel output NaN where the reference gives ±∞), so the inner
//!   loop has **no enum dispatch per block per sample**.
//!
//! Compilation is cheap (no transcendentals — the first-order-hold
//! coefficients are computed per `dt` at simulation time and cached in
//! each [`SimState`](super::SimState)), but callers serving many
//! requests should still compile once and reuse the instance.

use std::collections::HashMap;

use rvf_numerics::{Complex, FohPair, FohScalar};

use super::ServingError;
use crate::integrated::StateFn;

/// A static-stage drive registered with [`SimBuilder`].
#[derive(Debug, Clone)]
enum DriveSpec {
    /// RVF log-form primitive: `[constant, linear]` head + log terms.
    Rational { c: [f64; 2], terms: Vec<(Complex, Complex)> },
    /// Polynomial primitive by ascending coefficients (CAFFEINE path).
    Poly { coeffs: Vec<f64> },
}

/// An LTI block registered with [`SimBuilder`].
#[derive(Debug, Clone, Copy)]
enum BlockSpec {
    Real { a: f64, drive: usize },
    Pair { sigma: f64, omega: f64, d1: usize, d2: usize },
}

/// Builds a [`CompiledSim`] from drives (static-stage primitives) and
/// LTI blocks.
///
/// This is the lowering entry point shared by the RVF model
/// ([`HammersteinModel::compile`](crate::HammersteinModel::compile))
/// and the CAFFEINE baseline (`rvf-caffeine`): register every stage
/// primitive as a *drive row*, point the blocks at their rows, mark the
/// static path, and [`try_build`](SimBuilder::try_build).
#[derive(Debug, Clone, Default)]
pub struct SimBuilder {
    drives: Vec<DriveSpec>,
    blocks: Vec<BlockSpec>,
    static_drive: Option<usize>,
}

impl SimBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the analytic primitive of an RVF state fit as a drive
    /// row and returns its row id. The row evaluates exactly like
    /// [`StateFn::integral`].
    pub fn drive_rational(&mut self, primitive: &StateFn) -> usize {
        self.drives.push(DriveSpec::Rational {
            c: [primitive.constant, primitive.linear],
            terms: primitive.terms.iter().map(|t| (t.pole, t.rho)).collect(),
        });
        self.drives.len() - 1
    }

    /// Registers a polynomial drive row `Σ cⱼ·uʲ` (ascending
    /// coefficients) and returns its row id. Rows of this family are
    /// packed into one matrix over the shared power basis
    /// `[1, u, u², …]`, so all of them together cost one matvec per
    /// sample.
    pub fn drive_poly(&mut self, coeffs: &[f64]) -> usize {
        self.drives.push(DriveSpec::Poly { coeffs: coeffs.to_vec() });
        self.drives.len() - 1
    }

    /// Marks `row` as the static path: its value is added directly to
    /// every output sample.
    pub fn set_static_drive(&mut self, row: usize) {
        self.static_drive = Some(row);
    }

    /// Adds a first-order block `ẏ = a·y + f(u)` fed by drive `drive`.
    pub fn block_real(&mut self, a: f64, drive: usize) {
        self.blocks.push(BlockSpec::Real { a, drive });
    }

    /// Adds a second-order block for the pole pair `σ ± jω` fed by the
    /// input-shifted component drives `(d1, d2)`.
    pub fn block_pair(&mut self, sigma: f64, omega: f64, d1: usize, d2: usize) {
        self.blocks.push(BlockSpec::Pair { sigma, omega, d1, d2 });
    }

    /// Lowers the registered drives and blocks into the packed runtime
    /// tables, rejecting malformed wiring with a typed error instead of
    /// a panic.
    ///
    /// # Errors
    ///
    /// [`ServingError::MissingStaticDrive`] if no static drive was set,
    /// [`ServingError::BadDrive`] if the static path or a block
    /// references an unregistered drive row,
    /// [`ServingError::BadLogPole`] if a rational row has a log-term
    /// pole that is not finite or lies on the real axis.
    pub fn try_build(self) -> Result<CompiledSim, ServingError> {
        let static_row = self.check()?;
        Ok(self.lower(static_row))
    }

    /// The checks behind [`try_build`](SimBuilder::try_build): returns
    /// the static row once it and every block's drive rows name
    /// registered rows, and every log-term pole is finite and off the
    /// real axis (where the kernel and the reference disagree).
    fn check(&self) -> Result<usize, ServingError> {
        let static_row = self.static_drive.ok_or(ServingError::MissingStaticDrive)?;
        for (drive, spec) in self.drives.iter().enumerate() {
            if let DriveSpec::Rational { terms, .. } = spec {
                for &(pole, _) in terms {
                    if pole.im == 0.0 || !pole.re.is_finite() || !pole.im.is_finite() {
                        return Err(ServingError::BadLogPole { drive, pole });
                    }
                }
            }
        }
        let n_user = self.drives.len();
        let check = |d: usize| {
            if d < n_user {
                Ok(())
            } else {
                Err(ServingError::BadDrive { drive: d, n_drives: n_user })
            }
        };
        check(static_row)?;
        for b in &self.blocks {
            match *b {
                BlockSpec::Real { drive, .. } => check(drive)?,
                BlockSpec::Pair { d1, d2, .. } => {
                    check(d1)?;
                    check(d2)?;
                }
            }
        }
        Ok(static_row)
    }

    /// Lowers the builder with `static_row` as the static path, without
    /// the checks: for in-crate lowerings that register every row before
    /// referencing it
    /// ([`HammersteinModel::compile`](crate::HammersteinModel::compile)).
    pub(crate) fn lower(mut self, static_row: usize) -> CompiledSim {
        // Real blocks need a second (identically zero) drive component
        // so every block is a uniform 2-wide slot; one synthetic all-zero
        // row serves them all.
        let needs_zero = self.blocks.iter().any(|b| matches!(b, BlockSpec::Real { .. }));
        let zero_row = if needs_zero {
            self.drives.push(DriveSpec::Rational { c: [0.0; 2], terms: Vec::new() });
            self.drives.len() - 1
        } else {
            usize::MAX
        };

        let n_drives = self.drives.len();
        let mut head = vec![[0.0f64; 2]; n_drives];
        let mut row_off = Vec::with_capacity(n_drives + 1);
        let mut term_w: Vec<[f64; 2]> = Vec::new();
        let mut term_pole: Vec<usize> = Vec::new();
        let mut poles: Vec<Complex> = Vec::new();
        // Pole-sequence dedup: rows whose pole sequences agree bit for
        // bit (every row of a fitted model — its one state fit gives all
        // of them one pole set) share one run of feature slots, so the ln
        // per pole is paid once per sample however many rows consume it.
        let mut runs: HashMap<Vec<(u64, u64)>, usize> = HashMap::new();
        let mut prow: Vec<usize> = Vec::new();
        let mut pcoeffs: Vec<Vec<f64>> = Vec::new();
        row_off.push(0);
        for (d, spec) in self.drives.iter().enumerate() {
            match spec {
                DriveSpec::Rational { c, terms } => {
                    head[d] = *c;
                    if !terms.is_empty() {
                        let sig: Vec<(u64, u64)> =
                            terms.iter().map(|(p, _)| (p.re.to_bits(), p.im.to_bits())).collect();
                        let start = *runs.entry(sig).or_insert_with(|| {
                            let s = poles.len();
                            poles.extend(terms.iter().map(|(p, _)| *p));
                            s
                        });
                        for (i, (_, rho)) in terms.iter().enumerate() {
                            term_w.push([rho.re, rho.im]);
                            term_pole.push(start + i);
                        }
                    }
                }
                DriveSpec::Poly { coeffs } => {
                    prow.push(d);
                    pcoeffs.push(coeffs.clone());
                }
            }
            row_off.push(term_w.len());
        }
        let pdeg = pcoeffs.iter().map(|c| c.len().saturating_sub(1)).max().unwrap_or(0);
        let mut pmat = vec![0.0f64; prow.len() * (pdeg + 1)];
        for (r, coeffs) in pcoeffs.iter().enumerate() {
            pmat[r * (pdeg + 1)..r * (pdeg + 1) + coeffs.len()].copy_from_slice(coeffs);
        }

        let n_blocks = self.blocks.len();
        let mut pair = Vec::with_capacity(n_blocks);
        let mut sigma = Vec::with_capacity(n_blocks);
        let mut omega = Vec::with_capacity(n_blocks);
        let mut d1 = Vec::with_capacity(n_blocks);
        let mut d2 = Vec::with_capacity(n_blocks);
        for b in &self.blocks {
            match *b {
                BlockSpec::Real { a, drive } => {
                    pair.push(false);
                    sigma.push(a);
                    omega.push(0.0);
                    d1.push(drive);
                    d2.push(zero_row);
                }
                BlockSpec::Pair { sigma: s, omega: w, d1: a, d2: bb } => {
                    pair.push(true);
                    sigma.push(s);
                    omega.push(w);
                    d1.push(a);
                    d2.push(bb);
                }
            }
        }

        CompiledSim {
            static_row,
            n_drives,
            head,
            row_off,
            term_w,
            term_pole,
            poles,
            prow,
            pmat,
            pdeg,
            pair,
            sigma,
            omega,
            d1,
            d2,
        }
    }
}

/// Per-block first-order-hold coefficients in the uniform 2-wide
/// representation (real blocks carry exact zeros in the imaginary
/// parts), laid out contiguously for the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockCoef {
    pub(crate) er: f64,
    pub(crate) ei: f64,
    pub(crate) g1r: f64,
    pub(crate) g1i: f64,
    pub(crate) g2r: f64,
    pub(crate) g2i: f64,
}

/// A Hammerstein model lowered into flat serving tables.
///
/// Build one with [`HammersteinModel::compile`](crate::HammersteinModel::compile)
/// (or [`SimBuilder`] directly), then evaluate stimuli with
/// [`simulate`](CompiledSim::simulate), stream chunks through a
/// [`SimState`](super::SimState) with
/// [`simulate_into`](CompiledSim::simulate_into), or advance many
/// states at once with [`advance_chunks`](CompiledSim::advance_chunks).
#[derive(Debug, Clone)]
pub struct CompiledSim {
    pub(crate) static_row: usize,
    pub(crate) n_drives: usize,
    /// `[constant, linear]` heads, one row per drive.
    pub(crate) head: Vec<[f64; 2]>,
    /// CSR offsets into `term_w`/`term_pole`, length `n_drives + 1`.
    pub(crate) row_off: Vec<usize>,
    /// `(Re ρ, Im ρ)` per log term.
    pub(crate) term_w: Vec<[f64; 2]>,
    /// Distinct-pole feature index per log term.
    pub(crate) term_pole: Vec<usize>,
    /// Deduplicated pole table (the shared log-feature basis).
    pub(crate) poles: Vec<Complex>,
    /// Drive rows evaluated by the power-basis matvec.
    pub(crate) prow: Vec<usize>,
    /// Power-basis coefficient matrix, `prow.len() × (pdeg + 1)`.
    pub(crate) pmat: Vec<f64>,
    pub(crate) pdeg: usize,
    /// Block kind (pair vs real) — used only when preparing the FOH
    /// coefficients for a `dt`, never in the per-sample loop.
    pub(crate) pair: Vec<bool>,
    pub(crate) sigma: Vec<f64>,
    pub(crate) omega: Vec<f64>,
    /// Drive row feeding each block's first/second state component.
    pub(crate) d1: Vec<usize>,
    pub(crate) d2: Vec<usize>,
}

impl CompiledSim {
    /// Number of drive rows (static stages, including the synthetic
    /// zero row real blocks share).
    pub fn n_drives(&self) -> usize {
        self.n_drives
    }

    /// Number of LTI blocks.
    pub fn n_blocks(&self) -> usize {
        self.pair.len()
    }

    /// Number of *distinct* poles in the shared log-feature basis —
    /// after dedup, so rows that share a pole sequence (all rows of a
    /// fitted model) count their common poles once.
    pub fn n_pole_features(&self) -> usize {
        self.poles.len()
    }

    /// A 64-bit fingerprint of the lowered serving tables (FNV-1a over
    /// every table's exact bit pattern). Two compilations of the same
    /// model produce the same fingerprint; any table difference — even
    /// an `f64` differing only in its last bit — produces a different
    /// one with overwhelming probability.
    ///
    /// This is the identity check of the durability layer: a serialized
    /// scheduler snapshot records the fingerprint of every registry
    /// model, and restore refuses a registry whose models do not match
    /// bit for bit (restored streams could otherwise silently diverge).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.static_row);
        h.write_usize(self.n_drives);
        for row in &self.head {
            for &v in row {
                h.write_u64(v.to_bits());
            }
        }
        for &v in &self.row_off {
            h.write_usize(v);
        }
        for w in &self.term_w {
            h.write_u64(w[0].to_bits());
            h.write_u64(w[1].to_bits());
        }
        for &p in &self.term_pole {
            h.write_usize(p);
        }
        for p in &self.poles {
            h.write_u64(p.re.to_bits());
            h.write_u64(p.im.to_bits());
        }
        for &d in &self.prow {
            h.write_usize(d);
        }
        for &v in &self.pmat {
            h.write_u64(v.to_bits());
        }
        h.write_usize(self.pdeg);
        for &p in &self.pair {
            h.write_u64(p as u64);
        }
        for &v in &self.sigma {
            h.write_u64(v.to_bits());
        }
        for &v in &self.omega {
            h.write_u64(v.to_bits());
        }
        for &d in &self.d1 {
            h.write_usize(d);
        }
        for &d in &self.d2 {
            h.write_usize(d);
        }
        h.finish()
    }

    /// The first-order-hold coefficients of every block for step `dt`,
    /// in block order, computed with the exact per-kind propagators of
    /// the reference loop. A state that caches them collects them into
    /// capacity it owns, so a re-fill allocates nothing.
    pub(crate) fn propagators(&self, dt: f64) -> impl Iterator<Item = BlockCoef> + '_ {
        (0..self.n_blocks()).map(move |b| {
            if self.pair[b] {
                let p = FohPair::new(self.sigma[b], self.omega[b], dt);
                BlockCoef {
                    er: p.e.re,
                    ei: p.e.im,
                    g1r: p.g1.re,
                    g1i: p.g1.im,
                    g2r: p.g2.re,
                    g2i: p.g2.im,
                }
            } else {
                let p = FohScalar::new(self.sigma[b], dt);
                BlockCoef { er: p.e, ei: 0.0, g1r: p.g1, g1i: 0.0, g2r: p.g2, g2i: 0.0 }
            }
        })
    }
}

/// Minimal FNV-1a/64 used by [`CompiledSim::fingerprint`]. Each field
/// is hashed byte by byte in a fixed order, so the fingerprint is
/// stable across platforms (inputs are reduced to explicit widths
/// before hashing — no `usize`-width dependence on the wire).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogTerm;

    #[test]
    fn pair_pole_dedup_shares_features_between_components() {
        let pole = Complex::new(0.3, 0.8);
        let t1 = StateFn {
            terms: vec![LogTerm { pole, rho: Complex::new(1.0, -0.5) }],
            linear: 0.1,
            constant: 0.0,
        };
        let t2 = StateFn {
            terms: vec![LogTerm { pole, rho: Complex::new(-0.25, 0.4) }],
            linear: 0.2,
            constant: 0.0,
        };
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0]);
        b.set_static_drive(s);
        let d1 = b.drive_rational(&t1);
        let d2 = b.drive_rational(&t2);
        b.block_pair(-1.0e9, 4.0e9, d1, d2);
        let sim = b.try_build().unwrap();
        // Identical pole sequences collapse to ONE feature slot.
        assert_eq!(sim.n_pole_features(), 1);
        assert_eq!(sim.n_drives(), 3);
    }

    #[test]
    fn distinct_pole_sequences_are_not_merged() {
        let term = |re: f64| StateFn {
            terms: vec![LogTerm { pole: Complex::new(re, 0.5), rho: Complex::new(1.0, 0.0) }],
            linear: 0.0,
            constant: 0.0,
        };
        let mut b = SimBuilder::new();
        let d1 = b.drive_rational(&term(0.1));
        let d2 = b.drive_rational(&term(0.2));
        b.set_static_drive(d1);
        b.block_pair(-1.0e9, 2.0e9, d1, d2);
        assert_eq!(b.try_build().unwrap().n_pole_features(), 2);
    }

    #[test]
    fn try_build_reports_typed_errors() {
        assert_eq!(SimBuilder::new().try_build().unwrap_err(), ServingError::MissingStaticDrive);

        // A block pointing at an unregistered row.
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0]);
        b.set_static_drive(s);
        b.block_real(-1.0, 7);
        assert_eq!(b.try_build().unwrap_err(), ServingError::BadDrive { drive: 7, n_drives: 1 });

        // A pair block's second component out of range.
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0]);
        b.set_static_drive(s);
        b.block_pair(-1.0, 2.0, s, 5);
        assert_eq!(b.try_build().unwrap_err(), ServingError::BadDrive { drive: 5, n_drives: 1 });

        // A dangling static row.
        let mut b = SimBuilder::new();
        let _ = b.drive_poly(&[0.0]);
        b.set_static_drive(3);
        assert_eq!(b.try_build().unwrap_err(), ServingError::BadDrive { drive: 3, n_drives: 1 });

        // A rational row whose log-term pole is real or not finite.
        for pole in
            [Complex::new(0.9, 0.0), Complex::new(0.9, f64::NAN), Complex::new(f64::INFINITY, 1.0)]
        {
            let mut b = SimBuilder::new();
            let s = b.drive_poly(&[0.0]);
            b.set_static_drive(s);
            let d = b.drive_rational(&StateFn {
                terms: vec![LogTerm { pole, rho: Complex::new(1.0, 0.0) }],
                ..StateFn::default()
            });
            b.block_real(-1.0, d);
            let err = b.try_build().unwrap_err();
            assert!(matches!(err, ServingError::BadLogPole { drive: 1, .. }), "{pole:?}: {err:?}");
        }

        // And a well-formed builder succeeds.
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0, 1.0]);
        b.set_static_drive(s);
        b.block_real(-1.0e9, s);
        assert!(b.try_build().is_ok());
    }

    #[test]
    fn fingerprint_is_stable_and_table_sensitive() {
        let build = |a: f64, slope: f64| {
            let mut b = SimBuilder::new();
            let s = b.drive_poly(&[0.0, slope]);
            b.set_static_drive(s);
            b.block_real(a, s);
            b.try_build().unwrap()
        };
        // Recompiling the same model reproduces the fingerprint exactly.
        assert_eq!(build(-1.0e9, 1.0).fingerprint(), build(-1.0e9, 1.0).fingerprint());
        // A last-bit table difference changes it.
        let a = -1.0e9_f64;
        let nudged = f64::from_bits(a.to_bits() ^ 1);
        assert_ne!(build(a, 1.0).fingerprint(), build(nudged, 1.0).fingerprint());
        assert_ne!(build(a, 1.0).fingerprint(), build(a, 2.0).fingerprint());
    }

    #[test]
    fn poly_drive_rows_share_the_power_basis() {
        // Static path y_s(u) = 1 + u²; one real block driven by u³.
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[1.0, 0.0, 1.0]);
        b.set_static_drive(s);
        let f = b.drive_poly(&[0.0, 0.0, 0.0, 1.0]);
        b.block_real(-1.0e12, f);
        let sim = b.try_build().unwrap();
        assert_eq!(sim.pdeg, 3);
        // With a pole this fast the block output is ≈ −f(u)/a at every
        // sample; check the static path + near-static block algebra.
        let y = sim.simulate(1e-9, &[0.5; 50]);
        let want = (1.0 + 0.25) + (0.125 / 1.0e12);
        assert!((y[0] - want).abs() < 1e-12, "{} vs {want}", y[0]);
    }
}
