//! Pole sets: structured storage of real poles and complex conjugate
//! pairs, starting-pole heuristics and relocation post-processing.

use rvf_numerics::{linspace, logspace, Complex};

use crate::options::{Axis, VfOptions};

/// Ratio `|Re|/|Im|` of the starting pairs on the imaginary axis
/// (Gustavsen's classic 1/100 recipe).
const INITIAL_DAMPING: f64 = 0.01;

/// Real axis: lower bound on `|Im(pole)|` as a fraction of the sampled
/// interval length, keeping the log base functions smooth on the
/// interval.
pub(crate) const REAL_AXIS_MIN_IMAG: f64 = 0.05;

/// A single pole entry: either a real pole or a complex conjugate pair
/// (stored as the member with positive imaginary part).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoleEntry {
    /// A real pole `a`.
    Real(f64),
    /// A conjugate pair `a, a*` stored with `Im(a) > 0`.
    Pair(Complex),
}

impl PoleEntry {
    /// Number of basis columns this entry contributes (1 or 2).
    pub(crate) fn basis_width(&self) -> usize {
        match self {
            PoleEntry::Real(_) => 1,
            PoleEntry::Pair(_) => 2,
        }
    }

    /// The pole value(s) as complex numbers.
    pub(crate) fn values(&self) -> Vec<Complex> {
        match self {
            PoleEntry::Real(a) => vec![Complex::from_re(*a)],
            PoleEntry::Pair(a) => vec![*a, a.conj()],
        }
    }
}

/// An ordered collection of pole entries shared by all responses of a fit.
///
/// # Examples
///
/// ```
/// use rvf_vecfit::PoleSet;
///
/// let poles = PoleSet::initial_imag_axis(6, 1.0e3, 1.0e9);
/// assert_eq!(poles.n_poles(), 6);
/// assert!(poles.is_stable());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoleSet {
    entries: Vec<PoleEntry>,
}

impl PoleSet {
    /// Creates a pole set from explicit entries.
    pub fn new(entries: Vec<PoleEntry>) -> Self {
        Self { entries }
    }

    /// Creates a pole set of real poles.
    pub fn from_reals(poles: &[f64]) -> Self {
        Self { entries: poles.iter().map(|&a| PoleEntry::Real(a)).collect() }
    }

    /// The entries.
    pub fn entries(&self) -> &[PoleEntry] {
        &self.entries
    }

    /// Total pole count (pairs count twice).
    pub fn n_poles(&self) -> usize {
        self.entries.iter().map(|e| e.basis_width()).sum()
    }

    /// Number of basis columns (same as [`Self::n_poles`]).
    pub fn n_basis(&self) -> usize {
        self.n_poles()
    }

    /// Number of entries (pairs count once).
    pub fn n_entries(&self) -> usize {
        self.entries.len()
    }

    /// All poles expanded to complex values (pairs give both members).
    pub fn to_complex(&self) -> Vec<Complex> {
        self.entries.iter().flat_map(|e| e.values()).collect()
    }

    /// `true` if every pole has a strictly negative real part.
    pub fn is_stable(&self) -> bool {
        self.entries.iter().all(|e| match e {
            PoleEntry::Real(a) => *a < 0.0,
            PoleEntry::Pair(a) => a.re < 0.0,
        })
    }

    /// Classic starting poles for frequency fitting: complex pairs with
    /// imaginary parts spread logarithmically over `[w_min, w_max]`
    /// (rad/s) and real parts `-ω/100`.
    pub fn initial_imag_axis(n_poles: usize, w_min: f64, w_max: f64) -> Self {
        assert!(n_poles > 0, "need at least one pole");
        assert!(w_min > 0.0 && w_max > w_min, "need 0 < w_min < w_max");
        let n_pairs = n_poles / 2;
        let n_real = n_poles % 2;
        let mut entries = Vec::with_capacity(n_pairs + n_real);
        if n_real == 1 {
            entries.push(PoleEntry::Real(-w_min));
        }
        if n_pairs > 0 {
            for w in logspace(w_min.log10(), w_max.log10(), n_pairs) {
                entries.push(PoleEntry::Pair(Complex::new(-INITIAL_DAMPING * w, w)));
            }
        }
        Self { entries }
    }

    /// Starting poles for real-axis (state) fitting: conjugate pairs with
    /// real parts spread across the sampled interval `[x_min, x_max]` and
    /// imaginary parts [`REAL_AXIS_MIN_IMAG`] of the interval length.
    pub(crate) fn initial_real_axis(n_poles: usize, x_min: f64, x_max: f64) -> Self {
        assert!(n_poles >= 2, "real-axis fitting needs at least one pair");
        assert!(x_max > x_min, "need a nonempty interval");
        let n_pairs = n_poles.div_ceil(2);
        let span = x_max - x_min;
        let height = (REAL_AXIS_MIN_IMAG * span).max(1e-12);
        let centers = if n_pairs == 1 {
            vec![0.5 * (x_min + x_max)]
        } else {
            linspace(x_min, x_max, n_pairs)
        };
        Self {
            entries: centers
                .into_iter()
                .map(|c| PoleEntry::Pair(Complex::new(c, height)))
                .collect(),
        }
    }

    /// Builds starting poles from fit options and the sample range.
    ///
    /// For the imaginary axis `lo`/`hi` are angular frequencies of the
    /// sample grid; for the real axis they are the state interval bounds.
    pub(crate) fn initial_for(opts: &VfOptions, lo: f64, hi: f64) -> Self {
        match opts.axis {
            Axis::Imaginary => Self::initial_imag_axis(opts.n_poles, lo.max(1e-30), hi),
            Axis::Real => Self::initial_real_axis(opts.n_poles, lo, hi),
        }
    }

    /// Returns this pole set augmented with freshly spread entries until
    /// it carries at least `n_poles` poles — the warm-start primitive of
    /// the RVF pole-growth loop (`p += 2` in paper Algorithm 1).
    ///
    /// The existing (already relocated) entries are kept verbatim; the
    /// missing poles are added as pairs at *interior* positions of the
    /// sampled range `[lo, hi]` (angular frequencies on the imaginary
    /// axis, state bounds on the real axis), where they are unlikely to
    /// collide with either the edge-seeded initial spread or the
    /// relocated poles. If `self` already has `n_poles` or more, it is
    /// returned unchanged.
    pub(crate) fn grown_to(&self, n_poles: usize, axis: Axis, lo: f64, hi: f64) -> Self {
        let mut entries = self.entries.clone();
        let have = self.n_poles();
        if have >= n_poles {
            return Self { entries };
        }
        let missing = n_poles - have;
        match axis {
            Axis::Imaginary => {
                let n_pairs = missing / 2;
                if missing % 2 == 1 {
                    entries.push(PoleEntry::Real(-lo.max(1e-30)));
                }
                let lo = lo.max(1e-30);
                for i in 1..=n_pairs {
                    let t = i as f64 / (n_pairs + 1) as f64;
                    let w = lo * (hi / lo).powf(t);
                    entries.push(PoleEntry::Pair(Complex::new(-INITIAL_DAMPING * w, w)));
                }
            }
            Axis::Real => {
                let span = hi - lo;
                let height = (REAL_AXIS_MIN_IMAG * span).max(1e-12);
                let n_pairs = missing.div_ceil(2);
                for i in 1..=n_pairs {
                    let t = i as f64 / (n_pairs + 1) as f64;
                    entries.push(PoleEntry::Pair(Complex::new(lo + t * span, height)));
                }
            }
        }
        Self { entries }
    }

    /// Rebuilds a structured pole set from raw eigenvalues after a
    /// relocation step.
    ///
    /// * `Axis::Imaginary`: eigenvalues with `|Im|` below `pair_tol·|λ|`
    ///   become real poles, and right-half-plane poles are flipped
    ///   (`Re → −Re`), the paper's stability guarantee.
    /// * `Axis::Real`: every pole must be a complex pair off the real
    ///   axis; real eigenvalues are paired up and given an imaginary part
    ///   of at least `min_imag` so the log base functions stay smooth on
    ///   the sampled interval. When `clamp = Some((lo, hi))`, poles are
    ///   confined to the neighbourhood of the sampled interval: runaway
    ///   relocations (poles orders of magnitude outside the data range)
    ///   leave the fitted *values* intact through cancellation but
    ///   destroy the precision of the logarithmic primitives, so they
    ///   are pulled back in.
    pub(crate) fn from_eigenvalues(
        eigs: &[Complex],
        axis: Axis,
        min_imag: f64,
        clamp: Option<(f64, f64)>,
    ) -> Self {
        match axis {
            Axis::Imaginary => {
                let mut entries = Vec::new();
                let mut used = vec![false; eigs.len()];
                for i in 0..eigs.len() {
                    if used[i] {
                        continue;
                    }
                    let a = eigs[i];
                    let scale = a.abs().max(1e-30);
                    if a.im.abs() <= 1e-9 * scale {
                        let re = match a.re {
                            re if re > 0.0 => -re,
                            0.0 => -1e-12 * scale.max(1.0),
                            re => re,
                        };
                        entries.push(PoleEntry::Real(re));
                        used[i] = true;
                    } else {
                        // Find the conjugate partner (closest to a*).
                        let mut best = None;
                        let mut best_d = f64::INFINITY;
                        for (j, ej) in eigs.iter().enumerate().skip(i + 1) {
                            if used[j] {
                                continue;
                            }
                            let d = (*ej - a.conj()).abs();
                            if d < best_d {
                                best_d = d;
                                best = Some(j);
                            }
                        }
                        if let Some(j) = best {
                            used[j] = true;
                        }
                        used[i] = true;
                        let re = if a.re > 0.0 { -a.re } else { a.re };
                        entries.push(PoleEntry::Pair(Complex::new(re, a.im.abs())));
                    }
                }
                Self { entries }
            }
            Axis::Real => {
                // Keep only one member per conjugate pair; collect strays.
                let mut pairs: Vec<Complex> = Vec::new();
                let mut reals: Vec<f64> = Vec::new();
                let mut used = vec![false; eigs.len()];
                for i in 0..eigs.len() {
                    if used[i] {
                        continue;
                    }
                    let a = eigs[i];
                    let scale = a.abs().max(1e-30);
                    if a.im.abs() <= 1e-9 * scale {
                        reals.push(a.re);
                        used[i] = true;
                    } else {
                        let mut best = None;
                        let mut best_d = f64::INFINITY;
                        for (j, ej) in eigs.iter().enumerate().skip(i + 1) {
                            if used[j] {
                                continue;
                            }
                            let d = (*ej - a.conj()).abs();
                            if d < best_d {
                                best_d = d;
                                best = Some(j);
                            }
                        }
                        if let Some(j) = best {
                            used[j] = true;
                        }
                        used[i] = true;
                        pairs.push(Complex::new(a.re, a.im.abs().max(min_imag)));
                    }
                }
                // Pair up leftover real eigenvalues two at a time.
                reals.sort_by(|x, y| x.partial_cmp(y).unwrap());
                let mut it = reals.chunks_exact(2);
                for ch in &mut it {
                    let center = 0.5 * (ch[0] + ch[1]);
                    let half = (0.5 * (ch[1] - ch[0])).abs().max(min_imag);
                    pairs.push(Complex::new(center, half));
                }
                if let [last] = it.remainder() {
                    pairs.push(Complex::new(*last, min_imag));
                }
                if let Some((lo, hi)) = clamp {
                    let range = (hi - lo).max(1e-300);
                    for p in &mut pairs {
                        let re = p.re.clamp(lo - 0.5 * range, hi + 0.5 * range);
                        let im = p.im.clamp(min_imag, 2.0 * range);
                        *p = Complex::new(re, im);
                    }
                }
                Self { entries: pairs.into_iter().map(PoleEntry::Pair).collect() }
            }
        }
    }

    /// Maximum relative displacement between two pole sets of identical
    /// structure — the convergence monitor of the relocation loop.
    /// Returns `f64::INFINITY` when structures differ.
    pub(crate) fn displacement(&self, other: &PoleSet) -> f64 {
        let a = self.to_complex();
        let b = other.to_complex();
        if a.len() != b.len() {
            return f64::INFINITY;
        }
        let mut worst = 0.0_f64;
        // Greedy nearest matching (pole order may permute between rounds).
        let mut used = vec![false; b.len()];
        for pa in &a {
            let mut best = f64::INFINITY;
            let mut bj = 0;
            for (j, pb) in b.iter().enumerate() {
                if used[j] {
                    continue;
                }
                let d = (*pa - *pb).abs();
                if d < best {
                    best = d;
                    bj = j;
                }
            }
            used[bj] = true;
            worst = worst.max(best / pa.abs().max(1.0));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::c;

    #[test]
    fn initial_imag_axis_structure() {
        let p = PoleSet::initial_imag_axis(7, 1.0, 1e6);
        assert_eq!(p.n_poles(), 7);
        assert_eq!(p.n_entries(), 4); // 1 real + 3 pairs
        assert!(p.is_stable());
        // Imaginary parts cover the requested range.
        let vals = p.to_complex();
        let max_im = vals.iter().fold(0.0_f64, |m, v| m.max(v.im));
        assert!((max_im - 1e6).abs() < 1e-6);
    }

    #[test]
    fn initial_real_axis_pairs_only() {
        let p = PoleSet::initial_real_axis(10, 0.4, 1.4);
        assert_eq!(p.n_poles(), 10);
        for e in p.entries() {
            match e {
                PoleEntry::Pair(a) => {
                    assert!(a.im >= 0.05 * 1.0 - 1e-12);
                    assert!((0.4..=1.4).contains(&a.re));
                }
                PoleEntry::Real(_) => panic!("real pole on real axis"),
            }
        }
    }

    #[test]
    fn from_eigenvalues_flips_unstable() {
        let eigs = [c(2.0, 5.0), c(2.0, -5.0), c(3.0, 0.0)];
        let p = PoleSet::from_eigenvalues(&eigs, Axis::Imaginary, 0.0, None);
        assert!(p.is_stable());
        assert_eq!(p.n_poles(), 3);
    }

    #[test]
    fn real_axis_pairing_of_real_eigenvalues() {
        let eigs = [c(1.0, 0.0), c(2.0, 0.0), c(0.5, 0.3), c(0.5, -0.3)];
        let p = PoleSet::from_eigenvalues(&eigs, Axis::Real, 0.05, None);
        // All entries must be pairs with |Im| >= 0.05.
        for e in p.entries() {
            match e {
                PoleEntry::Pair(a) => assert!(a.im >= 0.05),
                PoleEntry::Real(_) => panic!("real pole survived"),
            }
        }
        assert_eq!(p.n_poles(), 4);
    }

    #[test]
    fn real_axis_odd_leftover() {
        let eigs = [c(1.0, 0.0)];
        let p = PoleSet::from_eigenvalues(&eigs, Axis::Real, 0.1, None);
        assert_eq!(p.n_entries(), 1);
        match p.entries()[0] {
            PoleEntry::Pair(a) => {
                assert_eq!(a.re, 1.0);
                assert_eq!(a.im, 0.1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn grown_to_keeps_existing_and_adds_pairs() {
        let p = PoleSet::initial_imag_axis(4, 1.0, 1e6);
        let g = p.grown_to(6, Axis::Imaginary, 1.0, 1e6);
        assert_eq!(g.n_poles(), 6);
        // Original entries survive verbatim at the front.
        assert_eq!(&g.entries()[..p.n_entries()], p.entries());
        // The new pair sits strictly inside the range.
        match g.entries().last().unwrap() {
            PoleEntry::Pair(a) => assert!(a.im > 1.0 && a.im < 1e6),
            PoleEntry::Real(_) => panic!("expected a pair"),
        }
        // Already big enough: unchanged.
        assert_eq!(p.grown_to(3, Axis::Imaginary, 1.0, 1e6), p);
    }

    #[test]
    fn grown_to_real_axis_adds_interior_pairs() {
        let p = PoleSet::initial_real_axis(4, 0.0, 2.0);
        let g = p.grown_to(6, Axis::Real, 0.0, 2.0);
        assert_eq!(g.n_poles(), 6);
        match g.entries().last().unwrap() {
            PoleEntry::Pair(a) => {
                assert!(a.re > 0.0 && a.re < 2.0);
                assert!(a.im >= 0.05 * 2.0 - 1e-12);
            }
            PoleEntry::Real(_) => panic!("real pole on real axis"),
        }
    }

    #[test]
    fn displacement_zero_for_identical() {
        let p = PoleSet::initial_imag_axis(6, 1.0, 1e3);
        assert_eq!(p.displacement(&p), 0.0);
        let q = PoleSet::initial_imag_axis(4, 1.0, 1e3);
        assert!(p.displacement(&q).is_infinite());
    }

    #[test]
    fn to_complex_expands_pairs() {
        let p = PoleSet::new(vec![PoleEntry::Pair(c(-1.0, 2.0))]);
        let v = p.to_complex();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], c(-1.0, 2.0));
        assert_eq!(v[1], c(-1.0, -2.0));
    }
}
