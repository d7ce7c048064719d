//! Bit-for-bit oracle for the in-place LU kernel.
//!
//! `oracle_factor` and `oracle_solve` are the `Index`-based loops that
//! `Lu::factor` and `Lu::solve` ran before the row-slice kernel replaced
//! them, kept verbatim as an independent reference. Sequences of square
//! matrices are pushed through one reused `Lu` workspace, and every
//! factor entry, pivot, solution and `Singular { pivot }` must equal the
//! reference's bits, including right after a failed factorization.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rvf_numerics::{Lu, Mat, NumericsError};

/// The reference factorization: combined factors and row permutation.
fn oracle_factor(a: &Mat) -> Result<(Mat, Vec<usize>), NumericsError> {
    let n = a.rows();
    let mut lu = a.clone();
    let mut piv: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot search in column k.
        let mut p = k;
        let mut best = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            return Err(NumericsError::Singular { pivot: k });
        }
        if p != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(p, j)];
                lu[(p, j)] = tmp;
            }
            piv.swap(k, p);
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let m = lu[(i, k)] / pivot;
            lu[(i, k)] = m;
            if m != 0.0 {
                for j in (k + 1)..n {
                    let v = lu[(k, j)];
                    lu[(i, j)] -= m * v;
                }
            }
        }
    }
    Ok((lu, piv))
}

/// The reference substitution.
#[allow(clippy::needless_range_loop)]
fn oracle_solve(lu: &Mat, piv: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.rows();
    // Apply permutation.
    let mut x: Vec<f64> = piv.iter().map(|&p| b[p]).collect();
    // Forward substitution (L is unit lower).
    for i in 1..n {
        let mut acc = x[i];
        for j in 0..i {
            acc -= lu[(i, j)] * x[j];
        }
        x[i] = acc;
    }
    // Backward substitution.
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= lu[(i, j)] * x[j];
        }
        x[i] = acc / lu[(i, i)];
    }
    x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Factors `a` and solves for `b` through the reused workspace `ws` and
/// through the reference, and compares every bit.
fn check_against_oracle(ws: &mut Lu, a: &Mat, b: &[f64]) -> Result<(), TestCaseError> {
    let got = ws.refactor(a);
    let fresh = Lu::factor(a);
    match oracle_factor(a) {
        Err(want) => {
            prop_assert_eq!(got, Err(want.clone()), "workspace error, n = {}", a.rows());
            prop_assert_eq!(fresh.err(), Some(want), "Lu::factor error, n = {}", a.rows());
        }
        Ok((lu, piv)) => {
            prop_assert_eq!(got, Ok(()), "workspace factor, n = {}", a.rows());
            prop_assert_eq!(bits(ws.factors().as_slice()), bits(lu.as_slice()), "factors");
            prop_assert_eq!(ws.permutation(), &piv[..], "pivots");
            let want = bits(&oracle_solve(&lu, &piv, b));
            let mut x = vec![f64::NAN; b.len()];
            prop_assert_eq!(ws.solve_into(b, &mut x), Ok(()));
            prop_assert_eq!(bits(&x), want.clone(), "solve_into");
            let fresh = fresh.map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            prop_assert_eq!(bits(fresh.factors().as_slice()), bits(lu.as_slice()));
            prop_assert_eq!(fresh.permutation(), &piv[..]);
            let x = fresh.solve(b).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            prop_assert_eq!(bits(&x), want, "Lu::solve");
        }
    }
    Ok(())
}

/// A sequence of square systems `(A, b)` for one workspace. Most share
/// the sequence's base size, so a stale permutation from the previous
/// factorization would be read; the shapes mix dense draws, exact zeros,
/// zero diagonals that force row swaps, small-integer entries (exact
/// cancellation to zero pivots mid-elimination), rows of widely
/// different scale, and singular matrices (a zero column or a repeated
/// row).
struct SystemSequence;

impl Strategy for SystemSequence {
    type Value = Vec<(Mat, Vec<f64>)>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let base = 1 + rng.below(30) as usize;
        let len = 2 + rng.below(7) as usize;
        (0..len)
            .map(|_| {
                let n = if rng.below(4) == 0 { 1 + rng.below(30) as usize } else { base };
                let a = draw_matrix(rng, n);
                let b = (0..n).map(|_| rng.unit_f64() * 20.0 - 10.0).collect();
                (a, b)
            })
            .collect()
    }
}

fn draw_matrix(rng: &mut TestRng, n: usize) -> Mat {
    let zero_share = [0.0, 0.3, 0.7][rng.below(3) as usize];
    let integers = rng.below(3) == 0;
    let mut a = Mat::from_fn(n, n, |_, _| {
        if rng.unit_f64() < zero_share {
            0.0
        } else if integers {
            rng.below(5) as f64 - 2.0
        } else {
            rng.unit_f64() * 2.0 - 1.0
        }
    });
    match rng.below(6) {
        // Zero diagonal: every column needs a row swap.
        0 => (0..n).for_each(|i| a[(i, i)] = 0.0),
        // Rows spanning twelve decades.
        1 => {
            for i in 0..n {
                let scale = 10f64.powi(rng.below(13) as i32 - 6);
                (0..n).for_each(|j| a[(i, j)] *= scale);
            }
        }
        // Singular: a zero column.
        2 => {
            let j = rng.below(n as u64) as usize;
            (0..n).for_each(|i| a[(i, j)] = 0.0);
        }
        // Singular when n > 1: a repeated row.
        3 if n > 1 => {
            let (src, dst) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            (0..n).for_each(|j| a[(dst, j)] = a[(src, j)]);
        }
        _ => {}
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reused_workspace_matches_the_index_loop_oracle_bit_for_bit(seq in SystemSequence) {
        let mut ws = Lu::default();
        for (a, b) in &seq {
            check_against_oracle(&mut ws, a, b)?;
        }
    }
}

#[test]
fn workspace_reused_after_a_singular_error_matches_the_oracle() {
    // Column 0 pivots on row 2, column 1 on the old row 0, then column
    // 2 is all zeros: the failure leaves a half-eliminated matrix after
    // two row swaps.
    let singular = Mat::from_rows(&[&[0.0, 1.0, 0.0], &[2.0, 0.0, 0.0], &[4.0, 0.0, 0.0]]);
    let pivoting = Mat::from_rows(&[&[0.0, 3.0, 1.0], &[1.0, 0.0, 2.0], &[5.0, 1.0, 0.0]]);
    let plain = Mat::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.25], &[0.5, 0.25, 2.0]]);
    let b = [1.0, -2.0, 0.5];
    let mut ws = Lu::default();
    for a in [&pivoting, &singular, &plain, &singular, &pivoting, &plain] {
        if let Err(e) = check_against_oracle(&mut ws, a, &b) {
            panic!("{e:?}");
        }
    }
    // A failed factorization leaves nothing to solve with.
    assert_eq!(ws.refactor(&singular), Err(NumericsError::Singular { pivot: 2 }));
    assert!(matches!(ws.solve(&b), Err(NumericsError::DimensionMismatch { .. })));
    assert!(matches!(ws.inverse(), Err(NumericsError::DimensionMismatch { .. })));
}
