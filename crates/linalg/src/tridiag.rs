use crate::{DenseMatrix, LinalgError};

/// Eigendecomposition of a symmetric tridiagonal matrix.
///
/// Produced by [`tridiag_eigen`]; consumed by the Lanczos eigensolver in
/// `cirstag-solver` to convert the Lanczos tridiagonal into Ritz pairs.
#[derive(Debug, Clone)]
pub struct TridiagEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Eigenvector matrix: column `j` (i.e. `eigenvectors.column(j)`) is the
    /// unit eigenvector for `eigenvalues[j]`.
    pub eigenvectors: DenseMatrix,
}

/// Eigenvalues of a symmetric tridiagonal matrix plus the last row of its
/// eigenvector matrix — everything a Lanczos convergence check reads.
///
/// Produced by [`tridiag_eigen_last_row`]; every entry is bit-identical to
/// the corresponding entry of [`tridiag_eigen`]'s result.
#[derive(Debug, Clone)]
pub struct TridiagLastRow {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// `last_row[j]` is the last component of the unit eigenvector for
    /// `eigenvalues[j]` (the `yₘ` of the Lanczos `β·|yₘ|` residual bound).
    pub last_row: Vec<f64>,
}

/// Computes all eigenpairs of the symmetric tridiagonal matrix with main
/// diagonal `diag` and off-diagonal `offdiag` (`offdiag.len() == diag.len() - 1`).
///
/// Uses the implicit QL algorithm with Wilkinson shifts: O(n²) for the
/// eigenvalues, plus O(n) per Givens rotation to accumulate the full
/// eigenvector matrix, O(n³) in total. Iterative eigensolvers should call
/// this once, to assemble Ritz vectors, and use [`tridiag_eigen_last_row`]
/// (O(n²)) for their repeated convergence checks.
///
/// # Errors
///
/// - [`LinalgError::InvalidArgument`] when `offdiag.len() + 1 != diag.len()`
///   (except that both may be empty).
/// - [`LinalgError::NoConvergence`] when a single eigenvalue fails to
///   converge in 50 QL sweeps (practically unreachable for finite input).
/// - [`LinalgError::NonFinite`] when the input contains NaN or ±∞.
pub fn tridiag_eigen(diag: &[f64], offdiag: &[f64]) -> Result<TridiagEigen, LinalgError> {
    let n = diag.len();
    let mut d = checked_copy(diag, offdiag)?;
    let mut e: Vec<f64> = offdiag.to_vec();
    // Z stored transposed (`zt` row j is column j of Z), so each rotation
    // updates two contiguous rows.
    let mut zt = DenseMatrix::identity(n);
    let zt_data = zt.as_mut_slice();
    implicit_ql(&mut d, &mut e, |i, s, c| {
        let (lo, hi) = zt_data.split_at_mut((i + 1) * n);
        let (zi, zi1) = (&mut lo[i * n..], &mut hi[..n]);
        for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
            let f = *b;
            let zki = *a;
            *b = s * zki + c * f;
            *a = c * zki - s * f;
        }
    })?;

    // Sort ascending, permuting eigenvectors to match.
    let order = ascending_order(&d);
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut eigenvectors = DenseMatrix::zeros(n, n);
    let out = eigenvectors.as_mut_slice();
    for (new_j, &old_j) in order.iter().enumerate() {
        for (row, &v) in out.chunks_exact_mut(n).zip(zt.row(old_j)) {
            row[new_j] = v;
        }
    }
    Ok(TridiagEigen {
        eigenvalues,
        eigenvectors,
    })
}

/// Eigenvalues and the last eigenvector row of the same tridiagonal as
/// [`tridiag_eigen`], bit-identical to the corresponding entries of its
/// result, in O(n²): the QL rotations act on each row of the eigenvector
/// matrix separately, so only row `n − 1` is tracked.
///
/// # Errors
///
/// Same as [`tridiag_eigen`].
pub fn tridiag_eigen_last_row(
    diag: &[f64],
    offdiag: &[f64],
) -> Result<TridiagLastRow, LinalgError> {
    let n = diag.len();
    let mut d = checked_copy(diag, offdiag)?;
    let mut e: Vec<f64> = offdiag.to_vec();
    // Row n − 1 of the identity.
    let mut z = vec![0.0; n];
    if let Some(last) = z.last_mut() {
        *last = 1.0;
    }
    implicit_ql(&mut d, &mut e, |i, s, c| {
        let f = z[i + 1];
        let zi = z[i];
        z[i + 1] = s * zi + c * f;
        z[i] = c * zi - s * f;
    })?;
    let order = ascending_order(&d);
    Ok(TridiagLastRow {
        eigenvalues: order.iter().map(|&i| d[i]).collect(),
        last_row: order.iter().map(|&i| z[i]).collect(),
    })
}

/// Validates the tridiagonal and returns a copy of `diag` for QL to work on.
fn checked_copy(diag: &[f64], offdiag: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = diag.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if offdiag.len() + 1 != n {
        return Err(LinalgError::InvalidArgument {
            reason: format!(
                "offdiag length {} must be diag length {} minus one",
                offdiag.len(),
                n
            ),
        });
    }
    if !crate::vecops::all_finite(diag) || !crate::vecops::all_finite(offdiag) {
        return Err(LinalgError::NonFinite {
            context: "tridiag_eigen input",
        });
    }
    Ok(diag.to_vec())
}

/// Indices of `d` in ascending order (stable for ties).
fn ascending_order(d: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    order
}

/// Implicit QL with Wilkinson shifts on diagonal `d` and off-diagonal `e`
/// (`e.len() + 1 == d.len()`, or both empty). On return `d` holds the
/// unsorted eigenvalues. Every Givens rotation is reported as
/// `rotate(i, s, c)`, acting on columns `i` and `i + 1` of the eigenvector
/// matrix Z: `(z_i, z_{i+1}) ← (c·z_i − s·z_{i+1}, s·z_i + c·z_{i+1})` in
/// each row. The rotations never read Z, so a caller may track any subset
/// of its rows.
fn implicit_ql(
    d: &mut [f64],
    e: &mut Vec<f64>,
    mut rotate: impl FnMut(usize, f64, f64),
) -> Result<(), LinalgError> {
    let n = d.len();
    // e is padded with a trailing zero per the classic tqli formulation.
    e.push(0.0);

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tridiagonal QL",
                    iterations: 50,
                });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                // cirstag-lint: allow(float-discipline) -- exact-zero off-diagonal test from the EISPACK tql2 recurrence
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, s, c);
            }
            // cirstag-lint: allow(float-discipline) -- exact-zero off-diagonal test from the EISPACK tql2 recurrence
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag_dense(diag: &[f64], off: &[f64]) -> DenseMatrix {
        let n = diag.len();
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, diag[i]);
        }
        for i in 0..off.len() {
            m.set(i, i + 1, off[i]);
            m.set(i + 1, i, off[i]);
        }
        m
    }

    #[test]
    fn one_by_one() {
        let r = tridiag_eigen(&[7.0], &[]).unwrap();
        assert_eq!(r.eigenvalues, vec![7.0]);
        assert_eq!(r.eigenvectors.get(0, 0).abs(), 1.0);
    }

    #[test]
    fn two_by_two_known() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let r = tridiag_eigen(&[2.0, 2.0], &[1.0]).unwrap();
        assert!((r.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((r.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_returns_sorted_diagonal() {
        let r = tridiag_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert_eq!(r.eigenvalues, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn path_laplacian_eigenvalues() {
        // Laplacian of the path graph P4: eigenvalues 2 - 2cos(kπ/4), k=0..3.
        let diag = [1.0, 2.0, 2.0, 1.0];
        let off = [-1.0, -1.0, -1.0];
        let r = tridiag_eigen(&diag, &off).unwrap();
        for (k, &lam) in r.eigenvalues.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / 4.0).cos();
            assert!((lam - expect).abs() < 1e-10, "k={k}: {lam} vs {expect}");
        }
    }

    #[test]
    fn eigenpairs_satisfy_definition() {
        let diag = [4.0, 1.0, -2.0, 3.0, 0.5];
        let off = [0.5, -1.5, 2.0, 0.1];
        let r = tridiag_eigen(&diag, &off).unwrap();
        let a = tridiag_dense(&diag, &off);
        for j in 0..diag.len() {
            let v = r.eigenvectors.column(j);
            let av = a.mul_vec(&v).unwrap();
            for i in 0..diag.len() {
                assert!(
                    (av[i] - r.eigenvalues[j] * v[i]).abs() < 1e-9,
                    "residual too large at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let diag = [1.0, 2.0, 3.0, 4.0];
        let off = [1.0, 1.0, 1.0];
        let r = tridiag_eigen(&diag, &off).unwrap();
        let q = &r.eigenvectors;
        let qtq = q.transpose().matmul(q).unwrap();
        assert!(qtq.max_abs_diff(&DenseMatrix::identity(4)).unwrap() < 1e-10);
    }

    #[test]
    fn rejects_bad_lengths_and_nan() {
        assert!(tridiag_eigen(&[1.0, 2.0], &[]).is_err());
        assert!(tridiag_eigen(&[f64::NAN], &[]).is_err());
    }

    #[test]
    fn empty_input_ok() {
        let r = tridiag_eigen(&[], &[]).unwrap();
        assert!(r.eigenvalues.is_empty());
    }
}
