//! Convergence check and Ritz-pair extraction shared by the Lanczos
//! eigensolvers ([`crate::lanczos_largest`], [`crate::generalized_lanczos`]).

use crate::SolverError;
use cirstag_linalg::{tridiag_eigen, tridiag_eigen_last_row, DenseMatrix};

/// The top-`k` Ritz pairs of a Lanczos run that has stopped.
pub(crate) struct RitzPairs {
    /// Ritz values, descending.
    pub eigenvalues: Vec<f64>,
    /// Ritz vectors `v = Q y` (not normalized): column `j` pairs with
    /// `eigenvalues[j]`.
    pub vectors: DenseMatrix,
}

/// Decides whether a Lanczos iteration stops after its latest step and, if
/// it does, returns the top-`k` Ritz pairs.
///
/// `alphas`/`betas` are the tridiagonal `T_m` built so far, `beta` the norm
/// of the next residual and `basis` the Krylov basis `Q`. With `stop` set
/// (step budget spent or breakdown) the run ends unconditionally. Otherwise
/// the convergence check runs every 5 steps once `m ≥ k`: it stops when
/// every top-`k` Ritz pair meets the `β·|yₘ| ≤ tol·scale` residual bound,
/// reading only the eigenvalues and last eigenvector row of `T_m` (O(m²)).
/// The full eigendecomposition (O(m³)) runs once, to assemble the vectors.
///
/// # Errors
///
/// Propagates tridiagonal eigensolver failures.
pub(crate) fn ritz_check(
    alphas: &[f64],
    betas: &[f64],
    beta: f64,
    stop: bool,
    k: usize,
    tol: f64,
    basis: &[Vec<f64>],
) -> Result<Option<RitzPairs>, SolverError> {
    let m = alphas.len();
    if m < k || !(stop || m.is_multiple_of(5)) {
        return Ok(None);
    }
    if !stop {
        let tri = tridiag_eigen_last_row(alphas, betas)?;
        let scale = tri
            .eigenvalues
            .iter()
            .fold(0.0_f64, |acc, v| acc.max(v.abs()))
            .max(1.0);
        let converged = top_k(&tri.eigenvalues, k)
            .iter()
            .all(|&j| beta * tri.last_row[j].abs() <= tol * scale);
        if !converged {
            return Ok(None);
        }
    }
    let tri = tridiag_eigen(alphas, betas)?;
    let top = top_k(&tri.eigenvalues, k);
    // v = Q y, accumulated over the basis in order so each output element
    // sums its terms in basis order; row b of the eigenvector matrix holds
    // basis vector b's coefficient in every Ritz vector.
    let n = basis.first().map_or(0, Vec::len);
    let mut vectors = DenseMatrix::zeros(n, k);
    for (b_idx, b) in basis.iter().take(m).enumerate() {
        let y = tri.eigenvectors.row(b_idx);
        for (row, &bi) in vectors.as_mut_slice().chunks_exact_mut(k).zip(b) {
            for (v, &jj) in row.iter_mut().zip(&top) {
                // cirstag-lint: allow(float-discipline) -- exact-zero skip of zero Ritz coefficients; a sparsity test, not a tolerance
                if y[jj] != 0.0 {
                    *v += y[jj] * bi;
                }
            }
        }
    }
    Ok(Some(RitzPairs {
        eigenvalues: top.iter().map(|&jj| tri.eigenvalues[jj]).collect(),
        vectors,
    }))
}

/// Indices of the `k` largest of `eigenvalues`, descending (stable for ties).
fn top_k(eigenvalues: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..eigenvalues.len()).collect();
    order.sort_by(|&a, &b| eigenvalues[b].total_cmp(&eigenvalues[a]));
    order.truncate(k);
    order
}
