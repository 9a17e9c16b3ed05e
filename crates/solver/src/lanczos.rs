//! Lanczos iteration with full reorthogonalization.

use crate::ritz::ritz_check;
use crate::{CsrOperator, LinearOperator, ScaledShiftedOperator, SolverError, SolverWorkspace};
use cirstag_graph::Graph;
use cirstag_linalg::{vecops, DenseMatrix};

/// Deterministic xorshift64* stream used to seed start vectors.
#[derive(Clone)]
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift(seed ^ 0x9e37_79b9_7f4a_7c15 | 1)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    /// Rademacher ±1.
    pub(crate) fn next_sign(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Result of a Lanczos eigensolve.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Converged Ritz values, sorted descending (they approximate the
    /// *largest* eigenvalues of the operator).
    pub eigenvalues: Vec<f64>,
    /// Ritz vectors: column `j` pairs with `eigenvalues[j]`.
    pub eigenvectors: DenseMatrix,
    /// Number of Lanczos steps performed.
    pub iterations: usize,
}

/// Computes the `k` largest eigenpairs of a symmetric operator using Lanczos
/// with full reorthogonalization.
///
/// The Krylov dimension grows until the top-`k` Ritz residuals drop below
/// `tol` (measured by the standard `β·|yₘ|` bound) or `max_iter` steps have
/// been taken; with full reorthogonalization the iteration is numerically
/// robust for the modest `k` used by spectral embeddings.
///
/// Degenerate eigenvalues: a Krylov space built from a single start vector
/// contains only one direction per eigenspace, so for operators with exact
/// multiplets (e.g. Laplacians of perfectly symmetric graphs) the returned
/// basis covers each multiplet partially until a breakdown-restart injects a
/// fresh direction. Circuit graphs are irregular enough that this does not
/// arise in practice.
///
/// # Errors
///
/// - [`SolverError::InvalidArgument`] when `k == 0` or `k > op.dim()`.
/// - [`SolverError::NoConvergence`] when the Krylov space is exhausted
///   (happy breakdown) before `k` Ritz pairs exist, which cannot happen for
///   `k ≤ rank` in exact arithmetic.
pub fn lanczos_largest<A>(
    op: &A,
    k: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
) -> Result<LanczosResult, SolverError>
where
    A: LinearOperator + ?Sized,
{
    let mut ws = SolverWorkspace::new();
    lanczos_largest_ws(op, k, max_iter, tol, seed, &mut ws)
}

/// [`lanczos_largest`] with caller-provided scratch: every per-iteration
/// buffer (start vector, residual, each Krylov basis vector) is checked out
/// of `ws` and returned on exit, so repeated solves against a warm workspace
/// allocate nothing in the iteration loop. Bit-identical to
/// [`lanczos_largest`].
///
/// # Errors
///
/// Same as [`lanczos_largest`].
pub fn lanczos_largest_ws<A>(
    op: &A,
    k: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
    ws: &mut SolverWorkspace,
) -> Result<LanczosResult, SolverError>
where
    A: LinearOperator + ?Sized,
{
    let n = op.dim();
    if k == 0 || k > n {
        return Err(SolverError::InvalidArgument {
            reason: format!("requested {k} eigenpairs of a dimension-{n} operator"),
        });
    }
    // Failpoint: force the typed no-convergence failure so tests can drive
    // the retry / dense-fallback ladder above this solver.
    if cirstag_linalg::fail::trigger("solver/lanczos").is_some() {
        return Err(SolverError::NoConvergence {
            algorithm: "lanczos (failpoint)",
            iterations: 0,
            residual: f64::INFINITY,
        });
    }
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut w = ws.take(n);
    let result = lanczos_core(op, k, max_iter, tol, seed, &mut basis, &mut w, ws);
    ws.put(w);
    for b in basis.drain(..) {
        ws.put(b);
    }
    result
}

/// Iteration loop of [`lanczos_largest_ws`]; the wrapper owns draining the
/// basis back into the workspace on every exit path.
#[allow(clippy::too_many_arguments)]
fn lanczos_core<A>(
    op: &A,
    k: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
    basis: &mut Vec<Vec<f64>>,
    w: &mut [f64],
    ws: &mut SolverWorkspace,
) -> Result<LanczosResult, SolverError>
where
    A: LinearOperator + ?Sized,
{
    let n = op.dim();
    let max_iter = max_iter.min(n).max(k);
    let mut rng = XorShift::new(seed);
    let mut q = ws.take(n);
    for x in q.iter_mut() {
        *x = rng.next_f64();
    }
    vecops::normalize(&mut q);
    basis.push(q);
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();

    loop {
        let j = alphas.len();
        op.apply(&basis[j], w)?;
        let alpha = vecops::dot(w, &basis[j]);
        alphas.push(alpha);
        vecops::axpy(-alpha, &basis[j], w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            vecops::axpy(-beta_prev, &basis[j - 1], w);
        }
        // Full reorthogonalization (twice for safety).
        for _ in 0..2 {
            for b in basis.iter() {
                let c = vecops::dot(w, b);
                vecops::axpy(-c, b, w);
            }
        }
        let beta = vecops::norm2(w);
        let m = alphas.len();
        let breakdown = beta < 1e-14;
        let stop = m >= max_iter || breakdown;
        if let Some(ritz) = ritz_check(&alphas, &betas, beta, stop, k, tol, basis)? {
            let mut vectors = ritz.vectors;
            // Normalize Ritz vectors (guards round-off drift).
            for c in 0..k {
                let mut col = vectors.column(c);
                let nrm = vecops::normalize(&mut col);
                if nrm > 0.0 {
                    for (row, &x) in vectors.as_mut_slice().chunks_exact_mut(k).zip(&col) {
                        row[c] = x;
                    }
                }
            }
            return Ok(LanczosResult {
                eigenvalues: ritz.eigenvalues,
                eigenvectors: vectors,
                iterations: m,
            });
        }
        if breakdown {
            // Krylov space exhausted before finding k pairs: restart with a
            // fresh random direction orthogonal to the current basis.
            let mut fresh = ws.take(n);
            for x in fresh.iter_mut() {
                *x = rng.next_f64();
            }
            for b in basis.iter() {
                let c = vecops::dot(&fresh, b);
                vecops::axpy(-c, b, &mut fresh);
            }
            // cirstag-lint: allow(float-discipline) -- normalize returns exactly 0.0 only for an all-zero vector (Krylov exhaustion)
            if vecops::normalize(&mut fresh) == 0.0 {
                ws.put(fresh);
                return Err(SolverError::NoConvergence {
                    algorithm: "lanczos (krylov exhausted)",
                    iterations: alphas.len(),
                    residual: beta,
                });
            }
            betas.push(0.0);
            basis.push(fresh);
        } else {
            betas.push(beta);
            let mut next = ws.take(n);
            next.copy_from_slice(w);
            vecops::scale(1.0 / beta, &mut next);
            basis.push(next);
        }
    }
}

/// Computes the `m` smallest eigenpairs of the *normalized Laplacian* of `g`
/// — the Phase-1 spectral-embedding eigenproblem.
///
/// Because the spectrum of `L_norm` lies in `[0, 2]`, the smallest
/// eigenvalues are the largest eigenvalues of `2I − L_norm`, so a plain
/// Lanczos run on the flipped operator suffices (this is the standard trick
/// that avoids shift-invert solves). Results are returned ascending:
/// `(eigenvalues, eigenvectors)` with eigenvector `j` in column `j`.
///
/// # Errors
///
/// Propagates [`lanczos_largest`] errors; additionally
/// [`SolverError::InvalidArgument`] when `m` exceeds the node count.
pub fn smallest_normalized_laplacian_eigs(
    g: &Graph,
    m: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
) -> Result<(Vec<f64>, DenseMatrix), SolverError> {
    let mut ws = SolverWorkspace::new();
    smallest_normalized_laplacian_eigs_ws(g, m, max_iter, tol, seed, &mut ws)
}

/// [`smallest_normalized_laplacian_eigs`] with caller-provided scratch (see
/// [`lanczos_largest_ws`]); bit-identical to the allocating form.
///
/// # Errors
///
/// Same as [`smallest_normalized_laplacian_eigs`].
pub fn smallest_normalized_laplacian_eigs_ws(
    g: &Graph,
    m: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
    ws: &mut SolverWorkspace,
) -> Result<(Vec<f64>, DenseMatrix), SolverError> {
    let l_norm = g.normalized_laplacian();
    let flipped = ScaledShiftedOperator::new(2.0, -1.0, CsrOperator::new(&l_norm));
    let res = lanczos_largest_ws(&flipped, m, max_iter, tol, seed, ws)?;
    // mu = 2 - lambda, descending mu <=> ascending lambda.
    let eigenvalues: Vec<f64> = res
        .eigenvalues
        .iter()
        .map(|&mu| flipped.unshift_eigenvalue(mu))
        .collect();
    Ok((eigenvalues, res.eigenvectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirstag_linalg::CsrMatrix;

    #[test]
    fn finds_largest_of_diagonal() {
        let m = CsrMatrix::from_diagonal(&[1.0, 5.0, 3.0, 2.0, 4.0]);
        let op = CsrOperator::new(&m);
        let r = lanczos_largest(&op, 2, 50, 1e-10, 1).unwrap();
        assert!((r.eigenvalues[0] - 5.0).abs() < 1e-8);
        assert!((r.eigenvalues[1] - 4.0).abs() < 1e-8);
    }

    #[test]
    fn ritz_pairs_satisfy_definition() {
        // Symmetric pentadiagonal-ish test matrix.
        let mut trips = Vec::new();
        let n = 30;
        for i in 0..n {
            trips.push((i, i, (i % 7) as f64 + 1.0));
            if i + 1 < n {
                trips.push((i, i + 1, 0.5));
                trips.push((i + 1, i, 0.5));
            }
        }
        let m = CsrMatrix::from_triplets(n, n, &trips).unwrap();
        let op = CsrOperator::new(&m);
        let r = lanczos_largest(&op, 3, 60, 1e-10, 7).unwrap();
        for j in 0..3 {
            let v = r.eigenvectors.column(j);
            let av = m.mul_vec(&v);
            let lam = r.eigenvalues[j];
            let res: f64 = av
                .iter()
                .zip(&v)
                .map(|(a, b)| (a - lam * b) * (a - lam * b))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-6, "ritz residual {res} for pair {j}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = CsrMatrix::from_diagonal(&(0..20).map(|i| i as f64).collect::<Vec<_>>());
        let op = CsrOperator::new(&m);
        let r = lanczos_largest(&op, 4, 40, 1e-10, 3).unwrap();
        for a in 0..4 {
            for b in 0..4 {
                let d = vecops::dot(&r.eigenvectors.column(a), &r.eigenvectors.column(b));
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-7, "({a},{b}) inner product {d}");
            }
        }
    }

    #[test]
    fn invalid_k_rejected() {
        let m = CsrMatrix::identity(3);
        let op = CsrOperator::new(&m);
        assert!(lanczos_largest(&op, 0, 10, 1e-8, 0).is_err());
        assert!(lanczos_largest(&op, 4, 10, 1e-8, 0).is_err());
    }

    #[test]
    fn handles_multiplicity_via_restart() {
        // Identity has one distinct eigenvalue; Krylov space collapses after
        // one step and the solver must restart to deliver k = 3 pairs.
        let m = CsrMatrix::identity(6);
        let op = CsrOperator::new(&m);
        let r = lanczos_largest(&op, 3, 30, 1e-10, 11).unwrap();
        for v in &r.eigenvalues {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn smallest_normalized_eigs_on_path() {
        // P3 normalized Laplacian eigenvalues: 0, 1, 2.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let (vals, vecs) = smallest_normalized_laplacian_eigs(&g, 3, 60, 1e-10, 5).unwrap();
        assert!((vals[0] - 0.0).abs() < 1e-8);
        assert!((vals[1] - 1.0).abs() < 1e-8);
        assert!((vals[2] - 2.0).abs() < 1e-8);
        assert_eq!(vecs.shape(), (3, 3));
    }

    #[test]
    fn smallest_eig_vector_is_degree_weighted_constant() {
        let g = Graph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (0, 2, 1.0),
            ],
        )
        .unwrap();
        let (vals, vecs) = smallest_normalized_laplacian_eigs(&g, 1, 60, 1e-10, 9).unwrap();
        assert!(vals[0].abs() < 1e-8);
        // Eigenvector ∝ D^{1/2} 1.
        let d = g.degree_vector();
        let v = vecs.column(0);
        let ratio = v[0] / d[0].sqrt();
        for i in 0..4 {
            assert!((v[i] / d[i].sqrt() - ratio).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = CsrMatrix::from_diagonal(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        let op = CsrOperator::new(&m);
        let a = lanczos_largest(&op, 2, 30, 1e-10, 123).unwrap();
        let b = lanczos_largest(&op, 2, 30, 1e-10, 123).unwrap();
        assert_eq!(a.eigenvalues, b.eigenvalues);
    }

    #[test]
    fn workspace_form_is_bit_identical_and_reuses_buffers() {
        let mut trips = Vec::new();
        let n = 30;
        for i in 0..n {
            trips.push((i, i, (i % 7) as f64 + 1.0));
            if i + 1 < n {
                trips.push((i, i + 1, 0.5));
                trips.push((i + 1, i, 0.5));
            }
        }
        let m = CsrMatrix::from_triplets(n, n, &trips).unwrap();
        let op = CsrOperator::new(&m);
        let reference = lanczos_largest(&op, 3, 60, 1e-10, 7).unwrap();
        let mut ws = SolverWorkspace::new();
        let first = lanczos_largest_ws(&op, 3, 60, 1e-10, 7, &mut ws).unwrap();
        assert_eq!(first.iterations, reference.iterations);
        for (a, b) in first.eigenvalues.iter().zip(&reference.eigenvalues) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            first.eigenvectors.as_slice(),
            reference.eigenvectors.as_slice()
        );
        // A second run against the warm workspace allocates no new buffers.
        let misses = ws.misses();
        let second = lanczos_largest_ws(&op, 3, 60, 1e-10, 7, &mut ws).unwrap();
        assert_eq!(ws.misses(), misses, "warm rerun must not allocate");
        assert_eq!(
            second.eigenvectors.as_slice(),
            reference.eigenvectors.as_slice()
        );
    }
}
