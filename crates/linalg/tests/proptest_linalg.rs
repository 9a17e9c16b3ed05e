//! Property-based tests for the linear-algebra primitives.

use cirstag_linalg::{
    jacobi_eigen, tridiag_eigen, tridiag_eigen_last_row, CooMatrix, CsrMatrix, DenseMatrix,
};
use proptest::prelude::*;

fn arb_dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data).expect("sized"))
}

/// Asserts that the last-row form of the tridiagonal eigensolver returns
/// exactly the bits of the full form's eigenvalues and last eigenvector row.
fn assert_last_row_bitwise(diag: &[f64], off: &[f64]) {
    let full = tridiag_eigen(diag, off).unwrap();
    let cheap = tridiag_eigen_last_row(diag, off).unwrap();
    let n = diag.len();
    prop_assert_eq!(cheap.eigenvalues.len(), n);
    prop_assert_eq!(cheap.last_row.len(), n);
    for j in 0..n {
        prop_assert_eq!(
            cheap.eigenvalues[j].to_bits(),
            full.eigenvalues[j].to_bits()
        );
        prop_assert_eq!(
            cheap.last_row[j].to_bits(),
            full.eigenvectors.get(n - 1, j).to_bits()
        );
    }
}

fn arb_triplets(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((0..n, 0..n, -5.0f64..5.0), 0..4 * n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(a in arb_dense(5, 7)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_is_associative(a in arb_dense(3, 4), b in arb_dense(4, 5), c in arb_dense(5, 2)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right).unwrap() < 1e-9);
    }

    #[test]
    fn matmul_transpose_identity(a in arb_dense(4, 6), b in arb_dense(6, 3)) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-10);
    }

    #[test]
    fn csr_matches_dense_spmv(trips in arb_triplets(8), x in proptest::collection::vec(-3.0f64..3.0, 8)) {
        let csr = CsrMatrix::from_triplets(8, 8, &trips).unwrap();
        let dense = csr.to_dense();
        let y_sparse = csr.mul_vec(&x);
        let y_dense = dense.mul_vec(&x).unwrap();
        for (a, b) in y_sparse.iter().zip(&y_dense) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn csr_transpose_matches_dense(trips in arb_triplets(7)) {
        let csr = CsrMatrix::from_triplets(7, 7, &trips).unwrap();
        let lhs = csr.transpose().to_dense();
        let rhs = csr.to_dense().transpose();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-12);
    }

    #[test]
    fn coo_duplicate_accumulation(entries in proptest::collection::vec((0usize..4, 0usize..4, -2.0f64..2.0), 1..24)) {
        let mut coo = CooMatrix::new(4, 4);
        let mut expect = [[0.0f64; 4]; 4];
        for &(i, j, v) in &entries {
            coo.push(i, j, v).unwrap();
            expect[i][j] += v;
        }
        let csr = coo.to_csr();
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((csr.get(i, j) - expect[i][j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn jacobi_eigendecomposition_reconstructs(a in arb_dense(5, 5)) {
        // Symmetrize, decompose, reconstruct: A = V diag(λ) Vᵀ.
        let sym = a.add(&a.transpose()).unwrap().scaled(0.5);
        let (vals, vecs) = jacobi_eigen(&sym).unwrap();
        let mut lam = DenseMatrix::zeros(5, 5);
        for (i, &v) in vals.iter().enumerate() {
            lam.set(i, i, v);
        }
        let rebuilt = vecs.matmul(&lam).unwrap().matmul(&vecs.transpose()).unwrap();
        prop_assert!(rebuilt.max_abs_diff(&sym).unwrap() < 1e-8);
    }

    #[test]
    fn jacobi_trace_and_frobenius_preserved(a in arb_dense(4, 4)) {
        let sym = a.add(&a.transpose()).unwrap().scaled(0.5);
        let (vals, _) = jacobi_eigen(&sym).unwrap();
        let trace: f64 = (0..4).map(|i| sym.get(i, i)).sum();
        prop_assert!((vals.iter().sum::<f64>() - trace).abs() < 1e-9);
        let fro2: f64 = sym.as_slice().iter().map(|v| v * v).sum();
        let spec2: f64 = vals.iter().map(|v| v * v).sum();
        prop_assert!((fro2 - spec2).abs() < 1e-8 * (1.0 + fro2));
    }

    #[test]
    fn tridiag_eigen_matches_jacobi(
        diag in proptest::collection::vec(-5.0f64..5.0, 6),
        off in proptest::collection::vec(-3.0f64..3.0, 5)
    ) {
        let t = tridiag_eigen(&diag, &off).unwrap();
        let mut dense = DenseMatrix::zeros(6, 6);
        for i in 0..6 {
            dense.set(i, i, diag[i]);
        }
        for i in 0..5 {
            dense.set(i, i + 1, off[i]);
            dense.set(i + 1, i, off[i]);
        }
        let (jv, _) = jacobi_eigen(&dense).unwrap();
        for (a, b) in t.eigenvalues.iter().zip(&jv) {
            prop_assert!((a - b).abs() < 1e-8, "{} vs {}", a, b);
        }
    }

    #[test]
    fn tridiag_last_row_matches_full_bitwise(
        n in 1usize..40,
        diag in proptest::collection::vec(-5.0f64..5.0, 40),
        off in proptest::collection::vec(-3.0f64..3.0, 39)
    ) {
        assert_last_row_bitwise(&diag[..n], &off[..n - 1]);
    }

    #[test]
    fn tridiag_last_row_matches_full_across_splits(
        n in 2usize..40,
        diag in proptest::collection::vec(-5.0f64..5.0, 40),
        off in proptest::collection::vec(-3.0f64..3.0, 39),
        keep in proptest::collection::vec(0usize..3, 39)
    ) {
        // About a third of the off-diagonals are exactly zero, so QL splits
        // the matrix into independent blocks.
        let off: Vec<f64> = off[..n - 1]
            .iter()
            .zip(&keep)
            .map(|(&v, &k)| if k == 0 { 0.0 } else { v })
            .collect();
        assert_last_row_bitwise(&diag[..n], &off);
    }

    #[test]
    fn tridiag_last_row_matches_full_with_repeated_diagonal(
        n in 1usize..40,
        pick in proptest::collection::vec(0usize..3, 40),
        off in proptest::collection::vec(-3.0f64..3.0, 39)
    ) {
        let levels = [-1.0, 0.5, 2.0];
        let diag: Vec<f64> = pick[..n].iter().map(|&p| levels[p]).collect();
        assert_last_row_bitwise(&diag, &off[..n - 1]);
    }
}

#[test]
fn tridiag_last_row_edge_cases_match_full_bitwise() {
    let cases: [(&[f64], &[f64]); 4] = [
        (&[7.0], &[]),
        (&[3.0, 1.0, 2.0], &[0.0, 0.0]),
        (&[2.0; 6], &[1.0; 5]),
        (&[1.0, 1.0, 1.0, 1.0], &[0.0, 0.5, 0.0]),
    ];
    for (diag, off) in cases {
        assert_last_row_bitwise(diag, off);
    }
    let empty = tridiag_eigen_last_row(&[], &[]).unwrap();
    assert!(empty.eigenvalues.is_empty() && empty.last_row.is_empty());
}
