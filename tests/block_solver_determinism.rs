//! Blocked-solver determinism: effective-resistance scores computed through
//! the block-CG path must be bit-identical to per-probe scalar CG solves,
//! and invariant across worker-thread counts.
//!
//! The block solver advances every probe column off a single CSR traversal,
//! but its per-column reductions accumulate in the same fixed row order as
//! the scalar loop, so column `j` of `solve_block` is the *same float
//! sequence* as a scalar `solve` of that column — at any pool size. The
//! resistance sketch solves its probe panels concurrently on that basis, so
//! its edge resistances are checked the same way.
//!
//! Everything runs inside a single `#[test]` because the thread count is
//! process-global; separate tests would race on it under the parallel test
//! harness.

use cirstag_suite::graph::Graph;
use cirstag_suite::linalg::{par, DenseMatrix};
use cirstag_suite::solver::{CgOptions, LaplacianSolver, ResistanceEstimator, SKETCH_PANEL_WIDTH};

/// CG options the resistance sketch builds its tree-preconditioned solver
/// with.
const SKETCH_CG: CgOptions = CgOptions {
    tol: 1e-6,
    max_iter: 10_000,
};

/// `side × side` grid with mildly heterogeneous weights, large enough that
/// the panel SpMM crosses the parallel-dispatch threshold.
fn grid(side: usize) -> Graph {
    let n = side * side;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            if c + 1 < side {
                edges.push((i, i + 1, 1.0 + ((r + c) % 3) as f64 * 0.25));
            }
            if r + 1 < side {
                edges.push((i, i + side, 1.0 + ((r * c) % 2) as f64 * 0.5));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("grid builds")
}

#[test]
fn block_resistance_scores_match_per_probe_cg_across_thread_counts() {
    let g = grid(9); // 81 nodes
    let n = g.num_nodes();
    // Probe the first 13 edges (odd width exercises the ragged panel tail).
    let probes: Vec<(usize, usize, f64)> = g
        .edges()
        .iter()
        .take(13)
        .map(|e| (e.u, e.v, e.weight))
        .collect();
    let k = probes.len();

    let mut per_thread_scores: Vec<Vec<f64>> = Vec::new();
    for &threads in &[1usize, 2, 8] {
        par::set_num_threads(threads);
        let solver = LaplacianSolver::new(&g).expect("solver builds");

        // One RHS column per probe edge: b = e_u − e_v.
        let mut b = DenseMatrix::zeros(n, k);
        for (j, &(u, v, _)) in probes.iter().enumerate() {
            b.set(u, j, 1.0);
            b.set(v, j, -1.0);
        }
        let x = solver.solve_block(&b).expect("block solve");

        // Reference: one scalar CG solve per probe, same solver, same rung.
        let mut scores = Vec::with_capacity(k);
        for (j, &(u, v, w)) in probes.iter().enumerate() {
            let mut rhs = vec![0.0; n];
            rhs[u] = 1.0;
            rhs[v] = -1.0;
            let xs = solver.solve(&rhs).expect("scalar solve");
            let scalar_score = w * (xs[u] - xs[v]);
            let block_score = w * (x.get(u, j) - x.get(v, j));
            assert!(block_score.is_finite() && block_score > 0.0);
            assert_eq!(
                block_score.to_bits(),
                scalar_score.to_bits(),
                "probe {j} ({u},{v}) diverges from the scalar path at {threads} threads"
            );
            scores.push(block_score);
        }
        per_thread_scores.push(scores);
    }
    par::set_num_threads(0);

    // Thread-count invariance: every setting produced the same bits.
    let reference = &per_thread_scores[0];
    for (i, run) in per_thread_scores.iter().enumerate().skip(1) {
        for (j, (a, b)) in reference.iter().zip(run).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "probe {j} diverges at thread setting #{i}"
            );
        }
    }

    // The sketch solves its probe panels concurrently: one panel, a ragged
    // panel, exactly one full panel, a full panel plus a one-probe tail, and
    // the pipeline's 48 probes.
    let w = SKETCH_PANEL_WIDTH;
    for num_probes in [1, w - 1, w, w + 1, 48] {
        sketch_matches_per_probe_solves_across_thread_counts(&g, num_probes, 0x5EED);
    }
}

/// The sketch's sign stream: xorshift64* seeded as the solver crate seeds
/// it, one Rademacher sign per edge per probe, in probe order.
struct SignStream(u64);

impl SignStream {
    fn new(seed: u64) -> Self {
        SignStream(seed ^ 0x9e37_79b9_7f4a_7c15 | 1)
    }

    fn next_sign(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        if self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// `ResistanceEstimator::sketched` at 1, 2 and 8 threads must produce the
/// same edge-resistance bits as one scalar tree-preconditioned CG solve per
/// probe, scaled by `1/√t` and summed in probe order.
fn sketch_matches_per_probe_solves_across_thread_counts(g: &Graph, num_probes: usize, seed: u64) {
    let n = g.num_nodes();
    let solver = LaplacianSolver::with_tree_preconditioner(g, SKETCH_CG).expect("solver builds");
    let inv_sqrt_t = 1.0 / (num_probes as f64).sqrt();
    let mut signs = SignStream::new(seed);
    let probes: Vec<Vec<f64>> = (0..num_probes)
        .map(|_| {
            let mut b = vec![0.0; n];
            for e in g.edges() {
                let s = signs.next_sign() * e.weight.sqrt();
                b[e.u] += s;
                b[e.v] -= s;
            }
            let mut x = solver.solve(&b).expect("scalar solve");
            for v in &mut x {
                *v *= inv_sqrt_t;
            }
            x
        })
        .collect();
    let expected: Vec<f64> = g
        .edges()
        .iter()
        .map(|e| {
            let mut acc = 0.0;
            for x in &probes {
                let d = x[e.u] - x[e.v];
                acc += d * d;
            }
            acc
        })
        .collect();

    for threads in [1usize, 2, 8] {
        par::set_num_threads(threads);
        let sketch = ResistanceEstimator::sketched(g, num_probes, seed).expect("sketch builds");
        let got = sketch.edge_resistances(g).expect("edge resistances");
        assert_eq!(got.len(), expected.len());
        for (eid, (a, b)) in got.iter().zip(&expected).enumerate() {
            assert!(a.is_finite() && *a > 0.0);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{num_probes}-probe sketch: edge {eid} diverges from per-probe solves at {threads} threads"
            );
        }
    }
    par::set_num_threads(0);
}
