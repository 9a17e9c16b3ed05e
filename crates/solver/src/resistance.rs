//! Effective-resistance computation: exact and sketched.

use std::sync::{Mutex, PoisonError};

use crate::lanczos::XorShift;
use crate::{LaplacianSolver, SolverError};
use cirstag_graph::Graph;
use cirstag_linalg::{par, DenseMatrix};

/// Number of sketch right-hand sides solved together as one block-CG panel.
///
/// The probes are cut into panels of this width and the panels are solved
/// concurrently. A wider panel shares each CSR traversal among more columns,
/// but its converged columns keep riding the traversal until its slowest
/// column finishes, and it leaves fewer panels to spread over the pool. For
/// the 48-probe Phase-2 sketch, 12 (four panels) tied 8 for fastest of
/// {8, 12, 16, 24, 32} at two threads and was within 10% of 16 at one. It
/// is a constant, not a function of the pool size: the sketch's bits do not
/// depend on it, and its schedule should not depend on the host either.
pub const SKETCH_PANEL_WIDTH: usize = 12;

/// Computes effective resistances `R_eff(p, q) = (e_p − e_q)ᵀ L⁺ (e_p − e_q)`
/// over a connected graph.
///
/// Two construction modes:
///
/// - [`ResistanceEstimator::exact`] answers each query with one Laplacian
///   solve — precise, but `O(queries · solve)`.
/// - [`ResistanceEstimator::sketched`] follows Spielman–Srivastava: resistances
///   are squared distances between rows of `Z = (1/√t) Q W^{1/2} B L⁺`, where
///   `Q` is a `t × |E|` Rademacher matrix. Building `Z` costs `t` Laplacian
///   solves; each query is then `O(t)`. With `t = O(log n / ε²)` all
///   resistances are preserved within `1 ± ε` with high probability.
///
/// # Example
///
/// ```
/// use cirstag_graph::Graph;
/// use cirstag_solver::ResistanceEstimator;
///
/// # fn main() -> Result<(), cirstag_solver::SolverError> {
/// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])?;
/// let est = ResistanceEstimator::sketched(&g, 200, 42)?;
/// let r = est.query(0, 1)?;
/// assert!((r - 2.0 / 3.0).abs() < 0.1); // triangle of unit resistors
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ResistanceEstimator {
    mode: Mode,
    dim: usize,
}

#[derive(Debug)]
enum Mode {
    Exact(Box<LaplacianSolver>),
    /// Node-major `n × t` sketch already scaled by `1/√t`: row `i` holds
    /// node `i`'s `t` projections, so a query reads two contiguous rows.
    Sketch {
        rows: Vec<f64>,
        probes: usize,
    },
}

impl ResistanceEstimator {
    /// Builds an exact estimator (one Laplacian solve per query).
    ///
    /// # Errors
    ///
    /// Fails when `g` is disconnected.
    pub fn exact(g: &Graph) -> Result<Self, SolverError> {
        let solver = LaplacianSolver::new(g)?;
        Ok(ResistanceEstimator {
            dim: solver.dim(),
            mode: Mode::Exact(Box::new(solver)),
        })
    }

    /// Builds a Johnson–Lindenstrauss sketched estimator with `num_probes`
    /// random projections (typically `O(log |V|)`; 64–256 is plenty for the
    /// ranking use-cases in CirSTAG).
    ///
    /// # Errors
    ///
    /// - [`SolverError::InvalidArgument`] when `num_probes == 0`.
    /// - Fails when `g` is disconnected or a solve does not converge.
    pub fn sketched(g: &Graph, num_probes: usize, seed: u64) -> Result<Self, SolverError> {
        if num_probes == 0 {
            return Err(SolverError::InvalidArgument {
                reason: "num_probes must be positive".to_string(),
            });
        }
        // Ranking-grade tolerance: resistance sketches feed η-score
        // orderings, so a 1e-6 relative residual is ample and much more
        // robust on ill-conditioned manifold Laplacians than the default.
        // The solver is pinned to the tree rung (non-escalating): the panels
        // below share it concurrently, and an escalating solver's rung would
        // be shared across them too.
        let solver = LaplacianSolver::with_tree_preconditioner(
            g,
            crate::CgOptions {
                tol: 1e-6,
                max_iter: 10_000,
            },
        )?;
        let n = g.num_nodes();
        let edges = g.edges();
        let inv_sqrt_t = 1.0 / (num_probes as f64).sqrt();
        // The Rademacher right-hand sides consume one RNG stream in probe
        // order, one sign per edge per probe. Every panel but the last is
        // full, so panel `p` starts `p · W · |E|` draws into the stream; a
        // serial pre-pass records the stream state at each panel start, and
        // each panel rebuilds its own right-hand sides from that state with
        // exactly the signs of the sequential construction.
        let num_panels = num_probes.div_ceil(SKETCH_PANEL_WIDTH);
        let mut rng = XorShift::new(seed);
        let mut panel_rngs = Vec::with_capacity(num_panels);
        for p in 0..num_panels {
            if p > 0 {
                for _ in 0..SKETCH_PANEL_WIDTH * edges.len() {
                    rng.next_u64();
                }
            }
            panel_rngs.push(rng.clone());
        }
        // Panels are independent block solves against one shared solver
        // (`solve_block` checks out a workspace per call), so they fan out
        // across the pool; the lowest failing panel's error surfaces. Column
        // `j` of a block solve reproduces the scalar CG solve of probe `j`
        // bit for bit for any panel partition and thread count, and a panel
        // writes only its own probe columns of the sketch, so the sketch is
        // independent of the schedule. Only the panels in flight hold
        // right-hand sides or solutions.
        let sketch = Mutex::new(vec![0.0; n * num_probes]);
        par::try_map_indexed(num_panels, |p| {
            let start = p * SKETCH_PANEL_WIDTH;
            let width = SKETCH_PANEL_WIDTH.min(num_probes - start);
            let mut rng = panel_rngs[p].clone();
            let mut panel = DenseMatrix::zeros(n, width);
            let data = panel.as_mut_slice();
            for j in 0..width {
                // b = Bᵀ W^{1/2} q with Rademacher q over edges.
                for e in edges {
                    let s = rng.next_sign() * e.weight.sqrt();
                    data[e.u * width + j] += s;
                    data[e.v * width + j] -= s;
                }
            }
            let x = solver.solve_block(&panel)?;
            let mut rows = sketch.lock().unwrap_or_else(PoisonError::into_inner);
            for (row, xr) in rows
                .chunks_exact_mut(num_probes)
                .zip(x.as_slice().chunks_exact(width))
            {
                for (z, &v) in row[start..start + width].iter_mut().zip(xr) {
                    *z = v * inv_sqrt_t;
                }
            }
            Ok::<(), SolverError>(())
        })?;
        Ok(ResistanceEstimator {
            dim: n,
            mode: Mode::Sketch {
                rows: sketch.into_inner().unwrap_or_else(PoisonError::into_inner),
                probes: num_probes,
            },
        })
    }

    /// Number of nodes in the underlying graph.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns `true` when this estimator answers queries from a sketch.
    pub fn is_sketched(&self) -> bool {
        matches!(self.mode, Mode::Sketch { .. })
    }

    /// Effective resistance between `p` and `q`.
    ///
    /// # Errors
    ///
    /// - [`SolverError::InvalidArgument`] when an index is out of bounds.
    /// - Exact mode propagates solve failures.
    pub fn query(&self, p: usize, q: usize) -> Result<f64, SolverError> {
        if p >= self.dim || q >= self.dim {
            return Err(SolverError::InvalidArgument {
                reason: format!("node pair ({p}, {q}) out of bounds for {} nodes", self.dim),
            });
        }
        if p == q {
            return Ok(0.0);
        }
        match &self.mode {
            Mode::Exact(solver) => solver.effective_resistance(p, q),
            Mode::Sketch { rows, probes } => {
                // Summed in probe order: the η scores' pinned bits depend on it.
                let row_p = &rows[p * probes..(p + 1) * probes];
                let row_q = &rows[q * probes..(q + 1) * probes];
                let mut acc = 0.0;
                for (a, b) in row_p.iter().zip(row_q) {
                    let d = a - b;
                    acc += d * d;
                }
                Ok(acc)
            }
        }
    }

    /// Effective resistance of every edge of `g`, in edge-id order.
    ///
    /// # Errors
    ///
    /// Propagates [`ResistanceEstimator::query`] failures; also fails when
    /// `g`'s node count differs from the estimator's.
    pub fn edge_resistances(&self, g: &Graph) -> Result<Vec<f64>, SolverError> {
        if g.num_nodes() != self.dim {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim,
                actual: g.num_nodes(),
            });
        }
        // Queries are independent (shared read-only sketch or per-query
        // solves against a `&self` solver), so the batch fans out across the
        // pool in edge-id order.
        let edges = g.edges();
        par::try_map_indexed(edges.len(), |eid| {
            let e = &edges[eid];
            self.query(e.u, e.v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let id = i * n + j;
                if j + 1 < n {
                    edges.push((id, id + 1, 1.0));
                }
                if i + 1 < n {
                    edges.push((id, id + n, 1.0));
                }
            }
        }
        Graph::from_edges(n * n, &edges).unwrap()
    }

    #[test]
    fn exact_series_parallel() {
        // Two parallel paths of resistances 2 and 2 => 1.
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let est = ResistanceEstimator::exact(&g).unwrap();
        assert!((est.query(0, 3).unwrap() - 1.0).abs() < 1e-8);
        assert!(!est.is_sketched());
    }

    #[test]
    fn sketch_matches_exact_within_tolerance() {
        let g = grid(5);
        let exact = ResistanceEstimator::exact(&g).unwrap();
        let sketch = ResistanceEstimator::sketched(&g, 400, 7).unwrap();
        assert!(sketch.is_sketched());
        let pairs = [(0usize, 24usize), (0, 1), (12, 13), (4, 20)];
        for &(p, q) in &pairs {
            let e = exact.query(p, q).unwrap();
            let s = sketch.query(p, q).unwrap();
            assert!(
                (s - e).abs() / e < 0.25,
                "pair ({p},{q}): sketch {s} vs exact {e}"
            );
        }
    }

    #[test]
    fn sketch_preserves_ranking_mostly() {
        let g = grid(4);
        let exact = ResistanceEstimator::exact(&g).unwrap();
        let sketch = ResistanceEstimator::sketched(&g, 300, 3).unwrap();
        let re = exact.edge_resistances(&g).unwrap();
        let rs = sketch.edge_resistances(&g).unwrap();
        // Spearman-ish check: correlation of the two vectors is high.
        let n = re.len() as f64;
        let me = re.iter().sum::<f64>() / n;
        let ms = rs.iter().sum::<f64>() / n;
        let cov: f64 = re.iter().zip(&rs).map(|(a, b)| (a - me) * (b - ms)).sum();
        let va: f64 = re.iter().map(|a| (a - me) * (a - me)).sum();
        let vb: f64 = rs.iter().map(|b| (b - ms) * (b - ms)).sum();
        let corr = cov / (va.sqrt() * vb.sqrt());
        assert!(corr > 0.9, "correlation {corr}");
    }

    #[test]
    fn edge_resistance_bounded_by_inverse_weight() {
        let g = grid(4);
        let est = ResistanceEstimator::exact(&g).unwrap();
        for e in g.edges() {
            let r = est.query(e.u, e.v).unwrap();
            assert!(r <= 1.0 / e.weight + 1e-9);
            assert!(r > 0.0);
        }
    }

    #[test]
    fn sum_of_edge_weight_times_resistance_is_n_minus_one() {
        // Foster's theorem: Σ_e w_e R_eff(e) = |V| − 1.
        let g = grid(4);
        let est = ResistanceEstimator::exact(&g).unwrap();
        let total: f64 = g
            .edges()
            .iter()
            .map(|e| e.weight * est.query(e.u, e.v).unwrap())
            .sum();
        assert!((total - 15.0).abs() < 1e-6, "foster sum {total}");
    }

    #[test]
    fn argument_validation() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let est = ResistanceEstimator::exact(&g).unwrap();
        assert!(est.query(0, 9).is_err());
        assert_eq!(est.query(1, 1).unwrap(), 0.0);
        assert!(ResistanceEstimator::sketched(&g, 0, 1).is_err());
        let other = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert!(est.edge_resistances(&other).is_err());
    }

    #[test]
    fn panel_streamed_sketch_matches_per_probe_solves_bitwise() {
        // Two full panels plus a ragged one-probe tail; every probe must
        // equal the historical one-solve-per-probe construction bit for bit.
        let g = grid(5);
        let num_probes = 2 * SKETCH_PANEL_WIDTH + 1;
        let seed = 11;
        let est = ResistanceEstimator::sketched(&g, num_probes, seed).unwrap();
        let Mode::Sketch { rows, probes } = &est.mode else {
            panic!("expected a sketched estimator");
        };
        assert_eq!(*probes, num_probes);
        let solver = LaplacianSolver::with_tree_preconditioner(
            &g,
            crate::CgOptions {
                tol: 1e-6,
                max_iter: 10_000,
            },
        )
        .unwrap();
        let n = g.num_nodes();
        assert_eq!(rows.len(), n * num_probes);
        let mut rng = XorShift::new(seed);
        let inv_sqrt_t = 1.0 / (num_probes as f64).sqrt();
        for i in 0..num_probes {
            let mut b = vec![0.0; n];
            for e in g.edges() {
                let s = rng.next_sign() * e.weight.sqrt();
                b[e.u] += s;
                b[e.v] -= s;
            }
            let mut x = solver.solve(&b).unwrap();
            for v in &mut x {
                *v *= inv_sqrt_t;
            }
            for (node, c) in x.iter().enumerate() {
                let a = rows[node * num_probes + i];
                assert_eq!(a.to_bits(), c.to_bits(), "probe {i}, node {node}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(3);
        let a = ResistanceEstimator::sketched(&g, 64, 5).unwrap();
        let b = ResistanceEstimator::sketched(&g, 64, 5).unwrap();
        assert_eq!(a.query(0, 8).unwrap(), b.query(0, 8).unwrap());
    }
}
