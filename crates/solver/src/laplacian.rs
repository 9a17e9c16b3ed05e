//! Deflated solver for connected-graph Laplacian systems, with an optional
//! preconditioner fallback ladder.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::{
    conjugate_gradient_block_into, conjugate_gradient_into, CgOptions, CgStats, CsrOperator,
    JacobiPreconditioner, Preconditioner, SolverError, SolverWorkspace, TreePreconditioner,
};
use cirstag_graph::{Graph, GraphError};
use cirstag_linalg::vecops;
use cirstag_linalg::{jacobi_eigen, CsrMatrix, DenseMatrix};

/// A rung of the Laplacian solver's preconditioner fallback ladder, ordered
/// from cheapest to most robust.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// Unpreconditioned CG.
    Identity,
    /// Jacobi (diagonal) preconditioned CG — the historical default.
    Jacobi,
    /// Low-stretch spanning-tree preconditioned CG.
    Tree,
    /// Direct dense pseudoinverse solve via a full eigendecomposition.
    Dense,
}

impl LadderRung {
    /// Stable lower-case name used in diagnostics and fallback events.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::Identity => "identity",
            LadderRung::Jacobi => "jacobi",
            LadderRung::Tree => "tree",
            LadderRung::Dense => "dense",
        }
    }

    /// The next, more robust rung (`None` past the dense solve).
    pub fn next(self) -> Option<LadderRung> {
        match self {
            LadderRung::Identity => Some(LadderRung::Jacobi),
            LadderRung::Jacobi => Some(LadderRung::Tree),
            LadderRung::Tree => Some(LadderRung::Dense),
            LadderRung::Dense => None,
        }
    }
}

/// One escalation step taken by the solver's fallback ladder.
#[derive(Debug, Clone)]
pub struct SolveEvent {
    /// Rung that failed.
    pub from: LadderRung,
    /// Rung the solver escalated to.
    pub to: LadderRung,
    /// Human-readable failure cause (the underlying error message).
    pub cause: String,
    /// Residual norm at the point of failure, when the failure reported one.
    pub residual: Option<f64>,
    /// Wall-clock milliseconds spent on the failing rung.
    pub elapsed_ms: u64,
}

/// Cached dense eigendecomposition backing the terminal ladder rung.
#[derive(Debug)]
struct DenseEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: DenseMatrix,
}

#[derive(Debug, Clone)]
struct LadderState {
    rung: LadderRung,
    jacobi: Option<Arc<JacobiPreconditioner>>,
    tree: Option<Arc<TreePreconditioner>>,
    dense: Option<Arc<DenseEigen>>,
    events: Vec<SolveEvent>,
    warnings: Vec<String>,
}

/// Preconditioner view for a single CG rung.
enum RungPreconditioner {
    Identity,
    Jacobi(Arc<JacobiPreconditioner>),
    Tree(Arc<TreePreconditioner>),
}

impl Preconditioner for RungPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolverError> {
        match self {
            RungPreconditioner::Identity => {
                if r.len() != z.len() {
                    return Err(SolverError::DimensionMismatch {
                        expected: r.len(),
                        actual: z.len(),
                    });
                }
                z.copy_from_slice(r);
                Ok(())
            }
            RungPreconditioner::Jacobi(p) => p.apply(r, z),
            RungPreconditioner::Tree(p) => p.apply(r, z),
        }
    }

    fn apply_panel(
        &self,
        r: &[f64],
        z: &mut [f64],
        ncols: usize,
        ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        match self {
            RungPreconditioner::Identity => {
                if r.len() != z.len() {
                    return Err(SolverError::DimensionMismatch {
                        expected: r.len(),
                        actual: z.len(),
                    });
                }
                z.copy_from_slice(r);
                Ok(())
            }
            RungPreconditioner::Jacobi(p) => p.apply_panel(r, z, ncols, ws),
            RungPreconditioner::Tree(p) => p.apply_panel(r, z, ncols, ws),
        }
    }
}

/// Solves `L x = b` for the Laplacian of a *connected* graph.
///
/// The Laplacian of a connected graph has a one-dimensional nullspace spanned
/// by the all-ones vector. This solver restricts the system to the orthogonal
/// complement: the right-hand side is centered (projected to mean zero) and a
/// preconditioned CG iteration runs entirely inside the range of `L`,
/// returning the mean-zero (minimum-norm) solution. This realizes the
/// pseudoinverse application `x = L⁺ b` used throughout Phases 2–3.
///
/// # Fallback ladder
///
/// Constructed via [`LaplacianSolver::with_ladder`], the solver escalates
/// through progressively more robust strategies whenever a solve fails:
/// unpreconditioned CG → Jacobi → low-stretch tree → direct dense
/// eigendecomposition. Escalation is *sticky* (later solves start at the rung
/// that last succeeded) and every step is recorded as a [`SolveEvent`]
/// retrievable through [`LaplacianSolver::take_events`]. The historical
/// constructors ([`LaplacianSolver::new`],
/// [`LaplacianSolver::with_tree_preconditioner`]) pin the solver to a single
/// rung and fail fast, preserving their exact pre-ladder behavior.
///
/// # Example
///
/// ```
/// use cirstag_graph::Graph;
/// use cirstag_solver::LaplacianSolver;
///
/// # fn main() -> Result<(), cirstag_solver::SolverError> {
/// // Two resistors of 1 Ω in series: R_eff(0, 2) = 2 Ω.
/// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?;
/// let solver = LaplacianSolver::new(&g)?;
/// let r = solver.effective_resistance(0, 2)?;
/// assert!((r - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LaplacianSolver {
    laplacian: CsrMatrix,
    graph: Graph,
    options: CgOptions,
    escalate: bool,
    state: Mutex<LadderState>,
    workspace: Mutex<SolverWorkspace>,
}

impl Clone for LaplacianSolver {
    fn clone(&self) -> Self {
        let state = self.lock().clone();
        LaplacianSolver {
            laplacian: self.laplacian.clone(),
            graph: self.graph.clone(),
            options: self.options,
            escalate: self.escalate,
            state: Mutex::new(state),
            // Scratch buffers are cheap to re-warm; clones start cold rather
            // than duplicating pooled allocations.
            workspace: Mutex::new(SolverWorkspace::new()),
        }
    }
}

impl LaplacianSolver {
    /// Builds a solver for the Laplacian of `g` with default CG options.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Graph`] wrapping
    /// [`GraphError::Disconnected`] when `g` is not connected (the nullspace
    /// deflation below assumes a single component).
    pub fn new(g: &Graph) -> Result<Self, SolverError> {
        Self::with_options(g, CgOptions::default())
    }

    /// Builds a solver with explicit CG options.
    ///
    /// # Errors
    ///
    /// Same as [`LaplacianSolver::new`].
    pub fn with_options(g: &Graph, options: CgOptions) -> Result<Self, SolverError> {
        Self::build(g, options, LadderRung::Jacobi, false)
    }

    /// Builds a solver preconditioned by a low-stretch spanning tree
    /// ([`TreePreconditioner`]) — dramatically more robust than Jacobi on
    /// graphs whose edge weights span many orders of magnitude, such as the
    /// kNN manifolds of Phase 2.
    ///
    /// # Errors
    ///
    /// Same as [`LaplacianSolver::new`].
    pub fn with_tree_preconditioner(g: &Graph, options: CgOptions) -> Result<Self, SolverError> {
        Self::build(g, options, LadderRung::Tree, false)
    }

    /// Builds an *escalating* solver that starts at `start` and climbs the
    /// fallback ladder ([`LadderRung::Identity`] → Jacobi → tree → dense) on
    /// each solve failure instead of surfacing the first error.
    ///
    /// # Errors
    ///
    /// Same as [`LaplacianSolver::new`], plus preconditioner construction
    /// failures for the starting rung.
    pub fn with_ladder(
        g: &Graph,
        options: CgOptions,
        start: LadderRung,
    ) -> Result<Self, SolverError> {
        Self::build(g, options, start, true)
    }

    fn build(
        g: &Graph,
        options: CgOptions,
        start: LadderRung,
        escalate: bool,
    ) -> Result<Self, SolverError> {
        if !g.is_connected() {
            return Err(GraphError::Disconnected.into());
        }
        let laplacian = g.laplacian();
        let mut state = LadderState {
            rung: start,
            jacobi: None,
            tree: None,
            dense: None,
            events: Vec::new(),
            warnings: Vec::new(),
        };
        // Build the starting preconditioner eagerly so constructor-time
        // failures (and the Jacobi clamp warning) surface immediately —
        // matching the historical constructors exactly.
        match start {
            LadderRung::Jacobi => {
                let jacobi = JacobiPreconditioner::from_matrix(&laplacian);
                if jacobi.clamped_entries() > 0 {
                    state.warnings.push(format!(
                        "jacobi preconditioner clamped {} non-positive diagonal entries to 1",
                        jacobi.clamped_entries()
                    ));
                }
                state.jacobi = Some(Arc::new(jacobi));
            }
            LadderRung::Tree => {
                state.tree = Some(Arc::new(TreePreconditioner::new(g, 0x7e3)?));
            }
            LadderRung::Identity | LadderRung::Dense => {}
        }
        Ok(LaplacianSolver {
            laplacian,
            graph: g.clone(),
            options,
            escalate,
            state: Mutex::new(state),
            workspace: Mutex::new(SolverWorkspace::new()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LadderState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks the shared scratch workspace out of its mutex so a solve can
    /// run without holding the lock; pair with [`Self::return_workspace`].
    fn take_workspace(&self) -> SolverWorkspace {
        std::mem::take(
            &mut *self
                .workspace
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    fn return_workspace(&self, ws: SolverWorkspace) {
        self.workspace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb(ws);
    }

    /// Dimension of the system (number of graph nodes).
    #[inline]
    pub fn dim(&self) -> usize {
        self.laplacian.nrows()
    }

    /// Borrows the assembled Laplacian.
    #[inline]
    pub fn laplacian(&self) -> &CsrMatrix {
        &self.laplacian
    }

    /// The rung the next solve will start on.
    pub fn current_rung(&self) -> LadderRung {
        self.lock().rung
    }

    /// Drains the escalation events recorded since the last call.
    pub fn take_events(&self) -> Vec<SolveEvent> {
        std::mem::take(&mut self.lock().events)
    }

    /// Drains the non-fatal warnings recorded since the last call.
    pub fn take_warnings(&self) -> Vec<String> {
        std::mem::take(&mut self.lock().warnings)
    }

    /// Solves `L x = b`, returning the mean-zero solution.
    ///
    /// `b` is centered internally, so right-hand sides with a nonzero mean
    /// are interpreted as their projection onto the range of `L`.
    ///
    /// For escalating solvers (see [`LaplacianSolver::with_ladder`]), a
    /// failure on the current rung advances to the next rung and retries;
    /// only a failure on the terminal dense rung is returned to the caller.
    ///
    /// # Errors
    ///
    /// - [`SolverError::DimensionMismatch`] when `b.len() != self.dim()`.
    /// - [`SolverError::NoConvergence`] when the (final) strategy fails.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `L x = b` into a caller-provided vector — the allocation-free
    /// form of [`LaplacianSolver::solve`] (steady-state solves reuse pooled
    /// scratch buffers once the internal workspace is warm).
    ///
    /// # Errors
    ///
    /// Same as [`LaplacianSolver::solve`], plus
    /// [`SolverError::DimensionMismatch`] when `x.len() != self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), SolverError> {
        if b.len() != self.dim() {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim(),
                actual: b.len(),
            });
        }
        if x.len() != self.dim() {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim(),
                actual: x.len(),
            });
        }
        let mut ws = self.take_workspace();
        let mut rhs = ws.take(b.len());
        rhs.copy_from_slice(b);
        vecops::center(&mut rhs);
        let outcome = self.solve_ladder(&rhs, x, &mut ws);
        ws.put(rhs);
        self.return_workspace(ws);
        outcome
    }

    /// The rung-escalation loop shared by the scalar entry points.
    fn solve_ladder(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        loop {
            let rung = self.current_rung();
            // cirstag-lint: allow(nondeterminism) -- solver wall-clock diagnostics only; recorded in FallbackEvent, not results
            let started = Instant::now();
            let attempt = match rung {
                LadderRung::Dense => self.dense_solve_into(rhs, x),
                cg_rung => self.cg_solve_into(cg_rung, rhs, x, ws),
            };
            match attempt {
                Ok(()) => {
                    // Round-off can leak a small component along the
                    // nullspace; remove it so the result is exactly the
                    // pseudoinverse image.
                    vecops::center(x);
                    return Ok(());
                }
                Err(err) => self.escalate_or_fail(rung, err, started)?,
            }
        }
    }

    /// Records an escalation event and advances the ladder, or propagates
    /// the error when escalation is disabled or exhausted.
    fn escalate_or_fail(
        &self,
        rung: LadderRung,
        err: SolverError,
        started: Instant,
    ) -> Result<(), SolverError> {
        if !self.escalate {
            return Err(err);
        }
        let Some(next) = rung.next() else {
            return Err(err);
        };
        let residual = match &err {
            SolverError::NoConvergence { residual, .. } => Some(*residual),
            _ => None,
        };
        let mut state = self.lock();
        state.events.push(SolveEvent {
            from: rung,
            to: next,
            cause: err.to_string(),
            residual,
            // cirstag-lint: allow(nondeterminism) -- solver wall-clock diagnostics only; recorded in FallbackEvent, not results
            elapsed_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
        });
        state.rung = next;
        Ok(())
    }

    /// Solves `L X = B` for every column of `B` in lockstep through the
    /// block CG kernel, sharing one CSR traversal per iteration across all
    /// right-hand sides.
    ///
    /// Column `j` of the result is bit-identical to
    /// [`LaplacianSolver::solve`] on column `j` of `B` whenever both are
    /// answered by the same ladder rung: the block iteration advances each
    /// column with exactly the scalar update sequence, and converged columns
    /// are frozen before any escalation, so one diverging column cannot
    /// poison the others — only the failing columns are re-solved on the
    /// next rung.
    ///
    /// Concurrent calls on one solver are supported: each call checks the
    /// pooled workspace out of its mutex, and a caller that finds it taken
    /// starts a fresh one, so neither call sees the other's buffers and each
    /// result is the same as from a serial call. The ladder position is
    /// shared, though: when an escalating ([`LaplacianSolver::with_ladder`])
    /// solver climbs a rung in one call, concurrent and later calls start on
    /// that rung, so which rung answers a panel can depend on the schedule.
    /// Callers that need schedule-independent bits from concurrent panels
    /// (the resistance sketch) use a non-escalating solver.
    ///
    /// # Errors
    ///
    /// - [`SolverError::DimensionMismatch`] when `b.nrows() != self.dim()`.
    /// - [`SolverError::NoConvergence`] when columns remain unconverged on
    ///   the final strategy.
    pub fn solve_block(&self, b: &DenseMatrix) -> Result<DenseMatrix, SolverError> {
        if b.nrows() != self.dim() {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim(),
                actual: b.nrows(),
            });
        }
        let mut x = DenseMatrix::zeros(b.nrows(), b.ncols());
        if b.ncols() == 0 {
            return Ok(x);
        }
        let mut ws = self.take_workspace();
        let outcome = self.solve_block_ladder(b, &mut x, &mut ws);
        self.return_workspace(ws);
        outcome.map(|()| x)
    }

    /// The rung-escalation loop of [`LaplacianSolver::solve_block`]:
    /// attempts the pending columns on the current rung, freezes the
    /// converged ones, and escalates with the survivors compacted into a
    /// smaller panel.
    fn solve_block_ladder(
        &self,
        b: &DenseMatrix,
        x: &mut DenseMatrix,
        ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        let n = self.dim();
        let k = b.ncols();
        let mut col_buf = ws.take(n);
        // Center every right-hand side through the same contiguous-slice
        // `vecops::center` the scalar path uses, so each column's rounding
        // matches `solve` bitwise.
        let mut centered = DenseMatrix::zeros(n, k);
        for j in 0..k {
            for (i, v) in col_buf.iter_mut().enumerate() {
                *v = b.get(i, j);
            }
            vecops::center(&mut col_buf);
            for (i, v) in col_buf.iter().enumerate() {
                centered.set(i, j, *v);
            }
        }
        let mut pending: Vec<usize> = (0..k).collect();
        let mut stats: Vec<CgStats> = Vec::with_capacity(k);
        let outcome = loop {
            let rung = self.current_rung();
            // cirstag-lint: allow(nondeterminism) -- solver wall-clock diagnostics only; recorded in FallbackEvent, not results
            let started = Instant::now();
            let attempt = self.block_rung_attempt(
                rung,
                &centered,
                &mut pending,
                x,
                &mut col_buf,
                &mut stats,
                ws,
            );
            match attempt {
                Ok(()) => break Ok(()),
                Err(err) => {
                    if let Err(fatal) = self.escalate_or_fail(rung, err, started) {
                        break Err(fatal);
                    }
                }
            }
        };
        ws.put(col_buf);
        outcome
    }

    /// One ladder-rung attempt over the pending columns. On success the
    /// pending list is emptied; columns that fail to converge stay pending
    /// (converged siblings are centered and frozen into `x`) and the worst
    /// per-column statistics are reported as the rung's failure.
    #[allow(clippy::too_many_arguments)]
    fn block_rung_attempt(
        &self,
        rung: LadderRung,
        centered: &DenseMatrix,
        pending: &mut Vec<usize>,
        x: &mut DenseMatrix,
        col_buf: &mut [f64],
        stats: &mut Vec<CgStats>,
        ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        let n = self.dim();
        match rung {
            LadderRung::Dense => {
                // Terminal rung: direct pseudoinverse solve per column.
                let mut rhs = ws.take(n);
                let mut first_err = None;
                for &j in pending.iter() {
                    for (i, v) in rhs.iter_mut().enumerate() {
                        *v = centered.get(i, j);
                    }
                    match self.dense_solve_into(&rhs, col_buf) {
                        Ok(()) => {
                            vecops::center(col_buf);
                            for (i, v) in col_buf.iter().enumerate() {
                                x.set(i, j, *v);
                            }
                        }
                        Err(err) => {
                            first_err = Some(err);
                            break;
                        }
                    }
                }
                ws.put(rhs);
                match first_err {
                    Some(err) => Err(err),
                    None => {
                        pending.clear();
                        Ok(())
                    }
                }
            }
            cg_rung => {
                let pre = self.preconditioner_for(cg_rung)?;
                let op = CsrOperator::new(&self.laplacian);
                let m = pending.len();
                // Compact the still-unconverged columns into a dense panel.
                let mut panel_b = DenseMatrix::zeros(n, m);
                for (jj, &j) in pending.iter().enumerate() {
                    for i in 0..n {
                        panel_b.set(i, jj, centered.get(i, j));
                    }
                }
                let mut panel_x = DenseMatrix::zeros(n, m);
                conjugate_gradient_block_into(
                    &op,
                    &panel_b,
                    &pre,
                    self.options,
                    &mut panel_x,
                    stats,
                    ws,
                )?;
                let mut still = Vec::with_capacity(m);
                let mut worst_iterations = 0;
                let mut worst_residual = 0.0_f64;
                for (jj, &j) in pending.iter().enumerate() {
                    let st = stats[jj];
                    if st.converged {
                        for (i, v) in col_buf.iter_mut().enumerate() {
                            *v = panel_x.get(i, jj);
                        }
                        vecops::center(col_buf);
                        for (i, v) in col_buf.iter().enumerate() {
                            x.set(i, j, *v);
                        }
                    } else {
                        still.push(j);
                        worst_iterations = worst_iterations.max(st.iterations);
                        worst_residual = worst_residual.max(st.residual_norm);
                    }
                }
                *pending = still;
                if pending.is_empty() {
                    Ok(())
                } else {
                    Err(SolverError::NoConvergence {
                        algorithm: "laplacian block pcg",
                        iterations: worst_iterations,
                        residual: worst_residual,
                    })
                }
            }
        }
    }

    /// One CG attempt on a ladder rung, building (and caching) the rung's
    /// preconditioner on first use.
    fn cg_solve_into(
        &self,
        rung: LadderRung,
        rhs: &[f64],
        x: &mut [f64],
        ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        let pre = self.preconditioner_for(rung)?;
        let op = CsrOperator::new(&self.laplacian);
        let stats = conjugate_gradient_into(&op, rhs, &pre, self.options, x, ws)?;
        if !stats.converged {
            return Err(SolverError::NoConvergence {
                algorithm: "laplacian pcg",
                iterations: stats.iterations,
                residual: stats.residual_norm,
            });
        }
        Ok(())
    }

    fn preconditioner_for(&self, rung: LadderRung) -> Result<RungPreconditioner, SolverError> {
        match rung {
            LadderRung::Identity => Ok(RungPreconditioner::Identity),
            LadderRung::Jacobi => {
                let mut state = self.lock();
                if state.jacobi.is_none() {
                    let jacobi = JacobiPreconditioner::from_matrix(&self.laplacian);
                    if jacobi.clamped_entries() > 0 {
                        state.warnings.push(format!(
                            "jacobi preconditioner clamped {} non-positive diagonal entries to 1",
                            jacobi.clamped_entries()
                        ));
                    }
                    state.jacobi = Some(Arc::new(jacobi));
                }
                Ok(RungPreconditioner::Jacobi(
                    state.jacobi.as_ref().expect("just cached").clone(), // cirstag-lint: allow(no-panic-in-lib) -- the Option is populated a few lines above under the same lock
                ))
            }
            LadderRung::Tree => {
                let mut state = self.lock();
                if state.tree.is_none() {
                    let tree = TreePreconditioner::new(&self.graph, 0x7e3)?;
                    state.tree = Some(Arc::new(tree));
                }
                Ok(RungPreconditioner::Tree(
                    state.tree.as_ref().expect("just cached").clone(), // cirstag-lint: allow(no-panic-in-lib) -- the Option is populated a few lines above under the same lock
                ))
            }
            LadderRung::Dense => unreachable!("dense rung does not use CG"), // cirstag-lint: allow(no-panic-in-lib) -- cg_solve is never dispatched for the Dense rung; solve routes it to dense_solve
        }
    }

    /// Terminal ladder rung: `x = V Λ⁺ Vᵀ b` through a cached full
    /// eigendecomposition of the Laplacian. `O(n³)` once, `O(n²)` per solve.
    fn dense_solve_into(&self, rhs: &[f64], x: &mut [f64]) -> Result<(), SolverError> {
        // Failpoint: fail even the terminal rung so tests can observe ladder
        // exhaustion.
        if cirstag_linalg::fail::trigger("solver/dense-solve").is_some() {
            return Err(SolverError::NoConvergence {
                algorithm: "dense laplacian solve (failpoint)",
                iterations: 0,
                residual: f64::INFINITY,
            });
        }
        let eig = {
            let mut state = self.lock();
            if state.dense.is_none() {
                let (eigenvalues, eigenvectors) = jacobi_eigen(&self.laplacian.to_dense())?;
                state.dense = Some(Arc::new(DenseEigen {
                    eigenvalues,
                    eigenvectors,
                }));
            }
            state.dense.as_ref().expect("just cached").clone() // cirstag-lint: allow(no-panic-in-lib) -- the Option is populated a few lines above under the same lock
        };
        let n = rhs.len();
        let scale = eig
            .eigenvalues
            .iter()
            .fold(0.0_f64, |acc, v| acc.max(v.abs()))
            .max(1.0);
        let threshold = 1e-12 * scale;
        x.fill(0.0);
        for k in 0..n {
            let lam = eig.eigenvalues[k];
            if lam <= threshold {
                continue;
            }
            let mut coeff = 0.0;
            for i in 0..n {
                coeff += eig.eigenvectors.get(i, k) * rhs[i];
            }
            coeff /= lam;
            for i in 0..n {
                x[i] += coeff * eig.eigenvectors.get(i, k);
            }
        }
        Ok(())
    }

    /// Effective resistance between nodes `p` and `q`:
    /// `R_eff(p, q) = (e_p − e_q)ᵀ L⁺ (e_p − e_q)`.
    ///
    /// # Errors
    ///
    /// - [`SolverError::InvalidArgument`] when `p` or `q` is out of bounds.
    /// - Propagates solve failures.
    pub fn effective_resistance(&self, p: usize, q: usize) -> Result<f64, SolverError> {
        let n = self.dim();
        if p >= n || q >= n {
            return Err(SolverError::InvalidArgument {
                reason: format!("node pair ({p}, {q}) out of bounds for {n} nodes"),
            });
        }
        if p == q {
            return Ok(0.0);
        }
        let mut b = vec![0.0; n];
        b[p] = 1.0;
        b[q] = -1.0;
        let x = self.solve(&b)?;
        Ok(x[p] - x[q])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirstag_linalg::par;

    #[test]
    fn solve_satisfies_system() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 3.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        let mut b = vec![1.0, -0.5, 2.0, -2.5];
        vecops::center(&mut b);
        let x = s.solve(&b).unwrap();
        let lx = s.laplacian().mul_vec(&x);
        for (a, c) in lx.iter().zip(&b) {
            assert!((a - c).abs() < 1e-7, "residual entry {}", (a - c).abs());
        }
        assert!(vecops::mean(&x).abs() < 1e-12);
    }

    #[test]
    fn series_resistors() {
        let g = Graph::from_edges(3, &[(0, 1, 2.0), (1, 2, 4.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        // R = 1/2 + 1/4.
        assert!((s.effective_resistance(0, 2).unwrap() - 0.75).abs() < 1e-8);
    }

    #[test]
    fn parallel_resistors_via_cycle() {
        // Triangle of unit resistors: R_eff across one edge = 2/3.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        assert!((s.effective_resistance(0, 1).unwrap() - 2.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn resistance_is_symmetric_and_zero_on_diagonal() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 0, 1.5)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        let r01 = s.effective_resistance(0, 1).unwrap();
        let r10 = s.effective_resistance(1, 0).unwrap();
        assert!((r01 - r10).abs() < 1e-9);
        assert_eq!(s.effective_resistance(2, 2).unwrap(), 0.0);
    }

    #[test]
    fn resistance_bounded_by_direct_edge() {
        // With an edge (p, q) present, R_eff ≤ 1/w.
        let g =
            Graph::from_edges(4, &[(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        assert!(s.effective_resistance(0, 1).unwrap() <= 0.5 + 1e-9);
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(LaplacianSolver::new(&g).is_err());
        assert!(
            LaplacianSolver::with_ladder(&g, CgOptions::default(), LadderRung::Identity).is_err()
        );
    }

    #[test]
    fn bounds_checked() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        assert!(s.effective_resistance(0, 5).is_err());
        assert!(s.solve(&[1.0]).is_err());
    }

    #[test]
    fn uncentered_rhs_is_projected() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        // b with nonzero mean: solver should treat it as centered.
        let x = s.solve(&[2.0, 1.0, 1.0]).unwrap();
        let lx = s.laplacian().mul_vec(&x);
        let centered = [2.0 - 4.0 / 3.0, 1.0 - 4.0 / 3.0, 1.0 - 4.0 / 3.0];
        for (a, c) in lx.iter().zip(&centered) {
            assert!((a - c).abs() < 1e-8);
        }
    }

    #[test]
    fn every_ladder_rung_solves_the_system() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 3.0)]).unwrap();
        let mut b = vec![1.0, -0.5, 2.0, -2.5];
        vecops::center(&mut b);
        let reference = LaplacianSolver::new(&g).unwrap().solve(&b).unwrap();
        for start in [
            LadderRung::Identity,
            LadderRung::Jacobi,
            LadderRung::Tree,
            LadderRung::Dense,
        ] {
            let s = LaplacianSolver::with_ladder(&g, CgOptions::default(), start).unwrap();
            let x = s.solve(&b).unwrap();
            for (a, c) in x.iter().zip(&reference) {
                assert!((a - c).abs() < 1e-7, "rung {:?}: {a} vs {c}", start);
            }
            assert!(s.take_events().is_empty(), "no escalation expected");
        }
    }

    #[test]
    fn ladder_escalates_past_an_unconvergent_rung() {
        // max_iter 0 means every CG rung fails immediately; only the dense
        // rung can finish. The ladder must climb Identity → … → Dense and
        // record each step.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let opts = CgOptions {
            tol: 1e-10,
            max_iter: 0,
        };
        let s = LaplacianSolver::with_ladder(&g, opts, LadderRung::Identity).unwrap();
        let mut b = vec![1.0, -1.0, 0.0];
        vecops::center(&mut b);
        let x = s.solve(&b).unwrap();
        let lx = s.laplacian().mul_vec(&x);
        for (a, c) in lx.iter().zip(&b) {
            assert!((a - c).abs() < 1e-9);
        }
        assert_eq!(s.current_rung(), LadderRung::Dense);
        let events = s.take_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].from, LadderRung::Identity);
        assert_eq!(events[2].to, LadderRung::Dense);
        // Sticky escalation: a second solve starts (and stays) dense.
        let _ = s.solve(&b).unwrap();
        assert!(s.take_events().is_empty());
    }

    #[test]
    fn non_escalating_solver_fails_fast() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let opts = CgOptions {
            tol: 1e-10,
            max_iter: 0,
        };
        let s = LaplacianSolver::with_options(&g, opts).unwrap();
        let err = s.solve(&[1.0, -1.0, 0.0]).unwrap_err();
        assert!(matches!(err, SolverError::NoConvergence { .. }));
        assert!(s.take_events().is_empty());
    }

    #[test]
    fn solve_into_matches_solve_bitwise() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 3.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        let b = [1.0, -0.5, 2.0, -2.5];
        let reference = s.solve(&b).unwrap();
        let mut x = vec![f64::NAN; 4];
        s.solve_into(&b, &mut x).unwrap();
        for (a, c) in x.iter().zip(&reference) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
        let mut short = vec![0.0; 3];
        assert!(matches!(
            s.solve_into(&b, &mut short),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_block_columns_match_scalar_solves_bitwise() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 4, 0.5),
                (4, 5, 1.0),
                (5, 0, 3.0),
                (1, 4, 0.25),
            ],
        )
        .unwrap();
        for build in [
            LaplacianSolver::new(&g).unwrap(),
            LaplacianSolver::with_tree_preconditioner(&g, CgOptions::default()).unwrap(),
        ] {
            let cols: Vec<Vec<f64>> = (0..3)
                .map(|j| (0..6).map(|i| ((i * 5 + j * 3) % 7) as f64 - 3.0).collect())
                .collect();
            let b = DenseMatrix::from_columns(&cols).unwrap();
            let block = build.solve_block(&b).unwrap();
            for (j, col) in cols.iter().enumerate() {
                let scalar = build.solve(col).unwrap();
                for i in 0..6 {
                    assert_eq!(
                        block.get(i, j).to_bits(),
                        scalar[i].to_bits(),
                        "col {j}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_solve_block_calls_match_serial_calls_bitwise() {
        // A 12×12 grid with mixed weights; eight panels of varied width race
        // for the solver's one pooled workspace.
        let side = 12;
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                if c + 1 < side {
                    edges.push((i, i + 1, 1.0 + ((r + c) % 4) as f64 * 0.5));
                }
                if r + 1 < side {
                    edges.push((i, i + side, 0.5 + ((r * c) % 3) as f64));
                }
            }
        }
        let g = Graph::from_edges(side * side, &edges).unwrap();
        let n = g.num_nodes();
        let s = LaplacianSolver::with_tree_preconditioner(&g, CgOptions::default()).unwrap();
        let panels: Vec<DenseMatrix> = (0..8)
            .map(|p| {
                let width = 1 + p % 5;
                let mut b = DenseMatrix::zeros(n, width);
                for j in 0..width {
                    b.set((p * 7 + j * 13) % n, j, 1.0);
                    b.set((p * 11 + j * 5 + 1) % n, j, -1.0);
                }
                b
            })
            .collect();
        let serial: Vec<DenseMatrix> = panels.iter().map(|b| s.solve_block(b).unwrap()).collect();
        let concurrent = par::map_indexed(panels.len(), |p| s.solve_block(&panels[p]).unwrap());
        for (p, (a, c)) in serial.iter().zip(&concurrent).enumerate() {
            assert_eq!(a.shape(), c.shape());
            for (i, (x, y)) in a.as_slice().iter().zip(c.as_slice()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "panel {p}, entry {i}");
            }
        }
    }

    #[test]
    fn solve_block_checks_shape_and_handles_empty_panel() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        assert!(matches!(
            s.solve_block(&DenseMatrix::zeros(2, 1)),
            Err(SolverError::DimensionMismatch { .. })
        ));
        let empty = s.solve_block(&DenseMatrix::zeros(3, 0)).unwrap();
        assert_eq!(empty.shape(), (3, 0));
    }

    #[test]
    fn solve_block_escalates_like_scalar_solves() {
        // max_iter 0 fails every CG rung; the block ladder must climb to the
        // dense rung and still answer every column.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let opts = CgOptions {
            tol: 1e-10,
            max_iter: 0,
        };
        let s = LaplacianSolver::with_ladder(&g, opts, LadderRung::Identity).unwrap();
        let b = DenseMatrix::from_columns(&[vec![1.0, -1.0, 0.0], vec![0.5, 0.0, -0.5]]).unwrap();
        let x = s.solve_block(&b).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = (0..3).map(|i| b.get(i, j)).collect();
            let lx = s
                .laplacian()
                .mul_vec(&(0..3).map(|i| x.get(i, j)).collect::<Vec<_>>());
            for (a, c) in lx.iter().zip(&col) {
                assert!((a - c).abs() < 1e-9);
            }
        }
        assert_eq!(s.current_rung(), LadderRung::Dense);
        let events = s.take_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].from, LadderRung::Identity);
        assert!(events[0].cause.contains("block"));
        // Non-escalating solver fails fast on the same input.
        let fixed = LaplacianSolver::with_options(&g, opts).unwrap();
        assert!(matches!(
            fixed.solve_block(&b),
            Err(SolverError::NoConvergence { .. })
        ));
    }

    #[test]
    fn clone_preserves_ladder_position() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let opts = CgOptions {
            tol: 1e-10,
            max_iter: 0,
        };
        let s = LaplacianSolver::with_ladder(&g, opts, LadderRung::Tree).unwrap();
        let _ = s.solve(&[1.0, -1.0, 0.0]).unwrap();
        assert_eq!(s.clone().current_rung(), LadderRung::Dense);
    }
}
