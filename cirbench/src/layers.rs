//! Per-layer attribution from outside the program: replays each phase's
//! layer calls on the inputs and configuration the engine used, timing every
//! call (a span). A phase's coverage is the sum of its top-level spans over
//! the engine's own phase time from `PhaseTimings`.

use crate::stats::median;
use crate::{secs, Fail, Metrics};
use cirstag::{CirStagConfig, StabilityReport};
use cirstag_embed::{knn_graph_with_stats, spectral_embedding_ws, KnnStats};
use cirstag_graph::{low_stretch_tree, Graph};
use cirstag_linalg::{par, DenseMatrix};
use cirstag_pgm::learn_manifold;
use cirstag_solver::{
    generalized_lanczos_ws, lanczos_largest_ws, CgOptions, CsrOperator, LaplacianSolver,
    ResistanceEstimator, ScaledShiftedOperator, SolverWorkspace,
};
use std::hint::black_box;
use std::time::Instant;

/// Seed mix `learn_manifold` applies to its resistance sketch.
const SKETCH_SEED_MIX: u64 = 0xE7A;
/// CG options the Phase-3 pencil stage builds its `L_Y` solver with.
const LY_OPTIONS: CgOptions = CgOptions {
    tol: 1e-6,
    max_iter: 10_000,
};
/// Repetitions behind the spmv median.
const SPMV_REPS: usize = 200;

/// Times `f`, returning its value and the elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

fn mean_candidates(stats: &Option<KnnStats>, n: usize) -> f64 {
    // The exact method reports no stats: every other point is a candidate.
    stats
        .as_ref()
        .map_or(n.saturating_sub(1) as f64, |s| s.mean_candidates)
}

/// Replays Phases 1–3 of the analysis that produced `report` and records
/// the layer metrics into `out`. Returns the replay's wall seconds (the
/// traced pass) and whether the replayed manifolds and spectrum matched the
/// engine's bit for bit.
pub fn replay(
    graph: &Graph,
    output_embedding: &DenseMatrix,
    config: &CirStagConfig,
    report: &StabilityReport,
    out: &mut Metrics,
) -> Result<(f64, bool), Fail> {
    let start = Instant::now();
    // The engine mixes the master seed into every stochastic sub-stage.
    let mut cfg = *config;
    cfg.spectral.seed ^= cfg.seed;
    cfg.knn.seed ^= cfg.seed;
    cfg.pgm.seed ^= cfg.seed;
    par::set_num_threads(cfg.num_threads);
    let n = graph.num_nodes();
    let ms = 1e3;

    // Phase 1: the spectral embedding (the CLI config adds no features).
    // One workspace serves every eigensolve, as in the engine.
    let mut ws = SolverWorkspace::new();
    let m = cfg.embedding_dim.min(n - 1).max(1);
    let (u, spectral_s) = timed(|| spectral_embedding_ws(graph, m, &cfg.spectral, &mut ws));
    let u = u?;

    // Phase 2: kNN + PGM sparsification on each side.
    let k = cfg.knn_k.min(n - 1).max(1);
    let (knn_x, knn_in_s) = timed(|| knn_graph_with_stats(&u, k, &cfg.knn));
    let (dense_x, stats_x) = knn_x?;
    let (pgm_x, learn_in_s) = timed(|| learn_manifold(&dense_x, &cfg.pgm));
    let pgm_x = pgm_x?;
    let (knn_y, knn_out_s) = timed(|| knn_graph_with_stats(output_embedding, k, &cfg.knn));
    let (dense_y, stats_y) = knn_y?;
    let (pgm_y, learn_out_s) = timed(|| learn_manifold(&dense_y, &cfg.pgm));
    let pgm_y = pgm_y?;
    // Children of `learn_manifold`, on both sides: the tree backbone and the
    // resistance sketch behind the η scores.
    let mut tree_s = 0.0;
    let mut sketch_s = 0.0;
    for dense in [&dense_x, &dense_y] {
        let (tree, t) = timed(|| low_stretch_tree(dense, cfg.pgm.seed));
        tree?;
        tree_s += t;
        let (est, t) = timed(|| {
            ResistanceEstimator::sketched(
                dense,
                cfg.pgm.resistance_probes,
                cfg.pgm.seed ^ SKETCH_SEED_MIX,
            )
        });
        est?;
        sketch_s += t;
    }

    // Phase 3 on the engine's own manifolds.
    let gx = &report.input_manifold;
    let gy = &report.output_manifold;
    let (lx, laplacian_s) = timed(|| gx.laplacian());
    let (ly, ly_s) = timed(|| LaplacianSolver::with_tree_preconditioner(gy, LY_OPTIONS));
    let ly = ly?;
    let s = cfg.num_eigenpairs.min(n.saturating_sub(2)).max(1);
    let (geig, geig_s) =
        timed(|| generalized_lanczos_ws(&lx, &ly, s, cfg.geig_max_iter, cfg.seed, &mut ws));
    let geig = geig?;
    // Phase-1 iteration count: the embedding's Lanczos solve again, through
    // the public solver call, outside every span.
    let l_norm = graph.normalized_laplacian();
    let flipped = ScaledShiftedOperator::new(2.0, -1.0, CsrOperator::new(&l_norm));
    let lanczos = lanczos_largest_ws(
        &flipped,
        m,
        cfg.spectral.max_iter,
        cfg.spectral.tol,
        cfg.spectral.seed,
        &mut ws,
    )?;
    let traced_s = secs(start);

    // One L_X spmv, the Phase-3 inner kernel.
    let x: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    let mut spmv = Vec::with_capacity(SPMV_REPS);
    for _ in 0..SPMV_REPS {
        let (y, t) = timed(|| lx.mul_vec(black_box(&x)));
        black_box(y);
        spmv.push(t);
    }
    // Bytes one CSR spmv must move at least: values + column indices, row
    // pointers, the input vector and the output vector. Computed, not
    // measured.
    let word = std::mem::size_of::<usize>() as f64;
    let spmv_bytes =
        lx.nnz() as f64 * (8.0 + word) + (n as f64 + 1.0) * word + 2.0 * 8.0 * n as f64;

    let matches = pgm_x.graph.edges() == gx.edges()
        && pgm_y.graph.edges() == gy.edges()
        && geig.eigenvalues.len() == report.eigenvalues.len()
        && geig
            .eigenvalues
            .iter()
            .zip(&report.eigenvalues)
            .all(|(a, b)| a.to_bits() == b.to_bits());

    let phase = |d: std::time::Duration| d.as_secs_f64();
    let (p1, p2, p3) = (
        phase(report.timings.phase1),
        phase(report.timings.phase2),
        phase(report.timings.phase3),
    );
    let kept = (pgm_x.stats.edges_after + pgm_y.stats.edges_after) as f64;
    let before = (pgm_x.stats.edges_before + pgm_y.stats.edges_before) as f64;
    out.put("embed.spectral_ms", spectral_s * ms, "ms");
    out.put("embed.lanczos_iters", lanczos.iterations as f64, "count");
    out.put("embed.knn_input_ms", knn_in_s * ms, "ms");
    out.put("embed.knn_output_ms", knn_out_s * ms, "ms");
    out.put(
        "embed.knn_mean_candidates",
        0.5 * (mean_candidates(&stats_x, n) + mean_candidates(&stats_y, n)),
        "count",
    );
    out.put("graph.low_stretch_tree_ms", tree_s * ms, "ms");
    out.put("solver.resistance_sketch_ms", sketch_s * ms, "ms");
    out.put("pgm.learn_input_ms", learn_in_s * ms, "ms");
    out.put("pgm.learn_output_ms", learn_out_s * ms, "ms");
    out.put("pgm.edges_kept_ratio", kept / before, "ratio");
    out.put("solver.ly_build_ms", ly_s * ms, "ms");
    out.put("solver.geig_ms", geig_s * ms, "ms");
    out.put("solver.geig_iters", geig.iterations as f64, "count");
    out.put("linalg.spmv_us", median(&spmv) * 1e6, "us");
    out.put("linalg.spmv_bytes", spmv_bytes, "bytes");
    out.put("core.phase1_ms", p1 * ms, "ms");
    out.put("core.phase2_ms", p2 * ms, "ms");
    out.put("core.phase3_ms", p3 * ms, "ms");
    out.put("core.phase1_coverage", spectral_s / p1, "ratio");
    out.put(
        "core.phase2_coverage",
        (knn_in_s + learn_in_s + knn_out_s + learn_out_s) / p2,
        "ratio",
    );
    out.put(
        "core.phase3_coverage",
        (laplacian_s + ly_s + geig_s) / p3,
        "ratio",
    );
    Ok((traced_s, matches))
}
