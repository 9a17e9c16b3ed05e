//! `cold_small` / `cold_mid`: repeated cold `CirStag::analyze` on one suite
//! design with the configuration `cirstag analyze` uses.

use crate::calib::{self, Reference};
use crate::design::{self, Design, SetupTimes, CLI_EPOCHS};
use crate::stats::{median, rescale_edit, Rng};
use crate::{layers, peak_rss_mb, secs, served, Args, Fail, Metrics, Outcome, Tally};
use cirstag::{ArtifactCache, CirStag, CirStagConfig, FailurePolicy, StabilityReport};
use cirstag_circuit::{apply_delta, partition_graph, DeltaOp, NetlistDelta, PartitionConfig};
use cirstag_embed::KnnMethod;
use std::time::Instant;

/// Set-up repetitions per run (median reported). The small design trains
/// in about a second; the mid design's nine-second set-up runs once so a
/// run stays within its time budget.
pub const SMALL_SETUP_REPS: usize = 3;
pub const MID_SETUP_REPS: usize = 1;
/// Cache replays timed after each analysis (the read path), spread over
/// the window so they sample the same machine conditions as the analyses.
const REPLAYS_PER_ANALYSIS: usize = 20;
/// Analyses a window runs at least, however long they take.
const MIN_ANALYSES: usize = 3;
/// `apply_delta` calls timed per traced run.
const DELTA_REPS: usize = 20;

/// The pipeline configuration of `cirstag analyze` at `threads` threads.
/// The kNN choice copies the CLI's `--knn auto` rule: exact search up to
/// 3000 pins, the 6-tree rp-forest above.
pub fn cli_config(num_nodes: usize, threads: usize) -> CirStagConfig {
    let mut config = CirStagConfig {
        embedding_dim: 16,
        num_eigenpairs: 25,
        knn_k: 10,
        num_threads: threads,
        policy: FailurePolicy::Strict,
        ..Default::default()
    };
    if num_nodes > 3000 {
        config.knn.method = KnnMethod::RpForest {
            num_trees: 6,
            leaf_size: 48,
        };
    }
    config
}

/// Output checks every analysis must pass: one finite score per pin, and a
/// clean (non-degraded) report under the Strict policy.
pub fn check_report(scores: &[f64], degraded: bool, num_pins: usize) -> Option<String> {
    if scores.len() != num_pins {
        return Some(format!("{} scores for {num_pins} pins", scores.len()));
    }
    if let Some(i) = scores.iter().position(|s| !s.is_finite()) {
        return Some(format!("score of pin {i} is {}", scores[i]));
    }
    degraded.then(|| "report degraded under the Strict policy".to_string())
}

/// `Some` problem unless `b` scores every pin bit-identically to `a`.
pub fn check_identical(a: &[f64], b: &[f64], what: &str) -> Option<String> {
    let same = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    (!same).then(|| format!("{what}: scores differ from the first analysis"))
}

/// Set-up repeated `reps` times, each between two reference timings: the
/// median calibrated total ([`calib::scaled_setup_s`]), the median wall
/// total, the median of each layer, and the last design built.
pub fn setup(
    reference: &Reference,
    name: &str,
    seed: u64,
    epochs: usize,
    reps: usize,
) -> Result<(f64, f64, SetupTimes, Design), Fail> {
    let mut scaled = Vec::with_capacity(reps);
    let mut totals = Vec::with_capacity(reps);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let before = reference.time_before(None);
        let t = Instant::now();
        let (d, st) = design::build(name, seed, epochs)?;
        let wall = secs(t);
        let after = reference.time_before(Some(wall));
        scaled.push(calib::scaled_setup_s(wall, before, after));
        totals.push(wall);
        times.push(st);
        last = Some(d);
    }
    let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let med = SetupTimes {
        generate: pick(|t| t.generate),
        sta: pick(|t| t.sta),
        features: pick(|t| t.features),
        train: pick(|t| t.train),
        infer: pick(|t| t.infer),
    };
    let design = last.ok_or_else(|| Fail::new("set-up never ran"))?;
    Ok((median(&scaled), median(&totals), med, design))
}

/// Records the set-up layers shared by every workload's traced run.
pub fn put_setup_layers(d: &Design, t: &SetupTimes, out: &mut Metrics) {
    out.put("gnn.train_ms", t.train * 1e3, "ms");
    out.put("gnn.epochs", d.epochs_run as f64, "count");
    out.put("gnn.r2", d.r2, "ratio");
    out.put("gnn.infer_ms", t.infer * 1e3, "ms");
    out.put("circuit.generate_ms", t.generate * 1e3, "ms");
    out.put("circuit.sta_ms", t.sta * 1e3, "ms");
    out.put("circuit.features_ms", t.features * 1e3, "ms");
}

/// Times the partitioner and `apply_delta` with seeded single-edge
/// rescales on `d`; records `circuit.partition_ms` and
/// `circuit.apply_delta_ms`.
pub fn put_eco_layers(
    d: &Design,
    seed: u64,
    tally: &mut Tally,
    out: &mut Metrics,
) -> Result<(), Fail> {
    let t = Instant::now();
    let partitioning = partition_graph(&d.graph, &PartitionConfig::default())?;
    out.put("circuit.partition_ms", secs(t) * 1e3, "ms");
    let edges: Vec<(usize, usize)> = d.graph.edges().iter().map(|e| (e.u, e.v)).collect();
    let mut rng = Rng::new(seed);
    let mut times = Vec::with_capacity(DELTA_REPS);
    for _ in 0..DELTA_REPS {
        let (u, v, factor) =
            rescale_edit(&edges, &mut rng).ok_or_else(|| Fail::new("design has no edges"))?;
        let delta = NetlistDelta {
            ops: vec![DeltaOp::RescaleEdge { u, v, factor }],
        };
        let t = Instant::now();
        let outcome = apply_delta(&d.graph, Some(&d.features), &delta, &partitioning);
        times.push(secs(t));
        tally.record(match outcome {
            Ok(o) if o.touched_partitions.is_empty() => {
                Some(format!("rescale of ({u}, {v}) touched no partition"))
            }
            Ok(_) => None,
            Err(e) => Some(format!("apply_delta: {e}")),
        });
    }
    out.put("circuit.apply_delta_ms", median(&times) * 1e3, "ms");
    Ok(())
}

/// Runs one cold workload on suite design `name`.
pub fn run(name: &'static str, reps: usize, args: &Args) -> Result<Outcome, Fail> {
    let seed = match args.design_seed {
        Some(s) => s,
        None => design::suite_seed(name)?,
    };
    let reference = Reference::new();
    let (setup_s, setup_wall_s, setup_times, mut design) =
        setup(&reference, name, seed, CLI_EPOCHS, reps)?;
    let n = design.graph.num_nodes();
    let config = cli_config(n, args.threads);
    let analyzer = CirStag::new(config);
    let mut o = Outcome::default();
    // A traced run keeps the cache on disk too, for the serve probe below.
    let scratch = served::Scratch::new(&args.workload)?;
    let mut cache = if args.trace {
        ArtifactCache::new().with_disk_dir(scratch.path())
    } else {
        ArtifactCache::new()
    };

    // The measured window: cold analyses back to back, at least
    // [`MIN_ANALYSES`], each preceded by reference-kernel timings. The first runs against the
    // empty artifact cache (still a cold run) and fills it; every analysis
    // is followed by cache replays of it (the read path). In a traced run
    // the second analysis, the first without a cache, is also followed by
    // the replay of its layers.
    let mut latencies = Vec::new();
    let mut refs = Vec::new();
    let mut reads = Vec::new();
    let mut replay_hits = Vec::new();
    let mut first: Option<StabilityReport> = None;
    let mut traced: Option<Metrics> = None;
    let start = Instant::now();
    while latencies.len() < MIN_ANALYSES || secs(start) < args.seconds {
        refs.push(reference.time_before(latencies.last().copied()));
        let t = Instant::now();
        let result = if first.is_none() {
            analyzer.analyze_cached(
                &design.graph,
                Some(&design.features),
                &design.embedding,
                &mut cache,
            )
        } else {
            analyzer.analyze(&design.graph, Some(&design.features), &design.embedding)
        };
        let took = secs(t);
        latencies.push(took);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                o.tally.record(Some(format!("analyze: {e}")));
                continue;
            }
        };
        let mut problem = check_report(&report.node_scores, report.degraded, n);
        if let Some(f) = &first {
            problem = problem.or(check_identical(
                &f.node_scores,
                &report.node_scores,
                "repeat analysis",
            ));
        }
        o.tally.record(problem);
        if args.trace && traced.is_none() && first.is_some() {
            let mut m = Metrics::default();
            let (traced_s, matches) =
                layers::replay(&design.graph, &design.embedding, &config, &report, &mut m)?;
            o.tally.record((!matches).then(|| {
                "layer replay did not reproduce the engine's manifolds and spectrum".to_string()
            }));
            m.put("trace.overhead_ratio", traced_s / took, "ratio");
            traced = Some(m);
        }
        let reference = first.get_or_insert(report);
        for _ in 0..REPLAYS_PER_ANALYSIS {
            let t = Instant::now();
            let r = analyzer.analyze_cached(
                &design.graph,
                Some(&design.features),
                &design.embedding,
                &mut cache,
            );
            reads.push(secs(t));
            o.tally.record(match &r {
                Ok(r) if r.timings.cache_misses > 0 => Some("replay missed the cache".to_string()),
                Ok(r) => {
                    replay_hits.push(r.timings.cache_hits as f64);
                    check_identical(&reference.node_scores, &r.node_scores, "cache replay")
                }
                Err(e) => Some(format!("cache replay: {e}")),
            });
        }
    }
    let window = secs(start);
    let first = first.ok_or_else(|| Fail::new("no analysis succeeded"))?;

    // Table-I separation of the ranking.
    let separation = design.separation(&first.node_scores);
    o.tally
        .record(separation.as_ref().err().map(|e| e.0.clone()));
    let separation = separation.unwrap_or(f64::NAN);

    let analyze_s = median(&latencies);
    let op_cost = calib::cost(&latencies, &refs);
    let read_s = median(&reads);
    let rss = peak_rss_mb()?;
    o.e2e.put("op_cost", op_cost, "xref");
    o.detail
        .put("analyses_per_s", latencies.len() as f64 / window, "1/s");
    o.e2e.put("rank_quality", separation, "ratio");
    o.e2e.put("setup_s", setup_s, "s");
    o.e2e.put("peak_rss_mb", rss, "MB");

    o.detail.put("analyze_s", analyze_s, "s");
    o.detail.put("analyses", latencies.len() as f64, "count");
    o.detail.put("reference_p50_s", median(&refs), "s");
    o.detail.put("separation", separation, "x");
    o.detail.put("replay_p50_s", read_s, "s");
    o.detail.put("replays", reads.len() as f64, "count");
    o.detail.put("setup_s", setup_s, "s");
    o.detail.put("setup_wall_s", setup_wall_s, "s");
    o.detail.put("peak_rss_mb", rss, "MB");
    o.detail.put("pins", n as f64, "count");
    o.detail.put("gnn_r2", design.r2, "ratio");

    if args.trace {
        o.layers = traced.ok_or_else(|| Fail::new("no analysis was traced"))?;
        let m = &mut o.layers;
        put_setup_layers(&design, &setup_times, m);
        // Single-thread baseline on the same inputs.
        let serial = CirStag::new(CirStagConfig {
            num_threads: 1,
            ..config
        });
        let t = Instant::now();
        let r = serial.analyze(&design.graph, Some(&design.features), &design.embedding);
        let one_thread = secs(t);
        o.tally.record(match &r {
            Ok(r) => check_identical(&first.node_scores, &r.node_scores, "single-thread analysis"),
            Err(e) => Some(format!("single-thread analyze: {e}")),
        });
        m.put("core.analyze_1t_ms", one_thread * 1e3, "ms");
        m.put("core.parallel_speedup", one_thread / analyze_s, "ratio");
        m.put("core.warm_replay_ms", read_s * 1e3, "ms");
        m.put("core.stage_cache_hits", median(&replay_hits), "count");
        // No partitioned run on a cold workload.
        m.put("core.partitions_recomputed", 0.0, "count");
        put_eco_layers(&design, args.seed, &mut o.tally, m)?;
        // The serve layer answering this design from the disk cache filled
        // by the window's first analysis.
        let probe = served::probe(
            &design.text,
            CLI_EPOCHS,
            scratch.path(),
            &first.node_scores,
            &mut o.tally,
        )?;
        probe.put(m);
    }
    Ok(o)
}
