//! `served_eco`: an in-process `cirstag serve` daemon holding `syn_dsp1k`,
//! driven by one closed-loop client that sends three single-edge `delta`
//! requests (the write path) for every `analyze` of the unedited base (the
//! read path, a cache replay).

use crate::calib::{self, Reference};
use crate::cold::{check_identical, check_report, cli_config, put_eco_layers, put_setup_layers};
use crate::design::{self, Design};
use crate::stats::{median, overlap, percentile, rescale_edit, tail, Rng};
use crate::{layers, peak_rss_mb, secs, Args, Fail, Metrics, Outcome, Tally};
use cirstag::{
    analyze_partitioned_cached, top_fraction, ArtifactCache, CirStag, CirStagConfig,
    PartitionedReport, StabilityReport,
};
use cirstag_circuit::{partition_graph, DeltaOp, NetlistDelta, PartitionConfig};
use cirstag_serve::{shutdown_daemon, Request, Response, ServeConfig, Server, Verb, CODE_OK};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The served design.
const DESIGN: &str = "syn_dsp1k";
/// GNN epochs the client requests: the serve protocol's default.
pub const SERVE_EPOCHS: usize = 40;
/// Deltas sent for every analyze.
const DELTAS_PER_READ: usize = 3;
/// Rounds (one delta per partition) a window runs at least. A window ends
/// on a round boundary, so every run weighs the partitions alike.
const MIN_ROUNDS: usize = 2;
/// Ranking head the daemon returns in each response body.
const HEAD: usize = 20;

/// A per-run scratch directory inside the working directory, removed on
/// drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Result<Self, Fail> {
        let dir = Path::new(".cirbench-tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent when other runs still use it.
        let _ = std::fs::remove_dir(".cirbench-tmp");
    }
}

/// A daemon running on a background thread.
struct Daemon {
    addr: String,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn start(workers: usize, cache_dir: &Path) -> Result<Daemon, Fail> {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        })?;
        let addr = server.local_addr().to_string();
        let thread =
            std::thread::spawn(move || server.run(&mut std::io::sink()).map_err(|e| e.to_string()));
        Ok(Daemon { addr, thread })
    }

    /// Asks the daemon to drain and waits for its thread.
    fn stop(self) -> Result<(), Fail> {
        shutdown_daemon(&self.addr)?;
        self.thread
            .join()
            .map_err(|_| Fail::new("daemon thread panicked"))?
            .map_err(Fail)
    }
}

/// One client connection speaking the newline-delimited protocol.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

/// A response with its client-observed latency.
struct Answer {
    response: Response,
    latency_s: f64,
}

impl Answer {
    fn body_u64(&self, field: &str) -> Option<u64> {
        self.response.body.as_ref()?.field::<u64>(field).ok()
    }

    fn body_list(&self, field: &str) -> Option<Vec<u64>> {
        self.response.body.as_ref()?.field::<Vec<u64>>(field).ok()
    }

    /// Wait in the admission queue, as the daemon reports it.
    fn queue_wait_ms(&self) -> f64 {
        self.body_u64("queue_wait_ms").unwrap_or(0) as f64
    }

    /// Execution time inside the daemon, as it reports it.
    fn elapsed_ms(&self) -> f64 {
        self.body_u64("elapsed_ms").unwrap_or(0) as f64
    }

    /// The `(node, score)` ranking head of the body.
    fn head(&self) -> Option<Vec<(u64, f64)>> {
        let top = self.response.body.as_ref()?.get("top")?;
        let serde::Value::Array(items) = top else {
            return None;
        };
        items
            .iter()
            .map(|v| Some((v.field::<u64>("node").ok()?, v.field::<f64>("score").ok()?)))
            .collect()
    }

    /// Common checks: a 200, a non-degraded report.
    fn problem(&self) -> Option<String> {
        if self.response.code != CODE_OK {
            return Some(format!(
                "response {} ({}): {}",
                self.response.code,
                self.response.status,
                self.response.error.as_deref().unwrap_or("")
            ));
        }
        let degraded = self
            .response
            .body
            .as_ref()
            .and_then(|b| b.field::<bool>("degraded").ok());
        match degraded {
            Some(false) => None,
            Some(true) => Some("served report degraded under the Strict policy".to_string()),
            None => Some("response body lacks `degraded`".to_string()),
        }
    }
}

impl Client {
    fn connect(addr: &str) -> Result<Client, Fail> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            next_id: 1,
        })
    }

    /// One request line for `netlist` (a design the daemon prepares with
    /// `epochs` GNN training epochs).
    fn request(
        &mut self,
        verb: Verb,
        netlist: &str,
        epochs: usize,
        delta: Option<String>,
    ) -> Result<String, Fail> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = Request {
            id,
            verb,
            netlist: Some(netlist.to_string()),
            epochs,
            dmd_s: vec![4, 8],
            deadline_ms: None,
            top: 0.1,
            best_effort: None,
            delta,
            partitions: None,
        }
        .to_line()?;
        line.push('\n');
        Ok(line)
    }

    /// Sends a prepared request line and waits for its response.
    fn call(&mut self, line: &str) -> Result<Answer, Fail> {
        let t = self.send(line)?;
        self.recv(t)
    }

    /// Sends a prepared request line, returning when it was sent.
    fn send(&mut self, line: &str) -> Result<Instant, Fail> {
        let t = Instant::now();
        self.stream.write_all(line.as_bytes())?;
        Ok(t)
    }

    /// Waits for the response to the request sent at `t`.
    fn recv(&mut self, t: Instant) -> Result<Answer, Fail> {
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        let latency_s = secs(t);
        if reply.is_empty() {
            return Err(Fail::new("daemon closed the connection"));
        }
        Ok(Answer {
            response: Response::parse(reply.trim_end())?,
            latency_s,
        })
    }
}

/// The seeded single-edge rescale a delta request carries.
fn delta_json(edges: &[(usize, usize)], rng: &mut Rng) -> Result<String, Fail> {
    let (u, v, factor) =
        rescale_edit(edges, rng).ok_or_else(|| Fail::new("design has no edges"))?;
    Ok(NetlistDelta {
        ops: vec![DeltaOp::RescaleEdge { u, v, factor }],
    }
    .to_json()?)
}

/// `Some` problem unless every recomputed partition was also touched.
fn check_delta(a: &Answer) -> Option<String> {
    if let Some(p) = a.problem() {
        return Some(p);
    }
    let (Some(touched), Some(recomputed)) = (
        a.body_list("touched_partitions"),
        a.body_list("recomputed_partitions"),
    ) else {
        return Some("delta body lacks the partition lists".to_string());
    };
    recomputed
        .iter()
        .find(|p| !touched.contains(p))
        .map(|p| format!("partition {p} recomputed but not touched ({touched:?})"))
}

/// `Some` problem unless the served head matches `scores`' top nodes bit
/// for bit.
fn check_head(a: &Answer, scores: &[f64]) -> Option<String> {
    a.problem().or_else(|| {
        let want: Vec<(u64, f64)> = top_fraction(scores, 0.1, None)
            .into_iter()
            .take(HEAD)
            .map(|i| (i as u64, scores[i]))
            .collect();
        let got = a.head()?;
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
        (!same).then(|| "served ranking head differs from the in-process analysis".to_string())
    })
}

/// Pairs of concurrent `analyze` requests behind the queue-wait figure.
const QUEUE_PAIRS: usize = 8;

/// Mean admission-queue wait, as the daemon reports it, of the request that
/// waited in each of [`QUEUE_PAIRS`] pairs sent at once on two connections
/// to a daemon with one worker: the second of a pair queues behind the
/// first. Every answer is checked against `scores`.
pub fn queue_wait_ms(
    addr: &str,
    netlist: &str,
    epochs: usize,
    scores: &[f64],
    tally: &mut Tally,
) -> Result<f64, Fail> {
    let mut a = Client::connect(addr)?;
    let mut b = Client::connect(addr)?;
    let mut total = 0.0;
    for _ in 0..QUEUE_PAIRS {
        let (line_a, line_b) = (
            a.request(Verb::Analyze, netlist, epochs, None)?,
            b.request(Verb::Analyze, netlist, epochs, None)?,
        );
        let (ta, tb) = (a.send(&line_a)?, b.send(&line_b)?);
        let (ra, rb) = (a.recv(ta)?, b.recv(tb)?);
        tally.record(check_head(&ra, scores));
        tally.record(check_head(&rb, scores));
        total += ra.queue_wait_ms().max(rb.queue_wait_ms());
    }
    Ok(total / QUEUE_PAIRS as f64)
}

/// Serve-layer figures from `analyze` requests against a fresh daemon with
/// one worker whose disk cache already holds the analysis: the first pays
/// the design build, the second is a plain replay, and concurrent pairs
/// measure the queue wait.
pub struct ServeProbe {
    design_build_ms: f64,
    queue_wait_ms: f64,
    elapsed_ms: f64,
    transport_ms: f64,
}

impl ServeProbe {
    pub fn put(&self, out: &mut Metrics) {
        out.put("serve.queue_wait_ms", self.queue_wait_ms, "ms");
        out.put("serve.elapsed_ms", self.elapsed_ms, "ms");
        out.put("serve.transport_ms", self.transport_ms, "ms");
        out.put("serve.design_build_ms", self.design_build_ms, "ms");
    }
}

/// Client latency not spent queued or executing: framing, the socket and
/// request parsing.
fn transport_ms(a: &Answer) -> f64 {
    a.latency_s * 1e3 - a.elapsed_ms() - a.queue_wait_ms()
}

/// The design build inside the first request: what its latency holds
/// beyond queueing, execution and a replay's transport.
fn design_build_ms(first: &Answer, transport: f64) -> f64 {
    first.latency_s * 1e3 - first.queue_wait_ms() - first.elapsed_ms() - transport
}

pub fn probe(
    netlist: &str,
    epochs: usize,
    cache_dir: &Path,
    scores: &[f64],
    tally: &mut Tally,
) -> Result<ServeProbe, Fail> {
    let daemon = Daemon::start(1, cache_dir)?;
    let mut client = Client::connect(&daemon.addr)?;
    let line = client.request(Verb::Analyze, netlist, epochs, None)?;
    let first = client.call(&line)?;
    tally.record(check_head(&first, scores));
    let second = client.call(&line)?;
    tally.record(check_head(&second, scores));
    drop(client);
    let queue_wait = queue_wait_ms(&daemon.addr, netlist, epochs, scores, tally);
    daemon.stop()?;
    let transport = transport_ms(&second);
    Ok(ServeProbe {
        design_build_ms: design_build_ms(&first, transport),
        queue_wait_ms: queue_wait?,
        elapsed_ms: second.elapsed_ms(),
        transport_ms: transport,
    })
}

/// What the client saw in the measured window.
#[derive(Default)]
struct ClientLog {
    deltas: Vec<Answer>,
    /// The mean reference timing taken just before each delta.
    delta_refs: Vec<f64>,
    reads: Vec<Answer>,
    problems: Vec<Option<String>>,
    /// When the last response arrived, from the window start.
    done_s: f64,
}

/// The closed-loop client. Its deltas visit the partitions in turn, each
/// rescaling a random edge that touches that partition alone, so every
/// partition is edited about equally often whatever the seed. Each delta is
/// preceded by a reference-kernel timing. The window ends at the first
/// round boundary after `seconds` and at least [`MIN_ROUNDS`] rounds.
fn drive(
    addr: &str,
    netlist: &str,
    regions: &[Vec<(usize, usize)>],
    base_scores: &[f64],
    seed: u64,
    seconds: f64,
    reference: &Reference,
) -> Result<ClientLog, Fail> {
    let mut client = Client::connect(addr)?;
    let mut rng = Rng::new(seed);
    let mut log = ClientLog::default();
    let start = Instant::now();
    let mut sent = 0;
    while secs(start) < seconds || sent < MIN_ROUNDS * regions.len() || sent % regions.len() != 0 {
        let region = sent % regions.len();
        let delta = delta_json(&regions[region], &mut rng)?;
        let line = client.request(Verb::Delta, netlist, SERVE_EPOCHS, Some(delta))?;
        let previous = log.deltas.last().map(|a| a.latency_s);
        log.delta_refs.push(reference.time_before(previous));
        let a = client.call(&line)?;
        log.problems.push(check_delta(&a));
        log.deltas.push(a);
        sent += 1;
        if sent % DELTAS_PER_READ == 0 {
            let line = client.request(Verb::Analyze, netlist, SERVE_EPOCHS, None)?;
            let a = client.call(&line)?;
            log.problems.push(check_head(&a, base_scores));
            log.reads.push(a);
        }
        log.done_s = secs(start);
    }
    Ok(log)
}

/// Partitioned (empty-delta) and unpartitioned reports of the base, run
/// in-process against `cache`, which the daemon later replays from disk.
fn prime(
    d: &Design,
    config: &CirStagConfig,
    cache: &mut ArtifactCache,
) -> Result<(StabilityReport, PartitionedReport), Fail> {
    let full =
        CirStag::new(*config).analyze_cached(&d.graph, Some(&d.features), &d.embedding, cache)?;
    let parts = partition_graph(&d.graph, &PartitionConfig::default())?;
    let partitioned = analyze_partitioned_cached(
        config,
        &d.graph,
        Some(&d.features),
        &d.embedding,
        &parts.assignment,
        parts.num_partitions,
        parts.halo_depth,
        cache,
    )?;
    Ok((full, partitioned))
}

pub fn run(args: &Args) -> Result<Outcome, Fail> {
    let seed = match args.design_seed {
        Some(s) => s,
        None => design::suite_seed(DESIGN)?,
    };
    let mut o = Outcome::default();
    let scratch = Scratch::new(&args.workload)?;

    // Set-up: the design and GNN, cache priming, daemon start, and the
    // daemon's own design build plus its first (disk) replays.
    let reference = Reference::new();
    let before = reference.time_before(None);
    let t_setup = Instant::now();
    let (design, setup_times) = design::build(DESIGN, seed, SERVE_EPOCHS)?;
    let n = design.graph.num_nodes();
    let config = cli_config(n, args.threads);
    let mut cache = ArtifactCache::new().with_disk_dir(scratch.path());
    let t = Instant::now();
    let (base, partitioned) = prime(&design, &config, &mut cache)?;
    let prime_s = secs(t);
    o.tally
        .record(check_report(&base.node_scores, base.degraded, n));
    o.tally.record(check_report(
        &partitioned.node_scores,
        partitioned.degraded,
        n,
    ));
    let daemon = Daemon::start(1, scratch.path())?;
    let mut warm = Client::connect(&daemon.addr)?;
    let line = warm.request(Verb::Analyze, &design.text, SERVE_EPOCHS, None)?;
    let first = warm.call(&line)?;
    o.tally.record(check_head(&first, &base.node_scores));
    let empty = NetlistDelta::default().to_json()?;
    let line = warm.request(Verb::Delta, &design.text, SERVE_EPOCHS, Some(empty))?;
    let primed = warm.call(&line)?;
    o.tally.record(check_delta(&primed));
    drop(warm);
    let setup_wall_s = secs(t_setup);
    let setup_s = calib::scaled_setup_s(
        setup_wall_s,
        before,
        reference.time_before(Some(setup_wall_s)),
    );

    let partition_overlap = overlap(
        &top_fraction(&base.node_scores, 0.1, None),
        &top_fraction(&partitioned.node_scores, 0.1, None),
    );

    // The measured window. Each partition of the daemon's own default
    // partitioning gets the edges whose rescale touches it alone.
    let parts = partition_graph(&design.graph, &PartitionConfig::default())?;
    let mut regions = vec![Vec::new(); parts.num_partitions];
    for e in design.graph.edges() {
        if let [p] = parts.touched_partitions(&design.graph, &[e.u, e.v])[..] {
            regions[p].push((e.u, e.v));
        }
    }
    regions.retain(|r| !r.is_empty());
    let log = drive(
        &daemon.addr,
        &design.text,
        &regions,
        &base.node_scores,
        args.seed.wrapping_mul(0x9E37_79B9),
        args.seconds,
        &reference,
    );
    let queue_wait = if args.trace {
        queue_wait_ms(
            &daemon.addr,
            &design.text,
            SERVE_EPOCHS,
            &base.node_scores,
            &mut o.tally,
        )
    } else {
        Ok(0.0)
    };
    daemon.stop()?;
    let queue_wait = queue_wait?;
    let log = log?;
    for p in log.problems {
        o.tally.record(p);
    }
    let (deltas, reads, window) = (log.deltas, log.reads, log.done_s);
    if deltas.is_empty() || reads.is_empty() {
        return Err(Fail::new("the window completed no delta or no analyze"));
    }
    let delta_lat: Vec<f64> = deltas.iter().map(|a| a.latency_s).collect();
    let read_lat: Vec<f64> = reads.iter().map(|a| a.latency_s).collect();
    let delta_p50 = median(&delta_lat);
    let op_cost = calib::cost(&delta_lat, &log.delta_refs);
    let read_p50 = median(&read_lat);
    let rps = (deltas.len() + reads.len()) as f64 / window;
    let rss = peak_rss_mb()?;

    o.e2e.put("op_cost", op_cost, "xref");
    o.e2e.put("rank_quality", partition_overlap, "ratio");
    o.e2e.put("setup_s", setup_s, "s");
    o.e2e.put("peak_rss_mb", rss, "MB");

    o.detail.put("delta_p50_s", delta_p50, "s");
    o.detail
        .put("reference_p50_s", median(&log.delta_refs), "s");
    o.detail
        .put("delta_p90_s", percentile(&delta_lat, 90.0), "s");
    if let Some((p, v)) = tail(&delta_lat) {
        o.detail.put("delta_tail_percentile", p, "pct");
        o.detail.put("delta_tail_s", v, "s");
    }
    o.detail.put("deltas", deltas.len() as f64, "count");
    o.detail.put("replay_p50_s", read_p50, "s");
    o.detail.put("replays", reads.len() as f64, "count");
    o.detail.put("served_rps", rps, "1/s");
    o.detail
        .put("partition_overlap", partition_overlap, "ratio");
    o.detail.put("setup_s", setup_s, "s");
    o.detail.put("setup_wall_s", setup_wall_s, "s");
    o.detail.put("prime_s", prime_s, "s");
    o.detail.put("peak_rss_mb", rss, "MB");
    o.detail.put("pins", n as f64, "count");

    if args.trace {
        let m = &mut o.layers;
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let all: Vec<&Answer> = deltas.iter().chain(&reads).collect();
        m.put("serve.queue_wait_ms", queue_wait, "ms");
        m.put(
            "serve.elapsed_ms",
            median(&deltas.iter().map(Answer::elapsed_ms).collect::<Vec<_>>()),
            "ms",
        );
        let transport = median(&all.iter().map(|a| transport_ms(a)).collect::<Vec<_>>());
        m.put("serve.transport_ms", transport, "ms");
        m.put(
            "serve.design_build_ms",
            design_build_ms(&first, transport),
            "ms",
        );
        m.put(
            "core.partitions_recomputed",
            mean(
                deltas
                    .iter()
                    .map(|a| {
                        a.body_list("recomputed_partitions")
                            .map_or(0.0, |r| r.len() as f64)
                    })
                    .collect(),
            ),
            "count",
        );
        m.put(
            "core.stage_cache_hits",
            mean(
                deltas
                    .iter()
                    .map(|a| a.body_u64("cache_hits").unwrap_or(0) as f64)
                    .collect(),
            ),
            "count",
        );
        put_setup_layers(&design, &setup_times, m);
        put_eco_layers(&design, args.seed, &mut o.tally, m)?;
        // The engine layers, replayed on a plain (uncached) analysis of the
        // base.
        let t = Instant::now();
        let plain = CirStag::new(config).analyze(
            &design.graph,
            Some(&design.features),
            &design.embedding,
        )?;
        let untraced_s = secs(t);
        o.tally.record(check_identical(
            &base.node_scores,
            &plain.node_scores,
            "repeat analysis",
        ));
        let (traced_s, matches) =
            layers::replay(&design.graph, &design.embedding, &config, &plain, m)?;
        o.tally.record((!matches).then(|| {
            "layer replay did not reproduce the engine's manifolds and spectrum".to_string()
        }));
        m.put("trace.overhead_ratio", traced_s / untraced_s, "ratio");
        let t = Instant::now();
        let r = CirStag::new(config).analyze_cached(
            &design.graph,
            Some(&design.features),
            &design.embedding,
            &mut cache,
        );
        m.put("core.warm_replay_ms", secs(t) * 1e3, "ms");
        o.tally.record(match &r {
            Ok(r) => check_identical(&base.node_scores, &r.node_scores, "cache replay"),
            Err(e) => Some(format!("cache replay: {e}")),
        });
        let serial = CirStag::new(CirStagConfig {
            num_threads: 1,
            ..config
        });
        let t = Instant::now();
        let r = serial.analyze(&design.graph, Some(&design.features), &design.embedding);
        let one_thread = secs(t);
        o.tally.record(match &r {
            Ok(r) => check_identical(&base.node_scores, &r.node_scores, "single-thread analysis"),
            Err(e) => Some(format!("single-thread analyze: {e}")),
        });
        m.put("core.analyze_1t_ms", one_thread * 1e3, "ms");
        m.put("core.parallel_speedup", one_thread / untraced_s, "ratio");
    }
    Ok(o)
}
