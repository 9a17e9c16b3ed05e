//! `cirbench`: the CirSTAG end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path cirbench/Cargo.toml -- \
//!     --workload cold_small|cold_mid|served_eco --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a metadata line, a detail line with every figure under its
//! descriptive name, and — as the last line — the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set ([`E2E`]); with `--trace 1` they are the
//! per-layer set ([`PER_LAYER`]), measured by timing calls into each layer's
//! public functions from outside. See `cirbench/README.md`.

mod calib;
mod cold;
mod design;
mod layers;
mod served;
mod stats;

use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const E2E: [(&str, &str); 4] = [
    ("op_cost", "xref"),
    ("rank_quality", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("embed.spectral_ms", "ms"),
    ("embed.lanczos_iters", "count"),
    ("embed.knn_input_ms", "ms"),
    ("embed.knn_output_ms", "ms"),
    ("embed.knn_mean_candidates", "count"),
    ("graph.low_stretch_tree_ms", "ms"),
    ("solver.resistance_sketch_ms", "ms"),
    ("pgm.learn_input_ms", "ms"),
    ("pgm.learn_output_ms", "ms"),
    ("pgm.edges_kept_ratio", "ratio"),
    ("solver.ly_build_ms", "ms"),
    ("solver.geig_ms", "ms"),
    ("solver.geig_iters", "count"),
    ("linalg.spmv_us", "us"),
    ("linalg.spmv_bytes", "bytes"),
    ("core.phase1_ms", "ms"),
    ("core.phase2_ms", "ms"),
    ("core.phase3_ms", "ms"),
    ("core.phase1_coverage", "ratio"),
    ("core.phase2_coverage", "ratio"),
    ("core.phase3_coverage", "ratio"),
    ("core.analyze_1t_ms", "ms"),
    ("core.parallel_speedup", "ratio"),
    ("core.warm_replay_ms", "ms"),
    ("core.partitions_recomputed", "count"),
    ("core.stage_cache_hits", "count"),
    ("circuit.partition_ms", "ms"),
    ("circuit.apply_delta_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.elapsed_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.design_build_ms", "ms"),
    ("gnn.train_ms", "ms"),
    ("gnn.epochs", "count"),
    ("gnn.r2", "ratio"),
    ("gnn.infer_ms", "ms"),
    ("circuit.generate_ms", "ms"),
    ("circuit.sta_ms", "ms"),
    ("circuit.features_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// A failed benchmark step, carrying its message.
#[derive(Debug)]
pub struct Fail(pub String);

impl Fail {
    pub fn new(msg: impl Into<String>) -> Self {
        Fail(msg.into())
    }
}

impl<E: std::error::Error> From<E> for Fail {
    fn from(e: E) -> Self {
        Fail(e.to_string())
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// Workload seed: every random choice a workload makes derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Generator seed override for the workload's design (default: its
    /// `benchmark_suite()` seed), for claims on a held-out design.
    pub design_seed: Option<u64>,
    /// Worker threads for analysis (the host's core count).
    pub threads: usize,
}

fn parse_args() -> Result<Args, Fail> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut design_seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| Fail::new(format!("{flag} needs a value")))?;
        fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, Fail> {
            value
                .parse()
                .map_err(|_| Fail::new(format!("bad value {value:?} for {flag}")))
        }
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num::<u64>(&flag, &value)?),
            "--seconds" => seconds = Some(num::<f64>(&flag, &value)?),
            "--trace" => trace = Some(num::<u8>(&flag, &value)?),
            "--design-seed" => design_seed = Some(num::<u64>(&flag, &value)?),
            _ => return Err(Fail::new(format!("unknown flag {flag}"))),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(Fail::new("--seconds must be positive"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(Fail::new(format!("--trace must be 0 or 1, got {t}"))),
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Args {
        workload: workload.ok_or_else(|| Fail::new("--workload is required"))?,
        seed: seed.ok_or_else(|| Fail::new("--seed is required"))?,
        seconds,
        trace,
        design_seed,
        threads,
    })
}

/// Named figures in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    fn to_json(&self) -> Result<String, Fail> {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(Fail::new(format!("metric {name} is not finite: {value}")));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }

    /// Fails unless the names and units are exactly `spec`, in any order.
    fn check_against(&self, spec: &[(&str, &str)]) -> Result<(), Fail> {
        let mut have: Vec<(&str, &str)> = self
            .0
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        let mut want = spec.to_vec();
        have.sort_unstable();
        want.sort_unstable();
        if have != want {
            return Err(Fail::new(format!(
                "metric set mismatch:\n  have {have:?}\n  want {want:?}"
            )));
        }
        Ok(())
    }
}

/// Counts correctness checks: every operation attempted, every one whose
/// output failed a check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `problem` is `Some` when a check failed. The
    /// first few failures are echoed to stderr.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failed <= 8 {
                eprintln!("cirbench: check failed: {p}");
            }
        }
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics (untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Every figure under its descriptive name, for the detail line.
    pub detail: Metrics,
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, Fail> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| Fail::new("VmHWM missing from /proc/self/status"))?;
    Ok(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's git revision, read from `.git` in the working directory
/// only (a checkout without one reports `unknown`).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<Outcome, Fail> {
    match args.workload.as_str() {
        "cold_small" => cold::run("syn_ctl300", cold::SMALL_SETUP_REPS, args),
        "cold_mid" => cold::run("syn_if2k", cold::MID_SETUP_REPS, args),
        "served_eco" => served::run(args),
        w => Err(Fail::new(format!(
            "unknown workload {w:?} (cold_small, cold_mid, served_eco)"
        ))),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cirbench: {}", e.0);
            std::process::exit(2);
        }
    };
    let outcome = run(&args).and_then(|o| {
        let (metrics, spec) = if args.trace {
            (&o.layers, &PER_LAYER[..])
        } else {
            (&o.e2e, &E2E[..])
        };
        metrics.check_against(spec)?;
        let metrics = metrics.to_json()?;
        let detail = o.detail.to_json()?;
        Ok((o, metrics, detail))
    });
    let (o, metrics, detail) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cirbench: {}: {}", args.workload, e.0);
            std::process::exit(1);
        }
    };
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"design_seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {}, \"cpu\": {}, \"simd\": {}, \"git_rev\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.design_seed
            .map_or_else(|| "null".to_string(), |s| s.to_string()),
        args.seconds,
        u8::from(args.trace),
        args.threads,
        json_str(&cpu_model()),
        cfg!(feature = "simd"),
        json_str(&git_rev()),
    );
    println!(
        "{{\"detail\": {detail}, \"error_rate\": {{\"failed\": {}, \"attempted\": {}}}}}",
        o.tally.failed, o.tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(doc: &serde::Value, key: &str) -> Vec<(String, String)> {
        let Some(serde::Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        let mut out: Vec<(String, String)> = items
            .iter()
            .map(|m| (m.field("name").unwrap(), m.field("unit").unwrap()))
            .collect();
        out.sort();
        out
    }

    fn owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = spec
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = serde_json::parse_value(&text).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), owned(&E2E));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn metrics_render_as_json_and_reject_non_finite() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "s");
        m.put("b", 2.0, "count");
        assert_eq!(
            m.to_json().unwrap(),
            r#"{"a": {"value": 1.5, "unit": "s"}, "b": {"value": 2.0, "unit": "count"}}"#
        );
        assert!(m.check_against(&[("b", "count"), ("a", "s")]).is_ok());
        assert!(m.check_against(&[("a", "s")]).is_err());
        m.put("c", f64::NAN, "s");
        assert!(m.to_json().is_err());
    }
}
