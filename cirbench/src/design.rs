//! Benchmark set-up: generate a suite design, run STA, extract features and
//! train the CLI's timing GNN — plus the Table-I separation check that uses
//! the trained model.

use crate::stats::{relative_drift, separation};
use crate::{secs, Fail};
use cirstag_circuit::{
    benchmark_suite, extract_features, generate_circuit, parse_netlist, perturb_pin_caps,
    write_netlist, CapPerturbation, CellLibrary, FeatureConfig, GeneratorConfig, Netlist, PinRole,
    StaEngine, TimingGraph,
};
use cirstag_gnn::{r2_score, Activation, GnnModel, GraphContext, LayerSpec, TrainConfig};
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;
use std::time::Instant;

/// GNN training epochs of `cirstag analyze` (its `--epochs` default).
pub const CLI_EPOCHS: usize = 200;

/// A generated design with its trained timing GNN.
pub struct Design {
    /// The netlist as text, exactly as a client submits it; the design is
    /// parsed back from it, as `cirstag analyze` parses its input file.
    pub text: String,
    pub library: CellLibrary,
    pub netlist: Netlist,
    pub timing: TimingGraph,
    /// The undirected pin graph CirSTAG analyzes.
    pub graph: Graph,
    pub ctx: GraphContext,
    /// Nominal per-pin features.
    pub features: DenseMatrix,
    pub model: GnnModel,
    /// The GNN's node embeddings (CirSTAG's output-side data).
    pub embedding: DenseMatrix,
    /// Training-set R² of the arrival-time regressor.
    pub r2: f64,
    /// Epochs training actually ran.
    pub epochs_run: usize,
}

/// Wall seconds of each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generator + netlist text round trip + timing graph + pin graph.
    pub generate: f64,
    /// STA arrival times (the training targets).
    pub sta: f64,
    pub features: f64,
    pub train: f64,
    /// One inference pass producing the node embeddings.
    pub infer: f64,
}

/// Looks up a `benchmark_suite()` design by name.
pub fn suite_seed(name: &str) -> Result<u64, Fail> {
    benchmark_suite()
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.seed)
        .ok_or_else(|| Fail::new(format!("{name} is not in benchmark_suite()")))
}

fn suite_gates(name: &str) -> Result<usize, Fail> {
    benchmark_suite()
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.num_gates)
        .ok_or_else(|| Fail::new(format!("{name} is not in benchmark_suite()")))
}

/// Builds `name` with generator seed `seed` and trains the CLI's
/// `Linear→DagProp→Linear→Linear` regressor for `epochs` epochs with the
/// CLI's model seed and optimizer settings.
pub fn build(name: &str, seed: u64, epochs: usize) -> Result<(Design, SetupTimes), Fail> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let library = CellLibrary::standard();
    let config = GeneratorConfig {
        num_gates: suite_gates(name)?,
        ..Default::default()
    };
    let text = write_netlist(&generate_circuit(&library, &config, seed)?, &library);
    let netlist = parse_netlist(&text, &library)?;
    let timing = TimingGraph::new(&netlist, &library)?;
    let graph = timing.to_undirected_graph()?;
    let arcs: Vec<(usize, usize)> = timing.arcs().iter().map(|&(f, t, _)| (f, t)).collect();
    let ctx = GraphContext::with_dag(&graph, &arcs)?;
    times.generate = secs(t);

    let t = Instant::now();
    let sta = StaEngine::new(&timing);
    let critical = sta.critical_arrival().max(1e-12);
    let rows: Vec<Vec<f64>> = sta
        .arrival_times()
        .iter()
        .map(|&a| vec![a / critical])
        .collect();
    let targets = DenseMatrix::from_rows(&rows)?;
    times.sta = secs(t);

    let t = Instant::now();
    let features = extract_features(
        &timing,
        &netlist,
        &library,
        &timing.pin_caps(),
        &FeatureConfig::default(),
    )?;
    times.features = secs(t);

    let t = Instant::now();
    let mut model = GnnModel::new(
        features.ncols(),
        &[
            LayerSpec::Linear {
                dim: 32,
                activation: Activation::Relu,
            },
            LayerSpec::DagProp {
                dim: 32,
                activation: Activation::Relu,
            },
            LayerSpec::Linear {
                dim: 16,
                activation: Activation::Relu,
            },
            LayerSpec::Linear {
                dim: 1,
                activation: Activation::Identity,
            },
        ],
        0xC11,
    )?;
    let report = model.fit_regression(
        &ctx,
        &features,
        &targets,
        None,
        &TrainConfig {
            epochs,
            learning_rate: 8e-3,
            weight_decay: 1e-5,
            clip_norm: 5.0,
            ..TrainConfig::default()
        },
    )?;
    times.train = secs(t);

    let t = Instant::now();
    let embedding = model.embeddings(&ctx, &features)?;
    times.infer = secs(t);
    let pred = model.forward(&ctx, &features, false)?;
    let r2 = r2_score(&pred, &targets);

    let design = Design {
        text,
        library,
        netlist,
        timing,
        graph,
        ctx,
        features,
        model,
        embedding,
        r2,
        epochs_run: report.losses.len(),
    };
    Ok((design, times))
}

impl Design {
    /// Pins the Table-I protocol may perturb: positive capacitance and not
    /// a primary output.
    pub fn eligible(&self) -> Vec<bool> {
        (0..self.timing.num_pins())
            .map(|p| {
                let pin = self.timing.pin(p);
                pin.capacitance > 0.0 && pin.role != PinRole::PrimaryOutput
            })
            .collect()
    }

    /// GNN primary-output predictions with every pin in `pins` carrying
    /// `scale` × its nominal capacitance.
    fn po_predictions(&mut self, pins: &[usize], scale: f64) -> Result<Vec<f64>, Fail> {
        let caps = perturb_pin_caps(&self.timing, &CapPerturbation::new(pins.to_vec(), scale)?)?;
        let features = extract_features(
            &self.timing,
            &self.netlist,
            &self.library,
            &caps,
            &FeatureConfig::default(),
        )?;
        let pred = self.model.forward(&self.ctx, &features, false)?;
        Ok(self
            .timing
            .po_pins()
            .iter()
            .map(|&po| pred.get(po, 0))
            .collect())
    }

    /// Mean relative primary-output drift of the GNN when the caps of
    /// `pins` are scaled by `scale`.
    pub fn drift(&mut self, pins: &[usize], scale: f64) -> Result<f64, Fail> {
        let nominal = self.model.forward(&self.ctx, &self.features, false)?;
        let base: Vec<f64> = self
            .timing
            .po_pins()
            .iter()
            .map(|&po| nominal.get(po, 0))
            .collect();
        let perturbed = self.po_predictions(pins, scale)?;
        Ok(relative_drift(&base, &perturbed))
    }

    /// The Table-I separation of `scores`: drift after scaling the caps of
    /// the top-10% unstable eligible pins by 10×, over the same for the
    /// bottom-10% stable pins.
    pub fn separation(&mut self, scores: &[f64]) -> Result<f64, Fail> {
        let eligible = self.eligible();
        let unstable = cirstag::top_fraction(scores, 0.1, Some(&eligible));
        let stable = cirstag::bottom_fraction(scores, 0.1, Some(&eligible));
        let up = self.drift(&unstable, 10.0)?;
        let down = self.drift(&stable, 10.0)?;
        separation(up, down)
            .ok_or_else(|| Fail::new(format!("separation undefined: drifts {up} / {down}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_perturbation_leaves_the_gnn_unmoved() {
        let (mut d, _) = build("syn_ctl300", suite_seed("syn_ctl300").unwrap(), 5).unwrap();
        assert_eq!(d.drift(&[], 10.0).unwrap(), 0.0);
        let eligible: Vec<usize> = (0..d.graph.num_nodes())
            .filter(|&p| d.eligible()[p])
            .collect();
        assert!(d.drift(&eligible, 10.0).unwrap() > 0.0);
        let scores: Vec<f64> = (0..d.graph.num_nodes()).map(|i| (i % 7) as f64).collect();
        let s = d.separation(&scores).unwrap();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
