//! Golden bit-identity pin for the full analysis.
//!
//! `CirStag::analyze` on one small fixed generated design with a fixed
//! configuration must keep producing exactly the same bits: the FNV-1a
//! 64-bit hash of every node score and every generalized eigenvalue is
//! pinned below. Performance work on the solvers (Lanczos, the tridiagonal
//! QL, Ritz assembly) must leave this hash untouched; a change that moves
//! it changes the numbers and needs its own justification.

use cirstag_suite::circuit::{
    extract_features, generate_circuit, CellLibrary, FeatureConfig, GeneratorConfig, TimingGraph,
};
use cirstag_suite::core::{CirStag, CirStagConfig, FailurePolicy};
use cirstag_suite::gnn::{Activation, GnnModel, GraphContext, LayerSpec};

/// Hash of the score and eigenvalue bits for the design and config below.
const GOLDEN_HASH: u64 = 0x884e_ddae_6b19_602e;

fn fnv1a64(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn analyze_output_bits_match_the_golden_hash() {
    let library = CellLibrary::standard();
    let netlist = generate_circuit(
        &library,
        &GeneratorConfig {
            num_gates: 120,
            ..Default::default()
        },
        44,
    )
    .expect("generate");
    let timing = TimingGraph::new(&netlist, &library).expect("timing graph");
    let graph = timing.to_undirected_graph().expect("pin graph");
    let features = extract_features(
        &timing,
        &netlist,
        &library,
        &timing.pin_caps(),
        &FeatureConfig::default(),
    )
    .expect("features");
    let arcs: Vec<(usize, usize)> = timing.arcs().iter().map(|&(f, t, _)| (f, t)).collect();
    let ctx = GraphContext::with_dag(&graph, &arcs).expect("context");
    // An untrained, seeded model: its embeddings are a fixed deterministic
    // function of the design, which is all the pin needs.
    let mut model = GnnModel::new(
        features.ncols(),
        &[
            LayerSpec::Linear {
                dim: 16,
                activation: Activation::Relu,
            },
            LayerSpec::DagProp {
                dim: 16,
                activation: Activation::Relu,
            },
            LayerSpec::Linear {
                dim: 1,
                activation: Activation::Identity,
            },
        ],
        0xC11,
    )
    .expect("model");
    let embedding = model.embeddings(&ctx, &features).expect("embeddings");

    let report = CirStag::new(CirStagConfig {
        embedding_dim: 12,
        num_eigenpairs: 10,
        knn_k: 8,
        num_threads: 1,
        policy: FailurePolicy::Strict,
        ..Default::default()
    })
    .analyze(&graph, Some(&features), &embedding)
    .expect("analyze");

    assert_eq!(report.node_scores.len(), graph.num_nodes());
    assert_eq!(report.eigenvalues.len(), 10);
    let hash = fnv1a64(
        report
            .node_scores
            .iter()
            .chain(&report.eigenvalues)
            .map(|x| x.to_bits()),
    );
    assert_eq!(
        hash, GOLDEN_HASH,
        "analysis output bits moved: hash {hash:#018x}"
    );
}
