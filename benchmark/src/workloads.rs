//! The four workloads: what each runs, at what size, and why it exists.
//!
//! Every workload runs the same pipeline — bytes → `read_hin` → `(O, R)`
//! → `W` → repeated fits → a closed-loop serving trace (one client; each
//! event is one mutation followed by request batches) — and differs in
//! which stage dominates. The inputs are a pure function of the seed.

use tmark::{AnnParams, FeatureWalkMode, TMarkConfig};
use tmark_bench::Dataset;
use tmark_datasets::{PowerLawHinConfig, PowerLawRelationSpec};
use tmark_hin::Hin;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "presets",
        why: "the five paper presets: the dense O(n^2) W build and apply plus the ICA restart dominate and the tensor is tiny, so a scale-path change should show no change here",
    },
    Workload {
        name: "powerlaw-1e5",
        why: "10^5 nodes and 10^6 edges with the LSH W: the super-linear W build is most of setup_s, so a W-build change shows here",
    },
    Workload {
        name: "powerlaw-links",
        why: "5*10^4 nodes and 5*10^6 edges over 8 relations: read_hin, the (O, R) build and the contractions dominate, so a tensor change shows and a W-build change does not",
    },
    Workload {
        name: "serve-mutating",
        why: "closed loop, 1 client, 10^4 nodes: label reveals, edge patches, inserts and node adds beside cached reads, so patch, warm-refit and cache-hit costs show",
    },
];

/// Input size: `Full` is the benchmark; `Tiny` (about 500 nodes, 10
/// events) lets the unit tests run every workload end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Everything a workload run needs besides its input bytes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The serving workload: setup is `read_hin`, `ServingSession::new`
    /// and the first (cold) request instead of `read_hin`, `(O, R)` and
    /// `W`, and the end of the trace is checked against offline fits (served
    /// answers against a cold fit, the mutated network against a fresh
    /// rebuild), with accuracy taken from the served answers. The batch
    /// workloads take accuracy from their fits: their short serving tails
    /// exist to time refits at scale.
    pub serve: bool,
    /// Label fraction of the initial supervision set.
    pub fraction: f64,
    pub mode: FeatureWalkMode,
    pub setup_reps: usize,
    pub min_fit_reps: usize,
    pub max_fit_reps: usize,
    /// Serving-trace events per network.
    pub events: usize,
}

/// Requests per `classify_batch` call and batches per serving event.
pub const BATCH: usize = 8;
pub const BATCHES_PER_EVENT: usize = 4;

/// The ANN walk of the power-law workloads: the `bench_solver --scaling`
/// settings, other `AnnParams` fields at their defaults so a change of a
/// default shows.
fn scaling_ann() -> FeatureWalkMode {
    FeatureWalkMode::Ann {
        k: 8,
        params: AnnParams {
            rows_per_band: 16,
            bands: 4,
            ..AnnParams::default()
        },
    }
}

/// Algorithm-1 settings of the generated networks.
fn powerlaw_config() -> TMarkConfig {
    TMarkConfig {
        alpha: 0.9,
        gamma: 0.5,
        lambda: 0.9,
        ..TMarkConfig::default()
    }
}

const PRESETS: [Dataset; 5] = [
    Dataset::Dblp,
    Dataset::Movies,
    Dataset::NusTagset1,
    Dataset::NusTagset2,
    Dataset::Acm,
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn plan(name: &str, scale: Scale) -> Plan {
    let tiny = scale == Scale::Tiny;
    let (setup_reps, min_fit_reps, events) = match (name, tiny) {
        (_, true) => (2, 2, 10),
        ("presets", _) => (5, 10, 16),
        ("powerlaw-1e5", _) => (3, 10, 8),
        ("powerlaw-links", _) => (3, 5, 6),
        _ => (3, 10, 120),
    };
    let (fraction, mode) = match name {
        "presets" => (0.3, FeatureWalkMode::Auto),
        "serve-mutating" => (0.1, FeatureWalkMode::Auto),
        _ => (0.1, scaling_ann()),
    };
    Plan {
        serve: name == "serve-mutating",
        fraction,
        mode,
        setup_reps,
        min_fit_reps,
        max_fit_reps: 50,
        events,
    }
}

fn powerlaw(nodes: usize, relations: usize, edges: usize, seed: u64) -> PowerLawHinConfig {
    let relations = if relations == 2 {
        // The bench_solver scaling split: a homophilous Zipf head and a
        // noisy flatter tail.
        vec![
            relation("head", edges / 5 * 3, 0.8, 0.7),
            relation("tail", edges / 5 * 2, 0.5, 0.2),
        ]
    } else {
        (0..relations)
            .map(|r| {
                let (zipf, homophily) = if r % 2 == 0 { (0.8, 0.7) } else { (0.5, 0.2) };
                relation(&format!("rel-{r}"), edges / relations, zipf, homophily)
            })
            .collect()
    };
    PowerLawHinConfig {
        num_nodes: nodes,
        num_classes: 4,
        relations,
        feature_dim: 16,
        cluster_spread: 0.5,
        seed,
    }
}

fn relation(
    name: &str,
    num_edges: usize,
    zipf_exponent: f64,
    homophily: f64,
) -> PowerLawRelationSpec {
    PowerLawRelationSpec {
        name: name.into(),
        num_edges,
        zipf_exponent,
        homophily,
    }
}

/// Generates the workload's networks.
pub fn generate(name: &str, scale: Scale, seed: u64) -> Vec<Hin> {
    let tiny = scale == Scale::Tiny;
    let graph = |nodes, relations, edges| vec![powerlaw(nodes, relations, edges, seed).generate()];
    match (name, tiny) {
        ("presets", _) => {
            let sets: &[Dataset] = if tiny { &PRESETS[..1] } else { &PRESETS };
            sets.iter().map(|d| d.load(seed)).collect()
        }
        ("powerlaw-1e5", false) => graph(100_000, 2, 1_000_000),
        ("powerlaw-links", false) => graph(50_000, 8, 5_000_000),
        ("serve-mutating", false) => graph(10_000, 4, 200_000),
        ("powerlaw-1e5", true) => graph(500, 2, 5_000),
        ("powerlaw-links", true) => graph(500, 8, 8_000),
        _ => graph(500, 4, 4_000),
    }
}

/// Algorithm-1 settings of the workload's `index`-th network.
pub fn tmark_config(name: &str, index: usize) -> TMarkConfig {
    match PRESETS.get(index) {
        Some(d) if name == "presets" => d.tmark_config(),
        _ => powerlaw_config(),
    }
}

/// The label split seed derived from the input seed.
pub fn split_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5151
}
