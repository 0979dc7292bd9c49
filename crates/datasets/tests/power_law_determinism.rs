//! Thread-cap bitwise determinism of the power-law generator.
//!
//! The generator's contract is that the produced network is a pure
//! function of its configuration: every synthesis chunk seeds its own
//! RNG from `(seed, relation, chunk)` and wave results are concatenated
//! in chunk order, so the output must be bit-for-bit identical at any
//! thread cap. These tests assert equality with `assert_eq!`, never a
//! tolerance. The adaptive work threshold is forced down to 1
//! (`pool::set_parallel_work_threshold`) so the pool really spins up
//! workers at caps > 1 even on small fixtures.
//!
//! This is an integration binary so the process-global thread cap and
//! work threshold belong to it alone; its tests take turns with them
//! through `pool_guard`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;
use tmark_datasets::{PowerLawHinConfig, PowerLawRelationSpec};
use tmark_linalg::pool;

/// Thread caps under test: forced-serial, the CI matrix cap, and more
/// workers than a small plan has chunks.
const CAPS: [usize; 3] = [1, 4, 7];

/// Serializes this binary's tests: they share the process-global thread
/// cap, work threshold and `peak_workers` gauge, so a test running beside
/// another could see its cap changed or its gauge reset mid-measurement.
/// A panicking test poisons the lock; the next one takes it anyway.
static POOL_STATE: Mutex<()> = Mutex::new(());

fn pool_guard() -> MutexGuard<'static, ()> {
    POOL_STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Forces chunk synthesis through the pool regardless of plan size.
fn force_parallel() {
    pool::set_parallel_work_threshold(Some(1));
}

/// Entry coordinates with the value's exact bit pattern (never a float
/// compare).
type EntryBits = (usize, usize, usize, u64);

/// Fingerprint of everything the generator emits: exact entry
/// coordinates/values (bit pattern, not float compare), the feature
/// matrix bits, and the label assignment.
fn fingerprint(cfg: &PowerLawHinConfig) -> (Vec<EntryBits>, Vec<u64>, Vec<usize>) {
    let hin = cfg.generate();
    let entries = hin
        .tensor()
        .entries()
        .iter()
        .map(|e| (e.i, e.j, e.k, e.value.to_bits()))
        .collect();
    let features = hin
        .features()
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let labels = (0..hin.num_nodes())
        .map(|v| hin.labels().labels_of(v)[0])
        .collect();
    (entries, features, labels)
}

fn assert_cap_invariant(cfg: &PowerLawHinConfig) {
    let _pool = pool_guard();
    force_parallel();
    pool::set_thread_cap(Some(1));
    let reference = fingerprint(cfg);
    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        pool::reset_peak_workers();
        let replay = fingerprint(cfg);
        assert_eq!(reference.0, replay.0, "entries diverge at cap {cap}");
        assert_eq!(reference.1, replay.1, "features diverge at cap {cap}");
        assert_eq!(reference.2, replay.2, "labels diverge at cap {cap}");
    }
    pool::set_thread_cap(None);
    pool::set_parallel_work_threshold(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Edge budgets up to ~70k split into 1–3 chunks per relation at the
    /// 2^15 chunk size, so the plan genuinely crosses chunk boundaries.
    #[test]
    fn generator_is_bitwise_deterministic_across_thread_caps(
        n in 128usize..700,
        q in 1usize..6,
        edges in 20_000usize..70_000,
        zipf in 0.0f64..1.5,
        homophily in 0.0f64..=1.0,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = PowerLawHinConfig {
            num_nodes: n,
            num_classes: q,
            relations: vec![
                PowerLawRelationSpec {
                    name: "r0".into(),
                    num_edges: edges,
                    zipf_exponent: zipf,
                    homophily,
                },
                PowerLawRelationSpec {
                    name: "r1".into(),
                    num_edges: edges / 2,
                    zipf_exponent: zipf / 2.0,
                    homophily: 1.0 - homophily,
                },
            ],
            feature_dim: 9,
            cluster_spread: 0.4,
            seed,
        };
        assert_cap_invariant(&cfg);
    }
}

/// Feature synthesis spans multiple node chunks (NODE_CHUNK = 2^13), so
/// chunked feature rows must also land cap-independently.
#[test]
fn multi_chunk_features_are_cap_invariant() {
    let cfg = PowerLawHinConfig {
        num_nodes: 20_000,
        num_classes: 4,
        relations: vec![PowerLawRelationSpec {
            name: "r".into(),
            num_edges: 40_000,
            zipf_exponent: 0.8,
            homophily: 0.6,
        }],
        feature_dim: 8,
        cluster_spread: 0.3,
        seed: 99,
    };
    assert_cap_invariant(&cfg);
}
