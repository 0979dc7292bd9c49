//! The metric table: every metric this benchmark reports, its unit, which
//! direction is better, and — for end-to-end metrics — the bound by which
//! it may worsen before a change counts as a regression. `BENCHMARK.json`
//! at the repository root lists the same table; a unit test keeps the two
//! in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the pipeline sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening of the median, as a share of the parent's median.
    pub bound: f64,
}

/// A per-layer metric of the traced run, with the end-to-end metric and
/// workload it is expected to move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("fit_s", "s", Lower, 0.25),
    e2e("refit_p50_ms", "ms", Lower, 0.25),
    e2e("serve_rps", "req/s", Higher, 0.25),
    e2e("accuracy", "frac", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

pub const PER_LAYER: &[PerLayer] = &[
    layer("hin.read_s", "s", Lower, "setup_s (powerlaw-links)"),
    layer("hin.input_mb", "MB", Lower, "setup_s (all)"),
    layer(
        "hin.mutation_p50_us",
        "us",
        Lower,
        "serve_rps (serve-mutating)",
    ),
    layer("sparse_tensor.nnz", "count", Lower, "fit_s (all)"),
    layer(
        "sparse_tensor.build_s",
        "s",
        Lower,
        "setup_s (powerlaw-links), refit_p50_ms (serve-mutating)",
    ),
    layer(
        "sparse_tensor.contract_o_ms",
        "ms",
        Lower,
        "fit_s (powerlaw-links, powerlaw-1e5)",
    ),
    layer(
        "sparse_tensor.contract_r_ms",
        "ms",
        Lower,
        "fit_s (powerlaw-links, powerlaw-1e5)",
    ),
    layer(
        "sparse_tensor.contract_o_gbps_computed",
        "GB/s",
        Higher,
        "fit_s (powerlaw-links, powerlaw-1e5)",
    ),
    layer(
        "sparse_tensor.contract_r_gbps_computed",
        "GB/s",
        Higher,
        "fit_s (powerlaw-links, powerlaw-1e5)",
    ),
    layer(
        "sparse_tensor.patches",
        "count",
        Higher,
        "refit_p50_ms (serve-mutating)",
    ),
    layer(
        "sparse_tensor.rebuilds",
        "count",
        Lower,
        "refit_p50_ms, serve_rps (serve-mutating)",
    ),
    layer(
        "sparse_tensor.rebuild_ms",
        "ms",
        Lower,
        "serve_rps (serve-mutating, powerlaw-links)",
    ),
    layer(
        "feature_walk.build_s",
        "s",
        Lower,
        "setup_s (powerlaw-1e5, presets)",
    ),
    layer("feature_walk.nnz", "count", Lower, "fit_s (presets)"),
    layer("feature_walk.apply_ms", "ms", Lower, "fit_s (presets)"),
    layer(
        "feature_walk.apply_gbps_computed",
        "GB/s",
        Higher,
        "fit_s (presets)",
    ),
    layer(
        "feature_walk.recall_sampled",
        "frac",
        Higher,
        "accuracy (powerlaw-1e5, powerlaw-links)",
    ),
    layer(
        "feature_walk.empty_columns",
        "count",
        Lower,
        "accuracy (powerlaw-1e5, powerlaw-links)",
    ),
    layer("solver.solve_s", "s", Lower, "fit_s (all)"),
    layer(
        "solver.iterations",
        "count",
        Lower,
        "fit_s, refit_p50_ms (all)",
    ),
    layer("solver.iterations_max", "count", Lower, "fit_s (all)"),
    layer("solver.per_iter_ms", "ms", Lower, "fit_s (all)"),
    layer("solver.restart_ms", "ms", Lower, "fit_s (presets)"),
    layer("solver.attributed_frac", "frac", Higher, "fit_s (all)"),
    layer("solver.fit_overhead_frac", "frac", Lower, "fit_s (all)"),
    layer(
        "solver.nonconverged_classes",
        "count",
        Lower,
        "accuracy (all)",
    ),
    layer(
        "serving.cache_hit_rate",
        "frac",
        Higher,
        "serve_rps (serve-mutating)",
    ),
    layer(
        "serving.warm_fits",
        "count",
        Higher,
        "refit_p50_ms (serve-mutating)",
    ),
    layer(
        "serving.cold_fits",
        "count",
        Lower,
        "refit_p50_ms (serve-mutating)",
    ),
    layer(
        "serving.hit_latency_p50_us",
        "us",
        Lower,
        "serve_rps (serve-mutating)",
    ),
    layer(
        "serving.refit_label_p50_ms",
        "ms",
        Lower,
        "refit_p50_ms (serve-mutating)",
    ),
    layer(
        "serving.refit_reweight_p50_ms",
        "ms",
        Lower,
        "refit_p50_ms (serve-mutating)",
    ),
    layer(
        "serving.refit_insert_p50_ms",
        "ms",
        Lower,
        "refit_p50_ms (serve-mutating)",
    ),
    layer(
        "serving.warm_iterations_p50",
        "count",
        Lower,
        "refit_p50_ms (serve-mutating)",
    ),
    layer(
        "serving.cold_iterations_p50",
        "count",
        Lower,
        "fit_s (serve-mutating)",
    ),
    layer("pool.cap", "count", Higher, "fit_s, setup_s (all)"),
    layer("pool.peak_workers", "count", Higher, "fit_s, setup_s (all)"),
    layer(
        "input.gen_s",
        "s",
        Lower,
        "none: input synthesis is outside every end-to-end metric",
    ),
    layer(
        "trace.overhead_frac",
        "frac",
        Lower,
        "none: traced against untraced fit_s",
    ),
    layer(
        "trace.setup_coverage",
        "frac",
        Higher,
        "none: share of setup_s inside layer spans",
    ),
];

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "invalid name {name:?}");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(""));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn units_and_bounds_are_within_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is registered");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_this_table() {
        for w in WORKLOADS {
            let line = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(
                BENCHMARK_JSON.contains(&line),
                "missing workload line {line}"
            );
        }
        for m in END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(BENCHMARK_JSON.contains(&line), "missing metric line {line}");
        }
        for m in PER_LAYER {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(BENCHMARK_JSON.contains(&line), "missing metric line {line}");
        }
        let listed = BENCHMARK_JSON.matches("\"name\": ").count();
        assert_eq!(
            listed,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a name the code does not know"
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
