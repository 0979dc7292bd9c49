//! Rule configuration (`xtask/hot-paths.toml`).
//!
//! The item-aware rules are driven by a checked-in registry rather than
//! hard-coded paths:
//!
//! - `[hot-loop-alloc]` maps source files to the *hot functions* whose
//!   loop bodies must stay allocation-free (Algorithm-1 solver loops and
//!   contraction kernels — the code behind the paper's `O(qTD)` claim);
//! - `[float-determinism]` lists the normalization/contraction files
//!   whose scalar float reductions must go through
//!   `tmark_linalg::kahan::kahan_sum`;
//! - `[invariant-coverage]` names the crates whose public
//!   `StochasticTensors`/`FeatureWalk` surface must carry runtime
//!   invariant checks, plus a `file::fn` allowlist for thin delegating
//!   wrappers;
//! - `[nondeterministic-order]` names the crates whose library code may
//!   not iterate `HashMap`/`HashSet` (iteration order leaks into results);
//! - `[unsafe-forbid]` lists crates exempt from the
//!   `#![forbid(unsafe_code)]` crate-root requirement;
//! - `[lossy-cast]`, `[overflow-arith]` and `[quadratic-alloc]` drive the
//!   scale-safety rules of [`crate::scale`]: the `file::fn` kernels whose
//!   `as u32` casts consume validated indices plus the crates pinned at
//!   zero, the build-path functions whose offset arithmetic must be
//!   checked, and the files allowed to allocate node × node buffers.
//!
//! This is the one registry and the one parser of it. Every entry is
//! validated against the live item tree by the registry-rot rule, so the
//! registry cannot silently go stale.
//!
//! Like the baseline, only the TOML subset this file needs is parsed —
//! section headers, `#` comments, and `key = "string"` /
//! `key = ["a", "b"]` assignments (arrays may span lines) — keeping
//! xtask dependency-free.

use std::collections::{BTreeMap, BTreeSet};

/// Parsed contents of `xtask/hot-paths.toml`.
#[derive(Debug, Default, Clone)]
pub struct RuleConfig {
    /// File → names of hot functions whose loops may not allocate.
    pub hot_loop_alloc: BTreeMap<String, Vec<String>>,
    /// Workspace functions known to allocate internally (e.g. the
    /// convenience wrappers around `*_into` kernels); calling one inside
    /// a hot loop counts as an allocation.
    pub allocating_calls: Vec<String>,
    /// Files subject to the float-determinism rule.
    pub float_determinism_paths: Vec<String>,
    /// Crate directories subject to the invariant-coverage rule.
    pub invariant_crates: Vec<String>,
    /// `file::fn` entries excused from invariant-coverage.
    pub invariant_allow: BTreeSet<String>,
    /// Crate directories subject to the nondeterministic-order rule.
    pub nondeterministic_order_crates: Vec<String>,
    /// Crate directories excused from the `#![forbid(unsafe_code)]` gate.
    pub unsafe_forbid_allow: BTreeSet<String>,
    /// `file::fn` entries whose casts are provably width-safe (they
    /// consume indices already validated at a build boundary).
    pub lossy_cast_allow: BTreeSet<String>,
    /// Crate directories whose lossy-cast count is pinned at an explicit
    /// zero in the baseline (the ingestion/build crates).
    pub lossy_cast_pinned: Vec<String>,
    /// File → build-path functions whose offset arithmetic must be
    /// checked or widened.
    pub overflow_arith: BTreeMap<String, Vec<String>>,
    /// Files allowed to materialize node×node buffers (the dense walk
    /// backend and the dense matrix type itself).
    pub quadratic_alloc_dense: Vec<String>,
}

/// Parses the registry document.
///
/// # Errors
/// Returns a line-numbered description of the first malformed construct.
pub fn parse(text: &str) -> Result<RuleConfig, String> {
    let mut config = RuleConfig::default();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = value`", lineno + 1));
        };
        let key = key.trim().trim_matches('"').to_owned();
        // Accumulate multi-line arrays until brackets balance.
        let mut value = value.trim().to_owned();
        while value.starts_with('[') && !value.ends_with(']') {
            let Some((_, next)) = lines.next() else {
                return Err(format!("line {}: unterminated array", lineno + 1));
            };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let value = parse_value(&value).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        apply(&mut config, &section, &key, value)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    Ok(config)
}

fn strip_comment(line: &str) -> &str {
    // None of the registry's strings contain `#`, so a plain split is safe.
    line.split('#').next().unwrap_or("")
}

/// Every registry value is an array of quoted strings.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array of strings, found `{value}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part)?);
    }
    Ok(out)
}

fn parse_string(part: &str) -> Result<String, String> {
    let part = part.trim();
    part.strip_prefix('"')
        .and_then(|p| p.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| format!("expected a quoted string, found `{part}`"))
}

fn apply(
    config: &mut RuleConfig,
    section: &str,
    key: &str,
    value: Vec<String>,
) -> Result<(), String> {
    match (section, key) {
        // `allocating-calls` is a reserved key: real file keys contain `/`.
        ("hot-loop-alloc", "allocating-calls") => config.allocating_calls = value,
        ("hot-loop-alloc", file) => {
            config.hot_loop_alloc.insert(file.to_owned(), value);
        }
        ("float-determinism", "paths") => config.float_determinism_paths = value,
        ("invariant-coverage", "crates") => config.invariant_crates = value,
        ("invariant-coverage", "allow") => {
            config.invariant_allow = value.into_iter().collect();
        }
        ("nondeterministic-order", "crates") => config.nondeterministic_order_crates = value,
        ("unsafe-forbid", "allow") => {
            config.unsafe_forbid_allow = value.into_iter().collect();
        }
        ("lossy-cast", "allow") => config.lossy_cast_allow = value.into_iter().collect(),
        ("lossy-cast", "pinned") => config.lossy_cast_pinned = value,
        // Real file keys contain `/`, so no reserved-key clash.
        ("overflow-arith", file) => {
            config.overflow_arith.insert(file.to_owned(), value);
        }
        ("quadratic-alloc", "dense") => config.quadratic_alloc_dense = value,
        (section, key) => {
            return Err(format!("unknown entry `{key}` in section [{section}]"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_sections_including_multiline_arrays() {
        let text = r#"
# registry
[hot-loop-alloc]
"crates/tmark/src/batch.rs" = ["solve"]
"crates/sparse-tensor/src/stochastic.rs" = [
    "contract_o_multi_into",  # Eq. 5
    "contract_r_multi_into",
]

[float-determinism]
paths = ["crates/linalg/src/vector.rs"]

[invariant-coverage]
crates = ["crates/tmark"]
allow = ["crates/sparse-tensor/src/stochastic.rs::contract_o"]

[nondeterministic-order]
crates = ["crates/tmark", "crates/linalg"]

[unsafe-forbid]
allow = []
"#;
        let config = parse(text).unwrap();
        assert_eq!(
            config.hot_loop_alloc["crates/tmark/src/batch.rs"],
            vec!["solve"]
        );
        assert_eq!(
            config.hot_loop_alloc["crates/sparse-tensor/src/stochastic.rs"],
            vec!["contract_o_multi_into", "contract_r_multi_into"]
        );
        assert_eq!(
            config.float_determinism_paths,
            vec!["crates/linalg/src/vector.rs"]
        );
        assert_eq!(config.invariant_crates, vec!["crates/tmark"]);
        assert!(config
            .invariant_allow
            .contains("crates/sparse-tensor/src/stochastic.rs::contract_o"));
        assert_eq!(
            config.nondeterministic_order_crates,
            vec!["crates/tmark", "crates/linalg"]
        );
        assert!(config.unsafe_forbid_allow.is_empty());
    }

    #[test]
    fn rejects_unknown_entries_with_line_numbers() {
        let err = parse("[mystery]\nkey = \"v\"\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse("[float-determinism]\nwrong = []\n").unwrap_err();
        assert!(err.contains("wrong"), "{err}");
    }

    #[test]
    fn rejects_unquoted_strings() {
        let err = parse("[float-determinism]\npaths = [bare]\n").unwrap_err();
        assert!(err.contains("quoted"), "{err}");
    }
}
