//! `cargo xtask lint` — the workspace lint gate.
//!
//! Fourteen T-Mark-specific rules plus the unsafe-code gate, run over
//! every crate under `crates/`:
//!
//! 1. **panic-surface** (ratcheted): `.unwrap()` / `.expect()` / `panic!`
//!    in library code, counted per crate against the checked-in baseline
//!    `xtask/lint-baseline.toml`.
//! 2. **nan-compare** (hard error): `partial_cmp(..).unwrap*()` — on
//!    floats this mis-sorts or panics on NaN; use `f64::total_cmp`.
//! 3. **stochastic-construction** (hard error): struct-literal
//!    construction of `FeatureWalk` / `StochasticTensors` (or the
//!    `_unchecked` escape hatch) outside their defining modules.
//! 4. **hot-loop-alloc** (ratcheted): heap allocations inside the loop
//!    bodies of the hot functions registered in `xtask/hot-paths.toml`.
//! 5. **float-determinism** (hard error): ad-hoc `.sum()` / scalar `+=`
//!    float reductions in registered normalization/contraction files —
//!    route them through `tmark_linalg::kahan::kahan_sum`.
//! 6. **invariant-coverage** (hard error): public functions handling
//!    `StochasticTensors` / `FeatureWalk` in registered crates must call
//!    a `debug_assert_*` invariant macro or be allowlisted.
//! 7. **dead-surface** (ratcheted): unused `pub` items and unused
//!    `[dependencies]` entries per crate.
//! 8. **nondeterministic-order** (ratcheted): iteration over
//!    `HashMap`/`HashSet` in the library code of registered crates —
//!    unordered traversal leaks arbitrary order into results.
//! 9. **kernel-contract** (hard error): `run_chunks`/`run_col_chunks`
//!    closures in registered hot files must not touch shared
//!    synchronization state, write captured bindings outside their owned
//!    chunk, or accumulate floats with raw `+=` (use `kahan`).
//! 10. **determinism-coverage** (ratcheted): every registered parallel
//!     kernel needs a `#[test]` naming it together with
//!     `set_thread_cap`/`THREAD_CAP_ENV` — the cap-1-vs-cap-N bitwise
//!     test shape.
//! 11. **registry-rot** (hard error): every `hot-paths.toml` entry must
//!     resolve to a live file/function/crate.
//! 12. **lossy-cast** (ratcheted): narrowing `as` casts and integer
//!     casts of float bindings in library code — validate once at the
//!     build boundary (`TensorError::IndexOverflow` /
//!     `WalkError::IndexOverflow`); kernels consuming validated `u32`
//!     indices are allowlisted in `xtask/hot-paths.toml`.
//! 13. **overflow-arith** (ratcheted): bare `+`/`*`/`+=`/`*=` on
//!     offset/length/count bindings (`*_ptr`, `nnz`, `len`, …) inside
//!     registered build-path functions — use `checked_add`/`checked_mul`
//!     or widen to `u64`.
//! 14. **quadratic-alloc** (hard error): `vec![…; a * b]` /
//!     `with_capacity(a * b)` with two node-count factors outside the
//!     files registered as intentionally dense.
//!
//! Plus **unsafe-forbid**: every crate root must carry
//! `#![forbid(unsafe_code)]` unless allowlisted.
//!
//! The analysis is lexical-structural (see [`scrub`] and [`items`])
//! rather than `syn`-based: this workspace builds offline with no
//! external dependencies, and the rules need brace-matched item spans,
//! not a full AST. Run `cargo xtask lint --explain <rule>` for any
//! rule's rationale.
//!
//! Usage: `cargo xtask lint [--update-baseline [--allow-increase]]
//! [--format text|json|github]` or `cargo xtask lint --explain <rule>`.

#![forbid(unsafe_code)]
mod baseline;
mod config;
mod contract;
mod explain;
mod items;
mod lints;
mod report;
mod scale;
mod scrub;
mod surface;

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use baseline::Baseline;
use config::RuleConfig;
use report::{Report, Severity};
use surface::SourceFile;

/// Files whose modules own the stochastic types and may construct them.
const CONSTRUCTION_ALLOWED: &[&str] = &[
    "crates/feature-walk/src/walk.rs",
    "crates/sparse-tensor/src/stochastic.rs",
];

const BASELINE_PATH: &str = "xtask/lint-baseline.toml";
const CONFIG_PATH: &str = "xtask/hot-paths.toml";

const USAGE: &str = "usage: cargo xtask lint [--update-baseline [--allow-increase]] \
                     [--format text|json|github] | cargo xtask lint --explain <rule>";

/// Output format for the lint run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Human text: errors to stderr, notes and summary to stdout.
    Text,
    /// Machine JSON document for the CI artifact.
    Json,
    /// GitHub `::error file=…` annotations plus the text summary, so
    /// findings surface inline on PR diffs.
    Github,
}

/// Parsed command line for `xtask lint`.
struct Options {
    update_baseline: bool,
    allow_increase: bool,
    format: Format,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("lint") {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut opts = Options {
        update_baseline: false,
        allow_increase: false,
        format: Format::Text,
    };
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--update-baseline" => opts.update_baseline = true,
            "--allow-increase" => opts.allow_increase = true,
            "--explain" => {
                let Some(rule) = rest.next() else {
                    eprintln!("xtask: --explain needs a rule name");
                    return ExitCode::FAILURE;
                };
                return if explain::explain(rule) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            "--format" => match rest.next().map(String::as_str) {
                Some("json") => opts.format = Format::Json,
                Some("text") => opts.format = Format::Text,
                Some("github") => opts.format = Format::Github,
                _ => {
                    eprintln!("xtask: --format takes `text`, `json`, or `github`");
                    return ExitCode::FAILURE;
                }
            },
            unknown => {
                eprintln!("xtask: unknown argument `{unknown}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.allow_increase && !opts.update_baseline {
        eprintln!("xtask: --allow-increase only makes sense with --update-baseline");
        return ExitCode::FAILURE;
    }
    match run_lint(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> Result<PathBuf, String> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| "cannot locate workspace root".to_owned())
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative display path.
fn rel<'a>(root: &Path, path: &'a Path) -> std::borrow::Cow<'a, str> {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy()
}

/// One `src/` file with both analysis views: the full scrubbed text (with
/// its item tree, spans valid against it) and the `#[cfg(test)]`-stripped
/// view the library-only rules scan.
struct SrcFile {
    file: SourceFile,
    library_only: String,
}

/// One crate under `crates/`, fully loaded.
struct CrateData {
    /// `crates/<name>` — the ratchet key.
    key: String,
    manifest_display: String,
    manifest_text: String,
    src: Vec<SrcFile>,
    /// tests/, benches/, examples/ — scanned by nan-compare and counted
    /// as usage for dead-surface, nothing else.
    aux: Vec<SourceFile>,
}

fn load_crates(root: &Path) -> Result<Vec<CrateData>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();

    let mut out = Vec::new();
    for crate_dir in crate_dirs {
        let manifest_path = crate_dir.join("Cargo.toml");
        let mut src_paths = Vec::new();
        rust_files(&crate_dir.join("src"), &mut src_paths)?;
        let mut aux_paths = Vec::new();
        for sub in ["tests", "benches", "examples"] {
            rust_files(&crate_dir.join(sub), &mut aux_paths)?;
        }
        let src = src_paths
            .iter()
            .map(|p| -> Result<SrcFile, String> {
                let scrubbed = scrub::scrub(&read(p)?);
                let tree = items::parse(&scrubbed);
                let library_only = items::strip_cfg_test(&scrubbed, &tree);
                let lines = lints::LineIndex::new(&scrubbed);
                Ok(SrcFile {
                    file: SourceFile {
                        display: rel(root, p).into_owned(),
                        scrubbed,
                        tree,
                        lines,
                    },
                    library_only,
                })
            })
            .collect::<Result<_, _>>()?;
        let aux = aux_paths
            .iter()
            .map(|p| -> Result<SourceFile, String> {
                let scrubbed = scrub::scrub(&read(p)?);
                let lines = lints::LineIndex::new(&scrubbed);
                Ok(SourceFile {
                    display: rel(root, p).into_owned(),
                    scrubbed,
                    tree: Vec::new(),
                    lines,
                })
            })
            .collect::<Result<_, _>>()?;
        out.push(CrateData {
            key: rel(root, &crate_dir).into_owned(),
            manifest_display: rel(root, &manifest_path).into_owned(),
            manifest_text: read(&manifest_path)?,
            src,
            aux,
        });
    }
    Ok(out)
}

/// Findings of one ratcheted rule, grouped by baseline key.
type RatchetFindings = BTreeMap<String, Vec<(String, usize, String)>>;

/// Compares one ratcheted rule's findings to its baseline table and
/// pushes the outcome into the report.
fn apply_ratchet(
    rule: &'static str,
    found: &RatchetFindings,
    allowed: &BTreeMap<String, usize>,
    report: &mut Report,
) {
    for (key, sites) in found {
        let budget = allowed.get(key).copied().unwrap_or(0);
        let severity = if sites.len() > budget {
            Severity::Error
        } else {
            Severity::Allowed
        };
        for (file, line, message) in sites {
            report.push(rule, severity, file, *line, message.clone());
        }
        if sites.len() > budget {
            report.push(
                rule,
                Severity::Error,
                key,
                0,
                format!(
                    "{} finding(s), baseline allows {budget} — fix the new ones or \
                     see `cargo xtask lint --explain {rule}`",
                    sites.len()
                ),
            );
        } else if sites.len() < budget {
            report.note(format!(
                "[{rule}] {key}: {} < baseline {budget} — run \
                 `cargo xtask lint --update-baseline` to ratchet down",
                sites.len()
            ));
        }
    }
    // Baseline keys with no findings at all still ratchet down to zero.
    for (key, &budget) in allowed {
        if budget > 0 && !found.contains_key(key) {
            report.note(format!(
                "[{rule}] {key}: 0 < baseline {budget} — run \
                 `cargo xtask lint --update-baseline` to ratchet down"
            ));
        }
    }
}

fn run_lint(opts: &Options) -> Result<bool, String> {
    let root = workspace_root()?;
    let config_path = root.join(CONFIG_PATH);
    let config: RuleConfig =
        config::parse(&read(&config_path)?).map_err(|e| format!("{CONFIG_PATH}: {e}"))?;
    let crates = load_crates(&root)?;

    let mut report = Report {
        crates: crates.len(),
        ..Default::default()
    };

    // Hard-error rules plus panic-surface collection, per crate.
    let mut panic_found: RatchetFindings = RatchetFindings::new();
    for krate in &crates {
        let mut panic_sites: Vec<(String, usize, String)> = Vec::new();
        for src in &krate.src {
            let display = &src.file.display;
            for line in src
                .file
                .lines
                .lines_for(&lints::panic_sites(&src.library_only))
            {
                panic_sites.push((
                    display.clone(),
                    line,
                    "panic site (`unwrap`/`expect`/`panic!`) in library code — \
                     handle the error instead"
                        .to_owned(),
                ));
            }
            for f in lints::nan_compare_sites(&src.file.scrubbed, &src.file.lines) {
                report.push("nan-compare", Severity::Error, display, f.line, f.message);
            }
            if !CONSTRUCTION_ALLOWED.contains(&display.as_str()) {
                for f in lints::stochastic_construction_sites(&src.library_only, &src.file.lines) {
                    report.push(
                        "stochastic-construction",
                        Severity::Error,
                        display,
                        f.line,
                        f.message,
                    );
                }
            }
        }
        for aux in &krate.aux {
            for f in lints::nan_compare_sites(&aux.scrubbed, &aux.lines) {
                report.push(
                    "nan-compare",
                    Severity::Error,
                    &aux.display,
                    f.line,
                    f.message,
                );
            }
        }
        if !panic_sites.is_empty() {
            panic_found.insert(krate.key.clone(), panic_sites);
        }

        // unsafe-forbid: the crate root must carry the attribute.
        if !config.unsafe_forbid_allow.contains(&krate.key) {
            let root_file = krate.src.iter().find(|s| {
                s.file.display.ends_with("src/lib.rs") || s.file.display.ends_with("src/main.rs")
            });
            match root_file {
                Some(src) if src.file.scrubbed.contains("#![forbid(unsafe_code)]") => {}
                Some(src) => report.push(
                    "unsafe-forbid",
                    Severity::Error,
                    &src.file.display,
                    1,
                    format!(
                        "crate root lacks `#![forbid(unsafe_code)]` — add it, or \
                         allowlist `{}` under [unsafe-forbid] in {CONFIG_PATH}",
                        krate.key
                    ),
                ),
                None => report.push(
                    "unsafe-forbid",
                    Severity::Error,
                    &krate.manifest_display,
                    1,
                    "crate has no src/lib.rs or src/main.rs root to check".to_owned(),
                ),
            }
        }
    }

    // registry-rot: every hot-paths.toml entry must resolve to a live
    // file/function/crate. Hard error, no allowlist — the registry the
    // other rules key off can never silently go stale, and a refactor
    // cannot leave a stale allowance silently excusing new code.
    let find_src = |path: &str| {
        crates
            .iter()
            .flat_map(|k| &k.src)
            .find(|s| s.file.display == path)
    };
    for (section, registered) in [
        ("hot-loop-alloc", &config.hot_loop_alloc),
        ("overflow-arith", &config.overflow_arith),
    ] {
        for (file_key, fn_names) in registered {
            let tree = find_src(file_key).map(|s| s.file.tree.as_slice());
            for rot in contract::rot_check_fns(file_key, fn_names, tree) {
                report.push(
                    "registry-rot",
                    Severity::Error,
                    &rot.key,
                    0,
                    format!("[{section}] in {CONFIG_PATH}: {}", rot.message),
                );
            }
        }
    }
    for name in &config.allocating_calls {
        let resolves = crates
            .iter()
            .flat_map(|k| &k.src)
            .any(|s| !items::find_fns(&s.file.tree, name).is_empty());
        if !resolves {
            report.push(
                "registry-rot",
                Severity::Error,
                CONFIG_PATH,
                0,
                format!(
                    "[hot-loop-alloc] allocating-call `{name}` does not resolve \
                     to any function in the workspace — remove or fix the entry"
                ),
            );
        }
    }
    for (section, paths) in [
        ("float-determinism", &config.float_determinism_paths),
        ("quadratic-alloc", &config.quadratic_alloc_dense),
    ] {
        for path in paths {
            if find_src(path).is_none() {
                report.push(
                    "registry-rot",
                    Severity::Error,
                    path,
                    0,
                    format!("[{section}] registered file does not exist — remove or fix the entry"),
                );
            }
        }
    }
    for (section, entries) in [
        ("invariant-coverage", &config.invariant_allow),
        ("lossy-cast", &config.lossy_cast_allow),
    ] {
        for entry in entries {
            let split = entry.rsplit_once("::");
            let resolved = split.is_some_and(|(file, fn_name)| {
                find_src(file).is_some_and(|s| !items::find_fns(&s.file.tree, fn_name).is_empty())
            });
            if !resolved {
                report.push(
                    "registry-rot",
                    Severity::Error,
                    CONFIG_PATH,
                    0,
                    format!(
                        "[{section}] allow entry `{entry}` does not resolve \
                         to a `file::fn` item — remove or fix the entry"
                    ),
                );
            }
        }
    }
    for (section, keys) in [
        ("invariant-coverage", &config.invariant_crates),
        (
            "nondeterministic-order",
            &config.nondeterministic_order_crates,
        ),
        ("lossy-cast", &config.lossy_cast_pinned),
    ] {
        for crate_key in keys {
            if !crates.iter().any(|k| &k.key == crate_key) {
                report.push(
                    "registry-rot",
                    Severity::Error,
                    crate_key,
                    0,
                    format!(
                        "[{section}] registered crate does not exist — remove or \
                         fix the entry"
                    ),
                );
            }
        }
    }
    for crate_key in &config.unsafe_forbid_allow {
        if !crates.iter().any(|k| &k.key == crate_key) {
            report.push(
                "registry-rot",
                Severity::Error,
                crate_key,
                0,
                "[unsafe-forbid] allowlisted crate does not exist — remove the \
                 entry"
                    .to_owned(),
            );
        }
    }

    // hot-loop-alloc: registered files/functions only, ratcheted per file
    // (stale entries are registry-rot's findings, skipped here).
    let mut alloc_found: RatchetFindings = RatchetFindings::new();
    for (file_key, fn_names) in &config.hot_loop_alloc {
        let Some(src) = find_src(file_key) else {
            continue;
        };
        let bytes = src.file.scrubbed.as_bytes();
        let mut sites: Vec<(String, usize, String)> = Vec::new();
        for fn_name in fn_names {
            for f in items::find_fns(&src.file.tree, fn_name) {
                let Some((open, close)) = f.item.body else {
                    continue;
                };
                let loops = items::loop_body_spans(bytes, (open, close));
                for finding in lints::hot_loop_alloc_sites(
                    &src.file.scrubbed,
                    &loops,
                    &config.allocating_calls,
                    &src.file.lines,
                ) {
                    sites.push((
                        src.file.display.clone(),
                        finding.line,
                        format!("in hot fn `{fn_name}`: {}", finding.message),
                    ));
                }
            }
        }
        if !sites.is_empty() {
            alloc_found.insert(file_key.clone(), sites);
        }
    }

    // kernel-contract: the chunk closures of every registered hot file,
    // hard error.
    for file_key in config.hot_loop_alloc.keys() {
        let Some(src) = find_src(file_key) else {
            continue;
        };
        for f in contract::kernel_contract_sites(&src.library_only, &src.file.lines) {
            report.push(
                "kernel-contract",
                Severity::Error,
                &src.file.display,
                f.line,
                f.message,
            );
        }
    }

    // determinism-coverage: every registered parallel kernel must appear
    // in a test unit together with a thread-cap pin. Test units are whole
    // `tests/` files plus the `#[cfg(test)]` spans of library files.
    let mut test_units: Vec<String> = Vec::new();
    for krate in &crates {
        for aux in &krate.aux {
            if aux.display.contains("/tests/") {
                test_units.push(aux.scrubbed.clone());
            }
        }
        for src in &krate.src {
            for (s, e) in items::cfg_test_spans(&src.file.tree) {
                test_units.push(src.file.scrubbed[s..e.min(src.file.scrubbed.len())].to_owned());
            }
        }
    }
    let unit_refs: Vec<&str> = test_units.iter().map(String::as_str).collect();
    let mut coverage_found: RatchetFindings = RatchetFindings::new();
    let mut parallel_files: Vec<&String> = Vec::new();
    for (file_key, fn_names) in &config.hot_loop_alloc {
        let Some(src) = find_src(file_key) else {
            continue;
        };
        let mut sites: Vec<(String, usize, String)> = Vec::new();
        for fn_name in fn_names {
            let parallel_at = items::find_fns(&src.file.tree, fn_name)
                .into_iter()
                .filter_map(|f| {
                    let (open, close) = f.item.body?;
                    let body = &src.file.scrubbed[open..(close + 1).min(src.file.scrubbed.len())];
                    contract::is_parallel_kernel(body).then_some(f.item.start)
                })
                .next();
            let Some(at) = parallel_at else {
                continue;
            };
            if !parallel_files.contains(&file_key) {
                parallel_files.push(file_key);
            }
            if !contract::kernel_is_covered(fn_name, &unit_refs) {
                sites.push((
                    src.file.display.clone(),
                    src.file.lines.line_of(at),
                    format!(
                        "parallel kernel `{fn_name}` has no cap-1-vs-cap-N \
                         bitwise test — add a #[test] that names it together \
                         with `set_thread_cap` or `THREAD_CAP_ENV`"
                    ),
                ));
            }
        }
        if !sites.is_empty() {
            coverage_found.insert(file_key.clone(), sites);
        }
    }

    // nondeterministic-order: library code of registered crates, ratcheted
    // per crate.
    let mut order_found: RatchetFindings = RatchetFindings::new();
    for crate_key in &config.nondeterministic_order_crates {
        let Some(krate) = crates.iter().find(|k| &k.key == crate_key) else {
            continue;
        };
        let mut sites: Vec<(String, usize, String)> = Vec::new();
        for src in &krate.src {
            for f in lints::unordered_iteration_sites(&src.library_only, &src.file.lines) {
                sites.push((src.file.display.clone(), f.line, f.message));
            }
        }
        if !sites.is_empty() {
            order_found.insert(crate_key.clone(), sites);
        }
    }

    // float-determinism: registered files, hard error.
    for path in &config.float_determinism_paths {
        let Some(src) = find_src(path) else {
            continue;
        };
        for f in lints::float_determinism_sites(&src.library_only, &src.file.lines) {
            report.push(
                "float-determinism",
                Severity::Error,
                &src.file.display,
                f.line,
                f.message,
            );
        }
    }

    // invariant-coverage: registered crates, hard error.
    for crate_key in &config.invariant_crates {
        let Some(krate) = crates.iter().find(|k| &k.key == crate_key) else {
            continue;
        };
        for src in &krate.src {
            for f in surface::invariant_coverage(
                &src.file.display,
                &src.file.scrubbed,
                &src.file.tree,
                &config.invariant_allow,
                &src.file.lines,
            ) {
                report.push(
                    "invariant-coverage",
                    Severity::Error,
                    &src.file.display,
                    f.line,
                    f.message,
                );
            }
        }
    }

    // dead-surface: liveness corpus is every scrubbed file in the workspace.
    let mut corpus: HashMap<String, usize> = HashMap::new();
    for krate in &crates {
        for src in &krate.src {
            surface::count_idents(&src.file.scrubbed, &mut corpus);
        }
        for aux in &krate.aux {
            surface::count_idents(&aux.scrubbed, &mut corpus);
        }
    }
    let mut dead_found: RatchetFindings = RatchetFindings::new();
    for krate in &crates {
        let files: Vec<&SourceFile> = krate.src.iter().map(|s| &s.file).collect();
        let mut sites: Vec<(String, usize, String)> = Vec::new();
        for f in surface::dead_pub_items(&files, &corpus) {
            // The defining file is named inside the message; key the
            // finding to it for navigation.
            let file = files
                .iter()
                .find(|s| f.message.contains(&s.display))
                .map_or(krate.key.clone(), |s| s.display.clone());
            sites.push((file, f.line, f.message));
        }
        for f in surface::unused_deps(&krate.manifest_display, &krate.manifest_text, &files) {
            sites.push((krate.manifest_display.clone(), f.line, f.message));
        }
        if !sites.is_empty() {
            dead_found.insert(krate.key.clone(), sites);
        }
    }

    // lossy-cast: library code of every crate, ratcheted per crate, with
    // the registry's `file::fn` allowlist excusing kernels that consume
    // already-validated u32 indices.
    let mut lossy_found: RatchetFindings = RatchetFindings::new();
    for krate in &crates {
        let mut sites: Vec<(String, usize, String)> = Vec::new();
        for src in &krate.src {
            for f in scale::lossy_cast_sites(
                &src.file.display,
                &src.library_only,
                &src.file.tree,
                &config.lossy_cast_allow,
                &src.file.lines,
            ) {
                sites.push((src.file.display.clone(), f.line, f.message));
            }
        }
        if !sites.is_empty() {
            lossy_found.insert(krate.key.clone(), sites);
        }
    }

    // overflow-arith: the registered build-path functions, ratcheted per
    // crate (stale entries are registry-rot's findings, skipped here).
    let crate_of = |file_key: &str| -> String {
        file_key
            .splitn(3, '/')
            .take(2)
            .collect::<Vec<_>>()
            .join("/")
    };
    let mut overflow_found: RatchetFindings = RatchetFindings::new();
    for (file_key, fn_names) in &config.overflow_arith {
        let Some(src) = find_src(file_key) else {
            continue;
        };
        let sites: Vec<(String, usize, String)> = scale::overflow_arith_sites(
            &src.library_only,
            &src.file.tree,
            fn_names,
            &src.file.lines,
        )
        .into_iter()
        .map(|f| (src.file.display.clone(), f.line, f.message))
        .collect();
        if !sites.is_empty() {
            overflow_found
                .entry(crate_of(file_key))
                .or_default()
                .extend(sites);
        }
    }

    // quadratic-alloc: hard error in every library file not registered as
    // intentionally dense.
    for krate in &crates {
        for src in &krate.src {
            if config.quadratic_alloc_dense.contains(&src.file.display) {
                continue;
            }
            for f in scale::quadratic_alloc_sites(&src.library_only, &src.file.lines) {
                report.push(
                    "quadratic-alloc",
                    Severity::Error,
                    &src.file.display,
                    f.line,
                    f.message,
                );
            }
        }
    }

    // Ratchet bookkeeping: build the would-be baseline, then guard the
    // update and compare.
    let mut measured = Baseline::default();
    for (key, sites) in &panic_found {
        measured.panic_surface.insert(key.clone(), sites.len());
    }
    for (key, sites) in &alloc_found {
        measured.hot_loop_alloc.insert(key.clone(), sites.len());
    }
    // Registered hot files always get an entry, so a clean file is pinned
    // at an explicit `= 0` in the committed baseline.
    for file_key in config.hot_loop_alloc.keys() {
        measured.hot_loop_alloc.entry(file_key.clone()).or_insert(0);
    }
    for (key, sites) in &dead_found {
        measured.dead_surface.insert(key.clone(), sites.len());
    }
    for (key, sites) in &order_found {
        measured
            .nondeterministic_order
            .insert(key.clone(), sites.len());
    }
    // Registered crates and parallel-kernel files always get an entry, so
    // clean ones are pinned at an explicit `= 0`.
    for crate_key in &config.nondeterministic_order_crates {
        measured
            .nondeterministic_order
            .entry(crate_key.clone())
            .or_insert(0);
    }
    for (key, sites) in &coverage_found {
        measured
            .determinism_coverage
            .insert(key.clone(), sites.len());
    }
    for file_key in &parallel_files {
        measured
            .determinism_coverage
            .entry((*file_key).clone())
            .or_insert(0);
    }
    for (key, sites) in &lossy_found {
        measured.lossy_cast.insert(key.clone(), sites.len());
    }
    // Pinned ingestion/build crates always get an entry, so clean ones
    // carry an explicit `= 0` the ratchet holds them to.
    for crate_key in &config.lossy_cast_pinned {
        measured.lossy_cast.entry(crate_key.clone()).or_insert(0);
    }
    for (key, sites) in &overflow_found {
        measured.overflow_arith.insert(key.clone(), sites.len());
    }
    // Every crate with a registered build-path fn gets an entry too.
    for file_key in config.overflow_arith.keys() {
        measured
            .overflow_arith
            .entry(crate_of(file_key))
            .or_insert(0);
    }

    let baseline_path = root.join(BASELINE_PATH);
    let existing = match fs::read_to_string(&baseline_path) {
        Ok(text) => Some(Baseline::parse(&text).map_err(|e| format!("{BASELINE_PATH}: {e}"))?),
        Err(_) => None,
    };
    if opts.update_baseline {
        let old = existing.clone().unwrap_or_default();
        let diff = old.diff(&measured);
        if old.has_increase(&measured) && !opts.allow_increase {
            for line in &diff {
                eprintln!("baseline: {line}");
            }
            return Err(
                "refusing to raise ratcheted baseline counts; fix the findings or \
                 pass --allow-increase to accept them deliberately"
                    .to_owned(),
            );
        }
        if let Some(dir) = baseline_path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        fs::write(&baseline_path, measured.render())
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        // The rewrite rebuilds every section from the live tree, so
        // entries keyed to deleted crates/files drop out — surface them
        // as an explicit prune diff rather than a silent disappearance.
        for line in old.stale_entries(|key| root.join(key).exists()) {
            println!("baseline: pruned {line} (path no longer exists)");
        }
        if diff.is_empty() && old.render() == measured.render() {
            println!("xtask: baseline unchanged at {BASELINE_PATH}");
        } else {
            for line in &diff {
                println!("baseline: {line}");
            }
            println!("xtask: baseline updated at {BASELINE_PATH}");
        }
    }
    let baseline = match (opts.update_baseline, existing) {
        (true, _) => measured.clone(),
        (false, Some(b)) => b,
        (false, None) => {
            return Err(format!(
                "no baseline at {BASELINE_PATH}; run `cargo xtask lint --update-baseline` \
                 once and commit the result"
            ));
        }
    };
    if !opts.update_baseline {
        for line in baseline.stale_entries(|key| root.join(key).exists()) {
            report.note(format!(
                "stale baseline entry {line} — its path no longer exists; run \
                 `cargo xtask lint --update-baseline` to prune it"
            ));
        }
    }

    apply_ratchet(
        "panic-surface",
        &panic_found,
        &baseline.panic_surface,
        &mut report,
    );
    apply_ratchet(
        "hot-loop-alloc",
        &alloc_found,
        &baseline.hot_loop_alloc,
        &mut report,
    );
    apply_ratchet(
        "dead-surface",
        &dead_found,
        &baseline.dead_surface,
        &mut report,
    );
    apply_ratchet(
        "nondeterministic-order",
        &order_found,
        &baseline.nondeterministic_order,
        &mut report,
    );
    apply_ratchet(
        "determinism-coverage",
        &coverage_found,
        &baseline.determinism_coverage,
        &mut report,
    );
    apply_ratchet(
        "lossy-cast",
        &lossy_found,
        &baseline.lossy_cast,
        &mut report,
    );
    apply_ratchet(
        "overflow-arith",
        &overflow_found,
        &baseline.overflow_arith,
        &mut report,
    );

    match opts.format {
        Format::Json => print!("{}", report.render_json()),
        Format::Github => report.render_github(),
        Format::Text => report.render_text(),
    }
    Ok(report.clean())
}
