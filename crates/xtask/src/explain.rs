//! `cargo xtask lint --explain <rule>` — the rule catalogue.
//!
//! Each entry gives the rule's mechanics, the T-Mark paper rationale
//! behind it, and how to fix (or legitimately suppress) a finding. The
//! same catalogue is summarized in `CONTRIBUTING.md`.

/// One rule's documentation.
pub struct RuleDoc {
    /// Rule identifier as printed in findings, e.g. `hot-loop-alloc`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Full explanation shown by `--explain`.
    pub detail: &'static str,
}

/// Every rule the gate runs, in execution order.
pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        name: "panic-surface",
        summary: "ratcheted count of unwrap/expect/panic! in library code",
        detail: "\
Counts `.unwrap()`, `.expect(..)` and `panic!(..)` sites per crate in
library code (test code — `#[cfg(test)]` items, tests/, benches/,
examples/ — is exempt) and compares them to the `[panic-surface]` table
of xtask/lint-baseline.toml. Counts may only go DOWN.

Rationale: the solver is meant to run unattended over large HINs
(DBLP/IMDB scale in the paper); a panic in the iteration path turns a
recoverable data problem into an abort. Return `Result` with a typed
error instead. When a panic is genuinely unreachable, document why at
the site; the baseline absorbs the existing count until it is worked
off with `cargo xtask lint --update-baseline`.",
    },
    RuleDoc {
        name: "nan-compare",
        summary: "hard error on partial_cmp(..).unwrap* over floats",
        detail: "\
Flags `partial_cmp(..).unwrap()` / `.expect(..)` chains. On floats this
panics (or silently mis-sorts via `unwrap_or`) the first time a NaN
appears — and NaN is exactly what a normalization bug produces when a
column sum reaches 0 (Eq. 2's D^-1 scaling). Use `f64::total_cmp`,
which totally orders all floats, so a NaN introduced upstream surfaces
as a deterministic ordering instead of a crash in a sort comparator.
This rule is a hard error everywhere, including tests.",
    },
    RuleDoc {
        name: "stochastic-construction",
        summary: "hard error on bypassing the normalizing constructors",
        detail: "\
Flags struct-literal construction of `FeatureWalk` or
`StochasticTensors` (and calls to the `_unchecked` escape hatches)
outside their defining modules. Theorem 1's existence guarantee relies
on the transition structures being column-stochastic (Eqs. 1-2); the
normalizing constructors are where that invariant is established, so
every other module must go through them. If a new module legitimately
owns such a type, add its file to `CONSTRUCTION_ALLOWED` in
crates/xtask/src/main.rs with a comment explaining why.",
    },
    RuleDoc {
        name: "hot-loop-alloc",
        summary: "ratcheted heap allocations inside registered hot loops",
        detail: "\
For every function registered in the `[hot-loop-alloc]` table of
xtask/hot-paths.toml, flags allocating calls inside `for`/`while`/
`loop` bodies: `.clone()`, `.to_vec()`, `.to_owned()`, `.collect()`,
`Vec::new`/`with_capacity`/`from`, `Box::new`, `String::new`/`from`/
`with_capacity`, and the `vec![..]`/`format!(..)` macros. Counts are
ratcheted per file in `[hot-loop-alloc]` of xtask/lint-baseline.toml.

Rationale: the paper's O(qTD) per-iteration cost (Sec. V) assumes the
Algorithm-1 loop touches each nonzero a constant number of times; a
per-iteration allocation adds allocator traffic proportional to the
node count times the iteration count. Preallocate buffers in the
workspace/struct and use the `*_into` variants; swap double buffers
with `std::mem::swap` instead of cloning iterates.",
    },
    RuleDoc {
        name: "float-determinism",
        summary: "hard error on ad-hoc float reductions in registered files",
        detail: "\
In files registered under `[float-determinism]` in
xtask/hot-paths.toml, flags `.sum()` / `.sum::<f64>()` reductions and
bare scalar `+=` accumulators. Integer counters (`i += 1`), indexed
scatters (`y[i] += ..`), pointer/element updates (`*yi += ..`) and
field updates (`self.x += ..`) are exempt — the rule targets scalar
reduction loops whose result depends on summation order.

Rationale: normalization (Eq. 2) and the stationary-distribution
convergence checks compare float sums to tolerances; naive summation
makes those results depend on iteration order and optimization level.
Route reductions through `tmark_linalg::kahan::kahan_sum` (or
`kahan_weighted_sum`), which fixes both the traversal order and the
compensation, so every build produces bit-identical classifications
for the same input.",
    },
    RuleDoc {
        name: "invariant-coverage",
        summary: "public stochastic API must call a debug invariant check",
        detail: "\
In crates registered under `[invariant-coverage]` in
xtask/hot-paths.toml, every public function that produces or consumes
`StochasticTensors` / `FeatureWalk` values — or is a method of one of
those types handling f64 probability data — must call one of the
`debug_assert_*` invariant macros (or a `*_violation` checker /
`debug_verify_*` helper) somewhere in its body.

Rationale: Theorems 1-3 hold only while the transition structures stay
column-stochastic and the iterates stay on the probability simplex.
The invariant macros make those preconditions executable; they compile
to nothing in release builds, so coverage is free at production time
but catches drift in every debug test run. A thin wrapper that merely
delegates to a checked function can be excused by adding
`<file>::<fn>` to the `allow` list of `[invariant-coverage]`.",
    },
    RuleDoc {
        name: "dead-surface",
        summary: "ratcheted unused pub items and unused dependencies",
        detail: "\
Per crate, counts (a) `pub` items whose name occurs nowhere in the
workspace outside their own definition span, and (b) `[dependencies]`
entries whose crate identifier never appears in the crate's src/ tree.
Both feed one ratcheted count per crate in `[dead-surface]` of
xtask/lint-baseline.toml.

Rationale: this is a research codebase that grows PR by PR; API that
nothing exercises is untested API, and unused manifest entries cost
compile time and obscure the real dependency graph. Liveness is
deliberately conservative — any textual reference (tests, benches,
other crates, re-exports) keeps an item alive — so a finding means
*nothing anywhere* names the item. Delete it, make it private, or wire
up the caller that was meant to exist. Dependencies used only by
tests/benches belong in [dev-dependencies].",
    },
    RuleDoc {
        name: "nondeterministic-order",
        summary: "ratcheted HashMap/HashSet iteration in library code",
        detail: "\
In crates registered under `[nondeterministic-order]` in
xtask/hot-paths.toml, flags traversal of bindings typed or constructed
as `HashMap`/`HashSet` in library code: `.iter()`, `.iter_mut()`,
`.keys()`, `.values()`, `.drain()`, `.retain()`, `.into_iter()` and
`for .. in` loops. Order-free lookups (`.get`, `.contains_key`) and
test code are exempt. Counts are ratcheted per crate in
`[nondeterministic-order]` of xtask/lint-baseline.toml.

Rationale: the default hasher is randomized per process, so any fold,
output ordering, or tie-break that touches hash iteration order makes
two runs of the same classification disagree — invisibly, because each
run is internally consistent. Use `BTreeMap`/`BTreeSet`, index-keyed
`Vec`s, or collect-and-sort the keys before iterating. A finding that
is provably order-insensitive (e.g. feeding a commutative integer
count) can be absorbed by the baseline until reworked.",
    },
    RuleDoc {
        name: "kernel-contract",
        summary: "hard error on shared state inside chunk closures",
        detail: "\
For every file registered in `[hot-loop-alloc]` of
xtask/hot-paths.toml, inspects the closures passed to `run_chunks` /
`run_col_chunks` and rejects three escapes from the
one-owner-per-output-element contract: (a) shared synchronization
state (`Mutex`, `RwLock`, `Atomic*`, `OnceLock`, cells, channels) —
acquisition order is scheduler-dependent; (b) assignments whose target
resolves to a captured binding rather than the closure's parameters or
locals — a write outside the chunk the closure owns races with other
chunks; (c) bare scalar float accumulation (`acc += x`) — partial sums
must go through `tmark_linalg::kahan` so rounding stays fixed-order.

Rationale: the solver's scale story (ROADMAP determinism contract)
promises bitwise-identical output at any thread cap; these are exactly
the three ways a kernel closure can silently break that while still
passing every single-threaded test. There is no allowlist: restructure
the kernel so each chunk writes only its own slice and returns any
reduction through the runner.",
    },
    RuleDoc {
        name: "determinism-coverage",
        summary: "ratcheted parallel kernels without a cap-bitwise test",
        detail: "\
Cross-references the `[hot-loop-alloc]` registry against the test
tree: every registered function whose body reaches `run_chunks`,
`run_col_chunks`, or `run_tasks` must be named by some `#[test]` (or
tests/ file) that also pins the thread cap via `set_thread_cap` or
`THREAD_CAP_ENV`. Counts are ratcheted per file in
`[determinism-coverage]` of xtask/lint-baseline.toml, and every
registered parallel kernel's file is pinned at an explicit count so
new kernels start covered.

Rationale: the static kernel-contract rule catches structural escapes,
but bitwise equality across caps is ultimately an empirical property —
the cap-1-vs-cap-N test shape (build serially, build with a cap of N,
compare `to_bits()`) is the executable form of the determinism
contract. Add such a test next to the kernel; see
crates/sparse-tensor/tests/parallel_determinism.rs for the canonical
shape.",
    },
    RuleDoc {
        name: "lossy-cast",
        summary: "ratcheted narrowing/float-truncating casts in library code",
        detail: "\
Per crate, counts (a) narrowing `as` casts (`as u32`, `as i32`, and the
other sub-64-bit integer targets) and (b) integer casts of bindings
ascribed a float type (`nums[0] as usize` on a float-parsed id — the
cast silently truncates toward zero). Test code is exempt; counts are
ratcheted per crate in `[lossy-cast]` of xtask/lint-baseline.toml, and
the ingestion/build crates listed under `pinned` in
xtask/hot-paths.toml are held at an explicit 0.

Rationale: the compressed kernels pack node and relation indices as
u32; at the million-node scale of ROADMAP item 1 a raw `as u32` wraps
silently and corrupts ids instead of failing. Validate once at the
build boundary — `SparseTensor3::from_entries` returns
`TensorError::IndexOverflow`, the feature-walk builders return
`WalkError::IndexOverflow` — and add the consuming kernel fn to the
`allow` list of `[lossy-cast]` (validated by registry-rot), which
documents exactly where raw casts are provably width-safe.",
    },
    RuleDoc {
        name: "overflow-arith",
        summary: "ratcheted unchecked offset arithmetic in build-path fns",
        detail: "\
Inside the functions registered under `[overflow-arith]` in
xtask/hot-paths.toml, flags bare `+`, `*`, `+=`, and `*=` where an
adjacent operand is named as an offset, length, or count (`*_ptr`,
`nnz`, `len`, `offset`, `stride`). Literal counter bumps
(`row_ptr[i] += 1`) are exempt — a counter bounded by a loop trip count
cannot overflow usize before the allocation it indexes fails first.
Counts are ratcheted per crate in `[overflow-arith]` of
xtask/lint-baseline.toml.

Rationale: slice-pointer prefix sums and capacity math are exactly the
expressions that wrap only at 10^7+ nnz, where debug assertions no
longer run. Use `checked_add`/`checked_mul` routed through a typed
`IndexOverflow` error at fallible boundaries; in infallible builders
whose sums are provably bounded by nnz, pair `checked_add` with
`unwrap_or_else(|| unreachable!(..))` and document the bound — that
keeps the panic-surface ratchet flat while making the assumption
executable. Widening to u64 before multiplying also passes.",
    },
    RuleDoc {
        name: "quadratic-alloc",
        summary: "hard error on node-by-node sized allocations",
        detail: "\
Flags `vec![..; a * b]` and `with_capacity(a * b)` in library code
where both factors resolve to node-count identifiers (`n`, `num_nodes`,
`rows`, `cols`, ...). Bounded factors (`n * (k + 1)`), method-call
dimensions (`y.rows() * y.cols()`), and test code are exempt. Hard
error: the only escape is registering the file under `dense` in
`[quadratic-alloc]` of xtask/hot-paths.toml.

Rationale: the paper's O(qTD) per-iteration cost (Sec. V) holds only
while every build path scales along nnz, not n² — an 800-node dev
dataset hides a dense n×n buffer that is 8 TB at 10^6 nodes. The dense
walk backend (the paper's literal Eq. 9) and the DenseMatrix type are
intentionally dense and registered; everything else must build CSR/CSC
triplets sized by nnz. Kong et al.'s meta-path classification and Gao
et al.'s tensor factorization (PAPERS.md) both keep this invariant.",
    },
    RuleDoc {
        name: "registry-rot",
        summary: "hard error on stale registry entries (xtask/hot-paths.toml)",
        detail: "\
Validates every entry of xtask/hot-paths.toml against the live item
tree: `[hot-loop-alloc]` file keys must exist and their function lists
must resolve via the item parser, `allocating-calls` must resolve
somewhere in the workspace, `[float-determinism]` paths must exist,
`[invariant-coverage]` / `[nondeterministic-order]` crates must exist,
and `file::fn` allow entries must resolve to real items. The same
checks cover the scale sections: `[lossy-cast]` allow entries must
resolve as `file::fn`, `pinned` crates must exist, `[overflow-arith]`
file/function lists must resolve, and `[quadratic-alloc]` dense files
must exist.

Rationale: the registries are the contract between the codebase and
this gate — a renamed kernel whose registry entry silently stops
matching would turn the hot-loop-alloc, kernel-contract, and
determinism-coverage rules into no-ops for exactly the code they were
written to guard. There is deliberately no allowlist: fix or remove
the stale entry in the same change that moved the code.",
    },
    RuleDoc {
        name: "unsafe-forbid",
        summary: "crate roots must carry #![forbid(unsafe_code)]",
        detail: "\
Checks that every crate root (src/lib.rs or src/main.rs) carries
`#![forbid(unsafe_code)]` unless the crate is listed in the `allow`
list of `[unsafe-forbid]` in xtask/hot-paths.toml. The workspace-level
`unsafe_code = \"deny\"` lint can be overridden by a module-level
`#[allow]`; `forbid` cannot, which turns the no-unsafe policy into a
compiler guarantee. Nothing in a sparse-tensor Markov solver needs
unsafe: the hot paths are already allocation-free and bounds checks on
the CSC-style index arrays are part of the input-validation story.",
    },
];

/// Looks up a rule by name.
pub fn find(name: &str) -> Option<&'static RuleDoc> {
    RULES.iter().find(|r| r.name == name)
}

/// The `--explain` entry point: prints the rule's documentation, or the
/// catalogue index when the rule is unknown.
pub fn explain(name: &str) -> bool {
    match find(name) {
        Some(rule) => {
            println!("{}: {}\n\n{}", rule.name, rule.summary, rule.detail);
            true
        }
        None => {
            eprintln!("xtask: unknown rule `{name}`; available rules:");
            for rule in RULES {
                eprintln!("    {:24} {}", rule.name, rule.summary);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_all_fourteen_rules_plus_unsafe_gate() {
        let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "panic-surface",
                "nan-compare",
                "stochastic-construction",
                "hot-loop-alloc",
                "float-determinism",
                "invariant-coverage",
                "dead-surface",
                "nondeterministic-order",
                "kernel-contract",
                "determinism-coverage",
                "lossy-cast",
                "overflow-arith",
                "quadratic-alloc",
                "registry-rot",
                "unsafe-forbid",
            ]
        );
    }

    #[test]
    fn every_rule_documents_fix_guidance() {
        for rule in RULES {
            assert!(!rule.summary.is_empty());
            assert!(rule.detail.len() > 100, "{} detail too thin", rule.name);
        }
        assert!(find("hot-loop-alloc").is_some());
        assert!(find("nope").is_none());
    }
}
