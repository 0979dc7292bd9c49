//! The three T-Mark lints, operating on scrubbed source text.
//!
//! Each lint is a token-level pass over text produced by
//! [`crate::scrub::scrub`] (and, for library-only lints,
//! [`crate::scrub::blank_test_regions`]). Token matching on scrubbed text
//! is deliberate: the toolchain here has no `syn`, and these rules only
//! need identifier/punctuation adjacency, which a lexer-level view gets
//! right without a full parse.

/// One lint hit, positioned for `file:line` reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based line in the original file.
    pub line: usize,
    /// Human-readable diagnosis with the suggested fix.
    pub message: String,
}

/// Precomputed line-start offsets for one file: built once, then every
/// `file:line` lookup is an O(log n) binary search instead of the old
/// per-finding O(file) newline recount. The scrubbed and test-stripped
/// views of a file blank bytes but preserve every newline, so one index
/// serves all passes over that file.
#[derive(Debug, Default, Clone)]
pub struct LineIndex {
    /// Byte offset of the first character of each line, ascending.
    starts: Vec<usize>,
}

impl LineIndex {
    /// Builds the index with one scan of `text`.
    pub fn new(text: &str) -> Self {
        let mut starts = Vec::with_capacity(128);
        starts.push(0);
        for (i, &c) in text.as_bytes().iter().enumerate() {
            if c == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line number of byte offset `pos`.
    pub fn line_of(&self, pos: usize) -> usize {
        // The number of line starts at or before `pos` is the line.
        self.starts.partition_point(|&s| s <= pos)
    }

    /// Line numbers for a list of byte offsets.
    pub fn lines_for(&self, offsets: &[usize]) -> Vec<usize> {
        offsets.iter().map(|&o| self.line_of(o)).collect()
    }
}

pub(crate) fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

pub(crate) fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// All identifier tokens as `(start, end)` byte ranges.
pub(crate) fn idents(s: &str) -> Vec<(usize, usize)> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if is_ident_start(b[i]) && (i == 0 || !is_ident_continue(b[i - 1])) {
            let start = i;
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

pub(crate) fn next_nonspace(b: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < b.len() {
        if !b[i].is_ascii_whitespace() {
            return Some((i, b[i]));
        }
        i += 1;
    }
    None
}

pub(crate) fn prev_nonspace(b: &[u8], i: usize) -> Option<(usize, u8)> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !b[j].is_ascii_whitespace() {
            return Some((j, b[j]));
        }
    }
    None
}

/// The identifier ending at byte `end` (exclusive), if any.
pub(crate) fn ident_ending_at(b: &[u8], end: usize) -> Option<&[u8]> {
    if end == 0 || !is_ident_continue(b[end - 1]) {
        return None;
    }
    let mut start = end;
    while start > 0 && is_ident_continue(b[start - 1]) {
        start -= 1;
    }
    Some(&b[start..end])
}

/// Byte position just past the `(`-balanced group starting at `open`.
fn skip_paren_group(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Panic-surface lint: `.unwrap()`, `.expect(…)`, and `panic!` sites.
///
/// Returns byte offsets; the caller ratchets the *count* per crate against
/// the checked-in baseline rather than failing on every existing site.
pub fn panic_sites(scrubbed: &str) -> Vec<usize> {
    let b = scrubbed.as_bytes();
    let mut out = Vec::new();
    for (start, end) in idents(scrubbed) {
        let word = &b[start..end];
        let hit = match word {
            b"unwrap" | b"expect" => {
                prev_nonspace(b, start).map(|(_, c)| c) == Some(b'.')
                    && next_nonspace(b, end).map(|(_, c)| c) == Some(b'(')
            }
            b"panic" => next_nonspace(b, end).map(|(_, c)| c) == Some(b'!'),
            _ => false,
        };
        if hit {
            out.push(start);
        }
    }
    out
}

/// NaN-unsafe comparison lint: `partial_cmp(..)` immediately unwrapped
/// (`.unwrap()`, `.unwrap_or(Ordering::Equal)`, `.unwrap_or_else(..)`).
/// On floats every one of these mis-sorts or panics on NaN; `f64::total_cmp`
/// is total and needs no fallback.
pub fn nan_compare_sites(scrubbed: &str, lines: &LineIndex) -> Vec<Finding> {
    let b = scrubbed.as_bytes();
    let mut out = Vec::new();
    for (start, end) in idents(scrubbed) {
        if &b[start..end] != b"partial_cmp" {
            continue;
        }
        let Some((open, b'(')) = next_nonspace(b, end) else {
            continue;
        };
        let after_args = skip_paren_group(b, open);
        let Some((dot, b'.')) = next_nonspace(b, after_args) else {
            continue;
        };
        let Some((wstart, c)) = next_nonspace(b, dot + 1) else {
            continue;
        };
        if !is_ident_start(c) {
            continue;
        }
        let mut wend = wstart;
        while wend < b.len() && is_ident_continue(b[wend]) {
            wend += 1;
        }
        let follow = &b[wstart..wend];
        if follow == b"unwrap" || follow == b"unwrap_or" || follow == b"unwrap_or_else" {
            let called = String::from_utf8_lossy(follow).into_owned();
            out.push(Finding {
                line: lines.line_of(start),
                message: format!(
                    "NaN-unsafe comparison: `partial_cmp(..).{called}(..)` \
                     mis-sorts or panics on NaN — use `f64::total_cmp`"
                ),
            });
        }
    }
    out
}

/// Keywords that legitimately precede `Name {` without constructing a value.
const NON_CONSTRUCTION_PREV: &[&[u8]] = &[
    b"struct", b"enum", b"union", b"trait", b"impl", b"for", b"mod", b"dyn", b"fn",
];

/// Stochastic-construction lint: struct-literal construction of
/// `FeatureWalk` / `StochasticTensors`, or calls to the `_unchecked`
/// escape hatch, outside the defining modules and test code. Both types
/// carry a column-stochastic invariant that only their normalizing
/// constructors establish.
pub fn stochastic_construction_sites(scrubbed: &str, lines: &LineIndex) -> Vec<Finding> {
    let b = scrubbed.as_bytes();
    let mut out = Vec::new();
    for (start, end) in idents(scrubbed) {
        let word = &b[start..end];
        match word {
            b"FeatureWalk" | b"StochasticTensors" => {
                if next_nonspace(b, end).map(|(_, c)| c) != Some(b'{') {
                    continue;
                }
                let name = String::from_utf8_lossy(word).into_owned();
                if let Some((p, c)) = prev_nonspace(b, start) {
                    // `-> FeatureWalk {` is a return type before a body,
                    // as is the by-reference form `-> &FeatureWalk {`.
                    if c == b'>' {
                        continue;
                    }
                    if c == b'&' && prev_nonspace(b, p).map(|(_, c2)| c2) == Some(b'>') {
                        continue;
                    }
                    if let Some(prev) = ident_ending_at(b, p + 1) {
                        if NON_CONSTRUCTION_PREV.contains(&prev) {
                            continue;
                        }
                    }
                }
                out.push(Finding {
                    line: lines.line_of(start),
                    message: format!(
                        "direct construction of `{name}` bypasses the normalizing \
                         constructor that establishes its stochastic invariant — \
                         use the `from_*` constructors"
                    ),
                });
            }
            b"from_dense_unchecked" => {
                if next_nonspace(b, end).map(|(_, c)| c) != Some(b'(') {
                    continue;
                }
                if let Some((p, _)) = prev_nonspace(b, start) {
                    if ident_ending_at(b, p + 1) == Some(b"fn") {
                        continue;
                    }
                }
                out.push(Finding {
                    line: lines.line_of(start),
                    message: "`from_dense_unchecked` skips the column-stochastic check; \
                              it is reserved for tests that prove the apply-time guard fires"
                        .to_owned(),
                });
            }
            _ => {}
        }
    }
    out
}

/// Method calls that heap-allocate when they appear in a loop body.
const ALLOC_METHODS: &[&[u8]] = &[b"clone", b"to_vec", b"to_owned", b"collect"];

/// `Type::constructor` pairs that heap-allocate.
const ALLOC_CTORS: &[(&[u8], &[u8])] = &[
    (b"Vec", b"new"),
    (b"Vec", b"with_capacity"),
    (b"Vec", b"from"),
    (b"Box", b"new"),
    (b"String", b"new"),
    (b"String", b"from"),
    (b"String", b"with_capacity"),
];

/// Macros that heap-allocate.
const ALLOC_MACROS: &[&[u8]] = &[b"vec", b"format"];

/// Hot-loop-alloc lint: heap allocations inside the given loop-body
/// spans (the per-iteration bodies of registered hot functions).
///
/// Every allocation here multiplies by the iteration count `T` of
/// Algorithm 1 and breaks the paper's `O(qTD)` per-iteration cost claim;
/// hot code must reuse workspace buffers instead.
pub fn hot_loop_alloc_sites(
    scrubbed: &str,
    loop_spans: &[(usize, usize)],
    allocating_calls: &[String],
    lines: &LineIndex,
) -> Vec<Finding> {
    let b = scrubbed.as_bytes();
    let mut out = Vec::new();
    for (start, end) in idents(scrubbed) {
        if !loop_spans.iter().any(|&(lo, hi)| start >= lo && end <= hi) {
            continue;
        }
        let word = &b[start..end];
        // Calls to workspace functions registered as allocating wrappers
        // (the convenience siblings of the `*_into` kernels).
        if allocating_calls.iter().any(|n| n.as_bytes() == word)
            && next_nonspace(b, end).map(|(_, c)| c) == Some(b'(')
        {
            out.push(Finding {
                line: lines.line_of(start),
                message: format!(
                    "`{}(..)` is a registered allocating wrapper — call its \
                     `*_into` variant with a workspace buffer inside hot loops",
                    String::from_utf8_lossy(word)
                ),
            });
            continue;
        }
        let describe = if ALLOC_METHODS.contains(&word)
            && prev_nonspace(b, start).map(|(_, c)| c) == Some(b'.')
            && matches!(
                next_nonspace(b, end).map(|(_, c)| c),
                Some(b'(') | Some(b':')
            ) {
            Some(format!(".{}()", String::from_utf8_lossy(word)))
        } else if ALLOC_MACROS.contains(&word)
            && next_nonspace(b, end).map(|(_, c)| c) == Some(b'!')
        {
            Some(format!("{}!", String::from_utf8_lossy(word)))
        } else if let Some(&(ty, ctor)) = ALLOC_CTORS.iter().find(|&&(ty, ctor)| {
            // `Type` followed by `::ctor`.
            ty == word
                && next_nonspace(b, end)
                    .is_some_and(|(p, c)| c == b':' && ident_after_colons(b, p) == Some(ctor))
        }) {
            Some(format!(
                "{}::{}",
                String::from_utf8_lossy(ty),
                String::from_utf8_lossy(ctor)
            ))
        } else {
            None
        };
        if let Some(what) = describe {
            out.push(Finding {
                line: lines.line_of(start),
                message: format!(
                    "`{what}` allocates inside a registered hot loop — every \
                     per-iteration allocation multiplies by T and breaks the \
                     O(qTD) bound; reuse a workspace buffer"
                ),
            });
        }
    }
    out
}

/// The identifier following `::` starting at byte `i` (which must point at
/// the first `:`).
fn ident_after_colons(b: &[u8], i: usize) -> Option<&[u8]> {
    if i + 1 >= b.len() || b[i] != b':' || b[i + 1] != b':' {
        return None;
    }
    let (start, c) = next_nonspace(b, i + 2)?;
    if !is_ident_start(c) {
        return None;
    }
    let mut end = start;
    while end < b.len() && is_ident_continue(b[end]) {
        end += 1;
    }
    Some(&b[start..end])
}

/// Float-determinism lint: order-sensitive scalar float accumulation in
/// registered normalization/contraction code.
///
/// Flags `.sum(…)` / `.sum::<f64>()` iterator reductions and bare-scalar
/// `acc += …` accumulation (integer counters `i += 1` are exempt, as are
/// indexed scatters `y[i] += …`, element updates `*yi += …`, and field
/// accumulators). Registered code must route scalar reductions through
/// the shared fixed-order `tmark_linalg::kahan::kahan_sum` helper so the
/// summation order — and therefore every convergence trace — is identical
/// across refactors and future parallel backends.
pub fn float_determinism_sites(scrubbed: &str, lines: &LineIndex) -> Vec<Finding> {
    let b = scrubbed.as_bytes();
    let mut out = Vec::new();
    // `.sum(` / `.sum::<…>(` iterator reductions.
    for (start, end) in idents(scrubbed) {
        if &b[start..end] != b"sum" {
            continue;
        }
        if prev_nonspace(b, start).map(|(_, c)| c) != Some(b'.') {
            continue;
        }
        if !matches!(
            next_nonspace(b, end).map(|(_, c)| c),
            Some(b'(') | Some(b':')
        ) {
            continue;
        }
        out.push(Finding {
            line: lines.line_of(start),
            message: "order-sensitive float reduction `.sum()` in \
                      normalization/contraction code — use \
                      `tmark_linalg::kahan::kahan_sum` (fixed-order, \
                      compensated)"
                .to_owned(),
        });
    }
    // Bare-scalar `+=` accumulators.
    let mut i = 0;
    while i + 1 < b.len() {
        if b[i] != b'+' || b[i + 1] != b'=' {
            i += 1;
            continue;
        }
        let at = i;
        i += 2;
        // LHS: must be a bare identifier (a local scalar accumulator).
        let Some((lhs_end, c)) = prev_nonspace(b, at) else {
            continue;
        };
        if !is_ident_continue(c) {
            continue; // indexed (`]`), call (`)`), or other compound LHS
        }
        let Some(ident) = ident_ending_at(b, lhs_end + 1) else {
            continue;
        };
        let ident_start = lhs_end + 1 - ident.len();
        if let Some((_, prev)) = prev_nonspace(b, ident_start) {
            if prev == b'.' || prev == b'*' || prev == b':' {
                continue; // field access, deref target, or path
            }
        }
        // RHS: integer-literal increments (`i += 1`) are loop counters,
        // not float accumulation.
        let rhs: String = scrubbed[at + 2..]
            .chars()
            .take_while(|&ch| ch != ';' && ch != '\n')
            .collect();
        let rhs = rhs.trim();
        if !rhs.is_empty() && rhs.chars().all(|ch| ch.is_ascii_digit() || ch == '_') {
            continue;
        }
        out.push(Finding {
            line: lines.line_of(at),
            message: format!(
                "order-sensitive float accumulation `{} += …` in \
                 normalization/contraction code — use \
                 `tmark_linalg::kahan::kahan_sum` or a `KahanAccumulator` \
                 (fixed-order, compensated)",
                String::from_utf8_lossy(ident)
            ),
        });
    }
    out
}

/// Types whose iteration order is arbitrary (and, for `HashMap`/`HashSet`
/// with the default hasher, randomized per process).
const UNORDERED_TYPES: &[&[u8]] = &[b"HashMap", b"HashSet"];

/// Methods that traverse a collection in its internal order.
const UNORDERED_ITER_METHODS: &[&[u8]] = &[
    b"iter",
    b"iter_mut",
    b"keys",
    b"values",
    b"values_mut",
    b"drain",
    b"into_iter",
    b"into_keys",
    b"into_values",
    b"retain",
];

/// Nondeterministic-order lint: iteration over `HashMap`/`HashSet`
/// bindings in library code of registered crates.
///
/// Pass 1 collects identifiers bound to an unordered type — type
/// ascriptions (`x: HashMap<..>`, `x: &mut std::collections::HashSet<..>`
/// in lets, fields, and parameters) and constructor assignments
/// (`x = HashMap::new()`). Pass 2 flags order-dependent traversal of
/// those bindings: `.iter()`, `.keys()`, `.values()`, `.drain()`,
/// `.retain()`, `for … in x`, and friends. Lookups (`.get`, `.contains`)
/// are order-free and stay silent.
pub fn unordered_iteration_sites(scrubbed: &str, lines: &LineIndex) -> Vec<Finding> {
    let b = scrubbed.as_bytes();
    let all = idents(scrubbed);
    // Pass 1: bindings with an unordered type.
    let mut bound: Vec<&[u8]> = Vec::new();
    for &(start, end) in &all {
        if !UNORDERED_TYPES.contains(&&b[start..end]) {
            continue;
        }
        if let Some(name) = binding_before_type(b, start) {
            if !bound.contains(&name) {
                bound.push(name);
            }
        }
        // `x = HashMap::new()` — constructor assigned to a binding.
        if next_nonspace(b, end).map(|(_, c)| c) == Some(b':') {
            if let Some((eq, b'=')) = prev_nonspace(b, start) {
                let plain_assign = eq > 0 && !matches!(b[eq - 1], b'=' | b'!' | b'<' | b'>');
                if plain_assign {
                    if let Some((le, c)) = prev_nonspace(b, eq) {
                        if is_ident_continue(c) {
                            if let Some(name) = ident_ending_at(b, le + 1) {
                                if !bound.contains(&name) {
                                    bound.push(name);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    let flag = |out: &mut Vec<Finding>, at: usize, name: &[u8], how: &str| {
        out.push(Finding {
            line: lines.line_of(at),
            message: format!(
                "iteration over unordered `{}` ({how}) in library code — \
                 HashMap/HashSet order is arbitrary, so any fold, output, or \
                 tie-break over it is nondeterministic; use a BTreeMap/BTreeSet \
                 or sort the keys first",
                String::from_utf8_lossy(name)
            ),
        });
    };
    // Pass 2a: `x.iter()`-style traversal of a bound name.
    for &(start, end) in &all {
        if !UNORDERED_ITER_METHODS.contains(&&b[start..end]) {
            continue;
        }
        let Some((dot, b'.')) = prev_nonspace(b, start) else {
            continue;
        };
        if next_nonspace(b, end).map(|(_, c)| c) != Some(b'(') {
            continue;
        }
        let Some((re, c)) = prev_nonspace(b, dot) else {
            continue;
        };
        if !is_ident_continue(c) {
            continue;
        }
        let Some(recv) = ident_ending_at(b, re + 1) else {
            continue;
        };
        if bound.contains(&recv) {
            let method = String::from_utf8_lossy(&b[start..end]).into_owned();
            flag(&mut out, start, recv, &format!(".{method}()"));
        }
    }
    // Pass 2b: `for pat in x {` over a bound name (no method call).
    for &(start, end) in &all {
        if &b[start..end] != b"for" {
            continue;
        }
        // The matching `in` at top depth, within a short lookahead.
        let mut depth = 0usize;
        let mut j = end;
        let stop = (end + 200).min(b.len());
        let mut in_end = None;
        while j < stop {
            match b[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' => break,
                b'i' if depth == 0
                    && !is_ident_continue(b[j.saturating_sub(1)])
                    && b.get(j + 1) == Some(&b'n')
                    && b.get(j + 2).map_or(true, |&c| !is_ident_continue(c)) =>
                {
                    in_end = Some(j + 2);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(mut k) = in_end else { continue };
        // Skip `&`, `&mut`.
        while let Some((p, c)) = next_nonspace(b, k) {
            if c == b'&' {
                k = p + 1;
                continue;
            }
            if is_ident_start(c) {
                let mut e2 = p;
                while e2 < b.len() && is_ident_continue(b[e2]) {
                    e2 += 1;
                }
                if &b[p..e2] == b"mut" {
                    k = e2;
                    continue;
                }
                // The iterated expression's head identifier; only a bare
                // `for v in x {` form counts — method chains were pass 2a.
                if bound.contains(&&b[p..e2])
                    && next_nonspace(b, e2).map(|(_, c2)| c2) == Some(b'{')
                {
                    flag(&mut out, p, &b[p..e2], "for … in");
                }
            }
            break;
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

/// Resolves the binding identifier of a type ascription ending at the
/// unordered type starting at `type_start`: walks back over path
/// segments (`std::collections::`), reference sigils, and `mut` to the
/// single `:` and returns the identifier before it.
fn binding_before_type(b: &[u8], type_start: usize) -> Option<&[u8]> {
    let mut j = type_start;
    loop {
        let (p, c) = prev_nonspace(b, j)?;
        match c {
            b':' => {
                if p > 0 && b[p - 1] == b':' {
                    // `::` — skip the preceding path segment and continue.
                    let (se, c2) = prev_nonspace(b, p - 1)?;
                    if !is_ident_continue(c2) {
                        return None;
                    }
                    let seg = ident_ending_at(b, se + 1)?;
                    j = se + 1 - seg.len();
                } else {
                    // The single `:` of the ascription: the binding is
                    // the identifier before it.
                    let (le, c2) = prev_nonspace(b, p)?;
                    if !is_ident_continue(c2) {
                        return None;
                    }
                    return ident_ending_at(b, le + 1);
                }
            }
            b'&' | b'\'' => j = p,
            _ if is_ident_continue(c) => {
                let word = ident_ending_at(b, p + 1)?;
                if word == b"mut" || word == b"dyn" {
                    j = p + 1 - word.len();
                } else {
                    return None;
                }
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    fn index(s: &str) -> LineIndex {
        LineIndex::new(s)
    }

    #[test]
    fn line_index_matches_naive_count() {
        let text = "a\nbb\n\nccc\n";
        let lines = index(text);
        for pos in 0..text.len() {
            let naive = text.as_bytes()[..pos]
                .iter()
                .filter(|&&c| c == b'\n')
                .count()
                + 1;
            assert_eq!(lines.line_of(pos), naive, "pos {pos}");
        }
        assert_eq!(lines.lines_for(&[0, 2, 5]), vec![1, 2, 3]);
    }

    #[test]
    fn panic_sites_match_calls_not_lookalikes() {
        let src = "fn f() { x.unwrap(); y.expect(msg); panic!(oops); \
                   z.unwrap_or(0); w.expect_err(e); std::panic::catch_unwind(g); }";
        assert_eq!(panic_sites(&scrub(src)).len(), 3);
    }

    #[test]
    fn nan_lint_flags_all_unwrap_flavours() {
        let src = "a.partial_cmp(&b).unwrap();\n\
                   a.partial_cmp(&b).unwrap_or(Ordering::Equal);\n\
                   a.partial_cmp(&b).unwrap_or_else(|| Ordering::Equal);\n\
                   a.partial_cmp(&b).map(|o| o);\n";
        let s = scrub(src);
        let findings = nan_compare_sites(&s, &index(&s));
        assert_eq!(findings.len(), 3);
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[2].line, 3);
    }

    #[test]
    fn construction_lint_flags_literals_but_not_declarations() {
        let flagged = scrub("let s = StochasticTensors { n, m, entries };");
        assert_eq!(
            stochastic_construction_sites(&flagged, &index(&flagged)).len(),
            1
        );
        for ok in [
            "pub struct FeatureWalk { repr: WalkRepr }",
            "impl FeatureWalk { }",
            "impl Walk for FeatureWalk { }",
            "fn build(&self) -> FeatureWalk { self.clone() }",
            "let w = FeatureWalk::from_dense(m);",
        ] {
            let s = scrub(ok);
            assert!(
                stochastic_construction_sites(&s, &index(&s)).is_empty(),
                "false positive on: {ok}"
            );
        }
    }

    #[test]
    fn construction_lint_flags_the_unchecked_escape_hatch() {
        let src = scrub("let w = FeatureWalk::from_dense_unchecked(m);");
        assert_eq!(stochastic_construction_sites(&src, &index(&src)).len(), 1);
        let def = scrub("pub fn from_dense_unchecked(w: DenseMatrix) -> Self {");
        assert!(stochastic_construction_sites(&def, &index(&def)).is_empty());
    }

    #[test]
    fn hot_loop_alloc_flags_only_inside_loop_spans() {
        let src = "fn f() { let a = x.clone(); for i in 0..3 { let b = y.clone(); \
                   let c: Vec<u8> = it.collect(); let d = Vec::new(); let e = vec![0; 3]; \
                   let g = s.to_vec(); } }";
        let scrubbed = scrub(src);
        let items = crate::items::parse(&scrubbed);
        let body = items[0].body.unwrap();
        let spans = crate::items::loop_body_spans(scrubbed.as_bytes(), (body.0 + 1, body.1));
        let findings = hot_loop_alloc_sites(&scrubbed, &spans, &[], &index(&scrubbed));
        // clone, collect, Vec::new, vec!, to_vec — but NOT the clone
        // before the loop.
        assert_eq!(findings.len(), 5, "{findings:?}");
    }

    #[test]
    fn hot_loop_alloc_ignores_non_allocating_lookalikes() {
        let src = "fn f() { for i in 0..3 { y[i] += o * x[j]; s.push(v); let t = m.max(x); } }";
        let scrubbed = scrub(src);
        let items = crate::items::parse(&scrubbed);
        let body = items[0].body.unwrap();
        let spans = crate::items::loop_body_spans(scrubbed.as_bytes(), (body.0 + 1, body.1));
        assert!(hot_loop_alloc_sites(&scrubbed, &spans, &[], &index(&scrubbed)).is_empty());
    }

    #[test]
    fn hot_loop_alloc_flags_registered_allocating_wrappers() {
        let src = "fn f() { let a = w.apply(&x); for t in 0..5 { \
                   let b = w.apply(&x); w.apply_multi_into(&x, 1, &mut y); } }";
        let scrubbed = scrub(src);
        let items = crate::items::parse(&scrubbed);
        let body = items[0].body.unwrap();
        let spans = crate::items::loop_body_spans(scrubbed.as_bytes(), (body.0 + 1, body.1));
        let calls = vec!["apply".to_owned()];
        let findings = hot_loop_alloc_sites(&scrubbed, &spans, &calls, &index(&scrubbed));
        // The in-loop `apply` is flagged; the pre-loop call and the
        // `apply_multi_into` variant are not.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("apply"));
    }

    #[test]
    fn float_determinism_flags_sums_and_scalar_accumulators() {
        let src = "let t: f64 = x.iter().sum();\n\
                   let u = z.iter().sum::<f64>();\n\
                   sum += src[end].value;\n";
        let s = scrub(src);
        let findings = float_determinism_sites(&s, &index(&s));
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert_eq!(findings[2].line, 3);
    }

    #[test]
    fn float_determinism_exempts_counters_scatters_and_helpers() {
        let src = "i += 1;\nend += 2;\ny[e.i as usize] += e.o * x[j];\n\
                   *yi += share;\nself.total += v;\n\
                   let s = kahan_sum(x.iter().copied());\n";
        let s = scrub(src);
        let findings = float_determinism_sites(&s, &index(&s));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn comments_and_strings_never_trip_lints() {
        let src = "// a.partial_cmp(&b).unwrap()\nlet s = \"panic!\"; /* x.unwrap() */";
        let s = scrub(src);
        assert!(panic_sites(&s).is_empty());
        assert!(nan_compare_sites(&s, &index(&s)).is_empty());
    }

    #[test]
    fn unordered_iteration_flags_traversal_of_hash_bindings() {
        let src = "fn f(map: &HashMap<usize, f64>) -> f64 {\n\
                   let mut seen: HashSet<usize> = HashSet::new();\n\
                   let mut acc = 0.0;\n\
                   for (k, v) in map.iter() {\n\
                   acc += v;\n\
                   }\n\
                   for k in seen {\n\
                   acc += k as f64;\n\
                   }\n\
                   acc\n\
                   }\n";
        let s = scrub(src);
        let findings = unordered_iteration_sites(&s, &index(&s));
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("`map`"));
        assert_eq!(findings[1].line, 7);
        assert!(findings[1].message.contains("`seen`"));
    }

    #[test]
    fn unordered_iteration_flags_keys_values_and_drain() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\n\
                   let a: Vec<_> = m.keys().collect();\n\
                   let b: Vec<_> = m.values().collect();\n\
                   m.retain(|_, v| *v > 0);\n";
        let s = scrub(src);
        let findings = unordered_iteration_sites(&s, &index(&s));
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "{findings:?}"
        );
    }

    #[test]
    fn unordered_iteration_ignores_lookups_and_unbound_names() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\n\
                   let hit = m.get(&3);\n\
                   let yes = m.contains_key(&3);\n\
                   let v: Vec<u32> = Vec::new();\n\
                   for x in v.iter() { use_it(x); }\n";
        let s = scrub(src);
        let findings = unordered_iteration_sites(&s, &index(&s));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unordered_iteration_resolves_pathed_and_referenced_types() {
        let src = "fn g(idx: &mut std::collections::HashMap<String, usize>) {\n\
                   for k in idx.keys() { log(k); }\n\
                   }\n";
        let s = scrub(src);
        let findings = unordered_iteration_sites(&s, &index(&s));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn unordered_iteration_is_silent_on_test_stripped_source() {
        // The analyzer runs on `library_only` text: a HashMap iterated
        // only inside #[cfg(test)] must not fire once stripped.
        let src = "pub fn stable() -> usize { 3 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   use std::collections::HashMap;\n\
                   #[test]\n\
                   fn t() {\n\
                   let m: HashMap<u32, u32> = HashMap::new();\n\
                   for (k, v) in m.iter() { assert!(k <= v); }\n\
                   }\n\
                   }\n";
        let scrubbed = scrub(src);
        let items = crate::items::parse(&scrubbed);
        let library_only = crate::items::strip_cfg_test(&scrubbed, &items);
        let findings = unordered_iteration_sites(&library_only, &index(&library_only));
        assert!(findings.is_empty(), "{findings:?}");
        // Sanity: the un-stripped text does fire.
        assert!(!unordered_iteration_sites(&scrubbed, &index(&scrubbed)).is_empty());
    }
}
