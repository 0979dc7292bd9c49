//! Scale-safety rules (the `[lossy-cast]`, `[overflow-arith]` and
//! `[quadratic-alloc]` sections of `xtask/hot-paths.toml`): lossy-cast,
//! overflow-arith, quadratic-alloc.
//!
//! ROADMAP item 1 (million-node HINs, 10^7+ nnz) fails in exactly the
//! ways the compiler will not report: a silent `as u32` truncation in
//! index packing, `usize` offset arithmetic that wraps only at scale,
//! and a dense `n×n` materialization that is fine at 800 nodes and
//! fatal at 10^6. These three rules pin the paper's O(qTD) cost claim
//! down statically:
//!
//! - **lossy-cast** (ratcheted per crate): narrowing `as` casts in
//!   library code, plus integer casts of known-float bindings. Validated
//!   build boundaries return `TensorError::IndexOverflow` /
//!   `WalkError::IndexOverflow` instead; hot kernels that consume
//!   already-validated `u32` indices stay raw via the `[lossy-cast]`
//!   `allow` list of `xtask/hot-paths.toml`.
//! - **overflow-arith** (ratcheted per crate): bare `+`/`*`/`+=` on
//!   offset/length/nnz-named bindings inside the build-path functions
//!   registered under `[overflow-arith]` — use `checked_add`/
//!   `checked_mul` or widen to `u64` first.
//! - **quadratic-alloc** (hard error): `vec![..; a * b]` /
//!   `with_capacity(a * b)` where both factors are node counts, outside
//!   the files registered as intentionally dense under
//!   `[quadratic-alloc]`.
//!
//! Every registry entry is validated by the registry-rot rule so the
//! allowlists cannot silently go stale.

use std::collections::BTreeSet;

use crate::items::{Item, ItemKind};
use crate::lints::{
    ident_ending_at, idents, is_ident_continue, is_ident_start, next_nonspace, prev_nonspace,
    Finding, LineIndex,
};

/// Cast targets that always narrow (or sign-flip) an index-width value.
const NARROW_TARGETS: &[&[u8]] = &[b"u8", b"u16", b"u32", b"i8", b"i16", b"i32"];

/// All integer cast targets — a float binding cast to any of these
/// silently truncates toward zero.
const INT_TARGETS: &[&[u8]] = &[
    b"u8", b"u16", b"u32", b"u64", b"u128", b"usize", b"i8", b"i16", b"i32", b"i64", b"i128",
    b"isize",
];

/// Identifiers that name node counts; two of them multiplied inside an
/// allocation is the O(n²) signature quadratic-alloc rejects.
const NODE_COUNT_IDENTS: &[&str] = &[
    "n",
    "num_nodes",
    "n_nodes",
    "nodes",
    "node_count",
    "rows",
    "cols",
];

/// True when a binding name marks an offset/length/count per the
/// overflow-arith contract.
fn is_marker_name(name: &str) -> bool {
    name == "nnz"
        || name == "len"
        || name == "offset"
        || name == "stride"
        || name.ends_with("_ptr")
        || name.ends_with("_nnz")
        || name.ends_with("_len")
        || name.ends_with("_offset")
        || name.ends_with("_stride")
}

/// Offset of the `[`/`(` matching the `]`/`)` at `close`, scanning
/// backward (scrubbed text has no brackets inside literals).
fn matching_open_back(b: &[u8], close: usize) -> Option<usize> {
    let (open_c, close_c) = match b[close] {
        b']' => (b'[', b']'),
        b')' => (b'(', b')'),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut i = close;
    loop {
        if b[i] == close_c {
            depth += 1;
        } else if b[i] == open_c {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// Root identifier of the expression ending just before `from`: trailing
/// index/call groups are skipped and a field chain resolves to its last
/// segment (`cs.slice_ptr[k]` → `slice_ptr`, `self.t` → `t`).
fn operand_root_back(b: &[u8], from: usize) -> Option<String> {
    let (mut p, mut c) = prev_nonspace(b, from)?;
    while c == b']' || c == b')' {
        let open = matching_open_back(b, p)?;
        let (np, nc) = prev_nonspace(b, open)?;
        p = np;
        c = nc;
    }
    if is_ident_continue(c) {
        let w = ident_ending_at(b, p + 1)?;
        return Some(String::from_utf8_lossy(w).into_owned());
    }
    None
}

/// Root identifier of the expression starting at `from`: a field chain
/// resolves to its last segment (`self.nnz` → `nnz`, `v.len()` → `len`).
fn operand_root_forward(b: &[u8], from: usize) -> Option<String> {
    let (mut p, c) = next_nonspace(b, from)?;
    if !is_ident_start(c) {
        return None;
    }
    let mut root;
    loop {
        let mut e = p;
        while e < b.len() && is_ident_continue(b[e]) {
            e += 1;
        }
        root = String::from_utf8_lossy(&b[p..e]).into_owned();
        // Follow a field/method chain to its last segment.
        match next_nonspace(b, e) {
            Some((dot, b'.')) => match next_nonspace(b, dot + 1) {
                Some((np, nc)) if is_ident_start(nc) => p = np,
                _ => break,
            },
            _ => break,
        }
    }
    Some(root)
}

/// The binding ascribed a float type whose name ends at the type token
/// starting at `at`, seen through wrapper syntax (`Vec<f64>`,
/// `Result<Vec<f64>, _>`, `&[f64]`, path segments). Returns `None` for
/// casts (`x as f64`), return types (`-> f64`), and generics that do not
/// lead back to a single `name:` ascription.
fn float_binding_before(b: &[u8], at: usize) -> Option<String> {
    let mut at = at;
    loop {
        let (p, c) = prev_nonspace(b, at)?;
        match c {
            b'<' | b'&' | b'[' | b'(' | b',' | b'\'' => at = p,
            b':' => {
                if p > 0 && b[p - 1] == b':' {
                    // `::` path separator — keep walking the type path.
                    at = p - 1;
                } else {
                    let (q, d) = prev_nonspace(b, p)?;
                    if !is_ident_continue(d) {
                        return None;
                    }
                    let w = ident_ending_at(b, q + 1)?;
                    return Some(String::from_utf8_lossy(w).into_owned());
                }
            }
            c if is_ident_continue(c) => {
                let w = ident_ending_at(b, p + 1)?;
                // `x as f64` is a cast, not an ascription.
                if w == b"as" {
                    return None;
                }
                at = p + 1 - w.len();
            }
            _ => return None,
        }
    }
}

/// Names ascribed a float type anywhere in the file: `let` bindings,
/// parameters, and struct fields. Casting one of these to an integer
/// type truncates toward zero — the silent id corruption lossy-cast
/// exists to catch (`nums[0] as usize` on a float-parsed id).
fn float_bindings(scrubbed: &str) -> BTreeSet<String> {
    let b = scrubbed.as_bytes();
    let mut out = BTreeSet::new();
    for (s, e) in idents(scrubbed) {
        if &b[s..e] == b"f64" || &b[s..e] == b"f32" {
            if let Some(name) = float_binding_before(b, s) {
                out.insert(name);
            }
        }
    }
    out
}

/// Innermost function item containing byte offset `off`.
pub fn enclosing_fn(tree: &[Item], off: usize) -> Option<&Item> {
    for item in tree {
        if off < item.start || off >= item.end {
            continue;
        }
        if let Some(inner) = enclosing_fn(&item.children, off) {
            return Some(inner);
        }
        if item.kind == ItemKind::Fn {
            return Some(item);
        }
    }
    None
}

/// The lossy-cast rule over one file's library-only view: (a) any
/// narrowing `as` cast (`as u32` and friends), (b) any integer cast of a
/// known-float binding. Findings inside functions allowlisted as
/// `file::fn` in `[lossy-cast]` of the scale registry are suppressed —
/// those consume indices already validated at a build boundary.
pub fn lossy_cast_sites(
    file: &str,
    library_only: &str,
    tree: &[Item],
    allow: &BTreeSet<String>,
    lines: &LineIndex,
) -> Vec<Finding> {
    let b = library_only.as_bytes();
    let floats = float_bindings(library_only);
    let mut out = Vec::new();
    let toks = idents(library_only);
    for (idx, &(s, e)) in toks.iter().enumerate() {
        if &b[s..e] != b"as" {
            continue;
        }
        // A cast has an expression on the left; `use x as y` and pattern
        // positions do not produce the targets below.
        let Some(&(ts, te)) = toks.get(idx + 1) else {
            continue;
        };
        if next_nonspace(b, e).map(|(p, _)| p) != Some(ts) {
            continue;
        }
        let target = &b[ts..te];
        let narrow = NARROW_TARGETS.contains(&target);
        let root = operand_root_back(b, s);
        let float_root = root
            .as_deref()
            .is_some_and(|r| floats.contains(r) && INT_TARGETS.contains(&target));
        if !narrow && !float_root {
            continue;
        }
        if let Some(f) = enclosing_fn(tree, s) {
            if allow.contains(&format!("{file}::{}", f.name)) {
                continue;
            }
        }
        let target_name = String::from_utf8_lossy(target);
        let message = if narrow {
            format!(
                "narrowing `as {target_name}` cast{} in library code — validate at the \
                 build boundary with `try_from` and a typed `IndexOverflow` error, or \
                 allowlist the enclosing fn in [lossy-cast] of xtask/hot-paths.toml \
                 if its input is already width-validated",
                root.as_deref()
                    .map(|r| format!(" of `{r}`"))
                    .unwrap_or_default()
            )
        } else {
            format!(
                "float binding `{}` cast to `{target_name}` truncates toward zero — \
                 parse/compute the value as an integer instead",
                root.as_deref().unwrap_or("?")
            )
        };
        out.push(Finding {
            line: lines.line_of(s),
            message,
        });
    }
    out
}

/// True when the token starting at the next nonspace position after
/// `from` is a bare integer literal (the `counter += 1` exemption: a
/// count bumped by a literal is bounded by the loop trip count, which
/// cannot exceed an existing allocation's length).
fn integer_literal_forward(b: &[u8], from: usize) -> bool {
    let Some((p, c)) = next_nonspace(b, from) else {
        return false;
    };
    if !c.is_ascii_digit() {
        return false;
    }
    let mut e = p;
    while e < b.len() && (b[e].is_ascii_digit() || b[e] == b'_') {
        e += 1;
    }
    // `1usize` still counts as a literal; a digit followed by an ident
    // suffix is fine, but `1 + x` is not a bare literal increment.
    while e < b.len() && is_ident_continue(b[e]) {
        e += 1;
    }
    matches!(
        next_nonspace(b, e),
        None | Some((_, b';' | b')' | b',' | b'}'))
    )
}

/// The overflow-arith rule: inside the registered build-path functions,
/// flags bare `+`, `*`, `+=`, and `*=` where an adjacent operand root is
/// an offset/length/count marker (`*_ptr`, `nnz`, `len`, `offset`,
/// `stride`). Literal increments (`x_ptr[i] += 1`) are exempt.
pub fn overflow_arith_sites(
    library_only: &str,
    tree: &[Item],
    fn_names: &[String],
    lines: &LineIndex,
) -> Vec<Finding> {
    let b = library_only.as_bytes();
    let mut out = Vec::new();
    for fn_name in fn_names {
        for f in crate::items::find_fns(tree, fn_name) {
            let Some((open, close)) = f.item.body else {
                continue;
            };
            scan_span(b, open + 1, close, fn_name, lines, &mut out);
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

fn scan_span(
    b: &[u8],
    lo: usize,
    hi: usize,
    fn_name: &str,
    lines: &LineIndex,
    out: &mut Vec<Finding>,
) {
    let mut i = lo;
    while i < hi {
        let op = b[i];
        if op != b'+' && op != b'*' {
            i += 1;
            continue;
        }
        let compound = i + 1 < hi && b[i + 1] == b'=';
        // Binary (or compound) use only: something value-like on the left.
        let Some((_, prev)) = prev_nonspace(b, i) else {
            i += 1;
            continue;
        };
        if !(is_ident_continue(prev) || prev == b')' || prev == b']') {
            // Unary deref (`*x`), pattern positions, `&*`, etc.
            i += 1;
            continue;
        }
        let left = operand_root_back(b, i);
        let marker = if compound {
            // `x += <literal>` is a bounded counter bump.
            if op == b'+' && integer_literal_forward(b, i + 2) {
                None
            } else {
                left.filter(|r| is_marker_name(r))
            }
        } else {
            let right = operand_root_forward(b, i + 1);
            left.filter(|r| is_marker_name(r))
                .or_else(|| right.filter(|r| is_marker_name(r)))
        };
        if let Some(root) = marker {
            let shown = if compound {
                format!("{}=", op as char)
            } else {
                (op as char).to_string()
            };
            out.push(Finding {
                line: lines.line_of(i),
                message: format!(
                    "bare `{shown}` on offset/count binding `{root}` in build-path fn \
                     `{fn_name}` — use `checked_add`/`checked_mul` (with a typed \
                     `IndexOverflow` error or a documented `unreachable!` bound) or \
                     widen to u64 first"
                ),
            });
        }
        i += if compound { 2 } else { 1 };
    }
}

/// Resolves an allocation-size factor to a root identifier: a bare
/// identifier or field path (last segment), possibly parenthesized.
/// Method calls, literals, and compound expressions resolve to `None` —
/// `y.rows()` is a matrix dimension, not necessarily a node count, and
/// `(kk + 1)` is a bounded neighborhood size.
fn factor_root(expr: &str) -> Option<String> {
    let mut s = expr.trim();
    while let Some(inner) = s.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        s = inner.trim();
    }
    if s.is_empty() || !s.bytes().all(|c| is_ident_continue(c) || c == b'.') {
        return None;
    }
    let last = s.rsplit('.').next()?;
    let bytes = last.as_bytes();
    if bytes.is_empty() || !is_ident_start(bytes[0]) {
        return None;
    }
    Some(last.to_owned())
}

/// One past the closing delimiter matching the opener at `open`.
fn matching_close(b: &[u8], open: usize, hi: usize) -> usize {
    let (open_c, close_c) = match b[open] {
        b'[' => (b'[', b']'),
        b'(' => (b'(', b')'),
        _ => return open + 1,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < hi {
        if b[i] == open_c {
            depth += 1;
        } else if b[i] == close_c {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    hi
}

/// Splits `expr` at its first top-level `*`, if any.
fn split_top_level_mul(expr: &str) -> Option<(&str, &str)> {
    let b = expr.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b'*' if depth == 0 => {
                // `**` or `*=` never appear in a size expression; a `*`
                // preceded by an operator would be a deref, skip it.
                let prev = b[..i].iter().rev().find(|c| !c.is_ascii_whitespace());
                if prev.is_some_and(|&p| is_ident_continue(p) || p == b')' || p == b']') {
                    return Some((&expr[..i], &expr[i + 1..]));
                }
            }
            _ => {}
        }
    }
    None
}

/// The quadratic-alloc rule: `vec![..; a * b]` and `with_capacity(a * b)`
/// where both factors resolve to node-count identifiers. Hard error —
/// an O(n²) buffer breaks the nnz-proportional scale contract; only the
/// files registered as intentionally dense are exempt (handled by the
/// caller).
pub fn quadratic_alloc_sites(library_only: &str, lines: &LineIndex) -> Vec<Finding> {
    let b = library_only.as_bytes();
    let hi = b.len();
    let mut out = Vec::new();
    for (s, e) in idents(library_only) {
        let word = &b[s..e];
        let size_expr: Option<(usize, String)> = if word == b"vec" {
            // `vec![elem; count]` — the count is after the top-level `;`.
            let Some((bang, b'!')) = next_nonspace(b, e) else {
                continue;
            };
            let Some((open, oc)) = next_nonspace(b, bang + 1) else {
                continue;
            };
            if oc != b'[' && oc != b'(' {
                continue;
            }
            let close = matching_close(b, open, hi);
            let inner = &library_only[open + 1..close.min(hi)];
            let semi = {
                let ib = inner.as_bytes();
                let mut depth = 0usize;
                let mut found = None;
                for (i, &c) in ib.iter().enumerate() {
                    match c {
                        b'(' | b'[' | b'{' => depth += 1,
                        b')' | b']' | b'}' => depth = depth.saturating_sub(1),
                        b';' if depth == 0 => {
                            found = Some(i);
                            break;
                        }
                        _ => {}
                    }
                }
                found
            };
            semi.map(|i| (s, inner[i + 1..].to_owned()))
        } else if word == b"with_capacity" {
            let Some((open, b'(')) = next_nonspace(b, e) else {
                continue;
            };
            let close = matching_close(b, open, hi);
            Some((s, library_only[open + 1..close.min(hi)].to_owned()))
        } else {
            None
        };
        let Some((at, expr)) = size_expr else {
            continue;
        };
        let Some((left, right)) = split_top_level_mul(&expr) else {
            continue;
        };
        let (Some(lr), Some(rr)) = (factor_root(left), factor_root(right)) else {
            continue;
        };
        if NODE_COUNT_IDENTS.contains(&lr.as_str()) && NODE_COUNT_IDENTS.contains(&rr.as_str()) {
            out.push(Finding {
                line: lines.line_of(at),
                message: format!(
                    "O(n²) allocation: `{lr} * {rr}` sizes a buffer by two node counts — \
                     build sparsely along nnz instead, or register the file as \
                     intentionally dense in [quadratic-alloc] of xtask/hot-paths.toml"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::scrub::scrub;

    /// Mirrors the main-loop pipeline: scrub, parse items, strip test
    /// code, index lines against the full scrubbed text.
    fn library_view(src: &str) -> (String, Vec<Item>, LineIndex) {
        let scrubbed = scrub(src);
        let tree = items::parse(&scrubbed);
        let lib = items::strip_cfg_test(&scrubbed, &tree);
        let lines = LineIndex::new(&scrubbed);
        (lib, tree, lines)
    }

    #[test]
    fn registry_parses_all_sections() {
        let text = r#"
# scale registry
[lossy-cast]
allow = [
    "crates/sparse-tensor/src/stochastic.rs::from_tensor",  # validated
    "crates/feature-walk/src/knn.rs::sweep_intra",
]
pinned = ["crates/sparse-tensor", "crates/feature-walk"]

[overflow-arith]
"crates/sparse-tensor/src/tensor.rs" = ["from_entries"]
"crates/sparse-tensor/src/compressed.rs" = ["build"]

[quadratic-alloc]
dense = ["crates/feature-walk/src/dense.rs"]
"#;
        let reg = crate::config::parse(text).unwrap();
        assert!(reg
            .lossy_cast_allow
            .contains("crates/feature-walk/src/knn.rs::sweep_intra"));
        assert_eq!(reg.lossy_cast_pinned.len(), 2);
        assert_eq!(
            reg.overflow_arith["crates/sparse-tensor/src/tensor.rs"],
            vec!["from_entries"]
        );
        assert_eq!(
            reg.quadratic_alloc_dense,
            vec!["crates/feature-walk/src/dense.rs"]
        );
    }

    #[test]
    fn registry_rejects_unknown_entries_with_line_numbers() {
        let err = crate::config::parse("[lossy-cast]\nwrong = []\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = crate::config::parse("[quadratic-alloc]\ndense = [bare]\n").unwrap_err();
        assert!(err.contains("quoted"), "{err}");
    }

    #[test]
    fn lossy_cast_flags_narrowing_casts_at_exact_lines() {
        let src = "fn pack(i: usize) -> u32 {\n\
                   \x20   let x = i as u32;\n\
                   \x20   x\n\
                   }\n";
        let (lib, tree, lines) = library_view(src);
        let found = lossy_cast_sites("f.rs", &lib, &tree, &BTreeSet::new(), &lines);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
        assert!(
            found[0].message.contains("narrowing"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn lossy_cast_flags_float_binding_casts_through_wrappers() {
        let src = "fn ids(tok: &str) {\n\
                   \x20   let nums: Vec<f64> = parse(tok);\n\
                   \x20   let i = nums[0] as usize;\n\
                   \x20   go(i);\n\
                   }\n";
        let (lib, tree, lines) = library_view(src);
        let found = lossy_cast_sites("f.rs", &lib, &tree, &BTreeSet::new(), &lines);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`nums`"), "{}", found[0].message);
    }

    #[test]
    fn lossy_cast_skips_widening_and_float_target_casts() {
        let src = "fn f(i: u32, n: usize) -> f64 {\n\
                   \x20   let a = i as usize;\n\
                   \x20   let b = n as u64;\n\
                   \x20   a as f64 + b as f64 + n as f64\n\
                   }\n";
        let (lib, tree, lines) = library_view(src);
        let found = lossy_cast_sites("f.rs", &lib, &tree, &BTreeSet::new(), &lines);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn lossy_cast_respects_the_allowlist_and_test_code() {
        let src = "fn hot(i: usize) -> u32 { i as u32 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t(i: usize) -> u32 { i as u32 }\n\
                   }\n";
        let (lib, tree, lines) = library_view(src);
        let none = lossy_cast_sites(
            "f.rs",
            &lib,
            &tree,
            &["f.rs::hot".to_owned()].into_iter().collect(),
            &lines,
        );
        assert!(none.is_empty(), "{none:?}");
        let found = lossy_cast_sites("f.rs", &lib, &tree, &BTreeSet::new(), &lines);
        assert_eq!(found.len(), 1, "test code must stay exempt: {found:?}");
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn overflow_arith_flags_prefix_sums_but_not_literal_bumps() {
        let src = "fn build(m: usize) {\n\
                   \x20   let mut slice_ptr = vec![0usize; m + 1];\n\
                   \x20   slice_ptr[2] += 1;\n\
                   \x20   for k in 0..m {\n\
                   \x20       slice_ptr[k + 1] += slice_ptr[k];\n\
                   \x20   }\n\
                   }\n";
        let (lib, tree, lines) = library_view(src);
        let found = overflow_arith_sites(&lib, &tree, &["build".to_owned()], &lines);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 5);
        assert!(
            found[0].message.contains("`slice_ptr`"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn overflow_arith_flags_bare_mul_and_skips_unregistered_fns() {
        let src = "fn build(nnz: usize, q: usize) -> usize { nnz * q }\n\
                   fn other(nnz: usize, q: usize) -> usize { nnz * q }\n";
        let (lib, tree, lines) = library_view(src);
        let found = overflow_arith_sites(&lib, &tree, &["build".to_owned()], &lines);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 1);
        assert!(found[0].message.contains("`nnz`"));
    }

    #[test]
    fn overflow_arith_ignores_unmarked_bindings_and_derefs() {
        let src = "fn build(k: usize, x: &f64) -> f64 {\n\
                   \x20   let a = k + 1;\n\
                   \x20   let b = *x;\n\
                   \x20   a as f64 * b\n\
                   }\n";
        let (lib, tree, lines) = library_view(src);
        let found = overflow_arith_sites(&lib, &tree, &["build".to_owned()], &lines);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn quadratic_alloc_flags_node_by_node_buffers() {
        let src = "fn dense(n: usize, rows: usize, cols: usize) {\n\
                   \x20   let a = vec![0.0; n * n];\n\
                   \x20   let b: Vec<f64> = Vec::with_capacity(rows * cols);\n\
                   \x20   keep(a, b);\n\
                   }\n";
        let (lib, _, lines) = library_view(src);
        let found = quadratic_alloc_sites(&lib, &lines);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].line, 2);
        assert_eq!(found[1].line, 3);
    }

    #[test]
    fn quadratic_alloc_passes_bounded_and_method_call_factors() {
        let src = "fn sparse(n: usize, kk: usize, k: usize, cols: usize, y: &M) {\n\
                   \x20   let a = Vec::<f64>::with_capacity(n * (kk + 1));\n\
                   \x20   let b = vec![0.0; cols * k];\n\
                   \x20   let c = vec![1.0; y.rows() * y.cols()];\n\
                   \x20   let d = vec![0.0; n];\n\
                   \x20   keep(a, b, c, d);\n\
                   }\n";
        let (lib, _, lines) = library_view(src);
        let found = quadratic_alloc_sites(&lib, &lines);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn quadratic_alloc_exempts_test_code_via_the_library_view() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t(n: usize) { let _ = vec![0.0; n * n]; }\n\
                   }\n";
        let (lib, _, lines) = library_view(src);
        assert!(quadratic_alloc_sites(&lib, &lines).is_empty());
    }
}
