//! Plain-text serialization of a HIN.
//!
//! A simple line-oriented format so generated datasets can be exported to
//! (and re-imported from) other tools without pulling a serialization
//! format crate into the workspace:
//!
//! ```text
//! hin v1
//! nodes <n> features <d>
//! link-types <m>
//! <name of link type 0>
//! …
//! classes <q>
//! <name of class 0>
//! …
//! node <id> <f_0> <f_1> … <f_{d−1}>
//! label <node> <class>
//! edge <i> <j> <k> <weight>        # tensor entry a_{i,j,k}
//! ```
//!
//! Node, label, and edge lines may appear in any order after the header.
//! Writing is deterministic (sorted by the natural ids), so serialized
//! networks diff cleanly.

use std::fmt;
use std::io::{BufRead, Write};

use tmark_linalg::DenseMatrix;
use tmark_sparse_tensor::SparseTensor3;

use crate::labels::LabelStore;
use crate::network::Hin;

/// Errors raised while reading the text format.
#[derive(Debug)]
pub enum IoError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// A structural problem with the input at the given 1-based line.
    Parse {
        /// Line number of the offending input.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

/// Writes a HIN in the v1 text format.
///
/// # Errors
/// Propagates writer failures as [`IoError::Io`].
pub fn write_hin<W: Write>(hin: &Hin, out: &mut W) -> Result<(), IoError> {
    writeln!(out, "hin v1")?;
    writeln!(
        out,
        "nodes {} features {}",
        hin.num_nodes(),
        hin.feature_dim()
    )?;
    writeln!(out, "link-types {}", hin.num_link_types())?;
    for name in hin.link_type_names() {
        writeln!(out, "{name}")?;
    }
    writeln!(out, "classes {}", hin.num_classes())?;
    for name in hin.labels().class_names() {
        writeln!(out, "{name}")?;
    }
    for v in 0..hin.num_nodes() {
        write!(out, "node {v}")?;
        for x in hin.features().row(v) {
            write!(out, " {x}")?;
        }
        writeln!(out)?;
    }
    for v in 0..hin.num_nodes() {
        for &c in hin.labels().labels_of(v) {
            writeln!(out, "label {v} {c}")?;
        }
    }
    for e in hin.tensor().entries() {
        writeln!(out, "edge {} {} {} {}", e.i, e.j, e.k, e.value)?;
    }
    Ok(())
}

/// Reads a HIN from the v1 text format.
///
/// # Errors
/// [`IoError::Parse`] with a line number on malformed input;
/// [`IoError::Io`] on reader failure.
pub fn read_hin<R: BufRead>(input: R) -> Result<Hin, IoError> {
    let mut lines = input.lines().enumerate();
    let mut next_line = || -> Result<(usize, String), IoError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(parse_err(i + 1, format!("read failure: {e}"))),
            None => Err(parse_err(0, "unexpected end of input")),
        }
    };

    let (ln, header) = next_line()?;
    if header.trim() != "hin v1" {
        return Err(parse_err(
            ln,
            format!("expected 'hin v1' header, got {header:?}"),
        ));
    }
    let (ln, sizes) = next_line()?;
    let parts: Vec<&str> = sizes.split_whitespace().collect();
    let (n, d) = match parts.as_slice() {
        ["nodes", n, "features", d] => (
            n.parse::<usize>()
                .map_err(|e| parse_err(ln, format!("bad node count: {e}")))?,
            d.parse::<usize>()
                .map_err(|e| parse_err(ln, format!("bad feature dim: {e}")))?,
        ),
        _ => return Err(parse_err(ln, "expected 'nodes <n> features <d>'")),
    };
    // Nothing below is sized from a header count — node, name and record
    // buffers grow with the lines actually read — but the node count must
    // still fit the tensor kernels' u32 indices.
    if n.saturating_sub(1) > u32::MAX as usize {
        return Err(parse_err(
            ln,
            format!("node count {n} exceeds the packed-index limit: node ids must fit in u32"),
        ));
    }
    let (ln, lt_header) = next_line()?;
    let m: usize = lt_header
        .strip_prefix("link-types ")
        .ok_or_else(|| parse_err(ln, "expected 'link-types <m>'"))?
        .trim()
        .parse()
        .map_err(|e| parse_err(ln, format!("bad link-type count: {e}")))?;
    let mut link_names = Vec::new();
    for _ in 0..m {
        let (_, name) = next_line()?;
        link_names.push(name);
    }
    let (ln, class_header) = next_line()?;
    let q: usize = class_header
        .strip_prefix("classes ")
        .ok_or_else(|| parse_err(ln, "expected 'classes <q>'"))?
        .trim()
        .parse()
        .map_err(|e| parse_err(ln, format!("bad class count: {e}")))?;
    let mut class_names = Vec::new();
    for _ in 0..q {
        let (_, name) = next_line()?;
        class_names.push(name);
    }

    let q = class_names.len();
    let mut nodes: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut labels: Vec<(usize, usize)> = Vec::new();
    let mut edges: Vec<(usize, usize, usize, f64)> = Vec::new();

    for (i, line) in lines {
        let ln = i + 1;
        let line = line.map_err(|e| parse_err(ln, format!("read failure: {e}")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut tok = trimmed.split_whitespace();
        match tok.next() {
            Some("node") => {
                let id: usize = tok
                    .next()
                    .ok_or_else(|| parse_err(ln, "node line missing id"))?
                    .parse()
                    .map_err(|e| parse_err(ln, format!("bad node id: {e}")))?;
                if id >= n {
                    return Err(parse_err(ln, format!("node id {id} out of range {n}")));
                }
                let f: Result<Vec<f64>, _> = tok.map(str::parse).collect();
                let f = f.map_err(|e| parse_err(ln, format!("bad feature value: {e}")))?;
                if f.len() != d {
                    return Err(parse_err(
                        ln,
                        format!("node {id} has {} features, expected {d}", f.len()),
                    ));
                }
                if let Some(bad) = f.iter().find(|v| !v.is_finite()) {
                    return Err(parse_err(
                        ln,
                        format!("node {id} has non-finite feature value {bad}"),
                    ));
                }
                nodes.push((id, f));
            }
            Some("label") => {
                let v: usize = tok
                    .next()
                    .ok_or_else(|| parse_err(ln, "label line missing node"))?
                    .parse()
                    .map_err(|e| parse_err(ln, format!("bad node id: {e}")))?;
                let c: usize = tok
                    .next()
                    .ok_or_else(|| parse_err(ln, "label line missing class"))?
                    .parse()
                    .map_err(|e| parse_err(ln, format!("bad class id: {e}")))?;
                if tok.next().is_some() {
                    return Err(parse_err(ln, "label line needs '<node> <class>'"));
                }
                if v >= n {
                    return Err(parse_err(ln, format!("label node id {v} out of range {n}")));
                }
                if c >= q {
                    return Err(parse_err(
                        ln,
                        format!("label class id {c} out of range {q}"),
                    ));
                }
                labels.push((v, c));
            }
            Some("edge") => {
                // Parse the three indices as integers directly: routing
                // them through f64 (as the weight is) would silently
                // truncate ids past 2^53 and accept fractional ids.
                let mut next_id = |what: &str| -> Result<usize, IoError> {
                    tok.next()
                        .ok_or_else(|| parse_err(ln, "edge line needs '<i> <j> <k> <weight>'"))?
                        .parse::<usize>()
                        .map_err(|e| parse_err(ln, format!("bad edge {what}: {e}")))
                };
                let i = next_id("source index")?;
                let j = next_id("target index")?;
                let k = next_id("relation index")?;
                let weight: f64 = tok
                    .next()
                    .ok_or_else(|| parse_err(ln, "edge line needs '<i> <j> <k> <weight>'"))?
                    .parse()
                    .map_err(|e| parse_err(ln, format!("bad edge weight: {e}")))?;
                if tok.next().is_some() {
                    return Err(parse_err(ln, "edge line needs '<i> <j> <k> <weight>'"));
                }
                if !(weight.is_finite() && weight >= 0.0) {
                    return Err(parse_err(
                        ln,
                        format!("edge weight {weight} must be finite and nonnegative"),
                    ));
                }
                if let Some(id) = [i, j].into_iter().find(|&id| id >= n) {
                    return Err(parse_err(ln, format!("edge node id {id} out of range {n}")));
                }
                if k >= m {
                    return Err(parse_err(
                        ln,
                        format!("edge relation index {k} out of range {m}"),
                    ));
                }
                edges.push((i, j, k, weight));
            }
            Some(other) => {
                return Err(parse_err(ln, format!("unknown record kind {other:?}")));
            }
            None => {}
        }
    }

    // Node records in id order; a repeated id keeps its last record (the
    // sort is stable). The rows grow with the records read, never with
    // the header count.
    nodes.sort_by_key(|&(id, _)| id);
    let mut records = nodes.into_iter().peekable();
    let mut rows = Vec::new();
    for id in 0..n {
        let mut f = None;
        while let Some((_, g)) = records.next_if(|&(rid, _)| rid == id) {
            f = Some(g);
        }
        rows.push(f.ok_or_else(|| parse_err(0, format!("node {id} missing from input")))?);
    }
    let invalid = |e: &dyn fmt::Display| parse_err(0, format!("invalid network: {e}"));
    let features = DenseMatrix::from_rows(&rows).map_err(|e| invalid(&e))?;
    drop(rows);
    let mut label_store = LabelStore::new(n, class_names);
    for (v, c) in labels {
        label_store.add_label(v, c);
    }
    // Every record was checked at its own line, so the edge list becomes
    // the tensor's entry array in place (tensor entry a_{i,j,k}: the
    // walker moves j -> i).
    let tensor = SparseTensor3::from_entries(n, m, edges).map_err(|e| invalid(&e))?;
    Hin::from_bulk(tensor, features, link_names, label_store).map_err(|e| invalid(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HinBuilder;
    use std::io::Cursor;

    fn sample_hin() -> Hin {
        let mut b = HinBuilder::new(
            2,
            vec!["cites".into(), "conf".into()],
            vec!["a".into(), "b".into()],
        );
        let u = b.add_node(vec![1.0, 0.5]);
        let v = b.add_node(vec![0.0, 2.0]);
        let w = b.add_node(vec![0.25, 0.25]);
        b.add_directed_edge(u, v, 0).unwrap();
        b.add_undirected_edge(v, w, 1).unwrap();
        b.add_weighted_directed_edge(w, u, 0, 2.5).unwrap();
        b.set_label(u, 0).unwrap();
        b.set_label(v, 1).unwrap();
        b.set_label(v, 0).unwrap();
        b.build().unwrap()
    }

    fn roundtrip(hin: &Hin) -> Hin {
        let mut buf = Vec::new();
        write_hin(hin, &mut buf).unwrap();
        read_hin(Cursor::new(buf)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample_hin();
        let loaded = roundtrip(&original);
        assert_eq!(loaded.num_nodes(), original.num_nodes());
        assert_eq!(loaded.link_type_names(), original.link_type_names());
        assert_eq!(loaded.labels(), original.labels());
        assert_eq!(loaded.features().as_slice(), original.features().as_slice());
        assert_eq!(loaded.tensor().entries(), original.tensor().entries());
    }

    #[test]
    fn writing_is_deterministic() {
        let hin = sample_hin();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_hin(&hin, &mut a).unwrap();
        write_hin(&hin, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_wrong_header() {
        let err = read_hin(Cursor::new("not a hin\n")).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn rejects_truncated_input() {
        let err = read_hin(Cursor::new("hin v1\nnodes 2 features 1\n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn rejects_feature_length_mismatch() {
        let text = "hin v1\nnodes 1 features 2\nlink-types 1\nr\nclasses 1\nc\nnode 0 1.0\n";
        let err = read_hin(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("features"), "{err}");
    }

    #[test]
    fn rejects_unknown_record() {
        let text =
            "hin v1\nnodes 1 features 1\nlink-types 1\nr\nclasses 1\nc\nnode 0 1.0\nwat 1 2\n";
        let err = read_hin(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("unknown record"), "{err}");
    }

    #[test]
    fn rejects_missing_node() {
        let text = "hin v1\nnodes 2 features 1\nlink-types 1\nr\nclasses 1\nc\nnode 0 1.0\n";
        let err = read_hin(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    /// A one-relation, one-class header followed by `body`.
    fn with_header(nodes: usize, body: &str) -> String {
        format!("hin v1\nnodes {nodes} features 1\nlink-types 1\nr\nclasses 1\nc\n{body}")
    }

    #[test]
    fn rejects_non_finite_values_with_line_numbers() {
        for (body, line, what) in [
            ("node 0 1.0\nnode 1 NaN\n", 8, "non-finite feature"),
            ("node 0 1.0\nnode 1 inf\n", 8, "non-finite feature"),
            (
                "node 0 1.0\nnode 1 1.0\nedge 0 1 0 NaN\n",
                9,
                "edge weight NaN",
            ),
            (
                "node 0 1.0\nnode 1 1.0\nedge 1 0 0 inf\n",
                9,
                "edge weight inf",
            ),
            (
                "node 0 1.0\nnode 1 1.0\nedge 1 0 0 -1\n",
                9,
                "edge weight -1",
            ),
        ] {
            let err = read_hin(Cursor::new(with_header(2, body))).unwrap_err();
            assert!(
                matches!(err, IoError::Parse { line: l, .. } if l == line),
                "{body:?}: {err}"
            );
            assert!(err.to_string().contains(what), "{body:?}: {err}");
        }
    }

    #[test]
    fn out_of_range_ids_are_reported_at_their_line() {
        for (body, line, what) in [
            (
                "node 0 1.0\nnode 1 1.0\nedge 2 0 0 1\n",
                9,
                "edge node id 2",
            ),
            (
                "node 0 1.0\nnode 1 1.0\nedge 0 1 1 1\n",
                9,
                "edge relation index 1",
            ),
            ("node 0 1.0\nlabel 2 0\nnode 1 1.0\n", 8, "label node id 2"),
            ("node 0 1.0\nnode 1 1.0\nlabel 1 1\n", 9, "label class id 1"),
            (
                "node 0 1.0\nnode 1 1.0\nlabel 1 0 0\n",
                9,
                "label line needs",
            ),
        ] {
            let err = read_hin(Cursor::new(with_header(2, body))).unwrap_err();
            assert!(
                matches!(err, IoError::Parse { line: l, .. } if l == line),
                "{body:?}: {err}"
            );
            assert!(err.to_string().contains(what), "{body:?}: {err}");
        }
    }

    #[test]
    fn header_counts_reserve_nothing() {
        // Link-type and class counts at usize::MAX read names until the
        // input ends instead of reserving capacity up front.
        let text = format!("hin v1\nnodes 1 features 1\nlink-types {}\nr\n", usize::MAX);
        let err = read_hin(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("unexpected end"), "{err}");
        let text = format!(
            "hin v1\nnodes 1 features 1\nlink-types 1\nr\nclasses {}\nc\n",
            usize::MAX
        );
        let err = read_hin(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("unexpected end"), "{err}");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_counts_are_checked_against_the_index_limit() {
        // A node count at the u32 index limit is accepted by the header
        // check and allocates nothing: the input simply lacks node 1.
        let err = read_hin(Cursor::new(with_header(1 << 32, "node 0 1.0\n"))).unwrap_err();
        assert!(err.to_string().contains("node 1 missing"), "{err}");
        // One past the limit is refused at the header line.
        let err = read_hin(Cursor::new(with_header((1 << 32) + 1, ""))).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("packed-index limit"), "{err}");
    }

    #[test]
    fn repeated_node_records_keep_the_last() {
        let body = "node 1 3.0\nnode 0 1.0\nnode 1 2.0\n";
        let hin = read_hin(Cursor::new(with_header(2, body))).unwrap();
        assert_eq!(hin.features().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn generated_dataset_roundtrips() {
        // A bigger structured network exercises ordering and weights.
        let mut b = HinBuilder::new(1, vec!["r0".into(), "r1".into()], vec!["x".into()]);
        for i in 0..20 {
            let v = b.add_node(vec![i as f64 / 7.0]);
            b.set_label(v, 0).unwrap();
        }
        for i in 0..19 {
            b.add_undirected_edge(i, i + 1, i % 2).unwrap();
        }
        let hin = b.build().unwrap();
        let loaded = roundtrip(&hin);
        assert_eq!(loaded.tensor().entries(), hin.tensor().entries());
    }
}
