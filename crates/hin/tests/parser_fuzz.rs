//! Fuzzing of the v1 text parser with the vendored proptest.
//!
//! Each case writes a small valid network, then applies one mutation
//! that makes the file invalid: a dropped or extra token, an id equal to
//! its bound or past `u32`, a NaN, infinite or negative weight, an
//! unknown record kind, or a truncated header. `read_hin` must answer
//! every mutated file with `Err(IoError::Parse)`, never a panic, and
//! every valid file must round-trip through `write_hin` unchanged.

use std::io::Cursor;

use proptest::prelude::*;
use tmark_hin::io::{read_hin, write_hin, IoError};
use tmark_hin::{Hin, HinBuilder};

/// Node, relation, class and feature counts, then raw edge draws
/// `(from, to, relation, weight)`, label draws and feature values.
type Draws = (
    (usize, usize, usize, usize),
    Vec<(usize, usize, usize, f64)>,
    Vec<(usize, usize)>,
    Vec<f64>,
);

fn draws() -> impl Strategy<Value = Draws> {
    (
        (1usize..7, 1usize..4, 1usize..4, 1usize..4),
        prop::collection::vec(
            (
                any::<usize>(),
                any::<usize>(),
                any::<usize>(),
                0.125f64..4.0,
            ),
            1..24,
        ),
        prop::collection::vec((any::<usize>(), any::<usize>()), 1..8),
        prop::collection::vec(-2.0f64..2.0, 24),
    )
}

/// A valid network from the draws: every id is reduced into range and
/// every weight is positive, so at least one edge and one label exist.
fn network(((n, m, q, d), edges, labels, values): Draws) -> Hin {
    let links = (0..m).map(|k| format!("rel {k}")).collect();
    let classes = (0..q).map(|c| format!("class {c}")).collect();
    let mut b = HinBuilder::new(d, links, classes);
    for v in 0..n {
        b.add_node((0..d).map(|f| values[(v * d + f) % values.len()]).collect());
    }
    for (from, to, k, w) in edges {
        b.add_weighted_directed_edge(from % n, to % n, k % m, w)
            .unwrap();
    }
    for (v, c) in labels {
        b.set_label(v % n, c % q).unwrap();
    }
    b.build().unwrap()
}

fn text_of(hin: &Hin) -> String {
    let mut buf = Vec::new();
    write_hin(hin, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// One way to break a valid file. `pick` chooses the line and token,
/// `big` the offset of an id past the `u32` limit.
fn mutate(text: &str, hin: &Hin, kind: usize, pick: usize, big: usize) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    // Header: magic, sizes, link-type count and names, class count and
    // names. Records follow.
    let header = 4 + hin.num_link_types() + hin.num_classes();
    let of_kind = |lines: &[String], kind: &str| -> usize {
        let at: Vec<usize> = (header..lines.len())
            .filter(|&l| lines[l].split(' ').next() == Some(kind))
            .collect();
        at[pick % at.len()]
    };
    let record = header + pick % (lines.len() - header);
    let (n, m, q) = (hin.num_nodes(), hin.num_link_types(), hin.num_classes());
    let past_u32 = (u32::MAX as usize + 1 + big).to_string();
    let set_token = |lines: &mut Vec<String>, l: usize, t: usize, value: &str| {
        let mut tokens: Vec<&str> = lines[l].split(' ').collect();
        tokens[t] = value;
        lines[l] = tokens.join(" ");
    };
    match kind {
        // A record line loses one token.
        0 => {
            let mut tokens: Vec<&str> = lines[record].split(' ').collect();
            tokens.remove(pick % tokens.len());
            lines[record] = tokens.join(" ");
        }
        // A record or count line gains one.
        1 => {
            let counts = [0, 1, 2, 3 + m];
            let l = if pick % 2 == 0 {
                record
            } else {
                counts[pick / 2 % 4]
            };
            lines[l].push_str(" 7");
        }
        // An id equal to its bound.
        2 => {
            let l = of_kind(&lines, "edge");
            set_token(
                &mut lines,
                l,
                1 + pick % 3,
                &[n, n, m][pick % 3].to_string(),
            );
        }
        3 => {
            let l = of_kind(&lines, "label");
            let bound = if pick % 2 == 0 { n } else { q };
            set_token(&mut lines, l, 1 + pick % 2, &bound.to_string());
        }
        4 => {
            let l = of_kind(&lines, "node");
            set_token(&mut lines, l, 1, &n.to_string());
        }
        // An id or the node count past u32.
        5 => {
            let l = if pick % 3 == 0 {
                of_kind(&lines, "node")
            } else {
                of_kind(&lines, "edge")
            };
            set_token(&mut lines, l, 1 + pick % 3 % 2, &past_u32);
        }
        6 => set_token(&mut lines, 1, 1, &past_u32),
        // A NaN, infinite or negative weight.
        7 => {
            let l = of_kind(&lines, "edge");
            let bad = ["NaN", "inf", "-inf", "-1.5", "-0.25"][pick % 5];
            set_token(&mut lines, l, 4, bad);
        }
        // An unknown record kind, replacing a kind word or as a new line.
        8 => {
            if pick % 2 == 0 {
                set_token(&mut lines, record, 0, "vertex");
            } else {
                lines.insert(header + pick % (lines.len() - header), "wat 1 2".into());
            }
        }
        // The header cut short, between lines or inside one.
        _ => {
            let keep = pick % header;
            lines.truncate(keep + 1);
            let last = lines.pop().unwrap_or_default();
            if pick % 2 == 0 {
                lines.push(last[..last.len() / 2].to_owned());
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every valid file reads back to a network that writes the same
    /// bytes.
    #[test]
    fn valid_files_round_trip_unchanged(d in draws()) {
        let text = text_of(&network(d));
        let read = read_hin(Cursor::new(text.as_bytes()));
        prop_assert!(read.is_ok(), "{text}");
        prop_assert_eq!(text_of(&read.unwrap()), text);
    }

    /// Every mutated file is a typed parse error, never a panic or an
    /// accepted network.
    #[test]
    fn mutated_files_are_parse_errors(
        d in draws(),
        kind in 0usize..10,
        pick in any::<usize>(),
        big in 0usize..1000,
    ) {
        let hin = network(d);
        let text = mutate(&text_of(&hin), &hin, kind, pick, big);
        let outcome = read_hin(Cursor::new(text.as_bytes()));
        prop_assert!(
            matches!(outcome, Err(IoError::Parse { .. })),
            "mutation {kind} was not a parse error: {outcome:?}\n{text}"
        );
    }
}
