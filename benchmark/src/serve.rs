//! The closed-loop serving trace: one client, one mutation per event,
//! then [`BATCHES_PER_EVENT`] request batches. The first batch after a
//! mutation pays the delta re-solve; the others are cache hits. The whole
//! schedule — mutation kinds, their arguments, request nodes — is drawn
//! from the seed before any timing.

use std::collections::BTreeSet;
use std::time::Instant;

use tmark::{FeatureWalkMode, ServingSession, TMarkModel};
use tmark_hin::Hin;
use tmark_linalg::similarity::SimilarityMetric;

use crate::rng::SplitMix;
use crate::trace::Tracer;
use crate::workloads::{BATCH, BATCHES_PER_EVENT};
use crate::Calls;

/// Labels revealed by one reveal event.
pub const REVEAL: usize = 6;
/// Stored edges re-weighted by one re-weight event.
pub const REWEIGHT: usize = 4;
/// Every `NODE_EVERY`-th event adds a node (and drops `W`).
pub const NODE_EVERY: usize = 100;
/// An off-trace cold fit runs after every `COLD_EVERY`-th event.
pub const COLD_EVERY: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Label,
    Reweight,
    Insert,
    Node,
}

impl Kind {
    pub fn structural(self) -> bool {
        matches!(self, Kind::Insert | Kind::Node)
    }
}

#[derive(Debug, Clone)]
enum Mutation {
    Reveal(Vec<(usize, usize)>),
    Edges(Vec<(usize, usize, usize, f64)>),
    Node {
        features: Vec<f64>,
        anchor: usize,
        class: usize,
    },
}

#[derive(Debug, Clone)]
pub struct Event {
    pub kind: Kind,
    mutation: Mutation,
    requests: [[usize; BATCH]; BATCHES_PER_EVENT],
}

/// The kind of each event: node additions at every [`NODE_EVERY`]-th
/// event, and among the rest exactly half reveals, a quarter re-weights
/// and the remainder inserts, in seeded order. Fixed quotas keep the mix
/// identical across seeds, so the seed moves only which nodes and edges.
fn kinds(events: usize, rng: &mut SplitMix) -> Vec<Kind> {
    let nodes = events / NODE_EVERY;
    let rest = events - nodes;
    let reveal = rest / 2;
    let reweight = (rest + 2) / 4;
    let mut pool: Vec<Kind> = std::iter::repeat_n(Kind::Label, reveal)
        .chain(std::iter::repeat_n(Kind::Reweight, reweight))
        .chain(std::iter::repeat_n(Kind::Insert, rest - reveal - reweight))
        .collect();
    rng.shuffle(&mut pool);
    let mut pool = pool.into_iter();
    (0..events)
        .map(|e| {
            if e % NODE_EVERY == NODE_EVERY - 1 {
                Kind::Node
            } else {
                pool.next().unwrap_or(Kind::Label)
            }
        })
        .collect()
}

/// Draws the full event schedule for `hin` with request and reveal nodes
/// taken from the held-out `test` set.
pub fn schedule(hin: &Hin, test: &[usize], events: usize, seed: u64) -> Vec<Event> {
    let mut rng = SplitMix::new(seed);
    let n = hin.num_nodes();
    let m = hin.num_link_types();
    let entries = hin.tensor().entries();
    let mut reveal_pool = test.to_vec();
    rng.shuffle(&mut reveal_pool);
    let mut reveal_pool = reveal_pool.into_iter();
    let mut inserted: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    let kinds = kinds(events, &mut rng);
    kinds
        .into_iter()
        .map(|kind| {
            let mutation = match kind {
                Kind::Label => Mutation::Reveal(
                    reveal_pool
                        .by_ref()
                        .take(REVEAL)
                        .map(|v| (v, hin.labels().labels_of(v)[0]))
                        .collect(),
                ),
                Kind::Reweight => Mutation::Edges(
                    (0..REWEIGHT)
                        .map(|_| {
                            let e = &entries[rng.below(entries.len())];
                            // Walk direction j -> i is tensor entry a_{i,j,k}.
                            (e.j, e.i, e.k, 0.5)
                        })
                        .collect(),
                ),
                Kind::Insert => loop {
                    let (from, to, k) = (rng.below(n), rng.below(n), rng.below(m));
                    if from != to
                        && hin.tensor().get(to, from, k) == 0.0
                        && inserted.insert((from, to, k))
                    {
                        break Mutation::Edges(vec![(from, to, k, 1.0)]);
                    }
                },
                Kind::Node => {
                    let anchor = test[rng.below(test.len())];
                    Mutation::Node {
                        features: hin.features().row(rng.below(n)).to_vec(),
                        anchor,
                        class: hin.labels().labels_of(anchor)[0],
                    }
                }
            };
            let requests =
                std::array::from_fn(|_| std::array::from_fn(|_| test[rng.below(test.len())]));
            Event {
                kind,
                mutation,
                requests,
            }
        })
        .collect()
}

/// What one network's trace measured.
#[derive(Debug, Default)]
pub struct TraceStats {
    /// Wall time of the events: mutations, refits and cache hits (the
    /// off-trace cold fits are excluded).
    pub wall_s: f64,
    pub requests: usize,
    /// First-batch latency of event `e`, in seconds (`None` if it failed).
    pub refit_s: Vec<Option<f64>>,
    pub refit_by_kind: Vec<(Kind, f64)>,
    pub hit_s: Vec<f64>,
    pub mutation_s: Vec<f64>,
    pub warm_iterations: Vec<f64>,
    pub cold_iterations: Vec<f64>,
    pub patches: usize,
    pub rebuilds: usize,
    pub cache_hits: usize,
    pub warm_fits: usize,
    pub cold_fits: usize,
    /// Labels revealed during the trace (no longer held out).
    pub revealed: Vec<usize>,
}

fn total_iterations(r: &tmark::TMarkResult) -> f64 {
    (0..r.num_classes())
        .map(|c| r.convergence(c).iterations as f64)
        .sum()
}

/// Replays `events` against `session`. Mutation and request errors are
/// counted into `calls` and do not stop the trace; a violated serving
/// contract (a mutation that triggered no refit, a cache hit that
/// re-solved, a non-stochastic rebuilt `W`) is returned as an error.
pub fn replay(
    session: &mut ServingSession,
    events: &[Event],
    offline: &TMarkModel,
    mode: FeatureWalkMode,
    tr: &mut Tracer,
    calls: &mut Calls,
) -> Result<TraceStats, String> {
    let mut out = TraceStats::default();
    let before = *session.stats();
    for (e, event) in events.iter().enumerate() {
        tr.next_run();
        let span = tr.begin("serving.event");
        let started = Instant::now();
        let mut mutate = |f: &mut dyn FnMut() -> bool| {
            let t = Instant::now();
            let ok = tr.span("hin.mutation", &mut *f);
            out.mutation_s.push(t.elapsed().as_secs_f64());
            calls.record(ok)
        };
        let mutated = match &event.mutation {
            Mutation::Reveal(labels) => {
                let ok = mutate(&mut || session.add_labels(labels).is_ok());
                out.revealed.extend(labels.iter().map(|&(v, _)| v));
                ok
            }
            Mutation::Edges(edges) => mutate(&mut || session.add_edges(edges).is_ok()),
            Mutation::Node {
                features,
                anchor,
                class,
            } => {
                let mut id = None;
                mutate(&mut || {
                    id = session.add_node(features.clone()).ok();
                    id.is_some()
                });
                match id {
                    Some(id) => {
                        let edges = [(id, *anchor, 0, 1.0), (*anchor, id, 0, 1.0)];
                        mutate(&mut || session.add_edges(&edges).is_ok())
                            & mutate(&mut || session.add_labels(&[(id, *class)]).is_ok())
                    }
                    None => false,
                }
            }
        };
        match event.kind {
            Kind::Reweight => out.patches += 1,
            Kind::Insert | Kind::Node => out.rebuilds += 1,
            Kind::Label => {}
        }
        // Traced runs build the dropped operators in spans of their own
        // before the request, so the rebuild is attributed to its layer;
        // the request then finds them cached and the total work is the same.
        if tr.enabled() && event.kind.structural() {
            tr.span("sparse_tensor.rebuild", || {
                session.hin().stochastic_tensors_ref();
            });
            if event.kind == Kind::Node {
                tr.span("feature_walk.rebuild", || {
                    session.hin().feature_walk(mode, SimilarityMetric::Cosine);
                });
            }
        }
        let mut first = None;
        for (b, nodes) in event.requests.iter().enumerate() {
            let stats = *session.stats();
            let t = Instant::now();
            let ok = tr.span("serving.request", || session.classify_batch(nodes).is_ok());
            let latency = t.elapsed().as_secs_f64();
            if !calls.record(ok) {
                continue;
            }
            out.requests += nodes.len();
            let after = *session.stats();
            let refitted = after.warm_fits + after.cold_fits > stats.warm_fits + stats.cold_fits;
            if b == 0 {
                if mutated && !refitted {
                    return Err(format!(
                        "event {e}: a {:?} mutation triggered no refit",
                        event.kind
                    ));
                }
                first = Some(latency);
                out.refit_by_kind.push((event.kind, latency));
            } else {
                if refitted {
                    return Err(format!(
                        "event {e}: a repeated request re-solved instead of hitting the cache"
                    ));
                }
                out.hit_s.push(latency);
            }
        }
        out.wall_s += started.elapsed().as_secs_f64();
        tr.end(span);
        out.refit_s.push(first);

        // Off the clock: warm iterations of the refit just served, a cold
        // fit on the same state every COLD_EVERY events, and the
        // stochasticity of a rebuilt W.
        if first.is_some() {
            if let Some(r) = session.result() {
                out.warm_iterations.push(total_iterations(r));
            }
        }
        if e % COLD_EVERY == 0 {
            let cold = offline.fit(session.hin(), session.train_nodes()).ok();
            calls.record(cold.is_some());
            out.cold_iterations
                .extend(cold.as_ref().map(total_iterations));
        }
        if event.kind == Kind::Node {
            crate::run::check_walk(&session.hin().feature_walk(mode, SimilarityMetric::Cosine))?;
        }
    }
    let after = *session.stats();
    out.cache_hits = after.cache_hits - before.cache_hits;
    out.warm_fits = after.warm_fits - before.warm_fits;
    out.cold_fits = after.cold_fits - before.cold_fits;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_quotas_are_exact_and_nodes_are_periodic() {
        let k = kinds(200, &mut SplitMix::new(1));
        let count = |kind| k.iter().filter(|&&x| x == kind).count();
        assert_eq!(
            (
                count(Kind::Label),
                count(Kind::Reweight),
                count(Kind::Insert),
                count(Kind::Node)
            ),
            (99, 50, 49, 2)
        );
        assert_eq!((k[99], k[199]), (Kind::Node, Kind::Node));
        let k = kinds(8, &mut SplitMix::new(2));
        let count = |kind| k.iter().filter(|&&x| x == kind).count();
        assert_eq!(
            (
                count(Kind::Label),
                count(Kind::Reweight),
                count(Kind::Insert)
            ),
            (4, 2, 2)
        );
        assert_ne!(
            kinds(200, &mut SplitMix::new(1)),
            kinds(200, &mut SplitMix::new(9))
        );
    }
}
