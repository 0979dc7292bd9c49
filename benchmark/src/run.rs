//! One workload run, as the child process executes it: setup reps, fit
//! reps, the traced layer measurements, the serving trace, and the
//! correctness gates. Every layer is timed from outside, around calls to
//! its public functions.

use std::io::Cursor;
use std::time::Instant;

use tmark::restart::ica_refresh_restart;
use tmark::{
    BatchSolver, BatchWorkspace, FeatureWalkMode, ServingSession, TMarkConfig, TMarkModel,
    TMarkResult,
};
use tmark_feature_walk::FeatureWalk;
use tmark_hin::{Hin, HinBuilder};
use tmark_linalg::pool;
use tmark_linalg::similarity::SimilarityMetric;

use crate::serve::{self, Kind, TraceStats};
use crate::stats::{percentile, summarize, Summary};
use crate::trace::{self, Tracer};
use crate::walk_quality;
use crate::workloads::{split_seed, Plan, BATCH};
use crate::{host, Calls};

/// Direct `BatchSolver::solve` repetitions of the traced run.
const SOLVE_REPS: usize = 3;
/// Kernel timing: rounds of back-to-back calls on the stationary block,
/// each round lasting at least `ROUND_S`; the median round is reported.
const ROUNDS: usize = 3;
const ROUND_S: f64 = 0.02;
/// Served answers must agree with an offline cold fit on this share of
/// nodes: warm and cold runs stop at a finite epsilon, so a borderline
/// argmax may flip.
const AGREEMENT: f64 = 0.99;
/// Column-stochasticity tolerance for every built `W`.
const WALK_TOL: f64 = 1e-6;

#[derive(Debug, Clone)]
pub struct Options {
    pub trace: bool,
    /// Budget of the measured phase: fits repeat past their minimum
    /// until setup plus fits have lasted this long.
    pub seconds: f64,
    pub seed: u64,
}

/// One serialized network and the digest of the network it was
/// generated from.
#[derive(Debug, Clone)]
pub struct Input {
    pub bytes: Vec<u8>,
    pub digest: u64,
    pub config: TMarkConfig,
}

#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Measured>,
    pub calls: Calls,
    /// Repetition counts actually run.
    pub reps: Vec<(&'static str, usize)>,
    pub tracer: Tracer,
}

/// FNV-1a over everything a serialized network carries, so the network
/// read back can be compared bitwise with the one generated.
pub fn digest(hin: &Hin) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(hin.num_nodes() as u64);
    eat(hin.feature_dim() as u64);
    for e in hin.tensor().entries() {
        eat(e.i as u64);
        eat(e.j as u64);
        eat(e.k as u64);
        eat(e.value.to_bits());
    }
    for &x in hin.features().as_slice() {
        eat(x.to_bits());
    }
    for v in 0..hin.num_nodes() {
        for &c in hin.labels().labels_of(v) {
            eat(v as u64);
            eat(c as u64);
        }
    }
    for name in hin
        .link_type_names()
        .iter()
        .chain(hin.labels().class_names())
    {
        for b in name.bytes() {
            eat(u64::from(b));
        }
        eat(u64::MAX);
    }
    h
}

/// Fails unless `w` is column-stochastic.
pub fn check_walk(w: &FeatureWalk) -> Result<(), String> {
    let ok = match (w.as_dense(), w.as_sparse()) {
        (Some(d), _) => d.is_column_stochastic(WALK_TOL),
        (_, Some(s)) => s.is_column_stochastic(WALK_TOL),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "a feature walk W is not column-stochastic ({WALK_TOL})"
        ))
    }
}

fn bitwise_equal(a: &TMarkResult, b: &TMarkResult) -> bool {
    a.confidences().as_slice() == b.confidences().as_slice()
        && a.link_scores().as_slice() == b.link_scores().as_slice()
}

/// A network after setup: loaded and cached, or already behind a session.
// One value per network exists, so the variants' size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum Loaded {
    Hin(Hin),
    Session(ServingSession),
}

impl Loaded {
    fn hin(&self) -> &Hin {
        match self {
            Loaded::Hin(h) => h,
            Loaded::Session(s) => s.hin(),
        }
    }
}

struct Net {
    loaded: Loaded,
    model: TMarkModel,
    train: Vec<usize>,
    test: Vec<usize>,
}

fn read(bytes: &[u8], tr: &mut Tracer) -> Result<Hin, String> {
    tr.span("hin.read", || tmark_hin::io::read_hin(Cursor::new(bytes)))
        .map_err(|e| format!("read_hin rejected the generated input: {e}"))
}

/// One timed setup of one network: input bytes to ready-to-answer.
fn setup_once(
    plan: &Plan,
    input: &Input,
    split: Option<&(Vec<usize>, Vec<usize>)>,
    tr: &mut Tracer,
    calls: &mut Calls,
) -> Result<(Loaded, f64), String> {
    let model = TMarkModel::new(input.config).with_feature_walk(plan.mode);
    tr.next_run();
    let span = tr.begin("setup");
    let started = Instant::now();
    let hin = read(&input.bytes, tr)?;
    let loaded = match split {
        Some((train, test)) if plan.serve => {
            let mut session = tr.span("serving.session_new", || {
                ServingSession::new(hin, model, train)
            });
            if tr.enabled() {
                tr.span("sparse_tensor.build", || {
                    session.hin().stochastic_tensors_ref();
                });
                tr.span("feature_walk.build", || {
                    session
                        .hin()
                        .feature_walk(plan.mode, SimilarityMetric::Cosine);
                });
            }
            let first: Vec<usize> = test.iter().copied().take(BATCH).collect();
            let ok = tr.span("serving.request", || session.classify_batch(&first).is_ok());
            calls.record(ok);
            Loaded::Session(session)
        }
        _ => {
            tr.span("sparse_tensor.build", || {
                hin.stochastic_tensors_ref();
            });
            tr.span("feature_walk.build", || {
                hin.feature_walk(plan.mode, SimilarityMetric::Cosine);
            });
            Loaded::Hin(hin)
        }
    };
    let secs = started.elapsed().as_secs_f64();
    tr.end(span);
    Ok((loaded, secs))
}

fn seeds_by_class(hin: &Hin, train: &[usize]) -> Vec<Vec<usize>> {
    let mut seeds = vec![Vec::new(); hin.num_classes()];
    for &v in train {
        for &c in hin.labels().labels_of(v) {
            seeds[c].push(v);
        }
    }
    for s in seeds.iter_mut() {
        s.sort_unstable();
        s.dedup();
    }
    seeds
}

/// Median per-call time of `f` over [`ROUNDS`] rounds of back-to-back calls.
fn per_call(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let span = tr.begin(name);
        let started = Instant::now();
        let mut calls = 0usize;
        while calls == 0 || started.elapsed().as_secs_f64() < ROUND_S {
            f();
            calls += 1;
        }
        rounds.push(started.elapsed().as_secs_f64() / calls as f64);
        tr.end(span);
    }
    summarize(&rounds).map_or(0.0, |s| s.median)
}

/// Layer measurements of one network (traced run only).
#[derive(Debug, Default)]
struct Profile {
    tensor_nnz: f64,
    recall: f64,
    empty_columns: f64,
    solve_s: f64,
    class_iterations: f64,
    iterations_max: f64,
    nonconverged: f64,
    attributed_s: f64,
    o_s: f64,
    r_s: f64,
    w_s: f64,
    restart_s: f64,
    o_bytes: f64,
    r_bytes: f64,
    w_bytes: f64,
    walk_nnz: f64,
}

fn profile(
    net: &Net,
    mode: FeatureWalkMode,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Profile, String> {
    let (hin, train, config) = (net.loaded.hin(), &net.train, *net.model.config());
    let stoch = hin.stochastic_tensors_ref();
    let w = hin.feature_walk(mode, SimilarityMetric::Cosine);
    let (n, m, q) = (hin.num_nodes(), hin.num_link_types(), hin.num_classes());
    let seeds = seeds_by_class(hin, train);
    let classes: Vec<usize> = (0..q).collect();
    let solver = BatchSolver::new(stoch, &w, config);
    let mut ws = BatchWorkspace::default();
    let mut times = Vec::with_capacity(SOLVE_REPS);
    let mut out = Vec::new();
    for _ in 0..SOLVE_REPS {
        tr.next_run();
        let started = Instant::now();
        out = tr.span("solver.solve", || {
            solver.solve(&classes, &seeds, &[], &mut ws)
        });
        times.push(started.elapsed().as_secs_f64());
    }
    let iterations: Vec<usize> = out.iter().map(|o| o.report.iterations).collect();

    // Kernels on the stationary block, so they see realistic sparsity.
    let mut xs = vec![0.0; n * q];
    let mut zs = vec![0.0; m * q];
    for (c, o) in out.iter().enumerate() {
        xs[c * n..(c + 1) * n].copy_from_slice(&o.x);
        zs[c * m..(c + 1) * m].copy_from_slice(&o.z);
    }
    let (mut ys, mut zb) = (vec![0.0; n * q], vec![0.0; m * q]);
    let mut shape_ok = true;
    let o_s = per_call(tr, "sparse_tensor.contract_o", || {
        shape_ok &= stoch.contract_o_multi_into(&xs, &zs, &mut ys, q).is_ok();
    });
    let r_s = per_call(tr, "sparse_tensor.contract_r", || {
        shape_ok &= stoch.contract_r_multi_into(&xs, &mut zb, q).is_ok();
    });
    let w_s = per_call(tr, "feature_walk.apply", || {
        w.apply_multi_into(&xs, q, &mut ys)
    });
    if !shape_ok {
        return Err("a contraction rejected the stationary block".into());
    }
    let mut l = vec![0.0; n];
    let restart: Vec<f64> = (0..q)
        .map(|c| {
            per_call(tr, "solver.restart", || {
                ica_refresh_restart(&xs[c * n..(c + 1) * n], &seeds[c], config.lambda, &mut l);
            })
        })
        .collect();
    let restart_s = summarize(&restart).map_or(0.0, |s| s.median);

    // Kernel cost scales with the active columns, and a class retires
    // when it converges, so kernels are charged per class-iteration; the
    // restart runs per class from `ica_start_iteration` on.
    let class_iterations: usize = iterations.iter().sum();
    let restarts: usize = if config.ica_update {
        iterations
            .iter()
            .map(|&t| t.saturating_sub(config.ica_start_iteration - 1))
            .sum()
    } else {
        0
    };
    let attributed_s =
        class_iterations as f64 / q as f64 * (o_s + r_s + w_s) + restarts as f64 * restart_s;

    let sizes = stoch.entry_byte_sizes();
    let block = (8 * n * q) as f64;
    let zblock = (8 * m * q) as f64;
    let (walk_nnz, w_bytes) = match (w.as_dense(), w.as_sparse()) {
        (Some(_), _) => ((n * n) as f64, (8 * n * n) as f64 + 2.0 * block),
        (_, Some(s)) => (
            s.nnz() as f64,
            (16 * s.nnz() + 8 * (n + 1)) as f64 + 2.0 * block,
        ),
        _ => (0.0, 0.0),
    };
    let k = match mode.resolve(n) {
        FeatureWalkMode::Knn(k) | FeatureWalkMode::Ann { k, .. } => k,
        _ => 64,
    };
    let quality = walk_quality::measure(&w, hin.features(), k, seed);
    Ok(Profile {
        tensor_nnz: hin.tensor().nnz() as f64,
        recall: quality.recall,
        empty_columns: quality.empty_columns as f64,
        solve_s: summarize(&times).map_or(0.0, |s| s.median),
        class_iterations: class_iterations as f64,
        iterations_max: iterations.iter().copied().max().unwrap_or(0) as f64,
        nonconverged: out.iter().filter(|o| !o.report.converged).count() as f64,
        attributed_s,
        o_s,
        r_s,
        w_s,
        restart_s,
        o_bytes: sizes.o_path as f64 + 2.0 * block + zblock,
        r_bytes: sizes.r_path as f64 + block + zblock,
        w_bytes,
        walk_nnz,
    })
}

/// Fails unless fits at thread caps 1 and `nproc` are bitwise equal to
/// the reference fit at the default cap.
fn check_caps(net: &Net, reference: &TMarkResult, calls: &mut Calls) -> Result<(), String> {
    for cap in [1, host::nproc()] {
        pool::set_thread_cap(Some(cap));
        let again = net.model.fit(net.loaded.hin(), &net.train);
        pool::set_thread_cap(None);
        calls.record(again.is_ok());
        if again.is_ok_and(|a| !bitwise_equal(reference, &a)) {
            return Err(format!("fits differ between thread caps (cap {cap})"));
        }
    }
    Ok(())
}

/// The tensor, walk and solver metrics of the traced run: times and
/// counts summed over the networks, rates and shares taken from the sums.
fn layer_metrics(ps: &[Profile], fit_s: f64, sink: &mut Sink) {
    let sum = |f: fn(&Profile) -> f64| ps.iter().map(f).sum::<f64>();
    let (o_s, r_s, w_s, solve_s) = (
        sum(|p| p.o_s),
        sum(|p| p.r_s),
        sum(|p| p.w_s),
        sum(|p| p.solve_s),
    );
    sink.single("sparse_tensor.nnz", "count", sum(|p| p.tensor_nnz));
    sink.single("sparse_tensor.contract_o_ms", "ms", o_s * 1e3);
    sink.single("sparse_tensor.contract_r_ms", "ms", r_s * 1e3);
    sink.single(
        "sparse_tensor.contract_o_gbps_computed",
        "GB/s",
        sum(|p| p.o_bytes) / o_s / 1e9,
    );
    sink.single(
        "sparse_tensor.contract_r_gbps_computed",
        "GB/s",
        sum(|p| p.r_bytes) / r_s / 1e9,
    );
    sink.single("feature_walk.nnz", "count", sum(|p| p.walk_nnz));
    sink.single("feature_walk.apply_ms", "ms", w_s * 1e3);
    sink.single(
        "feature_walk.apply_gbps_computed",
        "GB/s",
        sum(|p| p.w_bytes) / w_s / 1e9,
    );
    sink.single(
        "feature_walk.recall_sampled",
        "frac",
        sum(|p| p.recall) / ps.len() as f64,
    );
    sink.single(
        "feature_walk.empty_columns",
        "count",
        sum(|p| p.empty_columns),
    );
    sink.single("solver.solve_s", "s", solve_s);
    sink.single("solver.iterations", "count", sum(|p| p.class_iterations));
    let max = ps.iter().map(|p| p.iterations_max).fold(0.0, f64::max);
    sink.single("solver.iterations_max", "count", max);
    sink.single(
        "solver.per_iter_ms",
        "ms",
        solve_s / sum(|p| p.iterations_max) * 1e3,
    );
    sink.single("solver.restart_ms", "ms", sum(|p| p.restart_s) * 1e3);
    sink.single(
        "solver.attributed_frac",
        "frac",
        sum(|p| p.attributed_s) / solve_s,
    );
    sink.single(
        "solver.fit_overhead_frac",
        "frac",
        (fit_s - solve_s) / fit_s,
    );
    sink.single(
        "solver.nonconverged_classes",
        "count",
        sum(|p| p.nonconverged),
    );
}

/// A never-mutated network holding exactly the final state of `h`.
fn rebuild_fresh(h: &Hin) -> Result<Hin, String> {
    let mut b = HinBuilder::new(
        h.feature_dim(),
        h.link_type_names().to_vec(),
        h.labels().class_names().to_vec(),
    );
    for v in 0..h.num_nodes() {
        b.add_node(h.features().row(v).to_vec());
        for &c in h.labels().labels_of(v) {
            b.set_label(v, c)
                .map_err(|e| format!("fresh rebuild: {e}"))?;
        }
    }
    for e in h.tensor().entries() {
        b.add_weighted_directed_edge(e.j, e.i, e.k, e.value)
            .map_err(|e| format!("fresh rebuild: {e}"))?;
    }
    b.build().map_err(|e| format!("fresh rebuild: {e}"))
}

/// Sums consecutive groups of `group` values (one group per repetition
/// when each repetition touches `group` networks).
fn per_rep(values: Vec<f64>, group: usize) -> Vec<f64> {
    values
        .chunks(group.max(1))
        .map(|c| c.iter().sum())
        .collect()
}

/// The serving gates at the end of a trace: the final served answers
/// agree with an offline cold fit on the final state, and that fit is
/// bitwise equal to a fit on a network rebuilt from scratch. Returns the
/// accuracy of the served answers on the nodes still held out.
fn check_served(
    session: &mut ServingSession,
    model: &TMarkModel,
    test: &[usize],
    revealed: &[usize],
    calls: &mut Calls,
) -> Result<f64, String> {
    let all: Vec<usize> = (0..session.hin().num_nodes()).collect();
    let served = session
        .classify_batch(&all)
        .map_err(|e| format!("final sweep failed: {e}"))?;
    calls.record(true);
    let offline = model
        .fit(session.hin(), session.train_nodes())
        .map_err(|e| format!("offline cold fit failed: {e}"))?;
    calls.record(true);
    let agree = all
        .iter()
        .filter(|&&v| served[v] == offline.predict_single(v))
        .count();
    if (agree as f64) < AGREEMENT * all.len() as f64 {
        return Err(format!(
            "served answers agree with an offline cold fit on {agree}/{} nodes",
            all.len()
        ));
    }
    let fresh = rebuild_fresh(session.hin())?;
    let on_fresh = model
        .fit(&fresh, session.train_nodes())
        .map_err(|e| format!("fresh-rebuild fit failed: {e}"))?;
    calls.record(true);
    if !bitwise_equal(&offline, &on_fresh) {
        return Err("the mutated network's fit differs from a fresh rebuild's".into());
    }
    let mut revealed = revealed.to_vec();
    revealed.sort_unstable();
    let held: Vec<usize> = test
        .iter()
        .copied()
        .filter(|v| revealed.binary_search(v).is_err())
        .collect();
    let right = held
        .iter()
        .filter(|&&v| session.hin().labels().has_label(v, served[v]))
        .count();
    Ok(right as f64 / held.len().max(1) as f64)
}

struct Sink(Vec<Measured>);

impl Sink {
    fn add(&mut self, name: &str, unit: &'static str, summary: Option<Summary>) {
        if let Some(summary) = summary {
            self.0.push(Measured {
                name: name.to_string(),
                unit: unit.to_string(),
                summary,
            });
        }
    }

    fn single(&mut self, name: &str, unit: &'static str, value: f64) {
        self.add(name, unit, Some(Summary::single(value)));
    }

    fn scaled(&mut self, name: &str, unit: &'static str, values: &[f64], scale: f64) {
        let v: Vec<f64> = values.iter().map(|x| x * scale).collect();
        self.add(name, unit, summarize(&v));
    }
}

/// Runs one workload over its serialized inputs. `Err` is a broken
/// correctness contract: the run must report nothing.
pub fn run(plan: &Plan, inputs: &[Input], opts: &Options) -> Result<Report, String> {
    let mut tr = Tracer::new(opts.trace);
    let mut calls = Calls::default();
    pool::reset_peak_workers();
    let nets_n = inputs.len();

    // The serving setup needs its supervision set up front; it comes from
    // an untimed read of the same bytes.
    let mut splits: Vec<Option<(Vec<usize>, Vec<usize>)>> = vec![None; nets_n];
    if plan.serve {
        for (slot, input) in splits.iter_mut().zip(inputs) {
            let hin =
                tmark_hin::io::read_hin(Cursor::new(&input.bytes)).map_err(|e| e.to_string())?;
            *slot = Some(tmark_datasets::stratified_split(
                &hin,
                plan.fraction,
                split_seed(opts.seed),
            ));
        }
    }

    let measure_start = Instant::now();
    let mut setup_s = Vec::with_capacity(plan.setup_reps);
    let mut loaded: Vec<Loaded> = Vec::new();
    for rep in 0..plan.setup_reps {
        // Free the previous repetition's networks before timing the next.
        loaded.clear();
        let mut total = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            let (l, secs) = setup_once(plan, input, splits[i].as_ref(), &mut tr, &mut calls)?;
            total += secs;
            if rep == 0 {
                if digest(l.hin()) != input.digest {
                    return Err("the network read back differs from the generated one".into());
                }
                check_walk(&l.hin().feature_walk(plan.mode, SimilarityMetric::Cosine))?;
                if splits[i].is_none() {
                    splits[i] = Some(tmark_datasets::stratified_split(
                        l.hin(),
                        plan.fraction,
                        split_seed(opts.seed),
                    ));
                }
            }
            loaded.push(l);
        }
        setup_s.push(total);
    }
    let mut nets: Vec<Net> = loaded
        .into_iter()
        .zip(inputs)
        .zip(splits)
        .map(|((loaded, input), split)| {
            let (train, test) = split.unwrap_or_default();
            Net {
                loaded,
                model: TMarkModel::new(input.config).with_feature_walk(plan.mode),
                train,
                test,
            }
        })
        .collect();

    // Fits on warm operator caches, repeated until the budget is spent.
    let mut fit_s = Vec::new();
    let mut reference: Vec<Option<TMarkResult>> = vec![None; nets_n];
    let mut fit_reps = 0;
    loop {
        tr.next_run();
        let span = tr.begin("fit");
        let mut total = 0.0;
        let mut all_ok = true;
        for (net, kept) in nets.iter().zip(reference.iter_mut()) {
            let started = Instant::now();
            let result = tr.span("solver.fit", || net.model.fit(net.loaded.hin(), &net.train));
            total += started.elapsed().as_secs_f64();
            match result {
                Ok(r) => {
                    calls.record(true);
                    match kept {
                        Some(first) if !bitwise_equal(first, &r) => {
                            return Err("fits of one network differ across repetitions".into());
                        }
                        Some(_) => {}
                        None => *kept = Some(r),
                    }
                }
                Err(_) => {
                    calls.record(false);
                    all_ok = false;
                }
            }
        }
        tr.end(span);
        if all_ok {
            fit_s.push(total);
        }
        fit_reps += 1;
        let spent = measure_start.elapsed().as_secs_f64();
        if fit_reps >= plan.max_fit_reps || (fit_reps >= plan.min_fit_reps && spent >= opts.seconds)
        {
            break;
        }
    }
    let mut accuracy = 0.0;
    for (net, r) in nets.iter().zip(&reference) {
        let r = r.as_ref().ok_or("every fit of a network failed")?;
        accuracy += tmark_eval::metrics::accuracy(net.loaded.hin(), r.confidences(), &net.test)
            / nets_n as f64;
    }

    let mut sink = Sink(Vec::new());
    if opts.trace {
        let mut profiles = Vec::with_capacity(nets_n);
        for (i, (net, r)) in nets.iter().zip(&reference).enumerate() {
            check_caps(net, r.as_ref().ok_or("no reference fit")?, &mut calls)?;
            profiles.push(profile(net, plan.mode, opts.seed ^ i as u64, &mut tr)?);
        }
        let fit_median = summarize(&fit_s).map_or(0.0, |s| s.median);
        layer_metrics(&profiles, fit_median, &mut sink);
    }

    // The serving trace.
    let mut traces: Vec<TraceStats> = Vec::with_capacity(nets_n);
    let mut served_accuracy = 0.0;
    for (i, net) in nets.drain(..).enumerate() {
        let mut session = match net.loaded {
            Loaded::Session(s) => s,
            Loaded::Hin(h) => {
                let mut s = ServingSession::new(h, net.model.clone(), &net.train);
                calls.record(s.refresh().is_ok());
                s
            }
        };
        let seed = opts.seed ^ ((i as u64 + 1) << 40);
        let events = serve::schedule(session.hin(), &net.test, plan.events, seed);
        let stats = serve::replay(
            &mut session,
            &events,
            &net.model,
            plan.mode,
            &mut tr,
            &mut calls,
        )?;

        if plan.serve {
            served_accuracy += check_served(
                &mut session,
                &net.model,
                &net.test,
                &stats.revealed,
                &mut calls,
            )? / nets_n as f64;
        }
        traces.push(stats);
    }
    if plan.serve {
        accuracy = served_accuracy;
    }

    // End-to-end metrics. Refit latency of event e sums the networks'
    // first-batch latencies of their event e, as setup and fit reps do.
    let mut refit_s = Vec::new();
    for e in 0..plan.events {
        let per_net: Option<Vec<f64>> = traces
            .iter()
            .map(|t| t.refit_s.get(e).copied().flatten())
            .collect();
        if let Some(v) = per_net {
            refit_s.push(v.iter().sum::<f64>());
        }
    }
    let wall: f64 = traces.iter().map(|t| t.wall_s).sum();
    let requests: usize = traces.iter().map(|t| t.requests).sum();
    sink.add("setup_s", "s", summarize(&setup_s));
    sink.add("fit_s", "s", summarize(&fit_s));
    sink.scaled("refit_p50_ms", "ms", &refit_s, 1e3);
    sink.single("serve_rps", "req/s", requests as f64 / wall);
    sink.single("accuracy", "frac", accuracy);
    if let Some(rss) = host::peak_rss_mb() {
        sink.single("peak_rss_mb", "MB", rss);
    }

    // Reported beside the gated metrics, where the samples allow.
    let all_traces = |f: &dyn Fn(&TraceStats) -> &Vec<f64>| -> Vec<f64> {
        traces.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let mutation_s = all_traces(&|t| &t.mutation_s);
    if let Some(p90) = percentile(&refit_s, 0.9) {
        sink.single("refit_p90_ms", "ms", p90 * 1e3);
    }
    if let Some(p90) = percentile(&mutation_s, 0.9) {
        sink.single("hin.mutation_p90_us", "us", p90 * 1e6);
    }
    let by_kind = |kind: Kind| -> Vec<f64> {
        traces
            .iter()
            .flat_map(|t| {
                t.refit_by_kind
                    .iter()
                    .filter(|(k, _)| *k == kind)
                    .map(|&(_, s)| s)
            })
            .collect()
    };
    let nodes = by_kind(Kind::Node);
    if let Some(max) = nodes.iter().copied().reduce(f64::max) {
        sink.single("serving.refit_node_max_ms", "ms", max * 1e3);
    }

    if opts.trace {
        let input_bytes: usize = inputs.iter().map(|i| i.bytes.len()).sum();
        let sum = |f: &dyn Fn(&TraceStats) -> usize| traces.iter().map(f).sum::<usize>() as f64;
        sink.add(
            "hin.read_s",
            "s",
            summarize(&per_rep(tr.durations("hin.read"), nets_n)),
        );
        sink.single("hin.input_mb", "MB", input_bytes as f64 / (1024.0 * 1024.0));
        sink.scaled("hin.mutation_p50_us", "us", &mutation_s, 1e6);
        sink.add(
            "sparse_tensor.build_s",
            "s",
            summarize(&per_rep(tr.durations("sparse_tensor.build"), nets_n)),
        );
        sink.single("sparse_tensor.patches", "count", sum(&|t| t.patches));
        sink.single("sparse_tensor.rebuilds", "count", sum(&|t| t.rebuilds));
        sink.scaled(
            "sparse_tensor.rebuild_ms",
            "ms",
            &tr.durations("sparse_tensor.rebuild"),
            1e3,
        );
        sink.add(
            "feature_walk.build_s",
            "s",
            summarize(&per_rep(tr.durations("feature_walk.build"), nets_n)),
        );
        sink.single(
            "serving.cache_hit_rate",
            "frac",
            sum(&|t| t.cache_hits) / sum(&|t| t.requests),
        );
        sink.single("serving.warm_fits", "count", sum(&|t| t.warm_fits));
        sink.single("serving.cold_fits", "count", sum(&|t| t.cold_fits));
        sink.scaled(
            "serving.hit_latency_p50_us",
            "us",
            &all_traces(&|t| &t.hit_s),
            1e6,
        );
        sink.scaled(
            "serving.refit_label_p50_ms",
            "ms",
            &by_kind(Kind::Label),
            1e3,
        );
        sink.scaled(
            "serving.refit_reweight_p50_ms",
            "ms",
            &by_kind(Kind::Reweight),
            1e3,
        );
        sink.scaled(
            "serving.refit_insert_p50_ms",
            "ms",
            &by_kind(Kind::Insert),
            1e3,
        );
        sink.add(
            "serving.warm_iterations_p50",
            "count",
            summarize(&all_traces(&|t| &t.warm_iterations)),
        );
        sink.add(
            "serving.cold_iterations_p50",
            "count",
            summarize(&all_traces(&|t| &t.cold_iterations)),
        );
        sink.single("pool.cap", "count", pool::thread_cap() as f64);
        sink.single("pool.peak_workers", "count", pool::peak_workers() as f64);
        let coverage = trace::coverage(tr.spans(), "setup");
        if coverage < 0.95 {
            return Err(format!("setup spans cover only {coverage:.3} of setup_s"));
        }
        sink.single("trace.setup_coverage", "frac", coverage);
    }

    Ok(Report {
        metrics: sink.0,
        calls,
        reps: vec![
            ("setup_reps", plan.setup_reps),
            ("fit_reps", fit_reps),
            ("events", plan.events),
            ("networks", nets_n),
        ],
        tracer: tr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{END_TO_END, PER_LAYER};
    use crate::workloads::{generate, plan, tmark_config, Scale, WORKLOADS};

    fn inputs(name: &str) -> Vec<Input> {
        generate(name, Scale::Tiny, 3)
            .iter()
            .enumerate()
            .map(|(i, hin)| {
                let mut bytes = Vec::new();
                tmark_hin::io::write_hin(hin, &mut bytes).expect("in-memory write");
                Input {
                    bytes,
                    digest: digest(hin),
                    config: tmark_config(name, i),
                }
            })
            .collect()
    }

    #[test]
    fn every_workload_runs_end_to_end_at_tiny_scale() {
        // The driver adds these two itself: they compare processes.
        let from_driver = ["input.gen_s", "trace.overhead_frac"];
        for w in WORKLOADS {
            let plan = plan(w.name, Scale::Tiny);
            let inputs = inputs(w.name);
            for trace in [false, true] {
                let opts = Options {
                    trace,
                    seconds: 0.0,
                    seed: 3,
                };
                let report =
                    run(&plan, &inputs, &opts).unwrap_or_else(|v| panic!("{}: {v}", w.name));
                let has = |name: &str| {
                    report
                        .metrics
                        .iter()
                        .any(|m| m.name == name && m.summary.median.is_finite())
                };
                for m in END_TO_END {
                    assert!(has(m.name), "{} is missing {}", w.name, m.name);
                }
                for m in PER_LAYER.iter().filter(|m| !from_driver.contains(&m.name)) {
                    assert_eq!(has(m.name), trace, "{}: {}", w.name, m.name);
                }
                assert_eq!(report.calls.failed, 0, "{}", w.name);
                assert!(report.calls.attempted > 0);
            }
        }
    }

    #[test]
    fn an_input_that_differs_from_the_generated_one_is_refused() {
        let plan = plan("powerlaw-1e5", Scale::Tiny);
        let mut inputs = inputs("powerlaw-1e5");
        inputs[0].digest ^= 1;
        let opts = Options {
            trace: false,
            seconds: 0.0,
            seed: 3,
        };
        let err = run(&plan, &inputs, &opts).expect_err("digest mismatch must refuse");
        assert!(err.contains("differs from the generated"), "{err}");
    }
}
