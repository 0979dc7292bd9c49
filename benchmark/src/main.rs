//! The T-Mark benchmark: four workloads, end-to-end metrics with
//! regression bounds, and a traced run that attributes them to layers.
//! See README.md for the metric and workload tables.
//!
//! Usage:
//!
//! ```text
//! benchmark [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
//!           [--out FILE] [--repeat N]
//! ```
//!
//! The driver process generates each workload's input from the seed,
//! serializes it with `tmark_hin::io::write_hin` into a scratch directory
//! under the working directory, and runs the workload in a fresh child
//! process that loads the bytes before any timing — so the code under
//! test receives only bytes and the peak RSS is per workload. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A broken correctness contract
//! ends the run with a non-zero exit status and no metrics.

mod host;
mod registry;
mod rng;
mod run;
mod serve;
mod stats;
mod trace;
mod walk_quality;
mod workloads;

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use run::Measured;
use stats::{summarize, Summary};
use workloads::{Scale, WORKLOADS};

/// Fit, request and mutation calls attempted, and how many returned `Err`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
}

impl Calls {
    /// Counts one call; returns `ok` so call sites can branch on it.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    fn add(&mut self, other: Calls) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Scratch directory for generated inputs, under the working directory.
const SCRATCH: &str = ".bench_work";

/// Removes this process's input directories, and the scratch directory
/// once it is empty.
fn cleanup_scratch() {
    let prefix = format!("{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(SCRATCH) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    let _ = std::fs::remove_dir(SCRATCH);
}

fn die(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    cleanup_scratch();
    std::process::exit(1);
}

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    repeat: Option<usize>,
    child: Option<ChildArgs>,
}

#[derive(Debug, Clone)]
struct ChildArgs {
    inputs: PathBuf,
    digests: Vec<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.name).collect(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        out: None,
        repeat: None,
        child: None,
    };
    let mut inputs = None;
    let mut digests = None;
    let mut it = std::env::args().skip(1).peekable();
    let value = |it: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>, flag: &str| {
        it.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, "--workload");
                let w = workloads::find(&name).unwrap_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    die(&format!("unknown workload {name:?}; one of {}", names.join(", ")))
                });
                args.workloads = vec![w.name];
            }
            "--seed" => {
                args.seed = value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--seed: {e}")));
            }
            "--seconds" => {
                args.seconds = value(&mut it, "--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| die("--seconds needs a positive number"));
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it, "--out"))),
            "--repeat" => {
                args.repeat = Some(
                    value(&mut it, "--repeat")
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--repeat needs a positive count")),
                );
            }
            "--inputs" => inputs = Some(PathBuf::from(value(&mut it, "--inputs"))),
            "--digests" => {
                digests = Some(
                    value(&mut it, "--digests")
                        .split(',')
                        .map(|d| u64::from_str_radix(d, 16).unwrap_or_else(|e| die(&format!("--digests: {e}"))))
                        .collect(),
                );
            }
            other => die(&format!(
                "unknown argument {other:?} (try --workload, --seed, --seconds, --trace, --out, --repeat)"
            )),
        }
    }
    if let (Some(inputs), Some(digests)) = (inputs, digests) {
        args.child = Some(ChildArgs { inputs, digests });
    }
    args
}

/// Everything one child run reported.
#[derive(Debug, Default)]
struct Outcome {
    metrics: Vec<Measured>,
    calls: Calls,
    reps: Vec<(String, String)>,
    self_times: Vec<(String, f64, usize)>,
}

impl Outcome {
    fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn median(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.summary.median)
    }
}

fn input_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("input-{i}.hin"))
}

/// Runs inside the child: loads the inputs, runs the workload, prints the
/// machine-readable lines the driver parses, and exits.
fn child_main(args: &Args, child: &ChildArgs) -> ! {
    let name = args.workloads[0];
    let plan = workloads::plan(name, Scale::Full);
    let inputs: Vec<run::Input> = child
        .digests
        .iter()
        .enumerate()
        .map(|(i, &digest)| run::Input {
            bytes: std::fs::read(input_path(&child.inputs, i))
                .unwrap_or_else(|e| die(&format!("reading input {i}: {e}"))),
            digest,
            config: workloads::tmark_config(name, i),
        })
        .collect();
    let opts = run::Options {
        trace: args.trace,
        seconds: args.seconds,
        seed: args.seed,
    };
    let report = match run::run(&plan, &inputs, &opts) {
        Ok(r) => r,
        Err(violation) => {
            eprintln!("benchmark: {name}: correctness violation: {violation}; refusing to report");
            std::process::exit(2);
        }
    };
    let mut out = String::new();
    for m in &report.metrics {
        let s = m.summary;
        let _ = writeln!(
            out,
            "metric\t{}\t{}\t{}\t{}\t{}\t{}",
            m.name, m.unit, s.median, s.q1, s.q3, s.n
        );
    }
    let _ = writeln!(
        out,
        "calls\t{}\t{}",
        report.calls.attempted, report.calls.failed
    );
    for (k, v) in &report.reps {
        let _ = writeln!(out, "reps\t{k}\t{v}");
    }
    for (span, (secs, count)) in trace::self_times(report.tracer.spans()) {
        let _ = writeln!(out, "self\t{span}\t{secs}\t{count}");
    }
    let mut stdout = std::io::stdout();
    if let Err(e) = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        die(&format!("writing the report: {e}"));
    }
    if let (true, Some(path)) = (args.trace, &args.out) {
        let spans = report.tracer.to_json_lines(name);
        let written = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .and_then(|mut f| f.write_all(spans.as_bytes()));
        if let Err(e) = written {
            die(&format!("writing spans to {}: {e}", path.display()));
        }
    }
    std::process::exit(0);
}

fn parse_outcome(stdout: &str) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let num = |s: &str| {
        s.parse::<f64>()
            .map_err(|e| format!("bad number {s:?}: {e}"))
    };
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["metric", name, unit, median, q1, q3, n] => o.metrics.push(Measured {
                name: name.to_string(),
                unit: unit.to_string(),
                summary: Summary {
                    median: num(median)?,
                    q1: num(q1)?,
                    q3: num(q3)?,
                    n: n.parse().map_err(|e| format!("bad count {n:?}: {e}"))?,
                },
            }),
            ["calls", attempted, failed] => {
                o.calls = Calls {
                    attempted: attempted.parse().map_err(|e| format!("{e}"))?,
                    failed: failed.parse().map_err(|e| format!("{e}"))?,
                };
            }
            ["reps", k, v] => o.reps.push((k.to_string(), v.to_string())),
            ["self", span, secs, count] => {
                o.self_times.push((
                    span.to_string(),
                    num(secs)?,
                    count.parse().map_err(|e| format!("{e}"))?,
                ));
            }
            _ => return Err(format!("unexpected child output line {line:?}")),
        }
    }
    Ok(o)
}

/// Generated inputs of one workload, on disk.
struct Prepared {
    path: PathBuf,
    digests: Vec<u64>,
    gen_s: f64,
}

impl Prepared {
    fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn prepare(name: &str, seed: u64) -> Prepared {
    let path = PathBuf::from(SCRATCH).join(format!("{}-{name}-{seed}", std::process::id()));
    std::fs::create_dir_all(&path)
        .unwrap_or_else(|e| die(&format!("creating {}: {e}", path.display())));
    let started = Instant::now();
    let nets = workloads::generate(name, Scale::Full, seed);
    let gen_s = started.elapsed().as_secs_f64();
    let mut digests = Vec::with_capacity(nets.len());
    for (i, hin) in nets.iter().enumerate() {
        let file = input_path(&path, i);
        let written = std::fs::File::create(&file)
            .map_err(tmark_hin::io::IoError::from)
            .and_then(|f| {
                let mut w = BufWriter::new(f);
                tmark_hin::io::write_hin(hin, &mut w)?;
                w.flush()?;
                Ok(())
            });
        if let Err(e) = written {
            die(&format!("writing {}: {e}", file.display()));
        }
        digests.push(run::digest(hin));
    }
    Prepared {
        path,
        digests,
        gen_s,
    }
}

fn run_child(name: &str, seed: u64, args: &Args, trace: bool, input: &Prepared) -> Outcome {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(&format!("locating the benchmark binary: {e}")));
    let digests: Vec<String> = input.digests.iter().map(|d| format!("{d:x}")).collect();
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--inputs")
        .arg(&input.path)
        .args(["--digests", &digests.join(",")])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let (true, Some(out)) = (trace, &args.out) {
        cmd.arg("--out").arg(out);
    }
    let output = cmd
        .output()
        .unwrap_or_else(|e| die(&format!("starting the {name} child: {e}")));
    if !output.status.success() {
        die(&format!(
            "{name}: the workload run failed ({})",
            output.status
        ));
    }
    parse_outcome(&String::from_utf8_lossy(&output.stdout))
        .unwrap_or_else(|e| die(&format!("{name}: {e}")))
}

/// The metrics the final JSON line carries for one workload, each checked
/// present and finite.
fn reported(name: &str, outcome: &Outcome, trace: bool) -> Vec<Measured> {
    let table: Vec<(&str, &str)> = if trace {
        registry::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        registry::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    table
        .into_iter()
        .map(|(metric, unit)| {
            let m = outcome
                .get(metric)
                .unwrap_or_else(|| die(&format!("{name}: no value for {metric}")));
            if !m.summary.median.is_finite() || m.unit != unit {
                die(&format!(
                    "{name}: {metric} = {} {} is not a finite value in {unit}",
                    m.summary.median, m.unit
                ));
            }
            m.clone()
        })
        .collect()
}

fn print_block(name: &str, seed: u64, trace: bool, outcome: &Outcome, gen_s: f64) {
    let meta: Vec<String> = host::metadata()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .chain(std::iter::once(format!("seed={seed}")))
        .chain(outcome.reps.iter().map(|(k, v)| format!("{k}={v}")))
        .collect();
    let why = workloads::find(name).map_or("", |w| w.why);
    println!(
        "== {name} ({}): {why} ==",
        if trace { "traced" } else { "untraced" }
    );
    println!("host: {}", meta.join(" "));
    println!(
        "calls: attempted={} failed={} (input generation {gen_s:.3} s, outside every metric)",
        outcome.calls.attempted, outcome.calls.failed
    );
    for m in &outcome.metrics {
        let s = m.summary;
        let note = registry::per_layer(&m.name)
            .map(|l| format!("  ({} is better) -> {}", l.better.as_str(), l.moves))
            .or_else(|| registry::end_to_end(&m.name).map(|e| format!("  (bound {})", e.bound)))
            .unwrap_or_else(|| "  (reported, not gated)".into());
        println!(
            "  {:<40} {:>14.6} {:<6} median; q1 {:.6}, q3 {:.6}, n={}{note}",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
    }
    if trace {
        let mut selfs = outcome.self_times.clone();
        selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("  self time by span:");
        for (span, secs, count) in selfs {
            println!("    {span:<32} {secs:>10.4} s over {count} spans");
        }
    }
}

/// The result line: `correct`, `attempted`, `failed`, and each metric's
/// median with its unit.
fn result_line(calls: Calls, metrics: &[(String, Measured)]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        calls.attempted, calls.failed
    );
    for (i, (key, m)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.summary.median, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// One run of each selected workload; untraced, or traced with the
/// untraced run beside it for the overhead.
fn run_once(args: &Args) {
    let mut calls = Calls::default();
    let mut rows: Vec<(String, Measured)> = Vec::new();
    if let (true, Some(out)) = (args.trace, &args.out) {
        std::fs::write(out, "")
            .unwrap_or_else(|e| die(&format!("truncating {}: {e}", out.display())));
    }
    for &name in &args.workloads {
        let input = prepare(name, args.seed);
        let plain = run_child(name, args.seed, args, false, &input);
        let mut outcome = if args.trace {
            let mut traced = run_child(name, args.seed, args, true, &input);
            // Compared on fit_s, the metric with the most repetitions:
            // setup_s has few, and the traced run moves operator rebuilds
            // out of the refits into spans of their own.
            let overhead = traced.median("fit_s") / plain.median("fit_s") - 1.0;
            for (metric, unit, value) in [
                ("input.gen_s", "s", input.gen_s),
                ("trace.overhead_frac", "frac", overhead),
            ] {
                traced.metrics.push(Measured {
                    name: metric.into(),
                    unit: unit.into(),
                    summary: Summary::single(value),
                });
            }
            traced
        } else {
            plain
        };
        outcome.metrics.sort_by_key(|m| {
            registry::END_TO_END
                .iter()
                .position(|e| e.name == m.name)
                .or_else(|| {
                    registry::PER_LAYER
                        .iter()
                        .position(|l| l.name == m.name)
                        .map(|p| p + 100)
                })
                .unwrap_or(usize::MAX)
        });
        print_block(name, args.seed, args.trace, &outcome, input.gen_s);
        input.remove();
        calls.add(outcome.calls);
        let prefix = if args.workloads.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        for m in reported(name, &outcome, args.trace) {
            rows.push((format!("{prefix}{}", m.name), m));
        }
    }
    println!("{}", result_line(calls, &rows));
}

/// `--repeat N`: N untraced runs of each workload in fresh processes, on
/// seeds `seed .. seed+N`, alternating the workload order; prints the
/// median and spread of every end-to-end metric across runs and flags a
/// spread wider than the metric's bound.
fn run_repeat(args: &Args, n: usize) {
    let mut calls = Calls::default();
    let mut values: Vec<(String, Measured, Vec<f64>)> = Vec::new();
    for r in 0..n {
        let seed = args.seed + r as u64;
        let mut order = args.workloads.clone();
        if r % 2 == 1 {
            order.reverse();
        }
        for name in order {
            let input = prepare(name, seed);
            let outcome = run_child(name, seed, args, false, &input);
            input.remove();
            calls.add(outcome.calls);
            for m in reported(name, &outcome, false) {
                let key = format!("{name}.{}", m.name);
                match values.iter_mut().find(|(k, _, _)| *k == key) {
                    Some((_, _, v)) => v.push(m.summary.median),
                    None => values.push((key, m.clone(), vec![m.summary.median])),
                }
            }
            eprintln!("benchmark: repeat {}/{n}: {name} (seed {seed}) done", r + 1);
        }
    }
    values.sort_by(|a, b| a.0.cmp(&b.0));
    println!(
        "== repeat: {n} runs per workload, seeds {}..{} ==",
        args.seed,
        args.seed + n as u64 - 1
    );
    let mut rows: Vec<(String, Measured)> = Vec::new();
    let mut flagged = 0;
    for (key, m, v) in &values {
        let s = summarize(v).unwrap_or_else(|| die("no runs"));
        let Some(e2e) = registry::end_to_end(&m.name) else {
            continue;
        };
        let wide = s.iqr_share() > e2e.bound;
        flagged += usize::from(wide);
        println!(
            "  {key:<36} median {:>14.6} {:<6} q1 {:.6} q3 {:.6} iqr/median {:.4} bound {} ({} is better){}",
            s.median,
            m.unit,
            s.q1,
            s.q3,
            s.iqr_share(),
            e2e.bound,
            e2e.better.as_str(),
            if wide { "  SPREAD EXCEEDS BOUND" } else { "" }
        );
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        println!("    runs: {}", runs.join(" "));
        rows.push((
            key.clone(),
            Measured {
                summary: s,
                ..m.clone()
            },
        ));
    }
    if flagged > 0 {
        eprintln!("benchmark: {flagged} metric(s) spread wider than their bound");
    }
    println!("{}", result_line(calls, &rows));
}

fn main() {
    let args = parse_args();
    if let Some(child) = &args.child {
        child_main(&args, child);
    }
    match args.repeat {
        Some(n) => run_repeat(&args, n),
        None => run_once(&args),
    }
    cleanup_scratch();
}
