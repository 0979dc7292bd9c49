//! A small bounded worker pool shared by every multi-task caller.
//!
//! Solver drivers parallelize over fit calls and sweep trials, and the
//! contraction/matvec kernels parallelize over output partitions; before
//! this module each spawned its own unbounded set of scoped threads, so a
//! sweep nested `trials × q` live threads. The pool replaces that with a
//! process-wide
//! *extra-worker* budget of `cap − 1` permits (the calling thread is
//! always the first worker): [`run_tasks`] grabs as many permits as are
//! free, spawns that many scoped workers, and runs the rest of its tasks
//! inline. A nested caller that finds no permits free simply runs
//! sequentially on its own (already-counted) thread — so the number of
//! live solver threads can never exceed the cap, whatever the nesting
//! depth, and permit acquisition never blocks (no deadlock by
//! construction).
//!
//! The cap defaults to [`std::thread::available_parallelism`], can be
//! pinned through the `TMARK_SOLVER_THREADS` environment variable, and can
//! be overridden programmatically with [`set_thread_cap`].
//!
//! Worker panics do not abort the process: each task runs under
//! [`std::panic::catch_unwind`] and its verdict is returned as a
//! [`std::thread::Result`], so one poisoned task degrades into an error
//! the caller can attribute.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable that pins the worker cap (a positive integer).
pub const THREAD_CAP_ENV: &str = "TMARK_SOLVER_THREADS";

/// Default work threshold (in *entry visits*: stored entries × operand
/// columns for sparse kernels, cells × columns for dense ones) below
/// which a kernel runs its plain serial loop even when pool permits are
/// free. [`run_tasks`] spawns fresh scoped threads per call — roughly
/// 0.1–0.6 ms of overhead — while a serial gather sweeps on the order of
/// 10⁹ entry visits per second, so parallelism only amortizes once a call
/// carries several milliseconds of work. The toy benchmark datasets
/// (≤ 10⁵ visits per kernel call) sit far below this line, which is
/// exactly why caps 2/4 used to *lose* to cap 1 on them.
pub const PAR_WORK_DEFAULT: usize = 4_000_000;

/// Programmatic cap override: 0 = unset (derive from env / hardware).
static CAP_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Programmatic work-threshold override: 0 = unset (use the default).
static WORK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Extra-worker permits currently held by running [`run_tasks`] calls.
static EXTRA_IN_USE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of concurrently live workers (spawned + the caller),
/// for tests and diagnostics.
static PEAK_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The current worker cap: the programmatic override if set, else
/// `TMARK_SOLVER_THREADS` if set to a positive integer, else
/// [`std::thread::available_parallelism`] (1 when unknown). Always ≥ 1.
pub fn thread_cap() -> usize {
    let over = CAP_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    if let Ok(s) = std::env::var(THREAD_CAP_ENV) {
        if let Ok(v) = s.trim().parse::<usize>() {
            if v > 0 {
                return v;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Overrides the worker cap for the whole process (`None` reverts to the
/// env/hardware default). Takes effect for subsequent acquisitions;
/// already-running workers finish normally.
pub fn set_thread_cap(cap: Option<usize>) {
    CAP_OVERRIDE.store(
        cap.unwrap_or(0).max(usize::from(cap.is_some())),
        Ordering::SeqCst,
    );
}

/// The high-water mark of concurrently live pool workers (spawned workers
/// plus the outermost calling thread) since the last
/// [`reset_peak_workers`]. The nested-sweep test asserts this never
/// exceeds [`thread_cap`].
pub fn peak_workers() -> usize {
    PEAK_WORKERS.load(Ordering::SeqCst)
}

/// Resets the [`peak_workers`] gauge to zero.
pub fn reset_peak_workers() {
    PEAK_WORKERS.store(0, Ordering::SeqCst);
}

/// The current serial-fallback work threshold: the programmatic override
/// if set, else [`PAR_WORK_DEFAULT`].
pub fn parallel_work_threshold() -> usize {
    let over = WORK_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        over
    } else {
        PAR_WORK_DEFAULT
    }
}

/// Overrides the serial-fallback work threshold for the whole process
/// (`None` reverts to [`PAR_WORK_DEFAULT`]). Tests use `Some(1)` to force
/// the parallel path on small fixtures; because parallel and serial paths
/// are bitwise-identical by construction, the setting is purely a
/// scheduling knob and racing it between tests cannot change results.
pub fn set_parallel_work_threshold(threshold: Option<usize>) {
    WORK_OVERRIDE.store(
        threshold.unwrap_or(0).max(usize::from(threshold.is_some())),
        Ordering::SeqCst,
    );
}

/// The adaptive scheduling gate shared by every parallel kernel: `work`
/// is the call's entry-visit count (stored entries × operand columns for
/// sparse kernels, cells × columns for dense ones). Returns true when the
/// call is big enough to amortize worker spawning *and* the pool could
/// actually grant an extra worker right now. Purely a scheduling
/// decision — results are bitwise identical either way.
#[inline]
pub fn should_parallelize(work: usize) -> bool {
    work >= parallel_work_threshold() && parallelism_hint() > 1
}

/// A cheap, racy estimate of how many workers a [`run_tasks`] call made
/// right now would get (the caller plus currently-free permits). Always
/// ≥ 1. Kernels use it to skip partitioning entirely and run their plain
/// serial loop when no extra workers could be granted anyway; because
/// parallel and serial paths are bitwise-identical by construction, a
/// stale answer affects only scheduling, never results.
pub fn parallelism_hint() -> usize {
    let cap_extra = thread_cap().saturating_sub(1);
    let in_use = EXTRA_IN_USE.load(Ordering::SeqCst);
    1 + cap_extra.saturating_sub(in_use)
}

/// Tries to take up to `want` extra-worker permits without blocking;
/// returns how many were granted (possibly 0).
fn acquire_extra(want: usize) -> usize {
    let cap_extra = thread_cap().saturating_sub(1);
    let mut current = EXTRA_IN_USE.load(Ordering::SeqCst);
    loop {
        let grant = want.min(cap_extra.saturating_sub(current));
        if grant == 0 {
            return 0;
        }
        match EXTRA_IN_USE.compare_exchange(
            current,
            current + grant,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return grant,
            Err(now) => current = now,
        }
    }
}

fn release_extra(granted: usize) {
    if granted > 0 {
        EXTRA_IN_USE.fetch_sub(granted, Ordering::SeqCst);
    }
}

/// Bumps the live-worker gauge and folds the observation into the peak.
fn note_workers_live(count: usize) {
    PEAK_WORKERS.fetch_max(count, Ordering::SeqCst);
}

/// Runs every task, using at most `thread_cap()` live threads across the
/// whole process (including nested `run_tasks` calls), and returns one
/// [`std::thread::Result`] per task in input order: `Ok(value)` normally,
/// `Err(payload)` when the task panicked.
///
/// Tasks are distributed round-robin over the granted workers; the caller
/// always participates as a worker, so progress is guaranteed even when no
/// permits are free (the nested case degrades to an inline sequential
/// run).
pub fn run_tasks<T, F>(tasks: Vec<F>) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = tasks.len();
    if total == 0 {
        return Vec::new();
    }
    let granted = acquire_extra(total - 1);
    let workers = granted + 1;
    note_workers_live(EXTRA_IN_USE.load(Ordering::SeqCst) + 1);

    // Bucket w takes tasks w, w + workers, w + 2·workers, …
    let mut buckets: Vec<Vec<(usize, F)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        buckets[i % workers].push((i, task));
    }
    let mut results: Vec<Option<std::thread::Result<T>>> = (0..total).map(|_| None).collect();
    let own_bucket = buckets.swap_remove(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(buckets.len());
        for bucket in buckets {
            handles.push(scope.spawn(move || run_bucket(bucket)));
        }
        for (i, outcome) in run_bucket(own_bucket) {
            results[i] = Some(outcome);
        }
        for h in handles {
            if let Ok(pairs) = h.join() {
                for (i, outcome) in pairs {
                    results[i] = Some(outcome);
                }
            }
        }
    });
    release_extra(granted);
    results
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(Box::new("pool worker died") as _)))
        .collect()
}

/// Runs one worker's bucket, catching per-task panics.
fn run_bucket<T, F>(bucket: Vec<(usize, F)>) -> Vec<(usize, std::thread::Result<T>)>
where
    F: FnOnce() -> T,
{
    bucket
        .into_iter()
        .map(|(i, task)| (i, catch_unwind(AssertUnwindSafe(task))))
        .collect()
}

/// Renders a panic payload (as captured by [`run_tasks`]) into a
/// human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let tasks: Vec<_> = (0..17).map(|i| move || i * 2).collect();
        let out = run_tasks(tasks);
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(r.unwrap(), i * 2);
        }
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let out: Vec<std::thread::Result<()>> = run_tasks(Vec::<fn()>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_task_does_not_poison_the_others() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("task 1 exploded")),
            Box::new(|| 3),
        ];
        let out = run_tasks(tasks);
        assert_eq!(*out[0].as_ref().unwrap(), 1);
        let payload = out[1].as_ref().unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "task 1 exploded");
        assert_eq!(*out[2].as_ref().unwrap(), 3);
    }

    #[test]
    fn panic_message_handles_formatted_and_opaque_payloads() {
        let out = run_tasks(vec![|| panic!("value = {}", 42)]);
        assert_eq!(
            panic_message(out[0].as_ref().unwrap_err().as_ref()),
            "value = 42"
        );
        assert_eq!(panic_message(&42usize), "non-string panic payload");
    }

    #[test]
    fn thread_cap_is_at_least_one() {
        assert!(thread_cap() >= 1);
    }

    #[test]
    fn work_threshold_override_round_trips() {
        assert_eq!(parallel_work_threshold(), PAR_WORK_DEFAULT);
        set_parallel_work_threshold(Some(123));
        assert_eq!(parallel_work_threshold(), 123);
        // Some(0) still forces the most aggressive (always-parallel) gate
        // rather than silently reverting to the default.
        set_parallel_work_threshold(Some(0));
        assert_eq!(parallel_work_threshold(), 1);
        set_parallel_work_threshold(None);
        assert_eq!(parallel_work_threshold(), PAR_WORK_DEFAULT);
    }
}
