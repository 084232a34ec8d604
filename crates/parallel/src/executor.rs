//! The scoped worker pool with an index-ordered work queue.

use crate::budget::SharedBudget;
use crate::env::threads_from_env;
use crate::fault::catch_payload;
use automodel_trace::EnvError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A fixed-width pool of scoped workers that evaluates index-addressed
/// batches with ordered reduction. Cheap to construct (threads are spawned
/// per batch and joined before `map*` returns — no idle pool to manage),
/// cheap to clone, and safe to share. The calling thread is worker 0: a
/// batch of width `w` spawns `w - 1` threads, and the caller claims tasks
/// alongside them until the queue drains.
///
/// Determinism contract: for a task function `f` that is deterministic in
/// its index, `map` (and `map_budgeted` under an evaluation-count budget)
/// returns byte-identical output at every thread count.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    /// Largest number of distinct workers that ran at least one task in
    /// a single batch, shared by all clones (see
    /// [`peak_workers`](Executor::peak_workers)).
    peak_workers: Arc<AtomicUsize>,
}

impl Executor {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
            peak_workers: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// A pool sized by `AUTOMODEL_THREADS` (a decimal count ≥ 1), else by
    /// the host's available parallelism. A malformed value is an
    /// [`EnvError`] naming the variable.
    pub fn from_env() -> Result<Executor, EnvError> {
        let threads = threads_from_env()?.unwrap_or_else(available_threads);
        Ok(Executor::new(threads))
    }

    /// Like [`Executor::from_env`], but fail-closed: a malformed
    /// `AUTOMODEL_THREADS` yields the available-parallelism default. For
    /// construction sites that cannot return `Result`; run entry points
    /// surface the same parse failure first via
    /// [`crate::env::validate_env`].
    pub fn from_env_or_default() -> Executor {
        Executor::from_env().unwrap_or_else(|_| Executor::new(available_threads()))
    }

    /// Single-threaded executor — the CI determinism-replay configuration.
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The largest number of distinct workers that executed at least one
    /// task within a single batch on this executor or any of its clones
    /// (0 before the first task runs). Thread-identity proofs assert this
    /// exceeds 1, so a "same bytes at 1 and N threads" check cannot
    /// quietly compare a serial run with itself.
    pub fn peak_workers(&self) -> usize {
        self.peak_workers.load(Ordering::Relaxed)
    }

    /// Evaluate `f(0), …, f(n-1)` and return the results in index order.
    /// If any task panics, the panic is re-raised on the caller thread.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, None, f)
    }

    /// Like [`map`](Executor::map), but stop claiming tasks once `budget`
    /// is exhausted. The executed tasks always form the prefix `[0, k)`;
    /// the returned vector holds exactly their results.
    ///
    /// `budget` is checked before every task claim. An evaluation-count
    /// limit additionally caps the prefix up front (`k ≤ remaining_evals`),
    /// which is what makes eval-bounded runs thread-count-invariant. `f` is
    /// responsible for calling [`SharedBudget::record`] once per task so
    /// the count and the incumbent advance.
    pub fn map_budgeted<T, F>(&self, n: usize, budget: &SharedBudget, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, Some(budget), f)
    }

    fn run<T, F>(&self, n: usize, budget: Option<&SharedBudget>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let allowed = budget.map_or(n, |b| n.min(b.remaining_evals()));
        let workers = self.threads.min(allowed);
        if workers <= 1 {
            // Serial path. Identical claim discipline (check budget, then
            // take the next index) and trivially in-order reduction, so the
            // threaded path below can never disagree with it under an
            // eval-count budget.
            let mut out = Vec::with_capacity(allowed);
            for idx in 0..allowed {
                if budget.is_some_and(|b| b.exhausted()) {
                    break;
                }
                out.push(f(idx));
            }
            if !out.is_empty() {
                self.peak_workers.fetch_max(1, Ordering::Relaxed);
            }
            return out;
        }

        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let active = AtomicUsize::new(0);
        let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(allowed));
        let claim_loop = || {
            let mut ran = false;
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if budget.is_some_and(|b| b.exhausted()) {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= allowed {
                    break;
                }
                if !ran {
                    ran = true;
                    active.fetch_add(1, Ordering::Relaxed);
                }
                // A claimed index is always evaluated (budget checks
                // happen strictly before the claim), so the executed set
                // stays a contiguous prefix — no holes.
                let value = f(idx);
                slots.lock().push((idx, value));
            }
        };
        let result = crossbeam::scope(|scope| {
            // The calling thread is worker 0: spawn `workers - 1` helpers
            // and run the same claim loop here instead of idling in the
            // join below.
            let handles: Vec<_> = (1..workers)
                .map(|_| scope.spawn(|_| claim_loop()))
                .collect();
            let mut panicked = catch_payload(claim_loop).err();
            if panicked.is_some() {
                stop.store(true, Ordering::Relaxed);
            }
            // Join explicitly to recover the original panic payload (an
            // unjoined scoped thread would surface only as a generic
            // "a scoped thread panicked").
            for handle in handles {
                if let Err(payload) = handle.join() {
                    stop.store(true, Ordering::Relaxed);
                    panicked.get_or_insert(payload);
                }
            }
            panicked
        });
        self.peak_workers
            .fetch_max(active.into_inner(), Ordering::Relaxed);
        match result {
            Ok(Some(payload)) | Err(payload) => std::panic::resume_unwind(payload),
            Ok(None) => {}
        }
        let mut pairs = slots.into_inner();
        pairs.sort_by_key(|(idx, _)| *idx);
        pairs.into_iter().map(|(_, value)| value).collect()
    }
}

/// The host's available parallelism (1 when it cannot be determined),
/// read once per process: on Linux each query reads the affinity mask
/// and the cgroup CPU quota files (~30 µs), and every `UdrConfig` and
/// `DmdConfig` default asks — once per served session.
fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetSpec;
    use crate::clock::ManualClock;
    use crate::seed::seed_stream;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn map_returns_results_in_index_order_despite_uneven_costs() {
        // Early indices sleep longest, so completion order inverts claim
        // order — the reduction must restore index order.
        let out = Executor::new(4).map(12, |i| {
            std::thread::sleep(Duration::from_millis((12 - i as u64) % 5));
            i * i
        });
        assert_eq!(out, (0..12).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_identical_across_thread_counts() {
        let run = |threads| {
            Executor::new(threads).map(64, |i| {
                let s = seed_stream(99, i as u64, 0);
                (i, s, (s as f64).sqrt())
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panic_propagates_to_the_caller() {
        Executor::new(4).map(8, |i| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
    }

    #[test]
    fn eval_budget_caps_the_prefix_exactly() {
        for threads in [1, 2, 8] {
            let budget = SharedBudget::new(BudgetSpec::evals(5), Arc::new(ManualClock::new()));
            let out = Executor::new(threads).map_budgeted(20, &budget, |i| {
                budget.record(0.0);
                i
            });
            assert_eq!(out, vec![0, 1, 2, 3, 4], "threads = {threads}");
            assert_eq!(budget.evals(), 5);
        }
    }

    #[test]
    fn target_budget_stops_mid_batch() {
        let budget = SharedBudget::new(
            BudgetSpec::default().with_target(0.5),
            Arc::new(ManualClock::new()),
        );
        let out = Executor::new(2).map_budgeted(100, &budget, |i| {
            budget.record(if i >= 3 { 1.0 } else { 0.0 });
            i
        });
        // The target trips after task 3; workers may already hold claims,
        // so a small overshoot (≤ thread count) is allowed — but the result
        // must stay an index-ordered prefix and far short of the batch.
        assert!(out.len() >= 4 && out.len() < 100, "len = {}", out.len());
        assert_eq!(out, (0..out.len()).collect::<Vec<_>>());
    }

    #[test]
    fn time_budget_stops_mid_batch_on_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let budget = SharedBudget::new(BudgetSpec::time(Duration::from_secs(10)), clock.clone());
        let out = Executor::new(3).map_budgeted(100, &budget, |i| {
            if i == 5 {
                clock.advance(Duration::from_secs(11));
            }
            budget.record(0.0);
            i
        });
        assert!(out.len() >= 6 && out.len() < 100, "len = {}", out.len());
        assert_eq!(out, (0..out.len()).collect::<Vec<_>>());
    }

    #[test]
    fn exhausted_budget_runs_nothing() {
        let budget = SharedBudget::new(BudgetSpec::evals(0), Arc::new(ManualClock::new()));
        let out = Executor::new(4).map_budgeted(10, &budget, |i| {
            budget.record(0.0);
            i
        });
        assert!(out.is_empty());
        assert_eq!(budget.evals(), 0);
    }

    /// Spin until `done()` holds or five seconds pass, so a broken
    /// executor fails the calling test instead of hanging it.
    fn wait_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// A task body that holds its worker until `n` tasks have started
    /// (or the deadline passes), so `n` distinct workers must run them.
    fn hold_until_started(started: &AtomicUsize, n: usize) {
        started.fetch_add(1, Ordering::SeqCst);
        wait_until(|| started.load(Ordering::SeqCst) >= n);
    }

    #[test]
    fn peak_workers_counts_the_workers_that_ran_tasks() {
        let serial = Executor::serial();
        assert_eq!(serial.peak_workers(), 0);
        serial.map(4, |i| i);
        assert_eq!(serial.peak_workers(), 1);

        // Every task waits until both workers hold a claim, so two
        // distinct workers must have run tasks; clones share the count.
        let pair = Executor::new(2);
        let started = AtomicUsize::new(0);
        pair.clone().map(2, |i| {
            hold_until_started(&started, 2);
            i
        });
        assert_eq!(pair.peak_workers(), 2);
        // A one-task batch cannot lower the recorded peak.
        pair.map(1, |i| i);
        assert_eq!(pair.peak_workers(), 2);
    }

    #[test]
    #[should_panic(expected = "the caller's own task exploded")]
    fn caller_panic_propagates_with_its_payload() {
        // Helper tasks park until the calling thread has claimed one, so
        // the caller is guaranteed a share — and its task is the one that
        // panics.
        let caller = std::thread::current().id();
        let caller_claimed = AtomicBool::new(false);
        Executor::new(4).map(64, |i| {
            if std::thread::current().id() == caller {
                caller_claimed.store(true, Ordering::SeqCst);
                panic!("the caller's own task exploded");
            }
            wait_until(|| caller_claimed.load(Ordering::SeqCst));
            i
        });
    }

    #[test]
    fn the_caller_is_worker_zero_and_peak_workers_counts_it() {
        // Width 2 spawns one helper; both tasks wait until both are held,
        // so the caller must hold one of them.
        let caller = std::thread::current().id();
        let pool = Executor::new(2);
        let started = AtomicUsize::new(0);
        let ran_on_caller = pool.map(2, |_| {
            hold_until_started(&started, 2);
            std::thread::current().id() == caller
        });
        assert_eq!(ran_on_caller.iter().filter(|&&c| c).count(), 1);
        assert_eq!(pool.peak_workers(), 2);

        // A width-w batch runs on the caller plus at most w - 1 helpers;
        // helper tasks hold until the caller has claimed one.
        let ids = Mutex::new(Vec::new());
        let caller_claimed = AtomicBool::new(false);
        Executor::new(3).map(64, |i| {
            let id = std::thread::current().id();
            let mut ids = ids.lock();
            if !ids.contains(&id) {
                ids.push(id);
            }
            drop(ids);
            if id == caller {
                caller_claimed.store(true, Ordering::SeqCst);
            } else {
                wait_until(|| caller_claimed.load(Ordering::SeqCst));
            }
            i
        });
        let ids = ids.into_inner();
        assert!(ids.contains(&caller), "the caller claimed no task");
        assert!(ids.len() <= 3, "{} distinct workers", ids.len());
    }

    #[test]
    fn map_budgeted_runs_a_contiguous_prefix_with_the_caller_in_the_pool() {
        // An eval-count budget caps the prefix exactly, and target / clock
        // stops leave an index-ordered prefix, at widths where the caller
        // claims tasks alongside its helpers.
        for threads in [2, 3, 8] {
            let budget = SharedBudget::new(BudgetSpec::evals(7), Arc::new(ManualClock::new()));
            let out = Executor::new(threads).map_budgeted(40, &budget, |i| {
                std::thread::sleep(Duration::from_micros(100));
                budget.record(0.0);
                i
            });
            assert_eq!(out, (0..7).collect::<Vec<_>>(), "threads = {threads}");

            let budget = SharedBudget::new(
                BudgetSpec::default().with_target(0.5),
                Arc::new(ManualClock::new()),
            );
            let out = Executor::new(threads).map_budgeted(200, &budget, |i| {
                std::thread::sleep(Duration::from_micros(100));
                budget.record(if i >= 10 { 1.0 } else { 0.0 });
                i
            });
            assert!(out.len() >= 11 && out.len() < 200, "len = {}", out.len());
            assert_eq!(
                out,
                (0..out.len()).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::serial().threads(), 1);
        assert_eq!(Executor::new(0).map(3, |i| i), vec![0, 1, 2]);
    }
}
