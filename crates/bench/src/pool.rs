//! A deterministic worker pool for independent simulation scenarios.
//!
//! Every scenario in the harness — a Table 1 primitive, a Table 2/3
//! application, one ablation point, one Table 4 DBMS configuration — owns
//! its whole world: its own [`epcm_managers::Machine`], RNG, tracer and
//! metrics registry. Nothing is shared, so the runs can execute on any
//! OS thread in any order without changing a single simulated event.
//! Determinism therefore reduces to *presentation* order, and the pool
//! guarantees it structurally: results are joined **in declared order**,
//! regardless of which worker finished first. The rendered tables,
//! traces and `BENCH_*.json` documents are byte-identical for
//! every `--jobs` value (pinned by `tests/scenarios.rs`).
//!
//! The scheduling discipline is a single shared atomic cursor over the
//! declared job list: each worker claims the next unclaimed index,
//! runs that closure, and stores the result into that index's slot.
//! This is the same "policy above, mechanism below" split the paper
//! makes for memory management — the job list fixes *what* (and the
//! output order), the pool only decides *where* each job runs.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// A boxed scenario: any `FnOnce` producing a sendable result.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// A scenario job panicked. Carries the job's declared index and the
/// panic message, so a failing sweep points at the scenario instead of
/// aborting the harness through a bare thread-join panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the failed job in the declared job list.
    pub job: usize,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for PoolError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Slot<'a, T> {
    Pending(Job<'a, T>),
    Taken,
    Done(T),
    Failed(String),
}

/// Fans independent jobs across `std::thread` workers, joining results
/// in declared order.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioPool {
    jobs: usize,
}

impl ScenarioPool {
    /// A pool with `jobs` workers. `0` is treated as `1` (serial).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The serial pool: runs every job inline on the calling thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs the declared job list and returns the results in the same
    /// order the jobs were declared. With one worker (or one job) this
    /// runs inline, with zero threading overhead; otherwise scoped
    /// worker threads claim jobs through a shared atomic cursor. A
    /// panicking job panics the caller with the job index and message
    /// attached; use [`ScenarioPool::try_run`] to handle it as an error.
    pub fn run<'a, T: Send>(&self, jobs: Vec<Job<'a, T>>) -> Vec<T> {
        match self.try_run(jobs) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`ScenarioPool::run`]: every job is run to
    /// completion regardless of worker count (so side effects match the
    /// serial pool), each panic is caught in the worker that claimed
    /// the job, and the failure with the **lowest declared index** is
    /// returned — the same one on every run and worker count.
    ///
    /// # Errors
    ///
    /// [`PoolError`] with the failed job's index and panic message.
    pub fn try_run<'a, T: Send>(&self, jobs: Vec<Job<'a, T>>) -> Result<Vec<T>, PoolError> {
        let workers = self.jobs.min(jobs.len());
        let slots: Vec<Mutex<Slot<'a, T>>> = jobs
            .into_iter()
            .map(|job| Mutex::new(Slot::Pending(job)))
            .collect();
        let cursor = AtomicUsize::new(0);
        let claim_and_run = |i: usize| {
            let Some(slot) = slots.get(i) else {
                return false;
            };
            let job = {
                let mut guard = slot.lock().expect("job slot poisoned");
                match std::mem::replace(&mut *guard, Slot::Taken) {
                    Slot::Pending(job) => job,
                    other => {
                        *guard = other;
                        return true;
                    }
                }
            };
            let outcome = match catch_unwind(AssertUnwindSafe(job)) {
                Ok(result) => Slot::Done(result),
                Err(payload) => Slot::Failed(panic_message(payload.as_ref())),
            };
            *slot.lock().expect("job slot poisoned") = outcome;
            true
        };
        if workers <= 1 {
            for i in 0..slots.len() {
                claim_and_run(i);
            }
        } else {
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(
                        || {
                            while claim_and_run(cursor.fetch_add(1, Ordering::Relaxed)) {}
                        },
                    );
                }
            });
        }
        let mut results = Vec::with_capacity(slots.len());
        for (job, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().expect("job slot poisoned") {
                Slot::Done(result) => results.push(result),
                Slot::Failed(message) => return Err(PoolError { job, message }),
                // Unreachable: every index was claimed and either
                // completed or recorded its failure above.
                _ => unreachable!("scenario job did not complete"),
            }
        }
        Ok(results)
    }

    /// Maps `f` over `items` in parallel, preserving item order in the
    /// returned vector.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Send + Sync,
    {
        let f = &f;
        self.run(
            items
                .into_iter()
                .map(|item| Box::new(move || f(item)) as Job<'_, T>)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_declared_order() {
        for jobs in [1, 2, 8] {
            let pool = ScenarioPool::new(jobs);
            let out = pool.map((0..64u64).collect(), |i| i * i);
            assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_pool_runs_inline_without_threads() {
        let tid = thread::current().id();
        let pool = ScenarioPool::serial();
        let same_thread = pool.map(vec![(), (), ()], |()| thread::current().id() == tid);
        assert!(same_thread.into_iter().all(|b| b));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let pool = ScenarioPool::new(8);
        let out = pool.map((0..100usize).collect(), |i| {
            RUNS.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(RUNS.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_jobs_is_serial() {
        assert_eq!(ScenarioPool::new(0).jobs(), 1);
    }

    #[test]
    fn panicking_job_reports_index_and_message() {
        for jobs in [1, 4] {
            let pool = ScenarioPool::new(jobs);
            let list: Vec<Job<'_, u64>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("scenario 1 exploded")),
                Box::new(|| 3),
                Box::new(|| panic!("scenario 3 exploded")),
            ];
            let err = pool.try_run(list).expect_err("panics must surface");
            // The lowest declared index wins on every worker count.
            assert_eq!(err.job, 1);
            assert_eq!(err.message, "scenario 1 exploded");
            assert!(err.to_string().contains("job 1"));
        }
    }

    #[test]
    fn try_run_succeeds_like_run() {
        let pool = ScenarioPool::new(4);
        let list: Vec<Job<'_, u64>> = (0..16u64).map(|i| Box::new(move || i * 2) as _).collect();
        assert_eq!(
            pool.try_run(list).expect("no job panics"),
            (0..16).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn heterogeneous_boxed_jobs_join_in_order() {
        let pool = ScenarioPool::new(4);
        let jobs: Vec<Job<'_, String>> = vec![
            Box::new(|| "alpha".to_string()),
            Box::new(|| format!("{}", 6 * 7)),
            Box::new(|| "omega".to_string()),
        ];
        assert_eq!(pool.run(jobs), vec!["alpha", "42", "omega"]);
    }
}
