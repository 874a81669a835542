//! The discrete-event transaction engine.
//!
//! "The program is a mixture of implementation and simulation. The locks
//! were implemented and the parallelism is real. However, the execution of
//! a transaction is simulated by looping for some number of instructions
//! and a page fault is simulated by a delay" (§3.3). Here likewise: the
//! hierarchical [`LockManager`] is real and every
//! grant/queue decision is taken by it; execution is virtual-time bursts
//! on a 6-processor bank; a page fault is a virtual-time delay *during
//! which the faulting join keeps its locks* — the lock-holding fault being
//! exactly the pathology the paper demonstrates.
//!
//! Transaction shapes:
//!
//! * **DebitCredit** (95%): `IX(db) → IX(accounts) → IX(branches) →
//!   X(account page) → X(branch page)`, then a short CPU burst.
//! * **Join** (5%): `IS(db) → S(accounts) → S(detail) → IX(results) →
//!   X(result page)`, then — depending on the strategy — a scan burst, an
//!   index-probe burst, a page-in stall, or a regeneration burst. The
//!   relation-level `S(accounts)` is the hierarchical-locking consequence
//!   of reading the relation without an index-selected page set; it
//!   conflicts with every DebitCredit's `IX(accounts)`.

use std::collections::VecDeque;

use epcm_sim::clock::{Micros, Timestamp};
use epcm_sim::events::EventQueue;
use epcm_sim::rng::Rng;
use epcm_sim::stats::{Histogram, Summary};

use crate::config::{DbmsConfig, IndexStrategy};
use crate::lock::{Acquire, LockManager, LockMode, Resource, TxnId};

/// Relation ids.
const ACCOUNTS: u32 = 1;
const BRANCHES: u32 = 2;
const DETAIL: u32 = 3;
const RESULTS: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DebitCredit,
    Join,
}

/// Every transaction shape takes exactly this many locks, so the lock
/// list is a fixed array inside the recycled transaction slot.
const LOCKS_PER_TXN: usize = 5;

#[derive(Debug)]
struct Txn {
    arrival: Timestamp,
    kind: Kind,
    locks: [(Resource, LockMode); LOCKS_PER_TXN],
    next_lock: usize,
    stall: Micros,
    burst: Micros,
    counted: bool,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive,
    StallDone(usize),
    CpuDone(usize),
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbmsReport {
    /// Strategy simulated.
    pub strategy: IndexStrategy,
    /// Response times over all measured transactions (Table 4's Average
    /// and Worst-case columns are [`Summary::mean`] and [`Summary::max`]).
    pub all: Summary,
    /// DebitCredit-only responses.
    pub debit_credit: Summary,
    /// Join-only responses.
    pub joins: Summary,
    /// Times the index was brought back (page-in or regeneration).
    pub index_restorations: u64,
    /// Lock-manager `(grants, waits)`.
    pub lock_contention: (u64, u64),
    /// Response-time distribution (log-bucketed).
    pub histogram: Histogram,
}

impl DbmsReport {
    /// Table 4 "Average Response" in milliseconds.
    pub fn average_ms(&self) -> f64 {
        self.all.mean().as_millis_f64()
    }

    /// Table 4 "Worst-case Response" in milliseconds.
    pub fn worst_ms(&self) -> f64 {
        self.all.max().as_millis_f64()
    }

    /// Upper bound on the given response-time quantile, in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.histogram.quantile_upper_bound(q).as_millis_f64()
    }
}

/// Runs the Table 4 experiment for one configuration.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero processors or tps).
pub fn run(config: &DbmsConfig) -> DbmsReport {
    Engine::new(config).run()
}

struct Engine<'a> {
    config: &'a DbmsConfig,
    rng: Rng,
    now: Timestamp,
    events: EventQueue<Ev>,
    /// Transaction slots, indexed by `TxnId`. A slot goes on `free_txns`
    /// only at the end of `on_cpu_done`, after its `release_all`, and a
    /// committed transaction never has a queued request — so a reused
    /// slot's id holds no lock and no pending event names it.
    txns: Vec<Txn>,
    free_txns: Vec<usize>,
    locks: LockManager,
    busy_cpus: usize,
    ready: VecDeque<usize>,
    index_resident: bool,
    txns_since_restore: u64,
    index_restorations: u64,
    arrivals: u64,
    completed: u64,
    all: Summary,
    dc: Summary,
    joins: Summary,
    histogram: Histogram,
    /// Commit-path scratch buffers, reused across transactions.
    granted_scratch: Vec<(TxnId, Resource)>,
    resumable_scratch: Vec<usize>,
}

impl<'a> Engine<'a> {
    fn new(config: &'a DbmsConfig) -> Self {
        assert!(config.processors > 0, "need at least one processor");
        assert!(config.tps > 0.0, "need a positive arrival rate");
        Engine {
            config,
            rng: Rng::seed_from(config.seed),
            now: Timestamp::ZERO,
            events: EventQueue::with_capacity(256),
            txns: Vec::new(),
            free_txns: Vec::new(),
            locks: LockManager::new(),
            busy_cpus: 0,
            ready: VecDeque::new(),
            index_resident: true,
            txns_since_restore: 0,
            index_restorations: 0,
            arrivals: 0,
            completed: 0,
            all: Summary::new(),
            dc: Summary::new(),
            joins: Summary::new(),
            histogram: Histogram::new(),
            granted_scratch: Vec::new(),
            resumable_scratch: Vec::new(),
        }
    }

    fn run(mut self) -> DbmsReport {
        self.events.schedule(Timestamp::ZERO, Ev::Arrive);
        while let Some((t, ev)) = self.events.next() {
            self.now = t;
            match ev {
                Ev::Arrive => self.on_arrive(),
                Ev::StallDone(i) => self.request_cpu(i),
                Ev::CpuDone(i) => self.on_cpu_done(i),
            }
            if self.completed >= self.config.txn_count {
                break;
            }
        }
        DbmsReport {
            strategy: self.config.strategy,
            all: self.all,
            debit_credit: self.dc,
            joins: self.joins,
            index_restorations: self.index_restorations,
            lock_contention: self.locks.contention_counts(),
            histogram: self.histogram,
        }
    }

    fn on_arrive(&mut self) {
        if self.arrivals < self.config.txn_count {
            self.arrivals += 1;
            let gap = self.rng.exponential(1e6 / self.config.tps);
            self.events
                .schedule_after(self.now, Micros::from_secs_f64(gap / 1e6), Ev::Arrive);
            let idx = self.spawn_txn();
            self.try_locks(idx);
        }
    }

    fn spawn_txn(&mut self) -> usize {
        let is_join = self.rng.chance(self.config.join_fraction);
        let cfg = self.config;
        let (kind, mut locks) = if is_join {
            let result_page = self.rng.below(cfg.results_pages);
            (
                Kind::Join,
                [
                    (Resource::Database, LockMode::IntentShared),
                    (Resource::Relation(ACCOUNTS), LockMode::Shared),
                    (Resource::Relation(DETAIL), LockMode::Shared),
                    (Resource::Relation(RESULTS), LockMode::IntentExclusive),
                    (Resource::Page(RESULTS, result_page), LockMode::Exclusive),
                ],
            )
        } else {
            let account_page = self.rng.below(cfg.accounts_pages);
            let branch_page = self.rng.below(cfg.branch_pages);
            (
                Kind::DebitCredit,
                [
                    (Resource::Database, LockMode::IntentExclusive),
                    (Resource::Relation(ACCOUNTS), LockMode::IntentExclusive),
                    (Resource::Relation(BRANCHES), LockMode::IntentExclusive),
                    (Resource::Page(ACCOUNTS, account_page), LockMode::Exclusive),
                    (Resource::Page(BRANCHES, branch_page), LockMode::Exclusive),
                ],
            )
        };
        // Global acquisition order prevents deadlock.
        locks.sort_by_key(|&(r, _)| r);
        let txn = Txn {
            arrival: self.now,
            kind,
            locks,
            next_lock: 0,
            stall: Micros::ZERO,
            burst: Micros::ZERO,
            // This is arrival number `arrivals - 1`, counting from zero.
            counted: self.arrivals > self.config.warmup,
        };
        match self.free_txns.pop() {
            Some(idx) => {
                debug_assert!(self.locks.held(TxnId(idx as u64)).is_empty());
                self.txns[idx] = txn;
                idx
            }
            None => {
                self.txns.push(txn);
                self.txns.len() - 1
            }
        }
    }

    /// Acquires locks in order until blocked or done; on done, decides the
    /// execution plan (stall/burst) and proceeds.
    fn try_locks(&mut self, i: usize) {
        loop {
            let (resource, mode) = {
                let txn = &self.txns[i];
                match txn.locks.get(txn.next_lock) {
                    Some(&rm) => rm,
                    None => break,
                }
            };
            match self.locks.acquire(TxnId(i as u64), resource, mode) {
                Acquire::Granted => self.txns[i].next_lock += 1,
                Acquire::Waiting => return,
            }
        }
        self.plan(i);
    }

    /// All locks held: decide service demand, then stall or go to CPU.
    fn plan(&mut self, i: usize) {
        let cfg = self.config;
        let (stall, burst) = match self.txns[i].kind {
            Kind::DebitCredit => (Micros::ZERO, cfg.dc_service),
            Kind::Join => match cfg.strategy {
                IndexStrategy::NoIndex => (Micros::ZERO, cfg.join_scan_service),
                IndexStrategy::InMemory => (Micros::ZERO, cfg.join_index_service),
                IndexStrategy::Paging => {
                    if self.index_resident {
                        (Micros::ZERO, cfg.join_index_service)
                    } else {
                        // Transparent paging: the join stalls for the
                        // page-in, off-CPU, with all its locks held.
                        self.index_resident = true;
                        self.index_restorations += 1;
                        (cfg.fault_delay * cfg.index_pages, cfg.join_index_service)
                    }
                }
                IndexStrategy::Regeneration => {
                    if self.index_resident {
                        (Micros::ZERO, cfg.join_index_service)
                    } else {
                        // Application-controlled: regenerate on-CPU, no I/O.
                        self.index_resident = true;
                        self.index_restorations += 1;
                        (Micros::ZERO, cfg.regen_service + cfg.join_index_service)
                    }
                }
            },
        };
        let txn = &mut self.txns[i];
        txn.stall = stall;
        txn.burst = burst;
        if stall > Micros::ZERO {
            self.events
                .schedule_after(self.now, stall, Ev::StallDone(i));
        } else {
            self.request_cpu(i);
        }
    }

    fn request_cpu(&mut self, i: usize) {
        if self.busy_cpus < self.config.processors {
            self.busy_cpus += 1;
            let burst = self.txns[i].burst;
            self.events.schedule_after(self.now, burst, Ev::CpuDone(i));
        } else {
            self.ready.push_back(i);
        }
    }

    fn on_cpu_done(&mut self, i: usize) {
        self.busy_cpus -= 1;
        self.completed += 1;
        // Commit: record response, release locks, resume waiters.
        let response = self.now.duration_since(self.txns[i].arrival);
        if self.txns[i].counted {
            self.all.record(response);
            self.histogram.record(response);
            match self.txns[i].kind {
                Kind::DebitCredit => self.dc.record(response),
                Kind::Join => self.joins.record(response),
            }
        }
        // Index aging: after `page_out_interval` commits, the 1 MB
        // deficit claims the (idle-again) index.
        if !matches!(
            self.config.strategy,
            IndexStrategy::NoIndex | IndexStrategy::InMemory
        ) {
            self.txns_since_restore += 1;
            if self.txns_since_restore >= self.config.page_out_interval {
                self.txns_since_restore = 0;
                self.index_resident = false;
            }
        }
        let mut granted = std::mem::take(&mut self.granted_scratch);
        granted.clear();
        self.locks.release_all_into(TxnId(i as u64), &mut granted);
        let mut resumable = std::mem::take(&mut self.resumable_scratch);
        resumable.clear();
        for &(txn, resource) in &granted {
            let j = txn.0 as usize;
            let t = &mut self.txns[j];
            debug_assert_eq!(t.locks[t.next_lock].0, resource);
            t.next_lock += 1;
            resumable.push(j);
        }
        self.granted_scratch = granted;
        for &j in &resumable {
            self.try_locks(j);
        }
        self.resumable_scratch = resumable;
        if let Some(next) = self.ready.pop_front() {
            self.busy_cpus += 1;
            let burst = self.txns[next].burst;
            self.events
                .schedule_after(self.now, burst, Ev::CpuDone(next));
        }
        self.free_txns.push(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_to_completion_and_is_deterministic() {
        let cfg = DbmsConfig::quick(IndexStrategy::InMemory);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b);
        assert_eq!(
            a.all.count(),
            cfg.txn_count - cfg.warmup,
            "every post-warmup transaction measured"
        );
    }

    /// Different seeds change the stochastic results (the determinism is
    /// seed-parameterised, not hard-coded), but not the coarse physics.
    #[test]
    fn seeds_matter() {
        let mut a_cfg = DbmsConfig::quick(IndexStrategy::InMemory);
        let mut b_cfg = a_cfg.clone();
        a_cfg.seed = 1;
        b_cfg.seed = 2;
        let a = run(&a_cfg);
        let b = run(&b_cfg);
        assert_ne!(a.all, b.all, "different seeds must perturb responses");
        let ratio = a.average_ms() / b.average_ms();
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mix_is_95_to_5() {
        let cfg = DbmsConfig::quick(IndexStrategy::InMemory);
        let r = run(&cfg);
        let join_frac = r.joins.count() as f64 / r.all.count() as f64;
        assert!((join_frac - 0.05).abs() < 0.02, "join fraction {join_frac}");
    }

    #[test]
    fn index_in_memory_beats_no_index() {
        let fast = run(&DbmsConfig::quick(IndexStrategy::InMemory));
        let slow = run(&DbmsConfig::quick(IndexStrategy::NoIndex));
        assert!(slow.average_ms() > 5.0 * fast.average_ms());
    }

    #[test]
    fn regeneration_restores_index_without_io_stalls() {
        let cfg = DbmsConfig::quick(IndexStrategy::Regeneration);
        let r = run(&cfg);
        assert!(r.index_restorations >= 2);
        // Regeneration keeps responses within the same order of magnitude
        // as the always-resident case.
        let baseline = run(&DbmsConfig::quick(IndexStrategy::InMemory));
        assert!(r.average_ms() < 3.0 * baseline.average_ms());
    }

    #[test]
    fn paging_is_order_of_magnitude_worse_than_regeneration() {
        let paging = run(&DbmsConfig::quick(IndexStrategy::Paging));
        let regen = run(&DbmsConfig::quick(IndexStrategy::Regeneration));
        assert!(
            paging.average_ms() > 5.0 * regen.average_ms(),
            "paging {} vs regen {}",
            paging.average_ms(),
            regen.average_ms()
        );
        assert!(paging.index_restorations >= 2);
    }

    #[test]
    fn debit_credits_are_hurt_by_lock_holding_page_ins() {
        // The paper's central claim: the fault cost is multiplied across
        // the transactions blocked on the faulting join's locks.
        let paging = run(&DbmsConfig::quick(IndexStrategy::Paging));
        let in_mem = run(&DbmsConfig::quick(IndexStrategy::InMemory));
        assert!(
            paging.debit_credit.mean() > in_mem.debit_credit.mean() * 5,
            "DC responses: paging {} vs in-memory {}",
            paging.debit_credit.mean(),
            in_mem.debit_credit.mean()
        );
    }
}

#[cfg(test)]
mod table4_tests {
    use super::*;

    /// Table 4 reproduces in shape: each average within 25% of the paper
    /// (worst-case columns are tail statistics and inherently noisier —
    /// checked at 35%), and the qualitative relations the paper draws
    /// hold exactly.
    ///
    /// Runs at full paper scale (4 × ~30 000 transactions). That is
    /// sub-second in release builds — CI runs it in the dedicated
    /// `table4-full` job — but tens of seconds in debug, so debug builds
    /// skip it rather than drag down `cargo test`.
    #[test]
    fn table4_reproduces() {
        if cfg!(debug_assertions) {
            eprintln!(
                "table4_reproduces: skipped in debug builds; \
                 run `cargo test --release -p epcm-dbms table4_reproduces`"
            );
            return;
        }
        let paper = [
            (IndexStrategy::NoIndex, 866.0, 3770.0),
            (IndexStrategy::InMemory, 43.0, 410.0),
            (IndexStrategy::Paging, 575.0, 3930.0),
            (IndexStrategy::Regeneration, 55.0, 680.0),
        ];
        // The four configurations are independent simulations; fan them
        // across threads and join in declared order, exactly the
        // discipline the bench harness's ScenarioPool uses.
        let results: Vec<DbmsReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = paper
                .iter()
                .map(|&(s, _, _)| scope.spawn(move || run(&DbmsConfig::paper(s))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("table 4 run panicked"))
                .collect()
        });
        for (r, &(s, avg, worst)) in results.iter().zip(&paper) {
            assert!(
                (r.average_ms() - avg).abs() / avg < 0.25,
                "{}: avg {:.0} vs paper {avg}",
                s.label(),
                r.average_ms()
            );
            assert!(
                (r.worst_ms() - worst).abs() / worst < 0.35,
                "{}: worst {:.0} vs paper {worst}",
                s.label(),
                r.worst_ms()
            );
        }
        let (no_index, in_mem, paging, regen) =
            (&results[0], &results[1], &results[2], &results[3]);
        // "indices are of significant benefit ... if the memory is available"
        assert!(no_index.average_ms() > 10.0 * in_mem.average_ms());
        // "of limited benefit if ... there is a modest amount of paging"
        assert!(paging.average_ms() > 0.5 * no_index.average_ms());
        // "an order of magnitude less than the paging case"
        assert!(paging.average_ms() > 10.0 * regen.average_ms());
        // "only 27% worse than the index-in-memory case" (we allow 35%)
        assert!(regen.average_ms() < 1.35 * in_mem.average_ms());
    }
}

#[cfg(test)]
mod distribution_tests {
    use super::*;

    #[test]
    fn histogram_matches_summary_count_and_quantiles_order() {
        let r = run(&DbmsConfig::quick(IndexStrategy::InMemory));
        assert_eq!(r.histogram.count(), r.all.count());
        let p50 = r.quantile_ms(0.5);
        let p99 = r.quantile_ms(0.99);
        assert!(p50 <= p99);
        assert!(
            p99 <= r.worst_ms() * 2.0 + 1.0,
            "p99 {p99} vs worst {}",
            r.worst_ms()
        );
    }

    #[test]
    fn paging_fattens_the_tail_more_than_the_median() {
        let in_mem = run(&DbmsConfig::quick(IndexStrategy::InMemory));
        let paging = run(&DbmsConfig::quick(IndexStrategy::Paging));
        let median_ratio = paging.quantile_ms(0.5) / in_mem.quantile_ms(0.5).max(0.1);
        let p99_ratio = paging.quantile_ms(0.99) / in_mem.quantile_ms(0.99).max(0.1);
        assert!(
            p99_ratio > median_ratio,
            "paging is a tail phenomenon: p99 x{p99_ratio:.1} vs median x{median_ratio:.1}"
        );
    }
}
