//! Regenerates Table 4 (printed before timing, at reduced scale for
//! speed; run the `reproduce` binary for paper scale) and benchmarks the
//! transaction engine and lock manager.

use std::cell::{Cell, RefCell};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use epcm_dbms::config::{DbmsConfig, IndexStrategy};
use epcm_dbms::engine::run;
use epcm_dbms::lock::{Acquire, LockManager, LockMode, Resource, TxnId};

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        epcm_bench::table4::render(&epcm_bench::table4::quick_results())
    );
    println!("(reduced txn count; `cargo run -p epcm-bench --bin reproduce --release -- --table 4` runs paper scale)");

    for strategy in IndexStrategy::all() {
        c.bench_function(
            &format!("dbms_{}", strategy.label().replace(' ', "_")),
            |b| {
                let mut cfg = DbmsConfig::quick(strategy);
                cfg.txn_count = 500;
                cfg.warmup = 50;
                b.iter(|| run(&cfg));
            },
        );
    }

    c.bench_function("lock_acquire_release_cycle", |b| {
        let mut lm = LockManager::new();
        let mut t = 0u64;
        b.iter(|| {
            let txn = TxnId(t);
            t += 1;
            lm.acquire(txn, Resource::Database, LockMode::IntentExclusive);
            lm.acquire(txn, Resource::Relation(1), LockMode::IntentExclusive);
            lm.acquire(txn, Resource::Page(1, t % 1024), LockMode::Exclusive);
            lm.release_all(txn);
        });
    });

    // The same cycle behind 32 transactions that hold IX on the database
    // and on the relation: a lock's cost must not grow with its holders.
    c.bench_function("lock_cycle_behind_32_ix_holders", |b| {
        let mut lm = LockManager::new();
        for t in 0..32 {
            lm.acquire(TxnId(t), Resource::Database, LockMode::IntentExclusive);
            lm.acquire(TxnId(t), Resource::Relation(1), LockMode::IntentExclusive);
        }
        let mut t = 32u64;
        b.iter(|| {
            let txn = TxnId(t);
            t += 1;
            lm.acquire(txn, Resource::Database, LockMode::IntentExclusive);
            lm.acquire(txn, Resource::Relation(1), LockMode::IntentExclusive);
            lm.acquire(txn, Resource::Page(1, t % 1024), LockMode::Exclusive);
            lm.release_all(txn);
        });
    });

    // The grant path: a waiter queued behind an X holder, granted by the
    // holder's `release_all_into`. Only the release is timed; the granted
    // waiter becomes the holder the next waiter queues behind.
    c.bench_function("lock_contended_grant", |b| {
        let page = Resource::Page(1, 0);
        let lm = RefCell::new(LockManager::new());
        lm.borrow_mut().acquire(TxnId(0), page, LockMode::Exclusive);
        let holder = Cell::new(TxnId(0));
        let granted = RefCell::new(Vec::new());
        b.iter_batched(
            || {
                let waiter = TxnId(holder.get().0 + 1);
                let queued = lm.borrow_mut().acquire(waiter, page, LockMode::Exclusive);
                assert_eq!(queued, Acquire::Waiting);
            },
            |()| {
                let mut granted = granted.borrow_mut();
                granted.clear();
                lm.borrow_mut().release_all_into(holder.get(), &mut granted);
                holder.set(granted[0].0);
            },
            BatchSize::PerIteration,
        );
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
