//! Property-based tests for the DBMS substrate: lock-manager safety under
//! random schedules (DESIGN.md invariant 7), the lock manager against a
//! reference model, hash-index correctness against a model, and
//! DebitCredit balance conservation through the real lock manager.

use std::collections::{BTreeMap, HashMap, VecDeque};

use epcm::dbms::index::HashIndex;
use epcm::dbms::lock::{Acquire, LockManager, LockMode, Resource, TxnId};
use epcm::managers::Machine;
use proptest::prelude::*;

/// Reference model of [`LockManager`]: the straightforward map-of-states
/// implementation (a `HashMap` of lock states, each with a list of every
/// `(transaction, mode)` hold, created and dropped per resource, and a
/// `BTreeMap` of held lists created and dropped per transaction), with
/// the same FIFO queueing and compatible-prefix grants.
#[derive(Default)]
struct ModelLockManager {
    locks: HashMap<Resource, ModelState>,
    held_by: BTreeMap<TxnId, Vec<(Resource, LockMode)>>,
    grants: u64,
    waits: u64,
}

#[derive(Default)]
struct ModelState {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<(TxnId, LockMode)>,
}

impl ModelState {
    fn compatible_with_holders(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(h, m)| h == txn || m.compatible(mode))
    }
}

impl ModelLockManager {
    fn contention_counts(&self) -> (u64, u64) {
        (self.grants, self.waits)
    }

    fn held(&self, txn: TxnId) -> &[(Resource, LockMode)] {
        self.held_by.get(&txn).map_or(&[], |v| v.as_slice())
    }

    fn acquire(&mut self, txn: TxnId, resource: Resource, mode: LockMode) -> Acquire {
        let state = self.locks.entry(resource).or_default();
        if state.holders.iter().any(|&(h, _)| h == txn) {
            return Acquire::Granted;
        }
        if state.queue.is_empty() && state.compatible_with_holders(txn, mode) {
            state.holders.push((txn, mode));
            self.held_by.entry(txn).or_default().push((resource, mode));
            self.grants += 1;
            Acquire::Granted
        } else {
            state.queue.push_back((txn, mode));
            self.waits += 1;
            Acquire::Waiting
        }
    }

    fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, Resource)> {
        let mut granted = Vec::new();
        for (resource, _) in self.held_by.remove(&txn).unwrap_or_default() {
            // A transaction queued twice for one resource can hold it
            // twice: the first entry releases both, and the state may
            // already be gone at the second.
            let Some(state) = self.locks.get_mut(&resource) else {
                continue;
            };
            state.holders.retain(|&(h, _)| h != txn);
            while let Some(&(waiter, mode)) = state.queue.front() {
                if !state.compatible_with_holders(waiter, mode) {
                    break;
                }
                state.queue.pop_front();
                state.holders.push((waiter, mode));
                self.held_by
                    .entry(waiter)
                    .or_default()
                    .push((resource, mode));
                granted.push((waiter, resource));
            }
            if state.holders.is_empty() && state.queue.is_empty() {
                self.locks.remove(&resource);
            }
        }
        granted
    }
}

/// Releases `t` in both managers, checks that they grant the same
/// waiters in the same order, and takes each grant off its waiter's
/// queued requests; a waiter with none left is runnable.
fn release_both(
    lm: &mut LockManager,
    model: &mut ModelLockManager,
    blocked: &mut BTreeMap<TxnId, Vec<Resource>>,
    t: TxnId,
) {
    let granted = lm.release_all(t);
    assert_eq!(granted, model.release_all(t));
    for (w, resource) in granted {
        let queued = blocked
            .get_mut(&w)
            .unwrap_or_else(|| panic!("{w} granted without waiting"));
        let at = queued
            .iter()
            .position(|&r| r == resource)
            .unwrap_or_else(|| panic!("{w} granted {resource:?} it never queued for"));
        queued.remove(at);
        if queued.is_empty() {
            blocked.remove(&w);
        }
    }
}

/// Requests `mode` on `resource` for `t` in both managers, checks that
/// they answer alike, and records a queued request as one `t` waits on.
fn acquire_both(
    lm: &mut LockManager,
    model: &mut ModelLockManager,
    blocked: &mut BTreeMap<TxnId, Vec<Resource>>,
    t: TxnId,
    resource: Resource,
    mode: LockMode,
) -> Acquire {
    let got = lm.acquire(t, resource, mode);
    assert_eq!(got, model.acquire(t, resource, mode));
    if got == Acquire::Waiting {
        blocked.entry(t).or_default().push(resource);
    }
    got
}

/// A waiting transaction `t` queues a second request on the resource it
/// already waits for, then that resource's runnable holders release,
/// lowest id first, until both requests are granted or no runnable
/// holder is left. If one release grants the first request but not the
/// second, `t` takes `other` before the next, so its held list names the
/// resource twice with another grant between the two holds — the list
/// whose release order the lock manager's `repeats` flag keeps. The
/// caller asks for the second hold in X, which conflicts with every
/// other holder, so the two grants come apart whenever another
/// transaction still holds the resource.
fn queue_twice_then_release(
    lm: &mut LockManager,
    model: &mut ModelLockManager,
    blocked: &mut BTreeMap<TxnId, Vec<Resource>>,
    t: TxnId,
    (resource, mode): (Resource, LockMode),
    (other, other_mode): (Resource, LockMode),
) {
    acquire_both(lm, model, blocked, t, resource, mode);
    let queued = |blocked: &BTreeMap<TxnId, Vec<Resource>>| {
        blocked
            .get(&t)
            .map_or(0, |q| q.iter().filter(|&&r| r == resource).count())
    };
    let mut took_other = false;
    while queued(blocked) > 0 {
        if queued(blocked) == 1 && !took_other && model.held(t).iter().any(|&(r, _)| r == resource)
        {
            took_other = true;
            acquire_both(lm, model, blocked, t, other, other_mode);
        }
        let holder = (0..TXNS).map(TxnId).find(|&h| {
            h != t && !blocked.contains_key(&h) && model.held(h).iter().any(|&(r, _)| r == resource)
        });
        let Some(holder) = holder else {
            break;
        };
        release_both(lm, model, blocked, holder);
    }
}

const TXNS: u64 = 40;

const MODES: [LockMode; 5] = [
    LockMode::IntentShared,
    LockMode::IntentExclusive,
    LockMode::Shared,
    LockMode::SharedIntentExclusive,
    LockMode::Exclusive,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 7: no two holders of a resource ever conflict, under
    /// arbitrary acquire/complete schedules; a transaction that finishes
    /// releases everything; waiters are eventually granted.
    #[test]
    fn lock_schedules_are_safe(
        script in proptest::collection::vec((0u8..5, 0u8..5, 0u8..2, any::<bool>()), 1..200),
    ) {
        let modes = MODES;
        let mut lm = LockManager::new();
        let mut next_txn = 0u64;
        // Transactions that are runnable (hold everything they asked for).
        let mut runnable: Vec<TxnId> = Vec::new();
        let mut blocked: std::collections::BTreeSet<TxnId> = Default::default();
        for (mode_i, res_i, level, finish) in script {
            if finish && !runnable.is_empty() {
                let t = runnable.remove(res_i as usize % runnable.len());
                for (granted, _) in lm.release_all(t) {
                    if blocked.remove(&granted) {
                        runnable.push(granted);
                    }
                }
            } else {
                let t = TxnId(next_txn);
                next_txn += 1;
                let resource = match level {
                    0 => Resource::Database,
                    _ => Resource::Relation(res_i as u32),
                };
                match lm.acquire(t, resource, modes[mode_i as usize]) {
                    Acquire::Granted => runnable.push(t),
                    Acquire::Waiting => {
                        blocked.insert(t);
                    }
                }
            }
            lm.assert_consistent();
        }
        // Drain: completing every runnable transaction must eventually
        // unblock every waiter (no lost wakeups).
        let mut fuel = 10_000;
        while let Some(t) = runnable.pop() {
            fuel -= 1;
            prop_assert!(fuel > 0, "drain did not terminate");
            for (granted, _) in lm.release_all(t) {
                if blocked.remove(&granted) {
                    runnable.push(granted);
                }
            }
            lm.assert_consistent();
        }
        prop_assert!(blocked.is_empty(), "waiters never granted: {blocked:?}");
    }

    /// The lock manager agrees with the reference model call for call:
    /// every `acquire` result, every `release_all` grant list in order,
    /// `held()` of every transaction and `contention_counts()`. Each case
    /// opens with a crowd of 8 to 32 transactions taking IS or IX on the
    /// database, so holder counts run long; the script then mixes
    /// database, relation and page resources over three relations (the
    /// database mostly in IS and IX), re-acquires held resources, has
    /// waiting transactions queue a second request (on the resource they
    /// wait for, then released until both are granted: see
    /// [`queue_twice_then_release`]), and reuses a `TxnId` after its
    /// `release_all`. Only runnable transactions (no queued request)
    /// release.
    #[test]
    fn lock_manager_matches_reference_model(
        crowd in proptest::collection::vec(any::<bool>(), 8..33),
        script in proptest::collection::vec(
            (0u8..10, 0u64..40, 0usize..17, 0u8..3, 0u32..3, 0u64..4),
            1..300,
        ),
    ) {
        // Database requests draw IS or IX 14 times in 17, else S, SIX or
        // X; other resources draw all five modes.
        let mode_of = |resource: Resource, i: usize| match resource {
            Resource::Database if i < 14 => MODES[i % 2],
            Resource::Database => MODES[2 + (i - 14)],
            _ => MODES[i % 5],
        };
        let mut lm = LockManager::new();
        let mut model = ModelLockManager::default();
        // Each waiting transaction's queued requests, in queue order.
        let mut blocked: BTreeMap<TxnId, Vec<Resource>> = BTreeMap::new();
        for (id, &exclusive) in crowd.iter().enumerate() {
            let (t, mode) = (TxnId(id as u64), MODES[usize::from(exclusive)]);
            prop_assert_eq!(lm.acquire(t, Resource::Database, mode), Acquire::Granted);
            prop_assert_eq!(model.acquire(t, Resource::Database, mode), Acquire::Granted);
        }
        lm.assert_consistent();
        for (op, txn, mode, level, rel, page) in script {
            let t = TxnId(txn);
            let waiting = blocked.contains_key(&t);
            let resource = match level {
                0 => Resource::Database,
                1 => Resource::Relation(rel),
                _ => Resource::Page(rel, page),
            };
            match op {
                // A waiting transaction's second request: op 0 may queue
                // it behind its first on any resource; op 1 queues it on
                // the resource the transaction already waits for and
                // releases that resource's holders.
                1 if waiting => {
                    let wanted = blocked[&t][0];
                    queue_twice_then_release(
                        &mut lm,
                        &mut model,
                        &mut blocked,
                        t,
                        (wanted, LockMode::Exclusive),
                        (resource, mode_of(resource, mode)),
                    );
                }
                0..=5 if waiting && op > 0 => continue,
                0..=5 => {
                    let mode = mode_of(resource, mode);
                    acquire_both(&mut lm, &mut model, &mut blocked, t, resource, mode);
                }
                _ if waiting => continue,
                6 => {
                    let held = model.held(t);
                    if held.is_empty() {
                        continue;
                    }
                    let resource = held[page as usize % held.len()].0;
                    let mode = mode_of(resource, mode);
                    let got = lm.acquire(t, resource, mode);
                    prop_assert_eq!(got, Acquire::Granted);
                    prop_assert_eq!(got, model.acquire(t, resource, mode));
                }
                _ => release_both(&mut lm, &mut model, &mut blocked, t),
            }
            for id in 0..TXNS {
                prop_assert_eq!(lm.held(TxnId(id)), model.held(TxnId(id)));
            }
            prop_assert_eq!(lm.contention_counts(), model.contention_counts());
            lm.assert_consistent();
        }
        // Drain: release runnable transactions until no release grants
        // anything more. (Scripts take locks in no global order, so
        // waiters may be deadlocked; both managers must agree on that.)
        loop {
            let waiting = blocked.len();
            for id in 0..TXNS {
                let t = TxnId(id);
                if !blocked.contains_key(&t) {
                    release_both(&mut lm, &mut model, &mut blocked, t);
                }
            }
            if blocked.len() == waiting {
                break;
            }
        }
        for id in 0..TXNS {
            prop_assert_eq!(lm.held(TxnId(id)), model.held(TxnId(id)));
        }
        prop_assert_eq!(lm.contention_counts(), model.contention_counts());
        lm.assert_consistent();
    }

    /// The hash index agrees with a model map for arbitrary key sets,
    /// both before and after discard + regenerate.
    #[test]
    fn index_matches_model(keys in proptest::collection::btree_set(any::<u32>(), 1..200)) {
        let records: Vec<(u32, u32)> = keys.iter().enumerate()
            .map(|(i, &k)| (k, i as u32)).collect();
        let mut machine = Machine::with_default_manager(2048);
        let mut index = HashIndex::build(&mut machine, &records, 8).expect("build");
        for &(k, rid) in &records {
            prop_assert_eq!(index.probe(&mut machine, k).expect("probe"), Some(rid));
        }
        // A key not present maps to None.
        if let Some(absent) = (0..50u32).map(|i| i.wrapping_mul(97)).find(|k| !keys.contains(k)) {
            prop_assert_eq!(index.probe(&mut machine, absent).expect("probe"), None);
        }
        index.discard(&mut machine).expect("discard");
        index.regenerate(&mut machine, &records).expect("regenerate");
        for &(k, rid) in records.iter().step_by(7) {
            prop_assert_eq!(index.probe(&mut machine, k).expect("probe"), Some(rid));
        }
    }
}

/// Balance conservation: serialisable DebitCredit histories through the
/// real lock manager never lose money. (Transactions transfer between a
/// branch total and an account; the lock manager serialises conflicting
/// pairs, and the final sum is invariant.)
#[test]
fn debit_credit_conserves_balance() {
    use epcm::sim::rng::Rng;
    let mut rng = Rng::seed_from(2024);
    let mut lm = LockManager::new();
    let accounts = 8u64;
    let mut balances = vec![1_000i64; accounts as usize];
    let mut branch_total: i64 = balances.iter().sum();
    let initial = branch_total;

    // Simulated concurrency: a pool of in-flight transactions; each must
    // hold its locks before its read-modify-write applies.
    #[derive(Debug)]
    struct Dc {
        txn: TxnId,
        account: u64,
        amount: i64,
        holds: bool,
    }
    let mut in_flight: Vec<Dc> = Vec::new();
    let mut next = 0u64;
    for _ in 0..2000 {
        if in_flight.len() < 6 && rng.chance(0.6) {
            let txn = TxnId(next);
            next += 1;
            let account = rng.below(accounts);
            let amount = rng.range(1, 100) as i64 - 50;
            let granted = lm.acquire(txn, Resource::Relation(1), LockMode::IntentExclusive)
                == Acquire::Granted
                && lm.acquire(txn, Resource::Page(1, account), LockMode::Exclusive)
                    == Acquire::Granted
                && lm.acquire(txn, Resource::Page(2, 0), LockMode::Exclusive) == Acquire::Granted;
            in_flight.push(Dc {
                txn,
                account,
                amount,
                holds: granted,
            });
        } else if !in_flight.is_empty() {
            let idx = rng.index(in_flight.len());
            let dc = in_flight.swap_remove(idx);
            if dc.holds {
                // Apply the transfer only while holding both X locks.
                balances[dc.account as usize] -= dc.amount;
                branch_total -= dc.amount;
                branch_total += dc.amount;
                balances[dc.account as usize] += dc.amount;
            }
            let granted = lm.release_all(dc.txn);
            for (t, _) in granted {
                if let Some(w) = in_flight.iter_mut().find(|d| d.txn == t) {
                    // A waiter resumed; for this test it simply holds now
                    // if all three of its locks are held.
                    w.holds = lm.held(t).len() >= 3;
                }
            }
            lm.assert_consistent();
        }
    }
    assert_eq!(balances.iter().sum::<i64>(), initial);
    assert_eq!(branch_total, initial);
}
