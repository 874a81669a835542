//! A hierarchical lock manager (Gray-style granular locking).
//!
//! §3.3: "A hierarchical locking scheme is used for concurrency control.
//! The locks were implemented and the parallelism is real." This module is
//! the real implementation: database → relation → page granularity,
//! intent modes, the standard compatibility matrix, FIFO-fair queueing
//! (with compatible-prefix batching so concurrent readers share), and
//! all-at-release grant propagation for the discrete-event engine.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Lock modes of granular locking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intent shared: will take S locks below.
    IntentShared,
    /// Intent exclusive: will take X locks below.
    IntentExclusive,
    /// Shared: read the whole subtree.
    Shared,
    /// Shared + intent exclusive.
    SharedIntentExclusive,
    /// Exclusive: write the whole subtree.
    Exclusive,
}

impl LockMode {
    /// The standard granular-locking compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IntentShared, IntentShared)
                | (IntentShared, IntentExclusive)
                | (IntentShared, Shared)
                | (IntentShared, SharedIntentExclusive)
                | (IntentExclusive, IntentShared)
                | (IntentExclusive, IntentExclusive)
                | (Shared, IntentShared)
                | (Shared, Shared)
                | (SharedIntentExclusive, IntentShared)
        )
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockMode::IntentShared => "IS",
            LockMode::IntentExclusive => "IX",
            LockMode::Shared => "S",
            LockMode::SharedIntentExclusive => "SIX",
            LockMode::Exclusive => "X",
        };
        write!(f, "{s}")
    }
}

/// A lockable resource in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// The whole database.
    Database,
    /// One relation.
    Relation(u32),
    /// One page of a relation.
    Page(u32, u64),
}

impl Resource {
    /// The parent resource in the hierarchy (None for the root).
    pub fn parent(self) -> Option<Resource> {
        match self {
            Resource::Database => None,
            Resource::Relation(_) => Some(Resource::Database),
            Resource::Page(r, _) => Some(Resource::Relation(r)),
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Database => write!(f, "db"),
            Resource::Relation(r) => write!(f, "rel#{r}"),
            Resource::Page(r, p) => write!(f, "rel#{r}:page{p}"),
        }
    }
}

/// A transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Result of an acquire call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// Lock granted immediately.
    Granted,
    /// Enqueued; the caller will be told via the grant list returned by a
    /// later [`LockManager::release_all`].
    Waiting,
}

#[derive(Debug, Default)]
struct LockState {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<(TxnId, LockMode)>,
}

impl LockState {
    fn compatible_with_holders(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(h, m)| h == txn || m.compatible(mode))
    }
}

/// A multiply-xor hasher for the lock tables' small integer keys: one
/// multiply per word written, instead of SipHash's rounds. The keys are
/// the engine's own resources and transaction ids, not outside input, so
/// SipHash's resistance to crafted collisions buys nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// Derived `Hash` writes an enum's discriminant as an `isize`.
    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Appends `resource` to `txn`'s held list, taking a recycled list for a
/// transaction that holds nothing yet.
fn note_held(
    held_by: &mut KeyMap<TxnId, Vec<Resource>>,
    spare: &mut Vec<Vec<Resource>>,
    txn: TxnId,
    resource: Resource,
) {
    held_by
        .entry(txn)
        .or_insert_with(|| spare.pop().unwrap_or_default())
        .push(resource);
}

/// The lock manager.
///
/// Lock states live in a slab: `slots` maps a resource to its index in
/// `states`, and a page's state that falls idle returns its index to
/// `free_states` with its buffers intact, so the next page lock reuses
/// them. Per-transaction held lists are recycled through `spare_held`
/// the same way. Nothing iterates a hash map to take a decision, so
/// grant order depends only on the call sequence.
///
/// # Example
///
/// ```
/// use epcm_dbms::lock::{Acquire, LockManager, LockMode, Resource, TxnId};
///
/// let mut lm = LockManager::new();
/// let (a, b) = (TxnId(1), TxnId(2));
/// assert_eq!(lm.acquire(a, Resource::Database, LockMode::IntentShared), Acquire::Granted);
/// assert_eq!(lm.acquire(b, Resource::Database, LockMode::IntentExclusive), Acquire::Granted);
/// // Relation-level S vs IX conflict:
/// assert_eq!(lm.acquire(a, Resource::Relation(0), LockMode::Shared), Acquire::Granted);
/// assert_eq!(lm.acquire(b, Resource::Relation(0), LockMode::IntentExclusive), Acquire::Waiting);
/// let granted = lm.release_all(a);
/// assert_eq!(granted, vec![(b, Resource::Relation(0))]);
/// ```
#[derive(Debug, Default)]
pub struct LockManager {
    slots: KeyMap<Resource, usize>,
    states: Vec<LockState>,
    free_states: Vec<usize>,
    held_by: KeyMap<TxnId, Vec<Resource>>,
    spare_held: Vec<Vec<Resource>>,
    grants: u64,
    waits: u64,
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// `(immediate grants, waits)` counters.
    pub fn contention_counts(&self) -> (u64, u64) {
        (self.grants, self.waits)
    }

    /// Resources currently held by `txn`.
    pub fn held(&self, txn: TxnId) -> &[Resource] {
        self.held_by.get(&txn).map_or(&[], |v| v.as_slice())
    }

    /// Requests `mode` on `resource` for `txn`.
    ///
    /// Re-acquiring a resource the transaction already holds returns
    /// `Granted` without strengthening the mode (transactions in this
    /// engine acquire their strongest mode first, so upgrades never
    /// arise).
    ///
    /// FIFO fairness: a request joins the queue if anyone is already
    /// waiting, even if it is compatible with the current holders — this
    /// prevents reader streams from starving writers.
    pub fn acquire(&mut self, txn: TxnId, resource: Resource, mode: LockMode) -> Acquire {
        let slot = *self.slots.entry(resource).or_insert_with(|| {
            self.free_states.pop().unwrap_or_else(|| {
                self.states.push(LockState::default());
                self.states.len() - 1
            })
        });
        let state = &mut self.states[slot];
        if state.holders.iter().any(|&(h, _)| h == txn) {
            return Acquire::Granted;
        }
        if state.queue.is_empty() && state.compatible_with_holders(txn, mode) {
            state.holders.push((txn, mode));
            note_held(&mut self.held_by, &mut self.spare_held, txn, resource);
            self.grants += 1;
            Acquire::Granted
        } else {
            state.queue.push_back((txn, mode));
            self.waits += 1;
            Acquire::Waiting
        }
    }

    /// Releases every lock held by `txn` (strict two-phase commit point),
    /// granting queued requests. Returns newly granted `(txn, resource)`
    /// pairs in grant order so the engine can resume the waiters.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, Resource)> {
        let mut granted = Vec::new();
        self.release_all_into(txn, &mut granted);
        granted
    }

    /// [`LockManager::release_all`], appending grants into a caller-owned
    /// buffer — the engine reuses one buffer across commits instead of
    /// allocating a fresh vector per transaction.
    pub fn release_all_into(&mut self, txn: TxnId, granted: &mut Vec<(TxnId, Resource)>) {
        let Some(mut resources) = self.held_by.remove(&txn) else {
            return;
        };
        for &resource in &resources {
            let slot = self.slots[&resource];
            let state = &mut self.states[slot];
            state.holders.retain(|&(h, _)| h != txn);
            // Grant the maximal compatible prefix of the queue: strict
            // FIFO, but adjacent compatible requests (e.g. several S's)
            // are granted together.
            while let Some(&(waiter, mode)) = state.queue.front() {
                if state.compatible_with_holders(waiter, mode) {
                    state.queue.pop_front();
                    state.holders.push((waiter, mode));
                    note_held(&mut self.held_by, &mut self.spare_held, waiter, resource);
                    granted.push((waiter, resource));
                } else {
                    break;
                }
            }
            // A page's state is returned to the slab once idle. Database
            // and relation states are few and hot, and their queues grow
            // long, so they keep their slot and their buffers.
            let idle = state.holders.is_empty() && state.queue.is_empty();
            if idle && matches!(resource, Resource::Page(..)) {
                self.slots.remove(&resource);
                self.free_states.push(slot);
            }
        }
        resources.clear();
        self.spare_held.push(resources);
    }

    /// Debug invariant: no two holders of any resource conflict.
    pub fn assert_consistent(&self) {
        for (resource, &slot) in &self.slots {
            let state = &self.states[slot];
            for (i, &(t1, m1)) in state.holders.iter().enumerate() {
                for &(t2, m2) in &state.holders[i + 1..] {
                    assert!(
                        t1 == t2 || m1.compatible(m2),
                        "conflicting holders on {resource}: {t1}:{m1} vs {t2}:{m2}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    #[test]
    fn compatibility_matrix() {
        assert!(IntentShared.compatible(IntentExclusive));
        assert!(IntentExclusive.compatible(IntentExclusive));
        assert!(Shared.compatible(Shared));
        assert!(!Shared.compatible(IntentExclusive));
        assert!(!Shared.compatible(Exclusive));
        assert!(SharedIntentExclusive.compatible(IntentShared));
        assert!(!SharedIntentExclusive.compatible(SharedIntentExclusive));
        assert!(!Exclusive.compatible(IntentShared));
        assert!(!Exclusive.compatible(Exclusive));
    }

    #[test]
    fn intent_locks_share_relation_page_locks_conflict() {
        let mut lm = LockManager::new();
        let (a, b) = (TxnId(1), TxnId(2));
        assert_eq!(
            lm.acquire(a, Resource::Relation(0), IntentExclusive),
            Acquire::Granted
        );
        assert_eq!(
            lm.acquire(b, Resource::Relation(0), IntentExclusive),
            Acquire::Granted
        );
        assert_eq!(
            lm.acquire(a, Resource::Page(0, 7), Exclusive),
            Acquire::Granted
        );
        assert_eq!(
            lm.acquire(b, Resource::Page(0, 7), Exclusive),
            Acquire::Waiting
        );
        assert_eq!(
            lm.acquire(b, Resource::Page(0, 8), Exclusive),
            Acquire::Granted
        );
        lm.assert_consistent();
        let granted = lm.release_all(a);
        assert_eq!(granted, vec![(b, Resource::Page(0, 7))]);
    }

    #[test]
    fn reacquire_is_idempotent() {
        let mut lm = LockManager::new();
        let a = TxnId(1);
        assert_eq!(
            lm.acquire(a, Resource::Database, IntentShared),
            Acquire::Granted
        );
        assert_eq!(
            lm.acquire(a, Resource::Database, IntentShared),
            Acquire::Granted
        );
        assert_eq!(lm.held(a).len(), 1);
    }

    #[test]
    fn fifo_prevents_reader_starvation_of_writers() {
        let mut lm = LockManager::new();
        let (r1, w, r2) = (TxnId(1), TxnId(2), TxnId(3));
        let res = Resource::Relation(0);
        assert_eq!(lm.acquire(r1, res, Shared), Acquire::Granted);
        assert_eq!(lm.acquire(w, res, IntentExclusive), Acquire::Waiting);
        // A later reader must queue behind the waiting writer.
        assert_eq!(lm.acquire(r2, res, Shared), Acquire::Waiting);
        let granted = lm.release_all(r1);
        // Writer first; the reader behind it is incompatible (S vs IX).
        assert_eq!(granted, vec![(w, res)]);
        let granted = lm.release_all(w);
        assert_eq!(granted, vec![(r2, res)]);
    }

    #[test]
    fn compatible_prefix_grants_batch_of_readers() {
        let mut lm = LockManager::new();
        let res = Resource::Relation(1);
        let writer = TxnId(0);
        assert_eq!(lm.acquire(writer, res, Exclusive), Acquire::Granted);
        for i in 1..=4 {
            assert_eq!(lm.acquire(TxnId(i), res, Shared), Acquire::Waiting);
        }
        let granted = lm.release_all(writer);
        assert_eq!(granted.len(), 4, "all queued readers granted together");
        lm.assert_consistent();
    }

    #[test]
    fn release_without_locks_is_empty() {
        let mut lm = LockManager::new();
        assert!(lm.release_all(TxnId(9)).is_empty());
    }

    #[test]
    fn resource_hierarchy() {
        assert_eq!(Resource::Database.parent(), None);
        assert_eq!(Resource::Relation(3).parent(), Some(Resource::Database));
        assert_eq!(Resource::Page(3, 9).parent(), Some(Resource::Relation(3)));
        assert_eq!(Resource::Page(3, 9).to_string(), "rel#3:page9");
    }

    #[test]
    fn contention_counters() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), Resource::Database, Exclusive);
        lm.acquire(TxnId(2), Resource::Database, Exclusive);
        assert_eq!(lm.contention_counts(), (1, 1));
    }

    /// Stress: random acquire/release interleavings never produce
    /// conflicting holders and every waiter is eventually granted.
    #[test]
    fn random_interleavings_stay_consistent() {
        use epcm_sim::rng::Rng;
        let mut rng = Rng::seed_from(99);
        let mut lm = LockManager::new();
        let resources = [
            Resource::Database,
            Resource::Relation(0),
            Resource::Relation(1),
            Resource::Page(0, 0),
            Resource::Page(0, 1),
        ];
        let modes = [IntentShared, IntentExclusive, Shared, Exclusive];
        let mut live: Vec<TxnId> = Vec::new();
        let mut next = 0u64;
        let mut waiting_txns: std::collections::BTreeSet<TxnId> = Default::default();
        for _ in 0..2000 {
            if live.len() < 8 && (live.is_empty() || rng.chance(0.6)) {
                let t = TxnId(next);
                next += 1;
                live.push(t);
                let r = *rng.choose(&resources);
                let m = *rng.choose(&modes);
                if lm.acquire(t, r, m) == Acquire::Waiting {
                    waiting_txns.insert(t);
                }
            } else {
                let idx = rng.index(live.len());
                let t = live.swap_remove(idx);
                if waiting_txns.remove(&t) {
                    continue; // waiters cannot commit; drop them from play
                }
                for (granted, _) in lm.release_all(t) {
                    waiting_txns.remove(&granted);
                }
            }
            lm.assert_consistent();
        }
    }
}
