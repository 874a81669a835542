//! A hierarchical lock manager (Gray-style granular locking).
//!
//! §3.3: "A hierarchical locking scheme is used for concurrency control.
//! The locks were implemented and the parallelism is real." This module is
//! the real implementation: database → relation → page granularity,
//! intent modes, the standard compatibility matrix, FIFO-fair queueing
//! (with compatible-prefix batching so concurrent readers share), and
//! all-at-release grant propagation for the discrete-event engine.

use std::collections::{BTreeMap, HashMap, VecDeque};
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

/// Modes by their index into [`LockState::held`] (`LockMode as usize`).
const MODES: [LockMode; 5] = [
    LockMode::IntentShared,
    LockMode::IntentExclusive,
    LockMode::Shared,
    LockMode::SharedIntentExclusive,
    LockMode::Exclusive,
];

/// One resource's lock state: how many holds it has in each mode, and
/// its FIFO queue of waiting requests. Which transaction holds what is
/// recorded only in the holders' own held lists.
#[derive(Debug, Default)]
struct LockState {
    held: [u32; 5],
    queue: VecDeque<(TxnId, LockMode)>,
}

impl LockState {
    /// Whether `mode` is compatible with every hold on `resource` except
    /// the requester's own, which `own` (the requester's held list)
    /// names.
    fn admits(&self, resource: Resource, mode: LockMode, own: &[(Resource, LockMode)]) -> bool {
        let mut held = self.held;
        for &(r, m) in own {
            if r == resource {
                held[m as usize] -= 1;
            }
        }
        MODES
            .iter()
            .zip(held)
            .all(|(&m, n)| n == 0 || m.compatible(mode))
    }

    fn is_idle(&self) -> bool {
        self.held == [0; 5] && self.queue.is_empty()
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

/// A transaction's holds, in grant order.
#[derive(Debug, Default)]
struct HeldList {
    holds: Vec<(Resource, LockMode)>,
    /// Whether some resource appears twice in `holds`: a transaction
    /// that queued twice for one resource is granted it twice. Only such
    /// a list pays for the release's duplicate scans, which cost about
    /// 4% of `dbms_table4`'s throughput when every list paid for them.
    repeats: bool,
}

/// Relations below this id have their state in [`LockTable::direct`];
/// larger ids go through the hash, so a huge id costs one slab entry, not
/// a table that long.
const DIRECT_RELATIONS: u32 = 256;

/// Every resource's [`LockState`]. The database and the first
/// [`DIRECT_RELATIONS`] relations are indexed directly: `direct[0]` is
/// the database and `direct[r + 1]` relation `r`, grown on first use.
/// Other resources live in a slab: `slots` maps a resource to its index
/// in `slab`, and a page's state that falls idle returns its index to
/// `free` with its queue buffer intact, so the next page lock reuses it.
#[derive(Debug, Default)]
struct LockTable {
    direct: Vec<LockState>,
    slots: KeyMap<Resource, usize>,
    slab: Vec<LockState>,
    free: Vec<usize>,
}

impl LockTable {
    fn direct_index(resource: Resource) -> Option<usize> {
        match resource {
            Resource::Database => Some(0),
            Resource::Relation(r) if r < DIRECT_RELATIONS => Some(r as usize + 1),
            _ => None,
        }
    }

    /// `resource`'s state, created idle if it has none.
    fn entry(&mut self, resource: Resource) -> &mut LockState {
        if let Some(i) = Self::direct_index(resource) {
            if i >= self.direct.len() {
                self.direct.resize_with(i + 1, LockState::default);
            }
            return &mut self.direct[i];
        }
        let slot = *self.slots.entry(resource).or_insert_with(|| {
            self.free.pop().unwrap_or_else(|| {
                self.slab.push(LockState::default());
                self.slab.len() - 1
            })
        });
        &mut self.slab[slot]
    }

    /// Returns an idle page's slab index to the free list. Database and
    /// relation states are few and hot, and their queues grow long, so
    /// they keep their place and their buffers.
    fn retire(&mut self, page: Resource) {
        let slot = self
            .slots
            .remove(&page)
            .expect("a retired page has a state");
        self.free.push(slot);
    }

    /// Every resource with a state, and the state.
    fn iter(&self) -> impl Iterator<Item = (Resource, &LockState)> {
        let direct = self.direct.iter().enumerate().map(|(i, state)| {
            let resource = match i {
                0 => Resource::Database,
                _ => Resource::Relation(i as u32 - 1),
            };
            (resource, state)
        });
        let slab = self
            .slots
            .iter()
            .map(|(&resource, &slot)| (resource, &self.slab[slot]));
        direct.chain(slab)
    }
}

/// `txn`'s held list, a recycled one for a transaction that has none
/// yet. A transaction that has made a request keeps its list, possibly
/// empty while it waits, until its `release_all`.
fn held_list<'a>(
    held_by: &'a mut KeyMap<TxnId, HeldList>,
    spare: &mut Vec<HeldList>,
    txn: TxnId,
) -> &'a mut HeldList {
    held_by
        .entry(txn)
        .or_insert_with(|| spare.pop().unwrap_or_default())
}

/// The lock manager.
///
/// A resource's state counts its holds per mode, so a compatibility
/// check reads five counters and a release decrements one, however many
/// transactions hold the resource; each transaction's held list names
/// its `(resource, mode)` holds, and answers whether it already holds a
/// resource. Held lists are recycled through `spare_held`. Nothing
/// iterates a hash map to take a decision, so grant order depends only
/// on the call sequence.
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
    table: LockTable,
    held_by: KeyMap<TxnId, HeldList>,
    spare_held: Vec<HeldList>,
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

    /// The `(resource, mode)` holds of `txn`, in grant order.
    pub fn held(&self, txn: TxnId) -> &[(Resource, LockMode)] {
        self.held_by
            .get(&txn)
            .map_or(&[], |list| list.holds.as_slice())
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
        let list = held_list(&mut self.held_by, &mut self.spare_held, txn);
        if list.holds.iter().any(|&(r, _)| r == resource) {
            return Acquire::Granted;
        }
        // `txn` holds nothing on `resource`, so no own hold is discounted.
        let state = self.table.entry(resource);
        if state.queue.is_empty() && state.admits(resource, mode, &[]) {
            state.held[mode as usize] += 1;
            list.holds.push((resource, mode));
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
        let Some(mut list) = self.held_by.remove(&txn) else {
            return;
        };
        let holds = &list.holds;
        for (i, &(resource, mode)) in holds.iter().enumerate() {
            // A resource held twice is released at its first entry.
            if list.repeats && holds[..i].iter().any(|&(r, _)| r == resource) {
                continue;
            }
            let state = self.table.entry(resource);
            if list.repeats {
                for &(r, m) in &holds[i..] {
                    if r == resource {
                        state.held[m as usize] -= 1;
                    }
                }
            } else {
                state.held[mode as usize] -= 1;
            }
            // Grant the maximal compatible prefix of the queue: strict
            // FIFO, but adjacent compatible requests (e.g. several S's)
            // are granted together.
            while let Some(&(waiter, mode)) = state.queue.front() {
                let own = held_list(&mut self.held_by, &mut self.spare_held, waiter);
                if !state.admits(resource, mode, &own.holds) {
                    break;
                }
                state.queue.pop_front();
                state.held[mode as usize] += 1;
                own.repeats |= own.holds.iter().any(|&(r, _)| r == resource);
                own.holds.push((resource, mode));
                granted.push((waiter, resource));
            }
            if state.is_idle() && matches!(resource, Resource::Page(..)) {
                self.table.retire(resource);
            }
        }
        list.holds.clear();
        list.repeats = false;
        self.spare_held.push(list);
    }

    /// Debug invariant: every state's per-mode counts equal the holds
    /// the held lists name, and no two transactions' holds on one
    /// resource conflict.
    pub fn assert_consistent(&self) {
        let mut holders: BTreeMap<Resource, Vec<(TxnId, LockMode)>> = BTreeMap::new();
        for (&txn, list) in &self.held_by {
            for &(resource, mode) in &list.holds {
                holders.entry(resource).or_default().push((txn, mode));
            }
        }
        let mut states = 0;
        for (resource, state) in self.table.iter() {
            let listed = holders.get(&resource).map_or(&[][..], |v| v.as_slice());
            let mut counts = [0u32; 5];
            for &(_, m) in listed {
                counts[m as usize] += 1;
            }
            assert_eq!(
                state.held, counts,
                "{resource}: per-mode counts disagree with the held lists"
            );
            states += usize::from(!listed.is_empty());
            for (i, &(t1, m1)) in listed.iter().enumerate() {
                for &(t2, m2) in &listed[i + 1..] {
                    assert!(
                        t1 == t2 || m1.compatible(m2),
                        "conflicting holders on {resource}: {t1}:{m1} vs {t2}:{m2}"
                    );
                }
            }
        }
        assert_eq!(states, holders.len(), "a held resource has no lock state");
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
    fn a_second_queued_request_discounts_the_first_grant() {
        // `a` queues S and then IX on one relation while `x` holds X. The
        // release grants both: IX conflicts with S, but only with `a`'s
        // own S, which a compatibility check does not count.
        let mut lm = LockManager::new();
        let (x, a) = (TxnId(1), TxnId(2));
        let res = Resource::Relation(0);
        assert_eq!(lm.acquire(x, res, Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(a, res, Shared), Acquire::Waiting);
        assert_eq!(lm.acquire(a, res, IntentExclusive), Acquire::Waiting);
        assert_eq!(lm.release_all(x), vec![(a, res), (a, res)]);
        assert_eq!(lm.held(a), [(res, Shared), (res, IntentExclusive)]);
        lm.assert_consistent();
        // One release drops both holds: a writer queued behind is granted.
        assert_eq!(lm.acquire(x, res, Exclusive), Acquire::Waiting);
        assert_eq!(lm.release_all(a), vec![(x, res)]);
        lm.assert_consistent();
    }

    #[test]
    fn a_resource_held_twice_is_released_at_its_first_entry() {
        // `a` is granted IS and, after a grant on `q`, IX on `r`, so its
        // held list is [r, q, r]. Its release must free both holds on `r`
        // before granting on `q`, as the grant order shows.
        let mut lm = LockManager::new();
        let (r, q) = (Resource::Relation(0), Resource::Relation(1));
        let (x, a, h, w, v, u) = (TxnId(1), TxnId(2), TxnId(3), TxnId(4), TxnId(5), TxnId(6));
        assert_eq!(lm.acquire(x, r, Exclusive), Acquire::Granted);
        for (t, mode) in [
            (a, IntentShared),
            (h, Shared),
            (w, IntentExclusive),
            (a, IntentExclusive),
        ] {
            assert_eq!(lm.acquire(t, r, mode), Acquire::Waiting);
        }
        assert_eq!(lm.release_all(x), vec![(a, r), (h, r)]);
        assert_eq!(lm.acquire(a, q, Exclusive), Acquire::Granted);
        assert_eq!(lm.release_all(h), vec![(w, r), (a, r)]);
        assert_eq!(
            lm.held(a),
            [(r, IntentShared), (q, Exclusive), (r, IntentExclusive)]
        );
        assert_eq!(lm.acquire(v, r, Exclusive), Acquire::Waiting);
        assert_eq!(lm.acquire(u, q, Exclusive), Acquire::Waiting);
        assert!(lm.release_all(w).is_empty());
        assert_eq!(lm.release_all(a), vec![(v, r), (u, q)]);
        lm.assert_consistent();
    }

    #[test]
    fn a_page_held_twice_is_freed_once() {
        // `a` holds one page twice; its release frees the page's state at
        // the first entry and skips the second.
        let mut lm = LockManager::new();
        let (x, a) = (TxnId(1), TxnId(2));
        let page = Resource::Page(0, 3);
        assert_eq!(lm.acquire(x, page, Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(a, page, Shared), Acquire::Waiting);
        assert_eq!(lm.acquire(a, page, IntentShared), Acquire::Waiting);
        assert_eq!(lm.release_all(x), vec![(a, page), (a, page)]);
        assert!(lm.release_all(a).is_empty());
        assert!(lm.table.slots.is_empty());
        lm.assert_consistent();
    }

    #[test]
    fn huge_relation_ids_use_the_hash() {
        let mut lm = LockManager::new();
        let (a, b) = (TxnId(1), TxnId(2));
        let far = Resource::Relation(u32::MAX);
        assert_eq!(lm.acquire(a, far, Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(b, far, Shared), Acquire::Waiting);
        assert!(lm.table.direct.is_empty());
        assert_eq!(lm.release_all(a), vec![(b, far)]);
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
