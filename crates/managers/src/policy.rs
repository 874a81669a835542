//! Page-replacement policies.
//!
//! In V++ replacement policy is *manager* code, not kernel code. The
//! default manager "implements a clock algorithm \[12\] that allocates page
//! frames to each requester based on the number of page frames it has
//! referenced in some interval"; application-specific managers may use
//! anything. These policies are pure data structures over `(segment,
//! page)` candidates — the manager supplies hardware state (reference
//! bits, pins) through the probe callback, keeping the policies
//! independent of the kernel and directly unit-testable.

use std::collections::VecDeque;
use std::fmt;

use epcm_core::types::{PageNumber, SegmentId};
use epcm_sim::rng::Rng;

use crate::page_rows::PageRows;

/// What the manager observed about a candidate page when the policy
/// probed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Referenced since last cleared; the prober must also have cleared
    /// the bit (second-chance semantics).
    Referenced,
    /// Not referenced: an eviction candidate.
    NotReferenced,
    /// Pinned by the manager; never evict.
    Pinned,
    /// No longer resident (already migrated away).
    Gone,
}

type Key = (SegmentId, PageNumber);

/// A replacement policy over resident pages.
///
/// Implementations are notified as pages become resident, get referenced
/// (when the manager samples reference information) and are removed;
/// [`ReplacementPolicy::select_victim`] picks the next page to evict,
/// probing current hardware state through the callback.
pub trait ReplacementPolicy: fmt::Debug {
    /// A page became resident.
    fn note_resident(&mut self, seg: SegmentId, page: PageNumber);

    /// A page left residency (evicted or segment closed).
    fn note_removed(&mut self, seg: SegmentId, page: PageNumber);

    /// The manager learned this page was referenced (sampling).
    fn note_referenced(&mut self, seg: SegmentId, page: PageNumber);

    /// Picks a victim, consulting `probe` for each candidate considered.
    /// Returns `None` when no evictable page exists.
    fn select_victim(
        &mut self,
        probe: &mut dyn FnMut(SegmentId, PageNumber) -> Probe,
    ) -> Option<Key>;

    /// Number of pages currently tracked.
    fn len(&self) -> usize;

    /// Whether no pages are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A boxed policy is a policy, so a manager can pick one at run time.
impl<P: ReplacementPolicy + ?Sized> ReplacementPolicy for Box<P> {
    fn note_resident(&mut self, seg: SegmentId, page: PageNumber) {
        (**self).note_resident(seg, page);
    }

    fn note_removed(&mut self, seg: SegmentId, page: PageNumber) {
        (**self).note_removed(seg, page);
    }

    fn note_referenced(&mut self, seg: SegmentId, page: PageNumber) {
        (**self).note_referenced(seg, page);
    }

    fn select_victim(
        &mut self,
        probe: &mut dyn FnMut(SegmentId, PageNumber) -> Probe,
    ) -> Option<Key> {
        (**self).select_victim(probe)
    }

    fn len(&self) -> usize {
        (**self).len()
    }
}

/// Per-page bookkeeping for a lazy-deletion queue, shared by the
/// policies: how many copies of each key the queue holds (a count, so
/// the mirror stays exact even if a key is enqueued twice) and whether
/// the key is dead — removed, but not yet swept out of the queue. Every
/// check on the fault path is an index, not a search, into a
/// [`PageRows`] whose row is freed once none of its keys remain. A dead
/// key always has at least one copy queued.
#[derive(Debug, Default)]
struct KeyTable {
    /// Per page: queued copies in the high bits, the dead flag in bit 0.
    rows: PageRows<u32>,
    /// Number of dead keys.
    dead: usize,
}

const DEAD: u32 = 1;
const COPY: u32 = 2;

impl KeyTable {
    fn slot(&self, (seg, page): Key) -> u32 {
        self.rows.get((seg.as_u32(), page.as_u64())).unwrap_or(0)
    }

    fn set(&mut self, (seg, page): Key, value: u32) {
        let key = (seg.as_u32(), page.as_u64());
        if value != 0 {
            self.rows.insert(key, value);
        } else if self.rows.remove(key).is_some() && self.rows.row_len(key.0) == 0 {
            self.rows.free_row(key.0);
        }
    }

    fn contains(&self, key: Key) -> bool {
        self.slot(key) >= COPY
    }

    /// Copies of `key` in the queue.
    fn copies(&self, key: Key) -> u32 {
        self.slot(key) / COPY
    }

    /// One copy of `key` entered the queue.
    fn added(&mut self, key: Key) {
        self.set(key, self.slot(key) + COPY);
    }

    /// One copy of `key` permanently left the queue.
    fn dropped(&mut self, key: Key) {
        let slot = self.slot(key);
        if slot >= COPY {
            self.set(key, slot - COPY);
        }
    }

    /// Marks a queued key dead; a no-op for keys not queued.
    fn kill(&mut self, key: Key) {
        let slot = self.slot(key);
        if slot >= COPY && slot & DEAD == 0 {
            self.set(key, slot | DEAD);
            self.dead += 1;
        }
    }

    /// Clears `key`'s dead mark, returning whether it was dead.
    fn revive(&mut self, key: Key) -> bool {
        let slot = self.slot(key);
        if slot & DEAD == 0 {
            return false;
        }
        self.set(key, slot & !DEAD);
        self.dead -= 1;
        true
    }
}

/// The classic clock (second-chance) algorithm the default manager uses.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    ring: VecDeque<Key>,
    keys: KeyTable,
}

impl ClockPolicy {
    /// Creates an empty clock.
    pub fn new() -> Self {
        ClockPolicy::default()
    }

    fn live_len(&self) -> usize {
        self.ring.len() - self.keys.dead
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn note_resident(&mut self, seg: SegmentId, page: PageNumber) {
        let key = (seg, page);
        // A dead entry still sits in the ring (lazy deletion); reviving it
        // just clears the tombstone. Otherwise enqueue it.
        if !self.keys.revive(key) {
            self.ring.push_back(key);
            self.keys.added(key);
        }
    }

    fn note_removed(&mut self, seg: SegmentId, page: PageNumber) {
        // Lazy deletion: the hand skips dead entries.
        self.keys.kill((seg, page));
    }

    fn note_referenced(&mut self, _seg: SegmentId, _page: PageNumber) {
        // The clock reads reference state at probe time; sampling
        // notifications carry no extra information for it.
    }

    fn select_victim(
        &mut self,
        probe: &mut dyn FnMut(SegmentId, PageNumber) -> Probe,
    ) -> Option<Key> {
        // Two full sweeps bound the scan: every page gets at most one
        // second chance, so if a victim exists we find it.
        let mut budget = 2 * self.ring.len();
        while budget > 0 {
            budget -= 1;
            let key = self.ring.pop_front()?;
            if self.keys.revive(key) {
                self.keys.dropped(key);
                continue;
            }
            match probe(key.0, key.1) {
                Probe::Referenced | Probe::Pinned => self.ring.push_back(key),
                Probe::NotReferenced => {
                    self.keys.dropped(key);
                    return Some(key);
                }
                Probe::Gone => {
                    self.keys.dropped(key);
                }
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.live_len()
    }
}

/// First-in-first-out: evicts the longest-resident page regardless of use.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    queue: VecDeque<Key>,
    keys: KeyTable,
}

impl FifoPolicy {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        FifoPolicy::default()
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn note_resident(&mut self, seg: SegmentId, page: PageNumber) {
        self.keys.revive((seg, page));
        if !self.keys.contains((seg, page)) {
            self.queue.push_back((seg, page));
            self.keys.added((seg, page));
        }
    }

    fn note_removed(&mut self, seg: SegmentId, page: PageNumber) {
        self.keys.kill((seg, page));
    }

    fn note_referenced(&mut self, _seg: SegmentId, _page: PageNumber) {}

    fn select_victim(
        &mut self,
        probe: &mut dyn FnMut(SegmentId, PageNumber) -> Probe,
    ) -> Option<Key> {
        let mut budget = self.queue.len();
        while budget > 0 {
            budget -= 1;
            let key = self.queue.pop_front()?;
            if self.keys.revive(key) {
                self.keys.dropped(key);
                continue;
            }
            match probe(key.0, key.1) {
                Probe::Pinned => self.queue.push_back(key),
                Probe::Gone => {
                    self.keys.dropped(key);
                }
                // FIFO ignores the reference bit.
                Probe::Referenced | Probe::NotReferenced => {
                    self.keys.dropped(key);
                    return Some(key);
                }
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.queue.len() - self.keys.dead
    }
}

/// Least-recently-used, driven by the manager's reference sampling: a
/// sampled reference moves the page to the protected end.
#[derive(Debug, Default)]
pub struct LruPolicy {
    // Front = least recently used. A reference queues the key again at
    // the back instead of searching for it: every copy ahead of a key's
    // last is stale, and is skipped as if it had moved.
    order: VecDeque<Key>,
    keys: KeyTable,
    /// Stale copies in `order`.
    stale: usize,
}

impl LruPolicy {
    /// Creates an empty LRU.
    pub fn new() -> Self {
        LruPolicy::default()
    }

    /// Whether `key`, just popped from the front, is a stale copy; if so
    /// it is dropped.
    fn drop_stale(&mut self, key: Key) -> bool {
        if self.keys.copies(key) < 2 {
            return false;
        }
        self.keys.dropped(key);
        self.stale -= 1;
        true
    }

    /// Sweeps the stale copies out once they outnumber the rest, which
    /// keeps the queue within twice its live size at O(1) amortised cost
    /// per reference.
    fn compact(&mut self) {
        let keys = &mut self.keys;
        self.order.retain(|&key| {
            let last = keys.copies(key) == 1;
            if !last {
                keys.dropped(key);
            }
            last
        });
        self.stale = 0;
    }
}

impl ReplacementPolicy for LruPolicy {
    fn note_resident(&mut self, seg: SegmentId, page: PageNumber) {
        self.keys.revive((seg, page));
        if !self.keys.contains((seg, page)) {
            self.order.push_back((seg, page));
            self.keys.added((seg, page));
        }
    }

    fn note_removed(&mut self, seg: SegmentId, page: PageNumber) {
        self.keys.kill((seg, page));
    }

    fn note_referenced(&mut self, seg: SegmentId, page: PageNumber) {
        let key = (seg, page);
        if self.keys.contains(key) {
            self.order.push_back(key);
            self.keys.added(key);
            self.stale += 1;
            if self.stale > self.order.len() / 2 {
                self.compact();
            }
        }
    }

    fn select_victim(
        &mut self,
        probe: &mut dyn FnMut(SegmentId, PageNumber) -> Probe,
    ) -> Option<Key> {
        let mut budget = self.order.len() - self.stale;
        while budget > 0 {
            let key = self.order.pop_front()?;
            if self.drop_stale(key) {
                continue;
            }
            budget -= 1;
            if self.keys.revive(key) {
                self.keys.dropped(key);
                continue;
            }
            match probe(key.0, key.1) {
                Probe::Pinned => self.order.push_back(key),
                Probe::Gone => {
                    self.keys.dropped(key);
                }
                Probe::Referenced | Probe::NotReferenced => {
                    self.keys.dropped(key);
                    return Some(key);
                }
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.order.len() - self.stale - self.keys.dead
    }
}

/// Uniform-random eviction — the ablation baseline.
#[derive(Debug)]
pub struct RandomPolicy {
    pages: Vec<Key>,
    keys: KeyTable,
    rng: Rng,
}

impl RandomPolicy {
    /// Creates an empty random policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            pages: Vec::new(),
            keys: KeyTable::default(),
            rng: Rng::seed_from(seed),
        }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn note_resident(&mut self, seg: SegmentId, page: PageNumber) {
        if !self.keys.contains((seg, page)) {
            self.pages.push((seg, page));
            self.keys.added((seg, page));
        }
    }

    fn note_removed(&mut self, seg: SegmentId, page: PageNumber) {
        if self.keys.contains((seg, page)) {
            self.pages.retain(|&k| k != (seg, page));
            self.keys.dropped((seg, page));
        }
    }

    fn note_referenced(&mut self, _seg: SegmentId, _page: PageNumber) {}

    fn select_victim(
        &mut self,
        probe: &mut dyn FnMut(SegmentId, PageNumber) -> Probe,
    ) -> Option<Key> {
        let mut attempts = self.pages.len() * 2;
        while !self.pages.is_empty() && attempts > 0 {
            attempts -= 1;
            let idx = self.rng.index(self.pages.len());
            let key = self.pages[idx];
            match probe(key.0, key.1) {
                Probe::Pinned => {}
                Probe::Gone => {
                    self.pages.swap_remove(idx);
                    self.keys.dropped(key);
                }
                Probe::Referenced | Probe::NotReferenced => {
                    self.pages.swap_remove(idx);
                    self.keys.dropped(key);
                    return Some(key);
                }
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(p: u64) -> Key {
        // SegmentId is crate-private to epcm-core; reuse the well-known id.
        (SegmentId::FRAME_POOL, PageNumber(p))
    }

    /// Drives a policy against a simple reference-bit table, clearing bits
    /// on probe the way a real manager does.
    fn probe_table(
        bits: &mut BTreeMap<Key, Probe>,
    ) -> impl FnMut(SegmentId, PageNumber) -> Probe + '_ {
        move |s, p| {
            let k = (s, p);
            match bits.get(&k).copied().unwrap_or(Probe::Gone) {
                Probe::Referenced => {
                    bits.insert(k, Probe::NotReferenced); // clear on probe
                    Probe::Referenced
                }
                other => other,
            }
        }
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut clock = ClockPolicy::new();
        let mut bits = BTreeMap::new();
        for p in 0..3 {
            clock.note_resident(key(p).0, key(p).1);
            bits.insert(key(p), Probe::NotReferenced);
        }
        bits.insert(key(0), Probe::Referenced);
        let mut probe = probe_table(&mut bits);
        // Page 0 is referenced: skipped (and cleared), so 1 is the victim.
        assert_eq!(clock.select_victim(&mut probe), Some(key(1)));
        // Next: 2, then 0 (its bit was cleared by the sweep).
        assert_eq!(clock.select_victim(&mut probe), Some(key(2)));
        assert_eq!(clock.select_victim(&mut probe), Some(key(0)));
        assert_eq!(clock.select_victim(&mut probe), None);
    }

    #[test]
    fn clock_never_evicts_referenced_while_unreferenced_exists() {
        let mut clock = ClockPolicy::new();
        let mut bits = BTreeMap::new();
        for p in 0..10 {
            clock.note_resident(key(p).0, key(p).1);
            bits.insert(
                key(p),
                if p % 2 == 0 {
                    Probe::Referenced
                } else {
                    Probe::NotReferenced
                },
            );
        }
        // First five victims must all be odd pages (the unreferenced ones).
        let mut probe = probe_table(&mut bits);
        for _ in 0..5 {
            let v = clock.select_victim(&mut probe).unwrap();
            assert_eq!(v.1.as_u64() % 2, 1, "evicted referenced page {v:?}");
        }
    }

    #[test]
    fn clock_skips_pinned_and_dead() {
        let mut clock = ClockPolicy::new();
        let mut bits = BTreeMap::new();
        for p in 0..3 {
            clock.note_resident(key(p).0, key(p).1);
        }
        bits.insert(key(0), Probe::Pinned);
        bits.insert(key(1), Probe::NotReferenced);
        bits.insert(key(2), Probe::NotReferenced);
        clock.note_removed(key(1).0, key(1).1);
        assert_eq!(clock.len(), 2);
        let mut probe = probe_table(&mut bits);
        assert_eq!(clock.select_victim(&mut probe), Some(key(2)));
        // Only the pinned page remains: no victim.
        assert_eq!(clock.select_victim(&mut probe), None);
    }

    #[test]
    fn clock_all_referenced_still_terminates() {
        let mut clock = ClockPolicy::new();
        let mut bits = BTreeMap::new();
        for p in 0..4 {
            clock.note_resident(key(p).0, key(p).1);
            bits.insert(key(p), Probe::Referenced);
        }
        // All referenced: the sweep clears them, second sweep evicts one.
        let mut probe = probe_table(&mut bits);
        assert!(clock.select_victim(&mut probe).is_some());
    }

    #[test]
    fn fifo_evicts_in_arrival_order_ignoring_references() {
        let mut fifo = FifoPolicy::new();
        let mut bits = BTreeMap::new();
        for p in 0..3 {
            fifo.note_resident(key(p).0, key(p).1);
            bits.insert(key(p), Probe::Referenced);
        }
        let mut probe = probe_table(&mut bits);
        assert_eq!(fifo.select_victim(&mut probe), Some(key(0)));
        assert_eq!(fifo.select_victim(&mut probe), Some(key(1)));
    }

    #[test]
    fn lru_victimises_least_recent() {
        let mut lru = LruPolicy::new();
        let mut bits = BTreeMap::new();
        for p in 0..3 {
            lru.note_resident(key(p).0, key(p).1);
            bits.insert(key(p), Probe::NotReferenced);
        }
        lru.note_referenced(key(0).0, key(0).1); // 0 becomes most recent
        let mut probe = probe_table(&mut bits);
        assert_eq!(lru.select_victim(&mut probe), Some(key(1)));
        assert_eq!(lru.select_victim(&mut probe), Some(key(2)));
        assert_eq!(lru.select_victim(&mut probe), Some(key(0)));
    }

    #[test]
    fn random_is_deterministic_per_seed_and_respects_pins() {
        let mut bits = BTreeMap::new();
        for p in 0..8 {
            bits.insert(key(p), Probe::NotReferenced);
        }
        bits.insert(key(3), Probe::Pinned);
        let run = |seed| {
            let mut pol = RandomPolicy::new(seed);
            for p in 0..8 {
                pol.note_resident(key(p).0, key(p).1);
            }
            let mut local = bits.clone();
            let mut probe = probe_table(&mut local);
            let mut order = Vec::new();
            while let Some(v) = pol.select_victim(&mut probe) {
                order.push(v.1.as_u64());
            }
            order
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7, "pinned page never evicted");
        assert!(!a.contains(&3));
    }

    /// Opens, fills, half-evicts and closes 200 segments under `policy`,
    /// and returns the most rows its key table held at once.
    fn peak_rows<P: ReplacementPolicy>(mut policy: P, rows: impl Fn(&P) -> usize) -> usize {
        use epcm_core::types::{ManagerId, SegmentKind, UserId};
        let mut kernel = epcm_core::kernel::Kernel::new(8);
        let mut peak = 0;
        for _ in 0..200 {
            let seg = kernel
                .create_segment(SegmentKind::Anonymous, UserId::SYSTEM, ManagerId(1), 32)
                .unwrap();
            for p in 0..32 {
                policy.note_resident(seg, PageNumber(p));
            }
            peak = peak.max(rows(&policy));
            let mut evicted = std::collections::BTreeSet::new();
            for _ in 0..16 {
                let mut probe = |s: SegmentId, p: PageNumber| {
                    if s == seg && !evicted.contains(&p) {
                        Probe::NotReferenced
                    } else {
                        Probe::Gone
                    }
                };
                let (_, page) = policy.select_victim(&mut probe).expect("a live page");
                evicted.insert(page);
            }
            for p in (0..32).map(PageNumber).filter(|p| !evicted.contains(p)) {
                policy.note_removed(seg, p);
            }
            peak = peak.max(rows(&policy));
        }
        peak
    }

    #[test]
    fn policies_free_the_rows_of_closed_segments() {
        // A closed segment's keys leave the queue at the latest when the
        // next segment's evictions sweep past them, taking its row along.
        assert!(peak_rows(ClockPolicy::new(), |p| p.keys.rows.allocated()) <= 2);
        assert!(peak_rows(FifoPolicy::new(), |p| p.keys.rows.allocated()) <= 2);
        assert!(peak_rows(LruPolicy::new(), |p| p.keys.rows.allocated()) <= 2);
        assert!(peak_rows(RandomPolicy::new(7), |p| p.keys.rows.allocated()) <= 2);
    }

    #[test]
    fn removed_then_resident_again_is_tracked() {
        let mut clock = ClockPolicy::new();
        clock.note_resident(key(0).0, key(0).1);
        clock.note_removed(key(0).0, key(0).1);
        assert_eq!(clock.len(), 0);
        assert!(clock.is_empty());
        clock.note_resident(key(0).0, key(0).1);
        assert_eq!(clock.len(), 1);
        let mut probe = |_: SegmentId, _: PageNumber| Probe::NotReferenced;
        assert_eq!(clock.select_victim(&mut probe), Some(key(0)));
    }
}
