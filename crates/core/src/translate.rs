//! The global mapping table.
//!
//! Instead of per-address-space page tables, V++ "augments the segment and
//! bound region data structures with a global 64K entry direct mapped hash
//! table with a 32 entry overflow area" (§3.2). The table caches
//! `(segment, page) → frame` translations; on a lookup miss the kernel
//! falls back to walking the segment/bound-region structures and refills
//! the table. Hit/miss/displacement statistics feed the extended analyses
//! in EXPERIMENTS.md.
//!
//! The 64 K slots are modelled exactly — the same slot hash, collisions,
//! displacement into overflow and overflow evictions — but stored
//! sparsely: only occupied slots take memory, keyed by slot index. A
//! dense array would cost 1.5 MB per kernel, zeroed at construction and
//! scanned on every segment deletion, whether the machine has 32 frames
//! or 32 768; a machine holds at most one translation per frame, so the
//! sparse table costs in proportion to what the machine maps.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::types::{FrameId, PageNumber, SegmentId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    segment: SegmentId,
    page: u64,
    frame: FrameId,
}

/// Hashes a slot index (already a Fibonacci hash of the key) with one
/// multiply, spreading it into the high bits the map's control bytes use.
#[derive(Debug, Default, Clone, Copy)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Counters describing mapping-table behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MappingStats {
    /// Lookups satisfied by the direct-mapped array.
    pub direct_hits: u64,
    /// Lookups satisfied by the overflow area.
    pub overflow_hits: u64,
    /// Lookups that missed entirely (kernel walked the segment structures).
    pub misses: u64,
    /// Insertions that displaced a colliding entry into overflow.
    pub displacements: u64,
    /// Displaced entries dropped because the overflow area was full.
    pub overflow_evictions: u64,
}

impl MappingStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.direct_hits + self.overflow_hits + self.misses
    }

    /// Fraction of lookups that hit, in `[0, 1]`; 1.0 when no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            1.0
        } else {
            (self.direct_hits + self.overflow_hits) as f64 / total as f64
        }
    }
}

/// The direct-mapped global hash table with a small overflow area.
///
/// Only occupied slots are stored (see the module docs); the slot count
/// fixes the hash and collision behaviour, not the memory used.
///
/// # Example
///
/// ```
/// use epcm_core::translate::MappingTable;
/// # use epcm_core::types::{FrameId, PageNumber, SegmentId};
///
/// let mut table = MappingTable::vpp_default();
/// // The kernel installs and looks up mappings as part of reference():
/// assert_eq!(table.stats().lookups(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MappingTable {
    /// Modelled slot count: the modulus of the slot hash.
    slots: usize,
    /// The occupied slots, keyed by slot index.
    occupied: HashMap<u32, Entry, BuildHasherDefault<SlotHasher>>,
    overflow: Vec<Entry>,
    overflow_capacity: usize,
    stats: MappingStats,
}

impl MappingTable {
    /// The paper's configuration: 64 K direct-mapped entries, 32-entry
    /// overflow area.
    pub fn vpp_default() -> Self {
        MappingTable::with_capacity(65_536, 32)
    }

    /// A custom-sized table (used by tests and ablations).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or exceeds `u32::MAX`.
    pub fn with_capacity(slots: usize, overflow: usize) -> Self {
        assert!(slots > 0, "mapping table needs at least one slot");
        assert!(slots <= u32::MAX as usize, "slot index must fit in u32");
        MappingTable {
            slots,
            occupied: HashMap::default(),
            overflow: Vec::with_capacity(overflow),
            overflow_capacity: overflow,
            stats: MappingStats::default(),
        }
    }

    fn slot_index(&self, segment: SegmentId, page: u64) -> u32 {
        // Fibonacci hashing over the packed key: cheap and well-spread for
        // the sequential page numbers segments produce.
        let key = ((segment.as_u32() as u64) << 40) ^ page;
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The remainder is below `slots`, which fits in u32.
        ((h >> 32) % self.slots as u64) as u32
    }

    /// Looks up a translation, updating hit/miss statistics.
    pub fn lookup(&mut self, segment: SegmentId, page: PageNumber) -> Option<FrameId> {
        let idx = self.slot_index(segment, page.as_u64());
        if let Some(e) = self.occupied.get(&idx) {
            if e.segment == segment && e.page == page.as_u64() {
                self.stats.direct_hits += 1;
                return Some(e.frame);
            }
        }
        if let Some(e) = self
            .overflow
            .iter()
            .find(|e| e.segment == segment && e.page == page.as_u64())
        {
            self.stats.overflow_hits += 1;
            return Some(e.frame);
        }
        self.stats.misses += 1;
        None
    }

    /// Installs (or updates) a translation. A colliding resident entry is
    /// pushed to the overflow area; if that is full, the displaced entry is
    /// dropped (it can be refilled from the segment walk later).
    pub fn install(&mut self, segment: SegmentId, page: PageNumber, frame: FrameId) {
        let idx = self.slot_index(segment, page.as_u64());
        let new = Entry {
            segment,
            page: page.as_u64(),
            frame,
        };
        if let Some(old) = self.occupied.insert(idx, new) {
            if !(old.segment == segment && old.page == page.as_u64()) {
                self.stats.displacements += 1;
                if self.overflow.len() < self.overflow_capacity {
                    self.overflow.push(old);
                } else {
                    self.stats.overflow_evictions += 1;
                }
            }
        }
        // Drop any stale overflow copy of this key.
        self.overflow
            .retain(|e| !(e.segment == segment && e.page == page.as_u64() && e.frame != frame));
    }

    /// Removes a translation if present (on unmap/migration-out).
    pub fn remove(&mut self, segment: SegmentId, page: PageNumber) {
        let idx = self.slot_index(segment, page.as_u64());
        if self
            .occupied
            .get(&idx)
            .is_some_and(|e| e.segment == segment && e.page == page.as_u64())
        {
            self.occupied.remove(&idx);
        }
        self.overflow
            .retain(|e| !(e.segment == segment && e.page == page.as_u64()));
    }

    /// Removes every translation belonging to `segment` (segment deletion).
    pub fn remove_segment(&mut self, segment: SegmentId) {
        self.occupied.retain(|_, e| e.segment != segment);
        self.overflow.retain(|e| e.segment != segment);
    }

    /// Current statistics.
    pub fn stats(&self) -> MappingStats {
        self.stats
    }

    /// Resets statistics (e.g. between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.stats = MappingStats::default();
    }
}

impl fmt::Display for MappingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mapping table: {}/{} slots, {} overflow, hit rate {:.3}",
            self.occupied.len(),
            self.slots,
            self.overflow.len(),
            self.stats.hit_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> MappingTable {
        MappingTable::with_capacity(16, 4)
    }

    #[test]
    fn install_lookup_remove() {
        let mut m = t();
        let (s, p) = (SegmentId(1), PageNumber(3));
        assert_eq!(m.lookup(s, p), None);
        m.install(s, p, FrameId(7));
        assert_eq!(m.lookup(s, p), Some(FrameId(7)));
        m.remove(s, p);
        assert_eq!(m.lookup(s, p), None);
        let st = m.stats();
        assert_eq!(st.misses, 2);
        assert_eq!(st.direct_hits, 1);
    }

    #[test]
    fn update_in_place() {
        let mut m = t();
        let (s, p) = (SegmentId(1), PageNumber(3));
        m.install(s, p, FrameId(7));
        m.install(s, p, FrameId(8));
        assert_eq!(m.lookup(s, p), Some(FrameId(8)));
        assert_eq!(m.stats().displacements, 0);
    }

    #[test]
    fn collision_goes_to_overflow() {
        // Single-slot table forces collisions.
        let mut m = MappingTable::with_capacity(1, 4);
        m.install(SegmentId(1), PageNumber(0), FrameId(1));
        m.install(SegmentId(2), PageNumber(0), FrameId(2));
        // Both still resolvable: one direct, one overflow.
        assert_eq!(m.lookup(SegmentId(2), PageNumber(0)), Some(FrameId(2)));
        assert_eq!(m.lookup(SegmentId(1), PageNumber(0)), Some(FrameId(1)));
        let st = m.stats();
        assert_eq!(st.displacements, 1);
        assert_eq!(st.overflow_hits, 1);
    }

    #[test]
    fn full_overflow_drops_displaced() {
        let mut m = MappingTable::with_capacity(1, 1);
        m.install(SegmentId(1), PageNumber(0), FrameId(1));
        m.install(SegmentId(2), PageNumber(0), FrameId(2)); // displaces 1 into overflow
        m.install(SegmentId(3), PageNumber(0), FrameId(3)); // displaces 2; overflow full
        assert_eq!(m.stats().overflow_evictions, 1);
        assert_eq!(m.lookup(SegmentId(3), PageNumber(0)), Some(FrameId(3)));
        assert_eq!(m.lookup(SegmentId(1), PageNumber(0)), Some(FrameId(1))); // in overflow
        assert_eq!(m.lookup(SegmentId(2), PageNumber(0)), None); // dropped
    }

    #[test]
    fn remove_segment_purges_all() {
        // Large table: no collisions, so every installed entry survives
        // until the purge.
        let mut m = MappingTable::with_capacity(1024, 32);
        for p in 0..8 {
            m.install(SegmentId(1), PageNumber(p), FrameId(p as u32));
            m.install(SegmentId(2), PageNumber(p), FrameId(100 + p as u32));
        }
        m.remove_segment(SegmentId(1));
        for p in 0..8 {
            assert_eq!(m.lookup(SegmentId(1), PageNumber(p)), None);
            assert_eq!(
                m.lookup(SegmentId(2), PageNumber(p)),
                Some(FrameId(100 + p as u32))
            );
        }
    }

    #[test]
    fn hit_rate_and_display() {
        let mut m = t();
        m.install(SegmentId(1), PageNumber(0), FrameId(0));
        m.lookup(SegmentId(1), PageNumber(0));
        m.lookup(SegmentId(1), PageNumber(1));
        assert!((m.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert!(m.to_string().contains("hit rate"));
        m.reset_stats();
        assert_eq!(m.stats().lookups(), 0);
        assert_eq!(m.stats().hit_rate(), 1.0);
    }

    #[test]
    fn vpp_default_dimensions() {
        let m = MappingTable::vpp_default();
        assert_eq!(m.slots, 65_536);
        assert_eq!(m.overflow_capacity, 32);
        assert!(m.occupied.is_empty(), "an empty table holds no slots");
    }
}

/// Counters describing TLB behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// References satisfied by the TLB.
    pub hits: u64,
    /// References that missed and were refilled by the kernel (from the
    /// global mapping table or the segment walk) — "simple TLB misses are
    /// handled by the kernel" (§2.1).
    pub misses: u64,
    /// Entries invalidated by migration/protection changes (shootdowns).
    pub invalidations: u64,
}

impl TlbStats {
    /// Fraction of references that hit, in `[0, 1]`; 1.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A direct-mapped hardware TLB model (the R3000's is 64 entries).
///
/// Purely observational: the kernel consults it on every completed
/// reference so TLB pressure is measurable, but hits cost no modelled
/// time (they are the hardware fast path) and refills are folded into the
/// mapping-table walk the kernel already performs.
#[derive(Debug, Clone)]
pub struct Tlb {
    slots: Vec<Option<(SegmentId, u64)>>,
    stats: TlbStats,
}

impl Tlb {
    /// The MIPS R3000 configuration: 64 entries.
    pub fn r3000() -> Self {
        Tlb::with_entries(64)
    }

    /// A custom-sized TLB (for the size-sweep ablation).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn with_entries(entries: usize) -> Self {
        assert!(entries > 0, "a TLB needs entries");
        Tlb {
            slots: vec![None; entries],
            stats: TlbStats::default(),
        }
    }

    fn slot(&self, segment: SegmentId, page: u64) -> usize {
        let key = ((segment.as_u32() as u64) << 40) ^ page;
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.slots.len()
    }

    /// Records a reference: hit if the translation is resident, else a
    /// refill.
    pub fn access(&mut self, segment: SegmentId, page: PageNumber) -> bool {
        let idx = self.slot(segment, page.as_u64());
        if self.slots[idx] == Some((segment, page.as_u64())) {
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            self.slots[idx] = Some((segment, page.as_u64()));
            false
        }
    }

    /// Invalidates one translation (page migrated or reprotected).
    pub fn invalidate(&mut self, segment: SegmentId, page: PageNumber) {
        let idx = self.slot(segment, page.as_u64());
        if self.slots[idx] == Some((segment, page.as_u64())) {
            self.slots[idx] = None;
            self.stats.invalidations += 1;
        }
    }

    /// Invalidates every translation for a segment (deletion).
    pub fn invalidate_segment(&mut self, segment: SegmentId) {
        for slot in &mut self.slots {
            if matches!(slot, Some((s, _)) if *s == segment) {
                *slot = None;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tlb_tests {
    use super::*;

    #[test]
    fn hit_after_refill() {
        let mut tlb = Tlb::with_entries(16);
        let seg = SegmentId::FRAME_POOL;
        assert!(!tlb.access(seg, PageNumber(3)));
        assert!(tlb.access(seg, PageNumber(3)));
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
        assert!((tlb.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalidation_forces_refill() {
        let mut tlb = Tlb::with_entries(16);
        let seg = SegmentId::FRAME_POOL;
        tlb.access(seg, PageNumber(1));
        tlb.invalidate(seg, PageNumber(1));
        assert!(!tlb.access(seg, PageNumber(1)), "must miss after shootdown");
        assert_eq!(tlb.stats().invalidations, 1);
        // Invalidating a non-resident entry is a no-op.
        tlb.invalidate(seg, PageNumber(99));
        assert_eq!(tlb.stats().invalidations, 1);
    }

    #[test]
    fn small_tlb_thrashes_on_wide_working_set() {
        let seg = SegmentId::FRAME_POOL;
        let run = |entries: usize, pages: u64| {
            let mut tlb = Tlb::with_entries(entries);
            for round in 0..10 {
                for p in 0..pages {
                    tlb.access(seg, PageNumber(p));
                }
                let _ = round;
            }
            tlb.stats().hit_rate()
        };
        let big = run(256, 32);
        let small = run(8, 32);
        assert!(big > 0.85, "big TLB hit rate {big}");
        assert!(small < big, "small TLB {small} vs big {big}");
    }

    #[test]
    fn segment_invalidation_sweeps() {
        let mut tlb = Tlb::with_entries(64);
        let seg = SegmentId::FRAME_POOL;
        for p in 0..10 {
            tlb.access(seg, PageNumber(p));
        }
        tlb.invalidate_segment(seg);
        assert!(
            tlb.stats().invalidations >= 8,
            "collisions may drop a couple"
        );
        tlb.reset_stats();
        assert_eq!(tlb.stats(), TlbStats::default());
    }

    #[test]
    fn idle_hit_rate_is_one() {
        assert_eq!(Tlb::r3000().stats().hit_rate(), 1.0);
    }
}
