//! Relations stored in kernel-managed pages, and the two join plans the
//! Table 4 experiment trades between.
//!
//! Records are fixed-size rows packed into a segment; joins are real: the
//! nested-loop plan scans pages, the indexed plan probes a
//! [`HashIndex`] — both produce identical result
//! sets over identical bytes, so the space-time tradeoff can be tested
//! functionally, not just in the timing model.

use epcm_core::types::{SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm_managers::{Machine, MachineError};

use crate::index::HashIndex;

/// Bytes per record: 4-byte key + 12-byte payload.
pub const RECORD_SIZE: u64 = 16;
/// Records per 4 KB page.
pub const RECORDS_PER_PAGE: u64 = BASE_PAGE_SIZE / RECORD_SIZE;

/// One fixed-size row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Join key.
    pub key: u32,
    /// Opaque payload.
    pub payload: [u8; 12],
}

impl Record {
    /// A record whose payload encodes its ordinal (test/data generator).
    pub fn numbered(key: u32, ordinal: u32) -> Record {
        let mut payload = [0u8; 12];
        payload[..4].copy_from_slice(&ordinal.to_le_bytes());
        Record { key, payload }
    }

    fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..4].copy_from_slice(&self.key.to_le_bytes());
        out[4..].copy_from_slice(&self.payload);
        out
    }

    fn from_bytes(bytes: &[u8]) -> Record {
        Record {
            key: u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")),
            payload: bytes[4..16].try_into().expect("12 bytes"),
        }
    }
}

/// A relation: fixed-size records packed into a kernel segment.
///
/// # Example
///
/// ```
/// use epcm_dbms::relation::{Record, Relation};
/// use epcm_managers::Machine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::with_default_manager(1024);
/// let rows: Vec<Record> = (0..100).map(|i| Record::numbered(i * 3, i)).collect();
/// let rel = Relation::create(&mut machine, &rows)?;
/// assert_eq!(rel.get(&mut machine, 42)?, rows[42]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Relation {
    segment: SegmentId,
    count: u64,
}

impl Relation {
    /// Materialises `records` into a fresh segment.
    ///
    /// # Errors
    ///
    /// Machine failures.
    pub fn create(machine: &mut Machine, records: &[Record]) -> Result<Relation, MachineError> {
        let pages = (records.len() as u64).div_ceil(RECORDS_PER_PAGE).max(1);
        let segment = machine.create_segment(SegmentKind::Anonymous, pages)?;
        let rel = Relation {
            segment,
            count: records.len() as u64,
        };
        for (i, r) in records.iter().enumerate() {
            machine.store_bytes(segment, i as u64 * RECORD_SIZE, &r.to_bytes())?;
        }
        Ok(rel)
    }

    /// The backing segment.
    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Pages the relation occupies.
    pub fn pages(&self) -> u64 {
        self.count.div_ceil(RECORDS_PER_PAGE).max(1)
    }

    /// Reads record `rid`.
    ///
    /// # Errors
    ///
    /// Machine failures.
    ///
    /// # Panics
    ///
    /// Panics if `rid` is out of range.
    pub fn get(&self, machine: &mut Machine, rid: u64) -> Result<Record, MachineError> {
        assert!(rid < self.count, "record {rid} out of range");
        let mut buf = [0u8; 16];
        machine.load(self.segment, rid * RECORD_SIZE, &mut buf)?;
        Ok(Record::from_bytes(&buf))
    }

    /// Overwrites record `rid`'s payload.
    ///
    /// # Errors
    ///
    /// Machine failures.
    ///
    /// # Panics
    ///
    /// Panics if `rid` is out of range.
    pub fn update_payload(
        &self,
        machine: &mut Machine,
        rid: u64,
        payload: [u8; 12],
    ) -> Result<(), MachineError> {
        assert!(rid < self.count, "record {rid} out of range");
        machine.store_bytes(self.segment, rid * RECORD_SIZE + 4, &payload)?;
        Ok(())
    }

    /// Scans all records into a vector (page-sequential access pattern).
    ///
    /// # Errors
    ///
    /// Machine failures.
    pub fn scan(&self, machine: &mut Machine) -> Result<Vec<Record>, MachineError> {
        let mut out = Vec::with_capacity(self.count as usize);
        for rid in 0..self.count {
            out.push(self.get(machine, rid)?);
        }
        Ok(out)
    }

    /// `(key, rid)` pairs for index construction.
    ///
    /// # Errors
    ///
    /// Machine failures.
    pub fn key_records(&self, machine: &mut Machine) -> Result<Vec<(u32, u32)>, MachineError> {
        Ok(self
            .scan(machine)?
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r.key, i as u32))
            .collect())
    }

    /// Builds a hash index over this relation sized like the paper's
    /// (pages chosen for a comfortable load factor).
    ///
    /// # Errors
    ///
    /// Machine failures.
    pub fn build_index(&self, machine: &mut Machine) -> Result<HashIndex, MachineError> {
        let keys = self.key_records(machine)?;
        let pages = ((keys.len() as u64 * 2).div_ceil(BASE_PAGE_SIZE / 8)).max(1) * 2;
        HashIndex::build(machine, &keys, pages)
    }
}

/// One joined row: matching records from both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Joined {
    /// The shared key.
    pub key: u32,
    /// Left payload.
    pub left: [u8; 12],
    /// Right payload.
    pub right: [u8; 12],
}

/// Nested-loop join (the "No index" plan): for each left record, scan the
/// whole right relation. O(n·m) record reads — every one a real page
/// access through the kernel.
///
/// # Errors
///
/// Machine failures.
pub fn nested_loop_join(
    machine: &mut Machine,
    left: &Relation,
    right: &Relation,
) -> Result<Vec<Joined>, MachineError> {
    let mut out = Vec::new();
    let rights = right.scan(machine)?;
    for lid in 0..left.len() {
        let l = left.get(machine, lid)?;
        for r in &rights {
            if r.key == l.key {
                out.push(Joined {
                    key: l.key,
                    left: l.payload,
                    right: r.payload,
                });
            }
        }
    }
    Ok(out)
}

/// Index join (the "Index in memory" plan): for each left record, probe
/// the right relation's hash index. O(n) probes.
///
/// # Errors
///
/// Machine failures.
pub fn index_join(
    machine: &mut Machine,
    left: &Relation,
    right: &Relation,
    right_index: &HashIndex,
) -> Result<Vec<Joined>, MachineError> {
    let mut out = Vec::new();
    for lid in 0..left.len() {
        let l = left.get(machine, lid)?;
        if let Some(rid) = right_index.probe(machine, l.key)? {
            let r = right.get(machine, rid as u64)?;
            out.push(Joined {
                key: l.key,
                left: l.payload,
                right: r.payload,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::with_default_manager(4096)
    }

    #[test]
    fn create_get_update_roundtrip() {
        let mut m = machine();
        let rows: Vec<Record> = (0..600).map(|i| Record::numbered(i * 7, i)).collect();
        let rel = Relation::create(&mut m, &rows).unwrap();
        assert_eq!(rel.len(), 600);
        assert_eq!(rel.pages(), 600_u64.div_ceil(256));
        assert_eq!(rel.get(&mut m, 599).unwrap(), rows[599]);
        rel.update_payload(&mut m, 10, [9u8; 12]).unwrap();
        assert_eq!(rel.get(&mut m, 10).unwrap().payload, [9u8; 12]);
        assert_eq!(rel.get(&mut m, 10).unwrap().key, rows[10].key);
    }

    #[test]
    fn scan_returns_creation_order() {
        let mut m = machine();
        let rows: Vec<Record> = (0..100).map(|i| Record::numbered(i, i)).collect();
        let rel = Relation::create(&mut m, &rows).unwrap();
        assert_eq!(rel.scan(&mut m).unwrap(), rows);
    }

    #[test]
    fn join_plans_agree() {
        let mut m = machine();
        // Unique keys with partial overlap between the relations.
        let left: Vec<Record> = (0..250).map(|i| Record::numbered(i * 2, i)).collect();
        let right: Vec<Record> = (0..250)
            .map(|i| Record::numbered(i * 3, 1000 + i))
            .collect();
        let l = Relation::create(&mut m, &left).unwrap();
        let r = Relation::create(&mut m, &right).unwrap();
        let idx = r.build_index(&mut m).unwrap();

        let mut nl = nested_loop_join(&mut m, &l, &r).unwrap();
        let mut ij = index_join(&mut m, &l, &r, &idx).unwrap();
        nl.sort_by_key(|j| j.key);
        ij.sort_by_key(|j| j.key);
        assert_eq!(nl, ij, "the two plans must produce identical rows");
        // Keys divisible by 6 (both even and triple) match: 0,6,12,...,498.
        assert_eq!(nl.len(), 84);
    }

    #[test]
    fn index_join_survives_discard_and_regeneration() {
        let mut m = machine();
        let left: Vec<Record> = (0..120).map(|i| Record::numbered(i, i)).collect();
        let right: Vec<Record> = (0..120).map(|i| Record::numbered(i, 500 + i)).collect();
        let l = Relation::create(&mut m, &left).unwrap();
        let r = Relation::create(&mut m, &right).unwrap();
        let mut idx = r.build_index(&mut m).unwrap();
        let before = index_join(&mut m, &l, &r, &idx).unwrap();
        assert_eq!(before.len(), 120);

        // Memory pressure: discard the index, regenerate from the (real)
        // relation, and join again — identical output.
        idx.discard(&mut m).unwrap();
        let keys = r.key_records(&mut m).unwrap();
        idx.regenerate(&mut m, &keys).unwrap();
        let after = index_join(&mut m, &l, &r, &idx).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn index_join_touches_fewer_pages_than_scan() {
        let mut m = machine();
        let left: Vec<Record> = (0..64).map(|i| Record::numbered(i * 5, i)).collect();
        let right: Vec<Record> = (0..2048).map(|i| Record::numbered(i, i)).collect();
        let l = Relation::create(&mut m, &left).unwrap();
        let r = Relation::create(&mut m, &right).unwrap();
        let idx = r.build_index(&mut m).unwrap();
        let refs_before = m.kernel_stats().references;
        index_join(&mut m, &l, &r, &idx).unwrap();
        let indexed_refs = m.kernel_stats().references - refs_before;
        let refs_before = m.kernel_stats().references;
        nested_loop_join(&mut m, &l, &r).unwrap();
        let scan_refs = m.kernel_stats().references - refs_before;
        assert!(
            scan_refs > 5 * indexed_refs,
            "scan {scan_refs} refs vs indexed {indexed_refs}"
        );
    }
}
