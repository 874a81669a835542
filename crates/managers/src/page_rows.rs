//! The managers' one dense per-page table: entries keyed by `(segment,
//! page)`, for the replacement policies' key tables and the engine's
//! heat, laundry and in-flight tables.

/// An entry type with one value that marks an empty slot, so a dense
/// table of it needs no `Option` tag.
pub(crate) trait Vacant: Copy + PartialEq {
    const VACANT: Self;
}

impl Vacant for u32 {
    const VACANT: Self = 0;
}

impl Vacant for u64 {
    const VACANT: Self = 0;
}

/// A map from `(segment, page)` keys to small entries, stored densely
/// by segment id and then page number, as the kernel's page tables are
/// (segment ids are never reused). Rows grow on demand and read vacant
/// past their end. Each row counts its entries, and a row's storage
/// lives until its owner frees it: freeing rows as they empty made the
/// in-flight table reallocate and refill its row after every writeback
/// drain, so each owner picks when to call [`Self::free_row`].
#[derive(Debug)]
pub(crate) struct PageRows<T> {
    rows: Vec<Row<T>>,
    len: usize,
}

#[derive(Debug)]
struct Row<T> {
    slots: Vec<T>,
    /// Non-vacant entries of `slots`.
    used: usize,
}

impl<T> Default for PageRows<T> {
    fn default() -> Self {
        PageRows {
            rows: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Vacant> PageRows<T> {
    pub(crate) fn get(&self, (seg, page): (u32, u64)) -> Option<T> {
        let row = self.rows.get(seg as usize)?;
        let entry = *row.slots.get(usize::try_from(page).ok()?)?;
        (entry != T::VACANT).then_some(entry)
    }

    /// Sets `key`'s entry, growing the table to reach it, and returns
    /// the entry it replaced.
    pub(crate) fn insert(&mut self, (seg, page): (u32, u64), value: T) -> Option<T> {
        debug_assert!(value != T::VACANT, "a vacant entry cannot be inserted");
        let s = seg as usize;
        if s >= self.rows.len() {
            self.rows.resize_with(s + 1, || Row {
                slots: Vec::new(),
                used: 0,
            });
        }
        let row = &mut self.rows[s];
        let p = usize::try_from(page).expect("mapped pages fit the address space");
        if p >= row.slots.len() {
            row.slots.resize(p + 1, T::VACANT);
        }
        let old = std::mem::replace(&mut row.slots[p], value);
        if old != T::VACANT {
            return Some(old);
        }
        row.used += 1;
        self.len += 1;
        None
    }

    pub(crate) fn remove(&mut self, (seg, page): (u32, u64)) -> Option<T> {
        let row = self.rows.get_mut(seg as usize)?;
        let old = std::mem::replace(row.slots.get_mut(usize::try_from(page).ok()?)?, T::VACANT);
        if old == T::VACANT {
            return None;
        }
        row.used -= 1;
        self.len -= 1;
        Some(old)
    }

    /// Entries in the whole table.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Entries in `seg`'s row.
    pub(crate) fn row_len(&self, seg: u32) -> usize {
        self.rows.get(seg as usize).map_or(0, |row| row.used)
    }

    /// Releases `seg`'s row; its slots read vacant again.
    pub(crate) fn free_row(&mut self, seg: u32) {
        if let Some(row) = self.rows.get_mut(seg as usize) {
            self.len -= row.used;
            row.used = 0;
            row.slots = Vec::new();
        }
    }
}

#[cfg(test)]
impl<T: Vacant> PageRows<T> {
    /// Whether `seg`'s row holds storage.
    pub(crate) fn holds_row(&self, seg: u32) -> bool {
        let row = self.rows.get(seg as usize);
        row.is_some_and(|row| row.slots.capacity() > 0)
    }

    /// The segments whose rows hold storage.
    pub(crate) fn allocated(&self) -> usize {
        (0..self.rows.len() as u32)
            .filter(|&s| self.holds_row(s))
            .count()
    }

    /// Every entry with its segment, read straight from the rows.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, T)> + '_ {
        let rows = self.rows.iter().zip(0..);
        let slots = rows.flat_map(|(row, seg)| row.slots.iter().map(move |&e| (seg, e)));
        slots.filter(|&(_, e)| e != T::VACANT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_count_their_entries_and_free_on_request() {
        let mut t = PageRows::<u32>::default();
        assert_eq!(t.insert((2, 70), 5), None);
        assert_eq!(t.insert((2, 70), 6), Some(5));
        assert_eq!(t.insert((2, 3), 1), None);
        assert_eq!(t.insert((0, 0), 9), None);
        assert_eq!(
            (t.len(), t.row_len(2), t.row_len(1), t.row_len(9)),
            (3, 2, 0, 0)
        );
        assert_eq!(t.get((2, 70)), Some(6));
        assert_eq!(t.get((2, 71)), None);
        assert_eq!(t.remove((2, 3)), Some(1));
        assert_eq!(t.remove((2, 3)), None);
        assert_eq!(t.remove((7, 3)), None);
        assert_eq!(t.remove((2, 70)), Some(6));
        assert_eq!((t.len(), t.row_len(2)), (1, 0));
        assert_eq!(t.allocated(), 2, "an emptied row keeps its storage");
        t.insert((2, 4), 8);
        t.free_row(2);
        assert_eq!((t.len(), t.row_len(2), t.get((2, 4))), (1, 0, None));
        assert_eq!(t.allocated(), 1);
        assert_eq!(t.entries().collect::<Vec<_>>(), [(0, 9)]);
    }
}
