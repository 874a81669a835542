//! Shared-memory submission/completion rings: the manager→kernel ABI.
//!
//! Table 1 shows the 379 µs manager fault dominated by its two IPC legs
//! (120 µs each). Both Douglas papers (user-mode page management /
//! allocation) argue the remedy: batch page-management operations across
//! a shared-memory boundary so the per-crossing cost is paid once per
//! batch, not once per operation. This module is that boundary, shaped
//! like io_uring: a manager fills a [`SubmissionRing`] with [`RingOp`]s
//! (pure data — no kernel entry), rings the doorbell once via
//! [`Kernel::drain_ring`], and reaps [`CompletionEntry`]s from the
//! [`CompletionRing`]. Managers hold their end as a [`RingPort`]: every
//! page operation a manager issues rides it, either coalesced into one
//! doorbell per batch ([`RingPort::submit`], then [`RingPort::flush`]) or
//! with one doorbell per op ([`RingPort::call`]), which costs exactly
//! what the paper's synchronous kernel call does. A singleton call on an
//! empty ring skips the queues — the kernel runs its op at once — at the
//! identical modelled cost and counts: a batch of one has nothing to
//! queue behind, so the host pays only for the op.
//!
//! The rings are fixed-capacity single-producer/single-consumer queues
//! with monotonic head/tail counters (indices wrap modulo capacity, the
//! counters never wrap in practice — they are `u64`). Enqueue on a full
//! ring is rejected with the typed [`RingFull`] error; it never
//! overwrites or drops an entry. FIFO order, loss-freedom and
//! wraparound behavior are pinned by the property models in
//! `tests/properties_ring.rs`.

use crate::error::KernelError;
use crate::flags::PageFlags;
use crate::kernel::Kernel;
use crate::types::{FrameId, PageNumber, SegmentId};

/// Default capacity of a submission or completion ring, in entries.
///
/// Large enough that the default manager's biggest batch site (the
/// 16-entry protection-restore loop) plus a sweep's worth of deferred
/// flag changes fit without a mid-batch flush.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// Typed rejection for an enqueue onto a full ring.
///
/// The producer must drain (submission side: kick the kernel; completion
/// side: reap) before retrying — entries are never overwritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull {
    /// The fixed capacity of the ring that rejected the entry.
    pub capacity: usize,
}

impl std::fmt::Display for RingFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring full at capacity {}", self.capacity)
    }
}

impl std::error::Error for RingFull {}

/// A fixed-capacity FIFO ring buffer with monotonic head/tail counters.
///
/// `head` is the counter of the next entry to pop, `tail` of the next
/// slot to fill; `tail - head` is the current occupancy and the slot
/// index of counter `c` is `c % capacity` — the classic io_uring shape,
/// minus the atomics (the simulation is single-threaded per machine).
#[derive(Debug, Clone)]
pub struct Ring<T> {
    slots: Vec<Option<T>>,
    head: u64,
    tail: u64,
}

impl<T> Ring<T> {
    /// Creates an empty ring of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be at least 1");
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Ring {
            slots,
            head: 0,
            tail: 0,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Whether the ring is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity() - self.len()
    }

    /// The monotonic counter of the next entry to pop.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// The monotonic counter of the next slot to fill.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Enqueues `value` at the tail.
    ///
    /// # Errors
    ///
    /// [`RingFull`] if the ring is at capacity; the ring is unchanged.
    pub fn push(&mut self, value: T) -> Result<(), RingFull> {
        if self.is_full() {
            return Err(RingFull {
                capacity: self.capacity(),
            });
        }
        let idx = (self.tail % self.capacity() as u64) as usize;
        debug_assert!(self.slots[idx].is_none(), "occupied slot at tail");
        self.slots[idx] = Some(value);
        self.tail += 1;
        Ok(())
    }

    /// Dequeues the entry at the head, if any.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let idx = (self.head % self.capacity() as u64) as usize;
        let value = self.slots[idx].take();
        debug_assert!(value.is_some(), "empty slot at head");
        self.head += 1;
        value
    }

    /// Borrows the entry at the head without dequeuing it.
    pub fn peek(&self) -> Option<&T> {
        if self.is_empty() {
            return None;
        }
        let idx = (self.head % self.capacity() as u64) as usize;
        self.slots[idx].as_ref()
    }

    /// Drains every queued entry into a `Vec`, head first.
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }
}

/// One batched kernel operation, as carried by a [`SubmissionEntry`].
///
/// These are exactly the manager-ABI calls a segment manager issues on
/// its fault/reclaim paths: page migration, flag manipulation and tier
/// exchange. Attribute queries stay synchronous calls — they return data
/// the manager branches on immediately, so there is nothing to amortize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingOp {
    /// [`Kernel::migrate_pages`].
    MigratePages {
        /// Source segment.
        src: SegmentId,
        /// Destination segment.
        dst: SegmentId,
        /// First source page.
        src_page: PageNumber,
        /// First destination page.
        dst_page: PageNumber,
        /// Pages to move.
        count: u64,
        /// Flags to set on each migrated page.
        set: PageFlags,
        /// Flags to clear on each migrated page.
        clear: PageFlags,
    },
    /// [`Kernel::modify_page_flags`].
    ModifyPageFlags {
        /// Target segment.
        seg: SegmentId,
        /// First page.
        page: PageNumber,
        /// Pages to modify.
        count: u64,
        /// Flags to set.
        set: PageFlags,
        /// Flags to clear.
        clear: PageFlags,
    },
    /// [`Kernel::migrate_frame`] — the tier-exchange primitive.
    MigrateFrame {
        /// Segment holding the page to move.
        seg: SegmentId,
        /// The page to move.
        page: PageNumber,
        /// Destination physical frame.
        dst: FrameId,
    },
}

/// A manager-submitted operation: a caller-chosen correlation token plus
/// the operation itself. Tokens are echoed verbatim in the matching
/// [`CompletionEntry`]; the kernel assigns no meaning to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionEntry {
    /// Caller-chosen correlation token.
    pub token: u64,
    /// The operation to execute.
    pub op: RingOp,
}

/// One entry posted to the [`CompletionRing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionEntry {
    /// A submitted operation was executed (successfully or not).
    Op {
        /// The submitter's correlation token, echoed.
        token: u64,
        /// The operation's result.
        result: Result<(), KernelError>,
    },
    /// A submitted operation was *not* executed because an earlier
    /// operation in the same batch failed; resubmit if still wanted.
    Cancelled {
        /// The submitter's correlation token, echoed.
        token: u64,
    },
}

/// The manager→kernel submission ring.
pub type SubmissionRing = Ring<SubmissionEntry>;

/// The kernel→manager completion ring.
pub type CompletionRing = Ring<CompletionEntry>;

/// A manager's end of the ABI: its submission and completion rings, the
/// next correlation token and a count of ops submitted.
///
/// Both rings are empty between handler activations: every submission
/// site flushes before it returns to the kernel.
#[derive(Debug, Clone)]
pub struct RingPort {
    sq: SubmissionRing,
    cq: CompletionRing,
    next_token: u64,
    submitted: u64,
}

impl RingPort {
    /// A port whose rings hold `capacity` entries each (clamped to at
    /// least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingPort {
            sq: SubmissionRing::with_capacity(capacity),
            cq: CompletionRing::with_capacity(capacity),
            next_token: 0,
            submitted: 0,
        }
    }

    /// Ops submitted through this port over its lifetime.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Enqueues `op` without entering the kernel, flushing first if the
    /// submission ring is full (so an enqueue never loses an entry).
    ///
    /// # Errors
    ///
    /// The first failure of that forced flush; `op` is then not queued.
    pub fn submit(&mut self, kernel: &mut Kernel, op: RingOp) -> Result<(), KernelError> {
        if self.sq.is_full() {
            self.flush(kernel)?;
        }
        let token = self.take_token();
        self.sq
            .push(SubmissionEntry { token, op })
            .expect("submission ring has room after flush");
        Ok(())
    }

    /// The next correlation token, counting one more op submitted.
    fn take_token(&mut self) -> u64 {
        self.submitted += 1;
        self.next_token += 1;
        self.next_token - 1
    }

    /// Rings the doorbell until the submission ring is empty and reaps
    /// every completion. Each non-empty batch charges one `kernel_call`
    /// entry; each op then runs at its service cost.
    ///
    /// # Errors
    ///
    /// The batch's first failing op, after the whole batch has been
    /// reaped. The kernel cancelled the ops queued behind it, so the same
    /// prefix takes effect as for a synchronous caller that stops at its
    /// first failing call.
    pub fn flush(&mut self, kernel: &mut Kernel) -> Result<(), KernelError> {
        let mut first_err = None;
        while !self.sq.is_empty() {
            if kernel.drain_ring(&mut self.sq, &mut self.cq) == 0 {
                break; // unreachable: the reap below always frees the cq
            }
            while let Some(entry) = self.cq.pop() {
                if let CompletionEntry::Op { result: Err(e), .. } = entry {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// One op with its own doorbell: what [`RingPort::submit`], then
    /// [`RingPort::flush`] do. A singleton batch charges exactly what the
    /// synchronous kernel call does, so sites that must observe an op's
    /// effect before their next statement pay the paper's costs.
    ///
    /// On an empty submission ring the op skips the queues: the kernel
    /// rings the doorbell and runs it at once, with the same charge, the
    /// same batch, crossing and op counts and the same token as the
    /// singleton batch, and no queue traffic. Ops already queued go
    /// first, in the same batch, as [`RingPort::submit`] then
    /// [`RingPort::flush`] send them.
    ///
    /// # Errors
    ///
    /// The op's failure, as the synchronous call would report it (with
    /// ops queued, the batch's first failure).
    pub fn call(&mut self, kernel: &mut Kernel, op: RingOp) -> Result<(), KernelError> {
        if !self.sq.is_empty() {
            self.submit(kernel, op)?;
            return self.flush(kernel);
        }
        self.take_token();
        kernel.call_ring_op(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut r: Ring<u32> = Ring::with_capacity(4);
        for i in 0..4 {
            r.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn push_on_full_is_rejected_and_lossless() {
        let mut r: Ring<u32> = Ring::with_capacity(2);
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.push(3), Err(RingFull { capacity: 2 }));
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
    }

    #[test]
    fn wraparound_reuses_slots() {
        let mut r: Ring<u32> = Ring::with_capacity(3);
        for round in 0..10u32 {
            r.push(round).unwrap();
            assert_eq!(r.pop(), Some(round));
        }
        assert_eq!(r.head(), 10);
        assert_eq!(r.tail(), 10);
        assert!(r.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r: Ring<u32> = Ring::with_capacity(2);
        assert_eq!(r.peek(), None);
        r.push(7).unwrap();
        assert_eq!(r.peek(), Some(&7));
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop(), Some(7));
    }

    #[test]
    fn drain_all_empties_in_order() {
        let mut r: Ring<u32> = Ring::with_capacity(4);
        // Offset head so the drain crosses the wrap point.
        r.push(0).unwrap();
        r.push(1).unwrap();
        r.pop();
        r.pop();
        for i in 2..6 {
            r.push(i).unwrap();
        }
        assert_eq!(r.drain_all(), vec![2, 3, 4, 5]);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Ring::<u32>::with_capacity(0);
    }

    fn modify(page: u64) -> RingOp {
        RingOp::ModifyPageFlags {
            seg: SegmentId::FRAME_POOL,
            page: PageNumber(page),
            count: 1,
            set: PageFlags::MANAGER_B,
            clear: PageFlags::empty(),
        }
    }

    #[test]
    fn port_coalesces_submissions_into_one_doorbell() {
        let mut k = Kernel::new(16);
        let mut port = RingPort::with_capacity(8);
        for p in 0..4 {
            port.submit(&mut k, modify(p)).unwrap();
        }
        assert_eq!(k.stats().crossings, 0, "submission never enters the kernel");
        port.flush(&mut k).unwrap();
        assert_eq!(k.stats().ring_batches, 1);
        assert_eq!(k.stats().ring_ops, 4);
        assert_eq!(port.submitted(), 4);
    }

    #[test]
    fn port_flushes_a_full_ring_before_queueing() {
        let mut k = Kernel::new(16);
        let mut port = RingPort::with_capacity(2);
        for p in 0..5 {
            port.submit(&mut k, modify(p)).unwrap();
        }
        port.flush(&mut k).unwrap();
        assert_eq!(k.stats().ring_batches, 3, "2 + 2 + 1");
        assert_eq!(k.stats().ring_ops, 5);
    }

    #[test]
    fn port_call_reports_the_failure_and_keeps_the_port_usable() {
        let mut k = Kernel::new(16);
        let mut port = RingPort::with_capacity(4);
        assert!(port.call(&mut k, modify(999)).is_err());
        port.call(&mut k, modify(0)).unwrap();
        assert_eq!(k.stats().ring_batches, 2, "one doorbell per call");
    }
}
