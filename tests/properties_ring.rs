//! Property-based tests of the manager ABI ([`epcm::core::ring`]): the
//! ring container against a bounded-FIFO reference model,
//! [`Kernel::drain_ring`] against the equivalent sequence of synchronous
//! calls, and whole-machine coalesced-vs-per-op-doorbell equivalence —
//! identical kernel state and trace multisets, with billing differing by
//! exactly the amortized per-call crossing charge. Plus the edge models
//! (wraparound, full rings, empty drains) and the cost-attribution
//! regression pins referenced from `kernel.rs`.

use std::collections::VecDeque;

use epcm::core::ring::{
    CompletionEntry, CompletionRing, Ring, RingFull, RingOp, RingPort, SubmissionEntry,
    SubmissionRing,
};
use epcm::core::{
    AccessKind, FrameId, Kernel, KernelError, KernelStats, ManagerId, PageFlags, PageNumber,
    SegmentId, SegmentKind, TierLayout, UserId, BASE_PAGE_SIZE,
};
use epcm::managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm::managers::{Machine, ManagerMode};
use epcm::sim::clock::{Micros, Timestamp};
use proptest::prelude::*;

// ----- helpers --------------------------------------------------------------

/// Flattens every segment's resident table into a comparable value:
/// `(segment, page, physical frame, flags bits)` per resident page.
fn kernel_fingerprint(kernel: &Kernel) -> Vec<(u32, u64, usize, u16)> {
    let mut out = Vec::new();
    let segs: Vec<SegmentId> = kernel.segment_ids().collect();
    for s in segs {
        for (p, e) in kernel.segment(s).expect("live segment").resident() {
            out.push((s.as_u32(), p.as_u64(), e.frame.index(), e.flags.bits()));
        }
    }
    out
}

/// Every kernel counter except the crossing and ring accounting, which
/// the doorbell count is allowed to change.
fn op_counters(kernel: &Kernel) -> KernelStats {
    KernelStats {
        crossings: 0,
        ring_batches: 0,
        ring_ops: 0,
        ..kernel.stats()
    }
}

/// A modify-flags submission for boot-pool page `page..page+count`.
fn modify_op(page: u64, count: u64) -> RingOp {
    RingOp::ModifyPageFlags {
        seg: SegmentId::FRAME_POOL,
        page: PageNumber(page),
        count,
        set: PageFlags::MANAGER_B,
        clear: PageFlags::empty(),
    }
}

/// Frames of the tiered kernel Model 2 runs on: DRAM, SlowMem and zram
/// thirds, so frame exchanges cross tiers in both directions.
const MODEL_TIERS: (u64, u64, u64) = (4, 4, 8);

/// A tiered kernel plus an empty anonymous segment that the model's ops
/// fill from the boot pool.
fn model_kernel() -> (Kernel, SegmentId) {
    let (dram, slow, zram) = MODEL_TIERS;
    let layout = TierLayout::new(dram, slow, zram);
    let mut k = Kernel::with_tiers(
        layout.total() as usize,
        epcm::sim::cost::CostModel::decstation_5000_200(),
        layout,
    );
    let seg = k
        .create_segment(SegmentKind::Anonymous, UserId(1), ManagerId(1), 64)
        .expect("segment");
    (k, seg)
}

/// Builds an op sequence that succeeds by construction from `(kind, a,
/// b)` draws. Kind 0 modifies flags on resident pages; kind 1 migrates a
/// run of boot-pool pages into `seg`; kind 2 exchanges the frames of two
/// resident pages of `seg` (a no-op when they coincide). A kind whose
/// precondition does not hold yet falls back to the previous one. The op
/// at `fail_at`, if any, is replaced by a failing op of its kind.
fn model_ops(seg: SegmentId, draws: &[(u8, u64, u64)], fail_at: usize) -> Vec<RingOp> {
    let (dram, slow, zram) = MODEL_TIERS;
    let boot_frames = dram + slow + zram;
    let mut frames: Vec<FrameId> = Vec::new(); // frame backing seg page i
    let mut ops = Vec::new();
    for (i, &(kind, a, b)) in draws.iter().enumerate() {
        let n = frames.len() as u64;
        let left = boot_frames - n; // boot pages n.. are still in the pool
        let kind = match kind % 3 {
            2 if n == 0 => 1,
            1 if left == 0 => 0,
            k => k,
        };
        let fail = i == fail_at;
        let op = match kind {
            0 => {
                let (target, page, span) = if n > 0 {
                    (seg, a % n, n - a % n)
                } else {
                    (SegmentId::FRAME_POOL, a % left, left - a % left)
                };
                RingOp::ModifyPageFlags {
                    seg: target,
                    page: PageNumber(if fail { 1_000 } else { page }),
                    count: (1 + b % 3).min(span),
                    set: PageFlags::MANAGER_B,
                    clear: PageFlags::REFERENCED,
                }
            }
            1 => {
                let count = (1 + a % 4).min(left);
                if !fail {
                    frames.extend((n..n + count).map(|f| FrameId::from_raw(f as u32)));
                }
                RingOp::MigratePages {
                    src: SegmentId::FRAME_POOL,
                    dst: seg,
                    src_page: PageNumber(n),
                    dst_page: PageNumber(if fail { 1_000 } else { n }),
                    count,
                    set: PageFlags::RW,
                    clear: PageFlags::empty(),
                }
            }
            _ => {
                let (page, other) = ((a % n) as usize, (b % n) as usize);
                let dst = if fail {
                    FrameId::from_raw(10_000)
                } else {
                    frames[other]
                };
                frames.swap(page, other);
                RingOp::MigrateFrame {
                    seg,
                    page: PageNumber(page as u64),
                    dst,
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// Issues `op` as the synchronous kernel call it stands for.
fn call_sync(k: &mut Kernel, op: RingOp) -> Result<(), KernelError> {
    match op {
        RingOp::MigratePages {
            src,
            dst,
            src_page,
            dst_page,
            count,
            set,
            clear,
        } => k.migrate_pages(src, dst, src_page, dst_page, count, set, clear),
        RingOp::ModifyPageFlags {
            seg,
            page,
            count,
            set,
            clear,
        } => k.modify_page_flags(seg, page, count, set, clear),
        RingOp::MigrateFrame { seg, page, dst } => k.migrate_frame(seg, page, dst),
    }
}

/// The body of Model 2: runs [`model_ops`] as synchronous calls on one
/// kernel and as a single drained batch on another, then compares state,
/// counters, billing and completions.
fn assert_drain_matches_sync(draws: &[(u8, u64, u64)], fail_at: usize) {
    let (mut direct, seg) = model_kernel();
    let ops_list = model_ops(seg, draws, fail_at);
    let n = ops_list.len();

    // Synchronous reference: call until the first failure.
    let d0 = direct.now();
    let mut executed = 0u64;
    for op in ops_list.iter().cloned() {
        executed += 1;
        if call_sync(&mut direct, op).is_err() {
            break;
        }
    }
    let direct_elapsed = direct.now().duration_since(d0);
    assert_eq!(
        executed < n as u64,
        fail_at < n - 1,
        "only the injected op fails"
    );

    // Batched: enqueue everything, one doorbell.
    let (mut ringed, _) = model_kernel();
    let mut sq: SubmissionRing = Ring::with_capacity(n);
    let mut cq: CompletionRing = Ring::with_capacity(n);
    for (i, op) in ops_list.into_iter().enumerate() {
        sq.push(SubmissionEntry {
            token: i as u64,
            op,
        })
        .expect("sized to fit");
    }
    let r0 = ringed.now();
    assert_eq!(
        ringed.drain_ring(&mut sq, &mut cq),
        n,
        "whole batch consumed"
    );
    let ring_elapsed = ringed.now().duration_since(r0);

    // Identical end state, identical call counters.
    assert_eq!(kernel_fingerprint(&direct), kernel_fingerprint(&ringed));
    assert_eq!(op_counters(&direct), op_counters(&ringed));
    let rs = ringed.stats();
    assert_eq!(rs.ring_batches, 1);
    assert_eq!(rs.ring_ops, executed, "drain executed the same prefix");
    assert_eq!(rs.crossings, 1, "one doorbell crossing for the batch");
    assert_eq!(direct.stats().crossings, executed, "one crossing per call");
    // Billing: the batch saves exactly the amortized entry charges.
    let call = ringed.costs().kernel_call;
    assert_eq!(
        direct_elapsed + call,
        ring_elapsed + call * executed,
        "batch must save kernel_call x (executed - 1) exactly"
    );
    // Completions: Ok prefix, at most one Err, Cancelled remainder,
    // tokens echoed in order.
    let completions = cq.drain_all();
    assert_eq!(completions.len(), n);
    for (i, c) in completions.into_iter().enumerate() {
        match c {
            CompletionEntry::Op { token, result } => {
                assert_eq!(token, i as u64);
                assert!((i as u64) < executed);
                if (i as u64) < executed - 1 {
                    assert_eq!(result, Ok(()));
                } else if fail_at < n {
                    assert!(result.is_err(), "last executed op was the failure");
                }
            }
            CompletionEntry::Cancelled { token } => {
                assert_eq!(token, i as u64);
                assert!((i as u64) >= executed, "cancelled op was executed");
            }
        }
    }
}

/// Runs a random store/load/tick workload on a pressured machine under
/// one ABI mode and returns the machine for inspection.
fn run_workload(accesses: &[(u8, u64, u8)], batched: bool) -> Machine {
    let mut m = Machine::new(40);
    let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        DefaultManagerConfig {
            target_free: 4,
            low_water: 1,
            refill_batch: 4,
            sample_batch: 8,
            batched_abi: batched,
            ..DefaultManagerConfig::default()
        },
    )));
    m.set_default_manager(id);
    let seg = m
        .create_segment(SegmentKind::Anonymous, 48)
        .expect("segment");
    for &(op, page, byte) in accesses {
        match op % 3 {
            0 => m
                .store_bytes(seg, page * BASE_PAGE_SIZE, &[byte])
                .expect("store"),
            1 => {
                let mut buf = [0u8; 1];
                m.load(seg, page * BASE_PAGE_SIZE, &mut buf).expect("load");
            }
            _ => {
                // A tick runs the sampling sweep (a multi-op batch site);
                // later accesses then take protection-restore faults.
                m.kernel_mut().charge(Micros::from_secs(1));
                m.tick().expect("tick");
            }
        }
    }
    m
}

/// What one port step leaves behind: its result, the kernel's resident
/// tables, every counter, the clock, and the port's submitted count.
type PortStep = (
    Result<(), KernelError>,
    Vec<(u32, u64, usize, u16)>,
    KernelStats,
    Timestamp,
    u64,
);

/// Runs `ops` through a port of `capacity` on a fresh model kernel. An op
/// paired with `true` is a call: [`RingPort::call`] itself, or with
/// `spelled_out` what it stands for, [`RingPort::submit`] then
/// [`RingPort::flush`]. An op paired with `false` is only submitted; a
/// final flush sends what is still queued.
fn run_port(ops: &[(RingOp, bool)], capacity: usize, spelled_out: bool) -> Vec<PortStep> {
    let (mut k, _) = model_kernel();
    let mut port = RingPort::with_capacity(capacity);
    let mut steps = Vec::new();
    let mut observe = |k: &Kernel, port: &RingPort, result| {
        let step = (
            result,
            kernel_fingerprint(k),
            k.stats(),
            k.now(),
            port.submitted(),
        );
        steps.push(step);
    };
    for (op, call) in ops.iter().cloned() {
        let result = match (call, spelled_out) {
            (true, false) => port.call(&mut k, op),
            (true, true) => port.submit(&mut k, op).and_then(|()| port.flush(&mut k)),
            (false, _) => port.submit(&mut k, op),
        };
        observe(&k, &port, result);
    }
    let result = port.flush(&mut k);
    observe(&k, &port, result);
    steps
}

// ----- proptest models ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Model 1: the ring is a bounded FIFO. Against a `VecDeque`
    /// reference, every interleaving of pushes and pops preserves order,
    /// loses nothing, duplicates nothing, and rejects enqueue-on-full
    /// with the typed error — across arbitrarily many wraparounds.
    #[test]
    fn ring_behaves_like_a_bounded_fifo(
        capacity in 1usize..9,
        ops in proptest::collection::vec((any::<bool>(), 0u64..1000), 1..200),
    ) {
        let mut ring: Ring<u64> = Ring::with_capacity(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        for (push, v) in ops {
            if push {
                if model.len() < capacity {
                    prop_assert_eq!(ring.push(v), Ok(()));
                    model.push_back(v);
                } else {
                    prop_assert_eq!(ring.push(v), Err(RingFull { capacity }));
                }
            } else {
                prop_assert_eq!(ring.pop(), model.pop_front());
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.is_full(), model.len() == capacity);
            prop_assert_eq!(ring.free(), capacity - model.len());
            prop_assert_eq!(ring.peek(), model.front());
            // Monotonic counters: occupancy is tail - head.
            prop_assert_eq!(ring.tail() - ring.head(), model.len() as u64);
        }
        let expected: Vec<u64> = model.into_iter().collect();
        prop_assert_eq!(ring.drain_all(), expected);
        prop_assert!(ring.is_empty());
    }

    /// Model 2: one `drain_ring` of n operations — flag changes,
    /// boot-pool migrations and cross-tier frame exchanges — leaves a
    /// tiered kernel in exactly the state of the n equivalent synchronous
    /// calls (stopping at the first failure), posts the right completion
    /// per entry, and bills exactly `kernel_call × (ops_executed - 1)`
    /// less — the amortized crossing charge and nothing else.
    #[test]
    fn drain_matches_synchronous_calls_exactly(
        draws in proptest::collection::vec((0u8..3, 0u64..64, 0u64..64), 1..40),
        fail_at in 0usize..80, // >= draws.len() means no injected failure
    ) {
        assert_drain_matches_sync(&draws, fail_at);
    }

    /// Model 2b: [`RingPort::call`] is [`RingPort::submit`] then
    /// [`RingPort::flush`]. On random mixes of calls and queued
    /// submissions of every op kind, at ring capacities that force
    /// flushes, with and without an injected failure, every step leaves
    /// the same resident tables, every `KernelStats` field, the clock and
    /// the port's count, and returns the same error.
    #[test]
    fn port_call_matches_submit_then_flush(
        draws in proptest::collection::vec((0u8..3, 0u64..64, 0u64..64, any::<bool>()), 1..40),
        fail_at in 0usize..80, // >= draws.len() means no injected failure
        capacity in 1usize..6,
    ) {
        let (_, seg) = model_kernel();
        let kinds: Vec<(u8, u64, u64)> = draws.iter().map(|&(k, a, b, _)| (k, a, b)).collect();
        let ops: Vec<(RingOp, bool)> = model_ops(seg, &kinds, fail_at)
            .into_iter()
            .zip(draws.iter().map(|d| d.3))
            .collect();
        prop_assert_eq!(run_port(&ops, capacity, false), run_port(&ops, capacity, true));
    }

    /// Model 3: coalescing batch sites is state-invisible. Any random
    /// pressured workload (stores, loads, sampling ticks) leaves
    /// byte-identical resident tables, frame assignments, page flags and
    /// fault counters whether ops share doorbells or ring one each; only
    /// the ring counters (and time) may differ.
    #[test]
    fn batched_abi_preserves_kernel_state_on_random_workloads(
        accesses in proptest::collection::vec((0u8..3, 0u64..48, any::<u8>()), 1..120),
    ) {
        let direct = run_workload(&accesses, false);
        let batched = run_workload(&accesses, true);
        prop_assert_eq!(
            kernel_fingerprint(direct.kernel()),
            kernel_fingerprint(batched.kernel())
        );
        prop_assert_eq!(op_counters(direct.kernel()), op_counters(batched.kernel()));
        prop_assert_eq!(
            direct.stats().manager_calls,
            batched.stats().manager_calls
        );
        let k = direct.kernel_stats();
        prop_assert_eq!(k.ring_batches, k.ring_ops, "every direct batch holds one op");
    }

    /// Model 4: billing differs by exactly the amortized crossing
    /// charge. `direct - batched = kernel_call × (ring_ops -
    /// ring_batches)`, to the microsecond, for any workload — singleton
    /// batches are free, multi-op batches save `(n-1)` entry charges.
    #[test]
    fn batched_abi_billing_differs_only_by_doorbell_amortization(
        accesses in proptest::collection::vec((0u8..3, 0u64..48, any::<u8>()), 1..120),
    ) {
        let direct = run_workload(&accesses, false);
        let batched = run_workload(&accesses, true);
        let k = batched.kernel_stats();
        let call = batched.kernel().costs().kernel_call;
        let saved = call * (k.ring_ops - k.ring_batches);
        prop_assert_eq!(
            direct.now().duration_since(batched.now()),
            saved,
            "billing delta must be the amortized entry charges: ops={} batches={}",
            k.ring_ops,
            k.ring_batches
        );
        // Crossings collapse by exactly the same count.
        prop_assert_eq!(
            direct.kernel_stats().crossings - batched.kernel_stats().crossings,
            k.ring_ops - k.ring_batches
        );
    }

    /// Model 5: coalescing is trace-invisible. Both modes emit the
    /// same multiset of trace events (kind and payload; timestamps are
    /// the one permitted difference).
    #[test]
    fn batched_abi_preserves_trace_multiset(
        accesses in proptest::collection::vec((0u8..3, 0u64..48, any::<u8>()), 1..80),
    ) {
        let run = |batched: bool| {
            let mut m = Machine::new(40);
            let tracer = m.enable_event_tracing(64 * 1024);
            let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
                ManagerMode::Server,
                DefaultManagerConfig {
                    target_free: 4,
                    low_water: 1,
                    refill_batch: 4,
                    sample_batch: 8,
                    batched_abi: batched,
                    ..DefaultManagerConfig::default()
                },
            )));
            m.set_default_manager(id);
            let seg = m.create_segment(SegmentKind::Anonymous, 48).expect("segment");
            for &(op, page, byte) in &accesses {
                match op % 3 {
                    0 => m.store_bytes(seg, page * BASE_PAGE_SIZE, &[byte]).expect("store"),
                    1 => {
                        let mut buf = [0u8; 1];
                        m.load(seg, page * BASE_PAGE_SIZE, &mut buf).expect("load");
                    }
                    _ => {
                        m.kernel_mut().charge(Micros::from_secs(1));
                        m.tick().expect("tick");
                    }
                }
            }
            let mut kinds: Vec<String> = tracer
                .events()
                .into_iter()
                .map(|e| format!("{:?}", e.kind))
                .collect();
            kinds.sort_unstable();
            kinds
        };
        prop_assert_eq!(run(false), run(true));
    }
}

// ----- edge models ----------------------------------------------------------

/// Model 2 with a failure injected at every position of one fixed batch
/// that migrates pages out of DRAM and SlowMem, changes flags and
/// exchanges frames across tiers (once as a no-op), so each op kind
/// fails at least once; the last run injects nothing.
#[test]
fn injected_failure_of_every_op_kind_matches_synchronous_calls() {
    let draws = [
        (1, 3, 0), // migrate 4 DRAM pages
        (0, 1, 2), // modify pages 1..4
        (1, 3, 0), // migrate 4 SlowMem pages
        (2, 0, 6), // exchange DRAM page 0 with SlowMem page 6
        (2, 5, 5), // no-op exchange
        (1, 1, 0), // migrate 2 zram pages
        (2, 9, 2), // exchange zram page 9 with DRAM page 2
        (0, 7, 0), // modify page 7
    ];
    for fail_at in 0..=draws.len() {
        assert_drain_matches_sync(&draws, fail_at);
    }
}

/// A call on an empty ring and a call behind queued submissions, each
/// with and without a failure, leave what `submit` then `flush` leave,
/// step by step.
#[test]
fn port_call_matches_submit_then_flush_on_empty_and_queued_rings() {
    let (_, seg) = model_kernel();
    let draws = [
        (1, 3, 0),
        (0, 1, 2),
        (2, 0, 3),
        (0, 2, 0),
        (1, 1, 0),
        (0, 0, 1),
    ];
    let calls = [true, false, true, false, false, true];
    for fail_at in 0..=draws.len() {
        let ops: Vec<(RingOp, bool)> = model_ops(seg, &draws, fail_at)
            .into_iter()
            .zip(calls)
            .collect();
        for capacity in [1, 2, 8] {
            let called = run_port(&ops, capacity, false);
            assert_eq!(called, run_port(&ops, capacity, true), "fail_at {fail_at}");
            let failed = called.iter().filter(|s| s.0.is_err()).count();
            assert_eq!(failed > 0, fail_at < draws.len(), "fail_at {fail_at}");
        }
    }
}

/// An empty drain — nothing submitted — consumes nothing, charges
/// nothing, and counts nothing.
#[test]
fn empty_drain_charges_nothing() {
    let mut k = Kernel::new(16);
    let mut sq: SubmissionRing = Ring::with_capacity(4);
    let mut cq: CompletionRing = Ring::with_capacity(4);
    let t0 = k.now();
    assert_eq!(k.drain_ring(&mut sq, &mut cq), 0);
    assert_eq!(k.now(), t0);
    assert_eq!(k.stats().ring_batches, 0);
    assert_eq!(k.stats().crossings, 0);
    assert!(cq.is_empty());
}

/// A full completion ring applies backpressure: the drain consumes only
/// what it can complete, and a drain with no completion space at all is
/// an empty drain. Nothing is ever dropped.
#[test]
fn full_completion_ring_applies_backpressure() {
    let mut k = Kernel::new(16);
    let mut sq: SubmissionRing = Ring::with_capacity(8);
    let mut cq: CompletionRing = Ring::with_capacity(3);
    for i in 0..5u64 {
        sq.push(SubmissionEntry {
            token: i,
            op: modify_op(i, 1),
        })
        .expect("room");
    }
    // Only 3 completion slots: 3 consumed, 2 still queued.
    assert_eq!(k.drain_ring(&mut sq, &mut cq), 3);
    assert_eq!(sq.len(), 2);
    assert!(cq.is_full());
    // No space at all: an empty drain, charged nothing.
    let t0 = k.now();
    assert_eq!(k.drain_ring(&mut sq, &mut cq), 0);
    assert_eq!(k.now(), t0);
    // Reap, then the rest flows.
    cq.drain_all();
    assert_eq!(k.drain_ring(&mut sq, &mut cq), 2);
    assert!(sq.is_empty());
    assert_eq!(k.stats().ring_ops, 5);
    assert_eq!(k.stats().ring_batches, 2);
}

/// The first failing operation cancels the rest of the batch without
/// executing it — the synchronous stop-at-first-error semantics.
#[test]
fn first_failure_cancels_the_rest() {
    let mut k = Kernel::new(16);
    let mut sq: SubmissionRing = Ring::with_capacity(4);
    let mut cq: CompletionRing = Ring::with_capacity(4);
    for (i, op) in [modify_op(0, 1), modify_op(999, 1), modify_op(1, 1)]
        .into_iter()
        .enumerate()
    {
        sq.push(SubmissionEntry {
            token: i as u64,
            op,
        })
        .expect("room");
    }
    assert_eq!(k.drain_ring(&mut sq, &mut cq), 3);
    let completions = cq.drain_all();
    assert!(matches!(
        completions[0],
        CompletionEntry::Op {
            token: 0,
            result: Ok(())
        }
    ));
    assert!(matches!(
        completions[1],
        CompletionEntry::Op {
            token: 1,
            result: Err(_)
        }
    ));
    assert!(matches!(
        completions[2],
        CompletionEntry::Cancelled { token: 2 }
    ));
    // The cancelled op did not run: page 1 keeps its boot flags.
    assert_eq!(k.stats().ring_ops, 2, "cancelled entries are not executed");
    let entry = k
        .segment(SegmentId::FRAME_POOL)
        .expect("boot pool")
        .entry(PageNumber(1))
        .expect("resident");
    assert!(!entry.flags.contains(PageFlags::MANAGER_B));
}

// ----- cost-attribution regression pins -------------------------------------
// The ring work audited every call path's `kernel_call` entry charge;
// this pins the site that folds the charge into a composite cost and
// must NOT add another on top.

/// `modify_page_flags` charges exactly one kernel call plus the base +
/// per-page service cost (referenced from the comment on
/// `Kernel::modify_page_flags_at`).
#[test]
fn single_kernel_call_charged_per_modify() {
    let mut k = Kernel::new(16);
    let costs = k.costs().clone();
    let t0 = k.now();
    k.modify_page_flags(
        SegmentId::FRAME_POOL,
        PageNumber(0),
        3,
        PageFlags::MANAGER_B,
        PageFlags::empty(),
    )
    .expect("modify");
    assert_eq!(
        k.now().duration_since(t0),
        costs.kernel_call + costs.modify_flags_base + costs.modify_flags_per_page * 3
    );
}

/// The server-mode fault path charges its IPC pair exactly once (Table
/// 1's 379 µs), and a singleton ring batch reproduces it to the
/// microsecond — the cost-neutrality that makes single-op ring sites
/// safe everywhere.
#[test]
fn server_fault_charges_one_ipc_pair_in_both_modes() {
    let measure = |batched: bool| {
        let mut m = Machine::new(256);
        let id = m.register_manager(Box::new(DefaultSegmentManager::with_config(
            ManagerMode::Server,
            DefaultManagerConfig {
                batched_abi: batched,
                ..DefaultManagerConfig::default()
            },
        )));
        m.set_default_manager(id);
        let seg = m
            .create_segment(SegmentKind::Anonymous, 8)
            .expect("segment");
        m.touch(seg, 0, AccessKind::Write).expect("warm fault");
        let t0 = m.now();
        m.touch(seg, 1, AccessKind::Write).expect("measured fault");
        (
            m.now().duration_since(t0),
            m.kernel().costs().vpp_minimal_fault_server(),
        )
    };
    let (direct, expected) = measure(false);
    assert_eq!(direct, expected, "one IPC pair, one kernel call: 379 us");
    let (batched, _) = measure(true);
    assert_eq!(batched, expected, "a singleton batch is cost-neutral");
}
