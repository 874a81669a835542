//! Property-based tests for the simulation substrate.

use epcm_sim::clock::{Micros, Timestamp};
use epcm_sim::disk::{Block, Device, FaultPlan, FileId, FileStore, FileStoreError, BLOCK_SIZE};
use epcm_sim::events::{EventQueue, ExtendError, MultiServer, ShardedEventQueue};
use epcm_sim::rng::Rng;
use epcm_sim::stats::{Histogram, Summary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging summaries in any split equals sequential accumulation.
    #[test]
    fn summary_merge_is_split_invariant(
        samples in proptest::collection::vec(0u64..1_000_000, 1..200),
        split in 0usize..200,
    ) {
        let split = split % samples.len();
        let sequential: Summary = samples.iter().map(|&s| Micros::new(s)).collect();
        let mut left: Summary = samples[..split].iter().map(|&s| Micros::new(s)).collect();
        let right: Summary = samples[split..].iter().map(|&s| Micros::new(s)).collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), sequential.count());
        prop_assert_eq!(left.total(), sequential.total());
        prop_assert_eq!(left.min(), sequential.min());
        prop_assert_eq!(left.max(), sequential.max());
        prop_assert!((left.std_dev() - sequential.std_dev()).abs() < 1e-6);
    }

    /// The histogram never loses samples, and its quantile bound is an
    /// actual upper bound for the requested fraction.
    #[test]
    fn histogram_counts_and_bounds(samples in proptest::collection::vec(0u64..u64::MAX / 2, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(Micros::new(s));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let bucket_total: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(bucket_total, samples.len() as u64);
        let median_bound = h.quantile_upper_bound(0.5).as_micros();
        let below = samples.iter().filter(|&&s| s <= median_bound).count();
        prop_assert!(below * 2 >= samples.len(), "median bound excludes half");
    }

    /// Event dispatch is globally ordered by time with FIFO ties, no
    /// matter the insertion order.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Timestamp::from_micros(t), i);
        }
        let mut last_time = 0u64;
        let mut last_seq_at_time = std::collections::HashMap::new();
        while let Some((t, i)) = q.next() {
            prop_assert!(t.as_micros() >= last_time);
            if let Some(&prev) = last_seq_at_time.get(&t.as_micros()) {
                prop_assert!(i > prev, "FIFO violated at t={t}");
            }
            last_seq_at_time.insert(t.as_micros(), i);
            last_time = t.as_micros();
        }
    }

    /// Same-timestamp events pop in insertion order regardless of how
    /// many distinct timestamps surround them.
    #[test]
    fn event_queue_same_timestamp_is_fifo(
        tie_time in 0u64..100,
        tie_count in 1usize..50,
        noise in proptest::collection::vec(0u64..200, 0..50),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in noise.iter().enumerate() {
            q.schedule(Timestamp::from_micros(t), usize::MAX - i);
        }
        for i in 0..tie_count {
            q.schedule(Timestamp::from_micros(tie_time), i);
        }
        let mut ties = Vec::new();
        while let Some((t, e)) = q.next() {
            if t.as_micros() == tie_time && e < tie_count {
                ties.push(e);
            }
        }
        prop_assert_eq!(ties, (0..tie_count).collect::<Vec<_>>());
    }

    /// Interleaved push/pop preserves virtual-clock monotonicity: once an
    /// event at time `t` has dispatched, no later pop goes backwards, even
    /// when new events keep being scheduled at the current instant.
    #[test]
    fn event_queue_interleaved_push_pop_is_monotonic(
        ops in proptest::collection::vec((any::<bool>(), 0u64..500), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut id = 0usize;
        for &(push, delay) in &ops {
            if push || q.is_empty() {
                // Schedule relative to the current virtual time, as a
                // simulation dispatch loop does.
                q.schedule(Timestamp::from_micros(now + delay), id);
                id += 1;
            } else {
                let (t, _) = q.next().expect("non-empty");
                prop_assert!(
                    t.as_micros() >= now,
                    "virtual clock went backwards: {} < {now}", t.as_micros()
                );
                now = t.as_micros();
            }
        }
        while let Some((t, _)) = q.next() {
            prop_assert!(t.as_micros() >= now);
            now = t.as_micros();
        }
    }

    /// An arbitrary op-sequence against the real queue matches a naive
    /// model holding `(time, seq)` pairs in a sorted Vec — the reference
    /// semantics the binary heap must reproduce exactly.
    #[test]
    fn event_queue_matches_naive_sorted_vec_model(
        ops in proptest::collection::vec((any::<bool>(), 0u64..300), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (time, seq)
        let mut seq = 0u64;
        for &(push, time) in &ops {
            if push {
                q.schedule(Timestamp::from_micros(time), seq);
                model.push((time, seq));
                seq += 1;
            } else {
                let popped = q.next().map(|(t, e)| (t.as_micros(), e));
                let expect = model
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &entry)| entry)
                    .map(|(i, _)| i)
                    .map(|i| model.remove(i));
                prop_assert_eq!(popped, expect);
            }
        }
        // Drain both; the full remaining order must agree.
        while let Some((t, e)) = q.next() {
            let i = model
                .iter()
                .enumerate()
                .min_by_key(|&(_, &entry)| entry)
                .map(|(i, _)| i)
                .expect("model has an entry for every queue event");
            prop_assert_eq!((t.as_micros(), e), model.remove(i));
        }
        prop_assert!(model.is_empty(), "queue drained before the model");
    }

    /// Per-server completions are monotonic under arbitrary reserve /
    /// checked-extend sequences, and `extend_reservation` rejects exactly
    /// the extensions that arrive after a later reservation was placed on
    /// the same server — the non-monotonicity hazard the unchecked
    /// `MultiServer::extend` documents.
    #[test]
    fn multiserver_checked_extend_keeps_completions_monotonic(
        servers in 1usize..4,
        ops in proptest::collection::vec((any::<bool>(), 0u64..500, 1u64..500), 1..150),
    ) {
        let mut bank = MultiServer::new(servers);
        let mut now = Timestamp::ZERO;
        // Per server: completion time of its most recent reservation, and
        // the full list of reservations ever placed on it.
        let mut last_completion = vec![Timestamp::ZERO; servers];
        let mut held: Vec<epcm_sim::events::Reservation> = Vec::new();
        let mut expected_busy = Micros::ZERO;
        for &(reserve, advance, amount) in &ops {
            now += Micros::new(advance);
            if reserve || held.is_empty() {
                let service = Micros::new(amount);
                let r = bank.reserve(now, service);
                expected_busy += service;
                // New reservations never start before the server's
                // previous completion.
                prop_assert!(r.starts >= last_completion[r.server]);
                prop_assert!(r.completes >= r.starts);
                last_completion[r.server] = r.completes;
                held.push(r);
            } else {
                // Try to extend the oldest held reservation.
                let r = held.remove(0);
                let extra = Micros::new(amount);
                match bank.extend_reservation(&r, extra) {
                    Ok(updated) => {
                        // Accepted only while still the most recent: the
                        // extension moves that server's horizon forward.
                        prop_assert_eq!(r.completes, last_completion[r.server]);
                        prop_assert_eq!(updated.completes, r.completes + extra);
                        expected_busy += extra;
                        last_completion[r.server] = updated.completes;
                        held.push(updated);
                    }
                    Err(ExtendError::NotMostRecent { expected, actual, .. }) => {
                        // Rejected exactly when a later reservation
                        // intervened; nothing mutated.
                        prop_assert_eq!(expected, r.completes);
                        prop_assert_eq!(actual, last_completion[r.server]);
                        prop_assert!(actual > r.completes);
                    }
                    Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                }
            }
            prop_assert_eq!(bank.total_busy(), expected_busy);
        }
    }

    /// Rng::below never exceeds its bound and Rng::range stays in range.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX, lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
            let v = rng.range(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
        }
    }

    /// Micros::mul_f64 and saturating_sub never panic and behave sanely.
    #[test]
    fn micros_arithmetic_total(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4, f in 0.0f64..3.0) {
        let (x, y) = (Micros::new(a), Micros::new(b));
        prop_assert_eq!(x.saturating_sub(y) + y.saturating_sub(x),
            Micros::new(a.abs_diff(b)));
        let scaled = x.mul_f64(f);
        if f >= 1.0 {
            prop_assert!(scaled >= x.mul_f64(1.0).saturating_sub(Micros::new(1)));
        } else {
            prop_assert!(scaled <= x + Micros::new(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cross-shard merge is exact: for an arbitrary interleaving of
    /// inserts and pops, a [`ShardedEventQueue`] whose events are routed
    /// to arbitrary shards dispatches byte-for-byte the global
    /// `(time, seq)` order of a flat unsharded [`EventQueue`] fed the
    /// same insertion sequence. This is the determinism contract the
    /// sharded kernel (DESIGN.md §12) rests on.
    #[test]
    fn sharded_merge_matches_flat_queue(
        ops in proptest::collection::vec(
            // (schedule? | pop, time, routed shard)
            (any::<bool>(), 0u64..400, 0usize..16), 1..300),
        shards in 1usize..9,
    ) {
        let mut flat = EventQueue::new();
        let mut sharded = ShardedEventQueue::new(shards);
        let mut payload = 0usize;
        for &(is_schedule, time, route) in &ops {
            if is_schedule {
                let t = Timestamp::from_micros(time);
                flat.schedule(t, payload);
                sharded.schedule(route % shards, t, payload);
                payload += 1;
            } else {
                prop_assert_eq!(
                    flat.next(),
                    sharded.next_merged().map(|(_, t, e)| (t, e)),
                    "interleaved pop diverged"
                );
            }
        }
        // Drain the rest: still identical, shard by shard.
        loop {
            let f = flat.next();
            let s = sharded.next_merged().map(|(_, t, e)| (t, e));
            prop_assert_eq!(f, s, "drain diverged");
            if f.is_none() {
                break;
            }
        }
    }

    /// Routing is bookkeeping only: the same insertion sequence merged
    /// under two different shard counts yields the same global order.
    #[test]
    fn merge_order_is_grouping_invariant(
        events in proptest::collection::vec((0u64..200, 0usize..32), 1..150),
        a in 1usize..9,
        b in 1usize..9,
    ) {
        let mut qa = ShardedEventQueue::new(a);
        let mut qb = ShardedEventQueue::new(b);
        for (i, &(time, lane)) in events.iter().enumerate() {
            let t = Timestamp::from_micros(time);
            qa.schedule(lane % a, t, i);
            qb.schedule(lane % b, t, i);
        }
        let da: Vec<(Timestamp, usize)> =
            qa.drain_merged().into_iter().map(|(_, t, e)| (t, e)).collect();
        let db: Vec<(Timestamp, usize)> =
            qb.drain_merged().into_iter().map(|(_, t, e)| (t, e)).collect();
        prop_assert_eq!(da, db);
    }
}

/// One operation on a [`FileStore`] and its flat reference model.
#[derive(Debug, Clone)]
enum StoreOp {
    Create {
        size: u64,
    },
    CreateWith {
        size: u64,
        seed: u8,
    },
    Read {
        file: usize,
        offset: u64,
        len: u64,
    },
    Write {
        file: usize,
        offset: u64,
        len: u64,
        seed: u8,
    },
    ReadBlock {
        file: usize,
        index: u64,
    },
    WriteBlock {
        file: usize,
        index: u64,
        seed: u8,
    },
}

/// A byte position near the first few blocks, biased to block edges.
fn position() -> impl Strategy<Value = u64> {
    (
        0u64..6,
        prop_oneof![Just(0u64), Just(1), Just(BLOCK_SIZE - 1), 0..BLOCK_SIZE],
    )
        .prop_map(|(block, within)| block * BLOCK_SIZE + within)
}

/// A transfer length: empty, one block, or anything up to two blocks.
fn length() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(BLOCK_SIZE), 0..2 * BLOCK_SIZE + 100]
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        position().prop_map(|size| StoreOp::Create { size }),
        (position(), any::<u8>()).prop_map(|(size, seed)| StoreOp::CreateWith { size, seed }),
        (0usize..8, position(), length()).prop_map(|(file, offset, len)| StoreOp::Read {
            file,
            offset,
            len
        }),
        (0usize..8, position(), length(), any::<u8>()).prop_map(|(file, offset, len, seed)| {
            StoreOp::Write {
                file,
                offset,
                len,
                seed,
            }
        }),
        (0usize..8, 0u64..7).prop_map(|(file, index)| StoreOp::ReadBlock { file, index }),
        (0usize..8, 0u64..7, any::<u8>()).prop_map(|(file, index, seed)| StoreOp::WriteBlock {
            file,
            index,
            seed
        }),
    ]
}

fn pattern(seed: u8, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i % 251) as u8))
        .collect()
}

fn block_of(bytes: &[u8]) -> Block {
    let mut block = Block::zeroed();
    block.make_mut()[..bytes.len()].copy_from_slice(bytes);
    block
}

/// Files as flat byte vectors, with the store's counters and a
/// from-scratch rendering of its per-block latency rule.
struct FlatModel {
    device: Device,
    files: Vec<Vec<u8>>,
    last_block: Option<(usize, u64)>,
    reads: u64,
    writes: u64,
    ops: u64,
}

impl FlatModel {
    fn latency(&mut self, file: usize, offset: u64, len: u64) -> Micros {
        let mut total = Micros::ZERO;
        if len == 0 {
            return total;
        }
        for block in offset / BLOCK_SIZE..=(offset + len - 1) / BLOCK_SIZE {
            let prev = self.last_block.filter(|&(f, _)| f == file).map(|(_, b)| b);
            total += self.device.block_latency(block, prev);
            self.last_block = Some((file, block));
        }
        total
    }

    fn read(
        &mut self,
        id: FileId,
        file: usize,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, Micros), FileStoreError> {
        let size = self.files[file].len() as u64;
        if offset + len > size {
            return Err(FileStoreError::OutOfRange {
                file: id,
                offset,
                len,
                size,
            });
        }
        self.ops += 1;
        self.reads += 1;
        let bytes = self.files[file][offset as usize..(offset + len) as usize].to_vec();
        Ok((bytes, self.latency(file, offset, len)))
    }

    fn write(&mut self, file: usize, offset: u64, bytes: &[u8]) -> Micros {
        self.ops += 1;
        self.writes += 1;
        let data = &mut self.files[file];
        let end = offset as usize + bytes.len();
        if end > data.len() {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(bytes);
        self.latency(file, offset, bytes.len() as u64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The block-backed store behaves exactly like flat byte vectors:
    /// bytes, sizes, counters, operation indices, latencies and range
    /// errors, for byte and block calls alike.
    #[test]
    fn file_store_matches_flat_model(ops in proptest::collection::vec(store_op(), 1..60)) {
        let device = Device::disk_1992();
        let mut store = FileStore::new(device);
        let mut model = FlatModel {
            device,
            files: Vec::new(),
            last_block: None,
            reads: 0,
            writes: 0,
            ops: 0,
        };
        let mut ids = vec![store.create("first", 3 * BLOCK_SIZE as usize + 7)];
        model.files.push(vec![0; 3 * BLOCK_SIZE as usize + 7]);
        for op in ops {
            let pick = |file: usize| file % ids.len();
            match op {
                StoreOp::Create { size } => {
                    ids.push(store.create("f", size as usize));
                    model.files.push(vec![0; size as usize]);
                }
                StoreOp::CreateWith { size, seed } => {
                    ids.push(store.create_with("f", pattern(seed, size)));
                    model.files.push(pattern(seed, size));
                }
                StoreOp::Read { file, offset, len } => {
                    let f = pick(file);
                    let mut buf = vec![0xAA; len as usize];
                    let got = store.read(ids[f], offset, &mut buf).map(|lat| (buf, lat));
                    prop_assert_eq!(got, model.read(ids[f], f, offset, len));
                }
                StoreOp::Write { file, offset, len, seed } => {
                    let f = pick(file);
                    let bytes = pattern(seed, len);
                    let got = store.write(ids[f], offset, &bytes);
                    prop_assert_eq!(got, Ok(model.write(f, offset, &bytes)));
                }
                StoreOp::ReadBlock { file, index } => {
                    let f = pick(file);
                    let offset = index * BLOCK_SIZE;
                    let size = model.files[f].len() as u64;
                    let got = store.read_block(ids[f], index);
                    if offset >= size {
                        prop_assert_eq!(got.map(|(_, latency)| latency), Err(FileStoreError::OutOfRange {
                            file: ids[f],
                            offset,
                            len: BLOCK_SIZE,
                            size,
                        }));
                    } else {
                        let (bytes, latency) = model
                            .read(ids[f], f, offset, BLOCK_SIZE.min(size - offset))
                            .expect("in range");
                        let (block, got) = got.expect("in range");
                        prop_assert_eq!(got, latency);
                        prop_assert_eq!(block.as_slice(), block_of(&bytes).as_slice());
                    }
                }
                StoreOp::WriteBlock { file, index, seed } => {
                    let f = pick(file);
                    let bytes = pattern(seed, BLOCK_SIZE);
                    let got = store.write_block(ids[f], index, &block_of(&bytes));
                    prop_assert_eq!(got, Ok(model.write(f, index * BLOCK_SIZE, &bytes)));
                }
            }
            prop_assert_eq!(store.read_count(), model.reads);
            prop_assert_eq!(store.write_count(), model.writes);
            prop_assert_eq!(store.op_index(), model.ops);
        }
        for (f, &id) in ids.iter().enumerate() {
            let expect = &model.files[f];
            prop_assert_eq!(store.size(id), Ok(expect.len() as u64));
            let mut buf = vec![0xAA; expect.len()];
            store.read(id, 0, &mut buf).expect("whole file");
            prop_assert_eq!(&buf, expect);
        }
    }

    /// A block call rolls the fault plan, counts and charges exactly as
    /// the byte call over the same range does on an identical store.
    #[test]
    fn block_calls_roll_faults_like_byte_calls(
        seed in any::<u64>(),
        size in position(),
        ops in proptest::collection::vec((any::<bool>(), 0u64..7, any::<u8>()), 1..60),
    ) {
        let device = Device::disk_1992();
        let mut blocks = FileStore::new(device);
        let mut bytes = FileStore::new(device);
        let a = blocks.create_with("f", pattern(3, size));
        let b = bytes.create_with("f", pattern(3, size));
        blocks.set_fault_plan(FaultPlan::hostile(seed, 0.3));
        bytes.set_fault_plan(FaultPlan::hostile(seed, 0.3));
        for (write, index, fill) in ops {
            let offset = index * BLOCK_SIZE;
            if write {
                let data = pattern(fill, BLOCK_SIZE);
                let got = blocks.write_block(a, index, &block_of(&data));
                prop_assert_eq!(got, bytes.write(b, offset, &data));
            } else {
                let size = bytes.size(b).expect("file");
                let got = blocks.read_block(a, index);
                if offset < size {
                    let mut buf = vec![0; BLOCK_SIZE.min(size - offset) as usize];
                    let want = bytes.read(b, offset, &mut buf);
                    match got {
                        Ok((block, latency)) => {
                            prop_assert_eq!(Ok(latency), want);
                            prop_assert_eq!(block.as_slice(), block_of(&buf).as_slice());
                        }
                        Err(e) => prop_assert_eq!(Err(e), want),
                    }
                } else {
                    prop_assert!(matches!(got, Err(FileStoreError::OutOfRange { .. })));
                }
            }
            prop_assert_eq!(blocks.op_index(), bytes.op_index());
            prop_assert_eq!(blocks.fault_count(), bytes.fault_count());
            prop_assert_eq!(blocks.read_count(), bytes.read_count());
            prop_assert_eq!(blocks.write_count(), bytes.write_count());
            prop_assert_eq!(blocks.size(a), bytes.size(b));
        }
    }
}
