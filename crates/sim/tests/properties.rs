//! Property-based tests for the simulation substrate.

use epcm_sim::clock::{Micros, Timestamp};
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
