//! The writeback pipeline: every store writeback's disk time.
//!
//! The paper's default manager cleans dirty victims ("laundry") before
//! their frames are reused. Charging that disk time inline on the fault
//! path serializes eviction behind the disk — exactly the coupling
//! external page-cache management was meant to break. `WritebackPipeline`
//! instead books each writeback against a [`MultiServer`] disk bank and
//! schedules its completion through an [`EventQueue`], so the manager
//! keeps fielding faults while laundry drains in the background and disk
//! time is *billed when the completion fires*, not when the page is
//! submitted.
//!
//! The pipeline models **time only**. Data movement (the actual store
//! write, including fault injection and retries) happens at the
//! submission site, so every writeback is one ticket whether its caller
//! waits for it or not. A caller that must not run ahead of its disk —
//! a synchronous writeback — waits for the ticket's completion time at
//! once ([`WritebackPipeline::force_completion_time`]) and drains; on an
//! idle bank that wait is exactly the ticket's service time.
//!
//! Each ticket carries a caller's key `K` (the managers use the written
//! page), and its completion hands it back, so the caller needs no index
//! from ticket to page.
//!
//! Lifecycle of one ticket:
//!
//! ```text
//! submit(now, service, key)   queued   (data already on the store)
//!        │ pump: in-flight window has room
//!        ▼
//! reserve on the disk bank    issued   (completion event scheduled)
//!        │ pop_completion(now) reaches the completion time
//!        ▼
//! completion returned         retired  (service time and key back)
//! ```
//!
//! A bounded in-flight window limits how many disk reservations the pump
//! keeps outstanding; excess submissions wait in a FIFO queue. Callers
//! that need a specific ticket finished early (a "promised-free but not
//! yet clean" frame being reused, or a synchronous writeback) call
//! [`WritebackPipeline::force_completion_time`], which issues the backlog
//! through that ticket ignoring the window and reports when it drains —
//! the stall the caller must charge to its own timeline. That and
//! [`WritebackPipeline::quiesce`] can leave more than `window` tickets in
//! flight. Tickets issue in ticket order, so the in-flight completion
//! times sit in a deque indexed by the ticket's offset from the oldest
//! unretired one.
//!
//! # Example
//!
//! ```
//! use epcm_sim::clock::{Micros, Timestamp};
//! use epcm_sim::writeback::WritebackPipeline;
//!
//! let mut wb = WritebackPipeline::new(1, 2);
//! let t0 = Timestamp::ZERO;
//! wb.submit(t0, Micros::new(100), "a");
//! wb.submit(t0, Micros::new(100), "b");
//! assert_eq!(wb.in_flight(), 2);
//! let now = Timestamp::from_micros(200);
//! let done: Vec<_> = std::iter::from_fn(|| wb.pop_completion(now)).collect();
//! assert_eq!(done.iter().map(|c| c.key).collect::<Vec<_>>(), ["a", "b"]);
//! assert!(wb.is_idle());
//! ```

use std::collections::VecDeque;

use epcm_trace::SharedTracer;

use crate::clock::{Micros, Timestamp};
use crate::events::{EventQueue, MultiServer};

/// Identifies one writeback from submission to completion.
pub type TicketId = u64;

/// A drained completion returned by [`WritebackPipeline::pop_completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritebackCompletion<K> {
    /// The ticket that completed.
    pub ticket: TicketId,
    /// When the disk reservation completed.
    pub completes: Timestamp,
    /// The disk service time the caller bills for this writeback.
    pub service: Micros,
    /// The key the ticket was submitted with.
    pub key: K,
}

/// Schedules writeback completions against a disk-server bank; see the
/// [module docs](self) for the lifecycle.
#[derive(Debug)]
pub struct WritebackPipeline<K> {
    disks: MultiServer,
    window: usize,
    completions: EventQueue<(TicketId, Micros, K)>,
    queued: VecDeque<(TicketId, Micros, K)>,
    /// Completion time of each issued ticket from `oldest` on, by
    /// `ticket - oldest`; `None` once retired. The front is never `None`.
    in_flight: VecDeque<Option<Timestamp>>,
    /// The oldest issued ticket not yet retired (the next to issue when
    /// nothing is in flight).
    oldest: TicketId,
    /// Entries of `in_flight` that are not retired.
    in_flight_count: usize,
    next_ticket: TicketId,
    inflight_peak: u64,
}

impl<K> WritebackPipeline<K> {
    /// Creates a pipeline over `servers` disk arms whose pump keeps at
    /// most `window` reservations outstanding. Both are clamped to at
    /// least 1.
    pub fn new(servers: usize, window: usize) -> Self {
        WritebackPipeline {
            disks: MultiServer::new(servers.max(1)),
            window: window.max(1),
            completions: EventQueue::new(),
            queued: VecDeque::new(),
            in_flight: VecDeque::new(),
            oldest: 0,
            in_flight_count: 0,
            next_ticket: 0,
            inflight_peak: 0,
        }
    }

    /// Mirrors completion-queue inserts into `tracer` as `scheduled`
    /// events.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.completions.set_tracer(tracer);
    }

    /// Submits a writeback of `key` needing `service` disk time,
    /// returning its ticket. Issues immediately if the in-flight window
    /// has room.
    pub fn submit(&mut self, now: Timestamp, service: Micros, key: K) -> TicketId {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if self.queued.is_empty() && self.in_flight_count < self.window {
            self.issue(now, (ticket, service, key));
        } else {
            self.queued.push_back((ticket, service, key));
        }
        ticket
    }

    /// Issues queued tickets while the in-flight window has room.
    fn pump(&mut self, now: Timestamp) {
        while self.in_flight_count < self.window && !self.queued.is_empty() {
            self.issue_next(now);
        }
    }

    /// Issues the oldest queued ticket onto the disk bank.
    fn issue_next(&mut self, now: Timestamp) {
        if let Some(queued) = self.queued.pop_front() {
            self.issue(now, queued);
        }
    }

    /// Reserves the disk bank for one ticket and schedules its completion.
    fn issue(&mut self, now: Timestamp, (ticket, service, key): (TicketId, Micros, K)) {
        debug_assert_eq!(
            ticket,
            self.oldest + self.in_flight.len() as u64,
            "tickets issue in ticket order"
        );
        let reservation = self.disks.reserve(now, service);
        self.in_flight.push_back(Some(reservation.completes));
        self.in_flight_count += 1;
        self.inflight_peak = self.inflight_peak.max(self.in_flight_count as u64);
        self.completions
            .schedule(reservation.completes, (ticket, service, key));
    }

    /// Retires the earliest completion due at or before `now`, freeing
    /// its window slot, or returns `None` when none is due; billing its
    /// service time is the caller's. The freed slot may issue a queued
    /// ticket whose completion is due too, so callers drain by popping
    /// until `None`.
    pub fn pop_completion(&mut self, now: Timestamp) -> Option<WritebackCompletion<K>> {
        if self.completions.peek_time().is_none_or(|t| t > now) {
            return None;
        }
        let (completes, (ticket, service, key)) = self.completions.next()?;
        // Every scheduled ticket is in flight, at or after `oldest`.
        let entry = self.in_flight.get_mut((ticket - self.oldest) as usize);
        debug_assert!(
            entry.as_ref().is_some_and(|e| e.is_some()),
            "ticket {ticket} not in flight"
        );
        if let Some(e) = entry {
            *e = None;
        }
        while self.in_flight.front().is_some_and(Option::is_none) {
            self.in_flight.pop_front();
            self.oldest += 1;
        }
        self.in_flight_count -= 1;
        // The freed window slot re-issues at the completion instant,
        // not at `now`: the disk picks up the next queued job as soon
        // as the slot frees, regardless of when the caller polls.
        self.pump(completes);
        Some(WritebackCompletion {
            ticket,
            completes,
            service,
            key,
        })
    }

    /// Forces `ticket` (and everything queued ahead of it) onto the disk
    /// bank ignoring the window, returning when its reservation
    /// completes. Returns `None` if the ticket is unknown (already
    /// completed or never submitted). The ticket itself is *not* retired
    /// — a [`WritebackPipeline::pop_completion`] at or after the returned
    /// time bills it, so every completion is billed exactly once, on the
    /// drain path.
    pub fn force_completion_time(&mut self, now: Timestamp, ticket: TicketId) -> Option<Timestamp> {
        while self.queued.front().is_some_and(|q| q.0 <= ticket) {
            self.issue_next(now);
        }
        let slot = usize::try_from(ticket.checked_sub(self.oldest)?).ok()?;
        self.in_flight.get(slot).copied().flatten()
    }

    /// Issues everything still queued and returns the instant the last
    /// in-flight reservation completes (`None` when already idle). The
    /// caller still drains at that instant to bill the work — this is
    /// the fsync-like barrier.
    pub fn quiesce(&mut self, now: Timestamp) -> Option<Timestamp> {
        while !self.queued.is_empty() {
            self.issue_next(now);
        }
        self.in_flight.iter().flatten().copied().max()
    }

    /// Number of tickets issued but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight_count
    }

    /// Number of tickets submitted but not yet issued.
    pub fn queued(&self) -> usize {
        self.queued.len()
    }

    /// High-water mark of concurrently in-flight tickets.
    pub fn inflight_peak(&self) -> u64 {
        self.inflight_peak
    }

    /// Total busy time accumulated on the disk bank.
    pub fn disk_busy(&self) -> Micros {
        self.disks.total_busy()
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queued.is_empty() && self.in_flight_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every completion due by `now`, in the order they retire.
    fn drain(wb: &mut WritebackPipeline<()>, now: Timestamp) -> Vec<WritebackCompletion<()>> {
        std::iter::from_fn(|| wb.pop_completion(now)).collect()
    }

    #[test]
    fn window_bounds_in_flight_and_queues_excess() {
        let mut wb = WritebackPipeline::new(1, 2);
        let t0 = Timestamp::ZERO;
        for _ in 0..5 {
            wb.submit(t0, Micros::new(100), ());
        }
        assert_eq!(wb.in_flight(), 2);
        assert_eq!(wb.queued(), 3);
        assert_eq!(wb.inflight_peak(), 2);
    }

    #[test]
    fn drain_runs_to_fixpoint_and_bills() {
        let mut wb = WritebackPipeline::new(1, 1);
        let t0 = Timestamp::ZERO;
        let a = wb.submit(t0, Micros::new(100), ());
        let b = wb.submit(t0, Micros::new(100), ());
        // With window 1 on one server, b issues only once a completes;
        // draining far in the future must retire both.
        let done = drain(&mut wb, Timestamp::from_micros(1_000));
        assert_eq!(
            done.iter().map(|c| c.ticket).collect::<Vec<_>>(),
            vec![a, b]
        );
        assert_eq!(done[0].completes.as_micros(), 100);
        assert_eq!(done[1].completes.as_micros(), 200);
        assert!(wb.is_idle());
    }

    #[test]
    fn pop_before_due_time_returns_nothing() {
        let mut wb = WritebackPipeline::new(1, 4);
        wb.submit(Timestamp::ZERO, Micros::new(100), ());
        assert!(wb.pop_completion(Timestamp::from_micros(99)).is_none());
        assert_eq!(drain(&mut wb, Timestamp::from_micros(100)).len(), 1);
    }

    #[test]
    fn completions_carry_their_key_out_of_ticket_order() {
        // Two arms: the short job submitted second completes first, and
        // the oldest unretired ticket stays in flight until it does.
        let mut wb = WritebackPipeline::new(2, 4);
        let t0 = Timestamp::ZERO;
        let long = wb.submit(t0, Micros::new(300), (7u32, 1u64));
        let short = wb.submit(t0, Micros::new(100), (9, 4));
        let first = wb.pop_completion(Timestamp::from_micros(100)).unwrap();
        assert_eq!((first.ticket, first.key), (short, (9, 4)));
        assert_eq!(wb.in_flight(), 1);
        assert_eq!(wb.force_completion_time(t0, short), None);
        assert_eq!(
            wb.force_completion_time(t0, long),
            Some(Timestamp::from_micros(300))
        );
        let last = wb.pop_completion(Timestamp::from_micros(300)).unwrap();
        assert_eq!((last.ticket, last.key), (long, (7, 1)));
        assert!(wb.is_idle());
    }

    #[test]
    fn force_issues_backlog_and_reports_completion() {
        let mut wb = WritebackPipeline::new(1, 1);
        let t0 = Timestamp::ZERO;
        let _a = wb.submit(t0, Micros::new(100), ());
        let b = wb.submit(t0, Micros::new(100), ());
        assert_eq!(wb.queued(), 1);
        let done_at = wb
            .force_completion_time(t0, b)
            .expect("queued ticket forced onto the disk");
        // b queues behind a on the single arm: completes at 200.
        assert_eq!(done_at.as_micros(), 200);
        assert_eq!(wb.queued(), 0);
        // The completions still retire on the drain path, exactly once.
        let done = drain(&mut wb, done_at);
        assert_eq!(done.len(), 2);
        assert!(wb.is_idle());
    }

    #[test]
    fn force_unknown_ticket_is_none() {
        let mut wb = WritebackPipeline::new(1, 1);
        let a = wb.submit(Timestamp::ZERO, Micros::new(10), ());
        drain(&mut wb, Timestamp::from_micros(10));
        assert_eq!(
            wb.force_completion_time(Timestamp::from_micros(10), a),
            None
        );
        assert_eq!(
            wb.force_completion_time(Timestamp::from_micros(10), 999),
            None
        );
    }

    #[test]
    fn force_and_quiesce_overshoot_the_window() {
        // The window bounds only the pump. Forcing a ticket issues the
        // backlog ahead of it regardless, so more than `window` tickets
        // can be in flight at once — which is why the in-flight table is
        // indexed by ticket offset, not by ticket modulo the window.
        let mut wb = WritebackPipeline::new(1, 2);
        let t0 = Timestamp::ZERO;
        let tickets: Vec<_> = (0..6)
            .map(|_| wb.submit(t0, Micros::new(100), ()))
            .collect();
        assert_eq!(wb.in_flight(), 2);
        assert_eq!(
            wb.force_completion_time(t0, tickets[3]),
            Some(Timestamp::from_micros(400))
        );
        assert_eq!(wb.in_flight(), 4);
        assert_eq!(wb.quiesce(t0), Some(Timestamp::from_micros(600)));
        assert_eq!(wb.in_flight(), 6);
        assert_eq!(wb.inflight_peak(), 6);
        // Tickets 2 and 4 share a residue modulo the window but keep
        // their own completion times.
        assert_eq!(
            wb.force_completion_time(t0, tickets[2]),
            Some(Timestamp::from_micros(300))
        );
        assert_eq!(
            wb.force_completion_time(t0, tickets[4]),
            Some(Timestamp::from_micros(500))
        );
        assert_eq!(drain(&mut wb, Timestamp::from_micros(600)).len(), 6);
        assert!(wb.is_idle());
    }

    #[test]
    fn quiesce_issues_everything_and_reports_last_completion() {
        let mut wb = WritebackPipeline::new(2, 1);
        let t0 = Timestamp::ZERO;
        for _ in 0..4 {
            wb.submit(t0, Micros::new(100), ());
        }
        let last = wb.quiesce(t0).expect("work was pending");
        // Two arms, four 100µs jobs, all issued at t0: last completes at 200.
        assert_eq!(last.as_micros(), 200);
        assert_eq!(wb.queued(), 0);
        let done = drain(&mut wb, last);
        assert_eq!(done.iter().map(|c| c.service.as_micros()).sum::<u64>(), 400);
        assert!(wb.is_idle());
        assert_eq!(wb.quiesce(last), None);
    }

    #[test]
    fn multiple_servers_overlap_reservations() {
        let mut wb = WritebackPipeline::new(2, 4);
        let t0 = Timestamp::ZERO;
        wb.submit(t0, Micros::new(100), ());
        wb.submit(t0, Micros::new(100), ());
        let done = drain(&mut wb, Timestamp::from_micros(100));
        // Both fit in parallel on the two arms.
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.completes.as_micros() == 100));
        assert_eq!(wb.disk_busy(), Micros::new(200));
    }
}
