//! A misbehaving segment manager for chaos experiments.
//!
//! [`ChaoticManager`] wraps a [`DefaultSegmentManager`] and behaves
//! identically until a [`ChaosEvent`] is injected with
//! [`ChaoticManager::inject`]. The next upcall then misbehaves in the
//! injected way:
//!
//! * [`ChaosEvent::Crash`] — the fault handler panics mid-upcall; the
//!   host is expected to contain it with `catch_unwind`.
//! * [`ChaosEvent::Hang`] — the handler wedges for N scheduling quanta
//!   (virtual time), busting any watchdog deadline before replying.
//! * [`ChaosEvent::SlowReply`] — the handler replies late but possibly
//!   still inside the deadline.
//! * [`ChaosEvent::Byzantine`] — the *next reclaim* lies: it first tries
//!   to return frames it was never granted (which the SPCM must reject),
//!   then claims full compliance while returning nothing.
//!
//! The wrapper is how the deterministic `ChaosPlan` schedule (from
//! `epcm-sim`) becomes concrete manager misbehaviour inside a
//! [`Machine`](crate::Machine): the shard worker rolls the plan, injects
//! the outcome, and the kernel-side watchdog and revocation ladder take
//! it from there.

use epcm_core::fault::FaultEvent;
use epcm_core::kernel::Kernel;
use epcm_core::types::{ManagerId, PageNumber, SegmentId};
use epcm_sim::chaos::{ChaosEvent, HANG_TICK};

use crate::default_manager::DefaultSegmentManager;
use crate::manager::{Env, ManagerError, ManagerMode, SegmentManager};

/// A [`DefaultSegmentManager`] that misbehaves on command.
#[derive(Debug)]
pub struct ChaoticManager {
    inner: DefaultSegmentManager,
    lane: u64,
    pending: Option<ChaosEvent>,
    byzantine_armed: bool,
}

impl ChaoticManager {
    /// A server-mode chaotic manager for tenant `lane` (the lane only
    /// labels panic messages).
    pub fn server(lane: u64) -> Self {
        ChaoticManager {
            inner: DefaultSegmentManager::server(),
            lane,
            pending: None,
            byzantine_armed: false,
        }
    }

    /// Arms the next upcall with `event`. A second injection before the
    /// first is consumed overwrites it (the schedule moved on).
    pub fn inject(&mut self, event: ChaosEvent) {
        if matches!(event, ChaosEvent::Byzantine) {
            self.byzantine_armed = true;
        } else {
            self.pending = Some(event);
        }
    }

    /// The injected event waiting to fire, if any.
    pub fn pending(&self) -> Option<ChaosEvent> {
        self.pending
    }

    /// Whether the next reclaim will lie.
    pub fn byzantine_armed(&self) -> bool {
        self.byzantine_armed
    }

    /// The wrapped honest manager (for its statistics).
    pub fn inner(&self) -> &DefaultSegmentManager {
        &self.inner
    }
}

impl SegmentManager for ChaoticManager {
    fn id(&self) -> ManagerId {
        self.inner.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn set_id(&mut self, id: ManagerId) {
        self.inner.set_id(id);
    }

    fn mode(&self) -> ManagerMode {
        self.inner.mode()
    }

    fn attach(&mut self, env: &mut Env<'_>, segment: SegmentId) -> Result<(), ManagerError> {
        self.inner.attach(env, segment)
    }

    fn handle_fault(&mut self, env: &mut Env<'_>, fault: &FaultEvent) -> Result<(), ManagerError> {
        match self.pending.take() {
            Some(ChaosEvent::Crash) => {
                panic!("chaos: injected crash in lane {} manager", self.lane)
            }
            Some(ChaosEvent::Hang { ticks }) => {
                // Wedged: virtual time passes with no progress before the
                // (eventual) honest reply.
                env.kernel.charge(HANG_TICK * u64::from(ticks));
            }
            Some(ChaosEvent::SlowReply { extra }) => {
                env.kernel.charge(extra);
            }
            Some(ChaosEvent::Byzantine) | None => {}
        }
        self.inner.handle_fault(env, fault)
    }

    fn reclaim(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError> {
        if self.byzantine_armed {
            self.byzantine_armed = false;
            // First try to return frames that were never granted: one
            // bogus page more than the ledger holds. The SPCM rejects
            // this before touching the kernel; the lie costs nothing but
            // proves the rejection path.
            let held = env.spcm.granted_to(self.id());
            let bogus: Vec<PageNumber> = (0..=held).map(PageNumber).collect();
            let rejected = env
                .spcm
                .return_frames(env.kernel, self.id(), SegmentId::FRAME_POOL, &bogus)
                .is_err();
            debug_assert!(rejected, "over-return must be rejected");
            // Then claim full compliance while returning nothing. The
            // machine cross-checks against the grant ledger and treats
            // the gap as a byzantine reply.
            return Ok(count);
        }
        self.inner.reclaim(env, count)
    }

    fn segment_closed(
        &mut self,
        env: &mut Env<'_>,
        segment: SegmentId,
    ) -> Result<(), ManagerError> {
        self.inner.segment_closed(env, segment)
    }

    fn tick(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        self.inner.tick(env)
    }

    fn free_frames(&self, kernel: &Kernel) -> u64 {
        self.inner.free_frames(kernel)
    }

    fn set_tracer(&mut self, tracer: epcm_trace::SharedTracer) {
        self.inner.set_tracer(tracer);
    }

    fn export_metrics(&self, metrics: &mut epcm_trace::MetricsRegistry) {
        self.inner.export_metrics(metrics);
    }
}

#[cfg(test)]
impl ChaoticManager {
    /// A chaotic wrapper around `inner`, for tests that need an engine
    /// tuned otherwise than the default server.
    pub(crate) fn around(inner: DefaultSegmentManager) -> Self {
        ChaoticManager {
            inner,
            lane: 0,
            pending: None,
            byzantine_armed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcm_core::types::{AccessKind, SegmentKind, UserId};
    use epcm_core::watchdog::WatchdogConfig;
    use epcm_sim::clock::Micros;
    use epcm_sim::cost::CostModel;
    use epcm_trace::EventKind;

    use crate::machine::Machine;
    use crate::spcm::RevocationConfig;

    /// A machine with a clean default manager (the heir) plus one
    /// chaotic manager owning a segment with every page resident.
    fn chaos_machine() -> (Machine, ManagerId, SegmentId) {
        let mut m = Machine::builder(128)
            .watchdog(WatchdogConfig::from_costs(&CostModel::decstation_5000_200()))
            .build();
        let heir = m.register_manager(Box::new(DefaultSegmentManager::server()));
        m.set_default_manager(heir);
        let chaotic = m.register_manager(Box::new(ChaoticManager::server(0)));
        let seg = m
            .create_segment_with(SegmentKind::Anonymous, 8, chaotic, UserId::SYSTEM)
            .unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        (m, chaotic, seg)
    }

    fn inject(m: &mut Machine, id: ManagerId, event: ChaosEvent) {
        m.with_manager(id, |mgr, _| {
            mgr.as_any_mut()
                .downcast_mut::<ChaoticManager>()
                .expect("chaotic manager")
                .inject(event);
            Ok(())
        })
        .unwrap();
    }

    fn frames_total(m: &Machine) -> u64 {
        let kernel = m.kernel();
        kernel
            .segment_ids()
            .map(|s| kernel.resident_pages(s).unwrap())
            .sum()
    }

    #[test]
    fn honest_until_injected() {
        let (mut m, chaotic, seg) = chaos_machine();
        m.touch(seg, 0, AccessKind::Read).unwrap();
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 8);
        assert!(m.manager(chaotic).is_some());
    }

    #[test]
    fn hang_strikes_accumulate_to_failover() {
        let (mut m, chaotic, seg) = chaos_machine();
        m.enable_event_tracing(4096);
        let max = m.watchdog().unwrap().config().max_misses;
        // Each hang busts the fault deadline; the faults must be fresh
        // pages so the handler actually runs.
        for (i, p) in (8..).take(max as usize).enumerate() {
            m.kernel_mut().resize_segment(seg, 9 + i as u64).unwrap();
            inject(&mut m, chaotic, ChaosEvent::Hang { ticks: 2 });
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        // The third miss exhausted the strikes: failed over to the heir.
        assert!(m.manager(chaotic).is_none(), "manager should be gone");
        let heir = m.default_manager().unwrap();
        assert_eq!(m.kernel().segment(seg).unwrap().manager(), heir);
        // Warm handoff: resident pages stayed resident.
        assert!(m.kernel().resident_pages(seg).unwrap() >= 8);
        let counts = m.event_tracer().unwrap().kind_counts();
        assert_eq!(counts.get("deadline_missed"), Some(&(u64::from(max))));
        assert_eq!(counts.get("manager_failed_over"), Some(&1));
        assert_eq!(frames_total(&m), 128, "no stranded frames");
        // The segment still works under the heir.
        m.kernel_mut().resize_segment(seg, 16).unwrap();
        m.touch(seg, 15, AccessKind::Write).unwrap();
    }

    #[test]
    fn slow_reply_within_deadline_is_tolerated() {
        let (mut m, chaotic, seg) = chaos_machine();
        m.enable_event_tracing(1024);
        m.kernel_mut().resize_segment(seg, 9).unwrap();
        inject(
            &mut m,
            chaotic,
            ChaosEvent::SlowReply {
                extra: Micros::new(400),
            },
        );
        m.touch(seg, 8, AccessKind::Write).unwrap();
        assert!(m.manager(chaotic).is_some());
        let counts = m.event_tracer().unwrap().kind_counts();
        assert!(!counts.contains_key("deadline_missed"), "{counts:?}");
    }

    #[test]
    fn byzantine_reclaim_is_rejected_fined_and_seized() {
        let (mut m, chaotic, _seg) = chaos_machine();
        m.enable_event_tracing(4096);
        // Tighten the grace so the forced seizure fires within the test.
        m.spcm_mut().set_revocation_config(RevocationConfig {
            grace: Micros::ZERO,
            ..RevocationConfig::default()
        });
        let held_before = m.spcm().granted_to(chaotic);
        assert!(held_before > 0);
        inject(&mut m, chaotic, ChaosEvent::Byzantine);
        m.revoke(chaotic, 2).unwrap();
        let counts = m.event_tracer().unwrap().kind_counts();
        // The lie was detected and the demand proceeded by force.
        assert_eq!(counts.get("byzantine_reply"), Some(&1), "{counts:?}");
        assert_eq!(counts.get("forced_reclaim"), Some(&1), "{counts:?}");
        assert!(m.spcm().granted_to(chaotic) < held_before);
        assert_eq!(frames_total(&m), 128, "no stranded frames");
    }

    #[test]
    fn crash_panics_and_is_containable() {
        let (mut m, chaotic, seg) = chaos_machine();
        m.kernel_mut().resize_segment(seg, 9).unwrap();
        inject(&mut m, chaotic, ChaosEvent::Crash);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.touch(seg, 8, AccessKind::Write)
        }));
        assert!(result.is_err(), "injected crash must panic");
        // The machine survives the contained panic: the poisoned manager
        // can be failed over and the segment lives on under the heir.
        let heir = m.fail_over(chaotic).unwrap().expect("heir exists");
        assert_eq!(m.kernel().segment(seg).unwrap().manager(), heir);
        assert_eq!(frames_total(&m), 128, "no stranded frames");
    }

    #[test]
    fn failover_settles_the_market_account() {
        use crate::market::{MarketConfig, MemoryMarket};
        use crate::spcm::AllocationPolicy;

        let mut m = Machine::builder(128)
            .watchdog(WatchdogConfig::from_costs(&CostModel::decstation_5000_200()))
            .allocation(AllocationPolicy::Market {
                market: MemoryMarket::new(MarketConfig::default()),
                horizon: Micros::from_millis(10),
            })
            .build();
        let heir = m.register_manager(Box::new(DefaultSegmentManager::server()));
        m.set_default_manager(heir);
        let chaotic = m.register_manager(Box::new(ChaoticManager::server(0)));
        if let Some(market) = m.spcm_mut().market_mut() {
            market.open_account(heir, Some(50.0));
            market.open_account(chaotic, Some(50.0));
        }
        // Let income accrue so the frame requests are affordable.
        m.kernel_mut().charge(Micros::from_secs(2));
        m.tick().unwrap();
        let seg = m
            .create_segment_with(SegmentKind::Anonymous, 8, chaotic, UserId::SYSTEM)
            .unwrap();
        for p in 0..8 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        m.fail_over(chaotic).unwrap();
        let market = m.spcm().market().unwrap();
        assert_eq!(market.balance(chaotic), Some(0.0));
        assert!(
            market.ledger_residual().abs() < 1e-9,
            "residual {}",
            market.ledger_residual()
        );
    }

    #[test]
    fn deadline_missed_events_trace_the_ladder() {
        let (mut m, chaotic, seg) = chaos_machine();
        let tracer = m.enable_event_tracing(4096);
        m.kernel_mut().resize_segment(seg, 9).unwrap();
        inject(&mut m, chaotic, ChaosEvent::Hang { ticks: 1 });
        m.touch(seg, 8, AccessKind::Write).unwrap();
        let missed: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::DeadlineMissed { .. }))
            .collect();
        assert_eq!(missed.len(), 1);
        if let EventKind::DeadlineMissed {
            manager,
            deadline_us,
            elapsed_us,
            ..
        } = missed[0].kind
        {
            assert_eq!(manager, chaotic.0);
            assert!(elapsed_us > deadline_us);
        }
    }
}
