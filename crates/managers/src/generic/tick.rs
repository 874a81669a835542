//! Stage four of the engine: the tick, reference sampling and segment
//! close. Each tick drains writebacks, refills the pool, demotes when the
//! market bill is in the red, promotes hot pages and runs the sampling
//! sweep; a protection fault on a sampled page restores a batch of them.

use super::*;

impl<S: Specialization, P: ReplacementPolicy> GenericManager<S, P> {
    /// One tick: bill due writebacks, refill the pool, shed DRAM while
    /// the market bill is in the red, promote, then sample.
    pub(super) fn run_tick(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        self.drain_writebacks(env);
        if self.free_count(env.kernel) < self.config.low_water {
            // Opportunistic refill; ignore refusal (we reclaim on demand).
            let _ = self.ensure_free(env, self.config.target_free);
        }
        // In the red on a tiered machine: demote cold DRAM pages to
        // cheaper tiers rather than waiting for the SPCM to seize them.
        if !env.kernel.tiers().is_dram_only() && self.in_the_red(env) {
            let _ = self.rebalance_demote(env, self.config.demote_batch);
        }
        // The symmetric pass: top-K hot pages earn DRAM back each tick.
        self.promote_hot(env)?;
        self.sampling_sweep(env)
    }

    /// Returns a closing segment's pages to the pool, writing file data
    /// back first, and drops the segment's engine state.
    pub(super) fn close_segment(
        &mut self,
        env: &mut Env<'_>,
        segment: SegmentId,
    ) -> Result<(), ManagerError> {
        let free_seg = self.free_seg(env)?;
        let pages: Vec<(PageNumber, PageFlags)> = env
            .kernel
            .segment(segment)?
            .resident()
            .map(|(p, e)| (p, e.flags))
            .collect();
        for (p, flags) in pages {
            // File data must survive the close, so its writeback is
            // waited for; swap data dies with the segment (no writeback).
            let mut waited = false;
            if flags.contains(PageFlags::DIRTY) {
                match self.spec.evict_disposition(segment, p, flags) {
                    to @ Disposition::File(_) => {
                        waited = self.writeback(env, segment, p, to, true)?.is_some();
                    }
                    Disposition::Swap | Disposition::Discard => {}
                }
            }
            // A quarantine pin belongs to the page, not the frame.
            let slot = env.kernel.segment(free_seg)?.first_vacant();
            self.op_migrate_pages(
                env,
                (segment, p),
                (free_seg, slot),
                1,
                SHED | PageFlags::PINNED,
            )?;
            self.policy.note_removed(segment, p);
            self.laundry.remove((segment.as_u32(), p.as_u64()));
            if waited {
                self.drain_writebacks(env);
            }
        }
        // The closed segment's quarantine dies with it.
        let sid = segment.as_u32();
        self.quarantined.retain(|&(s, _)| s != sid);
        self.managed.remove(&sid);
        self.laundry.segment_closed(sid);
        self.heat.segment_closed(sid);
        Ok(())
    }

    /// Handles a protection fault: reference-sampling restore (batched).
    pub(super) fn handle_protection(
        &mut self,
        env: &mut Env<'_>,
        fault: &FaultEvent,
    ) -> Result<(), ManagerError> {
        let seg = fault.segment;
        let page = fault.page;
        // If the page itself already permits the access, the denial came
        // from a bound region's protection — nothing the manager should
        // lift; the application gets the error (a SIGSEGV analog).
        if let FaultKind::Protection { flags } = fault.kind {
            if flags.permits(fault.access) {
                return Err(ManagerError::ProtectionDenied { segment: seg, page });
            }
        }
        self.stats.sampling_faults += 1;
        // The faulting page was genuinely referenced.
        self.policy.note_referenced(seg, page);
        // Sampling-window hit: the same reference signal feeds the
        // promotion ladder when the page sits below DRAM.
        self.note_heat(env.kernel, seg, page);
        // Restore protection on a batch of contiguous resident pages to
        // amortise fault cost (§2.3). The resident prefix is scanned
        // before any flags change — the scan reads only presence, which
        // no ModifyPageFlags alters, so pre-scanning is equivalent to
        // the interleaved check-then-modify loop in both ABI modes.
        let segment = env.kernel.segment(seg)?;
        let batch = (0..self.config.protection_batch.max(1)).map(|i| page.offset(i));
        let run = batch.take_while(|&p| segment.in_range(p) && segment.entry(p).is_some());
        for i in 0..run.count() as u64 {
            self.op_modify_flags_deferred(
                env,
                seg,
                page.offset(i),
                1,
                PageFlags::RW,
                PageFlags::MANAGER_B,
            )?;
        }
        // With `batched_abi` on this is the crossing collapse: one
        // doorbell drains the whole restore batch.
        Ok(self.ring.flush(env.kernel)?)
    }

    /// Revokes protection on up to `sample_batch` resident pages to gather
    /// reference information for the clock (the sampling sweep).
    pub(super) fn sampling_sweep(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        if self.config.sample_batch == 0 {
            return Ok(());
        }
        let mut remaining = self.config.sample_batch;
        if self.managed.is_empty() {
            return Ok(());
        }
        // The sweep resumes at the cursor and runs up to the last managed
        // segment; segments below the cursor wait for the wrapped sweep.
        let start = self.sample_cursor;
        let segs: Vec<SegmentId> = self.managed.range(start.0..).map(|(_, m)| m.id).collect();
        for seg in segs {
            if remaining == 0 {
                break;
            }
            let sid = seg.as_u32();
            let from = if sid == start.0 { start.1 } else { 0 };
            let Ok(segment) = env.kernel.segment(seg) else {
                continue;
            };
            let pages: Vec<PageNumber> = segment
                .resident_from(PageNumber(from))
                .filter(|(_, e)| {
                    e.flags.contains(PageFlags::READ) && !e.flags.contains(PageFlags::PINNED)
                })
                .map(|(p, _)| p)
                .take(remaining as usize)
                .collect();
            for p in pages {
                // Deferred onto the ring in batched mode: the page list
                // was snapshotted above, so revoking flags later in the
                // same sweep cannot change which pages are visited.
                self.op_modify_flags_deferred(
                    env,
                    seg,
                    p,
                    1,
                    PageFlags::MANAGER_B,
                    PageFlags::READ | PageFlags::WRITE,
                )?;
                remaining -= 1;
                self.sample_cursor = (sid, p.as_u64() + 1);
            }
        }
        if remaining > 0 {
            self.sample_cursor = (0, 0); // wrap the sweep
        }
        // One doorbell for the whole sweep's revocations.
        Ok(self.ring.flush(env.kernel)?)
    }
}
