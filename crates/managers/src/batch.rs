//! Batch-program scheduling under the memory market (§2.4).
//!
//! "For batch programs the application segment manager suspends and swaps
//! the program until it has saved enough drams to afford enough memory
//! for a reasonable time slice of execution. By queries to the SPCM, it
//! can determine the demand on memory ... When the process has enough
//! drams to afford the memory, it requests the memory from the SPCM and
//! runs as soon as the memory request is granted. At the end of its time
//! slice, when its dram savings are running low, it pages out the data
//! and returns to a quiescent state in which it has a very low memory
//! requirement."
//!
//! [`BatchJob`] implements exactly that driver around a
//! [`GenericManager`](crate::generic::GenericManager): query
//! affordability, fault the working set in, run
//! the slice, then swap everything out (write-back through the manager)
//! and return the frames to the SPCM.

use epcm_core::types::{AccessKind, ManagerId, SegmentId};
use epcm_sim::clock::{Micros, Timestamp};

use crate::machine::{Machine, MachineError};

/// Lifecycle state of a batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchState {
    /// Quiescent: swapped out, saving drams.
    Saving,
    /// Resident and executing its timeslice.
    Running {
        /// When the current slice started.
        since: Timestamp,
    },
}

/// Progress counters for a batch job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Completed timeslices.
    pub timeslices: u64,
    /// Swap-out events.
    pub swap_outs: u64,
    /// Total virtual time spent resident.
    pub resident_time: Micros,
}

/// A batch program driven by the market: swapped out while saving,
/// resident while it can pay.
#[derive(Debug)]
pub struct BatchJob {
    manager: ManagerId,
    segment: SegmentId,
    working_set: u64,
    timeslice: Micros,
    state: BatchState,
    stats: BatchStats,
    next_page: u64,
}

impl BatchJob {
    /// Creates a job that needs `working_set` resident pages of `segment`
    /// (managed by `manager`, with a market account open) and runs in
    /// slices of `timeslice`.
    pub fn new(
        manager: ManagerId,
        segment: SegmentId,
        working_set: u64,
        timeslice: Micros,
    ) -> Self {
        BatchJob {
            manager,
            segment,
            working_set,
            timeslice,
            state: BatchState::Saving,
            stats: BatchStats::default(),
            next_page: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BatchState {
        self.state
    }

    /// Progress counters.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Advances the job's lifecycle at the current virtual time. Call
    /// once per scheduling period (after `machine.tick()`).
    ///
    /// While saving: queries the market; once the working set is
    /// affordable for a full timeslice, faults the working set in (the
    /// manager requests the frames from the SPCM) and starts running.
    /// While running: touches its data; at the end of the slice, swaps
    /// out through the manager and returns to saving.
    ///
    /// # Errors
    ///
    /// Machine/manager failures. An `OutOfFrames` refusal while trying to
    /// come resident is treated as "keep saving", not an error.
    pub fn poll(&mut self, machine: &mut Machine) -> Result<BatchState, MachineError> {
        match self.state {
            BatchState::Saving => {
                let affordable = machine
                    .spcm()
                    .market()
                    .map(|mk| {
                        mk.time_until_affordable(self.manager, self.working_set, self.timeslice)
                            == Some(Micros::ZERO)
                    })
                    .unwrap_or(true);
                if !affordable {
                    return Ok(self.state);
                }
                // Fault the working set in; if memory is genuinely short,
                // stay quiescent and retry next period.
                for p in 0..self.working_set {
                    match machine.touch(self.segment, p, AccessKind::Write) {
                        Ok(()) => {}
                        Err(MachineError::Manager { .. }) => return Ok(self.state),
                        Err(e) => return Err(e),
                    }
                }
                self.state = BatchState::Running {
                    since: machine.now(),
                };
                Ok(self.state)
            }
            BatchState::Running { since } => {
                // Do a sweep of work over the working set.
                for _ in 0..self.working_set.min(16) {
                    let p = self.next_page % self.working_set;
                    self.next_page += 1;
                    machine.touch(self.segment, p, AccessKind::Write)?;
                }
                let ran = machine.now().duration_since(since);
                // "At the end of its time slice, when its dram savings
                // are running low, it pages out the data and returns to a
                // quiescent state": leave at the slice boundary, or early
                // if the account can no longer pay for even one more
                // second of residency.
                let broke = machine
                    .spcm()
                    .market()
                    .map(|mk| !mk.can_afford(self.manager, self.working_set, Micros::from_secs(1)))
                    .unwrap_or(false);
                if ran >= self.timeslice || broke {
                    self.swap_out(machine)?;
                    self.stats.timeslices += 1;
                    self.stats.resident_time += ran;
                    self.state = BatchState::Saving;
                }
                Ok(self.state)
            }
        }
    }

    /// Swaps the job out: the manager writes back and returns every frame
    /// it holds to the SPCM.
    ///
    /// # Errors
    ///
    /// Machine/manager failures.
    pub fn swap_out(&mut self, machine: &mut Machine) -> Result<(), MachineError> {
        let held = machine.spcm().granted_to(self.manager);
        if held > 0 {
            let id = self.manager;
            machine.with_manager(id, |mgr, env| mgr.reclaim(env, held).map(|_| ()))?;
        }
        self.stats.swap_outs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::{GenericManager, PlainSpec};
    use crate::market::{MarketConfig, MemoryMarket};
    use crate::spcm::AllocationPolicy;
    use crate::ManagerMode;
    use epcm_core::types::{SegmentKind, UserId};

    fn market_machine(frames: usize, incomes: &[f64]) -> (Machine, Vec<ManagerId>, Vec<SegmentId>) {
        let mut market = MemoryMarket::new(MarketConfig {
            income_per_sec: 0.0,
            charge_per_mb_sec: 10.0,
            free_when_uncontended: false,
            ..MarketConfig::default()
        });
        let mut m = Machine::builder(frames)
            .allocation(AllocationPolicy::Market {
                market: MemoryMarket::new(MarketConfig::default()),
                horizon: Micros::from_secs(2),
            })
            .build();
        // Rebuild the policy with our ledger (accounts opened against the
        // manager ids we are about to register: 1, 2, ...).
        let mut ids = Vec::new();
        let mut segs = Vec::new();
        for (i, &income) in incomes.iter().enumerate() {
            market.open_account(ManagerId(i as u32 + 1), Some(income));
            let mgr = GenericManager::new(PlainSpec, ManagerMode::FaultingProcess);
            let id = m.register_manager(Box::new(mgr));
            ids.push(id);
            let seg = m
                .create_segment_with(SegmentKind::Anonymous, 512, id, UserId(i as u32 + 1))
                .unwrap();
            segs.push(seg);
        }
        *m.spcm_mut() = crate::spcm::SystemPageCacheManager::new(
            AllocationPolicy::Market {
                market,
                horizon: Micros::from_secs(2),
            },
            0,
        );
        (m, ids, segs)
    }

    #[test]
    fn jobs_alternate_and_both_progress() {
        // 1.5 MB machine; each job wants 1.25 MB: they cannot both be
        // resident, so the market time-shares them.
        let (mut m, ids, segs) = market_machine(384, &[12.0, 12.0]);
        let mut jobs: Vec<BatchJob> = ids
            .iter()
            .zip(&segs)
            .map(|(&id, &seg)| BatchJob::new(id, seg, 320, Micros::from_secs(4)))
            .collect();
        let mut max_granted = 0u64;
        for _second in 0..400 {
            m.kernel_mut().charge(Micros::from_secs(1));
            m.tick().unwrap();
            for job in &mut jobs {
                job.poll(&mut m).unwrap();
            }
            let granted: u64 = ids.iter().map(|&id| m.spcm().granted_to(id)).sum();
            max_granted = max_granted.max(granted);
        }
        // Both jobs make progress (the market time-shares them via
        // affordability gating, bankruptcy and forced reclamation — not
        // strict mutual exclusion), and the SPCM never over-grants.
        for (i, job) in jobs.iter().enumerate() {
            assert!(
                job.stats().timeslices >= 2,
                "job {i} ran only {} timeslices",
                job.stats().timeslices
            );
            assert!(job.stats().swap_outs >= 2);
        }
        assert!(max_granted <= 384, "over-granted: {max_granted}");
        let k = m.kernel().stats();
        assert!(k.ring_ops > 0, "the batch lifecycle never touched the ring");
        assert_eq!(
            k.ring_batches, k.ring_ops,
            "every op rings its own doorbell"
        );
    }

    #[test]
    fn richer_job_runs_more() {
        let (mut m, ids, segs) = market_machine(384, &[6.0, 18.0]);
        let mut jobs: Vec<BatchJob> = ids
            .iter()
            .zip(&segs)
            .map(|(&id, &seg)| BatchJob::new(id, seg, 320, Micros::from_secs(4)))
            .collect();
        for _ in 0..600 {
            m.kernel_mut().charge(Micros::from_secs(1));
            m.tick().unwrap();
            for job in &mut jobs {
                job.poll(&mut m).unwrap();
            }
        }
        let poor = jobs[0].stats();
        let rich = jobs[1].stats();
        assert!(
            rich.resident_time > poor.resident_time,
            "rich {} vs poor {}",
            rich.resident_time,
            poor.resident_time
        );
    }

    #[test]
    fn swap_out_returns_every_frame() {
        let (mut m, ids, segs) = market_machine(384, &[50.0]);
        let mut job = BatchJob::new(ids[0], segs[0], 64, Micros::from_secs(1));
        // Save, then come resident.
        for _ in 0..10 {
            m.kernel_mut().charge(Micros::from_secs(1));
            m.tick().unwrap();
            job.poll(&mut m).unwrap();
            if matches!(job.state(), BatchState::Running { .. }) {
                break;
            }
        }
        assert!(matches!(job.state(), BatchState::Running { .. }));
        assert!(m.spcm().granted_to(ids[0]) >= 64);
        job.swap_out(&mut m).unwrap();
        assert_eq!(m.spcm().granted_to(ids[0]), 0);
        assert_eq!(
            m.kernel().resident_pages(segs[0]).unwrap(),
            0,
            "all pages evicted at swap-out"
        );
    }
}
