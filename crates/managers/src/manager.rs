//! The segment-manager interface.
//!
//! A *segment manager* is the process-level module responsible for the
//! pages of one or more segments (§2.2): it handles page faults, reclaims
//! pages into its free-page segment, and negotiates with the system page
//! cache manager for its share of physical memory. The kernel knows
//! managers only by [`ManagerId`]; this crate gives them behaviour.

use std::fmt;

use epcm_core::fault::FaultEvent;
use epcm_core::kernel::Kernel;
use epcm_core::types::{ManagerId, SegmentId};
use epcm_sim::disk::FileStore;

use crate::spcm::{SpcmError, SystemPageCacheManager};

/// Where a manager executes, which determines fault-dispatch cost
/// (Table 1's two V++ rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManagerMode {
    /// The manager module runs as a procedure of the faulting process on a
    /// pinned signal stack: no context switch, and on R3000-class hardware
    /// the application resumes directly from the handler (107 µs minimal
    /// fault).
    FaultingProcess,
    /// The manager runs as a separate server process: the kernel suspends
    /// the faulting process and communicates by IPC (379 µs minimal fault).
    /// The default segment manager runs this way.
    Server,
}

impl fmt::Display for ManagerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerMode::FaultingProcess => write!(f, "faulting-process"),
            ManagerMode::Server => write!(f, "server"),
        }
    }
}

/// The world a manager operates in: the kernel it calls back into, the
/// backing store it fetches and writes pages against, and the system page
/// cache manager it negotiates frames with.
///
/// The fields are disjoint borrows so a manager can, e.g., ask the SPCM
/// for frames (`env.spcm`) which itself migrates them through
/// `env.kernel`.
#[derive(Debug)]
pub struct Env<'a> {
    /// The V++ kernel.
    pub kernel: &'a mut Kernel,
    /// Backing storage (files, swap).
    pub store: &'a mut FileStore,
    /// The global frame allocator.
    pub spcm: &'a mut SystemPageCacheManager,
}

/// Errors a manager can report while servicing an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagerError {
    /// A kernel operation failed — a manager bug or stale state.
    Kernel(epcm_core::KernelError),
    /// The SPCM would not provide frames and the manager found nothing to
    /// reclaim: genuinely out of memory.
    OutOfFrames {
        /// The manager that starved.
        manager: ManagerId,
    },
    /// The fault names a segment this manager does not manage.
    NotManaged {
        /// The unexpected segment.
        segment: SegmentId,
    },
    /// Backing-store failure.
    Store(epcm_sim::disk::FileStoreError),
    /// SPCM interaction failed.
    Spcm(SpcmError),
    /// The faulting access violates protection the manager will not
    /// lift (e.g. a write through a read-only bound region) — the
    /// application would receive a signal.
    ProtectionDenied {
        /// Segment of the denied access.
        segment: SegmentId,
        /// Page of the denied access.
        page: epcm_core::PageNumber,
    },
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::Kernel(e) => write!(f, "kernel: {e}"),
            ManagerError::OutOfFrames { manager } => {
                write!(f, "{manager} has no free frames and nothing reclaimable")
            }
            ManagerError::NotManaged { segment } => {
                write!(f, "fault for unmanaged segment {segment}")
            }
            ManagerError::Store(e) => write!(f, "store: {e}"),
            ManagerError::Spcm(e) => write!(f, "spcm: {e}"),
            ManagerError::ProtectionDenied { segment, page } => {
                write!(f, "access denied by protection on {page} of {segment}")
            }
        }
    }
}

impl std::error::Error for ManagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManagerError::Kernel(e) => Some(e),
            ManagerError::Store(e) => Some(e),
            ManagerError::Spcm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<epcm_core::KernelError> for ManagerError {
    fn from(e: epcm_core::KernelError) -> Self {
        ManagerError::Kernel(e)
    }
}

impl From<epcm_sim::disk::FileStoreError> for ManagerError {
    fn from(e: epcm_sim::disk::FileStoreError) -> Self {
        ManagerError::Store(e)
    }
}

impl From<SpcmError> for ManagerError {
    fn from(e: SpcmError) -> Self {
        ManagerError::Spcm(e)
    }
}

/// A process-level page-cache manager.
///
/// Implementations receive faults from the [`Machine`](crate::Machine)
/// dispatch loop and repair them by re-entering the kernel (allocating
/// frames, migrating pages, fetching data). The kernel itself never calls
/// a manager.
pub trait SegmentManager: fmt::Debug {
    /// The id this manager was registered under.
    fn id(&self) -> ManagerId;

    /// Type-erased self, so callers holding a `dyn SegmentManager` can
    /// downcast to a concrete manager for its statistics or
    /// manager-specific operations.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable type-erased self (for manager-specific commands like
    /// shrinking a footprint or marking pages discardable).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Called once by the machine at registration to fix the id.
    fn set_id(&mut self, id: ManagerId);

    /// Execution mode (affects dispatch cost).
    fn mode(&self) -> ManagerMode {
        ManagerMode::Server
    }

    /// Takes over management of `segment`: record its backing store,
    /// register with the kernel, seed policy state. Called by
    /// [`Machine::create_segment`](crate::Machine::create_segment) and by
    /// applications handing an existing segment to a new manager (the
    /// §2.2 ownership-assumption protocol).
    ///
    /// # Errors
    ///
    /// Implementations report [`ManagerError`] for kernel failures.
    fn attach(&mut self, env: &mut Env<'_>, segment: SegmentId) -> Result<(), ManagerError> {
        let _ = (env, segment);
        Ok(())
    }

    /// Handles one fault. On return the faulting access is retried; if it
    /// faults identically again the machine reports a livelock.
    ///
    /// # Errors
    ///
    /// Implementations report [`ManagerError`] when the fault cannot be
    /// repaired (out of frames, unmanaged segment, backing-store failure).
    fn handle_fault(&mut self, env: &mut Env<'_>, fault: &FaultEvent) -> Result<(), ManagerError>;

    /// Asked (by the machine, usually on behalf of the SPCM) to give back
    /// `count` frames. Returns how many were actually returned.
    ///
    /// # Errors
    ///
    /// Implementations report [`ManagerError`] for kernel or store
    /// failures encountered while writing back and migrating pages.
    fn reclaim(&mut self, env: &mut Env<'_>, count: u64) -> Result<u64, ManagerError>;

    /// Notification that `segment` is being closed: write back what must
    /// survive and return its frames.
    ///
    /// # Errors
    ///
    /// As for [`SegmentManager::reclaim`].
    fn segment_closed(&mut self, env: &mut Env<'_>, segment: SegmentId)
        -> Result<(), ManagerError>;

    /// Housekeeping opportunity (reference-bit sampling, free-pool refill,
    /// market budgeting). Called by [`Machine::tick`](crate::Machine::tick).
    ///
    /// # Errors
    ///
    /// As for [`SegmentManager::reclaim`].
    fn tick(&mut self, env: &mut Env<'_>) -> Result<(), ManagerError> {
        let _ = env;
        Ok(())
    }

    /// Number of free frames currently held in the manager's free-page
    /// segment(s) (0 for managers without one).
    fn free_frames(&self, kernel: &Kernel) -> u64 {
        let _ = kernel;
        0
    }

    /// Installs a shared event tracer; managers that emit trace events
    /// (reclaims, batched swaps) record into it. Default: ignore — most
    /// managers' activity is already visible through the kernel's events.
    fn set_tracer(&mut self, tracer: epcm_trace::SharedTracer) {
        let _ = tracer;
    }

    /// Exports this manager's counters into the unified metrics registry
    /// under `manager.<id>.*` names. Default: nothing to export.
    fn export_metrics(&self, metrics: &mut epcm_trace::MetricsRegistry) {
        let _ = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_display() {
        assert_eq!(ManagerMode::FaultingProcess.to_string(), "faulting-process");
        assert_eq!(ManagerMode::Server.to_string(), "server");
    }

    #[test]
    fn error_display_and_sources() {
        use std::error::Error;
        let e = ManagerError::OutOfFrames {
            manager: ManagerId(3),
        };
        assert!(e.to_string().contains("mgr#3"));
        assert!(e.source().is_none());

        let k: ManagerError = epcm_core::KernelError::UnknownSegment(
            // SegmentId has a crate-private field; round-trip through the
            // kernel API instead.
            {
                let kernel = Kernel::new(1);
                kernel.frame_pool()
            },
        )
        .into();
        assert!(k.to_string().contains("kernel"));
        assert!(k.source().is_some());
    }
}
