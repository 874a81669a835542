//! The structured event taxonomy.
//!
//! Events carry raw integers (segment ids, page numbers, manager ids,
//! microseconds) because this crate sits below the crates that define the
//! typed wrappers. The mapping is trivial and one-way: emitters convert
//! their typed ids with `.raw()`/`as u64` at the emission site.

use std::fmt;

/// Raw encodings for [`EventKind::Fault::access`].
pub mod access {
    /// A data or instruction read.
    pub const READ: u8 = 0;
    /// A data write.
    pub const WRITE: u8 = 1;
}

/// Raw encodings for [`EventKind::Fault::class`], mirroring the kernel's
/// fault classification (paper §2.1: the kernel classifies, managers
/// repair).
pub mod fault_class {
    /// No frame backs the page.
    pub const MISSING: u8 = 0;
    /// A frame is resident but its protection flags deny the access.
    pub const PROTECTION: u8 = 1;
    /// A write hit a copy-on-write binding.
    pub const COW: u8 = 2;
}

/// Raw encodings for [`EventKind::DeadlineMissed::upcall`], mirroring the
/// kernel watchdog's upcall classification.
pub mod upcall_code {
    /// A fault-handling upcall.
    pub const FAULT: u8 = 0;
    /// A polite-reclaim reply.
    pub const RECLAIM: u8 = 1;
    /// A periodic maintenance (tick / migration-ack) upcall.
    pub const TICK: u8 = 2;
}

/// Raw encodings for the tier fields of [`EventKind::TierMigrated`],
/// mirroring the kernel's `MemTier` codes.
pub mod tier_code {
    /// Fast main memory.
    pub const DRAM: u8 = 0;
    /// The slow (CXL/NVM-like) tier.
    pub const SLOW: u8 = 1;
    /// The compressed-RAM tier.
    pub const ZRAM: u8 = 2;
}

/// What happened. One variant per operation class in the kernel interface
/// (Table: `MigratePages`, `ModifyPageFlags`, `UioRead`, `UioWrite`,
/// fault delivery) plus the management-layer events that give the economy
/// and reclaim activity an audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The kernel delivered a page fault to a manager.
    Fault {
        /// Manager the fault was routed to.
        manager: u32,
        /// Segment needing repair.
        segment: u64,
        /// Page needing repair, in `segment`'s numbering.
        page: u64,
        /// [`access`] encoding of the faulting access.
        access: u8,
        /// [`fault_class`] encoding of the kernel's classification.
        class: u8,
    },
    /// `MigratePages` moved page frames between segments.
    Migrate {
        /// Source segment.
        from_segment: u64,
        /// Destination segment.
        to_segment: u64,
        /// Number of pages moved.
        pages: u64,
    },
    /// `ModifyPageFlags` changed protection/attribute flags.
    FlagChange {
        /// Segment operated on.
        segment: u64,
        /// First page of the affected run.
        page: u64,
        /// Number of pages whose flags changed.
        pages: u64,
        /// Raw bits of the flag mask that was set.
        flags: u16,
    },
    /// The memory market billed a manager for its frame holdings.
    MarketCharge {
        /// Manager billed.
        manager: u32,
        /// Millidrams (drams × 1000, rounded) charged this interval.
        charged: u64,
        /// Account balance after the charge, in millidrams.
        balance: i64,
    },
    /// A manager reclaimed page frames: either its replacement policy
    /// evicted pages into its own free pool (`forced == false`), or the
    /// SPCM forced it to hand frames back after bankruptcy
    /// (`forced == true`).
    Reclaim {
        /// Manager the frames came from.
        manager: u32,
        /// Number of frames reclaimed.
        frames: u64,
        /// Whether the system pager forced the reclaim (bankruptcy).
        forced: bool,
    },
    /// `UioRead` transferred data out of the page cache.
    UioRead {
        /// Segment read from.
        segment: u64,
        /// Byte offset of the transfer.
        offset: u64,
        /// Bytes transferred.
        len: u64,
    },
    /// `UioWrite` transferred data into the page cache.
    UioWrite {
        /// Segment written to.
        segment: u64,
        /// Byte offset of the transfer.
        offset: u64,
        /// Bytes transferred.
        len: u64,
    },
    /// A manager applied a batched swap: one I/O-and-migrate round trip
    /// repairing several pages at once (§2.3 batching).
    BatchSwap {
        /// Manager that issued the batch.
        manager: u32,
        /// Segment repaired.
        segment: u64,
        /// Pages covered by the batch.
        pages: u64,
    },
    /// The discrete-event simulator enqueued an event.
    Scheduled {
        /// Absolute firing time, µs.
        at_us: u64,
        /// Queue depth after the insert.
        depth: u64,
    },
    /// The backing store's fault plan injected an I/O error that a
    /// manager (or the SPCM's seizure path) observed.
    FaultInjected {
        /// Raw id of the file whose operation failed.
        file: u32,
        /// The store's operation index at the failure.
        op: u64,
        /// `true` for a write, `false` for a read.
        write: bool,
        /// Whether the failure was transient (a retry may succeed).
        transient: bool,
    },
    /// A manager retried a failed store operation after a backoff delay.
    IoRetry {
        /// Manager performing the retry.
        manager: u32,
        /// Raw id of the file being retried.
        file: u32,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// `true` for a write, `false` for a read.
        write: bool,
    },
    /// The SPCM forcibly seized frames from a non-compliant manager
    /// after a revocation deadline expired.
    ForcedReclaim {
        /// Manager the frames were seized from.
        manager: u32,
        /// Frames the revocation demanded.
        demanded: u64,
        /// Frames actually returned to the global pool.
        seized: u64,
        /// Dirty frames impounded in the quarantine pool instead
        /// (their writeback permanently failed or had no known store).
        quarantined: u64,
    },
    /// Pages were quarantined: a manager pinned dirty pages whose store
    /// is permanently dead (`destroyed == false`), or the SPCM destroyed
    /// a repeatedly non-compliant manager and impounded what remained
    /// (`destroyed == true`).
    ManagerQuarantined {
        /// The manager involved.
        manager: u32,
        /// Pages quarantined by this action.
        pages: u64,
        /// Whether the manager itself was destroyed.
        destroyed: bool,
    },
    /// A manager submitted a dirty page to the asynchronous writeback
    /// pipeline: the data has landed on the store, but the disk time is
    /// billed when the scheduled completion fires, not now.
    WritebackIssued {
        /// Manager that issued the writeback.
        manager: u32,
        /// Segment the dirty page belonged to.
        segment: u64,
        /// Page written back, in `segment`'s numbering.
        page: u64,
        /// Pipeline ticket identifying the in-flight operation.
        ticket: u64,
    },
    /// An asynchronous writeback completed: the disk reservation drained
    /// and its service time was billed to the manager.
    WritebackCompleted {
        /// Manager that owns the pipeline.
        manager: u32,
        /// Ticket of the operation that completed.
        ticket: u64,
        /// Disk service time billed at completion, µs.
        service_us: u64,
    },
    /// A laundry mapping was evicted to satisfy a free-slot request: the
    /// slot's clean backing copy is already on the store, so the cached
    /// bytes are discarded rather than written again.
    LaundryEvicted {
        /// Manager whose laundry was evicted.
        manager: u32,
        /// Segment the laundered page belonged to.
        segment: u64,
        /// Page whose cached copy was discarded.
        page: u64,
    },
    /// A manager upcall overran its watchdog deadline: the kernel
    /// observed the reply arriving after the cost-model-derived budget
    /// and recorded a strike against the manager.
    DeadlineMissed {
        /// Manager whose upcall ran late.
        manager: u32,
        /// [`upcall_code`] encoding of the upcall class.
        upcall: u8,
        /// The deadline the upcall carried, µs.
        deadline_us: u64,
        /// How long the upcall actually took, µs.
        elapsed_us: u64,
    },
    /// A manager replied to a reclaim demand with frames it does not
    /// hold, or claimed compliance it did not deliver; the kernel
    /// rejected the reply, fined the manager and proceeded unilaterally.
    ByzantineReply {
        /// The lying manager.
        manager: u32,
        /// Frames of phantom compliance the reply claimed.
        frames: u64,
    },
    /// A failed manager's segments were atomically reassigned to an heir
    /// (normally the default manager) with a warm handoff: resident
    /// pages stayed resident and the market account was settled.
    ManagerFailedOver {
        /// The manager that failed.
        manager: u32,
        /// The manager that inherited its segments.
        heir: u32,
        /// Data segments reassigned.
        segments: u64,
        /// Resident frames that moved with the segments.
        frames: u64,
    },
    /// `MigrateFrame` exchanged a page's frame across physical memory
    /// tiers (demotion or promotion).
    TierMigrated {
        /// Segment of the page that moved.
        segment: u64,
        /// Page that moved, in `segment`'s numbering.
        page: u64,
        /// [`tier_code`] encoding of the tier the page left.
        from_tier: u8,
        /// [`tier_code`] encoding of the tier the page landed in.
        to_tier: u8,
    },
    /// A manager's promotion ladder moved a hot page to a faster tier
    /// (the policy-level record; the kernel's `tier_migrated` event
    /// carries the mechanism-level exchange).
    PagePromoted {
        /// The promoting manager.
        manager: u32,
        /// Segment of the promoted page.
        segment: u64,
        /// Page that was promoted, in `segment`'s numbering.
        page: u64,
        /// [`tier_code`] encoding of the tier the page left.
        from_tier: u8,
        /// Accumulated access heat that earned the promotion.
        heat: u64,
        /// True when the promotion displaced a cold DRAM victim
        /// (exchange with a resident page) rather than landing on a
        /// free-pool DRAM frame.
        swapped: bool,
    },
    /// The coordinator's price schedule posted a new rent for one
    /// memory tier (dynamic price discovery, DESIGN.md §15).
    PriceAdjusted {
        /// The epoch whose utilization produced this rent.
        epoch: u32,
        /// [`tier_code`] encoding of the repriced tier.
        tier: u8,
        /// New rent in millidrams per MB-second (drams × 1000, rounded).
        rent: u64,
    },
}

impl EventKind {
    /// A stable short name for the variant, used as the per-kind counter
    /// key and in rendered traces.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Fault { .. } => "fault",
            EventKind::Migrate { .. } => "migrate",
            EventKind::FlagChange { .. } => "flag_change",
            EventKind::MarketCharge { .. } => "market_charge",
            EventKind::Reclaim { .. } => "reclaim",
            EventKind::UioRead { .. } => "uio_read",
            EventKind::UioWrite { .. } => "uio_write",
            EventKind::BatchSwap { .. } => "batch_swap",
            EventKind::Scheduled { .. } => "scheduled",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::IoRetry { .. } => "io_retry",
            EventKind::ForcedReclaim { .. } => "forced_reclaim",
            EventKind::ManagerQuarantined { .. } => "manager_quarantined",
            EventKind::WritebackIssued { .. } => "writeback_issued",
            EventKind::WritebackCompleted { .. } => "writeback_completed",
            EventKind::LaundryEvicted { .. } => "laundry_evicted",
            EventKind::DeadlineMissed { .. } => "deadline_missed",
            EventKind::ByzantineReply { .. } => "byzantine_reply",
            EventKind::ManagerFailedOver { .. } => "manager_failed_over",
            EventKind::TierMigrated { .. } => "tier_migrated",
            EventKind::PagePromoted { .. } => "page_promoted",
            EventKind::PriceAdjusted { .. } => "price_adjusted",
        }
    }
}

/// One recorded event: a timestamp plus [`EventKind`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event, µs since boot.
    pub time_us: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Builds an event at `time_us`.
    pub fn new(time_us: u64, kind: EventKind) -> Self {
        TraceEvent { time_us, kind }
    }
}

/// Renders one stable, line-oriented record per event. The format is part
/// of the determinism contract: two same-seed runs must render
/// byte-identical traces.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>10} {} ", self.time_us, self.kind.name())?;
        match self.kind {
            EventKind::Fault {
                manager,
                segment,
                page,
                access,
                class,
            } => write!(
                f,
                "mgr={manager} seg={segment} page={page} access={access} class={class}"
            ),
            EventKind::Migrate {
                from_segment,
                to_segment,
                pages,
            } => write!(f, "from={from_segment} to={to_segment} pages={pages}"),
            EventKind::FlagChange {
                segment,
                page,
                pages,
                flags,
            } => write!(
                f,
                "seg={segment} page={page} pages={pages} flags={flags:#06x}"
            ),
            EventKind::MarketCharge {
                manager,
                charged,
                balance,
            } => write!(f, "mgr={manager} charged={charged} balance={balance}"),
            EventKind::Reclaim {
                manager,
                frames,
                forced,
            } => write!(f, "mgr={manager} frames={frames} forced={forced}"),
            EventKind::UioRead {
                segment,
                offset,
                len,
            }
            | EventKind::UioWrite {
                segment,
                offset,
                len,
            } => write!(f, "seg={segment} off={offset} len={len}"),
            EventKind::BatchSwap {
                manager,
                segment,
                pages,
            } => write!(f, "mgr={manager} seg={segment} pages={pages}"),
            EventKind::Scheduled { at_us, depth } => write!(f, "at={at_us} depth={depth}"),
            EventKind::FaultInjected {
                file,
                op,
                write,
                transient,
            } => write!(f, "file={file} op={op} write={write} transient={transient}"),
            EventKind::IoRetry {
                manager,
                file,
                attempt,
                write,
            } => write!(
                f,
                "mgr={manager} file={file} attempt={attempt} write={write}"
            ),
            EventKind::ForcedReclaim {
                manager,
                demanded,
                seized,
                quarantined,
            } => write!(
                f,
                "mgr={manager} demanded={demanded} seized={seized} quarantined={quarantined}"
            ),
            EventKind::ManagerQuarantined {
                manager,
                pages,
                destroyed,
            } => write!(f, "mgr={manager} pages={pages} destroyed={destroyed}"),
            EventKind::WritebackIssued {
                manager,
                segment,
                page,
                ticket,
            } => write!(f, "mgr={manager} seg={segment} page={page} ticket={ticket}"),
            EventKind::WritebackCompleted {
                manager,
                ticket,
                service_us,
            } => write!(f, "mgr={manager} ticket={ticket} service={service_us}"),
            EventKind::LaundryEvicted {
                manager,
                segment,
                page,
            } => write!(f, "mgr={manager} seg={segment} page={page}"),
            EventKind::DeadlineMissed {
                manager,
                upcall,
                deadline_us,
                elapsed_us,
            } => write!(
                f,
                "mgr={manager} upcall={upcall} deadline={deadline_us} elapsed={elapsed_us}"
            ),
            EventKind::ByzantineReply { manager, frames } => {
                write!(f, "mgr={manager} frames={frames}")
            }
            EventKind::ManagerFailedOver {
                manager,
                heir,
                segments,
                frames,
            } => write!(
                f,
                "mgr={manager} heir={heir} segments={segments} frames={frames}"
            ),
            EventKind::TierMigrated {
                segment,
                page,
                from_tier,
                to_tier,
            } => write!(f, "seg={segment} page={page} from={from_tier} to={to_tier}"),
            EventKind::PagePromoted {
                manager,
                segment,
                page,
                from_tier,
                heat,
                swapped,
            } => write!(
                f,
                "mgr={manager} seg={segment} page={page} from={from_tier} heat={heat} swapped={swapped}"
            ),
            EventKind::PriceAdjusted { epoch, tier, rent } => {
                write!(f, "epoch={epoch} tier={tier} rent={rent}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let kinds = [
            EventKind::Fault {
                manager: 1,
                segment: 2,
                page: 3,
                access: access::READ,
                class: fault_class::MISSING,
            },
            EventKind::Migrate {
                from_segment: 1,
                to_segment: 2,
                pages: 3,
            },
            EventKind::FlagChange {
                segment: 1,
                page: 0,
                pages: 4,
                flags: 0x3,
            },
            EventKind::MarketCharge {
                manager: 1,
                charged: 5,
                balance: -2,
            },
            EventKind::Reclaim {
                manager: 1,
                frames: 8,
                forced: true,
            },
            EventKind::UioRead {
                segment: 1,
                offset: 0,
                len: 4096,
            },
            EventKind::UioWrite {
                segment: 1,
                offset: 0,
                len: 4096,
            },
            EventKind::BatchSwap {
                manager: 1,
                segment: 2,
                pages: 8,
            },
            EventKind::Scheduled {
                at_us: 10,
                depth: 1,
            },
            EventKind::FaultInjected {
                file: 0,
                op: 9,
                write: true,
                transient: true,
            },
            EventKind::IoRetry {
                manager: 1,
                file: 0,
                attempt: 2,
                write: false,
            },
            EventKind::ForcedReclaim {
                manager: 1,
                demanded: 16,
                seized: 12,
                quarantined: 4,
            },
            EventKind::ManagerQuarantined {
                manager: 1,
                pages: 4,
                destroyed: false,
            },
            EventKind::WritebackIssued {
                manager: 1,
                segment: 2,
                page: 3,
                ticket: 4,
            },
            EventKind::WritebackCompleted {
                manager: 1,
                ticket: 4,
                service_us: 1500,
            },
            EventKind::LaundryEvicted {
                manager: 1,
                segment: 2,
                page: 3,
            },
            EventKind::DeadlineMissed {
                manager: 1,
                upcall: upcall_code::FAULT,
                deadline_us: 12_128,
                elapsed_us: 24_000,
            },
            EventKind::ByzantineReply {
                manager: 1,
                frames: 3,
            },
            EventKind::ManagerFailedOver {
                manager: 1,
                heir: 0,
                segments: 2,
                frames: 16,
            },
            EventKind::TierMigrated {
                segment: 1,
                page: 0,
                from_tier: tier_code::DRAM,
                to_tier: tier_code::SLOW,
            },
            EventKind::PagePromoted {
                manager: 0,
                segment: 1,
                page: 4,
                from_tier: tier_code::SLOW,
                heat: 3,
                swapped: false,
            },
            EventKind::PriceAdjusted {
                epoch: 2,
                tier: tier_code::DRAM,
                rent: 200_000,
            },
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "fault",
                "migrate",
                "flag_change",
                "market_charge",
                "reclaim",
                "uio_read",
                "uio_write",
                "batch_swap",
                "scheduled",
                "fault_injected",
                "io_retry",
                "forced_reclaim",
                "manager_quarantined",
                "writeback_issued",
                "writeback_completed",
                "laundry_evicted",
                "deadline_missed",
                "byzantine_reply",
                "manager_failed_over",
                "tier_migrated",
                "page_promoted",
                "price_adjusted",
            ]
        );
    }

    #[test]
    fn display_is_line_oriented_and_stable() {
        let ev = TraceEvent::new(
            1234,
            EventKind::Fault {
                manager: 7,
                segment: 3,
                page: 42,
                access: access::WRITE,
                class: fault_class::COW,
            },
        );
        assert_eq!(
            ev.to_string(),
            "      1234 fault mgr=7 seg=3 page=42 access=1 class=2"
        );
        assert!(!ev.to_string().contains('\n'));
    }
}
