//! The wrapped `Machine` calls every machine-driven workload makes, and
//! the layer counters read through the machine's public statistics.
//!
//! Each call is one op: its virtual time is the `Machine::now()` delta,
//! and it counts as a kernel hit when the machine dispatched no fault
//! while serving it. With a tracer attached, each call is also a span.

use std::ops::{AddAssign, Index, Sub};

use epcm_core::types::{AccessKind, ManagerId, SegmentId, SegmentKind};
use epcm_managers::default_manager::DefaultSegmentManager;
use epcm_managers::{Machine, MachineError};
use epcm_sim::clock::Micros;

use crate::report::Metrics;
use crate::stats::{ratio, Counts};
use crate::trace::{Layer, Tracer};

/// The wrapped `Machine` entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Load,
    Store,
    Touch,
    UioRead,
    UioWrite,
    OpenFile,
    CreateSegment,
    CloseSegment,
    Tick,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Load => "load",
            Call::Store => "store_bytes",
            Call::Touch => "touch",
            Call::UioRead => "uio_read",
            Call::UioWrite => "uio_write",
            Call::OpenFile => "open_file",
            Call::CreateSegment => "create_segment",
            Call::CloseSegment => "close_segment",
            Call::Tick => "tick",
        }
    }

    /// Calls that reference memory and may fault.
    fn is_access(self) -> bool {
        matches!(
            self,
            Call::Load | Call::Store | Call::Touch | Call::UioRead | Call::UioWrite
        )
    }
}

/// Op accounting shared by every machine one repetition drives.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Wrapped calls made.
    pub ops: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Memory-referencing calls.
    pub access_calls: u64,
    /// Memory-referencing calls that dispatched no fault.
    pub hits: u64,
    /// Virtual µs of every op.
    pub virt_us: Counts,
    /// Virtual µs of the memory-referencing calls that faulted.
    pub fault_virt_us: Counts,
    /// Virtual µs spent in ticks.
    pub tick_virt_us: u64,
    /// Virtual µs per layer the calls were attributed to.
    pub layer_virt_us: [u64; Layer::ALL.len()],
}

impl OpStats {
    /// Virtual µs of every wrapped call and compute charge.
    pub fn virt_total_us(&self) -> u64 {
        self.layer_virt_us.iter().sum()
    }

    /// The op-level virtual metrics: per-op percentiles, the op count
    /// and the per-layer virtual time.
    pub fn metrics(&self, out: &mut Metrics) {
        out.push("ops", self.ops as f64, "count");
        out.push_percentiles("virt_op_us", &self.virt_us, "us");
        out.push(
            "kernel.hit_ratio",
            ratio(self.hits, self.access_calls),
            "ratio",
        );
        out.push_percentiles("machine.fault_virt_us", &self.fault_virt_us, "us");
        for layer in [Layer::Kernel, Layer::Machine, Layer::Workloads] {
            let us = self.layer_virt_us[layer.index()];
            if us > 0 {
                out.push(format!("{}.virt_s", layer.name()), us as f64 / 1e6, "s");
            }
        }
    }
}

/// A machine whose calls are counted, timed and (optionally) traced.
pub struct Probe<'a> {
    m: &'a mut Machine,
    tracer: Option<&'a mut Tracer>,
    stats: &'a mut OpStats,
}

impl<'a> Probe<'a> {
    /// Wraps `m`; ops accumulate into `stats`.
    pub fn new(m: &'a mut Machine, tracer: Option<&'a mut Tracer>, stats: &'a mut OpStats) -> Self {
        Probe { m, tracer, stats }
    }

    /// [`Machine::load`]; `false` on error.
    pub fn load(&mut self, seg: SegmentId, offset: u64, buf: &mut [u8]) -> bool {
        self.call(Call::Load, |m| m.load(seg, offset, buf))
            .is_some()
    }

    /// [`Machine::store_bytes`]; `false` on error.
    pub fn store_bytes(&mut self, seg: SegmentId, offset: u64, buf: &[u8]) -> bool {
        self.call(Call::Store, |m| m.store_bytes(seg, offset, buf))
            .is_some()
    }

    /// [`Machine::touch`]; `false` on error.
    pub fn touch(&mut self, seg: SegmentId, page: u64, access: AccessKind) -> bool {
        self.call(Call::Touch, |m| m.touch(seg, page, access))
            .is_some()
    }

    /// [`Machine::uio_read`]; `false` on error.
    pub fn uio_read(&mut self, seg: SegmentId, offset: u64, buf: &mut [u8]) -> bool {
        self.call(Call::UioRead, |m| m.uio_read(seg, offset, buf))
            .is_some()
    }

    /// [`Machine::uio_write`]; `false` on error.
    pub fn uio_write(&mut self, seg: SegmentId, offset: u64, buf: &[u8]) -> bool {
        self.call(Call::UioWrite, |m| m.uio_write(seg, offset, buf))
            .is_some()
    }

    /// [`Machine::open_file`].
    pub fn open_file(&mut self, name: &str) -> Option<SegmentId> {
        self.call(Call::OpenFile, |m| m.open_file(name))
    }

    /// [`Machine::create_segment`].
    pub fn create_segment(&mut self, kind: SegmentKind, pages: u64) -> Option<SegmentId> {
        self.call(Call::CreateSegment, |m| m.create_segment(kind, pages))
    }

    /// [`Machine::close_segment`]; `false` on error.
    pub fn close_segment(&mut self, seg: SegmentId) -> bool {
        self.call(Call::CloseSegment, |m| m.close_segment(seg))
            .is_some()
    }

    /// [`Machine::tick`]; `false` on error.
    pub fn tick(&mut self) -> bool {
        self.call(Call::Tick, Machine::tick).is_some()
    }

    /// Charges an application's compute time to the kernel clock. Not an
    /// op; its virtual time is attributed to the workloads layer.
    pub fn compute(&mut self, d: Micros) {
        let v0 = self.m.now().as_micros();
        if let Some(t) = self.tracer.as_deref_mut() {
            t.open("compute", v0, 0);
        }
        self.m.kernel_mut().charge(d);
        let v1 = self.m.now().as_micros();
        self.stats.layer_virt_us[Layer::Workloads.index()] += v1 - v0;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.close(Layer::Workloads, v1);
        }
    }

    fn call<R>(
        &mut self,
        call: Call,
        f: impl FnOnce(&mut Machine) -> Result<R, MachineError>,
    ) -> Option<R> {
        self.stats.ops += 1;
        let v0 = self.m.now().as_micros();
        let dispatched = self.m.stats().manager_calls;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.open(call.name(), v0, self.stats.ops);
        }
        let result = f(self.m);
        let v1 = self.m.now().as_micros();
        let faulted = self.m.stats().manager_calls > dispatched;
        let hit = call.is_access() && !faulted;
        let layer = if hit { Layer::Kernel } else { Layer::Machine };
        let s = &mut *self.stats;
        s.virt_us.record(v1 - v0);
        s.layer_virt_us[layer.index()] += v1 - v0;
        if call.is_access() {
            s.access_calls += 1;
            if hit {
                s.hits += 1;
            } else {
                s.fault_virt_us.record(v1 - v0);
            }
        }
        if call == Call::Tick {
            s.tick_virt_us += v1 - v0;
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            let ns = t.close(layer, v1);
            if call.is_access() {
                t.record(if hit { "kernel.hit" } else { "machine.fault" }, ns);
            }
            match call {
                Call::UioRead | Call::UioWrite => t.record("machine.uio", ns),
                Call::OpenFile | Call::CreateSegment | Call::CloseSegment => {
                    t.record("machine.segment", ns)
                }
                Call::Tick => t.record("machine.tick", ns),
                _ => {}
            }
        }
        result
            .map_err(|e| {
                self.stats.errors += 1;
                if self.stats.errors <= 5 {
                    eprintln!("benchmark: {} failed: {e}", call.name());
                }
            })
            .ok()
    }
}

/// The layer counters the benchmark reads from one machine, in the
/// order [`Counters::read`] lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    References,
    Faults,
    MigrateCalls,
    PagesMigrated,
    UioReads,
    UioWrites,
    ZeroFills,
    SlowAccesses,
    ZramAccesses,
    Crossings,
    RingBatches,
    RingOps,
    TlbHits,
    TlbMisses,
    MapHits,
    MapMisses,
    ManagerCalls,
    ManagerTimeUs,
    MgrMigrateCalls,
    Reclaimed,
    Rescues,
    FileFills,
    SamplingFaults,
    Demotions,
    Promotions,
    HeatEvents,
    PromotedToFree,
    PromotedSwapped,
    PromotionNoTarget,
    WbStalls,
    WbDirtyVictimUs,
    WbBilledUs,
}

const COUNTERS: usize = Count::WbBilledUs as usize + 1;

/// Cumulative counters of one machine (kernel, machine and default
/// manager), read through their public statistics. Differences of two
/// readings are window deltas; sums over machines are repetition totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    v: [u64; COUNTERS],
    /// High-water mark of concurrent writebacks (a maximum, not a sum).
    wb_inflight_peak: u64,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            v: [0; COUNTERS],
            wb_inflight_peak: 0,
        }
    }
}

impl Counters {
    /// Reads every counter of `m`; `mgr` names its default manager.
    pub fn read(m: &Machine, mgr: ManagerId) -> Counters {
        let k = m.kernel_stats();
        let tlb = m.kernel().tlb_stats();
        let map = m.kernel().mapping_stats();
        let s = m.stats();
        let dm = m
            .manager(mgr)
            .and_then(|x| x.as_any().downcast_ref::<DefaultSegmentManager>());
        let (ds, wb, ps, peak) = dm.map_or_else(Default::default, |d| {
            (
                d.manager_stats(),
                d.writeback_stats(),
                d.promotion_stats(),
                d.writeback_inflight_peak(),
            )
        });
        let v = [
            k.references,
            k.faults(),
            k.migrate_calls,
            k.pages_migrated,
            k.uio_reads,
            k.uio_writes,
            k.zero_fills,
            k.slow_accesses,
            k.zram_accesses,
            k.crossings,
            k.ring_batches,
            k.ring_ops,
            tlb.hits,
            tlb.misses,
            map.direct_hits + map.overflow_hits,
            map.misses,
            s.manager_calls,
            s.manager_time.as_micros(),
            ds.migrate_calls,
            ds.reclaimed,
            ds.laundry_rescues,
            ds.file_fills,
            ds.sampling_faults,
            ds.demotions,
            ds.promotions,
            ps.heat_events,
            ps.to_free,
            ps.swapped,
            ps.no_target,
            wb.stalls,
            wb.dirty_victim_us,
            wb.billed_us,
        ];
        Counters {
            v,
            wb_inflight_peak: peak,
        }
    }

    /// The per-layer metrics these counters (a window delta or a sum of
    /// them) give, for `ops` wrapped calls whose virtual time was
    /// `virt_us`, `tick_virt_us` of it in ticks.
    pub fn metrics(&self, ops: u64, virt_us: u64, tick_virt_us: u64, out: &mut Metrics) {
        let c = self;
        out.push(
            "kernel.crossings_per_fault",
            ratio(c[Count::Crossings], c[Count::Faults]),
            "ratio",
        );
        out.push(
            "kernel.pages_per_migrate",
            ratio(c[Count::PagesMigrated], c[Count::MigrateCalls]),
            "ratio",
        );
        out.push("kernel.zero_fills", c[Count::ZeroFills] as f64, "count");
        out.push(
            "kernel.tlb_miss_ratio",
            ratio(c[Count::TlbMisses], c[Count::TlbHits] + c[Count::TlbMisses]),
            "ratio",
        );
        out.push(
            "kernel.mapping_miss_ratio",
            ratio(c[Count::MapMisses], c[Count::MapHits] + c[Count::MapMisses]),
            "ratio",
        );
        out.push(
            "kernel.slow_access_ratio",
            ratio(
                c[Count::SlowAccesses] + c[Count::ZramAccesses],
                c[Count::References],
            ),
            "ratio",
        );
        out.push(
            "machine.faults_per_op",
            ratio(c[Count::Faults], ops),
            "ratio",
        );
        out.push(
            "machine.manager_us_per_call",
            ratio(c[Count::ManagerTimeUs], c[Count::ManagerCalls]),
            "us",
        );
        out.push(
            "machine.tick_virt_share",
            ratio(tick_virt_us, virt_us),
            "ratio",
        );
        let placed = c[Count::PromotedToFree] + c[Count::PromotedSwapped];
        for (name, value, unit) in [
            ("reclaimed", c[Count::Reclaimed] as f64, "count"),
            (
                "rescue_ratio",
                ratio(c[Count::Rescues], c[Count::Reclaimed]),
                "ratio",
            ),
            ("file_fills", c[Count::FileFills] as f64, "count"),
            ("sampling_faults", c[Count::SamplingFaults] as f64, "count"),
            ("demotions", c[Count::Demotions] as f64, "count"),
            ("promotions", c[Count::Promotions] as f64, "count"),
            (
                "promotion_placed_ratio",
                ratio(placed, placed + c[Count::PromotionNoTarget]),
                "ratio",
            ),
            ("heat_events", c[Count::HeatEvents] as f64, "count"),
            ("wb_stalls", c[Count::WbStalls] as f64, "count"),
            ("wb_inflight_peak", c.wb_inflight_peak as f64, "count"),
            ("wb_dirty_victim_us", c[Count::WbDirtyVictimUs] as f64, "us"),
            ("wb_billed_us", c[Count::WbBilledUs] as f64, "us"),
        ] {
            out.push(format!("default_manager.{name}"), value, unit);
        }
        out.push("ring.batches", c[Count::RingBatches] as f64, "count");
        out.push(
            "ring.ops_per_batch",
            ratio(c[Count::RingOps], c[Count::RingBatches]),
            "ratio",
        );
    }
}

impl Index<Count> for Counters {
    type Output = u64;

    fn index(&self, c: Count) -> &u64 {
        &self.v[c as usize]
    }
}

impl Sub for Counters {
    type Output = Counters;

    /// The change from `before` to `self`; the writeback peak is the
    /// later reading.
    fn sub(self, before: Counters) -> Counters {
        let mut v = self.v;
        for (x, b) in v.iter_mut().zip(before.v) {
            *x -= b;
        }
        Counters {
            v,
            wb_inflight_peak: self.wb_inflight_peak,
        }
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, other: Counters) {
        for (x, o) in self.v.iter_mut().zip(other.v) {
            *x += o;
        }
        self.wb_inflight_peak = self.wb_inflight_peak.max(other.wb_inflight_peak);
    }
}
