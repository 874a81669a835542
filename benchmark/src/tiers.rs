//! `tier_zipf_read` and `tier_write_churn`: one tiered machine, a
//! segment a third larger than its memory, a closed loop of 8-byte
//! accesses from one thread and a `tick` every [`TICK_EVERY`] ops.
//!
//! The two share every layer but use them differently. `tier_zipf_read`
//! loads from a file-backed segment through the direct ABI with
//! synchronous writeback: the hit path, clean reclaim, demotion and
//! promotion, with the ring and the writeback pipeline bypassed.
//! `tier_write_churn` alternates stores and loads on an anonymous
//! segment with a hot quarter taking 80% of references, through the
//! batched ABI and the asynchronous writeback pipeline: laundry,
//! writeback completions and `drain_ring` join the path. A gain that
//! costs the other path shows as a loss on one of the two.
//!
//! Every store writes an 8-byte `(page, version)` stamp and every load is
//! checked against a shadow of the last version stored, so the data is
//! verified through eviction, demotion, promotion swaps and writeback.

use std::time::Instant;

use epcm_core::tier::TierLayout;
use epcm_core::types::{ManagerId, SegmentId, SegmentKind, BASE_PAGE_SIZE};
use epcm_managers::default_manager::{DefaultManagerConfig, DefaultSegmentManager};
use epcm_managers::{Machine, MachineError, ManagerMode};
use epcm_workloads::scan::{AccessPattern, ReferenceStream};

use crate::probe::{Counters, OpStats, Probe};
use crate::report::Metrics;
use crate::run::{Ctx, RepOut, Scale};
use crate::trace::{Layer, Tracer};

/// Ops between two ticks.
pub const TICK_EVERY: u64 = 1024;

/// Which of the two tier workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Zipf(0.9) loads from a file-backed segment.
    ZipfRead,
    /// Half stores, half loads, hot/cold, on an anonymous segment.
    WriteChurn,
}

fn layout() -> TierLayout {
    TierLayout::new(512, 2048, 512)
}

/// Accesses per repetition: at full scale, 1000 ticks, the fewest that
/// give a tick p99.
fn accesses(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1_024_000,
        Scale::Tiny => 20_000,
    }
}

fn manager_config(mode: Mode) -> DefaultManagerConfig {
    let tiered = DefaultManagerConfig {
        sample_batch: 128,
        promotion_budget: 16,
        ..DefaultManagerConfig::default()
    };
    match mode {
        Mode::ZipfRead => tiered,
        Mode::WriteChurn => DefaultManagerConfig {
            async_writeback: true,
            writeback_window: 4,
            batched_abi: true,
            ring_capacity: 64,
            ..tiered
        },
    }
}

/// The 8 bytes version `version` of `page` holds at the page's start.
fn stamp(page: u64, version: u64) -> u64 {
    (page << 32) | version
}

fn offset(page: u64) -> u64 {
    page * BASE_PAGE_SIZE
}

/// The machine, its segment, and the version of every page's stamp.
struct Setup {
    m: Machine,
    mgr: ManagerId,
    seg: SegmentId,
    shadow: Vec<u64>,
    mismatches: u64,
}

fn setup(mode: Mode) -> Result<Setup, MachineError> {
    let layout = layout();
    let pages = layout.total() * 4 / 3;
    let mut m = Machine::builder(layout.total() as usize)
        .tiers(layout)
        .build();
    let mgr = m.register_manager(Box::new(DefaultSegmentManager::with_config(
        ManagerMode::Server,
        manager_config(mode),
    )));
    m.set_default_manager(mgr);
    // Warm-up pass: every page once, so the window starts with the
    // memory full, the tiers populated and every page holding version 1
    // of its stamp. (An anonymous page nobody wrote has no defined
    // contents: V++ hands a frame to another page of the same user
    // without zeroing it.)
    let mut mismatches = 0;
    let seg = match mode {
        Mode::ZipfRead => {
            let mut data = vec![0u8; (pages * BASE_PAGE_SIZE) as usize];
            for p in 0..pages {
                let at = offset(p) as usize;
                data[at..at + 8].copy_from_slice(&stamp(p, 1).to_le_bytes());
            }
            m.store_mut().create_with("tier-data", data);
            let seg = m.open_file("tier-data")?;
            for p in 0..pages {
                let mut buf = [0u8; 8];
                m.load(seg, offset(p), &mut buf)?;
                mismatches += u64::from(u64::from_le_bytes(buf) != stamp(p, 1));
            }
            seg
        }
        Mode::WriteChurn => {
            let seg = m.create_segment(SegmentKind::Anonymous, pages)?;
            for p in 0..pages {
                m.store_bytes(seg, offset(p), &stamp(p, 1).to_le_bytes())?;
            }
            seg
        }
    };
    m.tick()?;
    Ok(Setup {
        m,
        mgr,
        seg,
        shadow: vec![1; pages as usize],
        mismatches,
    })
}

/// One repetition.
pub fn rep(mode: Mode, ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> RepOut {
    let setup_start = Instant::now();
    let Setup {
        mut m,
        mgr,
        seg,
        mut shadow,
        mismatches: warm_mismatches,
    } = match setup(mode) {
        Ok(s) => s,
        Err(e) => return RepOut::failed_setup(&e),
    };
    if let Some(page) = ctx.corrupt_shadow {
        shadow[page as usize] += 1;
    }
    let pages = shadow.len() as u64;
    let pattern = match mode {
        Mode::ZipfRead => AccessPattern::Zipf(0.9),
        Mode::WriteChurn => AccessPattern::HotCold {
            hot: pages / 4,
            hot_fraction: 0.8,
        },
    };
    let mut stream = ReferenceStream::new(pattern, pages, ctx.seed);
    let setup = setup_start.elapsed();

    let mut ops = OpStats::default();
    let mut mismatches = warm_mismatches;
    let before = Counters::read(&m, mgr);
    let v0 = m.now();
    let start = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.open("rep", v0.as_micros(), 0);
    }
    {
        let mut p = Probe::new(&mut m, tracer.as_deref_mut(), &mut ops);
        for i in 1..=accesses(ctx.scale) {
            let page = stream.next_page();
            let at = offset(page);
            let version = &mut shadow[page as usize];
            if mode == Mode::WriteChurn && i % 2 == 0 {
                *version += 1;
                p.store_bytes(seg, at, &stamp(page, *version).to_le_bytes());
            } else {
                let mut buf = [0u8; 8];
                if p.load(seg, at, &mut buf) && u64::from_le_bytes(buf) != stamp(page, *version) {
                    mismatches += 1;
                }
            }
            if i % TICK_EVERY == 0 {
                p.tick();
            }
        }
    }
    let window = start.elapsed();
    let elapsed_us = m.now().duration_since(v0).as_micros();
    if let Some(t) = tracer {
        t.close(Layer::Bench, m.now().as_micros());
    }
    let counters = Counters::read(&m, mgr) - before;

    let mut exact = Metrics::default();
    exact.push("virt_elapsed_s", elapsed_us as f64 / 1e6, "s");
    ops.metrics(&mut exact);
    counters.metrics(ops.ops, elapsed_us, ops.tick_virt_us, &mut exact);
    // Every virtual µs of the window is inside some wrapped call.
    let unattributed = u64::from(ops.virt_total_us() != elapsed_us);
    RepOut {
        setup,
        window,
        ops: ops.ops,
        failed: ops.errors + mismatches + unattributed,
        exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_shadow_entry_fails_the_oracle() {
        let ctx = Ctx::tiny(42);
        let clean = rep(Mode::ZipfRead, &ctx, None);
        assert_eq!(clean.failed, 0);
        // Page 0 is the most popular Zipf rank, so it is loaded.
        let corrupt = Ctx {
            corrupt_shadow: Some(0),
            ..ctx
        };
        let bad = rep(Mode::ZipfRead, &corrupt, None);
        assert!(bad.failed > 0, "a wrong shadow version went unnoticed");
    }
}
