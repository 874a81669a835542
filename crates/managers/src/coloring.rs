//! Application-specific page coloring.
//!
//! §1: "an application can allocate physical pages to virtual pages to
//! minimize mapping collisions in physically addressed caches and TLBs,
//! implementing page coloring \[15\] on an application-specific basis". The
//! specialisation asks the SPCM for frames whose color (physical page
//! number modulo the number of colors) matches the virtual page's color,
//! so consecutive virtual pages never collide in a direct-mapped
//! physically-indexed cache.

use std::collections::BTreeMap;

use epcm_core::kernel::Kernel;
use epcm_core::types::{PageNumber, SegmentId};

use crate::generic::{GenericManager, Specialization};
use crate::manager::ManagerMode;
use crate::spcm::PhysConstraint;

/// The coloring specialisation: virtual page `p` gets a frame of color
/// `p % colors`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColoringSpec {
    colors: u32,
}

impl ColoringSpec {
    /// Creates a spec for a cache with `colors` page colors (cache size /
    /// (associativity × page size)).
    ///
    /// # Panics
    ///
    /// Panics if `colors` is zero.
    pub fn new(colors: u32) -> Self {
        assert!(colors > 0, "a cache has at least one color");
        ColoringSpec { colors }
    }

    /// Number of colors.
    pub fn colors(&self) -> u32 {
        self.colors
    }
}

impl Specialization for ColoringSpec {
    fn frame_constraint(&self, _seg: SegmentId, page: PageNumber) -> PhysConstraint {
        PhysConstraint::Color {
            color: (page.as_u64() % self.colors as u64) as u32,
            colors: self.colors,
        }
    }
}

/// A manager allocating color-matched frames.
pub type ColoringManager = GenericManager<ColoringSpec>;

/// Creates a page-coloring manager running in the faulting process.
pub fn coloring_manager(colors: u32) -> ColoringManager {
    GenericManager::new(ColoringSpec::new(colors), ManagerMode::FaultingProcess)
}

/// Audit of a segment's frame-color assignment against the ideal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorAudit {
    /// Pages whose frame color matches their virtual color.
    pub matched: u64,
    /// Pages whose frame color differs (constraint degraded).
    pub mismatched: u64,
    /// Resident pages per frame color.
    pub per_color: BTreeMap<u32, u64>,
}

impl ColorAudit {
    /// Worst-case overcommit: the most-loaded color's page count minus the
    /// ideal even share, i.e. the extra conflict pressure a direct-mapped
    /// cache sees. Zero for a perfectly balanced assignment.
    pub fn max_overcommit(&self) -> u64 {
        if self.per_color.is_empty() {
            return 0;
        }
        let total: u64 = self.per_color.values().sum();
        let colors = self.per_color.len() as u64;
        let ideal = total.div_ceil(colors);
        self.per_color
            .values()
            .map(|&c| c.saturating_sub(ideal))
            .max()
            .unwrap_or(0)
    }
}

/// Audits a segment's resident pages against a `colors`-color cache.
///
/// # Errors
///
/// Kernel segment errors.
pub fn audit_colors(
    kernel: &Kernel,
    seg: SegmentId,
    colors: u32,
) -> Result<ColorAudit, epcm_core::KernelError> {
    let mut audit = ColorAudit {
        matched: 0,
        mismatched: 0,
        per_color: BTreeMap::new(),
    };
    for (p, e) in kernel.segment(seg)?.resident() {
        let frame_color = e.frame.color(colors);
        let want = (p.as_u64() % colors as u64) as u32;
        if frame_color == want {
            audit.matched += 1;
        } else {
            audit.mismatched += 1;
        }
        *audit.per_color.entry(frame_color).or_insert(0) += 1;
    }
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use epcm_core::types::{AccessKind, SegmentKind};

    #[test]
    fn colored_allocation_matches_virtual_colors() {
        let mut m = Machine::new(512);
        let id = m.register_manager(Box::new(coloring_manager(8)));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 64).unwrap();
        for p in 0..32 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        let audit = audit_colors(m.kernel(), seg, 8).unwrap();
        assert_eq!(audit.matched, 32);
        assert_eq!(audit.mismatched, 0);
        assert_eq!(audit.max_overcommit(), 0);
    }

    #[test]
    fn uncolored_allocation_skews_colors() {
        // The default first-fit allocation hands out frames in physical
        // order to a *sparse* virtual pattern, so virtual colors and frame
        // colors disagree.
        let mut m = Machine::with_default_manager(512);
        let seg = m.create_segment(SegmentKind::Anonymous, 256).unwrap();
        // Touch every 8th page: all the same virtual color.
        for p in (0..256).step_by(8) {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        let audit = audit_colors(m.kernel(), seg, 8).unwrap();
        // First-fit gives consecutive frames => colors 0..8 all used, but
        // the virtual pages all wanted color 0.
        assert!(audit.mismatched > 0);
    }

    #[test]
    fn coloring_degrades_gracefully_when_colors_exhausted() {
        // 32-frame machine, 8 colors -> only 4 frames per color. Touching
        // 8 pages of the same color forces the fallback path.
        let mut m = Machine::new(32);
        let id = m.register_manager(Box::new(coloring_manager(8)));
        m.set_default_manager(id);
        let seg = m.create_segment(SegmentKind::Anonymous, 128).unwrap();
        for i in 0..6 {
            m.touch(seg, i * 8, AccessKind::Write).unwrap(); // all color 0
        }
        assert_eq!(m.kernel().resident_pages(seg).unwrap(), 6);
        let mgr = m
            .manager(id)
            .unwrap()
            .as_any()
            .downcast_ref::<ColoringManager>()
            .unwrap();
        assert!(mgr.manager_stats().constraint_misses > 0);
    }

    #[test]
    fn audit_overcommit_math() {
        let audit = ColorAudit {
            matched: 0,
            mismatched: 0,
            per_color: [(0u32, 6u64), (1, 2)].into_iter().collect(),
        };
        // total 8, 2 colors, ideal 4 -> color 0 overcommits by 2.
        assert_eq!(audit.max_overcommit(), 2);
        let empty = ColorAudit {
            matched: 0,
            mismatched: 0,
            per_color: BTreeMap::new(),
        };
        assert_eq!(empty.max_overcommit(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one color")]
    fn zero_colors_panics() {
        ColoringSpec::new(0);
    }
}
