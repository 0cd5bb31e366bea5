//! Contiguous 1-D placement: a more realistic FPGA area model.
//!
//! The paper models reconfigurable area as a scalar budget (Eq. 4). Real
//! partially reconfigurable devices place each module into a
//! **contiguous** span of fabric columns, so a node whose free area is
//! scattered across small gaps cannot host a large configuration even
//! when the scalar sum suggests it could — external fragmentation. This
//! module provides the interval allocator behind the optional
//! contiguous placement mode (`PlacementModel::Contiguous`, DESIGN.md
//! experiment A5), which quantifies how optimistic the paper's scalar
//! model is.
//!
//! The allocator tracks occupied `[start, start+width)` intervals keyed
//! by the owning slot index, places each module in the leftmost gap that
//! fits (first fit), and reports fragmentation statistics.

use crate::ids::Area;
use serde::{Deserialize, Serialize};

/// One occupied interval of the strip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// First column.
    pub start: Area,
    /// Width in columns.
    pub width: Area,
    /// Owning slot index in the node's config-task-pair slab.
    pub slot: u32,
}

impl Region {
    fn end(&self) -> Area {
        self.start + self.width
    }
}

/// A 1-D strip of reconfigurable fabric columns.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Strip {
    width: Area,
    /// Occupied regions, sorted by `start`, pairwise disjoint.
    pub(crate) regions: Vec<Region>,
}

impl Strip {
    /// A strip of `width` columns, all free.
    #[must_use]
    pub fn new(width: Area) -> Self {
        Self {
            width,
            regions: Vec::new(),
        }
    }

    /// Total column count.
    #[must_use]
    pub fn width(&self) -> Area {
        self.width
    }

    /// Sum of free columns (the scalar `AvailableArea`).
    #[must_use]
    pub fn total_free(&self) -> Area {
        self.width - self.regions.iter().map(|r| r.width).sum::<Area>()
    }

    /// Free gaps as `(start, width)`, left to right (zero-width gaps
    /// omitted).
    pub fn gaps(&self) -> impl Iterator<Item = (Area, Area)> + '_ {
        let mut cursor = 0;
        let mut idx = 0;
        std::iter::from_fn(move || loop {
            if idx < self.regions.len() {
                let r = self.regions[idx];
                let gap = (cursor, r.start - cursor);
                cursor = r.end();
                idx += 1;
                if gap.1 > 0 {
                    return Some(gap);
                }
            } else if cursor < self.width {
                let gap = (cursor, self.width - cursor);
                cursor = self.width;
                return Some(gap);
            } else {
                return None;
            }
        })
    }

    /// Width of the largest free gap.
    #[must_use]
    pub fn largest_gap(&self) -> Area {
        self.gaps().map(|(_, w)| w).max().unwrap_or(0)
    }

    /// Can a module of `width` columns be placed right now?
    #[must_use]
    pub fn can_fit(&self, width: Area) -> bool {
        width == 0 || self.largest_gap() >= width
    }

    /// Would a module of `width` fit if the given slots were evicted
    /// first? (Feasibility for Algorithm 1 under contiguity.)
    #[must_use]
    pub fn can_fit_after_removing(&self, width: Area, evict: &[u32]) -> bool {
        if width == 0 {
            return true;
        }
        let mut remaining: Vec<Region> = self
            .regions
            .iter()
            .copied()
            .filter(|r| !evict.contains(&r.slot))
            .collect();
        remaining.sort_by_key(|r| r.start);
        let mut cursor = 0;
        let mut best = 0;
        for r in &remaining {
            best = best.max(r.start - cursor);
            cursor = r.end();
        }
        best = best.max(self.width - cursor);
        best >= width
    }

    /// External fragmentation in `[0, 1]`: `1 − largest_gap/total_free`
    /// (0 when free space is one contiguous run or the strip is full).
    #[must_use]
    pub fn fragmentation(&self) -> f64 {
        let free = self.total_free();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_gap() as f64 / free as f64
    }

    /// Place a module of `width` for `slot` in the leftmost gap that
    /// fits, returning its start column. Fails (without changing
    /// anything) when no gap fits.
    pub fn place(&mut self, width: Area, slot: u32) -> Option<Area> {
        debug_assert!(
            self.regions.iter().all(|r| r.slot != slot),
            "slot {slot} already placed"
        );
        if width == 0 {
            return Some(0);
        }
        let (start, _) = self.gaps().find(|&(_, gap)| gap >= width)?;
        let pos = self
            .regions
            .binary_search_by_key(&start, |r| r.start)
            .unwrap_err();
        self.regions.insert(pos, Region { start, width, slot });
        Some(start)
    }

    /// Free the region owned by `slot`. Returns whether it existed.
    pub fn free_slot(&mut self, slot: u32) -> bool {
        match self.regions.iter().position(|r| r.slot == slot) {
            Some(i) => {
                self.regions.remove(i);
                true
            }
            None => false,
        }
    }

    /// Remove every region (node made blank).
    pub fn clear(&mut self) {
        self.regions.clear();
    }

    /// Number of placed regions.
    #[must_use]
    pub fn placed_count(&self) -> usize {
        self.regions.len()
    }

    /// Validate internal consistency (sortedness, disjointness, bounds).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let mut cursor = 0;
        for r in &self.regions {
            if r.width == 0 || r.start < cursor || r.end() > self.width {
                return false;
            }
            cursor = r.end();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_strip_is_one_big_gap() {
        let s = Strip::new(100);
        assert_eq!(s.total_free(), 100);
        assert_eq!(s.largest_gap(), 100);
        assert!(s.can_fit(100));
        assert!(!s.can_fit(101));
        assert_eq!(s.fragmentation(), 0.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn first_fit_places_leftmost() {
        let mut s = Strip::new(100);
        assert_eq!(s.place(30, 0), Some(0));
        assert_eq!(s.place(30, 1), Some(30));
        assert_eq!(s.place(40, 2), Some(60));
        assert_eq!(s.total_free(), 0);
        assert!(s.place(1, 3).is_none());
        assert!(s.is_consistent());
    }

    #[test]
    fn first_fit_prefers_leftmost_sufficient_gap() {
        let mut s = Strip::new(100);
        s.place(10, 0); // [0,10)
        s.place(20, 1); // [10,30)
        s.place(30, 2); // [30,60)
        s.free_slot(1); // gaps: [10,30)=20, [60,100)=40
        assert_eq!(s.place(15, 3), Some(10));
        // The leftmost gap wins over a tighter one further right.
        let mut s = Strip::new(100);
        s.place(40, 0); // [0,40)
        s.place(10, 1); // [40,50)
        s.place(30, 2); // [50,80); gap [80,100)=20
        s.free_slot(0); // gaps: [0,40)=40, [80,100)=20
        assert_eq!(s.place(15, 3), Some(0), "first fit takes the left gap");
        assert!(s.is_consistent());
    }

    #[test]
    fn freeing_creates_fragmentation() {
        let mut s = Strip::new(100);
        s.place(30, 0);
        s.place(30, 1);
        s.place(40, 2);
        // Free the middle region: 30 free columns but max gap 30.
        assert!(s.free_slot(1));
        assert_eq!(s.total_free(), 30);
        assert_eq!(s.largest_gap(), 30);
        assert!(s.can_fit(30));
        assert!(!s.can_fit(31));
        // Also free slot 0: gap [0,60).
        assert!(s.free_slot(0));
        assert_eq!(s.largest_gap(), 60);
        assert_eq!(s.fragmentation(), 0.0);
    }

    #[test]
    fn scalar_area_can_lie_where_contiguity_cannot() {
        // The A5 headline scenario: 50 free columns, but split 25+25.
        let mut s = Strip::new(100);
        s.place(25, 0); // [0,25)
        s.place(25, 1); // [25,50)
        s.place(25, 2); // [50,75)
        s.place(25, 3); // [75,100)
        s.free_slot(0);
        s.free_slot(2);
        assert_eq!(s.total_free(), 50);
        assert!(!s.can_fit(26), "scalar 50 free but max gap is 25");
        assert!(s.fragmentation() > 0.0);
    }

    #[test]
    fn can_fit_after_removing_models_eviction() {
        let mut s = Strip::new(100);
        s.place(30, 0); // [0,30)
        s.place(30, 1); // [30,60)
        s.place(30, 2); // [60,90)
        assert!(!s.can_fit(40));
        // Evicting the middle alone gives a 30-gap: still no.
        assert!(!s.can_fit_after_removing(40, &[1]));
        // Evicting slots 0+1 coalesces [0,60).
        assert!(s.can_fit_after_removing(40, &[0, 1]));
        // Eviction check must not mutate.
        assert_eq!(s.placed_count(), 3);
    }

    #[test]
    fn free_unknown_slot_is_noop() {
        let mut s = Strip::new(50);
        assert!(!s.free_slot(9));
        s.place(10, 0);
        assert!(!s.free_slot(9));
        assert_eq!(s.placed_count(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = Strip::new(60);
        s.place(20, 0);
        s.place(20, 1);
        s.clear();
        assert_eq!(s.total_free(), 60);
        assert_eq!(s.placed_count(), 0);
        assert!(s.is_consistent());
    }

    #[test]
    fn zero_width_placement_is_trivially_ok() {
        let mut s = Strip::new(10);
        assert_eq!(s.place(0, 0), Some(0));
        assert!(s.can_fit(0));
        assert!(s.can_fit_after_removing(0, &[]));
    }

    #[test]
    fn gaps_iterator_covers_free_space_exactly() {
        let mut s = Strip::new(100);
        s.place(10, 0);
        s.place(15, 1);
        s.free_slot(0);
        let gaps: Vec<(Area, Area)> = s.gaps().collect();
        assert_eq!(gaps, vec![(0, 10), (25, 75)]);
        let total: Area = gaps.iter().map(|g| g.1).sum();
        assert_eq!(total, s.total_free());
    }
}
