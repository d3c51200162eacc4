//! The 4-level IO page table (Intel VT-d second-stage layout).
//!
//! Exactly the structure described in §2.1 of the paper: four levels
//! (PT-L1 root through PT-L4 leaves), 512 entries of 64 bits per page;
//! PT-L1 indexes the 9 most significant IOVA bits, PT-L4 entries map
//! directly to physical addresses.
//!
//! Page-table pages live in a generational arena: a [`PageRef`] caches a
//! pointer to a page the way the hardware PTcaches do, and resolving a ref
//! whose generation is stale models the *use-after-free walk through a
//! reclaimed page-table page* — the safety hazard F&S must (and does) avoid
//! by invalidating PTcaches whenever an unmap reclaims a page (§3).
//!
//! Reclamation follows the Linux rule reproduced in Figure 5: a page-table
//! page is reclaimed **only when a single unmap operation covers its entire
//! address span** (2 MB for a PT-L4 page, 1 GB for PT-L3, 512 GB for PT-L2).

use fns_iova::types::{Iova, IovaRange};
use fns_mem::addr::PhysAddr;
use fns_snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Entries per page-table page (9 bits of index).
pub const ENTRIES_PER_PAGE: usize = 512;

/// IOVA pfns covered by one PT-L4 page (2 MB).
pub const L4_SPAN_PFNS: u64 = 512;
/// IOVA pfns covered by one PT-L3 page (1 GB).
pub const L3_SPAN_PFNS: u64 = 512 * 512;
/// IOVA pfns covered by one PT-L2 page (512 GB).
pub const L2_SPAN_PFNS: u64 = 512 * 512 * 512;

/// Slots in the region-indexed PT-L4 walk cache (a power of two).
const L4_CACHE_SLOTS: usize = 256;

/// Generational reference to a page-table page, as cached by the hardware
/// page-structure caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRef {
    idx: u32,
    generation: u32,
}

// Cached refs travel verbatim so they resolve (or go stale) identically
// after a restore.
fns_snap::snap_fields!(PageRef { idx, generation });

impl PageRef {
    /// A ref to slot `idx` at `generation`, for tests that need a
    /// placeholder ref.
    #[cfg(test)]
    pub(crate) fn from_parts(idx: u32, generation: u32) -> Self {
        Self { idx, generation }
    }
}

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PtEntry {
    /// Non-leaf: pointer to the next-level page.
    Child(PageRef),
    /// PT-L4 leaf: the final physical translation.
    Leaf(PhysAddr),
    /// 2 MB huge-page leaf, valid only in PT-L3 pages (VT-d second-level
    /// superpage). The address is the 2 MB-aligned physical base.
    HugeLeaf(PhysAddr),
}

/// A tag byte in declaration order, then the payload.
impl Snap for PtEntry {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            PtEntry::Child(r) => (0u8, r).snap(w),
            PtEntry::Leaf(pa) => (1u8, pa).snap(w),
            PtEntry::HugeLeaf(pa) => (2u8, pa).snap(w),
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => PtEntry::Child(Snap::unsnap(r)?),
            1 => PtEntry::Leaf(Snap::unsnap(r)?),
            2 => PtEntry::HugeLeaf(Snap::unsnap(r)?),
            t => {
                return Err(SnapError::BadTag {
                    what: "pt entry",
                    tag: t as u64,
                })
            }
        })
    }
}

/// A single page-table page.
#[derive(Debug, Clone)]
struct PtPage {
    /// 1 = root (PT-L1) .. 4 = leaf level (PT-L4).
    level: u8,
    entries: Vec<Option<PtEntry>>,
    live: u16,
}

impl PtPage {
    fn new(level: u8) -> Self {
        Self {
            level,
            entries: vec![None; ENTRIES_PER_PAGE],
            live: 0,
        }
    }

    /// Like [`PtPage::new`] but reusing a recycled entries vector. The
    /// vector must already be all-`None` — guaranteed for pages coming off
    /// `free_page`, which only reclaims pages whose `live` count hit zero
    /// (and `live` equals the number of `Some` entries by invariant).
    fn with_entries(level: u8, entries: Vec<Option<PtEntry>>) -> Self {
        debug_assert_eq!(entries.len(), ENTRIES_PER_PAGE);
        debug_assert!(entries.iter().all(Option::is_none));
        Self {
            level,
            entries,
            live: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    page: Option<PtPage>,
}

/// Level and live count, then the populated entries as `(index, entry)`
/// pairs.
impl Snap for PtPage {
    fn snap(&self, w: &mut SnapWriter) {
        (self.level, self.live).snap(w);
        let populated: Vec<(u32, PtEntry)> = (0u32..)
            .zip(&self.entries)
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .collect();
        populated.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let (level, live) = Snap::unsnap(r)?;
        let mut page = PtPage::new(level);
        page.live = live;
        for (i, e) in Vec::<(u32, PtEntry)>::unsnap(r)? {
            let slot = page.entries.get_mut(i as usize).ok_or(SnapError::BadTag {
                what: "pt entry index",
                tag: i as u64,
            })?;
            *slot = Some(e);
        }
        Ok(page)
    }
}

fns_snap::snap_fields!(Slot { generation, page });

/// Result of resolving a cached [`PageRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefState {
    /// The referenced page is alive.
    Live,
    /// The page was reclaimed: walking through this ref would read freed
    /// memory on real hardware.
    Stale,
}

/// A page-table page reclaimed by an unmap operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimedPage {
    /// Level of the reclaimed page (2..=4; the root is never reclaimed).
    pub level: u8,
    /// Region key: IOVA pfn of the start of the page's span, divided by the
    /// span size. Matches the corresponding PTcache key.
    pub region_key: u64,
}

/// Outcome of [`IoPageTable::unmap_range`].
#[derive(Debug, Clone, Default)]
pub struct UnmapOutcome {
    /// Number of leaf mappings removed.
    pub unmapped: u64,
    /// Page-table pages reclaimed by this (single) operation.
    pub reclaimed: Vec<ReclaimedPage>,
}

/// Errors from map/unmap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtError {
    /// The IOVA already has a live leaf mapping.
    AlreadyMapped(u64),
    /// An IOVA in the unmap range has no leaf mapping.
    NotMapped(u64),
}

impl std::fmt::Display for PtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PtError::AlreadyMapped(pfn) => write!(f, "IOVA pfn {pfn:#x} already mapped"),
            PtError::NotMapped(pfn) => write!(f, "IOVA pfn {pfn:#x} not mapped"),
        }
    }
}

impl std::error::Error for PtError {}

/// The full walk path for one IOVA, used by the walker to refill caches.
#[derive(Debug, Clone, Copy)]
pub struct WalkPath {
    /// The PT-L2 page (what a PTcache-L1 entry points to).
    pub l2: PageRef,
    /// The PT-L3 page (PTcache-L2 entry target).
    pub l3: PageRef,
    /// The PT-L4 page (PTcache-L3 entry target).
    pub l4: PageRef,
    /// The final translation.
    pub pa: PhysAddr,
}

/// Walk outcome distinguishing page granularities.
#[derive(Debug, Clone, Copy)]
pub enum WalkResult {
    /// Ordinary 4 KB mapping with the full 4-level path.
    Page(WalkPath),
    /// 2 MB huge mapping terminating at PT-L3.
    Huge {
        /// The PT-L2 page traversed.
        l2: PageRef,
        /// The PT-L3 page holding the huge leaf.
        l3: PageRef,
        /// Physical base of the 2 MB region.
        pa_base: PhysAddr,
    },
}

/// Lifetime counters for the page table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PtStats {
    /// Leaf mappings created.
    pub maps: u64,
    /// Leaf mappings removed.
    pub unmaps: u64,
    /// Page-table pages allocated.
    pub pages_allocated: u64,
    /// Page-table pages reclaimed.
    pub pages_reclaimed: u64,
}

fns_snap::snap_fields!(PtStats {
    maps,
    unmaps,
    pages_allocated,
    pages_reclaimed
});

/// The 4-level IO page table.
///
/// # Examples
///
/// ```
/// use fns_iommu::pagetable::IoPageTable;
/// use fns_iova::types::{Iova, IovaRange};
/// use fns_mem::addr::PhysAddr;
///
/// let mut pt = IoPageTable::new();
/// let iova = Iova::from_pfn(0xFFFF_0000);
/// pt.map(iova, PhysAddr::from_pfn(7)).unwrap();
/// assert_eq!(pt.lookup(iova), Some(PhysAddr::from_pfn(7)));
/// let out = pt.unmap_range(IovaRange::new(iova, 1)).unwrap();
/// assert_eq!(out.unmapped, 1);
/// assert!(out.reclaimed.is_empty(), "a 4 KB unmap never reclaims");
/// assert_eq!(pt.lookup(iova), None);
/// ```
#[derive(Debug, Clone)]
pub struct IoPageTable {
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Entries vectors stashed from reclaimed pages, reused by
    /// `alloc_page` so the map/unmap churn of chunk-granular modes stops
    /// hitting the allocator for every 4 KB page-table page.
    entries_pool: Vec<Vec<Option<PtEntry>>>,
    /// Direct-mapped walk cache for `map` and `clear_leaf`: the PT-L4 page
    /// of a 2 MB region (`pfn / L4_SPAN_PFNS`), in slot
    /// `region % L4_CACHE_SLOTS`. A hit skips the root walk. A generational
    /// `ref_state` check makes a hit exactly equivalent to a fresh walk: a
    /// live ref is still attached at the same tree position, because pages
    /// detach only when reclaimed (which bumps the generation). Derived
    /// state — reset and snapshots drop it.
    l4_cache: Box<[Option<(u64, PageRef)>; L4_CACHE_SLOTS]>,
    root: PageRef,
    stats: PtStats,
}

// The table travels *physically*: every slot (generation plus page
// contents), the free list, root ref and counters verbatim, because cached
// [`PageRef`]s in the PTcaches index slots by position and generation — a
// logically rebuilt table would invalidate them. The entries pool and the
// walk cache are derived storage and come back empty.
fns_snap::snap_fields!(IoPageTable { slots, free, root, stats } restore_with {
    entries_pool: Vec::new(),
    l4_cache: Box::new([None; L4_CACHE_SLOTS]),
});

impl Default for IoPageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl IoPageTable {
    /// Creates an empty page table (root page pre-allocated).
    pub fn new() -> Self {
        let mut pt = Self {
            slots: Vec::new(),
            free: Vec::new(),
            entries_pool: Vec::new(),
            l4_cache: Box::new([None; L4_CACHE_SLOTS]),
            root: PageRef {
                idx: 0,
                generation: 0,
            },
            stats: PtStats::default(),
        };
        pt.root = pt.alloc_page(1);
        pt
    }

    /// Rewinds to the freshly-constructed state (just a root page, zeroed
    /// counters) while keeping every page's entries vector pooled for
    /// reuse — the arena hook for back-to-back simulation runs. The
    /// resulting table is behaviorally identical to `IoPageTable::new()`.
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut page) = slot.page.take() {
                page.entries.fill(None);
                self.entries_pool.push(page.entries);
            }
        }
        self.slots.clear();
        self.free.clear();
        self.l4_cache.fill(None);
        self.stats = PtStats::default();
        self.root = PageRef {
            idx: 0,
            generation: 0,
        };
        self.root = self.alloc_page(1);
    }

    fn alloc_page(&mut self, level: u8) -> PageRef {
        self.stats.pages_allocated += 1;
        let page = match self.entries_pool.pop() {
            Some(entries) => PtPage::with_entries(level, entries),
            None => PtPage::new(level),
        };
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx];
            debug_assert!(slot.page.is_none());
            slot.page = Some(page);
            PageRef {
                idx: idx as u32,
                generation: slot.generation,
            }
        } else {
            self.slots.push(Slot {
                generation: 0,
                page: Some(page),
            });
            PageRef {
                idx: (self.slots.len() - 1) as u32,
                generation: 0,
            }
        }
    }

    fn free_page(&mut self, r: PageRef) {
        let slot = &mut self.slots[r.idx as usize];
        debug_assert_eq!(slot.generation, r.generation);
        // Only empty pages are reclaimed (`live == 0`, all entries `None`),
        // so the entries vector can be reused verbatim by `alloc_page`.
        if let Some(page) = slot.page.take() {
            debug_assert_eq!(page.live, 0, "reclaiming a non-empty PT page");
            self.entries_pool.push(page.entries);
        }
        slot.generation += 1;
        self.free.push(r.idx as usize);
        self.stats.pages_reclaimed += 1;
    }

    /// Checks whether a cached ref still points at a live page.
    pub fn ref_state(&self, r: PageRef) -> RefState {
        let slot = &self.slots[r.idx as usize];
        if slot.generation == r.generation && slot.page.is_some() {
            RefState::Live
        } else {
            RefState::Stale
        }
    }

    fn page(&self, r: PageRef) -> &PtPage {
        let slot = &self.slots[r.idx as usize];
        assert_eq!(slot.generation, r.generation, "stale page ref dereferenced");
        slot.page.as_ref().expect("stale page ref dereferenced")
    }

    fn page_mut(&mut self, r: PageRef) -> &mut PtPage {
        let slot = &mut self.slots[r.idx as usize];
        assert_eq!(slot.generation, r.generation, "stale page ref dereferenced");
        slot.page.as_mut().expect("stale page ref dereferenced")
    }

    /// The cached PT-L4 page of `region`, if its slot holds a live one.
    fn cached_l4(&self, region: u64) -> Option<PageRef> {
        match self.l4_cache[region as usize % L4_CACHE_SLOTS] {
            Some((key, l4)) if key == region && self.ref_state(l4) == RefState::Live => Some(l4),
            _ => None,
        }
    }

    fn cache_l4(&mut self, region: u64, l4: PageRef) {
        self.l4_cache[region as usize % L4_CACHE_SLOTS] = Some((region, l4));
    }

    /// Maps `iova -> pa`, allocating intermediate pages as needed.
    pub fn map(&mut self, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        let region = iova.pfn() / L4_SPAN_PFNS;
        if let Some(l4) = self.cached_l4(region) {
            return self.map_in_leaf(l4, iova, pa);
        }
        let mut cur = self.root;
        for level in 1..=3u8 {
            let idx = iova.pt_index(level);
            let next = match self.page(cur).entries[idx] {
                Some(PtEntry::Child(c)) => c,
                Some(PtEntry::HugeLeaf(_)) => {
                    return Err(PtError::AlreadyMapped(iova.pfn()));
                }
                Some(PtEntry::Leaf(_)) => unreachable!("leaf entry at non-leaf level"),
                None => {
                    let child = self.alloc_page(level + 1);
                    let p = self.page_mut(cur);
                    p.entries[idx] = Some(PtEntry::Child(child));
                    p.live += 1;
                    child
                }
            };
            cur = next;
        }
        self.cache_l4(region, cur);
        self.map_in_leaf(cur, iova, pa)
    }

    /// Installs a leaf in a known-live PT-L4 page (the tail of `map`).
    fn map_in_leaf(&mut self, l4: PageRef, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        let idx = iova.pt_index(4);
        let leaf = self.page_mut(l4);
        if leaf.entries[idx].is_some() {
            return Err(PtError::AlreadyMapped(iova.pfn()));
        }
        leaf.entries[idx] = Some(PtEntry::Leaf(pa));
        leaf.live += 1;
        self.stats.maps += 1;
        Ok(())
    }

    /// Software walk without caches: the ground-truth translation. Huge
    /// mappings resolve to the 4 KB page's address within the 2 MB region.
    pub fn lookup(&self, iova: Iova) -> Option<PhysAddr> {
        match self.walk(iova)? {
            WalkResult::Page(p) => Some(p.pa),
            WalkResult::Huge { pa_base, .. } => {
                Some(pa_base.add((iova.pfn() % L4_SPAN_PFNS) << 12))
            }
        }
    }

    /// Full walk returning every intermediate page, or `None` if the IOVA
    /// has no 4 KB mapping (use [`IoPageTable::walk`] when huge mappings may
    /// be present).
    pub fn walk_path(&self, iova: Iova) -> Option<WalkPath> {
        match self.walk(iova)? {
            WalkResult::Page(p) => Some(p),
            WalkResult::Huge { .. } => None,
        }
    }

    /// Full walk distinguishing 4 KB and 2 MB mappings.
    pub fn walk(&self, iova: Iova) -> Option<WalkResult> {
        let l2 = match self.page(self.root).entries[iova.pt_index(1)]? {
            PtEntry::Child(c) => c,
            _ => unreachable!("root holds children only"),
        };
        let l3 = match self.page(l2).entries[iova.pt_index(2)]? {
            PtEntry::Child(c) => c,
            _ => unreachable!("PT-L2 holds children only"),
        };
        let l4 = match self.page(l3).entries[iova.pt_index(3)]? {
            PtEntry::Child(c) => c,
            PtEntry::HugeLeaf(pa_base) => {
                return Some(WalkResult::Huge { l2, l3, pa_base });
            }
            PtEntry::Leaf(_) => unreachable!("PT-L3 holds children or huge leaves"),
        };
        let pa = match self.page(l4).entries[iova.pt_index(4)]? {
            PtEntry::Leaf(pa) => pa,
            _ => unreachable!("PT-L4 holds leaves only"),
        };
        Some(WalkResult::Page(WalkPath { l2, l3, l4, pa }))
    }

    /// Maps a 2 MB huge page: `iova` (2 MB aligned) to the 2 MB-aligned
    /// physical base `pa`.
    ///
    /// # Panics
    ///
    /// Panics if either address is not 2 MB aligned.
    pub fn map_huge(&mut self, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        assert_eq!(iova.pfn() % L4_SPAN_PFNS, 0, "unaligned huge IOVA");
        assert_eq!(pa.pfn() % L4_SPAN_PFNS, 0, "unaligned huge frame");
        let mut cur = self.root;
        for level in 1..=2u8 {
            let idx = iova.pt_index(level);
            let next = match self.page(cur).entries[idx] {
                Some(PtEntry::Child(c)) => c,
                Some(_) => return Err(PtError::AlreadyMapped(iova.pfn())),
                None => {
                    let child = self.alloc_page(level + 1);
                    let p = self.page_mut(cur);
                    p.entries[idx] = Some(PtEntry::Child(child));
                    p.live += 1;
                    child
                }
            };
            cur = next;
        }
        let idx = iova.pt_index(3);
        let l3 = self.page_mut(cur);
        if l3.entries[idx].is_some() {
            return Err(PtError::AlreadyMapped(iova.pfn()));
        }
        l3.entries[idx] = Some(PtEntry::HugeLeaf(pa));
        l3.live += 1;
        self.stats.maps += 1;
        Ok(())
    }

    /// Collapses an *empty* PT-L4 directory covering the 2 MB region of
    /// `iova`, freeing it so a huge leaf can take its slot. Returns the
    /// reclaimed page (whose PTcache-L3 entry MUST be invalidated by the
    /// caller) or `None` if there is nothing to collapse — including when
    /// the directory still holds live 4 KB mappings, which must never be
    /// silently unmapped.
    pub fn collapse_empty_l4(&mut self, iova: Iova) -> Option<ReclaimedPage> {
        assert_eq!(iova.pfn() % L4_SPAN_PFNS, 0, "unaligned huge IOVA");
        let l3 = self.child_ref_at(iova, 3)?;
        let idx = iova.pt_index(3);
        let target = match self.page(l3).entries[idx] {
            Some(PtEntry::Child(c)) => c,
            _ => return None,
        };
        if self.page(target).live != 0 {
            // Live 4 KB mappings in the region: nothing to collapse; the
            // caller's map_huge will fail with AlreadyMapped.
            return None;
        }
        let p = self.page_mut(l3);
        p.entries[idx] = None;
        p.live -= 1;
        self.free_page(target);
        Some(ReclaimedPage {
            level: 4,
            region_key: iova.pfn() / L4_SPAN_PFNS,
        })
    }

    /// Unmaps a 2 MB huge mapping at `iova`.
    pub fn unmap_huge(&mut self, iova: Iova) -> Result<(), PtError> {
        assert_eq!(iova.pfn() % L4_SPAN_PFNS, 0, "unaligned huge IOVA");
        let l3 = self
            .child_ref_at(iova, 3)
            .ok_or(PtError::NotMapped(iova.pfn()))?;
        let idx = iova.pt_index(3);
        let page = self.page_mut(l3);
        match page.entries[idx] {
            Some(PtEntry::HugeLeaf(_)) => {
                page.entries[idx] = None;
                page.live -= 1;
                self.stats.unmaps += 1;
                Ok(())
            }
            _ => Err(PtError::NotMapped(iova.pfn())),
        }
    }

    /// Reads the entry for `iova` from a *cached* intermediate page ref, as
    /// the hardware walker does after a PTcache hit. Returns the next-level
    /// ref (levels 1–3) or the final translation (level 4), or `Err` if the
    /// cached ref is stale (a use-after-free walk), or `Ok(None)` if the
    /// entry is simply absent (translation fault).
    pub fn read_via(
        &self,
        cached: PageRef,
        iova: Iova,
    ) -> Result<Option<PtEntryView>, StaleRefError> {
        if self.ref_state(cached) == RefState::Stale {
            return Err(StaleRefError);
        }
        let page = self.page(cached);
        let idx = iova.pt_index(page.level);
        Ok(page.entries[idx].map(|e| match e {
            PtEntry::Child(c) => PtEntryView::Child(c),
            PtEntry::Leaf(pa) => PtEntryView::Leaf(pa),
            PtEntry::HugeLeaf(pa) => PtEntryView::HugeLeaf(pa),
        }))
    }

    /// Unmaps every page in `range` in **one operation**, applying the Linux
    /// reclamation rule: intermediate pages whose whole span is covered by
    /// this single call are reclaimed (Figure 5).
    ///
    /// Returns an error (leaving a partial unmap applied up to that point)
    /// if any page in the range was not mapped — in the kernel this is a
    /// driver bug.
    pub fn unmap_range(&mut self, range: IovaRange) -> Result<UnmapOutcome, PtError> {
        let mut out = UnmapOutcome::default();
        // Clear leaves.
        for iova in range.iter_pages() {
            self.clear_leaf(iova)?;
            out.unmapped += 1;
        }
        // Reclaim fully covered pages, bottom-up (L4, then L3, then L2). A
        // range shorter than a level's span cannot cover one of its pages.
        for (level, span) in [(4, L4_SPAN_PFNS), (3, L3_SPAN_PFNS), (2, L2_SPAN_PFNS)] {
            if range.pages() < span {
                break;
            }
            self.reclaim_level(range, level, span, &mut out);
        }
        self.stats.unmaps += out.unmapped;
        Ok(out)
    }

    fn clear_leaf(&mut self, iova: Iova) -> Result<(), PtError> {
        let region = iova.pfn() / L4_SPAN_PFNS;
        let l4 = match self.cached_l4(region) {
            Some(l4) => l4,
            None => {
                let path = self.walk_path(iova).ok_or(PtError::NotMapped(iova.pfn()))?;
                self.cache_l4(region, path.l4);
                path.l4
            }
        };
        let idx = iova.pt_index(4);
        let leaf = self.page_mut(l4);
        match leaf.entries[idx] {
            Some(PtEntry::Leaf(_)) => {
                leaf.entries[idx] = None;
                leaf.live -= 1;
                Ok(())
            }
            _ => Err(PtError::NotMapped(iova.pfn())),
        }
    }

    /// Reclaims all pages of `level` whose full span is inside `range`.
    fn reclaim_level(&mut self, range: IovaRange, level: u8, span: u64, out: &mut UnmapOutcome) {
        let lo = range.pfn_lo();
        let hi = range.pfn_hi();
        // First fully contained span: round lo up to a span boundary.
        let first = lo.div_ceil(span);
        let mut region = first;
        while (region + 1) * span - 1 <= hi {
            let base_iova = Iova::from_pfn(region * span);
            if let Some(target) = self.child_ref_at(base_iova, level) {
                // Detach from parent and free.
                let parent = self
                    .child_ref_at(base_iova, level - 1)
                    .expect("child exists, so the parent path must too");
                let pidx = base_iova.pt_index(level - 1);
                let p = self.page_mut(parent);
                debug_assert!(matches!(p.entries[pidx], Some(PtEntry::Child(_))));
                p.entries[pidx] = None;
                p.live -= 1;
                self.free_page(target);
                out.reclaimed.push(ReclaimedPage {
                    level,
                    region_key: region,
                });
            }
            region += 1;
        }
    }

    /// Ref to the page of `level` covering `iova` (level 1 returns the
    /// root). `None` if not present.
    fn child_ref_at(&self, iova: Iova, level: u8) -> Option<PageRef> {
        let mut cur = self.root;
        for l in 1..level {
            match self.page(cur).entries[iova.pt_index(l)] {
                Some(PtEntry::Child(c)) => cur = c,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Number of live page-table pages (including the root).
    pub fn live_pages(&self) -> usize {
        self.slots.iter().filter(|s| s.page.is_some()).count()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PtStats {
        self.stats
    }

    /// Verifies structural invariants: live counts match populated entries
    /// and no child ref is stale. Test helper.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(page) = &slot.page else { continue };
            let live = page.entries.iter().filter(|e| e.is_some()).count();
            if live != page.live as usize {
                return Err(format!("slot {i}: live {} != counted {live}", page.live));
            }
            for e in page.entries.iter().flatten() {
                if let PtEntry::Child(c) = e {
                    if self.ref_state(*c) == RefState::Stale {
                        return Err(format!("slot {i}: dangling child ref"));
                    }
                    let child_level = self.page(*c).level;
                    if child_level != page.level + 1 {
                        return Err(format!(
                            "slot {i}: level {} child under level {}",
                            child_level, page.level
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Read-only view of a page-table entry returned by [`IoPageTable::read_via`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtEntryView {
    /// Pointer to the next-level page.
    Child(PageRef),
    /// Final physical translation.
    Leaf(PhysAddr),
    /// 2 MB huge-page translation (base of the 2 MB physical region).
    HugeLeaf(PhysAddr),
}

/// Error: a cached page ref points to a reclaimed page (use-after-free walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRefError;

impl std::fmt::Display for StaleRefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "walk through a reclaimed page-table page")
    }
}

impl std::error::Error for StaleRefError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn iova(pfn: u64) -> Iova {
        Iova::from_pfn(pfn)
    }

    fn pa(pfn: u64) -> PhysAddr {
        PhysAddr::from_pfn(pfn)
    }

    #[test]
    fn map_lookup_unmap() {
        let mut pt = IoPageTable::new();
        pt.map(iova(1000), pa(5)).unwrap();
        assert_eq!(pt.lookup(iova(1000)), Some(pa(5)));
        assert_eq!(pt.lookup(iova(1001)), None);
        let out = pt.unmap_range(IovaRange::new(iova(1000), 1)).unwrap();
        assert_eq!(out.unmapped, 1);
        assert_eq!(pt.lookup(iova(1000)), None);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = IoPageTable::new();
        pt.map(iova(7), pa(1)).unwrap();
        assert_eq!(pt.map(iova(7), pa(2)), Err(PtError::AlreadyMapped(7)));
    }

    #[test]
    fn unmap_of_unmapped_rejected() {
        let mut pt = IoPageTable::new();
        assert!(matches!(
            pt.unmap_range(IovaRange::new(iova(7), 1)),
            Err(PtError::NotMapped(7))
        ));
    }

    #[test]
    fn intermediate_pages_shared() {
        let mut pt = IoPageTable::new();
        // Two IOVAs in the same 2MB region share all intermediate pages:
        // root + L2 + L3 + L4 = 4 pages total.
        pt.map(iova(0), pa(1)).unwrap();
        pt.map(iova(1), pa(2)).unwrap();
        assert_eq!(pt.live_pages(), 4);
        // A third IOVA in a different 2MB region adds one L4 page.
        pt.map(iova(512), pa(3)).unwrap();
        assert_eq!(pt.live_pages(), 5);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn figure5b_large_unmap_reclaims_fully_covered_pages() {
        // Map 5 MB (1280 pages) starting at a 2 MB boundary, then unmap it
        // in a single call: the two fully covered PT-L4 pages are reclaimed,
        // the third (half-covered... here: covered 256 pages) is not.
        let mut pt = IoPageTable::new();
        let base = 512 * 10; // 2 MB aligned
        for i in 0..1280 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let before = pt.live_pages();
        let out = pt.unmap_range(IovaRange::new(iova(base), 1280)).unwrap();
        let l4_reclaims: Vec<_> = out.reclaimed.iter().filter(|r| r.level == 4).collect();
        assert_eq!(l4_reclaims.len(), 2, "exactly the two fully covered pages");
        assert_eq!(pt.live_pages(), before - 2);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn figure5d_descriptor_sized_unmaps_never_reclaim() {
        // Map 5 MB, unmap in 64-page (256 KB) calls: no call covers a full
        // 2 MB span, so nothing is ever reclaimed — the F&S common case.
        let mut pt = IoPageTable::new();
        let base = 512 * 20;
        for i in 0..1280 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let before = pt.live_pages();
        for d in 0..20 {
            let out = pt
                .unmap_range(IovaRange::new(iova(base + d * 64), 64))
                .unwrap();
            assert!(out.reclaimed.is_empty(), "256 KB unmap reclaimed a page");
        }
        assert_eq!(pt.live_pages(), before, "empty pages stay allocated");
        pt.check_invariants().unwrap();
    }

    #[test]
    fn unaligned_2mb_unmap_reclaims_only_contained() {
        // Unmap exactly 512 pages but straddling a boundary: covers no full
        // span, so nothing is reclaimed.
        let mut pt = IoPageTable::new();
        let base = 512 * 4 + 256;
        for i in 0..512 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let out = pt.unmap_range(IovaRange::new(iova(base), 512)).unwrap();
        assert!(out.reclaimed.is_empty());
    }

    #[test]
    fn reclaimed_ref_detected_as_stale() {
        let mut pt = IoPageTable::new();
        let base = 512 * 8;
        for i in 0..512 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let l4 = pt.walk_path(iova(base)).unwrap().l4;
        assert_eq!(pt.ref_state(l4), RefState::Live);
        let out = pt.unmap_range(IovaRange::new(iova(base), 512)).unwrap();
        assert_eq!(out.reclaimed.len(), 1);
        assert_eq!(pt.ref_state(l4), RefState::Stale);
        assert_eq!(pt.read_via(l4, iova(base)), Err(StaleRefError));
    }

    #[test]
    fn read_via_live_ref() {
        let mut pt = IoPageTable::new();
        pt.map(iova(42), pa(9)).unwrap();
        let p = pt.walk_path(iova(42)).unwrap();
        assert_eq!(
            pt.read_via(p.l4, iova(42)),
            Ok(Some(PtEntryView::Leaf(pa(9))))
        );
        assert_eq!(pt.read_via(p.l4, iova(43)), Ok(None));
        assert_eq!(
            pt.read_via(p.l3, iova(42)),
            Ok(Some(PtEntryView::Child(p.l4)))
        );
    }

    #[test]
    fn arena_slot_reuse_bumps_generation() {
        let mut pt = IoPageTable::new();
        let base = 512 * 30;
        for i in 0..512 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let old = pt.walk_path(iova(base)).unwrap().l4;
        pt.unmap_range(IovaRange::new(iova(base), 512)).unwrap();
        // Remap the same region: the new L4 page may reuse the arena slot
        // but must carry a different generation.
        pt.map(iova(base), pa(77)).unwrap();
        let new = pt.walk_path(iova(base)).unwrap().l4;
        assert_ne!(old, new);
        assert_eq!(pt.ref_state(old), RefState::Stale);
        assert_eq!(pt.ref_state(new), RefState::Live);
    }

    #[test]
    fn gigabyte_unmap_reclaims_l3() {
        // Map an aligned 1 GB span fully, then unmap the whole GB at once:
        // all 512 L4 pages and the covering L3 page are reclaimed.
        let mut pt = IoPageTable::new();
        let base = L3_SPAN_PFNS * 3; // 1 GB aligned
        for i in 0..L3_SPAN_PFNS {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let out = pt
            .unmap_range(IovaRange::new(iova(base), L3_SPAN_PFNS))
            .unwrap();
        let l4s = out.reclaimed.iter().filter(|r| r.level == 4).count();
        let l3s = out.reclaimed.iter().filter(|r| r.level == 3).count();
        assert_eq!(l4s, 512);
        assert_eq!(l3s, 1);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn l4_cache_serves_interleaved_regions_and_misses_after_reclaim() {
        // 300 regions, one page each per round, visited round-robin: a
        // one-entry cache would miss on every map. Regions 0..44 and
        // 256..300 share slots, so the later of each pair owns it.
        let mut pt = IoPageTable::new();
        let base = L3_SPAN_PFNS * 5;
        let page = |r: u64, i: u64| iova(base + r * L4_SPAN_PFNS + i);
        for i in 0..4 {
            for r in 0..300 {
                pt.map(page(r, i), pa(r * 4 + i + 1)).unwrap();
            }
        }
        let region = |r: u64| base / L4_SPAN_PFNS + r;
        for r in 0..300 {
            let expect_hit = !(0..44).contains(&r);
            assert_eq!(pt.cached_l4(region(r)).is_some(), expect_hit, "region {r}");
        }
        // Every page-table walk after the first round of a cached region
        // was skipped, and every mapping still resolves.
        assert_eq!(pt.stats().pages_allocated, 3 + 300);
        for i in 0..4 {
            for r in 0..300 {
                assert_eq!(pt.lookup(page(r, i)), Some(pa(r * 4 + i + 1)));
            }
        }

        // Empty region 100 with 1-page unmaps (which never reclaim) through
        // the cache, then collapse its PT-L4 page: the cached ref goes stale.
        for i in 0..4 {
            pt.unmap_range(IovaRange::new(page(100, i), 1)).unwrap();
        }
        let stale = pt.cached_l4(region(100)).expect("region 100 cached");
        let reclaimed = pt.collapse_empty_l4(page(100, 0)).unwrap();
        assert_eq!(reclaimed.region_key, region(100));
        assert_eq!(pt.ref_state(stale), RefState::Stale);
        assert_eq!(
            pt.cached_l4(region(100)),
            None,
            "stale generation must miss"
        );

        // A new region reuses the freed arena slot under a new generation;
        // remapping region 100 must walk afresh, not write through the old
        // ref into the new region's page.
        let far = 400;
        pt.map(page(far, 0), pa(9000)).unwrap();
        assert_eq!(pt.walk_path(page(far, 0)).unwrap().l4.idx, stale.idx);
        pt.map(page(100, 0), pa(9100)).unwrap();
        assert_eq!(pt.lookup(page(far, 0)), Some(pa(9000)));
        assert_eq!(pt.lookup(page(100, 0)), Some(pa(9100)));
        assert_eq!(pt.lookup(page(far, 1)), None);
        assert_eq!(pt.lookup(page(100, 1)), None);
        assert!(pt.cached_l4(region(100)).is_some());
        pt.check_invariants().unwrap();
    }

    #[test]
    fn stats_track_operations() {
        let mut pt = IoPageTable::new();
        pt.map(iova(1), pa(1)).unwrap();
        pt.map(iova(2), pa(2)).unwrap();
        pt.unmap_range(IovaRange::new(iova(1), 2)).unwrap();
        let s = pt.stats();
        assert_eq!(s.maps, 2);
        assert_eq!(s.unmaps, 2);
        assert_eq!(s.pages_allocated, 4); // root + L2 + L3 + L4
        assert_eq!(s.pages_reclaimed, 0);
    }
}
