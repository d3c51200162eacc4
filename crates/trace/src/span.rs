//! Disjoint CPU-span attribution.
//!
//! The legacy counters overlap: `map_cpu_ns` is *all* driver datapath CPU
//! (it includes invalidation submission) and `invalidation_cpu_ns` is the
//! invalidation subset of it. [`SpanSet`] splits the same charges into six
//! disjoint buckets, so `total_ns()` equals the legacy `map_cpu_ns` and
//! `invalidation_ns()` equals the legacy `invalidation_cpu_ns` — an
//! identity the differential test in `tests/telemetry.rs` pins down.

/// The disjoint CPU attribution buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// IOVA allocator work (cache hits, tree walks) on the map path.
    Alloc,
    /// IOMMU page-table mapping on RX-prepare and TX-map paths.
    Map,
    /// IOMMU page-table unmapping on completion paths.
    Unmap,
    /// Synchronous invalidation-queue wait (batched or per-call).
    InvalidationWait,
    /// Completion-side bookkeeping (frees, pinned-pool recycling).
    Completion,
    /// Fault-recovery overhead (per-page fallback retries, extra flushes).
    Recovery,
}

impl Span {
    /// Number of spans.
    pub const COUNT: usize = 6;

    /// All spans, in index order.
    pub const ALL: [Span; Span::COUNT] = [
        Span::Alloc,
        Span::Map,
        Span::Unmap,
        Span::InvalidationWait,
        Span::Completion,
        Span::Recovery,
    ];

    /// Dense index of this span.
    pub fn index(self) -> usize {
        match self {
            Span::Alloc => 0,
            Span::Map => 1,
            Span::Unmap => 2,
            Span::InvalidationWait => 3,
            Span::Completion => 4,
            Span::Recovery => 5,
        }
    }

    /// Stable lowercase name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Span::Alloc => "alloc",
            Span::Map => "map",
            Span::Unmap => "unmap",
            Span::InvalidationWait => "invalidation-wait",
            Span::Completion => "completion",
            Span::Recovery => "recovery",
        }
    }
}

/// Accumulated CPU nanoseconds per [`Span`], whole-run (warmup included),
/// matching the windowing of the legacy `map_cpu_ns` counter it refines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSet {
    ns: [u64; Span::COUNT],
}

fns_snap::snap_fields!(SpanSet { ns });

impl SpanSet {
    /// An all-zero span set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` nanoseconds to `span`.
    #[inline]
    pub fn charge(&mut self, span: Span, ns: u64) {
        self.ns[span.index()] += ns;
    }

    /// Accumulated nanoseconds in `span`.
    pub fn get(&self, span: Span) -> u64 {
        self.ns[span.index()]
    }

    /// Sum over all spans — equals the legacy `map_cpu_ns`.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Invalidation-attributed subset (wait + recovery) — equals the
    /// legacy `invalidation_cpu_ns`.
    pub fn invalidation_ns(&self) -> u64 {
        self.get(Span::InvalidationWait) + self.get(Span::Recovery)
    }

    /// Non-invalidation datapath CPU (alloc/map/unmap/completion).
    pub fn datapath_ns(&self) -> u64 {
        self.total_ns() - self.invalidation_ns()
    }

    /// Merges another span set into this one.
    pub fn merge(&mut self, other: &SpanSet) {
        for i in 0..Span::COUNT {
            self.ns[i] += other.ns[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, s) in Span::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn totals_partition_into_invalidation_and_datapath() {
        let mut s = SpanSet::new();
        s.charge(Span::Alloc, 10);
        s.charge(Span::Map, 20);
        s.charge(Span::Unmap, 30);
        s.charge(Span::InvalidationWait, 40);
        s.charge(Span::Completion, 50);
        s.charge(Span::Recovery, 60);
        assert_eq!(s.total_ns(), 210);
        assert_eq!(s.invalidation_ns(), 100);
        assert_eq!(s.datapath_ns(), 110);
    }

    #[test]
    fn merge_sums_elementwise() {
        let mut a = SpanSet::new();
        a.charge(Span::Map, 5);
        let mut b = SpanSet::new();
        b.charge(Span::Map, 7);
        b.charge(Span::Recovery, 1);
        a.merge(&b);
        assert_eq!(a.get(Span::Map), 12);
        assert_eq!(a.get(Span::Recovery), 1);
    }
}
