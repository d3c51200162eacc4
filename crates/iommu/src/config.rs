//! IOMMU hardware configuration.

/// Sizes and behaviour knobs of the modelled IOMMU.
///
/// The IOTLB and page-structure cache sizes of real Intel IOMMUs are not
/// public; the paper infers a "likely range" of 64–128 entries for
/// PTcache-L3 from its measurements (§2.2, footnote 3). The defaults here
/// were calibrated so that the simulated miss rates land in the ranges the
/// paper reports (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IommuConfig {
    /// IOTLB entries (final IOVA-to-physical translations).
    pub iotlb_entries: usize,
    /// IOTLB entries for 2 MB huge-page translations (separate array, as in
    /// split small/large-page TLBs).
    pub iotlb_huge_entries: usize,
    /// PTcache-L1 entries (IOVA bits 39..48 -> PT-L2 page).
    pub ptcache_l1_entries: usize,
    /// PTcache-L2 entries (IOVA bits 30..48 -> PT-L3 page).
    pub ptcache_l2_entries: usize,
    /// PTcache-L3 entries (IOVA bits 21..48 -> PT-L4 page).
    pub ptcache_l3_entries: usize,
    /// IOTLB associativity: `None` models a fully associative LRU array;
    /// `Some(ways)` models a set-associative IOTLB indexed by the low IOVA
    /// pfn bits (`iotlb_entries / ways` sets), which adds the conflict
    /// misses real hardware exhibits when hot IOVAs alias to one set.
    pub iotlb_assoc: Option<usize>,
    /// Verify every IOTLB hit against the page table and count hits on
    /// unmapped IOVAs as safety violations (models what a malicious device
    /// could reach; the check itself costs nothing in simulated time).
    pub verify_safety: bool,
    /// Protection-domain ID this translation unit serves. Single-device
    /// setups use domain 0; the observability registry keys its per-tenant
    /// percentiles on it, ready for multi-device topologies.
    pub domain: u16,
    /// Number of protection domains the unit translates for (PASID-style
    /// multi-device sharing). Each domain owns an isolated IO page table,
    /// and every IOTLB/PTcache entry is tagged with its domain so one
    /// tenant's cached translations can never serve another tenant's
    /// device. 1 (the default) is the single-device legacy shape: domain 0
    /// tags are the identity, so single-domain behaviour is bit-identical
    /// to the pre-domain model.
    pub domains: u16,
}

// The domain ID travels widened to `u64`. The domain count is not written
// here: [`crate::iommu::Iommu`]'s encoding carries it after the counters.
fns_snap::snap_fields!(IommuConfig {
    iotlb_entries,
    iotlb_huge_entries,
    ptcache_l1_entries,
    ptcache_l2_entries,
    ptcache_l3_entries,
    iotlb_assoc,
    verify_safety,
    domain as u64,
} restore_with {
    domains: 1,
});

impl Default for IommuConfig {
    fn default() -> Self {
        Self {
            iotlb_entries: 64,
            iotlb_huge_entries: 32,
            ptcache_l1_entries: 16,
            ptcache_l2_entries: 16,
            ptcache_l3_entries: 16,
            iotlb_assoc: None,
            verify_safety: true,
            domain: 0,
            domains: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_plausible_hardware() {
        let c = IommuConfig::default();
        assert!(c.iotlb_entries >= 32);
        assert!(c.ptcache_l3_entries >= c.ptcache_l1_entries / 2);
        assert!(c.verify_safety);
    }
}
