//! The IOMMU invalidation queue and its CPU cost model.
//!
//! Strict-mode unmap is expensive on the CPU side because the initiating
//! core must submit invalidation descriptors to the hardware queue and
//! *wait* for their completion (§3 of the paper, citing [39, 42]). Stock
//! Linux needs one queue entry per 4 KB IOVA; F&S's contiguous allocation
//! lets it cover a whole descriptor with a single entry (Figure 6),
//! amortizing the synchronization cost 64x.

use fns_iova::types::IovaRange;
use fns_sim::time::Nanos;

use crate::iommu::{InvalidationScope, Iommu};

/// One invalidation descriptor submitted by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidationRequest {
    /// IOVA range whose translations must be invalidated.
    pub range: IovaRange,
    /// Whether the page-structure caches are preserved (F&S) or wiped
    /// (stock Linux).
    pub scope: InvalidationScope,
    /// Protection domain the descriptor names: only that domain's tagged
    /// IOTLB/PTcache entries are wiped (single-device setups always say 0).
    pub domain: u16,
}

// The domain travels widened to `u64`.
fns_snap::snap_fields!(InvalidationRequest { range, scope, domain as u64 });

/// Cost model of the hardware invalidation queue.
///
/// A batch submitted together pays one synchronization wait plus a
/// per-descriptor processing cost; the submitting CPU core is busy for the
/// whole duration (Linux `queue_iova`/`iommu_flush_iotlb` with strict mode
/// waits inline).
#[derive(Debug, Clone, Copy)]
pub struct InvalidationQueue {
    /// Fixed cost of submitting a batch and waiting for the completion
    /// marker (wait descriptor round trip).
    pub sync_overhead_ns: Nanos,
    /// Processing cost per invalidation descriptor.
    pub per_entry_ns: Nanos,
}

impl Default for InvalidationQueue {
    fn default() -> Self {
        // Calibrated so that a stock-Linux 64-entry descriptor unmap costs
        // ~7 us of CPU per descriptor (~110 ns/page) and an F&S single-entry
        // batch ~0.6 us (~10 ns/page), matching the relative CPU overheads
        // reported in \[39\]/\[42\].
        Self {
            sync_overhead_ns: 300,
            per_entry_ns: 50,
        }
    }
}

impl InvalidationQueue {
    /// Executes a batch of invalidation requests against the IOMMU and
    /// returns the CPU time the submitting core spends busy-waiting.
    ///
    /// An empty batch costs nothing.
    pub fn execute(&self, iommu: &mut Iommu, batch: &[InvalidationRequest]) -> Nanos {
        if batch.is_empty() {
            return 0;
        }
        for req in batch {
            iommu.invalidate_range_in(req.domain, req.range, req.scope);
        }
        iommu.note_queue_entries(batch.len() as u64);
        self.sync_overhead_ns + self.per_entry_ns * batch.len() as Nanos
    }

    /// CPU time for a batch of `n` entries without executing it (used by
    /// analytical models and tests).
    pub fn cost_ns(&self, n: usize) -> Nanos {
        if n == 0 {
            0
        } else {
            self.sync_overhead_ns + self.per_entry_ns * n as Nanos
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IommuConfig;
    use fns_iova::types::Iova;
    use fns_mem::addr::PhysAddr;

    #[test]
    fn batching_amortizes_sync_cost() {
        let q = InvalidationQueue::default();
        let linux_cost = q.cost_ns(64); // one entry per page
        let fns_cost = q.cost_ns(1); // one entry per descriptor
        assert!(linux_cost >= 9 * fns_cost, "{linux_cost} vs {fns_cost}");
        assert_eq!(q.cost_ns(0), 0);
    }

    #[test]
    fn execute_applies_all_requests() {
        let mut mmu = Iommu::new(IommuConfig::default());
        let r1 = IovaRange::new(Iova::from_pfn(10), 1);
        let r2 = IovaRange::new(Iova::from_pfn(20), 1);
        for r in [r1, r2] {
            mmu.map(r.base(), PhysAddr::from_pfn(r.pfn_lo())).unwrap();
            mmu.translate(r.base());
        }
        mmu.unmap_range(r1).unwrap();
        mmu.unmap_range(r2).unwrap();
        let q = InvalidationQueue::default();
        let cost = q.execute(
            &mut mmu,
            &[
                InvalidationRequest {
                    range: r1,
                    scope: InvalidationScope::IotlbAndFullPtcache,
                    domain: 0,
                },
                InvalidationRequest {
                    range: r2,
                    scope: InvalidationScope::IotlbAndFullPtcache,
                    domain: 0,
                },
            ],
        );
        assert_eq!(cost, 300 + 100);
        assert_eq!(mmu.stats().invalidation_queue_entries, 2);
        assert_eq!(mmu.stats().iotlb_invalidations, 2);
        use crate::iommu::Translation;
        assert!(matches!(
            mmu.translate(r1.base()),
            Translation::Fault { .. }
        ));
    }

    #[test]
    fn empty_batch_is_free() {
        let mut mmu = Iommu::new(IommuConfig::default());
        let q = InvalidationQueue::default();
        assert_eq!(q.execute(&mut mmu, &[]), 0);
        assert_eq!(mmu.stats().invalidation_queue_entries, 0);
    }
}
