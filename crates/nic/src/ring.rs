//! Per-core Rx descriptor ring.

use std::collections::VecDeque;

use fns_faults::{FaultKind, FaultPlane};

use crate::descriptor::Descriptor;

/// Typed Rx-ring errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The producer index caught the consumer: no free slot for the
    /// descriptor (real or injected ring overrun).
    Overflow { capacity: usize },
    /// The head descriptor still has unconsumed pages — popping it would
    /// let the driver unmap pages the NIC may still write.
    HeadLive { remaining: usize },
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Overflow { capacity } => {
                write!(f, "Rx ring overflow (capacity {capacity})")
            }
            RingError::HeadLive { remaining } => {
                write!(f, "head descriptor live with {remaining} pages unconsumed")
            }
        }
    }
}

impl std::error::Error for RingError {}

/// A ring buffer of prepared Rx descriptors for one core.
///
/// The driver keeps the ring topped up ("replenished") whenever the number
/// of prepared descriptors falls below a threshold; the NIC consumes pages
/// from the head descriptor as packets arrive (paper §2.1, step 1).
///
/// # Examples
///
/// ```
/// use fns_nic::ring::RxRing;
/// use fns_nic::descriptor::{Descriptor, DescriptorPage};
/// use fns_iova::types::Iova;
/// use fns_mem::addr::PhysAddr;
///
/// let mut ring = RxRing::new(4, 2);
/// assert!(ring.needs_replenish());
/// for id in 0..4 {
///     let pages = vec![DescriptorPage { iova: Iova::from_pfn(10 + id), pa: PhysAddr::from_pfn(id) }];
///     ring.push(Descriptor::new(id, pages));
/// }
/// assert!(!ring.needs_replenish());
/// assert!(ring.head_mut().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RxRing {
    descriptors: VecDeque<Descriptor>,
    capacity: usize,
    replenish_threshold: usize,
}

// Configuration, then the descriptors front-to-back.
fns_snap::snap_fields!(RxRing {
    capacity,
    replenish_threshold,
    descriptors
});

impl RxRing {
    /// Creates a ring holding up to `capacity` descriptors, replenished when
    /// fewer than `replenish_threshold` remain.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the threshold exceeds the capacity.
    pub fn new(capacity: usize, replenish_threshold: usize) -> Self {
        assert!(capacity > 0, "zero-capacity ring");
        assert!(
            replenish_threshold <= capacity,
            "threshold above ring capacity"
        );
        Self {
            descriptors: VecDeque::with_capacity(capacity),
            capacity,
            replenish_threshold,
        }
    }

    /// Descriptors currently prepared.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Returns `true` if no descriptors are available.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Ring capacity in descriptors.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free descriptor slots.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.descriptors.len()
    }

    /// Returns `true` when the driver should prepare more descriptors.
    pub fn needs_replenish(&self) -> bool {
        self.descriptors.len() < self.replenish_threshold
    }

    /// Adds a prepared descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full. Fault-tolerant callers use
    /// [`RxRing::try_push`] or [`RxRing::push_with`].
    pub fn push(&mut self, d: Descriptor) {
        self.try_push(d).expect("ring overflow");
    }

    /// Adds a prepared descriptor, reporting a full ring as
    /// [`RingError::Overflow`] and returning the descriptor for recycling.
    pub fn try_push(&mut self, d: Descriptor) -> Result<(), (Descriptor, RingError)> {
        if self.descriptors.len() >= self.capacity {
            return Err((
                d,
                RingError::Overflow {
                    capacity: self.capacity,
                },
            ));
        }
        self.descriptors.push_back(d);
        Ok(())
    }

    /// Adds a prepared descriptor under fault injection: the plane may
    /// refuse the push as a ring overrun even while slots remain (modelling
    /// a producer index racing past the consumer). The refused descriptor
    /// comes back to the caller for recycling.
    pub fn push_with(
        &mut self,
        d: Descriptor,
        faults: &mut FaultPlane,
    ) -> Result<(), (Descriptor, RingError)> {
        if faults.roll(FaultKind::RingOverrun) {
            return Err((
                d,
                RingError::Overflow {
                    capacity: self.capacity,
                },
            ));
        }
        self.try_push(d)
    }

    /// The head descriptor the NIC is currently filling.
    pub fn head_mut(&mut self) -> Option<&mut Descriptor> {
        self.descriptors.front_mut()
    }

    /// Unconsumed pages remaining in the head descriptor.
    pub fn head_remaining(&self) -> usize {
        self.descriptors.front().map_or(0, |d| d.remaining())
    }

    /// Fully prepared descriptors queued behind the head.
    pub fn queued_behind_head(&self) -> usize {
        self.descriptors.len().saturating_sub(1)
    }

    /// Pops the head descriptor once fully consumed, handing it to the
    /// driver's completion path.
    ///
    /// # Panics
    ///
    /// Panics if the head is not fully consumed — popping a live descriptor
    /// would let the driver unmap pages the NIC may still write.
    pub fn pop_consumed(&mut self) -> Option<Descriptor> {
        self.try_pop_consumed()
            .expect("popping a descriptor the NIC is still filling")
    }

    /// Pops the head descriptor regardless of consumption state. This is
    /// the end-of-run teardown hook: once the simulation clock stops, the
    /// modelled NIC writes nothing further, so still-posted descriptors can
    /// be handed back for page-storage recycling.
    pub fn pop_any(&mut self) -> Option<Descriptor> {
        self.descriptors.pop_front()
    }

    /// Pops the head descriptor once fully consumed, reporting a
    /// still-live head as [`RingError::HeadLive`] instead of panicking.
    pub fn try_pop_consumed(&mut self) -> Result<Option<Descriptor>, RingError> {
        let Some(head) = self.descriptors.front() else {
            return Ok(None);
        };
        if head.is_consumed() {
            Ok(self.descriptors.pop_front())
        } else {
            Err(RingError::HeadLive {
                remaining: head.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::DescriptorPage;
    use fns_iova::types::Iova;
    use fns_mem::addr::PhysAddr;

    fn desc(id: u64, pages: u64) -> Descriptor {
        Descriptor::new(
            id,
            (0..pages)
                .map(|i| DescriptorPage {
                    iova: Iova::from_pfn(id * 100 + i),
                    pa: PhysAddr::from_pfn(id * 100 + i),
                })
                .collect(),
        )
    }

    #[test]
    fn replenish_threshold() {
        let mut r = RxRing::new(4, 2);
        assert!(r.needs_replenish());
        r.push(desc(0, 1));
        r.push(desc(1, 1));
        assert!(!r.needs_replenish());
        r.head_mut().unwrap().consume_page();
        r.pop_consumed().unwrap();
        assert!(r.needs_replenish());
    }

    #[test]
    fn consume_then_pop() {
        let mut r = RxRing::new(2, 1);
        r.push(desc(7, 2));
        r.head_mut().unwrap().consume_page();
        r.head_mut().unwrap().consume_page();
        let d = r.pop_consumed().unwrap();
        assert_eq!(d.id(), 7);
        assert!(r.is_empty());
        assert_eq!(r.free_slots(), 2);
    }

    #[test]
    #[should_panic(expected = "still filling")]
    fn pop_live_descriptor_panics() {
        let mut r = RxRing::new(2, 1);
        r.push(desc(7, 2));
        r.head_mut().unwrap().consume_page();
        r.pop_consumed();
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn overflow_panics() {
        let mut r = RxRing::new(1, 0);
        r.push(desc(0, 1));
        r.push(desc(1, 1));
    }

    #[test]
    fn pop_empty_is_none() {
        let mut r = RxRing::new(1, 0);
        assert!(r.pop_consumed().is_none());
    }

    #[test]
    fn try_push_returns_descriptor_on_overflow() {
        let mut r = RxRing::new(1, 0);
        r.push(desc(0, 1));
        let (d, e) = r.try_push(desc(1, 1)).unwrap_err();
        assert_eq!(d.id(), 1);
        assert_eq!(e, RingError::Overflow { capacity: 1 });
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn try_pop_live_head_is_error() {
        let mut r = RxRing::new(2, 1);
        r.push(desc(7, 2));
        r.head_mut().unwrap().consume_page();
        assert_eq!(
            r.try_pop_consumed().unwrap_err(),
            RingError::HeadLive { remaining: 1 }
        );
        // The head stays in place for the NIC to finish.
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn push_with_injected_overrun_refuses_despite_space() {
        use fns_faults::{FaultConfig, FaultPlane};
        use fns_sim::rng::SimRng;

        let cfg = FaultConfig::disabled().with_every(FaultKind::RingOverrun, 2);
        let mut plane = FaultPlane::new(cfg, SimRng::seed(1));
        let mut r = RxRing::new(8, 0);
        assert!(r.push_with(desc(0, 1), &mut plane).is_ok());
        let (d, e) = r.push_with(desc(1, 1), &mut plane).unwrap_err();
        assert_eq!(d.id(), 1);
        assert!(matches!(e, RingError::Overflow { .. }));
        assert_eq!(r.len(), 1, "injected overrun must not enqueue");
        assert_eq!(plane.stats().injected_of(FaultKind::RingOverrun), 1);
    }
}
