//! Switch output queue with DCTCP ECN marking.
//!
//! A single FIFO with a byte capacity and a marking threshold `K`: packets
//! enqueued while the queue holds more than `K` bytes get ECN-marked
//! (DCTCP's step marking). Both hosts sit one switch apart in the paper's
//! testbed; the switch is never the drop point in the experiments (drops
//! happen at the receiving NIC), but its marking is what keeps DCTCP's
//! window in check.

use std::collections::VecDeque;

use crate::packet::Packet;

/// FIFO switch queue with a DCTCP marking threshold.
///
/// # Examples
///
/// ```
/// use fns_net::switchq::SwitchQueue;
/// use fns_net::packet::{FlowId, Packet};
///
/// let mut q = SwitchQueue::new(10_000, 100);
/// q.enqueue(Packet::data(FlowId(0), 0, 200, 0));
/// // Queue already above K=100 when the next packet arrives: it is marked.
/// q.enqueue(Packet::data(FlowId(0), 200, 200, 0));
/// assert!(!q.dequeue().unwrap().ecn_marked);
/// assert!(q.dequeue().unwrap().ecn_marked);
/// ```
#[derive(Debug, Clone)]
pub struct SwitchQueue {
    queue: VecDeque<Packet>,
    capacity_bytes: u64,
    mark_threshold_bytes: u64,
    used_bytes: u64,
    /// Packets dropped at the switch (should stay 0 in host-bottleneck
    /// experiments).
    pub drops: u64,
    /// Packets ECN-marked.
    pub marks: u64,
}

fns_snap::snap_fields!(SwitchQueue {
    capacity_bytes,
    mark_threshold_bytes,
    used_bytes,
    drops,
    marks,
    queue,
});

impl SwitchQueue {
    /// Creates a queue with `capacity_bytes` and marking threshold `k`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or below the threshold.
    pub fn new(capacity_bytes: u64, k: u64) -> Self {
        assert!(capacity_bytes > 0, "zero-capacity switch queue");
        assert!(k <= capacity_bytes, "marking threshold above capacity");
        Self {
            queue: VecDeque::new(),
            capacity_bytes,
            mark_threshold_bytes: k,
            used_bytes: 0,
            drops: 0,
            marks: 0,
        }
    }

    /// Enqueues a packet, ECN-marking it if the queue is above `K`.
    /// Returns `false` on a (capacity) drop.
    pub fn enqueue(&mut self, mut p: Packet) -> bool {
        if self.used_bytes + p.bytes as u64 > self.capacity_bytes {
            self.drops += 1;
            return false;
        }
        if self.used_bytes > self.mark_threshold_bytes {
            p.ecn_marked = true;
            self.marks += 1;
        }
        self.used_bytes += p.bytes as u64;
        self.queue.push_back(p);
        true
    }

    /// Dequeues the next packet for transmission.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let p = self.queue.pop_front()?;
        self.used_bytes -= p.bytes as u64;
        Some(p)
    }

    /// Bytes currently queued.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Swaps the two most recently enqueued packets (fault-injected
    /// reordering). No-op with fewer than two packets queued.
    pub(crate) fn swap_tail(&mut self) {
        let n = self.queue.len();
        if n >= 2 {
            self.queue.swap(n - 1, n - 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn pkt(bytes: u32) -> Packet {
        Packet::data(FlowId(0), 0, bytes, 0)
    }

    #[test]
    fn marks_above_threshold_only() {
        let mut q = SwitchQueue::new(10_000, 500);
        q.enqueue(pkt(400)); // queue 0 -> not marked
        q.enqueue(pkt(400)); // queue 400 -> not marked
        q.enqueue(pkt(400)); // queue 800 > 500 -> marked
        assert_eq!(q.marks, 1);
        assert!(!q.dequeue().unwrap().ecn_marked);
        assert!(!q.dequeue().unwrap().ecn_marked);
        assert!(q.dequeue().unwrap().ecn_marked);
    }

    #[test]
    fn capacity_drop() {
        let mut q = SwitchQueue::new(1000, 0);
        assert!(q.enqueue(pkt(600)));
        assert!(!q.enqueue(pkt(600)));
        assert_eq!(q.drops, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn byte_accounting() {
        let mut q = SwitchQueue::new(1000, 1000);
        q.enqueue(pkt(300));
        q.enqueue(pkt(200));
        assert_eq!(q.used_bytes(), 500);
        q.dequeue();
        assert_eq!(q.used_bytes(), 200);
        q.dequeue();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold above capacity")]
    fn bad_threshold() {
        SwitchQueue::new(100, 200);
    }
}
