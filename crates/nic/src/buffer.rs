//! The finite on-NIC packet buffer.
//!
//! When the DMA pipeline cannot drain packets as fast as the wire delivers
//! them (because address translation inflates per-DMA latency), this buffer
//! fills and the NIC tail-drops — the direct cause of the drop rates in
//! Figures 2b/3b and, through retransmission timeouts, of the tail-latency
//! inflation in Figure 9.

use std::collections::VecDeque;

/// FIFO byte-budgeted packet buffer with tail-drop.
///
/// Generic over the packet type; the byte size is supplied at enqueue time
/// so this crate stays independent of the transport's packet layout.
///
/// # Examples
///
/// ```
/// use fns_nic::buffer::NicBuffer;
///
/// let mut b: NicBuffer<&str> = NicBuffer::new(100);
/// assert!(b.enqueue("p1", 60));
/// assert!(!b.enqueue("p2", 60)); // tail drop
/// assert_eq!(b.dropped_packets(), 1);
/// assert_eq!(b.dequeue(), Some(("p1", 60)));
/// ```
#[derive(Debug, Clone)]
pub struct NicBuffer<T> {
    queue: VecDeque<(T, u64)>,
    capacity_bytes: u64,
    used_bytes: u64,
    peak_bytes: u64,
    enqueued_packets: u64,
    dropped_packets: u64,
    dropped_bytes: u64,
}

// Packets travel front-to-back, each with its byte count.
fns_snap::snap_fields!(impl<T> NicBuffer<T> {
    capacity_bytes,
    used_bytes,
    peak_bytes,
    enqueued_packets,
    dropped_packets,
    dropped_bytes,
    queue,
});

impl<T> NicBuffer<T> {
    /// Creates a buffer of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "zero-capacity NIC buffer");
        Self {
            queue: VecDeque::new(),
            capacity_bytes,
            used_bytes: 0,
            peak_bytes: 0,
            enqueued_packets: 0,
            dropped_packets: 0,
            dropped_bytes: 0,
        }
    }

    /// Enqueues a packet of `bytes`; returns `false` and counts a drop if
    /// the buffer cannot hold it.
    pub fn enqueue(&mut self, packet: T, bytes: u64) -> bool {
        if self.used_bytes + bytes > self.capacity_bytes {
            self.dropped_packets += 1;
            self.dropped_bytes += bytes;
            return false;
        }
        self.used_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        self.enqueued_packets += 1;
        self.queue.push_back((packet, bytes));
        true
    }

    /// Dequeues the oldest packet.
    pub fn dequeue(&mut self) -> Option<(T, u64)> {
        let (p, b) = self.queue.pop_front()?;
        self.used_bytes -= b;
        Some((p, b))
    }

    /// Peeks at the oldest packet's size without dequeuing.
    pub fn head_bytes(&self) -> Option<u64> {
        self.queue.front().map(|&(_, b)| b)
    }

    /// Peeks at the oldest packet without dequeuing.
    pub fn peek_packet(&self) -> Option<&T> {
        self.queue.front().map(|(p, _)| p)
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Bytes currently queued.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Peak queued bytes over the buffer's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Packets accepted over the buffer's lifetime.
    pub fn enqueued_packets(&self) -> u64 {
        self.enqueued_packets
    }

    /// Packets tail-dropped.
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Bytes tail-dropped.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut b = NicBuffer::new(1000);
        b.enqueue(1, 100);
        b.enqueue(2, 100);
        assert_eq!(b.dequeue(), Some((1, 100)));
        assert_eq!(b.dequeue(), Some((2, 100)));
        assert_eq!(b.dequeue(), None);
    }

    #[test]
    fn tail_drop_and_accounting() {
        let mut b = NicBuffer::new(250);
        assert!(b.enqueue('a', 100));
        assert!(b.enqueue('b', 100));
        assert!(!b.enqueue('c', 100));
        assert_eq!(b.used_bytes(), 200);
        assert_eq!(b.dropped_packets(), 1);
        assert_eq!(b.dropped_bytes(), 100);
        b.dequeue();
        assert!(b.enqueue('c', 100));
        assert_eq!(b.peak_bytes(), 200);
        assert_eq!(b.enqueued_packets(), 3);
    }

    #[test]
    fn head_bytes_peek() {
        let mut b = NicBuffer::new(100);
        assert_eq!(b.head_bytes(), None);
        b.enqueue((), 42);
        assert_eq!(b.head_bytes(), Some(42));
        assert_eq!(b.len(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        NicBuffer::<()>::new(0);
    }
}
