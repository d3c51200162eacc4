//! Per-flow receive-side state: reordering, ACK generation, GRO coalescing.
//!
//! The receive side is where the paper's ACK-rate mechanism lives: in-order
//! trains are coalesced GRO-style (one ACK per aggregated batch), while any
//! out-of-order arrival triggers an immediate duplicate ACK. Higher drop
//! rates therefore directly inflate the number of ACK (Tx) DMAs per
//! received page — the contention the paper measures in Figure 2c.

use std::collections::BTreeMap;

use fns_sim::time::Nanos;

use crate::packet::{FlowId, Packet};

/// An ACK the receiver wants transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckToSend {
    /// Cumulative ack: next expected byte.
    pub ack_seq: u64,
    /// ECN marks echoed by this ACK.
    pub ecn_echo: u32,
    /// Data packets this ACK covers.
    pub acked_pkts: u32,
}

/// Per-flow receiver state.
///
/// # Examples
///
/// ```
/// use fns_net::receiver::FlowReceiver;
/// use fns_net::packet::{FlowId, Packet};
///
/// let mut r = FlowReceiver::new(FlowId(0), 4);
/// // Three in-order packets: coalesced, no ACK yet (GRO batch of 4).
/// for i in 0..3 {
///     let p = Packet::data(FlowId(0), i * 4096, 4096, 0);
///     assert!(r.on_data(&p, 0).is_none());
/// }
/// // Fourth completes the batch: one cumulative ACK.
/// let p = Packet::data(FlowId(0), 3 * 4096, 4096, 0);
/// let ack = r.on_data(&p, 0).unwrap();
/// assert_eq!(ack.ack_seq, 4 * 4096);
/// assert_eq!(ack.acked_pkts, 4);
/// ```
#[derive(Debug, Clone)]
pub struct FlowReceiver {
    flow: FlowId,
    rcv_nxt: u64,
    /// Out-of-order segments: start -> end (exclusive).
    ooo: BTreeMap<u64, u64>,
    /// GRO batch size: in-order packets coalesced per ACK.
    coalesce: u32,
    batch_pkts: u32,
    batch_marks: u32,
    /// Remaining packets to ACK immediately (Linux's quick-ack mode entered
    /// after loss/reordering episodes). This is the mechanism that couples
    /// drop rate to ACK rate — the paper's §2.2 flow-count effect.
    quickack: u32,
    /// Total bytes delivered in order to the application.
    pub delivered_bytes: u64,
    /// Duplicate ACKs generated (out-of-order arrivals).
    pub dup_acks_sent: u64,
    /// Total ACKs generated.
    pub acks_sent: u64,
    /// Data packets received (including duplicates).
    pub data_pkts: u64,
}

// The out-of-order map travels in key order.
fns_snap::snap_fields!(FlowReceiver {
    flow,
    rcv_nxt,
    ooo,
    coalesce,
    batch_pkts,
    batch_marks,
    quickack,
    delivered_bytes,
    dup_acks_sent,
    acks_sent,
    data_pkts,
});

impl FlowReceiver {
    /// Creates receive state for `flow`, coalescing `coalesce` in-order
    /// packets per ACK.
    ///
    /// # Panics
    ///
    /// Panics if `coalesce` is zero.
    pub fn new(flow: FlowId, coalesce: u32) -> Self {
        assert!(coalesce > 0, "zero coalesce factor");
        Self {
            flow,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            coalesce,
            batch_pkts: 0,
            batch_marks: 0,
            quickack: 0,
            delivered_bytes: 0,
            dup_acks_sent: 0,
            acks_sent: 0,
            data_pkts: 0,
        }
    }

    /// The flow this receiver serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Next in-order byte expected.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Number of buffered out-of-order segments.
    pub fn ooo_segments(&self) -> usize {
        self.ooo.len()
    }

    /// Processes an arriving data packet; returns an ACK to transmit, if
    /// one is due now.
    pub fn on_data(&mut self, p: &Packet, _now: Nanos) -> Option<AckToSend> {
        debug_assert!(p.is_data());
        self.data_pkts += 1;
        if p.ecn_marked {
            self.batch_marks += 1;
        }
        let start = p.seq;
        let end = p.seq + p.bytes as u64;
        if start > self.rcv_nxt {
            // Out of order: buffer the segment, send an immediate dupack,
            // and enter quick-ack mode for a while (as Linux does after a
            // reordering episode).
            self.insert_ooo(start, end);
            self.quickack = 32;
            self.dup_acks_sent += 1;
            self.acks_sent += 1;
            let marks = std::mem::take(&mut self.batch_marks);
            let pkts = std::mem::take(&mut self.batch_pkts) + 1;
            return Some(AckToSend {
                ack_seq: self.rcv_nxt,
                ecn_echo: marks,
                acked_pkts: pkts,
            });
        }
        if end <= self.rcv_nxt {
            // Pure duplicate (retransmission overlap): ack immediately so
            // the sender makes progress.
            self.acks_sent += 1;
            return Some(AckToSend {
                ack_seq: self.rcv_nxt,
                ecn_echo: std::mem::take(&mut self.batch_marks),
                acked_pkts: 1,
            });
        }
        // In-order (possibly partially duplicate) delivery.
        let had_holes = !self.ooo.is_empty();
        self.deliver_to(end);
        self.drain_ooo();
        self.batch_pkts += 1;
        let quick = self.quickack > 0;
        self.quickack = self.quickack.saturating_sub(1);
        // Ack immediately when this packet interacts with reordering —
        // either it filled a hole or holes remain — or while quick-ack mode
        // is active, so the sender's recovery is not delayed by coalescing.
        if self.batch_pkts >= self.coalesce || had_holes || !self.ooo.is_empty() || quick {
            self.acks_sent += 1;
            let marks = std::mem::take(&mut self.batch_marks);
            let pkts = std::mem::take(&mut self.batch_pkts);
            return Some(AckToSend {
                ack_seq: self.rcv_nxt,
                ecn_echo: marks,
                acked_pkts: pkts,
            });
        }
        None
    }

    /// Forces out a pending coalesced ACK (delayed-ACK timer expiry, or the
    /// NAPI poll ending its batch).
    pub fn flush_ack(&mut self) -> Option<AckToSend> {
        if self.batch_pkts == 0 {
            return None;
        }
        self.acks_sent += 1;
        let marks = std::mem::take(&mut self.batch_marks);
        let pkts = std::mem::take(&mut self.batch_pkts);
        Some(AckToSend {
            ack_seq: self.rcv_nxt,
            ecn_echo: marks,
            acked_pkts: pkts,
        })
    }

    fn deliver_to(&mut self, end: u64) {
        if end > self.rcv_nxt {
            self.delivered_bytes += end - self.rcv_nxt;
            self.rcv_nxt = end;
        }
    }

    fn insert_ooo(&mut self, start: u64, end: u64) {
        // Merge with overlapping/adjacent segments.
        let mut s = start;
        let mut e = end;
        let overlapping: Vec<u64> = self
            .ooo
            .range(..=e)
            .filter(|&(_, &oe)| oe >= s)
            .map(|(&os, _)| os)
            .collect();
        for os in overlapping {
            let oe = self.ooo.remove(&os).unwrap();
            s = s.min(os);
            e = e.max(oe);
        }
        self.ooo.insert(s, e);
    }

    fn drain_ooo(&mut self) {
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.remove(&s);
            self.deliver_to(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, bytes: u32) -> Packet {
        Packet::data(FlowId(0), seq, bytes, 0)
    }

    fn rx(coalesce: u32) -> FlowReceiver {
        FlowReceiver::new(FlowId(0), coalesce)
    }

    #[test]
    fn in_order_coalesced_acks() {
        let mut r = rx(4);
        let mut acks = 0;
        for i in 0..16u64 {
            if r.on_data(&data(i * 100, 100), 0).is_some() {
                acks += 1;
            }
        }
        assert_eq!(acks, 4, "one ACK per 4 packets");
        assert_eq!(r.delivered_bytes, 1600);
        assert_eq!(r.dup_acks_sent, 0);
    }

    #[test]
    fn out_of_order_triggers_immediate_dupack() {
        let mut r = rx(8);
        assert!(r.on_data(&data(0, 100), 0).is_none());
        // Gap: packet 2 arrives before packet 1.
        let ack = r.on_data(&data(200, 100), 0).unwrap();
        assert_eq!(ack.ack_seq, 100, "dupack points at the hole");
        assert_eq!(r.ooo_segments(), 1);
        // Filling the hole delivers everything and acks immediately
        // (ooo buffer was non-empty).
        let ack = r.on_data(&data(100, 100), 0).unwrap();
        assert_eq!(ack.ack_seq, 300);
        assert_eq!(r.delivered_bytes, 300);
        assert_eq!(r.ooo_segments(), 0);
    }

    #[test]
    fn duplicate_data_is_acked_not_delivered() {
        let mut r = rx(1);
        r.on_data(&data(0, 100), 0);
        let before = r.delivered_bytes;
        let ack = r.on_data(&data(0, 100), 0).unwrap();
        assert_eq!(ack.ack_seq, 100);
        assert_eq!(r.delivered_bytes, before);
    }

    #[test]
    fn ooo_merging() {
        let mut r = rx(8);
        r.on_data(&data(0, 100), 0);
        r.on_data(&data(300, 100), 0); // hole at 100..300
        r.on_data(&data(200, 100), 0); // merges with 300..400
        assert_eq!(r.ooo_segments(), 1);
        r.on_data(&data(100, 100), 0);
        assert_eq!(r.rcv_nxt(), 400);
        assert_eq!(r.delivered_bytes, 400);
    }

    #[test]
    fn ecn_marks_echoed_in_acks() {
        let mut r = rx(2);
        let mut p = data(0, 100);
        p.ecn_marked = true;
        assert!(r.on_data(&p, 0).is_none());
        let mut p2 = data(100, 100);
        p2.ecn_marked = true;
        let ack = r.on_data(&p2, 0).unwrap();
        assert_eq!(ack.ecn_echo, 2);
        assert_eq!(ack.acked_pkts, 2);
    }

    #[test]
    fn flush_emits_partial_batch() {
        let mut r = rx(8);
        r.on_data(&data(0, 100), 0);
        r.on_data(&data(100, 100), 0);
        let ack = r.flush_ack().unwrap();
        assert_eq!(ack.ack_seq, 200);
        assert_eq!(ack.acked_pkts, 2);
        assert!(r.flush_ack().is_none(), "nothing pending after flush");
    }

    #[test]
    fn quickack_after_reordering_episode() {
        let mut r = rx(8);
        // In-order warmup: coalesced.
        for i in 0..8u64 {
            r.on_data(&data(i * 100, 100), 0);
        }
        let acks_before = r.acks_sent;
        // A reordering episode...
        r.on_data(&data(900, 100), 0); // gap at 800
        r.on_data(&data(800, 100), 0); // filled
                                       // ...puts the receiver in quick-ack mode: the next in-order packets
                                       // are each acked immediately despite coalesce = 8.
        let mut quick_acks = 0;
        for i in 10..18u64 {
            quick_acks += r.on_data(&data(i * 100, 100), 0).is_some() as u32;
        }
        assert_eq!(quick_acks, 8, "every packet acked in quick-ack mode");
        assert!(r.acks_sent > acks_before + 8);
    }

    #[test]
    fn more_drops_mean_more_acks_per_byte() {
        // The paper's §2.2 mechanism, distilled: deliver the same stream
        // with and without drops and compare ACK counts.
        let clean_acks = {
            let mut r = rx(8);
            let mut acks = 0;
            for i in 0..64u64 {
                acks += r.on_data(&data(i * 100, 100), 0).is_some() as u64;
            }
            acks
        };
        let lossy_acks = {
            let mut r = rx(8);
            let mut acks = 0;
            for i in 0..64u64 {
                if i % 8 == 3 {
                    continue; // dropped; arrives later
                }
                acks += r.on_data(&data(i * 100, 100), 0).is_some() as u64;
            }
            // Retransmissions fill the holes.
            for i in (0..64u64).filter(|i| i % 8 == 3) {
                acks += r.on_data(&data(i * 100, 100), 0).is_some() as u64;
            }
            acks
        };
        assert!(
            lossy_acks > 2 * clean_acks,
            "drops should inflate ACK rate: {lossy_acks} vs {clean_acks}"
        );
    }
}
