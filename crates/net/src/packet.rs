//! The wire unit exchanged between the two hosts.

use fns_sim::time::Nanos;
use fns_snap::{snap_fields, Snap, SnapError, SnapReader, SnapWriter};

/// Identifier of one transport flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

snap_fields!(FlowId { 0 });

/// Packet payload semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Data segment starting at byte `seq`.
    Data,
    /// Cumulative acknowledgement.
    Ack {
        /// Next byte expected by the receiver.
        ack_seq: u64,
        /// Number of ECN-marked data packets this ACK echoes (DCTCP carries
        /// per-packet marks; we aggregate per ACK).
        ecn_echo: u32,
        /// Data packets covered by this ACK (for `alpha` accounting).
        acked_pkts: u32,
    },
}

/// A tag byte (0 = data, 1 = ACK), then the ACK fields.
impl Snap for PacketKind {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            PacketKind::Data => w.u8(0),
            PacketKind::Ack {
                ack_seq,
                ecn_echo,
                acked_pkts,
            } => (1u8, ack_seq, ecn_echo, acked_pkts).snap(w),
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(PacketKind::Data),
            1 => Ok(PacketKind::Ack {
                ack_seq: r.u64()?,
                ecn_echo: r.u32()?,
                acked_pkts: r.u32()?,
            }),
            t => Err(SnapError::BadTag {
                what: "packet kind",
                tag: t as u64,
            }),
        }
    }
}

/// A packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Starting byte sequence (data) or 0 (ACKs).
    pub seq: u64,
    /// Wire size in bytes, including payload (ACKs are 64 B).
    pub bytes: u32,
    /// Data or ACK.
    pub kind: PacketKind,
    /// Set by the switch when the queue exceeds the marking threshold.
    pub ecn_marked: bool,
    /// Set by fault injection: the payload is damaged and the receiver's
    /// checksum will reject it on delivery.
    pub corrupted: bool,
    /// Transmission timestamp (for RTT/latency measurement).
    pub sent_at: Nanos,
}

snap_fields!(Packet {
    flow,
    seq,
    bytes,
    kind,
    ecn_marked,
    corrupted,
    sent_at
});

/// Wire size of a pure ACK.
pub const ACK_BYTES: u32 = 64;

/// RSS indirection: spreads a flow over `queues` receive queues the way a
/// NIC's Toeplitz hash spreads 5-tuples — a fixed avalanche mix of the flow
/// id, reduced modulo the queue count. Deterministic (the simulation relies
/// on replaying the same spread) and well-distributed even for the small
/// consecutive flow ids the generators hand out.
pub fn rss_queue(flow: FlowId, queues: usize) -> usize {
    if queues <= 1 {
        return 0;
    }
    // SplitMix64 finalizer: full-period avalanche on 64 bits.
    let mut h = u64::from(flow.0) ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % queues as u64) as usize
}

impl Packet {
    /// Creates a data packet.
    pub fn data(flow: FlowId, seq: u64, bytes: u32, sent_at: Nanos) -> Self {
        Self {
            flow,
            seq,
            bytes,
            kind: PacketKind::Data,
            ecn_marked: false,
            corrupted: false,
            sent_at,
        }
    }

    /// Creates an ACK packet.
    pub fn ack(flow: FlowId, ack_seq: u64, ecn_echo: u32, acked_pkts: u32, sent_at: Nanos) -> Self {
        Self {
            flow,
            seq: 0,
            bytes: ACK_BYTES,
            kind: PacketKind::Ack {
                ack_seq,
                ecn_echo,
                acked_pkts,
            },
            ecn_marked: false,
            corrupted: false,
            sent_at,
        }
    }

    /// Returns `true` for data packets.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let d = Packet::data(FlowId(1), 4096, 4096, 10);
        assert!(d.is_data());
        assert_eq!(d.seq, 4096);
        let a = Packet::ack(FlowId(1), 8192, 2, 3, 20);
        assert!(!a.is_data());
        assert_eq!(a.bytes, ACK_BYTES);
        match a.kind {
            PacketKind::Ack {
                ack_seq,
                ecn_echo,
                acked_pkts,
            } => {
                assert_eq!(ack_seq, 8192);
                assert_eq!(ecn_echo, 2);
                assert_eq!(acked_pkts, 3);
            }
            PacketKind::Data => panic!("expected ack"),
        }
    }
}
