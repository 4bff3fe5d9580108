//! Messages that flow through the simulated memory pipe.
//!
//! Requests travel *down* the pipe (SM → interconnect → L2 slice →
//! memory controller); responses travel *up* it. Ordering markers —
//! OrderLight packets and fence probes — travel in-band with the requests
//! so their relative order with respect to PIM requests is maintained at
//! every step (paper Section 5.2).

use crate::isa::{PimInstruction, Reg};
use crate::packet::OrderLightPacket;
use crate::types::{Addr, ChannelId, GlobalWarpId, GroupMask, Stripe};
use std::fmt;

/// Per-request metadata used for fence tracking and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqMeta {
    /// Issuing warp.
    pub warp: GlobalWarpId,
    /// Per-warp monotonically increasing sequence number.
    pub seq: u64,
}

/// An in-band ordering marker.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Marker {
    /// An OrderLight packet: enforced at the memory controller, never
    /// stalls the core.
    OrderLight(OrderLightPacket),
    /// A Louvre-style versioned release marker. It reuses the OrderLight
    /// packet encoding (channel, group set, 32-bit number) but the number
    /// is a per-group *version* stamped at the core; the controller holds
    /// the marker at its scheduler stage until every older-version
    /// request of its groups has issued, instead of broadcasting a
    /// per-group flag.
    Release(OrderLightPacket),
    /// A fence probe: the baseline core-centric fence. The memory
    /// controller acknowledges it once every prior PIM request from the
    /// same warp has been issued to the DRAM; the warp stalls until the
    /// acknowledgement returns.
    FenceProbe {
        /// The stalled warp awaiting the acknowledgement.
        warp: GlobalWarpId,
        /// Identifier echoed back in the [`MemResp::FenceAck`].
        fence_id: u64,
        /// Channel whose controller must acknowledge.
        channel: ChannelId,
    },
}

impl Marker {
    /// A stable identity for matching divergence copies back together.
    #[must_use]
    pub fn key(&self) -> MarkerKey {
        match self {
            Marker::OrderLight(p) => MarkerKey::OrderLight {
                channel: p.channel(),
                groups: p.groups().collect(),
                number: p.number(),
            },
            Marker::Release(p) => MarkerKey::Release {
                channel: p.channel(),
                groups: p.groups().collect(),
                number: p.number(),
            },
            Marker::FenceProbe { warp, fence_id, .. } => {
                MarkerKey::Fence { warp: *warp, fence_id: *fence_id }
            }
        }
    }

    /// The channel this marker is routed to.
    #[must_use]
    pub fn channel(&self) -> ChannelId {
        match self {
            Marker::OrderLight(p) | Marker::Release(p) => p.channel(),
            Marker::FenceProbe { channel, .. } => *channel,
        }
    }
}

impl fmt::Display for Marker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Marker::OrderLight(p) => write!(f, "{p}"),
            Marker::Release(p) => write!(f, "release[{p}]"),
            Marker::FenceProbe { warp, fence_id, channel } => {
                write!(f, "fence[{warp} #{fence_id} ch{}]", channel.0)
            }
        }
    }
}

/// Identity used to match marker copies at convergence points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkerKey {
    /// Identity of an OrderLight packet.
    OrderLight {
        /// Target channel.
        channel: ChannelId,
        /// The constrained memory groups.
        groups: GroupMask,
        /// Packet number.
        number: u32,
    },
    /// Identity of a Louvre-style versioned release marker.
    Release {
        /// Target channel.
        channel: ChannelId,
        /// The constrained memory groups.
        groups: GroupMask,
        /// Release version.
        number: u32,
    },
    /// Identity of a fence probe.
    Fence {
        /// Stalled warp.
        warp: GlobalWarpId,
        /// Fence identifier.
        fence_id: u64,
    },
}

/// A marker copy produced at a divergence point, carrying how many sibling
/// copies the downstream convergence FSM must collect before merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkerCopy {
    /// The marker being replicated.
    pub marker: Marker,
    /// Total number of copies emitted at the divergence point.
    pub total_copies: u8,
}

/// A request travelling down the memory pipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemReq {
    /// A fine-grained PIM instruction (bypasses the caches like a
    /// non-temporal access).
    Pim {
        /// The PIM instruction.
        instr: PimInstruction,
        /// Issue metadata.
        meta: ReqMeta,
    },
    /// A conventional host read returning a stripe to the core.
    HostRead {
        /// Stripe address.
        addr: Addr,
        /// Destination register at the core.
        reg: Reg,
        /// Issue metadata.
        meta: ReqMeta,
    },
    /// A conventional host write.
    HostWrite {
        /// Stripe address.
        addr: Addr,
        /// Data to write.
        data: Stripe,
        /// Issue metadata.
        meta: ReqMeta,
    },
    /// An in-band ordering marker (possibly one of several copies).
    Marker(MarkerCopy),
}

impl MemReq {
    /// The request's target address, if it accesses memory.
    #[must_use]
    pub fn addr(&self) -> Option<Addr> {
        match self {
            MemReq::Pim { instr, .. } => Some(instr.addr),
            MemReq::HostRead { addr, .. } | MemReq::HostWrite { addr, .. } => Some(*addr),
            MemReq::Marker(_) => None,
        }
    }

    /// Whether the request is write-like for queue routing purposes:
    /// host writes and PIM stores go to the write queue, everything else
    /// (including PIM loads/computes, which are read-like) to the read
    /// queue.
    #[must_use]
    pub fn is_write_like(&self) -> bool {
        match self {
            MemReq::Pim { instr, .. } => instr.op.is_dram_write(),
            MemReq::HostWrite { .. } => true,
            MemReq::HostRead { .. } | MemReq::Marker(_) => false,
        }
    }

    /// The issuing warp, if the request is not a marker.
    #[must_use]
    pub fn meta(&self) -> Option<ReqMeta> {
        match self {
            MemReq::Pim { meta, .. }
            | MemReq::HostRead { meta, .. }
            | MemReq::HostWrite { meta, .. } => Some(*meta),
            MemReq::Marker(_) => None,
        }
    }

    /// Whether this is a PIM request (for bandwidth accounting).
    #[must_use]
    pub fn is_pim(&self) -> bool {
        matches!(self, MemReq::Pim { .. })
    }
}

/// A response travelling back up the memory pipe to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemResp {
    /// Data for a conventional host read.
    LoadData {
        /// Requesting warp.
        warp: GlobalWarpId,
        /// Destination register.
        reg: Reg,
        /// The stripe read.
        data: Stripe,
    },
    /// Acknowledgement that a fence's prior requests have been issued to
    /// DRAM; unblocks the stalled warp.
    FenceAck {
        /// The stalled warp.
        warp: GlobalWarpId,
        /// The fence identifier from the probe.
        fence_id: u64,
    },
    /// A buffer credit returned by the controller (only in the
    /// sequence-number baseline of Kim et al. (paper reference 27), reproduced for the
    /// paper's Related Work comparison): the warp may issue one more PIM
    /// request.
    Credit {
        /// The warp the credit belongs to.
        warp: GlobalWarpId,
    },
}

impl MemResp {
    /// The warp this response is delivered to.
    #[must_use]
    pub fn warp(&self) -> GlobalWarpId {
        match self {
            MemResp::LoadData { warp, .. }
            | MemResp::FenceAck { warp, .. }
            | MemResp::Credit { warp } => *warp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, PimOp};
    use crate::types::{MemGroupId, TsSlot};

    fn pim_req(op: PimOp) -> MemReq {
        MemReq::Pim {
            instr: PimInstruction { op, addr: Addr(0x80), slot: TsSlot(0), group: MemGroupId(0) },
            meta: ReqMeta { warp: GlobalWarpId::new(0, 1), seq: 5 },
        }
    }

    /// Group ids past 15 fit the key: no shift overflow, and packets
    /// that differ only in such a group get distinct keys.
    #[test]
    fn marker_keys_cover_every_group_id() {
        use crate::packet::OrderLightPacket;
        let ch = ChannelId(0);
        let key = |group: u8, extra: &[u8], release: bool| {
            let extra: Vec<_> = extra.iter().copied().map(MemGroupId).collect();
            let p = OrderLightPacket::with_groups(ch, MemGroupId(group), &extra, 7).unwrap();
            if release { Marker::Release(p) } else { Marker::OrderLight(p) }.key()
        };
        for release in [false, true] {
            let keys = [
                key(0, &[], release),
                key(16, &[], release),
                key(63, &[], release),
                key(255, &[], release),
                key(0, &[16], release),
                key(0, &[63], release),
                key(0, &[255], release),
                key(0, &[16, 255], release),
            ];
            for (i, a) in keys.iter().enumerate() {
                for b in &keys[i + 1..] {
                    assert_ne!(a, b, "aliased marker keys");
                }
            }
        }
        assert_ne!(key(255, &[], false), key(255, &[], true));
    }

    #[test]
    fn routing_write_like() {
        assert!(!pim_req(PimOp::Load).is_write_like());
        assert!(!pim_req(PimOp::Compute(AluOp::Add)).is_write_like());
        assert!(pim_req(PimOp::Store).is_write_like());
        let w = MemReq::HostWrite {
            addr: Addr(0),
            data: Stripe::default(),
            meta: ReqMeta { warp: GlobalWarpId(0), seq: 0 },
        };
        assert!(w.is_write_like());
    }

    #[test]
    fn addr_and_meta_accessors() {
        let r = pim_req(PimOp::Load);
        assert_eq!(r.addr(), Some(Addr(0x80)));
        assert_eq!(r.meta().unwrap().seq, 5);
        assert!(r.is_pim());
        let m = MemReq::Marker(MarkerCopy {
            marker: Marker::FenceProbe {
                warp: GlobalWarpId(1),
                fence_id: 2,
                channel: ChannelId(0),
            },
            total_copies: 2,
        });
        assert_eq!(m.addr(), None);
        assert_eq!(m.meta(), None);
        assert!(!m.is_pim());
    }

    #[test]
    fn marker_keys_distinguish_packets() {
        let a = Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), 1));
        let b = Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), 2));
        let c = Marker::OrderLight(OrderLightPacket::new(ChannelId(1), MemGroupId(0), 1));
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_eq!(a.key(), a.key());
    }

    #[test]
    fn marker_channel_routing() {
        let f = Marker::FenceProbe { warp: GlobalWarpId(9), fence_id: 1, channel: ChannelId(7) };
        assert_eq!(f.channel(), ChannelId(7));
        let o = Marker::OrderLight(OrderLightPacket::new(ChannelId(3), MemGroupId(0), 0));
        assert_eq!(o.channel(), ChannelId(3));
    }

    #[test]
    fn resp_warp_accessor() {
        let r = MemResp::FenceAck { warp: GlobalWarpId::new(2, 3), fence_id: 1 };
        assert_eq!(r.warp(), GlobalWarpId::new(2, 3));
    }
}
