//! Shared identifiers, clock-domain aliases, and the data stripe type.
//!
//! The simulator runs two clock domains — the GPU core at 1200 MHz and the
//! HBM memory at 850 MHz (paper Table 1). We keep both as plain `u64`
//! aliases ([`CoreCycle`], [`MemCycle`]); the dual-clock conversion lives in
//! `orderlight-sim`. Identifiers, on the other hand, are newtypes so that a
//! bank index can never be confused with a channel index.

use std::fmt;

/// A cycle count in the GPU core clock domain (1200 MHz by default).
pub type CoreCycle = u64;

/// A cycle count in the memory clock domain (850 MHz by default).
pub type MemCycle = u64;

/// Width of the memory data bus in bytes (one column access / one
/// fine-grained PIM command payload). Paper Table 1: "DRAM Bus Width: 32B".
pub const BUS_BYTES: usize = 32;

/// Bytes per SIMD lane. Data is modelled as vectors of little-endian `u32`.
pub const LANE_BYTES: usize = 4;

/// Number of `u32` SIMD lanes in one 32 B stripe.
pub const LANES: usize = BUS_BYTES / LANE_BYTES;

/// A physical byte address.
///
/// Addresses are plain byte offsets into the simulated physical memory;
/// [`crate::mapping::AddressMapping`] decodes them into
/// (channel, bank, row, column) coordinates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the address advanced by `bytes`.
    #[must_use]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident($inner:ty)) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }

        impl $name {
            /// Returns the identifier as a `usize` index.
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id_newtype!(
    /// A memory channel index (paper: 16 HBM channels).
    ChannelId(u8)
);
id_newtype!(
    /// A DRAM bank index within one channel (paper: 16 banks/channel).
    BankId(u8)
);
id_newtype!(
    /// A memory-group index: a subset of banks within a channel for which
    /// ordering is enforced independently (paper Section 5.3.1). PIM and
    /// non-PIM data structures are typically mapped to different groups so
    /// that non-PIM requests are never constrained by OrderLight packets.
    MemGroupId(u8)
);
id_newtype!(
    /// A slot index into a PIM unit's temporary storage (TS).
    TsSlot(u16)
);

/// A set of memory groups: one bit for each of the 256 possible
/// [`MemGroupId`] values.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupMask([u64; 4]);

impl GroupMask {
    /// Adds `group` to the set.
    pub fn insert(&mut self, group: MemGroupId) {
        self.0[usize::from(group.0 / 64)] |= 1 << (group.0 % 64);
    }

    /// Whether `group` is in the set.
    #[must_use]
    pub fn contains(&self, group: MemGroupId) -> bool {
        self.0[usize::from(group.0 / 64)] & 1 << (group.0 % 64) != 0
    }
}

impl FromIterator<MemGroupId> for GroupMask {
    fn from_iter<I: IntoIterator<Item = MemGroupId>>(groups: I) -> Self {
        let mut mask = GroupMask::default();
        for g in groups {
            mask.insert(g);
        }
        mask
    }
}

/// A globally unique warp identifier: `(SM index, warp index within SM)`
/// flattened into one integer so it can travel in request messages.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalWarpId(pub u32);

impl GlobalWarpId {
    /// Builds a global warp id from an SM index and a warp index within it.
    #[must_use]
    pub fn new(sm: usize, warp: usize) -> Self {
        GlobalWarpId((sm as u32) << 16 | warp as u32)
    }

    /// The SM index this warp runs on.
    #[must_use]
    pub fn sm(self) -> usize {
        (self.0 >> 16) as usize
    }

    /// The warp index within its SM.
    #[must_use]
    pub fn warp(self) -> usize {
        (self.0 & 0xffff) as usize
    }
}

impl fmt::Display for GlobalWarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sm{}.w{}", self.sm(), self.warp())
    }
}

/// One 32 B data stripe: the payload of a single column access or
/// fine-grained PIM command, viewed as [`LANES`] SIMD lanes of `u32`.
///
/// All functional arithmetic in the suite is wrapping `u32` lane math so
/// that golden-model replay is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stripe(pub [u32; LANES]);

impl Default for Stripe {
    fn default() -> Self {
        Stripe([0; LANES])
    }
}

impl Stripe {
    /// A stripe with every lane set to `v`.
    #[must_use]
    pub fn splat(v: u32) -> Self {
        Stripe([v; LANES])
    }

    /// Builds a stripe from raw little-endian bytes.
    ///
    /// # Panics
    /// Panics if `bytes.len() != BUS_BYTES`.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), BUS_BYTES, "stripe must be {BUS_BYTES} bytes");
        let mut lanes = [0u32; LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[i * LANE_BYTES..(i + 1) * LANE_BYTES]);
            *lane = u32::from_le_bytes(b);
        }
        Stripe(lanes)
    }

    /// Serialises the stripe to little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; BUS_BYTES] {
        let mut out = [0u8; BUS_BYTES];
        for (i, lane) in self.0.iter().enumerate() {
            out[i * LANE_BYTES..(i + 1) * LANE_BYTES].copy_from_slice(&lane.to_le_bytes());
        }
        out
    }

    /// Applies a binary lane-wise function against another stripe.
    #[must_use]
    pub fn zip_map(self, rhs: Stripe, f: impl Fn(u32, u32) -> u32) -> Stripe {
        let mut out = [0u32; LANES];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = f(*a, *b);
        }
        Stripe(out)
    }

    /// Applies a unary lane-wise function.
    #[must_use]
    pub fn map(self, f: impl Fn(u32) -> u32) -> Stripe {
        let mut out = [0u32; LANES];
        for (o, a) in out.iter_mut().zip(self.0.iter()) {
            *o = f(*a);
        }
        Stripe(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_offset_and_display() {
        let a = Addr(0x100);
        assert_eq!(a.offset(0x20), Addr(0x120));
        assert_eq!(a.to_string(), "0x100");
        assert_eq!(format!("{a:x}"), "100");
    }

    #[test]
    fn id_newtypes_index_and_from() {
        assert_eq!(ChannelId::from(5).index(), 5);
        assert_eq!(BankId(3).index(), 3);
        assert_eq!(MemGroupId(1).to_string(), "MemGroupId1");
        assert_eq!(TsSlot(9).index(), 9);
    }

    #[test]
    fn global_warp_id_roundtrip() {
        let w = GlobalWarpId::new(7, 42);
        assert_eq!(w.sm(), 7);
        assert_eq!(w.warp(), 42);
        assert_eq!(w.to_string(), "sm7.w42");
    }

    #[test]
    fn stripe_byte_roundtrip() {
        let s = Stripe([1, 2, 3, 4, 5, 6, 7, 0xdead_beef]);
        assert_eq!(Stripe::from_bytes(&s.to_bytes()), s);
    }

    #[test]
    fn stripe_zip_map_adds() {
        let a = Stripe::splat(3);
        let b = Stripe::splat(4);
        assert_eq!(a.zip_map(b, u32::wrapping_add), Stripe::splat(7));
    }

    #[test]
    fn stripe_map_scales() {
        let a = Stripe::splat(3);
        assert_eq!(a.map(|x| x.wrapping_mul(2)), Stripe::splat(6));
    }

    #[test]
    #[should_panic(expected = "stripe must be")]
    fn stripe_from_bytes_wrong_len_panics() {
        let _ = Stripe::from_bytes(&[0u8; 16]);
    }

    #[test]
    fn default_stripe_is_zero() {
        assert_eq!(Stripe::default(), Stripe::splat(0));
    }
}
