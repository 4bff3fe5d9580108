//! A fast deterministic hasher for simulator-internal maps.
//!
//! The standard library's default SipHash resists keys crafted to
//! collide, at several times the cost of a multiply per word. Maps
//! keyed by simulator-derived ids (warps, marker keys, DRAM rows) on
//! the per-request path use [`FastMap`] instead: a multiply-rotate
//! hash in the style of rustc's FxHash. Keep the default hasher for
//! keys that arrive from outside the program. No map's behaviour may
//! depend on its iteration order; the default hasher already randomizes
//! it per process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (as in rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The multiply-rotate hasher behind [`FastMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits are its best mixed; the rotation moves
    /// them down to where hash tables take their bucket index.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`FastHasher`]s; stateless, so every map hashes alike.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash(&(3u8, 17u32)), hash(&(3u8, 17u32)));
        let hashes: HashSet<u64> = (0..4096u32).map(|i| hash(&(i % 16, i / 16))).collect();
        assert_eq!(hashes.len(), 4096, "row/bank neighbours collide");
    }

    #[test]
    fn byte_slices_hash_their_tail() {
        assert_ne!(hash(&[1u8; 9][..]), hash(&[1u8; 8][..]));
        assert_ne!(hash(&"abcdefghi"), hash(&"abcdefghj"));
    }

    #[test]
    fn low_bits_spread() {
        // Bucket indices come from the low bits: consecutive ids must
        // fill most of a small table's buckets.
        let buckets: HashSet<u64> = (0..64u32).map(|i| hash(&i) & 63).collect();
        assert!(buckets.len() > 32, "only {} of 64 buckets used", buckets.len());
    }

    #[test]
    fn fast_map_round_trips() {
        let mut m: FastMap<(u8, u32), u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i as u8, i), i);
        }
        assert!((0..1000u32).all(|i| m[&(i as u8, i)] == i));
    }
}
