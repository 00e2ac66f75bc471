//! A fast, deterministic hasher for the store's hot maps.
//!
//! Every tuple insert hashes its primary key (a `Vec<Value>`) at least
//! twice; with SipHash that dominates the per-row cost of an insert.
//! This is the classic Fx multiply-rotate mix
//! (as used by rustc's FxHashMap), hand-rolled here because the image
//! vendors no external hash crate.
//!
//! Determinism note: unlike `RandomState`, this hasher is **not**
//! seeded per process, so map iteration order is stable across runs.
//! Nothing observable may depend on map iteration order either way —
//! scans iterate the table's explicit insertion-order queue — and the
//! golden-trace test already proved that under per-process random
//! seeding. DoS-resistant hashing is not a goal here: keys come from
//! the node's own tables, not from attacker-chosen map keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate word hasher (the rustc "Fx" mix).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Length folded in so "ab\0" and "ab" cannot collide by
            // padding alone.
            self.add(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_types::Value;

    #[test]
    fn distinct_keys_hash_distinctly() {
        let mut seen = FxHashSet::default();
        for i in 0..1000i64 {
            assert!(seen.insert(vec![Value::addr("n1"), Value::Int(i)]));
        }
        assert_eq!(seen.len(), 1000);
        assert!(seen.contains(&vec![Value::addr("n1"), Value::Int(500)]));
    }

    #[test]
    fn string_tails_fold_length() {
        use std::hash::Hash;
        let h = |s: &str| {
            let mut hasher = FxHasher::default();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_ne!(h("ab"), h("ab\u{0}"));
        assert_ne!(h("n1"), h("n2"));
    }
}
