//! Fast hashing for the compiler suite's hot paths.
//!
//! The §8 comparison between PE-compiled code and the baseline is only
//! meaningful when neither engine pays accidental interpretation
//! overheads, such as re-hashing keys with the standard library's
//! DoS-resistant SipHash on every lookup.  [`FxHashMap`]/[`FxHashSet`]
//! use the rustc/Firefox "Fx" multiply-xor hash instead, which is
//! several times faster than SipHash on short structural keys (memo
//! keys, ids, the subject program's variable names).  Nothing in this
//! pipeline hashes attacker-controlled keys into long-lived tables
//! (names come from the subject program the user chose to compile, and
//! every table dies with its compilation), so the HashDoS resistance
//! being traded away buys nothing here.  Residual S₀ programs need no
//! name tables at all: the specializer resolves their procedures and
//! variables to positions once, when it emits them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

// ----------------------------------------------------------------------
// Fx hashing
// ----------------------------------------------------------------------

/// The rustc / Firefox "Fx" hash: a multiply-xor loop over 8-byte words.
/// Not DoS-resistant; see the module docs for why that is acceptable.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The Fx multiplier (the 64-bit golden-ratio constant).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "a" and "a\0" differ.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
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

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the Fx hash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Compile-time proof that a type can cross threads.  The compile
/// service executes independent requests on a worker pool, so every
/// artifact that flows through it — the pipeline, residual programs,
/// loaded VMs — must be `Send`.  Call sites are zero-cost: they exist
/// only to make a regression (e.g. an `Rc` sneaking into a residual
/// program) a compile error rather than a runtime surprise.
pub fn assert_send<T: Send>() {}

/// Compile-time proof that a type can be shared between threads — the
/// companion to [`assert_send`] for the service objects workers borrow
/// (`&Server` crosses every worker in the pool).
pub fn assert_sync<T: Sync>() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fx_hash_distinguishes_lengths_and_content() {
        fn h(s: &str) -> u64 {
            FxBuildHasher::default().hash_one(s)
        }
        assert_ne!(h("a"), h("b"));
        assert_ne!(h("a"), h("a\0"));
        assert_ne!(h("sl-eval-$1"), h("sl-eval-$2"));
        assert_eq!(h("cv-vals-$1"), h("cv-vals-$1"));
    }

    #[test]
    fn fx_maps_behave_like_maps() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("x".to_string(), 1);
        m.insert("y".to_string(), 2);
        assert_eq!(m.get("x"), Some(&1));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(4));
        assert!(!s.insert(4));
    }
}
