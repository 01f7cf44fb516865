//! Stable keyed hashing for plan signatures.
//!
//! The paper's signatures (Section 3) are persisted outside a single process:
//! they are embedded in materialized-view file paths, stored in the metadata
//! service, and compared across jobs compiled days apart. That rules out
//! `std::collections::hash_map::DefaultHasher` (randomly keyed per process)
//! and any hasher whose output may change between Rust releases. We therefore
//! implement SipHash-2-4 from the reference specification with fixed keys,
//! and derive a 128-bit digest ([`Sig128`]) by running two independently
//! keyed instances.
//!
//! SipHash-2-4 is the same family SCOPE-era systems used for plan
//! fingerprints; it is fast on short inputs (plan nodes hash a few dozen
//! bytes each) and has no known full-rounds collisions attacks relevant to
//! our (non-adversarial) setting.

use std::fmt;
use std::hash::BuildHasher;

/// A 128-bit stable signature.
///
/// Used both as the *precise* and the *normalized* signature of a plan
/// subgraph. Formats as 32 lowercase hex digits, e.g. in materialized-view
/// file paths (`.../views/0123…cdef.ss`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sig128 {
    /// High 64 bits of the digest.
    pub hi: u64,
    /// Low 64 bits of the digest.
    pub lo: u64,
}

impl Sig128 {
    /// The all-zero signature; used as a sentinel for "no signature".
    pub const ZERO: Sig128 = Sig128 { hi: 0, lo: 0 };

    /// Builds a signature from raw parts.
    pub const fn new(hi: u64, lo: u64) -> Self {
        Sig128 { hi, lo }
    }

    /// Combines two signatures order-sensitively (used to fold a child
    /// signature into a parent's hasher state when Merkle-hashing a plan).
    pub fn combine(self, other: Sig128) -> Sig128 {
        let mut h1 = SipHasher24::new_with_keys(K0_HI, K1_HI);
        let mut h2 = SipHasher24::new_with_keys(K0_LO, K1_LO);
        for h in [&mut h1, &mut h2] {
            h.write_u64(self.hi);
            h.write_u64(self.lo);
            h.write_u64(other.hi);
            h.write_u64(other.lo);
        }
        Sig128 {
            hi: h1.finish(),
            lo: h2.finish(),
        }
    }

    /// A short 16-hex-digit prefix, convenient for log lines and file names.
    pub fn short(&self) -> String {
        format!("{:016x}", self.hi)
    }
}

impl fmt::Display for Sig128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Debug for Sig128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sig128({:016x}{:016x})", self.hi, self.lo)
    }
}

// Fixed keys. Arbitrary constants (digits of pi / e); what matters is that
// the two instances are keyed differently and never change.
const K0_HI: u64 = 0x243f_6a88_85a3_08d3;
const K1_HI: u64 = 0x1319_8a2e_0370_7344;
const K0_LO: u64 = 0xa409_3822_299f_31d0;
const K1_LO: u64 = 0x082e_fa98_ec4e_6c89;

/// Hashes `bytes` into a 64-bit stable digest (fixed-key SipHash-2-4).
pub fn sip64(bytes: &[u8]) -> u64 {
    let mut h = SipHasher24::new_with_keys(K0_HI, K1_HI);
    h.write(bytes);
    h.finish()
}

/// Hashes `bytes` into a 128-bit stable digest by running two independently
/// keyed SipHash-2-4 instances.
pub fn sip128(bytes: &[u8]) -> Sig128 {
    let mut h1 = SipHasher24::new_with_keys(K0_HI, K1_HI);
    let mut h2 = SipHasher24::new_with_keys(K0_LO, K1_LO);
    h1.write(bytes);
    h2.write(bytes);
    Sig128 {
        hi: h1.finish(),
        lo: h2.finish(),
    }
}

/// One-shot SipHash-2-4 of a short (under 16 bytes) message: digest is
/// identical to writing the same bytes through [`SipHasher24`] and calling
/// `finish`, but skips the buffering state machine. Hot path for the
/// columnar exchange, which hashes one small tagged cell per row.
#[inline]
pub fn sip24_short(k0: u64, k1: u64, msg: &[u8]) -> u64 {
    debug_assert!(msg.len() < 16, "sip24_short is for sub-16-byte messages");
    let mut v0 = k0 ^ 0x736f_6d65_7073_6575;
    let mut v1 = k1 ^ 0x646f_7261_6e64_6f6d;
    let mut v2 = k0 ^ 0x6c79_6765_6e65_7261;
    let mut v3 = k1 ^ 0x7465_6462_7974_6573;
    let mut rest = msg;
    if rest.len() >= 8 {
        let m = u64::from_le_bytes(rest[..8].try_into().expect("8-byte block"));
        v3 ^= m;
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        v0 ^= m;
        rest = &rest[8..];
    }
    let mut b = (msg.len() as u64 & 0xff) << 56;
    for (i, &x) in rest.iter().enumerate() {
        b |= (x as u64) << (8 * i);
    }
    v3 ^= b;
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    v0 ^= b;
    v2 ^= 0xff;
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    v0 ^ v1 ^ v2 ^ v3
}

/// Incremental SipHash-2-4 implementation (reference algorithm).
///
/// Implements the c=2, d=4 variant from Aumasson & Bernstein's reference
/// specification. Byte-stream semantics: feeding the same bytes in any chunk
/// split produces the same digest.
#[derive(Clone)]
pub struct SipHasher24 {
    k0: u64,
    k1: u64,
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Bytes buffered until a full 8-byte word is available.
    tail: u64,
    /// Number of valid bytes in `tail` (0..8).
    ntail: usize,
    /// Total bytes written so far (mod 256 is what matters for the spec).
    length: usize,
}

#[inline(always)]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

impl SipHasher24 {
    /// Creates a hasher with the given 128-bit key (two 64-bit halves).
    pub fn new_with_keys(k0: u64, k1: u64) -> Self {
        SipHasher24 {
            k0,
            k1,
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    #[inline]
    fn process_word(&mut self, m: u64) {
        self.v3 ^= m;
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        self.v0 ^= m;
    }

    /// Feeds bytes into the hash state.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.length = self.length.wrapping_add(bytes.len());
        // Fill the partial tail word first.
        if self.ntail > 0 {
            let need = 8 - self.ntail;
            let take = need.min(bytes.len());
            for (i, &b) in bytes[..take].iter().enumerate() {
                self.tail |= (b as u64) << (8 * (self.ntail + i));
            }
            self.ntail += take;
            bytes = &bytes[take..];
            if self.ntail < 8 {
                return;
            }
            let w = self.tail;
            self.process_word(w);
            self.tail = 0;
            self.ntail = 0;
        }
        // Whole words.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.process_word(w);
        }
        // Stash the remainder.
        for (i, &b) in chunks.remainder().iter().enumerate() {
            self.tail |= (b as u64) << (8 * i);
        }
        self.ntail = chunks.remainder().len();
    }

    /// Writes the `n` low bytes of `x` (nothing above them set), little
    /// endian, as `write` would: shifted into the tail word in one go, the
    /// word processed once full, and the bytes left over carried into the
    /// next.
    #[inline]
    fn write_word(&mut self, x: u64, n: usize) {
        self.length = self.length.wrapping_add(n);
        self.tail |= x << (8 * self.ntail);
        if self.ntail + n < 8 {
            self.ntail += n;
            return;
        }
        let taken = 8 - self.ntail;
        let w = self.tail;
        self.process_word(w);
        self.tail = if taken == 8 { 0 } else { x >> (8 * taken) };
        self.ntail = n - taken;
    }

    /// Convenience: writes a little-endian `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.write_word(x, 8);
    }

    /// Convenience: writes a little-endian `u32`.
    pub fn write_u32(&mut self, x: u32) {
        self.write_word(x as u64, 4);
    }

    /// Convenience: writes a single byte.
    pub fn write_u8(&mut self, x: u8) {
        self.write_word(x as u64, 1);
    }

    /// Convenience: writes a length-prefixed string (length prefix prevents
    /// `("ab","c")` colliding with `("a","bc")` when hashing field tuples).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Finalizes and returns the 64-bit digest. The hasher can keep being
    /// written to afterwards only by cloning beforehand; `finish` consumes
    /// conceptually but we take `&self` semantics via an internal copy to
    /// match `std::hash::Hasher`.
    pub fn finish(&self) -> u64 {
        let mut v0 = self.v0;
        let mut v1 = self.v1;
        let mut v2 = self.v2;
        let mut v3 = self.v3;
        let b: u64 = ((self.length as u64 & 0xff) << 56) | self.tail;
        v3 ^= b;
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        v0 ^= b;
        v2 ^= 0xff;
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        v0 ^ v1 ^ v2 ^ v3
    }

    #[allow(dead_code)]
    fn keys(&self) -> (u64, u64) {
        (self.k0, self.k1)
    }
}

impl std::hash::Hasher for SipHasher24 {
    fn finish(&self) -> u64 {
        SipHasher24::finish(self)
    }
    fn write(&mut self, bytes: &[u8]) {
        SipHasher24::write(self, bytes)
    }
}

/// A hasher for in-process hash tables whose hashes are never stored and
/// decide no order (the executor's grouping and join build tables):
/// one 64×64→128-bit multiply per word, its halves folded together, so every
/// input bit reaches the low bits a table indexes by. Each table starts it
/// from its own random seed ([`WordState`]), so keys cannot be chosen to
/// collide without knowing it.
#[derive(Clone, Copy, Default)]
pub struct WordHasher(u64);

/// Builds [`WordHasher`]s from a seed drawn, like `RandomState`'s keys,
/// once per table.
#[derive(Clone)]
pub struct WordState(u64);

impl Default for WordState {
    fn default() -> Self {
        WordState(std::collections::hash_map::RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = std::collections::HashMap<K, V, WordState>;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0xf135_7aea_2e62_a9c5;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        if let rest @ [_, ..] = words.remainder() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 59));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.add(x as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.add(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_hasher_spreads_aligned_keys_over_the_low_bits() {
        use std::hash::Hasher;
        // Keys that differ only above bit 20, and strings that differ only
        // in their tail: the low bits a table indexes by must still differ.
        let build = WordState::default();
        let low = |h: u64| h & 0x3ff;
        let ints: std::collections::HashSet<u64> =
            (0..512u64).map(|k| low(build.hash_one(k << 20))).collect();
        assert!(ints.len() > 300, "{} distinct", ints.len());
        let strs: std::collections::HashSet<u64> = (0..512)
            .map(|k| low(build.hash_one(format!("customer#{k:09}"))))
            .collect();
        assert!(strs.len() > 300, "{} distinct", strs.len());
        // A tail shorter than a word is told apart from its zero padding.
        let hash = |b: &[u8]| {
            let mut h = WordHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        let map: WordMap<&str, u32> = [("a", 1), ("b", 2)].into_iter().collect();
        assert_eq!(map["b"], 2);
    }

    /// Official SipHash-2-4 test vectors from the reference implementation
    /// (key = 00 01 02 ... 0f, messages = [], [00], [00 01], ...).
    #[test]
    fn reference_vectors() {
        const K0: u64 = 0x0706050403020100;
        const K1: u64 = 0x0f0e0d0c0b0a0908;
        // First 8 vectors of vectors_sip64 from the reference repo.
        const EXPECTED: [u64; 8] = [
            0x726fdb47dd0e0e31,
            0x74f839c593dc67fd,
            0x0d6c8009d9a94f5a,
            0x85676696d7fb7e2d,
            0xcf2794e0277187b7,
            0x18765564cd99a68d,
            0xcbc9466e58fee3ce,
            0xab0200f58b01d137,
        ];
        let msg: Vec<u8> = (0u8..8).collect();
        for (len, &want) in EXPECTED.iter().enumerate() {
            let mut h = SipHasher24::new_with_keys(K0, K1);
            h.write(&msg[..len]);
            assert_eq!(h.finish(), want, "vector length {len}");
        }
    }

    #[test]
    fn short_one_shot_matches_incremental() {
        let data: Vec<u8> = (0u8..16)
            .map(|b| b.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..16 {
            let mut h = SipHasher24::new_with_keys(0x9e3779b97f4a7c15, 0x85ebca6b);
            h.write(&data[..len]);
            assert_eq!(
                sip24_short(0x9e3779b97f4a7c15, 0x85ebca6b, &data[..len]),
                h.finish(),
                "length {len}"
            );
        }
    }

    #[test]
    fn chunking_is_irrelevant() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut whole = SipHasher24::new_with_keys(1, 2);
        whole.write(data);
        for split in 0..data.len() {
            let mut parts = SipHasher24::new_with_keys(1, 2);
            parts.write(&data[..split]);
            parts.write(&data[split..]);
            assert_eq!(parts.finish(), whole.finish(), "split at {split}");
        }
    }

    #[test]
    fn word_writes_match_byte_writes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(36);
        for case in 0..200 {
            let mut words = SipHasher24::new_with_keys(case, !case);
            let mut bytes: Vec<u8> = Vec::new();
            for _ in 0..rng.gen_range(0..24) {
                match rng.gen_range(0..5) {
                    0 => {
                        let x: u8 = rng.gen();
                        words.write_u8(x);
                        bytes.push(x);
                    }
                    1 => {
                        let x: u32 = rng.gen();
                        words.write_u32(x);
                        bytes.extend(x.to_le_bytes());
                    }
                    2 => {
                        let x: u64 = rng.gen();
                        words.write_u64(x);
                        bytes.extend(x.to_le_bytes());
                    }
                    3 => {
                        let chunk: Vec<u8> = (0..rng.gen_range(0..20)).map(|_| rng.gen()).collect();
                        words.write(&chunk);
                        bytes.extend(&chunk);
                    }
                    _ => {
                        let s =
                            ["", "a", "日本語", "seven77", "a longer string"][rng.gen_range(0..5)];
                        words.write_str(s);
                        bytes.extend((s.len() as u64).to_le_bytes());
                        bytes.extend(s.as_bytes());
                    }
                }
            }
            let mut whole = SipHasher24::new_with_keys(case, !case);
            whole.write(&bytes);
            assert_eq!(words.finish(), whole.finish(), "case {case}");
        }
    }

    #[test]
    fn sip128_hi_lo_independent() {
        let s = sip128(b"hello world");
        assert_ne!(s.hi, s.lo);
        // Regression pin: signatures must never change across releases.
        assert_eq!(s, sip128(b"hello world"));
    }

    #[test]
    fn write_str_is_prefix_free() {
        let mut a = SipHasher24::new_with_keys(0, 0);
        a.write_str("ab");
        a.write_str("c");
        let mut b = SipHasher24::new_with_keys(0, 0);
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = sip128(b"a");
        let b = sip128(b"b");
        assert_ne!(a.combine(b), b.combine(a));
        assert_ne!(a.combine(b), a);
    }

    #[test]
    fn display_is_32_hex_digits() {
        let s = sip128(b"x").to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(sip128(b"x").short().len(), 16);
    }

    #[test]
    fn zero_sentinel() {
        assert_eq!(Sig128::ZERO.to_string(), "0".repeat(32));
        assert_ne!(sip128(b""), Sig128::ZERO);
    }

    #[test]
    fn empty_input_hashes() {
        // Must not panic and must differ from a single zero byte.
        assert_ne!(sip64(b""), sip64(&[0u8]));
    }

    #[test]
    fn long_input_multiple_blocks() {
        let long: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let h1 = sip64(&long);
        let mut h = SipHasher24::new_with_keys(K0_HI, K1_HI);
        for chunk in long.chunks(7) {
            h.write(chunk);
        }
        assert_eq!(h.finish(), h1);
    }
}
