//! FNV-1a (64-bit), the workspace's one stable hash.
//!
//! Unlike `DefaultHasher` (which is randomized per process), FNV-1a over
//! explicit little-endian byte encodings is stable across processes and
//! builds. Fingerprints written into an on-disk cache file therefore still
//! validate when a different process loads them, and the circuit
//! fingerprints that guard workspace reuse are reproducible.

/// Incremental FNV-1a hasher over typed scalar writes.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Start a fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// One-shot digest of raw bytes.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write_bytes(bytes);
        h.finish()
    }

    /// Mix raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Mix one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Mix a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mix a `usize` (widened to `u64` so 32/64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mix an `f64` by exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mix a string, length-prefixed so concatenations can't alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_64_vectors() {
        assert_eq!(Fnv::hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::new();
        h.write_bytes(b"foo");
        h.write_bytes(b"bar");
        assert_eq!(h.finish(), Fnv::hash_bytes(b"foobar"));
    }
}
