//! The workspace's one FNV-1a (64-bit) implementation.
//!
//! Every stable identity in the system — model, cluster-comm, fault and
//! scenario fingerprints, cache keys, report fingerprints in the run
//! store — is FNV-1a over a byte encoding its owner chooses. The owner
//! keeps the encoding (and its "default ⇒ 0" / "fold only when
//! non-default" rule); the mixing loop lives here once.

/// An FNV-1a 64-bit hasher: bytes or little-endian `u64`s in, `u64` out.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in, in order.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds the eight little-endian bytes of `x` in.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// The hash of everything folded in so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv1a;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn u64_is_its_little_endian_bytes_and_folding_is_incremental() {
        let x = 0x0102_0304_0506_0708u64;
        assert_eq!(
            Fnv1a::new().u64(x).finish(),
            Fnv1a::new().bytes(&[8, 7, 6, 5, 4, 3, 2, 1]).finish()
        );
        assert_eq!(
            Fnv1a::new().bytes(b"foo").bytes(b"bar").finish(),
            Fnv1a::new().bytes(b"foobar").finish()
        );
    }
}
