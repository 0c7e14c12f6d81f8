//! FNV-1a 64: the one hash the integration suite pins bytes with.

/// FNV-1a 64 over a growing byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// The empty stream's hash (the FNV offset basis).
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the hash.
    pub fn put(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far, as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a 64 of `parts` end to end, as 16 hex digits.
pub fn fnv_hex(parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> String {
    let mut h = Fnv::new();
    for part in parts {
        h.put(part.as_ref());
    }
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv_hex([""]), "cbf29ce484222325");
        assert_eq!(fnv_hex(["a"]), "af63dc4c8601ec8c");
        assert_eq!(fnv_hex(["foo", "bar"]), fnv_hex(["foobar"]));
        assert_eq!(fnv_hex(["foobar"]), "85944171f73967e8");
    }
}
