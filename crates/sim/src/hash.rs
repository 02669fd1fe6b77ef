//! The two non-cryptographic hashes the workspace shares: FNV-1a over
//! byte strings (cache keys, fingerprints, stream labels) and SplitMix64
//! over 64-bit words (seed expansion and derivation, hash rings, churn
//! harnesses). Every committed key, fingerprint and derived seed is a
//! function of these exact bits, so they live in one place.

/// The FNV-1a 64-bit offset basis: the usual starting state for
/// [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit state `h`. Start from
/// [`FNV_OFFSET`] (or any other basis for an independent stream) and
/// chain calls to hash a sequence of fields.
///
/// ```
/// use flexpipe_sim::hash::{fnv1a, FNV_OFFSET};
///
/// assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"c"), fnv1a(FNV_OFFSET, b"abc"));
/// ```
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One SplitMix64 step (the reference generator): advances `state` by
/// the golden-ratio increment and returns the mixed new state.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 output for state `x`, without keeping the state: a
/// cheap, well-mixed 64-bit hash.
pub fn mix64(x: u64) -> u64 {
    splitmix64(&mut { x })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_hold() {
        // FNV-1a of "a" and the first SplitMix64 output from seed 0, as
        // published with each algorithm.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        let mut s = 0;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(s, 0x9E37_79B9_7F4A_7C15);
    }
}
