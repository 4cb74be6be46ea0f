//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant).
//!
//! Every snapshot section carries its CRC so corruption — a flipped
//! bit, a truncated write, a bad sector — is detected before any byte
//! is interpreted. CRC-32 detects all single- and double-bit errors
//! and all burst errors up to 32 bits, which covers the storage-fault
//! model here (it is not a defense against an adversary; the snapshot
//! trust boundary is the local filesystem).
//!
//! The checksum is computed slicing-by-8, eight bytes per step instead
//! of one, with the values of the bytewise loop (kept in the tests as
//! the oracle), so every snapshot ever written still verifies.

const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7

/// Slicing-by-8 tables: `TABLES[0]` is the classic bytewise table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups advance the CRC over eight bytes at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor, reflected I/O —
/// byte-compatible with zlib's `crc32`), eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The byte-at-a-time loop: the oracle the sliced version must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.gen()).collect();
        for _ in 0..2000 {
            let start = rng.gen_range(0..8);
            let len = rng.gen_range(0..4096);
            let data = &buf[start..start + len];
            assert_eq!(
                crc32(data),
                crc32_bytewise(data),
                "start {start}, len {len}"
            );
        }
        for len in 0..64 {
            assert_eq!(crc32(&buf[3..3 + len]), crc32_bytewise(&buf[3..3 + len]));
        }
    }

    #[test]
    fn known_vectors_match_zlib() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data = b"snapshot section payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut damaged = data.clone();
                damaged[byte] ^= 1 << bit;
                assert_ne!(crc32(&damaged), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn truncation_changes_the_crc() {
        let data = vec![0xAB; 64];
        let clean = crc32(&data);
        for cut in 0..data.len() {
            assert_ne!(crc32(&data[..cut]), clean, "truncation to {cut} undetected");
        }
    }
}
