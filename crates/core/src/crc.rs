//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`): the one
//! checksum behind every state file — the horizon WAL's record frames
//! and the sweep checkpoint's cell lines.

/// CRC-32 (IEEE) of `bytes`, bitwise — records are small and written
/// rarely, so no lookup table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_ieee_check_value() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_single_byte_change_is_detected() {
        let msg = b"{\"cell\":0,\"aggregate\":{\"trials\":40}}";
        let base = crc32(msg);
        for i in 0..msg.len() {
            for x in 1..=255u8 {
                let mut m = msg.to_vec();
                m[i] ^= x;
                assert_ne!(crc32(&m), base, "byte {i} xor {x:#x}");
            }
        }
    }
}
