//! HMAC-SHA-256 (RFC 2104) over the in-repo SHA-256.
//!
//! HMAC is used by the element authenticator and by the signature
//! substitute ([`crate::signature`], two HMAC-SHA-256 halves), and is also
//! exposed directly for tests.

use crate::hash::{
    compress_blocks, finish_in_one_block, sha256, Digest256, Sha256, ONE_BLOCK_TAIL_MAX,
    SHA256_INIT,
};

const BLOCK_256: usize = 64;

/// A precomputed HMAC-SHA-256 key schedule.
///
/// HMAC spends two of its four-ish compression calls absorbing the padded
/// key (`ipad` into the inner hash, `opad` into the outer). Those two
/// absorptions depend only on the key, so verifying many messages under the
/// same key — a collector batch signed by one client, a vote stream from one
/// validator — can pay them once: `HmacSha256Key::new` keeps the two
/// 32-byte chaining values they leave and [`mac`](Self::mac) resumes from
/// them per message.
#[derive(Clone)]
pub struct HmacSha256Key {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacSha256Key {
    /// Precomputes the key schedule for `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_256];
        if key.len() > BLOCK_256 {
            key_block[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut state = SHA256_INIT;
            compress_blocks(&mut state, &key_block.map(|b| b ^ pad));
            state
        };
        HmacSha256Key {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// HMAC-SHA-256 of `message` under this key.
    ///
    /// Both hashes resume one block in (the key pad). The outer message is
    /// always the 32-byte inner digest, and an inner message of at most 55
    /// bytes — every 20-byte element authenticator — also fits one padded
    /// block, so the common case is exactly two `compress_blocks` calls
    /// on blocks built on the stack; longer messages stream the inner hash.
    pub fn mac(&self, message: &[u8]) -> Digest256 {
        let absorbed = BLOCK_256 as u64;
        let inner = if message.len() <= ONE_BLOCK_TAIL_MAX {
            finish_in_one_block(self.inner, absorbed, message)
        } else {
            let mut h = Sha256::resume(self.inner, absorbed);
            h.update(message);
            h.finalize()
        };
        finish_in_one_block(self.outer, absorbed, inner.as_bytes())
    }
}

/// HMAC-SHA-256 of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest256 {
    HmacSha256Key::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::backends::{portable, sha256_on, shani_or_skip, Compress};

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let msg = b"Hi There";
        assert_eq!(
            hmac_sha256(&key, msg).to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let key = b"Jefe";
        let msg = b"what do ya want for nothing?";
        assert_eq!(
            hmac_sha256(key, msg).to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        assert_eq!(
            hmac_sha256(&key, &msg).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let msg = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hmac_sha256(&key, msg).to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// HMAC-SHA-256 by RFC 2104's definition — `H(K ^ opad ‖ H(K ^ ipad ‖
    /// m))` over the streaming hasher — on one named backend: the reference
    /// for [`HmacSha256Key`]'s midstates and fixed-shape blocks.
    fn hmac_sha256_on(compress: Compress, key: &[u8], message: &[u8]) -> Digest256 {
        let mut key_block = [0u8; BLOCK_256];
        if key.len() > BLOCK_256 {
            key_block[..32].copy_from_slice(sha256_on(compress, [key]).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let inner = sha256_on(compress, [&key_block.map(|b| b ^ 0x36)[..], message]);
        sha256_on(
            compress,
            [&key_block.map(|b| b ^ 0x5c)[..], inner.as_bytes()],
        )
    }

    /// RFC 4231 cases 1, 2, 3 and 6 on one backend.
    fn check_rfc4231_on(compress: Compress) {
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, message, want) in cases {
            assert_eq!(hmac_sha256_on(compress, key, message).to_hex(), want);
        }
    }

    #[test]
    fn portable_backend_passes_rfc4231() {
        check_rfc4231_on(portable);
    }

    #[test]
    fn shani_backend_passes_rfc4231() {
        if let Some(shani) = shani_or_skip("shani_backend_passes_rfc4231") {
            check_rfc4231_on(shani);
        }
    }

    #[test]
    fn fixed_shape_mac_matches_the_streaming_definition_at_padding_edges() {
        // 55 is the last length whose padding shares the message's block, 56
        // the first that streams; 119/120 is the same edge one block later.
        let key = HmacSha256Key::new(b"edge key");
        for len in [0usize, 20, 55, 56, 63, 64, 119, 120] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            assert_eq!(
                key.mac(&msg),
                hmac_sha256_on(portable, b"edge key", &msg),
                "len={len}"
            );
        }
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn precomputed_keys_match_one_shots_across_messages() {
        let key = [0x42u8; 32];
        let k256 = HmacSha256Key::new(&key);
        for len in [0usize, 1, 20, 63, 64, 65, 127, 128, 129, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(k256.mac(&msg), hmac_sha256(&key, &msg), "len={len}");
        }
        // Long keys go through the hash-the-key path.
        let long_key = [0xAAu8; 200];
        let k = HmacSha256Key::new(&long_key);
        assert_eq!(k.mac(b"m"), hmac_sha256(&long_key, b"m"));
    }
}
