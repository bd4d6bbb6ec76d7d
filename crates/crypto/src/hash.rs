//! SHA-256 and SHA-512 implemented from scratch following FIPS 180-4.
//!
//! Both hashers expose a streaming API (`update` / `finalize`) and one-shot
//! convenience functions ([`sha256`], [`sha512`]); both are allocation-free
//! block compressors.
//!
//! SHA-256 — every element authenticator and every Merkle node — has one
//! block function, `compress_blocks`, with two backends chosen per call by
//! the CPU it runs on: the SHA extensions where `is_x86_feature_detected!`
//! finds them (`sha256_x86.rs`), the portable unrolled code everywhere else.
//! Nothing but the platform selects the path, and the tests below run every
//! known-answer vector through both. SHA-512 has the portable path only.
//! `cargo bench -p setchain-bench --bench crypto` names the backend in use
//! and measures both hashers.

use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest256(pub [u8; 32]);

/// A 64-byte SHA-512 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest512(pub [u8; 64]);

impl Digest256 {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Truncates the digest to a `u64` (first 8 bytes, big-endian). Useful as
    /// a compact map key in simulations.
    pub fn short(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl Digest512 {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Truncates the digest to a `u64` (first 8 bytes, big-endian).
    pub fn short(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl Default for Digest512 {
    fn default() -> Self {
        Digest512([0u8; 64])
    }
}

impl fmt::Debug for Digest256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest256({}…)", &self.to_hex()[..16])
    }
}

impl fmt::Debug for Digest512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest512({}…)", &self.to_hex()[..16])
    }
}

fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

pub(crate) const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const SHA256_INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 {
            state: SHA256_INIT,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Restores the hasher to its freshly-constructed state so it can be
    /// reused for another input without re-allocating.
    pub fn reset(&mut self) {
        self.state = SHA256_INIT;
        self.buffer_len = 0;
        self.total_len = 0;
    }

    /// A hasher that has already absorbed `absorbed` bytes — a whole number
    /// of blocks — leaving the chaining value `state`: how HMAC resumes from
    /// its precomputed key pads.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0, "midstates sit on block boundaries");
        Sha256 {
            state,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: absorbed,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest256 {
        self.finalize_with(compress_blocks)
    }

    /// Finishes the hash, returns the digest, and resets the hasher for the
    /// next input. This is the reuse primitive behind [`sha256_many`]: a
    /// single hasher streams through many inputs with zero per-input setup.
    pub fn finalize_reset(&mut self) -> Digest256 {
        let digest = self.finalize_with(compress_blocks);
        self.reset();
        digest
    }

    /// [`update`](Self::update) over an explicit block function, so the
    /// tests can drive each backend by name.
    fn update_with(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // Every whole block goes to the backend in one call, straight from
        // the caller's slice.
        let (whole, tail) = data.split_at(data.len() & !63);
        if !whole.is_empty() {
            compress(&mut self.state, whole);
        }
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    fn finalize_with(&mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest256 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length — written straight
        // into the block buffer (a byte-at-a-time `update` loop here would
        // cost as much as the compression itself on short inputs).
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        if n + 1 > 56 {
            self.buffer[n + 1..].fill(0);
            compress(&mut self.state, &self.buffer);
            self.buffer[..56].fill(0);
        } else {
            self.buffer[n + 1..56].fill(0);
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        digest_of_state(&self.state)
    }
}

/// Longest tail [`finish_in_one_block`] takes: it shares its block with
/// the 0x80 marker and the 8-byte length.
pub(crate) const ONE_BLOCK_TAIL_MAX: usize = 55;

/// Finishes a hash that absorbed `absorbed` bytes — whole blocks, leaving
/// the chaining value `state` — and then `tail`, at most
/// [`ONE_BLOCK_TAIL_MAX`] bytes: the padded last block is built on the
/// stack and costs exactly one [`compress_blocks`] call. Same digest as
/// [`Sha256::resume`] + `update(tail)` + `finalize`.
pub(crate) fn finish_in_one_block(mut state: [u32; 8], absorbed: u64, tail: &[u8]) -> Digest256 {
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    let bit_len = 8 * (absorbed + tail.len() as u64);
    block[56..].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(&mut state, &block);
    digest_of_state(&state)
}

/// The big-endian serialization of a chaining value: the digest, once the
/// padded last block has been compressed.
fn digest_of_state(state: &[u32; 8]) -> Digest256 {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest256(out)
}

/// The SHA-256 compression function over `blocks`, a whole number of
/// 64-byte blocks, with the chaining value held in registers from the first
/// block to the last. Everything SHA-256 in the workspace — the streaming
/// hasher, HMAC's fixed-shape path, every Merkle node — comes through here,
/// and here the CPU picks the backend: SHA-NI when it has it, the portable
/// code otherwise.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_x86::compress_shani(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// Name of the backend `compress_blocks` uses on this host, for bench
/// and CI logs.
pub fn sha256_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_x86::shani_available() {
        return "sha-ni";
    }
    "portable"
}

/// Portable backend of [`compress_blocks`]: the only path on non-x86 hosts
/// and on x86 CPUs without the SHA extensions, and the reference the SHA-NI
/// backend is tested against.
///
/// Fully unrolled FIPS 180-4 compression: the message schedule lives in a
/// 16-word ring extended in place, and the eight working variables rotate
/// *roles* through the macro's argument order instead of being shuffled
/// through eight moves per round, so everything stays in registers.
pub(crate) fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    let mut chain = *state;
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = chain;

        macro_rules! rnd {
            ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident,$k:expr,$w:expr) => {{
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add($k)
                    .wrapping_add($w);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            }};
        }
        macro_rules! extend {
            ($i:expr) => {{
                let s0 = w[($i + 1) & 15].rotate_right(7)
                    ^ w[($i + 1) & 15].rotate_right(18)
                    ^ (w[($i + 1) & 15] >> 3);
                let s1 = w[($i + 14) & 15].rotate_right(17)
                    ^ w[($i + 14) & 15].rotate_right(19)
                    ^ (w[($i + 14) & 15] >> 10);
                w[$i] = w[$i]
                    .wrapping_add(s0)
                    .wrapping_add(w[($i + 9) & 15])
                    .wrapping_add(s1);
            }};
        }
        macro_rules! sixteen {
            ($base:expr) => {{
                rnd!(a, b, c, d, e, f, g, h, SHA256_K[$base], w[0]);
                rnd!(h, a, b, c, d, e, f, g, SHA256_K[$base + 1], w[1]);
                rnd!(g, h, a, b, c, d, e, f, SHA256_K[$base + 2], w[2]);
                rnd!(f, g, h, a, b, c, d, e, SHA256_K[$base + 3], w[3]);
                rnd!(e, f, g, h, a, b, c, d, SHA256_K[$base + 4], w[4]);
                rnd!(d, e, f, g, h, a, b, c, SHA256_K[$base + 5], w[5]);
                rnd!(c, d, e, f, g, h, a, b, SHA256_K[$base + 6], w[6]);
                rnd!(b, c, d, e, f, g, h, a, SHA256_K[$base + 7], w[7]);
                rnd!(a, b, c, d, e, f, g, h, SHA256_K[$base + 8], w[8]);
                rnd!(h, a, b, c, d, e, f, g, SHA256_K[$base + 9], w[9]);
                rnd!(g, h, a, b, c, d, e, f, SHA256_K[$base + 10], w[10]);
                rnd!(f, g, h, a, b, c, d, e, SHA256_K[$base + 11], w[11]);
                rnd!(e, f, g, h, a, b, c, d, SHA256_K[$base + 12], w[12]);
                rnd!(d, e, f, g, h, a, b, c, SHA256_K[$base + 13], w[13]);
                rnd!(c, d, e, f, g, h, a, b, SHA256_K[$base + 14], w[14]);
                rnd!(b, c, d, e, f, g, h, a, SHA256_K[$base + 15], w[15]);
            }};
        }
        macro_rules! extend_sixteen {
            () => {{
                extend!(0);
                extend!(1);
                extend!(2);
                extend!(3);
                extend!(4);
                extend!(5);
                extend!(6);
                extend!(7);
                extend!(8);
                extend!(9);
                extend!(10);
                extend!(11);
                extend!(12);
                extend!(13);
                extend!(14);
                extend!(15);
            }};
        }

        sixteen!(0);
        extend_sixteen!();
        sixteen!(16);
        extend_sixteen!();
        sixteen!(32);
        extend_sixteen!();
        sixteen!(48);

        for (word, add) in chain.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
    *state = chain;
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

// ---------------------------------------------------------------------------
// SHA-512
// ---------------------------------------------------------------------------

const SHA512_K: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

const SHA512_INIT: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Streaming SHA-512 hasher.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; 128],
    buffer_len: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a hasher with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha512 {
            state: SHA512_INIT,
            buffer: [0u8; 128],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Restores the hasher to its freshly-constructed state so it can be
    /// reused for another input without re-allocating.
    pub fn reset(&mut self) {
        self.state = SHA512_INIT;
        self.buffer_len = 0;
        self.total_len = 0;
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (128 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 128 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 128 {
            let block: [u8; 128] = data[..128].try_into().expect("128 bytes");
            self.compress(&block);
            data = &data[128..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest512 {
        self.finalize_digest()
    }

    /// Finishes the hash, returns the digest, and resets the hasher for the
    /// next input (see [`Sha256::finalize_reset`]).
    pub fn finalize_reset(&mut self) -> Digest512 {
        let digest = self.finalize_digest();
        self.reset();
        digest
    }

    fn finalize_digest(&mut self) -> Digest512 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Same direct padding as Sha256::finalize_with (0x80, zeros,
        // 128-bit big-endian length), skipping the per-byte update path.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        if n + 1 > 112 {
            self.buffer[n + 1..].fill(0);
            let block = self.buffer;
            self.compress(&block);
            self.buffer[..112].fill(0);
        } else {
            self.buffer[n + 1..112].fill(0);
        }
        self.buffer[112..128].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 64];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
        Digest512(out)
    }

    fn compress(&mut self, block: &[u8; 128]) {
        // Same fully unrolled shape as `compress_portable` (rotating register
        // roles, 16-word ring schedule); SHA-512 runs 80 rounds in five
        // blocks of 16. Batch/epoch hashing and every signature in the
        // workspace land here.
        let mut w = [0u64; 16];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(8)) {
            *wi = u64::from_be_bytes(chunk.try_into().expect("8 bytes"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        macro_rules! rnd {
            ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident,$k:expr,$w:expr) => {{
                let t1 = $h
                    .wrapping_add($e.rotate_right(14) ^ $e.rotate_right(18) ^ $e.rotate_right(41))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add($k)
                    .wrapping_add($w);
                let t2 = ($a.rotate_right(28) ^ $a.rotate_right(34) ^ $a.rotate_right(39))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            }};
        }
        macro_rules! extend {
            ($i:expr) => {{
                let s0 = w[($i + 1) & 15].rotate_right(1)
                    ^ w[($i + 1) & 15].rotate_right(8)
                    ^ (w[($i + 1) & 15] >> 7);
                let s1 = w[($i + 14) & 15].rotate_right(19)
                    ^ w[($i + 14) & 15].rotate_right(61)
                    ^ (w[($i + 14) & 15] >> 6);
                w[$i] = w[$i]
                    .wrapping_add(s0)
                    .wrapping_add(w[($i + 9) & 15])
                    .wrapping_add(s1);
            }};
        }
        macro_rules! sixteen {
            ($base:expr) => {{
                rnd!(a, b, c, d, e, f, g, h, SHA512_K[$base], w[0]);
                rnd!(h, a, b, c, d, e, f, g, SHA512_K[$base + 1], w[1]);
                rnd!(g, h, a, b, c, d, e, f, SHA512_K[$base + 2], w[2]);
                rnd!(f, g, h, a, b, c, d, e, SHA512_K[$base + 3], w[3]);
                rnd!(e, f, g, h, a, b, c, d, SHA512_K[$base + 4], w[4]);
                rnd!(d, e, f, g, h, a, b, c, SHA512_K[$base + 5], w[5]);
                rnd!(c, d, e, f, g, h, a, b, SHA512_K[$base + 6], w[6]);
                rnd!(b, c, d, e, f, g, h, a, SHA512_K[$base + 7], w[7]);
                rnd!(a, b, c, d, e, f, g, h, SHA512_K[$base + 8], w[8]);
                rnd!(h, a, b, c, d, e, f, g, SHA512_K[$base + 9], w[9]);
                rnd!(g, h, a, b, c, d, e, f, SHA512_K[$base + 10], w[10]);
                rnd!(f, g, h, a, b, c, d, e, SHA512_K[$base + 11], w[11]);
                rnd!(e, f, g, h, a, b, c, d, SHA512_K[$base + 12], w[12]);
                rnd!(d, e, f, g, h, a, b, c, SHA512_K[$base + 13], w[13]);
                rnd!(c, d, e, f, g, h, a, b, SHA512_K[$base + 14], w[14]);
                rnd!(b, c, d, e, f, g, h, a, SHA512_K[$base + 15], w[15]);
            }};
        }
        macro_rules! extend_sixteen {
            () => {{
                extend!(0);
                extend!(1);
                extend!(2);
                extend!(3);
                extend!(4);
                extend!(5);
                extend!(6);
                extend!(7);
                extend!(8);
                extend!(9);
                extend!(10);
                extend!(11);
                extend!(12);
                extend!(13);
                extend!(14);
                extend!(15);
            }};
        }

        sixteen!(0);
        extend_sixteen!();
        sixteen!(16);
        extend_sixteen!();
        sixteen!(32);
        extend_sixteen!();
        sixteen!(48);
        extend_sixteen!();
        sixteen!(64);

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-512 of `data`.
pub fn sha512(data: &[u8]) -> Digest512 {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of many independent inputs through one reused hasher.
///
/// Equivalent to `inputs.map(sha256)` but allocation-free on the hashing
/// side: a single hasher is reset between inputs instead of being
/// constructed per input, and the output vector is the only allocation.
/// The PKI bootstrap derives every key seed of a deployment through one
/// pass of this function.
pub fn sha256_many<'a, I>(inputs: I) -> Vec<Digest256>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let inputs = inputs.into_iter();
    let mut out = Vec::with_capacity(inputs.size_hint().0);
    let mut h = Sha256::new();
    for input in inputs {
        h.update(input);
        out.push(h.finalize_reset());
    }
    out
}

/// Handles on the SHA-256 backends for this crate's tests: each backend is
/// driven by name, through the same streaming code the dispatch uses — there
/// is no switch to force a path globally.
#[cfg(test)]
pub(crate) mod backends {
    use super::{Digest256, Sha256};

    /// A SHA-256 block function.
    pub(crate) type Compress = fn(&mut [u32; 8], &[u8]);

    pub(crate) use super::compress_portable as portable;

    /// The SHA-NI backend, or `None` on a host that cannot run it.
    pub(crate) fn shani() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if crate::sha256_x86::shani_available() {
            return Some(|state, blocks| {
                assert!(crate::sha256_x86::compress_shani(state, blocks));
            });
        }
        None
    }

    /// [`shani`], printing a skip notice for `test` when there is none.
    pub(crate) fn shani_or_skip(test: &str) -> Option<Compress> {
        let backend = shani();
        if backend.is_none() {
            eprintln!("{test}: skipped, this CPU has no SHA extensions");
        }
        backend
    }

    /// A streaming SHA-256 over `chunks` on one named backend.
    pub(crate) fn sha256_on<'a>(
        compress: Compress,
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> Digest256 {
        let mut h = Sha256::new();
        for chunk in chunks {
            h.update_with(chunk, compress);
        }
        h.finalize_with(compress)
    }
}

#[cfg(test)]
mod tests {
    use super::backends::{portable, sha256_on, shani, shani_or_skip, Compress};
    use super::*;

    /// The four NIST SHA-256 vectors plus `streaming_matches_one_shot`'s
    /// irregular chunking, on one backend.
    fn check_sha256_backend(compress: Compress) {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (input, want) in vectors {
            assert_eq!(sha256_on(compress, [input]).to_hex(), want);
        }

        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut chunks = Vec::new();
        let (mut off, mut step) = (0usize, 1usize);
        while off < data.len() {
            let end = (off + step).min(data.len());
            chunks.push(&data[off..end]);
            off = end;
            step = (step * 7 + 3) % 257 + 1;
        }
        assert_eq!(
            sha256_on(compress, chunks),
            sha256_on(compress, [data.as_slice()])
        );
        assert_eq!(
            sha256_on(compress, [data.as_slice()]),
            sha256_on(portable, [data.as_slice()])
        );
    }

    #[test]
    fn portable_backend_passes_the_sha256_vectors() {
        check_sha256_backend(portable);
    }

    #[test]
    fn shani_backend_passes_the_sha256_vectors() {
        if let Some(shani) = shani_or_skip("shani_backend_passes_the_sha256_vectors") {
            check_sha256_backend(shani);
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // No `#[test]`: the wrapper below decides once, not per case,
            // whether this host can run the SHA-NI side.
            fn backends_agree_cases(
                words in proptest::collection::vec(any::<u32>(), 8..9),
                bytes in proptest::collection::vec(any::<u8>(), 64..513),
            ) {
                let shani = shani().expect("checked by the wrapper");
                let blocks = &bytes[..bytes.len() & !63];
                let state: [u32; 8] = words.try_into().expect("eight words");
                let (mut a, mut b) = (state, state);
                portable(&mut a, blocks);
                shani(&mut b, blocks);
                prop_assert_eq!(a, b);
            }
        }

        /// Any chaining value, one to eight blocks: the two backends are the
        /// same function.
        #[test]
        fn backends_agree_on_random_states_and_blocks() {
            if shani_or_skip("backends_agree_on_random_states_and_blocks").is_some() {
                backends_agree_cases();
            }
        }
    }

    // NIST / well-known test vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            sha512(b"").to_hex(),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            sha512(b"abc").to_hex(),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_two_block_message() {
        assert_eq!(
            sha512(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .iter()
                    .copied()
                    .filter(|b| !b.is_ascii_whitespace())
                    .collect::<Vec<u8>>()
                    .as_slice()
            )
            .to_hex(),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha512(&data).to_hex(),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb\
             de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        // Feed in irregular chunk sizes.
        let mut h256 = Sha256::new();
        let mut h512 = Sha512::new();
        let mut off = 0usize;
        let mut step = 1usize;
        while off < data.len() {
            let end = (off + step).min(data.len());
            h256.update(&data[off..end]);
            h512.update(&data[off..end]);
            off = end;
            step = (step * 7 + 3) % 257 + 1;
        }
        assert_eq!(h256.finalize(), sha256(&data));
        assert_eq!(h512.finalize(), sha512(&data));
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"hello");
        assert_eq!(d.as_bytes().len(), 32);
        assert_eq!(d.to_hex().len(), 64);
        let d2 = sha512(b"hello");
        assert_eq!(d2.as_bytes().len(), 64);
        assert_eq!(d2.to_hex().len(), 128);
        assert_ne!(d.short(), 0);
        assert_ne!(d2.short(), 0);
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha512(b"a"), sha512(b"b"));
    }

    #[test]
    fn reset_and_finalize_reset_match_fresh_hashers() {
        let mut h = Sha256::new();
        h.update(b"first input");
        assert_eq!(h.finalize_reset(), sha256(b"first input"));
        // The same hasher, reused, matches a fresh one.
        h.update(b"second");
        h.update(b" input");
        assert_eq!(h.finalize_reset(), sha256(b"second input"));
        // An explicit reset discards partial input.
        h.update(b"to be discarded");
        h.reset();
        h.update(b"abc");
        assert_eq!(
            h.finalize_reset().to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );

        let mut h512 = Sha512::new();
        h512.update(b"x");
        assert_eq!(h512.finalize_reset(), sha512(b"x"));
        h512.update(b"to be discarded");
        h512.reset();
        h512.update(b"y");
        assert_eq!(h512.finalize_reset(), sha512(b"y"));
    }

    #[test]
    fn sha256_many_matches_one_shots() {
        let inputs: Vec<Vec<u8>> = (0..50u32)
            .map(|i| (0..i * 13).map(|j| (j % 251) as u8).collect())
            .collect();
        let digests = sha256_many(inputs.iter().map(|v| v.as_slice()));
        assert_eq!(digests.len(), inputs.len());
        for (input, digest) in inputs.iter().zip(&digests) {
            assert_eq!(*digest, sha256(input));
        }
        assert!(sha256_many(std::iter::empty()).is_empty());
    }
}
