//! SHA-256 block function on the x86 SHA extensions (SHA-NI).
//!
//! The one module of the workspace that contains `unsafe`: the intrinsics
//! need `#[target_feature]`, a function so marked may only be called once
//! the CPU is known to have the features, and the 16-byte loads and stores
//! take raw pointers. [`compress_shani`] is the safe door — it checks the
//! CPU itself and reports whether it did the work, so no caller can reach
//! the instructions on a host that lacks them.
//!
//! `sha256rnds2` runs two rounds on the state split as `ABEF` / `CDGH`;
//! `sha256msg1` / `sha256msg2` extend the message schedule four words at a
//! time. The sequence below is the one in Intel's "SHA Extensions" white
//! paper: sixteen groups of four rounds over a four-vector schedule ring.

use core::arch::x86_64::*;

use crate::hash::SHA256_K;

/// True when the running CPU has every feature [`compress_shani`] uses.
/// `std` caches the `cpuid` answer, so this is a load and a mask per call.
pub(crate) fn shani_available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Runs the SHA-256 compression function over every 64-byte block of
/// `blocks` (a whole number of blocks) and returns `true` — or returns
/// `false` with `state` untouched when the CPU lacks the SHA extensions.
#[must_use]
pub(crate) fn compress_shani(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !shani_available() {
        return false;
    }
    // SAFETY: `shani_available` just confirmed that this CPU has `sha`,
    // `sse2`, `ssse3` and `sse4.1`, the features `compress` is compiled for.
    unsafe { compress(state, blocks) };
    true
}

/// The four round constants of round group `group` (rounds `4·group ..`).
#[inline]
#[target_feature(enable = "sse2")]
fn k(group: usize) -> __m128i {
    let k = &SHA256_K[4 * group..4 * group + 4];
    // `as i32` reinterprets the bits; lane 0 is the first argument from the right.
    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32)
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    // Byte shuffle that turns four little-endian lanes into the big-endian
    // words SHA-256 is defined on.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is 32 readable bytes; `_mm_loadu_si128` has no
    // alignment requirement. The two loads cover words 0..4 and 4..8.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
        )
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut state0 = _mm_alignr_epi8(cdab, efgh, 8); // ABEF
    let mut state1 = _mm_blend_epi16(efgh, cdab, 0xF0); // CDGH

    for block in blocks.chunks_exact(64) {
        let (save0, save1) = (state0, state1);
        // SAFETY: `chunks_exact(64)` yields exactly 64 readable bytes, read
        // here as four unaligned 16-byte loads at offsets 0, 16, 32, 48.
        let (mut m0, mut m1, mut m2, mut m3) = unsafe {
            let p: *const __m128i = block.as_ptr().cast();
            (
                _mm_shuffle_epi8(_mm_loadu_si128(p), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be_words),
            )
        };

        // One group of four rounds on schedule vector `$cur`. `finish` is
        // the second half of extending the vector one group ahead (`$next`,
        // which needs `$cur` and `$prev`); `start` is the first half of
        // extending the vector three groups ahead, reusing `$prev`'s slot.
        macro_rules! rounds4 {
            ($g:expr, $cur:ident $(, finish $next:ident from $prev:ident)? $(, start $old:ident)?) => {{
                let wk = _mm_add_epi32($cur, k($g));
                state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
                $(
                    let carry = _mm_alignr_epi8($cur, $prev, 4);
                    $next = _mm_sha256msg2_epu32(_mm_add_epi32($next, carry), $cur);
                )?
                state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
                $( $old = _mm_sha256msg1_epu32($old, $cur); )?
            }};
        }

        rounds4!(0, m0);
        rounds4!(1, m1, start m0);
        rounds4!(2, m2, start m1);
        rounds4!(3, m3, finish m0 from m2, start m2);
        rounds4!(4, m0, finish m1 from m3, start m3);
        rounds4!(5, m1, finish m2 from m0, start m0);
        rounds4!(6, m2, finish m3 from m1, start m1);
        rounds4!(7, m3, finish m0 from m2, start m2);
        rounds4!(8, m0, finish m1 from m3, start m3);
        rounds4!(9, m1, finish m2 from m0, start m0);
        rounds4!(10, m2, finish m3 from m1, start m1);
        rounds4!(11, m3, finish m0 from m2, start m2);
        rounds4!(12, m0, finish m1 from m3, start m3);
        rounds4!(13, m1, finish m2 from m0);
        rounds4!(14, m2, finish m3 from m1);
        rounds4!(15, m3);

        state0 = _mm_add_epi32(state0, save0);
        state1 = _mm_add_epi32(state1, save1);
    }

    let feba = _mm_shuffle_epi32(state0, 0x1B);
    let dchg = _mm_shuffle_epi32(state1, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: `state` is 32 writable bytes behind a unique borrow;
    // `_mm_storeu_si128` has no alignment requirement. The two stores cover
    // words 0..4 and 4..8.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}
