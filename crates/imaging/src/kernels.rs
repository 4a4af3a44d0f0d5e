//! Word-wise (SWAR) scan primitives and the fused [`GrayAlpha8`] `over`
//! kernels built on them.
//!
//! The hot loops of the composition stage — blank-pixel scanning, the
//! fixed-point `over` arithmetic, and the codecs' run detection / template
//! classification — find their runs a machine word (`u64`) or two (`u128`)
//! at a time. The words only change *how* runs are found, never what is
//! done with them: every fast path is an exact identity of the fixed-point
//! arithmetic (`mul255(0, x) = 0`, `mul255(255, x) = x`), and every kernel
//! is pinned bit for bit to decode-then-[`Pixel::over`](crate::Pixel::over)
//! by the property tests of this crate and of rt-compress.

use crate::pixel::{GrayAlpha8, OverStats};

/// Placeholder for the retired scalar/wide kernel selector: there is one
/// kernel path, so this carries no information. Kept because the frozen
/// `benchmark/` passes `KernelPath::default()`; dropped at the next
/// `benchmark/` unfreeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct KernelPath;

// --------------------------------------------------------------------------
// Byte-scan primitives
// --------------------------------------------------------------------------

/// Number of leading zero bytes of `bytes`, testing sixteen bytes per
/// iteration (then one at a time over the last partial word).
pub fn zero_prefix(bytes: &[u8]) -> usize {
    let (words, tail) = bytes.as_chunks::<16>();
    for (k, word) in words.iter().enumerate() {
        let w = u128::from_le_bytes(*word);
        if w != 0 {
            return 16 * k + (w.trailing_zeros() / 8) as usize;
        }
    }
    16 * words.len() + tail.iter().take_while(|&&b| b == 0).count()
}

/// Length of the prefix of `bytes` equal to `b` — memchr-style run
/// detection: XOR against the broadcast pattern turns "first differing
/// byte" into a trailing-zeros count, eight bytes per iteration.
pub fn byte_run_len(bytes: &[u8], b: u8) -> usize {
    let pat = u64::from_le_bytes([b; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    for (k, word) in words.iter().enumerate() {
        let w = u64::from_le_bytes(*word) ^ pat;
        if w != 0 {
            return 8 * k + (w.trailing_zeros() / 8) as usize;
        }
    }
    8 * words.len() + tail.iter().take_while(|&&x| x == b).count()
}

/// Bitmask of the non-zero bytes of `w`: bit `i` is set iff byte `i`
/// (little-endian) is non-zero. SWAR: saturating-add `0x7F` per byte sets
/// the high bit of every non-zero byte, and the multiply gathers the eight
/// high bits into the top byte (a portable movemask).
#[inline]
pub fn nonzero_byte_mask(w: u64) -> u8 {
    let hi = ((w & 0x7F7F_7F7F_7F7F_7F7F).wrapping_add(0x7F7F_7F7F_7F7F_7F7F) | w)
        & 0x8080_8080_8080_8080;
    (((hi >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56) as u8
}

// --------------------------------------------------------------------------
// GrayAlpha8 kernels (wire layout: [v, a] per pixel, 2 bytes)
// --------------------------------------------------------------------------

/// The fixed-point product: `round(x·y / 255)` as `(x·y + 127) / 255`.
#[inline]
pub(crate) fn mul255(x: u16, y: u16) -> u16 {
    (x * y + 127) / 255
}

/// Pixels per group of the span search (16 bytes = one `u128`).
const GA8_LANES: usize = 8;

/// Per-pixel fused front merge over one span (`dst[i] = src[i] over
/// dst[i]`), with the blank and opaque shortcuts.
/// `src.len() == dst.len() * 2` is the caller's contract.
fn ga8_front_span(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
    let mut stats = OverStats::default();
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(2)) {
        let (fv, fa) = (s[0], s[1]);
        if fv == 0 && fa == 0 {
            stats.blank_skipped += 1;
            continue;
        }
        stats.non_blank += 1;
        if fa == 255 {
            d.v = fv;
            d.a = 255;
            stats.opaque_fast += 1;
        } else {
            let t = 255 - fa as u16;
            d.v = (fv as u16 + mul255(t, d.v as u16)).min(255) as u8;
            d.a = (fa as u16 + mul255(t, d.a as u16)).min(255) as u8;
        }
    }
    stats
}

/// Per-pixel fused back merge over one span (`dst[i] = dst[i] over
/// src[i]`).
fn ga8_back_span(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
    let mut stats = OverStats::default();
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(2)) {
        let (bv, ba) = (s[0], s[1]);
        if bv == 0 && ba == 0 {
            stats.blank_skipped += 1;
            continue;
        }
        stats.non_blank += 1;
        if d.a == 255 {
            stats.opaque_fast += 1;
        } else {
            let t = 255 - d.a as u16;
            d.v = (d.v as u16 + mul255(t, bv as u16)).min(255) as u8;
            d.a = (d.a as u16 + mul255(t, ba as u16)).min(255) as u8;
        }
    }
    stats
}

/// Span-structured driver shared by the two merges: leading blank pixels
/// are skipped sixteen bytes per test via [`zero_prefix`], then the
/// non-blank span — everything up to the start of the next all-zero
/// 16-byte group, found by one `u128` test per eight pixels — is handed to
/// the per-pixel loop in a single call. The words only *find* runs; every
/// composited pixel goes through `span`, so dense content costs the
/// per-pixel loop plus one word test per group.
#[inline]
fn ga8_over_spans(
    dst: &mut [GrayAlpha8],
    src: &[u8],
    span: fn(&mut [GrayAlpha8], &[u8]) -> OverStats,
) -> OverStats {
    let mut stats = OverStats::default();
    let n = dst.len();
    let mut i = 0;
    while i < n {
        // Word-wise blank-run skip. The floor of the half cannot strand a
        // blank pixel: a blank GrayAlpha8 is two zero bytes, so the zero
        // prefix ends inside the first non-blank pixel at worst.
        let skip = zero_prefix(&src[2 * i..2 * n]) / 2;
        stats.blank_skipped += skip;
        i += skip;
        if i >= n {
            break;
        }
        // The span ends at the next group of eight all-blank pixels
        // (group-aligned from `i + 1`; a partial trailing group joins the
        // span). Up to eight blank pixels may straddle the boundary and
        // stay in the span — the per-pixel loop counts them identically.
        let (groups, _) = src[2 * (i + 1)..2 * n].as_chunks::<16>();
        let j = match groups.iter().position(|g| u128::from_le_bytes(*g) == 0) {
            Some(k) => i + 1 + GA8_LANES * k,
            None => n,
        };
        stats += span(&mut dst[i..j], &src[2 * i..2 * j]);
        i = j;
    }
    stats
}

/// Fused front merge of a `GrayAlpha8` wire stream (see [`ga8_over_spans`]).
pub(crate) fn ga8_over_front(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
    ga8_over_spans(dst, src, ga8_front_span)
}

/// Fused back merge of a `GrayAlpha8` wire stream.
pub(crate) fn ga8_over_back(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
    ga8_over_spans(dst, src, ga8_back_span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nonzero_byte_mask_matches_per_byte_test() {
        // Every subset of non-zero byte positions, with varied non-zero
        // values (including 0x80, the SWAR edge).
        for mask in 0u32..256 {
            for &val in &[1u8, 0x7F, 0x80, 0xFF] {
                let mut bytes = [0u8; 8];
                for (i, b) in bytes.iter_mut().enumerate() {
                    if mask & (1 << i) != 0 {
                        *b = val;
                    }
                }
                let w = u64::from_le_bytes(bytes);
                assert_eq!(
                    nonzero_byte_mask(w),
                    mask as u8,
                    "mask {mask:#x} val {val:#x}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn zero_prefix_matches_scalar(bytes in proptest::collection::vec(prop_oneof![9 => Just(0u8), 1 => any::<u8>()], 0..200)) {
            let scalar = |bytes: &[u8]| bytes.iter().take_while(|&&b| b == 0).count();
            prop_assert_eq!(zero_prefix(&bytes), scalar(&bytes));
        }

        #[test]
        fn byte_run_len_matches_scalar(
            b in any::<u8>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            run in 0usize..64,
        ) {
            // Plant a run of `b` at the front so runs actually occur.
            let mut data = vec![b; run];
            data.extend(bytes);
            let scalar = |bytes: &[u8]| bytes.iter().take_while(|&&x| x == b).count();
            prop_assert_eq!(byte_run_len(&data, b), scalar(&data));
        }

        #[test]
        fn nonzero_byte_mask_random(w in any::<u64>()) {
            let bytes = w.to_le_bytes();
            let mut want = 0u8;
            for (i, &b) in bytes.iter().enumerate() {
                if b != 0 {
                    want |= 1 << i;
                }
            }
            prop_assert_eq!(nonzero_byte_mask(w), want);
        }
    }
}
