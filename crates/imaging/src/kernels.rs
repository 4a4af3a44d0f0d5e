//! Word-wise (SWAR) compositing kernels and the [`KernelPath`] selector.
//!
//! The hot loops of the composition stage — blank-pixel scanning, opaque-run
//! detection, the fixed-point `over` arithmetic, and the codecs' run
//! detection / template classification — all walk the wire stream one byte
//! at a time in their reference form. This module provides *wide* variants
//! that process a machine word (`u64`) or two (`u128`) per iteration, plus
//! the [`KernelPath`] enum that selects between them at runtime.
//!
//! Every wide kernel is **bit-identical** to its scalar reference: the fast
//! paths are exact identities of the fixed-point arithmetic
//! (`mul255(0, x) = 0`, `mul255(255, x) = x`) and the word-wise scans only
//! change *how* runs are found, never what is done with them. Equivalence
//! is pinned by exhaustive unit tests (the division identity over every
//! 16-bit input) and proptest suites (kernels, codecs, full traces).
//!
//! The scalar path stays shipped and selectable — it is the reference
//! implementation the equivalence suites compare against, and the baseline
//! the `kernels` microbench measures speedups from.

use crate::pixel::{GrayAlpha8, OverStats, Rgba8};

/// Which implementation the byte-level compositing and codec kernels run.
///
/// Both paths produce bit-identical pixels, stats that agree on
/// `non_blank`/`blank_skipped` (only [`OverStats::opaque_fast`] may differ),
/// and identical event traces — the choice is wall-clock only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelPath {
    /// Byte-at-a-time reference loops.
    Scalar,
    /// Word-wise (`u64`/`u128` SWAR) kernels (default).
    #[default]
    Wide,
}

impl KernelPath {
    /// Both paths, scalar first (reference before optimization).
    pub const ALL: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Wide];

    /// Short name for reports ("scalar" / "wide").
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Wide => "wide",
        }
    }
}

impl std::str::FromStr for KernelPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(KernelPath::Scalar),
            "wide" => Ok(KernelPath::Wide),
            other => Err(format!("unknown kernel path '{other}'")),
        }
    }
}

// --------------------------------------------------------------------------
// Byte-scan primitives
// --------------------------------------------------------------------------

/// Number of leading zero bytes of `bytes`, testing sixteen bytes per
/// iteration (then eight, then one).
pub fn zero_prefix(bytes: &[u8]) -> usize {
    let mut i = 0;
    let n = bytes.len();
    while i + 16 <= n {
        let w = u128::from_le_bytes(bytes[i..i + 16].try_into().unwrap());
        if w != 0 {
            return i + (w.trailing_zeros() / 8) as usize;
        }
        i += 16;
    }
    while i + 8 <= n {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        if w != 0 {
            return i + (w.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && bytes[i] == 0 {
        i += 1;
    }
    i
}

/// Byte-at-a-time reference of [`zero_prefix`], kept for equivalence tests
/// and the microbench baseline.
pub fn zero_prefix_scalar(bytes: &[u8]) -> usize {
    bytes.iter().take_while(|&&b| b == 0).count()
}

/// Length of the prefix of `bytes` equal to `b` — memchr-style run
/// detection: XOR against the broadcast pattern turns "first differing
/// byte" into a trailing-zeros count, eight bytes per iteration.
pub fn byte_run_len(bytes: &[u8], b: u8) -> usize {
    let pat = (b as u64).wrapping_mul(0x0101_0101_0101_0101);
    let mut i = 0;
    let n = bytes.len();
    while i + 8 <= n {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()) ^ pat;
        if w != 0 {
            return i + (w.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && bytes[i] == b {
        i += 1;
    }
    i
}

/// Byte-at-a-time reference of [`byte_run_len`].
pub fn byte_run_len_scalar(bytes: &[u8], b: u8) -> usize {
    bytes.iter().take_while(|&&x| x == b).count()
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
// Fixed-point `over` arithmetic
// --------------------------------------------------------------------------

/// The scalar fixed-point product: `round(x·y / 255)` as the codebase's
/// `(x·y + 127) / 255`.
#[inline]
pub(crate) fn mul255(x: u16, y: u16) -> u16 {
    (x * y + 127) / 255
}

/// Two channels of `mul255(t, ·)` in one 64-bit multiply: `x0` and `x1`
/// are packed into 32-bit lanes, multiplied by the shared factor `t`, and
/// divided by 255 per lane with the exact shift identity
/// `⌊y/255⌋ = (y + 1 + ⌊y/256⌋) >> 8` (valid for `y < 65535`; here
/// `y ≤ 255·255 + 127`). The lane mask keeps the high lane's shifted-down
/// bits out of the low lane.
#[inline]
fn mul255_pair(t: u16, x0: u8, x1: u8) -> (u16, u16) {
    let w = (x0 as u64) | ((x1 as u64) << 32);
    let y = w * (t as u64) + 0x0000_007F_0000_007F;
    let q = y + 0x0000_0001_0000_0001 + ((y >> 8) & 0x00FF_FFFF_00FF_FFFF);
    ((((q as u32) >> 8) & 0xFFFF) as u16, (q >> 40) as u16)
}

// --------------------------------------------------------------------------
// GrayAlpha8 kernels (wire layout: [v, a] per pixel, 2 bytes)
// --------------------------------------------------------------------------

/// Pixels per GrayAlpha8 wide group (16 bytes = one `u128`).
const GA8_LANES: usize = 8;

/// Scalar reference: per-pixel fused front merge (`dst[i] = src[i] over
/// dst[i]`), with the per-pixel blank and opaque shortcuts but no word
/// tricks. `src.len() == dst.len() * 2` is the caller's contract.
pub(crate) fn ga8_over_front_scalar(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
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

/// Scalar reference: per-pixel fused back merge (`dst[i] = dst[i] over
/// src[i]`).
pub(crate) fn ga8_over_back_scalar(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
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

/// Span-structured wide driver shared by the two GrayAlpha8 wide merges:
/// leading blank pixels are skipped sixteen bytes per test via
/// [`zero_prefix`], then the non-blank span — everything up to the start of
/// the next all-zero 16-byte group, found by one `u128` test per eight
/// pixels — is handed to the scalar reference kernel in a single bulk
/// call. The words only *find* runs; every composited pixel goes through
/// the scalar kernel's own loop, so output and stats (including
/// `opaque_fast`) are the scalar kernel's by construction, and dense
/// content costs the scalar loop plus one word test per group.
#[inline]
fn ga8_over_wide(
    dst: &mut [GrayAlpha8],
    src: &[u8],
    scalar: fn(&mut [GrayAlpha8], &[u8]) -> OverStats,
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
        // Find the span end: the next group of eight all-blank pixels
        // (group-aligned from `i + 1`; a partial trailing group joins the
        // span). Up to eight blank pixels may straddle the boundary and
        // stay in the span — the scalar kernel counts them identically.
        let mut j = i + 1;
        while j + GA8_LANES <= n {
            let w = u128::from_le_bytes(src[2 * j..2 * j + 16].try_into().unwrap());
            if w == 0 {
                break;
            }
            j += GA8_LANES;
        }
        if j + GA8_LANES > n {
            j = n;
        }
        stats += scalar(&mut dst[i..j], &src[2 * i..2 * j]);
        i = j;
    }
    stats
}

/// Wide front merge: word-wise blank-run skipping around bulk scalar spans
/// (see [`ga8_over_wide`]). Bit-identical to [`ga8_over_front_scalar`],
/// stats equal field for field.
pub(crate) fn ga8_over_front_wide(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
    ga8_over_wide(dst, src, ga8_over_front_scalar)
}

/// Wide back merge: word-wise blank-run skipping around bulk scalar spans.
pub(crate) fn ga8_over_back_wide(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
    ga8_over_wide(dst, src, ga8_over_back_scalar)
}

// --------------------------------------------------------------------------
// Rgba8 kernels (wire layout: [r, g, b, a] per pixel, 4 bytes)
// --------------------------------------------------------------------------

/// Alpha bytes of four packed Rgba8 pixels (every fourth byte).
const RGBA8_ALPHA_MASK: u128 = 0xFF00_0000_FF00_0000_FF00_0000_FF00_0000;

/// Pixels per Rgba8 wide group (16 bytes = one `u128`).
const RGBA8_LANES: usize = 4;

/// Scalar reference: dense per-pixel front merge, every pixel computed
/// (blank merges are arithmetic identities), no shortcuts — exactly the
/// fused kernel this crate shipped before the wide layer.
pub(crate) fn rgba8_over_front_scalar(dst: &mut [Rgba8], src: &[u8]) -> OverStats {
    let mut stats = OverStats::default();
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(4)) {
        if s != [0, 0, 0, 0] {
            stats.non_blank += 1;
        } else {
            stats.blank_skipped += 1;
        }
        let t = 255 - s[3] as u16;
        let ch = |f: u8, b: u8| (f as u16 + mul255(t, b as u16)).min(255) as u8;
        *d = Rgba8 {
            r: ch(s[0], d.r),
            g: ch(s[1], d.g),
            b: ch(s[2], d.b),
            a: ch(s[3], d.a),
        };
    }
    stats
}

/// Scalar reference: dense per-pixel back merge.
pub(crate) fn rgba8_over_back_scalar(dst: &mut [Rgba8], src: &[u8]) -> OverStats {
    let mut stats = OverStats::default();
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(4)) {
        if s != [0, 0, 0, 0] {
            stats.non_blank += 1;
        } else {
            stats.blank_skipped += 1;
        }
        let t = 255 - d.a as u16;
        let ch = |f: u8, b: u8| (f as u16 + mul255(t, b as u16)).min(255) as u8;
        *d = Rgba8 {
            r: ch(d.r, s[0]),
            g: ch(d.g, s[1]),
            b: ch(d.b, s[2]),
            a: ch(d.a, s[3]),
        };
    }
    stats
}

/// Wide front merge for Rgba8: four pixels per group, with blank-run
/// skipping (`mul255(255, x) = x` makes a blank front an exact identity),
/// opaque-group replacement (`t = 0` zeroes the back term), and two
/// dual-lane multiplies for the general pixel. Pixel output is
/// bit-identical to the scalar kernel; `opaque_fast` is newly non-zero
/// here, which the [`OverStats`] contract permits.
pub(crate) fn rgba8_over_front_wide(dst: &mut [Rgba8], src: &[u8]) -> OverStats {
    let mut stats = OverStats::default();
    let n = dst.len();
    let mut i = 0;
    while i + RGBA8_LANES <= n {
        let w = u128::from_le_bytes(src[4 * i..4 * i + 16].try_into().unwrap());
        if w == 0 {
            let run = RGBA8_LANES + zero_prefix(&src[4 * (i + RGBA8_LANES)..4 * n]) / 4;
            stats.blank_skipped += run;
            i += run;
            continue;
        }
        if w & RGBA8_ALPHA_MASK == RGBA8_ALPHA_MASK {
            for (j, d) in dst[i..i + RGBA8_LANES].iter_mut().enumerate() {
                let s = &src[4 * (i + j)..4 * (i + j) + 4];
                *d = Rgba8 {
                    r: s[0],
                    g: s[1],
                    b: s[2],
                    a: 255,
                };
            }
            stats.non_blank += RGBA8_LANES;
            stats.opaque_fast += RGBA8_LANES;
            i += RGBA8_LANES;
            continue;
        }
        for j in i..i + RGBA8_LANES {
            rgba8_front_px(&mut dst[j], &src[4 * j..4 * j + 4], &mut stats);
        }
        i += RGBA8_LANES;
    }
    while i < n {
        rgba8_front_px(&mut dst[i], &src[4 * i..4 * i + 4], &mut stats);
        i += 1;
    }
    stats
}

/// One-pixel front merge for Rgba8 (blank skip, opaque replace, two
/// dual-lane multiplies otherwise).
#[inline]
fn rgba8_front_px(d: &mut Rgba8, s: &[u8], stats: &mut OverStats) {
    if s == [0, 0, 0, 0] {
        stats.blank_skipped += 1;
    } else {
        stats.non_blank += 1;
        if s[3] == 255 {
            *d = Rgba8 {
                r: s[0],
                g: s[1],
                b: s[2],
                a: 255,
            };
            stats.opaque_fast += 1;
        } else {
            let t = 255 - s[3] as u16;
            let (qr, qg) = mul255_pair(t, d.r, d.g);
            let (qb, qa) = mul255_pair(t, d.b, d.a);
            *d = Rgba8 {
                r: (s[0] as u16 + qr).min(255) as u8,
                g: (s[1] as u16 + qg).min(255) as u8,
                b: (s[2] as u16 + qb).min(255) as u8,
                a: (s[3] as u16 + qa).min(255) as u8,
            };
        }
    }
}

/// Wide back merge for Rgba8: blank-run skipping (`mul255(t, 0) = 0`),
/// opaque-destination skip (`t = 0`), dual-lane multiplies otherwise.
pub(crate) fn rgba8_over_back_wide(dst: &mut [Rgba8], src: &[u8]) -> OverStats {
    let mut stats = OverStats::default();
    let n = dst.len();
    let mut i = 0;
    while i + RGBA8_LANES <= n {
        let w = u128::from_le_bytes(src[4 * i..4 * i + 16].try_into().unwrap());
        if w == 0 {
            let run = RGBA8_LANES + zero_prefix(&src[4 * (i + RGBA8_LANES)..4 * n]) / 4;
            stats.blank_skipped += run;
            i += run;
            continue;
        }
        for j in i..i + RGBA8_LANES {
            rgba8_back_px(&mut dst[j], &src[4 * j..4 * j + 4], &mut stats);
        }
        i += RGBA8_LANES;
    }
    while i < n {
        rgba8_back_px(&mut dst[i], &src[4 * i..4 * i + 4], &mut stats);
        i += 1;
    }
    stats
}

/// One-pixel back merge for Rgba8 (blank skip, opaque-destination skip,
/// two dual-lane multiplies otherwise).
#[inline]
fn rgba8_back_px(d: &mut Rgba8, s: &[u8], stats: &mut OverStats) {
    if s == [0, 0, 0, 0] {
        stats.blank_skipped += 1;
    } else {
        stats.non_blank += 1;
        if d.a == 255 {
            stats.opaque_fast += 1;
        } else {
            let t = 255 - d.a as u16;
            let (qr, qg) = mul255_pair(t, s[0], s[1]);
            let (qb, qa) = mul255_pair(t, s[2], s[3]);
            *d = Rgba8 {
                r: (d.r as u16 + qr).min(255) as u8,
                g: (d.g as u16 + qg).min(255) as u8,
                b: (d.b as u16 + qb).min(255) as u8,
                a: (d.a as u16 + qa).min(255) as u8,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kernel_path_parses_and_names() {
        for path in KernelPath::ALL {
            let parsed: KernelPath = path.name().parse().unwrap();
            assert_eq!(parsed, path);
        }
        assert!("simd".parse::<KernelPath>().is_err());
        assert_eq!(KernelPath::default(), KernelPath::Wide);
    }

    #[test]
    fn div255_identity_is_exact_for_all_products() {
        // The dual-lane kernel relies on ⌊y/255⌋ == (y + 1 + ⌊y/256⌋) >> 8
        // for every y a fixed-point product can produce. Check the whole
        // input space, both lanes at once.
        for t in 0u16..=255 {
            for x in 0u16..=255 {
                let want = mul255(t, x);
                let (lo, hi) = mul255_pair(t, x as u8, x as u8);
                assert_eq!(lo, want, "lo lane at t={t} x={x}");
                assert_eq!(hi, want, "hi lane at t={t} x={x}");
            }
        }
    }

    #[test]
    fn dual_lane_lanes_are_independent() {
        for t in [0u16, 1, 127, 128, 254, 255] {
            for (x0, x1) in [(0u8, 255u8), (255, 0), (1, 254), (200, 3)] {
                let (lo, hi) = mul255_pair(t, x0, x1);
                assert_eq!(lo, mul255(t, x0 as u16));
                assert_eq!(hi, mul255(t, x1 as u16));
            }
        }
    }

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
            prop_assert_eq!(zero_prefix(&bytes), zero_prefix_scalar(&bytes));
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
            prop_assert_eq!(byte_run_len(&data, b), byte_run_len_scalar(&data, b));
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
