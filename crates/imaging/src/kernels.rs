//! Word-wise (SWAR) scan primitives, the fused `over` and unpack kernels
//! of [`GrayAlpha8`] and [`GrayAlpha`], the content-word blank scan, and
//! the workspace's one CPU-width dispatch.
//!
//! The hot loops of the composition stage — blank-pixel scanning and the
//! codecs' run detection / template classification — find their runs a
//! word at a time: a machine word (`u64`) or two (`u128`) of wire bytes,
//! or sixteen pixels' [`Pixel::content_word`]s ORed into one. The 8-bit
//! `over` kernels skip a wire stream's blank runs that way and merge every
//! other pixel with one branch-free body, sixteen pixels per chunk, which
//! the compiler vectorises; the same body merges two in-memory pixel
//! slices. Neither changes what is computed: a blank or opaque pixel needs
//! no shortcut, because the fixed-point arithmetic already gives its result
//! (`mul255(0, x) = 0`, `mul255(255, x) = x`). The `f32` kernels skip
//! nothing — merging a blank `f32` pixel is not a copy (`+0 + 1 · −0` is
//! `+0`) — and run `over` itself on every pixel, sixteen to a chunk. Every
//! kernel is pinned bit for bit to decode-then-
//! [`Pixel::over`] by the tests of this crate (every
//! 8-bit merge, exhaustively; every pairing of the `f32` specials) and of
//! rt-compress.
//!
//! Every span kernel runs through [`KernelCopy::run`]: one body, compiled
//! once for the target's baseline and once, on x86-64, with AVX2 enabled,
//! and the widest copy the CPU supports is the one called. The copies use
//! no intrinsics and no fused multiply-add, so they compute the same bits.

use crate::pixel::{GrayAlpha, GrayAlpha8, OverStats, Pixel};

// --------------------------------------------------------------------------
// The one CPU-width dispatch
// --------------------------------------------------------------------------

/// One call of a span kernel, run in a compiled copy by [`KernelCopy::run`].
///
/// An implementation marks [`SpanKernel::run`] `#[inline(always)]` and
/// writes its whole body there (or in `#[inline(always)]` helpers), so each
/// copy compiles all of it for its own width. The body uses no intrinsics
/// and no `mul_add`: every copy then rounds alike and writes the same bits.
pub trait SpanKernel {
    /// What the kernel returns.
    type Output;

    /// The kernel body.
    fn run(self) -> Self::Output;
}

/// A compiled copy of the span kernels: the target's baseline, or on
/// x86-64 the AVX2 one, which only a CPU with AVX2 can hold.
/// [`KernelCopy::widest`] is the copy every kernel call runs;
/// [`KernelCopy::all`] lets a test call each copy directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCopy {
    avx2: bool,
}

impl KernelCopy {
    /// The widest copy this CPU runs.
    #[inline]
    pub fn widest() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self { avx2: true };
        }
        Self { avx2: false }
    }

    /// Every copy this CPU runs, baseline first.
    pub fn all() -> Vec<Self> {
        let mut copies = vec![Self { avx2: false }];
        copies.extend(Some(Self::widest()).filter(|c| c.avx2));
        copies
    }

    /// `"avx2"` or `"baseline"`.
    pub fn name(self) -> &'static str {
        match self.avx2 {
            true => "avx2",
            false => "baseline",
        }
    }

    /// Run `kernel` in this copy.
    #[inline]
    pub fn run<K: SpanKernel>(self, kernel: K) -> K::Output {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: a copy with `avx2` set is only made by `widest`, on a
            // CPU found to support AVX2, the one feature `run_avx2` is
            // compiled with.
            return unsafe { run_avx2(kernel) };
        }
        run_baseline(kernel)
    }
}

fn run_baseline<K: SpanKernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: SpanKernel>(kernel: K) -> K::Output {
    kernel.run()
}

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
/// iteration (then one at a time over the last partial word). A run whose
/// first sixteen bytes are zero is skipped sixty-four bytes per test first,
/// so a short run or none still costs one word test.
pub fn zero_prefix(bytes: &[u8]) -> usize {
    let mut skipped = 0;
    if bytes
        .first_chunk::<16>()
        .is_some_and(|w| u128::from_le_bytes(*w) == 0)
    {
        let zero = |block: &[u8; 64]| {
            let (words, _) = block.as_chunks::<16>();
            words.iter().fold(0, |acc, w| acc | u128::from_le_bytes(*w)) == 0
        };
        let (blocks, _) = bytes[16..].as_chunks::<64>();
        skipped = 16 + 64 * blocks.iter().take_while(|b| zero(b)).count();
    }
    let (words, tail) = bytes[skipped..].as_chunks::<16>();
    for (k, word) in words.iter().enumerate() {
        let w = u128::from_le_bytes(*word);
        if w != 0 {
            return skipped + 16 * k + (w.trailing_zeros() / 8) as usize;
        }
    }
    skipped + 16 * words.len() + tail.iter().take_while(|&&b| b == 0).count()
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

/// Pixels per chunk of the branch-free span body (32 wire bytes).
const GA8_CHUNK: usize = 16;

/// One lane of the span body: pixels as little-endian words `v | a << 8`,
/// `s` from the stream and `d` from the destination. Returns the merged
/// word and the lane's `(blank, opaque)` counter bits.
///
/// The merge is [`GrayAlpha8::over`](crate::Pixel::over) with no branch —
/// `FRONT` only picks which word is in front. Blank and opaque pixels need
/// none, because the arithmetic already returns the right operand for
/// them: a blank front yields `0 + mul255(255, d) = d` and an opaque one
/// `f + mul255(0, d) = f`. The counters are read off the words: the
/// stream pixel is blank iff its word is 0, and the merge is `opaque` iff
/// the front alpha is 255 (front), or a non-blank stream pixel lies behind
/// a destination alpha of 255 (back).
#[inline(always)]
fn ga8_lane<const FRONT: bool>(s: u16, d: u16) -> (u16, u16, u16) {
    let (f, b) = if FRONT { (s, d) } else { (d, s) };
    let t = 255 - (f >> 8);
    let v = ((f & 0xFF) + mul255(t, b & 0xFF)).min(255);
    let a = ((f >> 8) + mul255(t, b >> 8)).min(255);
    let blank = (s == 0) as u16;
    let opaque = if FRONT {
        (f >> 8 == 255) as u16
    } else {
        ((s != 0) & (f >> 8 == 255)) as u16
    };
    (v | a << 8, blank, opaque)
}

/// A pixel as the span body's little-endian word `v | a << 8`.
#[inline(always)]
fn ga8_word(px: &GrayAlpha8) -> u16 {
    u16::from_le_bytes([px.v, px.a])
}

/// The fused merge over one span, `dst[i] = src[i] over dst[i]` (`FRONT`)
/// or `dst[i] = dst[i] over src[i]`: sixteen pixels per chunk, every lane
/// through [`ga8_lane`] with no branch. The source comes as whole chunks,
/// each read into a word array by `load`, and the words of its tail; the
/// destination chunk is read into a second array, merged lane by lane into
/// a third and written back through the pixel fields. In that shape the
/// baseline compiler keeps the whole chunk in vector registers (fused into
/// one loop, it loads and stores the destination a pixel at a time and runs
/// ≈ 3.5× slower). The pixels past the last whole chunk take the same lane
/// one at a time. One source pixel per destination pixel is the callers'
/// contract.
#[inline(always)]
fn ga8_span<const FRONT: bool, C>(
    dst: &mut [GrayAlpha8],
    src: &[C],
    src_tail: impl Iterator<Item = u16>,
    load: impl Fn(&C) -> [u16; GA8_CHUNK],
) -> OverStats {
    let mut blank = 0;
    let mut opaque = 0;
    let (chunks, tail) = dst.as_chunks_mut::<GA8_CHUNK>();
    for (d, s) in chunks.iter_mut().zip(src) {
        let sw = load(s);
        let dw: [u16; GA8_CHUNK] = std::array::from_fn(|k| ga8_word(&d[k]));
        let mut out = [0u16; GA8_CHUNK];
        let (mut chunk_blank, mut chunk_opaque) = (0u16, 0u16);
        for k in 0..GA8_CHUNK {
            let (o, b, q) = ga8_lane::<FRONT>(sw[k], dw[k]);
            out[k] = o;
            chunk_blank += b;
            chunk_opaque += q;
        }
        for (px, o) in d.iter_mut().zip(out) {
            [px.v, px.a] = o.to_le_bytes();
        }
        blank += chunk_blank as usize;
        opaque += chunk_opaque as usize;
    }
    for (px, s) in tail.iter_mut().zip(src_tail) {
        let (out, b, o) = ga8_lane::<FRONT>(s, ga8_word(px));
        [px.v, px.a] = out.to_le_bytes();
        blank += b as usize;
        opaque += o as usize;
    }
    OverStats {
        non_blank: dst.len() - blank,
        blank_skipped: blank,
        opaque_fast: opaque,
    }
}

/// [`ga8_span`] over a wire stream, two bytes per pixel:
/// `src.len() == dst.len() * 2` is the caller's contract.
#[inline(always)]
fn ga8_span_bytes<const FRONT: bool>(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
    let (words, tail) = src.as_chunks::<{ 2 * GA8_CHUNK }>();
    let tail = tail
        .chunks_exact(2)
        .map(|s| u16::from_le_bytes([s[0], s[1]]));
    ga8_span::<FRONT, _>(dst, words, tail, |s| {
        std::array::from_fn(|k| u16::from_le_bytes([s[2 * k], s[2 * k + 1]]))
    })
}

/// [`ga8_span`] over an in-memory pixel slice, the merge of two pixel
/// slices (`src.len() == dst.len()` is the caller's contract). No blank
/// skip in front of it: the span body merges a blank pixel as the identity
/// at the same speed.
#[inline(always)]
fn ga8_over_pixels<const FRONT: bool>(dst: &mut [GrayAlpha8], src: &[GrayAlpha8]) -> OverStats {
    let (words, tail) = src.as_chunks::<GA8_CHUNK>();
    ga8_span::<FRONT, _>(dst, words, tail.iter().map(ga8_word), |s| {
        std::array::from_fn(|k| ga8_word(&s[k]))
    })
}

/// The fused merge of a `GrayAlpha8` wire stream, front or back: leading
/// blank pixels are skipped sixteen bytes per test via [`zero_prefix`],
/// then the non-blank span — everything up to the start of the next
/// all-zero 16-byte group, found by one `u128` test per eight pixels — is
/// handed to the branch-free span body in a single call. Sparse content is
/// mostly skipped by the words; dense content costs the span body plus one
/// word test per group.
#[inline(always)]
fn ga8_over_bytes<const FRONT: bool>(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
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
        // stay in the span — the span body counts them identically.
        let (groups, _) = src[2 * (i + 1)..2 * n].as_chunks::<16>();
        let j = match groups.iter().position(|g| u128::from_le_bytes(*g) == 0) {
            Some(k) => i + 1 + GA8_LANES * k,
            None => n,
        };
        stats += ga8_span_bytes::<FRONT>(&mut dst[i..j], &src[2 * i..2 * j]);
        i = j;
    }
    stats
}

/// The unpack of a wire stream into blank pixels, `dst[i] = src[i]`: what
/// the front merge leaves on a blank destination (`f + mul255(255 − fa, 0)
/// = f`), with the front merge's counters — blank iff the lane word is 0,
/// opaque iff its alpha byte is 255. One flat loop writes each pixel and
/// sums both tests into 16-bit counters, which the compiler turns into
/// vector lanes (a `usize` count would be a scalar one). A block of at most
/// `u16::MAX` pixels cannot wrap them. `src.len() == dst.len() * 2` is the
/// caller's contract.
#[inline(always)]
fn ga8_unpack(dst: &mut [GrayAlpha8], src: &[u8]) -> OverStats {
    let (mut non_blank, mut opaque) = (0, 0);
    let (pairs, _) = src.as_chunks::<2>();
    // Counts in 16-bit lanes, each block short enough not to wrap one.
    for (dst, block) in dst
        .chunks_mut(u16::MAX as usize)
        .zip(pairs.chunks(u16::MAX as usize))
    {
        let (mut block_non_blank, mut block_opaque) = (0u16, 0u16);
        for (px, pair) in dst.iter_mut().zip(block) {
            let w = u16::from_le_bytes(*pair);
            [px.v, px.a] = *pair;
            block_non_blank += (w != 0) as u16;
            block_opaque += (w >> 8 == 255) as u16;
        }
        non_blank += block_non_blank as usize;
        opaque += block_opaque as usize;
    }
    OverStats {
        non_blank,
        blank_skipped: dst.len() - non_blank,
        opaque_fast: opaque,
    }
}

/// One call of a [`GrayAlpha8`] span kernel, run by [`KernelCopy::run`]:
/// the front or back merge of a wire stream or of a pixel slice, or the
/// unpack of a wire stream into blank pixels. Its [`SpanKernel::run`] holds
/// all five bodies, so each compiled copy has its own. The callers check
/// the lengths.
pub(crate) enum Ga8<'a> {
    /// [`ga8_over_bytes`]: a wire stream in front of `dst` or behind it.
    OverBytes {
        front: bool,
        dst: &'a mut [GrayAlpha8],
        src: &'a [u8],
    },
    /// [`ga8_over_pixels`]: a pixel slice in front of `dst` or behind it.
    OverPixels {
        front: bool,
        dst: &'a mut [GrayAlpha8],
        src: &'a [GrayAlpha8],
    },
    /// [`ga8_unpack`]: a wire stream written into the blank `dst`.
    Unpack {
        dst: &'a mut [GrayAlpha8],
        src: &'a [u8],
    },
}

impl SpanKernel for Ga8<'_> {
    type Output = OverStats;

    #[inline(always)]
    fn run(self) -> OverStats {
        match self {
            Ga8::OverBytes { front, dst, src } => match front {
                true => ga8_over_bytes::<true>(dst, src),
                false => ga8_over_bytes::<false>(dst, src),
            },
            Ga8::OverPixels { front, dst, src } => match front {
                true => ga8_over_pixels::<true>(dst, src),
                false => ga8_over_pixels::<false>(dst, src),
            },
            Ga8::Unpack { dst, src } => ga8_unpack(dst, src),
        }
    }
}

// --------------------------------------------------------------------------
// GrayAlpha kernels (wire layout: [v, a] per pixel, f32 LE each, 8 bytes)
// --------------------------------------------------------------------------

/// Pixels per chunk of the `f32` span body (128 wire bytes).
const GA_CHUNK: usize = 16;

/// A [`GrayAlpha`] from its 8 wire bytes.
#[inline(always)]
fn ga_from_wire(b: &[u8; 8]) -> GrayAlpha {
    let [v0, v1, v2, v3, a0, a1, a2, a3] = *b;
    GrayAlpha::new(
        f32::from_le_bytes([v0, v1, v2, v3]),
        f32::from_le_bytes([a0, a1, a2, a3]),
    )
}

/// One merge of the `f32` span body: `s` in front of `d` (`FRONT`) or
/// behind it, through [`GrayAlpha::over`](crate::Pixel::over) itself.
#[inline(always)]
fn ga_merge<const FRONT: bool>(s: &GrayAlpha, d: &GrayAlpha) -> GrayAlpha {
    match FRONT {
        true => s.over(d),
        false => d.over(s),
    }
}

/// The `f32` merge over one span, `dst[i] = src[i] over dst[i]` (`FRONT`)
/// or `dst[i] = dst[i] over src[i]`, sixteen pixels per chunk: the source
/// chunk is read into a pixel array by `load` (or taken from `src_tail`
/// past the last whole chunk), every lane merged by [`ga_merge`] with no
/// branch and no blank skip — merging a blank is not a copy for `f32`
/// (`+0 + 1 · −0` is `+0`), so every pixel runs the arithmetic — and a
/// source pixel counted blank iff its [`Pixel::content_word`] is zero.
/// `opaque_fast` stays 0, as on the per-pixel default.
#[inline(always)]
fn ga_span<const FRONT: bool, C>(
    dst: &mut [GrayAlpha],
    src: &[C],
    src_tail: impl Iterator<Item = GrayAlpha>,
    load: impl Fn(&C) -> [GrayAlpha; GA_CHUNK],
) -> OverStats {
    let mut blank = 0;
    let (chunks, tail) = dst.as_chunks_mut::<GA_CHUNK>();
    for (d, s) in chunks.iter_mut().zip(src) {
        let s = load(s);
        let chunk_blank = s
            .iter()
            .map(|s| (s.content_word() == 0) as u32)
            .sum::<u32>();
        *d = std::array::from_fn(|k| ga_merge::<FRONT>(&s[k], &d[k]));
        blank += chunk_blank as usize;
    }
    for (d, s) in tail.iter_mut().zip(src_tail) {
        blank += (s.content_word() == 0) as usize;
        *d = ga_merge::<FRONT>(&s, d);
    }
    OverStats {
        non_blank: dst.len() - blank,
        blank_skipped: blank,
        opaque_fast: 0,
    }
}

/// [`ga_span`] over a wire stream, eight bytes per pixel:
/// `src.len() == dst.len() * 8` is the caller's contract.
#[inline(always)]
fn ga_span_bytes<const FRONT: bool>(dst: &mut [GrayAlpha], src: &[u8]) -> OverStats {
    let (words, tail) = src.as_chunks::<{ 8 * GA_CHUNK }>();
    let tail = tail.as_chunks::<8>().0.iter().map(ga_from_wire);
    ga_span::<FRONT, _>(dst, words, tail, |s| {
        let (pixels, _) = s.as_chunks::<8>();
        std::array::from_fn(|k| ga_from_wire(&pixels[k]))
    })
}

/// [`ga_span`] over an in-memory pixel slice (`src.len() == dst.len()`).
#[inline(always)]
fn ga_over_pixels<const FRONT: bool>(dst: &mut [GrayAlpha], src: &[GrayAlpha]) -> OverStats {
    let (chunks, tail) = src.as_chunks::<GA_CHUNK>();
    ga_span::<FRONT, _>(dst, chunks, tail.iter().copied(), |s| *s)
}

/// One call of a [`GrayAlpha`] span kernel, run by [`KernelCopy::run`]:
/// the front or back merge of a wire stream or of a pixel slice (the
/// unpack is the front merge onto blank, the trait's default). The callers
/// check the lengths.
pub(crate) enum Ga<'a> {
    /// A wire stream in front of `dst` or behind it.
    OverBytes {
        front: bool,
        dst: &'a mut [GrayAlpha],
        src: &'a [u8],
    },
    /// A pixel slice in front of `dst` or behind it.
    OverPixels {
        front: bool,
        dst: &'a mut [GrayAlpha],
        src: &'a [GrayAlpha],
    },
}

impl SpanKernel for Ga<'_> {
    type Output = OverStats;

    #[inline(always)]
    fn run(self) -> OverStats {
        match self {
            Ga::OverBytes { front, dst, src } => match front {
                true => ga_span_bytes::<true>(dst, src),
                false => ga_span_bytes::<false>(dst, src),
            },
            Ga::OverPixels { front, dst, src } => match front {
                true => ga_over_pixels::<true>(dst, src),
                false => ga_over_pixels::<false>(dst, src),
            },
        }
    }
}

/// Whether any pixel of `pixels` has a non-zero [`Pixel::content_word`]:
/// the words of each sixteen-pixel chunk are ORed into one, so a blank
/// chunk costs one test and the scan stops at the first chunk with content;
/// the pixels past the last whole chunk are tested one word each.
#[inline]
pub(crate) fn any_content<P: Pixel>(pixels: &[P]) -> bool {
    let (chunks, tail) = pixels.as_chunks::<16>();
    let or = |chunk: &[P; 16]| chunk.iter().fold(0, |acc, px| acc | px.content_word());
    chunks.iter().any(|chunk| or(chunk) != 0) || tail.iter().any(|px| px.content_word() != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;

    /// Every compiled copy this CPU runs, each to be called directly. A CPU
    /// without AVX2 tests the baseline copy alone and says so.
    fn copies() -> Vec<KernelCopy> {
        let copies = KernelCopy::all();
        if copies.len() == 1 {
            // Past the test harness's capture, so every run shows the skip.
            let skip = "span kernel copies: no AVX2 on this CPU, the wide copy is not tested";
            let _ = writeln!(std::io::stderr(), "{skip}");
        }
        copies
    }

    /// Every merge the 8-bit `over` can be asked for, through both fused
    /// merges of both entries — the wire stream and the pixel slice — in
    /// each compiled copy, against [`GrayAlpha8::over`] and the counter
    /// definitions. The front
    /// pixel is `(x, y)` and the back one `(z, x + z mod 256)` for all 2²⁴
    /// triples, so the value channel sees every (front alpha, front value,
    /// back value) triple, the alpha channel every alpha pair, and the back
    /// merge's source every pixel behind every destination alpha. Each run
    /// of 2¹⁶ merges is cut into pieces of 1 to 47 pixels, so lanes fall in
    /// whole chunks and in the tail at every offset. The only rt-imaging or
    /// rt-compress test that fails when the back merge's `opaque` tests the
    /// stream's alpha instead of its word (`s >> 8 != 0` for `s != 0`):
    /// that counts a blank-alpha, non-zero stream pixel behind an opaque
    /// destination, which a random pixel is once in 2¹⁶ tries.
    #[test]
    fn over_kernel_equivalence() {
        for copy in copies() {
            // Two threads, one per parity of the front alpha.
            std::thread::scope(|scope| {
                for parity in [0, 1] {
                    scope.spawn(move || {
                        (parity..=255)
                            .step_by(2)
                            .for_each(|y| check_front_alpha(copy, y))
                    });
                }
            });
        }
    }

    /// The 2¹⁶ merges of [`over_kernel_equivalence`] whose front alpha is
    /// `y`, in compiled copy `copy`.
    fn check_front_alpha(copy: KernelCopy, y: u8) {
        let n = 1 << 16;
        let (front, back): (Vec<_>, Vec<_>) = (0..n)
            .map(|k| {
                let (x, z) = ((k >> 8) as u8, k as u8);
                (GrayAlpha8::new(x, y), GrayAlpha8::new(z, x.wrapping_add(z)))
            })
            .unzip();
        let want: Vec<GrayAlpha8> = front.iter().zip(&back).map(|(f, b)| f.over(b)).collect();
        for (dir_front, wire) in [(true, true), (false, true), (true, false), (false, false)] {
            let (source, mut dst) = if dir_front {
                (&front, back.clone())
            } else {
                (&back, front.clone())
            };
            // Running counts of the definitions: `sums[k]` covers pixels
            // `..k` as (blank, opaque).
            let mut sums = vec![(0, 0); n + 1];
            for (k, (s, d)) in source.iter().zip(&dst).enumerate() {
                let opaque = if dir_front {
                    s.a == 255
                } else {
                    !s.is_blank() && d.a == 255
                };
                let (b, o) = sums[k];
                sums[k + 1] = (b + s.is_blank() as usize, o + opaque as usize);
            }
            let bytes = crate::pixel::pixels_to_bytes(source);
            let (mut at, mut len) = (0, 1);
            while at < n {
                let end = (at + len).min(n);
                let (dst, front) = (&mut dst[at..end], dir_front);
                let got = copy.run(match wire {
                    true => Ga8::OverBytes {
                        front,
                        dst,
                        src: &bytes[2 * at..2 * end],
                    },
                    false => Ga8::OverPixels {
                        front,
                        dst,
                        src: &source[at..end],
                    },
                });
                let blank = sums[end].0 - sums[at].0;
                let want_stats = OverStats {
                    non_blank: end - at - blank,
                    blank_skipped: blank,
                    opaque_fast: sums[end].1 - sums[at].1,
                };
                assert_eq!(
                    got,
                    want_stats,
                    "{} copy: y {y}, front {dir_front}, wire {wire}, pixels {at}..{end}",
                    copy.name()
                );
                (at, len) = (end, len % 47 + 1);
            }
            if let Some(k) = (0..n).find(|&k| dst[k] != want[k]) {
                panic!(
                    "{} copy: front {dir_front}, wire {wire}: {:?} over {:?} gave {:?}, want {:?}",
                    copy.name(),
                    front[k],
                    back[k],
                    dst[k],
                    want[k]
                );
            }
        }
    }

    /// The unpack kernel in each compiled copy against the front merge onto
    /// a blank destination in the same copy — what the codecs' `decode_into`
    /// is held to against `decode_over(Front)` — and its counters against
    /// their definitions: every 8-bit pixel once, by alpha then value (so
    /// each alpha's 256 pixels hold one of value 255), cut into pieces of 1
    /// to 47 pixels so the vectorised loop's whole vectors and its scalar
    /// remainder both run at every offset. Fails on an unpack that counts
    /// `opaque` from the value byte, or that leaves the pixels past its last
    /// whole vector unwritten.
    #[test]
    fn unpack_kernel_equivalence() {
        let n = 1 << 16;
        let source: Vec<GrayAlpha8> = (0..n)
            .map(|k| GrayAlpha8::new(k as u8, (k >> 8) as u8))
            .collect();
        let bytes = crate::pixel::pixels_to_bytes(&source);
        for copy in copies() {
            let (mut unpacked, mut merged) =
                (vec![GrayAlpha8::blank(); n], vec![GrayAlpha8::blank(); n]);
            let (mut at, mut len) = (0, 1);
            while at < n {
                let end = (at + len).min(n);
                let src = &bytes[2 * at..2 * end];
                let got = copy.run(Ga8::Unpack {
                    dst: &mut unpacked[at..end],
                    src,
                });
                let front = true;
                let dst = &mut merged[at..end];
                let want = copy.run(Ga8::OverBytes { front, dst, src });
                let piece = &source[at..end];
                let blank = piece.iter().filter(|p| p.is_blank()).count();
                let defined = OverStats {
                    non_blank: piece.len() - blank,
                    blank_skipped: blank,
                    opaque_fast: piece.iter().filter(|p| p.a == 255).count(),
                };
                let what = format!("{} copy, pixels {at}..{end}", copy.name());
                assert_eq!(got, want, "{what}: against the front merge");
                assert_eq!(got, defined, "{what}: against the definitions");
                (at, len) = (end, len % 47 + 1);
            }
            let merged_onto_blank: Vec<GrayAlpha8> = source
                .iter()
                .map(|s| s.over(&GrayAlpha8::blank()))
                .collect();
            assert_eq!(
                merged,
                merged_onto_blank,
                "{} copy: front merge",
                copy.name()
            );
            if let Some(k) = (0..n).find(|&k| unpacked[k] != merged[k]) {
                panic!(
                    "{} copy: pixel {k}: unpacked {:?}, merged onto blank {:?}",
                    copy.name(),
                    unpacked[k],
                    merged[k]
                );
            }
        }
    }

    /// The `f32` channel values of [`f32_kernel_equivalence`]: both zeros,
    /// subnormals of either sign, NaNs with payloads and signs, ±∞, the
    /// alphas outside `[0, 1]` (`a > 1` makes `1 − a` negative, so `t · +0`
    /// is `−0`) and ordinary values.
    fn f32_values() -> Vec<f32> {
        let bits = [
            0x0000_0001,
            0x8000_0001,
            0x007F_FFFF,
            0x7FC0_0001,
            0xFFC0_1234,
            0x7F80_0001,
        ];
        let mut values = vec![0.0, -0.0, 0.25, 0.5, 1.0, -0.5, 1.5, 3.0, f32::MAX];
        values.extend([f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE / 2.0]);
        values.extend(bits.map(f32::from_bits));
        values
    }

    /// Every pixel over [`f32_values`] in both channels: `(0, x)`, `(x, 0)`,
    /// `(±0, ±0)` and the rest.
    fn f32_pixels() -> Vec<GrayAlpha> {
        let values = f32_values();
        let pixels = values
            .iter()
            .flat_map(|&v| values.iter().map(move |&a| GrayAlpha::new(v, a)));
        pixels.collect()
    }

    /// A pixel as its bits, so `−0.0` and NaN payloads compare.
    fn f32_bits(p: &GrayAlpha) -> [u32; 2] {
        [p.v.to_bits(), p.a.to_bits()]
    }

    /// [`GrayAlpha`]'s span kernels in each compiled copy against the
    /// per-pixel defaults they override ([`over_each`](crate::pixel::over_each)
    /// with `over`, kept as the oracle), bit for bit and all three counters:
    /// every pixel of [`f32_pixels`] merged with every other, in front and
    /// behind, from the wire stream and from a pixel slice, and every pixel
    /// unpacked onto blank, cut into pieces of 1 to 47 pixels so lanes fall
    /// in whole chunks and in the tail at every offset. Then the blank scan
    /// against the per-pixel test: each pixel alone among `+0` and `−0`
    /// blanks at every offset of slices of 0 to 40 pixels. Every NaN the
    /// kernels write is [`CANONICAL_NAN`](crate::pixel::CANONICAL_NAN), and
    /// some merges write one. Fails on a kernel
    /// that counts blank by `a == 0.0` alone, skips a blank source pixel
    /// (`+0` over `−0` is `+0`), or unpacks by copying.
    #[test]
    fn f32_kernel_equivalence() {
        use crate::pixel::over_each;
        let pixels = f32_pixels();
        let n = pixels.len() * pixels.len();
        let (fronts, backs): (Vec<_>, Vec<_>) = (0..n)
            .map(|k| (pixels[k / pixels.len()], pixels[k % pixels.len()]))
            .unzip();
        let bytes = crate::pixel::pixels_to_bytes(&fronts);
        // `Some(front)`: a merge; `None`: the unpack onto blank (the trait's,
        // in the widest copy).
        let oracle = |dir: Option<bool>, dst: &mut [GrayAlpha], src: &[GrayAlpha]| {
            let src = src.iter().copied().map(Ok);
            match dir {
                Some(false) => over_each(dst, src, |s, d| d.over(s)),
                _ => over_each(dst, src, |s, d| s.over(d)),
            }
            .unwrap()
        };
        let cases = [
            (Some(true), true),
            (Some(false), true),
            (Some(true), false),
            (Some(false), false),
            (None, true),
        ];
        for copy in copies() {
            for (dir, wire) in cases {
                let start = match dir {
                    Some(_) => backs.clone(),
                    None => vec![GrayAlpha::blank(); n],
                };
                let (mut got, mut want) = (start.clone(), start);
                let (mut at, mut len) = (0, 1);
                while at < n {
                    let end = (at + len).min(n);
                    let (dst, src) = (&mut got[at..end], &bytes[8 * at..8 * end]);
                    let stats = match (dir, wire) {
                        (None, _) => GrayAlpha::unpack_bytes(dst, src).unwrap(),
                        (Some(front), true) => copy.run(Ga::OverBytes { front, dst, src }),
                        (Some(front), false) => {
                            let src = &fronts[at..end];
                            copy.run(Ga::OverPixels { front, dst, src })
                        }
                    };
                    let want_stats = oracle(dir, &mut want[at..end], &fronts[at..end]);
                    let what = format!(
                        "{} copy, {dir:?}, wire {wire}, pixels {at}..{end}",
                        copy.name()
                    );
                    assert_eq!(stats, want_stats, "{what}");
                    (at, len) = (end, len % 47 + 1);
                }
                let back = |k: usize| match dir {
                    Some(_) => backs[k],
                    None => GrayAlpha::blank(),
                };
                if let Some(k) = (0..n).find(|&k| f32_bits(&got[k]) != f32_bits(&want[k])) {
                    panic!(
                        "{} copy, {dir:?}, wire {wire}: {:?} and {:?} gave bits {:x?}, want {:x?}",
                        copy.name(),
                        fronts[k],
                        back(k),
                        f32_bits(&got[k]),
                        f32_bits(&want[k])
                    );
                }
                let canonical = crate::pixel::CANONICAL_NAN.to_bits();
                let nans = got.iter().flat_map(f32_bits);
                let nans = nans.filter(|&b| f32::from_bits(b).is_nan());
                let stray = nans.clone().find(|&b| b != canonical);
                let what = format!("{} copy, {dir:?}, wire {wire}", copy.name());
                assert!(nans.count() > 0, "{what}: no NaN");
                assert_eq!(stray, None, "{what}: a NaN that is not the canonical one");
            }
        }
        // Blanks of every sign pattern around one pixel of each kind.
        let zeros = [
            GrayAlpha::new(0.0, 0.0),
            GrayAlpha::new(-0.0, 0.0),
            GrayAlpha::new(0.0, -0.0),
            GrayAlpha::new(-0.0, -0.0),
        ];
        for len in 0..=40 {
            let mut slice: Vec<GrayAlpha> = (0..len).map(|k| zeros[k % 4]).collect();
            assert!(!GrayAlpha::any_non_blank(&slice), "len {len}");
            for at in 0..len {
                for &lone in &pixels {
                    let blank = std::mem::replace(&mut slice[at], lone);
                    let want = slice.iter().any(|px| !px.is_blank());
                    assert_eq!(
                        GrayAlpha::any_non_blank(&slice),
                        want,
                        "len {len}, {lone:?} at {at}"
                    );
                    slice[at] = blank;
                }
            }
        }
    }

    /// µs per call of the front merge and of the unpack, in each compiled
    /// copy, over a dense 64 K-pixel stream (no pixel blank, so no word
    /// skip): the numbers EXPERIMENTS.md's E34 reports. Timing only, so
    /// ignored by default: `cargo test --release -p rt-imaging
    /// span_kernel_timings -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn span_kernel_timings() {
        let n = 1 << 16;
        let pixel = |k: usize, salt: usize| {
            let x = (k ^ salt).wrapping_mul(0x9E37_79B9) >> 8;
            GrayAlpha8::new(x as u8 | 1, (x >> 8) as u8)
        };
        let src: Vec<GrayAlpha8> = (0..n).map(|k| pixel(k, 0)).collect();
        let back: Vec<GrayAlpha8> = (0..n).map(|k| pixel(k, 0x5A5A)).collect();
        let bytes = crate::pixel::pixels_to_bytes(&src);
        let best_of = |f: &mut dyn FnMut()| {
            (0..200)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e6
                })
                .fold(f64::INFINITY, f64::min)
        };
        for copy in copies() {
            let mut dst = back.clone();
            let over = best_of(&mut || {
                dst.copy_from_slice(&back);
                let (front, dst) = (true, &mut dst[..]);
                std::hint::black_box(copy.run(Ga8::OverBytes {
                    front,
                    dst,
                    src: &bytes,
                }));
            });
            let copy_only = best_of(&mut || dst.copy_from_slice(&back));
            let unpack = best_of(&mut || {
                std::hint::black_box(copy.run(Ga8::Unpack {
                    dst: &mut dst,
                    src: &bytes,
                }));
            });
            println!(
                "{} copy, dense 64 K pixels: over_front_bytes {:.1} µs, unpack {unpack:.1} µs",
                copy.name(),
                over - copy_only,
            );
        }
    }

    #[test]
    fn zero_prefix_finds_a_lone_byte_at_every_offset() {
        // Runs long enough for the sixty-four-byte skip, ending at every
        // offset of a block, a word and the tail (the proptest below
        // rarely draws a zero run past its first word).
        for len in 0..=300 {
            for at in 0..=len {
                let mut bytes = vec![0u8; len];
                if let Some(b) = bytes.get_mut(at) {
                    *b = 0x80;
                }
                assert_eq!(zero_prefix(&bytes), at, "len {len}");
            }
        }
    }

    /// The per-pixel reference of [`GrayAlpha8`]'s blank scan.
    fn any_non_blank_oracle(pixels: &[GrayAlpha8]) -> bool {
        pixels.iter().any(|px| !px.is_blank())
    }

    /// The word-wise blank scan against the per-pixel test: a lone non-zero
    /// value byte, then a lone non-zero alpha byte, at every offset of every
    /// length 0..=80 (whole chunks, tails and both), and no content at all.
    /// A scan that reads only one of the two bytes fails it.
    #[test]
    fn blank_scan_kernel_equivalence() {
        for len in 0..=80 {
            let blank = vec![GrayAlpha8::blank(); len];
            assert!(!GrayAlpha8::any_non_blank(&blank), "len {len}");
            for at in 0..len {
                for lone in [GrayAlpha8::new(1, 0), GrayAlpha8::new(0, 0x80)] {
                    let mut pixels = blank.clone();
                    pixels[at] = lone;
                    let want = any_non_blank_oracle(&pixels);
                    assert!(want);
                    assert_eq!(
                        GrayAlpha8::any_non_blank(&pixels),
                        want,
                        "len {len}, {lone:?} at {at}"
                    );
                    // Every suffix starting past the content is blank.
                    assert!(!GrayAlpha8::any_non_blank(&pixels[at + 1..]));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn blank_scan_matches_per_pixel(
            bytes in proptest::collection::vec(prop_oneof![31 => Just(0u8), 1 => any::<u8>()], 0..160),
        ) {
            let pixels: Vec<GrayAlpha8> =
                bytes.chunks_exact(2).map(|b| GrayAlpha8::new(b[0], b[1])).collect();
            for start in [0, pixels.len() / 3, pixels.len() / 2] {
                let slice = &pixels[start..];
                prop_assert_eq!(GrayAlpha8::any_non_blank(slice), any_non_blank_oracle(slice));
            }
        }

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
    }
}
