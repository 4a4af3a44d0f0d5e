//! Pixel types and the Porter–Duff **over** operator.
//!
//! Image composition for volume rendering combines *depth-ordered* partial
//! images with the non-commutative, associative `over` operator
//! (Porter & Duff, SIGGRAPH'84). All color types here store **premultiplied
//! alpha**, for which `over` is simply
//!
//! ```text
//! out.color = front.color + (1 - front.alpha) * back.color
//! out.alpha = front.alpha + (1 - front.alpha) * back.alpha
//! ```
//!
//! Four pixel types are provided:
//!
//! * [`GrayAlpha`] — `f32` luminance + alpha, the workhorse of the paper's
//!   grayscale 512×512 frames;
//! * [`Rgba`] — `f32` RGBA, the color pixel of the `color_matrix` tests;
//! * [`GrayAlpha8`] — 8-bit fixed-point gray+alpha, matching the wire format
//!   a 2001-era renderer would actually ship (and what TRLE compresses best);
//! * [`Provenance`] — an *exact* algebraic pixel used by tests: it records
//!   which contiguous range of depth ranks has been composited and poisons
//!   itself on any out-of-order merge. Composition algorithms are proven
//!   correct by running them over `Provenance` images.

use crate::kernels::{self, mul255};
use crate::ImagingError;

/// Statistics returned by the byte-level composition kernels
/// ([`Pixel::over_front_bytes`] / [`Pixel::over_back_bytes`] and the codec
/// `decode_over` kernels built on them).
///
/// Every source pixel is either *blank* (the identity of `over`, counted in
/// [`OverStats::blank_skipped`]) or *non-blank* (counted in
/// [`OverStats::non_blank`]), so
/// `non_blank + blank_skipped == source pixel count` always holds.
/// [`OverStats::opaque_fast`] additionally counts non-blank merges that a
/// fused kernel resolved through an opacity shortcut; reference
/// (decode-then-`over`) paths report `0` there, and equivalence tests must
/// therefore only compare the first two fields.
///
/// ```
/// use rt_imaging::pixel::OverStats;
/// let mut total = OverStats::default();
/// total += OverStats { non_blank: 3, blank_skipped: 5, opaque_fast: 1 };
/// total += OverStats { non_blank: 2, blank_skipped: 0, opaque_fast: 2 };
/// assert_eq!(total.non_blank, 5);
/// assert_eq!(total.source_pixels(), 10);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverStats {
    /// Non-blank source pixels merged (the structured codecs' `Over` cost
    /// unit).
    pub non_blank: usize,
    /// Blank source pixels that contributed nothing (skipped outright by
    /// the fused kernels; walked but identity for reference paths).
    pub blank_skipped: usize,
    /// Non-blank merges short-circuited by an opacity fast path (an opaque
    /// front pixel replacing the destination, or an opaque destination
    /// hiding a behind-merge). Zero on reference paths.
    pub opaque_fast: usize,
}

impl OverStats {
    /// Stats for a single non-blank merge with no fast path.
    #[inline]
    pub fn one_non_blank() -> Self {
        Self {
            non_blank: 1,
            ..Self::default()
        }
    }

    /// Total source pixels walked: `non_blank + blank_skipped`.
    #[inline]
    pub fn source_pixels(&self) -> usize {
        self.non_blank + self.blank_skipped
    }
}

impl std::ops::AddAssign for OverStats {
    fn add_assign(&mut self, rhs: Self) {
        self.non_blank += rhs.non_blank;
        self.blank_skipped += rhs.blank_skipped;
        self.opaque_fast += rhs.opaque_fast;
    }
}

impl std::ops::Add for OverStats {
    type Output = Self;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

/// A composable pixel.
///
/// `over` must satisfy, for all pixels `a`, `b`, `c` (exactly for
/// [`Provenance`], within floating-point tolerance for the numeric types):
///
/// * associativity: `a.over(b.over(c)) == (a.over(b)).over(c)`;
/// * identity: `blank().over(a) == a == a.over(blank())`.
pub trait Pixel: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Exact number of bytes produced by [`Pixel::write_bytes`].
    const BYTES: usize;

    /// True iff the wire encoding maps blankness to the all-zero byte
    /// pattern **exactly both ways**: every blank pixel writes
    /// [`Pixel::BYTES`] zero bytes, and all-zero bytes decode to a blank
    /// pixel. Only then may byte-level kernels treat zero words as blank
    /// runs. False for the `f32` types (`-0.0` is blank with non-zero
    /// bytes) and for [`Provenance`] (`lo == hi != 0` is blank but not
    /// zero), true for the fixed-point wire types.
    const BLANK_IS_ZERO_BYTES: bool = false;

    /// The fully transparent pixel (identity of `over`).
    fn blank() -> Self;

    /// True if this pixel is the identity (carries no contribution).
    fn is_blank(&self) -> bool;

    /// Porter–Duff *over*: `self` is in **front** of `back`.
    fn over(&self, back: &Self) -> Self;

    /// Append exactly [`Pixel::BYTES`] bytes encoding this pixel.
    fn write_bytes(&self, out: &mut Vec<u8>);

    /// Append the wire encoding of a whole pixel slice. Must be equivalent
    /// to calling [`Pixel::write_bytes`] per pixel; the fixed-point types
    /// override it with a bulk store, since per-pixel `Vec` pushes dominate
    /// the encode cost of large raw messages.
    fn extend_wire_bytes(pixels: &[Self], out: &mut Vec<u8>) {
        out.reserve(pixels.len() * Self::BYTES);
        for p in pixels {
            p.write_bytes(out);
        }
    }

    /// Decode a pixel from exactly [`Pixel::BYTES`] bytes.
    fn read_bytes(bytes: &[u8]) -> Result<Self, ImagingError>;

    /// Approximate equality with absolute tolerance `tol` per channel.
    ///
    /// Exact types ignore `tol`.
    fn approx_eq(&self, other: &Self, tol: f64) -> bool;

    /// Composite a wire-format pixel stream **in front of** `dst`, in place
    /// (`dst[i] = src[i] over dst[i]`), returning [`OverStats`] over the
    /// source pixels. `src` must hold exactly `dst.len() * BYTES` bytes.
    ///
    /// The default decodes pixel by pixel via [`Pixel::read_bytes`];
    /// [`GrayAlpha8`] overrides it with a fused byte-level kernel that
    /// never materializes an intermediate pixel. An override must leave
    /// `dst` bit-identical to this default (decode-then-`over`) and report
    /// the same `non_blank` / `blank_skipped` counts; only
    /// [`OverStats::opaque_fast`] may differ.
    fn over_front_bytes(dst: &mut [Self], src: &[u8]) -> Result<OverStats, ImagingError> {
        over_decoded_bytes("Pixel::over_front_bytes", dst, src, |s, d| s.over(d))
    }

    /// Composite a wire-format pixel stream **behind** `dst`, in place
    /// (`dst[i] = dst[i] over src[i]`), returning [`OverStats`] over the
    /// source pixels. Same contract as [`Pixel::over_front_bytes`].
    fn over_back_bytes(dst: &mut [Self], src: &[u8]) -> Result<OverStats, ImagingError> {
        over_decoded_bytes("Pixel::over_back_bytes", dst, src, |s, d| d.over(s))
    }
}

/// The one length check of the byte kernels: `src` must hold exactly
/// `dst.len()` wire pixels.
fn check_wire_len<P: Pixel>(what: &'static str, dst: &[P], src: &[u8]) -> Result<(), ImagingError> {
    if src.len() != dst.len() * P::BYTES {
        return Err(ImagingError::ShapeMismatch {
            what,
            lhs: dst.len() * P::BYTES,
            rhs: src.len(),
        });
    }
    Ok(())
}

/// Decode-then-`over`, the reference semantics of the byte kernels:
/// `merge(stream pixel, destination pixel)` replaces the destination.
fn over_decoded_bytes<P: Pixel>(
    what: &'static str,
    dst: &mut [P],
    src: &[u8],
    merge: impl Fn(&P, &P) -> P,
) -> Result<OverStats, ImagingError> {
    check_wire_len(what, dst, src)?;
    let mut stats = OverStats::default();
    for (d, chunk) in dst.iter_mut().zip(src.chunks_exact(P::BYTES)) {
        let s = P::read_bytes(chunk)?;
        if !s.is_blank() {
            stats.non_blank += 1;
        } else {
            stats.blank_skipped += 1;
        }
        *d = merge(&s, d);
    }
    Ok(stats)
}

fn f32_from(bytes: &[u8], at: usize) -> f32 {
    f32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Premultiplied grayscale pixel: luminance `v` and coverage `a`, both in
/// `[0, 1]` with `v <= a` for physically meaningful pixels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GrayAlpha {
    /// Premultiplied luminance.
    pub v: f32,
    /// Alpha (opacity / coverage).
    pub a: f32,
}

impl GrayAlpha {
    /// Construct from premultiplied luminance and alpha.
    #[inline]
    pub fn new(v: f32, a: f32) -> Self {
        Self { v, a }
    }

    /// Construct an opaque gray pixel of luminance `v`.
    #[inline]
    pub fn opaque(v: f32) -> Self {
        Self { v, a: 1.0 }
    }

    /// Non-premultiplied ("straight") luminance, `0` if fully transparent.
    #[inline]
    pub fn straight(&self) -> f32 {
        if self.a <= f32::EPSILON {
            0.0
        } else {
            self.v / self.a
        }
    }

    /// Quantize to an 8-bit display value (luminance against black).
    #[inline]
    pub fn to_u8(&self) -> u8 {
        (self.v.clamp(0.0, 1.0) * 255.0).round() as u8
    }
}

impl Pixel for GrayAlpha {
    const BYTES: usize = 8;

    #[inline]
    fn blank() -> Self {
        Self { v: 0.0, a: 0.0 }
    }

    #[inline]
    fn is_blank(&self) -> bool {
        self.a == 0.0 && self.v == 0.0
    }

    #[inline]
    fn over(&self, back: &Self) -> Self {
        let t = 1.0 - self.a;
        Self {
            v: self.v + t * back.v,
            a: self.a + t * back.a,
        }
    }

    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.v.to_le_bytes());
        out.extend_from_slice(&self.a.to_le_bytes());
    }

    fn read_bytes(bytes: &[u8]) -> Result<Self, ImagingError> {
        if bytes.len() < Self::BYTES {
            return Err(ImagingError::BadEncoding {
                what: "GrayAlpha needs 8 bytes",
            });
        }
        Ok(Self {
            v: f32_from(bytes, 0),
            a: f32_from(bytes, 4),
        })
    }

    #[inline]
    fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        ((self.v - other.v).abs() as f64) <= tol && ((self.a - other.a).abs() as f64) <= tol
    }
}

/// Premultiplied RGBA pixel with `f32` channels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rgba {
    /// Premultiplied red.
    pub r: f32,
    /// Premultiplied green.
    pub g: f32,
    /// Premultiplied blue.
    pub b: f32,
    /// Alpha.
    pub a: f32,
}

impl Rgba {
    /// Construct from premultiplied channels.
    #[inline]
    pub fn new(r: f32, g: f32, b: f32, a: f32) -> Self {
        Self { r, g, b, a }
    }
}

impl Pixel for Rgba {
    const BYTES: usize = 16;

    #[inline]
    fn blank() -> Self {
        Self::default()
    }

    #[inline]
    fn is_blank(&self) -> bool {
        self.a == 0.0 && self.r == 0.0 && self.g == 0.0 && self.b == 0.0
    }

    #[inline]
    fn over(&self, back: &Self) -> Self {
        let t = 1.0 - self.a;
        Self {
            r: self.r + t * back.r,
            g: self.g + t * back.g,
            b: self.b + t * back.b,
            a: self.a + t * back.a,
        }
    }

    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.r.to_le_bytes());
        out.extend_from_slice(&self.g.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.a.to_le_bytes());
    }

    fn read_bytes(bytes: &[u8]) -> Result<Self, ImagingError> {
        if bytes.len() < Self::BYTES {
            return Err(ImagingError::BadEncoding {
                what: "Rgba needs 16 bytes",
            });
        }
        Ok(Self {
            r: f32_from(bytes, 0),
            g: f32_from(bytes, 4),
            b: f32_from(bytes, 8),
            a: f32_from(bytes, 12),
        })
    }

    #[inline]
    fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        ((self.r - other.r).abs() as f64) <= tol
            && ((self.g - other.g).abs() as f64) <= tol
            && ((self.b - other.b).abs() as f64) <= tol
            && ((self.a - other.a).abs() as f64) <= tol
    }
}

/// 8-bit fixed-point premultiplied gray+alpha pixel (2 bytes on the wire).
///
/// This is the format the paper's SP2 implementation would actually ship and
/// the one the TRLE/RLE codecs were designed around: grayscale frames whose
/// blank regions are exactly `(0, 0)`.
///
/// The `over` operator uses round-to-nearest fixed-point arithmetic
/// (`x*y ≈ (x*y + 127) / 255`). It is *not* exactly associative (quantization
/// error up to 1 ulp per merge), which is why correctness tests use
/// [`Provenance`] and numeric comparisons use tolerances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GrayAlpha8 {
    /// Premultiplied luminance in `[0, 255]`.
    pub v: u8,
    /// Alpha in `[0, 255]`.
    pub a: u8,
}

impl GrayAlpha8 {
    /// Construct from premultiplied 8-bit luminance and alpha.
    #[inline]
    pub fn new(v: u8, a: u8) -> Self {
        Self { v, a }
    }

    /// Lossy conversion from the `f32` pixel.
    #[inline]
    pub fn from_f32(p: GrayAlpha) -> Self {
        Self {
            v: (p.v.clamp(0.0, 1.0) * 255.0).round() as u8,
            a: (p.a.clamp(0.0, 1.0) * 255.0).round() as u8,
        }
    }

    /// Widening conversion to the `f32` pixel.
    #[inline]
    pub fn to_f32(self) -> GrayAlpha {
        GrayAlpha {
            v: self.v as f32 / 255.0,
            a: self.a as f32 / 255.0,
        }
    }
}

impl Pixel for GrayAlpha8 {
    const BYTES: usize = 2;
    const BLANK_IS_ZERO_BYTES: bool = true;

    #[inline]
    fn blank() -> Self {
        Self { v: 0, a: 0 }
    }

    #[inline]
    fn is_blank(&self) -> bool {
        self.v == 0 && self.a == 0
    }

    #[inline]
    fn over(&self, back: &Self) -> Self {
        let t = 255 - self.a as u16;
        Self {
            v: (self.v as u16 + mul255(t, back.v as u16)).min(255) as u8,
            a: (self.a as u16 + mul255(t, back.a as u16)).min(255) as u8,
        }
    }

    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.push(self.v);
        out.push(self.a);
    }

    fn read_bytes(bytes: &[u8]) -> Result<Self, ImagingError> {
        if bytes.len() < Self::BYTES {
            return Err(ImagingError::BadEncoding {
                what: "GrayAlpha8 needs 2 bytes",
            });
        }
        Ok(Self {
            v: bytes[0],
            a: bytes[1],
        })
    }

    fn extend_wire_bytes(pixels: &[Self], out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + pixels.len() * 2, 0);
        for (pair, p) in out[start..].chunks_exact_mut(2).zip(pixels) {
            pair[0] = p.v;
            pair[1] = p.a;
        }
    }

    #[inline]
    fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        ((self.v as f64 - other.v as f64).abs()) <= tol * 255.0
            && ((self.a as f64 - other.a as f64).abs()) <= tol * 255.0
    }

    // Fused byte-level kernels: the wire format IS the pixel layout
    // (`[v, a]`), so the stream is composited without decoding, with the
    // same `mul255` arithmetic as `over` plus blank/opaque shortcuts that
    // are exact identities of it (`mul255(255, x) = x`, `mul255(0, x) = 0`);
    // blank runs are scanned a word at a time.
    fn over_front_bytes(dst: &mut [Self], src: &[u8]) -> Result<OverStats, ImagingError> {
        check_wire_len("Pixel::over_front_bytes", dst, src)?;
        Ok(kernels::ga8_over_front(dst, src))
    }

    fn over_back_bytes(dst: &mut [Self], src: &[u8]) -> Result<OverStats, ImagingError> {
        check_wire_len("Pixel::over_back_bytes", dst, src)?;
        Ok(kernels::ga8_over_back(dst, src))
    }
}

/// Exact algebraic pixel recording *which depth ranks* have been composited.
///
/// A valid non-blank `Provenance` pixel holds a half-open contiguous rank
/// range `[lo, hi)`. `front.over(back)` succeeds exactly when
/// `front.hi == back.lo` (the merge is depth-adjacent and in order), yielding
/// `[front.lo, back.hi)`; any other combination yields the poisoned
/// [`Provenance::INVALID`] value, which propagates through further merges.
///
/// Running a composition algorithm over a `Provenance` image where rank `r`
/// starts with `[r, r+1)` everywhere therefore proves, pixel by pixel, that
/// the algorithm composites **every** contribution **exactly once** and **in
/// depth order** — the full correctness condition for sort-last compositing
/// with a non-commutative operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Inclusive start of the composited rank range.
    pub lo: u16,
    /// Exclusive end of the composited rank range. `lo == hi` means blank.
    pub hi: u16,
}

impl Provenance {
    /// The poisoned value produced by an out-of-order merge.
    pub const INVALID: Self = Self {
        lo: u16::MAX,
        hi: u16::MAX,
    };

    /// The single-rank contribution `[rank, rank+1)`.
    #[inline]
    pub fn rank(rank: u16) -> Self {
        Self {
            lo: rank,
            hi: rank + 1,
        }
    }

    /// The fully-composited range `[0, p)`.
    #[inline]
    pub fn complete(p: u16) -> Self {
        Self { lo: 0, hi: p }
    }

    /// True if this pixel was poisoned by an out-of-order merge.
    #[inline]
    pub fn is_invalid(&self) -> bool {
        *self == Self::INVALID
    }
}

impl Pixel for Provenance {
    const BYTES: usize = 4;

    #[inline]
    fn blank() -> Self {
        Self { lo: 0, hi: 0 }
    }

    #[inline]
    fn is_blank(&self) -> bool {
        self.lo == self.hi && !self.is_invalid()
    }

    #[inline]
    fn over(&self, back: &Self) -> Self {
        if self.is_invalid() || back.is_invalid() {
            return Self::INVALID;
        }
        if self.is_blank() {
            return *back;
        }
        if back.is_blank() {
            return *self;
        }
        if self.hi == back.lo {
            Self {
                lo: self.lo,
                hi: back.hi,
            }
        } else {
            Self::INVALID
        }
    }

    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.lo.to_le_bytes());
        out.extend_from_slice(&self.hi.to_le_bytes());
    }

    fn read_bytes(bytes: &[u8]) -> Result<Self, ImagingError> {
        if bytes.len() < Self::BYTES {
            return Err(ImagingError::BadEncoding {
                what: "Provenance needs 4 bytes",
            });
        }
        Ok(Self {
            lo: u16::from_le_bytes([bytes[0], bytes[1]]),
            hi: u16::from_le_bytes([bytes[2], bytes[3]]),
        })
    }

    #[inline]
    fn approx_eq(&self, other: &Self, _tol: f64) -> bool {
        self == other
    }
}

/// Encode a pixel slice into a fresh byte vector (`pixels.len() * P::BYTES`).
pub fn pixels_to_bytes<P: Pixel>(pixels: &[P]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pixels.len() * P::BYTES);
    P::extend_wire_bytes(pixels, &mut out);
    out
}

/// Decode a byte buffer produced by [`pixels_to_bytes`].
pub fn pixels_from_bytes<P: Pixel>(bytes: &[u8]) -> Result<Vec<P>, ImagingError> {
    if !bytes.len().is_multiple_of(P::BYTES) {
        return Err(ImagingError::BadEncoding {
            what: "byte length is not a multiple of the pixel size",
        });
    }
    let mut out = Vec::with_capacity(bytes.len() / P::BYTES);
    for chunk in bytes.chunks_exact(P::BYTES) {
        out.push(P::read_bytes(chunk)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ga(v: f32, a: f32) -> GrayAlpha {
        GrayAlpha::new(v, a)
    }

    #[test]
    fn over_identity_blank() {
        let p = ga(0.3, 0.5);
        assert_eq!(GrayAlpha::blank().over(&p), p);
        assert_eq!(p.over(&GrayAlpha::blank()), p);
    }

    #[test]
    fn over_opaque_front_wins() {
        let front = GrayAlpha::opaque(0.8);
        let back = ga(0.2, 0.9);
        assert_eq!(front.over(&back), front);
    }

    #[test]
    fn over_is_not_commutative() {
        let a = ga(0.5, 0.5);
        let b = ga(0.1, 0.9);
        assert_ne!(a.over(&b), b.over(&a));
    }

    #[test]
    fn gray8_over_matches_float_within_quantization() {
        let a = GrayAlpha8::new(100, 128);
        let b = GrayAlpha8::new(30, 200);
        let fixed = a.over(&b).to_f32();
        let float = a.to_f32().over(&b.to_f32());
        assert!(
            fixed.approx_eq(&float, 1.5 / 255.0),
            "{fixed:?} vs {float:?}"
        );
    }

    #[test]
    fn provenance_ordered_merge() {
        let p01 = Provenance::rank(0).over(&Provenance::rank(1));
        assert_eq!(p01, Provenance { lo: 0, hi: 2 });
        let p = p01.over(&Provenance::rank(2));
        assert_eq!(p, Provenance::complete(3));
        assert!(!p.is_invalid());
    }

    #[test]
    fn provenance_out_of_order_merge_poisons() {
        let bad = Provenance::rank(0).over(&Provenance::rank(2));
        assert!(bad.is_invalid());
        // The poison propagates through later, otherwise-legal merges.
        assert!(bad.over(&Provenance::rank(3)).is_invalid());
        assert!(Provenance::rank(1).over(&bad).is_invalid());
    }

    #[test]
    fn provenance_wrong_direction_poisons() {
        // back-to-front application must be caught
        assert!(Provenance::rank(1).over(&Provenance::rank(0)).is_invalid());
    }

    #[test]
    fn roundtrip_bytes_all_types() {
        let g = ga(0.25, 0.75);
        let mut buf = Vec::new();
        g.write_bytes(&mut buf);
        assert_eq!(buf.len(), GrayAlpha::BYTES);
        assert_eq!(GrayAlpha::read_bytes(&buf).unwrap(), g);

        let c = Rgba::new(0.1, 0.2, 0.3, 0.4);
        let mut buf = Vec::new();
        c.write_bytes(&mut buf);
        assert_eq!(Rgba::read_bytes(&buf).unwrap(), c);

        let q = GrayAlpha8::new(17, 200);
        let mut buf = Vec::new();
        q.write_bytes(&mut buf);
        assert_eq!(GrayAlpha8::read_bytes(&buf).unwrap(), q);

        let v = Provenance::rank(7);
        let mut buf = Vec::new();
        v.write_bytes(&mut buf);
        assert_eq!(Provenance::read_bytes(&buf).unwrap(), v);
    }

    #[test]
    fn short_buffers_are_rejected() {
        assert!(GrayAlpha::read_bytes(&[0; 7]).is_err());
        assert!(Rgba::read_bytes(&[0; 15]).is_err());
        assert!(GrayAlpha8::read_bytes(&[0; 1]).is_err());
        assert!(Provenance::read_bytes(&[0; 3]).is_err());
    }

    #[test]
    fn pixel_vec_roundtrip() {
        let pixels = vec![ga(0.0, 0.0), ga(0.5, 0.5), ga(1.0, 1.0)];
        let bytes = pixels_to_bytes(&pixels);
        assert_eq!(bytes.len(), 3 * GrayAlpha::BYTES);
        let back: Vec<GrayAlpha> = pixels_from_bytes(&bytes).unwrap();
        assert_eq!(back, pixels);
    }

    #[test]
    fn pixel_vec_bad_length_rejected() {
        let err = pixels_from_bytes::<GrayAlpha>(&[0u8; 9]);
        assert!(err.is_err());
    }

    prop_compose! {
        fn arb_ga()(a in 0.0f32..=1.0, s in 0.0f32..=1.0) -> GrayAlpha {
            // premultiplied: v <= a
            GrayAlpha::new(a * s, a)
        }
    }

    proptest! {
        #[test]
        fn over_associative_within_tolerance(a in arb_ga(), b in arb_ga(), c in arb_ga()) {
            let left = a.over(&b).over(&c);
            let right = a.over(&b.over(&c));
            prop_assert!(left.approx_eq(&right, 1e-5), "{left:?} vs {right:?}");
        }

        #[test]
        fn over_keeps_premultiplied_invariant(a in arb_ga(), b in arb_ga()) {
            let out = a.over(&b);
            prop_assert!(out.v <= out.a + 1e-6);
            prop_assert!(out.a <= 1.0 + 1e-6);
        }

        #[test]
        fn provenance_chain_of_adjacent_ranks_is_complete(p in 1u16..64) {
            let mut acc = Provenance::blank();
            for r in 0..p {
                acc = acc.over(&Provenance::rank(r));
            }
            prop_assert_eq!(acc, Provenance::complete(p));
        }

        #[test]
        fn provenance_associative(a in 0u16..8, b in 0u16..8, c in 0u16..8) {
            // arbitrary single ranks: both association orders must agree,
            // including in how they poison.
            let (pa, pb, pc) = (Provenance::rank(a), Provenance::rank(b), Provenance::rank(c));
            let left = pa.over(&pb).over(&pc);
            let right = pa.over(&pb.over(&pc));
            prop_assert_eq!(left, right);
        }

        #[test]
        fn gray8_roundtrip(v in 0u8..=255, a in 0u8..=255) {
            let p = GrayAlpha8::new(v, a);
            let mut buf = Vec::new();
            p.write_bytes(&mut buf);
            prop_assert_eq!(GrayAlpha8::read_bytes(&buf).unwrap(), p);
        }

        #[test]
        fn gray8_byte_kernels_match_decode_then_over(
            pairs in proptest::collection::vec(
                (
                    // Mostly-blank sources with opaque spikes, so word-wide
                    // blank runs, all-blank groups inside a span, opaque
                    // pixels and mixed groups all occur.
                    prop_oneof![
                        4 => Just((0u8, 0u8)),
                        2 => (0u8..=255, Just(255u8)),
                        3 => (0u8..=255, 0u8..=255),
                    ],
                    (0u8..=255, 0u8..=255),
                ),
                0..256,
            )
        ) {
            let src: Vec<GrayAlpha8> = pairs.iter().map(|&((v, a), _)| GrayAlpha8::new(v, a)).collect();
            let dst: Vec<GrayAlpha8> = pairs.iter().map(|&(_, (v, a))| GrayAlpha8::new(v, a)).collect();
            let bytes = pixels_to_bytes(&src);

            let mut fused = dst.clone();
            let front = GrayAlpha8::over_front_bytes(&mut fused, &bytes).unwrap();
            let want: Vec<GrayAlpha8> = src.iter().zip(&dst).map(|(f, b)| f.over(b)).collect();
            prop_assert_eq!(&fused, &want);
            prop_assert_eq!(front.non_blank, src.iter().filter(|p| !p.is_blank()).count());
            prop_assert_eq!(front.source_pixels(), src.len());
            prop_assert_eq!(
                front.opaque_fast,
                src.iter().filter(|p| !p.is_blank() && p.a == 255).count()
            );

            let mut fused = dst.clone();
            let back = GrayAlpha8::over_back_bytes(&mut fused, &bytes).unwrap();
            let want: Vec<GrayAlpha8> = src.iter().zip(&dst).map(|(b, f)| f.over(b)).collect();
            prop_assert_eq!(&fused, &want);
            prop_assert_eq!(back.non_blank, front.non_blank);
            prop_assert_eq!(back.blank_skipped, front.blank_skipped);
            prop_assert_eq!(
                back.opaque_fast,
                src.iter().zip(&dst).filter(|(s, d)| !s.is_blank() && d.a == 255).count()
            );
        }
    }

    #[test]
    fn byte_kernels_reject_length_mismatch() {
        let mut dst = vec![GrayAlpha8::blank(); 3];
        assert!(GrayAlpha8::over_front_bytes(&mut dst, &[0u8; 5]).is_err());
        assert!(GrayAlpha8::over_back_bytes(&mut dst, &[0u8; 8]).is_err());
        let mut dst = vec![Provenance::blank(); 2];
        assert!(Provenance::over_front_bytes(&mut dst, &[0u8; 7]).is_err());
    }

    #[test]
    fn default_byte_kernels_work_for_exact_pixels() {
        // Provenance uses the trait defaults: stream rank-1 contributions
        // in front of rank-2 ones and check the algebra composes.
        let src = vec![Provenance::rank(1), Provenance::blank()];
        let bytes = pixels_to_bytes(&src);
        let mut dst = vec![Provenance::rank(2), Provenance::rank(2)];
        let stats = Provenance::over_front_bytes(&mut dst, &bytes).unwrap();
        assert_eq!(stats.non_blank, 1);
        assert_eq!(stats.blank_skipped, 1);
        assert_eq!(stats.opaque_fast, 0);
        assert_eq!(dst, vec![Provenance { lo: 1, hi: 3 }, Provenance::rank(2)]);
    }

    #[test]
    fn byte_kernels_saturate_at_255() {
        // Two near-opaque contributions: channel sums exceed 255 and must
        // clamp exactly like `GrayAlpha8::over`.
        let src = vec![GrayAlpha8::new(250, 200)];
        let bytes = pixels_to_bytes(&src);
        let mut dst = vec![GrayAlpha8::new(250, 200)];
        GrayAlpha8::over_front_bytes(&mut dst, &bytes).unwrap();
        assert_eq!(dst[0], src[0].over(&GrayAlpha8::new(250, 200)));
        assert_eq!(dst[0].v, 255);
    }
}
