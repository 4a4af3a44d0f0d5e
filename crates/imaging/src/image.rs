//! The [`Image`] container, its span access and the sequential reference
//! composite.

use crate::pixel::Pixel;
use crate::span::Span;
use crate::ImagingError;

/// A rectangular image stored as a flat row-major pixel buffer.
///
/// Composition methods treat the buffer as one contiguous sequence of
/// `width * height` pixels addressed by [`Span`]s; the 2-D structure matters
/// only for rendering, bounding rectangles, and file output.
#[derive(Debug, Clone, PartialEq)]
pub struct Image<P: Pixel> {
    width: usize,
    height: usize,
    data: Vec<P>,
}

impl<P: Pixel> Image<P> {
    /// Create a blank (fully transparent) image.
    pub fn blank(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![P::blank(); width * height],
        }
    }

    /// Create an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> P) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Wrap an existing buffer; `data.len()` must equal `width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<P>) -> Result<Self, ImagingError> {
        if data.len() != width * height {
            return Err(ImagingError::ShapeMismatch {
                what: "Image::from_vec",
                lhs: width * height,
                rhs: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count (`width * height`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the image has zero pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat pixel buffer.
    #[inline]
    pub fn pixels(&self) -> &[P] {
        &self.data
    }

    /// Mutable access to the flat pixel buffer.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [P] {
        &mut self.data
    }

    /// Pixel at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> &P {
        &self.data[y * self.width + x]
    }

    /// Set the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, p: P) {
        self.data[y * self.width + x] = p;
    }

    /// Bounds-check a span against this image.
    fn check_span(&self, span: Span) -> Result<(), ImagingError> {
        if span.end() > self.data.len() {
            return Err(ImagingError::SpanOutOfBounds {
                start: span.start,
                len: span.len,
                image_len: self.data.len(),
            });
        }
        Ok(())
    }

    /// Borrow the pixels covered by `span` (spans are contiguous).
    pub fn span_pixels(&self, span: Span) -> Result<&[P], ImagingError> {
        self.check_span(span)?;
        Ok(&self.data[span.range()])
    }

    /// Mutably borrow the pixels covered by `span`, for in-place
    /// composition directly from a wire-format stream.
    pub fn span_pixels_mut(&mut self, span: Span) -> Result<&mut [P], ImagingError> {
        self.check_span(span)?;
        Ok(&mut self.data[span.range()])
    }

    /// Overwrite the pixels covered by `span` with `src`.
    pub fn insert(&mut self, span: Span, src: &[P]) -> Result<(), ImagingError> {
        self.check_span(span)?;
        if src.len() != span.len {
            return Err(ImagingError::ShapeMismatch {
                what: "Image::insert",
                lhs: span.len,
                rhs: src.len(),
            });
        }
        self.data[span.range()].clone_from_slice(src);
        Ok(())
    }

    /// Number of non-blank pixels (drives compression ratios and bounding
    /// rectangles).
    pub fn count_non_blank(&self) -> usize {
        self.data.iter().filter(|p| !p.is_blank()).count()
    }

    /// Per-pixel approximate equality with absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Image<P>, tol: f64) -> bool {
        self.width == other.width
            && self.height == other.height
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(b, tol))
    }

    /// Greatest per-channel absolute difference location, for diagnostics.
    /// Returns `(flat_index, lhs, rhs)` of the first pixel that fails
    /// `approx_eq` at tolerance `tol`, if any.
    pub fn first_mismatch(&self, other: &Image<P>, tol: f64) -> Option<(usize, P, P)> {
        self.data
            .iter()
            .zip(&other.data)
            .enumerate()
            .find(|(_, (a, b))| !a.approx_eq(b, tol))
            .map(|(i, (a, b))| (i, a.clone(), b.clone()))
    }

    /// Apply `f` to every pixel, producing a new image (possibly of a
    /// different pixel type).
    pub fn map<Q: Pixel>(&self, f: impl Fn(&P) -> Q) -> Image<Q> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(f).collect(),
        }
    }
}

/// Sequential reference composition: `partials[0] over partials[1] over ...`,
/// i.e. index 0 is nearest the viewer. Every parallel method must agree with
/// this (exactly for [`crate::pixel::Provenance`], within tolerance for
/// numeric pixels).
pub fn reference_composite<P: Pixel>(partials: &[Image<P>]) -> Result<Image<P>, ImagingError> {
    let first = partials.first().ok_or(ImagingError::ShapeMismatch {
        what: "reference_composite of zero images",
        lhs: 0,
        rhs: 0,
    })?;
    let mut out = Image::blank(first.width(), first.height());
    // Composite back-to-front under the accumulated front image.
    for p in partials {
        out.composite_under(p)?;
    }
    Ok(out)
}

impl<P: Pixel> Image<P> {
    /// Composite an entire equally-shaped image **under** this one
    /// (`self = self over back`).
    pub fn composite_under(&mut self, back: &Image<P>) -> Result<(), ImagingError> {
        if back.width != self.width || back.height != self.height {
            return Err(ImagingError::ShapeMismatch {
                what: "Image::composite_under",
                lhs: self.len(),
                rhs: back.len(),
            });
        }
        for (dst, b) in self.data.iter_mut().zip(&back.data) {
            *dst = dst.over(b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::{GrayAlpha, Provenance};

    #[test]
    fn blank_image_is_blank() {
        let img: Image<GrayAlpha> = Image::blank(4, 3);
        assert_eq!(img.len(), 12);
        assert_eq!(img.count_non_blank(), 0);
    }

    #[test]
    fn from_fn_addresses_row_major() {
        let img = Image::from_fn(3, 2, |x, y| GrayAlpha::opaque((y * 3 + x) as f32));
        assert_eq!(img.get(2, 1).v, 5.0);
        assert_eq!(img.pixels()[5].v, 5.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Image::from_vec(2, 2, vec![GrayAlpha::blank(); 3]).is_err());
        assert!(Image::from_vec(2, 2, vec![GrayAlpha::blank(); 4]).is_ok());
    }

    #[test]
    fn span_pixels_insert_roundtrip() {
        let img = Image::from_fn(4, 4, |x, y| GrayAlpha::opaque((x + y) as f32));
        let span = Span::new(5, 6);
        let pixels = img.span_pixels(span).unwrap();
        let mut img2 = Image::blank(4, 4);
        img2.insert(span, pixels).unwrap();
        assert_eq!(img2.span_pixels(span).unwrap(), pixels);
    }

    #[test]
    fn span_bounds_are_enforced() {
        let mut img: Image<GrayAlpha> = Image::blank(2, 2);
        assert!(img.span_pixels(Span::new(2, 3)).is_err());
        assert!(img.span_pixels_mut(Span::new(4, 1)).is_err());
        assert!(img
            .insert(Span::new(0, 5), &[GrayAlpha::blank(); 5])
            .is_err());
        assert!(img
            .insert(Span::new(0, 2), &[GrayAlpha::blank(); 3])
            .is_err());
    }

    #[test]
    fn over_front_and_back_agree_with_reference() {
        // rank 0 (front) over rank 1 (back) via both receive directions.
        let front = Image::from_fn(2, 2, |_, _| Provenance::rank(0));
        let back = Image::from_fn(2, 2, |_, _| Provenance::rank(1));

        let mut a = back.clone();
        Provenance::over_front_slice(a.pixels_mut(), front.pixels()).unwrap();
        let mut b = front.clone();
        Provenance::over_back_slice(b.pixels_mut(), back.pixels()).unwrap();
        assert_eq!(a, b);
        assert!(a.pixels().iter().all(|p| *p == Provenance::complete(2)));
    }

    #[test]
    fn reference_composite_is_depth_ordered() {
        let partials: Vec<Image<Provenance>> = (0..5)
            .map(|r| Image::from_fn(3, 3, |_, _| Provenance::rank(r)))
            .collect();
        let out = reference_composite(&partials).unwrap();
        assert!(out.pixels().iter().all(|p| *p == Provenance::complete(5)));
    }

    #[test]
    fn reference_composite_empty_errors() {
        assert!(reference_composite::<GrayAlpha>(&[]).is_err());
    }

    #[test]
    fn first_mismatch_reports_location() {
        let a = Image::from_fn(2, 2, |_, _| GrayAlpha::opaque(0.5));
        let mut b = a.clone();
        b.set(1, 1, GrayAlpha::opaque(0.9));
        let (idx, _, _) = a.first_mismatch(&b, 1e-6).unwrap();
        assert_eq!(idx, 3);
        assert!(a.first_mismatch(&a.clone(), 1e-6).is_none());
    }

    #[test]
    fn map_converts_pixel_types() {
        let img = Image::from_fn(2, 2, |x, _| GrayAlpha::opaque(x as f32));
        let prov = img.map(|p| {
            if p.v > 0.5 {
                Provenance::rank(1)
            } else {
                Provenance::rank(0)
            }
        });
        assert_eq!(*prov.get(0, 0), Provenance::rank(0));
        assert_eq!(*prov.get(1, 0), Provenance::rank(1));
    }
}

/// Peak signal-to-noise ratio (dB) between two gray frames, computed on
/// the premultiplied luminance channel; `f64::INFINITY` for identical
/// frames. Used by EXPERIMENTS tooling to quantify renderer agreement.
pub fn psnr(a: &Image<crate::pixel::GrayAlpha>, b: &Image<crate::pixel::GrayAlpha>) -> f64 {
    assert_eq!(a.len(), b.len(), "PSNR needs equally sized frames");
    if a.is_empty() {
        return f64::INFINITY;
    }
    let mse: f64 = a
        .pixels()
        .iter()
        .zip(b.pixels())
        .map(|(p, q)| {
            let d = (p.v - q.v) as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (1.0 / mse).log10()
    }
}

#[cfg(test)]
mod psnr_tests {
    use super::*;
    use crate::pixel::GrayAlpha;

    #[test]
    fn identical_frames_are_infinite() {
        let img = Image::from_fn(4, 4, |x, _| GrayAlpha::opaque(x as f32 / 4.0));
        assert_eq!(psnr(&img, &img.clone()), f64::INFINITY);
    }

    #[test]
    fn noisier_frames_score_lower() {
        let base = Image::from_fn(16, 16, |x, y| GrayAlpha::opaque(((x + y) % 7) as f32 / 7.0));
        let mut small = base.clone();
        let mut large = base.clone();
        for (i, p) in small.pixels_mut().iter_mut().enumerate() {
            p.v += if i % 2 == 0 { 0.01 } else { -0.01 };
        }
        for (i, p) in large.pixels_mut().iter_mut().enumerate() {
            p.v += if i % 2 == 0 { 0.1 } else { -0.1 };
        }
        let s = psnr(&base, &small);
        let l = psnr(&base, &large);
        assert!(s > l, "{s} vs {l}");
        assert!(
            (s - 40.0).abs() < 0.5,
            "uniform 0.01 error ⇒ 40 dB, got {s}"
        );
    }
}
