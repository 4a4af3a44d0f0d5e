//! Bounding rectangles of non-blank pixels.
//!
//! Ma et al. (the binary-swap paper) reduce composition traffic by sending
//! only the bounding rectangle of the non-blank pixels of each partial image
//! and compositing only the intersection of the exchanged rectangles. The
//! rotate-tiling paper cites 20–50% savings for this approach; we implement
//! it both as a codec baseline (`rt-compress::BoundingRectCodec`) and as an
//! analysis tool for the dataset generators.

use crate::image::Image;
use crate::pixel::Pixel;
use serde::{Deserialize, Serialize};

/// An axis-aligned, half-open pixel rectangle `[x0, x1) × [y0, y1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// Inclusive left edge.
    pub x0: usize,
    /// Inclusive top edge.
    pub y0: usize,
    /// Exclusive right edge.
    pub x1: usize,
    /// Exclusive bottom edge.
    pub y1: usize,
}

impl Rect {
    /// An empty rectangle.
    pub const EMPTY: Rect = Rect {
        x0: 0,
        y0: 0,
        x1: 0,
        y1: 0,
    };

    /// Construct a rectangle from its edges.
    pub fn new(x0: usize, y0: usize, x1: usize, y1: usize) -> Self {
        Self { x0, y0, x1, y1 }
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.x1.saturating_sub(self.x0)
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.y1.saturating_sub(self.y0)
    }

    /// Pixel count.
    #[inline]
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    /// True if the rectangle covers no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// Intersection (empty rectangles stay empty).
    pub fn intersect(&self, other: &Rect) -> Rect {
        let r = Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        };
        if r.is_empty() {
            Rect::EMPTY
        } else {
            r
        }
    }

    /// Smallest rectangle containing both inputs (empty inputs are ignored).
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// True if `(x, y)` lies inside the rectangle.
    #[inline]
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }
}

/// Compute the bounding rectangle of the non-blank pixels of `img`.
///
/// Returns [`Rect::EMPTY`] for a fully blank image.
pub fn bounding_rect<P: Pixel>(img: &Image<P>) -> Rect {
    let (w, h) = (img.width(), img.height());
    let mut r = None::<Rect>;
    for y in 0..h {
        let row = &img.pixels()[y * w..(y + 1) * w];
        let Some(first) = row.iter().position(|p| !p.is_blank()) else {
            continue;
        };
        // A non-blank pixel exists, so rposition finds `first` at worst.
        let last = row.iter().rposition(|p| !p.is_blank()).unwrap_or(first);
        let rect = Rect::new(first, y, last + 1, y + 1);
        r = Some(match r {
            Some(acc) => acc.union(&rect),
            None => rect,
        });
    }
    r.unwrap_or(Rect::EMPTY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::GrayAlpha;

    fn img_with(points: &[(usize, usize)]) -> Image<GrayAlpha> {
        let mut img = Image::blank(8, 6);
        for &(x, y) in points {
            img.set(x, y, GrayAlpha::opaque(1.0));
        }
        img
    }

    #[test]
    fn empty_image_has_empty_rect() {
        let img: Image<GrayAlpha> = Image::blank(8, 6);
        assert!(bounding_rect(&img).is_empty());
        assert_eq!(bounding_rect(&img).area(), 0);
    }

    #[test]
    fn single_pixel_rect() {
        let r = bounding_rect(&img_with(&[(3, 2)]));
        assert_eq!(r, Rect::new(3, 2, 4, 3));
        assert_eq!(r.area(), 1);
    }

    #[test]
    fn scattered_pixels_bound() {
        let r = bounding_rect(&img_with(&[(1, 1), (6, 4), (3, 0)]));
        assert_eq!(r, Rect::new(1, 0, 7, 5));
        assert!(r.contains(6, 4));
        assert!(!r.contains(7, 4));
    }

    #[test]
    fn intersect_union_algebra() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(2, 2, 6, 6);
        assert_eq!(a.intersect(&b), Rect::new(2, 2, 4, 4));
        assert_eq!(a.union(&b), Rect::new(0, 0, 6, 6));
        let disjoint = Rect::new(10, 10, 12, 12);
        assert!(a.intersect(&disjoint).is_empty());
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn rect_covers_exactly_the_non_blank_set() {
        let img = img_with(&[(2, 1), (5, 3), (4, 2)]);
        let r = bounding_rect(&img);
        for y in 0..img.height() {
            for x in 0..img.width() {
                if !img.get(x, y).is_blank() {
                    assert!(r.contains(x, y), "({x},{y}) outside {r:?}");
                }
            }
        }
        // Minimality: each edge touches at least one non-blank pixel.
        assert!((r.y0..r.y1).any(|y| !img.get(r.x0, y).is_blank()));
        assert!((r.y0..r.y1).any(|y| !img.get(r.x1 - 1, y).is_blank()));
        assert!((r.x0..r.x1).any(|x| !img.get(x, r.y0).is_blank()));
        assert!((r.x0..r.x1).any(|x| !img.get(x, r.y1 - 1).is_blank()));
    }
}
