//! Pixel rectangles: a tile of a tile plan and a cell of a display wall.

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

    /// True if `(x, y)` lies inside the rectangle.
    #[inline]
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_and_contains() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(2, 2, 6, 6);
        assert_eq!(a.intersect(&b), Rect::new(2, 2, 4, 4));
        assert!(a.intersect(&Rect::new(10, 10, 12, 12)).is_empty());
        assert_eq!(a.intersect(&Rect::EMPTY), Rect::EMPTY);
        assert_eq!(a.intersect(&a), a);
        assert!(b.contains(5, 2));
        assert!(!b.contains(6, 2));
        assert!(!b.contains(2, 1));
    }
}
