//! Gather geometry: a grid of display ranks, each assembling one cell of
//! the final frame.
//!
//! The paper's gather funnels every finally-owned pixel to one root rank —
//! fine for a single monitor, hopeless for a tiled display wall driving a
//! 4K–8K virtual framebuffer, where the pixels must *end up* spread over
//! the machines wired to the physical panels (see "A Virtual Frame Buffer
//! Abstraction for Parallel Rendering of Large Tiled Display Walls",
//! arXiv:2009.03368, in PAPERS.md). A [`DisplayWall`] describes that
//! arrangement: `cols × rows` display cells splitting the frame evenly
//! along both axes, cell `d` assembled by rank `base + d`. The single root
//! is the wall's `1×1` case ([`DisplayWall::root`]), so every plan family
//! gathers through one function to one kind of target, and a wall's cells
//! are byte-identical to the same rectangles of the root's frame.

use crate::CoreError;
use rt_imaging::{Rect, Span};

/// A tiled display wall: `cols × rows` cells over the final frame, cell
/// `d` (row-major) assembled by rank `base + d`.
///
/// Cells split each axis evenly (edge cells absorb the remainder, like
/// [`Span::split_even`]), so a `2×1` wall over 3840×2160 yields two
/// 1920×2160 cells on ranks `base` and `base + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisplayWall {
    /// Cells along the x axis.
    pub cols: usize,
    /// Cells along the y axis.
    pub rows: usize,
    /// Rank assembling cell 0; cell `d` goes to rank `base + d`.
    pub base: usize,
}

impl DisplayWall {
    /// A `cols × rows` wall assembled by ranks `0..cols*rows`.
    pub fn new(cols: usize, rows: usize) -> Self {
        Self {
            cols,
            rows,
            base: 0,
        }
    }

    /// The paper's gather target: one cell, the whole frame, assembled by
    /// `rank`.
    pub fn root(rank: usize) -> Self {
        Self::new(1, 1).with_base(rank)
    }

    /// Move the display ranks to `base..base + cols*rows`.
    pub fn with_base(mut self, base: usize) -> Self {
        self.base = base;
        self
    }

    /// Number of display cells (= display ranks).
    pub fn count(&self) -> usize {
        self.cols * self.rows
    }

    /// The rank assembling cell `d`.
    pub fn rank_of(&self, d: usize) -> usize {
        self.base + d
    }

    /// The cell `rank` assembles, if it is a display rank.
    pub fn display_of(&self, rank: usize) -> Option<usize> {
        (rank >= self.base && rank < self.base + self.count()).then(|| rank - self.base)
    }

    /// Check the wall fits a machine of `p` ranks.
    pub fn validate(&self, p: usize) -> Result<(), CoreError> {
        if self.cols == 0 || self.rows == 0 {
            return Err(CoreError::InvalidSchedule {
                why: format!(
                    "display wall must have cells, got {}x{}",
                    self.cols, self.rows
                ),
            });
        }
        if self.base + self.count() > p {
            return Err(CoreError::InvalidSchedule {
                why: format!(
                    "display wall needs ranks {}..{}, machine has {p}",
                    self.base,
                    self.base + self.count()
                ),
            });
        }
        Ok(())
    }

    /// The frame-space rectangle of cell `d` for a `width × height` frame.
    pub fn cell_rect(&self, d: usize, width: usize, height: usize) -> Rect {
        let (col, row) = (d % self.cols, d / self.cols);
        Rect::new(
            col * width / self.cols,
            row * height / self.rows,
            (col + 1) * width / self.cols,
            (row + 1) * height / self.rows,
        )
    }
}

/// Intersect flat frame-space `spans` with a display cell: the row
/// segments of the overlap, as `(frame_span, cell_offset)` pairs where
/// `cell_offset` is the segment's flat pixel position inside the cell's own
/// `cell.width() × cell.height()` framebuffer, computed as they are read.
///
/// Segments come out in span order, each span's in frame order, so sender
/// and receiver serialize the overlap identically without negotiation.
/// The rows of a full-width cell abut in the frame and in the cell, so
/// such a cell is one strip that a span meets in one segment, cut without
/// a division: the root's cell hands back the spans themselves.
pub fn span_cell_segments(
    spans: impl Iterator<Item = Span> + Clone,
    width: usize,
    cell: Rect,
) -> impl Iterator<Item = (Span, usize)> + Clone {
    let full = cell.width() == width && !cell.is_empty();
    let strip = Span::new(cell.y0 * width, cell.area());
    let whole = full.then(|| {
        let segs = spans.clone().filter_map(move |span| span.intersect(&strip));
        segs.map(move |seg| (seg, seg.start - strip.start))
    });
    let rows = (!full && !cell.is_empty()).then(|| {
        spans.filter(|span| !span.is_empty()).flat_map(move |span| {
            let y0 = (span.start / width).max(cell.y0);
            let y1 = ((span.end() - 1) / width + 1).min(cell.y1);
            (y0..y1).filter_map(move |y| {
                let row = Span::new(y * width + cell.x0, cell.width());
                let seg = span.intersect(&row)?;
                Some((seg, (y - cell.y0) * cell.width() + (seg.start - row.start)))
            })
        })
    });
    // One of the two is empty; chaining them keeps one iterator type.
    whole
        .into_iter()
        .flatten()
        .chain(rows.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_tile_the_frame_exactly() {
        for (cols, rows, w, h) in [(2, 1, 10, 4), (3, 2, 17, 11), (1, 1, 5, 5), (4, 3, 12, 12)] {
            let wall = DisplayWall::new(cols, rows);
            let mut covered = vec![0u8; w * h];
            for d in 0..wall.count() {
                let r = wall.cell_rect(d, w, h);
                for y in r.y0..r.y1 {
                    for x in r.x0..r.x1 {
                        covered[y * w + x] += 1;
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "{cols}x{rows} over {w}x{h}"
            );
        }
    }

    #[test]
    fn rank_mapping_round_trips() {
        let wall = DisplayWall::new(2, 2).with_base(3);
        assert_eq!(wall.count(), 4);
        assert_eq!(wall.rank_of(2), 5);
        assert_eq!(wall.display_of(5), Some(2));
        assert_eq!(wall.display_of(2), None);
        assert_eq!(wall.display_of(7), None);
        wall.validate(7).unwrap();
        assert!(wall.validate(6).is_err());
        assert!(DisplayWall::new(0, 2).validate(4).is_err());
    }

    #[test]
    fn segments_cover_the_intersection_once() {
        // A span crossing three rows against a cell that clips both ends.
        let w = 10;
        let cell = Rect::new(3, 1, 8, 3); // rows 1..3, cols 3..8
        let span = Span::new(7, 20); // pixels 7..27 → rows 0,1,2
        let segs: Vec<_> = span_cell_segments([span].into_iter(), w, cell).collect();
        // Row 1: frame 13..18; row 2: frame 23..27 (span ends at 27).
        assert_eq!(segs, vec![(Span::new(13, 5), 0), (Span::new(23, 4), 5),]);
        // Local offsets address a 5-wide, 2-tall cell buffer.
        for (seg, local) in &segs {
            assert!(local + seg.len <= cell.area());
        }
    }

    #[test]
    fn a_full_width_cell_hands_back_the_span_whole() {
        // Four rows of 10: the root's cell, and the top half of a 1x2 wall.
        let span = Span::new(7, 25); // rows 0..4
        let root = DisplayWall::root(3);
        assert_eq!((root.count(), root.rank_of(0)), (1, 3));
        let frame = root.cell_rect(0, 10, 4);
        let segs = |cell| span_cell_segments([span].into_iter(), 10, cell).collect::<Vec<_>>();
        assert_eq!(segs(frame), vec![(span, 7)]);
        let top = DisplayWall::new(1, 2).cell_rect(0, 10, 4);
        assert_eq!(segs(top), vec![(Span::new(7, 13), 7)]);
        let bottom = DisplayWall::new(1, 2).cell_rect(1, 10, 4);
        assert_eq!(segs(bottom), vec![(Span::new(20, 12), 0)]);
    }

    #[test]
    fn disjoint_span_and_cell_yield_nothing() {
        let segs = |span, cell| span_cell_segments([span].into_iter(), 10, cell).count();
        assert_eq!(segs(Span::new(0, 10), Rect::new(0, 5, 10, 6)), 0);
        assert_eq!(segs(Span::new(0, 0), Rect::new(0, 0, 10, 10)), 0);
        assert_eq!(segs(Span::new(0, 0), Rect::new(0, 0, 5, 10)), 0);
        assert_eq!(segs(Span::new(0, 10), Rect::EMPTY), 0);
    }

    #[test]
    fn segments_match_a_pixel_by_pixel_cut() {
        // Every span against every cell of small frames: the segments are
        // exactly the span's pixels inside the cell, in frame order, each
        // at its row-major place in the cell.
        for (w, h) in [(1, 1), (5, 3), (7, 4)] {
            for cell in (0..=w)
                .flat_map(|x0| (x0..=w).map(move |x1| (x0, x1)))
                .flat_map(|(x0, x1)| {
                    (0..=h).flat_map(move |y0| (y0..=h).map(move |y1| Rect::new(x0, y0, x1, y1)))
                })
            {
                for span in (0..w * h).flat_map(|s| (0..=w * h - s).map(move |l| Span::new(s, l))) {
                    let want: Vec<(usize, usize)> = span
                        .range()
                        .filter(|q| cell.contains(q % w, q / w))
                        .map(|q| (q, (q / w - cell.y0) * cell.width() + q % w - cell.x0))
                        .collect();
                    let got: Vec<(usize, usize)> = span_cell_segments([span].into_iter(), w, cell)
                        .flat_map(|(seg, at)| seg.range().zip(at..))
                        .collect();
                    assert_eq!(got, want, "{w}x{h} {span} {cell:?}");
                }
            }
        }
    }
}
