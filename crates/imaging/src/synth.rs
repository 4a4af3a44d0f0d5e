//! Synthetic partial images: the fixtures the composition tests, benches
//! and examples share.
//!
//! Both generators return one partial per rank, index = depth position
//! (0 nearest the viewer), and both are chosen so that a wrong composite
//! cannot pass by accident:
//!
//! * [`band_partials`] is **depth-disjoint** — every pixel is covered by
//!   exactly one rank — so *any* association order of `over` reproduces
//!   the sequential reference fold byte for byte (blank is `over`'s exact
//!   two-sided identity), while a misrouted, dropped or duplicated piece
//!   still corrupts bytes. It is also sparse (rank `r` is blank outside
//!   its band), which is what the content-adaptive methods and the
//!   structured codecs feed on.
//! * [`provenance_partials`] is **fully overlapping** — every rank covers
//!   the whole frame with its own depth index — and the
//!   [`Provenance`] algebra rejects any out-of-order, repeated or missing
//!   merge, so a complete result proves the depth order was respected.

use crate::pixel::{GrayAlpha8, Pixel, Provenance};
use crate::Image;

/// `p` sparse `w × h` partials: rank `r` holds the horizontal band of rows
/// `r·h/p .. (r+1)·h/p` (textured along x, opaque-ish) and is blank
/// everywhere else. With `h == p` each rank holds exactly row `r`; with
/// `h < p` some ranks are entirely blank.
pub fn band_partials(p: usize, w: usize, h: usize) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|r| {
            let (lo, hi) = (r * h / p, (r + 1) * h / p);
            Image::from_fn(w, h, |x, y| {
                if y >= lo && y < hi {
                    GrayAlpha8::new((((x / 8) * 7 + r) % 151) as u8, 200)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

/// `p` dense `w × h` partials of the exact test pixel: rank `r`'s image is
/// [`Provenance::rank`]`(r)` everywhere, so the correct composite is
/// [`Provenance::complete`]`(p)` everywhere.
pub fn provenance_partials(p: usize, w: usize, h: usize) -> Vec<Image<Provenance>> {
    (0..p)
        .map(|r| Image::from_fn(w, h, |_, _| Provenance::rank(r as u16)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::reference_composite;

    #[test]
    fn bands_cover_every_pixel_exactly_once() {
        for (p, w, h) in [(4, 16, 16), (5, 9, 7), (3, 4, 3), (6, 8, 4)] {
            let partials = band_partials(p, w, h);
            assert_eq!(partials.len(), p);
            for i in 0..w * h {
                let covering = partials
                    .iter()
                    .filter(|img| !img.pixels()[i].is_blank())
                    .count();
                assert_eq!(covering, 1, "p={p} {w}x{h} pixel {i}");
            }
        }
    }

    #[test]
    fn provenance_partials_compose_to_the_complete_range() {
        let frame = reference_composite(&provenance_partials(5, 4, 3)).unwrap();
        assert!(frame
            .pixels()
            .iter()
            .all(|px| *px == Provenance::complete(5)));
    }
}
