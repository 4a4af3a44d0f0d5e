//! Content generator shared by the codec integration tests.

use rt_imaging::pixel::{GrayAlpha8, Pixel};

/// Run-structured content, the shape of a rendered partial: each
/// `(kind, value, len, seed)` is a run of `len` blank pixels (kind 0),
/// constant `v == a` pixels (1: RLE byte runs, split at the odd count 255,
/// so they straddle pixel boundaries and staging flushes), varied opaque
/// pixels (2: bulk full-tile merges, the opaque shortcut) or varied
/// translucent ones.
pub fn runs_to_pixels(runs: Vec<(u8, u8, usize, u64)>) -> Vec<GrayAlpha8> {
    let mut out = Vec::new();
    for (kind, value, len, mut seed) in runs {
        out.extend((0..len).map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match kind {
                0 => GrayAlpha8::blank(),
                1 => GrayAlpha8::new(value, value),
                2 => GrayAlpha8::new((seed >> 40) as u8, 255),
                _ => GrayAlpha8::new((seed >> 40) as u8, (seed >> 48) as u8),
            }
        }));
    }
    out
}
