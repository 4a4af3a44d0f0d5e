//! Content generator and the `decode_into` parity check shared by the
//! codec integration tests.

use rt_compress::{Codec, OverDir};
use rt_imaging::pixel::{pixels_to_bytes, GrayAlpha8, Pixel};

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

/// `decode_into` onto a blank destination of `n` pixels against
/// `decode_over(Front)` onto another: the same verdict, and on a valid
/// stream the same `OverStats` (all three counters) and the same pixels
/// bit for bit, compared as wire bytes so `−0.0` and NaN payloads count.
pub fn check_decode_into<P: Pixel>(codec: &dyn Codec<P>, data: &[u8], n: usize, what: &str) {
    let what = format!("{} {what}", codec.name());
    let mut merged = vec![P::blank(); n];
    let want = codec.decode_over(data, &mut merged, OverDir::Front);
    let mut unpacked = vec![P::blank(); n];
    let got = codec.decode_into(data, &mut unpacked);
    assert_eq!(got.is_ok(), want.is_ok(), "{what}: {got:?} vs {want:?}");
    if let (Ok(got), Ok(want)) = (got, want) {
        assert_eq!(got, want, "{what}: stats");
        assert_eq!(
            pixels_to_bytes(&unpacked),
            pixels_to_bytes(&merged),
            "{what}: pixels"
        );
    }
}
