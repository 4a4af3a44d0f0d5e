//! What the launchers of multi-process cells and their `netrank` workers
//! share beside [`crate::chaosnet`]: the frame fingerprint a worker reports
//! and a launcher compares with its in-process reference.

use rt_imaging::pixel::GrayAlpha8;
use rt_imaging::Image;

/// FNV-1a over a frame's pixels, for cheap cross-process frame-equality
/// checks (the in-process determinism tests compare full pixel buffers;
/// across processes a fingerprint is enough).
pub fn frame_hash(frame: &Image<GrayAlpha8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for px in frame.pixels() {
        eat(px.v);
        eat(px.a);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_imaging::synth::band_partials;

    #[test]
    fn frame_hash_distinguishes_frames() {
        let a = band_partials(2, 16, 16);
        assert_ne!(frame_hash(&a[0]), frame_hash(&a[1]));
        assert_eq!(frame_hash(&a[0]), frame_hash(&a[0].clone()));
    }
}
