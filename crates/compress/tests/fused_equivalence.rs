//! Property tests pinning every codec's `decode_over` to the reference
//! decode-then-`Pixel::over` path, for both merge directions: the three
//! fused byte-level walks (raw, RLE, TRLE) and the bounds codec, which runs
//! the trait default. The executor's hot path relies on this equivalence
//! being **bit-exact** (virtual-clock charges and composited frames must
//! not depend on which walk ran).

mod common;

use proptest::prelude::*;
use rt_compress::{Codec, CodecKind, OverDir};
use rt_imaging::pixel::{GrayAlpha8, Pixel, Provenance};

/// Reference semantics: decode the stream, then merge pixel by pixel,
/// counting non-blank and blank stream pixels.
fn reference_over<P: Pixel>(
    codec: &dyn Codec<P>,
    data: &[u8],
    dst: &[P],
    dir: OverDir,
) -> (Vec<P>, usize, usize) {
    let pixels = codec.decode(data, dst.len()).expect("valid stream");
    let mut out = dst.to_vec();
    let mut non_blank = 0;
    let mut blank = 0;
    for (d, s) in out.iter_mut().zip(&pixels) {
        if !s.is_blank() {
            non_blank += 1;
        } else {
            blank += 1;
        }
        *d = match dir {
            OverDir::Front => s.over(d),
            OverDir::Back => d.over(s),
        };
    }
    (out, non_blank, blank)
}

fn check_equivalence<P: Pixel>(src: &[P], dst: &[P]) {
    for kind in CodecKind::ALL {
        let codec = kind.build::<P>();
        let enc = codec.encode(src);
        for dir in [OverDir::Front, OverDir::Back] {
            let (want, want_count, want_blank) =
                reference_over(codec.as_ref(), &enc.bytes, dst, dir);
            let mut got = dst.to_vec();
            let stats = codec
                .decode_over(&enc.bytes, &mut got, dir)
                .unwrap_or_else(|e| panic!("{kind:?}/{dir:?}: {e}"));
            assert_eq!(got, want, "{kind:?}/{dir:?}: composited pixels differ");
            assert_eq!(stats.non_blank, want_count, "{kind:?}/{dir:?}: non-blank");
            assert_eq!(
                stats.blank_skipped, want_blank,
                "{kind:?}/{dir:?}: blank-skipped"
            );
        }
    }
}

prop_compose! {
    /// Pixel mix with enough blank runs to exercise every TRLE template and
    /// both RLE modes.
    fn arb_gray8(max_len: usize)(
        spec in proptest::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 0..max_len)
    ) -> Vec<GrayAlpha8> {
        spec.into_iter()
            .map(|(blank, v, a)| {
                if blank || (v == 0 && a == 0) {
                    GrayAlpha8::blank()
                } else {
                    GrayAlpha8::new(v, a)
                }
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn fused_kernels_match_reference(
        src in arb_gray8(400),
        dst_seed in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..400),
    ) {
        let n = src.len();
        let dst: Vec<GrayAlpha8> = dst_seed
            .into_iter()
            .map(|(v, a)| GrayAlpha8::new(v, a))
            .chain(std::iter::repeat(GrayAlpha8::blank()))
            .take(n)
            .collect();
        check_equivalence(&src, &dst);
    }

    #[test]
    fn fused_kernels_match_reference_on_run_structured_content(
        // Blank runs long enough for word-wide skips and TRLE codes split at
        // 16 tiles; a length that leaves a partial trailing tile three
        // times in four.
        runs in proptest::collection::vec((0u8..4, 1u8..=255, 1usize..300, any::<u64>()), 0..6),
        dst_seed in any::<u64>(),
    ) {
        let src = common::runs_to_pixels(runs);
        let dst: Vec<GrayAlpha8> = (0..src.len() as u64)
            .map(|i| {
                let x = (i ^ dst_seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                // One destination in four is opaque, for the back-merge shortcut.
                GrayAlpha8::new((x >> 40) as u8, if x >> 62 == 0 { 255 } else { (x >> 48) as u8 })
            })
            .collect();
        check_equivalence(&src, &dst);
    }

    #[test]
    fn blank_stream_is_identity(
        dst_seed in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..300),
    ) {
        let dst: Vec<GrayAlpha8> = dst_seed
            .into_iter()
            .map(|(v, a)| GrayAlpha8::new(v, a))
            .collect();
        let src = vec![GrayAlpha8::blank(); dst.len()];
        for kind in CodecKind::ALL {
            let codec = kind.build::<GrayAlpha8>();
            let enc = codec.encode(&src);
            for dir in [OverDir::Front, OverDir::Back] {
                let mut got = dst.clone();
                let stats = codec.decode_over(&enc.bytes, &mut got, dir).unwrap();
                prop_assert_eq!(stats.non_blank, 0, "{:?}: blank stream has no content", kind);
                prop_assert_eq!(stats.blank_skipped, dst.len());
                prop_assert_eq!(&got, &dst, "{:?}/{:?}: blank must be the identity", kind, dir);
            }
        }
    }

    #[test]
    fn saturating_streams_clamp_at_255(
        vals in proptest::collection::vec((200u8..=255, 200u8..=255), 1..100),
    ) {
        // Near-opaque over near-opaque: channel sums overflow 8 bits and
        // must clamp exactly like `GrayAlpha8::over` (never wrap).
        let src: Vec<GrayAlpha8> = vals.iter().map(|&(v, a)| GrayAlpha8::new(v, a)).collect();
        let dst: Vec<GrayAlpha8> = vals.iter().rev().map(|&(v, a)| GrayAlpha8::new(v, a)).collect();
        check_equivalence(&src, &dst);
        let codec = CodecKind::Trle.build::<GrayAlpha8>();
        let enc = codec.encode(&src);
        let mut got = dst.clone();
        codec.decode_over(&enc.bytes, &mut got, OverDir::Front).unwrap();
        for (g, (s, d)) in got.iter().zip(src.iter().zip(&dst)) {
            prop_assert_eq!(*g, s.over(d));
        }
    }

    #[test]
    fn split_streams_compose_associatively(
        src in arb_gray8(300),
        cut_frac in 0.0f64..1.0,
    ) {
        // Compositing the two halves of a split span independently must
        // equal compositing the whole — and layering two full-span fused
        // merges must equal the associatively pre-merged single stream.
        let n = src.len();
        let cut = ((n as f64) * cut_frac) as usize;
        let dst: Vec<GrayAlpha8> = (0..n)
            .map(|i| GrayAlpha8::new((i * 13 % 251) as u8, (i * 7 % 256) as u8))
            .collect();
        for kind in CodecKind::ALL {
            let codec = kind.build::<GrayAlpha8>();

            // (a) spatial split: halves vs whole.
            let enc_whole = codec.encode(&src);
            let mut whole = dst.clone();
            codec.decode_over(&enc_whole.bytes, &mut whole, OverDir::Front).unwrap();
            let (enc_l, enc_r) = (codec.encode(&src[..cut]), codec.encode(&src[cut..]));
            let mut halves = dst.clone();
            codec.decode_over(&enc_l.bytes, &mut halves[..cut], OverDir::Front).unwrap();
            codec.decode_over(&enc_r.bytes, &mut halves[cut..], OverDir::Front).unwrap();
            prop_assert_eq!(&halves, &whole, "{:?}: split-span merge differs", kind);
        }

        // (b) depth split, on the exact Provenance algebra: streaming rank
        // k's layer in front of an accumulated [k+1, p) range must equal
        // the pre-merged [k, p) stream for any association order.
        let layers: Vec<Vec<Provenance>> = (0..3u16)
            .map(|r| (0..n).map(|_| Provenance::rank(r)).collect())
            .collect();
        let codec = CodecKind::Trle.build::<Provenance>();
        let mut acc = vec![Provenance::blank(); n];
        for layer in layers.iter().rev() {
            let enc = codec.encode(layer);
            codec.decode_over(&enc.bytes, &mut acc, OverDir::Front).unwrap();
        }
        prop_assert!(acc.iter().all(|p| *p == Provenance::complete(3)));
    }
}

#[test]
fn fused_error_paths_match_decode() {
    // Streams that decode() rejects must be rejected by decode_over too —
    // never silently mis-composited.
    let codec = CodecKind::Trle.build::<GrayAlpha8>();
    let mut dst = vec![GrayAlpha8::blank(); 4];
    // Unknown mode byte.
    assert!(codec
        .decode_over(&[7, 0, 0, 0, 0], &mut dst, OverDir::Front)
        .is_err());
    // Truncated header.
    assert!(codec
        .decode_over(&[1, 1, 0], &mut dst, OverDir::Front)
        .is_err());
    // Payload missing for a set template bit.
    assert!(codec
        .decode_over(&[1, 1, 0, 0, 0, 0x01], &mut dst, OverDir::Front)
        .is_err());
    let rle = CodecKind::Rle.build::<GrayAlpha8>();
    // Zero-length run.
    assert!(rle
        .decode_over(&[1, 0, 5], &mut dst, OverDir::Front)
        .is_err());
    // Wrong pixel count (stream shorter than dst).
    let enc = rle.encode(&[GrayAlpha8::new(3, 9); 3]);
    assert!(rle
        .decode_over(&enc.bytes, &mut dst, OverDir::Front)
        .is_err());
}
