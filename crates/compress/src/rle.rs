//! Classic run-length encoding over the raw pixel byte stream.
//!
//! This is the baseline the paper attributes to Lacroute & Levoy: a run of
//! equal bytes is stored as `(count, byte)` with `count ∈ 1..=255`. On gray
//! images with many distinct values the ratio is poor (each 1-byte run costs
//! 2 bytes), which is precisely the weakness TRLE addresses — the paper's
//! Figure 4 example gives RLE 18 bytes vs TRLE 5 bytes on two scanlines.
//!
//! A one-byte header selects between `RLE` and a raw fallback, so the codec
//! never more than doubles (plus one byte) and is exactly reversible.

use crate::codec::{over_raw_body, Codec, CodecError, OverDir};
use rt_imaging::kernels::byte_run_len;
use rt_imaging::pixel::{pixels_from_bytes, pixels_to_bytes, OverStats, Pixel};

const MODE_RAW: u8 = 0;
const MODE_RLE: u8 = 1;

/// Byte-stream run-length codec with raw fallback.
#[derive(Debug, Clone, Copy, Default)]
pub struct RleCodec;

/// Run-length encode a byte slice as `(count, byte)` pairs, with
/// memchr-style word-wise run detection: each run is found by XORing eight
/// bytes at a time against the broadcast run byte. The scan slice is capped
/// at the 255-byte run limit so detection stays linear on long runs.
pub fn rle_encode_bytes(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    let mut out = Vec::with_capacity(n / 2 + 8);
    let mut i = 0;
    while i < n {
        let b = data[i];
        // One-byte peek: a length-1 run (every byte of dense content with
        // per-pixel variation) exits without paying the word-wise setup, so
        // incompressible spans cost a byte loop and the long blank runs
        // that dominate partials go a word at a time.
        if i + 1 >= n || data[i + 1] != b {
            out.push(1);
            out.push(b);
            i += 1;
            continue;
        }
        let cap = (i + 255).min(n);
        let run = byte_run_len(&data[i..cap], b);
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    out
}

/// Invert [`rle_encode_bytes`], giving up as soon as the output passes
/// `max_len` bytes: a caller that expects `max_len` rejects such a stream
/// whatever its remainder says, and a hostile body must not size the
/// allocation (1 MiB of `(255, b)` pairs expands to 127 MiB).
///
/// An odd-length buffer cannot be a whole number of `(count, byte)` pairs,
/// so it is rejected as [`CodecError::Truncated`] up front rather than
/// silently dropping the trailing byte (`chunks_exact(2)` alone would).
pub fn rle_decode_bytes(data: &[u8], max_len: usize) -> Result<Vec<u8>, CodecError> {
    if !data.len().is_multiple_of(2) {
        return Err(CodecError::Truncated { codec: "rle" });
    }
    let mut out = Vec::new();
    for pair in data.chunks_exact(2) {
        let (count, byte) = (pair[0], pair[1]);
        if count == 0 {
            return Err(CodecError::Corrupt {
                codec: "rle",
                what: "zero-length run",
            });
        }
        out.extend(std::iter::repeat_n(byte, count as usize));
        if out.len() > max_len {
            break;
        }
    }
    Ok(out)
}

/// Staging-buffer size of the fused RLE walk: a multiple of every shipped
/// pixel size (the largest, `GrayAlpha`, is 8 bytes), big enough to amortize
/// the bulk-kernel call per flush, small enough to stay in L1.
const STAGE_BYTES: usize = 4096;

impl<P: Pixel> Codec<P> for RleCodec {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn encode_into(&self, pixels: &[P], out: &mut Vec<u8>) {
        let raw = pixels_to_bytes(pixels);
        let rle = rle_encode_bytes(&raw);
        let (mode, body) = match rle.len() < raw.len() {
            true => (MODE_RLE, &rle),
            false => (MODE_RAW, &raw),
        };
        out.reserve(1 + body.len());
        out.push(mode);
        out.extend_from_slice(body);
    }

    fn decode(&self, data: &[u8], n_pixels: usize) -> Result<Vec<P>, CodecError> {
        let Some((&mode, body)) = data.split_first() else {
            if n_pixels == 0 {
                return Ok(Vec::new());
            }
            return Err(CodecError::Truncated { codec: "rle" });
        };
        let expanded;
        let raw = match mode {
            MODE_RAW => body,
            MODE_RLE => {
                expanded = rle_decode_bytes(body, n_pixels * P::BYTES)?;
                &expanded[..]
            }
            _ => {
                return Err(CodecError::Corrupt {
                    codec: "rle",
                    what: "unknown mode byte",
                })
            }
        };
        if raw.len() != n_pixels * P::BYTES {
            return Err(CodecError::WrongPixelCount {
                codec: "rle",
                expected: n_pixels,
                got: raw.len() / P::BYTES,
            });
        }
        pixels_from_bytes(raw).map_err(|_| CodecError::Corrupt {
            codec: "rle",
            what: "undecodable pixel bytes",
        })
    }

    fn decode_over(
        &self,
        data: &[u8],
        dst: &mut [P],
        dir: OverDir,
    ) -> Result<OverStats, CodecError> {
        // A staged flush composites whole pixels only.
        const { assert!(P::BYTES <= STAGE_BYTES) };
        let Some((&mode, body)) = data.split_first() else {
            if dst.is_empty() {
                return Ok(OverStats::default());
            }
            return Err(CodecError::Truncated { codec: "rle" });
        };
        match mode {
            MODE_RAW => over_raw_body("rle", body, dst, dir),
            // Runs do not align to pixel boundaries, so the stream is
            // expanded through a bounded staging buffer: runs fill the
            // buffer, and every buffer-full of *whole* pixels is composited
            // in place in one bulk kernel call (any trailing partial pixel
            // carries over to the next fill). No decoded image-sized buffer
            // ever exists.
            MODE_RLE => {
                // The pair walk below uses `chunks_exact(2)`, which would
                // silently drop a trailing odd byte — the explicit parity
                // check keeps truncated streams an error here exactly as in
                // `rle_decode_bytes`.
                if !body.len().is_multiple_of(2) {
                    return Err(CodecError::Truncated { codec: "rle" });
                }
                let mut stage = [0u8; STAGE_BYTES];
                let mut fill = 0usize; // staged bytes
                let mut at = 0usize; // next destination pixel
                let mut stats = OverStats::default();
                let mut flush = |stage: &mut [u8; STAGE_BYTES],
                                 fill: &mut usize,
                                 at: &mut usize|
                 -> Result<OverStats, CodecError> {
                    let whole = *fill / P::BYTES * P::BYTES;
                    let px = whole / P::BYTES;
                    let Some(d) = dst.get_mut(*at..*at + px) else {
                        return Err(CodecError::WrongPixelCount {
                            codec: "rle",
                            expected: dst.len(),
                            got: *at + px,
                        });
                    };
                    let n = over_raw_body("rle", &stage[..whole], d, dir)?;
                    *at += px;
                    stage.copy_within(whole..*fill, 0);
                    *fill -= whole;
                    Ok(n)
                };
                for pair in body.chunks_exact(2) {
                    let (count, byte) = (pair[0], pair[1]);
                    if count == 0 {
                        return Err(CodecError::Corrupt {
                            codec: "rle",
                            what: "zero-length run",
                        });
                    }
                    let mut left = count as usize;
                    while left > 0 {
                        let take = left.min(STAGE_BYTES - fill);
                        stage[fill..fill + take].fill(byte);
                        fill += take;
                        left -= take;
                        if fill == STAGE_BYTES {
                            stats += flush(&mut stage, &mut fill, &mut at)?;
                        }
                    }
                }
                stats += flush(&mut stage, &mut fill, &mut at)?;
                if fill != 0 || at != dst.len() {
                    return Err(CodecError::WrongPixelCount {
                        codec: "rle",
                        expected: dst.len(),
                        got: at,
                    });
                }
                Ok(stats)
            }
            _ => Err(CodecError::Corrupt {
                codec: "rle",
                what: "unknown mode byte",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rt_imaging::pixel::{GrayAlpha8, Pixel};

    /// Byte-at-a-time RLE, the reference the word-wise encoder is held to.
    fn byte_rle(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let run = data[i..]
                .iter()
                .take(255)
                .take_while(|&&b| b == data[i])
                .count();
            out.extend([run as u8, data[i]]);
            i += run;
        }
        out
    }

    #[test]
    fn byte_rle_roundtrip_simple() {
        let data = b"aaabbbbbc";
        let enc = rle_encode_bytes(data);
        assert_eq!(enc, vec![3, b'a', 5, b'b', 1, b'c']);
        assert_eq!(rle_decode_bytes(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn byte_rle_long_runs_split_at_255() {
        let data = vec![7u8; 300];
        let enc = rle_encode_bytes(&data);
        assert_eq!(enc, vec![255, 7, 45, 7]);
        assert_eq!(rle_decode_bytes(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn blank_block_compresses_well() {
        let px = vec![GrayAlpha8::blank(); 1000];
        let enc = Codec::<GrayAlpha8>::encode(&RleCodec, &px);
        assert!(enc.bytes.len() < 30, "got {}", enc.bytes.len());
        assert!(enc.ratio() > 60.0);
        let dec = Codec::<GrayAlpha8>::decode(&RleCodec, &enc.bytes, 1000).unwrap();
        assert_eq!(dec, px);
    }

    #[test]
    fn incompressible_block_falls_back_to_raw() {
        // Alternate values so every run has length 1.
        let px: Vec<GrayAlpha8> = (0..100)
            .map(|i| GrayAlpha8::new((i * 37 % 251) as u8, (i * 91 % 250 + 1) as u8))
            .collect();
        let enc = Codec::<GrayAlpha8>::encode(&RleCodec, &px);
        assert_eq!(enc.bytes.len(), 201); // mode byte + raw
        assert_eq!(enc.bytes[0], MODE_RAW);
        let dec = Codec::<GrayAlpha8>::decode(&RleCodec, &enc.bytes, 100).unwrap();
        assert_eq!(dec, px);
    }

    #[test]
    fn decode_error_paths() {
        assert!(rle_decode_bytes(&[1], 1).is_err()); // odd length
        assert!(rle_decode_bytes(&[0, 5], 1).is_err()); // zero run
        assert!(Codec::<GrayAlpha8>::decode(&RleCodec, &[9, 1, 2], 1).is_err()); // bad mode
        assert!(Codec::<GrayAlpha8>::decode(&RleCodec, &[], 1).is_err()); // empty
        assert_eq!(
            Codec::<GrayAlpha8>::decode(&RleCodec, &[], 0).unwrap(),
            vec![]
        );
        // Wrong pixel count.
        let px = vec![GrayAlpha8::blank(); 4];
        let enc = Codec::<GrayAlpha8>::encode(&RleCodec, &px);
        assert!(Codec::<GrayAlpha8>::decode(&RleCodec, &enc.bytes, 3).is_err());
    }

    #[test]
    fn trailing_odd_byte_is_rejected_not_dropped() {
        // Regression guard: an RLE body with a dangling count byte must be
        // a Truncated error everywhere a pair stream is walked — never a
        // silent drop of the remainder (`chunks_exact(2)` alone would eat
        // it). A valid 2-pixel stream plus one stray byte would otherwise
        // still decode to 4 raw bytes.
        let mut body = rle_encode_bytes(&[7, 7, 9, 9]);
        body.push(3); // dangling count with no byte
        assert_eq!(
            rle_decode_bytes(&body, 4),
            Err(CodecError::Truncated { codec: "rle" })
        );
        // Same stream through the fused staging path.
        let mut data = vec![MODE_RLE];
        data.extend_from_slice(&body);
        let mut dst = vec![GrayAlpha8::blank(); 2];
        assert_eq!(
            Codec::<GrayAlpha8>::decode_over(&RleCodec, &data, &mut dst, OverDir::Front),
            Err(CodecError::Truncated { codec: "rle" })
        );
        // And through decode().
        assert_eq!(
            Codec::<GrayAlpha8>::decode(&RleCodec, &data, 2),
            Err(CodecError::Truncated { codec: "rle" })
        );
    }

    #[test]
    fn wide_encode_matches_scalar_on_run_edges() {
        // Runs that straddle the 255 cap and the 8-byte word width.
        for len in [0usize, 1, 7, 8, 9, 254, 255, 256, 300, 511, 1000] {
            let data = vec![42u8; len];
            assert_eq!(rle_encode_bytes(&data), byte_rle(&data));
        }
        let mixed: Vec<u8> = (0..1000u32).map(|i| (i / 13 % 7) as u8).collect();
        assert_eq!(rle_encode_bytes(&mixed), byte_rle(&mixed));
    }

    proptest! {
        #[test]
        fn wide_encode_is_byte_identical(
            runs in proptest::collection::vec((any::<u8>(), 1usize..600), 0..30)
        ) {
            // Adjacent runs may share a byte value, exercising merges.
            let mut data = Vec::new();
            for (b, n) in runs {
                data.extend(std::iter::repeat_n(b, n));
            }
            prop_assert_eq!(rle_encode_bytes(&data), byte_rle(&data));
        }

        #[test]
        fn byte_rle_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            let enc = rle_encode_bytes(&data);
            prop_assert_eq!(rle_decode_bytes(&enc, data.len()).unwrap(), data);
        }

        #[test]
        fn pixel_rle_roundtrips(
            values in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..500)
        ) {
            let px: Vec<GrayAlpha8> = values.iter().map(|&(v, a)| GrayAlpha8::new(v, a)).collect();
            let enc = Codec::<GrayAlpha8>::encode(&RleCodec, &px);
            // Never worse than raw + 1 header byte.
            prop_assert!(enc.bytes.len() <= px.len() * GrayAlpha8::BYTES + 1);
            let dec = Codec::<GrayAlpha8>::decode(&RleCodec, &enc.bytes, px.len()).unwrap();
            prop_assert_eq!(dec, px);
        }
    }
}
