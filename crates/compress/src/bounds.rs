//! Bounding-interval trimming: the 1-D span analog of Ma et al.'s bounding
//! rectangle.
//!
//! The binary-swap paper ships, for each partial image, only the bounding
//! rectangle of its non-blank pixels; the rotate-tiling paper cites 20–50%
//! savings. Composition messages here are flat spans, so the analog is the
//! **bounding interval**: the range between the first and last non-blank
//! pixel. Everything outside is known blank and ships as two counters.
//!
//! Wire format: `[lead: u32 LE][content_len: u32 LE][raw content pixels]`.

use crate::codec::{Codec, CodecError};
use rt_imaging::pixel::{pixels_from_bytes, Pixel};

/// Bounding-interval codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundsCodec;

impl<P: Pixel> Codec<P> for BoundsCodec {
    fn name(&self) -> &'static str {
        "bounds"
    }

    fn encode_into(&self, pixels: &[P], out: &mut Vec<u8>) {
        let first = pixels.iter().position(|p| !p.is_blank());
        let (lead, content): (usize, &[P]) = match first {
            None => (pixels.len(), &[]),
            Some(f) => {
                // A non-blank pixel exists, so rposition finds `f` at worst.
                let last = pixels.iter().rposition(|p| !p.is_blank()).unwrap_or(f);
                (f, &pixels[f..=last])
            }
        };
        out.reserve(8 + content.len() * P::BYTES);
        out.extend_from_slice(&(lead as u32).to_le_bytes());
        out.extend_from_slice(&(content.len() as u32).to_le_bytes());
        P::extend_wire_bytes(content, out);
    }

    fn decode(&self, data: &[u8], n_pixels: usize) -> Result<Vec<P>, CodecError> {
        if data.len() < 8 {
            return Err(CodecError::Truncated { codec: "bounds" });
        }
        let lead = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
        let content_len = u32::from_le_bytes([data[4], data[5], data[6], data[7]]) as usize;
        if lead.checked_add(content_len).is_none_or(|s| s > n_pixels) {
            return Err(CodecError::Corrupt {
                codec: "bounds",
                what: "interval exceeds pixel count",
            });
        }
        let body = &data[8..];
        if body.len() != content_len * P::BYTES {
            return Err(CodecError::WrongPixelCount {
                codec: "bounds",
                expected: content_len,
                got: body.len() / P::BYTES,
            });
        }
        let content: Vec<P> = pixels_from_bytes(body).map_err(|_| CodecError::Corrupt {
            codec: "bounds",
            what: "undecodable content pixels",
        })?;
        let mut out = Vec::with_capacity(n_pixels);
        out.resize(lead, P::blank());
        out.extend(content);
        out.resize(n_pixels, P::blank());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rt_imaging::pixel::GrayAlpha8;

    fn blank() -> GrayAlpha8 {
        GrayAlpha8::blank()
    }

    fn px(v: u8) -> GrayAlpha8 {
        GrayAlpha8::new(v, 255)
    }

    #[test]
    fn trims_blank_margins() {
        let mut pixels = vec![blank(); 100];
        pixels[40] = px(1);
        pixels[59] = px(2);
        let enc = Codec::<GrayAlpha8>::encode(&BoundsCodec, &pixels);
        // 8 header bytes + 20 content pixels * 2 bytes.
        assert_eq!(enc.bytes.len(), 48);
        let dec = Codec::<GrayAlpha8>::decode(&BoundsCodec, &enc.bytes, 100).unwrap();
        assert_eq!(dec, pixels);
    }

    #[test]
    fn all_blank_is_header_only() {
        let pixels = vec![blank(); 4096];
        let enc = Codec::<GrayAlpha8>::encode(&BoundsCodec, &pixels);
        assert_eq!(enc.bytes.len(), 8);
        let dec = Codec::<GrayAlpha8>::decode(&BoundsCodec, &enc.bytes, 4096).unwrap();
        assert_eq!(dec, pixels);
    }

    #[test]
    fn interior_blanks_are_kept_verbatim() {
        let pixels = vec![px(1), blank(), blank(), px(2)];
        let enc = Codec::<GrayAlpha8>::encode(&BoundsCodec, &pixels);
        assert_eq!(enc.bytes.len(), 8 + 8); // no trimming possible
        let dec = Codec::<GrayAlpha8>::decode(&BoundsCodec, &enc.bytes, 4).unwrap();
        assert_eq!(dec, pixels);
    }

    #[test]
    fn decode_error_paths() {
        assert!(Codec::<GrayAlpha8>::decode(&BoundsCodec, &[0; 7], 4).is_err());
        // Interval outside pixel count.
        let mut bad = Vec::new();
        bad.extend_from_slice(&10u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&[1, 1]);
        assert!(Codec::<GrayAlpha8>::decode(&BoundsCodec, &bad, 5).is_err());
        // Body length mismatch.
        let mut bad = Vec::new();
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[1, 1]); // only one pixel's bytes
        assert!(Codec::<GrayAlpha8>::decode(&BoundsCodec, &bad, 4).is_err());
    }

    proptest! {
        #[test]
        fn bounds_roundtrips(
            lead in 0usize..50,
            content in proptest::collection::vec((1u8..=255, 1u8..=255), 0..100),
            tail in 0usize..50,
        ) {
            let mut pixels = vec![blank(); lead];
            pixels.extend(content.iter().map(|&(v, a)| GrayAlpha8::new(v, a)));
            pixels.extend(vec![blank(); tail]);
            let enc = Codec::<GrayAlpha8>::encode(&BoundsCodec, &pixels);
            let dec = Codec::<GrayAlpha8>::decode(&BoundsCodec, &enc.bytes, pixels.len()).unwrap();
            prop_assert_eq!(dec, pixels);
            // Savings are at least the trimmed margins.
            prop_assert!(enc.bytes.len() <= 8 + content.len() * 2);
        }
    }
}
