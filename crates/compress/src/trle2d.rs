//! Two-dimensional TRLE: the paper's 2×2 templates applied to rectangular
//! frames.
//!
//! The span-oriented [`crate::TrleCodec`] tiles four *consecutive* pixels
//! so it can compress arbitrary composition messages. This module is the
//! literal Figure-3 formulation for whole images: tiles are 2×2 pixel
//! squares covering two adjacent scanlines, visited in row-major tile
//! order; template bit layout is
//!
//! ```text
//! bit 0: (x, y)     bit 1: (x+1, y)
//! bit 2: (x, y+1)   bit 3: (x+1, y+1)
//! ```
//!
//! The code format is unchanged (low nibble template, high nibble run − 1),
//! and non-blank pixel values follow the code stream in tile order. Odd
//! image extents are padded with blank pixels (padding bits must be zero,
//! enforced on decode).
//!
//! On 2-D-coherent images (the blocky engine frames) the square tiles find
//! slightly longer template runs than the flat codec; `trle_demo` compares
//! the two.

use crate::codec::{CodecError, Encoded};
use crate::trle::RunPacker;
use rt_imaging::pixel::Pixel;
use rt_imaging::Image;

fn tile_coords(width: usize, height: usize) -> (usize, usize) {
    (width.div_ceil(2), height.div_ceil(2))
}

/// Template of the 2×2 tile whose top-left pixel is `(2tx, 2ty)`.
fn tile_template<P: Pixel>(img: &Image<P>, tx: usize, ty: usize) -> u8 {
    let mut t = 0u8;
    for (bit, (dx, dy)) in [(0, 0), (1, 0), (0, 1), (1, 1)].into_iter().enumerate() {
        let (x, y) = (2 * tx + dx, 2 * ty + dy);
        if x < img.width() && y < img.height() && !img.get(x, y).is_blank() {
            t |= 1 << bit;
        }
    }
    t
}

/// Encode a whole image with 2-D TRLE.
pub fn encode_image<P: Pixel>(img: &Image<P>) -> Encoded {
    let raw_bytes = img.len() * P::BYTES;
    let (tw, th) = tile_coords(img.width(), img.height());

    // The code stream is packed behind its count, patched afterwards.
    let mut bytes = Vec::with_capacity(4 + tw * th);
    bytes.extend_from_slice(&[0; 4]);
    let mut packer = RunPacker::default();
    let mut payload: Vec<u8> = Vec::new();
    for ty in 0..th {
        for tx in 0..tw {
            packer.push(&mut bytes, tile_template(img, tx, ty), 1);
            for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                let (x, y) = (2 * tx + dx, 2 * ty + dy);
                if x < img.width() && y < img.height() {
                    let p = img.get(x, y);
                    if !p.is_blank() {
                        p.write_bytes(&mut payload);
                    }
                }
            }
        }
    }
    packer.finish(&mut bytes);
    let n_codes = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&n_codes.to_le_bytes());
    bytes.extend_from_slice(&payload);
    Encoded { bytes, raw_bytes }
}

/// Decode a buffer produced by [`encode_image`] back into a
/// `width × height` image.
pub fn decode_image<P: Pixel>(
    data: &[u8],
    width: usize,
    height: usize,
) -> Result<Image<P>, CodecError> {
    let bad = |what| CodecError::Corrupt {
        codec: "trle2d",
        what,
    };
    if data.len() < 4 {
        return Err(CodecError::Truncated { codec: "trle2d" });
    }
    let n_codes = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
    if data.len() < 4 + n_codes {
        return Err(CodecError::Truncated { codec: "trle2d" });
    }
    let codes = &data[4..4 + n_codes];
    let payload = &data[4 + n_codes..];
    let (tw, th) = tile_coords(width, height);

    let templates = crate::trle::decode_codes(codes);
    if templates.len() != tw * th {
        return Err(bad("tile count does not match image size"));
    }

    let mut img: Image<P> = Image::blank(width, height);
    let mut at = 0usize;
    for (tile_idx, template) in templates.iter().enumerate() {
        let (ty, tx) = (tile_idx / tw, tile_idx % tw);
        for (bit, (dx, dy)) in [(0, 0), (1, 0), (0, 1), (1, 1)].into_iter().enumerate() {
            let (x, y) = (2 * tx + dx, 2 * ty + dy);
            let set = template & (1 << bit) != 0;
            if x >= width || y >= height {
                if set {
                    return Err(bad("non-blank bit set in padding"));
                }
                continue;
            }
            if set {
                if at + P::BYTES > payload.len() {
                    return Err(CodecError::Truncated { codec: "trle2d" });
                }
                let p = P::read_bytes(&payload[at..at + P::BYTES])
                    .map_err(|_| bad("undecodable payload pixel"))?;
                at += P::BYTES;
                img.set(x, y, p);
            }
        }
    }
    if at != payload.len() {
        return Err(bad("trailing payload bytes"));
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rt_imaging::pixel::GrayAlpha8;

    fn px(v: u8) -> GrayAlpha8 {
        GrayAlpha8::new(v, 255)
    }

    #[test]
    fn roundtrip_simple() {
        let img = Image::from_fn(6, 4, |x, y| {
            if (x + y) % 3 == 0 {
                GrayAlpha8::blank()
            } else {
                px((10 * x + y) as u8)
            }
        });
        let enc = encode_image(&img);
        let dec: Image<GrayAlpha8> = decode_image(&enc.bytes, 6, 4).unwrap();
        assert_eq!(dec, img);
    }

    #[test]
    fn odd_extents_roundtrip() {
        let img = Image::from_fn(5, 3, |x, y| px((x * 7 + y * 3 + 1) as u8));
        let enc = encode_image(&img);
        let dec: Image<GrayAlpha8> = decode_image(&enc.bytes, 5, 3).unwrap();
        assert_eq!(dec, img);
    }

    #[test]
    fn blank_image_compresses_to_codes_only() {
        let img: Image<GrayAlpha8> = Image::blank(64, 64);
        let enc = encode_image(&img);
        // 1024 tiles / 16 per code = 64 codes + 4-byte header.
        assert_eq!(enc.bytes.len(), 68);
        assert!(enc.ratio() > 100.0);
        let dec: Image<GrayAlpha8> = decode_image(&enc.bytes, 64, 64).unwrap();
        assert_eq!(dec, img);
    }

    #[test]
    fn square_tiles_beat_flat_tiles_on_2d_structure() {
        // A vertical bar: 2-D tiles produce long runs of one template
        // (left-half-opaque), while flat 4-pixel groups alternate
        // templates at the bar edges every scanline.
        let img = Image::from_fn(64, 64, |x, y| {
            if (30..34).contains(&x) {
                px((y * 3 + 1) as u8)
            } else {
                GrayAlpha8::blank()
            }
        });
        let enc2d = encode_image(&img);
        let flat = crate::codec::Codec::<GrayAlpha8>::encode(&crate::TrleCodec, img.pixels());
        assert!(
            enc2d.bytes.len() <= flat.bytes.len(),
            "2d {} vs flat {}",
            enc2d.bytes.len(),
            flat.bytes.len()
        );
        let dec: Image<GrayAlpha8> = decode_image(&enc2d.bytes, 64, 64).unwrap();
        assert_eq!(dec, img);
    }

    #[test]
    fn decode_error_paths() {
        assert!(decode_image::<GrayAlpha8>(&[0, 0], 2, 2).is_err()); // truncated header
                                                                     // Code count beyond buffer.
        assert!(decode_image::<GrayAlpha8>(&[9, 0, 0, 0, 0xF0], 2, 2).is_err());
        // Tile count mismatch.
        assert!(decode_image::<GrayAlpha8>(&[1, 0, 0, 0, 0x00], 8, 8).is_err());
        // Padding bit set: 1 tile for a 1×1 image, bit 3 set.
        assert!(decode_image::<GrayAlpha8>(&[1, 0, 0, 0, 0x08, 7, 7], 1, 1).is_err());
        // Missing payload.
        assert!(decode_image::<GrayAlpha8>(&[1, 0, 0, 0, 0x01], 2, 2).is_err());
        // Trailing payload.
        assert!(decode_image::<GrayAlpha8>(&[1, 0, 0, 0, 0x00, 1, 1], 2, 2).is_err());
    }

    proptest! {
        #[test]
        fn roundtrips_any_image(
            w in 1usize..20,
            h in 1usize..20,
            seed in any::<u64>(),
        ) {
            let img = Image::from_fn(w, h, |x, y| {
                let v = seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((x * 31 + y * 17) as u64);
                if v.is_multiple_of(3) {
                    GrayAlpha8::blank()
                } else {
                    GrayAlpha8::new((v % 251) as u8, 1 + (v % 255) as u8)
                }
            });
            let enc = encode_image(&img);
            let dec: Image<GrayAlpha8> = decode_image(&enc.bytes, w, h).unwrap();
            prop_assert_eq!(dec, img);
        }
    }
}
