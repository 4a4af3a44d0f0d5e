//! Template run-length encoding (TRLE), the paper's Section 3 contribution.
//!
//! A **template** is the blank/non-blank pattern of a tile of four pixels —
//! 16 possible patterns, numbered 0–15 exactly as in the paper's Figure 3
//! (bit `j` of the template is set iff pixel `j` of the tile is non-blank).
//! A **TRLE code** is one byte: the low nibble is the template, the high
//! nibble is the number of consecutive tiles carrying that same template,
//! minus one (so a single code covers up to 16 tiles). Codes are produced
//! with shifts and masks only — the cheap "bit operation" encoding the paper
//! emphasizes.
//!
//! The values of non-blank pixels are appended verbatim after the code
//! stream (blank pixels ship zero bytes), so on the paper's partial images —
//! gray frames whose useful content occupies a fraction of the 512×512
//! canvas — TRLE approaches the active-pixel lower bound while classic RLE
//! stalls on the varied gray values (the Figure 4 example: 18 bytes of RLE
//! vs 5 bytes of TRLE for the same two scanlines).
//!
//! Wire format: `[mode][n_codes: u32 LE][codes][non-blank pixel bytes]`,
//! with a raw-fallback mode so the codec never expands beyond one byte of
//! header. The encoder makes two passes: it classifies tiles straight into
//! the code stream while counting non-blank pixels, then writes the message
//! once at its exact length.

use crate::codec::{raw_body, Codec, CodecError, OverDir};
use rt_imaging::kernels::{nonzero_byte_mask, zero_prefix};
use rt_imaging::pixel::{pixels_from_bytes, OverStats, Pixel};
use rt_imaging::ImagingError;

const MODE_RAW: u8 = 0;
const MODE_TRLE: u8 = 1;

/// Pixels per template tile (2×2 in the paper; four consecutive pixels of
/// the flat span here — see the crate docs for why this is equivalent).
pub const TILE: usize = 4;

/// Maximum tiles one code can cover (4-bit run nibble).
pub const MAX_RUN: usize = 16;

/// Tiles per block of wire bytes the byte-level classifier reads (2 KiB of
/// 2-byte pixels, one buffer reused for the whole span).
const BLOCK_TILES: usize = 256;

/// The paper's TRLE codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrleCodec;

/// Compute the template (blank/non-blank mask) of one tile.
///
/// `pixels` may be shorter than [`TILE`] for the final partial tile; missing
/// pixels count as blank.
#[inline]
pub fn tile_template<P: Pixel>(pixels: &[P]) -> u8 {
    let mut t = 0u8;
    for (j, p) in pixels.iter().take(TILE).enumerate() {
        if !p.is_blank() {
            t |= 1 << j;
        }
    }
    t
}

/// The one TRLE run packer: tiles go in as runs of one template — a
/// single tile, or a whole blank or all-non-blank stretch at once — and
/// come out as codes of at most [`MAX_RUN`] tiles each. Every TRLE encoder
/// (flat and 2-D) packs through it.
#[derive(Debug, Default)]
pub(crate) struct RunPacker {
    codes: Vec<u8>,
    template: u8,
    /// Tiles in the open run; 0 before the first tile.
    run: usize,
}

impl RunPacker {
    /// A packer for `tiles` tiles: at most one code each, so the code
    /// stream is allocated once.
    pub(crate) fn for_tiles(tiles: usize) -> Self {
        Self {
            codes: Vec::with_capacity(tiles),
            ..Self::default()
        }
    }

    /// Append `k ≥ 1` tiles of template `t`: an open run of another
    /// template is closed first, then the run is filled and split into
    /// codes of [`MAX_RUN`] tiles.
    #[inline]
    pub(crate) fn push(&mut self, t: u8, k: usize) {
        if t != self.template {
            self.close();
            self.template = t;
            self.run = 0;
        }
        let mut run = self.run + k;
        while run > MAX_RUN {
            self.run = MAX_RUN;
            self.close();
            run -= MAX_RUN;
        }
        self.run = run;
    }

    fn close(&mut self) {
        if self.run > 0 {
            self.codes
                .push((((self.run - 1) as u8) << 4) | self.template);
        }
    }

    /// The code stream, with the open run closed.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.close();
        self.codes
    }
}

/// Encode the template masks of `pixels` into TRLE codes.
pub fn encode_codes<P: Pixel>(pixels: &[P]) -> Vec<u8> {
    classify_pixels(pixels).0
}

/// Classify tile by tile through `is_blank` ([`tile_template`]): the code
/// stream and the number of non-blank pixels. The only classifier valid
/// for pixel types whose blankness is not the all-zero byte pattern.
fn classify_pixels<P: Pixel>(pixels: &[P]) -> (Vec<u8>, usize) {
    let mut packer = RunPacker::for_tiles(pixels.len().div_ceil(TILE));
    let mut non_blank = 0;
    for tile in pixels.chunks(TILE) {
        let t = tile_template(tile);
        non_blank += t.count_ones() as usize;
        packer.push(t, 1);
    }
    (packer.finish(), non_blank)
}

/// Maps the [`nonzero_byte_mask`] of a `u64` holding four 2-byte pixels to
/// the tile template: bit `j` of the template is set iff byte pair
/// `2j, 2j+1` has any non-zero byte. Valid only for pixel types with
/// [`Pixel::BLANK_IS_ZERO_BYTES`].
const PAIR_TEMPLATE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut mask = 0usize;
    while mask < 256 {
        let mut t = 0u8;
        let mut j = 0;
        while j < 4 {
            if (mask >> (2 * j)) & 0b11 != 0 {
                t |= 1 << j;
            }
            j += 1;
        }
        table[mask] = t;
        mask += 1;
    }
    table
};

/// True iff every 2-byte pixel of the tile word `w` has a non-zero byte:
/// `x − 1` borrows into the top bit of a 16-bit lane `x` only if `x = 0`.
#[inline]
fn all_pairs_non_zero(w: u64) -> bool {
    w.wrapping_sub(0x0001_0001_0001_0001) & !w & 0x8000_8000_8000_8000 == 0
}

/// [`classify_pixels`] by byte inspection, for 2-byte pixels with
/// [`Pixel::BLANK_IS_ZERO_BYTES`]: the span is serialized [`BLOCK_TILES`]
/// tiles at a time into one reused buffer (the partial last tile
/// zero-padded, so its missing pixels read as blank). A blank stretch is
/// found with [`zero_prefix`] and a stretch of all-non-blank tiles with one
/// word test per tile, and each is packed in one step; a mixed tile is a
/// movemask and a [`PAIR_TEMPLATE`] lookup.
fn classify_wire<P: Pixel>(pixels: &[P]) -> (Vec<u8>, usize) {
    let mut packer = RunPacker::for_tiles(pixels.len().div_ceil(TILE));
    let mut non_blank = 0;
    let mut block = Vec::with_capacity(BLOCK_TILES * TILE * P::BYTES);
    for chunk in pixels.chunks(BLOCK_TILES * TILE) {
        block.clear();
        P::extend_wire_bytes(chunk, &mut block);
        block.resize(block.len().next_multiple_of(8), 0);
        let tiles = block.as_chunks::<8>().0;
        let full = |tile: &&[u8; 8]| all_pairs_non_zero(u64::from_le_bytes(**tile));
        let mut i = 0;
        while let Some(&tile) = tiles.get(i) {
            let word = u64::from_le_bytes(tile);
            let (t, k) = if word == 0 {
                (0, zero_prefix(tiles[i..].as_flattened()) / 8)
            } else if all_pairs_non_zero(word) {
                (0x0F, tiles[i..].iter().take_while(full).count())
            } else {
                (PAIR_TEMPLATE[nonzero_byte_mask(word) as usize], 1)
            };
            non_blank += t.count_ones() as usize * k;
            packer.push(t, k);
            i += k;
        }
    }
    (packer.finish(), non_blank)
}

/// Expand TRLE codes back into per-tile templates.
pub fn decode_codes(codes: &[u8]) -> Vec<u8> {
    let mut tiles = Vec::new();
    for &code in codes {
        let template = code & 0x0F;
        let run = ((code >> 4) as usize) + 1;
        tiles.extend(std::iter::repeat_n(template, run));
    }
    tiles
}

/// Split a `MODE_TRLE` body into `(codes, payload)`. `n_codes` is the
/// peer's claim: it is checked against the bytes that are there and never
/// sizes anything.
fn split_body(body: &[u8]) -> Result<(&[u8], &[u8]), CodecError> {
    let truncated = CodecError::Truncated { codec: "trle" };
    let Some((n_codes, rest)) = body.split_first_chunk::<4>() else {
        return Err(truncated);
    };
    rest.split_at_checked(u32::from_le_bytes(*n_codes) as usize)
        .ok_or(truncated)
}

/// Tiles a code stream covers.
fn tile_count(codes: &[u8]) -> usize {
    codes.iter().map(|&code| (code >> 4) as usize + 1).sum()
}

const TILE_COUNT_MISMATCH: CodecError = CodecError::Corrupt {
    codec: "trle",
    what: "tile count does not match pixel count",
};

impl<P: Pixel> Codec<P> for TrleCodec {
    fn name(&self) -> &'static str {
        "trle"
    }

    /// Pass 1 classifies (the word-wise classifier reads wire bytes, four
    /// 2-byte pixels at a time, so it is only valid when blankness is
    /// exactly the all-zero byte pattern of such a pixel); pass 2 picks
    /// TRLE or the raw fallback from the exact sizes and writes the message
    /// once, skipping blank runs, copying each all-non-blank run in one
    /// bulk store and mixed tiles pixel by pixel.
    fn encode_into(&self, pixels: &[P], out: &mut Vec<u8>) {
        let (codes, non_blank) = if P::BLANK_IS_ZERO_BYTES && P::BYTES == 2 {
            classify_wire(pixels)
        } else {
            classify_pixels(pixels)
        };
        let raw_bytes = pixels.len() * P::BYTES;
        let trle_len = 1 + 4 + codes.len() + non_blank * P::BYTES;
        if trle_len > raw_bytes {
            out.reserve(raw_bytes + 1);
            out.push(MODE_RAW);
            P::extend_wire_bytes(pixels, out);
            return;
        }
        out.reserve(trle_len);
        out.push(MODE_TRLE);
        out.extend_from_slice(&(codes.len() as u32).to_le_bytes());
        out.extend_from_slice(&codes);
        let mut base = 0;
        for &code in &codes {
            let template = code & 0x0F;
            let end = (base + ((code >> 4) as usize + 1) * TILE).min(pixels.len());
            match template {
                0 => {}
                0x0F => P::extend_wire_bytes(&pixels[base..end], out),
                _ => {
                    for (j, p) in pixels[base..end].iter().enumerate() {
                        if template & (1 << (j % TILE)) != 0 {
                            p.write_bytes(out);
                        }
                    }
                }
            }
            base = end;
        }
    }

    fn decode(&self, data: &[u8], n_pixels: usize) -> Result<Vec<P>, CodecError> {
        let Some((&mode, body)) = data.split_first() else {
            if n_pixels == 0 {
                return Ok(Vec::new());
            }
            return Err(CodecError::Truncated { codec: "trle" });
        };
        match mode {
            MODE_RAW => {
                if body.len() != n_pixels * P::BYTES {
                    return Err(CodecError::WrongPixelCount {
                        codec: "trle",
                        expected: n_pixels,
                        got: body.len() / P::BYTES,
                    });
                }
                pixels_from_bytes(body).map_err(|_| CodecError::Corrupt {
                    codec: "trle",
                    what: "undecodable raw pixel bytes",
                })
            }
            MODE_TRLE => {
                let (codes, payload) = split_body(body)?;
                // Counted before it is expanded: a code stream may claim
                // sixteen tiles per byte.
                if tile_count(codes) != n_pixels.div_ceil(TILE) {
                    return Err(TILE_COUNT_MISMATCH);
                }
                let tiles = decode_codes(codes);
                let mut out = Vec::with_capacity(n_pixels);
                let mut at = 0usize;
                for (tile_idx, template) in tiles.iter().enumerate() {
                    for j in 0..TILE {
                        let pixel_idx = tile_idx * TILE + j;
                        if pixel_idx >= n_pixels {
                            if template & (1 << j) != 0 {
                                return Err(CodecError::Corrupt {
                                    codec: "trle",
                                    what: "non-blank bit set in padding",
                                });
                            }
                            continue;
                        }
                        if template & (1 << j) != 0 {
                            if at + P::BYTES > payload.len() {
                                return Err(CodecError::Truncated { codec: "trle" });
                            }
                            let p = P::read_bytes(&payload[at..at + P::BYTES]).map_err(|_| {
                                CodecError::Corrupt {
                                    codec: "trle",
                                    what: "undecodable payload pixel",
                                }
                            })?;
                            at += P::BYTES;
                            out.push(p);
                        } else {
                            out.push(P::blank());
                        }
                    }
                }
                if at != payload.len() {
                    return Err(CodecError::Corrupt {
                        codec: "trle",
                        what: "trailing payload bytes",
                    });
                }
                Ok(out)
            }
            _ => Err(CodecError::Corrupt {
                codec: "trle",
                what: "unknown mode byte",
            }),
        }
    }

    fn decode_over(
        &self,
        data: &[u8],
        dst: &mut [P],
        dir: OverDir,
    ) -> Result<OverStats, CodecError> {
        match dir {
            OverDir::Front => trle_over(data, dst, P::over_front_bytes),
            OverDir::Back => trle_over(data, dst, P::over_back_bytes),
        }
    }

    fn decode_into(&self, data: &[u8], dst: &mut [P]) -> Result<OverStats, CodecError> {
        trle_over(data, dst, P::unpack_bytes)
    }
}

/// A TRLE message merged into `dst` through `kernel`, one of the pixel
/// type's byte kernels (see [`raw_body`]): a raw-fallback body in one call,
/// a template body by [`trle_over_codes`].
fn trle_over<P: Pixel>(
    data: &[u8],
    dst: &mut [P],
    kernel: impl Fn(&mut [P], &[u8]) -> Result<OverStats, ImagingError>,
) -> Result<OverStats, CodecError> {
    let Some((&mode, body)) = data.split_first() else {
        if dst.is_empty() {
            return Ok(OverStats::default());
        }
        return Err(CodecError::Truncated { codec: "trle" });
    };
    match mode {
        MODE_RAW => raw_body("trle", body, dst, kernel),
        MODE_TRLE => {
            let (codes, payload) = split_body(body)?;
            trle_over_codes(codes, payload, dst, kernel)
        }
        _ => Err(CodecError::Corrupt {
            codec: "trle",
            what: "unknown mode byte",
        }),
    }
}

/// The fused TRLE merge walk, code by code, compositing only the pixels
/// whose template bit is set: blank pixels are the identity of `over`, so
/// they ship no bytes AND cost no work — the paper's Section 1 claim,
/// realized at the byte level. A run of all-blank tiles is skipped in one
/// step, and a run of all-non-blank tiles that lies wholly in bounds is
/// merged with a single bulk kernel call over `run · TILE` contiguous
/// payload pixels; mixed templates go bit by bit. The stats of shipped
/// pixels are the kernel's own: an honest encoder ships only non-blank
/// ones, and a blank one under a set bit counts as what it is, exactly as
/// decode-then-`over` would count it. For [`Codec::decode_into`] `kernel`
/// is the unpack: blank runs stay as the blank destination has them, full
/// runs are copied in bulk and mixed tiles bit by bit.
fn trle_over_codes<P: Pixel>(
    codes: &[u8],
    payload: &[u8],
    dst: &mut [P],
    kernel: impl Fn(&mut [P], &[u8]) -> Result<OverStats, ImagingError>,
) -> Result<OverStats, CodecError> {
    let n_pixels = dst.len();
    let expected_tiles = n_pixels.div_ceil(TILE);
    let mut tile_idx = 0usize;
    let mut at = 0usize; // payload byte cursor
    let mut stats = OverStats::default();
    // Merge `px` payload pixels at `at` into `dst[base..]`.
    let mut merge = |at: &mut usize, base: usize, px: usize| {
        let bytes = payload
            .get(*at..*at + px * P::BYTES)
            .ok_or(CodecError::Truncated { codec: "trle" })?;
        let merged = raw_body("trle", bytes, &mut dst[base..base + px], &kernel).map_err(|_| {
            CodecError::Corrupt {
                codec: "trle",
                what: "undecodable payload pixel",
            }
        })?;
        *at += bytes.len();
        Ok::<_, CodecError>(merged)
    };
    for &code in codes {
        let template = code & 0x0F;
        let run = ((code >> 4) as usize) + 1;
        if tile_idx + run > expected_tiles {
            return Err(TILE_COUNT_MISMATCH);
        }
        let base = tile_idx * TILE;
        if template == 0 {
            // Whole-run blank skip; tiles padding past the image are not
            // skipped source pixels.
            stats.blank_skipped += (run * TILE).min(n_pixels - base);
            tile_idx += run;
            continue;
        }
        if template == 0x0F && base + run * TILE <= n_pixels {
            stats += merge(&mut at, base, run * TILE)?;
            tile_idx += run;
            continue;
        }
        for _ in 0..run {
            for j in 0..TILE {
                let pixel_idx = tile_idx * TILE + j;
                if template & (1 << j) == 0 {
                    if pixel_idx < n_pixels {
                        stats.blank_skipped += 1;
                    }
                    continue;
                }
                if pixel_idx >= n_pixels {
                    return Err(CodecError::Corrupt {
                        codec: "trle",
                        what: "non-blank bit set in padding",
                    });
                }
                stats += merge(&mut at, pixel_idx, 1)?;
            }
            tile_idx += 1;
        }
    }
    if tile_idx != expected_tiles {
        return Err(TILE_COUNT_MISMATCH);
    }
    if at != payload.len() {
        return Err(CodecError::Corrupt {
            codec: "trle",
            what: "trailing payload bytes",
        });
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoded;
    use crate::rle::RleCodec;
    use proptest::prelude::*;
    use rt_imaging::pixel::{pixels_to_bytes, GrayAlpha8};

    /// The per-pixel oracle the codec's encoder is held to byte for byte:
    /// [`encode_codes`], the non-blank pixels one `write_bytes` each, and
    /// the raw fallback whenever that would be longer than the raw stream.
    fn trle_encode_scalar<P: Pixel>(pixels: &[P]) -> Encoded {
        let codes = encode_codes(pixels);
        let mut payload = Vec::new();
        for p in pixels.iter().filter(|p| !p.is_blank()) {
            p.write_bytes(&mut payload);
        }
        let raw_bytes = pixels.len() * P::BYTES;
        let mut bytes = Vec::new();
        if 1 + 4 + codes.len() + payload.len() > raw_bytes {
            bytes.push(MODE_RAW);
            bytes.extend(pixels_to_bytes(pixels));
        } else {
            bytes.push(MODE_TRLE);
            bytes.extend((codes.len() as u32).to_le_bytes());
            bytes.extend(codes);
            bytes.extend(payload);
        }
        Encoded { bytes, raw_bytes }
    }

    fn blank() -> GrayAlpha8 {
        GrayAlpha8::blank()
    }

    fn px(v: u8) -> GrayAlpha8 {
        GrayAlpha8::new(v, 255)
    }

    #[test]
    fn template_of_tile_matches_figure3_numbering() {
        // Template 0: all blank; template 15: all non-blank; template 5:
        // pixels 0 and 2 non-blank.
        assert_eq!(tile_template(&[blank(), blank(), blank(), blank()]), 0);
        assert_eq!(tile_template(&[px(1), px(2), px(3), px(4)]), 15);
        assert_eq!(tile_template(&[px(1), blank(), px(3), blank()]), 5);
        assert_eq!(tile_template(&[blank(), px(9)]), 2); // partial tile
    }

    #[test]
    fn codes_pack_template_and_run() {
        // 20 blank pixels = 5 tiles of template 0 → one code 0x40.
        let pixels = vec![blank(); 20];
        let codes = encode_codes(&pixels);
        assert_eq!(codes, vec![0x40]);
        assert_eq!(decode_codes(&codes), vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn run_splits_at_sixteen_tiles() {
        // 17 tiles of template 15 → codes [0xFF, 0x0F].
        let pixels = vec![px(7); 17 * TILE];
        let codes = encode_codes(&pixels);
        assert_eq!(codes, vec![0xFF, 0x0F]);
        assert_eq!(decode_codes(&codes).len(), 17);
    }

    #[test]
    fn roundtrip_mixed_block() {
        let mut pixels = Vec::new();
        for i in 0..100u8 {
            if i % 3 == 0 {
                pixels.push(blank());
            } else {
                pixels.push(px(i));
            }
        }
        let enc = Codec::<GrayAlpha8>::encode(&TrleCodec, &pixels);
        let dec = Codec::<GrayAlpha8>::decode(&TrleCodec, &enc.bytes, pixels.len()).unwrap();
        assert_eq!(dec, pixels);
    }

    #[test]
    fn half_blank_varied_gray_block_beats_rle() {
        // The regime the paper designed TRLE for: a partial image whose
        // non-blank half carries *varied* gray values. RLE gains nothing
        // (no byte runs inside the content, so it falls back to raw);
        // TRLE still drops the blank half.
        let mut pixels = vec![blank(); 512];
        for i in 0..512u32 {
            pixels.push(px((i * 37 % 251) as u8 + 1));
        }
        let trle = Codec::<GrayAlpha8>::encode(&TrleCodec, &pixels);
        let rle = Codec::<GrayAlpha8>::encode(&RleCodec, &pixels);
        assert!(
            trle.bytes.len() < rle.bytes.len(),
            "TRLE {} vs RLE {}",
            trle.bytes.len(),
            rle.bytes.len()
        );
        // TRLE ≈ half of raw (plus small code stream).
        assert!(trle.ratio() > 1.8, "ratio {}", trle.ratio());
        let dec = Codec::<GrayAlpha8>::decode(&TrleCodec, &trle.bytes, pixels.len()).unwrap();
        assert_eq!(dec, pixels);
    }

    #[test]
    fn fully_blank_block_is_tiny() {
        let pixels = vec![blank(); 4096];
        let enc = Codec::<GrayAlpha8>::encode(&TrleCodec, &pixels);
        // 1024 tiles / 16 per code = 64 codes + 5 header bytes.
        assert_eq!(enc.bytes.len(), 69);
        assert!(enc.ratio() > 100.0);
        let dec = Codec::<GrayAlpha8>::decode(&TrleCodec, &enc.bytes, 4096).unwrap();
        assert_eq!(dec, pixels);
    }

    #[test]
    fn incompressible_block_falls_back_to_raw() {
        // All non-blank: TRLE = raw payload + codes, which is larger than
        // raw, so the fallback must kick in.
        let pixels: Vec<GrayAlpha8> = (0..64u32).map(|i| px((i % 255) as u8 + 1)).collect();
        let enc = Codec::<GrayAlpha8>::encode(&TrleCodec, &pixels);
        assert_eq!(enc.bytes[0], MODE_RAW);
        assert_eq!(enc.bytes.len(), 129);
        let dec = Codec::<GrayAlpha8>::decode(&TrleCodec, &enc.bytes, 64).unwrap();
        assert_eq!(dec, pixels);
    }

    #[test]
    fn decode_error_paths() {
        // Every stream must be refused by `decode` and by the fused walk
        // alike (only the error is pinned, not partial `dst` contents).
        let cases: [(&[u8], usize); 7] = [
            (&[7, 0, 0, 0, 0], 0),                     // unknown mode
            (&[MODE_TRLE, 1, 0], 4),                   // truncated header
            (&[MODE_TRLE, 9, 0, 0, 0, 0xF0], 4),       // code count beyond buffer
            (&[MODE_TRLE, 1, 0, 0, 0, 0x00], 9),       // one tile coded, 9 pixels
            (&[MODE_TRLE, 1, 0, 0, 0, 0x01], 4),       // payload missing for a set bit
            (&[MODE_TRLE, 1, 0, 0, 0, 0x08, 1, 1], 3), // padding bit set past n_pixels
            (&[MODE_TRLE, 1, 0, 0, 0, 0x00, 9, 9], 4), // trailing payload bytes
        ];
        for (data, n) in cases {
            assert!(
                Codec::<GrayAlpha8>::decode(&TrleCodec, data, n).is_err(),
                "{data:?}"
            );
            let mut dst = vec![blank(); n];
            let fused =
                Codec::<GrayAlpha8>::decode_over(&TrleCodec, data, &mut dst, OverDir::Front);
            assert!(fused.is_err(), "{data:?}");
        }
        let trailing = Err(CodecError::Corrupt {
            codec: "trle",
            what: "trailing payload bytes",
        });
        let (data, n) = cases[6];
        assert_eq!(
            Codec::<GrayAlpha8>::decode_over(
                &TrleCodec,
                data,
                &mut vec![blank(); n],
                OverDir::Back
            ),
            trailing
        );
        // Empty buffer with zero pixels is fine.
        assert_eq!(
            Codec::<GrayAlpha8>::decode(&TrleCodec, &[], 0).unwrap(),
            vec![]
        );
    }

    #[test]
    fn wide_walk_covers_bulk_blank_and_bulk_full_runs() {
        // Long all-blank prefix (bulk skip), long dense middle (bulk merge),
        // mixed tail and a partial final tile (per-bit walk) — all three
        // arms of the fused walk in one stream, against decode-then-`over`.
        let mut pixels = vec![blank(); 64];
        pixels.extend((0..64u32).map(|i| px((i % 254) as u8 + 1)));
        pixels.extend([px(1), blank(), px(3), blank(), px(5), px(6)]);
        let enc = Codec::<GrayAlpha8>::encode(&TrleCodec, &pixels);
        assert_eq!(enc.bytes[0], MODE_TRLE);
        let decoded = Codec::<GrayAlpha8>::decode(&TrleCodec, &enc.bytes, pixels.len()).unwrap();
        for dir in [OverDir::Front, OverDir::Back] {
            let base: Vec<GrayAlpha8> = (0..pixels.len())
                .map(|i| GrayAlpha8::new((i % 256) as u8, (i * 7 % 256) as u8))
                .collect();
            let want: Vec<GrayAlpha8> = decoded
                .iter()
                .zip(&base)
                .map(|(s, d)| match dir {
                    OverDir::Front => s.over(d),
                    OverDir::Back => d.over(s),
                })
                .collect();
            let mut dst = base;
            let stats =
                Codec::<GrayAlpha8>::decode_over(&TrleCodec, &enc.bytes, &mut dst, dir).unwrap();
            assert_eq!(dst, want);
            assert_eq!(stats.non_blank, 68);
            assert_eq!(stats.blank_skipped, 66);
        }
    }

    #[test]
    fn pixel_without_zero_blank_bytes_uses_scalar_classification() {
        // Provenance's blank test is lo == hi, not all-zero bytes, so the
        // byte-level classifier must not engage: `encode` has to be the
        // per-pixel encoder, and roundtrip.
        use rt_imaging::pixel::Provenance;
        const { assert!(!Provenance::BLANK_IS_ZERO_BYTES) };
        let pixels: Vec<Provenance> = (0..40u16)
            .map(|i| {
                if i % 3 == 0 {
                    Provenance::blank()
                } else {
                    Provenance { lo: i, hi: i + 1 }
                }
            })
            .collect();
        let enc = Codec::<Provenance>::encode(&TrleCodec, &pixels);
        assert_eq!(enc, trle_encode_scalar(&pixels));
        let dec = Codec::<Provenance>::decode(&TrleCodec, &enc.bytes, pixels.len()).unwrap();
        assert_eq!(dec, pixels);
    }

    /// The codec's encoder against [`trle_encode_scalar`], byte for byte:
    /// every two-tile sequence over the four byte classes of a `GrayAlpha8`
    /// (`00`, `v` only, `a` only, both: 4⁸ inputs), each also cut to a
    /// partial tail of 1–3 pixels (and decoded back, since the oracle packs
    /// through the same [`RunPacker`]) and each with its tiles repeated
    /// into runs of 15, 16, 17, 32 and 33; every template pair across the
    /// classifier's block boundary; and the lengths at which TRLE is as
    /// long as the raw stream, and one byte longer. Of rt-compress's tests
    /// it is the only one a classifier reading only the alpha byte fails.
    /// A packer that lets a run reach 17 tiles or does not close the open
    /// run, and a blank skip that rounds a partly blank tile up to a blank
    /// one, fail it and other tests alike.
    #[test]
    fn trle_encode_equivalence() {
        let class = |c: usize, i: usize| {
            let x = (i % 255) as u8 + 1;
            match c & 3 {
                0 => GrayAlpha8::blank(),
                1 => GrayAlpha8::new(x, 0),
                2 => GrayAlpha8::new(0, x),
                _ => GrayAlpha8::new(x, x | 0x80),
            }
        };
        let check = |pixels: &[GrayAlpha8]| {
            let enc = Codec::<GrayAlpha8>::encode(&TrleCodec, pixels);
            let want = trle_encode_scalar(pixels);
            assert!(enc == want, "{pixels:?}: {enc:?} != {want:?}");
            enc
        };
        let mut pixels = Vec::new();
        for bits in 0..1usize << 16 {
            let pair: Vec<_> = (0..2 * TILE).map(|i| class(bits >> (2 * i), i)).collect();
            for len in TILE + 1..=2 * TILE {
                let enc = check(&pair[..len]);
                let dec = Codec::<GrayAlpha8>::decode(&TrleCodec, &enc.bytes, len);
                assert_eq!(dec.as_deref(), Ok(&pair[..len]));
            }
            for run in [15, 16, 17, 32, 33] {
                pixels.clear();
                for tile in pair.chunks(TILE) {
                    for _ in 0..run {
                        pixels.extend_from_slice(tile);
                    }
                }
                check(&pixels);
            }
        }
        // Template pairs (a tile of template `a`, then one of `b`) ending
        // on either side of the block boundary, after blank tiles or tiles
        // of template `a`, then with 1–3 more pixels (`b`'s first pixel).
        let tile = |t: usize| (0..TILE).map(move |j| class(if t >> j & 1 == 1 { 3 } else { 0 }, j));
        for a in 0..16 {
            for b in 0..16 {
                for filler in [0, a] {
                    for tiles in BLOCK_TILES - 1..=BLOCK_TILES + 1 {
                        pixels.clear();
                        pixels.extend((0..tiles - 2).flat_map(|_| tile(filler)));
                        pixels.extend(tile(a).chain(tile(b)));
                        check(&pixels);
                        for _ in 1..TILE {
                            pixels.extend(tile(b).take(1));
                            check(&pixels);
                        }
                    }
                }
            }
        }
        // `blank` blank pixels, then `dense` non-blank ones: the oracle's
        // TRLE length minus the raw length hits 0 (TRLE is kept) and 1
        // (the raw fallback is taken).
        let mut margins = [0; 2];
        for blank in 0..12 {
            for dense in 0..200 {
                pixels.clear();
                pixels.extend((0..blank).map(|_| GrayAlpha8::blank()));
                pixels.extend((0..dense).map(|i| class(3, i)));
                check(&pixels);
                let trle = 1 + 4 + encode_codes(&pixels).len() + 2 * dense;
                if let Some(hit) = trle.checked_sub(2 * pixels.len()) {
                    if hit < 2 {
                        margins[hit] += 1;
                    }
                }
            }
        }
        assert!(margins.iter().all(|&m| m > 0), "{margins:?}");
    }

    prop_compose! {
        fn arb_pixels()(spec in proptest::collection::vec((any::<bool>(), any::<u8>(), 1u8..=255), 0..600)) -> Vec<GrayAlpha8> {
            spec.into_iter()
                .map(|(is_blank, v, a)| if is_blank { GrayAlpha8::blank() } else { GrayAlpha8::new(v, a) })
                .collect()
        }
    }

    proptest! {
        #[test]
        fn trle_roundtrips(pixels in arb_pixels()) {
            let enc = Codec::<GrayAlpha8>::encode(&TrleCodec, &pixels);
            let dec = Codec::<GrayAlpha8>::decode(&TrleCodec, &enc.bytes, pixels.len()).unwrap();
            prop_assert_eq!(dec, pixels);
        }

        #[test]
        fn trle_never_expands_past_header(pixels in arb_pixels()) {
            let enc = Codec::<GrayAlpha8>::encode(&TrleCodec, &pixels);
            prop_assert!(enc.bytes.len() <= pixels.len() * 2 + 1);
        }

        #[test]
        fn wide_encode_is_byte_identical(pixels in arb_pixels()) {
            prop_assert_eq!(trle_encode_scalar(&pixels), Codec::<GrayAlpha8>::encode(&TrleCodec, &pixels));
        }

        #[test]
        fn codes_roundtrip(masks in proptest::collection::vec(0u8..16, 0..200)) {
            // Build pixels realizing the given tile templates, then check
            // the code stream reproduces them.
            let mut pixels = Vec::new();
            for &m in &masks {
                for j in 0..TILE {
                    if m & (1 << j) != 0 {
                        pixels.push(GrayAlpha8::new(9, 9));
                    } else {
                        pixels.push(GrayAlpha8::blank());
                    }
                }
            }
            let codes = encode_codes(&pixels);
            prop_assert_eq!(decode_codes(&codes), masks);
        }
    }
}
