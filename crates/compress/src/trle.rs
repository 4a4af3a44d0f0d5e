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
//! header.

use crate::codec::{over_raw_body, Codec, CodecError, Encoded, OverDir};
use rt_imaging::kernels::nonzero_byte_mask;
use rt_imaging::pixel::{pixels_from_bytes, pixels_to_bytes, OverStats, Pixel};

const MODE_RAW: u8 = 0;
const MODE_TRLE: u8 = 1;

/// Pixels per template tile (2×2 in the paper; four consecutive pixels of
/// the flat span here — see the crate docs for why this is equivalent).
pub const TILE: usize = 4;

/// Maximum tiles one code can cover (4-bit run nibble).
pub const MAX_RUN: usize = 16;

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

/// Encode the template masks of `pixels` into TRLE codes.
pub fn encode_codes<P: Pixel>(pixels: &[P]) -> Vec<u8> {
    codes_from_templates(pixels.chunks(TILE).map(tile_template::<P>))
}

/// Run-encode an explicit template sequence into TRLE codes — the same
/// packing as [`encode_codes`], for callers that already classified tiles.
pub fn codes_from_templates(templates: impl IntoIterator<Item = u8>) -> Vec<u8> {
    let mut codes = Vec::new();
    let mut tiles = templates.into_iter();
    let Some(mut current) = tiles.next() else {
        return codes;
    };
    let mut run = 1usize;
    for t in tiles {
        if t == current && run < MAX_RUN {
            run += 1;
        } else {
            codes.push((((run - 1) as u8) << 4) | current);
            current = t;
            run = 1;
        }
    }
    codes.push((((run - 1) as u8) << 4) | current);
    codes
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

/// Classify every tile of a wire-byte stream of 2-byte pixels into
/// templates by byte inspection alone: a word load + movemask + table
/// lookup per tile (the partial last tile zero-padded, so its missing
/// pixels read as blank). Requires [`Pixel::BLANK_IS_ZERO_BYTES`].
fn templates_from_bytes(raw: &[u8]) -> Vec<u8> {
    let template =
        |tile: [u8; 8]| PAIR_TEMPLATE[nonzero_byte_mask(u64::from_le_bytes(tile)) as usize];
    let (tiles, tail) = raw.as_chunks::<8>();
    let mut out = Vec::with_capacity(tiles.len() + 1);
    out.extend(tiles.iter().map(|t| template(*t)));
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        out.push(template(padded));
    }
    out
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

/// Per-pixel TRLE encoder: `is_blank` classification and per-pixel payload
/// writes — the only classifier valid for pixel types whose blankness is
/// not the all-zero byte pattern.
fn trle_encode_scalar<P: Pixel>(pixels: &[P]) -> Encoded {
    let codes = encode_codes(pixels);
    let mut payload = Vec::new();
    for p in pixels {
        if !p.is_blank() {
            p.write_bytes(&mut payload);
        }
    }
    let raw = || pixels_to_bytes(pixels);
    assemble_trle(pixels.len() * P::BYTES, raw, codes, payload)
}

/// Word-wise TRLE encoder for 2-byte pixels: serialize once, classify tiles
/// from the wire bytes ([`templates_from_bytes`]), then build the payload
/// with bulk slice copies — skipping blank tiles outright and copying full
/// tiles as one 8-byte word. Wire output is byte-identical to
/// [`trle_encode_scalar`] because [`Pixel::BLANK_IS_ZERO_BYTES`] makes the
/// byte-level classification agree with `is_blank` exactly.
fn trle_encode_wide<P: Pixel>(pixels: &[P]) -> Encoded {
    let raw = pixels_to_bytes(pixels);
    let templates = templates_from_bytes(&raw);
    let codes = codes_from_templates(templates.iter().copied());
    let mut payload = Vec::new();
    let ship = |payload: &mut Vec<u8>, tile: &[u8], t: u8| {
        for (j, px) in tile.chunks_exact(2).enumerate() {
            if t & (1 << j) != 0 {
                payload.extend_from_slice(px);
            }
        }
    };
    let (tiles, tail) = raw.as_chunks::<8>();
    for (tile, &t) in tiles.iter().zip(&templates) {
        match t {
            0 => {}
            0x0F => payload.extend_from_slice(tile),
            _ => ship(&mut payload, tile, t),
        }
    }
    if let Some(&t) = templates.get(tiles.len()) {
        ship(&mut payload, tail, t);
    }
    assemble_trle(raw.len(), || raw, codes, payload)
}

/// Shared tail of the encoders: pick TRLE or the raw fallback, whose bytes
/// `raw` serializes (or hands over, if the encoder already has them).
fn assemble_trle(
    raw_bytes: usize,
    raw: impl FnOnce() -> Vec<u8>,
    codes: Vec<u8>,
    payload: Vec<u8>,
) -> Encoded {
    let trle_len = 1 + 4 + codes.len() + payload.len();
    if trle_len > raw_bytes {
        let mut bytes = Vec::with_capacity(raw_bytes + 1);
        bytes.push(MODE_RAW);
        bytes.extend_from_slice(&raw());
        return Encoded { bytes, raw_bytes };
    }
    let mut bytes = Vec::with_capacity(trle_len);
    bytes.push(MODE_TRLE);
    bytes.extend_from_slice(&(codes.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&codes);
    bytes.extend_from_slice(&payload);
    Encoded { bytes, raw_bytes }
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

    fn encode(&self, pixels: &[P]) -> Encoded {
        // The word-wise classifier reads wire bytes, four 2-byte pixels at
        // a time, so it is only valid when blankness is exactly the
        // all-zero byte pattern of such a pixel.
        if P::BLANK_IS_ZERO_BYTES && P::BYTES == 2 {
            trle_encode_wide(pixels)
        } else {
            trle_encode_scalar(pixels)
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
        let Some((&mode, body)) = data.split_first() else {
            if dst.is_empty() {
                return Ok(OverStats::default());
            }
            return Err(CodecError::Truncated { codec: "trle" });
        };
        match mode {
            MODE_RAW => over_raw_body("trle", body, dst, dir),
            MODE_TRLE => {
                let (codes, payload) = split_body(body)?;
                trle_over_codes(codes, payload, dst, dir)
            }
            _ => Err(CodecError::Corrupt {
                codec: "trle",
                what: "unknown mode byte",
            }),
        }
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
/// decode-then-`over` would count it.
fn trle_over_codes<P: Pixel>(
    codes: &[u8],
    payload: &[u8],
    dst: &mut [P],
    dir: OverDir,
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
        let merged =
            over_raw_body("trle", bytes, &mut dst[base..base + px], dir).map_err(|_| {
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
    use crate::rle::RleCodec;
    use proptest::prelude::*;
    use rt_imaging::pixel::GrayAlpha8;

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
            prop_assert_eq!(trle_encode_scalar(&pixels), trle_encode_wide(&pixels));
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
