//! The [`Codec`] trait and the identity [`RawCodec`].

use rt_imaging::pixel::{pixels_from_bytes, OverStats, Pixel};
use rt_imaging::{ImagingError, KernelPath};
use serde::{Deserialize, Serialize};

/// Errors produced while decoding a compressed pixel block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced content.
    Truncated {
        /// Which codec failed.
        codec: &'static str,
    },
    /// The buffer decodes to a different pixel count than requested.
    WrongPixelCount {
        /// Which codec failed.
        codec: &'static str,
        /// Pixel count the caller expected.
        expected: usize,
        /// Pixel count actually decoded.
        got: usize,
    },
    /// Structurally invalid data (bad mode byte, bad pixel bytes, ...).
    Corrupt {
        /// Which codec failed.
        codec: &'static str,
        /// Human-readable detail.
        what: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { codec } => write!(f, "{codec}: truncated buffer"),
            CodecError::WrongPixelCount {
                codec,
                expected,
                got,
            } => write!(f, "{codec}: expected {expected} pixels, decoded {got}"),
            CodecError::Corrupt { codec, what } => write!(f, "{codec}: corrupt data ({what})"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The result of encoding a pixel block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    /// The wire bytes.
    pub bytes: Vec<u8>,
    /// Size the block would have had uncompressed (`pixels · P::BYTES`),
    /// kept for compression-ratio statistics and codec-cost accounting.
    pub raw_bytes: usize,
}

impl Encoded {
    /// `raw / encoded` — higher is better; 1.0 for the identity codec.
    pub fn ratio(&self) -> f64 {
        if self.bytes.is_empty() {
            return 1.0;
        }
        self.raw_bytes as f64 / self.bytes.len() as f64
    }
}

/// Direction of a fused decode-and-composite (see [`Codec::decode_over`]):
/// is the encoded stream in front of the destination or behind it?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverDir {
    /// `dst[i] = stream[i] over dst[i]`.
    Front,
    /// `dst[i] = dst[i] over stream[i]`.
    Back,
}

/// A lossless pixel-block compressor used on every composition message.
pub trait Codec<P: Pixel>: Send + Sync {
    /// Short name for reports ("raw", "rle", "trle", "bounds").
    fn name(&self) -> &'static str;

    /// Encode a pixel block, appending its wire bytes to `out` — the one
    /// encoder of each codec, so a caller can write a stream straight into
    /// a larger message. Whatever `out` already holds is left as it is.
    fn encode_into(&self, pixels: &[P], out: &mut Vec<u8>);

    /// Encode a pixel block into a buffer of its own: [`Codec::encode_into`]
    /// on an empty one.
    fn encode(&self, pixels: &[P]) -> Encoded {
        let mut bytes = Vec::new();
        self.encode_into(pixels, &mut bytes);
        Encoded {
            bytes,
            raw_bytes: pixels.len() * P::BYTES,
        }
    }

    /// [`Codec::encode`] under its pre-single-path name: the frozen
    /// `benchmark/` package calls this method, so it stays as a delegation
    /// (the [`KernelPath`] argument carries nothing) and is dropped at the
    /// next `benchmark/` unfreeze.
    fn encode_with(&self, pixels: &[P], _kernel: KernelPath) -> Encoded {
        self.encode(pixels)
    }

    /// Decode a buffer produced by [`Codec::encode`] back into exactly
    /// `n_pixels` pixels.
    fn decode(&self, data: &[u8], n_pixels: usize) -> Result<Vec<P>, CodecError>;

    /// Fused decode-and-composite: `over` the encoded stream directly into
    /// `dst` (which fixes the pixel count), returning [`OverStats`] over
    /// the stream pixels — [`OverStats::non_blank`] is the structured
    /// codecs' `Over` cost unit. Blank stream pixels are the identity of
    /// `over` and leave their destination untouched.
    ///
    /// This default **is the reference**: decode, then merge pixel by
    /// pixel. [`RawCodec`], [`RleCodec`](crate::RleCodec) and
    /// [`TrleCodec`](crate::TrleCodec) override it with streaming
    /// byte-level walks that never materialize a `Vec<P>`;
    /// [`BoundsCodec`](crate::BoundsCodec) runs this body. An override must
    /// leave `dst` bit-identical to it and report the same `non_blank` /
    /// `blank_skipped` counts (`opaque_fast` may differ — it is zero here),
    /// and must reject exactly the streams [`Codec::decode`] rejects. On
    /// *invalid* streams only the verdict is pinned, not the partial
    /// contents of `dst`.
    fn decode_over(
        &self,
        data: &[u8],
        dst: &mut [P],
        dir: OverDir,
    ) -> Result<OverStats, CodecError> {
        let pixels = self.decode(data, dst.len())?;
        Ok(over_decoded(&pixels, dst, dir))
    }

    /// Decode over `dst`, whatever it held: on success `dst` holds exactly
    /// what [`Codec::decode_over`] in front of a blank `dst` leaves there —
    /// the same pixels, the same [`OverStats`] (all three counters) — and
    /// the same streams are accepted and rejected. On an invalid stream
    /// only the verdict is pinned.
    ///
    /// This default blanks `dst` and runs that merge. [`RawCodec`] and
    /// [`TrleCodec`](crate::TrleCodec) override it to write each pixel
    /// once: the stream's pixels through [`Pixel::unpack_bytes`] (a copy
    /// for the fixed-point types, `src over blank` for the others, so
    /// `−0.0`, NaN and ±∞ come out as that merge leaves them), and TRLE's
    /// blank runs and clear template bits as blank.
    fn decode_into(&self, data: &[u8], dst: &mut [P]) -> Result<OverStats, CodecError> {
        dst.fill(P::blank());
        self.decode_over(data, dst, OverDir::Front)
    }

    /// [`Codec::decode_over`] under its pre-single-path name; a delegation
    /// kept for the frozen `benchmark/` exactly like [`Codec::encode_with`]
    /// and dropped with it.
    fn decode_over_with(
        &self,
        data: &[u8],
        dst: &mut [P],
        dir: OverDir,
        _kernel: KernelPath,
    ) -> Result<OverStats, CodecError> {
        self.decode_over(data, dst, dir)
    }
}

/// Merge already-decoded pixels into `dst`, returning [`OverStats`] — the
/// reference semantics every fused [`Codec::decode_over`] must match.
fn over_decoded<P: Pixel>(pixels: &[P], dst: &mut [P], dir: OverDir) -> OverStats {
    let mut stats = OverStats::default();
    for (d, s) in dst.iter_mut().zip(pixels) {
        if !s.is_blank() {
            stats.non_blank += 1;
        } else {
            stats.blank_skipped += 1;
        }
        *d = match dir {
            OverDir::Front => s.over(d),
            OverDir::Back => d.over(s),
        };
    }
    stats
}

/// Shared raw-stream kernel: composite `body` (exactly `dst.len() *
/// P::BYTES` wire bytes) into `dst` through the pixel type's byte kernel
/// for `dir`, mapping shape errors to `codec`.
pub(crate) fn over_raw_body<P: Pixel>(
    codec: &'static str,
    body: &[u8],
    dst: &mut [P],
    dir: OverDir,
) -> Result<OverStats, CodecError> {
    match dir {
        OverDir::Front => raw_body(codec, body, dst, P::over_front_bytes),
        OverDir::Back => raw_body(codec, body, dst, P::over_back_bytes),
    }
}

/// [`over_raw_body`] through any of the pixel type's byte kernels —
/// [`Pixel::over_front_bytes`], [`Pixel::over_back_bytes`] or
/// [`Pixel::unpack_bytes`].
pub(crate) fn raw_body<P: Pixel>(
    codec: &'static str,
    body: &[u8],
    dst: &mut [P],
    kernel: impl Fn(&mut [P], &[u8]) -> Result<OverStats, ImagingError>,
) -> Result<OverStats, CodecError> {
    if body.len() != dst.len() * P::BYTES {
        return Err(CodecError::WrongPixelCount {
            codec,
            expected: dst.len(),
            got: body.len() / P::BYTES,
        });
    }
    kernel(dst, body).map_err(|_| CodecError::Corrupt {
        codec,
        what: "undecodable pixel bytes",
    })
}

/// The identity codec: raw little-endian pixel bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawCodec;

impl<P: Pixel> Codec<P> for RawCodec {
    fn name(&self) -> &'static str {
        "raw"
    }

    fn encode_into(&self, pixels: &[P], out: &mut Vec<u8>) {
        P::extend_wire_bytes(pixels, out);
    }

    fn decode(&self, data: &[u8], n_pixels: usize) -> Result<Vec<P>, CodecError> {
        if data.len() != n_pixels * P::BYTES {
            return Err(CodecError::WrongPixelCount {
                codec: "raw",
                expected: n_pixels,
                got: data.len() / P::BYTES,
            });
        }
        pixels_from_bytes(data).map_err(|_| CodecError::Corrupt {
            codec: "raw",
            what: "undecodable pixel bytes",
        })
    }

    fn decode_over(
        &self,
        data: &[u8],
        dst: &mut [P],
        dir: OverDir,
    ) -> Result<OverStats, CodecError> {
        over_raw_body("raw", data, dst, dir)
    }

    fn decode_into(&self, data: &[u8], dst: &mut [P]) -> Result<OverStats, CodecError> {
        raw_body("raw", data, dst, P::unpack_bytes)
    }
}

/// Selector for the codecs the paper evaluates, used by benches and the
/// pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodecKind {
    /// No compression.
    Raw,
    /// Classic run-length encoding.
    Rle,
    /// The paper's template run-length encoding.
    Trle,
    /// Bounding-interval trimming (Ma et al.'s rectangle, 1-D analog).
    Bounds,
}

impl CodecKind {
    /// All kinds, in the order the paper's Figure 8 reports them.
    pub const ALL: [CodecKind; 4] = [
        CodecKind::Raw,
        CodecKind::Rle,
        CodecKind::Trle,
        CodecKind::Bounds,
    ];

    /// Instantiate the codec for pixel type `P`.
    pub fn build<P: Pixel>(self) -> Box<dyn Codec<P>> {
        match self {
            CodecKind::Raw => Box::new(RawCodec),
            CodecKind::Rle => Box::new(crate::rle::RleCodec),
            CodecKind::Trle => Box::new(crate::trle::TrleCodec),
            CodecKind::Bounds => Box::new(crate::bounds::BoundsCodec),
        }
    }

    /// Report name, matching [`Codec::name`].
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Raw => "raw",
            CodecKind::Rle => "rle",
            CodecKind::Trle => "trle",
            CodecKind::Bounds => "bounds",
        }
    }
}

impl std::str::FromStr for CodecKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "raw" | "none" => Ok(CodecKind::Raw),
            "rle" => Ok(CodecKind::Rle),
            "trle" => Ok(CodecKind::Trle),
            "bounds" | "rect" => Ok(CodecKind::Bounds),
            other => Err(format!("unknown codec '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_imaging::pixel::{GrayAlpha, GrayAlpha8};

    #[test]
    fn raw_roundtrip() {
        let px: Vec<GrayAlpha8> = (0..10).map(|i| GrayAlpha8::new(i, 255 - i)).collect();
        let enc = Codec::<GrayAlpha8>::encode(&RawCodec, &px);
        assert_eq!(enc.bytes.len(), 20);
        assert_eq!(enc.raw_bytes, 20);
        assert!((enc.ratio() - 1.0).abs() < 1e-12);
        let dec = Codec::<GrayAlpha8>::decode(&RawCodec, &enc.bytes, 10).unwrap();
        assert_eq!(dec, px);
    }

    #[test]
    fn raw_rejects_wrong_count() {
        let px = vec![GrayAlpha8::new(1, 2); 4];
        let enc = Codec::<GrayAlpha8>::encode(&RawCodec, &px);
        assert!(Codec::<GrayAlpha8>::decode(&RawCodec, &enc.bytes, 5).is_err());
    }

    #[test]
    fn kind_parses_and_builds() {
        for kind in CodecKind::ALL {
            let parsed: CodecKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            let codec = kind.build::<GrayAlpha8>();
            assert_eq!(codec.name(), kind.name());
        }
        assert!("zip".parse::<CodecKind>().is_err());
    }

    /// `encode_into` behind a prefix appends exactly `encode`'s bytes and
    /// leaves the prefix alone, for every codec on empty, blank, sparse and
    /// dense blocks of both byte-scanned and per-pixel pixel types.
    #[test]
    fn encode_into_appends_exactly_the_encoded_bytes() {
        fn check<P: Pixel>(blocks: &[Vec<P>]) {
            let prefix = [0xA5u8, 0, 7];
            for kind in CodecKind::ALL {
                let codec = kind.build::<P>();
                for pixels in blocks {
                    let mut out = prefix.to_vec();
                    codec.encode_into(pixels, &mut out);
                    let want = codec.encode(pixels);
                    assert_eq!(want.raw_bytes, pixels.len() * P::BYTES);
                    assert_eq!(&out[..3], prefix, "{kind:?}");
                    assert_eq!(out[3..], want.bytes, "{kind:?}, {} pixels", pixels.len());
                }
            }
        }
        let blocks = |px: &dyn Fn(usize) -> GrayAlpha8| -> Vec<Vec<GrayAlpha8>> {
            [0, 1, 5, 64, 301]
                .into_iter()
                .map(|n| (0..n).map(px).collect())
                .collect()
        };
        let blank = blocks(&|_| GrayAlpha8::blank());
        let sparse = blocks(&|i| match i % 13 {
            3 => GrayAlpha8::new(i as u8, 0),
            7 => GrayAlpha8::new(0, 200),
            _ => GrayAlpha8::blank(),
        });
        let dense = blocks(&|i| GrayAlpha8::new(i as u8, 255 - i as u8));
        for set in [&blank, &sparse, &dense] {
            check(set);
            let wide: Vec<Vec<GrayAlpha>> = (set.iter())
                .map(|b| b.iter().map(|p| p.to_f32()).collect())
                .collect();
            check(&wide);
        }
    }

    #[test]
    fn empty_block_is_fine() {
        let enc = Codec::<GrayAlpha8>::encode(&RawCodec, &[]);
        assert!(enc.bytes.is_empty());
        assert_eq!(
            Codec::<GrayAlpha8>::decode(&RawCodec, &enc.bytes, 0).unwrap(),
            vec![]
        );
    }
}
