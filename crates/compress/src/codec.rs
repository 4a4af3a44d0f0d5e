//! The [`Codec`] trait and the identity [`RawCodec`].

use rt_imaging::pixel::{pixels_from_bytes, pixels_to_bytes, OverStats, Pixel};
use rt_imaging::KernelPath;
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

    /// Encode a pixel block.
    fn encode(&self, pixels: &[P]) -> Encoded;

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
/// P::BYTES` wire bytes) into `dst` through the pixel type's byte kernel,
/// mapping shape errors to `codec`.
pub(crate) fn over_raw_body<P: Pixel>(
    codec: &'static str,
    body: &[u8],
    dst: &mut [P],
    dir: OverDir,
) -> Result<OverStats, CodecError> {
    if body.len() != dst.len() * P::BYTES {
        return Err(CodecError::WrongPixelCount {
            codec,
            expected: dst.len(),
            got: body.len() / P::BYTES,
        });
    }
    let merged = match dir {
        OverDir::Front => P::over_front_bytes(dst, body),
        OverDir::Back => P::over_back_bytes(dst, body),
    };
    merged.map_err(|_| CodecError::Corrupt {
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

    fn encode(&self, pixels: &[P]) -> Encoded {
        let bytes = pixels_to_bytes(pixels);
        let raw_bytes = bytes.len();
        Encoded { bytes, raw_bytes }
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
    use rt_imaging::pixel::GrayAlpha8;

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
