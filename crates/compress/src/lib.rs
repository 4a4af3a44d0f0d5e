//! # rt-compress — message compression for image composition
//!
//! Section 3 of the paper argues that coupling a composition method with a
//! cheap compression scheme reduces both communication *and* composition
//! time, and proposes **TRLE** (template run-length encoding). This crate
//! implements the three schemes the paper evaluates plus the identity codec:
//!
//! * [`RawCodec`] — no compression (the "without" series of Figures 7/8);
//! * [`RleCodec`] — classic run-length encoding over the pixel byte stream
//!   (the paper's "RLE" series, after Lacroute & Levoy);
//! * [`TrleCodec`] — the paper's template run-length encoding: 16 templates
//!   of 2×2 pixels, one byte per code with the low nibble naming the
//!   template and the high nibble a run length of up to 16 repetitions
//!   (Figure 3);
//! * [`BoundsCodec`] — the 1-D span analog of Ma et al.'s bounding
//!   rectangle: ship only the pixels between the first and last non-blank
//!   pixel.
//!
//! ### Adaptation note (documented in DESIGN.md)
//!
//! The composition methods exchange *flat spans* of the row-major frame, so
//! a span is a run of scanline segments rather than a rectangle. TRLE's 2×2
//! template is therefore applied to **groups of four consecutive pixels**
//! (a 2×2 tile visited in Z-order is exactly such a group after re-tiling);
//! the template alphabet (16 blank/non-blank patterns), the code format and
//! the run-length semantics are unchanged, and so are the compression
//! statistics on the paper's grayscale frames, which are what Figures 7–8
//! measure.
//!
//! All codecs are lossless for the blank/non-blank structure and the
//! non-blank pixel values: `decode(encode(x)) == x` exactly, which the
//! property tests enforce.
//!
//! ```
//! use rt_compress::{Codec, CodecKind, OverDir};
//! use rt_imaging::pixel::{GrayAlpha8, Pixel};
//!
//! let codec = CodecKind::Trle.build::<GrayAlpha8>();
//! let pixels: Vec<GrayAlpha8> = (0..64u8)
//!     .map(|i| if i % 3 == 0 { GrayAlpha8::new(i, 200) } else { GrayAlpha8::blank() })
//!     .collect();
//!
//! // Lossless roundtrip, smaller on the wire than the raw stream.
//! let enc = codec.encode(&pixels);
//! assert_eq!(codec.decode(&enc.bytes, pixels.len()).unwrap(), pixels);
//! assert!(enc.bytes.len() < enc.raw_bytes);
//!
//! // Fused decode-and-composite counts the work it skipped.
//! let mut dst = vec![GrayAlpha8::blank(); pixels.len()];
//! let stats = codec.decode_over(&enc.bytes, &mut dst, OverDir::Front).unwrap();
//! assert_eq!(stats.non_blank + stats.blank_skipped, pixels.len());
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bounds;
pub mod codec;
pub mod rle;
pub mod trle;
pub mod trle2d;

pub use bounds::BoundsCodec;
pub use codec::{Codec, CodecError, CodecKind, Encoded, OverDir, RawCodec};
pub use rle::RleCodec;
pub use rt_imaging::pixel::OverStats;
pub use rt_imaging::KernelPath;
pub use trle::TrleCodec;
