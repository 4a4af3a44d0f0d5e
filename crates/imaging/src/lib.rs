//! # rt-imaging — image substrate for parallel image composition
//!
//! This crate provides the image-plane building blocks used by the
//! rotate-tiling reproduction:
//!
//! * [`pixel`] — pixel types with a Porter–Duff **over** operator
//!   ([`pixel::Pixel`], [`pixel::GrayAlpha`], [`pixel::GrayAlpha8`] and
//!   the exact test pixel [`pixel::Provenance`]);
//! * [`image`] — the [`image::Image`] container with flat row-major storage;
//! * [`span`] — contiguous pixel ranges ([`span::Span`]), equal partitioning
//!   and the halving used by the rotate-tiling block tree;
//! * [`rect`] — the pixel rectangle of a tile or a display-wall cell;
//! * [`io`] — the PGM writer for the example binaries;
//! * [`kernels`] — word-wise (SWAR) scan primitives, the fused
//!   [`pixel::GrayAlpha8`] `over` and unpack kernels, pinned bit for bit to
//!   decode-then-`over` by property tests, and the workspace's one
//!   CPU-width dispatch ([`kernels::KernelCopy`]);
//! * [`synth`] — the synthetic partial images tests, benches and examples
//!   share.
//!
//! Everything here is deliberately independent of the communication and
//! compositing crates so that property tests can exercise the image algebra
//! in isolation.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod image;
pub mod io;
pub mod kernels;
pub mod pixel;
pub mod rect;
pub mod span;
pub mod synth;

pub use image::Image;
pub use kernels::KernelPath;
pub use pixel::{GrayAlpha, GrayAlpha8, OverStats, Pixel, Provenance};
pub use rect::Rect;
pub use span::Span;

/// Errors produced by the imaging substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImagingError {
    /// An operation combined two images or spans of mismatched shapes.
    ShapeMismatch {
        /// Human-readable description of what mismatched.
        what: &'static str,
        /// Size/shape seen on the left-hand side.
        lhs: usize,
        /// Size/shape seen on the right-hand side.
        rhs: usize,
    },
    /// A span reached outside the image it was applied to.
    SpanOutOfBounds {
        /// First pixel index of the offending span.
        start: usize,
        /// Length of the offending span.
        len: usize,
        /// Number of pixels in the target image.
        image_len: usize,
    },
    /// A byte buffer could not be decoded into pixels.
    BadEncoding {
        /// Human-readable description of the failure.
        what: &'static str,
    },
}

impl std::fmt::Display for ImagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImagingError::ShapeMismatch { what, lhs, rhs } => {
                write!(f, "shape mismatch in {what}: {lhs} vs {rhs}")
            }
            ImagingError::SpanOutOfBounds {
                start,
                len,
                image_len,
            } => write!(
                f,
                "span [{start}, {start}+{len}) out of bounds for image of {image_len} pixels"
            ),
            ImagingError::BadEncoding { what } => write!(f, "bad pixel encoding: {what}"),
        }
    }
}

impl std::error::Error for ImagingError {}
