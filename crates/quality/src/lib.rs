//! # rt-quality — image quality metrics and tolerance reconciliation
//!
//! Every composition method in this workspace except
//! [`Method::Puzzle`](../rt_core/method/enum.Method.html) is *exact*: its
//! output is asserted byte-identical (or within fixed-point re-association
//! ulps) to the sequential depth-ordered reference fold. Puzzle is the
//! first method allowed to trade accuracy for speed, which changes the
//! question a test can ask from "are these frames equal?" to "are these
//! frames *close enough*, and by which yardstick?"
//!
//! This crate is that yardstick:
//!
//! * [`metrics`] — per-pixel **max absolute error**, **MSE**, **PSNR**
//!   and a box-windowed **SSIM**, all over the 8-bit wire pixel type
//!   [`GrayAlpha8`](rt_imaging::pixel::GrayAlpha8) via the
//!   [`ChannelPixel`] channel-extraction trait;
//! * [`tolerance`] — the [`Tolerance`] policy type (a declared bound on
//!   all three axes), the [`QualityReport`] produced by [`compare`], and
//!   [`assert_within_tolerance`], the reconciliation helper benches and
//!   tests call to gate an approximate frame against its reference.
//!
//! The crate is deliberately dependency-light (only `rt-imaging` and
//! `serde`) so correctness gates anywhere in the workspace can use it,
//! and it forbids `unwrap`/`expect`/`panic` in non-test code: a quality
//! gate that can panic mid-bench is itself a reliability bug. Every
//! failure mode is a typed [`QualityError`].
//!
//! ```
//! use rt_imaging::pixel::GrayAlpha8;
//! use rt_imaging::Image;
//! use rt_quality::{assert_within_tolerance, compare, Tolerance};
//!
//! let reference = Image::from_fn(64, 64, |x, y| GrayAlpha8::new((x + y) as u8, 200));
//! let mut approx = reference.clone();
//! approx.set(3, 5, GrayAlpha8::new(9, 200));
//!
//! // Identical frames pin the metric maxima...
//! let r = compare(&reference, &reference).unwrap();
//! assert_eq!(r.max_abs_error, 0);
//! assert!(r.psnr_db.is_infinite() && r.ssim == 1.0);
//!
//! // ...and a declared tolerance gates the approximation.
//! let tol = Tolerance::lossy(16, 40.0, 0.95);
//! let report = assert_within_tolerance(&approx, &reference, &tol).unwrap();
//! assert!(report.psnr_db >= 40.0);
//! assert!(Tolerance::EXACT.check(&report).is_err());
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod metrics;
pub mod tolerance;

pub use metrics::{max_abs_error, mse, psnr_db, ssim, ChannelPixel, SSIM_WINDOW};
pub use tolerance::{assert_within_tolerance, compare, QualityReport, Tolerance};

/// Errors produced while computing metrics or reconciling tolerances.
#[derive(Debug, Clone, PartialEq)]
pub enum QualityError {
    /// The two frames have different geometry; per-pixel metrics are
    /// undefined.
    ShapeMismatch {
        /// `(width, height)` of the first frame.
        a: (usize, usize),
        /// `(width, height)` of the second frame.
        b: (usize, usize),
    },
    /// Both frames are empty; every metric is undefined (0/0).
    EmptyFrame,
    /// A [`Tolerance`] is self-contradictory (NaN bound, or `min_ssim`
    /// outside `[0, 1]`).
    BadTolerance {
        /// Which bound is malformed.
        why: String,
    },
    /// The measured [`QualityReport`] violates the declared
    /// [`Tolerance`] on at least one axis.
    OutOfTolerance {
        /// The full measurement, so callers can log how close it was.
        report: QualityReport,
        /// Every violated axis, with measured vs declared values.
        why: String,
    },
}

impl std::fmt::Display for QualityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QualityError::ShapeMismatch { a, b } => write!(
                f,
                "frame shape mismatch: {}x{} vs {}x{}",
                a.0, a.1, b.0, b.1
            ),
            QualityError::EmptyFrame => write!(f, "quality metrics are undefined on empty frames"),
            QualityError::BadTolerance { why } => write!(f, "malformed tolerance: {why}"),
            QualityError::OutOfTolerance { why, .. } => {
                write!(f, "frame out of declared tolerance: {why}")
            }
        }
    }
}

impl std::error::Error for QualityError {}
