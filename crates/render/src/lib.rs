//! # rt-render — volume rendering substrate
//!
//! The paper's rendering stage: shear-warp factorization volume rendering
//! (Lacroute & Levoy) over partitioned volume datasets, producing the
//! per-rank partial images that the composition stage combines.
//!
//! * [`math`] — minimal 3-vector / 3×3-matrix linear algebra;
//! * [`volume`] — the 8-bit scalar [`volume::Volume`] with trilinear
//!   sampling and subvolume views;
//! * [`datasets`] — procedural stand-ins for the Chapel Hill test volumes
//!   ("engine", "brain", "head") plus analytic test volumes;
//! * [`tf`] — transfer functions (scalar → opacity/luminance/color);
//! * [`camera`] — orthographic cameras and the shear-warp factorization of
//!   the viewing transformation;
//! * [`shearwarp`] — the slice-order renderer with early-ray termination
//!   and the final 2-D warp;
//! * [`partition`] — the 1-D slab and 2-D grid partitioning schemes of the
//!   paper reference \[15\], with view-dependent depth ordering.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod camera;
pub mod datasets;
pub mod math;
pub mod partition;
#[cfg(test)]
mod raycast;
pub mod shearwarp;
pub mod tf;
pub mod volume;

pub use camera::{Camera, Factorization};
pub use datasets::Dataset;
pub use partition::{partition_1d, partition_2d, Subvolume};
pub use tf::TransferFunction;
pub use volume::Volume;

/// Errors produced by the rendering substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenderError {
    /// A volume was constructed with inconsistent dimensions.
    BadDimensions {
        /// Human-readable description.
        what: &'static str,
    },
    /// A partition request cannot be satisfied (e.g. more parts than slices).
    BadPartition {
        /// Human-readable description.
        what: String,
    },
}

impl std::fmt::Display for RenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderError::BadDimensions { what } => write!(f, "bad volume dimensions: {what}"),
            RenderError::BadPartition { what } => write!(f, "bad partition: {what}"),
        }
    }
}

impl std::error::Error for RenderError {}
