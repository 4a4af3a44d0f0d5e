//! # rt-pvr — the end-to-end parallel volume rendering system
//!
//! Ties the substrates together into the paper's three-stage pipeline:
//!
//! 1. **data partitioning** — the volume is cut into per-rank subvolumes
//!    (1-D slabs along the view's principal axis by default);
//! 2. **rendering** — every rank shear-warps its subvolume into a partial
//!    intermediate image in full-frame coordinates;
//! 3. **image composition** — the partials are combined with any
//!    [`rt_core`] method/codec over the [`rt_comm`] multicomputer, and the
//!    root warps the composited intermediate image to the screen.
//!
//! Three entry points:
//!
//! * [`scene::prepare_scene`] + [`scene::compose_scene`] — render the
//!   partials once, then benchmark many method/codec combinations against
//!   the same inputs (what the figure harness uses);
//! * [`pipeline::render_frame`] — the full pipeline including the
//!   view-dependent depth permutation of ranks, as a production renderer
//!   would run it per frame ([`pipeline::FrameRun`] adds faults, a scratch
//!   pool or the TCP transport to the same call);
//! * [`stream::StreamSession`] — an orbit of such frames on one live
//!   machine, each rank rendering ahead while it composes.
//!
//! A frame is a run of one plan: both hand their plans to the same parked
//! ranks, which run the same per-rank body.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod permute;
pub mod pipeline;
pub mod scene;
mod session;
pub mod stream;

pub use pipeline::{render_frame, render_frame_pooled, FrameRun, PipelineConfig, PipelineOutput};
pub use scene::{compose_scene, prepare_scene, Scene};
pub use stream::{
    orbit_cameras, FrameStats, OrbitConfig, StreamClient, StreamConfig, StreamFrame, StreamHandle,
    StreamSession,
};

/// Threads this process has started to run frames: rt-comm's tally (rank
/// launchers, and the ranks, renderers and warp helpers of this crate's
/// sessions) plus rt-render's (the scoped splits of its parallel loops).
/// A pooled serial frame after the pool's first, and an orbit after a
/// session's first, leave it where it was.
pub fn threads_spawned() -> u64 {
    rt_comm::threads_spawned() + rt_render::threads::spawned()
}

/// Errors from the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PvrError {
    /// The composition stage failed.
    Core(rt_core::CoreError),
    /// The rendering stage failed.
    Render(rt_render::RenderError),
    /// Pipeline-level misconfiguration.
    Config {
        /// Human-readable description.
        what: String,
    },
    /// A specific frame of a streaming run failed; `index` is the frame
    /// the failure belongs to (not the frame on which it was detected —
    /// see the frame-boundary attribution rules in `stream`).
    Frame {
        /// Zero-based index of the failed frame in the stream.
        index: usize,
        /// What went wrong on that frame.
        source: Box<PvrError>,
    },
}

impl std::fmt::Display for PvrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PvrError::Core(e) => write!(f, "composition: {e}"),
            PvrError::Render(e) => write!(f, "rendering: {e}"),
            PvrError::Config { what } => write!(f, "pipeline config: {what}"),
            PvrError::Frame { index, source } => write!(f, "frame {index}: {source}"),
        }
    }
}

impl std::error::Error for PvrError {}

impl From<rt_core::CoreError> for PvrError {
    fn from(e: rt_core::CoreError) -> Self {
        PvrError::Core(e)
    }
}

impl From<rt_render::RenderError> for PvrError {
    fn from(e: rt_render::RenderError) -> Self {
        PvrError::Render(e)
    }
}
