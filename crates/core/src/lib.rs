//! # rt-core — image composition methods for sort-last parallel rendering
//!
//! This crate is the paper's primary contribution plus its comparators:
//!
//! * [`rotate`] — the **rotate-tiling** method, variants
//!   [`rotate::RtVariant::TwoN`] (any processor count, even initial block
//!   count) and [`rotate::RtVariant::N`] (even processor count, any initial
//!   block count);
//! * [`binary_swap`] — Ma et al.'s binary-swap (power-of-two processor
//!   counts);
//! * [`pipelined`] — Lee's parallel-pipelined method (`P−1` ring steps of
//!   `A/P`-pixel blocks);
//! * [`direct`] — a direct-send baseline (extension; not in the paper's
//!   experiments but a standard comparator);
//! * [`hier`] — two-level hierarchical schedules for large `P` (extension):
//!   any of the above inside rank groups, [`radix`] between their leaders;
//! * [`theory`] — the paper's Table 1 cost formulas and the optimal
//!   block-count bounds of Equations (5) and (6).
//!
//! ## Architecture: schedules, one executor
//!
//! Every method is expressed as a pure, introspectable [`schedule::Schedule`]
//! — the full list of `(step, sender, receiver, span, merge direction)`
//! transfers plus the final ownership map. One executor (behind
//! [`compose_plan`], the single per-rank entry point) runs any schedule over
//! the `rt-comm` multicomputer with any `rt-compress` codec; [`Run`] wraps
//! it for a whole machine. This split gives three things the reproduction
//! needs:
//!
//! 1. the *same* communication/composition machinery for all methods, so
//!    timing comparisons measure the schedules rather than implementation
//!    accidents;
//! 2. a pure schedule verifier ([`schedule::verify_schedule`]) that proves —
//!    for every supported `(P, B)` — that each pixel of the final image
//!    composites every rank's contribution exactly once, in depth order;
//! 3. trace replay on the virtual clock for the paper's figures.
//!
//! ## Note on the paper's Equations (1)–(4)
//!
//! The published send/receive index formulas are OCR-corrupted in the
//! available text and, taken literally, violate depth-order contiguity of
//! the non-commutative `over` operator. The rotate-tiling schedule here is
//! re-derived from the paper's invariants (see `DESIGN.md`): `⌈log₂P⌉`
//! steps, `B` initial blocks halved after every step, rotating pairings of
//! depth-adjacent partial holders, balanced final ownership.
//!
//! ```
//! use rt_core::method::Method;
//! use rt_core::rotate::RtVariant;
//! use rt_core::{ComposeConfig, Run};
//! use rt_imaging::pixel::{GrayAlpha8, Pixel};
//! use rt_imaging::Image;
//!
//! // Build the paper's 2N_RT schedule for 4 ranks on a 64-pixel frame.
//! let method = Method::RotateTiling { variant: RtVariant::TwoN, blocks: 4 };
//! let plan = method.plan(4, 64, 1).unwrap();
//!
//! // Rank r renders depth-r content; compose and gather at rank 0.
//! let partials: Vec<Image<GrayAlpha8>> = (0..4)
//!     .map(|r| Image::from_fn(64, 1, |_, _| GrayAlpha8::new(60 * r as u8, 128)))
//!     .collect();
//! let (outputs, trace) = Run::new(&plan, &ComposeConfig::default()).execute(partials);
//! let frame = outputs[0].as_ref().unwrap().frame.as_ref().unwrap();
//! assert_eq!(frame.pixels().len(), 64);
//!
//! // The same trace prices on the virtual clock.
//! let report = rt_comm::replay(&trace, &rt_comm::CostModel::PAPER_EXAMPLE).unwrap();
//! assert!(report.makespan > 0.0);
//! ```

#![warn(missing_docs)]
// Plans, schedules and bundles come from tuners and peers: the non-test code
// turns what it cannot use into a typed error and never panics on it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod analysis;
pub mod binary_swap;
pub mod direct;
pub mod display;
pub mod exec;
pub mod hier;
pub mod method;
pub mod pipelined;
pub mod puzzle;
pub mod radix;
pub mod repair;
pub mod rotate;
pub mod run;
pub mod schedule;
pub mod theory;
pub mod tile;
pub mod tune;

pub use analysis::{analyze, ScheduleCost};
pub use binary_swap::BinarySwap;
pub use direct::DirectSend;
pub use display::{span_cell_segments, DisplayWall};
pub use exec::{ComposeConfig, ComposeOutput, Machine, Scratch, ScratchPool, TransportKind};
pub use hier::IntraMethod;
pub use method::{CompositionMethod, Method};
pub use pipelined::ParallelPipelined;
pub use radix::RadixK;
pub use repair::{repair, DegradedInfo, RepairEntry, RepairFetch, RepairPlan};
pub use rotate::{RotateTiling, RtVariant};
pub use run::{run_plan_composition_pooled, Run, RunOutput};
pub use schedule::{verify_schedule, MergeDir, Schedule, Step, Transfer};
pub use tile::{compose_plan, verify_tile_plan, ComposePlan, TileGrid, TilePlan};
pub use tune::{choose, fit_link_costs, sweep, Candidate, FittedLink, MeasuredCost, TuneOptions};

/// Errors produced while building or executing composition schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The method does not support this machine size / block count.
    UnsupportedShape {
        /// Method that rejected the shape.
        method: &'static str,
        /// Explanation of the constraint that failed.
        why: String,
    },
    /// A schedule failed validation (internal invariant violation).
    InvalidSchedule {
        /// Explanation of the violated invariant.
        why: String,
    },
    /// Failure handling found no surviving rank to take over: every rank
    /// in the machine has crashed, so no degraded composite (and no
    /// gather root) exists.
    AllRanksFailed {
        /// Machine size.
        p: usize,
    },
    /// Communication failed while executing a schedule.
    Comm(rt_comm::CommError),
    /// A message failed to decode.
    Codec(rt_compress::CodecError),
    /// An image operation failed (shape/span errors).
    Imaging(rt_imaging::ImagingError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnsupportedShape { method, why } => {
                write!(f, "{method}: unsupported shape: {why}")
            }
            CoreError::InvalidSchedule { why } => write!(f, "invalid schedule: {why}"),
            CoreError::AllRanksFailed { p } => {
                write!(
                    f,
                    "all {p} ranks failed: no survivor can recover the composite"
                )
            }
            CoreError::Comm(e) => write!(f, "communication error: {e}"),
            CoreError::Codec(e) => write!(f, "codec error: {e}"),
            CoreError::Imaging(e) => write!(f, "imaging error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<rt_comm::CommError> for CoreError {
    fn from(e: rt_comm::CommError) -> Self {
        CoreError::Comm(e)
    }
}

impl From<rt_compress::CodecError> for CoreError {
    fn from(e: rt_compress::CodecError) -> Self {
        CoreError::Codec(e)
    }
}

impl From<rt_imaging::ImagingError> for CoreError {
    fn from(e: rt_imaging::ImagingError) -> Self {
        CoreError::Imaging(e)
    }
}
