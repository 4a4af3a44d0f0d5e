//! # rt-obs — observability for the composition runtime
//!
//! The paper's whole argument is about *where time goes* — its Table 1
//! splits every composition method into startup (`Ts`), transmission
//! (`Tp`) and over-blending (`To`) terms. This crate makes that breakdown
//! observable on real runs:
//!
//! * [`Phase`] / [`SpanRec`] / [`RankTimeline`] — per-rank, per-step phase
//!   spans (encode, send, recv, wait, decode, over, flush, ...) on either
//!   clock: the execution layer records **wall-clock** spans through a
//!   [`Recorder`], and `rt-comm`'s `replay_timeline` derives **virtual-
//!   clock** spans from the event trace;
//! * [`Counters`] — retransmits, corrupt/dropped envelopes, scratch-pool
//!   hits/misses, blank-skip and opaque fast-path activations, and bytes
//!   on the wire per codec;
//! * [`chrome`] — a Chrome-trace (Perfetto) JSON exporter plus
//!   [`summary::phase_summary`], a compact text flamegraph;
//! * [`reconcile()`] — the consistency check that per-phase virtual-time
//!   sums equal the replay cost model's per-rank totals **exactly**
//!   (bit-exact `f64` equality, not a tolerance), so instrumentation can
//!   never silently drift from the replay accounting.
//!
//! Instrumentation is zero-cost when disabled: the execution layer holds an
//! `Option<Recorder>` and every hook is a single `is-some` branch away from
//! a no-op.
//!
//! ```
//! use rt_obs::{Observer, Phase};
//! use std::time::Instant;
//!
//! let observer = Observer::new();
//! let mut rec = observer.recorder(0);
//! let t0 = Instant::now();
//! // ... do some encode work ...
//! rec.record_span(Phase::Encode, Some(0), None, t0);
//! observer.checkin(rec);
//! let timelines = observer.timelines();
//! assert_eq!(timelines.len(), 1);
//! assert_eq!(timelines[0].spans[0].phase, Phase::Encode);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod chrome;
pub mod counters;
pub mod phase;
pub mod reconcile;
pub mod record;
pub mod span;
pub mod summary;

pub use chrome::{validate_chrome_trace, ChromeTrace, PID_VIRTUAL, PID_WALL};
pub use counters::Counters;
pub use phase::Phase;
pub use reconcile::{reconcile, reconcile_all, PhaseTotals, ReconcileError};
pub use record::{Observer, Recorder};
pub use span::{RankTimeline, SpanRec};
pub use summary::{phase_summary, phase_summary_with_counters};
