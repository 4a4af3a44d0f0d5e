//! # rt-comm — distributed-memory multicomputer substrate
//!
//! The paper runs on a 40-node IBM SP2 with message passing over the High
//! Performance Switch. No such machine (and no mature Rust MPI binding) is
//! available, so this crate simulates the substrate in two complementary
//! layers:
//!
//! 1. **Execution layer** ([`comm`]): a [`comm::Multicomputer`] spawns one OS
//!    thread per rank, connected by lossless FIFO channels. Algorithms are
//!    written against [`comm::RankCtx`] exactly as they would be against MPI:
//!    tagged point-to-point `send`/`recv` and `barrier`. This layer proves
//!    *correctness* under real concurrency.
//!
//! 2. **Timing layer** ([`trace`] + [`mod@replay`]): every send, receive, compute
//!    and barrier is recorded into an event [`trace::Trace`]. A deterministic
//!    virtual-clock replay ([`replay::replay`]) then charges the paper's cost
//!    model — `Ts` per message startup, `Tp` per byte, `To` per composited
//!    pixel ([`cost::CostModel`]) — and yields per-rank completion times.
//!    This layer reproduces the paper's *composition time* figures without
//!    the noise of wall-clock measurement on a single host.
//!
//! The separation mirrors how the paper itself reasons: Table 1 is exactly a
//! cost-model statement; Figures 5–8 are that model plus measured message
//! sizes. Replay uses the *actual* message sizes and counts of the executed
//! algorithm, so schedule inefficiencies show up faithfully.
//!
//! Two small vocabularies hold the layers together, each defined once:
//! [`tag`] lays out the 64-bit message tag (so frames, steps, tile
//! sub-channels, repairs and control traffic never collide), and [`mark`]
//! names the phase boundaries both clocks attribute their spans from.
//!
//! ```
//! use rt_comm::{replay, CostModel, Multicomputer};
//!
//! // Two ranks exchange a message; the trace prices it afterwards.
//! let mc = Multicomputer::new(2);
//! let (results, trace) = mc.run(|ctx| {
//!     if ctx.rank() == 0 {
//!         ctx.send(1, 42, vec![1, 2, 3]).unwrap();
//!         Vec::new()
//!     } else {
//!         ctx.recv(0, 42).unwrap().to_vec()
//!     }
//! });
//! assert_eq!(results[1], vec![1, 2, 3]);
//!
//! let report = replay(&trace, &CostModel::PAPER_EXAMPLE).unwrap();
//! assert!(report.makespan > 0.0);
//! ```

#![warn(missing_docs)]
// Frames arrive off a wire and ledgers from peers: the non-test code turns
// what it cannot use into a typed error or drops it, and never panics on
// it. Documented exceptions carry a local #[allow].
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod comm;
pub mod cost;
pub mod mark;
pub mod replay;
pub mod tag;
pub mod trace;
pub mod transport;

pub use comm::{CommError, FaultPlan, Multicomputer, Payload, RankCtx, RankOptions};
pub use cost::{ComputeKind, CostModel};
pub use mark::Mark;
pub use replay::{replay, replay_timeline, RankStats, ReplayError, ReplayReport};
pub use trace::{Event, RankTrace, Trace};
pub use transport::{InProc, RecvRawError, SendRawError, Transport, WireFrame};
