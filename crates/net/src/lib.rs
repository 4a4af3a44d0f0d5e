//! # rt-net — TCP transport backend for the composition substrate
//!
//! `rt-comm` runs composition algorithms against an abstract
//! [`Transport`](rt_comm::Transport); this crate supplies the backend that
//! crosses real sockets, so RT/BS/PP composition executes as genuinely
//! cooperating processes instead of threads sharing an address space:
//!
//! * [`frame`] — the length-prefixed wire format for
//!   [`WireFrame`](rt_comm::WireFrame)s; decoding is total (typed
//!   [`FrameError`], never a panic).
//! * [`link`] — the per-peer fabric: acknowledged, zero-copy sent-frame
//!   logs, bounded reconnect-with-resume, heartbeat liveness, and death
//!   declaration ([`TcpOptions`] holds the knobs, [`LinkStats`] reads a
//!   link's state).
//! * [`tcp`] — [`TcpTransport`]: `TcpStream`s along a connection
//!   [`Topology`] (the full mesh or a plan's edges) with a rank
//!   handshake, `TCP_NODELAY` and per-peer receive threads behind the
//!   trait's two verbs, `send_raw` and `recv_raw`; built for one rank by
//!   `establish` or for a world in one process by `loopback`.
//! * [`chaos`] — [`ChaosTransport`] + [`NetFaultPlan`]: deterministic,
//!   seeded socket-level fault injection (resets, partial writes,
//!   truncated frames, delays, stalls) under the real transport.
//! * [`process`] — the rendezvous protocol: a [`Launcher`] spawns one OS
//!   process per rank and a [`WorkerSession`] in each process joins the
//!   mesh and reports results back.
//! * [`multicomputer`] — [`TcpMulticomputer`]: a
//!   [`rt_comm::Multicomputer`] (`new`, or `From` one already configured)
//!   run over loopback TCP, for tests and examples that want real sockets
//!   without real processes.
//!
//! The reliable-delivery envelope (sequence numbers, eight-lane FNV-1a
//! checksums, retransmission, fault injection) lives above the transport in
//! `rt-comm`, so a [`FaultPlan`](rt_comm::FaultPlan) behaves identically
//! here — and because the event trace records only *what* was
//! sent/received, a clean run produces a bit-identical
//! [`Trace`](rt_comm::Trace) on either backend. Socket failures that the
//! link layer can repair (reconnect + replay) are invisible to the
//! envelope, so even a chaos-injected run reconciles bit-exactly against
//! the in-process reference; failures past the repair budget are
//! *declared deaths* that flow through the same `rt_comm::tag::DEATH` protocol a
//! crashing rank announces voluntarily, engaging the resilient executor's
//! repair planner. The virtual-clock replay prices traced bytes, not wall
//! time; determinism survives the nondeterministic network.
//!
//! ```
//! use rt_net::TcpMulticomputer;
//!
//! // Two ranks exchange a message over real loopback sockets.
//! let mc = TcpMulticomputer::new(2);
//! let (results, trace) = mc.run(|ctx| {
//!     if ctx.rank() == 0 {
//!         ctx.send(1, 42, vec![1, 2, 3]).unwrap();
//!         Vec::new()
//!     } else {
//!         ctx.recv(0, 42).unwrap().to_vec()
//!     }
//! });
//! assert_eq!(results[1], vec![1, 2, 3]);
//! assert_eq!(trace.message_count(), 1);
//! ```

#![warn(missing_docs)]
// The whole point of this crate's failure model: the non-test data path
// never panics — socket failures become typed errors or death
// notifications. Documented exceptions carry a local #[allow].
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod chaos;
pub mod error;
pub mod frame;
pub mod link;
pub mod multicomputer;
pub mod process;
pub mod tcp;
pub mod topology;

pub use chaos::{ChaosTransport, NetFaultPlan};
pub use error::NetError;
pub use frame::FrameError;
pub use link::{LinkStats, TcpOptions, WireFault};
pub use multicomputer::TcpMulticomputer;
pub use process::{Launcher, WorkerSession, ENV_RANK, ENV_RENDEZVOUS, ENV_WORLD};
pub use tcp::TcpTransport;
pub use topology::Topology;
