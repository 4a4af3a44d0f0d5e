//! The transport abstraction: how ranks exchange raw frames.
//!
//! A backend is two verbs, the reliable tagged point-to-point substrate the
//! paper's SP2 + MPL provided: push a [`WireFrame`] toward a peer
//! ([`Transport::send_raw`]) and pull the next arrived frame from anyone
//! ([`Transport::recv_raw`]). Everything else — per-channel sequence
//! numbers, eight-lane FNV-1a checksums, retransmission with backoff, fault
//! injection, death notifications, the `(source, tag)` demux and the
//! barrier, which is one message round over these two verbs
//! ([`crate::comm::RankCtx::barrier`]) — lives **above** the trait in
//! [`crate::comm::RankCtx`], so every backend inherits identical
//! [`crate::FaultPlan`] semantics and produces identical event traces, and
//! a new backend is a mesh constructor plus the two verbs.
//!
//! Two backends exist:
//!
//! * [`InProc`] (this module) — the original crossbeam-channel path: all
//!   ranks share one address space, frames are reference-counted pointer
//!   bumps. This is the default for tests, figures and the virtual-clock
//!   experiments.
//! * `Tcp` (the `rt-net` crate) — real sockets: length-prefixed frames
//!   over `TcpStream`, one OS process (or thread) per rank, per-peer
//!   receive threads feeding the same tagged demux.
//!
//! Because the trace records only *what* was sent/received (never when in
//! wall time), a clean run composes bit-identical frames and emits a
//! bit-identical [`crate::Trace`] on every backend — the virtual-clock
//! cost model is charged from traced bytes, so determinism survives the
//! nondeterministic network.

use crate::comm::Payload;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::time::Duration;

/// One frame as it crosses the wire: the delivery envelope's coordinates
/// plus the (possibly shared) payload bytes.
///
/// The envelope fields are written by [`crate::comm::RankCtx`]; a backend
/// moves them verbatim. On [`InProc`] the payload is a reference-counted
/// pointer bump; the TCP backend serializes the frame with a length prefix
/// (see `rt-net`).
#[derive(Debug, Clone)]
pub struct WireFrame {
    /// Sending rank.
    pub from: usize,
    /// Message tag, laid out as [`crate::tag`] documents.
    pub tag: u64,
    /// Per-directed-channel FIFO sequence number.
    pub seq: u64,
    /// Checksum of the payload as the sender computed it: word-wise FNV-1a
    /// in eight lanes, defined by the delivery envelope in [`crate::comm`].
    pub checksum: u64,
    /// The message bytes.
    pub payload: Payload,
}

impl WireFrame {
    /// A frame that travels outside the delivery envelope — no sequence
    /// number, no checksum: a backend's own link-level traffic
    /// ([`crate::tag::PING`]) and the death notice a backend files on behalf
    /// of a peer it has declared dead.
    pub fn control(from: usize, tag: u64, payload: Vec<u8>) -> WireFrame {
        WireFrame {
            from,
            tag,
            seq: 0,
            checksum: 0,
            payload: Payload::from(payload),
        }
    }

    /// The payload of a [`crate::tag::DEATH`] notification: the schedule
    /// step at which the sender stopped. A backend that declares a peer
    /// dead does not know what a step is and writes `usize::MAX`; the
    /// receiving [`crate::comm::RankCtx`] resolves that from the shared
    /// fault plan.
    pub fn death_payload(step: usize) -> Vec<u8> {
        step.to_le_bytes().to_vec()
    }

    /// The step a [`crate::tag::DEATH`] notification announces (0 if the
    /// payload is malformed).
    pub fn death_step(&self) -> usize {
        usize::from_le_bytes(self.payload.as_slice().try_into().unwrap_or([0; 8]))
    }
}

/// A raw send failed: the peer's endpoint is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendRawError {
    /// The unreachable destination rank.
    pub to: usize,
}

/// A raw receive produced no frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvRawError {
    /// The deadline passed with nothing arrived.
    Timeout,
    /// Every peer endpoint is gone and the buffer is drained.
    Closed,
}

/// How ranks exchange raw frames — the backend interface.
///
/// Implementations must preserve per-directed-channel FIFO order: two
/// frames pushed `A → B` surface from `recv_raw` at `B` in push order.
/// Cross-channel ordering is unspecified (both backends interleave
/// arbitrarily). `send_raw` must not block on the receiver making
/// progress (eager buffering). A backend interprets no tag: it moves every
/// frame it is handed, and the only frames it originates are the death
/// notice of a peer it has given up on and whatever its links exchange
/// below `recv_raw`.
pub trait Transport: Send {
    /// This endpoint's rank in `0..world_size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn world_size(&self) -> usize;

    /// Push `frame` toward rank `to` (including `to == rank()`:
    /// self-sends loop back locally). Fails only if the peer's endpoint
    /// has been torn down.
    fn send_raw(&mut self, to: usize, frame: WireFrame) -> Result<(), SendRawError>;

    /// Block up to `timeout` for the next frame from any peer. A frame
    /// that has already arrived is returned whatever the timeout, so
    /// `Duration::ZERO` is the non-blocking receive.
    fn recv_raw(&mut self, timeout: Duration) -> Result<WireFrame, RecvRawError>;
}

/// The in-process backend: crossbeam channels between threads of one
/// address space.
///
/// Frames are never copied — the shared [`Payload`] crosses the "network"
/// as a reference-count bump. This is the fastest backend and the
/// reference for cross-backend determinism tests.
pub struct InProc {
    rank: usize,
    size: usize,
    senders: Vec<Sender<WireFrame>>,
    rx: Receiver<WireFrame>,
}

impl InProc {
    /// Build a fully-connected world of `p` endpoints, one per rank.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn mesh(p: usize) -> Vec<InProc> {
        assert!(p > 0, "a transport mesh needs at least one rank");
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded::<WireFrame>();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| InProc {
                rank,
                size: p,
                senders: txs.clone(),
                rx,
            })
            .collect()
    }
}

impl Transport for InProc {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.size
    }

    fn send_raw(&mut self, to: usize, frame: WireFrame) -> Result<(), SendRawError> {
        debug_assert!(to < self.size, "destination checked by the caller");
        self.senders[to]
            .send(frame)
            .map_err(|_| SendRawError { to })
    }

    fn recv_raw(&mut self, timeout: Duration) -> Result<WireFrame, RecvRawError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam_channel::RecvTimeoutError::Timeout => RecvRawError::Timeout,
            crossbeam_channel::RecvTimeoutError::Disconnected => RecvRawError::Closed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(from: usize, tag: u64, payload: Vec<u8>) -> WireFrame {
        WireFrame {
            from,
            tag,
            seq: 0,
            checksum: 0,
            payload: Payload::from(payload),
        }
    }

    #[test]
    fn mesh_delivers_point_to_point_in_order() {
        let mut world = InProc::mesh(2);
        let mut b = world.pop().unwrap();
        let mut a = world.pop().unwrap();
        assert_eq!((a.rank(), b.rank()), (0, 1));
        assert_eq!(a.world_size(), 2);
        a.send_raw(1, frame(0, 7, vec![1])).unwrap();
        a.send_raw(1, frame(0, 7, vec![2])).unwrap();
        let first = b.recv_raw(Duration::from_secs(1)).unwrap();
        // Already queued: a zero timeout is the non-blocking receive.
        let second = b.recv_raw(Duration::ZERO).unwrap();
        assert_eq!(first.payload.as_slice(), &[1]);
        assert_eq!(second.payload.as_slice(), &[2]);
        assert_eq!(
            b.recv_raw(Duration::ZERO).map(|f| f.tag),
            Err(RecvRawError::Timeout)
        );
    }

    #[test]
    fn self_send_loops_back() {
        let mut world = InProc::mesh(1);
        let mut t = world.pop().unwrap();
        t.send_raw(0, frame(0, 3, vec![9])).unwrap();
        let got = t.recv_raw(Duration::from_secs(1)).unwrap();
        assert_eq!(got.payload.as_slice(), &[9]);
    }

    #[test]
    fn recv_times_out_when_nothing_arrives() {
        let mut world = InProc::mesh(2);
        let mut a = world.remove(0);
        assert!(matches!(
            a.recv_raw(Duration::from_millis(20)),
            Err(RecvRawError::Timeout)
        ));
    }

    #[test]
    fn send_to_dropped_endpoint_fails() {
        let mut world = InProc::mesh(2);
        let b = world.pop().unwrap();
        let mut a = world.pop().unwrap();
        drop(b);
        // a still holds its own sender, so sends to itself work; the peer
        // is gone.
        assert!(matches!(
            a.send_raw(1, frame(0, 1, vec![])),
            Err(SendRawError { to: 1 })
        ));
        a.send_raw(0, frame(0, 1, vec![])).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_mesh_panics() {
        InProc::mesh(0);
    }
}
