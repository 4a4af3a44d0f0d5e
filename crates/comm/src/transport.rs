//! The transport abstraction: how ranks exchange raw frames.
//!
//! Everything the reliable-delivery envelope needs from a network is
//! captured by the [`Transport`] trait: push a [`WireFrame`] toward a peer
//! ([`Transport::send_raw`]), pull the next arrived frame from anyone
//! ([`Transport::recv_raw`]), and synchronize the world
//! ([`Transport::barrier`]). The envelope itself — per-channel sequence
//! numbers, FNV checksums, retransmission with backoff, fault injection,
//! death notifications — lives **above** the trait in
//! [`crate::comm::RankCtx`], so every backend inherits identical
//! [`crate::FaultPlan`] semantics and produces identical event traces.
//!
//! Two backends exist:
//!
//! * [`InProc`] (this module) — the original crossbeam-channel path: all
//!   ranks share one address space, frames are reference-counted pointer
//!   bumps, the barrier is [`std::sync::Barrier`]. This is the default for
//!   tests, figures and the virtual-clock experiments.
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
use std::sync::Arc;
use std::time::Duration;

/// Tag namespace reserved for transport-internal control frames (the TCP
/// backend's barrier protocol). These frames never surface through
/// [`Transport::recv_raw`] on backends that use them, and algorithm tags
/// must keep this bit clear — like the gather (bit 63), death (bit 61),
/// repair (bit 60) and liveness (bit 59) namespaces.
pub const NET_CONTROL_TAG_BIT: u64 = 1 << 58;

/// Step-field values at or above this base belong to the tile-ownership
/// protocol's sub-channels, not to schedule steps.
///
/// Schedule executors place the step index in bits `40..48` of a tag (see
/// `rt-core`'s executor); real schedules never exceed a few dozen steps,
/// so the top half of that field is free. The tile-ownership path — which
/// has no step structure at all — claims step values `0x80..0x100` as
/// sub-channels ([`TILE_CH_MANIFEST`] … [`TILE_CH_REPAIR_SEGMENTS`]), keeping
/// every control bit (58–63) clear and the frame namespace (bits 48–57)
/// composable, so streaming, fault injection, retransmission and tracing
/// work unchanged for tile traffic.
pub const TILE_STEP_BASE: u64 = 0x80;

/// Tile sub-channel: per-sender manifest bitmaps announcing which tiles
/// the sender will ship (low bits: sending rank).
pub const TILE_CH_MANIFEST: u64 = 0;
/// Tile sub-channel: encoded tile payloads (low bits: tile index).
pub const TILE_CH_PAYLOAD: u64 = 1;
/// Tile sub-channel: manifest bitmaps of the post-failure repair round
/// (low bits: sending rank).
pub const TILE_CH_REPAIR_MANIFEST: u64 = 2;
/// Tile sub-channel: re-sent tile payloads of the repair round (low bits:
/// tile index).
pub const TILE_CH_REPAIR_PAYLOAD: u64 = 3;
/// Tile sub-channel: gather messages from tile owners to the root or to
/// display-wall ranks (low bits: cell/owner coordinates).
pub const TILE_CH_GATHER: u64 = 4;
/// Tile sub-channel: per-sender puzzle-piece segment metadata — the
/// per-row non-blank intervals of every tile the sender will ship, used
/// by the puzzle method's overlap classifier (low bits: sending rank).
pub const TILE_CH_SEGMENTS: u64 = 5;
/// Tile sub-channel: segment metadata re-sent during the post-failure
/// repair round (low bits: sending rank).
pub const TILE_CH_REPAIR_SEGMENTS: u64 = 6;

/// Tag of a tile-protocol message: frame-namespace bits on top, the
/// sub-channel in the reserved step-field range, and a channel-specific
/// discriminator in the low 40 bits.
pub fn tile_tag(frame_tag: u64, channel: u64, low: u64) -> u64 {
    debug_assert!(
        channel < TILE_STEP_BASE,
        "tile channel {channel} overflows the reserved step-field range"
    );
    debug_assert!(low < (1 << 40), "tile tag low bits {low} overflow");
    frame_tag | ((TILE_STEP_BASE + channel) << 40) | low
}

/// Bit position of the frame-stream tag namespace: bits
/// `FRAME_TAG_SHIFT .. FRAME_TAG_SHIFT + FRAME_TAG_BITS` carry the frame
/// index of a multi-frame streaming pipeline, so two frames can be in
/// flight at once without their composition tags colliding. Sits strictly
/// below every control namespace ([`NET_CONTROL_TAG_BIT`] and the comm
/// layer's bits 59–63) and strictly above the executor's step bits, so
/// reliability, retransmission, fault injection and tracing all work
/// unchanged per frame.
pub const FRAME_TAG_SHIFT: u32 = 48;

/// Width of the frame tag namespace in bits. Frame indices wrap modulo
/// `2^FRAME_TAG_BITS` (1024); a streaming window keeps at most a handful
/// of frames in flight, so wrapped tags can never coexist.
pub const FRAME_TAG_BITS: u32 = 10;

/// The tag bits identifying frame `frame` of a stream: OR this into every
/// algorithm tag of that frame's composition. Frame 0 maps to `0`, so a
/// single-frame (non-streaming) run tags messages exactly as before.
pub fn frame_tag_base(frame: u64) -> u64 {
    (frame % (1 << FRAME_TAG_BITS)) << FRAME_TAG_SHIFT
}

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
    /// Message tag (algorithm-defined, or a reserved control namespace).
    pub tag: u64,
    /// Per-directed-channel FIFO sequence number.
    pub seq: u64,
    /// FNV-1a checksum of the payload as the sender computed it.
    pub checksum: u64,
    /// The message bytes.
    pub payload: Payload,
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

/// A transport barrier could not complete.
///
/// On the in-process backend the barrier is a [`std::sync::Barrier`] and
/// never fails; over real sockets a peer can die mid-round, and the
/// error names exactly which peer and which control tag the round was
/// stuck on — the same diagnostic contract as
/// [`crate::CommError::Timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierError {
    /// The rank reporting the failure.
    pub rank: usize,
    /// The peer that was unreachable or declared dead, when known; `None`
    /// when the round timed out without identifying a culprit.
    pub peer: Option<usize>,
    /// The control tag of the barrier round (in the
    /// [`NET_CONTROL_TAG_BIT`] namespace on backends that move frames).
    pub tag: u64,
    /// How long the rank waited before giving up, for timeout failures.
    pub waited: Option<Duration>,
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "barrier (control tag {:#x}) failed at rank {}",
            self.tag, self.rank
        )?;
        if let Some(peer) = self.peer {
            write!(f, ": rank {peer} unreachable during the round")?;
        }
        if let Some(waited) = self.waited {
            write!(f, " (waited {waited:?})")?;
        }
        Ok(())
    }
}

impl std::error::Error for BarrierError {}

/// How ranks exchange raw frames — the backend interface.
///
/// Implementations must preserve per-directed-channel FIFO order: two
/// frames pushed `A → B` surface from `recv_raw` at `B` in push order.
/// Cross-channel ordering is unspecified (both backends interleave
/// arbitrarily). `send_raw` must not block on the receiver making
/// progress (eager buffering), and `barrier` must not surface frames —
/// any data frames that arrive during a barrier are queued for later
/// receives.
pub trait Transport: Send {
    /// This endpoint's rank in `0..world_size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn world_size(&self) -> usize;

    /// Push `frame` toward rank `to` (including `to == rank()`:
    /// self-sends loop back locally). Fails only if the peer's endpoint
    /// has been torn down.
    fn send_raw(&mut self, to: usize, frame: WireFrame) -> Result<(), SendRawError>;

    /// Block up to `timeout` for the next frame from any peer.
    fn recv_raw(&mut self, timeout: Duration) -> Result<WireFrame, RecvRawError>;

    /// Non-blocking receive: the next already-arrived frame, if any.
    fn try_recv_raw(&mut self) -> Option<WireFrame>;

    /// Synchronize all ranks. Must only be called while every rank is
    /// still participating (the failure protocol never barriers
    /// post-crash); a backend that detects a dead or unreachable peer
    /// mid-round reports it as a typed [`BarrierError`] instead of
    /// panicking or hanging.
    fn barrier(&mut self) -> Result<(), BarrierError>;
}

/// The in-process backend: crossbeam channels between threads of one
/// address space, `std::sync::Barrier` for synchronization.
///
/// Frames are never copied — the shared [`Payload`] crosses the "network"
/// as a reference-count bump. This is the fastest backend and the
/// reference for cross-backend determinism tests.
pub struct InProc {
    rank: usize,
    size: usize,
    senders: Vec<Sender<WireFrame>>,
    rx: Receiver<WireFrame>,
    barrier: Arc<std::sync::Barrier>,
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
        let barrier = Arc::new(std::sync::Barrier::new(p));
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| InProc {
                rank,
                size: p,
                senders: txs.clone(),
                rx,
                barrier: Arc::clone(&barrier),
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

    fn try_recv_raw(&mut self) -> Option<WireFrame> {
        self.rx.try_recv()
    }

    fn barrier(&mut self) -> Result<(), BarrierError> {
        self.barrier.wait();
        Ok(())
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
        let second = b.recv_raw(Duration::from_secs(1)).unwrap();
        assert_eq!(first.payload.as_slice(), &[1]);
        assert_eq!(second.payload.as_slice(), &[2]);
        assert!(b.try_recv_raw().is_none());
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

    #[test]
    fn frame_tag_namespace_is_disjoint_from_control_bits() {
        // Frame 0 is the identity: single-frame runs tag exactly as before.
        assert_eq!(frame_tag_base(0), 0);
        // Distinct in-window frames get distinct bases; indices wrap.
        assert_ne!(frame_tag_base(1), frame_tag_base(2));
        assert_eq!(frame_tag_base(5), frame_tag_base(5 + (1 << FRAME_TAG_BITS)));
        // The namespace never touches a control bit (58..=63).
        for frame in 0..2048u64 {
            assert_eq!(frame_tag_base(frame) & !((1 << 58) - 1), 0, "{frame}");
        }
        // And sits above the executor's step-tag budget (step < 256 at
        // bit 40 → highest step bit is 47).
        assert_eq!(frame_tag_base(1), 1 << FRAME_TAG_SHIFT);
        const { assert!(FRAME_TAG_SHIFT >= 48) };
    }
}
