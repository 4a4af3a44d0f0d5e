//! Execution layer: threaded ranks over FIFO channels with a
//! reliable-delivery envelope and fail-stop rank-failure detection.
//!
//! [`Multicomputer::run`] spawns one thread per rank and hands each a
//! [`RankCtx`] with MPI-like tagged point-to-point messaging and barriers.
//! Every operation is recorded into the rank's event trace
//! so the run can be re-priced on the virtual clock afterwards
//! (see [`mod@crate::replay`]).
//!
//! **Reliable delivery.** Every message carries a per-channel sequence
//! number and a payload checksum, word-wise FNV-1a in eight independent
//! lanes, hashed once per buffer: the [`Payload`] keeps the value, so
//! retransmissions and an in-process receiver's check read it rather than
//! hash the bytes again. A [`FaultPlan`] can drop or
//! corrupt messages (deterministically or at a seeded rate); the sender
//! retransmits with exponential backoff, up to [`MAX_ATTEMPTS`] attempts,
//! recording `Retransmit`/`AckWait` trace events so the virtual-clock
//! replay prices the recovery exactly (`Ts + bytes·Tp` per attempt plus
//! backoff). Receivers verify the checksum and silently discard corrupted
//! frames — the retransmission supplies the good copy. A channel severed
//! outright surfaces as [`CommError::DeliveryFailed`] after the retries
//! are exhausted.
//!
//! **Failure detection.** A plan can crash a rank at a given schedule step
//! ([`FaultPlan::crash_rank_at_step`]). The dying rank broadcasts a death
//! notification before exiting; any receive that would wait on it returns
//! [`CommError::RankFailed`] as soon as the notification surfaces, instead
//! of hanging until the timeout. [`RankCtx::liveness_exchange`] lets
//! survivors agree on the set of failed ranks before a recovery phase.
//!
//! Determinism: message matching is by *(source, tag)* in per-channel FIFO
//! order. A message whose tag nobody asks for is left pending; a receive
//! that times out with such messages queued reports the foreign tag as a
//! [`CommError::TagMismatch`] diagnostic, and a receive with nothing queued
//! reports [`CommError::Timeout`]. All fault decisions are pure functions
//! of the plan's seed and the message coordinates, so a faulty run's trace
//! is bit-for-bit reproducible.

use crate::mark::{Cursor, Mark};
use crate::tag;
use crate::trace::{Event, RankTrace, Trace};
use crate::transport::{InProc, RecvRawError, Transport, WireFrame};
use crate::ComputeKind;
use rt_obs::{Counters, Observer, Phase, Recorder};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Maximum delivery attempts (1 original send + 3 retransmissions).
pub const MAX_ATTEMPTS: u32 = 4;

/// Errors surfaced by the communication substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A rank index was outside `0..size`.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// Machine size.
        size: usize,
    },
    /// A message with a different tag is queued from `from` and nothing
    /// carrying the expected tag arrived before the deadline.
    TagMismatch {
        /// Source rank of the offending message.
        from: usize,
        /// Tag the receiver was waiting for.
        expected: u64,
        /// Tag actually found queued.
        got: u64,
    },
    /// No message arrived from `from` with tag `tag` before the deadline.
    Timeout {
        /// Source rank being waited on.
        from: usize,
        /// Tag being waited on.
        tag: u64,
        /// How long the receiver actually waited.
        elapsed: Duration,
        /// The configured receive deadline it waited against.
        deadline: Duration,
    },
    /// The peer's channel endpoint was dropped (peer exited early) without
    /// a death notification.
    Disconnected {
        /// Peer rank whose endpoint closed.
        from: usize,
        /// Tag of the operation that hit the closed endpoint (the tag
        /// being sent, or the tag a receive was waiting on).
        tag: u64,
    },
    /// Every delivery attempt of a message was lost or corrupted.
    DeliveryFailed {
        /// Destination rank.
        to: usize,
        /// Tag of the undeliverable message.
        tag: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The peer announced its own failure; it will never send again.
    RankFailed {
        /// The failed rank.
        rank: usize,
    },
    /// A membership-protocol message did not parse: a liveness ledger that
    /// is not whole `(rank, step)` entries, or that names a rank outside
    /// the machine.
    Malformed {
        /// Rank the message came from.
        from: usize,
        /// Tag it carried.
        tag: u64,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for machine of size {size}")
            }
            CommError::TagMismatch {
                from,
                expected,
                got,
            } => write!(
                f,
                "tag mismatch on channel from rank {from}: expected {expected:#x}, got {got:#x}"
            ),
            CommError::Timeout {
                from,
                tag,
                elapsed,
                deadline,
            } => write!(
                f,
                "timed out waiting for tag {tag:#x} from rank {from} \
                 (waited {elapsed:?} against a {deadline:?} deadline)"
            ),
            CommError::Disconnected { from, tag } => {
                write!(
                    f,
                    "channel from rank {from} disconnected (tag {tag:#x} in flight)"
                )
            }
            CommError::DeliveryFailed { to, tag, attempts } => write!(
                f,
                "message to rank {to} (tag {tag:#x}) undeliverable after {attempts} attempts"
            ),
            CommError::RankFailed { rank } => {
                write!(f, "rank {rank} failed (death notification received)")
            }
            CommError::Malformed { from, tag } => {
                write!(
                    f,
                    "malformed control message from rank {from} (tag {tag:#x})"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

// FNV-1a's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The delivery envelope's checksum: word-wise FNV-1a in eight independent
/// lanes, hashed once per buffer and kept by [`Payload::checksum`]. A sent
/// buffer is hashed by its sender, and a buffer read off a socket by its
/// receiver, so one serial multiply chain would set the wall-clock cost of
/// moving a large frame; eight chains keep the multiplier busy instead.
///
/// Lane `i` hashes words `i, i + 8, …` of the payload's whole 64-byte
/// blocks; the eight lane states and then the payload length are folded
/// into one FNV-1a state, which goes on through the leftover words and then
/// the leftover bytes. For a fixed length every lane step and the fold are
/// bijective in any single word, so damage confined to one 8-byte word —
/// such as [`FaultPlan`]'s flipped first byte — always changes the value.
/// The blind spot is word-wise FNV-1a's own: flipping the top bit of two
/// words cancels, as it did with one chain. Only sender/receiver agreement
/// matters — the value never leaves the delivery envelope.
fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(FNV_PRIME);
    let (blocks, rest) = bytes.as_chunks::<64>();
    let mut lanes = [FNV_OFFSET; 8];
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = lanes.into_iter().fold(FNV_OFFSET, step);
    h = step(h, bytes.len() as u64);
    let (words, tail) = rest.as_chunks::<8>();
    for word in words {
        h = step(h, u64::from_le_bytes(*word));
    }
    for &b in tail {
        h = step(h, b as u64);
    }
    h
}

/// Deterministic fault injection for testing error and recovery paths.
///
/// Deterministic faults are keyed by `(src, dst, seq)` where `seq` is the
/// per-directed-channel FIFO sequence number (0-based). Probabilistic
/// faults are pure functions of `(seed, src, dst, seq, attempt)`, so the
/// same plan reproduces the same loss pattern — and therefore the same
/// trace — on every run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    drops: HashSet<(usize, usize, u64)>,
    severed: HashSet<(usize, usize)>,
    tag_corruptions: HashMap<(usize, usize, u64), u64>,
    drop_rate: f64,
    corrupt_rate: f64,
    crashes: HashMap<usize, usize>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Seed for the probabilistic faults (`drop_rate` / `corrupt_rate`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drop the first delivery attempt of the `seq`-th message from `src`
    /// to `dst` (the retransmission recovers it).
    pub fn drop_message(mut self, src: usize, dst: usize, seq: u64) -> Self {
        self.drops.insert((src, dst, seq));
        self
    }

    /// Drop **every** attempt on the `src → dst` channel: delivery fails
    /// permanently with [`CommError::DeliveryFailed`].
    pub fn sever_channel(mut self, src: usize, dst: usize) -> Self {
        self.severed.insert((src, dst));
        self
    }

    /// Replace the tag of the `seq`-th message from `src` to `dst`. The
    /// payload (and its checksum) stay valid, so the frame is delivered
    /// and left queued under the wrong tag — modeling a protocol-level
    /// confusion rather than line noise.
    pub fn corrupt_tag(mut self, src: usize, dst: usize, seq: u64, tag: u64) -> Self {
        self.tag_corruptions.insert((src, dst, seq), tag);
        self
    }

    /// Drop each delivery attempt independently with probability `rate`
    /// (deterministic in the plan seed).
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Corrupt each delivered attempt's payload independently with
    /// probability `rate` (deterministic in the plan seed); the checksum
    /// catches it and the sender retransmits.
    pub fn corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Make `rank` fail (fail-stop) at the start of schedule step `step`.
    /// The executor reads [`RankCtx::planned_crashes`]; the dying rank
    /// broadcasts a death notification and exits.
    pub fn crash_rank_at_step(mut self, rank: usize, step: usize) -> Self {
        self.crashes.insert(rank, step);
        self
    }

    /// The step at which `rank` is planned to fail, if any.
    pub fn crash_step_of(&self, rank: usize) -> Option<usize> {
        self.crashes.get(&rank).copied()
    }

    /// True if the plan contains any fault at all.
    pub fn is_none(&self) -> bool {
        self.drops.is_empty()
            && self.severed.is_empty()
            && self.tag_corruptions.is_empty()
            && self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.crashes.is_empty()
    }

    /// Uniform `[0, 1)` deterministic in `(seed, salt, coordinates)`.
    fn chance(&self, salt: u64, src: usize, dst: usize, seq: u64, attempt: u32) -> f64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
            .wrapping_add((src as u64) << 48)
            .wrapping_add((dst as u64) << 32)
            .wrapping_add(seq.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .wrapping_add(attempt as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

const DROP_SALT: u64 = 0xD0;
const CORRUPT_SALT: u64 = 0xC0;

/// Reference-counted message payload.
///
/// The reliable-delivery envelope may transmit the same bytes up to
/// [`MAX_ATTEMPTS`] times, and a death notification goes to every
/// peer. Backing payloads with an [`Arc`] makes every such re-send a
/// pointer bump instead of a byte copy — only a deliberately *corrupted*
/// attempt materializes a fresh buffer (it must damage its own copy).
///
/// The buffer keeps its envelope checksum next to its bytes, hashed on
/// first use: the bytes never change, so the sender's hash serves every
/// attempt and, in process, the receiver's check of the same buffer. Each
/// buffer is hashed at most once; a fresh buffer — a damaged copy, a frame
/// read off a socket — is hashed afresh.
///
/// `Payload` dereferences to `[u8]`, so receivers use it like a byte
/// slice.
#[derive(Debug, Clone)]
pub struct Payload(Arc<Buffer>);

/// A payload's bytes and their envelope checksum, once computed.
#[derive(Debug)]
struct Buffer {
    bytes: Vec<u8>,
    checksum: OnceLock<u64>,
}

impl Payload {
    /// View the bytes as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.0.bytes
    }

    /// The envelope checksum of the bytes: [`fnv1a`] on the first call,
    /// the kept value on every later one, from this handle or a clone.
    fn checksum(&self) -> u64 {
        *self.0.checksum.get_or_init(|| fnv1a(&self.0.bytes))
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(Arc::new(Buffer {
            bytes,
            checksum: OnceLock::new(),
        }))
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.0.bytes == other.0.bytes
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.0.bytes == *other
    }
}

/// Per-rank handle: the algorithm-facing API of the multicomputer.
///
/// A `RankCtx` owns the reliable-delivery envelope (sequence numbers,
/// checksums, retransmission, fault injection, failure detection) and the
/// tagged-message demux; the raw frame motion underneath is delegated to a
/// [`Transport`] backend. [`Multicomputer::run`] builds one per thread over
/// the [`InProc`] backend; out-of-process workers build their own with
/// [`RankCtx::over_transport`] (see the `rt-net` crate).
pub struct RankCtx {
    rank: usize,
    size: usize,
    transport: Box<dyn Transport>,
    pending: Vec<VecDeque<WireFrame>>,
    send_seq: Vec<u64>,
    events: RankTrace,
    barrier_gen: u64,
    liveness_gen: u64,
    timeout: Duration,
    faults: Arc<FaultPlan>,
    /// Ranks known to have failed, with the schedule step they announced.
    dead: BTreeMap<usize, usize>,
    checksum_rejects: u64,
    /// Wall-clock recorder; `None` when the run is not observed, so every
    /// instrumentation hook is a single branch.
    obs: Option<Recorder>,
    /// Where this rank is in its frame, advanced by [`RankCtx::mark`]:
    /// the step and frame wall-clock spans are attributed to.
    cursor: Cursor,
}

/// Options for building a standalone [`RankCtx`] over an external
/// [`Transport`] (the multi-process mode of the `rt-net` crate). The
/// defaults match [`Multicomputer::new`]: 10 s receive deadline, no
/// faults, unobserved.
#[derive(Debug, Default)]
pub struct RankOptions {
    /// Receive deadline (`None` keeps the 10 s default).
    pub timeout: Option<Duration>,
    /// Fault-injection plan (must be identical on every rank for the
    /// deterministic failure protocol to agree).
    pub faults: FaultPlan,
    /// Wall-clock recorder for observed runs.
    pub recorder: Option<Recorder>,
}

impl RankCtx {
    /// Build a rank context over an arbitrary transport backend.
    ///
    /// This is the entry point for out-of-process ranks: the `rt-net`
    /// worker connects its TCP mesh, wraps it here, and runs the same
    /// executor code the threaded backend runs. The envelope state starts
    /// fresh (sequence numbers at zero), so every cooperating rank must
    /// construct its context at the same protocol point.
    pub fn over_transport(transport: Box<dyn Transport>, opts: RankOptions) -> RankCtx {
        let rank = transport.rank();
        let size = transport.world_size();
        assert!(size > 0, "a multicomputer needs at least one rank");
        assert!(rank < size, "transport rank {rank} outside world {size}");
        RankCtx {
            rank,
            size,
            transport,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            send_seq: vec![0; size],
            events: Vec::new(),
            barrier_gen: 0,
            liveness_gen: 0,
            timeout: opts.timeout.unwrap_or(Duration::from_secs(10)),
            faults: Arc::new(opts.faults),
            dead: BTreeMap::new(),
            checksum_rejects: 0,
            obs: opts.recorder,
            cursor: Cursor::default(),
        }
    }

    /// The transport under this context, for the next context its owner
    /// builds over it. Frames buffered here and not yet received are
    /// dropped with the context.
    pub fn into_transport(self) -> Box<dyn Transport> {
        self.transport
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Machine size (number of ranks).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Timestamp for a wall-clock span, `None` when the run is unobserved
    /// (the zero-cost disabled path: no clock read, no allocation).
    #[inline]
    pub fn obs_start(&self) -> Option<Instant> {
        self.obs.as_ref().map(|_| Instant::now())
    }

    /// Close a wall-clock span opened by [`RankCtx::obs_start`]. A `None`
    /// start (unobserved run) is a no-op. The span is attributed to the
    /// step and frame the marks so far have opened (see [`crate::mark`]);
    /// on this clock, flush work belongs to no particular step.
    #[inline]
    pub fn obs_span(&mut self, phase: Phase, started: Option<Instant>) {
        if let (Some(rec), Some(t)) = (self.obs.as_mut(), started) {
            let at = self.cursor;
            rec.record_span(phase, at.step.filter(|_| !at.in_flush), at.frame, t);
        }
    }

    /// Update this rank's observability counters; `f` runs only when a
    /// recorder is attached.
    #[inline]
    pub fn obs_counters(&mut self, f: impl FnOnce(&mut Counters)) {
        if let Some(rec) = self.obs.as_mut() {
            f(rec.counters_mut());
        }
    }

    fn check_rank(&self, rank: usize) -> Result<(), CommError> {
        if rank >= self.size {
            Err(CommError::InvalidRank {
                rank,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    /// Take the next sequence number of the `self → to` channel and trace
    /// the send that uses it.
    fn open_send(&mut self, to: usize, tag: u64, bytes: u64) -> u64 {
        let seq = self.send_seq[to];
        self.send_seq[to] += 1;
        self.events.push(Event::Send {
            to,
            tag,
            bytes,
            seq,
        });
        seq
    }

    /// Put one frame on the wire — the one place an envelope is assembled.
    /// A planned-dead (or already announced dead) receiver's endpoint may
    /// be gone: that loss is part of the failure model and the post is a
    /// deterministic no-op; any other closed endpoint is a wiring bug.
    fn post(
        &mut self,
        to: usize,
        tag: u64,
        seq: u64,
        checksum: u64,
        payload: Payload,
    ) -> Result<(), CommError> {
        let frame = WireFrame {
            from: self.rank,
            tag,
            seq,
            checksum,
            payload,
        };
        match self.transport.send_raw(to, frame) {
            Err(_) if !self.faults.crashes.contains_key(&to) && !self.dead.contains_key(&to) => {
                Err(CommError::Disconnected { from: to, tag })
            }
            _ => Ok(()),
        }
    }

    /// Post one frame of the membership protocol (death notices, liveness
    /// rounds) to each of `peers`: traced as ordinary sends, so replay
    /// prices the traffic, but outside fault injection — the failure model
    /// assumes the membership protocol itself is reliable — and best
    /// effort, since a peer whose endpoint is gone has already exited.
    fn post_control(&mut self, peers: &[usize], tag: u64, bytes: Vec<u8>) {
        let payload = Payload::from(bytes);
        let checksum = payload.checksum();
        for &to in peers {
            let seq = self.open_send(to, tag, payload.len() as u64);
            let _ = self.post(to, tag, seq, checksum, payload.clone());
        }
    }

    /// Send `payload` to rank `to` with an algorithm-defined `tag`.
    ///
    /// Sends are buffered (never block), matching an eager-protocol MPI
    /// send for the message sizes involved here. The reliable-delivery
    /// envelope retries lost or corrupted attempts up to [`MAX_ATTEMPTS`]
    /// times with exponential backoff; all attempts and backoff windows
    /// are recorded in the trace so replay prices the recovery. Every
    /// attempt shares one [`Payload`] buffer — retransmission never copies
    /// the bytes.
    pub fn send(
        &mut self,
        to: usize,
        tag: u64,
        payload: impl Into<Payload>,
    ) -> Result<(), CommError> {
        let started = self.obs_start();
        let result = self.send_inner(to, tag, payload.into());
        self.obs_span(Phase::Send, started);
        result
    }

    fn send_inner(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), CommError> {
        self.check_rank(to)?;
        let bytes = payload.len() as u64;
        let seq = self.open_send(to, tag, bytes);
        let key = (self.rank, to, seq);
        let wire_tag = *self.faults.tag_corruptions.get(&key).unwrap_or(&tag);
        let faults = Arc::clone(&self.faults);
        let checksum = payload.checksum();
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.events.push(Event::Retransmit {
                    to,
                    tag,
                    bytes,
                    seq,
                    attempt,
                });
            }
            let dropped = (attempt == 0 && faults.drops.contains(&key))
                || faults.severed.contains(&(self.rank, to))
                || faults.chance(DROP_SALT, self.rank, to, seq, attempt) < faults.drop_rate;
            let corrupted = !dropped
                && faults.chance(CORRUPT_SALT, self.rank, to, seq, attempt) < faults.corrupt_rate;
            if !dropped {
                let mut sum = checksum;
                let wire = if corrupted {
                    // Deliver a damaged frame: the receiver's checksum
                    // rejects it. Only this path copies the bytes — the
                    // damage must not reach the shared buffer the
                    // retransmission will resend.
                    let mut bad = payload.to_vec();
                    match bad.first_mut() {
                        Some(b) => *b ^= 0xA5,
                        None => sum ^= 1,
                    }
                    Payload::from(bad)
                } else {
                    payload.clone()
                };
                self.post(to, wire_tag, seq, sum, wire)?;
            }
            if dropped || corrupted {
                // Vanished into the network, or rejected at the far end:
                // wait one backoff window for the acknowledgement that
                // never comes, then retry.
                self.events.push(Event::AckWait { to, seq, attempt });
                continue;
            }
            return Ok(());
        }
        Err(CommError::DeliveryFailed {
            to,
            tag,
            attempts: MAX_ATTEMPTS,
        })
    }

    /// File an incoming frame: intercept death notices, drop and count a
    /// frame whose checksum fails or whose sender is outside the machine
    /// (`from` comes off the wire), queue the rest.
    fn stash(&mut self, msg: WireFrame) {
        let known = msg.from < self.size;
        if known && msg.tag == tag::DEATH {
            // A backend that gave up on a peer does not know what a step
            // is and says `usize::MAX`; the shared fault plan knows.
            let step = match msg.death_step() {
                usize::MAX => self.faults.crash_step_of(msg.from).unwrap_or(usize::MAX),
                step => step,
            };
            self.dead.insert(msg.from, step);
            return;
        }
        if !known || msg.payload.checksum() != msg.checksum {
            self.checksum_rejects += 1;
            return;
        }
        self.pending[msg.from].push_back(msg);
    }

    fn recv_failure(&self, from: usize, tag: u64, started: Instant) -> CommError {
        if let Some(first) = self.pending[from].front() {
            CommError::TagMismatch {
                from,
                expected: tag,
                got: first.tag,
            }
        } else {
            CommError::Timeout {
                from,
                tag,
                elapsed: started.elapsed(),
                deadline: self.timeout,
            }
        }
    }

    /// Receive the next message from `from` carrying tag `tag` (per-tag
    /// FIFO order).
    ///
    /// Messages with other tags are left queued for later receives. If the
    /// deadline passes with such messages queued, the foreign tag is
    /// reported as a [`CommError::TagMismatch`] diagnostic; with nothing
    /// queued, [`CommError::Timeout`]. If `from` has announced its death
    /// and no matching message is queued, returns
    /// [`CommError::RankFailed`] immediately instead of waiting.
    pub fn recv(&mut self, from: usize, tag: u64) -> Result<Payload, CommError> {
        let span_started = self.obs_start();
        let result = self.recv_inner(from, tag);
        self.obs_span(Phase::Recv, span_started);
        result
    }

    fn recv_inner(&mut self, from: usize, tag: u64) -> Result<Payload, CommError> {
        self.check_rank(from)?;
        let msg = self.take(from, tag, Instant::now(), true)?;
        self.events.push(Event::Recv {
            from,
            tag,
            bytes: msg.payload.len() as u64,
            seq: msg.seq,
        });
        Ok(msg.payload)
    }

    /// The `(source, tag)` demux every receive and the barrier go through:
    /// take the first queued frame from `from` tagged `tag`, filing whatever
    /// else arrives until there is one. Fails as [`RankCtx::recv`]
    /// documents, the receive deadline counted from `started`.
    /// `span_polls` brackets each blocking poll as a `Wait` span — nested in
    /// a receive's `Recv` span; the barrier is one `Wait` span already.
    fn take(
        &mut self,
        from: usize,
        tag: u64,
        started: Instant,
        span_polls: bool,
    ) -> Result<WireFrame, CommError> {
        // A deadline past the clock's range is no deadline: the backends'
        // `recv_raw` then wait without bound.
        let deadline = started.checked_add(self.timeout);
        loop {
            let queue = &mut self.pending[from];
            let found = queue.iter().position(|m| m.tag == tag);
            if let Some(msg) = found.and_then(|idx| queue.remove(idx)) {
                return Ok(msg);
            }
            if self.dead.contains_key(&from) {
                return Err(CommError::RankFailed { rank: from });
            }
            let remaining = match deadline.map(|d| d.checked_duration_since(Instant::now())) {
                Some(Some(d)) => d,
                Some(None) => return Err(self.recv_failure(from, tag, started)),
                None => self.timeout,
            };
            let wait_started = if span_polls { self.obs_start() } else { None };
            let polled = self.transport.recv_raw(remaining);
            self.obs_span(Phase::Wait, wait_started);
            match polled {
                Ok(msg) => self.stash(msg),
                Err(RecvRawError::Timeout) => return Err(self.recv_failure(from, tag, started)),
                Err(RecvRawError::Closed) => return Err(CommError::Disconnected { from, tag }),
            }
        }
    }

    /// Drain already-arrived frames without blocking (files death
    /// notifications and queues data frames).
    fn poll(&mut self) {
        while let Ok(msg) = self.transport.recv_raw(Duration::ZERO) {
            self.stash(msg);
        }
    }

    /// Frames discarded on arrival so far: a failed checksum, or a sender
    /// outside the machine.
    pub fn checksum_rejects(&self) -> u64 {
        self.checksum_rejects
    }

    /// All fail-stop crashes in the installed fault plan, as sorted
    /// `(rank, step)` pairs. The plan is shared by every rank, so this is
    /// a deterministic, agreement-free way for an executor to decide
    /// whether a failure-handling phase is needed at all.
    pub fn planned_crashes(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> =
            self.faults.crashes.iter().map(|(&r, &k)| (r, k)).collect();
        v.sort_unstable();
        v
    }

    /// Broadcast a death notification: this rank is failing (fail-stop) at
    /// schedule step `step` and will never send again. Control frames
    /// bypass fault injection (the failure model assumes the membership
    /// protocol itself is reliable) but are traced as ordinary sends, so
    /// replay prices the notification traffic.
    pub fn announce_death(&mut self, step: usize) {
        self.dead.insert(self.rank, step);
        let peers: Vec<usize> = (0..self.size).filter(|&to| to != self.rank).collect();
        self.post_control(&peers, tag::DEATH, WireFrame::death_payload(step));
    }

    /// Agree on the set of failed ranks: every survivor merges `announced`
    /// — failures it can assert deterministically (in this simulation, the
    /// shared fault plan's crashes up to the current phase) — into its
    /// observed death notifications, sends the set to every other
    /// presumed-alive rank, and receives theirs back. The union every
    /// survivor computes is the true failure set. Returns the updated map
    /// (`rank → step`).
    ///
    /// Passing the deterministic `announced` set (rather than each rank's
    /// racy "notifications processed so far" view) keeps the membership
    /// traffic — message count *and* payload sizes — identical across
    /// reruns, preserving bit-exact replay determinism for faulty runs.
    ///
    /// Control traffic runs outside fault injection but is traced, so the
    /// virtual clock charges the membership round.
    ///
    /// A peer's ledger that is not whole `(rank, step)` entries, names a
    /// rank outside the machine, or names this rank is
    /// [`CommError::Malformed`]: no survivor sends the last one, since a
    /// rank posts its ledger only to ranks it believes alive, and before it
    /// receives anything.
    pub fn liveness_exchange(
        &mut self,
        announced: &[(usize, usize)],
    ) -> Result<BTreeMap<usize, usize>, CommError> {
        let tag = tag::liveness(self.liveness_gen);
        self.liveness_gen += 1;
        self.poll();
        for &(r, k) in announced {
            self.check_rank(r)?;
            if r != self.rank {
                self.dead.entry(r).or_insert(k);
            }
        }
        let sent_to: Vec<usize> = (0..self.size)
            .filter(|&r| r != self.rank && !self.dead.contains_key(&r))
            .collect();
        // One shared buffer for every survivor (`dead` cannot change during
        // the send loop — nothing is received until the loop below). A
        // send that finds the peer gone means it exited: its death frame
        // is already queued and the receive below will find it.
        let mut ledger = Vec::with_capacity(self.dead.len() * 16);
        for (&r, &k) in &self.dead {
            ledger.extend_from_slice(&(r as u64).to_le_bytes());
            ledger.extend_from_slice(&(k as u64).to_le_bytes());
        }
        self.post_control(&sent_to, tag, ledger);
        for &from in &sent_to {
            if self.dead.contains_key(&from) {
                continue; // learned of its death earlier in this loop
            }
            match self.recv(from, tag) {
                Ok(bytes) => {
                    let (words, tail) = bytes.as_chunks::<8>();
                    let entries = words.chunks_exact(2).map(|entry| {
                        let [r, k] = [entry[0], entry[1]].map(u64::from_le_bytes);
                        (r as usize, k as usize)
                    });
                    let whole = tail.is_empty() && words.len() % 2 == 0;
                    let foreign = |(r, _): (usize, usize)| r >= self.size || r == self.rank;
                    if !whole || entries.clone().any(foreign) {
                        return Err(CommError::Malformed { from, tag });
                    }
                    for (r, k) in entries {
                        self.dead.entry(r).or_insert(k);
                    }
                }
                Err(CommError::RankFailed { .. }) => {} // recorded by recv
                Err(e) => return Err(e),
            }
        }
        Ok(self.dead.clone())
    }

    /// Record local computation so replay can charge it.
    pub fn compute(&mut self, kind: ComputeKind, units: u64) {
        self.events.push(Event::Compute { kind, units });
    }

    /// Record a named phase boundary. The mark also advances the cursor
    /// that attributes this rank's subsequent wall-clock spans to a step
    /// and a frame, exactly as the replay attributes virtual spans from the
    /// recorded mark.
    pub fn mark(&mut self, mark: Mark) {
        self.cursor.advance(mark);
        self.events.push(Event::Mark { label: mark });
    }

    /// Synchronize all ranks — the one barrier in the workspace, a message
    /// round over the transport's two verbs: every rank but 0 posts an
    /// empty frame tagged [`tag::barrier`]`(generation)` to rank 0 and
    /// awaits rank 0's release, posted once all have arrived (so a
    /// restricted topology needs a link from every rank to rank 0). The
    /// round is outside the delivery envelope and untraced — no sequence
    /// number, no injected fault, no event but `Barrier { generation }`,
    /// which replay prices as clock alignment — so a run records the same
    /// trace whatever carries its frames; data frames arriving meanwhile
    /// are queued for later receives.
    ///
    /// Must not be called after any rank has exited (the failure protocol
    /// therefore never barriers post-crash). A round that cannot complete
    /// fails as a receive does, within one receive deadline:
    /// [`CommError::RankFailed`] for a peer whose death notice arrived,
    /// [`CommError::Timeout`] naming the silent peer and the round's tag.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let generation = self.barrier_gen;
        self.barrier_gen += 1;
        self.events.push(Event::Barrier { generation });
        let started = self.obs_start();
        let result = self.barrier_round(tag::barrier(generation));
        self.obs_span(Phase::Wait, started);
        result
    }

    fn barrier_round(&mut self, tag: u64) -> Result<(), CommError> {
        let started = Instant::now();
        let empty = Payload::from(Vec::new());
        let checksum = empty.checksum();
        if self.rank == 0 {
            for from in 1..self.size {
                self.take(from, tag, started, false)?;
            }
            for to in 1..self.size {
                self.post(to, tag, 0, checksum, empty.clone())?;
            }
        } else {
            self.post(0, tag, 0, checksum, empty)?;
            self.take(0, tag, started, false)?;
        }
        Ok(())
    }

    /// Drain this rank's recorded events, leaving an empty trace behind.
    ///
    /// Executors that assemble a [`Trace`] from per-rank
    /// contexts (e.g. a machine running one context per thread) take each
    /// rank's events after its closure returns.
    pub fn take_events(&mut self) -> RankTrace {
        std::mem::take(&mut self.events)
    }
}

/// Threads started so far by [`Multicomputer::run_on`] and by the harnesses
/// that count theirs with [`note_thread_spawns`].
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// How many threads this process has started to run ranks: one per rank of
/// every [`Multicomputer::run_on`], plus what the harnesses that keep their
/// own threads (rt-pvr's session) noted with [`note_thread_spawns`]. The
/// tally a resident session holds flat from its second frame on.
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// Add `n` spawns to [`threads_spawned`]: a harness that starts threads of
/// its own calls this at each spawn site.
pub fn note_thread_spawns(n: u64) {
    THREADS_SPAWNED.fetch_add(n, Ordering::Relaxed);
}

/// A simulated distributed-memory machine of `size` ranks.
pub struct Multicomputer {
    size: usize,
    timeout: Duration,
    faults: Arc<FaultPlan>,
    observer: Option<Arc<Observer>>,
}

impl Multicomputer {
    /// Create a machine with `size` ranks.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a multicomputer needs at least one rank");
        Self {
            size,
            timeout: Duration::from_secs(10),
            faults: Arc::new(FaultPlan::none()),
            observer: None,
        }
    }

    /// Override the receive timeout (default 10 s) — tests that expect
    /// timeouts use a short one.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Install a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// Attach a wall-clock [`Observer`]: every rank gets a recorder and the
    /// run checks the recorders back in when all threads have joined.
    /// Wall-clock data never enters the event trace, so observed and
    /// unobserved runs produce bit-identical traces.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Machine size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The receive timeout — what a backend derives its link deadlines from.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Run `f` on every rank concurrently over in-process channels; returns
    /// the per-rank results and the merged event trace.
    ///
    /// # Panics
    /// As [`Multicomputer::run_on`].
    pub fn run<T, F>(&self, f: F) -> (Vec<T>, Trace)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        self.run_on(InProc::mesh(self.size), f)
    }

    /// [`Multicomputer::run`] over a caller-built `mesh` (rank `r` talks
    /// through `mesh[r]`): the one place ranks are launched, whatever
    /// carries their messages. A backend is a mesh constructor.
    ///
    /// # Panics
    /// If `mesh` is not one transport per rank. If ranks panic, every thread
    /// is still joined and the panic is re-raised with a report naming
    /// **which** ranks panicked and their messages, as a crashed node
    /// would abort an MPI job with its rank in the error.
    pub fn run_on<X, T, F>(&self, mesh: Vec<X>, f: F) -> (Vec<T>, Trace)
    where
        X: Transport + 'static,
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        let p = self.size;
        assert_eq!(mesh.len(), p, "a mesh needs one transport per rank");
        let f = &f;

        let mut ctxs: Vec<RankCtx> = mesh
            .into_iter()
            .enumerate()
            .map(|(rank, transport)| {
                let mut ctx = RankCtx::over_transport(
                    Box::new(transport),
                    RankOptions {
                        timeout: Some(self.timeout),
                        faults: FaultPlan::default(),
                        recorder: self.observer.as_ref().map(|o| o.recorder(rank)),
                    },
                );
                // Share the one plan across ranks instead of cloning it.
                ctx.faults = Arc::clone(&self.faults);
                ctx
            })
            .collect();

        let mut results = Vec::with_capacity(p);
        let mut trace = Trace::default();
        let mut panics: Vec<(usize, String)> = Vec::new();
        note_thread_spawns(p as u64);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ctxs
                .iter_mut()
                .map(|ctx| {
                    scope.spawn(move || {
                        let result = f(ctx);
                        (result, std::mem::take(&mut ctx.events))
                    })
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((result, events)) => {
                        results.push(result);
                        trace.ranks.push(events);
                    }
                    Err(payload) => panics.push((rank, panic_message(&*payload))),
                }
            }
        });
        // Check recorders back in even if some rank panicked — whatever was
        // observed up to the failure is still valid data.
        if let Some(observer) = &self.observer {
            for ctx in &mut ctxs {
                if let Some(rec) = ctx.obs.take() {
                    observer.checkin(rec);
                }
            }
        }
        raise_rank_panics(&panics);
        (results, trace)
    }
}

/// The message a panic carried: its `&str` or `String` payload, or a stand-in
/// for any other payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Re-raise the ranks' panics, `(rank, message)` in rank order, as one panic
/// naming every rank and its message, as a crashed node aborts an MPI job
/// with its rank in the error. Returns if no rank panicked.
// A rank's panic is its caller's bug, reported under its rank.
#[allow(clippy::panic)]
pub fn raise_rank_panics(panics: &[(usize, String)]) {
    if panics.is_empty() {
        return;
    }
    let report = panics
        .iter()
        .map(|(r, m)| format!("rank {r}: {m}"))
        .collect::<Vec<_>>()
        .join("; ");
    panic!("{} rank(s) panicked — {report}", panics.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass_delivers_in_order() {
        let mc = Multicomputer::new(4);
        let (results, trace) = mc.run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 1, vec![ctx.rank() as u8]).unwrap();
            let got = ctx.recv(prev, 1).unwrap();
            got[0]
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
        assert_eq!(trace.message_count(), 4);
        assert_eq!(trace.bytes_sent(), 4);
    }

    #[test]
    fn fifo_order_is_preserved_per_channel() {
        let mc = Multicomputer::new(2);
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..10u8 {
                    ctx.send(1, i as u64, vec![i]).unwrap();
                }
                Vec::new()
            } else {
                (0..10u8)
                    .map(|i| ctx.recv(0, i as u64).unwrap()[0])
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn foreign_tags_are_left_for_later_receives() {
        // Tag-selective matching: a receive must skip past messages that
        // another receive will claim, in any interleaving.
        let mc = Multicomputer::new(2);
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 10, vec![1]).unwrap();
                ctx.send(1, 20, vec![2]).unwrap();
                Vec::new()
            } else {
                let later = ctx.recv(0, 20).unwrap();
                let earlier = ctx.recv(0, 10).unwrap();
                vec![later[0], earlier[0]]
            }
        });
        assert_eq!(results[1], vec![2, 1]);
    }

    #[test]
    fn a_deadline_past_the_clock_is_no_deadline() {
        let mc = Multicomputer::new(2).with_timeout(Duration::MAX);
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, vec![7]).unwrap();
                ctx.recv(1, 4).unwrap()[0]
            } else {
                let got = ctx.recv(0, 3).unwrap()[0];
                ctx.send(0, 4, vec![got + 1]).unwrap();
                got
            }
        });
        assert_eq!(results, vec![8, 7]);
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let mc = Multicomputer::new(2).with_timeout(Duration::from_millis(200));
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 42, vec![1]).unwrap();
                Ok(Vec::new())
            } else {
                ctx.recv(0, 43).map(|bytes| bytes.to_vec())
            }
        });
        assert_eq!(
            results[1],
            Err(CommError::TagMismatch {
                from: 0,
                expected: 43,
                got: 42
            })
        );
    }

    #[test]
    fn dropped_message_is_retransmitted() {
        // A single planned drop is recovered by the reliable-delivery
        // envelope: the receive succeeds and the trace shows the recovery.
        let mc = Multicomputer::new(2).with_faults(FaultPlan::none().drop_message(0, 1, 0));
        let (results, trace) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![9]).unwrap();
                Ok(vec![])
            } else {
                ctx.recv(0, 5).map(|bytes| bytes.to_vec())
            }
        });
        assert_eq!(results[1], Ok(vec![9]));
        assert_eq!(trace.retransmit_count(), 1);
        assert!(trace.ranks[0]
            .iter()
            .any(|e| matches!(e, Event::AckWait { attempt: 0, .. })));
    }

    #[test]
    fn corrupted_payload_is_rejected_and_recovered() {
        // Seed 16 at rate 0.5 damages the first attempt of message 0 on
        // channel 0 → 1 and spares its retry.
        let mc =
            Multicomputer::new(2).with_faults(FaultPlan::none().with_seed(16).corrupt_rate(0.5));
        let (results, trace) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![1, 2, 3]).unwrap();
                Ok::<_, CommError>((vec![], 0))
            } else {
                let got = ctx.recv(0, 5)?.to_vec();
                Ok((got, ctx.checksum_rejects()))
            }
        });
        let (payload, rejects) = results[1].clone().unwrap();
        assert_eq!(payload, vec![1, 2, 3]);
        assert_eq!(rejects, 1, "the damaged frame must be caught");
        assert_eq!(trace.retransmit_count(), 1);
    }

    /// A payload's checksum is hashed once and shared by its clones, and a
    /// corrupted attempt built from a hashed payload is a fresh buffer that
    /// keeps none of it: the receiver hashes the damaged bytes, rejects
    /// them, and takes the intact retransmission. Fails when the damaged
    /// copy inherits the original's kept value (the receiver then accepts
    /// the damage).
    #[test]
    fn a_payload_is_hashed_once_and_its_damaged_copy_afresh() {
        let bytes: Vec<u8> = (0..1000).map(|i| (i * 7) as u8).collect();
        let payload = Payload::from(bytes.clone());
        assert_eq!(payload.0.checksum.get(), None, "not hashed yet");
        let sum = payload.checksum();
        let clone = payload.clone();
        assert!(Arc::ptr_eq(&payload.0, &clone.0));
        assert_eq!(clone.0.checksum.get(), Some(&sum), "shared by the clone");

        // Seed 16 at rate 0.5 damages the first attempt of message 0 on
        // channel 0 → 1 and spares its retry.
        let plan = FaultPlan::none().with_seed(16).corrupt_rate(0.5);
        assert!(plan.chance(CORRUPT_SALT, 0, 1, 0, 0) < 0.5);
        assert!(plan.chance(CORRUPT_SALT, 0, 1, 0, 1) >= 0.5);
        let mc = Multicomputer::new(2).with_faults(plan);
        let (results, trace) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, clone.clone())?;
                Ok((Vec::new(), 0))
            } else {
                let got = ctx.recv(0, 5)?.to_vec();
                Ok::<_, CommError>((got, ctx.checksum_rejects()))
            }
        });
        let (got, rejects) = results[1].clone().unwrap();
        assert_eq!(rejects, 1, "the damaged copy is hashed afresh");
        assert_eq!(got, bytes, "the retransmission delivers the intact bytes");
        assert_eq!(trace.retransmit_count(), 1);
        assert_eq!(payload.checksum(), sum);
    }

    #[test]
    fn severed_channel_exhausts_retries() {
        let mc = Multicomputer::new(2)
            .with_timeout(Duration::from_millis(200))
            .with_faults(FaultPlan::none().sever_channel(0, 1));
        let (results, trace) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![9]).map(|_| vec![])
            } else {
                ctx.recv(0, 5).map(|bytes| bytes.to_vec())
            }
        });
        assert_eq!(
            results[0],
            Err(CommError::DeliveryFailed {
                to: 1,
                tag: 5,
                attempts: MAX_ATTEMPTS
            })
        );
        assert!(
            matches!(
                results[1],
                Err(CommError::Timeout {
                    from: 0,
                    tag: 5,
                    ..
                })
            ),
            "{:?}",
            results[1]
        );
        assert_eq!(trace.retransmit_count(), (MAX_ATTEMPTS - 1) as u64);
    }

    #[test]
    fn probabilistic_drops_recover_bit_exact() {
        // At a 20% seeded drop rate every message still arrives intact
        // (retransmission), and the trace is identical across runs.
        let run = || {
            let mc =
                Multicomputer::new(4).with_faults(FaultPlan::none().with_seed(42).drop_rate(0.2));
            mc.run(|ctx| {
                let me = ctx.rank();
                let p = ctx.size();
                for dst in 0..p {
                    if dst != me {
                        ctx.send(dst, 7, vec![me as u8; 16]).unwrap();
                    }
                }
                let mut got = Vec::new();
                for src in 0..p {
                    if src != me {
                        got.push(ctx.recv(src, 7).unwrap());
                    }
                }
                got
            })
        };
        let (r1, t1) = run();
        let (r2, t2) = run();
        for (me, got) in r1.iter().enumerate() {
            let mut i = 0;
            for src in 0..4usize {
                if src != me {
                    assert_eq!(got[i], vec![src as u8; 16]);
                    i += 1;
                }
            }
        }
        assert_eq!(r1, r2);
        assert_eq!(t1, t2, "faulty traces must be deterministic");
        assert!(t1.retransmit_count() > 0, "the seed should drop something");
    }

    #[test]
    fn corrupted_tag_is_detected() {
        let mc = Multicomputer::new(2)
            .with_timeout(Duration::from_millis(200))
            .with_faults(FaultPlan::none().corrupt_tag(0, 1, 0, 999));
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![9]).unwrap();
                Ok(vec![])
            } else {
                ctx.recv(0, 5).map(|bytes| bytes.to_vec())
            }
        });
        assert_eq!(
            results[1],
            Err(CommError::TagMismatch {
                from: 0,
                expected: 5,
                got: 999
            })
        );
    }

    #[test]
    fn timeout_reports_elapsed_and_deadline() {
        let deadline = Duration::from_millis(50);
        let mc = Multicomputer::new(2).with_timeout(deadline);
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                Ok(vec![])
            } else {
                ctx.recv(0, 5).map(|bytes| bytes.to_vec())
            }
        });
        match &results[1] {
            Err(CommError::Timeout {
                from: 0,
                tag: 5,
                elapsed,
                deadline: d,
            }) => {
                assert_eq!(*d, deadline);
                assert!(*elapsed >= deadline, "waited {elapsed:?}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn timeout_message_names_peer_and_tag() {
        // The formatted diagnostic must identify *which* peer and tag the
        // rank was waiting on — that is what an operator greps for first.
        let mc = Multicomputer::new(2).with_timeout(Duration::from_millis(30));
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.recv(1, 0x2a).map(|bytes| bytes.to_vec())
            } else {
                Ok(vec![])
            }
        });
        let err = results[0].clone().expect_err("rank 0 must time out");
        let msg = err.to_string();
        assert!(msg.contains("rank 1"), "peer missing from: {msg}");
        assert!(msg.contains("0x2a"), "tag missing from: {msg}");
    }

    #[test]
    fn death_notification_fails_fast() {
        // Rank 0 announces death; rank 1's receive returns RankFailed as
        // soon as the notification surfaces instead of waiting out the
        // full deadline.
        let mc = Multicomputer::new(2).with_timeout(Duration::from_secs(30));
        let started = Instant::now();
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.announce_death(3);
                Ok(vec![])
            } else {
                ctx.recv(0, 5).map(|bytes| bytes.to_vec())
            }
        });
        assert_eq!(results[1], Err(CommError::RankFailed { rank: 0 }));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "must not wait out the 30 s deadline"
        );
    }

    #[test]
    fn liveness_exchange_reaches_consensus() {
        let mc = Multicomputer::new(4).with_faults(FaultPlan::none().crash_rank_at_step(2, 0));
        let (results, _) = mc.run(|ctx| {
            if ctx.planned_crashes().contains(&(ctx.rank(), 0)) {
                ctx.announce_death(0);
                return BTreeMap::new();
            }
            // No deterministic announcements: consensus must still emerge
            // from the death notifications alone.
            ctx.liveness_exchange(&[]).unwrap()
        });
        for (r, dead) in results.iter().enumerate() {
            if r == 2 {
                continue;
            }
            assert_eq!(dead, &BTreeMap::from([(2usize, 0usize)]), "rank {r}");
        }
    }

    /// Rank 0 of an in-process pair as a bare context, and rank 1's raw
    /// endpoint to feed it hand-written frames.
    fn ctx_and_raw_peer(faults: FaultPlan) -> (RankCtx, InProc) {
        let (ctx, mut peers) = ctx_and_raw_peers(2, faults);
        (ctx, peers.remove(0))
    }

    /// Rank 0 of an in-process machine of `p` as a bare context, and the
    /// raw endpoints of ranks `1..p`, in rank order.
    fn ctx_and_raw_peers(p: usize, faults: FaultPlan) -> (RankCtx, Vec<InProc>) {
        let mut mesh = InProc::mesh(p);
        let peers = mesh.split_off(1);
        let opts = RankOptions {
            timeout: Some(Duration::from_millis(30)),
            faults,
            recorder: None,
        };
        let ctx = RankCtx::over_transport(Box::new(mesh.pop().unwrap()), opts);
        (ctx, peers)
    }

    #[test]
    fn unknown_death_step_resolves_from_the_fault_plan() {
        // A transport that gave up on a peer files the notice with step
        // `usize::MAX`; the plan every rank shares knows the real one.
        let notice = || WireFrame::control(1, tag::DEATH, WireFrame::death_payload(usize::MAX));
        let (mut ctx, _peer) = ctx_and_raw_peer(FaultPlan::none().crash_rank_at_step(1, 2));
        ctx.stash(notice());
        assert_eq!(ctx.dead.get(&1), Some(&2));
        let (mut ctx, _peer) = ctx_and_raw_peer(FaultPlan::none());
        ctx.stash(notice());
        assert_eq!(ctx.dead.get(&1), Some(&usize::MAX));
        assert_eq!(ctx.recv(1, 5), Err(CommError::RankFailed { rank: 1 }));
    }

    #[test]
    fn frames_from_outside_the_machine_are_dropped_and_counted() {
        // `from` comes off the wire: neither a data frame nor a death
        // notice naming rank 7 of 2 may index anything.
        let (mut ctx, mut peer) = ctx_and_raw_peer(FaultPlan::none());
        peer.send_raw(0, WireFrame::control(7, 5, vec![1])).unwrap();
        let forged_death = WireFrame::control(7, tag::DEATH, WireFrame::death_payload(0));
        peer.send_raw(0, forged_death).unwrap();
        let err = ctx.recv(1, 5).unwrap_err();
        assert!(matches!(err, CommError::Timeout { from: 1, .. }), "{err}");
        assert_eq!(ctx.checksum_rejects(), 2);
        assert!(ctx.dead.is_empty());
    }

    #[test]
    fn malformed_liveness_ledger_is_a_typed_error() {
        let tag = tag::liveness(0);
        let ledgers = [
            vec![0u8; 15],                                     // not whole (rank, step) entries
            vec![0u8; 24],                                     // an entry and a half
            [9u64.to_le_bytes(), 0u64.to_le_bytes()].concat(), // rank 9 of 2
        ];
        for ledger in ledgers {
            let (mut ctx, mut peer) = ctx_and_raw_peer(FaultPlan::none());
            let mut frame = WireFrame::control(1, tag, ledger);
            frame.checksum = fnv1a(&frame.payload);
            peer.send_raw(0, frame).unwrap();
            let malformed = CommError::Malformed { from: 1, tag };
            assert_eq!(ctx.liveness_exchange(&[]), Err(malformed));
        }

        // Rank 1 of 4 hands rank 0 `ledger`; ranks 2 and 3 have sent empty
        // ones, so no answer waits out the deadline. Whatever the bytes,
        // the round ends in a typed error or a map of other in-range ranks.
        let exchange = |ledger: Vec<u8>| {
            let (mut ctx, mut peers) = ctx_and_raw_peers(4, FaultPlan::none());
            for (from, ledger) in [(3, Vec::new()), (2, Vec::new()), (1, ledger)] {
                let mut frame = WireFrame::control(from, tag, ledger);
                frame.checksum = fnv1a(&frame.payload);
                peers[from - 1].send_raw(0, frame).unwrap();
            }
            let got = ctx.liveness_exchange(&[]);
            if let Ok(dead) = &got {
                assert!(dead.keys().all(|&r| r != 0 && r < 4), "{dead:?}");
            }
            got
        };
        let entry = |r: u64, k: u64| [r.to_le_bytes(), k.to_le_bytes()].concat();
        let valid = [entry(2, 0), entry(3, 1)].concat();
        assert_eq!(
            exchange(valid.clone()),
            Ok(BTreeMap::from([(2, 0), (3, 1)]))
        );
        for len in 0..valid.len() {
            let got = exchange(valid[..len].to_vec());
            if len % 16 != 0 {
                assert_eq!(got, Err(CommError::Malformed { from: 1, tag }), "{len}");
            }
        }
        let malformed = Err(CommError::Malformed { from: 1, tag });
        assert_eq!(exchange(entry(0, 0)), malformed, "names the receiver");
        for word in [0, 16] {
            for bit in 0..64 {
                let mut flipped = valid.clone();
                flipped[word + bit / 8] ^= 1 << (bit % 8);
                let _ = exchange(flipped);
            }
        }
    }

    #[test]
    fn out_of_rank_send_and_recv_fail() {
        let mc = Multicomputer::new(2);
        let (results, _) = mc.run(|ctx| {
            let a = ctx.send(7, 0, vec![]).unwrap_err();
            let b = ctx.recv(9, 0).unwrap_err();
            (a, b)
        });
        assert_eq!(results[0].0, CommError::InvalidRank { rank: 7, size: 2 });
        assert_eq!(results[0].1, CommError::InvalidRank { rank: 9, size: 2 });
    }

    #[test]
    fn barrier_events_share_generations() {
        let mc = Multicomputer::new(3);
        let (_, trace) = mc.run(|ctx| {
            ctx.barrier().unwrap();
            ctx.compute(ComputeKind::Over, 10);
            ctx.barrier().unwrap();
        });
        for events in &trace.ranks {
            let gens: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Barrier { generation } => Some(*generation),
                    _ => None,
                })
                .collect();
            assert_eq!(gens, vec![0, 1]);
        }
    }

    #[test]
    fn self_send_is_delivered() {
        let mc = Multicomputer::new(2);
        let (results, _) = mc.run(|ctx| {
            let me = ctx.rank();
            ctx.send(me, 3, vec![me as u8]).unwrap();
            ctx.recv(me, 3).unwrap()
        });
        assert_eq!(results, vec![vec![0], vec![1]]);
    }

    #[test]
    fn marks_are_recorded() {
        let mc = Multicomputer::new(1);
        let (_, trace) = mc.run(|ctx| {
            ctx.mark(Mark::ComposeStart);
            ctx.compute(ComputeKind::Over, 1);
            ctx.mark(Mark::ComposeEnd);
        });
        let marks: Vec<Mark> = trace.ranks[0]
            .iter()
            .filter_map(|e| match e {
                Event::Mark { label } => Some(*label),
                _ => None,
            })
            .collect();
        assert_eq!(marks, vec![Mark::ComposeStart, Mark::ComposeEnd]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Multicomputer::new(0);
    }

    #[test]
    #[should_panic(expected = "rank 1: boom")]
    fn panics_are_attributed_to_their_rank() {
        let mc = Multicomputer::new(3);
        let _ = mc.run(|ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn one_report_names_each_panicked_rank_and_its_message() {
        let payloads: [Box<dyn std::any::Any + Send>; 3] = [
            Box::new("boom"),
            Box::new(String::from("bang")),
            Box::new(7u32),
        ];
        let panics: Vec<(usize, String)> = payloads
            .iter()
            .enumerate()
            .map(|(rank, payload)| (rank, panic_message(&**payload)))
            .collect();
        raise_rank_panics(&[]);
        let report = std::panic::catch_unwind(|| raise_rank_panics(&panics)).unwrap_err();
        assert_eq!(
            panic_message(&*report),
            "3 rank(s) panicked — rank 0: boom; rank 1: bang; rank 2: non-string panic payload"
        );
    }

    /// Word-wise FNV-1a in eight lanes, written out plainly: lane `i` over
    /// words `i, i + 8, …` of the whole 64-byte blocks, the lanes and then
    /// the length folded into one state, then the leftover words and bytes.
    fn lane_fnv1a_reference(bytes: &[u8]) -> u64 {
        let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        let word = |k: usize| u64::from_le_bytes(bytes[8 * k..8 * k + 8].try_into().unwrap());
        let (blocks, words) = (bytes.len() / 64, bytes.len() / 8);
        let mut h = 0xcbf2_9ce4_8422_2325;
        for lane in 0..8 {
            let mut state = 0xcbf2_9ce4_8422_2325;
            for block in 0..blocks {
                state = mix(state, word(8 * block + lane));
            }
            h = mix(h, state);
        }
        h = mix(h, bytes.len() as u64);
        for k in 8 * blocks..words {
            h = mix(h, word(k));
        }
        for &b in &bytes[8 * words..] {
            h = mix(h, u64::from(b));
        }
        h
    }

    /// `len` bytes of splitmix64 output from `seed`.
    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..len).map(|_| next() as u8).collect()
    }

    /// The envelope checksum's contract: (a) it equals the plain reference
    /// above at every length 0..=300 and at 1 MiB + 13, so every block,
    /// leftover-word and leftover-byte split is covered, and so does a
    /// payload's kept value, on its first read and its second; (b) at every
    /// length 1..=200 each single-bit flip of each byte, and the fault
    /// plan's `^ 0xA5`, changes it; (c) appending a zero byte changes it at
    /// every length 0..=200. The only test that fails when the lane loop leaves
    /// lane 7 unhashed (`zip(&block.as_chunks::<8>().0[..7])`): the fault
    /// plan damages a payload's first byte, which lies in lane 0.
    #[test]
    fn envelope_checksum_contract() {
        for len in (0..=300).chain([(1 << 20) + 13]) {
            let bytes = seeded_bytes(len, len as u64);
            let want = lane_fnv1a_reference(&bytes);
            assert_eq!(fnv1a(&bytes), want, "length {len}");
            let payload = Payload::from(bytes);
            assert_eq!(payload.checksum(), want, "length {len}: first read");
            assert_eq!(payload.checksum(), want, "length {len}: kept value");
        }
        for len in 1..=200 {
            let bytes = seeded_bytes(len, 7);
            let good = fnv1a(&bytes);
            for pos in 0..len {
                for damage in (0..8).map(|bit| 1u8 << bit).chain([0xA5]) {
                    let mut bad = bytes.clone();
                    bad[pos] ^= damage;
                    assert_ne!(
                        fnv1a(&bad),
                        good,
                        "length {len}, byte {pos} ^ {damage:#04x}"
                    );
                }
            }
        }
        for len in 0..=200 {
            let mut bytes = seeded_bytes(len, 13);
            let good = fnv1a(&bytes);
            bytes.push(0);
            assert_ne!(fnv1a(&bytes), good, "length {len} + one zero byte");
        }
    }
}
