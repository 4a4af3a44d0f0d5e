//! The per-peer link fabric: acknowledged sent-frame logs, bounded
//! reconnection, heartbeats, and death declaration.
//!
//! A `Fabric` owns one `Link` per peer (both crate-internal — the public
//! surface is [`TcpOptions`], [`LinkStats`] and the `tcp` module's
//! transport). Each link tracks everything needed to survive a socket
//! failure without the layers above noticing:
//!
//! * a **sent-frame log** — the link's one queue: the frames pushed toward
//!   the peer that it has not yet confirmed (the *unacknowledged suffix* of
//!   the link's history, so its size follows the in-flight window and not
//!   the length of the run) and a `written` cursor, how far the current
//!   stream has carried them. An entry is the frame's 36-byte header plus a
//!   reference to its shared [`Payload`]; logging a frame copies no payload
//!   byte. A frame is "sent" the moment it is logged, and only the peer's
//!   confirmation removes it: a log over [`SENT_LOG_BUDGET`] makes its
//!   sender wait — for an acknowledgement or a resume to make room, or for
//!   the peer's declared death — and never drops what a resume will need.
//! * a **receive counter** — how many complete frames this side has pulled
//!   off the wire and delivered upward. Link-level control frames are
//!   excluded on both sides, so the counter and the log index the same
//!   sequence.
//! * an **epoch** — bumped on every (re)installed stream so stale reader
//!   threads and watchdogs from a previous socket cannot clobber a repaired
//!   link.
//!
//! **One writer.** `pump` writes the frames past the cursor and is the only
//! place a data frame meets a socket: `send_frame` is wait for room → trim →
//! push → pump, and installing a stream is cursor := the peer's count →
//! publish the stream → start its reader → pump. A replay is that same
//! pump, started after the reader, so draining never waits on a write.
//!
//! **Acknowledgements.** The receive counter travels back to the sender as
//! the 8-byte payload of every link-level control frame: an [`tag::ACK`]
//! whenever [`ACK_BYTES`] have been delivered since the last one, and every
//! [`tag::PING`]/[`tag::PONG`], so an idle link's tail is confirmed at
//! heartbeat cadence. The reader thread that receives a count only records
//! it (a maximum, in `conn`) and wakes a sender waiting for room; the next
//! `send_frame`, which holds the log lock anyway, drops the confirmed
//! prefix. A count beyond what was ever written is a protocol violation
//! that takes the stream down.
//!
//! **The lock rule.** `log` guards the queue *and* the right to write to
//! the stream: `pump` holds it across a blocking socket write, and the peer
//! can only take those bytes if its reader thread keeps draining. So a
//! reader thread with a live stream *never waits* — not on `log`, and not on
//! socket buffer space: its `PONG`s and `ACK`s go through `try_control`,
//! which gives up when the log is busy or the send buffer is full. A busy
//! log is itself traffic the peer will hear, and the pump that holds it
//! writes the owed `ACK` itself after its frame; anything still owed is
//! retried on the next delivered frame or heartbeat. The stream handle
//! lives in `conn`, a leaf lock beside `log` that is never held across a
//! blocking call, so **the one way down** — `down`, for a failed write, a
//! reader's exit, heartbeat silence, a resume quiescing the old stream, a
//! declared death and teardown alike — always gets through to shut the
//! stream, and so fails whatever write some pump is stuck in.
//!
//! When a stream fails, the side that originally dialed (the higher rank)
//! re-dials with a resume handshake: both sides exchange receive counters
//! (each the freshest acknowledgement there is) and pump their logs from
//! the peer's counter, so delivery is exactly-once and in order across the
//! reconnect — invisible to the `rt-comm` envelope. The accepting side (the
//! lower rank) arms a restore watchdog instead; if no reconnect lands within
//! [`TcpOptions::restore_deadline`], or the dialer exhausts
//! [`TcpOptions::reconnect_attempts`], the peer is **declared dead**: a
//! synthesized death-notification frame (the same [`tag::DEATH`] protocol a
//! crashing rank announces voluntarily, its step "unknown" — `usize::MAX`)
//! enters the receive queue, and the resilient executor's repair planner
//! takes over.
//!
//! Liveness is active: a heartbeat thread sends a `PING` control frame on
//! every link every interval (so even a one-way bulk sender keeps hearing
//! its receiver) and takes down any stream silent for `HEARTBEAT_MISSES`,
//! converting silent peer death into a detectable EOF. The link-level
//! control frames live in the transport-control namespace and never reach
//! the envelope, the log, or the counters — traces stay bit-identical to
//! the in-process backend.

use crate::error::NetError;
use crate::frame::{encode_header, header, read_frame_noting, write_encoded, HEADER_BYTES};
use rt_comm::{tag, Payload, SendRawError, WireFrame};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set on the 8-byte hello of a *reconnect* dial (vs. the plain-rank hello
/// of mesh establishment), so the accept loop knows a resume handshake
/// follows.
const RECONNECT_FLAG: u64 = 1 << 63;
/// Hello written by [`Fabric::shutdown`]'s self-connection to wake the
/// accept loop so it can observe the shutdown flag and exit.
const SHUTDOWN_HELLO: u64 = u64::MAX;
/// Read deadline for the few fixed-size handshake messages, so a stalled
/// peer cannot wedge the accept loop or a repair thread.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// A link silent for `heartbeat_interval * HEARTBEAT_MISSES` is forced
/// down (its stream is shut), entering the reconnect path.
const HEARTBEAT_MISSES: u32 = 5;

/// Byte budget of the per-peer sent-frame log. An acknowledging peer keeps
/// the log far below it; past it, `send_frame` waits for room. A frame is
/// admitted whenever the log is within the budget, so the log peaks at the
/// budget plus one frame and a frame of any size enters an empty log.
pub const SENT_LOG_BUDGET: usize = 64 << 20;

/// A link's receiver confirms its delivery count once this many bytes have
/// been delivered since it last did, so a sender's log holds at most this
/// much beyond what is in flight. A constant, not an option: one control
/// frame per 256 KiB costs nothing measurable and no workload wants another
/// value.
pub const ACK_BYTES: usize = 256 << 10;

/// A link-level control frame: a header plus the sender's delivery count.
const CONTROL_BYTES: usize = HEADER_BYTES + 8;

/// Send timeout of `try_control`'s write — the shortest the socket API can
/// express, standing in for "do not wait".
const NO_WAIT: Duration = Duration::from_micros(1);

/// Knobs for the TCP fabric's failure handling.
///
/// The defaults suit long-lived meshes; [`TcpOptions::scaled_to`] derives
/// link deadlines from a composition timeout
/// (`ComposeConfig::with_timeout`) so that a dead peer is *declared* dead —
/// and the repair planner engaged — before the envelope's receive deadline
/// turns the failure into a bare timeout.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// How many times the dialing side retries a lost connection before
    /// declaring the peer dead.
    pub reconnect_attempts: u32,
    /// Base delay between reconnect attempts (grows linearly per attempt).
    pub reconnect_backoff: Duration,
    /// How long the accepting side waits for a lost peer to re-dial
    /// before declaring it dead.
    pub restore_deadline: Duration,
    /// Interval between liveness pings (a link silent for
    /// `HEARTBEAT_MISSES` of them is forced down); `None` disables
    /// heartbeats.
    pub heartbeat_interval: Option<Duration>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            reconnect_attempts: 10,
            reconnect_backoff: Duration::from_millis(50),
            restore_deadline: Duration::from_secs(3),
            heartbeat_interval: Some(Duration::from_secs(1)),
        }
    }
}

impl TcpOptions {
    /// Derive link deadlines from an envelope receive timeout so failures
    /// resolve (restored or declared dead) inside it: the restore window
    /// is half the timeout, reconnect attempts fit inside the restore
    /// window, and heartbeats run an order of magnitude faster.
    pub fn scaled_to(timeout: Duration) -> Self {
        let restore = (timeout / 2).max(Duration::from_millis(20));
        let attempts = 10u32;
        // Backoff grows linearly per attempt, so the whole dial budget is
        // the triangular sum — size it to land at the restore deadline.
        let backoff = (restore / (attempts * (attempts + 1) / 2)).max(Duration::from_millis(1));
        let heartbeat = (timeout / 10).clamp(Duration::from_millis(10), Duration::from_secs(1));
        TcpOptions {
            reconnect_attempts: attempts,
            reconnect_backoff: backoff,
            restore_deadline: restore,
            heartbeat_interval: Some(heartbeat),
        }
    }
}

/// Lock a mutex, recovering the guard if a panicking thread poisoned it —
/// the fabric's invariants hold at every await point, so the data is
/// usable either way.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A socket-level fault to inject on one outgoing frame (see the
/// `chaos` module for the seeded plan that schedules these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Shut the stream down without writing the frame (it stays in the
    /// sent log, so the reconnect replays it).
    Reset,
    /// Write only the first `n` bytes of the encoded frame, then shut the
    /// stream down — the peer sees a frame cut mid-flight.
    Partial(usize),
    /// Write the full header but only half the payload, then shut the
    /// stream down — the peer's decoder reports a truncated payload.
    Truncate,
    /// Sleep before sending (jitter within deadlines).
    Delay(Duration),
    /// Sleep before sending (long enough to trip deadlines upstream).
    Stall(Duration),
}

/// One logged frame: its header and a reference to the payload it shares
/// with the sender — what [`write_encoded`] needs to put it on the wire.
#[cfg_attr(test, derive(Clone))]
struct Entry {
    header: [u8; HEADER_BYTES],
    payload: Payload,
}

impl Entry {
    fn wire_len(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }
}

/// The frames pushed toward one peer that it has not confirmed yet, in the
/// all-time frame sequence: `base <= written <= next()`.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
struct SentLog {
    /// Index of `entries.front()`.
    base: u64,
    /// Index of the first frame the current stream has not carried whole;
    /// `pump` advances it, a resume sets it to the peer's count.
    written: u64,
    bytes: usize,
    entries: VecDeque<Entry>,
}

impl SentLog {
    /// Index the next pushed frame will get.
    fn next(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Append a frame. Nothing is ever dropped to make room: the budget is
    /// `send_frame`'s to wait on before it pushes.
    fn push(&mut self, entry: Entry) {
        self.bytes += entry.wire_len();
        self.entries.push_back(entry);
    }

    /// The frame at the cursor: the next one `pump` owes the stream.
    fn pending(&self) -> Option<&Entry> {
        self.entries.get((self.written - self.base) as usize)
    }

    /// Drop the frames before `acked`, the peer's confirmed delivery count.
    /// Counts only grow, so an older one changes nothing; one beyond what
    /// was ever written cannot come from a peer running this protocol.
    fn trim(&mut self, acked: u64) -> Result<(), NetError> {
        if acked > self.written {
            return Err(NetError::protocol(format!(
                "peer confirmed {acked} frames of the {} sent",
                self.written
            )));
        }
        while self.base < acked {
            if let Some(old) = self.entries.pop_front() {
                self.bytes -= old.wire_len();
            }
            self.base += 1;
        }
        Ok(())
    }

    /// A fresh stream starts at `count`, the peer's final delivery count on
    /// the old one: everything before it is confirmed. Nothing is evicted,
    /// so a peer running this protocol never names a frame outside the log.
    fn resume(&mut self, count: u64) -> Result<(), NetError> {
        if count < self.base || count > self.next() {
            return Err(NetError::protocol(format!(
                "peer resumed from frame {count}, outside the sent log ({}..{})",
                self.base,
                self.next()
            )));
        }
        self.written = count;
        self.trim(count)
    }
}

/// A snapshot of one link's health, from [`crate::TcpTransport::link_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames in the sent log: pushed toward the peer, not yet confirmed.
    pub logged_frames: usize,
    /// Wire bytes (headers included) of those frames.
    pub logged_bytes: usize,
    /// How many frames the peer has confirmed delivering.
    pub acked: u64,
    /// Streams installed on this link so far: 1 after establishment, +1 per
    /// reconnect.
    pub epoch: u64,
}

/// A link's connection record, under a leaf lock that reader threads, the
/// heartbeat and repair threads take without ever waiting on a sender.
#[derive(Default)]
struct Conn {
    /// The installed stream; `None` is what "the link is down" means.
    stream: Option<Arc<TcpStream>>,
    /// Streams installed so far: names `stream`, or the last one when down.
    epoch: u64,
    /// A repair thread (redial or restore watchdog) is already running.
    repairing: bool,
    /// The highest delivery count heard from the peer (a resume re-bases
    /// it). Reader threads raise it; `send_frame` trims the log to it.
    acked: u64,
}

/// Everything this endpoint knows about one peer.
///
/// Lock order: `log` → `conn`. `last_heard` and `reader` are leaf locks,
/// never held across another acquisition.
struct Link {
    peer: usize,
    log: Mutex<SentLog>,
    conn: Mutex<Conn>,
    /// Paired with `conn`: signalled after anything that can make room in
    /// the log (a raised `acked`, a new epoch) or end the wait (a death).
    room: Condvar,
    reader: Mutex<Option<JoinHandle<()>>>,
    /// Complete frames (link-level control excluded) read off the wire and
    /// delivered.
    recv_count: AtomicU64,
    /// Wire bytes delivered since `recv_count` last went out to the peer.
    ack_owed: AtomicUsize,
    /// Peer declared dead: no sends, no repair, death already synthesized.
    dead: AtomicBool,
    last_heard: Mutex<Instant>,
}

/// The shared state behind a `TcpTransport`: the per-peer links, the
/// queue feeding `recv_raw`, and the background threads' view of both.
pub(crate) struct Fabric {
    pub(crate) rank: usize,
    pub(crate) world: usize,
    addrs: Vec<SocketAddr>,
    opts: TcpOptions,
    links: Vec<Option<Arc<Link>>>,
    tx: Sender<WireFrame>,
    shutdown: AtomicBool,
}

impl Fabric {
    pub(crate) fn new(
        rank: usize,
        world: usize,
        addrs: Vec<SocketAddr>,
        opts: TcpOptions,
        tx: Sender<WireFrame>,
        topology: &crate::topology::Topology,
    ) -> Arc<Fabric> {
        // Only topology peers get a link: sends to anyone else fail typed
        // (`SendRawError`), and the heartbeat/repair machinery never
        // touches them.
        let links = (0..world)
            .map(|peer| {
                topology.connects(rank, peer).then(|| {
                    Arc::new(Link {
                        peer,
                        log: Mutex::default(),
                        conn: Mutex::default(),
                        room: Condvar::new(),
                        reader: Mutex::new(None),
                        recv_count: AtomicU64::new(0),
                        ack_owed: AtomicUsize::new(0),
                        dead: AtomicBool::new(false),
                        last_heard: Mutex::new(Instant::now()),
                    })
                })
            })
            .collect();
        Arc::new(Fabric {
            rank,
            world,
            addrs,
            opts,
            links,
            tx,
            shutdown: AtomicBool::new(false),
        })
    }

    /// How many peers this endpoint holds a link (socket) to.
    pub(crate) fn link_count(&self) -> usize {
        self.links.iter().flatten().count()
    }

    fn link(&self, peer: usize) -> Option<&Arc<Link>> {
        self.links.get(peer).and_then(|l| l.as_ref())
    }

    /// The state of the link to `peer`; `None` without one.
    pub(crate) fn link_stats(&self, peer: usize) -> Option<LinkStats> {
        let link = self.link(peer)?;
        let log = lock(&link.log);
        let conn = lock(&link.conn);
        Some(LinkStats {
            logged_frames: log.entries.len(),
            logged_bytes: log.bytes,
            acked: conn.acked,
            epoch: conn.epoch,
        })
    }

    /// Has `peer` been declared dead?
    pub(crate) fn is_dead(&self, peer: usize) -> bool {
        self.link(peer)
            .map(|l| l.dead.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// No more traffic or repair on `link`: its peer is declared dead, or
    /// this endpoint is shutting down.
    fn gone(&self, link: &Link) -> bool {
        self.shutdown.load(Ordering::Acquire) || link.dead.load(Ordering::Acquire)
    }

    /// Deliver a frame to this endpoint's own receive queue (self-sends
    /// never touch a socket).
    pub(crate) fn loopback(&self, frame: WireFrame) -> Result<(), SendRawError> {
        let to = self.rank;
        self.tx.send(frame).map_err(|_| SendRawError { to })
    }

    /// Push `frame` toward `to`: wait for room in the log, log it, then
    /// best-effort write it. `Ok` means logged, and a logged frame *will*
    /// reach a live peer: nothing evicts it, and every stream the link gets
    /// is pumped from the peer's count. The call may block on a full socket
    /// while the link is up, or on a log over [`SENT_LOG_BUDGET`] while it
    /// is down or the peer is behind on `ACK`s — a wait the death deadlines
    /// of [`TcpOptions`] bound. `Err` only for a peer declared dead (before
    /// or during that wait) or outside the topology. `fault` injects a
    /// socket-level failure on this specific write (chaos layer).
    pub(crate) fn send_frame(
        self: &Arc<Self>,
        to: usize,
        frame: &WireFrame,
        fault: Option<WireFault>,
    ) -> Result<(), SendRawError> {
        let Some(link) = self.link(to) else {
            return Err(SendRawError { to });
        };
        let Ok(header) = encode_header(frame) else {
            return Err(SendRawError { to });
        };
        if let Some(WireFault::Delay(d) | WireFault::Stall(d)) = fault {
            std::thread::sleep(d);
        }
        // How much of the frame the chaos layer lets onto the wire before
        // it resets the stream; `None` is a whole, healthy write.
        let cut = match fault {
            None | Some(WireFault::Delay(_) | WireFault::Stall(_)) => None,
            Some(WireFault::Reset) => Some(0),
            Some(WireFault::Partial(n)) => Some(n),
            Some(WireFault::Truncate) => Some(HEADER_BYTES + frame.payload.len() / 2),
        };
        // From the push to the end of its pump the log stays locked, so a
        // concurrent resume cannot interleave its frames with this one.
        let mut log = lock(&link.log);
        let stream = loop {
            if self.gone(link) {
                return Err(SendRawError { to });
            }
            let (acked, epoch, mut stream) = {
                let conn = lock(&link.conn);
                (conn.acked, conn.epoch, conn.stream.clone())
            };
            if log.trim(acked).is_err() {
                // The peer confirmed frames never written: its stream cannot
                // be trusted, and the resume handshake re-bases the count.
                self.down(link, Some(epoch));
                stream = None;
            }
            if log.bytes <= SENT_LOG_BUDGET {
                break stream.map(|stream| (stream, epoch));
            }
            // Full. Wait without the log (a resume needs it) for what can
            // make room: a higher count, a new stream, or the peer's death.
            drop(log);
            let full =
                |conn: &mut Conn| conn.acked == acked && conn.epoch == epoch && !self.gone(link);
            drop(link.room.wait_while(lock(&link.conn), full));
            log = lock(&link.log);
        };
        log.push(Entry {
            header,
            payload: frame.payload.clone(),
        });
        // No stream: a repair is in flight and the frame rides the resumed
        // stream's pump (or the peer is declared dead and later sends fail).
        if let Some((stream, epoch)) = stream {
            self.pump(link, &mut log, &stream, epoch, cut);
        }
        Ok(())
    }

    /// Write every logged frame `stream` (the one in `conn` under `epoch`)
    /// has not carried yet, moving the cursor past each one written whole —
    /// the only place a data frame meets a socket, live send and resume
    /// alike. `cut` is how much of the *newest* frame the chaos layer lets
    /// through before it resets the stream. A failed write takes the stream
    /// down; the cursor stays on the frame that failed.
    fn pump(
        self: &Arc<Self>,
        link: &Arc<Link>,
        log: &mut SentLog,
        mut stream: &TcpStream,
        epoch: u64,
        cut: Option<usize>,
    ) {
        let mut carry = || -> std::io::Result<()> {
            while let Some(entry) = log.pending() {
                let cut = cut.filter(|_| log.written + 1 == log.next());
                let upto = cut.unwrap_or(usize::MAX);
                write_encoded(&mut stream, &entry.header, &entry.payload, upto)?;
                if cut.is_some() {
                    return Err(ErrorKind::ConnectionReset.into());
                }
                log.written += 1;
                // This thread may wait on the socket, reader threads may
                // not: an ACK they still owe is paid from here.
                if link.ack_owed.load(Ordering::Acquire) >= ACK_BYTES {
                    stream.write_all(&self.control_frame(link, tag::ACK).0)?;
                }
            }
            Ok(())
        };
        if carry().is_err() {
            self.down(link, Some(epoch));
        }
    }

    /// The link-level control frame `tag` toward `link`'s peer. Whatever the
    /// tag, its payload is this side's delivery count, so building one
    /// settles the owed acknowledgement (returned, for a caller that then
    /// fails to send the frame).
    fn control_frame(&self, link: &Link, tag: u64) -> ([u8; CONTROL_BYTES], usize) {
        let owed = link.ack_owed.swap(0, Ordering::AcqRel);
        let count = link.recv_count.load(Ordering::Acquire);
        let mut bytes = [0u8; CONTROL_BYTES];
        bytes[..HEADER_BYTES].copy_from_slice(&header(8, [self.rank as u64, tag, 0, 0]));
        bytes[HEADER_BYTES..].copy_from_slice(&count.to_le_bytes());
        (bytes, owed)
    }

    /// Send the control frame `tag` if that takes no waiting — the only way
    /// reader threads and the heartbeat write (see the module's lock rule).
    /// A busy log or a full send buffer leaves the frame unsent, for the
    /// caller's next occasion; a frame cut part-way, like any failed write,
    /// takes the stream down.
    fn try_control(self: &Arc<Self>, link: &Arc<Link>, tag: u64) {
        let _writing = match link.log.try_lock() {
            Ok(log) => log,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        let (stream, epoch) = {
            let conn = lock(&link.conn);
            (conn.stream.clone(), conn.epoch)
        };
        let Some(stream) = stream else {
            return;
        };
        let (bytes, owed) = self.control_frame(link, tag);
        // The send timeout touches no read, and every write to this stream
        // happens under the log lock held here, so blocking senders never
        // see it.
        let wrote = stream
            .set_write_timeout(Some(NO_WAIT))
            .and_then(|()| (&*stream).write(&bytes));
        let restored = stream.set_write_timeout(None);
        match (wrote, restored) {
            (Ok(n), Ok(())) if n == bytes.len() => {}
            (Err(e), Ok(())) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                link.ack_owed.fetch_add(owed, Ordering::AcqRel);
            }
            _ => self.down(link, Some(epoch)),
        }
    }

    /// The one way down: shut `link`'s stream (failing whatever read or
    /// write is blocked on it), clear the slot, wake a sender waiting for
    /// room, and unless the link is gone for good make sure exactly one
    /// repair is running. `Some(epoch)` is a caller that saw that stream
    /// fail, and changes nothing once a newer one is installed; `None`
    /// means whatever stream there is.
    fn down(self: &Arc<Self>, link: &Arc<Link>, epoch: Option<u64>) {
        let repair = {
            let mut conn = lock(&link.conn);
            if epoch.is_some_and(|epoch| epoch != conn.epoch) {
                return;
            }
            if let Some(stream) = conn.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            let start = !self.gone(link) && !std::mem::replace(&mut conn.repairing, true);
            start.then_some(conn.epoch)
        };
        link.room.notify_all();
        if let Some(epoch) = repair {
            self.spawn_repair(link, epoch);
        }
    }

    /// One repair per loss: the side that dialed originally (we dial
    /// peers with a *lower* rank) re-dials with backoff; the accepting
    /// side arms a watchdog and waits for the peer's reconnect.
    fn spawn_repair(self: &Arc<Self>, link: &Arc<Link>, epoch: u64) {
        let fabric = Arc::clone(self);
        let worker = Arc::clone(link);
        let dialer = link.peer < self.rank;
        let name = format!(
            "rt-net-{}-{}-to-{}",
            if dialer { "redial" } else { "restore" },
            self.rank,
            link.peer
        );
        let spawned = std::thread::Builder::new().name(name).spawn(move || {
            if dialer {
                fabric.dial_repair(&worker);
            } else {
                fabric.await_restore(&worker, epoch);
            }
        });
        if spawned.is_err() {
            // No thread, no repair: the peer is unreachable for good.
            self.declare_dead(link);
        }
    }

    /// Dialer-side repair: bounded attempts with linearly growing backoff,
    /// then death.
    fn dial_repair(self: &Arc<Self>, link: &Arc<Link>) {
        for attempt in 0..self.opts.reconnect_attempts {
            if self.gone(link) {
                return;
            }
            std::thread::sleep(self.opts.reconnect_backoff.saturating_mul(attempt + 1));
            if self.try_redial(link).is_ok() {
                return;
            }
        }
        self.declare_dead(link);
    }

    /// One reconnect attempt: dial, resume-handshake, install.
    fn try_redial(self: &Arc<Self>, link: &Arc<Link>) -> Result<(), NetError> {
        let peer = link.peer;
        let addr = self.addrs[peer];
        let ctx = |what: &str| format!("rank {} {what} rank {peer} at {addr}", self.rank);
        let stream = TcpStream::connect(addr).map_err(|e| NetError::io(ctx("re-dialing"), e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::io(ctx("configuring stream to"), e))?;
        stream
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(|e| NetError::io(ctx("configuring stream to"), e))?;
        let mut s = &stream;
        s.write_all(&((self.rank as u64) | RECONNECT_FLAG).to_le_bytes())
            .map_err(|e| NetError::io(ctx("greeting"), e))?;
        // Quiesce the old reader so our receive counter is final before we
        // report it.
        self.quiesce(link);
        let my_count = link.recv_count.load(Ordering::Acquire);
        s.write_all(&my_count.to_le_bytes())
            .map_err(|e| NetError::io(ctx("resuming with"), e))?;
        let mut buf = [0u8; 8];
        s.read_exact(&mut buf)
            .map_err(|e| NetError::io(ctx("reading resume count from"), e))?;
        let peer_count = u64::from_le_bytes(buf);
        stream
            .set_read_timeout(None)
            .map_err(|e| NetError::io(ctx("configuring stream to"), e))?;
        self.install(link, stream, peer_count)
    }

    /// Acceptor-side repair: give the peer [`TcpOptions::restore_deadline`]
    /// to re-dial; if the link is still down on the same epoch, declare it
    /// dead.
    fn await_restore(self: &Arc<Self>, link: &Arc<Link>, epoch: u64) {
        std::thread::sleep(self.opts.restore_deadline);
        let still_down = {
            let conn = lock(&link.conn);
            conn.stream.is_none() && conn.epoch == epoch
        };
        if still_down {
            self.declare_dead(link);
        }
    }

    /// Install a fresh stream on a link whose peer has delivered
    /// `peer_count` frames: move the cursor there, publish the stream under
    /// a new epoch, start its reader, and only then pump what the peer has
    /// not seen — both ends of a resume do this at once, and each pump
    /// finishes because the other end's reader is already draining.
    fn install(
        self: &Arc<Self>,
        link: &Arc<Link>,
        stream: TcpStream,
        peer_count: u64,
    ) -> Result<(), NetError> {
        let stream = Arc::new(stream);
        let mut log = lock(&link.log);
        // The resume count is the peer's final delivery count on the old
        // stream (its reader is quiesced, as is ours, so nothing races the
        // `acked` store below): the freshest acknowledgement there is.
        if let Err(violation) = log.resume(peer_count) {
            self.declare_dead(link);
            return Err(violation);
        }
        // Before the epoch, so the heartbeat never reads the new epoch
        // beside the old stream's silence.
        *lock(&link.last_heard) = Instant::now();
        let epoch = {
            let mut conn = lock(&link.conn);
            if self.gone(link) {
                return Err(NetError::PeerDead { peer: link.peer });
            }
            conn.stream = Some(Arc::clone(&stream));
            conn.epoch += 1;
            conn.repairing = false;
            conn.acked = peer_count;
            conn.epoch
        };
        link.room.notify_all();
        match self.spawn_reader(link, Arc::clone(&stream), epoch) {
            Ok(handle) => *lock(&link.reader) = Some(handle),
            Err(e) => {
                self.down(link, Some(epoch));
                return Err(e);
            }
        }
        self.pump(link, &mut log, &stream, epoch, None);
        Ok(())
    }

    /// Initial installation during mesh establishment (epoch 1, nothing
    /// to replay).
    pub(crate) fn install_initial(
        self: &Arc<Self>,
        peer: usize,
        stream: TcpStream,
    ) -> Result<(), NetError> {
        let Some(link) = self.link(peer) else {
            return Err(NetError::protocol(format!(
                "no link slot for rank {peer} (world of {})",
                self.world
            )));
        };
        self.install(link, stream, 0)
    }

    /// Declare `peer` dead exactly once: stop all traffic and synthesize
    /// the [`tag::DEATH`] notification the envelope's failure protocol
    /// expects — from here on, the in-process and TCP failure paths are
    /// the same code.
    fn declare_dead(self: &Arc<Self>, link: &Arc<Link>) {
        if link.dead.swap(true, Ordering::AcqRel) {
            return;
        }
        self.down(link, None);
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        // The socket layer does not know what a composition step is: the
        // notice says "unknown", and the envelope resolves it from the
        // fault plan its ranks share.
        let unknown = WireFrame::death_payload(usize::MAX);
        let notice = WireFrame::control(link.peer, tag::DEATH, unknown);
        let _ = self.tx.send(notice);
    }

    /// Reader thread for one installed stream: decode frames, answer
    /// pings, count and forward everything else. Exits (and takes the
    /// link down) on EOF, a decode failure, the peer's forwarded death
    /// notice, or a frame that claims another sender than this link's peer
    /// — `from` is the peer's to write, and the layers above index by it.
    fn spawn_reader(
        self: &Arc<Self>,
        link: &Arc<Link>,
        stream: Arc<TcpStream>,
        epoch: u64,
    ) -> Result<JoinHandle<()>, NetError> {
        let fabric = Arc::clone(self);
        let link = Arc::clone(link);
        let name = format!("rt-net-recv-{}-from-{}", self.rank, link.peer);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let mut stream = &*stream;
                let heard = || *lock(&link.last_heard) = Instant::now();
                while let Ok(Some(frame)) = read_frame_noting(&mut stream, heard) {
                    if frame.from != link.peer {
                        break;
                    }
                    if matches!(frame.tag, tag::PING | tag::PONG | tag::ACK) {
                        // Every link-level frame confirms its sender's
                        // delivery count; one without it breaks the stream.
                        let Ok(count) = <[u8; 8]>::try_from(frame.payload.as_slice()) else {
                            break;
                        };
                        {
                            let mut conn = lock(&link.conn);
                            conn.acked = conn.acked.max(u64::from_le_bytes(count));
                        }
                        link.room.notify_all();
                        if frame.tag == tag::PING {
                            fabric.try_control(&link, tag::PONG);
                        }
                        continue;
                    }
                    let death = frame.tag == tag::DEATH;
                    if death {
                        // The peer announced its own death: no repair, and
                        // no second (synthesized) notification when its
                        // socket closes.
                        link.dead.store(true, Ordering::Release);
                    }
                    link.recv_count.fetch_add(1, Ordering::AcqRel);
                    let len = HEADER_BYTES + frame.payload.len();
                    if fabric.tx.send(frame).is_err() || death {
                        // After a death nothing more is read: `down` shuts
                        // the stream, which fails a write blocked on a peer
                        // that keeps its socket open, and wakes a sender
                        // waiting for room.
                        break;
                    }
                    if link.ack_owed.fetch_add(len, Ordering::AcqRel) + len >= ACK_BYTES {
                        fabric.try_control(&link, tag::ACK);
                    }
                }
                fabric.down(&link, Some(epoch));
            })
            .map_err(|e| NetError::io("spawning receive thread", e))
    }

    /// Persistent accept loop: owns the mesh listener after establishment
    /// and serves resume handshakes from re-dialing (higher-rank) peers.
    pub(crate) fn spawn_accept_loop(
        self: &Arc<Self>,
        listener: TcpListener,
    ) -> Result<(), NetError> {
        let fabric = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("rt-net-accept-{}", self.rank))
            .spawn(move || loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(_) => {
                        if fabric.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        continue;
                    }
                };
                if fabric.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // A failed handshake only abandons that one stream; the
                // dialer retries or its death watchdogs fire.
                let _ = fabric.handle_reconnect(stream);
            })
            .map_err(|e| NetError::io("spawning accept loop", e))?;
        Ok(())
    }

    /// Serve one resume handshake on an accepted stream.
    fn handle_reconnect(self: &Arc<Self>, stream: TcpStream) -> Result<(), NetError> {
        let herr = |e| NetError::io("reading reconnect handshake", e);
        stream.set_nodelay(true).map_err(herr)?;
        stream
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(herr)?;
        let mut s = &stream;
        let mut buf = [0u8; 8];
        s.read_exact(&mut buf).map_err(herr)?;
        let hello = u64::from_le_bytes(buf);
        if hello == SHUTDOWN_HELLO {
            return Ok(());
        }
        if hello & RECONNECT_FLAG == 0 {
            return Err(NetError::protocol(format!(
                "plain hello {hello} after mesh establishment"
            )));
        }
        let peer = (hello & !RECONNECT_FLAG) as usize;
        if peer >= self.world || peer <= self.rank {
            return Err(NetError::protocol(format!(
                "reconnect hello from rank {peer}, expected a rank in {}..{}",
                self.rank + 1,
                self.world
            )));
        }
        let Some(link) = self.link(peer) else {
            return Err(NetError::protocol(format!("no link slot for rank {peer}")));
        };
        if link.dead.load(Ordering::Acquire) {
            // Already declared dead here; refuse resurrection (the repair
            // planner has moved on).
            return Ok(());
        }
        s.read_exact(&mut buf).map_err(herr)?;
        let peer_count = u64::from_le_bytes(buf);
        self.quiesce(link);
        let my_count = link.recv_count.load(Ordering::Acquire);
        s.write_all(&my_count.to_le_bytes())
            .map_err(|e| NetError::io("answering reconnect handshake", e))?;
        stream.set_read_timeout(None).map_err(herr)?;
        self.install(link, stream, peer_count)
    }

    /// Stop a link's current reader for good: take the stream down, join
    /// the thread. Afterwards `recv_count` is final — the resume handshake
    /// depends on that.
    fn quiesce(self: &Arc<Self>, link: &Arc<Link>) {
        self.down(link, None);
        let handle = lock(&link.reader).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Background liveness: ping idle links; take down any link silent
    /// past the miss budget so a silently dead peer becomes a detectable
    /// EOF and enters the reconnect/death path.
    pub(crate) fn spawn_heartbeat(self: &Arc<Self>) {
        let Some(interval) = self.opts.heartbeat_interval else {
            return;
        };
        let stale_after = interval.saturating_mul(HEARTBEAT_MISSES);
        let fabric = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("rt-net-heartbeat-{}", self.rank))
            .spawn(move || loop {
                std::thread::sleep(interval);
                if fabric.shutdown.load(Ordering::Acquire) {
                    return;
                }
                for link in fabric.links.iter().flatten() {
                    if link.dead.load(Ordering::Acquire) {
                        continue;
                    }
                    let epoch = lock(&link.conn).epoch;
                    let heard = lock(&link.last_heard).elapsed();
                    if heard > stale_after {
                        fabric.down(link, Some(epoch));
                    } else {
                        // Whether or not the link is idle: a peer blocked
                        // in one long write toward us cannot ask (its log
                        // is busy) and hears only what we volunteer.
                        fabric.try_control(link, tag::PING);
                    }
                }
            });
        // Without a heartbeat thread the fabric still works; silent peer
        // death is then only detected by EOF or send failures.
        drop(spawned);
    }

    /// Tear the fabric down: stop repairs, close every stream, wake the
    /// accept loop. Links are marked dead *without* synthesizing death
    /// notifications (this endpoint is exiting, not its peers).
    pub(crate) fn shut_down(self: &Arc<Self>) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for link in self.links.iter().flatten() {
            link.dead.store(true, Ordering::Release);
            self.down(link, None);
        }
        if let Ok(stream) = TcpStream::connect(self.addrs[self.rank]) {
            let mut s = &stream;
            let _ = s.write_all(&SHUTDOWN_HELLO.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(payload: Vec<u8>) -> Entry {
        Entry {
            header: [0; HEADER_BYTES],
            payload: Payload::from(payload),
        }
    }

    /// A log holding one-frame-per-byte `fill`, all of it written.
    fn written(fill: impl IntoIterator<Item = Vec<u8>>) -> SentLog {
        let mut log = SentLog::default();
        fill.into_iter()
            .for_each(|payload| log.push(entry(payload)));
        log.written = log.next();
        log
    }

    /// First payload byte of each frame a pump would write once the peer
    /// has resumed from `count`; `None` if that count cannot be resumed.
    fn replayed(log: &SentLog, count: u64) -> Option<Vec<u8>> {
        let mut log = log.clone();
        log.resume(count).ok()?;
        let mut carried = Vec::new();
        while let Some(entry) = log.pending() {
            carried.push(entry.payload[0]);
            log.written += 1;
        }
        Some(carried)
    }

    #[test]
    fn sent_log_replays_exactly_the_unseen_suffix() {
        let log = written((0u8..5).map(|i| vec![i]));
        assert_eq!(replayed(&log, 0).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(replayed(&log, 3).unwrap(), vec![3, 4]);
        assert!(replayed(&log, 5).unwrap().is_empty());
    }

    #[test]
    fn pushing_never_drops_a_frame_whatever_the_log_holds() {
        // Twice the budget in 32 shared-payload frames, and one frame
        // bigger than the budget by itself: the log keeps every one, and
        // every one is there for a peer that resumes from zero.
        let payload = Payload::from(vec![7u8; 4 << 20]);
        let mut log = SentLog::default();
        for _ in 0..32 {
            log.push(Entry {
                header: [0; HEADER_BYTES],
                payload: payload.clone(),
            });
        }
        log.push(entry(vec![9; 16]));
        assert!(log.bytes > 2 * SENT_LOG_BUDGET);
        assert_eq!((log.base, log.written, log.next()), (0, 0, 33));
        assert_eq!(replayed(&log, 0).unwrap().len(), 33);
        assert_eq!(replayed(&log, 32).unwrap(), vec![9]);
    }

    #[test]
    fn the_cursor_survives_a_failed_pump_and_a_resume_count_resets_it() {
        let mut log = written((0u8..3).map(|i| vec![i; 10]));
        for i in 3u8..6 {
            log.push(entry(vec![i; 10]));
        }
        // A pump that carried frame 3 whole and failed inside frame 4.
        log.written += 1;
        assert_eq!(log.pending().unwrap().payload[0], 4);
        // More pushes and an acknowledgement leave the cursor where it is.
        log.push(entry(vec![6; 10]));
        log.trim(2).unwrap();
        assert_eq!((log.base, log.written, log.next()), (2, 4, 7));
        assert_eq!(log.pending().unwrap().payload[0], 4);
        // The peer turns out to have frame 3 but not what followed, or (a
        // cut that let the whole frame through) one more than was counted
        // as written: either way its count is where the next pump starts.
        assert_eq!(replayed(&log, 4).unwrap(), vec![4, 5, 6]);
        assert_eq!(replayed(&log, 5).unwrap(), vec![5, 6]);
        log.resume(3).unwrap();
        assert_eq!((log.base, log.written, log.next()), (3, 3, 7));
        assert_eq!(log.bytes, 4 * (HEADER_BYTES + 10));
        // Counts outside the log are refused and change nothing.
        assert!(log.resume(2).is_err() && log.resume(8).is_err());
        assert_eq!((log.base, log.written, log.next()), (3, 3, 7));
    }

    #[test]
    fn trimming_is_monotone_idempotent_and_leaves_the_unconfirmed_suffix() {
        let mut log = written((0u8..6).map(|i| vec![i; 10]));
        let frame = HEADER_BYTES + 10;
        log.trim(2).unwrap();
        assert_eq!((log.base, log.next(), log.bytes), (2, 6, 4 * frame));
        // The same count again, and an older one, change nothing.
        log.trim(2).unwrap();
        log.trim(1).unwrap();
        assert_eq!((log.base, log.bytes, log.entries.len()), (2, 4 * frame, 4));
        // A resume count is never below an acknowledgement, and gets
        // exactly what is still unconfirmed.
        assert_eq!(replayed(&log, 2).unwrap(), vec![2, 3, 4, 5]);
        assert_eq!(replayed(&log, 4).unwrap(), vec![4, 5]);
        assert!(replayed(&log, 1).is_none(), "confirmed frames are gone");
        // Confirming everything empties the log; pushing resumes the count.
        log.trim(6).unwrap();
        assert_eq!((log.base, log.bytes, log.entries.len()), (6, 0, 0));
        log.push(entry(vec![6; 10]));
        assert_eq!(replayed(&log, 6).unwrap(), vec![6]);
    }

    #[test]
    fn confirming_more_than_was_sent_is_a_typed_error_not_an_underflow() {
        let mut log = written((0u8..2).map(|i| vec![i; 10]));
        let err = log.trim(3).expect_err("only two frames were ever sent");
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("3 frames of the 2 sent"), "{err}");
        // The log is untouched and still serves the true count.
        assert_eq!((log.base, log.entries.len()), (0, 2));
        assert_eq!(replayed(&log, 1).unwrap(), vec![1]);
        // A frame that is logged but not yet written cannot be confirmed
        // either: the peer has never been sent it.
        log.push(entry(vec![2; 10]));
        assert!(log.trim(3).is_err());
        assert_eq!((log.base, log.written, log.next()), (0, 2, 3));
        // The same holds once everything has been confirmed.
        log.trim(2).unwrap();
        assert!(log.trim(u64::MAX).is_err());
        assert_eq!((log.base, log.bytes), (2, HEADER_BYTES + 10));
    }

    /// A two-rank loopback pair with fast failure handling.
    fn pair(heartbeat: Option<Duration>) -> (crate::TcpTransport, crate::TcpTransport) {
        let opts = TcpOptions {
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(5),
            restore_deadline: Duration::from_millis(500),
            heartbeat_interval: heartbeat,
        };
        let mut world = crate::TcpTransport::loopback_mesh_with(2, opts).unwrap();
        let b = world.pop().unwrap();
        (world.pop().unwrap(), b)
    }

    /// Poll `probe` until it holds, failing after five seconds.
    fn eventually(what: &str, mut probe: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !probe() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn an_ack_beyond_the_sent_count_downs_the_link_and_the_resume_rebases_it() {
        use rt_comm::Transport;
        let (mut a, mut b) = pair(None);
        a.send_raw(1, WireFrame::control(0, 7, vec![1])).unwrap();
        assert_eq!(b.recv_raw(Duration::from_secs(5)).unwrap().payload[0], 1);
        // Forge what a broken peer would send: rank 1 "confirms" 99 frames.
        let link = Arc::clone(b.fabric.link(0).unwrap());
        link.recv_count.store(99, Ordering::Release);
        b.fabric.try_control(&link, tag::ACK);
        eventually("the forged count is heard", || {
            a.link_stats(1).unwrap().acked == 99
        });
        link.recv_count.store(1, Ordering::Release);
        // The next send finds the violation, drops the stream, and the
        // frame rides the reconnect's replay: delivered once, in order.
        a.send_raw(1, WireFrame::control(0, 7, vec![2])).unwrap();
        a.send_raw(1, WireFrame::control(0, 7, vec![3])).unwrap();
        assert_eq!(b.recv_raw(Duration::from_secs(5)).unwrap().payload[0], 2);
        assert_eq!(b.recv_raw(Duration::from_secs(5)).unwrap().payload[0], 3);
        let stats = a.link_stats(1).unwrap();
        assert_eq!(stats.epoch, 2, "one reconnect");
        assert!(
            stats.acked <= 3,
            "the handshake re-based the count: {stats:?}"
        );
        assert!(!a.peer_is_dead(1) && b.recv_raw(Duration::ZERO).is_err());
    }

    #[test]
    fn heartbeats_alone_confirm_an_idle_links_tail() {
        use rt_comm::Transport;
        let (mut a, mut b) = pair(Some(Duration::from_millis(10)));
        // Far less than ACK_BYTES: no ACK is due, only PING/PONG carry the
        // count back. The log is trimmed by the next send.
        for i in 0..3u8 {
            a.send_raw(1, WireFrame::control(0, 7, vec![i; 100]))
                .unwrap();
            b.recv_raw(Duration::from_secs(5)).unwrap();
        }
        eventually("a heartbeat confirms all three", || {
            a.link_stats(1).unwrap().acked == 3
        });
        a.send_raw(1, WireFrame::control(0, 7, vec![3; 100]))
            .unwrap();
        let stats = a.link_stats(1).unwrap();
        assert_eq!((stats.logged_frames, stats.epoch), (1, 1), "{stats:?}");
        assert_eq!(stats.logged_bytes, HEADER_BYTES + 100);
    }

    #[test]
    fn scaled_options_fit_inside_the_envelope_timeout() {
        let t = Duration::from_secs(10);
        let opts = TcpOptions::scaled_to(t);
        assert!(opts.restore_deadline <= t / 2);
        let dial_budget: Duration = (0..opts.reconnect_attempts)
            .map(|a| opts.reconnect_backoff.saturating_mul(a + 1))
            .sum();
        assert!(
            dial_budget <= t,
            "reconnect budget {dial_budget:?} exceeds timeout {t:?}"
        );
        let hb = opts.heartbeat_interval.unwrap();
        assert!(hb.saturating_mul(HEARTBEAT_MISSES) <= t);
    }
}
