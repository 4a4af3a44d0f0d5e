//! The per-peer link fabric: sent-frame logs, bounded reconnection,
//! heartbeats, and death declaration.
//!
//! A `Fabric` owns one `Link` per peer (both crate-internal — the public
//! surface is [`TcpOptions`] plus the `tcp` module's transport). Each
//! link tracks everything
//! needed to survive a socket failure without the layers above noticing:
//!
//! * a **sent-frame log** — the encoded bytes of every frame pushed toward
//!   the peer, windowed by a byte budget. A frame is "sent" the moment it
//!   is logged; the socket write is best-effort.
//! * a **receive counter** — how many complete frames this side has pulled
//!   off the wire and delivered upward. Heartbeats are excluded on both
//!   sides, so the counter and the log index the same sequence.
//! * an **epoch** — bumped on every (re)installed stream so stale reader
//!   threads and watchdogs from a previous socket cannot clobber a repaired
//!   link.
//!
//! When a stream fails, the side that originally dialed (the higher rank)
//! re-dials with a resume handshake: both sides exchange receive counters
//! and replay their logs from the peer's counter, so delivery is
//! exactly-once and in order across the reconnect — invisible to the
//! `rt-comm` envelope. The accepting side (the lower rank) arms a restore
//! watchdog instead; if no reconnect lands within
//! [`TcpOptions::restore_deadline`], or the dialer exhausts
//! [`TcpOptions::reconnect_attempts`], the peer is **declared dead**: a
//! synthesized death-notification frame (the same [`tag::DEATH`] protocol a
//! crashing rank announces voluntarily) enters the receive queue, and the
//! resilient executor's repair planner takes over.
//!
//! Liveness is active: a heartbeat thread sends `PING` control frames on
//! idle links and shuts down any stream that has been silent for
//! `HEARTBEAT_MISSES` intervals, converting silent peer
//! death into a detectable EOF. Heartbeats ([`tag::PING`]/[`tag::PONG`])
//! live in the transport-control namespace and never reach the envelope,
//! the log, or the counters — traces stay bit-identical to the in-process
//! backend.

use crate::error::NetError;
use crate::frame::{encode_frame, read_frame};
use rt_comm::{tag, SendRawError, WireFrame};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard};
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

/// Byte budget of the per-peer sent-frame log. A reconnect that needs
/// frames already evicted cannot resume; the peer is declared dead.
const SENT_LOG_BUDGET: usize = 64 << 20;

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
    /// Upper bound on one barrier round before it fails with a typed
    /// timeout.
    pub barrier_timeout: Duration,
    /// Step hints for the death notifications synthesized when a peer is
    /// declared dead: rank → composition step. Lets a launcher that knows
    /// the fault schedule (the chaos soak) make a real-process kill
    /// byte-identical to the in-process `crash_rank_at_step` announcement.
    pub death_steps: HashMap<usize, usize>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            reconnect_attempts: 10,
            reconnect_backoff: Duration::from_millis(50),
            restore_deadline: Duration::from_secs(3),
            heartbeat_interval: Some(Duration::from_secs(1)),
            barrier_timeout: Duration::from_secs(30),
            death_steps: HashMap::new(),
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
            barrier_timeout: timeout.max(Duration::from_secs(5)),
            ..TcpOptions::default()
        }
    }

    /// Record that `rank` is scheduled to crash at `step` (see
    /// [`TcpOptions::death_steps`]).
    pub fn death_step(mut self, rank: usize, step: usize) -> Self {
        self.death_steps.insert(rank, step);
        self
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

/// Windowed log of the encoded frames pushed toward one peer.
struct SentLog {
    /// Index of `entries.front()` in the all-time frame sequence.
    base: u64,
    /// Index the next pushed frame will get.
    next: u64,
    bytes: usize,
    budget: usize,
    entries: VecDeque<Arc<Vec<u8>>>,
}

impl SentLog {
    fn new(budget: usize) -> Self {
        SentLog {
            base: 0,
            next: 0,
            bytes: 0,
            budget,
            entries: VecDeque::new(),
        }
    }

    fn push(&mut self, entry: Arc<Vec<u8>>) {
        self.bytes += entry.len();
        self.entries.push_back(entry);
        self.next += 1;
        // Evict past the budget, but always retain the newest frame so a
        // single oversized frame can still be replayed.
        while self.bytes > self.budget && self.entries.len() > 1 {
            if let Some(old) = self.entries.pop_front() {
                self.bytes -= old.len();
                self.base += 1;
            }
        }
    }

    /// Frames the peer has not yet received, given it consumed `count`
    /// frames so far. `None` if the window has already evicted some of
    /// them — the link cannot be resumed.
    fn replay_from(&self, count: u64) -> Option<Vec<Arc<Vec<u8>>>> {
        if count < self.base {
            return None;
        }
        if count >= self.next {
            return Some(Vec::new());
        }
        let skip = (count - self.base) as usize;
        Some(self.entries.iter().skip(skip).cloned().collect())
    }
}

/// One installed stream: the writable half plus the epoch it belongs to.
struct WriterSlot {
    stream: TcpStream,
    epoch: u64,
}

/// Mutable link lifecycle state (guarded separately from the writer so
/// repair threads can inspect it without blocking senders).
struct LinkState {
    /// Bumped on every installed stream.
    epoch: u64,
    /// No usable stream right now.
    down: bool,
    /// A repair thread (redial or restore watchdog) is already running.
    repairing: bool,
}

/// Everything this endpoint knows about one peer.
///
/// Lock order, where multiple are held: `log` → `writer` → `state`.
/// `last_heard` and `reader` are leaf locks, never held across another
/// acquisition.
struct Link {
    peer: usize,
    log: Mutex<SentLog>,
    writer: Mutex<Option<WriterSlot>>,
    state: Mutex<LinkState>,
    reader: Mutex<Option<JoinHandle<()>>>,
    /// Complete non-heartbeat frames read off the wire and delivered.
    recv_count: AtomicU64,
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
                        log: Mutex::new(SentLog::new(SENT_LOG_BUDGET)),
                        writer: Mutex::new(None),
                        state: Mutex::new(LinkState {
                            epoch: 0,
                            down: true,
                            repairing: false,
                        }),
                        reader: Mutex::new(None),
                        recv_count: AtomicU64::new(0),
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

    pub(crate) fn opts(&self) -> &TcpOptions {
        &self.opts
    }

    /// How many peers this endpoint holds a link (socket) to.
    pub(crate) fn link_count(&self) -> usize {
        self.links.iter().flatten().count()
    }

    fn link(&self, peer: usize) -> Option<&Arc<Link>> {
        self.links.get(peer).and_then(|l| l.as_ref())
    }

    /// Has `peer` been declared dead?
    pub(crate) fn is_dead(&self, peer: usize) -> bool {
        self.link(peer)
            .map(|l| l.dead.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Deliver a frame to this endpoint's own receive queue (self-sends
    /// never touch a socket).
    pub(crate) fn loopback(&self, frame: WireFrame) -> Result<(), SendRawError> {
        let to = self.rank;
        self.tx.send(frame).map_err(|_| SendRawError { to })
    }

    /// Push `frame` toward `to`: log it, then best-effort write it. A
    /// logged frame *will* reach a live peer (the reconnect replays it);
    /// the only failure is a peer already declared dead. `fault` injects
    /// a socket-level failure on this specific write (chaos layer).
    pub(crate) fn send_frame(
        self: &Arc<Self>,
        to: usize,
        frame: &WireFrame,
        fault: Option<WireFault>,
    ) -> Result<(), SendRawError> {
        let Some(link) = self.link(to) else {
            return Err(SendRawError { to });
        };
        let link = Arc::clone(link);
        if link.dead.load(Ordering::Acquire) {
            return Err(SendRawError { to });
        }
        let Ok(bytes) = encode_frame(frame) else {
            return Err(SendRawError { to });
        };
        let bytes = Arc::new(bytes);
        if let Some(WireFault::Delay(d) | WireFault::Stall(d)) = fault {
            std::thread::sleep(d);
        }
        // Hold the log across the write so a concurrent reconnect cannot
        // interleave its replay with this frame (lock order log → writer).
        let mut log = lock(&link.log);
        log.push(Arc::clone(&bytes));
        let mut writer = lock(&link.writer);
        if let Some(slot) = writer.as_mut() {
            let epoch = slot.epoch;
            let wrote = match fault {
                None | Some(WireFault::Delay(_) | WireFault::Stall(_)) => {
                    slot.stream.write_all(&bytes)
                }
                Some(WireFault::Reset) => {
                    Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset))
                }
                Some(WireFault::Partial(n)) => {
                    let cut = n.min(bytes.len());
                    let _ = slot.stream.write_all(&bytes[..cut]);
                    Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset))
                }
                Some(WireFault::Truncate) => {
                    let cut = crate::frame::HEADER_BYTES.min(bytes.len())
                        + (bytes.len() - crate::frame::HEADER_BYTES.min(bytes.len())) / 2;
                    let _ = slot.stream.write_all(&bytes[..cut]);
                    Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset))
                }
            };
            if wrote.is_err() {
                let _ = slot.stream.shutdown(Shutdown::Both);
                *writer = None;
                drop(writer);
                self.link_down(&link, epoch);
            }
        }
        // Writer absent: the link is down and a repair is in flight; the
        // logged frame rides the replay (or the peer is declared dead and
        // later sends fail).
        Ok(())
    }

    /// Transition a link to "down" and ensure exactly one repair is
    /// running. Callers must have already cleared/shut the writer for
    /// `epoch`. Stale epochs (a newer stream is installed) are ignored.
    fn link_down(self: &Arc<Self>, link: &Arc<Link>, epoch: u64) {
        if self.shutdown.load(Ordering::Acquire) || link.dead.load(Ordering::Acquire) {
            return;
        }
        let mut st = lock(&link.state);
        if st.epoch != epoch {
            return;
        }
        st.down = true;
        if st.repairing {
            return;
        }
        st.repairing = true;
        drop(st);
        self.spawn_repair(link, epoch);
    }

    /// Full down-marking for callers not holding the writer lock (reader
    /// threads, the heartbeat): shut and clear the writer if it still
    /// belongs to `epoch`, then [`Fabric::link_down`].
    fn mark_down(self: &Arc<Self>, link: &Arc<Link>, epoch: u64) {
        if self.shutdown.load(Ordering::Acquire) || link.dead.load(Ordering::Acquire) {
            return;
        }
        {
            let mut writer = lock(&link.writer);
            if let Some(slot) = writer.as_ref() {
                if slot.epoch != epoch {
                    return;
                }
                let _ = slot.stream.shutdown(Shutdown::Both);
                *writer = None;
            }
        }
        self.link_down(link, epoch);
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
            self.declare_dead(link.as_ref());
        }
    }

    /// Dialer-side repair: bounded attempts with linearly growing backoff,
    /// then death.
    fn dial_repair(self: &Arc<Self>, link: &Arc<Link>) {
        for attempt in 0..self.opts.reconnect_attempts {
            if self.shutdown.load(Ordering::Acquire) || link.dead.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(self.opts.reconnect_backoff.saturating_mul(attempt + 1));
            if self.try_redial(link).is_ok() {
                return;
            }
        }
        self.declare_dead(link.as_ref());
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
        quiesce(link);
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
        if self.shutdown.load(Ordering::Acquire) || link.dead.load(Ordering::Acquire) {
            return;
        }
        let still_down = {
            let st = lock(&link.state);
            st.down && st.epoch == epoch
        };
        if still_down {
            self.declare_dead(link.as_ref());
        }
    }

    /// Install a fresh stream on a link: replay everything the peer has
    /// not seen, publish the writer under a new epoch, start a reader.
    fn install(
        self: &Arc<Self>,
        link: &Arc<Link>,
        stream: TcpStream,
        peer_count: u64,
    ) -> Result<(), NetError> {
        let peer = link.peer;
        let reader_stream = stream
            .try_clone()
            .map_err(|e| NetError::io(format!("cloning restored stream to rank {peer}"), e))?;
        let log = lock(&link.log);
        let Some(replay) = log.replay_from(peer_count) else {
            drop(log);
            self.declare_dead(link.as_ref());
            return Err(NetError::protocol(format!(
                "rank {peer} resumed from frame {peer_count}, already evicted from the sent log"
            )));
        };
        let mut s = &stream;
        for entry in &replay {
            s.write_all(entry)
                .map_err(|e| NetError::io(format!("replaying sent log to rank {peer}"), e))?;
        }
        let mut writer = lock(&link.writer);
        let epoch = {
            let mut st = lock(&link.state);
            st.epoch += 1;
            st.down = false;
            st.repairing = false;
            st.epoch
        };
        *writer = Some(WriterSlot { stream, epoch });
        drop(writer);
        *lock(&link.last_heard) = Instant::now();
        let handle = self.spawn_reader(link, reader_stream, epoch)?;
        *lock(&link.reader) = Some(handle);
        drop(log);
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
        self.install(&Arc::clone(link), stream, 0)
    }

    /// Declare `peer` dead exactly once: stop all traffic and synthesize
    /// the [`tag::DEATH`] notification the envelope's failure protocol
    /// expects — from here on, the in-process and TCP failure paths are
    /// the same code.
    fn declare_dead(self: &Arc<Self>, link: &Link) {
        if link.dead.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut writer = lock(&link.writer);
            if let Some(slot) = writer.as_ref() {
                let _ = slot.stream.shutdown(Shutdown::Both);
            }
            *writer = None;
        }
        {
            let mut st = lock(&link.state);
            st.down = true;
            st.repairing = false;
        }
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let step = self
            .opts
            .death_steps
            .get(&link.peer)
            .copied()
            .unwrap_or(usize::MAX);
        let notice = WireFrame::control(link.peer, tag::DEATH, WireFrame::death_payload(step));
        let _ = self.tx.send(notice);
    }

    /// Reader thread for one installed stream: decode frames, answer
    /// pings, count and forward everything else. Exits (and marks the
    /// link down) on EOF or a decode failure.
    fn spawn_reader(
        self: &Arc<Self>,
        link: &Arc<Link>,
        stream: TcpStream,
        epoch: u64,
    ) -> Result<JoinHandle<()>, NetError> {
        let fabric = Arc::clone(self);
        let link = Arc::clone(link);
        let name = format!("rt-net-recv-{}-from-{}", self.rank, link.peer);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let mut stream = stream;
                let pong = encode_frame(&WireFrame::control(fabric.rank, tag::PONG, Vec::new()))
                    .unwrap_or_default();
                while let Ok(Some(frame)) = read_frame(&mut stream) {
                    *lock(&link.last_heard) = Instant::now();
                    match frame.tag {
                        tag::PING => {
                            let mut writer = lock(&link.writer);
                            if let Some(slot) = writer.as_mut() {
                                let _ = slot.stream.write_all(&pong);
                            }
                        }
                        tag::PONG => {}
                        tag => {
                            if tag == tag::DEATH {
                                // The peer announced its own death: no
                                // repair, and no second (synthesized)
                                // notification when its socket closes.
                                link.dead.store(true, Ordering::Release);
                            }
                            link.recv_count.fetch_add(1, Ordering::AcqRel);
                            if fabric.tx.send(frame).is_err() {
                                break;
                            }
                        }
                    }
                }
                fabric.mark_down(&link, epoch);
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
        let link = Arc::clone(link);
        s.read_exact(&mut buf).map_err(herr)?;
        let peer_count = u64::from_le_bytes(buf);
        quiesce(&link);
        let my_count = link.recv_count.load(Ordering::Acquire);
        s.write_all(&my_count.to_le_bytes())
            .map_err(|e| NetError::io("answering reconnect handshake", e))?;
        stream.set_read_timeout(None).map_err(herr)?;
        self.install(&link, stream, peer_count)
    }

    /// Background liveness: ping idle links; force down any link silent
    /// past the miss budget so a silently dead peer becomes a detectable
    /// EOF and enters the reconnect/death path.
    pub(crate) fn spawn_heartbeat(self: &Arc<Self>) {
        let Some(interval) = self.opts.heartbeat_interval else {
            return;
        };
        let stale_after = interval.saturating_mul(HEARTBEAT_MISSES);
        let fabric = Arc::clone(self);
        let ping =
            encode_frame(&WireFrame::control(self.rank, tag::PING, Vec::new())).unwrap_or_default();
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
                    let heard = lock(&link.last_heard).elapsed();
                    let mut writer = lock(&link.writer);
                    let Some(slot) = writer.as_mut() else {
                        continue;
                    };
                    let epoch = slot.epoch;
                    let failed = if heard > stale_after {
                        true
                    } else {
                        slot.stream.write_all(&ping).is_err()
                    };
                    if failed {
                        let _ = slot.stream.shutdown(Shutdown::Both);
                        *writer = None;
                        drop(writer);
                        fabric.link_down(link, epoch);
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
            let mut writer = lock(&link.writer);
            if let Some(slot) = writer.as_ref() {
                let _ = slot.stream.shutdown(Shutdown::Both);
            }
            *writer = None;
        }
        if let Ok(stream) = TcpStream::connect(self.addrs[self.rank]) {
            let mut s = &stream;
            let _ = s.write_all(&SHUTDOWN_HELLO.to_le_bytes());
        }
    }
}

/// Stop a link's current reader for good: shut the stream, join the
/// thread. Afterwards `recv_count` is final — the resume handshake
/// depends on that.
fn quiesce(link: &Link) {
    {
        let mut writer = lock(&link.writer);
        if let Some(slot) = writer.as_ref() {
            let _ = slot.stream.shutdown(Shutdown::Both);
        }
        *writer = None;
    }
    let handle = lock(&link.reader).take();
    if let Some(handle) = handle {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sent_log_replays_exactly_the_unseen_suffix() {
        let mut log = SentLog::new(1 << 20);
        for i in 0u8..5 {
            log.push(Arc::new(vec![i]));
        }
        let all = log.replay_from(0).unwrap();
        assert_eq!(all.len(), 5);
        let tail = log.replay_from(3).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(*tail[0], vec![3]);
        assert_eq!(*tail[1], vec![4]);
        assert!(log.replay_from(5).unwrap().is_empty());
    }

    #[test]
    fn sent_log_evicts_past_budget_and_reports_the_gap() {
        let mut log = SentLog::new(8);
        for i in 0u8..4 {
            log.push(Arc::new(vec![i; 4])); // 16 bytes total, budget 8
        }
        assert!(log.replay_from(0).is_none(), "evicted frames are a gap");
        let tail = log.replay_from(log.base).unwrap();
        assert!(!tail.is_empty());
        assert!(log.bytes <= 8);
    }

    #[test]
    fn sent_log_always_keeps_the_newest_frame() {
        let mut log = SentLog::new(2);
        log.push(Arc::new(vec![0; 64]));
        assert_eq!(log.replay_from(0).unwrap().len(), 1);
        log.push(Arc::new(vec![1; 64]));
        assert!(log.replay_from(0).is_none());
        assert_eq!(log.replay_from(1).unwrap().len(), 1);
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
