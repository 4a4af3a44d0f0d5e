//! The TCP backend: real sockets between ranks, one endpoint per rank.
//!
//! A [`TcpTransport`] holds one [`crate::link`] per peer. Frames go out
//! length-prefixed (see [`crate::frame`]) on the link's stream, header and
//! payload in one vectored write and no payload byte copied; one
//! receive thread per peer reads frames off its stream and feeds them
//! into a single queue, preserving per-peer FIFO order — the same demux
//! contract as the in-process backend. Self-sends never touch a socket:
//! they loop back through the shared queue locally. That is the whole
//! [`Transport`]: `send_raw` logs and writes a frame, `recv_raw` is the
//! queue's `recv_timeout`, and no tag is interpreted — the barrier is a
//! message round in `rt_comm::RankCtx` that reaches this file as ordinary
//! frames.
//!
//! **Mesh establishment.** All listeners are bound *before* any address is
//! published, so connection order cannot deadlock: rank `r` actively
//! connects to every lower rank (the kernel backlog accepts the connection
//! even before the peer calls `accept`) and then accepts one connection
//! from every higher rank. The connector opens with an 8-byte handshake
//! naming its rank, so the acceptor files the stream under the right peer
//! regardless of arrival order. Every stream sets `TCP_NODELAY` — frames
//! are latency-bound composition traffic, not bulk streams.
//! After establishment the listener moves to a persistent accept loop that
//! serves **reconnections** (see [`crate::link`]): a lost stream is
//! re-dialed with a resume handshake and the sent-frame log — the frames
//! the peer has not acknowledged yet, held by reference — replays the gap,
//! so transient socket failures are invisible above the transport; a peer
//! that stays gone is declared dead through the envelope's
//! death-notification protocol.

use crate::error::NetError;
use crate::link::{Fabric, LinkStats, TcpOptions, WireFault};
use crate::topology::Topology;
use rt_comm::{RecvRawError, SendRawError, Transport, WireFrame};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// A [`Transport`] over per-peer `TcpStream`s with reconnection and
/// liveness (see the module docs).
///
/// Built by [`TcpTransport::establish`] (given a bound listener and the
/// full address table) or [`TcpTransport::loopback_mesh`] (threads in one
/// process, for tests and examples). Multi-process worlds get theirs
/// through the rendezvous in [`crate::process`].
pub struct TcpTransport {
    pub(crate) fabric: Arc<Fabric>,
    rx: Receiver<WireFrame>,
}

impl TcpTransport {
    /// Connect this rank into a full mesh with default [`TcpOptions`].
    ///
    /// `listener` must already be bound (its address is `addrs[rank]`),
    /// and every other rank must eventually call `establish` with the same
    /// address table. Connects to all lower ranks, accepts from all higher
    /// ranks, spawns one receive thread per peer.
    pub fn establish(
        rank: usize,
        world: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
    ) -> Result<TcpTransport, NetError> {
        TcpTransport::establish_with(rank, world, listener, addrs, TcpOptions::default())
    }

    /// [`TcpTransport::establish`] with explicit failure-handling options.
    pub fn establish_with(
        rank: usize,
        world: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        opts: TcpOptions,
    ) -> Result<TcpTransport, NetError> {
        TcpTransport::establish_topology(rank, world, listener, addrs, &Topology::FullMesh, opts)
    }

    /// [`TcpTransport::establish_with`] restricted to a connection
    /// [`Topology`]: only the topology's edges are dialed/accepted, so a
    /// plan-driven world pays `O(edges)` sockets instead of the full
    /// `O(P²)` mesh. Sends to an unconnected peer fail typed. Every rank
    /// must establish with the *same* topology, or establishment
    /// deadlocks on the mismatched edge.
    pub fn establish_topology(
        rank: usize,
        world: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        topology: &Topology,
        opts: TcpOptions,
    ) -> Result<TcpTransport, NetError> {
        assert!(world > 0, "a transport mesh needs at least one rank");
        assert!(rank < world, "rank {rank} outside world of {world}");
        assert_eq!(addrs.len(), world, "address table must cover every rank");
        topology.validate(world).map_err(NetError::protocol)?;
        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
        for peer in (0..rank).filter(|&p| topology.connects(rank, p)) {
            let stream = connect_with_retry(addrs[peer], rank, peer)?;
            let ctx = |what: &str| format!("rank {rank} {what} rank {peer}");
            stream
                .set_nodelay(true)
                .map_err(|e| NetError::io(ctx("configuring stream to"), e))?;
            let mut s = &stream;
            s.write_all(&(rank as u64).to_le_bytes())
                .map_err(|e| NetError::io(ctx("greeting"), e))?;
            streams[peer] = Some(stream);
        }
        let expected = (rank + 1..world)
            .filter(|&p| topology.connects(rank, p))
            .count();
        for _ in 0..expected {
            let (stream, _) = listener
                .accept()
                .map_err(|e| NetError::io(format!("rank {rank} accepting a mesh peer"), e))?;
            stream
                .set_nodelay(true)
                .map_err(|e| NetError::io("configuring accepted stream", e))?;
            let mut hello = [0u8; 8];
            let mut s = &stream;
            s.read_exact(&mut hello)
                .map_err(|e| NetError::io(format!("rank {rank} reading a mesh hello"), e))?;
            let peer = u64::from_le_bytes(hello) as usize;
            if peer <= rank || peer >= world {
                return Err(NetError::protocol(format!(
                    "handshake named rank {peer}, expected one in {}..{world}",
                    rank + 1
                )));
            }
            if !topology.connects(rank, peer) {
                return Err(NetError::protocol(format!(
                    "rank {peer} dialed in but the topology has no ({rank}, {peer}) edge"
                )));
            }
            let slot = &mut streams[peer];
            if slot.is_some() {
                return Err(NetError::protocol(format!("rank {peer} connected twice")));
            }
            *slot = Some(stream);
        }

        let (tx, rx) = channel::<WireFrame>();
        let fabric = Fabric::new(rank, world, addrs.to_vec(), opts, tx, topology);
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else { continue };
            fabric.install_initial(peer, stream)?;
        }
        fabric.spawn_accept_loop(listener)?;
        fabric.spawn_heartbeat();
        Ok(TcpTransport { fabric, rx })
    }

    /// Build a fully-connected world of `p` endpoints over loopback TCP,
    /// all inside the current process (one real socket pair per edge),
    /// with default [`TcpOptions`].
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn loopback_mesh(p: usize) -> Result<Vec<TcpTransport>, NetError> {
        TcpTransport::loopback_mesh_with(p, TcpOptions::default())
    }

    /// [`TcpTransport::loopback_mesh`] with explicit failure-handling
    /// options (shared by every endpoint).
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn loopback_mesh_with(p: usize, opts: TcpOptions) -> Result<Vec<TcpTransport>, NetError> {
        TcpTransport::loopback_topology(p, &Topology::FullMesh, opts)
    }

    /// A loopback world restricted to a connection [`Topology`]: every
    /// endpoint lives in this process (so the fd cost is `p` listeners
    /// plus *two* descriptors per edge), and only the topology's edges
    /// get sockets. Fails typed with [`NetError::TooManyRanks`] — before
    /// binding anything when the preflight estimate exceeds the
    /// process's open-file limit, or when the kernel says `EMFILE` /
    /// `ENFILE` mid-establishment.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn loopback_topology(
        p: usize,
        topology: &Topology,
        opts: TcpOptions,
    ) -> Result<Vec<TcpTransport>, NetError> {
        assert!(p > 0, "a transport mesh needs at least one rank");
        // Listeners + both ends of every edge, plus slack for the
        // process's existing descriptors (stdio, binaries, test files).
        let fds_needed = p + 2 * topology.socket_count(p) + 64;
        let fd_limit = fd_soft_limit();
        if let Some(limit) = fd_limit {
            if fds_needed > limit {
                return Err(NetError::TooManyRanks {
                    world: p,
                    fds_needed,
                    fd_limit,
                });
            }
        }
        let fd_error = |e: std::io::Error, context: &str| {
            // EMFILE (per-process) / ENFILE (system-wide): the budget ran
            // out even though the preflight passed.
            if matches!(e.raw_os_error(), Some(23) | Some(24)) {
                NetError::TooManyRanks {
                    world: p,
                    fds_needed,
                    fd_limit,
                }
            } else {
                NetError::io(context, e)
            }
        };
        let listeners: Vec<TcpListener> = (0..p)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()
            .map_err(|e| fd_error(e, "binding loopback mesh listeners"))?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()
            .map_err(|e| NetError::io("resolving loopback mesh addresses", e))?;
        let addrs = &addrs;
        let opts = &opts;
        let mut endpoints: Vec<Result<TcpTransport, NetError>> = Vec::with_capacity(p);
        std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    scope.spawn(move || {
                        TcpTransport::establish_topology(
                            rank,
                            p,
                            listener,
                            addrs,
                            topology,
                            opts.clone(),
                        )
                    })
                })
                .collect();
            for h in handles {
                endpoints.push(h.join().unwrap_or_else(|_| {
                    Err(NetError::protocol(
                        "mesh establishment thread panicked".to_string(),
                    ))
                }));
            }
        });
        endpoints.into_iter().collect()
    }

    /// Has `peer` been declared dead by this endpoint's fabric?
    pub fn peer_is_dead(&self, peer: usize) -> bool {
        self.fabric.is_dead(peer)
    }

    /// How many peers this endpoint holds a socket link to — `world − 1`
    /// on a full mesh, the rank's topology degree on a restricted world.
    pub fn link_count(&self) -> usize {
        self.fabric.link_count()
    }

    /// What the link to `peer` holds right now: the frames logged for
    /// replay, the peer's confirmed delivery count and the stream epoch.
    /// `None` for this rank itself and for a peer outside the topology.
    pub fn link_stats(&self, peer: usize) -> Option<LinkStats> {
        self.fabric.link_stats(peer)
    }

    /// [`Transport::send_raw`] with an optional socket-level fault
    /// injected on this specific write — the hook the chaos layer
    /// ([`crate::chaos::ChaosTransport`]) drives. A faulted write still
    /// logs the frame, so the reconnect path redelivers it.
    ///
    /// The contract of both: `Ok` once the frame is in the link's sent log,
    /// which means "will reach the peer unless it is declared dead" —
    /// nothing evicts a logged frame. The call may block: on a full socket
    /// while the link is up, or on a full log ([`crate::link::SENT_LOG_BUDGET`])
    /// while the link is down or the peer is behind on acknowledgements,
    /// until room appears or the link's death deadlines pass. `Err` only for
    /// a peer declared dead or one outside the topology.
    pub fn send_raw_faulty(
        &mut self,
        to: usize,
        frame: WireFrame,
        fault: Option<WireFault>,
    ) -> Result<(), SendRawError> {
        debug_assert!(to < self.fabric.world, "destination checked by the caller");
        if to == self.fabric.rank {
            return self.fabric.loopback(frame);
        }
        self.fabric.send_frame(to, &frame, fault)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.fabric.shut_down();
    }
}

/// The process's soft open-file limit, read from `/proc/self/limits`
/// (Linux). `None` elsewhere, or if the file is unreadable — the
/// preflight is then skipped and fd exhaustion surfaces as `EMFILE`.
fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Connect with a short retry loop: the address table guarantees the
/// listener is bound, but a loaded kernel can still transiently refuse.
fn connect_with_retry(addr: SocketAddr, rank: usize, peer: usize) -> Result<TcpStream, NetError> {
    const ATTEMPTS: u32 = 50;
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < ATTEMPTS {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
    let source = last.unwrap_or_else(|| std::io::ErrorKind::ConnectionRefused.into());
    Err(NetError::io(
        format!("rank {rank} dialing rank {peer} at {addr} ({ATTEMPTS} attempts)"),
        source,
    ))
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.fabric.rank
    }

    fn world_size(&self) -> usize {
        self.fabric.world
    }

    fn send_raw(&mut self, to: usize, frame: WireFrame) -> Result<(), SendRawError> {
        self.send_raw_faulty(to, frame, None)
    }

    fn recv_raw(&mut self, timeout: Duration) -> Result<WireFrame, RecvRawError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvRawError::Timeout,
            RecvTimeoutError::Disconnected => RecvRawError::Closed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(from: usize, tag: u64, payload: Vec<u8>) -> WireFrame {
        WireFrame::control(from, tag, payload)
    }

    /// Options that resolve failures fast enough for unit tests.
    fn tight() -> TcpOptions {
        TcpOptions {
            reconnect_attempts: 2,
            reconnect_backoff: Duration::from_millis(5),
            restore_deadline: Duration::from_millis(100),
            heartbeat_interval: Some(Duration::from_millis(20)),
        }
    }

    #[test]
    fn loopback_mesh_delivers_point_to_point_in_order() {
        let mut world = TcpTransport::loopback_mesh(2).unwrap();
        let mut b = world.pop().unwrap();
        let mut a = world.pop().unwrap();
        assert_eq!((a.rank(), b.rank()), (0, 1));
        a.send_raw(1, frame(0, 7, vec![1])).unwrap();
        a.send_raw(1, frame(0, 7, vec![2])).unwrap();
        let first = b.recv_raw(Duration::from_secs(5)).unwrap();
        let second = b.recv_raw(Duration::from_secs(5)).unwrap();
        assert_eq!(first.payload.as_slice(), &[1]);
        assert_eq!(second.payload.as_slice(), &[2]);
    }

    #[test]
    fn self_send_loops_back_without_a_socket() {
        let mut world = TcpTransport::loopback_mesh(1).unwrap();
        let mut t = world.pop().unwrap();
        t.send_raw(0, frame(0, 3, vec![9])).unwrap();
        assert_eq!(
            t.recv_raw(Duration::from_secs(1))
                .unwrap()
                .payload
                .as_slice(),
            &[9]
        );
    }

    #[test]
    fn recv_times_out_when_nothing_arrives() {
        let mut world = TcpTransport::loopback_mesh(2).unwrap();
        let mut a = world.remove(0);
        assert!(matches!(
            a.recv_raw(Duration::from_millis(30)),
            Err(RecvRawError::Timeout)
        ));
        assert!(matches!(
            a.recv_raw(Duration::ZERO),
            Err(RecvRawError::Timeout)
        ));
    }

    #[test]
    fn send_to_torn_down_peer_eventually_fails_typed() {
        let mut world = TcpTransport::loopback_mesh_with(2, tight()).unwrap();
        let b = world.pop().unwrap();
        let mut a = world.pop().unwrap();
        drop(b);
        // Sends keep succeeding (they are logged for the hoped-for
        // reconnect) until the restore deadline declares the peer dead.
        let mut failed = false;
        for _ in 0..400 {
            if a.send_raw(1, frame(0, 1, vec![0; 64])) == Err(SendRawError { to: 1 }) {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(failed, "sends to a closed peer must eventually error");
        assert!(a.peer_is_dead(1));
    }

    #[test]
    fn reset_fault_recovers_via_reconnect_and_replay() {
        let mut world = TcpTransport::loopback_mesh_with(2, tight()).unwrap();
        let mut b = world.pop().unwrap();
        let mut a = world.pop().unwrap();
        a.send_raw(1, frame(0, 7, vec![1])).unwrap();
        assert_eq!(
            b.recv_raw(Duration::from_secs(5))
                .unwrap()
                .payload
                .as_slice(),
            &[1]
        );
        // The reset tears the socket down without writing; the sent log
        // replays the frame once rank 1 re-dials.
        a.send_raw_faulty(1, frame(0, 7, vec![2]), Some(WireFault::Reset))
            .unwrap();
        a.send_raw(1, frame(0, 7, vec![3])).unwrap();
        assert_eq!(
            b.recv_raw(Duration::from_secs(5))
                .unwrap()
                .payload
                .as_slice(),
            &[2]
        );
        assert_eq!(
            b.recv_raw(Duration::from_secs(5))
                .unwrap()
                .payload
                .as_slice(),
            &[3]
        );
        assert!(!a.peer_is_dead(1), "a transient reset must not be a death");
    }

    #[test]
    fn truncated_frame_recovers_with_full_redelivery() {
        let mut world = TcpTransport::loopback_mesh_with(2, tight()).unwrap();
        let mut b = world.pop().unwrap();
        let mut a = world.pop().unwrap();
        a.send_raw_faulty(1, frame(0, 9, vec![7; 128]), Some(WireFault::Truncate))
            .unwrap();
        let got = b.recv_raw(Duration::from_secs(5)).unwrap();
        assert_eq!(got.payload.as_slice(), &[7; 128][..], "no torn frame");
    }

    /// `survivor`'s barrier after its only peer's endpoint was dropped must
    /// fail naming that peer, and on the link layer's verdict (rank 0's
    /// restore watchdog, rank 1's dial budget), not the 30 s receive
    /// deadline: the death notice, or the arrival frame refused outright.
    fn barrier_beside_a_dropped_peer(survivor: usize) {
        use rt_comm::{CommError, RankCtx, RankOptions};
        let mut world = TcpTransport::loopback_mesh_with(2, tight()).unwrap();
        let alive = world.swap_remove(survivor);
        drop(world);
        let opts = RankOptions {
            timeout: Some(Duration::from_secs(30)),
            ..RankOptions::default()
        };
        let started = std::time::Instant::now();
        let err = RankCtx::over_transport(Box::new(alive), opts)
            .barrier()
            .expect_err("barrier must fail");
        assert!(started.elapsed() < Duration::from_secs(10), "{err}");
        let gone = 1 - survivor;
        let refused = matches!(err, CommError::Disconnected { from, .. } if from == gone);
        assert!(
            err == CommError::RankFailed { rank: gone } || refused,
            "{err}"
        );
        assert!(err.to_string().contains(&format!("rank {gone}")), "{err}");
    }

    #[test]
    fn barrier_failure_names_dead_peer_and_tag_at_the_leader() {
        barrier_beside_a_dropped_peer(0);
    }

    #[test]
    fn barrier_failure_names_dead_leader_at_a_follower() {
        barrier_beside_a_dropped_peer(1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_mesh_panics() {
        let _ = TcpTransport::loopback_mesh(0);
    }

    #[test]
    fn restricted_topology_dials_only_its_edges() {
        // A 4-rank line 0—1—2—3: 3 sockets instead of the mesh's 6.
        let topo = Topology::from_links([(0, 1), (1, 2), (2, 3)]);
        let mut world = TcpTransport::loopback_topology(4, &topo, tight()).unwrap();
        let degrees: Vec<usize> = world.iter().map(|t| t.link_count()).collect();
        assert_eq!(degrees, vec![1, 2, 2, 1]);
        assert_eq!(degrees.iter().sum::<usize>(), 2 * topo.socket_count(4));
        // Connected pairs exchange frames normally.
        world[0].send_raw(1, frame(0, 7, vec![42])).unwrap();
        let got = world[1].recv_raw(Duration::from_secs(5)).unwrap();
        assert_eq!(got.payload.as_slice(), &[42]);
        // A send outside the topology fails typed, immediately.
        assert_eq!(
            world[0].send_raw(3, frame(0, 7, vec![0])),
            Err(SendRawError { to: 3 })
        );
        assert!(!world[0].peer_is_dead(3), "unconnected is not dead");
    }

    #[test]
    fn out_of_range_topology_edge_fails_establishment() {
        let topo = Topology::from_links([(0, 5)]);
        let Err(err) = TcpTransport::loopback_topology(2, &topo, tight()) else {
            panic!("edge (0, 5) cannot fit a world of 2");
        };
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
    }

    #[test]
    fn oversized_world_fails_typed_before_binding_sockets() {
        // The full mesh of 4096 ranks wants ~16.7M descriptors in one
        // process; no default fd limit allows that, so the preflight
        // must refuse with the typed error instead of letting the bind
        // loop die on EMFILE partway through.
        let Some(limit) = super::fd_soft_limit() else {
            return; // no /proc on this platform: preflight is skipped
        };
        let p = 4096;
        assert!(p + 2 * (p * (p - 1) / 2) + 64 > limit, "limit too lax");
        let Err(err) = TcpTransport::loopback_mesh_with(p, tight()) else {
            panic!("a 4096-rank single-process mesh must exceed the fd budget");
        };
        match err {
            NetError::TooManyRanks {
                world,
                fds_needed,
                fd_limit,
            } => {
                assert_eq!(world, p);
                assert!(fds_needed > limit);
                assert_eq!(fd_limit, Some(limit));
            }
            other => panic!("expected TooManyRanks, got: {other}"),
        }
        // The same world under a sparse topology fits the budget — the
        // preflight charges edges, not P².
        let line = Topology::from_links((0..64).map(|i| (i, i + 1)));
        assert!(65 + 2 * line.socket_count(p) + 64 < limit);
    }
}
