//! Rendezvous protocol: how independent OS processes become a mesh.
//!
//! A **launcher** binds a rendezvous listener and spawns one worker
//! process per rank, handing each its coordinates through the environment
//! ([`ENV_RENDEZVOUS`], [`ENV_RANK`], [`ENV_WORLD`]). Each **worker**
//! binds its own mesh listener, connects back to the rendezvous address
//! and registers `(rank, mesh address)`; once all ranks have registered,
//! the launcher broadcasts the full address table and every worker runs
//! the mesh handshake of [`TcpTransport::establish`].
//!
//! The rendezvous stream stays open as a control channel: when its work is
//! done, a worker writes one length-prefixed result blob back to the
//! launcher ([`WorkerSession::send_result`] / [`Launcher::rendezvous`]'s
//! returned streams + [`read_blob`]). Results are typically
//! `serde_json`-encoded traces and stats, so the launcher can reconcile
//! the distributed run against an in-process reference.
//!
//! Failure handling: everything here returns a typed
//! [`NetError`] — a worker that dies before registering turns into a
//! rendezvous deadline ([`Launcher::rendezvous_within`]) instead of a
//! launcher hang, and a malformed registration names the offending rank.
//!
//! Wire details: every rendezvous message is little-endian, either a fixed
//! 8-byte integer or a `u32` length-prefixed blob. All streams set
//! `TCP_NODELAY`.

use crate::error::NetError;
use crate::link::TcpOptions;
use crate::tcp::TcpTransport;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::time::{Duration, Instant};

/// Environment variable carrying the launcher's rendezvous address.
pub const ENV_RENDEZVOUS: &str = "RT_NET_RENDEZVOUS";
/// Environment variable carrying this worker's rank.
pub const ENV_RANK: &str = "RT_NET_RANK";
/// Environment variable carrying the world size.
pub const ENV_WORLD: &str = "RT_NET_WORLD";

/// How often a deadline-bounded rendezvous polls its listener.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Write a `u32` length-prefixed byte blob.
pub fn write_blob(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "blob exceeds u32 length"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read a `u32` length-prefixed byte blob.
pub fn read_blob(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let mut bytes = vec![0u8; u32::from_le_bytes(len) as usize];
    r.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// The launcher half of the rendezvous: owns the listener the workers
/// call home to.
pub struct Launcher {
    listener: TcpListener,
}

impl Launcher {
    /// Bind the rendezvous listener on an ephemeral loopback port.
    pub fn bind() -> Result<Launcher, NetError> {
        Ok(Launcher {
            listener: TcpListener::bind("127.0.0.1:0")
                .map_err(|e| NetError::io("binding the rendezvous listener", e))?,
        })
    }

    /// The address workers must connect back to.
    pub fn addr(&self) -> Result<SocketAddr, NetError> {
        self.listener
            .local_addr()
            .map_err(|e| NetError::io("resolving the rendezvous address", e))
    }

    /// Stamp a worker [`Command`] with the environment a
    /// [`WorkerSession`] reads: rendezvous address, rank, world size.
    pub fn configure(&self, cmd: &mut Command, rank: usize, world: usize) -> Result<(), NetError> {
        cmd.env(ENV_RENDEZVOUS, self.addr()?.to_string())
            .env(ENV_RANK, rank.to_string())
            .env(ENV_WORLD, world.to_string());
        Ok(())
    }

    /// [`Launcher::rendezvous_within`] with no deadline (waits for every
    /// worker indefinitely).
    pub fn rendezvous(&self, world: usize) -> Result<Vec<TcpStream>, NetError> {
        self.rendezvous_within(world, None)
    }

    /// Accept registrations from all `world` workers, broadcast the mesh
    /// address table, and return the control streams **indexed by rank**.
    ///
    /// With a `deadline`, a worker that never registers (crashed at
    /// startup, wedged) fails the rendezvous with a typed error instead of
    /// hanging the launcher — the watchdog half of the chaos soak.
    ///
    /// After this returns, every worker is connected into the mesh (or in
    /// the middle of the handshake); read each worker's result blob from
    /// its control stream with [`read_blob`].
    pub fn rendezvous_within(
        &self,
        world: usize,
        deadline: Option<Duration>,
    ) -> Result<Vec<TcpStream>, NetError> {
        let started = Instant::now();
        let expired = |registered: usize| {
            NetError::protocol(format!(
                "rendezvous deadline passed with {registered} of {world} workers registered"
            ))
        };
        let mut controls: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
        let mut mesh_addrs: Vec<Option<SocketAddr>> = (0..world).map(|_| None).collect();
        if deadline.is_some() {
            self.listener
                .set_nonblocking(true)
                .map_err(|e| NetError::io("arming the rendezvous deadline", e))?;
        }
        for registered in 0..world {
            let mut stream = loop {
                match self.listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        let Some(limit) = deadline else { continue };
                        if started.elapsed() > limit {
                            return Err(expired(registered));
                        }
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) => return Err(NetError::io("accepting a worker registration", e)),
                }
            };
            stream
                .set_nonblocking(false)
                .map_err(|e| NetError::io("configuring a control stream", e))?;
            stream
                .set_nodelay(true)
                .map_err(|e| NetError::io("configuring a control stream", e))?;
            if let Some(limit) = deadline {
                let remaining = limit
                    .checked_sub(started.elapsed())
                    .ok_or_else(|| expired(registered))?;
                stream
                    .set_read_timeout(Some(remaining.max(ACCEPT_POLL)))
                    .map_err(|e| NetError::io("configuring a control stream", e))?;
            }
            let mut rank_bytes = [0u8; 8];
            stream
                .read_exact(&mut rank_bytes)
                .map_err(|e| NetError::io("reading a worker registration", e))?;
            let rank = u64::from_le_bytes(rank_bytes) as usize;
            if rank >= world {
                return Err(NetError::protocol(format!(
                    "worker registered rank {rank} outside world of {world}"
                )));
            }
            if controls[rank].is_some() {
                return Err(NetError::protocol(format!("rank {rank} registered twice")));
            }
            let addr_text = String::from_utf8(
                read_blob(&mut stream)
                    .map_err(|e| NetError::io(format!("reading rank {rank}'s mesh address"), e))?,
            )
            .map_err(|e| NetError::protocol(format!("rank {rank}'s mesh address: {e}")))?;
            let addr = addr_text
                .parse::<SocketAddr>()
                .map_err(|e| NetError::protocol(format!("rank {rank}'s mesh address: {e}")))?;
            stream
                .set_read_timeout(None)
                .map_err(|e| NetError::io("configuring a control stream", e))?;
            mesh_addrs[rank] = Some(addr);
            controls[rank] = Some(stream);
        }
        if deadline.is_some() {
            self.listener
                .set_nonblocking(false)
                .map_err(|e| NetError::io("disarming the rendezvous deadline", e))?;
        }
        let mut table = String::new();
        for (rank, addr) in mesh_addrs.iter().enumerate() {
            let addr =
                addr.ok_or_else(|| NetError::protocol(format!("rank {rank} never registered")))?;
            if rank > 0 {
                table.push('\n');
            }
            table.push_str(&addr.to_string());
        }
        let mut streams = Vec::with_capacity(world);
        for (rank, control) in controls.into_iter().enumerate() {
            let mut stream = control
                .ok_or_else(|| NetError::protocol(format!("rank {rank} never registered")))?;
            write_blob(&mut stream, table.as_bytes())
                .map_err(|e| NetError::io(format!("broadcasting the table to rank {rank}"), e))?;
            streams.push(stream);
        }
        Ok(streams)
    }
}

/// The worker half of the rendezvous: one per spawned rank process.
pub struct WorkerSession {
    /// This worker's rank.
    pub rank: usize,
    /// World size.
    pub world: usize,
    transport: Option<TcpTransport>,
    control: TcpStream,
}

impl WorkerSession {
    /// Join the world described by the environment: register with the
    /// launcher, receive the address table, run the mesh handshake with
    /// the given failure-handling options.
    ///
    /// Fails if the [`ENV_RENDEZVOUS`]/[`ENV_RANK`]/[`ENV_WORLD`]
    /// variables are absent or malformed.
    pub fn from_env_with(opts: TcpOptions) -> Result<WorkerSession, NetError> {
        let read_var = |name: &str| {
            std::env::var(name).map_err(|_| {
                NetError::protocol(format!("{name} not set — not spawned by a launcher"))
            })
        };
        let rendezvous: SocketAddr = read_var(ENV_RENDEZVOUS)?
            .parse()
            .map_err(|e| NetError::protocol(format!("{ENV_RENDEZVOUS}: {e}")))?;
        let rank: usize = read_var(ENV_RANK)?
            .parse()
            .map_err(|e| NetError::protocol(format!("{ENV_RANK}: {e}")))?;
        let world: usize = read_var(ENV_WORLD)?
            .parse()
            .map_err(|e| NetError::protocol(format!("{ENV_WORLD}: {e}")))?;

        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| NetError::io(format!("rank {rank} binding its mesh listener"), e))?;
        let mesh_addr = listener
            .local_addr()
            .map_err(|e| NetError::io(format!("rank {rank} resolving its mesh address"), e))?;
        let mut control = TcpStream::connect(rendezvous)
            .map_err(|e| NetError::io(format!("rank {rank} dialing the rendezvous"), e))?;
        control
            .set_nodelay(true)
            .map_err(|e| NetError::io("configuring the control stream", e))?;
        control
            .write_all(&(rank as u64).to_le_bytes())
            .map_err(|e| NetError::io(format!("rank {rank} registering"), e))?;
        write_blob(&mut control, mesh_addr.to_string().as_bytes())
            .map_err(|e| NetError::io(format!("rank {rank} publishing its mesh address"), e))?;
        let table = String::from_utf8(
            read_blob(&mut control)
                .map_err(|e| NetError::io(format!("rank {rank} reading the address table"), e))?,
        )
        .map_err(|e| NetError::protocol(format!("address table: {e}")))?;
        let addrs = table
            .lines()
            .map(|line| line.parse::<SocketAddr>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| NetError::protocol(format!("address table: {e}")))?;
        if addrs.len() != world {
            return Err(NetError::protocol(format!(
                "address table has {} entries for world of {world}",
                addrs.len()
            )));
        }
        let transport = TcpTransport::establish_with(rank, world, listener, &addrs, opts)?;
        Ok(WorkerSession {
            rank,
            world,
            transport: Some(transport),
            control,
        })
    }

    /// Take the established mesh endpoint; `None` after the first call.
    pub fn take_transport(&mut self) -> Option<TcpTransport> {
        self.transport.take()
    }

    /// Report a result blob back to the launcher over the control stream.
    pub fn send_result(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        write_blob(&mut self.control, bytes)
            .map_err(|e| NetError::io(format!("rank {} reporting its result", self.rank), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_comm::{RankCtx, RankOptions};

    #[test]
    fn blob_round_trip() {
        let mut buf = Vec::new();
        write_blob(&mut buf, b"hello").unwrap();
        assert_eq!(read_blob(&mut buf.as_slice()).unwrap(), b"hello");
    }

    /// Drive the full rendezvous in-process with threads standing in for
    /// worker processes (the multi-process path is exercised by the
    /// `netrank` binary in CI).
    #[test]
    fn rendezvous_builds_a_mesh_and_carries_results() {
        const WORLD: usize = 3;
        let launcher = Launcher::bind().unwrap();
        let addr = launcher.addr().unwrap();

        let workers: Vec<_> = (0..WORLD)
            .map(|rank| {
                std::thread::spawn(move || {
                    // Threads can't use from_env_with (the environment is
                    // process-global); replicate its protocol inline.
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let mesh_addr = listener.local_addr().unwrap();
                    let mut control = TcpStream::connect(addr).unwrap();
                    control.write_all(&(rank as u64).to_le_bytes()).unwrap();
                    write_blob(&mut control, mesh_addr.to_string().as_bytes()).unwrap();
                    let table = String::from_utf8(read_blob(&mut control).unwrap()).unwrap();
                    let addrs: Vec<SocketAddr> =
                        table.lines().map(|l| l.parse().unwrap()).collect();
                    let t = TcpTransport::establish(rank, WORLD, listener, &addrs).unwrap();
                    let mut ctx = RankCtx::over_transport(Box::new(t), RankOptions::default());
                    ctx.barrier().unwrap();
                    write_blob(&mut control, format!("rank{rank}").as_bytes()).unwrap();
                })
            })
            .collect();

        let mut controls = launcher
            .rendezvous_within(WORLD, Some(Duration::from_secs(30)))
            .unwrap();
        for (rank, control) in controls.iter_mut().enumerate() {
            let result = read_blob(control).unwrap();
            assert_eq!(result, format!("rank{rank}").into_bytes());
        }
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn rendezvous_deadline_fails_typed_when_workers_never_come() {
        let launcher = Launcher::bind().unwrap();
        let err = launcher
            .rendezvous_within(2, Some(Duration::from_millis(80)))
            .expect_err("no workers will ever register");
        let msg = err.to_string();
        assert!(msg.contains("0 of 2 workers"), "{msg}");
    }
}
