//! A drop-in [`rt_comm::Multicomputer`] analogue whose ranks talk over
//! loopback TCP sockets instead of in-process channels.
//!
//! Ranks are still threads of one process (one real socket pair per mesh
//! edge), which makes this the workhorse for cross-backend determinism
//! tests and examples: same `run(|ctx| …)` shape, same fault plans, same
//! observer wiring — only the transport underneath differs. Fully
//! separate OS processes go through [`crate::process`] instead.

use crate::link::TcpOptions;
use crate::tcp::TcpTransport;
use crate::topology::Topology;
use rt_comm::comm::RankCtx;
use rt_comm::{FaultPlan, Multicomputer, Trace};
use rt_obs::Observer;
use std::sync::Arc;
use std::time::Duration;

/// A machine of `size` ranks joined by loopback TCP.
///
/// Mirrors the [`rt_comm::Multicomputer`] builder API so call sites can
/// switch backends by swapping the constructor. It *is* that machine —
/// timeout, fault plan, observer and the rank launcher are its — plus the
/// socket mesh dialed for each run.
pub struct TcpMulticomputer {
    ranks: Multicomputer,
    topology: Topology,
}

impl From<Multicomputer> for TcpMulticomputer {
    /// The same machine (size, timeout, faults, observer) over loopback
    /// TCP, full mesh.
    fn from(ranks: Multicomputer) -> Self {
        Self {
            ranks,
            topology: Topology::FullMesh,
        }
    }
}

impl TcpMulticomputer {
    /// Create a machine with `size` ranks.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        Multicomputer::new(size).into()
    }

    /// Restrict establishment to a connection [`Topology`] (default:
    /// the full mesh). A closure that barriers needs a star on rank 0, the
    /// hub of the round — see [`Topology::with_star`] — and sends outside
    /// the topology fail typed, so only plan-driven closures should
    /// restrict.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Override the receive timeout (default 10 s). Link-level deadlines
    /// (reconnect budget, restore window, heartbeats) are derived from it
    /// via [`TcpOptions::scaled_to`], so socket failures resolve into the
    /// typed failure protocol before the envelope's deadline fires.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.ranks = self.ranks.with_timeout(timeout);
        self
    }

    /// Install a fault-injection plan. Faults are injected by the
    /// envelope above the transport, so the plan behaves exactly as on
    /// the in-process backend — same drops, same retransmits, same trace.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.ranks = self.ranks.with_faults(faults);
        self
    }

    /// Attach a wall-clock [`Observer`]; recorders are checked back in
    /// when all ranks have joined.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.ranks = self.ranks.with_observer(observer);
        self
    }

    /// Machine size.
    pub fn size(&self) -> usize {
        self.ranks.size()
    }

    /// Run `f` on every rank concurrently; returns the per-rank results
    /// and the merged event trace: [`rt_comm::Multicomputer::run_on`] over
    /// a freshly dialed loopback mesh.
    ///
    /// # Panics
    /// Panics if the loopback mesh cannot be established (no free ports,
    /// loopback disabled) or if any rank's closure panics.
    // An unusable host network is not a recoverable condition for a
    // test/example harness.
    #[allow(clippy::panic)]
    pub fn run<T, F>(&self, f: F) -> (Vec<T>, Trace)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        let p = self.size();
        let link = TcpOptions::scaled_to(self.ranks.timeout());
        let mesh = TcpTransport::loopback_topology(p, &self.topology, link)
            .unwrap_or_else(|e| panic!("loopback mesh of {p} ranks failed: {e}"));
        self.ranks.run_on(mesh, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass_matches_inproc_trace() {
        let ring = |ctx: &mut RankCtx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 1, vec![ctx.rank() as u8]).unwrap();
            let got = ctx.recv(prev, 1).unwrap();
            ctx.barrier().unwrap();
            got[0]
        };
        let (tcp_results, tcp_trace) = TcpMulticomputer::new(4).run(ring);
        let (inproc_results, inproc_trace) = Multicomputer::new(4).run(ring);
        assert_eq!(tcp_results, vec![3, 0, 1, 2]);
        assert_eq!(tcp_results, inproc_results);
        assert_eq!(tcp_trace, inproc_trace);
    }

    #[test]
    fn rank_panic_report_matches_inproc() {
        // Both backends launch ranks through `Multicomputer::run_on`, so a
        // panicking closure is attributed to its rank the same way.
        let boom = |ctx: &mut RankCtx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
        };
        let report = |run: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
            *payload.downcast::<String>().unwrap()
        };
        let tcp = report(&|| drop(TcpMulticomputer::new(3).run(boom)));
        let inproc = report(&|| drop(Multicomputer::new(3).run(boom)));
        assert_eq!(tcp, "1 rank(s) panicked — rank 1: boom");
        assert_eq!(tcp, inproc);
    }

    #[test]
    fn faulty_run_retransmits_identically_to_inproc() {
        // First frame 0→1 lost once; the envelope retransmits.
        let plan = || FaultPlan::none().drop_message(0, 1, 0);
        let exchange = |ctx: &mut RankCtx| {
            if ctx.rank() == 0 {
                ctx.send(1, 9, vec![5; 64]).unwrap();
            } else if ctx.rank() == 1 {
                assert_eq!(ctx.recv(0, 9).unwrap().as_slice(), &[5; 64][..]);
            }
            ctx.barrier().unwrap();
        };
        let (_, tcp_trace) = TcpMulticomputer::new(2).with_faults(plan()).run(exchange);
        let (_, inproc_trace) = Multicomputer::new(2).with_faults(plan()).run(exchange);
        assert_eq!(tcp_trace, inproc_trace);
        assert!(tcp_trace.retransmit_count() > 0, "the drop must be visible");
    }

    #[test]
    fn timeout_message_names_peer_and_tag_over_tcp() {
        // Same diagnostic contract as the in-process backend: a timeout
        // error formats to a message naming the peer rank and the tag.
        let mc = TcpMulticomputer::new(2).with_timeout(Duration::from_millis(30));
        let (results, _) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                Some(ctx.recv(1, 0x2a).expect_err("must time out").to_string())
            } else {
                None
            }
        });
        let msg = results[0].as_ref().expect("rank 0 reports the error");
        assert!(msg.contains("rank 1"), "peer missing from: {msg}");
        assert!(msg.contains("0x2a"), "tag missing from: {msg}");
    }
}
