//! Which pairs of ranks get a socket: the connection topology.
//!
//! The classic mesh establishment dials every pair — `P(P−1)/2` sockets,
//! which at `P = 256` is over 32k streams and 65k file descriptors
//! across the world, far past default fd budgets. Plan-driven runs know
//! their communication graph ahead of time (a span schedule talks over
//! its transfers' pairs and the gather links only — for a hierarchical
//! schedule `O(P·k + (P/k)²)` edges), so [`Topology::Links`] restricts
//! establishment to exactly those edges. Everything above the socket
//! layer — the reliable-delivery envelope, reconnection, heartbeats,
//! death declaration — is untouched: it operates per established link.
//! Both of rt-net's transport constructors,
//! [`TcpTransport::establish`](crate::TcpTransport::establish) (one rank)
//! and [`TcpTransport::loopback`](crate::TcpTransport::loopback) (a world
//! in one process), take the topology.
//!
//! Two caveats, by design:
//!
//! * `RankCtx::barrier` is a message round through rank 0 (arrivals in,
//!   releases out), so worlds that call `barrier()` need a link from every
//!   rank to rank 0 — add every rank's edge to rank 0 with
//!   [`Topology::from_links`] if the closure barriers. Plan-driven
//!   compositions never barrier.
//! * Fault *repair* may route pieces between ranks the crash-free plan
//!   never pairs. A resilient run should keep [`Topology::FullMesh`];
//!   the restricted set is the fast path for crash-free scale runs.

use std::collections::BTreeSet;

/// The set of rank pairs that get a TCP connection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Topology {
    /// Every pair of ranks is connected (the classic mesh).
    #[default]
    FullMesh,
    /// Only the listed undirected pairs are connected. Pairs are stored
    /// normalized as `(low, high)`; self-pairs are meaningless (self
    /// sends never touch a socket) and rejected by [`Topology::validate`].
    Links(BTreeSet<(usize, usize)>),
}

impl Topology {
    /// Build a restricted topology from an edge list, normalizing each
    /// pair to `(low, high)` and dropping self-pairs.
    pub fn from_links(links: impl IntoIterator<Item = (usize, usize)>) -> Topology {
        Topology::Links(
            links
                .into_iter()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect(),
        )
    }

    /// Are `a` and `b` directly connected?
    pub fn connects(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        match self {
            Topology::FullMesh => true,
            Topology::Links(links) => links.contains(&(a.min(b), a.max(b))),
        }
    }

    /// Total sockets a world of `world` ranks establishes (one per edge).
    pub fn socket_count(&self, world: usize) -> usize {
        match self {
            Topology::FullMesh => world * world.saturating_sub(1) / 2,
            Topology::Links(links) => links.len(),
        }
    }

    /// Check every edge names two distinct in-range ranks.
    pub fn validate(&self, world: usize) -> Result<(), String> {
        if let Topology::Links(links) = self {
            for &(a, b) in links {
                if a >= b {
                    return Err(format!("edge ({a}, {b}) is not a normalized pair"));
                }
                if b >= world {
                    return Err(format!("edge ({a}, {b}) outside world of {world}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_connects_every_distinct_pair() {
        let t = Topology::FullMesh;
        assert!(t.connects(0, 5));
        assert!(t.connects(5, 0));
        assert!(!t.connects(3, 3));
        assert_eq!(t.socket_count(16), 120);
        assert!((0..4).filter(|&p| p != 1).all(|p| t.connects(1, p)));
    }

    #[test]
    fn links_normalize_and_restrict() {
        let t = Topology::from_links([(3, 1), (1, 3), (2, 2), (0, 1)]);
        assert_eq!(t.socket_count(4), 2); // (1,3) deduplicated, (2,2) dropped
        assert!(t.connects(1, 3));
        assert!(t.connects(3, 1));
        assert!(!t.connects(0, 3));
        assert!(!t.connects(1, 2));
        t.validate(4).unwrap();
        assert!(t.validate(3).is_err(), "edge (1,3) outside world of 3");
    }

    #[test]
    fn star_makes_a_restricted_world_barrier_capable() {
        let t = Topology::from_links((1..4).map(|r| (0, r)).chain([(1, 2)]));
        for r in 1..4 {
            assert!(t.connects(0, r));
        }
        assert_eq!(t.socket_count(4), 4);
    }
}
