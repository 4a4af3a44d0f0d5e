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
//!
//! Two caveats, by design:
//!
//! * `RankCtx::barrier` is a message round through rank 0 (arrivals in,
//!   releases out), so worlds that call `barrier()` need a link from every
//!   rank to rank 0 — add [`Topology::with_star`] if the closure barriers.
//!   Plan-driven compositions never barrier.
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

    /// The peers `rank` holds a socket to, in ascending order.
    pub fn peers_of(&self, rank: usize, world: usize) -> Vec<usize> {
        (0..world).filter(|&p| self.connects(rank, p)).collect()
    }

    /// Total sockets a world of `world` ranks establishes (one per edge).
    pub fn socket_count(&self, world: usize) -> usize {
        match self {
            Topology::FullMesh => world * world.saturating_sub(1) / 2,
            Topology::Links(links) => links.len(),
        }
    }

    /// Add a star on `hub`: a link from every rank to `hub`. What a
    /// closure that barriers needs on a restricted topology (`hub = 0`, the
    /// hub of the barrier round in rt-comm); a no-op on
    /// [`Topology::FullMesh`].
    pub fn with_star(self, hub: usize, world: usize) -> Topology {
        match self {
            Topology::FullMesh => Topology::FullMesh,
            Topology::Links(mut links) => {
                for r in 0..world {
                    if r != hub {
                        links.insert((r.min(hub), r.max(hub)));
                    }
                }
                Topology::Links(links)
            }
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
        assert_eq!(t.peers_of(1, 4), vec![0, 2, 3]);
    }

    #[test]
    fn links_normalize_and_restrict() {
        let t = Topology::from_links([(3, 1), (1, 3), (2, 2), (0, 1)]);
        assert_eq!(t.socket_count(4), 2); // (1,3) deduplicated, (2,2) dropped
        assert!(t.connects(1, 3));
        assert!(t.connects(3, 1));
        assert!(!t.connects(0, 3));
        assert_eq!(t.peers_of(1, 4), vec![0, 3]);
        t.validate(4).unwrap();
        assert!(t.validate(3).is_err(), "edge (1,3) outside world of 3");
    }

    #[test]
    fn star_makes_a_restricted_world_barrier_capable() {
        let t = Topology::from_links([(1, 2)]).with_star(0, 4);
        for r in 1..4 {
            assert!(t.connects(0, r));
        }
        assert_eq!(t.socket_count(4), 4);
    }
}
