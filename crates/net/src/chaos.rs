//! Socket-level chaos: deterministic fault injection *below* the
//! envelope.
//!
//! `rt-comm`'s [`FaultPlan`](rt_comm::FaultPlan) injects faults the
//! envelope can see (dropped frames, corrupted payloads, planned
//! crashes). This module injects the faults only a real network has:
//! connection resets, partial writes, frames truncated mid-payload,
//! delayed and stalled delivery. A [`ChaosTransport`] wraps a
//! [`TcpTransport`] and consults a seeded [`NetFaultPlan`] on every
//! outgoing frame — the plan is pure data, so a launcher and its worker
//! processes compute identical schedules from `(scenario, seed, rank)`
//! without shipping bytes.
//!
//! The crucial property: every injected fault is **recovered inside the
//! transport** (reconnect + sent-log replay, see [`crate::link`]) or
//! **escalated through the typed failure path** (peer declared dead →
//! [`tag::DEATH`] → repair planner). The envelope's event trace therefore
//! stays bit-identical to a fault-free run for recoverable faults — the
//! reconciliation the chaos soak (`rt-bench`'s `chaos --transport tcp`)
//! gates on.
//!
//! Death swallowing: a scenario that kills a worker process wants the
//! victim's voluntary death announcements suppressed, so the survivors
//! must detect the death at the socket level (EOF → restore deadline →
//! synthesized [`tag::DEATH`]), exactly like a real `SIGKILL`.
//! [`NetFaultPlan::swallow_death`] arranges that.

use crate::link::WireFault;
use crate::tcp::TcpTransport;
use rt_comm::tag;
use rt_comm::{RecvRawError, SendRawError, Transport, WireFrame};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// A seeded schedule of socket-level faults, keyed by `(destination
/// rank, nth outgoing data frame to that destination)`. Mirrors
/// [`FaultPlan`](rt_comm::FaultPlan)'s builder style.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    seed: u64,
    resets: HashSet<(usize, u64)>,
    partials: HashMap<(usize, u64), usize>,
    truncates: HashSet<(usize, u64)>,
    delays: HashMap<(usize, u64), Duration>,
    stalls: HashMap<(usize, u64), Duration>,
    reset_rate: f64,
    swallow_death: bool,
}

impl NetFaultPlan {
    /// No faults.
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// Seed the probabilistic faults ([`NetFaultPlan::reset_rate`]); plans
    /// with the same seed make identical decisions.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Reset the connection instead of writing the `nth` frame to `to`
    /// (the frame itself is never lost — the reconnect replays it).
    pub fn reset(mut self, to: usize, nth: u64) -> Self {
        self.resets.insert((to, nth));
        self
    }

    /// Write only the first `bytes` bytes of the `nth` frame to `to`,
    /// then reset the connection.
    pub fn partial_write(mut self, to: usize, nth: u64, bytes: usize) -> Self {
        self.partials.insert((to, nth), bytes);
        self
    }

    /// Cut the `nth` frame to `to` mid-payload (full header, half the
    /// payload), then reset the connection.
    pub fn truncate_frame(mut self, to: usize, nth: u64) -> Self {
        self.truncates.insert((to, nth));
        self
    }

    /// Sleep `by` before sending the `nth` frame to `to` (jitter inside
    /// deadlines).
    pub fn delay(mut self, to: usize, nth: u64, by: Duration) -> Self {
        self.delays.insert((to, nth), by);
        self
    }

    /// Sleep `by` before sending the `nth` frame to `to` — a stalled
    /// peer; long stalls trip the receiver's envelope deadline.
    pub fn stall(mut self, to: usize, nth: u64, by: Duration) -> Self {
        self.stalls.insert((to, nth), by);
        self
    }

    /// Additionally reset each outgoing frame with probability `rate`,
    /// decided by the seed (a reset storm).
    pub fn reset_rate(mut self, rate: f64) -> Self {
        self.reset_rate = rate;
        self
    }

    /// Suppress outgoing [`tag::DEATH`] announcements so peers must detect
    /// this rank's death at the socket level (kill scenarios).
    pub fn swallow_death(mut self) -> Self {
        self.swallow_death = true;
        self
    }

    /// Is death swallowing on?
    pub fn swallows_death(&self) -> bool {
        self.swallow_death
    }

    /// The fault (if any) scheduled for the `nth` outgoing frame to `to`.
    /// Explicit faults win over the probabilistic reset rate.
    pub fn fault_for(&self, to: usize, nth: u64) -> Option<WireFault> {
        if self.resets.contains(&(to, nth)) {
            return Some(WireFault::Reset);
        }
        if let Some(&bytes) = self.partials.get(&(to, nth)) {
            return Some(WireFault::Partial(bytes));
        }
        if self.truncates.contains(&(to, nth)) {
            return Some(WireFault::Truncate);
        }
        if let Some(&by) = self.delays.get(&(to, nth)) {
            return Some(WireFault::Delay(by));
        }
        if let Some(&by) = self.stalls.get(&(to, nth)) {
            return Some(WireFault::Stall(by));
        }
        if self.reset_rate > 0.0 {
            let draw = splitmix(
                self.seed
                    .wrapping_add((to as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .wrapping_add(nth.wrapping_mul(0xbf58_476d_1ce4_e5b9)),
            );
            if ((draw >> 11) as f64 / (1u64 << 53) as f64) < self.reset_rate {
                return Some(WireFault::Reset);
            }
        }
        None
    }
}

/// SplitMix64: the same cheap bijective mixer the rest of the workspace
/// uses for seeded decisions.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`Transport`] that injects the scheduled socket faults on the way
/// into a wrapped [`TcpTransport`].
///
/// Frame counting is per destination and follows the envelope's send
/// sequence: the link fabric's own traffic (heartbeats, acknowledgements)
/// never passes through [`Transport::send_raw`], and the frames of a
/// `RankCtx::barrier` round, which do, pass uncounted and unfaulted — so a
/// plan written against the sends of a composition does not shift when a
/// barrier is added before or after it.
pub struct ChaosTransport {
    inner: TcpTransport,
    plan: NetFaultPlan,
    outgoing: Vec<u64>,
}

impl ChaosTransport {
    /// Wrap `inner`, injecting faults from `plan`.
    pub fn new(inner: TcpTransport, plan: NetFaultPlan) -> Self {
        let world = inner.world_size();
        ChaosTransport {
            inner,
            plan,
            outgoing: vec![0; world],
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &TcpTransport {
        &self.inner
    }
}

impl Transport for ChaosTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send_raw(&mut self, to: usize, frame: WireFrame) -> Result<(), SendRawError> {
        if self.plan.swallow_death && frame.tag == tag::DEATH {
            // The announcement evaporates before the wire: peers must
            // discover this death at the socket level.
            return Ok(());
        }
        if to == self.inner.rank() || tag::is_barrier(frame.tag) {
            return self.inner.send_raw(to, frame);
        }
        let nth = self.outgoing[to];
        self.outgoing[to] += 1;
        let fault = self.plan.fault_for(to, nth);
        self.inner.send_raw_faulty(to, frame, fault)
    }

    fn recv_raw(&mut self, timeout: Duration) -> Result<WireFrame, RecvRawError> {
        self.inner.recv_raw(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TcpOptions, Topology};

    #[test]
    fn explicit_faults_fire_exactly_where_scheduled() {
        let plan = NetFaultPlan::none()
            .reset(1, 3)
            .partial_write(2, 0, 10)
            .truncate_frame(1, 5)
            .delay(0, 1, Duration::from_millis(2))
            .stall(0, 2, Duration::from_millis(9));
        assert_eq!(plan.fault_for(1, 3), Some(WireFault::Reset));
        assert_eq!(plan.fault_for(2, 0), Some(WireFault::Partial(10)));
        assert_eq!(plan.fault_for(1, 5), Some(WireFault::Truncate));
        assert_eq!(
            plan.fault_for(0, 1),
            Some(WireFault::Delay(Duration::from_millis(2)))
        );
        assert_eq!(
            plan.fault_for(0, 2),
            Some(WireFault::Stall(Duration::from_millis(9)))
        );
        assert_eq!(plan.fault_for(1, 4), None);
        assert_eq!(plan.fault_for(3, 3), None);
    }

    #[test]
    fn reset_rate_is_seed_deterministic() {
        let a = NetFaultPlan::none().with_seed(7).reset_rate(0.3);
        let b = NetFaultPlan::none().with_seed(7).reset_rate(0.3);
        let c = NetFaultPlan::none().with_seed(8).reset_rate(0.3);
        let draws = |p: &NetFaultPlan| -> Vec<bool> {
            (0..200).map(|n| p.fault_for(1, n).is_some()).collect()
        };
        assert_eq!(draws(&a), draws(&b), "same seed, same storm");
        assert_ne!(draws(&a), draws(&c), "different seed, different storm");
        let hits = draws(&a).iter().filter(|&&x| x).count();
        assert!(
            (20..=100).contains(&hits),
            "rate 0.3 over 200 draws hit {hits} times"
        );
    }

    #[test]
    fn chaos_transport_is_transparent_when_the_plan_is_empty() {
        let mut world =
            TcpTransport::loopback(2, &Topology::FullMesh, TcpOptions::default()).unwrap();
        let mut b = ChaosTransport::new(world.pop().unwrap(), NetFaultPlan::none());
        let mut a = ChaosTransport::new(world.pop().unwrap(), NetFaultPlan::none());
        let f = WireFrame {
            from: 0,
            tag: 4,
            seq: 0,
            checksum: 0,
            payload: rt_comm::Payload::from(vec![5, 6]),
        };
        a.send_raw(1, f).unwrap();
        assert_eq!(
            b.recv_raw(Duration::from_secs(5))
                .unwrap()
                .payload
                .as_slice(),
            &[5, 6]
        );
    }

    #[test]
    fn scheduled_reset_recovers_without_loss_or_reorder() {
        let tight = crate::link::TcpOptions {
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(5),
            restore_deadline: Duration::from_millis(500),
            ..crate::link::TcpOptions::default()
        };
        let mut world = TcpTransport::loopback(2, &Topology::FullMesh, tight).unwrap();
        let mut b = world.pop().unwrap();
        let mut a = ChaosTransport::new(world.pop().unwrap(), NetFaultPlan::none().reset(1, 1));
        for i in 0..4u8 {
            let f = WireFrame {
                from: 0,
                tag: 9,
                seq: i as u64,
                checksum: 0,
                payload: rt_comm::Payload::from(vec![i]),
            };
            a.send_raw(1, f).unwrap();
        }
        for i in 0..4u8 {
            let got = b.recv_raw(Duration::from_secs(5)).unwrap();
            assert_eq!(got.payload.as_slice(), &[i], "frame {i} in order");
        }
    }

    #[test]
    fn barrier_round_frames_pass_uncounted_and_unfaulted() {
        let mut world =
            TcpTransport::loopback(2, &Topology::FullMesh, TcpOptions::default()).unwrap();
        let mut b = world.pop().unwrap();
        let mut a = ChaosTransport::new(world.pop().unwrap(), NetFaultPlan::none().reset(1, 0));
        let round = WireFrame::control(0, tag::barrier(3), Vec::new());
        a.send_raw(1, round).unwrap();
        let got = b.recv_raw(Duration::from_secs(5)).unwrap();
        assert_eq!(got.tag, tag::barrier(3));
        assert_eq!(b.link_stats(0).unwrap().epoch, 1, "no reset spent on it");
        // The reset scheduled for frame 0 still waits for the first data
        // frame, which then arrives over the re-dialed stream.
        a.send_raw(1, WireFrame::control(0, 9, vec![1])).unwrap();
        assert_eq!(b.recv_raw(Duration::from_secs(5)).unwrap().tag, 9);
        assert_eq!(b.link_stats(0).unwrap().epoch, 2);
    }

    #[test]
    fn swallowed_death_never_reaches_the_wire() {
        let mut world =
            TcpTransport::loopback(2, &Topology::FullMesh, TcpOptions::default()).unwrap();
        let mut b = world.pop().unwrap();
        let mut a = ChaosTransport::new(world.pop().unwrap(), NetFaultPlan::none().swallow_death());
        let death = WireFrame::control(0, tag::DEATH, WireFrame::death_payload(0));
        a.send_raw(1, death).unwrap();
        let f = WireFrame {
            from: 0,
            tag: 2,
            seq: 0,
            checksum: 0,
            payload: rt_comm::Payload::from(vec![1]),
        };
        a.send_raw(1, f).unwrap();
        // Only the data frame arrives; the death was swallowed.
        let got = b.recv_raw(Duration::from_secs(5)).unwrap();
        assert_eq!(got.tag, 2);
        assert!(b.recv_raw(Duration::ZERO).is_err());
    }
}
