//! Static schedule analysis: cost a [`Schedule`] *without executing it*.
//!
//! The virtual-clock replay prices a recorded run; this module prices the
//! schedule directly, using the same timing semantics (eager sends charged
//! `Ts + bytes·Tp` to the sender, receives waiting for the matching send,
//! `To` per composited pixel, spans shipped uncompressed). For the raw
//! codec the two must agree **exactly** — asserted by integration tests —
//! which cross-validates both machineries; the analyzer is then the cheap
//! way to sweep large design spaces (no threads, no pixels).
//!
//! Beyond the makespan, the analyzer reports the quantities the paper's
//! Table 1 tabulates per method — step count, messages, shipped volume —
//! plus the per-rank balance and the latency-only / bandwidth-only lower
//! bounds that explain *why* a schedule performs as it does.

use crate::schedule::{MergeDir, Schedule};
use rt_comm::CostModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Static cost report for one schedule under one cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleCost {
    /// Virtual completion time of the composition steps (no gather),
    /// identical to the replay of an actual raw-codec run.
    pub makespan: f64,
    /// Makespan including the coalesced gather to rank 0.
    pub makespan_with_gather: f64,
    /// Communication steps.
    pub steps: usize,
    /// Total messages (composition only).
    pub messages: usize,
    /// Total pixels shipped (composition only).
    pub pixels_shipped: usize,
    /// Largest per-rank share of shipped pixels (send side).
    pub max_sent_pixels: usize,
    /// Largest per-rank composited pixel count.
    pub max_over_pixels: usize,
    /// Pure-latency critical path: the makespan when `Tp = To = 0`
    /// (counts serialized message startups along the critical chain).
    pub latency_depth: f64,
}

/// Internal simulator state shared by the two passes.
struct Sim<'a> {
    schedule: &'a Schedule,
    bytes_per_pixel: usize,
    cost: CostModel,
}

impl Sim<'_> {
    /// Run the dependency simulation; returns per-rank clocks after the
    /// composition steps and after the gather.
    fn run(&self) -> (Vec<f64>, Vec<f64>) {
        let p = self.schedule.p;
        let mut clocks = vec![0.0f64; p];
        // Deferred back accumulators (span start → pixels, per rank) cost
        // one more `over` pass each at the next flush point.
        let mut deferred: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); p];
        let over = |px: usize| {
            self.cost
                .compute_time(rt_comm::ComputeKind::Over, px as u64)
        };
        let flush = |clocks: &mut [f64], deferred: &mut [BTreeMap<usize, usize>]| {
            for (clock, accs) in clocks.iter_mut().zip(deferred) {
                for px in std::mem::take(accs).into_values() {
                    *clock += over(px);
                }
            }
        };
        for step in &self.schedule.steps {
            // Senders push their messages in schedule order; arrival time
            // is the sender's clock after pushing. Receivers then merge in
            // schedule order. This matches the executor exactly: sends
            // first, then receives, per rank, in transfer order.
            let mut arrivals: Vec<f64> = Vec::with_capacity(step.transfers.len());
            let mut send_clock = clocks.clone();
            for t in &step.transfers {
                let bytes = (t.span.len * self.bytes_per_pixel) as u64;
                send_clock[t.src] += self.cost.message_time(bytes);
                arrivals.push(send_clock[t.src]);
            }
            let mut recv_clock = send_clock;
            for (t, arrival) in step.transfers.iter().zip(&arrivals) {
                if *arrival > recv_clock[t.dst] {
                    recv_clock[t.dst] = *arrival;
                }
                recv_clock[t.dst] += self.cost.tr;
                // A placement is copied in, not composited.
                if t.dir != MergeDir::Place {
                    recv_clock[t.dst] += over(t.span.len);
                }
                if t.dir == MergeDir::BackDefer {
                    deferred[t.dst].insert(t.span.start, t.span.len);
                }
            }
            clocks = recv_clock;
            if step.flush {
                flush(&mut clocks, &mut deferred);
            }
        }
        flush(&mut clocks, &mut deferred);
        let compose = clocks.clone();

        // Coalesced gather to rank 0: each owner ships its owned pixels in
        // one message; the root's finish is the latest arrival.
        let owned = self.schedule.owned_pixels();
        let mut root_finish = clocks[0];
        for (r, px) in owned.iter().enumerate() {
            if r == 0 || *px == 0 {
                continue;
            }
            let bytes = (px * self.bytes_per_pixel) as u64;
            clocks[r] += self.cost.message_time(bytes);
            // Root receives in rank order, paying `tr` per message.
            root_finish = root_finish.max(clocks[r]) + self.cost.tr;
        }
        clocks[0] = root_finish;
        (compose, clocks)
    }
}

/// Statically price `schedule` under `cost`, assuming `bytes_per_pixel`
/// bytes on the wire (2 for the `GrayAlpha8` format the benches use).
pub fn analyze(schedule: &Schedule, cost: &CostModel, bytes_per_pixel: usize) -> ScheduleCost {
    let sim = Sim {
        schedule,
        bytes_per_pixel,
        cost: *cost,
    };
    let (compose, with_gather) = sim.run();

    let latency_cost = CostModel::new(cost.ts, 0.0, 0.0);
    let latency_sim = Sim {
        schedule,
        bytes_per_pixel,
        cost: latency_cost,
    };
    let (latency_compose, _) = latency_sim.run();

    let p = schedule.p;
    let mut sent = vec![0usize; p];
    let mut over = vec![0usize; p];
    for step in &schedule.steps {
        for t in &step.transfers {
            sent[t.src] += t.span.len;
            if t.dir != MergeDir::Place {
                over[t.dst] += t.span.len;
            }
        }
    }

    ScheduleCost {
        makespan: compose.iter().cloned().fold(0.0, f64::max),
        makespan_with_gather: with_gather.iter().cloned().fold(0.0, f64::max),
        steps: schedule.step_count(),
        messages: schedule.message_count(),
        pixels_shipped: schedule.pixels_shipped(),
        max_sent_pixels: sent.into_iter().max().unwrap_or(0),
        max_over_pixels: over.into_iter().max().unwrap_or(0),
        latency_depth: latency_compose.iter().cloned().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::CompositionMethod;
    use crate::{BinarySwap, ParallelPipelined, RotateTiling};

    fn cost() -> CostModel {
        CostModel::new(1.0, 0.01, 0.001)
    }

    #[test]
    fn binary_swap_analysis_matches_hand_count() {
        // P = 2, A = 100: one step, two 50-px messages, each rank sends
        // once (1 + 50*2*0.01 = 2.0), waits for the partner (also 2.0),
        // composites 50 px (0.05). Makespan 2.05.
        let s = BinarySwap::new().build(2, 100).unwrap();
        let a = analyze(&s, &cost(), 2);
        assert!((a.makespan - 2.05).abs() < 1e-12, "{a:?}");
        assert_eq!(a.steps, 1);
        assert_eq!(a.messages, 2);
        assert_eq!(a.pixels_shipped, 100);
        // Gather: rank 1 ships its 50 px to rank 0: 2.05 + 2.0.
        assert!((a.makespan_with_gather - 4.05).abs() < 1e-12, "{a:?}");
    }

    #[test]
    fn latency_depth_counts_startups_only() {
        let s = BinarySwap::new().build(8, 1 << 12).unwrap();
        let a = analyze(&s, &cost(), 2);
        // Three steps, one send per rank per step, partner symmetric:
        // depth = 3 startups.
        assert!((a.latency_depth - 3.0).abs() < 1e-12, "{a:?}");
    }

    #[test]
    fn rt_latency_depth_scales_with_blocks() {
        let a2 = analyze(
            &RotateTiling::two_n(2).build(32, 1 << 14).unwrap(),
            &cost(),
            2,
        );
        let a8 = analyze(
            &RotateTiling::two_n(8).build(32, 1 << 14).unwrap(),
            &cost(),
            2,
        );
        assert!(a8.latency_depth > a2.latency_depth);
        // B = 2 at a power of two matches binary-swap's depth (= log2 P).
        assert!((a2.latency_depth - 5.0).abs() < 1e-12, "{a2:?}");
    }

    #[test]
    fn pipelined_depth_is_linear_in_p() {
        let a = analyze(
            &ParallelPipelined::new().build(12, 1200).unwrap(),
            &cost(),
            2,
        );
        assert!((a.latency_depth - 11.0).abs() < 1e-12, "{a:?}");
        assert_eq!(a.steps, 11);
    }

    #[test]
    fn balance_metrics_are_populated() {
        let s = RotateTiling::two_n(4).build(6, 6000).unwrap();
        let a = analyze(&s, &cost(), 2);
        assert!(a.max_sent_pixels > 0);
        assert!(a.max_over_pixels > 0);
        assert!(a.max_sent_pixels <= a.pixels_shipped);
    }
}
