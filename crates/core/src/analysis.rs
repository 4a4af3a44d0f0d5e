//! Static schedule analysis: cost a [`Schedule`] *without executing it*.
//!
//! [`schedule_trace`] compiles a schedule into the trace a fault-free,
//! raw-codec, root-0-gather run of it records — event for event, which
//! integration tests check against executed runs — and [`analyze`] *is* the
//! virtual-clock replay ([`rt_comm::replay()`]) of that trace. The clock rules
//! live in the replay alone, and a tuner candidate and an executed frame
//! read their critical path ([`rt_comm::critical_path`]) from the same walk.
//! No threads and no pixels are involved, so this is the cheap way to sweep
//! large design spaces.
//!
//! Beyond the makespan, the analyzer reports the quantities the paper's
//! Table 1 tabulates per method — step count, messages, shipped volume —
//! plus the per-rank balance and the latency-only / bandwidth-only lower
//! bounds that explain *why* a schedule performs as it does.

use crate::schedule::{MergeDir, Schedule};
use crate::tile::schedule_tag_extents;
use rt_comm::{replay, tag, ComputeKind, CostModel, Event, Mark, RankTrace, ReplayReport, Trace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Static cost report for one schedule under one cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleCost {
    /// Virtual completion time of the composition steps (no gather): the
    /// replay's `compose:start` → `compose:end` phase.
    pub makespan: f64,
    /// Makespan including the coalesced gather to rank 0 (`compose:start`
    /// → `gather:end`).
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

/// The trace a fault-free run of `schedule` records under the raw codec
/// with the default [`crate::ComposeConfig`] (frame 0, gather to rank 0),
/// built without running it. Per step, each rank records its `step:K` mark,
/// its sends, then its receives, each with its `over` charge (none for a
/// [`MergeDir::Place`]); the deferred-back flushes and the coalesced gather
/// follow. `bytes_per_pixel` sizes every message as the raw codec ships it.
///
/// An executor refuses a schedule too large for the message-tag fields; the
/// trace of one still prices (replay matches on sequence numbers), with
/// every tag 0.
pub fn schedule_trace(schedule: &Schedule, bytes_per_pixel: usize) -> Trace {
    let p = schedule.p;
    let mut ranks: Vec<RankTrace> = vec![Vec::new(); p];
    let mark_all = |ranks: &mut [RankTrace], mark: Mark| {
        for events in ranks {
            events.push(Event::Mark { label: mark });
        }
    };
    let tagged = schedule_tag_extents(schedule, false).check().is_ok();
    let tag = |step: usize, low: usize| if tagged { tag::step(0, step, low) } else { 0 };
    let bytes = |px: usize| (px * bytes_per_pixel) as u64;
    let over = |px: usize| Event::Compute {
        kind: ComputeKind::Over,
        units: px as u64,
    };
    // Per directed channel `src · p + dst`, the next sequence number.
    let mut seqs = vec![0u64; p * p];
    let mut next_seq = |src: usize, dst: usize| {
        let seq = &mut seqs[src * p + dst];
        *seq += 1;
        *seq - 1
    };
    // Deferred back accumulators per rank: span start → pixels, flushed in
    // span order.
    let mut deferred: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); p];
    let flush = |ranks: &mut [RankTrace], deferred: &mut [BTreeMap<usize, usize>]| {
        mark_all(ranks, Mark::FlushStart);
        for (events, accs) in ranks.iter_mut().zip(deferred) {
            events.extend(std::mem::take(accs).into_values().map(over));
        }
    };

    mark_all(&mut ranks, Mark::ComposeStart);
    let mut step_seqs = Vec::new();
    for (k, step) in schedule.steps.iter().enumerate() {
        mark_all(&mut ranks, Mark::Step(k as u32));
        step_seqs.clear();
        for t in &step.transfers {
            let seq = next_seq(t.src, t.dst);
            ranks[t.src].push(Event::Send {
                to: t.dst,
                tag: tag(k, t.span.start),
                bytes: bytes(t.span.len),
                seq,
            });
            step_seqs.push(seq);
        }
        for (t, &seq) in step.transfers.iter().zip(&step_seqs) {
            let events = &mut ranks[t.dst];
            events.push(Event::Recv {
                from: t.src,
                tag: tag(k, t.span.start),
                bytes: bytes(t.span.len),
                seq,
            });
            // A placement is copied in, not composited.
            if t.dir != MergeDir::Place {
                events.push(over(t.span.len));
            }
            if t.dir == MergeDir::BackDefer {
                deferred[t.dst].insert(t.span.start, t.span.len);
            }
        }
        if step.flush {
            flush(&mut ranks, &mut deferred);
        }
    }
    flush(&mut ranks, &mut deferred);
    mark_all(&mut ranks, Mark::ComposeEnd);

    // Coalesced gather: each owner but the root ships its owned pixels in
    // one message, tagged one step past the last; the root receives them in
    // rank order.
    let gather_step = schedule.steps.len();
    let owners = schedule.owned_pixels();
    for (r, &px) in owners.iter().enumerate().skip(1).filter(|(_, px)| **px > 0) {
        let seq = next_seq(r, 0);
        let (tag, bytes) = (tag(gather_step, r), bytes(px));
        ranks[r].push(Event::Send {
            to: 0,
            tag,
            bytes,
            seq,
        });
        ranks[0].push(Event::Recv {
            from: r,
            tag,
            bytes,
            seq,
        });
    }
    mark_all(&mut ranks, Mark::GatherEnd);
    Trace { ranks }
}

/// Statically price `schedule` under `cost`, assuming `bytes_per_pixel`
/// bytes on the wire (2 for the `GrayAlpha8` format the benches use): the
/// replay of its [`schedule_trace`].
pub fn analyze(schedule: &Schedule, cost: &CostModel, bytes_per_pixel: usize) -> ScheduleCost {
    let trace = schedule_trace(schedule, bytes_per_pixel);
    // A compiled trace cannot get stuck — each receive's send is in the same
    // step and every rank sends before it receives — so the replay error
    // never occurs; were it to, NaN would rank the schedule last.
    let priced = |cost: &CostModel| replay(&trace, cost).ok();
    let phase = |report: &Option<ReplayReport>, end: Mark| {
        let start = Mark::ComposeStart.to_string();
        report
            .as_ref()
            .and_then(|r| r.phase(&start, &end.to_string()))
            .unwrap_or(f64::NAN)
    };
    let full = priced(cost);
    let latency = priced(&CostModel::new(cost.ts, 0.0, 0.0));

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
        makespan: phase(&full, Mark::ComposeEnd),
        makespan_with_gather: phase(&full, Mark::GatherEnd),
        steps: schedule.step_count(),
        messages: schedule.message_count(),
        pixels_shipped: schedule.pixels_shipped(),
        max_sent_pixels: sent.into_iter().max().unwrap_or(0),
        max_over_pixels: over.into_iter().max().unwrap_or(0),
        latency_depth: phase(&latency, Mark::ComposeEnd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotate::{self, RtVariant};
    use crate::Method;

    fn cost() -> CostModel {
        CostModel::new(1.0, 0.01, 0.001)
    }

    #[test]
    fn binary_swap_analysis_matches_hand_count() {
        // P = 2, A = 100: one step, two 50-px messages, each rank sends
        // once (1 + 50*2*0.01 = 2.0), waits for the partner (also 2.0),
        // composites 50 px (0.05). Makespan 2.05.
        let s = Method::BinarySwap.build(2, 100).unwrap();
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
        let s = Method::BinarySwap.build(8, 1 << 12).unwrap();
        let a = analyze(&s, &cost(), 2);
        // Three steps, one send per rank per step, partner symmetric:
        // depth = 3 startups.
        assert!((a.latency_depth - 3.0).abs() < 1e-12, "{a:?}");
    }

    #[test]
    fn rt_latency_depth_scales_with_blocks() {
        let a2 = analyze(
            &rotate::schedule(32, 1 << 14, RtVariant::TwoN, 2).unwrap(),
            &cost(),
            2,
        );
        let a8 = analyze(
            &rotate::schedule(32, 1 << 14, RtVariant::TwoN, 8).unwrap(),
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
            &Method::ParallelPipelined.build(12, 1200).unwrap(),
            &cost(),
            2,
        );
        assert!((a.latency_depth - 11.0).abs() < 1e-12, "{a:?}");
        assert_eq!(a.steps, 11);
    }

    #[test]
    fn balance_metrics_are_populated() {
        let s = rotate::schedule(6, 6000, RtVariant::TwoN, 4).unwrap();
        let a = analyze(&s, &cost(), 2);
        assert!(a.max_sent_pixels > 0);
        assert!(a.max_over_pixels > 0);
        assert!(a.max_sent_pixels <= a.pixels_shipped);
    }
}
