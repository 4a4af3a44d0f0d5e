//! Virtual-clock replay: price a recorded trace with a [`CostModel`].
//!
//! The replay walks every rank's event list in order, advancing a per-rank
//! virtual clock:
//!
//! * `Send { bytes }` — the sender is busy for `Ts + bytes·Tp` (an eager,
//!   sender-driven transfer, the model used throughout the paper's
//!   Section 2.3); the message becomes available to the receiver when the
//!   sender finishes pushing it;
//! * `Recv` — the receiver waits (if necessary) until the matching send has
//!   finished; matching is by `(src, dst, seq)`, so replay is deterministic
//!   regardless of the thread interleaving of the recorded run;
//! * `Compute { kind, units }` — the rank is busy for the model's per-unit
//!   cost;
//! * `Barrier` — all ranks align to the latest arrival;
//! * `Mark` — records the rank's current clock under the label.
//!
//! The result is the *composition time* the paper plots: the maximum rank
//! clock (optionally between two marks).

use crate::cost::{ComputeKind, CostModel};
use crate::mark::{Cursor, Mark};
use crate::trace::{Event, Trace};
use rt_obs::{Phase, PhaseTotals, RankTimeline, SpanRec};
use std::collections::{BTreeMap, HashMap};

/// Replay failure: the trace is internally inconsistent.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// A rank's next event is a `Recv` whose matching `Send` never appears —
    /// replay cannot make progress.
    Stuck {
        /// The blocked rank.
        rank: usize,
        /// Index of the blocked event within the rank's history.
        event_index: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Stuck { rank, event_index } => write!(
                f,
                "replay stuck: rank {rank} blocked at event {event_index} with no matching send/barrier"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Priced summary of one rank's activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// Virtual time at which the rank finished its last event.
    pub finish: f64,
    /// Time spent pushing messages (`Σ Ts + bytes·Tp`).
    pub send_time: f64,
    /// Time spent blocked waiting for messages or barriers.
    pub wait_time: f64,
    /// Time spent in "over" composition.
    pub over_time: f64,
    /// Time spent encoding/decoding codecs.
    pub codec_time: f64,
    /// Time spent rendering.
    pub render_time: f64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Retransmissions performed by the reliable-delivery layer.
    pub retransmits: u64,
    /// Time spent in acknowledgement-timeout backoff before retransmitting.
    pub backoff_time: f64,
    /// Receiver-side per-message overhead (`Σ tr`; zero in the presets).
    pub recv_overhead_time: f64,
    /// Bytes sent (post-compression, as recorded, including retransmits).
    pub bytes_sent: u64,
}

impl RankStats {
    /// This rank's accounts in the shape `rt-obs` reconciles against a
    /// virtual timeline (see [`rt_obs::reconcile()`]).
    pub fn phase_totals(&self) -> PhaseTotals {
        PhaseTotals {
            finish: self.finish,
            send: self.send_time,
            wait: self.wait_time,
            backoff: self.backoff_time,
            over: self.over_time,
            codec: self.codec_time,
            render: self.render_time,
            recv_overhead: self.recv_overhead_time,
        }
    }
}

/// The priced outcome of a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Per-rank summaries.
    pub ranks: Vec<RankStats>,
    /// `max` over ranks of `finish` — the run's virtual makespan.
    pub makespan: f64,
    /// Clock value per `(label, rank)` for every mark that the rank emitted.
    pub marks: BTreeMap<String, Vec<Option<f64>>>,
}

impl ReplayReport {
    /// Duration of a phase delimited by two marks: the latest rank to pass
    /// `end` minus the earliest rank to pass `start`. Returns `None` if no
    /// rank emitted one of the marks.
    pub fn phase(&self, start: &str, end: &str) -> Option<f64> {
        let start_t = self
            .marks
            .get(start)?
            .iter()
            .flatten()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let end_t = self
            .marks
            .get(end)?
            .iter()
            .flatten()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        (start_t.is_finite() && end_t.is_finite()).then_some(end_t - start_t)
    }

    /// Total time spent waiting across all ranks (load-imbalance indicator).
    pub fn total_wait(&self) -> f64 {
        self.ranks.iter().map(|r| r.wait_time).sum()
    }
}

/// Price `trace` under `cost`. See the module docs for the clock rules.
pub fn replay(trace: &Trace, cost: &CostModel) -> Result<ReplayReport, ReplayError> {
    replay_inner(trace, cost, None)
}

/// Price `trace` under `cost` **and** derive per-rank virtual-clock phase
/// timelines from the same walk.
///
/// Spans are emitted at the very program points that advance the clock and
/// the [`RankStats`] accumulators, with the identical `f64` durations in
/// the identical order — so re-summing a timeline's spans reproduces the
/// stats **bit-exactly** ([`rt_obs::reconcile()`] enforces this). Step and
/// frame attribution come from the `Mark` events the executor already
/// records, through the same [`Cursor`] that attributes the wall-clock
/// spans (see [`crate::mark`]); `over` charges after `flush:start` become
/// [`Phase::Flush`].
///
/// Zero-duration charges are elided from the timeline (adding `+0.0` to a
/// non-negative accumulator cannot change its bits, so reconciliation is
/// unaffected), which keeps e.g. the per-message `tr = 0` receive overhead
/// of the preset cost models from flooding the trace.
///
/// ```
/// use rt_comm::{replay_timeline, ComputeKind, CostModel, Multicomputer};
///
/// let (_, trace) = Multicomputer::new(1).run(|ctx| {
///     ctx.compute(ComputeKind::Over, 100);
/// });
/// let (report, timelines) = replay_timeline(&trace, &CostModel::PAPER_EXAMPLE).unwrap();
/// // The one rank's spans re-sum to exactly its replay totals.
/// assert_eq!(timelines[0].total_all(), report.ranks[0].finish);
/// rt_obs::reconcile(&timelines[0], &report.ranks[0].phase_totals()).unwrap();
/// ```
pub fn replay_timeline(
    trace: &Trace,
    cost: &CostModel,
) -> Result<(ReplayReport, Vec<RankTimeline>), ReplayError> {
    let mut timelines: Vec<RankTimeline> = (0..trace.size()).map(RankTimeline::new).collect();
    let report = replay_inner(trace, cost, Some(&mut timelines))?;
    Ok((report, timelines))
}

fn replay_inner(
    trace: &Trace,
    cost: &CostModel,
    mut timelines: Option<&mut Vec<RankTimeline>>,
) -> Result<ReplayReport, ReplayError> {
    let p = trace.size();
    let mut clocks = vec![0.0f64; p];
    let mut idx = vec![0usize; p];
    let mut stats = vec![RankStats::default(); p];
    let mut send_finish: HashMap<(usize, usize, u64), f64> = HashMap::new();
    // Reliable delivery: the receiver matches the *last* attempt of a
    // message, so a prepass finds each channel message's final attempt and
    // only that attempt publishes `send_finish`.
    let mut last_attempt: HashMap<(usize, usize, u64), u32> = HashMap::new();
    for (r, events) in trace.ranks.iter().enumerate() {
        for e in events {
            match e {
                Event::Send { to, seq, .. } => {
                    last_attempt.entry((r, *to, *seq)).or_insert(0);
                }
                Event::Retransmit {
                    to, seq, attempt, ..
                } => {
                    let slot = last_attempt.entry((r, *to, *seq)).or_insert(0);
                    *slot = (*slot).max(*attempt);
                }
                _ => {}
            }
        }
    }
    // Barrier bookkeeping: generation -> (arrival clock per rank).
    let mut barrier_entries: HashMap<u64, Vec<Option<f64>>> = HashMap::new();
    let mut marks: BTreeMap<String, Vec<Option<f64>>> = BTreeMap::new();
    // Step/frame attribution for derived spans, driven by the marks.
    let mut cursors = vec![Cursor::default(); p];

    // Emit a virtual span; zero-duration charges are elided (see
    // `replay_timeline` docs for why that preserves reconciliation).
    fn emit(
        timelines: &mut Option<&mut Vec<RankTimeline>>,
        r: usize,
        phase: Phase,
        at: Cursor,
        start: f64,
        dur: f64,
    ) {
        if dur != 0.0 {
            if let Some(tl) = timelines {
                tl[r].spans.push(SpanRec {
                    phase,
                    step: at.step,
                    frame: at.frame,
                    start,
                    dur,
                });
            }
        }
    }

    loop {
        let mut progressed = false;
        // The first rank with events left after this sweep, and where.
        let mut blocked = None;
        for r in 0..p {
            let events = &trace.ranks[r];
            while idx[r] < events.len() {
                match &events[idx[r]] {
                    Event::Send { to, bytes, seq, .. } => {
                        let dur = cost.message_time(*bytes);
                        emit(&mut timelines, r, Phase::Send, cursors[r], clocks[r], dur);
                        clocks[r] += dur;
                        stats[r].send_time += dur;
                        stats[r].messages_sent += 1;
                        stats[r].bytes_sent += bytes;
                        if last_attempt.get(&(r, *to, *seq)) == Some(&0) {
                            send_finish.insert((r, *to, *seq), clocks[r]);
                        }
                    }
                    Event::Retransmit {
                        to,
                        bytes,
                        seq,
                        attempt,
                        ..
                    } => {
                        // A retransmission occupies the sender exactly like a
                        // fresh send of the same payload.
                        let dur = cost.message_time(*bytes);
                        emit(&mut timelines, r, Phase::Send, cursors[r], clocks[r], dur);
                        clocks[r] += dur;
                        stats[r].send_time += dur;
                        stats[r].retransmits += 1;
                        stats[r].bytes_sent += bytes;
                        if last_attempt.get(&(r, *to, *seq)) == Some(attempt) {
                            send_finish.insert((r, *to, *seq), clocks[r]);
                        }
                    }
                    Event::AckWait { attempt, .. } => {
                        let dur = cost.backoff_time(*attempt);
                        emit(
                            &mut timelines,
                            r,
                            Phase::Backoff,
                            cursors[r],
                            clocks[r],
                            dur,
                        );
                        clocks[r] += dur;
                        stats[r].backoff_time += dur;
                    }
                    Event::Recv { from, seq, .. } => {
                        let Some(&arrival) = send_finish.get(&(*from, r, *seq)) else {
                            break; // sender not replayed this far yet
                        };
                        if arrival > clocks[r] {
                            let dur = arrival - clocks[r];
                            emit(&mut timelines, r, Phase::Wait, cursors[r], clocks[r], dur);
                            stats[r].wait_time += dur;
                            // Additive (not `= arrival`) so the clock stays
                            // bit-identical to the fold of emitted span
                            // durations — the reconciliation invariant.
                            clocks[r] += dur;
                        }
                        // LogGP-style receiver overhead (0 in the presets).
                        emit(
                            &mut timelines,
                            r,
                            Phase::Recv,
                            cursors[r],
                            clocks[r],
                            cost.tr,
                        );
                        clocks[r] += cost.tr;
                        stats[r].recv_overhead_time += cost.tr;
                    }
                    Event::Compute { kind, units } => {
                        let dur = cost.compute_time(*kind, *units);
                        let phase = match kind {
                            ComputeKind::Over if cursors[r].in_flush => Phase::Flush,
                            ComputeKind::Over => Phase::Over,
                            ComputeKind::Encode => Phase::Encode,
                            ComputeKind::Decode => Phase::Decode,
                            ComputeKind::Render => Phase::Render,
                        };
                        emit(&mut timelines, r, phase, cursors[r], clocks[r], dur);
                        clocks[r] += dur;
                        match kind {
                            ComputeKind::Over => stats[r].over_time += dur,
                            ComputeKind::Encode | ComputeKind::Decode => stats[r].codec_time += dur,
                            ComputeKind::Render => stats[r].render_time += dur,
                        }
                    }
                    Event::Barrier { generation } => {
                        let entry = barrier_entries
                            .entry(*generation)
                            .or_insert_with(|| vec![None; p]);
                        entry[r] = Some(clocks[r]);
                        if entry.iter().all(Option::is_some) {
                            let t = entry
                                .iter()
                                .flatten()
                                .cloned()
                                .fold(f64::NEG_INFINITY, f64::max);
                            // Release everyone currently parked at this
                            // barrier; ranks reaching it later in the replay
                            // scan will see the stored release time.
                            let release = t;
                            barrier_entries.insert(*generation, vec![Some(release); p]);
                            if release > clocks[r] {
                                let dur = release - clocks[r];
                                emit(&mut timelines, r, Phase::Wait, cursors[r], clocks[r], dur);
                                stats[r].wait_time += dur;
                                // Additive for the same bit-exactness
                                // reason as the `Recv` wait above.
                                clocks[r] += dur;
                            }
                        } else {
                            break; // wait for the others
                        }
                    }
                    Event::Mark { label } => {
                        marks.entry(label.clone()).or_insert_with(|| vec![None; p])[r] =
                            Some(clocks[r]);
                        cursors[r].advance(&Mark::from(label.as_str()));
                    }
                }
                idx[r] += 1;
                progressed = true;
            }
            if idx[r] < events.len() {
                blocked = blocked.or(Some((r, idx[r])));
            }
        }
        match blocked {
            None => break,
            Some((rank, event_index)) if !progressed => {
                return Err(ReplayError::Stuck { rank, event_index });
            }
            Some(_) => {}
        }
    }

    for r in 0..p {
        stats[r].finish = clocks[r];
    }
    let makespan = clocks.iter().cloned().fold(0.0, f64::max);
    Ok(ReplayReport {
        ranks: stats,
        makespan,
        marks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Multicomputer;
    use crate::cost::CostModel;

    fn cost111() -> CostModel {
        // ts = 1, tp = 0.1/byte, to = 0.01/pixel: easy to hand-check.
        CostModel::new(1.0, 0.1, 0.01)
    }

    #[test]
    fn pairwise_exchange_costs_one_message_each() {
        let mc = Multicomputer::new(2);
        let (_, trace) = mc.run(|ctx| {
            let other = 1 - ctx.rank();
            ctx.send(other, 0, vec![0u8; 10]).unwrap();
            ctx.recv(other, 0).unwrap();
        });
        let report = replay(&trace, &cost111()).unwrap();
        // Each rank: send 1 + 10*0.1 = 2.0; partner's message is ready at
        // 2.0 as well, so no waiting. Makespan = 2.0.
        assert!((report.makespan - 2.0).abs() < 1e-12, "{report:?}");
        assert!((report.ranks[0].send_time - 2.0).abs() < 1e-12);
        assert!(report.ranks[0].wait_time.abs() < 1e-12);
    }

    #[test]
    fn one_way_send_makes_receiver_wait() {
        let mc = Multicomputer::new(2);
        let (_, trace) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0u8; 20]).unwrap();
            } else {
                ctx.recv(0, 0).unwrap();
            }
        });
        let report = replay(&trace, &cost111()).unwrap();
        // Sender busy 1 + 2 = 3; receiver waits from 0 to 3.
        assert!((report.makespan - 3.0).abs() < 1e-12);
        assert!((report.ranks[1].wait_time - 3.0).abs() < 1e-12);
    }

    #[test]
    fn compute_is_charged_per_kind() {
        let mc = Multicomputer::new(1);
        let (_, trace) = mc.run(|ctx| {
            ctx.compute(ComputeKind::Over, 100);
            ctx.compute(ComputeKind::Encode, 10);
            ctx.compute(ComputeKind::Render, 7);
        });
        let cost = CostModel::new(0.0, 0.0, 0.01)
            .with_tc(0.5)
            .with_render_unit(2.0);
        let report = replay(&trace, &cost).unwrap();
        assert!((report.ranks[0].over_time - 1.0).abs() < 1e-12);
        assert!((report.ranks[0].codec_time - 5.0).abs() < 1e-12);
        assert!((report.ranks[0].render_time - 14.0).abs() < 1e-12);
        assert!((report.makespan - 20.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mc = Multicomputer::new(3);
        let (_, trace) = mc.run(|ctx| {
            // Rank r computes r*100 pixels, then all synchronize, then each
            // computes 100 more.
            ctx.compute(ComputeKind::Over, ctx.rank() as u64 * 100);
            ctx.barrier().unwrap();
            ctx.mark("after");
            ctx.compute(ComputeKind::Over, 100);
        });
        let report = replay(&trace, &CostModel::new(0.0, 0.0, 0.01)).unwrap();
        // Barrier releases at t = 2.0 (rank 2's 200 pixels), so everyone
        // marks "after" at 2.0 and finishes at 3.0.
        for r in 0..3 {
            let at = report.marks["after"][r].unwrap();
            assert!((at - 2.0).abs() < 1e-12, "rank {r} marked at {at}");
            assert!((report.ranks[r].finish - 3.0).abs() < 1e-12);
        }
        assert!((report.phase("after", "after").unwrap() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn marks_delimit_phases() {
        let mc = Multicomputer::new(2);
        let (_, trace) = mc.run(|ctx| {
            ctx.mark("start");
            ctx.compute(ComputeKind::Over, (ctx.rank() as u64 + 1) * 100);
            ctx.mark("end");
        });
        let report = replay(&trace, &CostModel::new(0.0, 0.0, 0.01)).unwrap();
        // Slowest rank does 200 pixels → 2.0.
        assert!((report.phase("start", "end").unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(report.phase("start", "nope"), None);
    }

    #[test]
    fn stuck_trace_is_reported() {
        // Hand-build an impossible trace: a recv with no matching send.
        let trace = Trace {
            ranks: vec![vec![Event::Recv {
                from: 0,
                tag: 0,
                bytes: 1,
                seq: 42,
            }]],
        };
        let err = replay(&trace, &cost111()).unwrap_err();
        assert_eq!(
            err,
            ReplayError::Stuck {
                rank: 0,
                event_index: 0
            }
        );
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        // The same program replayed from two separate threaded executions
        // must price identically (thread nondeterminism must not leak).
        let program = |ctx: &mut crate::comm::RankCtx| {
            let p = ctx.size();
            let me = ctx.rank();
            for round in 0..3u64 {
                let to = (me + 1 + round as usize) % p;
                let from = (me + p - 1 - round as usize % p) % p;
                ctx.send(to, round, vec![0u8; 8 * (round as usize + 1)])
                    .unwrap();
                ctx.recv(from, round).unwrap();
                ctx.compute(ComputeKind::Over, 64);
            }
        };
        let (_, t1) = Multicomputer::new(4).run(program);
        let (_, t2) = Multicomputer::new(4).run(program);
        let r1 = replay(&t1, &cost111()).unwrap();
        let r2 = replay(&t2, &cost111()).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn timeline_reconciles_with_stats_bit_exactly() {
        // A program touching every account: sends, recvs (with waits),
        // computes of all kinds, a barrier, plus a retransmission with
        // backoff — and a cost model where no term is zero so every phase
        // actually emits spans.
        let mc =
            Multicomputer::new(3).with_faults(crate::comm::FaultPlan::none().drop_message(0, 1, 0));
        let (_, trace) = mc.run(|ctx| {
            let me = ctx.rank();
            let p = ctx.size();
            ctx.compute(ComputeKind::Render, 5 + me as u64);
            ctx.mark("compose:start");
            for k in 0..2u32 {
                ctx.mark(Mark::Step(k));
                ctx.compute(ComputeKind::Encode, 10);
                ctx.send((me + 1) % p, k as u64, vec![me as u8; 8 * (me + 1)])
                    .unwrap();
                ctx.recv((me + p - 1) % p, k as u64).unwrap();
                ctx.compute(ComputeKind::Decode, 10);
                ctx.compute(ComputeKind::Over, 64);
            }
            ctx.mark("flush:start");
            ctx.compute(ComputeKind::Over, 32);
            ctx.mark("compose:end");
            ctx.barrier().unwrap();
        });
        let cost = cost111().with_tc(0.3).with_tr(0.25).with_render_unit(0.7);
        let (report, timelines) = replay_timeline(&trace, &cost).unwrap();
        assert_eq!(timelines.len(), 3);
        for (tl, stats) in timelines.iter().zip(&report.ranks) {
            // Exact f64 equality per account and on the finish time.
            rt_obs::reconcile(tl, &stats.phase_totals()).unwrap();
            // Virtual spans are strictly sequential.
            tl.check_nesting(0.0).unwrap();
            // Flush attribution: the post-"flush:start" over charge.
            assert!(tl.spans.iter().any(|s| s.phase == Phase::Flush));
            // Step attribution: both steps appear on span records.
            for k in [0u32, 1] {
                assert!(tl.spans.iter().any(|s| s.step == Some(k)));
            }
            // recv overhead was actually charged (tr > 0 here).
            assert!(stats.recv_overhead_time > 0.0);
        }
        // The priced report must be identical with and without timelines.
        assert_eq!(replay(&trace, &cost).unwrap(), report);
    }

    #[test]
    fn frame_marks_scope_span_attribution() {
        // Work bracketed by `frame:K:start`/`frame:K:end` marks replays
        // with `frame: Some(K)` on its virtual spans; work outside any
        // frame stays `None` — the streaming pipeline's per-frame span
        // attribution.
        let mc = Multicomputer::new(2);
        let (_, trace) = mc.run(|ctx| {
            ctx.mark("frame:3:start");
            ctx.compute(ComputeKind::Render, 10);
            ctx.mark("frame:3:end");
            ctx.compute(ComputeKind::Render, 10);
        });
        let (_, timelines) = replay_timeline(&trace, &cost111().with_render_unit(0.5)).unwrap();
        for tl in &timelines {
            let renders: Vec<_> = tl
                .spans
                .iter()
                .filter(|s| s.phase == Phase::Render)
                .collect();
            assert_eq!(renders.len(), 2);
            assert_eq!(renders[0].frame, Some(3));
            assert_eq!(renders[1].frame, None);
        }
    }

    #[test]
    fn zero_cost_terms_emit_no_spans() {
        // With tr = 0 and tc = 0 there must be no Recv/Encode/Decode spans
        // (zero-duration charges are elided) yet reconciliation still holds.
        let mc = Multicomputer::new(2);
        let (_, trace) = mc.run(|ctx| {
            let other = 1 - ctx.rank();
            ctx.compute(ComputeKind::Encode, 100);
            ctx.send(other, 0, vec![0u8; 10]).unwrap();
            ctx.recv(other, 0).unwrap();
        });
        let (report, timelines) = replay_timeline(&trace, &cost111()).unwrap();
        for (tl, stats) in timelines.iter().zip(&report.ranks) {
            assert!(tl
                .spans
                .iter()
                .all(|s| !matches!(s.phase, Phase::Recv | Phase::Encode | Phase::Decode)));
            rt_obs::reconcile(tl, &stats.phase_totals()).unwrap();
        }
    }

    #[test]
    fn gather_traffic_is_priced() {
        // A root collection written on plain sends and receives: replay
        // prices it exactly like the paper's final collection stage.
        let mc = Multicomputer::new(3);
        let (_, trace) = mc.run(|ctx| {
            if ctx.rank() == 0 {
                for from in 1..ctx.size() {
                    ctx.recv(from, 9).unwrap();
                }
            } else {
                ctx.send(0, 9, vec![0u8; 10]).unwrap();
            }
        });
        let report = replay(&trace, &cost111()).unwrap();
        // Two non-root ranks each send one 10-byte message (cost 2.0);
        // the root waits for both.
        assert!((report.makespan - 2.0).abs() < 1e-12);
        assert_eq!(report.ranks[1].messages_sent, 1);
        assert_eq!(report.ranks[0].messages_sent, 0);
    }
}
