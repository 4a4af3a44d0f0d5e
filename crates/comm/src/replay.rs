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
//! * `Mark` — records the rank's current clock under the mark.
//!
//! The result is the *composition time* the paper plots: the maximum rank
//! clock (optionally between two marks). This walk is the workspace's one
//! virtual clock: a schedule is priced before it runs by replaying the
//! trace it compiles to (`rt_core::analysis`), and [`critical_path`] reads
//! the chain that set a window's time back from the same walk.

use crate::cost::{ComputeKind, CostModel};
use crate::mark::{Cursor, Mark};
use crate::trace::{Event, Trace};
use rt_obs::{Phase, PhaseTotals, RankTimeline, SpanRec};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

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

/// Priced summary of one rank's activity: times only. Message, retransmit
/// and byte counts are read off the trace itself ([`Trace::message_count`],
/// [`Trace::retransmit_count`], [`Trace::bytes_sent`]).
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
    /// Time spent in acknowledgement-timeout backoff before retransmitting.
    pub backoff_time: f64,
    /// Receiver-side per-message overhead (`Σ tr`; zero in the presets).
    pub recv_overhead_time: f64,
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
    /// Clock value per `(mark, rank)` for every mark that the rank emitted.
    pub marks: BTreeMap<Mark, Vec<Option<f64>>>,
}

impl ReplayReport {
    /// Duration of a phase delimited by two marks, named by their labels:
    /// the latest rank to pass `end` minus the earliest rank to pass
    /// `start`. Returns `None` if no rank emitted one of the marks, or a
    /// label names no mark.
    pub fn phase(&self, start: &str, end: &str) -> Option<f64> {
        let fold = |label: &str, from: f64, pick: fn(f64, f64) -> f64| {
            let per_rank = self.marks.get(&label.parse::<Mark>().ok()?)?;
            Some(per_rank.iter().flatten().fold(from, |t, &at| pick(t, at)))
        };
        let start_t = fold(start, f64::INFINITY, f64::min)?;
        let end_t = fold(end, f64::NEG_INFINITY, f64::max)?;
        (start_t.is_finite() && end_t.is_finite()).then_some(end_t - start_t)
    }

    /// Total time spent waiting across all ranks (load-imbalance indicator).
    pub fn total_wait(&self) -> f64 {
        self.ranks.iter().map(|r| r.wait_time).sum()
    }
}

/// Price `trace` under `cost`. See the module docs for the clock rules.
pub fn replay(trace: &Trace, cost: &CostModel) -> Result<ReplayReport, ReplayError> {
    walk(trace, cost, None, None)
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
    let report = walk(trace, cost, Some(&mut timelines), None)?;
    Ok((report, timelines))
}

/// One link of a [`CriticalPath`]: an event whose priced interval lies on
/// the chain that set a window's virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLink {
    /// The rank that ran the event.
    pub rank: usize,
    /// The event's index in that rank's history.
    pub event_index: usize,
    /// What the event charged, named as its timeline span would be
    /// ([`Phase::Wait`] for a barrier).
    pub op: Phase,
    /// The step the shared [`Cursor`] attributes the event to.
    pub step: Option<u32>,
    /// Where the link begins: where the event began or, for a receive or
    /// barrier that waited, the instant the event it waited for ended —
    /// never before the window's start.
    pub start: f64,
    /// The rank's clock after the event.
    pub end: f64,
}

/// The chain of events that set the virtual time of the window between
/// two marks, and what every rank had to spare. See [`critical_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The earliest clock at which a rank passed the start mark.
    pub start: f64,
    /// The latest clock at which a rank passed the end mark.
    pub end: f64,
    /// The chain in time order, zero-duration events included: the first
    /// link starts at `start`, each link starts exactly where the one
    /// before it ended, and the last one ends at `end`.
    pub links: Vec<PathLink>,
    /// Per rank, `end` minus the clock at which the rank passed the end
    /// mark — how much later it could have got there without moving the
    /// window's end (`None` when it never passed it).
    pub slack: Vec<Option<f64>>,
}

impl CriticalPath {
    /// How often the chain moves to another rank: once per message or
    /// barrier a rank on it waited for.
    pub fn hops(&self) -> usize {
        self.links
            .windows(2)
            .filter(|pair| pair[0].rank != pair[1].rank)
            .count()
    }

    /// The rank holding the largest share of the chain's time, and that
    /// share (the lowest rank on a tie; `None` for an empty chain).
    pub fn bounding_rank(&self) -> Option<(usize, f64)> {
        let mut held = vec![0.0f64; self.slack.len()];
        for link in &self.links {
            held[link.rank] += link.end - link.start;
        }
        largest(held.into_iter().enumerate()).filter(|_| !self.links.is_empty())
    }

    /// The rank with the most slack, and that slack (the lowest rank on a
    /// tie).
    pub fn largest_slack(&self) -> Option<(usize, f64)> {
        largest(passed(&self.slack))
    }
}

/// The `(rank, value)` pair with the largest value, the lowest rank on a
/// tie.
fn largest(pairs: impl Iterator<Item = (usize, f64)>) -> Option<(usize, f64)> {
    pairs.fold(None, |best, (r, t)| match best {
        Some((_, b)) if b >= t => best,
        _ => Some((r, t)),
    })
}

/// The ranks that have a value, with it.
fn passed(per_rank: &[Option<f64>]) -> impl Iterator<Item = (usize, f64)> + '_ {
    per_rank
        .iter()
        .enumerate()
        .filter_map(|(r, t)| t.map(|t| (r, t)))
}

/// The critical path of the window from the earliest `start` mark to the
/// latest `end` mark of `trace` priced under `cost`, both named by their
/// labels — `Ok(None)` when no rank passed one of them, or a label names
/// no mark.
///
/// It is read back from the one replay walk, not priced again: the walk
/// records, per event, the clock after it and, for every `Recv` (or
/// `Barrier`) that waited, the sender's event it waited for. From the rank
/// that passed `end` last, the chain steps back event by event; at a wait
/// it hops to the event waited for, whose end is the instant the wait was
/// released. It stops at the window's start, so the last link taken is
/// clipped there. Every boundary is a clock value of the walk, so the chain
/// telescopes to the bit: `links[0].start` is `start`, each link begins at
/// its predecessor's `end`, and the last `end` minus the first `start`
/// equals [`ReplayReport::phase`]`(start, end)`.
///
/// ```
/// use rt_comm::{critical_path, ComputeKind, CostModel, Mark, Multicomputer};
///
/// // Rank 1 renders slowly, then rank 0 waits for its message.
/// let (_, trace) = Multicomputer::new(2).run(|ctx| {
///     ctx.mark(Mark::FrameStart(0));
///     if ctx.rank() == 1 {
///         ctx.compute(ComputeKind::Render, 10);
///         ctx.send(0, 0, vec![0u8; 8]).unwrap();
///     } else {
///         ctx.recv(1, 0).unwrap();
///     }
///     ctx.mark(Mark::FrameEnd(0));
/// });
/// let cost = CostModel::new(1.0, 0.0, 0.0).with_render_unit(1.0);
/// let path = critical_path(&trace, &cost, "frame:0:start", "frame:0:end")
///     .unwrap()
///     .unwrap();
/// let ranks: Vec<usize> = path.links.iter().map(|link| link.rank).collect();
/// assert_eq!(ranks, [1, 1, 0]); // render, send, then the receive it released
/// assert_eq!((path.start, path.end), (0.0, 11.0));
/// assert_eq!(path.slack, [Some(0.0), Some(0.0)]);
/// ```
pub fn critical_path(
    trace: &Trace,
    cost: &CostModel,
    start: &str,
    end: &str,
) -> Result<Option<CriticalPath>, ReplayError> {
    let (Ok(start), Ok(end)) = (start.parse::<Mark>(), end.parse::<Mark>()) else {
        return Ok(None);
    };
    let mut stamps: Vec<Vec<Stamp>> = trace
        .ranks
        .iter()
        .map(|events| Vec::with_capacity(events.len()))
        .collect();
    let report = walk(trace, cost, None, Some(&mut stamps))?;
    let (Some(starts), Some(ends)) = (report.marks.get(&start), report.marks.get(&end)) else {
        return Ok(None);
    };
    let from = passed(starts).fold(f64::INFINITY, |t, (_, at)| t.min(at));
    // The rank that passed `end` last (the lowest on a tie), and where.
    let Some((mut r, to)) = largest(passed(ends)).filter(|_| from.is_finite()) else {
        return Ok(None);
    };
    let at_end = trace.ranks[r]
        .iter()
        .rposition(|e| matches!(e, Event::Mark { label } if *label == end));
    let Some(mut i) = at_end else {
        return Ok(None);
    };

    let mut links = Vec::new();
    let mut t = to;
    while t > from && i > 0 {
        i -= 1;
        let stamp = stamps[r][i];
        // A mark takes no time and is no link.
        let Some(op) = stamp.phase else { continue };
        let (begin, hop) = match stamp.waited_on {
            Some((q, j)) => (stamps[q][j].end, Some((q, j + 1))),
            None if i == 0 => (0.0, None),
            None => (stamps[r][i - 1].end, None),
        };
        links.push(PathLink {
            rank: r,
            event_index: i,
            op,
            step: stamp.step,
            start: begin.max(from),
            end: t,
        });
        t = begin;
        if let Some((q, j)) = hop {
            (r, i) = (q, j);
        }
    }
    links.reverse();
    Ok(Some(CriticalPath {
        start: from,
        end: to,
        links,
        slack: ends.iter().map(|t| t.map(|t| to - t)).collect(),
    }))
}

/// A message of the trace: `(src, dst, seq)`.
type MsgKey = (usize, usize, u64);

/// The walk's maps are keyed by ranks and sequence numbers from a trace, so
/// a multiply-rotate hash serves them; SipHash's resistance to chosen keys
/// buys nothing here.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// What the walk leaves behind per event for [`critical_path`].
#[derive(Clone, Copy)]
struct Stamp {
    /// The rank's clock after the event.
    end: f64,
    /// The event's timeline phase; `None` for a mark.
    phase: Option<Phase>,
    /// The step the rank's cursor stood at.
    step: Option<u32>,
    /// For a `Recv` or `Barrier` that waited: the `(rank, event index)`
    /// whose end released it.
    waited_on: Option<(usize, usize)>,
}

/// Record `at` — the sender's clock after the attempt and its event index —
/// as when message `key` was sent, if `attempt` is the one its receiver
/// matches: the last, which `retried` holds for a retransmitted message.
fn publish(
    sent: &mut WordMap<MsgKey, (f64, usize)>,
    retried: &WordMap<MsgKey, u32>,
    key: MsgKey,
    attempt: u32,
    at: (f64, usize),
) {
    // Most traces retransmit nothing: skip the lookup then.
    let last = if retried.is_empty() {
        0
    } else {
        retried.get(&key).copied().unwrap_or(0)
    };
    if attempt == last {
        sent.insert(key, at);
    }
}

/// The one virtual clock: price every event of `trace` under `cost`,
/// optionally emitting timeline spans and per-event stamps as it goes.
fn walk(
    trace: &Trace,
    cost: &CostModel,
    mut timelines: Option<&mut Vec<RankTimeline>>,
    mut stamps: Option<&mut Vec<Vec<Stamp>>>,
) -> Result<ReplayReport, ReplayError> {
    let p = trace.size();
    let mut clocks = vec![0.0f64; p];
    let mut idx = vec![0usize; p];
    let mut stats = vec![RankStats::default(); p];
    // Reliable delivery: the receiver matches the *last* attempt of a
    // message, so a prepass finds the final attempt of every retransmitted
    // message, and only that attempt publishes when the message was sent.
    let mut retried: WordMap<MsgKey, u32> = WordMap::default();
    for (r, events) in trace.ranks.iter().enumerate() {
        for e in events {
            if let Event::Retransmit {
                to, seq, attempt, ..
            } = e
            {
                let last = retried.entry((r, *to, *seq)).or_insert(0);
                *last = (*last).max(*attempt);
            }
        }
    }
    let mut sent: WordMap<MsgKey, (f64, usize)> =
        WordMap::with_capacity_and_hasher(trace.message_count() as usize, Default::default());
    // Barrier bookkeeping: generation -> (arrival clock, event index) per rank.
    let mut barriers: WordMap<u64, Vec<Option<(f64, usize)>>> = WordMap::default();
    let mut marks: BTreeMap<Mark, Vec<Option<f64>>> = BTreeMap::new();
    // Step/frame attribution, driven by the marks.
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
                let i = idx[r];
                let at = cursors[r];
                let mut waited_on = None;
                let phase = match &events[i] {
                    Event::Send { to, bytes, seq, .. } => {
                        let dur = cost.message_time(*bytes);
                        emit(&mut timelines, r, Phase::Send, at, clocks[r], dur);
                        clocks[r] += dur;
                        stats[r].send_time += dur;
                        publish(&mut sent, &retried, (r, *to, *seq), 0, (clocks[r], i));
                        Some(Phase::Send)
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
                        emit(&mut timelines, r, Phase::Send, at, clocks[r], dur);
                        clocks[r] += dur;
                        stats[r].send_time += dur;
                        publish(
                            &mut sent,
                            &retried,
                            (r, *to, *seq),
                            *attempt,
                            (clocks[r], i),
                        );
                        Some(Phase::Send)
                    }
                    Event::AckWait { attempt, .. } => {
                        let dur = cost.backoff_time(*attempt);
                        emit(&mut timelines, r, Phase::Backoff, at, clocks[r], dur);
                        clocks[r] += dur;
                        stats[r].backoff_time += dur;
                        Some(Phase::Backoff)
                    }
                    Event::Recv { from, seq, .. } => {
                        let Some(&(arrival, sent_at)) = sent.get(&(*from, r, *seq)) else {
                            break; // sender not replayed this far yet
                        };
                        if arrival > clocks[r] {
                            let dur = arrival - clocks[r];
                            emit(&mut timelines, r, Phase::Wait, at, clocks[r], dur);
                            stats[r].wait_time += dur;
                            // Additive (not `= arrival`) so the clock stays
                            // bit-identical to the fold of emitted span
                            // durations — the reconciliation invariant.
                            clocks[r] += dur;
                            waited_on = Some((*from, sent_at));
                        }
                        // LogGP-style receiver overhead (0 in the presets).
                        emit(&mut timelines, r, Phase::Recv, at, clocks[r], cost.tr);
                        clocks[r] += cost.tr;
                        stats[r].recv_overhead_time += cost.tr;
                        Some(Phase::Recv)
                    }
                    Event::Compute { kind, units } => {
                        let dur = cost.compute_time(*kind, *units);
                        let phase = match kind {
                            ComputeKind::Over if at.in_flush => Phase::Flush,
                            ComputeKind::Over => Phase::Over,
                            ComputeKind::Encode => Phase::Encode,
                            ComputeKind::Decode => Phase::Decode,
                            ComputeKind::Render => Phase::Render,
                        };
                        emit(&mut timelines, r, phase, at, clocks[r], dur);
                        clocks[r] += dur;
                        match kind {
                            ComputeKind::Over => stats[r].over_time += dur,
                            ComputeKind::Encode | ComputeKind::Decode => stats[r].codec_time += dur,
                            ComputeKind::Render => stats[r].render_time += dur,
                        }
                        Some(phase)
                    }
                    Event::Barrier { generation } => {
                        let arrivals = barriers.entry(*generation).or_insert_with(|| vec![None; p]);
                        arrivals[r].get_or_insert((clocks[r], i));
                        if arrivals.iter().any(Option::is_none) {
                            break; // wait for the others
                        }
                        // The latest arrival (the lowest rank on a tie)
                        // releases everyone; ranks reaching the barrier
                        // later in the replay scan see the same arrivals.
                        let (release, q, j) = arrivals
                            .iter()
                            .enumerate()
                            .filter_map(|(q, a)| a.map(|(t, j)| (t, q, j)))
                            .fold((f64::NEG_INFINITY, r, i), |best, a| {
                                if a.0 > best.0 {
                                    a
                                } else {
                                    best
                                }
                            });
                        if release > clocks[r] {
                            let dur = release - clocks[r];
                            emit(&mut timelines, r, Phase::Wait, at, clocks[r], dur);
                            stats[r].wait_time += dur;
                            // Additive for the same bit-exactness reason as
                            // the `Recv` wait above.
                            clocks[r] += dur;
                            waited_on = Some((q, j));
                        }
                        Some(Phase::Wait)
                    }
                    Event::Mark { label } => {
                        marks.entry(*label).or_insert_with(|| vec![None; p])[r] = Some(clocks[r]);
                        cursors[r].advance(*label);
                        None
                    }
                };
                if let Some(stamps) = stamps.as_deref_mut() {
                    stamps[r].push(Stamp {
                        end: clocks[r],
                        phase,
                        step: at.step,
                        waited_on,
                    });
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
            ctx.mark(Mark::ComposeStart);
            ctx.compute(ComputeKind::Over, 100);
        });
        let report = replay(&trace, &CostModel::new(0.0, 0.0, 0.01)).unwrap();
        // Barrier releases at t = 2.0 (rank 2's 200 pixels), so everyone
        // marks `compose:start` at 2.0 and finishes at 3.0.
        for r in 0..3 {
            let at = report.marks[&Mark::ComposeStart][r].unwrap();
            assert!((at - 2.0).abs() < 1e-12, "rank {r} marked at {at}");
            assert!((report.ranks[r].finish - 3.0).abs() < 1e-12);
        }
        let phase = report.phase("compose:start", "compose:start").unwrap();
        assert!(phase.abs() < 1e-12);
    }

    #[test]
    fn marks_delimit_phases() {
        let mc = Multicomputer::new(2);
        let (_, trace) = mc.run(|ctx| {
            ctx.mark(Mark::ComposeStart);
            ctx.compute(ComputeKind::Over, (ctx.rank() as u64 + 1) * 100);
            ctx.mark(Mark::ComposeEnd);
        });
        let report = replay(&trace, &CostModel::new(0.0, 0.0, 0.01)).unwrap();
        // Slowest rank does 200 pixels → 2.0.
        let phase = report.phase("compose:start", "compose:end").unwrap();
        assert!((phase - 2.0).abs() < 1e-12);
        // A mark no rank passed, and labels that name no mark.
        assert_eq!(report.phase("compose:start", "gather:end"), None);
        assert_eq!(report.phase("compose:start", "nope"), None);
        assert_eq!(report.phase("step:07", "compose:end"), None);
        let cost = CostModel::new(0.0, 0.0, 0.01);
        assert_eq!(
            critical_path(&trace, &cost, "start", "compose:end"),
            Ok(None)
        );
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
            ctx.mark(Mark::ComposeStart);
            for k in 0..2u32 {
                ctx.mark(Mark::Step(k));
                ctx.compute(ComputeKind::Encode, 10);
                ctx.send((me + 1) % p, k as u64, vec![me as u8; 8 * (me + 1)])
                    .unwrap();
                ctx.recv((me + p - 1) % p, k as u64).unwrap();
                ctx.compute(ComputeKind::Decode, 10);
                ctx.compute(ComputeKind::Over, 64);
            }
            ctx.mark(Mark::FlushStart);
            ctx.compute(ComputeKind::Over, 32);
            ctx.mark(Mark::ComposeEnd);
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
            ctx.mark(Mark::FrameStart(3));
            ctx.compute(ComputeKind::Render, 10);
            ctx.mark(Mark::FrameEnd(3));
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
    fn critical_path_hops_to_the_last_attempt_and_the_last_arrival() {
        // Rank 1's message to rank 0 is dropped once, so rank 0 waits for
        // the retransmission; then rank 2's long `over` holds the barrier.
        let mc =
            Multicomputer::new(3).with_faults(crate::comm::FaultPlan::none().drop_message(1, 0, 0));
        let (_, trace) = mc.run(|ctx| {
            ctx.mark(Mark::ComposeStart);
            match ctx.rank() {
                0 => {
                    ctx.recv(1, 0).unwrap();
                    ctx.mark(Mark::ComposeEnd);
                }
                1 => ctx.send(0, 0, vec![0u8; 10]).unwrap(),
                _ => ctx.compute(ComputeKind::Over, 1000),
            }
            ctx.barrier().unwrap();
            ctx.mark(Mark::GatherEnd);
        });
        let walk = |end| {
            let path = critical_path(&trace, &cost111(), "compose:start", end)
                .unwrap()
                .unwrap();
            let links: Vec<_> = path
                .links
                .iter()
                .map(|l| (l.rank, l.op, l.start, l.end))
                .collect();
            (links, path.slack)
        };
        // Send 2.0, backoff ack_timeout = 2.0, the retransmission 2.0; the
        // receive starts where the last attempt ended.
        let (links, slack) = walk("compose:end");
        assert_eq!(
            links,
            [
                (1, Phase::Send, 0.0, 2.0),
                (1, Phase::Backoff, 2.0, 4.0),
                (1, Phase::Send, 4.0, 6.0),
                (0, Phase::Recv, 6.0, 6.0),
            ]
        );
        assert_eq!(slack, [Some(0.0), None, None]);
        // The barrier releases at rank 2's 10.0: rank 0 waited for it.
        let (links, slack) = walk("gather:end");
        assert_eq!(
            links,
            [
                (2, Phase::Over, 0.0, 10.0),
                (2, Phase::Wait, 10.0, 10.0),
                (0, Phase::Wait, 10.0, 10.0),
            ]
        );
        assert_eq!(slack, [Some(0.0); 3]);
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
        assert_eq!(report.ranks[1].send_time, 2.0);
        assert_eq!(report.ranks[0].send_time, 0.0);
    }
}
