//! Composition schedules: the pure description every method compiles to.
//!
//! A [`Schedule`] lists, step by step, which rank ships which pixel [`Span`]
//! to which rank and how the receiver merges it ([`MergeDir`]) — or, for
//! [`MergeDir::Place`], takes it over whole — and after which steps the
//! deferred accumulators are flushed ([`Step::flush`]). The final
//! ownership map says which rank holds each fully-composited piece of the
//! frame before the gather.
//!
//! Schedules are *data*: they can be printed (the paper's Figure 1/2
//! walkthroughs), statically costed, executed over the multicomputer, and —
//! crucially — verified. [`verify_schedule`] replays a schedule symbolically
//! over depth-rank intervals and proves that every pixel of the final image
//! receives every rank's contribution exactly once, merged in depth order:
//! the full correctness condition for compositing with the non-commutative
//! `over` operator.

use crate::display::DisplayWall;
use crate::CoreError;
use rt_imaging::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How a receiver merges an incoming partial into its accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MergeDir {
    /// The incoming partial is nearer the viewer: `local = recv over local`.
    Front,
    /// The incoming partial is farther: `local = local over recv`.
    Back,
    /// The incoming partial is farther but not yet adjacent to the local
    /// run; it is folded into a per-span deferred back accumulator
    /// (`back = recv over back`) and applied at the next flush point
    /// ([`Step::flush`], or after the last step). Used by the pipelined
    /// method, whose far pieces arrive deepest-first.
    BackDefer,
    /// The receiver holds nothing live on the span (it shipped it earlier):
    /// the incoming partial *becomes* its piece there — a decode, no
    /// `over`. Used by the hierarchical builder ([`crate::hier`]) to
    /// collect a group's finished spans at its leader.
    Place,
}

/// One point-to-point block transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// Sending rank (ships its current partial of `span`).
    pub src: usize,
    /// Receiving rank (merges per `dir`).
    pub dst: usize,
    /// The pixel range being shipped.
    pub span: Span,
    /// Merge direction at the receiver.
    pub dir: MergeDir,
}

/// All transfers of one communication step (logically concurrent).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step {
    /// The step's transfers, in deterministic schedule order.
    pub transfers: Vec<Transfer>,
    /// Flush every rank's deferred back accumulators after this step's
    /// receives, so the spans they complete can be shipped by a later
    /// step. The flush after the last step is implicit; every flat method
    /// leaves this `false`.
    pub flush: bool,
}

impl Step {
    /// Transfers sent by `rank`, in schedule order.
    pub fn sends_of(&self, rank: usize) -> impl Iterator<Item = &Transfer> {
        self.transfers.iter().filter(move |t| t.src == rank)
    }

    /// Transfers received by `rank`, in schedule order.
    pub fn recvs_of(&self, rank: usize) -> impl Iterator<Item = &Transfer> {
        self.transfers.iter().filter(move |t| t.dst == rank)
    }
}

/// A complete composition schedule for `p` ranks over an `image_len`-pixel
/// frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Number of ranks.
    pub p: usize,
    /// Frame size in pixels (`A` in the paper).
    pub image_len: usize,
    /// Communication steps, in order.
    pub steps: Vec<Step>,
    /// Final ownership: `(span, owner)` pairs tiling the frame, sorted by
    /// span start. After the last step, `owner` holds the fully-composited
    /// pixels of `span`.
    pub final_owners: Vec<(Span, usize)>,
    /// Method name for reports.
    pub method: String,
    /// Depth index of each rank (`depth_of_rank[r]` = position of rank `r`
    /// in the back-to-front compositing order). `None` means the identity
    /// (rank *r* holds depth *r*), which is how every method builds its
    /// schedule; `rt-pvr`'s rank permutation fills it in when relabeling
    /// ranks for a camera. Recovery planning ([`crate::repair()`]) needs it
    /// to re-pair depth-contiguous survivors.
    pub depth_of_rank: Option<Vec<usize>>,
}

impl Schedule {
    /// Number of communication steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Relabel the schedule (depth-indexed as built) onto physical ranks:
    /// `rank_of_depth[d]` is the physical rank whose partial sits at depth
    /// position `d` (0 = nearest). Merge directions stay baked in depth
    /// terms, and the inverse map is recorded in `depth_of_rank` so the
    /// verifier and recovery planning still see depth contiguity through
    /// the relabeling.
    pub fn permute(&self, rank_of_depth: &[usize]) -> Result<Schedule, CoreError> {
        check_permutation(self.p, rank_of_depth)?;
        let mut out = self.clone();
        for t in out.steps.iter_mut().flat_map(|s| &mut s.transfers) {
            t.src = rank_of_depth[t.src];
            t.dst = rank_of_depth[t.dst];
        }
        for (_, owner) in &mut out.final_owners {
            *owner = rank_of_depth[*owner];
        }
        let mut depth_of_rank = vec![0usize; self.p];
        for (depth, &rank) in rank_of_depth.iter().enumerate() {
            depth_of_rank[rank] = self.depth_of(depth);
        }
        out.depth_of_rank = Some(depth_of_rank);
        out.method = format!("{}∘π", self.method);
        Ok(out)
    }

    /// Depth index of `rank` in the back-to-front compositing order
    /// (identity when no permutation was recorded).
    pub fn depth_of(&self, rank: usize) -> usize {
        match &self.depth_of_rank {
            Some(d) => d[rank],
            None => rank,
        }
    }

    /// Total messages across all steps.
    pub fn message_count(&self) -> usize {
        self.steps.iter().map(|s| s.transfers.len()).sum()
    }

    /// Total pixels shipped across all steps (excluding the gather).
    pub fn pixels_shipped(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| &s.transfers)
            .map(|t| t.span.len)
            .sum()
    }

    /// Pixels finally owned by each rank (gather message sizes).
    pub fn owned_pixels(&self) -> Vec<usize> {
        let mut owned = vec![0usize; self.p];
        for (span, owner) in &self.final_owners {
            owned[*owner] += span.len;
        }
        owned
    }

    /// The undirected rank pairs a crash-free execution talks over: every
    /// transfer's `(src, dst)`, plus the gather links from each final owner
    /// to every display rank of `target` (the root's one-cell wall, or a
    /// display wall; see [`crate::ComposeConfig::gather_target`]). This is
    /// the topology a connection-restricted transport dials — for a
    /// hierarchical schedule far below the `P(P−1)/2` mesh. Fault repair
    /// may route outside this set, so faulty runs keep the full mesh.
    pub fn links(&self, target: DisplayWall) -> BTreeSet<(usize, usize)> {
        let transfers = self
            .steps
            .iter()
            .flat_map(|s| &s.transfers)
            .map(|t| (t.src, t.dst));
        let sinks = target.rank_of(0)..target.rank_of(target.count());
        let gathers = self
            .final_owners
            .iter()
            .filter(|(span, _)| !span.is_empty())
            .flat_map(|&(_, owner)| sinks.clone().map(move |sink| (owner, sink)));
        transfers
            .chain(gathers)
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect()
    }

    /// Human-readable walkthrough in the style of the paper's Figures 1–2.
    pub fn walkthrough(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: P = {}, A = {} px, {} steps, {} messages",
            self.method,
            self.p,
            self.image_len,
            self.step_count(),
            self.message_count()
        );
        for (k, step) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "step {}:", k + 1);
            for t in &step.transfers {
                let dir = match t.dir {
                    MergeDir::Front => "front",
                    MergeDir::Back => "back",
                    MergeDir::BackDefer => "back*",
                    MergeDir::Place => "place",
                };
                let _ = writeln!(
                    out,
                    "  P{} -> P{}  {}  ({} px, merge {})",
                    t.src, t.dst, t.span, t.span.len, dir
                );
            }
            if step.flush {
                let _ = writeln!(out, "  flush deferred accumulators");
            }
        }
        let _ = writeln!(out, "final ownership:");
        for (span, owner) in &self.final_owners {
            let _ = writeln!(out, "  P{owner}  {span}  ({} px)", span.len);
        }
        out
    }
}

/// `Ok` when `perm` is a permutation of `0..p` — the one check behind every
/// depth order and rank relabeling.
pub fn check_permutation(p: usize, perm: &[usize]) -> Result<(), CoreError> {
    let mut seen = vec![false; p];
    let distinct = perm
        .iter()
        .all(|&r| r < p && !std::mem::replace(&mut seen[r], true));
    if perm.len() == p && distinct {
        return Ok(());
    }
    Err(CoreError::InvalidSchedule {
        why: format!(
            "{perm:?} is not a permutation of 0..{p} ({} entries for {p} ranks)",
            perm.len()
        ),
    })
}

/// What one rank holds, as disjoint `(span, payload)` pieces keyed by span
/// start: the take / split / put map a schedule is simulated over. The
/// verifier's payload is a depth run, the repair planner's a member set.
/// Adjacent pieces with equal payloads are kept coalesced, so a rank that
/// was handed several spans of one composite can ship a span covering them.
#[derive(Debug, Clone)]
pub(crate) struct Pieces<T> {
    map: BTreeMap<usize, (Span, T)>,
}

impl<T: Clone + PartialEq> Pieces<T> {
    /// Holding nothing.
    pub fn empty() -> Self {
        Pieces {
            map: BTreeMap::new(),
        }
    }

    /// Holding `payload` over the whole `span`.
    pub fn holding(span: Span, payload: T) -> Self {
        let mut pieces = Self::empty();
        pieces.put(span, payload);
        pieces
    }

    /// Every piece, in span order.
    pub fn iter(&self) -> impl Iterator<Item = &(Span, T)> {
        self.map.values()
    }

    /// Remove and return whatever is held under `span`, in span order,
    /// cutting the pieces that straddle its ends.
    pub fn remove(&mut self, span: Span) -> Vec<(Span, T)> {
        if span.is_empty() {
            return Vec::new();
        }
        // Pieces are disjoint: the ones under `span` are the last to start
        // before its end, back to the first that ends at or before its start.
        let mut keys: Vec<usize> = self
            .map
            .range(..span.end())
            .rev()
            .take_while(|(_, (held, _))| held.end() > span.start)
            .map(|(&start, _)| start)
            .collect();
        keys.reverse();
        let mut under = Vec::with_capacity(keys.len());
        for key in keys {
            let Some((held, payload)) = self.map.remove(&key) else {
                continue;
            };
            let (start, end) = (held.start.max(span.start), held.end().min(span.end()));
            if held.start < start {
                let left = Span::new(held.start, start - held.start);
                self.map.insert(left.start, (left, payload.clone()));
            }
            if end < held.end() {
                let right = Span::new(end, held.end() - end);
                self.map.insert(right.start, (right, payload.clone()));
            }
            under.push((Span::new(start, end - start), payload));
        }
        under
    }

    /// [`Pieces::remove`], requiring the pieces to cover `span` without a
    /// gap. A failed take leaves the table cut; callers abandon it.
    pub fn take(&mut self, span: Span) -> Result<Vec<(Span, T)>, String> {
        let under = self.remove(span);
        let covered: usize = under.iter().map(|(piece, _)| piece.len).sum();
        if covered == span.len {
            Ok(under)
        } else {
            Err(format!("no pieces cover all of {span}"))
        }
    }

    /// Hold `payload` over `span` (which must be vacant), coalescing with
    /// an adjacent piece of equal payload on either side.
    pub fn put(&mut self, mut span: Span, payload: T) {
        if span.is_empty() {
            return;
        }
        let left = self.map.range(..span.start).next_back();
        if let Some((held, _)) = left
            .map(|(_, piece)| piece)
            .filter(|(held, p)| held.end() == span.start && *p == payload)
        {
            span = Span::new(held.start, held.len + span.len);
        }
        if let Some((held, _)) = self.map.get(&span.end()).filter(|(_, p)| *p == payload) {
            let right = held.start;
            span.len += held.len;
            self.map.remove(&right);
        }
        // A coalesced left neighbour has the same key and is replaced.
        self.map.insert(span.start, (span, payload));
    }
}

/// A contiguous depth interval `[lo, hi)` of rank contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    lo: usize,
    hi: usize,
}

impl Run {
    /// `self over back`, which `over` only allows for depth-adjacent runs.
    fn over(self, back: Run) -> Option<Run> {
        (self.hi == back.lo).then_some(Run {
            lo: self.lo,
            hi: back.hi,
        })
    }
}

/// Symbolic verifier state of one rank.
struct Holding {
    /// What the rank currently holds live.
    local: Pieces<Run>,
    /// Deferred back accumulators, keyed by span start.
    back: BTreeMap<usize, (Span, Run)>,
}

impl Holding {
    /// Remove the one run held over exactly `span`.
    fn take(&mut self, span: Span) -> Result<Run, String> {
        match self.local.take(span)?.as_slice() {
            [(_, run)] => Ok(*run),
            pieces => Err(format!(
                "{span} is held as {} pieces of different runs",
                pieces.len()
            )),
        }
    }

    /// Apply the deferred accumulators: `local over deferred`.
    fn flush(&mut self) -> Result<(), String> {
        for (span, acc) in std::mem::take(&mut self.back).into_values() {
            let local = self.take(span)?;
            let merged = local.over(acc).ok_or_else(|| {
                format!(
                    "local [{},{}) not adjacent to deferred [{},{})",
                    local.lo, local.hi, acc.lo, acc.hi
                )
            })?;
            self.local.put(span, merged);
        }
        Ok(())
    }
}

/// Symbolically execute `schedule` and prove it correct.
///
/// Rank `r` starts out holding the run of its own depth,
/// [`Schedule::depth_of`]`(r)`, so a camera-permuted schedule is proven as
/// executed. Checks, in order:
/// 1. every transfer's source actually holds the span it ships, every
///    merge is depth-adjacent (the `over` contiguity requirement), and a
///    [`MergeDir::Place`] lands where its receiver holds nothing;
/// 2. deferred back accumulators are completed and adjacent at each flush
///    point ([`Step::flush`], and after the last step);
/// 3. after the last step, the surviving pieces are exactly the
///    `final_owners` map, every piece carrying the complete run `[0, P)`;
/// 4. `final_owners` tiles the frame.
pub fn verify_schedule(schedule: &Schedule) -> Result<(), CoreError> {
    let p = schedule.p;
    let a = schedule.image_len;
    let bad = |why: String| CoreError::InvalidSchedule { why };

    if let Some(depths) = &schedule.depth_of_rank {
        check_permutation(p, depths)?;
    }
    // Rank `r` starts out holding the run of its own depth `d`.
    let mut holdings: Vec<Holding> = (0..p)
        .map(|r| schedule.depth_of(r))
        .map(|d| Holding {
            local: Pieces::holding(Span::whole(a), Run { lo: d, hi: d + 1 }),
            back: BTreeMap::new(),
        })
        .collect();

    for (k, step) in schedule.steps.iter().enumerate() {
        for t in &step.transfers {
            if t.src >= p || t.dst >= p {
                return Err(bad(format!("step {k}: rank out of range in {t:?}")));
            }
            if t.src == t.dst {
                return Err(bad(format!("step {k}: self transfer {t:?}")));
            }
            if t.span.end() > a {
                return Err(bad(format!("step {k}: span out of frame in {t:?}")));
            }
            if t.span.is_empty() {
                // Degenerate shapes (fewer pixels than ranks) ship nothing.
                continue;
            }
            let sent = holdings[t.src]
                .take(t.span)
                .map_err(|e| bad(format!("step {k}: sender P{}: {e}", t.src)))?;
            let dst = &mut holdings[t.dst];
            let receiver = |e: String| bad(format!("step {k}: receiver P{}: {e}", t.dst));
            let apart = |what: &str, front: Run, back: Run| {
                bad(format!(
                    "step {k}: {what}: [{},{}) vs [{},{}) in {t:?}",
                    front.lo, front.hi, back.lo, back.hi
                ))
            };
            match t.dir {
                MergeDir::Front => {
                    let local = dst.take(t.span).map_err(receiver)?;
                    let merged = sent
                        .over(local)
                        .ok_or_else(|| apart("front merge not adjacent", sent, local))?;
                    dst.local.put(t.span, merged);
                }
                MergeDir::Back => {
                    let local = dst.take(t.span).map_err(receiver)?;
                    let merged = local
                        .over(sent)
                        .ok_or_else(|| apart("back merge not adjacent", local, sent))?;
                    dst.local.put(t.span, merged);
                }
                MergeDir::BackDefer => match dst.back.get(&t.span.start).copied() {
                    None => {
                        dst.back.insert(t.span.start, (t.span, sent));
                    }
                    Some((acc_span, _)) if acc_span != t.span => {
                        return Err(bad(format!(
                            "step {k}: deferred-back span mismatch {acc_span} vs {}",
                            t.span
                        )));
                    }
                    Some((_, acc)) => {
                        let merged = sent
                            .over(acc)
                            .ok_or_else(|| apart("deferred back not deepest-first", sent, acc))?;
                        dst.back.insert(t.span.start, (t.span, merged));
                    }
                },
                MergeDir::Place => {
                    if !dst.local.remove(t.span).is_empty() {
                        return Err(receiver(format!(
                            "a placement onto {}, which it still holds",
                            t.span
                        )));
                    }
                    dst.local.put(t.span, sent);
                }
            }
        }
        if step.flush {
            for (r, holding) in holdings.iter_mut().enumerate() {
                holding
                    .flush()
                    .map_err(|e| bad(format!("flush after step {k}: rank P{r}: {e}")))?;
            }
        }
    }
    for (r, holding) in holdings.iter_mut().enumerate() {
        holding
            .flush()
            .map_err(|e| bad(format!("flush: rank P{r}: {e}")))?;
    }

    // final_owners must tile the frame (zero-pixel spans, which degenerate
    // shapes produce, carry no pixels and are ignored).
    let mut spans: Vec<Span> = schedule
        .final_owners
        .iter()
        .map(|(s, _)| *s)
        .filter(|s| !s.is_empty())
        .collect();
    spans.sort_by_key(|s| s.start);
    if !rt_imaging::span::spans_tile(Span::whole(a), &spans) {
        return Err(bad("final_owners do not tile the frame".to_string()));
    }

    // Each owner must hold the complete run on exactly its final spans.
    for (span, owner) in &schedule.final_owners {
        if *owner >= p {
            return Err(bad(format!("final owner {owner} out of range")));
        }
        if span.is_empty() {
            continue;
        }
        let run = holdings[*owner]
            .take(*span)
            .map_err(|e| bad(format!("final: owner P{owner}: {e}")))?;
        if run.lo != 0 || run.hi != p {
            return Err(bad(format!(
                "final: owner P{owner} holds [{},{}) on {span}, expected [0,{p})",
                run.lo, run.hi
            )));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built two-rank swap: rank 0 keeps the first half (recv 1's
    /// partial as back), rank 1 keeps the second half (recv 0's as front).
    fn two_rank_swap(a: usize) -> Schedule {
        let (first, second) = Span::whole(a).halve();
        Schedule {
            p: 2,
            image_len: a,
            steps: vec![Step {
                transfers: vec![
                    Transfer {
                        src: 1,
                        dst: 0,
                        span: first,
                        dir: MergeDir::Back,
                    },
                    Transfer {
                        src: 0,
                        dst: 1,
                        span: second,
                        dir: MergeDir::Front,
                    },
                ],
                flush: false,
            }],
            final_owners: vec![(first, 0), (second, 1)],
            method: "swap2".into(),
            depth_of_rank: None,
        }
    }

    #[test]
    fn pieces_split_on_take_and_coalesce_on_put() {
        let at = |start: usize, end: usize| Span::new(start, end - start);
        let mut held = Pieces::holding(at(0, 100), 'a');
        assert_eq!(held.take(at(20, 50)).unwrap(), vec![(at(20, 50), 'a')]);
        assert_eq!(held.iter().count(), 2);
        // An equal neighbour is absorbed, an unequal one is not.
        held.put(at(20, 35), 'b');
        held.put(at(35, 50), 'a');
        let pieces: Vec<_> = held.iter().copied().collect();
        assert_eq!(
            pieces,
            vec![(at(0, 20), 'a'), (at(20, 35), 'b'), (at(35, 100), 'a')]
        );
        // A span over several pieces comes back piecewise, ends cut.
        assert_eq!(
            held.take(at(10, 60)).unwrap(),
            vec![(at(10, 20), 'a'), (at(20, 35), 'b'), (at(35, 60), 'a')]
        );
        held.put(at(10, 60), 'a');
        assert_eq!(
            held.iter().copied().collect::<Vec<_>>(),
            vec![(at(0, 100), 'a')]
        );
        // A gap fails a take but not a remove; empty spans hold nothing.
        assert_eq!(held.remove(at(40, 60)).len(), 1);
        assert!(held.take(at(30, 70)).is_err());
        assert!(held.take(Span::new(50, 0)).unwrap().is_empty());
    }

    #[test]
    fn a_placement_needs_a_vacant_span_and_a_flush_point_completes_one() {
        // P = 3: rank 1 collects 2's far half deferred, flushes, and places
        // the finished half at rank 0, which shipped its own copy away.
        let (first, second) = Span::whole(10).halve();
        let transfer = |src, dst, span, dir| Transfer {
            src,
            dst,
            span,
            dir,
        };
        let good = Schedule {
            p: 3,
            image_len: 10,
            steps: vec![
                Step {
                    transfers: vec![
                        transfer(0, 1, second, MergeDir::Front),
                        transfer(2, 1, second, MergeDir::BackDefer),
                        transfer(1, 0, first, MergeDir::Back),
                        transfer(2, 0, first, MergeDir::BackDefer),
                    ],
                    flush: true,
                },
                Step {
                    transfers: vec![transfer(1, 0, second, MergeDir::Place)],
                    flush: false,
                },
            ],
            final_owners: vec![(Span::whole(10), 0)],
            method: "place".into(),
            depth_of_rank: None,
        };
        verify_schedule(&good).unwrap();
        assert_eq!(good.links(DisplayWall::root(0)).len(), 3);

        let mut unflushed = good.clone();
        unflushed.steps[0].flush = false;
        assert!(verify_schedule(&unflushed).is_err());

        // Rank 0 keeps its second half: the placement has nowhere to land.
        let mut held = good.clone();
        held.steps[0].transfers.remove(0);
        let err = verify_schedule(&held).unwrap_err();
        assert!(err.to_string().contains("still holds"), "{err}");
    }

    #[test]
    fn two_rank_swap_verifies() {
        verify_schedule(&two_rank_swap(100)).unwrap();
    }

    #[test]
    fn wrong_direction_is_rejected() {
        let mut s = two_rank_swap(100);
        s.steps[0].transfers[0].dir = MergeDir::Front;
        let err = verify_schedule(&s).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSchedule { .. }), "{err}");
    }

    #[test]
    fn missing_transfer_leaves_incomplete_run() {
        let mut s = two_rank_swap(100);
        s.steps[0].transfers.pop();
        let err = verify_schedule(&s).unwrap_err();
        assert!(err.to_string().contains("expected [0,2)"), "{err}");
    }

    #[test]
    fn double_send_of_same_span_is_rejected() {
        let mut s = two_rank_swap(100);
        let dup = s.steps[0].transfers[0];
        s.steps[0].transfers.push(dup);
        assert!(verify_schedule(&s).is_err());
    }

    #[test]
    fn final_owner_gap_is_rejected() {
        let mut s = two_rank_swap(100);
        s.final_owners.remove(0);
        let err = verify_schedule(&s).unwrap_err();
        assert!(err.to_string().contains("tile"), "{err}");
    }

    #[test]
    fn self_transfer_is_rejected() {
        let mut s = two_rank_swap(100);
        s.steps[0].transfers[0].dst = 1;
        s.steps[0].transfers[0].src = 1;
        assert!(verify_schedule(&s).is_err());
    }

    #[test]
    fn deferred_back_deepest_first_enforced() {
        // P = 3: rank 0 accumulates: own [0,1); recv 2 deferred; recv 1
        // deferred (front of 2) — valid. Swapping arrival order must fail.
        let span = Span::whole(10);
        let good = Schedule {
            p: 3,
            image_len: 10,
            steps: vec![
                Step {
                    transfers: vec![Transfer {
                        src: 2,
                        dst: 0,
                        span,
                        dir: MergeDir::BackDefer,
                    }],
                    flush: false,
                },
                Step {
                    transfers: vec![Transfer {
                        src: 1,
                        dst: 0,
                        span,
                        dir: MergeDir::BackDefer,
                    }],
                    flush: false,
                },
            ],
            final_owners: vec![(span, 0)],
            method: "defer".into(),
            depth_of_rank: None,
        };
        verify_schedule(&good).unwrap();

        let mut bad = good.clone();
        bad.steps.swap(0, 1);
        assert!(verify_schedule(&bad).is_err());
    }

    #[test]
    fn walkthrough_mentions_every_transfer() {
        let s = two_rank_swap(100);
        let text = s.walkthrough();
        assert!(text.contains("P1 -> P0"));
        assert!(text.contains("P0 -> P1"));
        assert!(text.contains("final ownership"));
    }

    #[test]
    fn stats_are_consistent() {
        let s = two_rank_swap(100);
        assert_eq!(s.step_count(), 1);
        assert_eq!(s.message_count(), 2);
        assert_eq!(s.pixels_shipped(), 100);
        assert_eq!(s.owned_pixels(), vec![50, 50]);
    }
}
