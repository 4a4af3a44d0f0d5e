//! Recovery planning after rank failures: pure re-pairing of survivors.
//!
//! When a rank fails mid-schedule (fail-stop, announced by the comm layer's
//! death notification), the survivors agree on the failure set via
//! [`rt_comm`]'s liveness exchange and then each computes the **same**
//! [`RepairPlan`] from the same inputs by calling [`repair`] — no further
//! coordination is needed. The plan tells each survivor which pieces of its
//! buffer other ranks need, and tells each (possibly reassigned) span owner
//! which pieces to fetch and in which depth order to `over`-merge them.
//!
//! # Why recovery is possible at all
//!
//! The executor *copies* a span out of the local buffer when it sends
//! ([`rt_imaging::Image::extract`]), and the schedule verifier's
//! conservation invariant guarantees a rank never merges new data into a
//! span it has already shipped. So the physical buffer of every survivor
//! still holds, at every span it ever sent, the exact pixels it sent — a
//! free write-once *archive* of every intermediate composite. A piece that
//! died with the failed rank is therefore reconstructible from its inputs,
//! which still sit in its senders' buffers; the only data that can be lost
//! for good is the failed rank's **own** rendered contribution, where it
//! was never shipped.
//!
//! # Degradation semantics
//!
//! Skipping a failed rank's contributions is sound because `over` is
//! associative: deleting members from a depth-ordered composite leaves a
//! correct composite of the remaining members (the schedule's adjacency
//! reasoning continues to hold over *ghost runs* — member intervals with
//! holes at dead ranks). The degraded frame equals, bit for bit, the frame
//! the surviving ranks would have produced on their own; [`DegradedInfo`]
//! reports exactly which contributions are missing where.
//!
//! The planner simulates the degraded execution symbolically (member *sets*
//! instead of pixels), mirroring [`crate::schedule::verify_schedule`] but
//! keeping the send-time archives. All bookkeeping is in depth space, so a
//! camera-permuted schedule ([`Schedule::depth_of_rank`]) repairs the same
//! way as a depth-indexed one.

use crate::exec::ComposeConfig;
use crate::schedule::{MergeDir, Schedule};
use crate::CoreError;
use rt_comm::{Mark, RankCtx};
use rt_imaging::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// What the degraded output is missing, and who is to blame.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedInfo {
    /// Confirmed failures: `(rank, step)` pairs, sorted by rank. `step` is
    /// the schedule step at whose start the rank stopped.
    pub failed: Vec<(usize, usize)>,
    /// Ranks whose rendered contribution is absent from at least one pixel
    /// of the output (their unsent data died with them), sorted.
    pub lost_contributions: Vec<usize>,
    /// Pixels missing at least one rank's contribution.
    pub lost_pixels: usize,
    /// Final-ownership spans whose owner died and was reassigned.
    pub reassigned_spans: usize,
    /// New gather root, if the configured root was among the failed.
    pub root_reassigned_to: Option<usize>,
}

impl DegradedInfo {
    /// Info reported by a rank that is itself the one crashing at `step`.
    pub fn self_crash(rank: usize, step: usize) -> Self {
        DegradedInfo {
            failed: vec![(rank, step)],
            lost_contributions: vec![rank],
            lost_pixels: 0,
            reassigned_spans: 0,
            root_reassigned_to: None,
        }
    }
}

/// Move the gather root to the lowest-ranked survivor if `root` is among
/// `crashed`, and report the new root when it moved. Every survivor
/// computes the same answer from the agreed set; if no rank survived there
/// is nobody to assemble a frame at all.
pub(crate) fn reassign_root(
    p: usize,
    root: &mut usize,
    crashed: &BTreeMap<usize, usize>,
) -> Result<Option<usize>, CoreError> {
    if !crashed.contains_key(root) {
        return Ok(None);
    }
    let survivor = (0..p)
        .find(|r| !crashed.contains_key(r))
        .ok_or(CoreError::AllRanksFailed { p })?;
    *root = survivor;
    Ok(Some(survivor))
}

/// The failure-agreement round of a flat executor, run between
/// `compose:end` and the gather: decide whether any planned crash fires
/// within this compose (steps `..= horizon`), agree with the other
/// survivors on who actually died, let `recover` rebuild what the dead
/// owned, and re-elect the gather root. Returns the root to gather at and
/// what the frame is missing (`None` when nobody died).
///
/// The fault plan is shared, so "is a failure phase needed" is decided
/// identically, and without communication, by every rank; and the
/// survivors announce the deterministic planned-failure set, so every one
/// of them contributes identical membership traffic and faulty runs replay
/// bit-exact (the death notifications alone would race — a frame processed
/// before the exchange on one run may arrive after it on the next, changing
/// payload sizes).
pub(crate) fn agree_on_failures(
    ctx: &mut RankCtx,
    config: &ComposeConfig,
    p: usize,
    horizon: usize,
    recover: impl FnOnce(&mut RankCtx, &BTreeMap<usize, usize>) -> Result<DegradedInfo, CoreError>,
) -> Result<(usize, Option<DegradedInfo>), CoreError> {
    let mut root = config.root;
    if !config.resilient {
        return Ok((root, None));
    }
    let mut announced = ctx.planned_crashes();
    announced.retain(|&(_, step)| step <= horizon);
    if announced.is_empty() {
        return Ok((root, None));
    }
    ctx.mark(Mark::RepairStart);
    let crashed = ctx.liveness_exchange(&announced)?;
    let mut degraded = None;
    if !crashed.is_empty() {
        let mut info = recover(ctx, &crashed)?;
        info.root_reassigned_to = reassign_root(p, &mut root, &crashed)?;
        degraded = Some(info);
    }
    ctx.mark(Mark::RepairEnd);
    Ok((root, degraded))
}

/// One piece an owner must fetch while reconstructing a span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairFetch {
    /// Rank whose buffer holds the piece (extracted at the entry's span).
    pub holder: usize,
    /// Depth indices composited into the piece, ascending (for tests and
    /// reports; the executor only needs the fetch order).
    pub members: Vec<usize>,
}

/// Reconstruction of one span of the final frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairEntry {
    /// The pixel range being reconstructed.
    pub span: Span,
    /// Rank that assembles (and afterwards owns) the span.
    pub owner: usize,
    /// Pieces to fetch, front-to-back: the result is
    /// `fetches[0] over fetches[1] over …`.
    pub fetches: Vec<RepairFetch>,
}

/// The full recovery plan every survivor computes identically.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairPlan {
    /// Spans needing reconstruction work, sorted by span start.
    pub entries: Vec<RepairEntry>,
    /// Final ownership after reassigning dead owners' spans to survivors
    /// (same spans as the schedule's, owners patched).
    pub final_owners: Vec<(Span, usize)>,
    /// What the degraded output will be missing.
    pub info: DegradedInfo,
}

/// A piece's member set: depth indices whose contribution it carries.
type Members = BTreeSet<usize>;

/// Per-depth current holdings, keyed by span start (verifier-style).
struct Holdings {
    pieces: BTreeMap<usize, (Span, Members)>,
}

impl Holdings {
    fn seed(depth: usize, image_len: usize) -> Self {
        let mut pieces = BTreeMap::new();
        let span = Span::whole(image_len);
        pieces.insert(0, (span, Members::from([depth])));
        Holdings { pieces }
    }

    /// Remove and return the members of the current piece at exactly
    /// `span`, splitting a larger containing piece if needed.
    fn take(&mut self, span: Span, who: usize) -> Result<Members, CoreError> {
        let key = match self.pieces.range(..=span.start).next_back() {
            Some((&k, (held, _))) if held.contains(&span) => k,
            _ => {
                return Err(CoreError::InvalidSchedule {
                    why: format!("repair simulation: depth {who} does not hold {span}"),
                })
            }
        };
        let (held, members) = match self.pieces.remove(&key) {
            Some(piece) => piece,
            None => {
                return Err(CoreError::InvalidSchedule {
                    why: format!("repair simulation: piece at {key} vanished"),
                })
            }
        };
        if held.start < span.start {
            let left = Span::new(held.start, span.start - held.start);
            self.pieces.insert(left.start, (left, members.clone()));
        }
        if span.end() < held.end() {
            let right = Span::new(span.end(), held.end() - span.end());
            self.pieces.insert(right.start, (right, members.clone()));
        }
        Ok(members)
    }

    fn put(&mut self, span: Span, members: Members) {
        self.pieces.insert(span.start, (span, members));
    }
}

/// Compute the recovery plan for `schedule` given the confirmed failure
/// set `crashed` (`rank → step`, as agreed by the liveness exchange).
///
/// Pure: every survivor calling this with the same arguments gets the same
/// plan. Returns an error only if the schedule was not self-consistent
/// (which [`crate::schedule::verify_schedule`] would already have caught).
pub fn repair(
    schedule: &Schedule,
    crashed: &BTreeMap<usize, usize>,
) -> Result<RepairPlan, CoreError> {
    let p = schedule.p;
    if (0..p).all(|r| crashed.contains_key(&r)) {
        // With no survivor there is nobody to hold a plan entry, own a
        // span, or serve as gather root — an empty plan would silently
        // present a blank frame as a valid degraded composite.
        return Err(CoreError::AllRanksFailed { p });
    }
    // rank ↔ depth translation (identity unless the schedule was permuted).
    let depth_of = |rank: usize| schedule.depth_of(rank);
    let mut rank_of_depth = vec![0usize; p];
    for r in 0..p {
        rank_of_depth[depth_of(r)] = r;
    }
    // Failure set in depth space.
    let crash_step_of_depth: BTreeMap<usize, usize> = crashed
        .iter()
        .map(|(&rank, &step)| (depth_of(rank), step))
        .collect();
    let dead_at =
        |depth: usize, step: usize| crash_step_of_depth.get(&depth).is_some_and(|&k| k <= step);
    let dead = |depth: usize| crash_step_of_depth.contains_key(&depth);

    // --- Symbolic degraded execution over member sets -------------------
    let mut holdings: Vec<Holdings> = (0..p)
        .map(|d| Holdings::seed(d, schedule.image_len))
        .collect();
    // Send-time snapshots still physically present in each depth's buffer.
    let mut archives: Vec<Vec<(Span, Members)>> = vec![Vec::new(); p];
    // Deferred back accumulators, keyed by (depth, span start).
    let mut back_accs: BTreeMap<(usize, usize), (Span, Members)> = BTreeMap::new();

    for (k, step) in schedule.steps.iter().enumerate() {
        for t in &step.transfers {
            let sd = depth_of(t.src);
            let dd = depth_of(t.dst);
            if dead_at(sd, k) {
                continue; // never sent; the receiver skips the merge
            }
            let sent = holdings[sd].take(t.span, sd)?;
            archives[sd].push((t.span, sent.clone()));
            if dead_at(dd, k) {
                continue; // lost in transit; inputs remain archived
            }
            match t.dir {
                MergeDir::Front | MergeDir::Back => {
                    let mut local = holdings[dd].take(t.span, dd)?;
                    local.extend(sent.iter().copied());
                    holdings[dd].put(t.span, local);
                }
                MergeDir::BackDefer => {
                    let acc = back_accs
                        .entry((dd, t.span.start))
                        .or_insert_with(|| (t.span, Members::new()));
                    acc.1.extend(sent.iter().copied());
                }
            }
        }
    }
    for ((d, _), (span, acc)) in back_accs {
        if dead(d) {
            continue;
        }
        let mut local = holdings[d].take(span, d)?;
        local.extend(acc.iter().copied());
        holdings[d].put(span, local);
    }

    // --- Available pieces (survivors only): current first, then archives.
    // `kind` 0 = current, 1 = archive, so sorting prefers live pieces.
    struct Avail {
        span: Span,
        members: Members,
        holder_depth: usize,
        kind: u8,
    }
    let mut avail: Vec<Avail> = Vec::new();
    for d in 0..p {
        if dead(d) {
            continue;
        }
        for (span, members) in holdings[d].pieces.values() {
            avail.push(Avail {
                span: *span,
                members: members.clone(),
                holder_depth: d,
                kind: 0,
            });
        }
        for (span, members) in archives[d].drain(..) {
            avail.push(Avail {
                span,
                members,
                holder_depth: d,
                kind: 1,
            });
        }
    }

    // --- Reassign dead owners and reconstruct each final span -----------
    let survivors: Vec<usize> = (0..p).filter(|&r| !crashed.contains_key(&r)).collect();
    let fallback_owner = survivors.first().copied();

    let mut entries: Vec<RepairEntry> = Vec::new();
    let mut final_owners = schedule.final_owners.clone();
    let mut reassigned_spans = 0usize;
    let mut lost_members: BTreeSet<usize> = Members::new();
    let mut lost_pixels = 0usize;

    for (span, owner) in &mut final_owners {
        let owner_alive = !crashed.contains_key(owner);
        if !owner_alive {
            let Some(new_owner) = fallback_owner else {
                continue; // no survivors: nothing to plan
            };
            *owner = new_owner;
            reassigned_spans += 1;
        }
        if span.is_empty() {
            continue;
        }
        let owner_depth = depth_of(*owner);

        // Atomic intervals: cut the span at every available-piece boundary.
        let mut cuts: BTreeSet<usize> = BTreeSet::from([span.start, span.end()]);
        for a in &avail {
            for edge in [a.span.start, a.span.end()] {
                if span.start < edge && edge < span.end() {
                    cuts.insert(edge);
                }
            }
        }
        let cuts: Vec<usize> = cuts.into_iter().collect();
        for w in cuts.windows(2) {
            let atom = Span::new(w[0], w[1] - w[0]);
            // Candidate pieces fully covering the atom. Thanks to the
            // cuts, partial overlap is impossible.
            let mut cands: Vec<&Avail> = avail.iter().filter(|a| a.span.contains(&atom)).collect();
            let achievable: Members = cands
                .iter()
                .flat_map(|a| a.members.iter().copied())
                .collect();
            for d in 0..p {
                if !achievable.contains(&d) {
                    lost_members.insert(d);
                }
            }
            if achievable.len() < p {
                lost_pixels += atom.len;
            }
            // The member sets form a laminar family (pieces only ever grow
            // by merging, archives are snapshots of ancestors), so a
            // largest-first greedy cover is exact.
            cands.sort_by_key(|a| (std::cmp::Reverse(a.members.len()), a.kind, a.holder_depth));
            let mut needed = achievable;
            let mut picked: Vec<&Avail> = Vec::new();
            for c in cands {
                if !c.members.is_empty() && c.members.is_subset(&needed) {
                    for m in &c.members {
                        needed.remove(m);
                    }
                    picked.push(c);
                }
            }
            debug_assert!(needed.is_empty(), "laminar cover must be exact");
            // Front-to-back merge order = ascending minimum depth.
            picked.sort_by_key(|a| a.members.first().copied().unwrap_or(usize::MAX));
            // No work if the owner already holds the atom as one live piece.
            if let [only] = picked.as_slice() {
                if only.kind == 0 && only.holder_depth == owner_depth {
                    continue;
                }
            }
            entries.push(RepairEntry {
                span: atom,
                owner: *owner,
                fetches: picked
                    .into_iter()
                    .map(|a| RepairFetch {
                        holder: rank_of_depth[a.holder_depth],
                        members: a.members.iter().copied().collect(),
                    })
                    .collect(),
            });
        }
    }
    entries.sort_by_key(|e| e.span.start);

    let info = DegradedInfo {
        failed: crashed.iter().map(|(&r, &k)| (r, k)).collect(),
        lost_contributions: lost_members.into_iter().map(|d| rank_of_depth[d]).collect(),
        lost_pixels,
        reassigned_spans,
        root_reassigned_to: None,
    };
    Ok(RepairPlan {
        entries,
        final_owners,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::CompositionMethod;
    use crate::{BinarySwap, ParallelPipelined, RotateTiling};

    fn crash(pairs: &[(usize, usize)]) -> BTreeMap<usize, usize> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn no_failures_means_no_work() {
        let s = BinarySwap::new().build(8, 512).unwrap();
        let plan = repair(&s, &BTreeMap::new()).unwrap();
        assert!(plan.entries.is_empty());
        assert_eq!(plan.final_owners, s.final_owners);
        assert_eq!(plan.info.lost_pixels, 0);
        assert!(plan.info.failed.is_empty());
    }

    #[test]
    fn crash_at_step_zero_loses_only_the_crashed_contribution() {
        for s in [
            BinarySwap::new().build(4, 256).unwrap(),
            ParallelPipelined::new().build(4, 256).unwrap(),
            RotateTiling::two_n(2).build(4, 256).unwrap(),
        ] {
            let plan = repair(&s, &crash(&[(2, 0)])).unwrap();
            assert_eq!(plan.info.failed, vec![(2, 0)]);
            assert_eq!(
                plan.info.lost_contributions,
                vec![2],
                "{}: only rank 2's own data is lost",
                s.method
            );
            // Rank 2 contributed nothing anywhere: every pixel lost it.
            assert_eq!(plan.info.lost_pixels, 256, "{}", s.method);
            // Spans owned by the dead rank moved to a survivor.
            for (_, owner) in &plan.final_owners {
                assert_ne!(*owner, 2, "{}", s.method);
            }
            // Every fetch comes from a survivor and covers each entry's
            // achievable members exactly once.
            for e in &plan.entries {
                let mut seen = BTreeSet::new();
                for fetch in &e.fetches {
                    assert_ne!(fetch.holder, 2, "{}", s.method);
                    for &m in &fetch.members {
                        assert!(seen.insert(m), "{}: member duplicated", s.method);
                    }
                }
                assert!(!seen.contains(&2), "{}", s.method);
            }
        }
    }

    #[test]
    fn late_crash_loses_only_the_never_shipped_data() {
        // Crashing after the last step: everything the rank ever shipped
        // survives (at receivers, or archived at senders), so the only
        // loss is its own rendered data for the span it finally owned —
        // in binary-swap that data never leaves the rank.
        let s = BinarySwap::new().build(4, 256).unwrap();
        let k = s.steps.len(); // fail-stop after the steps, before gather
        let plan = repair(&s, &crash(&[(1, k)])).unwrap();
        assert_eq!(plan.info.lost_contributions, vec![1]);
        assert_eq!(
            plan.info.lost_pixels,
            256 / 4,
            "exactly its finally-owned quarter"
        );
        // Its finally-owned span must be reconstructed elsewhere.
        assert!(plan.info.reassigned_spans > 0);
        assert!(!plan.entries.is_empty());
        for e in &plan.entries {
            assert_ne!(e.owner, 1);
        }
    }

    #[test]
    fn entries_tile_the_reassigned_spans() {
        let s = RotateTiling::two_n(2).build(6, 360).unwrap();
        let plan = repair(&s, &crash(&[(3, 1)])).unwrap();
        for e in &plan.entries {
            assert!(!e.fetches.is_empty());
            assert!(e.span.len > 0);
        }
        // Entry spans are disjoint and sorted.
        for w in plan.entries.windows(2) {
            assert!(w[0].span.end() <= w[1].span.start);
        }
    }

    #[test]
    fn multiple_failures_are_supported() {
        let s = ParallelPipelined::new().build(6, 360).unwrap();
        let plan = repair(&s, &crash(&[(0, 1), (4, 2)])).unwrap();
        assert_eq!(plan.info.failed, vec![(0, 1), (4, 2)]);
        for (_, owner) in &plan.final_owners {
            assert!(*owner != 0 && *owner != 4);
        }
        for e in &plan.entries {
            for fetch in &e.fetches {
                assert!(fetch.holder != 0 && fetch.holder != 4);
            }
        }
    }

    #[test]
    fn the_root_moves_to_the_lowest_survivor_or_errors() {
        let crashed = crash(&[(0, 0), (1, 2)]);
        let mut root = 3;
        assert_eq!(reassign_root(4, &mut root, &crashed).unwrap(), None);
        assert_eq!(root, 3, "a live root stays");
        let mut root = 1;
        assert_eq!(reassign_root(4, &mut root, &crashed).unwrap(), Some(2));
        assert_eq!(root, 2);
        let all: BTreeMap<usize, usize> = (0..4).map(|r| (r, 0)).collect();
        assert_eq!(
            reassign_root(4, &mut 0, &all).unwrap_err(),
            CoreError::AllRanksFailed { p: 4 }
        );
    }

    #[test]
    fn all_ranks_dead_is_a_typed_error() {
        let s = BinarySwap::new().build(2, 64).unwrap();
        let err = repair(&s, &crash(&[(0, 0), (1, 0)])).unwrap_err();
        assert_eq!(err, CoreError::AllRanksFailed { p: 2 });
    }
}
