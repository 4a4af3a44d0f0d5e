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
//! The executor encodes a span straight off the local buffer when it sends
//! and leaves those pixels in place, and the schedule verifier's
//! conservation invariant guarantees a rank never merges new data into a
//! span it has already shipped. So the physical buffer of every survivor
//! still holds, at every span it ever sent, the exact pixels it sent — a
//! free write-once *archive* of every intermediate composite. A piece that
//! died with the failed rank is therefore reconstructible from its inputs,
//! which still sit in its senders' buffers; the only data that can be lost
//! for good is the failed rank's **own** rendered contribution, where it
//! was never shipped.
//!
//! The one transfer that writes into an already-shipped span is
//! [`MergeDir::Place`], and it amends the rule in exactly one way,
//! mirrored by the executor: a *delivered* placement overwrites — and so
//! retires — the receiver's archives under its span; a *skipped* one (dead
//! sender) leaves the buffer untouched, so what the receiver carries on
//! from there is its own archived snapshot.
//!
//! # Dead relays, and why a repairing rank keeps its partial
//!
//! Pieces can be composited together only if their depth ranges do not
//! interleave. A rank that dies holding other ranks' data — a group leader,
//! a member part-way through a multi-step intra method, any rank of a
//! multi-round flat schedule — leaves a *hole*: its receivers skip what was
//! to pass through it and go on merging pieces from beyond the hole, in
//! place, over their own never-shipped content (a leader that missed a
//! placement carries its old snapshot onward the same way). The skipped
//! ranks' archives then interleave with those pieces, and a survivor's own
//! content could be kept only by giving theirs up. So a repairing executor
//! keeps each rank's rendered partial aside ([`RepairFetch::own`]): every
//! survivor is fetchable alone on every span, a cover of all survivors
//! always exists, and a degraded frame misses dead ranks' data only.
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
//! The planner simulates the degraded execution symbolically, over the
//! piece table [`crate::schedule::verify_schedule`] uses (member *sets* in
//! place of depth runs) and keeping the send-time archives. All bookkeeping
//! is in depth space, so a camera-permuted schedule
//! ([`Schedule::depth_of_rank`]) repairs the same way as a depth-indexed
//! one.

use crate::schedule::{MergeDir, Pieces, Schedule};
use crate::CoreError;
use rt_comm::{Mark, RankCtx};
use rt_imaging::Span;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
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
/// `compose:end` and the gather: when the fault plan crashes a rank within
/// this compose (`crashes`, `(rank, step)`), agree with the other survivors
/// on who actually died, let `recover` rebuild what the dead owned, and
/// re-elect the gather `root`. Returns the root to gather at and what the
/// frame is missing (`None` when nobody died).
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
    mut root: usize,
    p: usize,
    crashes: &[(usize, usize)],
    recover: impl FnOnce(&mut RankCtx, &BTreeMap<usize, usize>) -> Result<DegradedInfo, CoreError>,
) -> Result<(usize, Option<DegradedInfo>), CoreError> {
    if crashes.is_empty() {
        return Ok((root, None));
    }
    ctx.mark(Mark::RepairStart);
    let crashed = ctx.liveness_exchange(crashes)?;
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
    /// The piece is the holder's own rendered partial, kept aside since the
    /// frame began, not what its composition buffer shows.
    pub own: bool,
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
    // With no survivor there is nobody to hold a plan entry, own a span, or
    // serve as gather root — an empty plan would silently present a blank
    // frame as a valid degraded composite.
    let fallback_owner = (0..p)
        .find(|r| !crashed.contains_key(r))
        .ok_or(CoreError::AllRanksFailed { p })?;
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
    // Deferred merges are applied on arrival: a verified schedule ships a
    // span only after the flush that completes it, so no snapshot can tell
    // the difference.
    let whole = Span::whole(schedule.image_len);
    let mut holdings: Vec<Pieces<Members>> = (0..p)
        .map(|d| Pieces::holding(whole, Members::from([d])))
        .collect();
    // Send-time snapshots still physically present in each depth's buffer.
    let mut archives: Vec<Pieces<Members>> = vec![Pieces::empty(); p];
    let unheld = |depth: usize, why: String| CoreError::InvalidSchedule {
        why: format!("repair simulation: depth {depth}: {why}"),
    };

    for (k, step) in schedule.steps.iter().enumerate() {
        for t in &step.transfers {
            let sd = depth_of(t.src);
            let dd = depth_of(t.dst);
            if dead_at(sd, k) {
                // Never sent; the receiver skips the merge — and a skipped
                // placement leaves it holding what it archived there.
                if t.dir == MergeDir::Place {
                    for (span, stale) in archives[dd].remove(t.span) {
                        holdings[dd].put(span, stale);
                    }
                }
                continue;
            }
            let sent = holdings[sd].take(t.span).map_err(|e| unheld(sd, e))?;
            for (span, members) in &sent {
                archives[sd].put(*span, members.clone());
            }
            if dead_at(dd, k) {
                continue; // lost in transit; inputs remain archived
            }
            if t.dir == MergeDir::Place {
                // Delivered: it overwrites what the receiver archived there.
                archives[dd].remove(t.span);
                for (span, members) in sent {
                    holdings[dd].put(span, members);
                }
                continue;
            }
            for (span, members) in sent {
                for (piece, mut local) in holdings[dd].take(span).map_err(|e| unheld(dd, e))? {
                    local.extend(members.iter().copied());
                    holdings[dd].put(piece, local);
                }
            }
        }
    }

    // --- Available pieces (survivors only) ------------------------------
    // `kind` 0 = current, 1 = archive, 2 = the rank's own partial kept
    // aside, so ties prefer live pieces and the partials are fetched only
    // where nothing else serves.
    struct Avail {
        span: Span,
        members: Members,
        /// Nearest and farthest member: the depth range the piece spans.
        front: usize,
        back: usize,
        /// How many of the members are survivors.
        alive: usize,
        holder_depth: usize,
        kind: u8,
    }
    let mut avail: Vec<Avail> = Vec::new();
    for d in (0..p).filter(|&d| !dead(d)) {
        let own = Pieces::holding(whole, Members::from([d]));
        for (kind, table) in [&holdings[d], &archives[d], &own].into_iter().enumerate() {
            for (span, members) in table.iter() {
                let (Some(&front), Some(&back)) = (members.first(), members.last()) else {
                    continue;
                };
                avail.push(Avail {
                    span: *span,
                    members: members.clone(),
                    front,
                    back,
                    alive: members.iter().filter(|&&m| !dead(m)).count(),
                    holder_depth: d,
                    kind: kind as u8,
                });
            }
        }
    }

    // --- Reassign dead owners and reconstruct each final span -----------
    let mut entries: Vec<RepairEntry> = Vec::new();
    let mut final_owners = schedule.final_owners.clone();
    let mut reassigned_spans = 0usize;
    let mut lost_members: BTreeSet<usize> = Members::new();
    let mut lost_pixels = 0usize;

    for (span, owner) in &mut final_owners {
        if crashed.contains_key(owner) {
            *owner = fallback_owner;
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
            // Candidate pieces fully covering the atom (thanks to the cuts,
            // partial overlap is impossible), by the depth they reach back
            // to; among equals, live before archived, front holder first.
            let mut cands: Vec<&Avail> = avail.iter().filter(|a| a.span.contains(&atom)).collect();
            cands.sort_by_key(|a| (a.back, a.kind, a.holder_depth));
            // Only pieces whose depth ranges do not interleave composite
            // together (module doc), so the cover is a weighted interval
            // scheduling: `best[d]` is the most survivors' contributions —
            // then the most of the dead's, then the fewest pieces —
            // reachable with pieces wholly in front of depth `d`, `via[d]`
            // the last piece of that choice. On the laminar ghost runs of a
            // flat schedule without a dead relay it picks the maximal sets.
            let mut best = vec![(0usize, 0usize, Reverse(0usize)); p + 1];
            let mut via: Vec<Option<&Avail>> = vec![None; p + 1];
            let mut ending = cands.iter().peekable();
            for d in 0..p {
                best[d + 1] = best[d];
                while let Some(c) = ending.next_if(|c| c.back == d) {
                    let (alive, members, Reverse(pieces)) = best[c.front];
                    let with = (
                        alive + c.alive,
                        members + c.members.len(),
                        Reverse(pieces + 1),
                    );
                    if with > best[d + 1] {
                        best[d + 1] = with;
                        via[d + 1] = Some(c);
                    }
                }
            }
            // Walk the choice back; `picked` comes out front-to-back, which
            // is the merge order.
            let mut picked: Vec<&Avail> = Vec::new();
            let mut d = p;
            while d > 0 {
                d = via[d].map_or(d - 1, |c| {
                    picked.push(c);
                    c.front
                });
            }
            picked.reverse();
            let covered: Members = picked.iter().flat_map(|c| &c.members).copied().collect();
            lost_members.extend((0..p).filter(|d| !covered.contains(d)));
            if covered.len() < p {
                lost_pixels += atom.len;
            }
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
                        own: a.kind == 2,
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
    use crate::rotate::{self, RtVariant};
    use crate::Method;

    fn crash(pairs: &[(usize, usize)]) -> BTreeMap<usize, usize> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn no_failures_means_no_work() {
        let s = Method::BinarySwap.build(8, 512).unwrap();
        let plan = repair(&s, &BTreeMap::new()).unwrap();
        assert!(plan.entries.is_empty());
        assert_eq!(plan.final_owners, s.final_owners);
        assert_eq!(plan.info.lost_pixels, 0);
        assert!(plan.info.failed.is_empty());
    }

    #[test]
    fn crash_at_step_zero_loses_only_the_crashed_contribution() {
        for s in [
            Method::BinarySwap.build(4, 256).unwrap(),
            Method::ParallelPipelined.build(4, 256).unwrap(),
            rotate::schedule(4, 256, RtVariant::TwoN, 2).unwrap(),
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
            // Spans owned by the dead rank moved to a survivor, every fetch
            // comes from one and covers each member once, in depth order.
            assert_sound(&plan, &[2]);
            let mut fetches = plan.entries.iter().flat_map(|e| &e.fetches);
            assert!(fetches.all(|f| !f.members.contains(&2)), "{}", s.method);
        }
    }

    #[test]
    fn late_crash_loses_only_the_never_shipped_data() {
        // Crashing after the last step: everything the rank ever shipped
        // survives (at receivers, or archived at senders), so the only
        // loss is its own rendered data for the span it finally owned —
        // in binary-swap that data never leaves the rank.
        let s = Method::BinarySwap.build(4, 256).unwrap();
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
        let s = rotate::schedule(6, 360, RtVariant::TwoN, 2).unwrap();
        let plan = repair(&s, &crash(&[(3, 1)])).unwrap();
        assert_sound(&plan, &[3]);
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
        let s = Method::ParallelPipelined.build(6, 360).unwrap();
        let plan = repair(&s, &crash(&[(0, 1), (4, 2)])).unwrap();
        assert_eq!(plan.info.failed, vec![(0, 1), (4, 2)]);
        assert_sound(&plan, &[0, 4]);
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

    /// p = 8 in two groups of 4 on one step clock: the intra steps, then
    /// the placements at `place`, then the leader exchange.
    fn hier(intra: crate::IntraMethod) -> (Schedule, usize) {
        let s = crate::hier::build(8, 4, intra, 256).unwrap();
        let place = s
            .steps
            .iter()
            .position(|step| step.transfers.iter().any(|t| t.dir == MergeDir::Place))
            .unwrap();
        (s, place)
    }

    /// No fetch is served by, and no span left with, a dead rank — and
    /// every entry composites front to back: each fetched piece lies wholly
    /// behind the one before it.
    fn assert_sound(plan: &RepairPlan, dead: &[usize]) {
        for e in &plan.entries {
            assert!(!dead.contains(&e.owner));
            for fetch in &e.fetches {
                assert!(!dead.contains(&fetch.holder));
            }
            for w in e.fetches.windows(2) {
                assert!(
                    w[0].members.last() < w[1].members.first(),
                    "{}: {:?} cannot go in front of {:?}",
                    e.span,
                    w[0].members,
                    w[1].members
                );
            }
        }
        assert!(plan.final_owners.iter().all(|(_, r)| !dead.contains(r)));
    }

    #[test]
    fn member_dead_before_its_placement_loses_only_its_unshipped_data() {
        // Rank 2 finished a quarter of its group's composite and dies
        // before placing it: the leader goes on with the snapshot it
        // archived there and the other leader merges its group behind that,
        // past ranks 1 and 3, whose inputs are still in their buffers. The
        // quarter is rebuilt in depth order around them, and only rank 2's
        // own data on it is gone.
        for intra in [
            crate::IntraMethod::DirectSend,
            crate::IntraMethod::BinarySwap,
        ] {
            let (s, place) = hier(intra);
            let unplaced = s.steps[place]
                .transfers
                .iter()
                .find(|t| t.src == 2)
                .unwrap()
                .span;
            let plan = repair(&s, &crash(&[(2, place)])).unwrap();
            assert_eq!(plan.info.lost_contributions, vec![2], "{intra:?}");
            assert_eq!(plan.info.lost_pixels, unplaced.len, "{intra:?}");
            assert_sound(&plan, &[2]);
            let rebuilt = plan.entries.iter().filter(|e| unplaced.contains(&e.span));
            let mut pixels = 0;
            for e in rebuilt {
                let members: Vec<usize> =
                    e.fetches.iter().flat_map(|f| f.members.clone()).collect();
                assert_eq!(members, vec![0, 1, 3, 4, 5, 6, 7], "{intra:?} {}", e.span);
                pixels += e.span.len;
            }
            assert_eq!(pixels, unplaced.len, "{intra:?}");
        }
    }

    #[test]
    fn a_dead_relay_costs_no_survivor_its_own_data() {
        // Radix-k [3, 3] on 9 ranks: rank 3 dies before the second round,
        // holding the composite of ranks 3..6. Rank 0 skips it and merges
        // ranks 6..9 straight behind its own 0..3, in place, so ranks 4 and
        // 5 no longer fit in between and rank 0's data exists nowhere else
        // in the buffers: its kept partial is what saves it.
        let s = crate::radix::schedule(9, 324, &[3, 3]).unwrap();
        let plan = repair(&s, &crash(&[(3, 1)])).unwrap();
        assert_eq!(plan.info.lost_contributions, vec![3]);
        assert_sound(&plan, &[3]);
        let mut fetches = plan.entries.iter().flat_map(|e| &e.fetches);
        assert!(fetches.any(|f| f.own && f.members == vec![0]));
    }

    #[test]
    fn leader_dead_in_the_inter_phase_does_not_cost_its_group() {
        // Leader 4 dies holding the placed composite of ranks 4..8: every
        // member still has the span it placed, so the group is refetched
        // from them; only rank 4's own data on the quarter it never
        // shipped (its final intra span) is lost.
        let (s, place) = hier(crate::IntraMethod::DirectSend);
        let plan = repair(&s, &crash(&[(4, place + 1)])).unwrap();
        assert_eq!(plan.info.lost_contributions, vec![4]);
        assert_eq!(plan.info.lost_pixels, 256 / 4);
        assert_sound(&plan, &[4]);
        for member in 5..8 {
            assert!(
                plan.entries
                    .iter()
                    .flat_map(|e| &e.fetches)
                    .any(|f| { f.holder == member && f.members == vec![4, 5, 6, 7] }),
                "member {member} serves no placed span"
            );
        }
    }

    #[test]
    fn a_whole_group_dead_loses_exactly_that_group() {
        let (s, _) = hier(crate::IntraMethod::DirectSend);
        let dead = [4, 5, 6, 7];
        let plan = repair(&s, &dead.iter().map(|&r| (r, 0)).collect()).unwrap();
        assert_eq!(plan.info.lost_contributions, dead);
        assert_eq!(plan.info.lost_pixels, 256);
        assert_sound(&plan, &dead);
        // The surviving group's composite is whole on every span.
        for e in &plan.entries {
            let members: Vec<usize> = e.fetches.iter().flat_map(|f| f.members.clone()).collect();
            assert_eq!(members, vec![0, 1, 2, 3], "{:?}", e.span);
        }
    }

    #[test]
    fn all_ranks_dead_is_a_typed_error() {
        let s = Method::BinarySwap.build(2, 64).unwrap();
        let err = repair(&s, &crash(&[(0, 0), (1, 0)])).unwrap_err();
        assert_eq!(err, CoreError::AllRanksFailed { p: 2 });
    }
}
