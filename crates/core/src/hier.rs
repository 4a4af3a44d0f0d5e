//! Two-level hierarchical composition: flat methods inside rank groups,
//! Radix-k between group leaders — compiled to one ordinary [`Schedule`].
//!
//! Every flat method in this crate exchanges messages across the whole
//! rank space, so at `P ≥ 256` the step structure (and, on TCP, the
//! O(P²) connection mesh) stops scaling. The hierarchical builder splits
//! the machine into contiguous groups of `k` ranks:
//!
//! ```text
//!   ranks   0..k          k..2k         …        (G−1)k..P
//!           │ intra (any   │ intra       │        │ intra
//!           │ flat Method) │             │        │
//!           ▼              ▼             ▼        ▼
//!   leader  L₀ ─────────── L₁ ─────── … ──────── L_{G−1}
//!           └── inter: Radix-k rounds over the G leaders ──┘
//!                             │
//!                             ▼ final gather (root or wall)
//! ```
//!
//! The schedule it emits, over all `P` ranks and one global step clock:
//!
//! 1. **intra steps** — step `i` is every group's intra step `i`
//!    ([`IntraMethod`] built for the group's size, relabelled onto its
//!    members; a ragged last group may run out of steps early). Groups are
//!    contiguous, so group composites remain depth-ordered. The last intra
//!    step is a flush point ([`crate::schedule::Step::flush`]): deferred
//!    accumulators must be applied before their spans move on;
//! 2. **one placement step** — every intra owner ships each finished span
//!    to its group's leader (the lowest member) as a
//!    [`MergeDir::Place`]: the leader shipped that span away earlier, so
//!    the message becomes its piece — a decode, no `over`;
//! 3. **inter steps** — the [`radix::for_group_size`] rounds, relabelled
//!    onto the leaders; `final_owners` are the inter owners, from which
//!    the executor gathers to the root (or display wall).
//!
//! Nothing here executes: [`crate::compose_plan`] runs the result,
//! [`crate::verify_schedule`] proves the whole two-level plan composites
//! every pixel once in depth order, [`crate::analyze`] prices it and
//! [`crate::repair()`] plans its recovery like any other schedule's.

use crate::method::Method;
use crate::radix;
use crate::rotate::RtVariant;
use crate::schedule::{MergeDir, Schedule, Step, Transfer};
use crate::CoreError;
use serde::{Deserialize, Serialize};

/// The flat method run inside each group — the span families of [`Method`]
/// minus the hierarchical variant itself, so plans cannot nest and every
/// group compiles to a span schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntraMethod {
    /// Binary-swap (power-of-two group sizes only).
    BinarySwap,
    /// Binary-swap with the fold prelude (any group size).
    BinarySwapFold,
    /// Parallel-pipelined (any group size).
    ParallelPipelined,
    /// Direct-send (any group size).
    DirectSend,
    /// Rotate-tiling.
    RotateTiling {
        /// Admissibility variant.
        variant: RtVariant,
        /// Initial block count.
        blocks: usize,
    },
}

impl IntraMethod {
    /// The equivalent flat [`Method`] selector.
    pub fn as_method(self) -> Method {
        match self {
            IntraMethod::BinarySwap => Method::BinarySwap,
            IntraMethod::BinarySwapFold => Method::BinarySwapFold,
            IntraMethod::ParallelPipelined => Method::ParallelPipelined,
            IntraMethod::DirectSend => Method::DirectSend,
            IntraMethod::RotateTiling { variant, blocks } => {
                Method::RotateTiling { variant, blocks }
            }
        }
    }
}

impl From<IntraMethod> for Method {
    fn from(m: IntraMethod) -> Method {
        m.as_method()
    }
}

/// `transfers` with both endpoints of each mapped through `rank`.
fn relabelled<'a>(
    transfers: &'a [Transfer],
    rank: impl Fn(usize) -> usize + 'a,
) -> impl Iterator<Item = Transfer> + 'a {
    transfers.iter().map(move |t| Transfer {
        src: rank(t.src),
        dst: rank(t.dst),
        ..*t
    })
}

/// Compile the two-level plan for `p` ranks and an `image_len`-pixel frame:
/// contiguous groups of `k` (the last may be smaller when `k ∤ p`), `intra`
/// inside each group, Radix-k (radices capped at `k`) between the leaders.
/// Fails if any group's size is unsupported by the intra method — e.g.
/// binary-swap on a ragged last group.
pub fn build(
    p: usize,
    k: usize,
    intra: IntraMethod,
    image_len: usize,
) -> Result<Schedule, CoreError> {
    let unsupported = |why: String| CoreError::UnsupportedShape {
        method: "hier",
        why,
    };
    if p == 0 {
        return Err(unsupported("zero ranks".into()));
    }
    if k < 2 {
        return Err(unsupported(format!("group size k={k} must be at least 2")));
    }
    // Group `g` is ranks `g·k ..` and its leader rank `g·k`; only the last
    // group can be short, so at most two distinct intra schedules exist.
    let groups = p.div_ceil(k);
    let last_size = p - (groups - 1) * k;
    let full_size = k.min(p);
    let full = intra.as_method().build(full_size, image_len)?;
    let short = if last_size == full_size {
        None
    } else {
        Some(intra.as_method().build(last_size, image_len)?)
    };
    let group_plan = |g: usize| match &short {
        Some(short) if g + 1 == groups => short,
        _ => &full,
    };

    let intra_steps = (0..groups)
        .map(|g| group_plan(g).steps.len())
        .max()
        .unwrap_or(0);
    let mut steps: Vec<Step> = (0..intra_steps)
        .map(|i| Step {
            transfers: (0..groups)
                .filter_map(|g| Some((g, group_plan(g).steps.get(i)?)))
                .flat_map(|(g, step)| relabelled(&step.transfers, move |member| g * k + member))
                .collect(),
            flush: i + 1 == intra_steps,
        })
        .collect();

    // Owners ship in member order, each its spans in frame order — the
    // order a leader would receive a gather in.
    let mut place = Step::default();
    for g in 0..groups {
        let mut owned = group_plan(g).final_owners.clone();
        owned.sort_by_key(|&(span, owner)| (owner, span.start));
        place.transfers.extend(
            owned
                .into_iter()
                .filter(|&(span, owner)| owner != 0 && !span.is_empty())
                .map(|(span, owner)| Transfer {
                    src: g * k + owner,
                    dst: g * k,
                    span,
                    dir: MergeDir::Place,
                }),
        );
    }
    if !place.transfers.is_empty() {
        steps.push(place);
    }

    let inter = radix::schedule(groups, image_len, &radix::for_group_size(groups, k))?;
    steps.extend(inter.steps.iter().map(|step| Step {
        transfers: relabelled(&step.transfers, |leader| leader * k).collect(),
        flush: step.flush,
    }));

    Ok(Schedule {
        p,
        image_len,
        steps,
        final_owners: inter
            .final_owners
            .iter()
            .map(|&(span, leader)| (span, leader * k))
            .collect(),
        method: format!("HIER(k={k},{})", intra.as_method().name()),
        depth_of_rank: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::verify_schedule;
    use crate::{ComposeConfig, ComposeOutput, ComposePlan, DisplayWall, Run};
    use rt_comm::FaultPlan;
    use rt_imaging::image::reference_composite;
    use rt_imaging::pixel::{GrayAlpha8, Pixel, Provenance};
    use rt_imaging::synth::provenance_partials;
    use rt_imaging::{Image, Span};

    /// Depth-disjoint content, rank `r` rendering only row `r`.
    fn band_partials(p: usize, w: usize) -> Vec<Image<GrayAlpha8>> {
        rt_imaging::synth::band_partials(p, w, p)
    }

    fn run_hier<P: Pixel>(
        p: usize,
        k: usize,
        intra: IntraMethod,
        partials: Vec<Image<P>>,
        config: &ComposeConfig,
        faults: FaultPlan,
    ) -> Vec<Result<ComposeOutput<P>, CoreError>> {
        let (w, h) = (partials[0].width(), partials[0].height());
        let plan = Method::Hier { k, intra }.plan(p, w, h).unwrap();
        assert!(matches!(plan, ComposePlan::Schedule(_)));
        plan.verify().unwrap();
        let (results, _) = Run::new(&plan, config).faults(faults).execute(partials);
        results
    }

    #[test]
    fn plans_build_and_verify_across_shapes() {
        for (p, k, intra) in [
            (8, 4, IntraMethod::DirectSend),
            (16, 4, IntraMethod::BinarySwap),
            (10, 4, IntraMethod::BinarySwapFold), // ragged last group of 2
            (7, 3, IntraMethod::ParallelPipelined), // ragged last group of 1
            (
                12,
                4,
                IntraMethod::RotateTiling {
                    variant: RtVariant::TwoN,
                    blocks: 4,
                },
            ),
        ] {
            let schedule = build(p, k, intra, 64).unwrap();
            verify_schedule(&schedule).unwrap_or_else(|e| panic!("p={p} k={k} {intra:?}: {e}"));
            assert_eq!(schedule.p, p);
            // One final owner span per group leader at most, leaders only.
            assert!(schedule.final_owners.iter().all(|(_, r)| r % k == 0));
        }
        // Binary-swap rejects a ragged (non-power-of-two) last group.
        assert!(build(11, 4, IntraMethod::BinarySwap, 64).is_err());
        assert!(build(8, 1, IntraMethod::DirectSend, 64).is_err());
    }

    /// The placement step's index and one of its transfers' index, for the
    /// mutation tests below.
    fn a_placement(s: &Schedule) -> (usize, usize) {
        s.steps
            .iter()
            .enumerate()
            .find_map(|(k, step)| {
                let i = step
                    .transfers
                    .iter()
                    .position(|t| t.dir == MergeDir::Place)?;
                Some((k, i))
            })
            .expect("a hier schedule has a placement step")
    }

    #[test]
    fn verify_rejects_a_dropped_placement() {
        let mut s = build(8, 4, IntraMethod::BinarySwap, 64).unwrap();
        let (k, i) = a_placement(&s);
        s.steps[k].transfers.remove(i);
        let err = verify_schedule(&s).unwrap_err().to_string();
        // The leader ships a span it was never handed.
        assert!(err.contains(&format!("step {}: sender", k + 1)), "{err}");
    }

    #[test]
    fn verify_rejects_a_missing_flush_point() {
        // Pipelined and direct-send groups finish their spans only at the
        // flush; without it the owners place half-composited pieces.
        for intra in [IntraMethod::ParallelPipelined, IntraMethod::DirectSend] {
            let mut s = build(9, 3, intra, 90).unwrap();
            let (k, _) = a_placement(&s);
            assert!(s.steps[k - 1].flush, "{intra:?}");
            s.steps[k - 1].flush = false;
            assert!(verify_schedule(&s).is_err(), "{intra:?}");
        }
    }

    #[test]
    fn verify_rejects_a_placement_onto_a_held_span() {
        // Redirect one placement at a rank that still holds that span: its
        // own group's leader shipped it away, the next group's never did.
        let mut s = build(8, 4, IntraMethod::BinarySwap, 64).unwrap();
        let (k, i) = a_placement(&s);
        let span = s.steps[k].transfers[i].span;
        let held_by = s.steps[k]
            .transfers
            .iter()
            .find(|t| t.span == span && t.dst != s.steps[k].transfers[i].dst)
            .map(|t| t.src)
            .expect("the other group has an owner of the same span");
        s.steps[k].transfers[i].dst = held_by;
        let err = verify_schedule(&s).unwrap_err().to_string();
        assert!(err.contains("still holds"), "{err}");
    }

    #[test]
    fn links_are_group_meshes_plus_leader_overlay() {
        // p=16, k=4, direct-send groups: 4 groups × C(4,2) + C(4,2) leader
        // mesh; the root links (root 0 is itself a leader) add nothing new.
        let s = build(16, 4, IntraMethod::DirectSend, 64).unwrap();
        let links = s.links(DisplayWall::root(0));
        assert_eq!(links.len(), 4 * 6 + 6);
        // Far below the flat mesh.
        assert!(links.len() < 16 * 15 / 2);
        // A non-leader root adds one link per leader it doesn't already
        // reach: root 5 is in leader 4's group.
        let links = s.links(DisplayWall::root(5));
        assert_eq!(links.len(), 4 * 6 + 6 + 3);
        // Every link is an ordered in-range pair.
        assert!(links.iter().all(|&(a, b)| a < b && b < 16));
        // Binary-swap groups talk to their swap partners and their leader
        // only: log₂k·k/2 + 1 links a group instead of the C(k,2) mesh.
        let s = build(16, 4, IntraMethod::BinarySwap, 64).unwrap();
        assert_eq!(s.links(DisplayWall::root(0)).len(), 4 * 5 + 6);
    }

    #[test]
    fn hier_matches_the_flat_reference_fold_at_p64() {
        let p = 64;
        let partials = band_partials(p, 32);
        let expected = reference_composite(&partials).unwrap();
        for (k, intra) in [
            (8, IntraMethod::BinarySwap),
            (8, IntraMethod::DirectSend),
            (
                8,
                IntraMethod::RotateTiling {
                    variant: RtVariant::TwoN,
                    blocks: 4,
                },
            ),
            (6, IntraMethod::ParallelPipelined), // ragged: 64 = 10×6 + 4
        ] {
            let results = run_hier(
                p,
                k,
                intra,
                partials.clone(),
                &ComposeConfig::default(),
                FaultPlan::none(),
            );
            let out = results[0].as_ref().unwrap();
            let frame = out.frame.as_ref().unwrap();
            assert_eq!(
                frame.pixels(),
                expected.pixels(),
                "k={k} {intra:?}: hier output diverged from the flat fold"
            );
            for (r, res) in results.iter().enumerate().skip(1) {
                assert!(
                    res.as_ref().unwrap().frame.is_none(),
                    "rank {r} got a frame"
                );
            }
        }
    }

    #[test]
    fn hier_matches_the_flat_reference_fold_at_p256() {
        let p = 256;
        let partials = band_partials(p, 16);
        let expected = reference_composite(&partials).unwrap();
        let results = run_hier(
            p,
            16,
            IntraMethod::BinarySwap,
            partials,
            &ComposeConfig::default(),
            FaultPlan::none(),
        );
        let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
        assert_eq!(frame.pixels(), expected.pixels());
    }

    #[test]
    fn provenance_composite_is_complete_at_p64_and_p256() {
        // The Provenance algebra errors on any out-of-order, duplicated
        // or dropped merge, so completeness here proves the two-level
        // fold visits every rank exactly once, in depth order.
        for (p, k) in [(64, 8), (256, 16)] {
            let results = run_hier(
                p,
                k,
                IntraMethod::BinarySwap,
                provenance_partials(p, 8, 8),
                &ComposeConfig::default(),
                FaultPlan::none(),
            );
            let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
            assert!(
                frame
                    .pixels()
                    .iter()
                    .all(|px| *px == Provenance::complete(p as u16)),
                "p={p}: incomplete provenance"
            );
        }
    }

    #[test]
    fn gathered_frame_has_one_final_owner_per_pixel() {
        // The composed frame is spread over the leaders until the gather:
        // the plan's `final_owners` says who holds what, each pixel has one
        // holder, each rank reports what it holds, and the root assembles
        // the reference composite from the holders' spans.
        let (p, w) = (12, 24);
        let partials = band_partials(p, w);
        let want = reference_composite(&partials).unwrap();
        let results = run_hier(
            p,
            4,
            IntraMethod::DirectSend,
            partials,
            &ComposeConfig::default(),
            FaultPlan::none(),
        );
        let intra = IntraMethod::DirectSend;
        let ComposePlan::Schedule(plan) = Method::Hier { k: 4, intra }.plan(p, w, p).unwrap()
        else {
            unreachable!("hierarchical plans are span schedules")
        };
        let leaders = [0, 4, 8];
        let mut covered = vec![0usize; w * p];
        for &(sp, owner) in &plan.final_owners {
            assert!(leaders.contains(&owner));
            for c in &mut covered[sp.range()] {
                *c += 1;
            }
        }
        // Each pixel has exactly one owner.
        assert!(covered.iter().all(|&c| c == 1));
        for (r, res) in results.iter().enumerate() {
            let out = res.as_ref().unwrap();
            assert_eq!(out.frame.is_some(), r == 0, "rank {r}");
            assert_eq!(out.owned_pixels, plan.owned_pixels()[r], "rank {r}");
            if !leaders.contains(&r) {
                assert_eq!(out.owned_pixels, 0, "non-leader {r} owns pixels");
            }
        }
        let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
        assert_eq!(frame.pixels(), want.pixels());
    }

    #[test]
    fn leader_death_trichotomy() {
        // p=12, k=4: groups {0..4} {4..8} {8..12} on one step clock —
        // step 0 direct-send intra, step 1 placements, step 2 the radix-[3]
        // leader round, 3 = after the last step. Crash leader 4 at each:
        //   step 0 → dies before any traffic: its whole band is lost; its
        //            members still composite among themselves, and what
        //            they place at the dead leader stays archived.
        //   step 2 → dies holding the placed group composite, before the
        //            leader round: every member still has what it placed,
        //            so all that is gone is rank 4's own data on the
        //            quarter it owned inside the group (its band lies
        //            elsewhere: the frame is whole).
        //   step 3 → dies owning its third of the frame: the other leaders
        //            and its members hold everything that went into it.
        //   step 4 → past the schedule: never fires.
        // A dead leader never costs its group.
        let p = 12;
        let w = 24;
        let partials = band_partials(p, w);
        let full = reference_composite(&partials).unwrap();
        let mut survivors = partials.clone();
        survivors[4] = Image::blank(w, p);
        let without_4 = reference_composite(&survivors).unwrap();
        let config = ComposeConfig::default().resilient(true);
        let run = |step: usize| {
            run_hier(
                p,
                4,
                IntraMethod::DirectSend,
                partials.clone(),
                &config,
                FaultPlan::none().crash_rank_at_step(4, step),
            )
        };
        let quarter = Span::whole(w * p).split_even(4)[0];

        for (step, lost, lost_pixels, expected) in [
            (0, vec![4], w * p, &without_4),
            (2, vec![4], quarter.len, &full),
            (3, vec![], 0, &full),
        ] {
            let results = run(step);
            let out = results[0].as_ref().unwrap();
            let degraded = out.degraded.as_ref().unwrap();
            assert_eq!(degraded.failed, vec![(4, step)]);
            assert_eq!(degraded.lost_contributions, lost, "step {step}");
            assert_eq!(degraded.lost_pixels, lost_pixels, "step {step}");
            assert!(
                out.frame.as_ref().unwrap().pixels() == expected.pixels(),
                "step {step}: not the survivors' exact composite"
            );
            // The crashed rank reports its own demise.
            let crashed_out = results[4].as_ref().unwrap();
            assert_eq!(crashed_out.owned_pixels, 0);
            assert_eq!(
                crashed_out.degraded.as_ref().unwrap().failed,
                vec![(4, step)]
            );
        }

        // -- Past the schedule: the crash never fires. --
        let results = run(4);
        let out = results[0].as_ref().unwrap();
        assert!(out.degraded.is_none());
        assert!(out.frame.as_ref().unwrap().pixels() == full.pixels());
    }

    #[test]
    fn a_fully_dead_group_drops_out() {
        // Both members of group {2,3} die before any traffic: the other
        // leaders skip its contributions, its spans are re-owned, and the
        // frame is the exact fold of the remaining groups.
        let p = 8;
        let w = 16;
        let partials = band_partials(p, w);
        let config = ComposeConfig::default().resilient(true);
        let results = run_hier(
            p,
            2,
            IntraMethod::DirectSend,
            partials.clone(),
            &config,
            FaultPlan::none()
                .crash_rank_at_step(2, 0)
                .crash_rank_at_step(3, 0),
        );
        let out = results[0].as_ref().unwrap();
        let degraded = out.degraded.as_ref().unwrap();
        assert_eq!(degraded.failed, vec![(2, 0), (3, 0)]);
        assert_eq!(degraded.lost_contributions, vec![2, 3]);
        let mut survivors = partials.clone();
        survivors[2] = Image::blank(w, p);
        survivors[3] = Image::blank(w, p);
        let expected = reference_composite(&survivors).unwrap();
        assert_eq!(out.frame.as_ref().unwrap().pixels(), expected.pixels());
    }
}
