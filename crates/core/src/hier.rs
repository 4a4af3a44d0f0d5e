//! Two-level hierarchical composition: flat methods inside rank groups,
//! Radix-k between group leaders.
//!
//! Every flat method in this crate exchanges messages across the whole
//! rank space, so at `P ≥ 256` the step structure (and, on TCP, the
//! O(P²) connection mesh) stops scaling. The hierarchical layer splits
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
//! * **Phase 1 (intra)**: each group runs any existing [`Method`] —
//!   rotate-tiling, binary-swap, direct-send, tile-owner — over a
//!   [`rt_comm::RankCtx`] *group view*, gathering the group's composite
//!   at its leader (the lowest member). Groups are contiguous, so group
//!   composites remain depth-ordered and the two-level fold equals the
//!   flat reference fold exactly.
//! * **Phase 2 (inter)**: leaders composite their group images with a
//!   [`RadixK`] schedule over a leader view, the
//!   gather deferred.
//! * **Phase 3 (gather)**: the surviving inter-level owners ship their
//!   spans straight to the configured root (or display wall) at the
//!   *global* level.
//!
//! Fault handling reuses the flat machinery at each level: intra crashes
//! are repaired inside the group (the gathered group image is the exact
//! survivor composite), leader crashes are repaired by the inter-level
//! [`repair`] pass, and both levels' outcomes are folded into one
//! [`DegradedInfo`]. `failed` is exact and identical on every rank;
//! `lost_pixels`/`reassigned_spans` report the *inter*-level repair (an
//! intra-dead rank's lost pixels are content-dependent and not counted).
//!
//! ### Crash-step clock
//!
//! A planned crash at step `s` fires during the intra phase when
//! `s ≤ intra_steps(group)`, and during the inter phase (leaders only)
//! when `inter_base < s ≤ inter_base + inter_steps`, where `inter_base`
//! is the *largest* intra step count over all groups. Steps in the dead
//! zone between a short group's last intra step and `inter_base` never
//! fire — the global step clock is sized by the slowest group.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use rt_comm::{tag, RankCtx};
use rt_imaging::pixel::Pixel;
use rt_imaging::{Image, Span};
use serde::{Deserialize, Serialize};

use crate::display::DisplayWall;
use crate::exec::{compose_schedule, finish, ComposeOutput, Scratch, Stage};
use crate::method::{CompositionMethod, Method};
use crate::radix::RadixK;
use crate::repair::{reassign_root, repair, DegradedInfo};
use crate::rotate::RtVariant;
use crate::schedule::Schedule;
use crate::tile::{check_shape, compose_plan, ComposePlan};
use crate::CoreError;

/// The flat method run inside each group — [`Method`] minus the
/// hierarchical variant itself, so plans cannot nest.
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
    /// Tile-ownership over a static 2-D grid (any group size).
    TileOwner {
        /// Tile columns.
        tiles_x: usize,
        /// Tile rows.
        tiles_y: usize,
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
            IntraMethod::TileOwner { tiles_x, tiles_y } => Method::TileOwner { tiles_x, tiles_y },
        }
    }
}

impl From<IntraMethod> for Method {
    fn from(m: IntraMethod) -> Method {
        m.as_method()
    }
}

/// A compiled two-level plan: group partition, one intra plan per group,
/// and the Radix-k leader schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct HierPlan {
    /// Machine size.
    pub p: usize,
    /// Requested group size (the last group may be smaller when `k ∤ P`).
    pub k: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// The flat method each group runs.
    pub intra: IntraMethod,
    /// Contiguous rank groups, in rank order. `groups[g][0]` is group
    /// `g`'s planned leader.
    pub groups: Vec<Vec<usize>>,
    /// Per-group intra plan, built for the group's size.
    pub intra_plans: Vec<ComposePlan>,
    /// The leader-level schedule (`RadixK::for_group_size(G, k)`), built
    /// over leader-local ids `0..G`.
    pub inter: Schedule,
    /// Display name, e.g. `HIER(k=8,BS)`.
    pub method: String,
}

impl HierPlan {
    /// Build the two-level plan: contiguous groups of `k`, `intra` inside
    /// each group, Radix-k (radices capped at `k`) between the leaders.
    /// Fails if any group's size is unsupported by the intra method —
    /// e.g. binary-swap on a ragged last group.
    pub fn build(
        p: usize,
        k: usize,
        intra: IntraMethod,
        width: usize,
        height: usize,
    ) -> Result<HierPlan, CoreError> {
        if p == 0 {
            return Err(CoreError::UnsupportedShape {
                method: "hier",
                why: "zero ranks".into(),
            });
        }
        if k < 2 {
            return Err(CoreError::UnsupportedShape {
                method: "hier",
                why: format!("group size k={k} must be at least 2"),
            });
        }
        let groups: Vec<Vec<usize>> = (0..p)
            .collect::<Vec<_>>()
            .chunks(k)
            .map(|c| c.to_vec())
            .collect();
        let intra_plans = groups
            .iter()
            .map(|g| intra.as_method().plan(g.len(), width, height))
            .collect::<Result<Vec<_>, _>>()?;
        let inter = RadixK::for_group_size(groups.len(), k).build(groups.len(), width * height)?;
        let method = format!("HIER(k={k},{})", intra.as_method().name());
        Ok(HierPlan {
            p,
            k,
            width,
            height,
            intra,
            groups,
            intra_plans,
            inter,
            method,
        })
    }

    /// Group index of a global rank (groups are contiguous chunks of `k`).
    pub fn group_of(&self, rank: usize) -> usize {
        rank / self.k
    }

    /// Planned (crash-free) leaders: the lowest member of every group.
    pub fn leaders(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g[0]).collect()
    }

    /// Link class of the directed channel `a → b` for cost fitting:
    /// `0` for group-local links, `1` for the cross-group (leader
    /// overlay and gather) links. Feed to [`crate::tune::fit_link_costs`]
    /// to recover per-fabric `(Ts, Tp)` when the two levels run on
    /// different interconnects.
    pub fn link_class(&self, a: usize, b: usize) -> usize {
        usize::from(self.group_of(a) != self.group_of(b))
    }

    /// Crash-step budget of group `g`'s intra phase.
    pub fn intra_steps(&self, g: usize) -> usize {
        match &self.intra_plans[g] {
            ComposePlan::Schedule(s) => s.steps.len(),
            ComposePlan::Tiles(_) => 1,
            ComposePlan::Hier(_) => unreachable!("intra plans are flat by construction"),
        }
    }

    /// The inter phase's step-clock base: the largest intra step count.
    pub fn max_intra_steps(&self) -> usize {
        (0..self.groups.len())
            .map(|g| self.intra_steps(g))
            .max()
            .unwrap_or(0)
    }

    /// The step index of the final gather's tags, given how many steps the
    /// (possibly shrunk) inter schedule runs.
    pub(crate) fn gather_step(&self, inter_steps: usize) -> usize {
        tag::hier_gather_step(self.max_intra_steps(), inter_steps)
    }

    /// The undirected links a crash-free execution uses: a full mesh
    /// inside each group, a full mesh over the leaders, and the gather
    /// links from each leader to the root (or to every display rank).
    /// This is the topology a connection-restricted transport dials —
    /// `O(P·k + (P/k)²)` sockets instead of the flat `O(P²)` mesh. Fault
    /// repair may route outside this set (reassigned leaders, repair
    /// fetches), so resilient TCP runs should keep the full mesh.
    pub fn links(&self, root: usize, wall: Option<DisplayWall>) -> BTreeSet<(usize, usize)> {
        let mut links: BTreeSet<(usize, usize)> = BTreeSet::new();
        let add = |links: &mut BTreeSet<(usize, usize)>, a: usize, b: usize| {
            if a != b {
                links.insert((a.min(b), a.max(b)));
            }
        };
        for grp in &self.groups {
            for (i, &a) in grp.iter().enumerate() {
                for &b in &grp[i + 1..] {
                    add(&mut links, a, b);
                }
            }
        }
        let leaders = self.leaders();
        for (i, &a) in leaders.iter().enumerate() {
            for &b in &leaders[i + 1..] {
                add(&mut links, a, b);
            }
        }
        match wall {
            None => {
                for &l in &leaders {
                    add(&mut links, l, root);
                }
            }
            Some(w) => {
                for &l in &leaders {
                    for d in 0..w.count() {
                        add(&mut links, l, w.rank_of(d));
                    }
                }
            }
        }
        links
    }

    /// Verify the plan's invariants: the groups are a contiguous
    /// partition of `0..p`, every intra plan matches its group's size and
    /// verifies, and the inter schedule verifies over the leaders.
    pub fn verify(&self) -> Result<(), CoreError> {
        let flat: Vec<usize> = self.groups.iter().flatten().copied().collect();
        if flat != (0..self.p).collect::<Vec<_>>() {
            return Err(CoreError::InvalidSchedule {
                why: "hier groups are not a contiguous partition of the rank space".into(),
            });
        }
        if self
            .groups
            .iter()
            .take(self.groups.len() - 1)
            .any(|g| g.len() != self.k)
        {
            return Err(CoreError::InvalidSchedule {
                why: format!("hier non-terminal group sizes differ from k={}", self.k),
            });
        }
        if self.intra_plans.len() != self.groups.len() {
            return Err(CoreError::InvalidSchedule {
                why: "hier intra plan count differs from group count".into(),
            });
        }
        for (g, plan) in self.intra_plans.iter().enumerate() {
            if plan.p() != self.groups[g].len() {
                return Err(CoreError::InvalidSchedule {
                    why: format!(
                        "hier group {g} has {} members but its intra plan wants {}",
                        self.groups[g].len(),
                        plan.p()
                    ),
                });
            }
            plan.verify()?;
        }
        if self.inter.p != self.groups.len() {
            return Err(CoreError::InvalidSchedule {
                why: format!(
                    "hier inter schedule is for {} leaders, plan has {} groups",
                    self.inter.p,
                    self.groups.len()
                ),
            });
        }
        crate::schedule::verify_schedule(&self.inter)
    }
}

/// Execute a [`HierPlan`] on this rank. `local` is the rank's rendered
/// partial at global depth position `rank` — exactly the flat executors'
/// contract, and the output frame is byte-identical to theirs.
pub(crate) fn compose_hier<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    plan: &HierPlan,
    local: Image<P>,
    scratch: &mut Scratch<P>,
) -> Result<ComposeOutput<P>, CoreError> {
    let me = ctx.rank();
    let p = plan.p;
    let config = stage.config;

    let g = plan.group_of(me);
    let members = plan.groups[g].clone();

    // ---- Phase 1: intra-group composition, gathered at the leader. ----
    // Group-view root 0 is the lowest member; if it dies mid-phase the
    // flat executor's own repair re-elects the lowest survivor, matching
    // the acting-leader computation below.
    let mut intra_config = *config;
    intra_config.gather = true;
    intra_config.root = 0;
    intra_config.display = None;
    ctx.enter_group(members.clone(), 0);
    let intra_out = compose_plan(ctx, &plan.intra_plans[g], local, &intra_config, scratch);
    ctx.leave_group();
    let intra_out = intra_out?;
    if intra_out.residual.is_none() {
        // This rank crashed during the intra phase: globalize the
        // self-crash report (ranks via the member map; steps already
        // global since the intra view runs at step base 0).
        let d = intra_out.degraded.unwrap_or_default();
        return Ok(ComposeOutput::dead(DegradedInfo {
            failed: d.failed.iter().map(|&(r, s)| (members[r], s)).collect(),
            lost_contributions: d.lost_contributions.iter().map(|&r| members[r]).collect(),
            ..d
        }));
    }

    // ---- Deterministic failure model (no communication): every rank
    // derives the same acting leaders and inter-level crash set from the
    // shared fault plan, exactly as the per-level repairs will. ----------
    let crashes: Vec<(usize, usize)> = if config.resilient {
        ctx.planned_crashes()
    } else {
        Vec::new()
    };
    let mut dead: BTreeMap<usize, usize> = BTreeMap::new();
    for &(r, s) in &crashes {
        if s <= plan.intra_steps(plan.group_of(r)) {
            dead.insert(r, s);
        }
    }
    let inter_base = plan.max_intra_steps();
    // Acting leader per group: the lowest intra survivor. A fully-dead
    // group has no leader (and no surviving content to contribute).
    let mut leaders: Vec<usize> = Vec::new();
    let mut leader_groups: Vec<usize> = Vec::new();
    for (gi, grp) in plan.groups.iter().enumerate() {
        if let Some(&l) = grp.iter().find(|r| !dead.contains_key(r)) {
            leaders.push(l);
            leader_groups.push(gi);
        }
    }
    if leaders.is_empty() {
        return Err(CoreError::AllRanksFailed { p });
    }
    // The inter schedule shrinks only if an entire group died.
    let inter: Cow<Schedule> = if leaders.len() == plan.groups.len() {
        Cow::Borrowed(&plan.inter)
    } else {
        Cow::Owned(
            RadixK::for_group_size(leaders.len(), plan.k)
                .build(leaders.len(), plan.width * plan.height)?,
        )
    };
    let inter_steps = inter.steps.len();
    // Leader crashes that fire during the inter phase, leader-local.
    let mut crashed_inter: BTreeMap<usize, usize> = BTreeMap::new();
    for (li, &l) in leaders.iter().enumerate() {
        if let Some(&(_, s)) = crashes.iter().find(|&&(r, _)| r == l) {
            if s > inter_base && s - inter_base <= inter_steps {
                crashed_inter.insert(li, s - inter_base);
            }
        }
    }
    // Inter-level ownership after (planned) repair — computed identically
    // everywhere; the leaders' actual execution reproduces it.
    let (inter_owners, inter_info) = if config.resilient && !crashed_inter.is_empty() {
        let rp = repair(&inter, &crashed_inter)?;
        (rp.final_owners, Some(rp.info))
    } else {
        (inter.final_owners.clone(), None)
    };

    // ---- Phase 2: leaders composite group images over a leader view. ---
    let working: Image<P> = if leaders.contains(&me) {
        let group_frame = intra_out.frame.ok_or_else(|| CoreError::InvalidSchedule {
            why: format!("rank {me} leads group {g} but holds no gathered group image"),
        })?;
        let mut inter_config = *config;
        inter_config.gather = false;
        inter_config.root = 0;
        inter_config.display = None;
        ctx.enter_group(leaders.clone(), inter_base);
        let inter_out =
            check_shape(ctx, inter.p, inter.image_len, None, &group_frame).and_then(|()| {
                compose_schedule(
                    ctx,
                    &Stage::new(&inter_config),
                    &inter,
                    group_frame,
                    scratch,
                )
            });
        ctx.leave_group();
        let inter_out = inter_out?;
        match inter_out.residual {
            Some(img) => img,
            None => {
                // Crashed mid-inter: globalize ranks via the leader map
                // and steps via the inter base. The dead leader's group
                // composite is what its peers' repair recovers (or not).
                let d = inter_out.degraded.unwrap_or_default();
                return Ok(ComposeOutput::dead(DegradedInfo {
                    failed: d
                        .failed
                        .iter()
                        .map(|&(r, s)| (leaders[r], s + inter_base))
                        .collect(),
                    lost_contributions: d
                        .lost_contributions
                        .iter()
                        .flat_map(|&r| plan.groups[leader_groups[r]].iter().copied())
                        .collect(),
                    ..d
                }));
            }
        }
    } else {
        // Alive non-leader: its content lives on inside the group
        // composite; the residual only provides frame geometry below.
        intra_out.residual.unwrap()
    };

    // ---- Phase 3: global gather from the inter-level owners. -----------
    let owners: Vec<(Span, usize)> = inter_owners
        .iter()
        .map(|&(sp, li)| (sp, leaders[li]))
        .collect();
    for (&li, &s) in &crashed_inter {
        dead.insert(leaders[li], s + inter_base);
    }
    let mut root = config.root;
    let root_reassigned = reassign_root(p, &mut root, &dead)?;
    let degraded = if dead.is_empty() {
        None
    } else {
        let failed: Vec<(usize, usize)> = dead.iter().map(|(&r, &s)| (r, s)).collect();
        let mut lost: BTreeSet<usize> = dead
            .iter()
            .filter(|&(&r, &s)| s <= plan.intra_steps(plan.group_of(r)))
            .map(|(&r, _)| r)
            .collect();
        let (mut lost_pixels, mut reassigned_spans) = (0usize, 0usize);
        if let Some(ii) = &inter_info {
            for &li in &ii.lost_contributions {
                lost.extend(plan.groups[leader_groups[li]].iter().copied());
            }
            lost_pixels = ii.lost_pixels;
            reassigned_spans = ii.reassigned_spans;
        }
        Some(DegradedInfo {
            failed,
            lost_contributions: lost.into_iter().collect(),
            lost_pixels,
            reassigned_spans,
            root_reassigned_to: root_reassigned,
        })
    };

    let gather_step = plan.gather_step(inter_steps);
    finish(
        ctx,
        stage,
        scratch,
        working,
        owners,
        root,
        degraded,
        |slot| tag::step(config.frame_tag, gather_step, slot),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComposeConfig, Run};
    use rt_comm::FaultPlan;
    use rt_imaging::image::reference_composite;
    use rt_imaging::pixel::{GrayAlpha8, Provenance};
    use rt_imaging::synth::provenance_partials;

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
        let plan = ComposePlan::Hier(HierPlan::build(p, k, intra, w, h).unwrap());
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
            (
                9,
                3,
                IntraMethod::TileOwner {
                    tiles_x: 2,
                    tiles_y: 2,
                },
            ),
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
            let plan = HierPlan::build(p, k, intra, 8, 8).unwrap();
            plan.verify()
                .unwrap_or_else(|e| panic!("p={p} k={k} {intra:?}: {e}"));
            assert_eq!(plan.groups.len(), p.div_ceil(k));
        }
        // Binary-swap rejects a ragged (non-power-of-two) last group.
        assert!(HierPlan::build(11, 4, IntraMethod::BinarySwap, 8, 8).is_err());
        assert!(HierPlan::build(8, 1, IntraMethod::DirectSend, 8, 8).is_err());
    }

    #[test]
    fn links_are_group_meshes_plus_leader_overlay() {
        // p=16, k=4: 4 groups × C(4,2) + C(4,2) leader mesh; the root
        // links (root 0 is itself a leader) add nothing new.
        let plan = HierPlan::build(16, 4, IntraMethod::DirectSend, 8, 8).unwrap();
        let links = plan.links(0, None);
        assert_eq!(links.len(), 4 * 6 + 6);
        // Far below the flat mesh.
        assert!(links.len() < 16 * 15 / 2);
        // A non-leader root adds one link per leader it doesn't already
        // reach: root 5 is in leader 4's group.
        let links = plan.links(5, None);
        assert_eq!(links.len(), 4 * 6 + 6 + 3);
        // Every link is an ordered in-range pair.
        assert!(links.iter().all(|&(a, b)| a < b && b < 16));
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
            (
                8,
                IntraMethod::TileOwner {
                    tiles_x: 4,
                    tiles_y: 4,
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
    fn skipped_gather_leaves_distributed_ownership() {
        let p = 12;
        let config = ComposeConfig::default().with_gather(false);
        let results = run_hier(
            p,
            4,
            IntraMethod::DirectSend,
            band_partials(p, 24),
            &config,
            FaultPlan::none(),
        );
        let leaders = [0, 4, 8];
        let mut covered = vec![0usize; 24 * p];
        let mut total_owned = 0;
        for (r, res) in results.iter().enumerate() {
            let out = res.as_ref().unwrap();
            assert!(out.frame.is_none());
            assert!(out.residual.is_some());
            total_owned += out.owned_pixels;
            if !leaders.contains(&r) {
                assert_eq!(out.owned_pixels, 0, "non-leader {r} owns pixels");
            }
            for &(sp, owner) in &out.owners {
                assert!(leaders.contains(&owner));
                if owner == r {
                    for c in &mut covered[sp.range()] {
                        *c += 1;
                    }
                }
            }
        }
        assert_eq!(total_owned, 24 * p, "owners must tile the frame");
        // owners is the same global map on every rank; each pixel has
        // exactly one owner.
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn leader_death_trichotomy() {
        // p=12, k=4: groups {0..4} {4..8} {8..12}, direct-send intra
        // (1 step), radix [3] inter (1 step), inter_base = 1. Crash
        // leader 4 at successive steps and hit all three fates:
        //   step 0 → dies before any intra traffic: rank 4's whole band
        //            is lost; rank 5 takes over the group.
        //   step 2 → dies in the inter phase after the exchange: the
        //            dead leader carried group 1's composite, which
        //            survives at the peers it already sent to — only the
        //            span it still owned loses the group's content.
        //   step 3 → past both phases' crash windows: never fires.
        let p = 12;
        let w = 24;
        let partials = band_partials(p, w);
        let full = reference_composite(&partials).unwrap();
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

        // -- Intra death: survivor-exact, group-local repair. --
        let results = run(0);
        let out = results[0].as_ref().unwrap();
        let degraded = out.degraded.as_ref().unwrap();
        assert_eq!(degraded.failed, vec![(4, 0)]);
        assert_eq!(degraded.lost_contributions, vec![4]);
        let mut survivors = partials.clone();
        survivors[4] = Image::blank(w, p);
        let expected = reference_composite(&survivors).unwrap();
        assert_eq!(out.frame.as_ref().unwrap().pixels(), expected.pixels());
        // The crashed rank reports its own demise.
        let crashed_out = results[4].as_ref().unwrap();
        assert!(crashed_out.residual.is_none());
        assert_eq!(crashed_out.degraded.as_ref().unwrap().failed, vec![(4, 0)]);

        // -- Inter death: group-granular loss on the dead leader's span. --
        let results = run(2);
        let out = results[0].as_ref().unwrap();
        let degraded = out.degraded.as_ref().unwrap();
        assert_eq!(degraded.failed, vec![(4, 2)]);
        assert_eq!(degraded.lost_contributions, vec![4, 5, 6, 7]);
        let dead_span = Span::whole(w * p).split_even(3)[1];
        let frame = out.frame.as_ref().unwrap();
        for (i, (got, want)) in frame.pixels().iter().zip(full.pixels()).enumerate() {
            let row = i / w;
            let in_group1 = (4..8).contains(&row);
            if in_group1 && dead_span.range().contains(&i) {
                assert_eq!(*got, GrayAlpha8::blank(), "pixel {i} kept lost content");
            } else {
                assert_eq!(got, want, "pixel {i} corrupted outside the lost region");
            }
        }

        // -- Past both windows: the crash never fires. --
        let results = run(3);
        let out = results[0].as_ref().unwrap();
        assert!(out.degraded.is_none());
        assert_eq!(out.frame.as_ref().unwrap().pixels(), full.pixels());
    }

    #[test]
    fn a_fully_dead_group_drops_out() {
        // Both members of group {2,3} die before any traffic: the inter
        // overlay shrinks to the surviving 3 leaders and the frame is the
        // exact fold of the remaining groups.
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
