//! Rank permutation: adapting depth-indexed schedules to physical ranks.
//!
//! Every [`rt_core`] schedule is built in *depth coordinates*: index 0 is
//! the partial nearest the viewer. On a real machine, ranks own fixed
//! subvolumes and the view changes per frame, so the depth order is a
//! permutation of the physical ranks. [`permute_schedule`] relabels a
//! verified depth-indexed schedule onto physical ranks; merge directions
//! stay baked in depth terms, so correctness is preserved by construction
//! (and re-checked end-to-end by the pipeline tests).

use crate::PvrError;
use rt_core::schedule::Schedule;
use rt_core::tile::ComposePlan;

/// Relabel `schedule` (depth-indexed) onto physical ranks:
/// `rank_of_depth[d]` is the physical rank whose partial sits at depth
/// position `d` (0 = nearest).
///
/// Errors with [`PvrError::Config`] if `rank_of_depth` is not a
/// permutation of `0..schedule.p`.
pub fn permute_schedule(
    schedule: &Schedule,
    rank_of_depth: &[usize],
) -> Result<Schedule, PvrError> {
    let p = schedule.p;
    if rank_of_depth.len() != p {
        return Err(PvrError::Config {
            what: format!(
                "permutation size mismatch: {} depth positions for {p} ranks",
                rank_of_depth.len()
            ),
        });
    }
    let mut seen = vec![false; p];
    for &r in rank_of_depth {
        if r >= p || seen[r] {
            return Err(PvrError::Config {
                what: format!("rank_of_depth {rank_of_depth:?} is not a permutation of 0..{p}"),
            });
        }
        seen[r] = true;
    }
    let mut out = schedule.clone();
    for step in &mut out.steps {
        for t in &mut step.transfers {
            t.src = rank_of_depth[t.src];
            t.dst = rank_of_depth[t.dst];
        }
    }
    for (_, owner) in &mut out.final_owners {
        *owner = rank_of_depth[*owner];
    }
    // Record the inverse map so recovery planning can still see depth
    // contiguity through the relabeling.
    let mut depth_of_rank = vec![0usize; p];
    for (depth, &rank) in rank_of_depth.iter().enumerate() {
        depth_of_rank[rank] = schedule.depth_of(depth);
    }
    out.depth_of_rank = Some(depth_of_rank);
    out.method = format!("{}∘π", schedule.method);
    Ok(out)
}

/// Relabel a [`ComposePlan`] onto physical ranks —
/// [`permute_schedule`] for span schedules and
/// [`rt_core::tile::TilePlan::permute`] for tile-ownership and puzzle plans
/// (a puzzle budget rides along unchanged, so streamed puzzle frames keep
/// their declared tolerance under every camera). A hierarchical schedule
/// relabels like any other: its groups are contiguous in *depth*, wherever
/// the camera puts those depths.
pub fn permute_plan(plan: &ComposePlan, rank_of_depth: &[usize]) -> Result<ComposePlan, PvrError> {
    match plan {
        ComposePlan::Schedule(s) => Ok(ComposePlan::Schedule(permute_schedule(s, rank_of_depth)?)),
        ComposePlan::Tiles(t) => Ok(ComposePlan::Tiles(t.permute(rank_of_depth)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::method::CompositionMethod;
    use rt_core::{BinarySwap, ParallelPipelined};

    #[test]
    fn identity_permutation_changes_only_the_label() {
        let s = ParallelPipelined::new().build(4, 400).unwrap();
        let q = permute_schedule(&s, &[0, 1, 2, 3]).unwrap();
        assert_eq!(s.steps, q.steps);
        assert_eq!(s.final_owners, q.final_owners);
    }

    #[test]
    fn permutation_relabels_every_endpoint() {
        let s = BinarySwap::new().build(4, 400).unwrap();
        let perm = [2, 0, 3, 1];
        let q = permute_schedule(&s, &perm).unwrap();
        for (a, b) in s
            .steps
            .iter()
            .flat_map(|st| &st.transfers)
            .zip(q.steps.iter().flat_map(|st| &st.transfers))
        {
            assert_eq!(b.src, perm[a.src]);
            assert_eq!(b.dst, perm[a.dst]);
            assert_eq!(a.span, b.span);
            assert_eq!(a.dir, b.dir);
        }
        for ((_, a), (_, b)) in s.final_owners.iter().zip(&q.final_owners) {
            assert_eq!(*b, perm[*a]);
        }
    }

    #[test]
    fn tile_plans_permute_through_the_same_entry_point() {
        use rt_core::method::Method;
        let plan = Method::TileOwner {
            tiles_x: 4,
            tiles_y: 2,
        }
        .plan(4, 20, 20)
        .unwrap();
        let q = permute_plan(&plan, &[2, 0, 3, 1]).unwrap();
        let (ComposePlan::Tiles(orig), ComposePlan::Tiles(perm)) = (&plan, &q) else {
            panic!("tile-owner must stay a tile plan through permutation");
        };
        assert_eq!(perm.rank_at_depth, vec![2, 0, 3, 1]);
        for (t, &owner) in orig.owner_of.iter().enumerate() {
            assert_eq!(perm.owner_of[t], [2, 0, 3, 1][owner]);
        }
        assert!(permute_plan(&plan, &[0, 0, 1, 2]).is_err());
    }

    #[test]
    fn puzzle_plans_permute_and_keep_their_budget() {
        use rt_core::method::Method;
        let plan = Method::Puzzle {
            tiles_x: 4,
            tiles_y: 2,
            budget_permille: 75,
        }
        .plan(4, 20, 20)
        .unwrap();
        let q = permute_plan(&plan, &[2, 0, 3, 1]).unwrap();
        let ComposePlan::Tiles(perm) = &q else {
            panic!("puzzle must stay a tile plan through permutation");
        };
        assert_eq!(perm.budget, Some(75));
        assert_eq!(perm.rank_at_depth, vec![2, 0, 3, 1]);
        q.verify().unwrap();
        assert!(permute_plan(&plan, &[0, 0, 1, 2]).is_err());
    }

    #[test]
    fn non_permutation_is_a_typed_error() {
        let s = BinarySwap::new().build(4, 400).unwrap();
        let err = permute_schedule(&s, &[0, 0, 1, 2]).unwrap_err();
        assert!(err.to_string().contains("not a permutation"), "{err}");
    }

    #[test]
    fn wrong_size_is_a_typed_error() {
        let s = BinarySwap::new().build(4, 400).unwrap();
        let err = permute_schedule(&s, &[0, 1, 2]).unwrap_err();
        assert!(err.to_string().contains("size mismatch"), "{err}");
    }
}
