//! Rank permutation: adapting depth-indexed plans to physical ranks.
//!
//! Every [`rt_core`] plan is built in *depth coordinates* (index 0 is the
//! partial nearest the viewer); ranks own fixed subvolumes and the view
//! changes per frame, so the depth order is a permutation of the physical
//! ranks. The relabeling is rt-core's ([`ComposePlan::permute`]); this is
//! the pipeline's entry to it.

use crate::PvrError;
use rt_core::tile::ComposePlan;

/// Relabel a [`ComposePlan`] onto physical ranks: `rank_of_depth[d]` is the
/// physical rank whose partial sits at depth position `d` (0 = nearest). A
/// puzzle budget rides along unchanged, so streamed puzzle frames keep
/// their declared tolerance under every camera; a hierarchical schedule
/// relabels like any other: its groups are contiguous in *depth*, wherever
/// the camera puts those depths.
///
/// Errors if `rank_of_depth` is not a permutation of `0..plan.p()`.
pub fn permute_plan(plan: &ComposePlan, rank_of_depth: &[usize]) -> Result<ComposePlan, PvrError> {
    Ok(plan.permute(rank_of_depth)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::method::CompositionMethod;
    use rt_core::{BinarySwap, ParallelPipelined};

    #[test]
    fn identity_permutation_changes_only_the_label() {
        let s = ParallelPipelined::new().build(4, 400).unwrap();
        let q = s.permute(&[0, 1, 2, 3]).unwrap();
        assert_eq!(s.steps, q.steps);
        assert_eq!(s.final_owners, q.final_owners);
    }

    #[test]
    fn permutation_relabels_every_endpoint() {
        let s = BinarySwap::new().build(4, 400).unwrap();
        let perm = [2, 0, 3, 1];
        let q = s.permute(&perm).unwrap();
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
    fn permuted_schedules_verify_as_executed() {
        // `verify` seeds rank r with its recorded depth, so it proves the
        // relabeled plan a frame actually runs — not only the depth-indexed
        // one it was built from.
        use rt_core::hier::IntraMethod;
        use rt_core::method::Method;
        use rt_core::rotate::RtVariant;
        let reversed: Vec<usize> = (0..8).rev().collect();
        let scrambled = [5, 2, 7, 0, 3, 6, 1, 4];
        for method in [
            Method::BinarySwap,
            Method::RotateTiling {
                variant: RtVariant::TwoN,
                blocks: 4,
            },
            Method::Hier {
                k: 2,
                intra: IntraMethod::BinarySwap,
            },
        ] {
            let plan = method.plan(8, 32, 24).unwrap();
            for order in [&reversed[..], &scrambled[..]] {
                let permuted = permute_plan(&plan, order).unwrap();
                permuted
                    .verify()
                    .unwrap_or_else(|e| panic!("{method:?} under {order:?}: {e}"));
                // Two ranks trading depths hold runs the merges do not join.
                let ComposePlan::Schedule(mut swapped) = permuted else {
                    panic!("{method:?} compiles to a span schedule");
                };
                swapped.depth_of_rank.as_mut().unwrap().swap(1, 6);
                assert!(
                    rt_core::verify_schedule(&swapped).is_err(),
                    "{method:?} under {order:?}"
                );
                // And a depth map that is no permutation is refused outright.
                swapped.depth_of_rank.as_mut().unwrap()[1] = 8;
                let err = rt_core::verify_schedule(&swapped).unwrap_err();
                assert!(err.to_string().contains("not a permutation"), "{err}");
            }
        }
    }

    #[test]
    fn non_permutation_is_a_typed_error() {
        let s = BinarySwap::new().build(4, 400).unwrap();
        let err = s.permute(&[0, 0, 1, 2]).unwrap_err();
        assert!(err.to_string().contains("not a permutation"), "{err}");
    }

    #[test]
    fn wrong_size_is_a_typed_error() {
        let s = BinarySwap::new().build(4, 400).unwrap();
        let err = s.permute(&[0, 1, 2]).unwrap_err();
        assert!(err.to_string().contains("3 entries for 4 ranks"), "{err}");
    }
}
