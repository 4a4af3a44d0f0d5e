//! The parallel-pipelined (PP) composition method (Lee, 1996).
//!
//! The frame is split into `P` blocks, block `b` finalized at rank `b`. The
//! ranks form a logical ring: at step `k ∈ 1..P−1`, rank `r` ships its own
//! partial of block `(r + k) mod P` to that block's owner, so every rank
//! sends and receives exactly one `A/P`-pixel block per step and the method
//! needs `P − 1` steps — the cost profile of the paper's Table 1 (works for
//! any `P`, but the startup term grows linearly with `P`, which is the
//! weakness rotate-tiling attacks).
//!
//! ### Depth-order handling
//!
//! `over` is not commutative, and the ring delivers the contributions of
//! block `b` to owner `b` in the circular order `b−1, b−2, …, 0, P−1, …,
//! b+1`. Contributions nearer than the owner (`src < b`) arrive
//! nearest-last and merge immediately in front ([`MergeDir::Front`]);
//! contributions farther than the owner arrive deepest-first and fold into
//! the deferred back accumulator ([`MergeDir::BackDefer`]), which is
//! composited behind the local run once after the last step. This is exactly
//! the two-accumulator trick sort-last renderers use to run ring composites
//! with a non-commutative operator; it adds one local `A/P`-pixel `over`
//! per rank and no extra communication.

use crate::schedule::{MergeDir, Schedule, Step, Transfer};
use crate::CoreError;
use rt_imaging::Span;

/// Compile parallel-pipelined for `p` ranks and an `image_len`-pixel frame
/// (the block count is always `P`).
pub fn schedule(p: usize, image_len: usize) -> Result<Schedule, CoreError> {
    if p == 0 {
        return Err(CoreError::UnsupportedShape {
            method: "parallel-pipelined",
            why: "zero ranks".into(),
        });
    }
    let spans = Span::whole(image_len).split_even(p);
    let mut steps = Vec::with_capacity(p.saturating_sub(1));
    for k in 1..p {
        let mut step = Step::default();
        for r in 0..p {
            let dst = (r + k) % p;
            if spans[dst].is_empty() {
                continue;
            }
            let dir = if r < dst {
                MergeDir::Front
            } else {
                MergeDir::BackDefer
            };
            step.transfers.push(Transfer {
                src: r,
                dst,
                span: spans[dst],
                dir,
            });
        }
        steps.push(step);
    }
    let final_owners = spans
        .into_iter()
        .enumerate()
        .map(|(b, span)| (span, b))
        .collect();
    Ok(Schedule {
        p,
        image_len,
        steps,
        final_owners,
        method: "PP".to_string(),
        depth_of_rank: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::verify_schedule;

    #[test]
    fn any_processor_count_verifies() {
        for p in 1..=16 {
            let s = schedule(p, 3840).unwrap();
            verify_schedule(&s).unwrap_or_else(|e| panic!("p={p}: {e}"));
            assert_eq!(s.step_count(), p.saturating_sub(1));
        }
    }

    #[test]
    fn thirty_two_ranks_match_table1_profile() {
        let a = 512 * 512;
        let p = 32;
        let s = schedule(p, a).unwrap();
        assert_eq!(s.step_count(), p - 1);
        for step in &s.steps {
            assert_eq!(step.transfers.len(), p);
            let mut sends = vec![0usize; p];
            let mut recvs = vec![0usize; p];
            for t in &step.transfers {
                sends[t.src] += 1;
                recvs[t.dst] += 1;
                assert_eq!(t.span.len, a / p);
            }
            assert!(sends.iter().all(|&c| c == 1));
            assert!(recvs.iter().all(|&c| c == 1));
        }
        // Total shipped: (P−1) · A.
        assert_eq!(s.pixels_shipped(), (p - 1) * a);
    }

    #[test]
    fn ownership_is_one_block_per_rank() {
        let s = schedule(8, 800).unwrap();
        let owned = s.owned_pixels();
        assert!(owned.iter().all(|&px| px == 100), "{owned:?}");
    }

    #[test]
    fn merge_directions_split_around_owner() {
        let s = schedule(5, 500).unwrap();
        for step in &s.steps {
            for t in &step.transfers {
                if t.src < t.dst {
                    assert_eq!(t.dir, MergeDir::Front);
                } else {
                    assert_eq!(t.dir, MergeDir::BackDefer);
                }
            }
        }
    }
}
