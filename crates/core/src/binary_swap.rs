//! Binary-swap composition (Ma, Painter, Hansen, Krogh, 1994).
//!
//! The classic divide-and-conquer comparator: at step `k` ranks are paired
//! across hypercube dimension `k−1` (`partner = rank XOR 2^(k-1)`); each
//! pair splits the span it is currently responsible for into two halves and
//! swaps: the holder of the *front* depth interval keeps the first half, the
//! *back* holder keeps the second half, and each ships its partial of the
//! half it gives up. After `log₂ P` steps each rank owns an `A/P`-pixel
//! piece of the final image.
//!
//! The method requires `P` to be a power of two — the restriction the
//! rotate-tiling paper sets out to remove. An optional **fold** extension
//! (`fold = true`) handles arbitrary `P` by first collapsing the
//! excess ranks: each rank `r ≥ 2^⌊log₂P⌋` ships its whole partial to
//! `r − 2^⌊log₂P⌋`, which merges it and proceeds with the power-of-two core.
//! This is the standard "2-1 elimination" prelude and is used only in the
//! ablation benches.

use crate::schedule::{MergeDir, Schedule, Step, Transfer};
use crate::CoreError;
use rt_imaging::Span;

/// Compile binary-swap for `p` ranks and an `image_len`-pixel frame; with
/// `fold`, a non-power-of-two `p` first collapses its excess ranks (the
/// extension), without it such a `p` is an unsupported shape.
pub fn schedule(p: usize, image_len: usize, fold: bool) -> Result<Schedule, CoreError> {
    if p == 0 {
        return Err(CoreError::UnsupportedShape {
            method: "binary-swap",
            why: "zero ranks".into(),
        });
    }
    if !p.is_power_of_two() && !fold {
        return Err(CoreError::UnsupportedShape {
            method: "binary-swap",
            why: format!("{p} processors is not a power of two"),
        });
    }

    let mut steps = Vec::new();
    // Core size: largest power of two ≤ p.
    let core = if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() / 2
    };

    // Fold prelude. Rank order is depth order (the contract of every
    // schedule in this crate), so the folded pairs must be
    // depth-adjacent for `over` to apply: with m = p − core pairs,
    // ranks 0..2m pair as (0,1), (2,3), …, (2m−2, 2m−1) and the even
    // rank of each pair absorbs the odd one. The survivors — 0, 2, …,
    // 2m−2, then 2m..p — are exactly `core` ranks holding contiguous
    // depth intervals that tile [0, p); the swap phase runs over that
    // survivor list.
    let m = p - core; // number of pairs to fold
    let mut survivors: Vec<(usize, usize, usize)> = Vec::new(); // (rank, lo, hi)
    if m > 0 {
        let mut fold = Step::default();
        for i in 0..m {
            let (front, back) = (2 * i, 2 * i + 1);
            fold.transfers.push(Transfer {
                src: back,
                dst: front,
                span: Span::whole(image_len),
                dir: MergeDir::Back,
            });
            survivors.push((front, front, back + 1));
        }
        for r in 2 * m..p {
            survivors.push((r, r, r + 1));
        }
        steps.push(fold);
    } else {
        survivors = (0..p).map(|r| (r, r, r + 1)).collect();
    }
    debug_assert_eq!(survivors.len(), core);

    // Swap phase over the survivors (indexed 0..core in depth order).
    // survivor i's state: (rank, lo, hi, span).
    let mut state: Vec<(usize, usize, usize, Span)> = survivors
        .into_iter()
        .map(|(rank, lo, hi)| (rank, lo, hi, Span::whole(image_len)))
        .collect();

    let dims = core.trailing_zeros() as usize;
    for k in 0..dims {
        let bit = 1usize << k;
        let mut step = Step::default();
        let mut next = state.clone();
        for i in 0..core {
            let j = i ^ bit;
            if j < i {
                continue; // handle each pair once
            }
            let (ri, lo_i, hi_i, span_i) = state[i];
            let (rj, lo_j, hi_j, span_j) = state[j];
            debug_assert_eq!(span_i, span_j, "hypercube pairs share spans");
            debug_assert_eq!(hi_i, lo_j, "pair intervals must be depth-adjacent");
            let (first, second) = span_i.halve();
            // Front holder (i) keeps the first half; back holder (j)
            // keeps the second. Each ships its partial of the other
            // half (zero-pixel halves ship nothing).
            if !first.is_empty() {
                step.transfers.push(Transfer {
                    src: rj,
                    dst: ri,
                    span: first,
                    dir: MergeDir::Back,
                });
            }
            if !second.is_empty() {
                step.transfers.push(Transfer {
                    src: ri,
                    dst: rj,
                    span: second,
                    dir: MergeDir::Front,
                });
            }
            next[i] = (ri, lo_i, hi_j, first);
            next[j] = (rj, lo_i, hi_j, second);
        }
        state = next;
        steps.push(step);
    }

    let mut final_owners: Vec<(Span, usize)> = state
        .into_iter()
        .map(|(rank, _, _, span)| (span, rank))
        .collect();
    final_owners.sort_by_key(|(span, _)| span.start);

    Ok(Schedule {
        p,
        image_len,
        steps,
        final_owners,
        method: if fold { "BS+fold" } else { "BS" }.to_string(),
        depth_of_rank: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::verify_schedule;

    #[test]
    fn rejects_non_power_of_two_without_fold() {
        assert!(schedule(3, 100, false).is_err());
        assert!(schedule(12, 100, false).is_err());
        assert!(schedule(0, 100, false).is_err());
    }

    #[test]
    fn power_of_two_schedules_verify() {
        for p in [1, 2, 4, 8, 16, 32] {
            let s = schedule(p, 512 * 512, false).unwrap();
            verify_schedule(&s).unwrap_or_else(|e| panic!("p={p}: {e}"));
            assert_eq!(s.step_count(), p.trailing_zeros() as usize);
            assert_eq!(s.final_owners.len(), p);
        }
    }

    #[test]
    fn step_sizes_halve_like_table1() {
        let a = 512 * 512;
        let s = schedule(32, a, false).unwrap();
        for (k, step) in s.steps.iter().enumerate() {
            let expected = a / (2 << k); // A / 2^(k+1)
            for t in &step.transfers {
                assert_eq!(t.span.len, expected, "step {}", k + 1);
            }
            // Every rank sends exactly once per step.
            let mut sends = vec![0usize; 32];
            for t in &step.transfers {
                sends[t.src] += 1;
            }
            assert!(sends.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn final_ownership_is_exactly_a_over_p() {
        let a = 1 << 16;
        let s = schedule(16, a, false).unwrap();
        let owned = s.owned_pixels();
        assert!(owned.iter().all(|&px| px == a / 16), "{owned:?}");
    }

    #[test]
    fn fold_handles_arbitrary_p() {
        for p in [3, 5, 6, 7, 9, 12, 17, 33, 40] {
            let s = schedule(p, 4096, true).unwrap();
            verify_schedule(&s).unwrap_or_else(|e| panic!("p={p}: {e}"));
            // One fold step + log2(core) swap steps.
            let core = p.next_power_of_two() / 2;
            assert_eq!(s.step_count(), 1 + core.trailing_zeros() as usize);
        }
    }

    #[test]
    fn fold_idle_ranks_own_nothing() {
        let s = schedule(5, 4096, true).unwrap();
        let owned = s.owned_pixels();
        // p=5: core=4, m=1: rank 1 folds into rank 0 and goes idle.
        assert_eq!(owned[1], 0);
        assert_eq!(owned.iter().sum::<usize>(), 4096);
    }
}
