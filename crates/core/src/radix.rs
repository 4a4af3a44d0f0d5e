//! Radix-k round-structured composition (the hierarchical inter-group
//! stage).
//!
//! Peterka et al.'s Radix-k generalizes binary-swap and direct-send into
//! one family: factor the machine size into radices `P = r₁·r₂·…·rₘ` and
//! run `m` rounds. In round `j`, ranks are partitioned into round-groups
//! of `rⱼ` members holding identical spans over depth-adjacent runs; each
//! member splits the common span `rⱼ` ways, keeps one piece and exchanges
//! the rest directly within the round-group. `radices = [2, 2, …]` is
//! binary-swap; `radices = [P]` is direct-send; anything between trades
//! message count against per-message size — exactly the knob a
//! hierarchical leader overlay needs when the leader count sits between
//! "few enough for one direct-send round" and "so many that log₂ rounds
//! pay off".
//!
//! Round-group membership in round `j` strides by `sⱼ = r₁·…·rⱼ₋₁`: the
//! members are the ranks holding the same span piece from `rⱼ`
//! depth-adjacent windows, so every merge is depth-contiguous and
//! [`verify_schedule`](crate::schedule::verify_schedule) proves the round
//! structure for every supported factorization.
//!
//! Merge order at each receiver matches the direct-send baseline: nearer
//! contributions merge in front (emitted nearest-first), farther ones fold
//! deepest-first into the deferred back accumulator.

use crate::schedule::{MergeDir, Schedule, Step, Transfer};
use crate::CoreError;
use rt_imaging::Span;

/// Factor `p` into rounds of radix at most `k` (greedy largest-first): the
/// canonical factorization the hierarchical planner uses for its leader
/// overlay. Falls back to a single radix-`p` round (direct send) when `p`
/// has no factor in `2..=k` — e.g. a prime leader count.
pub fn for_group_size(p: usize, k: usize) -> Vec<usize> {
    assert!(p > 0, "radix factorization of an empty machine");
    let cap = k.max(2);
    let mut radices = Vec::new();
    let mut rest = p;
    while rest > 1 {
        match (2..=cap.min(rest)).rev().find(|&f| rest.is_multiple_of(f)) {
            Some(f) => {
                radices.push(f);
                rest /= f;
            }
            None => {
                // No factor fits the cap: finish with one wide round.
                radices.push(rest);
                rest = 1;
            }
        }
    }
    radices
}

/// Compile Radix-k for `p` ranks and an `image_len`-pixel frame: one
/// exchange round per radix, whose product must equal `p`.
pub fn schedule(p: usize, image_len: usize, radices: &[usize]) -> Result<Schedule, CoreError> {
    if p == 0 {
        return Err(CoreError::UnsupportedShape {
            method: "radix-k",
            why: "zero ranks".into(),
        });
    }
    let product: usize = radices.iter().product();
    if product != p {
        return Err(CoreError::UnsupportedShape {
            method: "radix-k",
            why: format!("radices {radices:?} multiply to {product}, machine has {p} ranks"),
        });
    }
    if radices.iter().any(|&r| r < 2) {
        return Err(CoreError::UnsupportedShape {
            method: "radix-k",
            why: format!("radices {radices:?} contain a round of fewer than 2"),
        });
    }

    let mut spans: Vec<Span> = vec![Span::whole(image_len); p];
    let mut steps = Vec::with_capacity(radices.len());
    let mut stride = 1usize; // s_j = r_1 · … · r_{j-1}
    for (round, &radix) in radices.iter().enumerate() {
        let last_round = round + 1 == radices.len();
        let width = stride * radix;
        let mut step = Step::default();
        // Iterate receivers in rank order (matching direct-send's
        // deterministic transfer listing), emitting each receiver's
        // merges in the order the executor applies them.
        for (dst, span) in spans.iter().enumerate() {
            let base = (dst / width) * width + dst % stride;
            let pos = (dst % width) / stride;
            let member = |h: usize| base + h * stride;
            let piece = span.split_even(radix)[pos];
            if piece.is_empty() {
                continue;
            }
            // Front contributions from nearer depth windows merge
            // nearest-first. Far contributions fold deepest-first into
            // the deferred back accumulator on the last round (the
            // direct-send idiom — accumulators flush only after the
            // final step); earlier rounds must complete each piece
            // before it is re-split, so they merge far contributions
            // immediately, nearest-first, as plain back merges.
            for h in (0..pos).rev() {
                step.transfers.push(Transfer {
                    src: member(h),
                    dst,
                    span: piece,
                    dir: MergeDir::Front,
                });
            }
            if last_round {
                for h in ((pos + 1)..radix).rev() {
                    step.transfers.push(Transfer {
                        src: member(h),
                        dst,
                        span: piece,
                        dir: MergeDir::BackDefer,
                    });
                }
            } else {
                for h in (pos + 1)..radix {
                    step.transfers.push(Transfer {
                        src: member(h),
                        dst,
                        span: piece,
                        dir: MergeDir::Back,
                    });
                }
            }
        }
        // Narrow every rank's span to its kept piece.
        for (rank, span) in spans.iter_mut().enumerate() {
            let pos = (rank % width) / stride;
            *span = span.split_even(radix)[pos];
        }
        if !step.transfers.is_empty() {
            steps.push(step);
        }
        stride = width;
    }

    let final_owners = spans
        .into_iter()
        .enumerate()
        .map(|(rank, span)| (span, rank))
        .collect();
    Ok(Schedule {
        p,
        image_len,
        steps,
        final_owners,
        method: format!(
            "RADIX({})",
            radices
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("x")
        ),
        depth_of_rank: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::verify_schedule;

    #[test]
    fn factorizations_verify_across_shapes() {
        for (p, radices) in [
            (4, vec![2, 2]),
            (6, vec![3, 2]),
            (6, vec![2, 3]),
            (8, vec![2, 2, 2]),
            (8, vec![4, 2]),
            (12, vec![4, 3]),
            (16, vec![4, 4]),
            (16, vec![16]),
            (30, vec![5, 3, 2]),
        ] {
            let s = schedule(p, 7 * p * p, &radices).unwrap();
            verify_schedule(&s).unwrap_or_else(|e| panic!("p={p} radices={radices:?}: {e}"));
            assert_eq!(s.step_count(), radices.len());
        }
    }

    #[test]
    fn single_round_is_direct_send() {
        // radices = [P] is the direct-send transfer set (`DS` builds through
        // it): nearer partials merge nearest-first in front, farther ones
        // fold deepest-first into the deferred accumulator.
        let radix = schedule(7, 700, &[7]).unwrap();
        let ds = crate::direct::schedule(7, 700).unwrap();
        assert_eq!(radix.steps, ds.steps);
        assert_eq!(radix.final_owners, ds.final_owners);
        assert_eq!(ds.method, "DS");
        let to_3: Vec<_> = ds.steps[0].recvs_of(3).map(|t| (t.src, t.dir)).collect();
        let front = [2, 1, 0].map(|src| (src, MergeDir::Front));
        let defer = [6, 5, 4].map(|src| (src, MergeDir::BackDefer));
        assert_eq!(to_3, [front, defer].concat());
    }

    #[test]
    fn repeated_radix_two_matches_binary_swap_shape() {
        // Not necessarily transfer-identical to the BS builder (pairing
        // order differs), but the communication shape must match: log₂P
        // rounds of one send per rank, halving spans.
        let s = schedule(8, 800, &[2, 2, 2]).unwrap();
        verify_schedule(&s).unwrap();
        assert_eq!(s.step_count(), 3);
        assert_eq!(s.message_count(), 3 * 8);
        assert_eq!(s.pixels_shipped(), 8 * (400 + 200 + 100));
    }

    #[test]
    fn greedy_factorization_respects_the_cap() {
        assert_eq!(for_group_size(16, 4), vec![4, 4]);
        assert_eq!(for_group_size(12, 4), vec![4, 3]);
        assert_eq!(for_group_size(32, 8), vec![8, 4]);
        assert_eq!(for_group_size(7, 4), vec![7]); // prime
        assert_eq!(for_group_size(1, 4), Vec::<usize>::new());
        // Partially factorable: pull what fits, finish wide.
        assert_eq!(for_group_size(22, 4), vec![2, 11]);
    }

    #[test]
    fn product_mismatch_is_rejected() {
        assert!(schedule(6, 600, &[2, 2]).is_err());
        assert!(schedule(6, 600, &[1, 6]).is_err());
    }

    #[test]
    fn single_rank_needs_no_messages() {
        let s = schedule(1, 100, &[]).unwrap();
        assert_eq!(s.step_count(), 0);
        verify_schedule(&s).unwrap();
    }
}
