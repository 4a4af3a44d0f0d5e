//! The rotate-tiling (RT) composition method — the paper's contribution.
//!
//! ## The algorithm
//!
//! Each rank's full-frame partial image is split into `B` *initial blocks*
//! (the paper's `N`, or `2N` for the any-processor-count variant). The
//! method then runs `S = ⌈log₂ P⌉` communication steps. Before step `k`,
//! every live block is held by at most `⌈P / 2^(k-1)⌉` ranks, each holding
//! the composite of a contiguous interval of depth ranks; the holders of a
//! block always tile `[0, P)`. During step `k`:
//!
//! 1. within every block, depth-adjacent holders are paired (when the holder
//!    count is odd, a rotating parity decides whether the front-most or the
//!    back-most holder sits out — the "rotate");
//! 2. one holder of each pair ships its whole partial of the block to the
//!    other (direction also alternates by a rotating parity, spreading both
//!    traffic and final ownership), and the receiver composites it with
//!    `over` in depth order;
//! 3. after the step (except the last), every block is divided into two
//!    equal halves, so the unit of transfer at step `k` is `A/(B·2^(k-1))`
//!    pixels — the paper's Table 1 block-size column.
//!
//! After step `S` every block has exactly one holder, whose interval is the
//! complete `[0, P)`: the final image is distributed block-wise and is
//! collected by the gather stage.
//!
//! ## Variants
//!
//! * [`RtVariant::TwoN`] (the paper's `2N_RT`): arbitrary `P`, even `B`;
//! * [`RtVariant::N`] (the paper's `N_RT`): even `P`, arbitrary `B ≥ 1`.
//!
//! Both compile to the same merge tree when their preconditions overlap; the
//! paper's observed performance difference between them is entirely the
//! admissible choice of `B` (its Figure 6 uses `B = 4` vs `B = 3`). The
//! paper's blanket restriction — `P × B` must be even — is enforced by
//! [`crate::Method::build`]; [`schedule`] itself applies no rule, which is
//! what the ablation studies use, since the re-derived schedule is correct
//! for any `(P, B)`.
//!
//! ## Relation to the published equations
//!
//! Equations (1)–(4) of the paper (the send/receive index formulas) are
//! OCR-corrupted in the available text and, read literally, prescribe
//! depth-order-violating merges. The schedule here is re-derived from the
//! paper's stated invariants; the pure verifier and the `Provenance` pixel
//! tests prove depth-ordered completeness for every supported shape.

use crate::schedule::{MergeDir, Schedule, Step, Transfer};
use crate::CoreError;
use rt_imaging::Span;
use serde::{Deserialize, Serialize};

/// Which admissibility rule of the paper applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RtVariant {
    /// `2N_RT`: any processor count, even initial block count.
    TwoN,
    /// `N_RT`: even processor count, any initial block count.
    N,
}

impl RtVariant {
    /// Method name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            RtVariant::TwoN => "2N_RT",
            RtVariant::N => "N_RT",
        }
    }
}

/// `⌈log₂ p⌉` — the paper's step count.
pub fn ceil_log2(p: usize) -> usize {
    debug_assert!(p > 0);
    p.next_power_of_two().trailing_zeros() as usize
}

/// One holder of a block: rank `rank` holds the composite of depth interval
/// `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
struct Holder {
    lo: usize,
    hi: usize,
    rank: usize,
}

/// A live block: its pixel span and its holders, sorted by depth interval
/// (which always tiles `[0, P)`).
#[derive(Debug, Clone)]
struct Blk {
    span: Span,
    holders: Vec<Holder>,
}

/// Compile rotate-tiling for `p` ranks and an `image_len`-pixel frame from
/// `blocks` initial blocks, naming it after `variant`. No admissibility rule
/// applies here — the re-derived schedule is correct for any `(P, B)`;
/// [`crate::Method::build`] enforces the paper's.
pub fn schedule(
    p: usize,
    image_len: usize,
    variant: RtVariant,
    blocks: usize,
) -> Result<Schedule, CoreError> {
    let unsupported = |why: &str| CoreError::UnsupportedShape {
        method: "rotate-tiling",
        why: why.into(),
    };
    if p == 0 {
        return Err(unsupported("zero ranks"));
    }
    if blocks == 0 {
        return Err(unsupported("initial block count must be at least 1"));
    }
    let s = ceil_log2(p);
    let b = blocks;

    let mut blocks: Vec<Blk> = Span::whole(image_len)
        .split_even(b)
        .into_iter()
        .map(|span| Blk {
            span,
            holders: (0..p)
                .map(|r| Holder {
                    lo: r,
                    hi: r + 1,
                    rank: r,
                })
                .collect(),
        })
        .collect();

    let mut steps = Vec::with_capacity(s);
    // Cumulative pixels received per rank: the direction choice below
    // balances this greedily, which spreads both per-step traffic and
    // final ownership. Deterministic, so every rank derives the same
    // schedule without communication.
    let mut received = vec![0usize; p];
    // Per-step send/receive counts: the direction choice keeps every
    // rank's per-step message count flat, which bounds the critical
    // path at roughly (B/2)·⌈log₂P⌉ message startups.
    let mut step_sends = vec![0usize; p];
    let mut step_recvs = vec![0usize; p];
    for k in 1..=s {
        let mut step = Step::default();
        step_sends.iter_mut().for_each(|c| *c = 0);
        step_recvs.iter_mut().for_each(|c| *c = 0);
        for (bi, blk) in blocks.iter_mut().enumerate() {
            let c = blk.holders.len();
            if c <= 1 {
                continue;
            }
            // The rotate: for odd holder counts, alternate whether the
            // front-most holder sits out; for even counts everyone pairs.
            let offset = if c % 2 == 1 { (k + bi) % 2 } else { 0 };
            let mut merged: Vec<Holder> = Vec::with_capacity(c.div_ceil(2));
            if offset == 1 {
                merged.push(blk.holders[0]);
            }
            let mut i = offset;
            let mut j = 0usize; // pair index within the block
            while i + 1 < c {
                let front = blk.holders[i];
                let back = blk.holders[i + 1];
                debug_assert_eq!(front.hi, back.lo, "holder runs must tile [0, P)");
                // Which side receives (and therefore keeps the block)?
                // Deterministic multi-key choice — the "rotate":
                // 1. keep per-step sends flat (bounds the latency
                //    chain: a rank queueing many sends stalls all its
                //    receivers);
                // 2. then per-step receives flat;
                // 3. then cumulative received pixels flat (spreads
                //    total composition work and final ownership);
                // 4. then a rotating parity over (pair, block, step).
                let keys = |recv: &Holder, send: &Holder| {
                    (
                        step_sends[send.rank],
                        step_recvs[recv.rank],
                        received[recv.rank],
                    )
                };
                let front_receives = match keys(&front, &back).cmp(&keys(&back, &front)) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => (j + (k + bi) / 2).is_multiple_of(2),
                };
                let (receiver, sender, dir) = if front_receives {
                    (front, back, MergeDir::Back)
                } else {
                    (back, front, MergeDir::Front)
                };
                // Zero-pixel blocks merge holders without traffic.
                if !blk.span.is_empty() {
                    received[receiver.rank] += blk.span.len;
                    step_sends[sender.rank] += 1;
                    step_recvs[receiver.rank] += 1;
                    step.transfers.push(Transfer {
                        src: sender.rank,
                        dst: receiver.rank,
                        span: blk.span,
                        dir,
                    });
                }
                merged.push(Holder {
                    lo: front.lo,
                    hi: back.hi,
                    rank: receiver.rank,
                });
                i += 2;
                j += 1;
            }
            if i < c {
                merged.push(blk.holders[i]);
            }
            blk.holders = merged;
        }
        steps.push(step);

        // "Divide each block into two equal halves" — except after the
        // final step (the paper's Figure 1 ends with B·2^(S-1) blocks).
        if k < s {
            blocks = blocks
                .iter()
                .flat_map(|blk| {
                    let (a, bspan) = blk.span.halve();
                    [
                        Blk {
                            span: a,
                            holders: blk.holders.clone(),
                        },
                        Blk {
                            span: bspan,
                            holders: blk.holders.clone(),
                        },
                    ]
                })
                .collect();
        }
    }

    let final_owners = blocks
        .iter()
        .map(|blk| {
            debug_assert_eq!(blk.holders.len(), 1);
            debug_assert_eq!(blk.holders[0].lo, 0);
            debug_assert_eq!(blk.holders[0].hi, p);
            (blk.span, blk.holders[0].rank)
        })
        .collect();

    Ok(Schedule {
        p,
        image_len,
        steps,
        final_owners,
        method: format!("{}(B={b})", variant.label()),
        depth_of_rank: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::verify_schedule;
    use crate::Method;

    fn two_n(blocks: usize) -> Method {
        Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks,
        }
    }

    fn n(blocks: usize) -> Method {
        Method::RotateTiling {
            variant: RtVariant::N,
            blocks,
        }
    }

    #[test]
    fn ceil_log2_values() {
        let expected = [
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (31, 5),
            (32, 5),
            (33, 6),
        ];
        for (p, s) in expected {
            assert_eq!(ceil_log2(p), s, "p = {p}");
        }
    }

    #[test]
    fn admissibility_follows_the_paper() {
        // 2N_RT: any P, even B.
        assert!(two_n(4).build(3, 120).is_ok());
        assert!(two_n(3).build(3, 120).is_err());
        assert!(two_n(0).build(3, 120).is_err());
        // N_RT: even P, any B.
        assert!(n(3).build(4, 120).is_ok());
        assert!(n(3).build(5, 120).is_err());
        // The bare schedule: odd-odd allowed (ablation).
        assert!(schedule(5, 120, RtVariant::TwoN, 3).is_ok());
        // Zero ranks: a typed error from every entry, never a panic.
        for variant in [RtVariant::TwoN, RtVariant::N] {
            assert!(schedule(0, 120, variant, 4).is_err());
            let m = Method::RotateTiling { variant, blocks: 4 };
            assert!(m.build(0, 120).is_err());
            assert!(m.plan(0, 12, 10).is_err());
        }
    }

    #[test]
    fn figure1_shape_three_ranks_four_blocks() {
        // The paper's Figure 1: P = 3, four initial blocks, 2 steps,
        // final image in 8 blocks.
        let s = two_n(4).build(3, 240).unwrap();
        assert_eq!(s.step_count(), 2);
        assert_eq!(s.final_owners.len(), 8);
        verify_schedule(&s).unwrap();
        // Block size halves per step: step 1 ships 60-px blocks, step 2
        // ships 30-px blocks.
        assert!(s.steps[0].transfers.iter().all(|t| t.span.len == 60));
        assert!(s.steps[1].transfers.iter().all(|t| t.span.len == 30));
        // Every rank owns part of the final image.
        let owned = s.owned_pixels();
        assert!(owned.iter().all(|&px| px > 0), "{owned:?}");
    }

    #[test]
    fn figure2_shape_four_ranks_three_blocks() {
        // The paper's Figure 2: P = 4, three initial blocks, 2 steps,
        // final image in 6 blocks.
        let s = n(3).build(4, 240).unwrap();
        assert_eq!(s.step_count(), 2);
        assert_eq!(s.final_owners.len(), 6);
        verify_schedule(&s).unwrap();
        assert!(s.steps[0].transfers.iter().all(|t| t.span.len == 80));
        assert!(s.steps[1].transfers.iter().all(|t| t.span.len == 40));
    }

    #[test]
    fn all_supported_shapes_verify() {
        for p in 1..=12 {
            for b in 1..=8 {
                let admissible_2n = b % 2 == 0;
                let admissible_n = p % 2 == 0;
                if admissible_2n {
                    let s = two_n(b).build(p, 960).unwrap();
                    verify_schedule(&s).unwrap_or_else(|e| panic!("2N_RT p={p} b={b}: {e}"));
                }
                if admissible_n {
                    let s = n(b).build(p, 960).unwrap();
                    verify_schedule(&s).unwrap_or_else(|e| panic!("N_RT p={p} b={b}: {e}"));
                }
                let s = schedule(p, 960, RtVariant::TwoN, b).unwrap();
                verify_schedule(&s).unwrap_or_else(|e| panic!("RT p={p} b={b}: {e}"));
            }
        }
    }

    #[test]
    fn larger_machines_verify() {
        for (p, b) in [(32, 4), (32, 3), (33, 2), (40, 6), (24, 5), (17, 2)] {
            let s = schedule(p, 512 * 512, RtVariant::TwoN, b).unwrap();
            verify_schedule(&s).unwrap_or_else(|e| panic!("p={p} b={b}: {e}"));
            assert_eq!(s.step_count(), ceil_log2(p));
        }
    }

    #[test]
    fn block_sizes_follow_table1_halving() {
        let p = 32;
        let b = 4;
        let a = 512 * 512;
        let s = two_n(b).build(p, a).unwrap();
        for (k, step) in s.steps.iter().enumerate() {
            let expected = a / (b * (1 << k));
            for t in &step.transfers {
                assert_eq!(t.span.len, expected, "step {}", k + 1);
            }
        }
    }

    #[test]
    fn final_ownership_is_balanced_for_even_shapes() {
        let s = two_n(4).build(32, 512 * 512).unwrap();
        let owned = s.owned_pixels();
        let min = *owned.iter().min().unwrap();
        let max = *owned.iter().max().unwrap();
        // Perfectly balanced would be A/32 = 8192 each; allow 4x spread.
        assert!(min > 0, "{owned:?}");
        assert!(max <= 4 * 8192, "{owned:?}");
    }

    #[test]
    fn single_rank_degenerates_to_no_communication() {
        let s = two_n(2).build(1, 100).unwrap();
        assert_eq!(s.step_count(), 0);
        assert_eq!(s.message_count(), 0);
        verify_schedule(&s).unwrap();
        assert_eq!(s.owned_pixels(), vec![100]);
    }

    #[test]
    fn message_counts_scale_with_blocks() {
        // Per step, each block with c holders produces ⌊c/2⌋ transfers, so
        // doubling B roughly doubles the per-step message count.
        let a = 512 * 512;
        let s2 = two_n(2).build(32, a).unwrap();
        let s8 = two_n(8).build(32, a).unwrap();
        assert!(s8.message_count() >= 3 * s2.message_count());
        // And B = 2 matches binary-swap's total data volume at pow-2 P.
        let shipped = s2.pixels_shipped();
        let bs_volume = (1..=5).map(|k| 32 * (a / (1 << k))).sum::<usize>();
        // One-way whole-block merges ship the same volume as half-block
        // swaps: A/2^k per rank per step.
        assert_eq!(shipped, bs_volume);
    }
}
