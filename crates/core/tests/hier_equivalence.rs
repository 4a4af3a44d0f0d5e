//! Property tests for the two-level hierarchical plans: for randomly
//! drawn machine shapes with a group size that does *not* divide the
//! rank count, the hierarchical composite must be byte-identical to the
//! flat reference fold for every intra method × codec — and under a
//! leader crash the degraded output must never invent content.
//!
//! Byte-identity is checked with depth-disjoint band partials (rank `r`
//! renders only row `r`), for which any association of `over` equals
//! the reference fold exactly while mis-routing still corrupts bytes.

use proptest::prelude::*;
use rt_comm::FaultPlan;
use rt_compress::CodecKind;
use rt_core::rotate::RtVariant;
use rt_core::{ComposeConfig, ComposePlan, HierPlan, IntraMethod, Run};
use rt_imaging::image::reference_composite;
use rt_imaging::pixel::{GrayAlpha8, Pixel};
use rt_imaging::synth::band_partials;

/// Intra methods valid for *any* group size, ragged last group included.
fn ragged_safe_intras() -> Vec<IntraMethod> {
    vec![
        IntraMethod::DirectSend,
        IntraMethod::BinarySwapFold,
        IntraMethod::ParallelPipelined,
        IntraMethod::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 2,
        },
        IntraMethod::TileOwner {
            tiles_x: 2,
            tiles_y: 2,
        },
    ]
}

/// Pick a group size `2 ≤ k < p` with `k ∤ p` from a raw draw; such a
/// `k` exists for every `p ≥ 5` in the ranges drawn below.
fn non_dividing_k(p: usize, seed: usize) -> usize {
    let candidates: Vec<usize> = (2..p).filter(|&k| !p.is_multiple_of(k)).collect();
    candidates[seed % candidates.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // k ∤ P, every ragged-safe intra method, every codec: the two-level
    // fold reproduces the flat reference composite byte-for-byte.
    #[test]
    fn hier_is_byte_identical_to_flat_for_every_method_and_codec(
        p in 5usize..=16,
        k_seed in 0usize..=64,
        w in 6usize..=24,
    ) {
        let k = non_dividing_k(p, k_seed);
        let partials = band_partials(p, w, p);
        let expected = reference_composite(&partials).unwrap();
        for intra in ragged_safe_intras() {
            let plan =
                ComposePlan::Hier(HierPlan::build(p, k, intra, w, p).unwrap());
            plan.verify().unwrap();
            for codec in CodecKind::ALL {
                let config = ComposeConfig::default().with_codec(codec);
                let (results, _) = Run::new(&plan, &config).execute(partials.clone());
                let out = results[0].as_ref().unwrap();
                prop_assert_eq!(
                    out.frame.as_ref().unwrap().pixels(),
                    expected.pixels(),
                    "p={} k={} {:?} {:?}: diverged from the flat fold",
                    p, k, intra, codec
                );
                // Non-root ranks never hold the gathered frame.
                for res in results.iter().skip(1) {
                    prop_assert!(res.as_ref().unwrap().frame.is_none());
                }
            }
        }
    }

    // A group leader crashing at a random step lands in one of three
    // fates — intra-phase death, inter-phase death, or past every crash
    // window — and in all three the degraded composite is *faithful*:
    // every output pixel is either the reference value or blank, and
    // content of ranks not reported lost survives exactly.
    #[test]
    fn leader_death_never_invents_content(
        p in 6usize..=14,
        k_seed in 0usize..=64,
        group in 0usize..=6,
        step in 0usize..=6,
    ) {
        let k = non_dividing_k(p, k_seed);
        let w = 16;
        let partials = band_partials(p, w, p);
        let expected = reference_composite(&partials).unwrap();
        let plan =
            HierPlan::build(p, k, IntraMethod::DirectSend, w, p).unwrap();
        let leaders = plan.leaders();
        let victim = leaders[group % leaders.len()];
        let faults = FaultPlan::none().crash_rank_at_step(victim, step);
        let config = ComposeConfig::default().resilient(true);
        let (results, _) = Run::new(&ComposePlan::Hier(plan), &config).faults(faults).execute(partials);
        // The victim may or may not have crashed (the step can lie past
        // both phases' windows); the gathered frame lands at the lowest
        // survivor either way.
        let root = results
            .iter()
            .position(|r| {
                r.as_ref().is_ok_and(|o| o.frame.is_some())
            })
            .expect("some survivor must gather the frame");
        let out = results[root].as_ref().unwrap();
        let frame = out.frame.as_ref().unwrap();
        let lost: Vec<usize> = out
            .degraded
            .as_ref()
            .map(|d| d.lost_contributions.clone())
            .unwrap_or_default();
        if out.degraded.is_none() {
            // Fate 3: the crash never fired — exact composite.
            prop_assert_eq!(frame.pixels(), expected.pixels());
        }
        for (i, (&got, &want)) in frame
            .pixels()
            .iter()
            .zip(expected.pixels())
            .enumerate()
        {
            let owner_rank = i / w; // band partials: row y is rank y.
            if got != want {
                // Degradation may only *blank* content, never corrupt.
                prop_assert_eq!(
                    got,
                    GrayAlpha8::blank(),
                    "pixel {} corrupted (victim {} step {})",
                    i, victim, step
                );
                // ... and only for ranks reported as (partially) lost.
                prop_assert!(
                    lost.contains(&owner_rank),
                    "silent loss of rank {}'s content (victim {} step {})",
                    owner_rank, victim, step
                );
            }
        }
    }
}
