//! Property tests over the schedule generators: for *randomly drawn*
//! machine shapes, every schedule must pass the symbolic correctness
//! verifier and respect the structural laws the paper states.

use proptest::prelude::*;
use rt_core::analysis::analyze;
use rt_core::rotate::{self, ceil_log2, RtVariant};
use rt_core::schedule::verify_schedule;
use rt_core::Method;
use rt_imaging::span::spans_tile;
use rt_imaging::Span;

/// The case upstream proptest once shrank `binary_swap_verifies_for_powers_of_two`
/// to: eight ranks over two pixels, so most blocks are empty.
#[test]
fn binary_swap_verifies_with_fewer_pixels_than_ranks() {
    let s = Method::BinarySwap.build(8, 2).unwrap();
    assert!(verify_schedule(&s).is_ok());
    assert_eq!(s.step_count(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rotate_tiling_verifies_for_any_shape(
        p in 1usize..=24,
        b in 1usize..=10,
        a in 1usize..=5000,
    ) {
        let s = rotate::schedule(p, a, RtVariant::TwoN, b).unwrap();
        prop_assert!(verify_schedule(&s).is_ok(), "p={p} b={b} a={a}");
        prop_assert_eq!(s.step_count(), ceil_log2(p));
        // Final owners tile the frame.
        let spans: Vec<Span> = s.final_owners.iter().map(|(sp, _)| *sp).collect();
        prop_assert!(spans_tile(Span::whole(a), &spans));
    }

    #[test]
    fn rotate_tiling_block_size_law(
        p in 2usize..=16,
        b in 1usize..=8,
    ) {
        // Table 1: the unit of transfer at step k is A/(B·2^(k−1)),
        // within one pixel of rounding for indivisible sizes.
        let a = 1 << 14;
        let s = rotate::schedule(p, a, RtVariant::TwoN, b).unwrap();
        for (k, step) in s.steps.iter().enumerate() {
            let expected = a as f64 / (b as f64 * 2f64.powi(k as i32));
            for t in &step.transfers {
                prop_assert!(
                    (t.span.len as f64 - expected).abs() <= 1.0,
                    "step {k}: {} vs {expected}", t.span.len
                );
            }
        }
    }

    #[test]
    fn pipelined_and_direct_verify_for_any_p(p in 1usize..=20, a in 1usize..=4000) {
        let pp = Method::ParallelPipelined.build(p, a).unwrap();
        prop_assert!(verify_schedule(&pp).is_ok());
        prop_assert_eq!(pp.step_count(), p.saturating_sub(1));
        let ds = Method::DirectSend.build(p, a).unwrap();
        prop_assert!(verify_schedule(&ds).is_ok());
        // Same traffic volume, different step structure.
        prop_assert_eq!(pp.pixels_shipped(), ds.pixels_shipped());
    }

    #[test]
    fn binary_swap_verifies_for_powers_of_two(exp in 0u32..=5, a in 1usize..=4000) {
        let p = 1usize << exp;
        let s = Method::BinarySwap.build(p, a).unwrap();
        prop_assert!(verify_schedule(&s).is_ok());
        prop_assert_eq!(s.step_count(), exp as usize);
    }

    #[test]
    fn binary_swap_fold_verifies_for_any_p(p in 1usize..=24, a in 1usize..=4000) {
        let s = Method::BinarySwapFold.build(p, a).unwrap();
        prop_assert!(verify_schedule(&s).is_ok());
    }

    #[test]
    fn schedules_roundtrip_through_serde(p in 1usize..=12, b in 1usize..=6) {
        let s = rotate::schedule(p, 1200, RtVariant::TwoN, b).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: rt_core::Schedule = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(s, back);
    }

    #[test]
    fn analysis_invariants_hold(p in 1usize..=20, b in 1usize..=8) {
        let cost = rt_comm::CostModel::new(1.0, 0.001, 0.0001);
        let s = rotate::schedule(p, 2048, RtVariant::TwoN, b).unwrap();
        let a = analyze(&s, &cost, 2);
        // The makespan is at least the latency depth and at least the
        // busiest rank's serial send time.
        prop_assert!(a.makespan + 1e-9 >= a.latency_depth);
        prop_assert!(a.makespan_with_gather + 1e-9 >= a.makespan);
        prop_assert!(a.max_sent_pixels <= a.pixels_shipped);
        // Latency depth counts whole startups.
        prop_assert!((a.latency_depth - a.latency_depth.round()).abs() < 1e-9);
    }
}
