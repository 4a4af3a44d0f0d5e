//! Cross-crate correctness matrix: every composition method, over the real
//! threaded multicomputer, with every codec, proven exact with the
//! `Provenance` pixel — which poisons on any out-of-order or duplicated
//! `over` merge, so a passing test is a machine-checked proof that each
//! final pixel composited every rank's contribution exactly once in depth
//! order.

use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::rotate::{self, RtVariant};
use rotate_tiling::core::schedule::{verify_schedule, Schedule};
use rotate_tiling::core::{ComposePlan, Method, Run};
use rotate_tiling::imaging::{Image, Provenance};

const A: usize = 1920; // divisible by many block counts, with remainders elsewhere

fn partials(p: usize, len: usize) -> Vec<Image<Provenance>> {
    (0..p)
        .map(|r| Image::from_fn(len, 1, |_, _| Provenance::rank(r as u16)))
        .collect()
}

fn rt_2n(blocks: usize) -> Method {
    Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks,
    }
}

fn rt_n(blocks: usize) -> Method {
    Method::RotateTiling {
        variant: RtVariant::N,
        blocks,
    }
}

fn assert_exact(method: Method, p: usize, len: usize, codec: CodecKind) {
    let schedule = method
        .build(p, len)
        .unwrap_or_else(|e| panic!("{} p={p}: {e}", method.name()));
    assert_schedule_exact(schedule, codec);
}

fn assert_schedule_exact(schedule: Schedule, codec: CodecKind) {
    let (p, len, name) = (schedule.p, schedule.image_len, schedule.method.clone());
    verify_schedule(&schedule).unwrap_or_else(|e| panic!("{name} p={p}: {e}"));
    let config = ComposeConfig {
        codec,
        root: p / 2, // non-default root
        ..Default::default()
    };
    let (results, _) =
        Run::new(&ComposePlan::Schedule(schedule), &config).execute(partials(p, len));
    let mut frames = 0;
    for r in results {
        let out = r.unwrap_or_else(|e| panic!("{name} p={p}: {e}"));
        if let Some(frame) = out.frame {
            frames += 1;
            assert!(
                frame
                    .pixels()
                    .iter()
                    .all(|px| *px == Provenance::complete(p as u16)),
                "{name} p={p} codec={codec:?}: incomplete or out-of-order composite"
            );
        }
    }
    assert_eq!(frames, 1, "exactly the root returns a frame");
}

#[test]
fn binary_swap_exact_for_powers_of_two() {
    for p in [1, 2, 4, 8, 16] {
        assert_exact(Method::BinarySwap, p, A, CodecKind::Raw);
    }
}

#[test]
fn binary_swap_fold_exact_for_any_p() {
    for p in [3, 5, 6, 7, 9, 11, 12] {
        assert_exact(Method::BinarySwapFold, p, A, CodecKind::Raw);
    }
}

#[test]
fn pipelined_exact_for_any_p() {
    for p in [1, 2, 3, 4, 5, 7, 8, 11, 16] {
        assert_exact(Method::ParallelPipelined, p, A, CodecKind::Raw);
    }
}

#[test]
fn direct_send_exact_for_any_p() {
    for p in [1, 2, 3, 5, 8, 13] {
        assert_exact(Method::DirectSend, p, A, CodecKind::Raw);
    }
}

#[test]
fn rotate_tiling_2n_exact_across_shapes() {
    for p in [1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 16] {
        for b in [2, 4, 6, 8] {
            assert_exact(rt_2n(b), p, A, CodecKind::Raw);
        }
    }
}

#[test]
fn rotate_tiling_n_exact_across_shapes() {
    for p in [2, 4, 6, 8, 10, 12, 16] {
        for b in [1, 2, 3, 5, 7] {
            assert_exact(rt_n(b), p, A, CodecKind::Raw);
        }
    }
}

#[test]
fn rotate_tiling_unchecked_exact_even_for_odd_odd() {
    // Outside the paper's admissibility rule: the bare schedule.
    for (p, b) in [(3, 3), (5, 5), (7, 3), (9, 1), (15, 7)] {
        let schedule = rotate::schedule(p, A, RtVariant::TwoN, b).unwrap();
        assert_schedule_exact(schedule, CodecKind::Raw);
    }
}

#[test]
fn all_codecs_are_transparent_for_every_method() {
    let methods: Vec<Method> = vec![
        Method::BinarySwap,
        Method::ParallelPipelined,
        Method::DirectSend,
        rt_2n(4),
        rt_n(3),
    ];
    for m in &methods {
        for codec in CodecKind::ALL {
            assert_exact(*m, 8, A, codec);
        }
    }
}

#[test]
fn indivisible_image_sizes_are_handled() {
    // A = 997 (prime): spans split unevenly everywhere.
    for m in [
        rt_2n(4),
        rt_n(3),
        Method::ParallelPipelined,
        Method::BinarySwap,
    ] {
        assert_exact(m, 8, 997, CodecKind::Trle);
    }
}

#[test]
fn more_blocks_than_pixels_still_exact() {
    // Degenerate: 8 ranks, 16 blocks, 12 pixels — empty spans appear.
    assert_exact(rt_2n(16), 8, 12, CodecKind::Raw);
}

#[test]
fn thirty_two_ranks_full_matrix_spot_check() {
    // The paper's machine size, both RT variants at their figure-6 block
    // counts plus the comparators, with TRLE.
    for m in [
        Method::BinarySwap,
        Method::ParallelPipelined,
        rt_2n(4),
        rt_n(3),
    ] {
        assert_exact(m, 32, A, CodecKind::Trle);
    }
}
