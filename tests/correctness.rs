//! Cross-crate correctness matrix: every composition method, over the real
//! threaded multicomputer, with every codec, proven exact with the
//! `Provenance` pixel — which poisons on any out-of-order or duplicated
//! `over` merge, so a passing test is a machine-checked proof that each
//! final pixel composited every rank's contribution exactly once in depth
//! order.

use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::method::CompositionMethod;
use rotate_tiling::core::schedule::verify_schedule;
use rotate_tiling::core::{BinarySwap, DirectSend, ParallelPipelined, RotateTiling};
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::imaging::{Image, Provenance};

const A: usize = 1920; // divisible by many block counts, with remainders elsewhere

fn partials(p: usize, len: usize) -> Vec<Image<Provenance>> {
    (0..p)
        .map(|r| Image::from_fn(len, 1, |_, _| Provenance::rank(r as u16)))
        .collect()
}

fn assert_exact(method: &dyn CompositionMethod, p: usize, len: usize, codec: CodecKind) {
    let schedule = method
        .build(p, len)
        .unwrap_or_else(|e| panic!("{} p={p}: {e}", method.name()));
    verify_schedule(&schedule).unwrap_or_else(|e| panic!("{} p={p}: {e}", method.name()));
    let config = ComposeConfig {
        codec,
        root: p / 2, // non-default root
        gather: true,
        ..Default::default()
    };
    let (results, _) =
        Run::new(&ComposePlan::Schedule(schedule.clone()), &config).execute(partials(p, len));
    let mut frames = 0;
    for r in results {
        let out = r.unwrap_or_else(|e| panic!("{} p={p}: {e}", method.name()));
        if let Some(frame) = out.frame {
            frames += 1;
            assert!(
                frame
                    .pixels()
                    .iter()
                    .all(|px| *px == Provenance::complete(p as u16)),
                "{} p={p} codec={codec:?}: incomplete or out-of-order composite",
                method.name()
            );
        }
    }
    assert_eq!(frames, 1, "exactly the root returns a frame");
}

#[test]
fn binary_swap_exact_for_powers_of_two() {
    for p in [1, 2, 4, 8, 16] {
        assert_exact(&BinarySwap::new(), p, A, CodecKind::Raw);
    }
}

#[test]
fn binary_swap_fold_exact_for_any_p() {
    for p in [3, 5, 6, 7, 9, 11, 12] {
        assert_exact(&BinarySwap::with_fold(), p, A, CodecKind::Raw);
    }
}

#[test]
fn pipelined_exact_for_any_p() {
    for p in [1, 2, 3, 4, 5, 7, 8, 11, 16] {
        assert_exact(&ParallelPipelined::new(), p, A, CodecKind::Raw);
    }
}

#[test]
fn direct_send_exact_for_any_p() {
    for p in [1, 2, 3, 5, 8, 13] {
        assert_exact(&DirectSend::new(), p, A, CodecKind::Raw);
    }
}

#[test]
fn rotate_tiling_2n_exact_across_shapes() {
    for p in [1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 16] {
        for b in [2, 4, 6, 8] {
            assert_exact(&RotateTiling::two_n(b), p, A, CodecKind::Raw);
        }
    }
}

#[test]
fn rotate_tiling_n_exact_across_shapes() {
    for p in [2, 4, 6, 8, 10, 12, 16] {
        for b in [1, 2, 3, 5, 7] {
            assert_exact(&RotateTiling::n(b), p, A, CodecKind::Raw);
        }
    }
}

#[test]
fn rotate_tiling_unchecked_exact_even_for_odd_odd() {
    for (p, b) in [(3, 3), (5, 5), (7, 3), (9, 1), (15, 7)] {
        assert_exact(&RotateTiling::unchecked(b), p, A, CodecKind::Raw);
    }
}

#[test]
fn all_codecs_are_transparent_for_every_method() {
    let methods: Vec<Box<dyn CompositionMethod>> = vec![
        Box::new(BinarySwap::new()),
        Box::new(ParallelPipelined::new()),
        Box::new(DirectSend::new()),
        Box::new(RotateTiling::two_n(4)),
        Box::new(RotateTiling::n(3)),
    ];
    for m in &methods {
        for codec in CodecKind::ALL {
            assert_exact(m.as_ref(), 8, A, codec);
        }
    }
}

#[test]
fn indivisible_image_sizes_are_handled() {
    // A = 997 (prime): spans split unevenly everywhere.
    for m in [
        Box::new(RotateTiling::two_n(4)) as Box<dyn CompositionMethod>,
        Box::new(RotateTiling::n(3)),
        Box::new(ParallelPipelined::new()),
        Box::new(BinarySwap::new()),
    ] {
        assert_exact(m.as_ref(), 8, 997, CodecKind::Trle);
    }
}

#[test]
fn more_blocks_than_pixels_still_exact() {
    // Degenerate: 8 ranks, 16 blocks, 12 pixels — empty spans appear.
    assert_exact(&RotateTiling::two_n(16), 8, 12, CodecKind::Raw);
}

#[test]
fn thirty_two_ranks_full_matrix_spot_check() {
    // The paper's machine size, both RT variants at their figure-6 block
    // counts plus the comparators, with TRLE.
    for m in [
        Box::new(BinarySwap::new()) as Box<dyn CompositionMethod>,
        Box::new(ParallelPipelined::new()),
        Box::new(RotateTiling::two_n(4)),
        Box::new(RotateTiling::n(3)),
    ] {
        assert_exact(m.as_ref(), 32, A, CodecKind::Trle);
    }
}
