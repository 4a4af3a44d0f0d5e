//! Property tests for the approximate puzzlepiece method and the
//! `rt-quality` metrics that police it.
//!
//! The puzzle method's contract has two halves, and each gets its own
//! property here:
//!
//! 1. **Where approximation is not allowed, it must not happen.** For
//!    randomly drawn fully depth-disjoint content — no pixel painted by
//!    two ranks — the composed frame must be **byte-identical** to the
//!    sequential reference fold at *every* budget, over both the
//!    in-process and TCP-loopback transports.
//! 2. **Where it is allowed, it is bounded.** For randomly drawn
//!    genuinely overlapping translucent content, budget 0 must still be
//!    byte-identical; a lossy budget must stay inside the declared
//!    [`Tolerance`], must be byte-identical at every pixel with at most
//!    one contributor, and its error must be *detected* by the metrics
//!    (a frame that differs may not score SSIM 1 / infinite PSNR).
//!
//! The metric layer itself is pinned the same way: identical frames score
//! the metric maxima, a single-pixel delta is measured exactly, and all
//! three metrics move monotonically as injected error grows.

use proptest::prelude::*;
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, TransportKind};
use rotate_tiling::core::method::Method;
use rotate_tiling::core::Run;
use rotate_tiling::imaging::image::reference_composite;
use rotate_tiling::imaging::pixel::{GrayAlpha8, Pixel};
use rotate_tiling::imaging::Image;
use rotate_tiling::quality::{
    assert_within_tolerance, compare, max_abs_error, psnr_db, ssim, Tolerance,
};

const FRAME: usize = 48;

/// Deterministic tiny PRNG so content derives from a proptest seed.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Fully depth-disjoint content: every row of the frame is painted by
/// exactly one (seed-chosen) rank, blank rows allowed.
fn disjoint_partials(p: usize, seed: u64) -> Vec<Image<GrayAlpha8>> {
    let mut state = seed.wrapping_add(1);
    let owner_of_row: Vec<Option<usize>> = (0..FRAME)
        .map(|_| {
            let pick = next(&mut state) as usize % (p + 1);
            (pick < p).then_some(pick)
        })
        .collect();
    (0..p)
        .map(|r| {
            Image::from_fn(FRAME, FRAME, |x, y| {
                if owner_of_row[y] == Some(r) {
                    GrayAlpha8::new(((x * 5 + y * 3 + r * 11) % 200) as u8, 220)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

/// Translucent vertical bands whose depth-adjacent pairs share a thin
/// fringe of true overlap. Alpha ≤ 140 bounds the contribution the
/// nearest-wins placement can drop, so the declared tolerance below is
/// provable, not aspirational.
fn overlapping_partials(p: usize, fringe: usize, seed: u64) -> Vec<Image<GrayAlpha8>> {
    let mut state = seed.wrapping_add(3);
    let jitter = next(&mut state) as usize % 7;
    (0..p)
        .map(|r| {
            let lo = r * FRAME / p;
            let hi = ((r + 1) * FRAME / p + fringe).min(FRAME);
            Image::from_fn(FRAME, FRAME, |x, y| {
                if x >= lo && x < hi {
                    GrayAlpha8::new(((x * 3 + y * 7 + r * 13 + jitter) % 120) as u8, 140)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

fn compose_puzzle_frame(
    partials: &[Image<GrayAlpha8>],
    grid: usize,
    budget: u16,
    codec: CodecKind,
    transport: TransportKind,
) -> Image<GrayAlpha8> {
    let p = partials.len();
    let method = Method::Puzzle {
        tiles_x: grid,
        tiles_y: grid,
        budget_permille: budget,
    };
    let plan = method.plan(p, FRAME, FRAME).unwrap();
    plan.verify().unwrap();
    let config = ComposeConfig::default()
        .with_codec(codec)
        .with_transport(transport);
    let (outputs, _) = Run::new(&plan, &config).execute(partials.to_vec());
    outputs
        .into_iter()
        .filter_map(|r| r.unwrap().frame)
        .next()
        .expect("root produced a frame")
}

fn codec_from(ix: usize) -> CodecKind {
    [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle][ix % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    // Contract half 1: depth-disjoint content is byte-identical to the
    // reference fold at every budget — approximation must never trigger
    // without true overlap.
    #[test]
    fn disjoint_content_is_byte_identical_at_any_budget(
        p in 2usize..=6,
        seed in 0u64..1_000_000,
        budget in 0u16..=1000,
        codec_ix in 0usize..3,
        grid_ix in 0usize..3,
    ) {
        let grid = [4usize, 8, 16][grid_ix];
        let partials = disjoint_partials(p, seed);
        let reference = reference_composite(&partials).unwrap();
        let frame = compose_puzzle_frame(
            &partials, grid, budget, codec_from(codec_ix), TransportKind::InProc,
        );
        prop_assert_eq!(frame.pixels(), reference.pixels());
    }

    // Contract half 2: with true overlap, budget 0 stays byte-identical;
    // a lossy budget stays inside the declared tolerance, is exact at
    // every pixel with ≤ 1 contributor, and any deviation is seen by the
    // metrics.
    #[test]
    fn overlapping_content_stays_within_declared_tolerance(
        p in 2usize..=6,
        seed in 0u64..1_000_000,
        fringe in 1usize..=4,
        budget in 200u16..=1000,
        codec_ix in 0usize..3,
    ) {
        let partials = overlapping_partials(p, fringe, seed);
        let reference = reference_composite(&partials).unwrap();

        let exact = compose_puzzle_frame(
            &partials, 8, 0, codec_from(codec_ix), TransportKind::InProc,
        );
        prop_assert_eq!(exact.pixels(), reference.pixels());

        let approx = compose_puzzle_frame(
            &partials, 8, budget, codec_from(codec_ix), TransportKind::InProc,
        );
        // Alpha 140 caps the dropped back-contribution at
        // (1 − 140/255)·140 < 64 per channel, and the fringe covers at
        // most (p−1)·4 of 48 columns, so MSE ≤ (20/48)·63² ⇒ PSNR ≥
        // 15.9 dB. SSIM has no such closed-form floor on a 48-pixel
        // frame where nearly half the windows straddle a fringe
        // (observed ≥ 0.55); the sharp guarantees here are the
        // pointwise ones below, not the global bound.
        let tolerance = Tolerance::lossy(96, 15.0, 0.4);
        let report = assert_within_tolerance(&approx, &reference, &tolerance).unwrap();

        // Pixels with at most one contributor are placed, never blended:
        // byte-identity holds pointwise outside the overlap mask.
        for (i, (got, want)) in approx.pixels().iter().zip(reference.pixels()).enumerate() {
            let contributors = partials
                .iter()
                .filter(|img| !img.pixels()[i].is_blank())
                .count();
            if contributors <= 1 {
                prop_assert_eq!(got, want, "pixel {} has {} contributors", i, contributors);
            }
        }

        // Any deviation must be *measured*: exactness and metric maxima
        // agree with byte-level truth.
        let identical = approx.pixels() == reference.pixels();
        prop_assert_eq!(report.is_exact(), identical);
        if !identical {
            prop_assert!(report.psnr_db.is_finite());
            prop_assert!(report.ssim < 1.0);
        }
    }

    // Metric pins: identical frames score every metric's maximum.
    #[test]
    fn identical_frames_score_metric_maxima(p in 2usize..=6, seed in 0u64..1_000_000) {
        let frame = &disjoint_partials(p, seed)[0];
        prop_assert_eq!(max_abs_error(frame, frame).unwrap(), 0);
        prop_assert!(psnr_db(frame, frame).unwrap().is_infinite());
        prop_assert_eq!(ssim(frame, frame).unwrap(), 1.0);
        prop_assert!(compare(frame, frame).unwrap().is_exact());
    }

    // Metric pins: a single-pixel delta is measured exactly.
    #[test]
    fn single_pixel_delta_is_measured_exactly(
        x in 0usize..FRAME,
        y in 0usize..FRAME,
        delta in 1u8..=55,
        seed in 0u64..1_000_000,
    ) {
        let a = Image::from_fn(FRAME, FRAME, |px, py| {
            GrayAlpha8::new(((px * 7 + py * 5 + seed as usize) % 200) as u8, 220)
        });
        let mut b = a.clone();
        let v = a.get(x, y).v;
        b.set(x, y, GrayAlpha8::new(v + delta, 220));
        prop_assert_eq!(max_abs_error(&a, &b).unwrap(), delta);
        prop_assert!(psnr_db(&a, &b).unwrap().is_finite());
        prop_assert!(ssim(&a, &b).unwrap() < 1.0);
    }

    // Monotonicity: growing injected error must strictly lower PSNR,
    // strictly raise max-abs-error, and never raise SSIM.
    #[test]
    fn metrics_are_monotone_in_injected_error(
        seed in 0u64..1_000_000,
        stride in 2usize..=5,
    ) {
        let a = Image::from_fn(FRAME, FRAME, |px, py| {
            GrayAlpha8::new(((px * 3 + py * 11 + seed as usize) % 150) as u8, 200)
        });
        let mut last_psnr = f64::INFINITY;
        let mut last_ssim = 1.0f64;
        let mut last_max = 0u8;
        for amp in [5u8, 20, 60] {
            let b = Image::from_fn(FRAME, FRAME, |px, py| {
                let q = *a.get(px, py);
                if (px + py) % stride == 0 {
                    GrayAlpha8::new(q.v + amp, q.a)
                } else {
                    q
                }
            });
            let psnr = psnr_db(&a, &b).unwrap();
            let s = ssim(&a, &b).unwrap();
            let m = max_abs_error(&a, &b).unwrap();
            prop_assert!(psnr < last_psnr, "PSNR rose: {} -> {}", last_psnr, psnr);
            prop_assert!(s <= last_ssim, "SSIM rose: {} -> {}", last_ssim, s);
            prop_assert!(m > last_max, "max-abs fell: {} -> {}", last_max, m);
            last_psnr = psnr;
            last_ssim = s;
            last_max = m;
        }
    }
}

/// The disjoint byte-identity contract must survive a real socket
/// round-trip: same property as the in-process proptest, pinned shapes,
/// over TCP loopback.
#[test]
fn disjoint_content_is_byte_identical_over_tcp_loopback() {
    for (p, budget, codec) in [
        (3usize, 0u16, CodecKind::Raw),
        (4, 500, CodecKind::Trle),
        (5, 1000, CodecKind::Rle),
    ] {
        let partials = disjoint_partials(p, 42 + p as u64);
        let reference = reference_composite(&partials).unwrap();
        let frame = compose_puzzle_frame(&partials, 8, budget, codec, TransportKind::TcpLoopback);
        assert_eq!(
            frame.pixels(),
            reference.pixels(),
            "p={p} b={budget} {codec:?} diverged over tcp-loopback"
        );
    }
}

/// A lossy puzzle frame must be deterministic: same content, same plan,
/// same bytes — on both transports. (Approximation changes the answer,
/// never the reproducibility.)
#[test]
fn approximate_frames_are_deterministic_across_transports() {
    let partials = overlapping_partials(5, 3, 7);
    let a = compose_puzzle_frame(&partials, 8, 600, CodecKind::Trle, TransportKind::InProc);
    let b = compose_puzzle_frame(&partials, 8, 600, CodecKind::Trle, TransportKind::InProc);
    let c = compose_puzzle_frame(
        &partials,
        8,
        600,
        CodecKind::Trle,
        TransportKind::TcpLoopback,
    );
    assert_eq!(a.pixels(), b.pixels());
    assert_eq!(a.pixels(), c.pixels());
}
