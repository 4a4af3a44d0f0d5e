//! The paper's headline claims as executable assertions over the
//! virtual-clock replay of real composition runs, plus the documented
//! deviations (see EXPERIMENTS.md for discussion).

use rotate_tiling::comm::{replay, CostModel};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::method::CompositionMethod;
use rotate_tiling::core::theory;
use rotate_tiling::core::{BinarySwap, ParallelPipelined, RotateTiling};
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::imaging::pixel::GrayAlpha8;
use rotate_tiling::imaging::{Image, Pixel};

/// A synthetic "partial image" with the sparsity profile of a rendered
/// slab: rank r's content occupies a band of the frame.
fn banded_partials(p: usize, len: usize) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|r| {
            Image::from_fn(len, 1, |x, _| {
                let band = len / p;
                // Each rank covers two adjacent bands (overlap drives real
                // compositing work).
                if x / band == r || x / band == (r + 1) % p {
                    GrayAlpha8::new((40 + 17 * (x % 11) + r * 5).min(255) as u8, 180)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

fn run_of(
    method: &dyn CompositionMethod,
    p: usize,
    len: usize,
    codec: CodecKind,
    cost: &CostModel,
) -> (f64, u64) {
    let schedule = method.build(p, len).unwrap();
    let config = ComposeConfig {
        codec,
        root: 0,
        gather: true,
        ..Default::default()
    };
    let (results, trace) = Run::new(&ComposePlan::Schedule(schedule.clone()), &config)
        .execute(banded_partials(p, len));
    for r in results {
        r.unwrap();
    }
    let report = replay(&trace, cost).unwrap();
    (
        report.phase("compose:start", "gather:end").unwrap(),
        trace.bytes_sent(),
    )
}

fn time_of(
    method: &dyn CompositionMethod,
    p: usize,
    len: usize,
    codec: CodecKind,
    cost: &CostModel,
) -> f64 {
    run_of(method, p, len, codec, cost).0
}

const A: usize = 1 << 14;

#[test]
fn rt_matches_bs_at_power_of_two_and_beats_pp_at_scale() {
    // Under the paper's cost constants at P = 32: rotate-tiling with B = 2
    // tracks binary-swap closely (same volume, same step count), and both
    // log-step methods stay close to PP whose data term dominates here.
    let cost = CostModel::PAPER_EXAMPLE;
    let bs = time_of(&BinarySwap::new(), 32, A, CodecKind::Raw, &cost);
    let rt = time_of(&RotateTiling::two_n(2), 32, A, CodecKind::Raw, &cost);
    assert!((rt - bs).abs() / bs < 0.10, "rt {rt} vs bs {bs}");

    // Under the SP2-realistic constants the startup term matters and PP's
    // P−1 steps lose to the log-step methods.
    let cost = CostModel::SP2;
    let bs = time_of(&BinarySwap::new(), 32, A, CodecKind::Raw, &cost);
    let pp = time_of(&ParallelPipelined::new(), 32, A, CodecKind::Raw, &cost);
    let rt = time_of(&RotateTiling::two_n(2), 32, A, CodecKind::Raw, &cost);
    assert!(rt < pp, "rt {rt} vs pp {pp}");
    assert!(bs < pp, "bs {bs} vs pp {pp}");
}

#[test]
fn rt_runs_where_bs_cannot() {
    // The paper's core motivation: full utilization at arbitrary P with
    // ⌈log₂P⌉ steps. The startup advantage over PP's P−1 steps appears in
    // the latency-bound regime (small frames or large P); at bulky frames
    // both are bandwidth-bound and close (see EXPERIMENTS.md).
    assert!(BinarySwap::new().build(33, A).is_err());
    let rt_schedule = RotateTiling::two_n(4).build(33, A).unwrap();
    let pp_schedule = ParallelPipelined::new().build(33, A).unwrap();
    // The structural claim: ⌈log₂33⌉ = 6 steps instead of 32.
    assert_eq!(rt_schedule.step_count(), 6);
    assert_eq!(pp_schedule.step_count(), 32);
    // In a strongly latency-bound regime (tiny frame, 10× the SP2 latency)
    // the log-step schedule wins outright; in the bandwidth-bound regime
    // the perfectly regular ring is near-optimal and RT stays within 2×.
    let latency_bound = CostModel::new(4e-4, CostModel::SP2.tp, CostModel::SP2.to);
    let small = 2048;
    let rt = time_of(
        &RotateTiling::two_n(4),
        33,
        small,
        CodecKind::Raw,
        &latency_bound,
    );
    let pp = time_of(
        &ParallelPipelined::new(),
        33,
        small,
        CodecKind::Raw,
        &latency_bound,
    );
    assert!(rt < pp, "rt {rt} vs pp {pp}");
    let cost = CostModel::SP2;
    let rt_big = time_of(&RotateTiling::two_n(4), 33, A, CodecKind::Raw, &cost);
    let pp_big = time_of(&ParallelPipelined::new(), 33, A, CodecKind::Raw, &cost);
    assert!(rt_big < 2.0 * pp_big, "rt {rt_big} vs pp {pp_big}");
}

#[test]
fn trle_reduces_composition_time_for_every_method() {
    // The paper's Figure 8 claim, on sparse banded partials.
    let cost = CostModel::PAPER_EXAMPLE;
    let methods: Vec<Box<dyn CompositionMethod>> = vec![
        Box::new(BinarySwap::new()),
        Box::new(ParallelPipelined::new()),
        Box::new(RotateTiling::two_n(4)),
        Box::new(RotateTiling::n(3)),
    ];
    for m in &methods {
        let (raw, _) = run_of(m.as_ref(), 16, A, CodecKind::Raw, &cost);
        let (rle, rle_bytes) = run_of(m.as_ref(), 16, A, CodecKind::Rle, &cost);
        let (trle, trle_bytes) = run_of(m.as_ref(), 16, A, CodecKind::Trle, &cost);
        assert!(trle < raw, "{}: trle {trle} vs raw {raw}", m.name());
        assert!(rle < raw, "{}: rle {rle} vs raw {raw}", m.name());
        // The paper's Figure 8 also finds TRLE ahead of RLE. On these
        // synthetic bands (hard-edged, fully saturated) the two codecs are
        // within a couple of percent of each other; TRLE's clear win on
        // *gray-gradient* rendered frames is asserted by the harness tests
        // and shown by the fig7/fig8 binaries.
        assert!(
            trle_bytes as f64 <= rle_bytes as f64 * 1.02,
            "{}: trle {trle_bytes}B vs rle {rle_bytes}B",
            m.name()
        );
        assert!(trle <= rle * 1.02, "{}: trle {trle} vs rle {rle}", m.name());
    }
}

#[test]
fn block_count_sweep_has_small_optimum() {
    // The simulated analog of Figure 5: growing B raises the startup term
    // without reducing data, so the measured optimum sits at a small block
    // count (2 in our schedule; 3–4 in the paper's).
    let cost = CostModel::SP2;
    let times: Vec<(usize, f64)> = [2usize, 4, 8, 12]
        .into_iter()
        .map(|b| {
            (
                b,
                time_of(&RotateTiling::two_n(b), 32, A, CodecKind::Raw, &cost),
            )
        })
        .collect();
    let best = times
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0;
    assert!(best <= 4, "optimum at B = {best}: {times:?}");
    // And the curve rises at the large end.
    assert!(times.last().unwrap().1 > times[0].1, "{times:?}");
}

#[test]
fn theory_module_reproduces_paper_orderings() {
    let params = theory::TheoryParams::paper_example();
    // Figure 6's theoretical ordering at the paper's constants.
    let bs = theory::binary_swap_cost(&params).total();
    let pp = theory::pipelined_cost(&params).total();
    let rt4 = theory::rt_2n_cost(&params, 4).total();
    assert!(rt4 < bs && bs < pp);
    // Figure 5's theoretical optima.
    assert_eq!(theory::optimal_blocks_2n(&params, 12), 4);
    assert!((3..=5).contains(&theory::optimal_blocks_n(&params, 12)));
}

#[test]
fn gather_cost_is_visible_in_the_replay() {
    let cost = CostModel::PAPER_EXAMPLE;
    let schedule = RotateTiling::two_n(4).build(8, A).unwrap();
    let (results, trace) = Run::new(
        &ComposePlan::Schedule(schedule.clone()),
        &ComposeConfig {
            codec: CodecKind::Raw,
            root: 0,
            gather: true,
            ..Default::default()
        },
    )
    .execute(banded_partials(8, A));
    for r in results {
        r.unwrap();
    }
    let report = replay(&trace, &cost).unwrap();
    let compose = report.phase("compose:start", "compose:end").unwrap();
    let total = report.phase("compose:start", "gather:end").unwrap();
    assert!(
        total > compose,
        "gather must add time: {total} vs {compose}"
    );
}
