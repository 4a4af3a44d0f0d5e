//! Cross-validation of the two costing machineries: the *static* schedule
//! analyzer (`rt_core::analysis`) must agree exactly with the
//! *virtual-clock replay* of a real threaded execution, for every method,
//! for raw-codec runs (compression makes message sizes content-dependent,
//! which a static analyzer cannot know). Exact agreement here means the
//! executor does precisely what the schedule says and the replay prices
//! precisely what the executor did.

use rotate_tiling::comm::{replay, CostModel};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::analysis::analyze;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::hier::IntraMethod;
use rotate_tiling::core::method::{CompositionMethod, Method};
use rotate_tiling::core::{BinarySwap, DirectSend, ParallelPipelined, RotateTiling};
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::imaging::pixel::{GrayAlpha8, Pixel};
use rotate_tiling::imaging::Image;

fn partials(p: usize, len: usize) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|r| {
            Image::from_fn(len, 1, |x, _| {
                GrayAlpha8::new(((x * 7 + r * 13) % 251) as u8, 200)
            })
        })
        .collect()
}

/// Build, analyze, execute and replay `method`; returns the predicted and
/// the replayed makespan including the gather.
fn check(method: &dyn CompositionMethod, p: usize, len: usize, cost: &CostModel) -> (f64, f64) {
    let schedule = method.build(p, len).unwrap();
    let predicted = analyze(&schedule, cost, GrayAlpha8::BYTES);

    let config = ComposeConfig {
        codec: CodecKind::Raw,
        root: 0,
        gather: true,
        ..Default::default()
    };
    let (results, trace) =
        Run::new(&ComposePlan::Schedule(schedule.clone()), &config).execute(partials(p, len));
    for r in results {
        r.unwrap();
    }
    let report = replay(&trace, cost).unwrap();
    let measured = report.phase("compose:start", "compose:end").unwrap();
    let measured_total = report.phase("compose:start", "gather:end").unwrap();

    let tol = 1e-9 * (1.0 + predicted.makespan.abs());
    assert!(
        (predicted.makespan - measured).abs() < tol,
        "{} p={p}: static {} vs replay {}",
        method.name(),
        predicted.makespan,
        measured
    );
    assert!(
        (predicted.makespan_with_gather - measured_total).abs() < tol,
        "{} p={p}: static+g {} vs replay {}",
        method.name(),
        predicted.makespan_with_gather,
        measured_total
    );
    assert_eq!(
        predicted.messages as u64 + gather_messages(&schedule),
        trace.message_count()
    );
    (predicted.makespan_with_gather, report.makespan)
}

fn gather_messages(schedule: &rotate_tiling::core::Schedule) -> u64 {
    let owned = schedule.owned_pixels();
    owned
        .iter()
        .enumerate()
        .filter(|(r, px)| *r != 0 && **px > 0)
        .count() as u64
}

#[test]
fn analyzer_matches_replay_for_every_method() {
    let cost = CostModel::PAPER_EXAMPLE;
    let methods: Vec<Box<dyn CompositionMethod>> = vec![
        Box::new(BinarySwap::new()),
        Box::new(ParallelPipelined::new()),
        Box::new(DirectSend::new()),
        Box::new(RotateTiling::two_n(4)),
        Box::new(RotateTiling::two_n(2)),
        Box::new(RotateTiling::n(3)),
    ];
    for m in &methods {
        check(m.as_ref(), 8, 4096, &cost);
    }
}

#[test]
fn analyzer_matches_replay_across_shapes() {
    let cost = CostModel::SP2;
    for p in [2usize, 3, 5, 8, 12, 16] {
        check(&RotateTiling::two_n(4), p, 3000, &cost);
        check(&ParallelPipelined::new(), p, 3000, &cost);
        if p.is_power_of_two() {
            check(&BinarySwap::new(), p, 3000, &cost);
        } else {
            check(&BinarySwap::with_fold(), p, 3000, &cost);
        }
    }
}

#[test]
fn analyzer_matches_replay_at_paper_scale() {
    // The paper's configuration: P = 32, A = 512² (pixels shrunk 4× to
    // keep the threaded run fast; the equality is exact at any size).
    let cost = CostModel::PAPER_EXAMPLE;
    for m in [
        Box::new(BinarySwap::new()) as Box<dyn CompositionMethod>,
        Box::new(RotateTiling::two_n(4)),
        Box::new(RotateTiling::n(3)),
    ] {
        check(m.as_ref(), 32, 256 * 256, &cost);
    }
}

#[test]
fn analyzer_matches_replay_to_the_bit_for_hierarchical_schedules() {
    // A two-level plan is one schedule, so the analyzer prices it like a
    // flat one — placements (a receive, no `over`) and the mid-schedule
    // flush included — and the tolerance-free comparison holds.
    let cost = CostModel::new(4e-5, 2.9e-8, 1e-9).with_tr(4e-5);
    for (p, k, intra) in [
        (16, 4, IntraMethod::BinarySwap),
        (12, 4, IntraMethod::DirectSend),
        (10, 4, IntraMethod::BinarySwapFold), // k ∤ P: last group of 2
        (7, 3, IntraMethod::ParallelPipelined), // k ∤ P: last group of 1
        (9, 2, IntraMethod::DirectSend),      // k ∤ P: five leaders
    ] {
        let method = Method::Hier { k, intra };
        let (predicted, replayed) = check(&method, p, 3000, &cost);
        assert_eq!(
            predicted.to_bits(),
            replayed.to_bits(),
            "{}: static {predicted} vs replay {replayed}",
            method.name()
        );
    }
}

#[test]
fn analyzer_enables_cheap_block_sweeps() {
    // The point of the analyzer: sweep the design space without threads.
    // Sanity: the sweep's qualitative findings match EXPERIMENTS.md —
    // B = 1 is markedly worse, larger B raises latency depth linearly.
    let cost = CostModel::SP2;
    let costs: Vec<_> = (1..=12)
        .map(|b| {
            analyze(
                &RotateTiling::unchecked(b).build(32, 512 * 512).unwrap(),
                &cost,
                2,
            )
        })
        .collect();
    assert!(costs[0].makespan > 1.5 * costs[1].makespan); // B=1 vs B=2
    assert!(costs[11].latency_depth > costs[1].latency_depth);
}

#[test]
fn analyzer_matches_replay_with_receiver_overhead() {
    // LogGP-style receiver overhead is charged identically by both
    // machineries.
    let cost = CostModel::new(1e-3, 1e-7, 1e-8).with_tr(5e-4);
    check(&RotateTiling::two_n(4), 7, 2048, &cost);
    check(&ParallelPipelined::new(), 7, 2048, &cost);
    check(&BinarySwap::new(), 8, 2048, &cost);
}
