//! The static analyzer against executed runs. `rt_core::analysis` prices a
//! schedule by replaying the trace it compiles to (`schedule_trace`); an
//! executed raw-codec run records a trace too. The two must be the same
//! data, event for event — marks, tags, sequence numbers, byte counts,
//! `over` charges — for every schedule family, hierarchical intras and rank
//! permutations included. That equality says the executor does exactly
//! what the schedule says; the prices then agree bit for bit because one
//! replay prices both, which is asserted too.

use rotate_tiling::comm::{replay, CostModel, Event, Trace};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::analysis::{analyze, schedule_trace};
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::hier::IntraMethod;
use rotate_tiling::core::method::Method;
use rotate_tiling::core::rotate::{self, RtVariant};
use rotate_tiling::core::{ComposePlan, CoreError, Run, Schedule};
use rotate_tiling::imaging::pixel::{GrayAlpha8, Pixel};
use rotate_tiling::imaging::Image;

/// The presets plus a model where every wire and receive term is non-zero.
fn costs() -> [CostModel; 3] {
    [
        CostModel::PAPER_EXAMPLE,
        CostModel::SP2,
        CostModel::new(4e-5, 2.9e-8, 1e-9).with_tr(4e-5),
    ]
}

fn partials(p: usize, len: usize) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|r| {
            Image::from_fn(len, 1, |x, _| {
                GrayAlpha8::new(((x * 7 + r * 13) % 251) as u8, 200)
            })
        })
        .collect()
}

/// The trace of a fault-free raw-codec run of `schedule`, gathered to rank 0.
fn executed(schedule: &Schedule) -> Trace {
    let config = ComposeConfig {
        codec: CodecKind::Raw,
        root: 0,
        ..Default::default()
    };
    let plan = ComposePlan::Schedule(schedule.clone());
    let partials = partials(schedule.p, schedule.image_len);
    let (results, trace) = Run::new(&plan, &config).execute(partials);
    for (rank, r) in results.into_iter().enumerate() {
        r.unwrap_or_else(|e| panic!("{} rank {rank}: {e}", schedule.method));
    }
    trace
}

/// Where two traces first part, for a legible failure.
fn first_difference(a: &Trace, b: &Trace) -> Option<String> {
    if a.size() != b.size() {
        return Some(format!("{} ranks vs {}", a.size(), b.size()));
    }
    let show = |e: Option<&Event>| e.map_or("end of history".into(), |e| format!("{e:?}"));
    a.ranks
        .iter()
        .zip(&b.ranks)
        .enumerate()
        .find_map(|(rank, (x, y))| {
            let at = (0..x.len().max(y.len())).find(|&i| x.get(i) != y.get(i))?;
            Some(format!(
                "rank {rank} event {at}: compiled {} vs executed {}",
                show(x.get(at)),
                show(y.get(at))
            ))
        })
}

/// The compiled trace is the executed one, and `analyze` prices it as the
/// replay prices the run, to the bit, under every cost model.
fn check(schedule: &Schedule) {
    let compiled = schedule_trace(schedule, GrayAlpha8::BYTES);
    let trace = executed(schedule);
    if let Some(diff) = first_difference(&compiled, &trace) {
        panic!("{} P={}: {diff}", schedule.method, schedule.p);
    }
    for cost in &costs() {
        let predicted = analyze(schedule, cost, GrayAlpha8::BYTES);
        let report = replay(&trace, cost).unwrap();
        for (what, predicted, end) in [
            ("compose", predicted.makespan, "compose:end"),
            ("with gather", predicted.makespan_with_gather, "gather:end"),
        ] {
            let replayed = report.phase("compose:start", end).unwrap();
            assert_eq!(
                predicted.to_bits(),
                replayed.to_bits(),
                "{} P={} {what}: analyze {predicted} vs replay {replayed}",
                schedule.method,
                schedule.p
            );
        }
    }
}

/// `schedule` as built, and relabeled onto physical ranks by a reflection
/// (depth `d` on rank `(p/2 + p − d) mod p`), the way rt-pvr permutes a
/// schedule for a camera.
fn check_with_permutation(schedule: &Schedule) {
    check(schedule);
    let p = schedule.p;
    let rank_of_depth: Vec<usize> = (0..p).map(|d| (p / 2 + p - d) % p).collect();
    check(&schedule.permute(&rank_of_depth).unwrap());
}

/// Build `method` at `(p, len)`, or `None` where it does not apply.
fn build(method: &Method, p: usize, len: usize) -> Option<Schedule> {
    match method.build(p, len) {
        Ok(s) => Some(s),
        Err(CoreError::UnsupportedShape { .. }) => None,
        Err(e) => panic!("{}: {e}", method.name()),
    }
}

/// Every flat family: the paper's four, direct-send and binary-swap's fold.
fn flat_methods() -> [Method; 7] {
    [
        Method::ParallelPipelined,
        Method::DirectSend,
        Method::BinarySwap,
        Method::BinarySwapFold,
        Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 2,
        },
        Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        },
        Method::RotateTiling {
            variant: RtVariant::N,
            blocks: 3,
        },
    ]
}

#[test]
fn analyzer_matches_replay_for_every_method() {
    for method in &flat_methods() {
        check(&method.build(8, 4096).unwrap());
    }
}

#[test]
fn analyzer_matches_replay_across_shapes() {
    let mut checked = 0;
    for p in 2..=16usize {
        for method in &flat_methods() {
            if let Some(s) = build(method, p, 600) {
                check_with_permutation(&s);
                checked += 1;
            }
        }
    }
    assert!(checked >= 80, "only {checked} flat schedules built");
}

#[test]
fn analyzer_matches_replay_at_paper_scale() {
    // The paper's configuration: P = 32, A = 512² (pixels shrunk 4× to
    // keep the threaded run fast; the equality is exact at any size).
    for method in [&flat_methods()[2], &flat_methods()[5], &flat_methods()[6]] {
        check(&method.build(32, 256 * 256).unwrap());
    }
}

#[test]
fn analyzer_matches_replay_to_the_bit_for_hierarchical_schedules() {
    // Placements (a receive, no `over`), mid-schedule flushes and ragged
    // last groups (k ∤ P: a group of 1, 2 or 3 at P = 7 and 9) compile like
    // a flat schedule's transfers.
    let intras = [
        IntraMethod::BinarySwap,
        IntraMethod::BinarySwapFold,
        IntraMethod::ParallelPipelined,
        IntraMethod::DirectSend,
        IntraMethod::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        },
        IntraMethod::RotateTiling {
            variant: RtVariant::N,
            blocks: 3,
        },
    ];
    let mut checked = 0;
    for p in [4usize, 7, 9, 12, 16] {
        for k in [2usize, 3, 4] {
            for intra in intras {
                if let Some(s) = build(&Method::Hier { k, intra }, p, 600) {
                    check_with_permutation(&s);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 75, "only {checked} hierarchical schedules built");
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
                &rotate::schedule(32, 512 * 512, RtVariant::TwoN, b).unwrap(),
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
    // LogGP-style receiver overhead: charged once per compiled receive,
    // the gather's serialized receives at the root included.
    let tr = 5e-4;
    let schedule = Method::ParallelPipelined.build(7, 2048).unwrap();
    check(&schedule);
    let with = analyze(&schedule, &CostModel::new(1e-3, 1e-7, 1e-8).with_tr(tr), 2);
    let without = analyze(&schedule, &CostModel::new(1e-3, 1e-7, 1e-8), 2);
    assert!(with.makespan_with_gather >= without.makespan_with_gather + 6.0 * tr);
}
