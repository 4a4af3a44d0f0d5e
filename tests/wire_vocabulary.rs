//! The mark vocabulary is exercised whole: the executors, the serial
//! pipeline and the stream between them emit every kind of [`Mark`], and
//! each prints a label that parses back to it — so the marks stored in
//! traces and the labels their JSON and the golden digests carry are one
//! vocabulary.

use rotate_tiling::comm::{Event, FaultPlan, Mark, Trace};
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::hier::IntraMethod;
use rotate_tiling::core::method::Method;
use rotate_tiling::core::rotate::RtVariant;
use rotate_tiling::core::Run;
use rotate_tiling::imaging::synth::band_partials;
use rotate_tiling::pvr::pipeline::{FrameRun, PipelineConfig};
use rotate_tiling::pvr::stream::{StreamConfig, StreamSession};
use rotate_tiling::pvr::OrbitConfig;
use std::collections::BTreeSet;

fn marks_of(trace: &Trace, into: &mut BTreeSet<Mark>) {
    for event in trace.ranks.iter().flatten() {
        if let Event::Mark { label } = event {
            into.insert(*label);
        }
    }
}

#[test]
fn every_emitted_label_is_a_named_mark_and_round_trips() {
    let (p, w, h) = (8, 32, 32);
    let rotate = Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    };
    let mut marks = BTreeSet::new();

    // One traced run per plan family, each with a rank crashing mid-frame
    // so the failure marks are on the record too.
    for method in [
        rotate,
        Method::TileOwner {
            tiles_x: 4,
            tiles_y: 4,
        },
        Method::Puzzle {
            tiles_x: 4,
            tiles_y: 4,
            budget_permille: 100,
        },
        Method::Hier {
            k: 4,
            intra: IntraMethod::DirectSend,
        },
    ] {
        let plan = method.plan(p, w, h).unwrap();
        let (results, trace) = Run::new(&plan, &ComposeConfig::default().resilient(true))
            .faults(FaultPlan::none().crash_rank_at_step(5, 1))
            .execute(band_partials(p, w, h));
        for result in results {
            result.expect("a planned crash degrades, it does not fail");
        }
        marks_of(&trace, &mut marks);
    }

    // The serial pipeline and the stream.
    let base = PipelineConfig::small(rotate);
    marks_of(
        &FrameRun::new(4, &base).execute().unwrap().trace,
        &mut marks,
    );
    let frames = StreamSession::new(4)
        .collect_orbit(&StreamConfig::new(base), &OrbitConfig::quarter(2))
        .unwrap();
    for frame in &frames {
        marks_of(&frame.trace, &mut marks);
    }

    for mark in &marks {
        let label = mark.to_string();
        assert_eq!(label.parse(), Ok(*mark), "`{label}` does not parse back");
    }
    // The runs above exercise the whole vocabulary.
    for expected in [
        Mark::ComposeStart,
        Mark::Step(0),
        Mark::Step(2),
        Mark::FlushStart,
        Mark::ComposeEnd,
        Mark::ComposeCrashed,
        Mark::RepairStart,
        Mark::RepairEnd,
        Mark::GatherEnd,
        Mark::RenderStart,
        Mark::RenderEnd,
        Mark::WarpEnd,
        Mark::FrameStart(0),
        Mark::FrameEnd(1),
    ] {
        assert!(marks.contains(&expected), "no run emitted `{expected}`");
    }
}
