//! The mark vocabulary is closed: every label any executor, the serial
//! pipeline or the stream records parses to a named [`Mark`] variant and
//! prints back to exactly the label — so the typed marks the layers emit
//! and the labels stored in traces (and pinned by the golden digests) are
//! one vocabulary, with nothing an attribution cursor would silently miss.

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

fn labels_of(trace: &Trace, into: &mut BTreeSet<String>) {
    for event in trace.ranks.iter().flatten() {
        if let Event::Mark { label } = event {
            into.insert(label.clone());
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
    let mut labels = BTreeSet::new();

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
        labels_of(&trace, &mut labels);
    }

    // The serial pipeline and the stream.
    let base = PipelineConfig::small(rotate);
    labels_of(
        &FrameRun::new(4, &base).execute().unwrap().trace,
        &mut labels,
    );
    let frames = StreamSession::new(4)
        .open()
        .collect_orbit(&StreamConfig::new(base), &OrbitConfig::quarter(2))
        .unwrap();
    for frame in &frames {
        labels_of(&frame.trace, &mut labels);
    }

    for label in &labels {
        let mark = Mark::from(label.as_str());
        assert!(
            !matches!(mark, Mark::Other(_)),
            "`{label}` is emitted but not in the vocabulary"
        );
        assert_eq!(&mark.to_string(), label);
    }
    // The runs above exercise the whole vocabulary.
    for expected in [
        "compose:start",
        "step:0",
        "step:2",
        "flush:start",
        "compose:end",
        "compose:crashed",
        "repair:start",
        "repair:end",
        "gather:end",
        "render:start",
        "render:end",
        "warp:end",
        "frame:0:start",
        "frame:1:end",
    ] {
        assert!(labels.contains(expected), "no run emitted `{expected}`");
    }
}
