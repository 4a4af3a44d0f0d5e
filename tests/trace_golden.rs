//! Golden trace digests: the virtual-clock trace and the gathered frames of
//! every method × codec × P × fault × gather cell, pinned as FNV-1a digests
//! in `tests/golden/trace_digests.txt`.
//!
//! The file was generated at the last commit that still carried the
//! per-transfer reference path (PR 11), whose unit tests proved that path
//! and the fused path trace-identical. With that path gone, this file is
//! what pins the event order and every `Compute` charge — in particular the
//! content-dependent `Over`/`Decode` units under RLE/TRLE — of the one
//! remaining executor. A digest mismatch means the executor's observable
//! behaviour changed; regenerate (`RT_REGENERATE_GOLDEN=1 cargo test --test
//! trace_golden`) only when that change is intended and explained.
//!
//! The pipeline cells after them (generated at PR 12, before the serial
//! pipeline and the stream were given one frame planner) pin the full
//! render → compose → warp trace and the delivered screen frame of
//! `FrameRun` and of every streamed frame. The `pipeline serial` trace
//! digests were regenerated once more when `FrameRun` became a stream of
//! one: its inter-render `Barrier` event went and the `frame:0:*` marks
//! came in; no screen digest moved.
//!
//! The `render` cells at the end (generated at PR 13, before the shear-warp
//! loops became scanline kernels) pin the `f32` bits of every slab partial
//! and of the warped screen: the renderer's contract is bit-identity with
//! the per-sample code that produced them, not a tolerance.
//!
//! Every compose and pipeline cell's trace also has its critical path
//! checked in memory (it must telescope to the bit onto the replayed
//! compose + gather phase); that check writes nothing to the file.

use rotate_tiling::comm::{
    critical_path, replay, ComputeKind, CostModel, Event, FaultPlan, Mark, Trace,
};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::analysis::schedule_trace;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::hier::IntraMethod;
use rotate_tiling::core::method::Method;
use rotate_tiling::core::rotate::RtVariant;
use rotate_tiling::core::{ComposeOutput, ComposePlan, CoreError, DisplayWall, Run};
use rotate_tiling::imaging::image::reference_composite;
use rotate_tiling::imaging::pixel::{pixels_to_bytes, GrayAlpha8};
use rotate_tiling::imaging::{GrayAlpha, Image, Pixel};
use rotate_tiling::pvr::pipeline::{FrameRun, PipelineConfig};
use rotate_tiling::pvr::stream::{StreamConfig, StreamSession};
use rotate_tiling::pvr::{orbit_cameras, OrbitConfig};
use rotate_tiling::render::camera::{factorize, Camera};
use rotate_tiling::render::datasets::Dataset;
use rotate_tiling::render::partition::{depth_order, partition_1d};
use rotate_tiling::render::shearwarp::{render_intermediate, warp_to_screen, RenderOptions};
use rotate_tiling::render::tf::TransferFunction;
use rotate_tiling::render::volume::Volume;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_digests.txt"
);
const SIDE: usize = 32;

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn words(&mut self, words: &[u64]) {
        for w in words {
            self.u64(*w);
        }
    }
}

fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    for (rank, events) in trace.ranks.iter().enumerate() {
        h.u64(rank as u64);
        h.u64(events.len() as u64);
        for e in events {
            match e {
                Event::Send {
                    to,
                    tag,
                    bytes,
                    seq,
                } => h.words(&[1, *to as u64, *tag, *bytes, *seq]),
                Event::Retransmit {
                    to,
                    tag,
                    bytes,
                    seq,
                    attempt,
                } => h.words(&[2, *to as u64, *tag, *bytes, *seq, *attempt as u64]),
                Event::AckWait { to, seq, attempt } => {
                    h.words(&[3, *to as u64, *seq, *attempt as u64])
                }
                Event::Recv {
                    from,
                    tag,
                    bytes,
                    seq,
                } => h.words(&[5, *from as u64, *tag, *bytes, *seq]),
                Event::Compute { kind, units } => {
                    let kind = match kind {
                        ComputeKind::Over => 0,
                        ComputeKind::Encode => 1,
                        ComputeKind::Decode => 2,
                        ComputeKind::Render => 3,
                    };
                    h.words(&[6, kind, *units]);
                }
                Event::Barrier { generation } => h.words(&[7, *generation]),
                Event::Mark { label } => {
                    let label = label.to_string();
                    h.u64(8);
                    h.u64(label.len() as u64);
                    h.bytes(label.as_bytes());
                }
            }
        }
    }
    h.0
}

/// The critical path of `trace`'s compose window (`compose:start` →
/// `gather:end`) under SP2 telescopes to the bit: it starts at the earliest
/// `compose:start`, each link begins where the one before it ended, and it
/// ends at the latest `gather:end`, so it spans exactly the replayed phase.
fn assert_path_telescopes(trace: &Trace, cell: &str) {
    let (start, end) = ("compose:start", "gather:end");
    let cost = CostModel::SP2;
    let phase = replay(trace, &cost).unwrap().phase(start, end).unwrap();
    let path = critical_path(trace, &cost, start, end).unwrap().unwrap();
    let (first, last) = (&path.links[0], &path.links[path.links.len() - 1]);
    assert_eq!(first.start.to_bits(), path.start.to_bits(), "{cell}");
    for pair in path.links.windows(2) {
        assert_eq!(
            pair[1].start.to_bits(),
            pair[0].end.to_bits(),
            "{cell}: {pair:?}"
        );
    }
    assert_eq!(last.end.to_bits(), path.end.to_bits(), "{cell}");
    assert_eq!((path.end - path.start).to_bits(), phase.to_bits(), "{cell}");
}

/// Every rank's gathered frame (the root's, the promoted root's, or each
/// display rank's wall cell), in rank order.
fn frames_digest(results: &[Result<ComposeOutput<GrayAlpha8>, CoreError>]) -> u64 {
    let mut h = Fnv::new();
    for (rank, r) in results.iter().enumerate() {
        let out = r.as_ref().unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        if let Some(frame) = &out.frame {
            h.u64(rank as u64);
            h.u64(frame.width() as u64);
            h.u64(frame.height() as u64);
            h.bytes(&pixels_to_bytes(frame.pixels()));
        }
    }
    h.0
}

/// Deterministic content with all three puzzle tile classes: each rank owns
/// a band of rows (solo tiles on the right half), spills one column per
/// tile into the next rank's band on the left half (light overlap, within
/// the 150‰ budget) and everyone covers the bottom-right corner (heavy
/// overlap); opaque, translucent and blank pixels are all present.
fn partials(p: usize) -> Vec<Image<GrayAlpha8>> {
    let band = SIDE / p;
    (0..p)
        .map(|r| {
            Image::from_fn(SIDE, SIDE, |x, y| {
                let own = y / band == r;
                let spill = y / band == (r + 1) % p && x % 8 == 0 && x < 16;
                let corner = x >= 24 && y >= 24;
                if !(own || spill || corner) {
                    return GrayAlpha8::blank();
                }
                match (x + 2 * y + 3 * r) % 5 {
                    0 => GrayAlpha8::blank(),
                    1 => GrayAlpha8::new((60 * r + x) as u8, 255),
                    _ => GrayAlpha8::new((40 * r + y) as u8, (x * 7 + 20) as u8),
                }
            })
        })
        .collect()
}

fn methods() -> Vec<Method> {
    let mut methods = Method::bench_lineup();
    methods.push(Method::Hier {
        k: 2,
        intra: IntraMethod::DirectSend,
    });
    for budget_permille in [0, 150] {
        methods.push(Method::Puzzle {
            tiles_x: 4,
            tiles_y: 4,
            budget_permille,
        });
    }
    methods
}

fn compute_digests() -> String {
    let mut out = String::new();
    for method in methods() {
        for codec in CodecKind::ALL {
            for p in [4usize, 8] {
                let plan = method.plan(p, SIDE, SIDE).unwrap();
                plan.verify().unwrap();
                for crash in [false, true] {
                    for wall in [false, true] {
                        let mut config =
                            ComposeConfig::default().with_codec(codec).resilient(crash);
                        if wall {
                            config = config.with_display_wall(DisplayWall::new(2, 2));
                        }
                        let faults = if crash {
                            FaultPlan::none().crash_rank_at_step(p - 1, 1)
                        } else {
                            FaultPlan::none()
                        };
                        let (results, trace) =
                            Run::new(&plan, &config).faults(faults).execute(partials(p));
                        let cell = format!(
                            "{} {} P={p} {} {}",
                            method.name(),
                            codec.name(),
                            if crash { "crash" } else { "clean" },
                            if wall { "wall2x2" } else { "root" },
                        );
                        assert_path_telescopes(&trace, &cell);
                        writeln!(
                            out,
                            "{cell} trace={:016x} frames={:016x}",
                            trace_digest(&trace),
                            frames_digest(&results),
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out + &pipeline_digests() + &render_digests()
}

fn screen_digest(frame: &Image<GrayAlpha>) -> u64 {
    let mut h = Fnv::new();
    h.u64(frame.width() as u64);
    h.u64(frame.height() as u64);
    for px in frame.pixels() {
        h.words(&[px.v.to_bits() as u64, px.a.to_bits() as u64]);
    }
    h.0
}

/// The full pipeline, frame by frame over a 4-frame quarter orbit: each
/// view through `FrameRun` (one machine per frame) and the whole orbit
/// through one `StreamSession` (window 2). A frame is a stream of one, so
/// every cell's serial frame 0 must carry its streamed twin's trace.
fn pipeline_digests() -> String {
    let mut out = String::new();
    let orbit = OrbitConfig::quarter(4);
    let methods = [
        Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 2,
        },
        Method::TileOwner {
            tiles_x: 4,
            tiles_y: 4,
        },
    ];
    for method in methods {
        for p in [3usize, 4] {
            for crash in [false, true] {
                let faults = if crash {
                    FaultPlan::none().crash_rank_at_step(p - 1, 1)
                } else {
                    FaultPlan::none()
                };
                let base = PipelineConfig::small(method);
                let mut cell = |path: &str, k: usize, trace: &Trace, frame: &Image<GrayAlpha>| {
                    let cell = format!(
                        "pipeline {path} {} P={p} {} frame={k}",
                        method.name(),
                        if crash { "crash" } else { "clean" },
                    );
                    assert_path_telescopes(trace, &cell);
                    writeln!(
                        out,
                        "{cell} trace={:016x} screen={:016x}",
                        trace_digest(trace),
                        screen_digest(frame),
                    )
                    .unwrap();
                };
                let mut serial_first = None;
                for (k, (_, camera)) in orbit_cameras(&orbit).into_iter().enumerate() {
                    let config = PipelineConfig { camera, ..base };
                    let run = FrameRun::new(p, &config).faults(faults.clone());
                    let frame = run.execute().unwrap();
                    cell("serial", k, &frame.trace, &frame.frame);
                    serial_first.get_or_insert(frame.trace);
                }
                let config = StreamConfig::new(base).with_faults(faults);
                let frames = StreamSession::new(p).collect_orbit(&config, &orbit);
                let frames = frames.unwrap();
                for (k, frame) in frames.iter().enumerate() {
                    cell("stream", k, &frame.trace, &frame.frame);
                }
                assert_eq!(
                    serial_first.as_ref(),
                    Some(&frames[0].trace),
                    "{} P={p} crash={crash}: FrameRun is not the stream's frame 0",
                    method.name()
                );
            }
        }
    }
    out
}

/// Six views covering every principal axis in both slice orders, with
/// roll and an explicit scale mixed in.
fn render_cameras() -> [Camera; 6] {
    use std::f64::consts::{FRAC_PI_2, PI};
    [
        Camera::yaw_pitch(0.3, 0.2),
        Camera::yaw_pitch(PI - 0.3, -0.5),
        Camera {
            roll: 0.4,
            ..Camera::yaw_pitch(FRAC_PI_2 + 0.25, 0.15)
        },
        Camera::yaw_pitch(-FRAC_PI_2 + 0.2, -0.3),
        Camera {
            scale: 1.3,
            ..Camera::yaw_pitch(0.35, FRAC_PI_2 - 0.3)
        },
        Camera {
            roll: -0.7,
            ..Camera::yaw_pitch(-0.2, -FRAC_PI_2 + 0.25)
        },
    ]
}

/// One `render` line: every slab partial (`render_intermediate`, nearest
/// first) and the warp of their composite. Returns the view's `(axis,
/// flip)`.
fn render_cell(
    out: &mut String,
    name: &str,
    vol: &Volume,
    tf: &TransferFunction,
    p: usize,
    camera: &Camera,
    opts: &RenderOptions,
) -> (usize, bool) {
    let f = factorize(camera, vol.dims(), opts.width, opts.height);
    let parts = partition_1d(vol, p, f.axis).unwrap();
    let mut h = Fnv::new();
    let partials: Vec<Image<GrayAlpha>> = depth_order(&parts, &f)
        .into_iter()
        .map(|i| {
            let (partial, _) = render_intermediate(&parts[i], tf, camera, opts);
            h.u64(screen_digest(&partial));
            partial
        })
        .collect();
    let composed = reference_composite(&partials).unwrap();
    writeln!(
        out,
        "render {name} P={p} axis={}{} et={} partials={:016x} screen={:016x}",
        f.axis,
        if f.flip { '-' } else { '+' },
        opts.early_termination,
        h.0,
        screen_digest(&warp_to_screen(&composed, &f, opts)),
    )
    .unwrap();
    (f.axis, f.flip)
}

/// The renderer alone, on a 20×24×28 block cut out of a generated cube,
/// into a non-square frame.
fn render_digests() -> String {
    let mut out = String::new();
    let block = |dataset: Dataset| {
        dataset
            .generate(28, 7)
            .extract((3, 23), (2, 26), (0, 28))
            .unwrap()
    };
    let frame = |early_termination| RenderOptions {
        width: 44,
        height: 36,
        early_termination,
    };
    let mut views = std::collections::BTreeSet::new();
    for dataset in Dataset::PAPER {
        let vol = block(dataset);
        let tf = dataset.transfer_function();
        for p in [1usize, 3] {
            for camera in render_cameras() {
                for early_termination in [1.0, 0.98] {
                    views.insert(render_cell(
                        &mut out,
                        dataset.name(),
                        &vol,
                        &tf,
                        p,
                        &camera,
                        &frame(early_termination),
                    ));
                }
            }
        }
    }
    assert_eq!(views.len(), 6, "three principal axes × both slice orders");
    // Transparent at zero AND in a mid-range window: two disjoint
    // transparent runs, so no prefix of the scalar range covers them.
    let two_runs = TransferFunction::from_points(&[
        (0, 0.0, 0.0),
        (50, 0.3, 0.4),
        (100, 0.5, 0.0),
        (120, 0.5, 0.0),
        (200, 0.5, 0.5),
    ]);
    render_cell(
        &mut out,
        "engine/two-runs-tf",
        &block(Dataset::Engine),
        &two_runs,
        3,
        &render_cameras()[2],
        &frame(0.98),
    );
    out
}

#[test]
fn traces_and_frames_match_the_golden_digests() {
    let got = compute_digests();
    if std::env::var_os("RT_REGENERATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap();
    assert_eq!(got.lines().count(), want.lines().count(), "cell count");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "digest drifted from tests/golden/trace_digests.txt");
    }
}

/// Every raw, clean, root-gathered schedule cell records the trace its
/// schedule compiles to: `schedule_trace` reproduces the committed digest
/// without running a thread.
#[test]
fn compiled_schedule_traces_match_the_golden_digests() {
    let want = std::fs::read_to_string(GOLDEN).unwrap();
    let mut checked = 0;
    for method in methods() {
        for p in [4usize, 8] {
            let Ok(ComposePlan::Schedule(schedule)) = method.plan(p, SIDE, SIDE) else {
                continue;
            };
            let cell = format!("{} raw P={p} clean root trace=", method.name());
            let line = want.lines().find(|l| l.starts_with(&cell)).unwrap();
            let digest = trace_digest(&schedule_trace(&schedule, GrayAlpha8::BYTES));
            assert_eq!(
                &line[cell.len()..][..16],
                format!("{digest:016x}"),
                "{cell}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 10, "schedule cells in the golden file");
}

/// One rank slowed by a large `over` charge right after `compose:start`:
/// the critical path must run through that charge, and the slow rank must
/// hold most of the path's time.
#[test]
fn the_critical_path_names_a_slow_rank() {
    let method = Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    };
    let schedule = method.build(8, SIDE * SIDE).unwrap();
    let mut trace = schedule_trace(&schedule, GrayAlpha8::BYTES);
    let slow = &mut trace.ranks[5];
    let at = 1 + slow
        .iter()
        .position(|e| matches!(e, Event::Mark { label } if *label == Mark::ComposeStart))
        .unwrap();
    slow.insert(
        at,
        Event::Compute {
            kind: ComputeKind::Over,
            units: 1 << 20,
        },
    );
    let path = critical_path(&trace, &CostModel::SP2, "compose:start", "gather:end")
        .unwrap()
        .unwrap();
    let ranks: Vec<usize> = path.links.iter().map(|link| link.rank).collect();
    assert!(
        path.links
            .iter()
            .any(|link| (link.rank, link.event_index) == (5, at)),
        "path ranks {ranks:?}"
    );
    assert_eq!(path.bounding_rank().map(|(rank, _)| rank), Some(5));
}

/// The survivors' repair merges are priced like every other merge: under a
/// structured codec only the non-blank pixels a merge composites cost an
/// `over`. 2N_RT(B=4) at P = 4 with rank 3 crashed at step 1 must charge
/// each survivor the same `over` units between `compose:end` and
/// `gather:end` under RLE, TRLE and bounds, strictly fewer than raw's full
/// spans, and deliver raw's frames.
#[test]
fn the_repair_charges_over_like_every_other_merge() {
    let p = 4;
    let method = Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    };
    let plan = method.plan(p, SIDE, SIDE).unwrap();
    let faults = FaultPlan::none().crash_rank_at_step(p - 1, 1);
    let run = |codec: CodecKind| {
        let config = ComposeConfig::default().with_codec(codec).resilient(true);
        let (results, trace) = Run::new(&plan, &config)
            .faults(faults.clone())
            .execute(partials(p));
        let repair_over: Vec<u64> = trace.ranks[..p - 1]
            .iter()
            .map(|events| {
                let (mut inside, mut units) = (false, 0);
                for e in events {
                    match e {
                        Event::Mark {
                            label: Mark::ComposeEnd,
                        } => inside = true,
                        Event::Mark {
                            label: Mark::GatherEnd,
                        } => inside = false,
                        Event::Compute {
                            kind: ComputeKind::Over,
                            units: u,
                        } if inside => units += u,
                        _ => {}
                    }
                }
                units
            })
            .collect();
        (frames_digest(&results), repair_over)
    };
    let (raw_frames, raw_over) = run(CodecKind::Raw);
    let raw_total: u64 = raw_over.iter().sum();
    assert!(
        raw_total > 0,
        "the crash must leave the survivors merges to repair"
    );
    let (_, structured) = run(CodecKind::Rle);
    for codec in [CodecKind::Rle, CodecKind::Trle, CodecKind::Bounds] {
        let (frames, over) = run(codec);
        assert_eq!(frames, raw_frames, "{codec:?}: frames differ from raw's");
        assert_eq!(over, structured, "{codec:?}: repair priced unlike RLE's");
        assert!(
            over.iter().sum::<u64>() < raw_total,
            "{codec:?}: repair over units {over:?} not below raw's {raw_over:?}"
        );
    }
}
