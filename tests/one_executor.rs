//! What merging the executors must not change, and what the `Run` builder
//! newly allows:
//!
//! * the tile-ownership and puzzlepiece families run through one skeleton,
//!   parametrised only by "fold" vs "segments + budget" — so on the same
//!   grid a zero budget gives the tile-ownership bytes, and tile ownership
//!   still ships no segment metadata;
//! * the skeleton's one content scan is inside the phase book;
//! * faults, a scratch pool and an observer — a combination none of the old
//!   `run_*` suffixes could express — compose on one `Run`;
//! * the gather has one destination type: the root is the one-cell display
//!   wall at its rank, and an out-of-range root is refused before traffic.

use rotate_tiling::comm::{Event, FaultPlan};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, ScratchPool};
use rotate_tiling::core::method::Method;
use rotate_tiling::core::{CoreError, DisplayWall, IntraMethod, Run};
use rotate_tiling::imaging::image::reference_composite;
use rotate_tiling::imaging::{GrayAlpha8, Image, Pixel};
use rotate_tiling::obs::{Observer, Phase};
use std::sync::Arc;

/// Overlapping translucent content with blank structure: tiles of every
/// puzzle class (solo, lightly and heavily overlapping) occur.
fn partials(p: usize, w: usize, h: usize) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|r| {
            Image::from_fn(w, h, |x, y| {
                let own = y * p / h == r;
                let spill = y * p / h == (r + 1) % p && x % 6 == 0;
                let corner = x >= w - 8 && y >= h - 8;
                if own || spill || corner {
                    GrayAlpha8::new((37 * r + x + 2 * y) as u8, (60 + 40 * r + x) as u8)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

fn root_frame(
    results: Vec<
        Result<rotate_tiling::core::ComposeOutput<GrayAlpha8>, rotate_tiling::core::CoreError>,
    >,
) -> Image<GrayAlpha8> {
    results
        .into_iter()
        .find_map(|r| r.expect("rank failed").frame)
        .expect("some rank gathered the frame")
}

#[test]
fn zero_budget_puzzle_is_tile_ownership_byte_for_byte_and_to_ships_no_segments() {
    let (p, w, h) = (4, 32, 32);
    let partials = partials(p, w, h);
    let want = reference_composite(&partials).unwrap();
    for codec in CodecKind::ALL {
        let config = ComposeConfig::default().with_codec(codec);
        let run = |method: Method| {
            let plan = method.plan(p, w, h).unwrap();
            let observer = Arc::new(Observer::new());
            let (results, _) = Run::new(&plan, &config)
                .observer(Arc::clone(&observer))
                .execute(partials.clone());
            (root_frame(results), observer.counters_total())
        };
        let (to_frame, to_counters) = run(Method::TileOwner {
            tiles_x: 4,
            tiles_y: 4,
        });
        let (pz_frame, pz_counters) = run(Method::Puzzle {
            tiles_x: 4,
            tiles_y: 4,
            budget_permille: 0,
        });
        assert_eq!(to_frame.pixels(), want.pixels(), "{codec:?}: TO vs fold");
        assert_eq!(pz_frame.pixels(), to_frame.pixels(), "{codec:?}: PZ b=0");
        // Tile ownership scans flags only: no segment metadata on the wire.
        assert_eq!(to_counters.wire_bytes_for("pz-segments"), 0, "{codec:?}");
        assert!(pz_counters.wire_bytes_for("pz-segments") > 0, "{codec:?}");
        assert_eq!(
            to_counters.wire_bytes_for("tile-manifest"),
            pz_counters.wire_bytes_for("tile-manifest"),
            "{codec:?}: same manifests either way"
        );
    }
}

#[test]
fn the_tile_content_scan_is_booked_as_an_encode_span() {
    // All-blank partials ship no tile, so before `compose:end` each rank
    // records one Encode span, the scan. The gather's encodes come after
    // `compose:end`, which closes the step a wall-clock span is booked to.
    let (p, w, h) = (4, 32, 32);
    let blank: Vec<Image<GrayAlpha8>> = (0..p).map(|_| Image::blank(w, h)).collect();
    for method in [
        Method::TileOwner {
            tiles_x: 4,
            tiles_y: 4,
        },
        Method::Puzzle {
            tiles_x: 4,
            tiles_y: 4,
            budget_permille: 100,
        },
    ] {
        let plan = method.plan(p, w, h).unwrap();
        let config = ComposeConfig::default();
        let observer = Arc::new(Observer::new());
        let (results, _) = Run::new(&plan, &config)
            .observer(Arc::clone(&observer))
            .execute(blank.clone());
        for r in results {
            r.expect("rank failed");
        }
        let timelines = observer.timelines();
        assert_eq!(timelines.len(), p);
        for tl in &timelines {
            let encodes = tl
                .spans
                .iter()
                .filter(|s| s.phase == Phase::Encode && s.step.is_some())
                .count();
            assert_eq!(encodes, 1, "{method:?}: rank {} scan span", tl.rank);
        }
    }
}

#[test]
fn faults_pool_and_observer_compose_on_one_run() {
    let (p, w, h) = (4, 32, 32);
    let partials = partials(p, w, h);
    let victim = p - 1;
    // The exact composite of the survivors: the crash fires before the
    // victim's first send, so its whole contribution is absent.
    let mut surviving = partials.clone();
    surviving[victim] = Image::blank(w, h);
    let want = reference_composite(&surviving).unwrap();

    let plan = Method::TileOwner {
        tiles_x: 4,
        tiles_y: 4,
    }
    .plan(p, w, h)
    .unwrap();
    let config = ComposeConfig::default()
        .with_codec(CodecKind::Trle)
        .resilient(true);
    let pool = ScratchPool::new();
    let observer = Arc::new(Observer::new());
    let mut fresh_after = Vec::new();
    for frame in 0..2 {
        let (results, trace) = Run::new(&plan, &config)
            .faults(FaultPlan::none().crash_rank_at_step(victim, 0))
            .pool(&pool)
            .observer(Arc::clone(&observer))
            .execute(partials.clone());
        // Exact-degraded: every survivor reports the crash, the gathered
        // frame is the survivors' fold byte for byte.
        for (rank, r) in results.iter().enumerate() {
            let out = r.as_ref().expect("typed errors are not expected here");
            let info = out.degraded.as_ref().expect("crash must be reported");
            assert_eq!(info.failed, vec![(victim, 0)], "rank {rank}");
        }
        assert_eq!(root_frame(results).pixels(), want.pixels(), "frame {frame}");
        assert!(trace.message_count() > 0);
        fresh_after.push(pool.fresh_checkouts());
    }
    // The pool served the second frame from the first frame's buffers...
    assert_eq!(
        fresh_after[0], fresh_after[1],
        "fresh checkouts must stay flat"
    );
    assert!(fresh_after[0] >= (p - 1) as u64);
    // ...and the observer saw both frames' work on every surviving rank.
    let counters = observer.counters_total();
    assert!(counters.pool_hits > 0, "second frame must hit the pool");
    for tl in observer.timelines() {
        if tl.rank != victim {
            assert!(
                tl.spans.iter().any(|s| s.phase == Phase::Over),
                "rank {} recorded no merge span",
                tl.rank
            );
        }
    }
}

#[test]
fn the_root_is_the_one_cell_display_wall() {
    let (w, h) = (32, 32);
    let mut methods = Method::bench_lineup();
    methods.push(Method::Hier {
        k: 2,
        intra: IntraMethod::BinarySwapFold,
    });
    for budget_permille in [0, 150] {
        methods.push(Method::Puzzle {
            tiles_x: 4,
            tiles_y: 4,
            budget_permille,
        });
    }
    let mut cells = 0;
    for p in [3, 4, 8] {
        let partials = partials(p, w, h);
        for method in &methods {
            let Ok(plan) = method.plan(p, w, h) else {
                continue; // a shape the method does not take
            };
            for codec in CodecKind::ALL {
                for root in [0, p - 1] {
                    // The crash spares the root: a dead root moves, a dead
                    // display rank does not.
                    for faults in [
                        FaultPlan::none(),
                        FaultPlan::none().crash_rank_at_step(1, 1),
                    ] {
                        let base = ComposeConfig::default()
                            .with_codec(codec)
                            .resilient(!faults.is_none());
                        let run = |config: ComposeConfig| {
                            let (results, trace) = Run::new(&plan, &config)
                                .faults(faults.clone())
                                .execute(partials.clone());
                            let outs: Vec<_> = results
                                .into_iter()
                                .map(|r| r.map(|out| (out.frame, out.owned_pixels)))
                                .collect();
                            (outs, trace)
                        };
                        let (rooted, rooted_trace) = run(base.with_root(root));
                        let (walled, walled_trace) =
                            run(base.with_display_wall(DisplayWall::root(root)));
                        let what = format!("{method:?} {codec:?} P={p} root={root} {faults:?}");
                        assert!(
                            matches!(&rooted[root], Ok((Some(_), _))),
                            "{what}: the root holds the frame"
                        );
                        assert_eq!(rooted, walled, "{what}: frames and owned pixels");
                        assert_eq!(rooted_trace, walled_trace, "{what}: trace");
                        cells += 1;
                    }
                }
            }
            // A root outside the machine is refused before any traffic.
            let config = ComposeConfig::default().with_root(p);
            let (results, trace) = Run::<GrayAlpha8>::new(&plan, &config).execute(partials.clone());
            for r in results {
                assert!(
                    matches!(r, Err(CoreError::InvalidSchedule { .. })),
                    "{method:?} P={p}: {r:?}"
                );
            }
            let sends = trace.ranks.iter().flatten();
            assert!(
                !sends.into_iter().any(|e| matches!(e, Event::Send { .. })),
                "{method:?} P={p}: a refused plan sent a message"
            );
        }
    }
    assert!(cells >= 3 * 2 * 2 * 3 * 6, "only {cells} cells ran");
}
