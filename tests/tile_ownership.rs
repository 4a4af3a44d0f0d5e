//! Tile-ownership compositing end to end: the content-adaptive message
//! set must stay *exact* (byte-identical to the sequential depth fold and
//! to the direct-send schedule, on both transports), ship nothing for
//! blank content, survive degenerate tile grids, and keep the
//! bit-exact | exact-degraded | typed-error trichotomy when an owner
//! rank dies mid-frame.

use rotate_tiling::comm::tag::{tile_channel, TileChannel};
use rotate_tiling::comm::{Event, FaultPlan, Trace};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, TransportKind};
use rotate_tiling::core::method::Method;
use rotate_tiling::core::{DisplayWall, Run};
use rotate_tiling::imaging::image::reference_composite;
use rotate_tiling::imaging::synth::{band_partials, provenance_partials};
use rotate_tiling::imaging::{Image, Pixel, Provenance};
use std::time::Duration;

fn tile_owner(tiles_x: usize, tiles_y: usize) -> Method {
    Method::TileOwner { tiles_x, tiles_y }
}

/// Count `Send` events on one tile sub-channel in one rank's trace.
fn sends_on(trace: &Trace, rank: usize, channel: TileChannel) -> usize {
    trace.ranks[rank]
        .iter()
        .filter(|e| matches!(e, Event::Send { tag, .. } if tile_channel(*tag) == Some(channel)))
        .count()
}

/// The root's gathered frame out of a result set (exactly one expected).
fn root_frame<P: Pixel>(
    results: Vec<
        Result<rotate_tiling::core::exec::ComposeOutput<P>, rotate_tiling::core::CoreError>,
    >,
) -> Image<P> {
    let mut frames: Vec<_> = results
        .into_iter()
        .filter_map(|r| r.expect("rank failed").frame)
        .collect();
    assert_eq!(frames.len(), 1, "exactly one rank gathers the frame");
    frames.pop().unwrap()
}

#[test]
fn a_fully_blank_rank_sends_manifests_but_zero_tile_payloads() {
    let p = 4;
    let mut partials = band_partials(p, 48, 48);
    partials[1] = Image::blank(48, 48); // rank 1 rendered nothing
    let want = reference_composite(&partials).unwrap();
    let plan = tile_owner(6, 6).plan(p, 48, 48).unwrap();
    let config = ComposeConfig::default().with_codec(CodecKind::Trle);
    let (results, trace) = Run::new(&plan, &config).execute(partials);
    let frame = root_frame(results);
    assert_eq!(frame.pixels(), want.pixels());
    // The blank rank still announces itself (fixed-size manifests) but
    // ships no pixel payloads at all; content-bearing ranks do.
    assert!(sends_on(&trace, 1, TileChannel::Manifest) > 0);
    assert_eq!(sends_on(&trace, 1, TileChannel::Payload), 0);
    assert!(sends_on(&trace, 0, TileChannel::Payload) > 0);
    assert!(sends_on(&trace, 2, TileChannel::Payload) > 0);
}

#[test]
fn a_single_tile_grid_degenerates_to_one_owner_and_stays_exact() {
    let p = 4;
    let partials = band_partials(p, 40, 24);
    let want = reference_composite(&partials).unwrap();
    let plan = tile_owner(1, 1).plan(p, 40, 24).unwrap();
    let (results, trace) = Run::new(&plan, &ComposeConfig::default()).execute(partials);
    assert_eq!(root_frame(results).pixels(), want.pixels());
    // One tile → rank 0 owns everything; nobody ships more than one
    // payload, and the owner ships none.
    assert_eq!(sends_on(&trace, 0, TileChannel::Payload), 0);
    for r in 1..p {
        assert!(sends_on(&trace, r, TileChannel::Payload) <= 1);
    }
}

#[test]
fn a_grid_that_does_not_divide_the_frame_still_covers_every_pixel_once() {
    // 29×13 over a 4×5 grid: ragged tile rectangles on both axes. The
    // Provenance algebra poisons any pixel that is merged out of order or
    // twice, and shows as non-complete any pixel merged too few times.
    let p = 3;
    let partials = provenance_partials(p, 29, 13);
    let plan = tile_owner(4, 5).plan(p, 29, 13).unwrap();
    let (results, _) = Run::new(&plan, &ComposeConfig::default()).execute(partials);
    let frame = root_frame(results);
    for px in frame.pixels() {
        assert_eq!(*px, Provenance::complete(p as u16));
    }
}

#[test]
fn tile_owner_is_byte_identical_to_direct_send_and_the_reference_fold() {
    // Direct-send folds every span front to back at its final owner — the
    // sequential association order — so it is exact on saturating u8
    // pixels, and the tile path must agree with it bit for bit.
    let p = 8;
    let partials = band_partials(p, 64, 64);
    let want = reference_composite(&partials).unwrap();
    for codec in [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle] {
        let config = ComposeConfig::default().with_codec(codec);
        let to_plan = tile_owner(5, 3).plan(p, 64, 64).unwrap();
        let ds_plan = Method::DirectSend.plan(p, 64, 64).unwrap();
        let (to, _) = Run::new(&to_plan, &config).execute(partials.clone());
        let (ds, _) = Run::new(&ds_plan, &config).execute(partials.clone());
        let to_frame = root_frame(to);
        assert_eq!(to_frame.pixels(), want.pixels(), "{codec:?} vs reference");
        assert_eq!(
            to_frame.pixels(),
            root_frame(ds).pixels(),
            "{codec:?} vs direct-send"
        );
    }
}

#[test]
fn tcp_and_inproc_tile_runs_are_bit_identical() {
    // The transport must stay invisible above the envelope for the tile
    // path exactly as it does for span schedules: same frames, same
    // event traces, on every codec.
    let p = 4;
    let partials = band_partials(p, 32, 32);
    let plan = tile_owner(4, 4).plan(p, 32, 32).unwrap();
    for codec in [CodecKind::Raw, CodecKind::Trle] {
        let run = |kind: TransportKind| {
            let config = ComposeConfig::default()
                .with_codec(codec)
                .with_transport(kind);
            let (results, trace) = Run::new(&plan, &config).execute(partials.clone());
            (root_frame(results), trace)
        };
        let (inproc_frame, inproc_trace) = run(TransportKind::InProc);
        let (tcp_frame, tcp_trace) = run(TransportKind::TcpLoopback);
        assert_eq!(inproc_frame.pixels(), tcp_frame.pixels(), "{codec:?}");
        assert_eq!(inproc_trace, tcp_trace, "{codec:?} traces diverged");
    }
}

#[test]
fn owner_rank_death_mid_frame_keeps_the_trichotomy() {
    let p = 4;
    let (w, h) = (24, 24);
    let partials = provenance_partials(p, w, h);
    let plan = tile_owner(3, 3).plan(p, w, h).unwrap();
    let deepest = p - 1; // depth order is identity: rank 3 is farthest

    // 1. Bit-exact: no fault planned, every pixel fully composited.
    let (clean, _) = Run::new(&plan, &ComposeConfig::default()).execute(partials.clone());
    for px in root_frame(clean).pixels() {
        assert_eq!(*px, Provenance::complete(p as u16));
    }

    // 2. Exact-degraded: the deepest rank dies after shipping its tiles
    //    but before the gather (step 1). Its payloads already arrived, so
    //    only the tiles it *owned* lose its contribution — they are
    //    reassigned and recomposed from the survivors, exactly.
    let faults = FaultPlan::none().crash_rank_at_step(deepest, 1);
    let config = ComposeConfig::default()
        .resilient(true)
        .with_timeout(Duration::from_millis(500));
    let (results, _) = Run::new(&plan, &config)
        .faults(faults)
        .execute(partials.clone());
    let mut frames = Vec::new();
    for (rank, r) in results.into_iter().enumerate() {
        if rank == deepest {
            continue; // the dead rank may report anything or nothing
        }
        let out = r.unwrap_or_else(|e| panic!("survivor {rank} failed: {e}"));
        let degraded = out.degraded.unwrap_or_else(|| {
            panic!("survivor {rank} did not report the planned crash");
        });
        assert_eq!(degraded.failed, vec![(deepest, 1)]);
        if let Some(f) = out.frame {
            frames.push(f);
        }
    }
    assert_eq!(frames.len(), 1, "exactly one survivor gathers the frame");
    let frame = &frames[0];
    let grid_plan = match &plan {
        rotate_tiling::core::ComposePlan::Tiles(t) => t,
        _ => unreachable!("tile-owner compiles to a tile plan"),
    };
    for t in 0..grid_plan.grid.tiles() {
        let expect = if grid_plan.owner_of[t] == deepest {
            Provenance::complete(deepest as u16) // survivors only
        } else {
            Provenance::complete(p as u16)
        };
        for span in grid_plan.grid.row_spans(t) {
            for px in &frame.pixels()[span.start..span.start + span.len] {
                assert_eq!(*px, expect, "tile {t}");
            }
        }
    }

    // 3. Typed error: without resilience, a dead link (every delivery
    //    attempt from the deepest rank to the root lost) must surface as
    //    a typed error on some rank — never a silently wrong frame.
    let faults = FaultPlan::none().sever_channel(deepest, 0);
    let config = ComposeConfig::default().with_timeout(Duration::from_millis(300));
    let (results, _) = Run::new(&plan, &config).faults(faults).execute(partials);
    assert!(
        results.iter().any(|r| r.is_err()),
        "a severed link must surface as a typed error"
    );
    for r in results.into_iter().flatten() {
        if let Some(f) = r.frame {
            panic!(
                "no rank may emit a frame built on missing data: {:?}",
                f.pixels()[0]
            );
        }
    }
}

#[test]
fn display_wall_cells_of_a_span_schedule_match_the_root_frame() {
    // The display gather is a drop-in replacement for the root gather on
    // the classic span-schedule path too: every wall cell must equal the
    // corresponding sub-rectangle of the root-gathered frame.
    let p = 4;
    let (w, h) = (32, 24);
    let partials = band_partials(p, w, h);
    let plan = Method::BinarySwap.plan(p, w, h).unwrap();
    let (rooted, _) = Run::new(&plan, &ComposeConfig::default()).execute(partials.clone());
    let whole = root_frame(rooted);

    let wall = DisplayWall::new(2, 1).with_base(1); // ranks 1 and 2 display
    let config = ComposeConfig::default().with_display_wall(wall);
    let (results, _) = Run::new(&plan, &config).execute(partials);
    let mut cells = 0;
    for (rank, r) in results.into_iter().enumerate() {
        let out = r.expect("rank failed");
        let Some(cell) = out.frame else { continue };
        let d = wall.display_of(rank).expect("only display ranks gather");
        let rect = wall.cell_rect(d, w, h);
        assert_eq!(
            (cell.width(), cell.height()),
            (rect.x1 - rect.x0, rect.y1 - rect.y0)
        );
        for y in rect.y0..rect.y1 {
            for x in rect.x0..rect.x1 {
                assert_eq!(
                    cell.pixels()[(y - rect.y0) * cell.width() + (x - rect.x0)],
                    whole.pixels()[y * w + x],
                    "cell {d} diverges at ({x},{y})"
                );
            }
        }
        cells += 1;
    }
    assert_eq!(cells, 2, "both display ranks assemble their cell");
}
