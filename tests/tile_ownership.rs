//! Tile-ownership compositing end to end: one bundle per (sender, owner)
//! must stay *exact* (byte-identical to the sequential depth fold and
//! to the direct-send schedule, on both transports), carry nothing but its
//! bitmap for blank content, survive degenerate tile grids, send the
//! message count the tuner prices, and keep the
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

/// The byte sizes of the messages `rank` sent on one tile sub-channel.
fn sends_on(trace: &Trace, rank: usize, channel: TileChannel) -> Vec<u64> {
    trace.ranks[rank]
        .iter()
        .filter_map(|e| match e {
            Event::Send { tag, bytes, .. } if tile_channel(*tag) == Some(channel) => Some(*bytes),
            _ => None,
        })
        .collect()
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
    // Every rank owns 9 of the 36 tiles, so a bundle's bitmap is 2 bytes.
    // The blank rank still sends every other owner its bundle, and that
    // bundle is exactly the bitmap; content-bearing ranks append streams.
    assert_eq!(sends_on(&trace, 1, TileChannel::Bundle), vec![2, 2, 2]);
    for r in [0, 2, 3] {
        let bundles = sends_on(&trace, r, TileChannel::Bundle);
        assert_eq!(bundles.len(), p - 1, "rank {r}");
        assert!(bundles.iter().any(|&bytes| bytes > 2), "rank {r}");
    }
    assert!(sends_on(&trace, 1, TileChannel::RepairBundle).is_empty());
}

#[test]
fn a_single_tile_grid_degenerates_to_one_owner_and_stays_exact() {
    let p = 4;
    let partials = band_partials(p, 40, 24);
    let want = reference_composite(&partials).unwrap();
    let plan = tile_owner(1, 1).plan(p, 40, 24).unwrap();
    let (results, trace) = Run::new(&plan, &ComposeConfig::default()).execute(partials);
    assert_eq!(root_frame(results).pixels(), want.pixels());
    // One tile → rank 0 owns everything: the sole owner sends no bundle,
    // everybody else exactly one, to it — a 1-byte bitmap, a 4-byte length
    // and the raw tile.
    assert!(sends_on(&trace, 0, TileChannel::Bundle).is_empty());
    for r in 1..p {
        let bundles = sends_on(&trace, r, TileChannel::Bundle);
        assert_eq!(bundles, vec![1 + 4 + 40 * 24 * 2], "rank {r}");
    }
    // The root gathers from itself: no gather message either.
    assert_eq!(trace.message_count(), (p - 1) as u64);
}

#[test]
fn a_clean_frame_sends_the_message_count_the_tuner_prices() {
    // P·(P−1) bundles plus P−1 gather messages, whatever the content —
    // and the tuner's TileOwner candidate (`tile_owner_cost`: the
    // direct-send message set) predicts exactly that many composition
    // messages, so the pricer and the executor agree on the count.
    use rotate_tiling::comm::CostModel;
    use rotate_tiling::core::tune::{sweep, TuneOptions};
    for p in [4usize, 8] {
        let (w, h) = (64, 64);
        let opts = TuneOptions {
            content_fraction: 0.25,
            ..TuneOptions::default()
        };
        let candidates = sweep(p, w * h, &CostModel::PAPER_EXAMPLE, &opts).unwrap();
        let priced = candidates
            .iter()
            .find(|c| matches!(c.method, Method::TileOwner { .. }))
            .expect("sparse content puts tile ownership in the sweep");
        assert_eq!(priced.cost.messages, p * (p - 1));
        let mut blank_but_one = band_partials(p, w, h);
        for partial in &mut blank_but_one[1..] {
            *partial = Image::blank(w, h);
        }
        for partials in [band_partials(p, w, h), blank_but_one] {
            for method in [
                tile_owner(16, 16),
                Method::Puzzle {
                    tiles_x: 16,
                    tiles_y: 16,
                    budget_permille: 0,
                },
            ] {
                let plan = method.plan(p, w, h).unwrap();
                let (results, trace) =
                    Run::new(&plan, &ComposeConfig::default()).execute(partials.clone());
                root_frame(results);
                let sent =
                    |channel| -> usize { (0..p).map(|r| sends_on(&trace, r, channel).len()).sum() };
                assert_eq!(
                    sent(TileChannel::Bundle),
                    priced.cost.messages,
                    "{method:?}"
                );
                assert_eq!(sent(TileChannel::Gather), p - 1, "{method:?}");
                assert_eq!(trace.message_count() as usize, p * (p - 1) + p - 1);
            }
        }
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
fn owner_deaths_keep_their_degraded_info_and_frame_bytes() {
    // A bundle makes a rank's contribution to an owner atomic, which is
    // what the two crash points always were: a step-0 victim sent nothing
    // (the frame is the survivors' fold everywhere), a step-1 victim sent
    // everything (only the tiles it owned are re-folded, from the
    // survivors). Overlapping translucent content, so a wrong merge order
    // or a missing piece changes bytes.
    use rotate_tiling::core::{ComposePlan, DegradedInfo};
    use rotate_tiling::imaging::GrayAlpha8;
    let (w, h) = (32, 32);
    for p in [4usize, 8] {
        let partials: Vec<Image<GrayAlpha8>> = (0..p)
            .map(|r| {
                Image::from_fn(w, h, |x, y| match (x / 3 + y / 2 + r) % 3 {
                    0 => GrayAlpha8::blank(),
                    _ => GrayAlpha8::new((29 * r + x + 3 * y) as u8, (70 + 20 * r + x) as u8),
                })
            })
            .collect();
        let victim = p - 2;
        let full = reference_composite(&partials).unwrap();
        let mut surviving = partials.clone();
        surviving[victim] = Image::blank(w, h);
        let survivors = reference_composite(&surviving).unwrap();
        for method in [
            tile_owner(4, 4),
            Method::Puzzle {
                tiles_x: 4,
                tiles_y: 4,
                budget_permille: 0,
            },
        ] {
            let plan = method.plan(p, w, h).unwrap();
            let ComposePlan::Tiles(tiles) = &plan else {
                unreachable!("{method:?} compiles to a tile plan");
            };
            let owned = tiles.tiles_of(victim);
            for step in [0usize, 1] {
                let mut want = if step == 0 {
                    survivors.clone()
                } else {
                    full.clone()
                };
                for span in owned.iter().flat_map(|&t| tiles.grid.row_spans(t)) {
                    want.insert(span, survivors.span_pixels(span).unwrap())
                        .unwrap();
                }
                let info = DegradedInfo {
                    failed: vec![(victim, step)],
                    lost_contributions: vec![victim],
                    lost_pixels: match step {
                        0 => w * h,
                        _ => tiles.owned_area(victim),
                    },
                    reassigned_spans: owned.len(),
                    root_reassigned_to: None,
                };
                for codec in [CodecKind::Raw, CodecKind::Trle] {
                    let config = ComposeConfig::default()
                        .with_codec(codec)
                        .resilient(true)
                        .with_timeout(Duration::from_millis(500));
                    let (results, trace) = Run::new(&plan, &config)
                        .faults(FaultPlan::none().crash_rank_at_step(victim, step))
                        .execute(partials.clone());
                    let what = format!("{method:?} p={p} step={step} {codec:?}");
                    let mut frames = Vec::new();
                    for (rank, result) in results.into_iter().enumerate() {
                        let out = result.unwrap_or_else(|e| panic!("{what}: rank {rank}: {e}"));
                        if rank != victim {
                            assert_eq!(out.degraded.as_ref(), Some(&info), "{what}: rank {rank}");
                        }
                        frames.extend(out.frame);
                    }
                    assert_eq!(frames.len(), 1, "{what}");
                    assert_eq!(frames[0].pixels(), want.pixels(), "{what}");
                    // The repair round is one bundle per survivor to the
                    // new owner (the next live rank), nothing else.
                    let repair: usize = (0..p)
                        .map(|r| sends_on(&trace, r, TileChannel::RepairBundle).len())
                        .sum();
                    assert_eq!(repair, p - 2, "{what}");
                }
            }
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
