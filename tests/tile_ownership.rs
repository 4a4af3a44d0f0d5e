//! Tile-ownership compositing end to end: one bundle per (sender, owner)
//! must stay *exact* (byte-identical to the sequential depth fold and
//! to the direct-send schedule, on both transports), carry nothing but its
//! bitmap for blank content, survive degenerate tile grids, send the
//! message count the tuner prices, and keep the
//! bit-exact | exact-degraded | typed-error trichotomy when an owner
//! rank dies mid-frame, and gather each owner's tiles to every wall shape
//! in ascending tile order, rows top to bottom, cut to the cell.

use proptest::prelude::*;
use rotate_tiling::comm::tag::{tile, tile_channel, wall_slot, TileChannel};
use rotate_tiling::comm::{
    Event, FaultPlan, InProc, RankCtx, RankOptions, RecvRawError, SendRawError, Trace, Transport,
    WireFrame,
};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, ComposeOutput, TransportKind};
use rotate_tiling::core::method::Method;
use rotate_tiling::core::tile::TileGrid;
use rotate_tiling::core::{compose_plan, ComposePlan, CoreError, DisplayWall, Run, Scratch};
use rotate_tiling::imaging::image::reference_composite;
use rotate_tiling::imaging::synth::{band_partials, provenance_partials};
use rotate_tiling::imaging::{GrayAlpha8, Image, Pixel, Provenance, Rect};
use std::sync::{Arc, Mutex};
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
    let config = ComposeConfig::default().with_timeout(Duration::from_millis(500));
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

/// A message as sent: `(from, to, tag, payload)`.
type Sent = (usize, usize, u64, Vec<u8>);

/// An in-process endpoint that keeps a copy of every frame it sends.
struct Tap {
    inner: InProc,
    log: Arc<Mutex<Vec<Sent>>>,
}

impl Transport for Tap {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send_raw(&mut self, to: usize, frame: WireFrame) -> Result<(), SendRawError> {
        let copy = (frame.from, to, frame.tag, frame.payload.as_slice().to_vec());
        self.log.lock().unwrap().push(copy);
        self.inner.send_raw(to, frame)
    }

    fn recv_raw(&mut self, timeout: Duration) -> Result<WireFrame, RecvRawError> {
        self.inner.recv_raw(timeout)
    }
}

/// Run `plan` on `partials` over tapping in-process endpoints: every rank's
/// output, and a copy of every message sent.
fn tapped_run(
    plan: &ComposePlan,
    partials: &[Image<GrayAlpha8>],
    config: &ComposeConfig,
    faults: FaultPlan,
) -> (Vec<Result<ComposeOutput<GrayAlpha8>, CoreError>>, Vec<Sent>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let outputs = std::thread::scope(|s| {
        let ranks: Vec<_> = (InProc::mesh(partials.len()).into_iter().zip(partials))
            .map(|(inner, partial)| {
                let tap = Tap {
                    inner,
                    log: Arc::clone(&log),
                };
                let options = RankOptions {
                    faults: faults.clone(),
                    ..RankOptions::default()
                };
                s.spawn(move || {
                    let mut ctx = RankCtx::over_transport(Box::new(tap), options);
                    let mut scratch = Scratch::default();
                    compose_plan(&mut ctx, plan, partial.clone(), config, &mut scratch)
                })
            })
            .collect();
        ranks.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let sent = std::mem::take(&mut *log.lock().unwrap());
    (outputs, sent)
}

/// The gather messages of a tapped run, sorted: `(from, to, tag, payload)`
/// for every tag of the tile gather at P ranks over `wall`.
fn gather_sends(sent: Vec<Sent>, p: usize, wall: DisplayWall) -> Vec<Sent> {
    let tags: Vec<u64> = (0..wall.count())
        .flat_map(|d| (0..p).map(move |o| gather_tag(d, o)))
        .collect();
    let mut sent: Vec<Sent> = sent.into_iter().filter(|s| tags.contains(&s.2)).collect();
    sent.sort();
    sent
}

fn gather_tag(d: usize, o: usize) -> u64 {
    tile(0, TileChannel::Gather, wall_slot(d, o) as u64)
}

/// The gather message an owner sends a cell: a bitmap over its `tiles`
/// (ascending) that meet `cell`, bit set where `content(t)`, then the raw
/// pixels of `frame` on the set tiles' rows cut to the cell; `None` when no
/// tile meets the cell.
fn gather_message(
    frame: &Image<GrayAlpha8>,
    grid: &TileGrid,
    tiles: impl Iterator<Item = usize>,
    cell: Rect,
    content: impl Fn(usize) -> bool,
) -> Option<Vec<u8>> {
    let meets: Vec<usize> = tiles
        .filter(|&t| !grid.rect(t).intersect(&cell).is_empty())
        .collect();
    let mut bytes = vec![0u8; meets.len().div_ceil(8)];
    let mut pixels = Vec::new();
    for (i, &t) in meets.iter().enumerate().filter(|(_, &t)| content(t)) {
        bytes[i / 8] |= 1 << (i % 8);
        let r = grid.rect(t).intersect(&cell);
        for y in r.y0..r.y1 {
            pixels.extend_from_slice(&frame.pixels()[y * grid.width + r.x0..][..r.width()]);
        }
    }
    if !pixels.is_empty() {
        bytes.extend(CodecKind::Raw.build::<GrayAlpha8>().encode(&pixels).bytes);
    }
    (!meets.is_empty()).then_some(bytes)
}

/// Whether any of `partials` draws on tile `t`.
fn drawn(partials: &[Image<GrayAlpha8>], grid: &TileGrid, t: usize) -> bool {
    let r = grid.rect(t);
    partials.iter().any(|img| {
        (r.y0..r.y1).any(|y| (r.x0..r.x1).any(|x| !img.pixels()[y * grid.width + x].is_blank()))
    })
}

/// Run a tile plan (raw codec) gathered to `wall`, with `victim` crashing
/// after its first round, and check the gather: every live cell is the
/// expected composite cut to that cell, bit for bit, and each gather
/// message is a bitmap over its owner's (post-repair) tiles that meet the
/// cell, ascending, set where some contributing partial drew on the tile,
/// then the raw pixels of exactly the set tiles ∩ the cell, each tile's
/// rows top to bottom.
fn check_tile_gather(
    p: usize,
    puzzle: bool,
    (w, h): (usize, usize),
    (tiles_x, tiles_y): (usize, usize),
    wall: DisplayWall,
    victim: Option<usize>,
) {
    let what = format!(
        "P={p} puzzle={puzzle} {w}x{h} grid {tiles_x}x{tiles_y} {wall:?} victim {victim:?}"
    );
    let method = match puzzle {
        false => tile_owner(tiles_x, tiles_y),
        true => Method::Puzzle {
            tiles_x,
            tiles_y,
            budget_permille: 0,
        },
    };
    let plan = method.plan(p, w, h).unwrap();
    let ComposePlan::Tiles(tiles) = &plan else {
        unreachable!("{what}: a tile plan");
    };
    // Overlapping translucent content with blank holes, so a wrong merge
    // order, a lost piece or a misplaced row changes bytes, and a corner
    // nobody draws on, so some tiles hold no content anywhere.
    let partials: Vec<Image<GrayAlpha8>> = (0..p)
        .map(|r| {
            Image::from_fn(w, h, |x, y| match (x / 2 + y + 2 * r) % 4 {
                _ if x >= 6 && y >= 5 => GrayAlpha8::blank(),
                0 => GrayAlpha8::blank(),
                _ => GrayAlpha8::new((37 * r + 5 * x + y) as u8, (60 + 30 * r + 7 * x) as u8),
            })
        })
        .collect();
    // A step-1 victim's owned tiles are re-folded from the survivors by
    // the next live rank; everything else is the full fold.
    let mut want = reference_composite(&partials).unwrap();
    let mut owner_of = tiles.owner_of.clone();
    let mut surviving = partials.clone();
    if let Some(v) = victim {
        surviving[v] = Image::blank(w, h);
        let survivors = reference_composite(&surviving).unwrap();
        for t in tiles.tiles_of(v) {
            owner_of[t] = (v + 1) % p;
            for span in tiles.grid.row_spans(t) {
                want.insert(span, survivors.span_pixels(span).unwrap())
                    .unwrap();
            }
        }
    }
    let content = |t: usize| match Some(tiles.owner_of[t]) == victim {
        true => drawn(&surviving, &tiles.grid, t),
        false => drawn(&partials, &tiles.grid, t),
    };

    let faults = match victim {
        Some(v) => FaultPlan::none().crash_rank_at_step(v, 1),
        None => FaultPlan::none(),
    };
    let config = ComposeConfig::default()
        .with_timeout(Duration::from_secs(5))
        .with_display_wall(wall);
    let (outputs, sent) = tapped_run(&plan, &partials, &config, faults);

    let mut expected = Vec::new();
    for d in 0..wall.count() {
        let drank = wall.rank_of(d);
        if Some(drank) == victim {
            continue;
        }
        let cell = wall.cell_rect(d, w, h);
        let out = outputs[drank]
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let got = out
            .frame
            .as_ref()
            .unwrap_or_else(|| panic!("{what}: cell {d} missing"));
        let mut cut = Vec::with_capacity(cell.area());
        for y in cell.y0..cell.y1 {
            cut.extend_from_slice(&want.pixels()[y * w + cell.x0..y * w + cell.x1]);
        }
        assert_eq!(got.pixels(), &cut[..], "{what}: cell {d}");
        for o in (0..p).filter(|&o| o != drank && Some(o) != victim) {
            let owned = (0..tiles.grid.tiles()).filter(|&t| owner_of[t] == o);
            if let Some(bytes) = gather_message(&want, &tiles.grid, owned, cell, content) {
                expected.push((o, drank, gather_tag(d, o), bytes));
            }
        }
    }
    expected.sort();
    assert_eq!(
        gather_sends(sent, p, wall),
        expected,
        "{what}: gather messages"
    );
}

/// TO at P = 4 over a 4×4 grid of 4×4-pixel tiles, content on tiles 0, 5, 6
/// and 10 only: each owner (`t % 4`) sends the root its bitmap over its four
/// tiles and one raw stream of exactly its tiles with content — owner 3,
/// with none, its bitmap alone. With every partial blank, every message is
/// its bitmap alone.
#[test]
fn the_tile_gather_ships_only_tiles_with_content() {
    let (p, side) = (4, 16);
    let plan = tile_owner(4, 4).plan(p, side, side).unwrap();
    let grid = TileGrid::new(side, side, 4, 4).unwrap();
    // Rank r draws on the tiles `drawn[r]` lists, translucent, so tile 10
    // (everyone's) folds four layers.
    let drawn: [&[usize]; 4] = [&[0, 10], &[5, 10], &[5, 10], &[6, 10]];
    let partials: Vec<Image<GrayAlpha8>> = (0..p)
        .map(|r| {
            Image::from_fn(side, side, |x, y| {
                match drawn[r].contains(&((y / 4) * 4 + x / 4)) {
                    true => GrayAlpha8::new((20 * r + x + y) as u8, (90 + 9 * r) as u8),
                    false => GrayAlpha8::blank(),
                }
            })
        })
        .collect();
    let want = reference_composite(&partials).unwrap();
    let config = ComposeConfig::default();
    let (outputs, sent) = tapped_run(&plan, &partials, &config, FaultPlan::none());
    let frame = outputs[0].as_ref().unwrap().frame.as_ref().unwrap();
    assert_eq!(frame.pixels(), want.pixels());
    let raw = |tiles: &[usize]| {
        let rows = tiles.iter().flat_map(|&t| grid.row_spans(t));
        let pixels: Vec<GrayAlpha8> = rows
            .flat_map(|row| want.span_pixels(row).unwrap().to_vec())
            .collect();
        CodecKind::Raw.build::<GrayAlpha8>().encode(&pixels).bytes
    };
    // Owner 1 holds tiles 1, 5, 9, 13; owner 2 tiles 2, 6, 10, 14.
    let expected: Vec<Sent> = vec![
        (1, 0, gather_tag(0, 1), [vec![0b0010], raw(&[5])].concat()),
        (
            2,
            0,
            gather_tag(0, 2),
            [vec![0b0110], raw(&[6, 10])].concat(),
        ),
        (3, 0, gather_tag(0, 3), vec![0]),
    ];
    assert_eq!(gather_sends(sent, p, DisplayWall::root(0)), expected);

    let blank = vec![Image::blank(side, side); p];
    let (outputs, sent) = tapped_run(&plan, &blank, &config, FaultPlan::none());
    let frame = outputs[0].as_ref().unwrap().frame.as_ref().unwrap();
    assert!(frame.pixels().iter().all(|px| px.is_blank()));
    let bitmaps: Vec<Vec<u8>> = gather_sends(sent, p, DisplayWall::root(0))
        .into_iter()
        .map(|(.., bytes)| bytes)
        .collect();
    assert_eq!(bitmaps, vec![vec![0]; 3]);
}

/// A display rank handed a hostile gather message refuses it with a typed
/// error, never a panic and never a cell read as blank. Rank 1 of a P = 2
/// TO plan is played by hand: it sends the root a blank bundle, then the
/// message under test. Its tiles are two 2-pixel columns (eight row
/// segments, staged) or one band of full rows (one segment, unpacked in
/// place); the root draws on its own tile, so every frame has content.
#[test]
fn a_hostile_gather_message_is_a_typed_error() {
    let (w, h) = (8, 4);
    let px = |n: usize| vec![7u8; 2 * n];
    // (grid, label, message); a label naming a pixel expects a codec error.
    let cases: Vec<((usize, usize), &str, Vec<u8>)> = vec![
        ((4, 1), "empty: short bitmap", vec![]),
        ((4, 1), "bit past the last tile", vec![0b100]),
        (
            (4, 1),
            "stream a pixel short",
            [vec![0b11], px(15)].concat(),
        ),
        ((4, 1), "stream a pixel long", [vec![0b11], px(17)].concat()),
        ((4, 1), "blank bitmap, trailing bytes", vec![0, 9]),
        ((1, 2), "one segment: short bitmap", vec![]),
        ((1, 2), "one segment: bit past", vec![0b10]),
        (
            (1, 2),
            "one segment: a pixel short",
            [vec![1], px(15)].concat(),
        ),
        (
            (1, 2),
            "one segment: a pixel long",
            [vec![1], px(17)].concat(),
        ),
    ];
    for ((tiles_x, tiles_y), what, message) in cases {
        let plan = tile_owner(tiles_x, tiles_y).plan(2, w, h).unwrap();
        let partial = Image::from_fn(w, h, |x, y| GrayAlpha8::new((x + y) as u8, 200));
        let config = ComposeConfig::default().with_timeout(Duration::from_secs(5));
        let mut mesh = InProc::mesh(2).into_iter();
        let (root, fake) = (mesh.next().unwrap(), mesh.next().unwrap());
        let result = std::thread::scope(|s| {
            let root = s.spawn(|| {
                let mut ctx = RankCtx::over_transport(Box::new(root), RankOptions::default());
                let mut scratch = Scratch::default();
                compose_plan(&mut ctx, &plan, partial.clone(), &config, &mut scratch)
            });
            let mut ctx = RankCtx::over_transport(Box::new(fake), RankOptions::default());
            ctx.send(0, tile(0, TileChannel::Bundle, 1), vec![0u8])
                .unwrap();
            ctx.send(0, gather_tag(0, 1), message.clone()).unwrap();
            root.join()
        });
        match result {
            // A bad bitmap or framing is the gather's verdict; a stream that
            // does not fill the set tiles exactly, the codec's.
            Ok(Err(CoreError::InvalidSchedule { .. })) if !what.contains("pixel") => {}
            Ok(Err(CoreError::Codec(_))) if what.contains("pixel") => {}
            Ok(other) => panic!("{what}: expected a typed error, got {other:?}"),
            Err(_) => panic!("{what}: the root panicked"),
        }
    }
}

#[test]
fn the_tile_gather_ships_each_owners_tiles_in_order_on_every_wall_shape() {
    // Grids that do not divide 13x11, one with more tile columns than
    // pixel columns and one with more tile rows than pixel rows (empty
    // tiles), and a 2x2 grid whose tiles are wider than a 3x1 wall's
    // cells.
    let grids = [(3, 2), (16, 3), (2, 12), (2, 2)];
    let walls = [(1, 1), (2, 2), (3, 1)];
    for p in 2..=6 {
        for puzzle in [false, true] {
            for &grid in &grids {
                for &(cols, rows) in walls.iter().filter(|(c, r)| c * r <= p) {
                    let wall = DisplayWall::new(cols, rows).with_base((p - cols * rows).min(1));
                    // The victim is the first rank past the wall, a display
                    // rank only when the wall takes every rank.
                    let victim = (wall.base + wall.count()) % p;
                    for victim in [None, Some(victim)] {
                        check_tile_gather(p, puzzle, (13, 11), grid, wall, victim);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn the_tile_gather_is_exact_on_random_shapes(
        p in 2usize..=6,
        puzzle in 0usize..2,
        w in 1usize..=20,
        h in 1usize..=14,
        tiles_x in 1usize..=24,
        tiles_y in 1usize..=18,
        shape in 0usize..3,
        base in 0usize..6,
        victim in 0usize..8,
    ) {
        let (cols, rows) = [(1, 1), (2, 2), (3, 1)][shape];
        let (cols, rows) = if cols * rows > p { (1, 1) } else { (cols, rows) };
        let wall = DisplayWall::new(cols, rows).with_base(base % (p - cols * rows + 1));
        let victim = (victim < p).then_some(victim);
        check_tile_gather(p, puzzle == 1, (w, h), (tiles_x, tiles_y), wall, victim);
    }
}
