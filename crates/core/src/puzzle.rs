//! Approximate puzzlepiece compositing: tile ownership plus per-scanline
//! segment metadata and an overlap budget.
//!
//! After *Approximate Puzzlepiece Compositing* (Huang, Usher & Pascucci,
//! arXiv:2501.12581): every rank's rendered partial is treated as a set of
//! puzzle pieces — per tile, per scanline, the bounding interval of its
//! non-blank pixels. Ranks exchange this tiny metadata alongside the
//! tile-ownership manifests, and each owner *classifies* every owned tile
//! before touching a payload:
//!
//! * **solo / disjoint** — at most one contributor, or all pairwise
//!   interval intersections empty: the owner *places* each piece (decode +
//!   interval copy, exactly like the gather stage) with **no `over` work
//!   and no ordering constraint at all**. Provably byte-identical to the
//!   reference fold, because blank is a two-sided identity of `over` and
//!   the intervals conservatively cover every non-blank pixel.
//! * **lightly overlapping** — the pairwise interval overlap is within the
//!   plan's `budget_permille` of the tile area: pieces are still placed,
//!   farthest-first, with a nearest-wins rule on conflict pixels. This is
//!   the *approximate* merge — exact wherever the front piece is opaque or
//!   pieces don't truly overlap, and bounded by the translucent tail of
//!   `over` on the (budgeted) conflict pixels otherwise.
//! * **heavily overlapping** — over budget (or metadata missing): fall
//!   back to the exact depth-ordered left fold of the tile-ownership
//!   path, byte-identical to [`rt_imaging::image::reference_composite`].
//!
//! A budget of `0` never takes the approximate branch, so the whole method
//! degenerates to an exact (placement-accelerated) fold. On fully
//! depth-disjoint content every tile classifies solo/disjoint and the
//! output is byte-identical at *any* budget.
//!
//! This is the repo's first method allowed to differ from the baseline;
//! its reconciliation story is therefore *tolerance-gated* (see the
//! `rt-quality` crate) instead of bit-exact. The placement fast path is
//! priced like the gather stage — decode charges, no `over` charges —
//! which is where the measured virtual-clock win over the exact methods
//! comes from.
//!
//! This module holds what is specific to the family — the scan, the
//! segment wire format, the classification and the placement; its plan is
//! a [`TilePlan`] carrying a [`budget`](TilePlan::budget). The
//! protocol around them (manifests, shipping, crash points, repair round,
//! gather) is the tile executor's, [`crate::tile`]: failure handling is
//! therefore *the* tile path's, with the repair round re-shipping segment
//! metadata too, so new owners re-classify with the surviving contributors
//! only.

// The approximate path carries the same no-escape-hatch bar as rt-net and
// rt-pvr from day one: every failure is a typed error, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::exec::{scatter, Scratch, Stage};
use crate::tile::{TileGrid, TilePlan};
use crate::CoreError;
use rt_comm::tag::{self, TileChannel};
use rt_comm::{CommError, RankCtx};
use rt_imaging::pixel::Pixel;
use rt_imaging::Image;
use rt_obs::Phase;
use std::collections::BTreeMap;

/// Per-scanline non-blank bounding intervals of one tile, top to bottom,
/// in tile-local x coordinates (`lo == hi` marks a blank row).
pub(crate) type RowIvals = Vec<(u16, u16)>;

/// Scan the local partial once: per tile, whether it holds any content,
/// and the per-row non-blank bounding intervals.
pub(crate) fn scan_tiles<P: Pixel>(
    local: &Image<P>,
    grid: &TileGrid,
) -> Result<(Vec<bool>, Vec<RowIvals>), CoreError> {
    let nt = grid.tiles();
    let mut have = vec![false; nt];
    let mut segs: Vec<RowIvals> = Vec::with_capacity(nt);
    for (t, have_t) in have.iter_mut().enumerate() {
        let spans = grid.row_spans(t);
        let mut rows: RowIvals = Vec::with_capacity(spans.len());
        for span in &spans {
            let px = local.span_pixels(*span)?;
            match px.iter().position(|p| !p.is_blank()) {
                None => rows.push((0, 0)),
                Some(lo) => {
                    let hi = px.iter().rposition(|p| !p.is_blank()).unwrap_or(lo) + 1;
                    *have_t = true;
                    rows.push((lo as u16, hi as u16));
                }
            }
        }
        segs.push(rows);
    }
    Ok((have, segs))
}

/// The segment-metadata blob this rank sends to `owner`: the row intervals
/// of every non-blank tile in `owner_tiles` (ascending tile order — the
/// receiver parses with the same deterministic order).
pub(crate) fn segments_blob(owner_tiles: &[usize], have: &[bool], segs: &[RowIvals]) -> Vec<u8> {
    let mut blob = Vec::new();
    for &t in owner_tiles {
        if !have[t] {
            continue;
        }
        for &(lo, hi) in &segs[t] {
            blob.extend_from_slice(&lo.to_le_bytes());
            blob.extend_from_slice(&hi.to_le_bytes());
        }
    }
    blob
}

/// Parse `src`'s segment blob for the tiles in `owned` (ascending) whose
/// manifest bit is set, validating interval sanity and exact length.
pub(crate) fn parse_segments_blob(
    grid: &TileGrid,
    owned: &[usize],
    expects: impl Fn(usize) -> bool,
    blob: &[u8],
    src: usize,
) -> Result<BTreeMap<usize, RowIvals>, CoreError> {
    let mut out = BTreeMap::new();
    let mut at = 0usize;
    for &t in owned {
        if !expects(t) {
            continue;
        }
        let rect = grid.rect(t);
        let rows = rect.height();
        let need = rows * 4;
        let Some(chunk) = blob.get(at..at + need) else {
            return Err(CoreError::InvalidSchedule {
                why: format!("rank {src}: puzzle segment metadata truncated at tile {t}"),
            });
        };
        let mut ivals: RowIvals = Vec::with_capacity(rows);
        for row in chunk.chunks_exact(4) {
            let lo = u16::from_le_bytes([row[0], row[1]]);
            let hi = u16::from_le_bytes([row[2], row[3]]);
            if lo > hi || hi as usize > rect.width() {
                return Err(CoreError::InvalidSchedule {
                    why: format!(
                        "rank {src}: puzzle segment interval {lo}..{hi} out of range \
                         for tile {t} ({} wide)",
                        rect.width()
                    ),
                });
            }
            ivals.push((lo, hi));
        }
        out.insert(t, ivals);
        at += need;
    }
    if at != blob.len() {
        return Err(CoreError::InvalidSchedule {
            why: format!(
                "rank {src}: puzzle segment metadata has {} trailing bytes",
                blob.len() - at
            ),
        });
    }
    Ok(out)
}

/// Conservative overlap estimate: the summed width of every pairwise
/// row-interval intersection across the contributors. Zero proves the
/// pieces are depth-disjoint on this tile (intervals over-approximate
/// content); with many deep layers the sum may exceed the tile area.
fn overlap_pixels(ivals: &[&RowIvals]) -> usize {
    let rows = ivals.first().map_or(0, |v| v.len());
    let mut overlap = 0usize;
    for row in 0..rows {
        for (i, a) in ivals.iter().enumerate() {
            let (alo, ahi) = a[row];
            if alo == ahi {
                continue;
            }
            for b in &ivals[i + 1..] {
                let (blo, bhi) = b[row];
                let (lo, hi) = (alo.max(blo), ahi.min(bhi));
                if hi > lo {
                    overlap += (hi - lo) as usize;
                }
            }
        }
    }
    overlap
}

/// Nearest-wins placement of one row piece: the non-blank pixels of `src`
/// replace what is already in `dst`.
fn place_row<P: Pixel>(dst: &mut [P], src: &[P]) {
    for (a, s) in dst.iter_mut().zip(src) {
        if !s.is_blank() {
            *a = s.clone();
        }
    }
}

/// Classify one owned tile and, when the segment metadata allows, resolve
/// it by placement (exact or nearest-wins approximate), writing the
/// finished tile back into `local`. Returns `false` when the tile must take
/// the exact depth-ordered fold instead (overlap beyond the budget, or
/// metadata missing) — the caller owns that path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn place_puzzle_tile<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    tiles: &TilePlan,
    budget_permille: u16,
    local: &mut Image<P>,
    scratch: &mut Scratch<P>,
    t: usize,
    have: &[bool],
    my_segs: &[RowIvals],
    expects: &impl Fn(usize, usize) -> bool,
    remote_segs: &BTreeMap<(usize, usize), RowIvals>,
    payload_ch: TileChannel,
    skip: Option<&BTreeMap<usize, usize>>,
) -> Result<bool, CoreError> {
    let me = ctx.rank();
    // Contributors in depth order (front to back), dead ranks excluded.
    let contributors: Vec<usize> = tiles
        .rank_at_depth
        .iter()
        .copied()
        .filter(|r| !skip.is_some_and(|dead| dead.contains_key(r)))
        .filter(|&r| if r == me { have[t] } else { expects(r, t) })
        .collect();
    if contributors.is_empty() {
        // Nothing anywhere: the owner's own region is already blank.
        return Ok(true);
    }
    if contributors.len() == 1 && contributors[0] == me {
        // Solo-local: the finished tile is the local content, in place.
        ctx.obs_counters(|c| c.tiles_placed += 1);
        return Ok(true);
    }
    // Collect every contributor's intervals; any gap in the metadata
    // (e.g. a sender that died mid-protocol) forces the exact fold.
    let mut ivals: Vec<&RowIvals> = Vec::with_capacity(contributors.len());
    let mut metadata_complete = true;
    for &r in &contributors {
        if r == me {
            ivals.push(&my_segs[t]);
        } else if let Some(iv) = remote_segs.get(&(r, t)) {
            ivals.push(iv);
        } else {
            metadata_complete = false;
            break;
        }
    }
    let area = tiles.grid.area(t);
    let overlap = if metadata_complete {
        overlap_pixels(&ivals)
    } else {
        usize::MAX
    };
    let placeable =
        metadata_complete && (overlap == 0 || overlap * 1000 <= budget_permille as usize * area);
    if !placeable {
        ctx.obs_counters(|c| c.tiles_exact_fallback += 1);
        return Ok(false);
    }
    ctx.obs_counters(|c| {
        if overlap == 0 {
            c.tiles_placed += 1;
        } else {
            c.tiles_approx += 1;
        }
    });

    // Placement: farthest-first interval copies, nearest content winning
    // conflict pixels. No `over` work — priced like the gather stage
    // (decode charges only), which is the method's measured speed win.
    let spans = tiles.grid.row_spans(t);
    let tw = tiles.grid.rect(t).width();
    let mut acc = scratch.take_acc(area, ctx);
    for (&r, iv) in contributors.iter().zip(&ivals).rev() {
        if r == me {
            for (row, span) in spans.iter().enumerate() {
                let (lo, hi) = (iv[row].0 as usize, iv[row].1 as usize);
                if hi > lo {
                    let at = row * tw;
                    place_row(
                        &mut acc[at + lo..at + hi],
                        &local.span_pixels(*span)?[lo..hi],
                    );
                }
            }
            continue;
        }
        let tag = tag::tile(stage.config.frame_tag, payload_ch, t as u64);
        let bytes = match ctx.recv(r, tag) {
            Ok(bytes) => bytes,
            Err(CommError::RankFailed { .. }) if stage.config.resilient => continue,
            Err(e) => return Err(e.into()),
        };
        let dec_started = ctx.obs_start();
        let mut staged = scratch.take_acc(area, ctx);
        stage.unpack(ctx, &bytes, &mut staged)?;
        for (row, &(lo, hi)) in iv.iter().enumerate() {
            let (lo, hi) = (row * tw + lo as usize, row * tw + hi as usize);
            if hi > lo {
                place_row(&mut acc[lo..hi], &staged[lo..hi]);
            }
        }
        scratch.put_acc(staged);
        ctx.obs_span(Phase::Decode, dec_started);
        ctx.obs_counters(|c| c.tiles_recv += 1);
    }
    scatter(local, spans, &acc)?;
    scratch.put_acc(acc);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ComposeConfig, TransportKind};
    use crate::tile::verify_tile_plan;
    use crate::{ComposePlan, Run};
    use rt_compress::CodecKind;
    use rt_imaging::image::reference_composite;
    use rt_imaging::pixel::GrayAlpha8;
    use rt_imaging::synth::band_partials;

    fn puzzle(p: usize, grid: TileGrid, budget: u16) -> ComposePlan {
        ComposePlan::Tiles(TilePlan::puzzle(p, grid, budget).unwrap())
    }

    /// Dense content where every rank covers the full frame — maximal
    /// overlap, so every multi-contributor tile must take the exact fold
    /// under a zero budget.
    fn dense_partials(p: usize, w: usize, h: usize) -> Vec<Image<GrayAlpha8>> {
        (0..p)
            .map(|r| {
                Image::from_fn(w, h, |x, y| {
                    GrayAlpha8::new((r * 31 + x * 3 + y) as u8, (100 + r * 7 + x) as u8)
                })
            })
            .collect()
    }

    #[test]
    fn plan_builds_verifies_and_permutes() {
        let grid = TileGrid::new(24, 18, 4, 3).unwrap();
        let plan = TilePlan::puzzle(5, grid, 50).unwrap();
        assert_eq!(plan.method, "PZ(4x3,b50)");
        verify_tile_plan(&plan).unwrap();
        let pi = plan.permute(&[4, 2, 0, 1, 3]).unwrap();
        verify_tile_plan(&pi).unwrap();
        assert_eq!(pi.budget, Some(50));
        assert_eq!(pi.method, "PZ(4x3,b50)∘π");
        assert!(TilePlan::puzzle(5, grid, 1001).is_err());
        let mut over = plan.clone();
        over.budget = Some(1001);
        assert!(verify_tile_plan(&over).is_err());
    }

    #[test]
    fn scan_intervals_bound_content() {
        let img: Image<GrayAlpha8> = Image::from_fn(8, 4, |x, y| {
            if y == 1 && (2..5).contains(&x) {
                GrayAlpha8::new(9, 200)
            } else {
                GrayAlpha8::blank()
            }
        });
        let grid = TileGrid::new(8, 4, 1, 1).unwrap();
        let (have, segs) = scan_tiles(&img, &grid).unwrap();
        assert!(have[0]);
        assert_eq!(segs[0], vec![(0, 0), (2, 5), (0, 0), (0, 0)]);
    }

    #[test]
    fn segment_blob_roundtrips() {
        let img: Image<GrayAlpha8> = Image::from_fn(12, 6, |x, y| {
            if (x + y) % 3 == 0 {
                GrayAlpha8::new(1, 50)
            } else {
                GrayAlpha8::blank()
            }
        });
        let grid = TileGrid::new(12, 6, 3, 2).unwrap();
        let (have, segs) = scan_tiles(&img, &grid).unwrap();
        let owned: Vec<usize> = (0..grid.tiles()).collect();
        let blob = segments_blob(&owned, &have, &segs);
        let parsed = parse_segments_blob(&grid, &owned, |t| have[t], &blob, 0).unwrap();
        for &t in &owned {
            if have[t] {
                assert_eq!(parsed[&t], segs[t], "tile {t}");
            }
        }
        // A truncated blob is a typed error, not a panic.
        assert!(
            parse_segments_blob(&grid, &owned, |t| have[t], &blob[..blob.len() - 1], 0).is_err()
        );
    }

    #[test]
    fn overlap_estimate_is_zero_iff_disjoint() {
        let a: RowIvals = vec![(0, 4), (0, 0)];
        let b: RowIvals = vec![(4, 8), (2, 6)];
        let c: RowIvals = vec![(3, 5), (0, 0)];
        assert_eq!(overlap_pixels(&[&a, &b]), 0);
        assert_eq!(overlap_pixels(&[&a, &c]), 1);
        assert_eq!(overlap_pixels(&[&a, &b, &c]), 1 + 1);
    }

    #[test]
    fn disjoint_content_is_byte_identical_any_budget() {
        let partials = band_partials(4, 20, 12);
        let want = reference_composite(&partials).unwrap();
        for budget in [0u16, 500, 1000] {
            for codec in CodecKind::ALL {
                let grid = TileGrid::new(20, 12, 4, 3).unwrap();
                let plan = puzzle(4, grid, budget);
                let config = ComposeConfig::default().with_codec(codec);
                let (results, _) = Run::new(&plan, &config).execute(partials.clone());
                let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
                assert_eq!(frame.pixels(), want.pixels(), "b={budget} {codec:?}");
            }
        }
    }

    #[test]
    fn zero_budget_is_byte_identical_on_dense_content() {
        // Full overlap everywhere: with budget 0 every shared tile takes
        // the exact fold, so even maximally overlapping content matches
        // the reference fold byte for byte.
        let partials = dense_partials(4, 16, 16);
        let want = reference_composite(&partials).unwrap();
        for codec in CodecKind::ALL {
            let grid = TileGrid::new(16, 16, 4, 4).unwrap();
            let plan = puzzle(4, grid, 0);
            let config = ComposeConfig::default().with_codec(codec);
            let (results, _) = Run::new(&plan, &config).execute(partials.clone());
            let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
            assert_eq!(frame.pixels(), want.pixels(), "{codec:?}");
        }
    }

    #[test]
    fn tcp_loopback_matches_in_process() {
        let partials = band_partials(4, 16, 8);
        let grid = TileGrid::new(16, 8, 4, 2).unwrap();
        let plan = puzzle(4, grid, 100);
        let inproc = ComposeConfig::default().with_codec(CodecKind::Trle);
        let tcp = inproc.with_transport(TransportKind::TcpLoopback);
        let (r_in, _) = Run::new(&plan, &inproc).execute(partials.clone());
        let (r_tcp, _) = Run::new(&plan, &tcp).execute(partials);
        let f_in = r_in[0].as_ref().unwrap().frame.as_ref().unwrap();
        let f_tcp = r_tcp[0].as_ref().unwrap().frame.as_ref().unwrap();
        assert_eq!(f_in.pixels(), f_tcp.pixels());
    }
}
