//! Approximate puzzlepiece compositing: tile ownership plus per-scanline
//! segment metadata and an overlap budget.
//!
//! After *Approximate Puzzlepiece Compositing* (Huang, Usher & Pascucci,
//! arXiv:2501.12581): every rank's rendered partial is treated as a set of
//! puzzle pieces — per tile, per scanline, the bounding interval of its
//! non-blank pixels. This tiny metadata rides in the tile-ownership
//! bundles, *with* the pieces it describes, and each owner *classifies*
//! every owned tile before touching a codec stream:
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
//! * **heavily overlapping** — over budget: fall back to the exact
//!   depth-ordered left fold of the tile-ownership path, byte-identical
//!   to [`rt_imaging::image::reference_composite`].
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
//! classification and the placement — and never talks to the network; its
//! plan is a [`crate::TilePlan`] carrying a
//! [`budget`](crate::TilePlan::budget). The protocol around them (bundles
//! and their wire format, crash points, repair round, gather) is the tile
//! executor's, [`crate::tile`]: failure handling is therefore *the* tile
//! path's, and since a piece's intervals travel in the same message as its
//! pixels, new owners re-classify with the surviving contributors only and
//! never see one without the other.

use crate::exec::{scatter, Scratch};
use crate::tile::{Piece, TileGrid, TileScan};
use crate::CoreError;
use rt_comm::RankCtx;
use rt_imaging::pixel::Pixel;
use rt_imaging::Image;
use rt_obs::Phase;

/// Per-scanline non-blank bounding intervals of one tile, top to bottom,
/// in tile-local x coordinates (`lo == hi` marks a blank row).
pub type RowIvals = Vec<(u16, u16)>;

/// Scan the local partial once: per tile, whether it holds any content
/// (into `have`), and the per-row non-blank bounding intervals (into
/// `segs`, whose per-tile lists are refilled in place, so a steady frame
/// allocates none). A row the pixel type's blank-slice kernel finds blank
/// is `(0, 0)` without a per-pixel search.
pub(crate) fn scan_tiles<P: Pixel>(
    local: &Image<P>,
    grid: &TileGrid,
    have: &mut Vec<bool>,
    segs: &mut Vec<RowIvals>,
) -> Result<(), CoreError> {
    have.clear();
    segs.resize_with(grid.tiles(), Vec::new);
    for (t, rows) in segs.iter_mut().enumerate() {
        let spans = grid.row_spans(t);
        rows.clear();
        rows.reserve(spans.len());
        for span in spans {
            let px = local.span_pixels(span)?;
            let lo = match P::any_non_blank(px) {
                true => px.iter().position(|p| !p.is_blank()),
                false => None,
            };
            match lo {
                None => rows.push((0, 0)),
                Some(lo) => {
                    let hi = px.iter().rposition(|p| !p.is_blank()).unwrap_or(lo) + 1;
                    rows.push((lo as u16, hi as u16));
                }
            }
        }
        have.push(rows.iter().any(|&(lo, hi)| lo < hi));
    }
    Ok(())
}

/// Conservative overlap estimate: the summed width of every pairwise
/// row-interval intersection across the contributors, each a tile's rows
/// top to bottom. Zero proves the pieces are depth-disjoint on this tile
/// (intervals over-approximate content); with many deep layers the sum may
/// exceed the tile area. A blank row (`lo == hi`) intersects nothing.
fn overlap_pixels<'a>(ivals: impl Iterator<Item = &'a [(u16, u16)]> + Clone) -> usize {
    let mut overlap = 0usize;
    let mut rest = ivals;
    while let Some(a) = rest.next() {
        for b in rest.clone() {
            for (&(alo, ahi), &(blo, bhi)) in a.iter().zip(b) {
                overlap += ahi.min(bhi).saturating_sub(alo.max(blo)) as usize;
            }
        }
    }
    overlap
}

/// Nearest-wins placement of one piece: inside each row's interval, the
/// non-blank pixels of `row_of(row)` — the piece's full tile row, `tw` wide
/// — replace what is already in `acc`.
fn place_piece<'p, P: Pixel>(
    acc: &mut [P],
    tw: usize,
    ivals: &[(u16, u16)],
    row_of: impl Fn(usize) -> Result<&'p [P], CoreError>,
) -> Result<(), CoreError> {
    for (row, &(lo, hi)) in ivals.iter().enumerate() {
        let (lo, hi) = (lo as usize, hi as usize);
        let dst = &mut acc[row * tw + lo..row * tw + hi];
        for (a, s) in dst.iter_mut().zip(&row_of(row)?[lo..hi]) {
            if !s.is_blank() {
                *a = s.clone();
            }
        }
    }
    Ok(())
}

/// Classify owned tile `t` of a puzzle plan and, when its pieces' intervals
/// allow, resolve it by placement (exact or nearest-wins approximate),
/// writing the finished tile back into `local`. `piece_of(r)` is rank `r`'s
/// piece out of its bundle. Returns `false` when the tile must take the
/// exact depth-ordered fold instead (no budget: a tile-ownership plan; or
/// overlap beyond it) — the caller owns that path.
pub(crate) fn place_puzzle_tile<'a, P: Pixel>(
    ctx: &mut RankCtx,
    scan: &TileScan<P>,
    local: &mut Image<P>,
    scratch: &mut Scratch<P>,
    t: usize,
    piece_of: &impl Fn(usize) -> Option<Piece<'a>>,
) -> Result<bool, CoreError> {
    let (stage, tiles) = (scan.stage, scan.plan);
    let Some(budget_permille) = tiles.budget else {
        return Ok(false);
    };
    let own = scan.have[t].then(|| scan.segs[t].as_slice());
    let me = ctx.rank();
    // Contributors in depth order (front to back): their intervals, and the
    // codec stream of every piece but this rank's own, walked as often as
    // needed rather than collected.
    let contributor = |&r: &usize| match r == me {
        true => own.map(|ivals| (ivals, None)),
        false => piece_of(r).map(|piece| (piece.ivals, Some(piece.stream))),
    };
    let contributors = || tiles.rank_at_depth.iter().filter_map(contributor);
    // The round resolves no tile without content, so there is a contributor.
    // Solo-local: the finished tile is the local content, in place.
    let mut first_two = contributors();
    if let (Some((_, None)), None) = (first_two.next(), first_two.next()) {
        return Ok(true);
    }
    let area = tiles.grid.area(t);
    let overlap = overlap_pixels(contributors().map(|(ivals, _)| ivals));
    if overlap * 1000 > budget_permille as usize * area {
        return Ok(false);
    }

    // Placement: farthest-first interval copies, nearest content winning
    // conflict pixels. No `over` work — priced like the gather stage
    // (decode charges only), which is the method's measured speed win.
    let grid = &tiles.grid;
    let tw = grid.rect(t).width();
    let mut acc = scratch.take_acc(area, ctx);
    for (iv, stream) in contributors().rev() {
        let Some(bytes) = stream else {
            place_piece(&mut acc, tw, iv, |row| {
                Ok(local.span_pixels(grid.row_span(t, row))?)
            })?;
            continue;
        };
        let dec_started = ctx.obs_start();
        let mut staged = scratch.take_buf(area, ctx);
        stage.unpack(ctx, bytes, &mut staged)?;
        place_piece(&mut acc, tw, iv, |row| Ok(&staged[row * tw..][..tw]))?;
        scratch.put_acc(staged);
        ctx.obs_span(Phase::Decode, dec_started);
    }
    scatter(local, grid.row_spans(t), &acc)?;
    scratch.put_acc(acc);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ComposeConfig, TransportKind};
    use crate::tile::{verify_tile_plan, TilePlan};
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
        let (mut have, mut segs) = (Vec::new(), Vec::new());
        scan_tiles(&img, &grid, &mut have, &mut segs).unwrap();
        assert_eq!(have, [true]);
        assert_eq!(segs, [vec![(0, 0), (2, 5), (0, 0), (0, 0)]]);
        // The lists are refilled in place: a blank partial on a finer grid
        // leaves no interval of the frame before.
        let blank = Image::from_fn(8, 4, |_, _| GrayAlpha8::blank());
        let grid = TileGrid::new(8, 4, 2, 2).unwrap();
        scan_tiles(&blank, &grid, &mut have, &mut segs).unwrap();
        assert_eq!(have, [false; 4]);
        assert_eq!(segs, vec![vec![(0, 0); 2]; 4]);
    }

    #[test]
    fn segment_blob_roundtrips() {
        // The intervals ride in the tile bundle, with the pieces.
        use crate::tile::{write_bundle_into, Bundles};
        let img: Image<GrayAlpha8> = Image::from_fn(12, 6, |x, y| {
            if (x + y) % 3 == 0 {
                GrayAlpha8::new(1, 50)
            } else {
                GrayAlpha8::blank()
            }
        });
        let grid = TileGrid::new(12, 6, 3, 2).unwrap();
        let (mut have, mut segs) = (Vec::new(), Vec::new());
        scan_tiles(&img, &grid, &mut have, &mut segs).unwrap();
        let owned = 0..grid.tiles();
        let mut bundle = Vec::new();
        let pieces = owned.clone().map(|t| have[t].then_some(t));
        let px = |_, out: &mut Vec<u8>| {
            out.extend_from_slice(b"px");
            Ok(())
        };
        write_bundle_into(&mut bundle, pieces, |t| segs[t].as_slice(), px).unwrap();
        let mut bundles = Bundles::default();
        bundles.reset(1, owned.clone());
        bundles
            .insert(&grid, true, 0, bundle.clone().into())
            .unwrap();
        for t in owned {
            let want = have[t].then(|| Piece {
                ivals: &segs[t],
                stream: b"px",
            });
            assert_eq!(bundles.piece(0, t), want);
        }
        // A truncated bundle is a typed error, not a panic.
        let cut = bundle[..bundle.len() - 1].to_vec();
        assert!(bundles.insert(&grid, true, 0, cut.into()).is_err());
    }

    #[test]
    fn overlap_estimate_is_zero_iff_disjoint() {
        let a: &[(u16, u16)] = &[(0, 4), (0, 0)];
        let b: &[(u16, u16)] = &[(4, 8), (2, 6)];
        let c: &[(u16, u16)] = &[(3, 5), (0, 0)];
        assert_eq!(overlap_pixels([a, b].into_iter()), 0);
        assert_eq!(overlap_pixels([a, c].into_iter()), 1);
        assert_eq!(overlap_pixels([a, b, c].into_iter()), 1 + 1);
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
