//! Tile-ownership compositing: sparse, step-free, direct-to-owner.
//!
//! Every schedule-driven method in this repository exchanges
//! frame-spanning block halves through the paper's `ceil(log2 P)`-ish step
//! structure. The tile-ownership method (after the Direct Send Compositing
//! / DFB family) removes the step barrier entirely:
//!
//! 1. the final frame is statically partitioned into a [`TileGrid`] of
//!    rectangular tiles, each tile assigned an owner rank by the
//!    [`TilePlan`]'s owner map;
//! 2. each rank scans its rendered partial once, then encodes **only its
//!    non-blank tiles** and sends every other owner ONE self-describing
//!    *bundle* ([`write_bundle`]): a bitmap over that owner's tiles, then
//!    the set tiles' codec streams, each behind its length — `P·(P−1)`
//!    messages a frame whatever the content, and a fully blank rank's
//!    bundles are the bitmap alone;
//! 3. each owner receives the `P−1` bundles in rank order and parses them
//!    with one exact-length parser ([`parse_bundle`]); a rank's
//!    contribution to an owner is therefore atomic — all of it arrives, or
//!    the rank is dead for that owner;
//! 4. each owner composites every owned tile with a strict front-to-back
//!    left fold from a blank accumulator, in depth order — **the exact
//!    association order of [`rt_imaging::image::reference_composite`]**,
//!    so the result is byte-identical to the sequential reference on any
//!    content, not merely algebraically equivalent.
//!
//! Point 4 is load-bearing: saturating integer `over` is not associative
//! at the byte level, so two *different* parallel association orders can
//! legitimately differ in low bits. The left fold sidesteps the issue —
//! every tile/owner/permutation configuration reproduces the reference
//! fold exactly (blank is a two-sided identity of `over`, so skipping
//! blank tiles is also exact).
//!
//! The method slots into the existing matrix end to end: both transports,
//! fault trichotomy (bit-exact | exact-degraded | typed error) with
//! tile-granular repair, observability counters and virtual-clock replay.
//! Its gather is the schedule executor's ([`crate::exec`]'s `finish`) over
//! the owned tiles' row spans, so the [`crate::DisplayWall`] scenario comes
//! for free.
//!
//! The approximate puzzlepiece family ([`crate::puzzle`]) runs through the
//! same executor: its plan is a [`TilePlan`] with an overlap
//! [`budget`](TilePlan::budget), and the only differences — a bundle also
//! carries the per-scanline intervals of its tiles, owners *place* tiles
//! within the budget instead of folding them — are two branches of the
//! round below.

use crate::exec::{
    compose_schedule, finish, scatter, ComposeConfig, ComposeOutput, Scratch, Stage,
};
use crate::puzzle::{place_puzzle_tile, scan_tiles, RowIvals};
use crate::repair::{agree_on_failures, DegradedInfo};
use crate::schedule::{check_permutation, verify_schedule, Schedule};
use crate::CoreError;
use rt_comm::tag::{self, Extents, TileChannel};
use rt_comm::{CommError, ComputeKind, Mark, RankCtx};
use rt_compress::OverDir;
use rt_imaging::pixel::Pixel;
use rt_imaging::{Image, Rect, Span};
use rt_obs::Phase;
use std::collections::BTreeMap;

/// A static partition of a `width × height` frame into `tiles_x × tiles_y`
/// rectangular tiles, row-major (tile `t` is column `t % tiles_x`, row
/// `t / tiles_x`).
///
/// Both axes split evenly with the remainder spread like
/// [`Span::split_even`]; a tile count exceeding an axis produces empty
/// tiles, which every phase skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Tile columns.
    pub tiles_x: usize,
    /// Tile rows.
    pub tiles_y: usize,
}

impl TileGrid {
    /// A `tiles_x × tiles_y` grid over a `width × height` frame.
    ///
    /// Errors with [`CoreError::UnsupportedShape`] when either tile count
    /// is zero.
    pub fn new(
        width: usize,
        height: usize,
        tiles_x: usize,
        tiles_y: usize,
    ) -> Result<Self, CoreError> {
        if tiles_x == 0 || tiles_y == 0 {
            return Err(CoreError::UnsupportedShape {
                method: "tile-owner",
                why: format!("grid must have tiles, got {tiles_x}x{tiles_y}"),
            });
        }
        Ok(Self {
            width,
            height,
            tiles_x,
            tiles_y,
        })
    }

    /// Total tile count.
    pub fn tiles(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// Frame-space rectangle of tile `t`.
    pub fn rect(&self, t: usize) -> Rect {
        let (tx, ty) = (t % self.tiles_x, t / self.tiles_x);
        Rect::new(
            tx * self.width / self.tiles_x,
            ty * self.height / self.tiles_y,
            (tx + 1) * self.width / self.tiles_x,
            (ty + 1) * self.height / self.tiles_y,
        )
    }

    /// Pixel area of tile `t`.
    pub fn area(&self, t: usize) -> usize {
        self.rect(t).area()
    }

    /// The flat frame-space row spans of tile `t`, top to bottom.
    pub fn row_spans(&self, t: usize) -> Vec<Span> {
        let r = self.rect(t);
        (r.y0..r.y1)
            .map(|y| Span::new(y * self.width + r.x0, r.width()))
            .collect()
    }
}

/// A tile-ownership composition plan: the grid, the owner map, and the
/// depth order — the tile path's counterpart of a [`Schedule`]. With an
/// overlap [`budget`](TilePlan::budget) it is an approximate puzzlepiece
/// plan (see [`crate::puzzle`]).
///
/// Plans are built in *depth coordinates* (rank `d` renders the partial at
/// depth position `d`, like every schedule) and relabeled onto physical
/// ranks with [`TilePlan::permute`] when the view changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePlan {
    /// Number of ranks.
    pub p: usize,
    /// The static frame partition.
    pub grid: TileGrid,
    /// Owner (physical) rank of each tile.
    pub owner_of: Vec<usize>,
    /// Physical rank whose partial sits at each depth position (0 =
    /// nearest the viewer). Identity until [`TilePlan::permute`].
    pub rank_at_depth: Vec<usize>,
    /// Display name, e.g. `TO(16x16)` or `PZ(16x16,b50)`.
    pub method: String,
    /// `None` composites every tile with the exact fold (tile ownership).
    /// `Some(‰)` is the puzzlepiece family's per-tile overlap budget in
    /// permille of the tile area: ranks also exchange per-scanline segment
    /// metadata and owners *place* the pieces of a tile whose estimated
    /// contributor overlap is within the budget; above it the tile takes
    /// the exact fold. `Some(0)` is fully conservative (byte-identical to
    /// the reference everywhere).
    pub budget: Option<u16>,
}

impl TilePlan {
    /// A plan distributing tiles round-robin (`owner = t % p`) with the
    /// identity depth order.
    pub fn new(p: usize, grid: TileGrid) -> Result<Self, CoreError> {
        if p == 0 {
            return Err(CoreError::UnsupportedShape {
                method: "tile-owner",
                why: "at least one rank required".into(),
            });
        }
        Ok(Self {
            p,
            grid,
            owner_of: (0..grid.tiles()).map(|t| t % p).collect(),
            rank_at_depth: (0..p).collect(),
            method: format!("TO({}x{})", grid.tiles_x, grid.tiles_y),
            budget: None,
        })
    }

    /// An approximate puzzlepiece plan: [`TilePlan::new`] plus the per-tile
    /// overlap budget, in permille of the tile area (at most 1000).
    pub fn puzzle(p: usize, grid: TileGrid, budget_permille: u16) -> Result<Self, CoreError> {
        if let Some(why) = puzzle_budget_problem(&grid, budget_permille) {
            return Err(CoreError::UnsupportedShape {
                method: "puzzle",
                why,
            });
        }
        let mut plan = Self::new(p, grid)?;
        plan.budget = Some(budget_permille);
        plan.method = format!("PZ({}x{},b{budget_permille})", grid.tiles_x, grid.tiles_y);
        Ok(plan)
    }

    /// Relabel the plan onto physical ranks: `rank_of_depth[d]` is the
    /// physical rank whose partial sits at depth position `d`. Owners move
    /// with the relabeling so the tile distribution stays balanced; the
    /// budget rides along unchanged.
    pub fn permute(&self, rank_of_depth: &[usize]) -> Result<TilePlan, CoreError> {
        check_permutation(self.p, rank_of_depth)?;
        let mut out = self.clone();
        for owner in &mut out.owner_of {
            *owner = rank_of_depth[*owner];
        }
        for slot in &mut out.rank_at_depth {
            *slot = rank_of_depth[*slot];
        }
        out.method = format!("{}∘π", self.method);
        Ok(out)
    }

    /// Tiles owned by `rank` (ascending), skipping empty tiles.
    pub fn tiles_of(&self, rank: usize) -> Vec<usize> {
        (0..self.grid.tiles())
            .filter(|&t| self.owner_of[t] == rank && self.grid.area(t) > 0)
            .collect()
    }

    /// Pixels finally owned by `rank`.
    pub fn owned_area(&self, rank: usize) -> usize {
        self.tiles_of(rank).iter().map(|&t| self.grid.area(t)).sum()
    }
}

/// Why `budget_permille` cannot be a puzzle budget over `grid`, if it
/// cannot: it is a share of the tile area, and the segment metadata ships
/// x coordinates as `u16`.
fn puzzle_budget_problem(grid: &TileGrid, budget_permille: u16) -> Option<String> {
    if budget_permille > 1000 {
        return Some(format!(
            "overlap budget {budget_permille}‰ exceeds 1000‰ (the tile area)"
        ));
    }
    (grid.width > u16::MAX as usize).then(|| {
        format!(
            "frame width {} overflows the u16 segment coordinates",
            grid.width
        )
    })
}

/// Check a [`TilePlan`]'s invariants: the owner map covers every tile with
/// an in-range rank, the depth order is a permutation, the tiles cover
/// every frame pixel exactly once, and a puzzle budget stays within the
/// tile area with segment coordinates that fit their `u16` wire format —
/// the tile path's counterpart of [`verify_schedule`].
pub fn verify_tile_plan(plan: &TilePlan) -> Result<(), CoreError> {
    let nt = plan.grid.tiles();
    if let Some(why) = plan
        .budget
        .and_then(|budget| puzzle_budget_problem(&plan.grid, budget))
    {
        return Err(CoreError::InvalidSchedule { why });
    }
    if plan.owner_of.len() != nt {
        return Err(CoreError::InvalidSchedule {
            why: format!(
                "owner map has {} entries for {nt} tiles",
                plan.owner_of.len()
            ),
        });
    }
    if let Some(&bad) = plan.owner_of.iter().find(|&&r| r >= plan.p) {
        return Err(CoreError::InvalidSchedule {
            why: format!("tile owner {bad} out of range for {} ranks", plan.p),
        });
    }
    check_permutation(plan.p, &plan.rank_at_depth)?;
    let mut covered = vec![0u32; plan.grid.width * plan.grid.height];
    for t in 0..nt {
        for span in plan.grid.row_spans(t) {
            for c in &mut covered[span.range()] {
                *c += 1;
            }
        }
    }
    if covered.iter().any(|&c| c != 1) {
        return Err(CoreError::InvalidSchedule {
            why: format!(
                "grid {}x{} does not tile the {}x{} frame exactly once",
                plan.grid.tiles_x, plan.grid.tiles_y, plan.grid.width, plan.grid.height
            ),
        });
    }
    Ok(())
}

/// A composition plan of either family — span schedules (flat or
/// hierarchical) or tile ownership (exact or puzzlepiece) — so pipelines,
/// benches and streams dispatch on one value.
#[derive(Debug, Clone, PartialEq)]
pub enum ComposePlan {
    /// A step-structured span schedule ([`crate::method::Method`]'s
    /// schedule-compiling variants).
    Schedule(Schedule),
    /// A tile-ownership plan, exact or (with a budget) puzzlepiece.
    Tiles(TilePlan),
}

impl ComposePlan {
    /// Number of ranks the plan was built for.
    pub fn p(&self) -> usize {
        match self {
            ComposePlan::Schedule(s) => s.p,
            ComposePlan::Tiles(t) => t.p,
        }
    }

    /// Pixels per partial image.
    pub fn image_len(&self) -> usize {
        match self {
            ComposePlan::Schedule(s) => s.image_len,
            ComposePlan::Tiles(t) => t.grid.width * t.grid.height,
        }
    }

    /// Display name of the compiled method.
    pub fn method_name(&self) -> &str {
        match self {
            ComposePlan::Schedule(s) => &s.method,
            ComposePlan::Tiles(t) => &t.method,
        }
    }

    /// Verify the plan's invariants ([`verify_schedule`] or
    /// [`verify_tile_plan`]).
    pub fn verify(&self) -> Result<(), CoreError> {
        match self {
            ComposePlan::Schedule(s) => verify_schedule(s),
            ComposePlan::Tiles(t) => verify_tile_plan(t),
        }
    }

    /// Relabel the plan onto physical ranks: `rank_of_depth[d]` is the
    /// physical rank whose partial sits at depth position `d` (0 = nearest)
    /// — [`Schedule::permute`] or [`TilePlan::permute`]. Anything but a
    /// permutation of `0..p` is a typed error.
    pub fn permute(&self, rank_of_depth: &[usize]) -> Result<ComposePlan, CoreError> {
        Ok(match self {
            ComposePlan::Schedule(s) => ComposePlan::Schedule(s.permute(rank_of_depth)?),
            ComposePlan::Tiles(t) => ComposePlan::Tiles(t.permute(rank_of_depth)?),
        })
    }
}

/// Reject a plan that was not built for this machine and this image —
/// the one shape check in front of every executor.
fn check_shape<P: Pixel>(
    ctx: &RankCtx,
    p: usize,
    image_len: usize,
    dims: Option<(usize, usize)>,
    local: &Image<P>,
) -> Result<(), CoreError> {
    if p != ctx.size() {
        return Err(CoreError::InvalidSchedule {
            why: format!("plan built for {p} ranks, machine has {}", ctx.size()),
        });
    }
    // Span schedules know only the pixel count; tile plans the frame
    // geometry.
    let fits = match dims {
        Some(dims) => dims == (local.width(), local.height()),
        None => image_len == local.len(),
    };
    if !fits {
        return Err(CoreError::InvalidSchedule {
            why: format!(
                "plan built for {image_len} pixels (geometry {dims:?}), image is {}x{}",
                local.width(),
                local.height()
            ),
        });
    }
    Ok(())
}

/// Execute a plan of any family on this rank, with `local` as the rank's
/// rendered partial — **the** per-rank entry point: it checks the plan
/// against the machine and the image once, builds the codec once, and
/// dispatches to the family's executor. Depth order is rank order unless
/// the plan was permuted (see `rt-pvr`). To run a whole machine in one
/// call, use [`crate::Run`].
///
/// Crash semantics (resilient mode) for the tile families: a fault-plan
/// step of `0` fails the rank before any traffic (its whole contribution
/// is lost), `1` after compositing but before the gather (only its *owned
/// tiles* are lost; tiles it shipped to live owners survive). Either
/// triggers the deterministic repair round that reassigns dead owners'
/// tiles to the next live rank and re-collects the survivors' content for
/// them. Span schedules crash at their own step indices (see
/// [`crate::repair()`]).
pub fn compose_plan<P: Pixel>(
    ctx: &mut RankCtx,
    plan: &ComposePlan,
    local: Image<P>,
    config: &ComposeConfig,
    scratch: &mut Scratch<P>,
) -> Result<ComposeOutput<P>, CoreError> {
    let dims = match plan {
        ComposePlan::Schedule(_) => None,
        ComposePlan::Tiles(t) => Some((t.grid.width, t.grid.height)),
    };
    check_shape(ctx, plan.p(), plan.image_len(), dims, &local)?;
    if let Some(wall) = config.display {
        wall.validate(plan.p())?;
    }
    // An oversized plan is a typed error here, before any message is sent,
    // instead of a tag that aliases another frame's or another step's.
    tag_extents(plan, config)
        .check()
        .map_err(|why| CoreError::InvalidSchedule { why })?;
    let stage = Stage::new(config);
    match plan {
        ComposePlan::Schedule(s) => compose_schedule(ctx, &stage, s, local, scratch),
        ComposePlan::Tiles(t) => compose_tiles(ctx, &stage, t, local, scratch),
    }
}

/// The largest values this compose call will write into the bounded fields
/// of a message tag ([`rt_comm::tag`]), for the width check at entry.
fn tag_extents(plan: &ComposePlan, config: &ComposeConfig) -> Extents {
    let p = plan.p();
    let mut extents = match plan {
        ComposePlan::Schedule(s) => schedule_tag_extents(s, config),
        // The low field carries a sending rank or a gather slot.
        ComposePlan::Tiles(_) => Extents {
            low: p - 1,
            ..Extents::default()
        },
    };
    if let Some(wall) = config.display.filter(|_| config.gather) {
        extents.wall = Some((wall.count() - 1, p - 1));
    }
    extents
}

/// What a span schedule writes: its steps and the gather one past them,
/// span starts and root-gather slots in the low field, and — when failures
/// may be repaired — the coordinates of the repair plan's fetches.
fn schedule_tag_extents(schedule: &Schedule, config: &ComposeConfig) -> Extents {
    Extents {
        step: schedule.steps.len(),
        low: schedule.image_len.max(schedule.p).saturating_sub(1),
        wall: None,
        // An entry fetches from distinct holders, and a repair plan has at
        // most one entry per piece the final spans are cut into, whose
        // edges are all edges of transfer spans: fewer than this many.
        repair: config.resilient.then(|| {
            let transfers: usize = schedule.steps.iter().map(|s| s.transfers.len()).sum();
            let entries = schedule.final_owners.len() + 2 * transfers;
            (entries, schedule.p.saturating_sub(1))
        }),
    }
}

/// One tile's share of a bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piece<'a> {
    /// The sender's per-row non-blank intervals on the tile (puzzle plans;
    /// empty for tile ownership).
    pub ivals: RowIvals,
    /// The tile's pixels, as the codec wrote them.
    pub stream: &'a [u8],
}

/// Write one bundle — everything a rank contributes to one owner in one
/// round. `pieces[i]` is its share of the owner's `i`-th tile of the round
/// (ascending), `None` where it holds no content. Wire layout:
///
/// 1. a bitmap over the owner's tiles, bit `i` set when `pieces[i]` is;
/// 2. for each set tile, its row intervals as `(lo, hi)` `u16` LE pairs
///    (puzzle plans; nothing otherwise);
/// 3. for each set tile, a `u32` LE length and that many codec bytes.
pub fn write_bundle(pieces: &[Option<Piece<'_>>]) -> Result<Vec<u8>, CoreError> {
    let carried = |piece: &Piece| 4 * piece.ivals.len() + 4 + piece.stream.len();
    let mut bytes = vec![0u8; pieces.len().div_ceil(8)];
    bytes.reserve_exact(pieces.iter().flatten().map(carried).sum());
    for (i, piece) in pieces.iter().enumerate() {
        if piece.is_some() {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    for &(lo, hi) in pieces.iter().flatten().flat_map(|piece| &piece.ivals) {
        bytes.extend_from_slice(&lo.to_le_bytes());
        bytes.extend_from_slice(&hi.to_le_bytes());
    }
    for piece in pieces.iter().flatten() {
        let len = u32::try_from(piece.stream.len()).map_err(|_| CoreError::InvalidSchedule {
            why: format!(
                "a {}-byte tile stream overflows the bundle's u32 length",
                piece.stream.len()
            ),
        })?;
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(piece.stream);
    }
    Ok(bytes)
}

/// Parse the bundle rank `src` sent for `tiles` (the receiver's tiles of
/// the round, ascending; `puzzle` when the plan carries a budget) —
/// [`write_bundle`]'s inverse, borrowing the streams from `bytes`. The
/// length must come out exact: a short or long bitmap, a length running
/// past the end, trailing bytes or an interval outside its tile is a typed
/// error, never a panic and never a tile read as blank.
pub fn parse_bundle<'a>(
    grid: &TileGrid,
    tiles: &[usize],
    puzzle: bool,
    bytes: &'a [u8],
    src: usize,
) -> Result<Vec<Option<Piece<'a>>>, CoreError> {
    let bad = |why: String| CoreError::InvalidSchedule {
        why: format!("rank {src}: tile bundle of {} bytes {why}", bytes.len()),
    };
    let mut rest = bytes;
    let mut take = |len: usize, what: &str| match rest.split_at_checked(len) {
        Some((chunk, tail)) => {
            rest = tail;
            Ok(chunk)
        }
        None => Err(bad(format!("ends inside its {what}"))),
    };
    let bitmap = take(tiles.len().div_ceil(8), "bitmap")?;
    let set = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
    if (tiles.len()..bitmap.len() * 8).any(set) {
        return Err(bad(format!("sets a bit past its {} tiles", tiles.len())));
    }
    let blank = Piece {
        ivals: Vec::new(),
        stream: &[],
    };
    let mut pieces: Vec<_> = (0..tiles.len())
        .map(|i| set(i).then(|| blank.clone()))
        .collect();
    for (&t, piece) in tiles.iter().zip(&mut pieces).filter(|_| puzzle) {
        let Some(piece) = piece else { continue };
        let rect = grid.rect(t);
        let ival = |row: &[u8]| {
            let lo = u16::from_le_bytes([row[0], row[1]]);
            let hi = u16::from_le_bytes([row[2], row[3]]);
            let inside = lo <= hi && hi as usize <= rect.width();
            inside.then_some((lo, hi)).ok_or_else(|| {
                let width = rect.width();
                bad(format!(
                    "carries the interval {lo}..{hi} for tile {t} ({width} wide)"
                ))
            })
        };
        let rows = take(rect.height() * 4, "intervals")?.chunks_exact(4);
        piece.ivals = rows.map(ival).collect::<Result<_, _>>()?;
    }
    for piece in pieces.iter_mut().flatten() {
        let len = take(4, "streams")?;
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]);
        piece.stream = take(len as usize, "streams")?;
    }
    if !rest.is_empty() {
        return Err(bad(format!("has {} trailing bytes", rest.len())));
    }
    Ok(pieces)
}

/// Lowest live rank strictly "after" `dead` cyclically — the deterministic
/// reassignment every survivor computes identically from the agreed
/// crashed set.
fn next_live_owner(
    dead: usize,
    p: usize,
    crashed: &BTreeMap<usize, usize>,
) -> Result<usize, CoreError> {
    (1..=p)
        .map(|k| (dead + k) % p)
        .find(|r| !crashed.contains_key(r))
        .ok_or(CoreError::AllRanksFailed { p })
}

/// What one rank brings to a tile-family compose — the content scan of
/// its partial — and the round that both the first pass and the repair
/// run over it.
pub(crate) struct TileScan<'a, P: Pixel> {
    pub stage: &'a Stage<'a, P>,
    pub plan: &'a TilePlan,
    /// Which tiles of the local partial carry any content.
    pub have: Vec<bool>,
    /// Per tile, the per-row non-blank intervals (puzzle family only).
    pub segs: Vec<RowIvals>,
}

impl<P: Pixel> TileScan<'_, P> {
    /// One round over `tiles` (ascending, non-empty) under the owner map
    /// `owner_of`: send every other owner of a tile one bundle — this
    /// rank's content on that owner's tiles — then, as an owner, receive
    /// the other ranks' bundles in rank order and resolve each owned tile
    /// into `local`. With a `dead` set this is the repair round: it travels
    /// on [`TileChannel::RepairBundle`], and the dead are neither heard
    /// from nor folded.
    fn round(
        &self,
        ctx: &mut RankCtx,
        local: &mut Image<P>,
        scratch: &mut Scratch<P>,
        owner_of: &[usize],
        tiles: &[usize],
        dead: Option<&BTreeMap<usize, usize>>,
    ) -> Result<(), CoreError> {
        let me = ctx.rank();
        let config = self.stage.config;
        let channel = match dead {
            None => TileChannel::Bundle,
            Some(_) => TileChannel::RepairBundle,
        };
        let tag_of = |sender: usize| tag::tile(config.frame_tag, channel, sender as u64);
        let mut tiles_of = vec![Vec::new(); self.plan.p];
        for &t in tiles {
            tiles_of[owner_of[t]].push(t);
        }

        // ---- Ship: one bundle to every other owner, blank or not. --------
        for (o, o_tiles) in tiles_of.iter().enumerate() {
            if o == me || o_tiles.is_empty() {
                continue;
            }
            let mut streams = Vec::with_capacity(o_tiles.len());
            for &t in o_tiles {
                let encode = || {
                    let rows = self.plan.grid.row_spans(t);
                    self.stage.encode_spans(ctx, scratch, local, rows)
                };
                streams.push(self.have[t].then(encode).transpose()?);
            }
            let pieces: Vec<Option<Piece>> = (o_tiles.iter().zip(&streams))
                .map(|(&t, stream)| {
                    let stream = stream.as_deref()?;
                    let ivals = self.segs.get(t).cloned().unwrap_or_default();
                    Some(Piece { ivals, stream })
                })
                .collect();
            let bundle = write_bundle(&pieces)?;
            // The codec streams are booked by `encode`; the rest is the
            // interval metadata and the framing (bitmap, length prefixes).
            let sent = pieces.iter().flatten().count();
            let streamed: usize = pieces.iter().flatten().map(|p| p.stream.len()).sum();
            let intervals: usize = pieces.iter().flatten().map(|p| 4 * p.ivals.len()).sum();
            let framing = bundle.len() - streamed - intervals;
            ctx.obs_counters(|c| {
                c.tiles_sent += sent as u64;
                c.add_wire_bytes("tile-manifest", framing as u64);
                if intervals > 0 {
                    c.add_wire_bytes("pz-segments", intervals as u64);
                }
            });
            ctx.send(o, tag_of(me), bundle)?;
        }

        // ---- Collect (owners only): the live ranks' bundles, in rank
        // order. The one receive of the tile families. -------------------
        let mine = &tiles_of[me];
        if mine.is_empty() {
            return Ok(());
        }
        let mut bundles = vec![None; self.plan.p];
        for src in (0..self.plan.p).filter(|&src| src != me) {
            if dead.is_some_and(|d| d.contains_key(&src)) {
                continue;
            }
            match ctx.recv(src, tag_of(src)) {
                Ok(bytes) => bundles[src] = Some(bytes),
                // A confirmed-dead peer contributed nothing, atomically:
                // exact, because blank is the identity of `over`.
                Err(CommError::RankFailed { .. }) if config.resilient => {}
                Err(e) => return Err(e.into()),
            }
        }
        let puzzle = self.plan.budget.is_some();
        let mut pieces = Vec::with_capacity(bundles.len());
        for (src, bundle) in bundles.iter().enumerate() {
            pieces.push(match bundle {
                Some(bytes) => parse_bundle(&self.plan.grid, mine, puzzle, bytes, src)?,
                None => Vec::new(),
            });
        }

        // ---- Resolve owned tiles: place within budget, or fold. ---------
        for (i, &t) in mine.iter().enumerate() {
            let piece_of = |r: usize| pieces[r].get(i).and_then(Option::as_ref);
            if !place_puzzle_tile(ctx, self, local, scratch, t, &piece_of)? {
                self.fold_tile(ctx, local, scratch, t, &piece_of)?;
            }
        }
        Ok(())
    }

    /// Left-fold owned tile `t` in depth order: blank accumulator, local
    /// content merged at this rank's depth slot, every other rank's piece
    /// streamed through the fused kernels out of its bundle. Writes the
    /// finished tile back into `local`.
    fn fold_tile<'a>(
        &self,
        ctx: &mut RankCtx,
        local: &mut Image<P>,
        scratch: &mut Scratch<P>,
        t: usize,
        piece_of: &impl Fn(usize) -> Option<&'a Piece<'a>>,
    ) -> Result<(), CoreError> {
        let me = ctx.rank();
        let area = self.plan.grid.area(t);
        let spans = self.plan.grid.row_spans(t);
        let mut acc = scratch.take_acc(area, ctx);
        for &r in &self.plan.rank_at_depth {
            if r != me {
                if let Some(piece) = piece_of(r) {
                    self.stage
                        .merge(ctx, piece.stream, &mut acc, OverDir::Back)?;
                    ctx.obs_counters(|c| c.tiles_recv += 1);
                }
                continue;
            }
            if !self.have[t] {
                continue;
            }
            // Fold the local tile at its depth position: acc = acc over
            // local (the incoming piece is deeper than everything folded so
            // far).
            let over_started = ctx.obs_start();
            let mut non_blank = 0usize;
            let width = self.plan.grid.rect(t).width();
            for (row, span) in acc.chunks_mut(width).zip(&spans) {
                for (a, s) in row.iter_mut().zip(local.span_pixels(*span)?) {
                    non_blank += usize::from(!s.is_blank());
                    *a = a.over(s);
                }
            }
            ctx.obs_span(Phase::Over, over_started);
            ctx.obs_counters(|c| {
                c.non_blank_merged += non_blank as u64;
                c.blank_skipped += (area - non_blank) as u64;
            });
            let over_units = if self.stage.raw { area } else { non_blank };
            ctx.compute(ComputeKind::Over, over_units as u64);
        }
        scatter(local, spans, &acc)?;
        scratch.put_acc(acc);
        Ok(())
    }
}

/// Execute a [`TilePlan`] on this rank — tile ownership, or approximate
/// puzzlepiece when the plan carries an overlap budget. One skeleton serves
/// both: scan → first round → (on failures) reassign + repair round →
/// gather.
pub(crate) fn compose_tiles<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    plan: &TilePlan,
    mut local: Image<P>,
    scratch: &mut Scratch<P>,
) -> Result<ComposeOutput<P>, CoreError> {
    let p = plan.p;
    let config = stage.config;
    let nt = plan.grid.tiles();

    // Fail-stop points: 0 = before any traffic, 1 = after compose. Only
    // honored in resilient mode (mirrors the schedule executor).
    let my_crash = if config.resilient {
        ctx.my_crash_step().filter(|k| *k <= 1)
    } else {
        None
    };

    ctx.mark(Mark::ComposeStart);
    if my_crash == Some(0) {
        return Ok(ComposeOutput::crash(ctx, 0));
    }
    ctx.mark(Mark::Step(0));

    // ---- Scan: which tiles carry content (and, for the puzzle family,
    // the per-row intervals) — one pass, booked as encode-side work. -----
    let scan_started = ctx.obs_start();
    let (have, segs) = match plan.budget {
        None => (scan_flags(&local, &plan.grid)?, Vec::new()),
        Some(_) => scan_tiles(&local, &plan.grid)?,
    };
    ctx.obs_span(Phase::Encode, scan_started);
    let blank_tiles = have.iter().filter(|h| !**h).count() as u64;
    ctx.obs_counters(|c| {
        c.tiles_scanned += nt as u64;
        c.tiles_blank += blank_tiles;
    });
    let scan = TileScan {
        stage,
        plan,
        have,
        segs,
    };

    let tiles: Vec<usize> = (0..nt).filter(|&t| plan.grid.area(t) > 0).collect();
    scan.round(ctx, &mut local, scratch, &plan.owner_of, &tiles, None)?;

    ctx.mark(Mark::FlushStart);
    if my_crash == Some(1) {
        return Ok(ComposeOutput::crash(ctx, 1));
    }
    ctx.mark(Mark::ComposeEnd);

    // ---- Failure agreement + tile-granular repair. --------------------
    let mut owner_of = plan.owner_of.clone();
    let (root, degraded) = agree_on_failures(ctx, config, p, 1, |ctx, crashed| {
        // Deterministic reassignment of dead owners' tiles.
        let mut reassigned: Vec<usize> = Vec::new();
        for &t in &tiles {
            let owner = &mut owner_of[t];
            if crashed.contains_key(owner) {
                *owner = next_live_owner(*owner, p, crashed)?;
                reassigned.push(t);
            }
        }
        // Repair round: every live rank bundles its content on the
        // reassigned tiles for their new owners, which re-resolve from
        // the *live* ranks only — the dead owner's own content died with
        // it.
        scan.round(
            ctx,
            &mut local,
            scratch,
            &owner_of,
            &reassigned,
            Some(crashed),
        )?;
        // What the degraded frame is missing: a step-0 crasher's content
        // is absent everywhere; a step-1 crasher's content survives except
        // on the tiles it owned (its composites died unreachable, and the
        // repair re-folds survivors only).
        let any_step0 = crashed.values().any(|&k| k == 0);
        Ok(DegradedInfo {
            failed: crashed.iter().map(|(&r, &k)| (r, k)).collect(),
            lost_contributions: crashed
                .iter()
                .filter(|(&r, &k)| k == 0 || !plan.tiles_of(r).is_empty())
                .map(|(&r, _)| r)
                .collect(),
            lost_pixels: if any_step0 {
                plan.grid.width * plan.grid.height
            } else {
                reassigned.iter().map(|&t| plan.grid.area(t)).sum()
            },
            reassigned_spans: reassigned.len(),
            root_reassigned_to: None,
        })
    })?;

    // Post-repair ownership as row-segment spans, mirroring the schedule
    // executor's `owners` field.
    let owners: Vec<(Span, usize)> = tiles
        .iter()
        .flat_map(|&t| {
            let owner = owner_of[t];
            plan.grid
                .row_spans(t)
                .into_iter()
                .map(move |span| (span, owner))
        })
        .collect();

    if !config.gather {
        // The tile families close their timeline either way.
        ctx.mark(Mark::GatherEnd);
    }
    finish(ctx, stage, scratch, local, owners, root, degraded, |slot| {
        tag::tile(config.frame_tag, TileChannel::Gather, slot as u64)
    })
}

/// Flags-only content scan: tile ownership needs to know *whether* a tile
/// holds anything, never where.
fn scan_flags<P: Pixel>(local: &Image<P>, grid: &TileGrid) -> Result<Vec<bool>, CoreError> {
    let mut have = vec![false; grid.tiles()];
    for (t, have_t) in have.iter_mut().enumerate() {
        for span in grid.row_spans(t) {
            if local.span_pixels(span)?.iter().any(|px| !px.is_blank()) {
                *have_t = true;
                break;
            }
        }
    }
    Ok(have)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DisplayWall, Run, RunOutput};
    use rt_compress::CodecKind;
    use rt_imaging::image::reference_composite;
    use rt_imaging::pixel::{GrayAlpha8, Provenance};
    use rt_imaging::synth::provenance_partials;

    fn run<P: Pixel>(
        plan: &TilePlan,
        partials: Vec<Image<P>>,
        config: &ComposeConfig,
    ) -> RunOutput<P> {
        Run::new(&ComposePlan::Tiles(plan.clone()), config).execute(partials)
    }

    fn gray_partials(p: usize, w: usize, h: usize) -> Vec<Image<GrayAlpha8>> {
        (0..p)
            .map(|r| {
                Image::from_fn(w, h, |x, y| match (x + 2 * y + 3 * r) % 5 {
                    0 | 1 => GrayAlpha8::blank(),
                    2 => GrayAlpha8::new((60 * r + x) as u8, 255),
                    _ => GrayAlpha8::new((40 * r + y) as u8, (x * 11 % 251) as u8),
                })
            })
            .collect()
    }

    fn plan(p: usize, w: usize, h: usize, tx: usize, ty: usize) -> TilePlan {
        TilePlan::new(p, TileGrid::new(w, h, tx, ty).unwrap()).unwrap()
    }

    #[test]
    fn grid_tiles_cover_the_frame() {
        for (w, h, tx, ty) in [(16, 16, 4, 4), (17, 11, 4, 3), (5, 5, 1, 1), (3, 3, 5, 5)] {
            verify_tile_plan(&plan(3, w, h, tx, ty)).unwrap();
        }
    }

    #[test]
    fn provenance_composite_is_complete_at_root() {
        let plan = plan(4, 16, 16, 4, 4);
        let (results, _) = run(
            &plan,
            provenance_partials(4, 16, 16),
            &ComposeConfig::default(),
        );
        let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
        assert!(frame
            .pixels()
            .iter()
            .all(|px| *px == Provenance::complete(4)));
        let owned: usize = results
            .iter()
            .map(|r| r.as_ref().unwrap().owned_pixels)
            .sum();
        assert_eq!(owned, 256);
    }

    #[test]
    fn gray_composite_is_byte_identical_to_reference_fold() {
        // The left-fold association makes the tile path byte-identical to
        // the sequential reference even on saturating integer pixels —
        // across codecs, tile shapes and owner maps.
        let partials = gray_partials(5, 24, 18);
        let want = reference_composite(&partials).unwrap();
        for codec in CodecKind::ALL {
            for (tx, ty) in [(1, 1), (3, 2), (5, 5), (24, 18)] {
                let plan = plan(5, 24, 18, tx, ty);
                let (results, _) = run(
                    &plan,
                    partials.clone(),
                    &ComposeConfig::default().with_codec(codec),
                );
                let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
                assert_eq!(
                    frame.pixels(),
                    want.pixels(),
                    "codec {codec:?}, grid {tx}x{ty}"
                );
            }
        }
    }

    #[test]
    fn permuted_depth_order_still_matches_reference() {
        let partials = gray_partials(4, 12, 12);
        let want = reference_composite(&partials).unwrap();
        // Physical rank r holds the partial at depth position perm^-1(r).
        let rank_of_depth = vec![2usize, 0, 3, 1];
        let plan = plan(4, 12, 12, 2, 3).permute(&rank_of_depth).unwrap();
        // Scatter the depth-ordered partials onto physical ranks.
        let mut physical: Vec<Option<Image<GrayAlpha8>>> = vec![None; 4];
        for (d, img) in partials.into_iter().enumerate() {
            physical[rank_of_depth[d]] = Some(img);
        }
        let physical: Vec<_> = physical.into_iter().map(Option::unwrap).collect();
        let (results, _) = run(&plan, physical, &ComposeConfig::default());
        let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
        assert_eq!(frame.pixels(), want.pixels());
    }

    #[test]
    fn display_wall_cells_match_the_root_frame() {
        let partials = gray_partials(6, 32, 16);
        let tplan = plan(6, 32, 16, 4, 4);
        let (root_results, _) = run(&tplan, partials.clone(), &ComposeConfig::default());
        let want = root_results[0].as_ref().unwrap().frame.clone().unwrap();
        let wall = DisplayWall::new(2, 1).with_base(1);
        let config = ComposeConfig::default().with_display_wall(wall);
        let (results, _) = run(&tplan, partials, &config);
        for d in 0..wall.count() {
            let cell = wall.cell_rect(d, 32, 16);
            let out = results[wall.rank_of(d)].as_ref().unwrap();
            let img = out.frame.as_ref().expect("display rank holds its cell");
            assert_eq!((img.width(), img.height()), (cell.width(), cell.height()));
            for y in 0..cell.height() {
                for x in 0..cell.width() {
                    assert_eq!(
                        img.pixels()[y * cell.width() + x],
                        want.pixels()[(cell.y0 + y) * 32 + cell.x0 + x],
                        "cell {d} at ({x},{y})"
                    );
                }
            }
        }
        // Non-display ranks hold no frame.
        assert!(results[0].as_ref().unwrap().frame.is_none());
    }

    #[test]
    fn an_overlong_schedule_is_a_typed_error_before_any_message() {
        // 299 steps do not fit the 8-bit step field: step 256 of frame 0
        // would carry the tag of step 0 of frame 1. Planning and static
        // analysis of such a schedule stay legal; executing it is refused
        // on every rank, naming the field, with nothing sent.
        use crate::method::Method;
        let plan = Method::ParallelPipelined.plan(300, 20, 15).unwrap();
        plan.verify().unwrap();
        let (results, trace) =
            Run::new(&plan, &ComposeConfig::default()).execute(provenance_partials(300, 20, 15));
        for (rank, result) in results.iter().enumerate() {
            match result {
                Err(CoreError::InvalidSchedule { why }) => {
                    assert!(why.contains("`step`") && why.contains("299"), "{why}")
                }
                other => panic!("rank {rank}: expected a typed overflow, got {other:?}"),
            }
        }
        assert_eq!(trace.message_count(), 0);
        // One step fewer than the field holds is fine (gather step 255).
        let widest = Method::ParallelPipelined.plan(256, 16, 16).unwrap();
        let config = ComposeConfig::default()
            .resilient(true)
            .with_display_wall(DisplayWall::new(2, 1));
        let extents = tag_extents(&widest, &config);
        assert_eq!((extents.step, extents.wall), (255, Some((1, 255))));
        extents.check().unwrap();
    }

    #[test]
    fn plan_rejects_bad_shapes() {
        assert!(TileGrid::new(8, 8, 0, 2).is_err());
        assert!(TilePlan::new(0, TileGrid::new(8, 8, 2, 2).unwrap()).is_err());
        let p = plan(3, 8, 8, 2, 2);
        assert!(p.permute(&[0, 1]).is_err());
        assert!(p.permute(&[0, 1, 1]).is_err());
        let mut bad = p.clone();
        bad.owner_of[0] = 9;
        assert!(verify_tile_plan(&bad).is_err());
    }
}
