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
//! 2. each rank scans its rendered partial once — a tile row at a time
//!    through the pixel type's blank-slice kernel
//!    ([`Pixel::any_non_blank`]), stopping at a tile's first row with
//!    content — then encodes **only its non-blank tiles** and sends every
//!    other owner ONE self-describing *bundle* ([`write_bundle_into`]): a
//!    bitmap over that owner's tiles, then the set tiles' codec streams,
//!    each behind its length and encoded straight into the bundle —
//!    `P·(P−1)` messages a frame whatever the content, and a fully blank
//!    rank's bundles are the bitmap alone;
//! 3. each owner receives the `P−1` bundles in rank order and parses them
//!    with one exact-length parser ([`Bundles::insert`]); a rank's
//!    contribution to an owner is therefore atomic — all of it arrives, or
//!    the rank is dead for that owner;
//! 4. each owner composites every owned tile with a strict front-to-back
//!    left fold from a blank accumulator, in depth order — **the exact
//!    association order of [`rt_imaging::image::reference_composite`]**,
//!    so the result is byte-identical to the sequential reference on any
//!    content, not merely algebraically equivalent; a tile no live rank
//!    drew on is already blank and is not folded;
//! 5. each owner ships each display cell its tiles meet ONE gather
//!    message: a bitmap over those tiles (ascending), set where the tile
//!    holds content, then one codec stream of the set tiles' rows cut to
//!    the cell — so a blank tile costs neither `over` work nor wire bytes.
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
//! the owned tiles' row spans, each tile flagged with its content, so the
//! [`crate::DisplayWall`] scenario comes for free.
//!
//! The approximate puzzlepiece family ([`crate::puzzle`]) runs through the
//! same executor: its plan is a [`TilePlan`] with an overlap
//! [`budget`](TilePlan::budget), and the only differences — a bundle also
//! carries the per-scanline intervals of its tiles, owners *place* tiles
//! within the budget instead of folding them — are two branches of the
//! round below.

use crate::exec::{
    compose_schedule, finish, scatter, ComposeConfig, ComposeOutput, Scratch, Stage,
    STREAM_HEADROOM,
};
use crate::puzzle::{place_puzzle_tile, scan_tiles, RowIvals};
use crate::repair::{agree_on_failures, DegradedInfo};
use crate::schedule::{check_permutation, verify_schedule, Schedule};
use crate::CoreError;
use rt_comm::tag::{self, Extents, TileChannel};
use rt_comm::{CommError, Mark, Payload, RankCtx};
use rt_compress::OverDir;
use rt_imaging::pixel::Pixel;
use rt_imaging::{Image, Rect, Span};
use rt_obs::Phase;
use std::collections::BTreeMap;
use std::ops::Range;

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

    /// The flat frame-space row spans of tile `t`, top to bottom, computed
    /// as they are read.
    pub fn row_spans(&self, t: usize) -> impl ExactSizeIterator<Item = Span> + Clone {
        let (r, width) = (self.rect(t), self.width);
        (r.y0..r.y1).map(move |y| Span::new(y * width + r.x0, r.width()))
    }

    /// Row `row` of tile `t`: the `row`-th of [`TileGrid::row_spans`].
    pub fn row_span(&self, t: usize, row: usize) -> Span {
        let r = self.rect(t);
        Span::new((r.y0 + row) * self.width + r.x0, r.width())
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
///
/// Coverage follows from the 1-D tile boundaries: [`TileGrid::rect`] cuts
/// each axis at `i · len / tiles` for `i = 0..=tiles`, a non-decreasing
/// sequence from 0 to `len`, so the columns partition the width, the rows
/// the height and their products the frame — whenever each axis has a tile
/// and `tiles · len` does not overflow. A frame with no pixels is covered
/// by any grid.
pub fn verify_tile_plan(plan: &TilePlan) -> Result<(), CoreError> {
    let g = &plan.grid;
    let nt = g.tiles();
    if let Some(why) = plan
        .budget
        .and_then(|budget| puzzle_budget_problem(g, budget))
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
    let cut = |tiles: usize, len: usize| tiles >= 1 && tiles.checked_mul(len).is_some();
    let empty = g.width == 0 || g.height == 0;
    if !(empty || cut(g.tiles_x, g.width) && cut(g.tiles_y, g.height)) {
        return Err(CoreError::InvalidSchedule {
            why: format!(
                "grid {}x{} does not tile the {}x{} frame exactly once",
                g.tiles_x, g.tiles_y, g.width, g.height
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
/// Crash semantics: the compose repairs exactly when the fault plan crashes
/// a rank within it; any other death is a typed `RankFailed`. For the tile
/// families a fault-plan step of `0` fails the rank before any traffic (its
/// whole contribution is lost), `1` after compositing but before the gather
/// (only its *owned tiles* are lost; tiles it shipped to live owners
/// survive). Either triggers the deterministic repair round that reassigns
/// dead owners' tiles to the next live rank and re-collects the survivors'
/// content for them. Span schedules crash at their own step indices, up to
/// `steps.len()` (see [`crate::repair()`]).
pub fn compose_plan<P: Pixel>(
    ctx: &mut RankCtx,
    plan: &ComposePlan,
    local: Image<P>,
    config: &ComposeConfig,
    scratch: &mut Scratch<P>,
) -> Result<ComposeOutput<P>, CoreError> {
    let (dims, horizon) = match plan {
        ComposePlan::Schedule(s) => (None, s.steps.len()),
        ComposePlan::Tiles(t) => (Some((t.grid.width, t.grid.height)), 1),
    };
    check_shape(ctx, plan.p(), plan.image_len(), dims, &local)?;
    config.gather_target().validate(plan.p())?;
    let mut crashes = ctx.planned_crashes();
    crashes.retain(|&(_, step)| step <= horizon);
    // An oversized plan is a typed error here, before any message is sent,
    // instead of a tag that aliases another frame's or another step's.
    tag_extents(plan, config, !crashes.is_empty())
        .check()
        .map_err(|why| CoreError::InvalidSchedule { why })?;
    let stage = Stage::new(config, crashes);
    match plan {
        ComposePlan::Schedule(s) => compose_schedule(ctx, &stage, s, local, scratch),
        ComposePlan::Tiles(t) => compose_tiles(ctx, &stage, t, local, scratch),
    }
}

/// The largest values this compose call will write into the bounded fields
/// of a message tag ([`rt_comm::tag`]), for the width check at entry.
fn tag_extents(plan: &ComposePlan, config: &ComposeConfig, repairs: bool) -> Extents {
    let p = plan.p();
    let extents = match plan {
        ComposePlan::Schedule(s) => schedule_tag_extents(s, repairs),
        // The low field carries a sending rank or a gather slot.
        ComposePlan::Tiles(_) => Extents {
            low: p - 1,
            ..Extents::default()
        },
    };
    Extents {
        wall: Some((config.gather_target().count() - 1, p - 1)),
        ..extents
    }
}

/// What a span schedule writes: its steps and the gather one past them,
/// span starts and the root's gather slots (sending ranks) in the low
/// field, and — when the compose `repairs` — the coordinates of the repair
/// plan's fetches.
pub(crate) fn schedule_tag_extents(schedule: &Schedule, repairs: bool) -> Extents {
    Extents {
        step: schedule.steps.len(),
        low: schedule.image_len.max(schedule.p).saturating_sub(1),
        wall: None,
        // An entry fetches from distinct holders, and a repair plan has at
        // most one entry per piece the final spans are cut into, whose
        // edges are all edges of transfer spans: fewer than this many.
        repair: repairs.then(|| {
            let transfers: usize = schedule.steps.iter().map(|s| s.transfers.len()).sum();
            let entries = schedule.final_owners.len() + 2 * transfers;
            (entries, schedule.p.saturating_sub(1))
        }),
    }
}

/// One tile's share of a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece<'a> {
    /// The sender's per-row non-blank intervals on the tile (puzzle plans;
    /// empty for tile ownership).
    pub ivals: &'a [(u16, u16)],
    /// The tile's pixels, as the codec wrote them.
    pub stream: &'a [u8],
}

/// Write one bundle — everything a rank contributes to one owner in one
/// round — onto the end of `out`, in one pass. `pieces` yields the owner's
/// tiles of the round in order (ascending), `Some(piece)` where this rank
/// holds content; `ivals(piece)` are that piece's row intervals (puzzle
/// plans; empty otherwise) and `stream(piece, out)` appends its codec
/// stream. Wire layout:
///
/// 1. a bitmap over the owner's tiles, bit `i` set when the `i`-th piece is;
/// 2. for each set tile, its row intervals as `(lo, hi)` `u16` LE pairs;
/// 3. for each set tile, a `u32` LE length and that many codec bytes — the
///    length goes in as a placeholder, the stream is written behind it in
///    place, and the length is patched.
pub fn write_bundle_into<'i, T: Copy>(
    out: &mut Vec<u8>,
    pieces: impl Iterator<Item = Option<T>> + Clone,
    ivals: impl Fn(T) -> &'i [(u16, u16)],
    mut stream: impl FnMut(T, &mut Vec<u8>) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    let bitmap = out.len();
    out.resize(bitmap + pieces.clone().count().div_ceil(8), 0);
    for (i, piece) in pieces.clone().enumerate() {
        if piece.is_some() {
            out[bitmap + i / 8] |= 1 << (i % 8);
        }
    }
    for &(lo, hi) in pieces.clone().flatten().flat_map(ivals) {
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
    }
    for piece in pieces.flatten() {
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        stream(piece, out)?;
        let written = out.len() - at - 4;
        let len = u32::try_from(written).map_err(|_| CoreError::InvalidSchedule {
            why: format!("a {written}-byte tile stream overflows the bundle's u32 length"),
        })?;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
    Ok(())
}

/// Where one piece sits: its intervals in [`Bundles`]' shared list and its
/// stream in its sender's bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PieceAt {
    ivals: Range<usize>,
    stream: Range<usize>,
}

/// The bundles one owner receives in a round, parsed: for each sender and
/// each of the owner's tiles of the round, where the sender's piece sits —
/// its row intervals, copied into one list shared by every piece, and its
/// codec stream, borrowed from the bundle. Kept in [`Scratch`] from round
/// to round, so a steady round receives and parses without allocating.
#[derive(Debug, Default)]
pub struct Bundles {
    /// The owner's tiles of the round, ascending.
    tiles: Vec<usize>,
    /// Each sender's bundle, if one was received.
    bytes: Vec<Option<Payload>>,
    /// Per sender, per tile (sender-major): its piece, `None` where the
    /// sender holds no content or sent no bundle.
    at: Vec<Option<PieceAt>>,
    /// The row intervals of every piece.
    ivals: Vec<(u16, u16)>,
}

impl Bundles {
    /// Start a round over the owner's `tiles` (ascending) with `senders`
    /// ranks and no bundle received yet; the previous round's bundles are
    /// dropped.
    pub fn reset(&mut self, senders: usize, tiles: impl IntoIterator<Item = usize>) {
        self.tiles.clear();
        self.tiles.extend(tiles);
        self.bytes.clear();
        self.bytes.resize(senders, None);
        self.at.clear();
        self.at.resize(senders * self.tiles.len(), None);
        self.ivals.clear();
    }

    /// The owner's tiles of the round, ascending.
    pub fn tiles(&self) -> &[usize] {
        &self.tiles
    }

    /// Parse and keep the bundle rank `src` sent (`puzzle` when the plan
    /// carries a budget) — [`write_bundle_into`]'s inverse. The length must
    /// come out exact: a short or long bitmap, a length running past the
    /// end, trailing bytes or an interval outside its tile is a typed
    /// error, never a panic and never a tile read as blank; nothing is
    /// allocated by a length the bundle claims.
    pub fn insert(
        &mut self,
        grid: &TileGrid,
        puzzle: bool,
        src: usize,
        bytes: Payload,
    ) -> Result<(), CoreError> {
        let n = self.tiles.len();
        let bad = |why: String| CoreError::InvalidSchedule {
            why: format!("rank {src}: tile bundle of {} bytes {why}", bytes.len()),
        };
        let senders = self.bytes.len();
        let (Some(slot), Some(at)) = (
            self.bytes.get_mut(src),
            self.at.get_mut(src * n..(src + 1) * n),
        ) else {
            return Err(bad(format!(
                "comes from beyond the round's {senders} ranks"
            )));
        };
        let mut pos = 0;
        let mut take = |len: usize, what: &str| match pos + len <= bytes.len() {
            true => {
                pos += len;
                Ok(pos - len..pos)
            }
            false => Err(bad(format!("ends inside its {what}"))),
        };
        let bitmap = take(n.div_ceil(8), "bitmap")?;
        let bitmap = &bytes[bitmap];
        let set = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
        if (n..bitmap.len() * 8).any(set) {
            return Err(bad(format!("sets a bit past its {n} tiles")));
        }
        for (i, piece) in at.iter_mut().enumerate() {
            *piece = set(i).then_some(PieceAt {
                ivals: 0..0,
                stream: 0..0,
            });
        }
        for (&t, piece) in self.tiles.iter().zip(at.iter_mut()).filter(|_| puzzle) {
            let Some(piece) = piece else { continue };
            let rect = grid.rect(t);
            let rows = &bytes[take(rect.height() * 4, "intervals")?];
            let start = self.ivals.len();
            for row in rows.chunks_exact(4) {
                let lo = u16::from_le_bytes([row[0], row[1]]);
                let hi = u16::from_le_bytes([row[2], row[3]]);
                if lo > hi || hi as usize > rect.width() {
                    let width = rect.width();
                    return Err(bad(format!(
                        "carries the interval {lo}..{hi} for tile {t} ({width} wide)"
                    )));
                }
                self.ivals.push((lo, hi));
            }
            piece.ivals = start..self.ivals.len();
        }
        for piece in at.iter_mut().flatten() {
            let len = &bytes[take(4, "streams")?];
            let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]);
            piece.stream = take(len as usize, "streams")?;
        }
        if pos != bytes.len() {
            return Err(bad(format!("has {} trailing bytes", bytes.len() - pos)));
        }
        *slot = Some(bytes);
        Ok(())
    }

    /// Rank `src`'s piece of the owner's `i`-th tile of the round: `None`
    /// where it holds no content or no bundle of it was received.
    pub fn piece(&self, src: usize, i: usize) -> Option<Piece<'_>> {
        let n = self.tiles.len();
        let at = self.at.get(src * n..(src + 1) * n)?.get(i)?.as_ref()?;
        let bytes = self.bytes.get(src)?.as_ref()?;
        Some(Piece {
            ivals: &self.ivals[at.ivals.clone()],
            stream: &bytes[at.stream.clone()],
        })
    }
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

/// The tile path's per-frame lists, kept in [`Scratch`] from frame to
/// frame so that a steady frame allocates none of them.
#[derive(Debug, Default)]
pub(crate) struct TileLists {
    /// Per tile, whether the local partial holds content there.
    have: Vec<bool>,
    /// Per tile, the per-row non-blank intervals (puzzle family only).
    segs: Vec<RowIvals>,
    /// The frame's non-empty tiles, ascending.
    tiles: Vec<usize>,
    /// The owner map with the dead owners' tiles reassigned, written only
    /// by a repair.
    owner_of: Vec<usize>,
    /// The bundles of the round this rank receives.
    bundles: Bundles,
}

/// What one rank brings to a tile-family compose — the content scan of
/// its partial — and the round that both the first pass and the repair
/// run over it.
pub(crate) struct TileScan<'a, P: Pixel> {
    pub stage: &'a Stage<'a, P>,
    pub plan: &'a TilePlan,
    /// Per tile, whether `local` holds content there: set by the scan, and
    /// again when the round resolves an owned tile.
    pub have: Vec<bool>,
    /// Per tile, the per-row non-blank intervals (puzzle family only).
    pub segs: Vec<RowIvals>,
    /// The bundles of the round in progress, as this rank received them.
    bundles: Bundles,
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
        &mut self,
        ctx: &mut RankCtx,
        local: &mut Image<P>,
        scratch: &mut Scratch<P>,
        owner_of: &[usize],
        tiles: &[usize],
        dead: Option<&BTreeMap<usize, usize>>,
    ) -> Result<(), CoreError> {
        let me = ctx.rank();
        let config = self.stage.config;
        let grid = &self.plan.grid;
        let channel = match dead {
            None => TileChannel::Bundle,
            Some(_) => TileChannel::RepairBundle,
        };
        let tag_of = |sender: usize| tag::tile(config.frame_tag, channel, sender as u64);
        // An owner's tiles of the round, ascending, read off `tiles`.
        let owned = |o: usize| tiles.iter().copied().filter(move |&t| owner_of[t] == o);
        let ivals = |t: usize| self.segs.get(t).map_or(&[][..], Vec::as_slice);

        // ---- Ship: one bundle to every other owner, blank or not, each
        // tile encoded straight into it. -----------------------------------
        for o in (0..self.plan.p).filter(|&o| o != me) {
            let set = owned(o).map(|t| self.have[t].then_some(t));
            let count = set.clone().count();
            if count == 0 {
                continue;
            }
            let carried =
                |t: usize| 4 * ivals(t).len() + 4 + grid.area(t) * P::BYTES + STREAM_HEADROOM;
            let size = count.div_ceil(8) + set.clone().flatten().map(carried).sum::<usize>();
            let mut bundle = Vec::with_capacity(size);
            // The codec streams are booked by `encode_into`; the rest is the
            // interval metadata and the framing (bitmap, length prefixes).
            let mut streamed = 0;
            write_bundle_into(&mut bundle, set.clone(), ivals, |t, out| {
                let at = out.len();
                let (started, rows) = (ctx.obs_start(), grid.row_spans(t));
                self.stage
                    .encode_spans_into(ctx, started, scratch, local, rows, out)?;
                streamed += out.len() - at;
                Ok(())
            })?;
            let intervals: usize = set.flatten().map(|t| 4 * ivals(t).len()).sum();
            let framing = bundle.len() - streamed - intervals;
            ctx.obs_counters(|c| {
                c.add_wire_bytes("tile-manifest", framing as u64);
                if intervals > 0 {
                    c.add_wire_bytes("pz-segments", intervals as u64);
                }
            });
            ctx.send(o, tag_of(me), bundle)?;
        }

        // ---- Collect (owners only): the live ranks' bundles, in rank
        // order. The one receive of the tile families. -------------------
        if owned(me).next().is_none() {
            return Ok(());
        }
        let puzzle = self.plan.budget.is_some();
        self.bundles.reset(self.plan.p, owned(me));
        for src in (0..self.plan.p).filter(|&src| src != me) {
            if dead.is_some_and(|d| d.contains_key(&src)) {
                continue;
            }
            match ctx.recv(src, tag_of(src)) {
                Ok(bytes) => {
                    let started = ctx.obs_start();
                    self.bundles.insert(grid, puzzle, src, bytes)?;
                    ctx.obs_span(Phase::Decode, started);
                }
                // A confirmed-dead peer contributed nothing, atomically:
                // exact, because blank is the identity of `over`.
                Err(CommError::RankFailed { .. }) if !self.stage.crashes.is_empty() => {}
                Err(e) => return Err(e.into()),
            }
        }

        // ---- Resolve owned tiles: place within budget, or fold. A tile
        // no live rank drew on is already blank in `local`: it costs
        // nothing. A resolved tile holds content. ---------------------------
        for (i, &t) in self.bundles.tiles().iter().enumerate() {
            let piece_of = |r: usize| self.bundles.piece(r, i);
            if !self.have[t] && (0..self.plan.p).all(|r| piece_of(r).is_none()) {
                continue;
            }
            if !place_puzzle_tile(ctx, self, local, scratch, t, &piece_of)? {
                self.fold_tile(ctx, local, scratch, t, &piece_of)?;
            }
            self.have[t] = true;
        }
        // Nothing reads the bundles past their round: let their buffers go.
        self.bundles.reset(0, []);
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
        piece_of: &impl Fn(usize) -> Option<Piece<'a>>,
    ) -> Result<(), CoreError> {
        let me = ctx.rank();
        let mut acc = scratch.take_acc(self.plan.grid.area(t), ctx);
        for &r in &self.plan.rank_at_depth {
            if r != me {
                if let Some(piece) = piece_of(r) {
                    self.stage
                        .merge(ctx, piece.stream, &mut acc, OverDir::Back)?;
                }
                continue;
            }
            if !self.have[t] {
                continue;
            }
            // Fold the local tile at its depth position: acc = acc over
            // local (the incoming piece is deeper than everything folded so
            // far).
            let rows = self
                .plan
                .grid
                .row_spans(t)
                .map(|span| local.span_pixels(span));
            let stats = self.stage.merge_own(ctx, Phase::Over, &mut acc, rows)?;
            self.stage.count_stream(ctx, &stats, stats.non_blank);
        }
        // Writing the folded tile back finishes its merge.
        let started = ctx.obs_start();
        scatter(local, self.plan.grid.row_spans(t), &acc)?;
        ctx.obs_span(Phase::Over, started);
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

    // Fail-stop points: 0 = before any traffic, 1 = after compose (mirrors
    // the schedule executor).
    let crashes = &stage.crashes;
    let my_crash = crashes.iter().find(|c| c.0 == ctx.rank()).map(|c| c.1);

    ctx.mark(Mark::ComposeStart);
    if my_crash == Some(0) {
        return Ok(ComposeOutput::crash(ctx, 0));
    }
    ctx.mark(Mark::Step(0));

    // ---- Scan: which tiles carry content (and, for the puzzle family,
    // the per-row intervals) — one pass, booked as encode-side work. -----
    let TileLists {
        mut have,
        mut segs,
        mut tiles,
        mut owner_of,
        bundles,
    } = std::mem::take(&mut scratch.tiles);
    let scan_started = ctx.obs_start();
    match plan.budget {
        None => {
            scan_flags(&local, &plan.grid, &mut have)?;
            segs.clear();
        }
        Some(_) => scan_tiles(&local, &plan.grid, &mut have, &mut segs)?,
    }
    ctx.obs_span(Phase::Encode, scan_started);
    let mut scan = TileScan {
        stage,
        plan,
        have,
        segs,
        bundles,
    };

    tiles.clear();
    tiles.extend((0..nt).filter(|&t| plan.grid.area(t) > 0));
    scan.round(ctx, &mut local, scratch, &plan.owner_of, &tiles, None)?;

    ctx.mark(Mark::FlushStart);
    if my_crash == Some(1) {
        return Ok(ComposeOutput::crash(ctx, 1));
    }
    ctx.mark(Mark::ComposeEnd);

    // ---- Failure agreement + tile-granular repair. --------------------
    let (root, degraded) = agree_on_failures(ctx, config.root, p, crashes, |ctx, crashed| {
        // Deterministic reassignment of dead owners' tiles.
        owner_of.clear();
        owner_of.extend_from_slice(&plan.owner_of);
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

    // What an owner ships: its (post-repair) tiles in ascending order, each
    // tile's rows top to bottom, read off the grid as they are walked, and
    // flagged blank where this rank is the owner and holds no content there.
    // Only a repair rewrote the owner map.
    let final_owners = match degraded {
        Some(_) => &owner_of,
        None => &plan.owner_of,
    };
    let (me, grid, tiles_ref, have) = (ctx.rank(), &plan.grid, &tiles, &scan.have);
    let owned = |o| {
        let mine = tiles_ref.iter().filter(move |&&t| final_owners[t] == o);
        mine.map(move |&t| (Some(o != me || have[t]), grid.row_spans(t)))
    };
    let out = finish(ctx, stage, scratch, local, owned, root, degraded, |slot| {
        tag::tile(config.frame_tag, TileChannel::Gather, slot as u64)
    });
    scratch.tiles = TileLists {
        have: scan.have,
        segs: scan.segs,
        tiles,
        owner_of,
        bundles: scan.bundles,
    };
    out
}

/// Flags-only content scan into `have`: tile ownership needs to know
/// *whether* a tile holds anything, never where. Each row is one call of
/// the pixel type's blank-slice kernel, and a tile's scan stops at its
/// first row with content.
fn scan_flags<P: Pixel>(
    local: &Image<P>,
    grid: &TileGrid,
    have: &mut Vec<bool>,
) -> Result<(), CoreError> {
    have.clear();
    for t in 0..grid.tiles() {
        let mut content = false;
        for span in grid.row_spans(t) {
            if P::any_non_blank(local.span_pixels(span)?) {
                content = true;
                break;
            }
        }
        have.push(content);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DisplayWall, Run, RunOutput};
    use rt_compress::CodecKind;
    use rt_imaging::image::reference_composite;
    use rt_imaging::pixel::{GrayAlpha, GrayAlpha8, Provenance};
    use rt_imaging::synth::provenance_partials;
    use std::sync::Arc;

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

    /// The brute-force coverage check `verify_tile_plan` reasons its way
    /// past: count how often the tiles' row spans cover each frame pixel.
    fn covers_exactly_once(grid: &TileGrid) -> bool {
        let mut covered = vec![0u32; grid.width * grid.height];
        for t in 0..grid.tiles() {
            for span in grid.row_spans(t) {
                for c in &mut covered[span.range()] {
                    *c += 1;
                }
            }
        }
        covered.iter().all(|&c| c == 1)
    }

    /// Every grid of up to 9×8 tiles (none too) over every frame of up to
    /// 7×6 pixels (none too): uneven, over-fine and empty tiles included.
    fn small_grids() -> impl Iterator<Item = TileGrid> {
        let frames = (0..=7).flat_map(|w| (0..=6).map(move |h| (w, h)));
        frames.flat_map(|(width, height)| {
            let counts = (0..=9).flat_map(|x| (0..=8).map(move |y| (x, y)));
            counts.map(move |(tiles_x, tiles_y)| TileGrid {
                width,
                height,
                tiles_x,
                tiles_y,
            })
        })
    }

    #[test]
    fn tile_plan_coverage_verdict_matches_enumeration() {
        let mut plan = plan(2, 1, 1, 1, 1);
        for grid in small_grids() {
            (plan.grid, plan.owner_of) = (grid, vec![0; grid.tiles()]);
            let want = covers_exactly_once(&grid);
            assert_eq!(verify_tile_plan(&plan).is_ok(), want, "{grid:?}");
            for t in (0..grid.tiles()).filter(|_| want) {
                for (row, span) in grid.row_spans(t).enumerate() {
                    assert_eq!(grid.row_span(t, row), span, "{grid:?} tile {t}");
                }
            }
        }
        // A grid whose cut arithmetic would overflow is refused, not run.
        let grid = TileGrid::new(usize::MAX / 2, 1, 3, 1).unwrap();
        (plan.grid, plan.owner_of) = (grid, vec![0; 3]);
        assert!(verify_tile_plan(&plan).is_err());
    }

    /// Which tiles hold a non-blank pixel, pixel by pixel over each tile's
    /// rectangle: the oracle of both content scans.
    fn tiles_with_content<P: Pixel>(img: &Image<P>, grid: &TileGrid) -> Vec<bool> {
        let at = |x, y| &img.pixels()[y * grid.width + x];
        (0..grid.tiles())
            .map(|t| {
                let r = grid.rect(t);
                (r.y0..r.y1).any(|y| (r.x0..r.x1).any(|x| !at(x, y).is_blank()))
            })
            .collect()
    }

    /// Both content scans against the per-pixel oracle on every small grid,
    /// with lone content pixels at a third of the positions and none:
    /// `GrayAlpha8` with a value-only and an alpha-only pixel (the word-wise
    /// kernel), `GrayAlpha` on a background of `-0.0`, which is blank with
    /// non-zero bytes (the per-pixel default).
    #[test]
    fn content_scans_match_a_per_pixel_enumeration() {
        fn check<P: Pixel>(img: &Image<P>, grid: &TileGrid) {
            let want = tiles_with_content(img, grid);
            let mut have = vec![true; 3];
            scan_flags(img, grid, &mut have).unwrap();
            assert_eq!(have, want, "{grid:?}");
            have.clear();
            let mut segs = Vec::new();
            scan_tiles(img, grid, &mut have, &mut segs).unwrap();
            assert_eq!(have, want, "{grid:?}");
            assert_eq!(segs.len(), grid.tiles());
        }
        let zero = GrayAlpha::new(-0.0, -0.0);
        for grid in small_grids().filter(covers_exactly_once) {
            let (w, h) = (grid.width, grid.height);
            for lone in (0..=w * h).filter(|k| k % 3 == 0) {
                let ga8 = |v, a| {
                    Image::from_fn(w, h, move |x, y| match y * w + x == lone {
                        true => GrayAlpha8::new(v, a),
                        false => GrayAlpha8::blank(),
                    })
                };
                check(&ga8(7, 0), &grid);
                check(&ga8(0, 0x80), &grid);
                let f32s = Image::from_fn(w, h, |x, y| match y * w + x == lone {
                    true => GrayAlpha::new(0.25, 0.5),
                    false => zero,
                });
                check(&f32s, &grid);
            }
        }
    }

    /// The bundle as it was written before streams went straight into it:
    /// every tile's codec stream in a buffer of its own, then the bitmap,
    /// the intervals and the length-prefixed streams copied into a second
    /// one. The one-pass writer's oracle.
    fn write_bundle(pieces: &[Option<Piece<'_>>]) -> Vec<u8> {
        let mut bytes = vec![0u8; pieces.len().div_ceil(8)];
        for (i, piece) in pieces.iter().enumerate() {
            if piece.is_some() {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        for &(lo, hi) in pieces.iter().flatten().flat_map(|piece| piece.ivals) {
            bytes.extend_from_slice(&lo.to_le_bytes());
            bytes.extend_from_slice(&hi.to_le_bytes());
        }
        for piece in pieces.iter().flatten() {
            bytes.extend_from_slice(&(piece.stream.len() as u32).to_le_bytes());
            bytes.extend_from_slice(piece.stream);
        }
        bytes
    }

    /// The one-pass writer, streams encoded in place behind a placeholder
    /// length, against the copying oracle byte for byte: tile ownership and
    /// puzzle bundles, every codec, blank, mixed and dense content, over an
    /// owner's 1, 6 and 20 tiles (a bitmap of one byte and of three), after
    /// a prefix it must leave alone.
    #[test]
    fn one_pass_bundles_match_the_copying_oracle() {
        let contents: [fn(usize, usize) -> GrayAlpha8; 3] = [
            |_, _| GrayAlpha8::blank(),
            |x, y| match (x * 7 + y * 3) % 11 < 4 && x < 13 {
                true => GrayAlpha8::new((x + y) as u8, 90 + x as u8),
                false => GrayAlpha8::blank(),
            },
            |x, y| GrayAlpha8::new((x * y) as u8, 255),
        ];
        for (tx, ty, owner_stride) in [(1, 1, 1), (4, 3, 2), (5, 4, 1)] {
            let grid = TileGrid::new(30, 20, tx, ty).unwrap();
            let tiles: Vec<usize> = (0..grid.tiles()).step_by(owner_stride).collect();
            for (content, puzzle) in contents.iter().flat_map(|c| [(c, false), (c, true)]) {
                let img = Image::from_fn(30, 20, content);
                let (mut have, mut segs) = (Vec::new(), Vec::new());
                match puzzle {
                    true => scan_tiles(&img, &grid, &mut have, &mut segs).unwrap(),
                    false => scan_flags(&img, &grid, &mut have).unwrap(),
                }
                let ivals = |t: usize| segs.get(t).map_or(&[][..], Vec::as_slice);
                let pixels = |t: usize| -> Vec<GrayAlpha8> {
                    let rows = grid.row_spans(t);
                    rows.flat_map(|row| img.span_pixels(row).unwrap().to_vec())
                        .collect()
                };
                for kind in CodecKind::ALL {
                    let codec = kind.build::<GrayAlpha8>();
                    let streams: Vec<Option<Vec<u8>>> = (tiles.iter())
                        .map(|&t| have[t].then(|| codec.encode(&pixels(t)).bytes))
                        .collect();
                    let pieces: Vec<Option<Piece>> = (tiles.iter().zip(&streams))
                        .map(|(&t, stream)| {
                            let stream = stream.as_deref()?;
                            Some(Piece {
                                ivals: ivals(t),
                                stream,
                            })
                        })
                        .collect();
                    let want = write_bundle(&pieces);
                    let mut got = vec![0xEE, 0x11];
                    let set = tiles.iter().map(|&t| have[t].then_some(t));
                    write_bundle_into(&mut got, set, ivals, |t, out| {
                        codec.encode_into(&pixels(t), out);
                        Ok(())
                    })
                    .unwrap();
                    let case = format!("{kind:?}, {tx}x{ty}, puzzle {puzzle}");
                    assert_eq!(got[..2], [0xEE, 0x11], "{case}");
                    assert_eq!(got[2..], want, "{case}");
                }
            }
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
        let config = ComposeConfig::default().with_display_wall(DisplayWall::new(2, 1));
        let extents = tag_extents(&widest, &config, true);
        assert_eq!((extents.step, extents.wall), (255, Some((1, 255))));
        extents.check().unwrap();
    }

    #[test]
    fn the_own_tile_merge_counts_its_opaque_fast_pixels() {
        // Rank 1 folds each owned tile behind rank 0's opaque piece, so
        // every pixel of its own tiles merges behind an opaque front.
        let (p, w, h) = (2, 16, 16);
        let partials: Vec<Image<GrayAlpha8>> = (0..p)
            .map(|r| Image::from_fn(w, h, |x, y| GrayAlpha8::new((x + y + 50 * r) as u8, 255)))
            .collect();
        let tiles = plan(p, w, h, 4, 4);
        assert_eq!(tiles.rank_at_depth, [0, 1]);
        for codec in CodecKind::ALL {
            let observer = Arc::new(rt_obs::Observer::new());
            let config = ComposeConfig::default().with_codec(codec);
            Run::new(&ComposePlan::Tiles(tiles.clone()), &config)
                .observer(Arc::clone(&observer))
                .execute(partials.clone());
            let counters = observer.counters();
            let (_, rank1) = counters.iter().find(|(r, _)| *r == 1).unwrap();
            let owned = tiles.owned_area(1) as u64;
            assert_eq!(rank1.opaque_fast, owned, "{codec:?}");
        }
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
