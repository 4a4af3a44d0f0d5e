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
//! 2. each rank scans its rendered partial once, then encodes and sends
//!    **only its non-blank tiles**, each directly to that tile's owner —
//!    a fully blank rank ships zero tile payloads;
//! 3. tiny per-sender manifest bitmaps tell each owner exactly which
//!    payloads to expect, so arrival order never matters (the comm layer
//!    stashes out-of-order messages until the owner asks);
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
//! [`budget`](TilePlan::budget), and the only differences — ranks also
//! exchange per-scanline segment metadata, owners *place* tiles within the
//! budget instead of folding them — are two branches of the round below.

use crate::exec::{
    compose_schedule, finish, scatter, ComposeConfig, ComposeOutput, Scratch, Stage,
};
use crate::puzzle::{parse_segments_blob, place_puzzle_tile, scan_tiles, segments_blob, RowIvals};
use crate::repair::{agree_on_failures, DegradedInfo};
use crate::schedule::{verify_schedule, Schedule};
use crate::CoreError;
use rt_comm::tag::{self, Extents, TileChannel};
use rt_comm::{CommError, ComputeKind, Mark, RankCtx};
use rt_compress::OverDir;
use rt_imaging::pixel::Pixel;
use rt_imaging::{Image, Rect, Span};
use rt_obs::Phase;
use std::collections::{BTreeMap, BTreeSet};

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
        let p = self.p;
        if rank_of_depth.len() != p {
            return Err(CoreError::InvalidSchedule {
                why: format!(
                    "permutation size mismatch: {} depth positions for {p} ranks",
                    rank_of_depth.len()
                ),
            });
        }
        let mut seen = vec![false; p];
        for &r in rank_of_depth {
            if r >= p || seen[r] {
                return Err(CoreError::InvalidSchedule {
                    why: format!("rank_of_depth {rank_of_depth:?} is not a permutation of 0..{p}"),
                });
            }
            seen[r] = true;
        }
        let mut out = self.clone();
        for owner in &mut out.owner_of {
            *owner = rank_of_depth[*owner];
        }
        let mut rank_at_depth = vec![0usize; p];
        for (d, &slot) in self.rank_at_depth.iter().enumerate() {
            rank_at_depth[d] = rank_of_depth[slot];
        }
        out.rank_at_depth = rank_at_depth;
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
    let mut seen = vec![false; plan.p];
    if plan.rank_at_depth.len() != plan.p {
        return Err(CoreError::InvalidSchedule {
            why: format!(
                "depth order has {} slots for {} ranks",
                plan.rank_at_depth.len(),
                plan.p
            ),
        });
    }
    for &r in &plan.rank_at_depth {
        if r >= plan.p || seen[r] {
            return Err(CoreError::InvalidSchedule {
                why: format!(
                    "rank_at_depth {:?} is not a permutation",
                    plan.rank_at_depth
                ),
            });
        }
        seen[r] = true;
    }
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
        // The low field carries a rank, a tile index or a gather slot.
        ComposePlan::Tiles(t) => Extents {
            low: t.grid.tiles().max(p) - 1,
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

/// Manifest bitmap: bit `t` set when the sender will ship tile `t`.
fn manifest_bytes(have: &[bool]) -> Vec<u8> {
    let mut bytes = vec![0u8; have.len().div_ceil(8)];
    for (t, &h) in have.iter().enumerate() {
        if h {
            bytes[t / 8] |= 1 << (t % 8);
        }
    }
    bytes
}

/// Read bit `t` of a manifest (an absent manifest reads all-blank).
fn manifest_bit(manifest: Option<&Vec<u8>>, t: usize) -> bool {
    manifest.is_some_and(|m| m.get(t / 8).is_some_and(|b| b & (1 << (t % 8)) != 0))
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

/// The message sub-channels of one announce → ship → collect → resolve
/// round.
struct Channels {
    manifest: TileChannel,
    segments: TileChannel,
    payload: TileChannel,
}

/// The round every compose runs, over all tiles and the planned owners.
const FIRST_ROUND: Channels = Channels {
    manifest: TileChannel::Manifest,
    segments: TileChannel::Segments,
    payload: TileChannel::Payload,
};

/// The round that re-collects dead owners' tiles at their new owners.
const REPAIR_ROUND: Channels = Channels {
    manifest: TileChannel::RepairManifest,
    segments: TileChannel::RepairSegments,
    payload: TileChannel::RepairPayload,
};

/// What one rank brings to a tile-family compose — the content scan of
/// its partial — and the round that both the first pass and the repair
/// run over it.
struct TileScan<'a, P: Pixel> {
    stage: &'a Stage<'a, P>,
    plan: &'a TilePlan,
    /// Which tiles of the local partial carry any content.
    have: Vec<bool>,
    /// `have` as the wire bitmap.
    manifest: Vec<u8>,
    /// Per tile, the per-row non-blank intervals (puzzle family only).
    segs: Vec<RowIvals>,
}

impl<P: Pixel> TileScan<'_, P> {
    /// One round over `tiles` (ascending, non-empty) under the owner map
    /// `owner_of`: announce this rank's manifest (and segment metadata) to
    /// the tiles' owners, ship its non-blank tiles straight to them, then —
    /// as an owner — collect the announcements in rank order and resolve
    /// each owned tile into `local`. Ranks in `dead` are neither heard
    /// from nor folded.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &self,
        ctx: &mut RankCtx,
        local: &mut Image<P>,
        scratch: &mut Scratch<P>,
        ch: &Channels,
        owner_of: &[usize],
        tiles: &[usize],
        dead: Option<&BTreeMap<usize, usize>>,
    ) -> Result<(), CoreError> {
        let me = ctx.rank();
        let config = self.stage.config;
        let frame_tag = config.frame_tag;
        let tiles_of = |r: usize| -> Vec<usize> {
            tiles
                .iter()
                .copied()
                .filter(|&t| owner_of[t] == r)
                .collect()
        };

        // ---- Announce: one fixed-size bitmap to every other owner. ------
        let owners: BTreeSet<usize> = tiles.iter().map(|&t| owner_of[t]).collect();
        for &o in owners.iter().filter(|&&o| o != me) {
            let wire = self.manifest.len() as u64;
            ctx.obs_counters(|c| c.add_wire_bytes("tile-manifest", wire));
            ctx.send(
                o,
                tag::tile(frame_tag, ch.manifest, me as u64),
                self.manifest.clone(),
            )?;
            if self.plan.budget.is_none() {
                continue;
            }
            let o_tiles = tiles_of(o);
            if o_tiles.iter().any(|&t| self.have[t]) {
                let blob = segments_blob(&o_tiles, &self.have, &self.segs);
                let wire = blob.len() as u64;
                ctx.obs_counters(|c| c.add_wire_bytes("pz-segments", wire));
                ctx.send(o, tag::tile(frame_tag, ch.segments, me as u64), blob)?;
            }
        }

        // ---- Ship non-blank tiles straight to their owners. -------------
        for &t in tiles {
            let owner = owner_of[t];
            if !self.have[t] || owner == me {
                continue;
            }
            let rows = self.plan.grid.row_spans(t);
            let tag = tag::tile(frame_tag, ch.payload, t as u64);
            self.stage
                .ship_spans(ctx, scratch, local, rows, owner, tag)?;
            ctx.obs_counters(|c| c.tiles_sent += 1);
        }

        // ---- Collect the announcements (owners only), in rank order. ----
        let mine = tiles_of(me);
        if mine.is_empty() {
            return Ok(());
        }
        let heard = |src: usize| src != me && !dead.is_some_and(|d| d.contains_key(&src));
        let mut have_of: Vec<Option<Vec<u8>>> = vec![None; self.plan.p];
        for src in (0..self.plan.p).filter(|&src| heard(src)) {
            match ctx.recv(src, tag::tile(frame_tag, ch.manifest, src as u64)) {
                Ok(bytes) => have_of[src] = Some(bytes.to_vec()),
                // A confirmed-dead peer contributed nothing: an absent
                // manifest reads all-blank, which is exact (blank is the
                // identity of `over`).
                Err(CommError::RankFailed { .. }) if config.resilient => {}
                Err(e) => return Err(e.into()),
            }
        }
        let mut remote_segs: BTreeMap<(usize, usize), RowIvals> = BTreeMap::new();
        if self.plan.budget.is_some() {
            for src in (0..self.plan.p).filter(|&src| heard(src)) {
                let Some(m) = have_of[src].as_ref() else {
                    continue;
                };
                if !mine.iter().any(|&t| manifest_bit(Some(m), t)) {
                    continue;
                }
                match ctx.recv(src, tag::tile(frame_tag, ch.segments, src as u64)) {
                    Ok(bytes) => {
                        let expects = |t| manifest_bit(Some(m), t);
                        let parsed =
                            parse_segments_blob(&self.plan.grid, &mine, expects, &bytes, src)?;
                        remote_segs.extend(parsed.into_iter().map(|(t, iv)| ((src, t), iv)));
                    }
                    // A dead sender's metadata stays absent: the affected
                    // tiles conservatively take the exact fold.
                    Err(CommError::RankFailed { .. }) if config.resilient => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }

        // ---- Resolve owned tiles: place within budget, or fold. ---------
        let expects = |r: usize, t: usize| manifest_bit(have_of[r].as_ref(), t);
        for &t in &mine {
            let placed = match self.plan.budget {
                None => false,
                Some(budget) => place_puzzle_tile(
                    ctx,
                    self.stage,
                    self.plan,
                    budget,
                    local,
                    scratch,
                    t,
                    &self.have,
                    &self.segs,
                    &expects,
                    &remote_segs,
                    ch.payload,
                    dead,
                )?,
            };
            if !placed {
                fold_tile(
                    ctx, self.stage, self.plan, local, scratch, t, &self.have, &expects,
                    ch.payload, dead,
                )?;
            }
        }
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
        manifest: manifest_bytes(&have),
        have,
        segs,
    };

    let tiles: Vec<usize> = (0..nt).filter(|&t| plan.grid.area(t) > 0).collect();
    scan.round(
        ctx,
        &mut local,
        scratch,
        &FIRST_ROUND,
        &plan.owner_of,
        &tiles,
        None,
    )?;

    ctx.mark(Mark::FlushStart);
    if my_crash == Some(1) {
        return Ok(ComposeOutput::crash(ctx, 1));
    }
    ctx.mark(Mark::ComposeEnd);

    // ---- Failure agreement + tile-granular repair. --------------------
    let mut effective_owner = plan.owner_of.clone();
    let (root, degraded) = agree_on_failures(ctx, config, p, 1, |ctx, crashed| {
        // Deterministic reassignment of dead owners' tiles.
        let mut reassigned: Vec<usize> = Vec::new();
        for &t in &tiles {
            let owner = &mut effective_owner[t];
            if crashed.contains_key(owner) {
                *owner = next_live_owner(*owner, p, crashed)?;
                reassigned.push(t);
            }
        }
        // Repair round: every live rank re-announces its content to the
        // new owners, then re-ships the non-blank reassigned tiles. The
        // new owner re-resolves from the *live* ranks only — the dead
        // owner's own content died with it.
        scan.round(
            ctx,
            &mut local,
            scratch,
            &REPAIR_ROUND,
            &effective_owner,
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
            let owner = effective_owner[t];
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

/// Left-fold one owned tile in depth order: blank accumulator, local
/// content merged at this rank's depth slot, remote payloads streamed
/// through the fused kernels on arrival. Writes the finished tile back
/// into `local`.
#[allow(clippy::too_many_arguments)]
fn fold_tile<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    plan: &TilePlan,
    local: &mut Image<P>,
    scratch: &mut Scratch<P>,
    t: usize,
    have: &[bool],
    expects: &impl Fn(usize, usize) -> bool,
    channel: TileChannel,
    skip: Option<&BTreeMap<usize, usize>>,
) -> Result<(), CoreError> {
    let me = ctx.rank();
    let area = plan.grid.area(t);
    let spans = plan.grid.row_spans(t);
    let mut acc = scratch.take_acc(area, ctx);
    for d in 0..plan.p {
        let r = plan.rank_at_depth[d];
        if skip.is_some_and(|dead| dead.contains_key(&r)) {
            continue;
        }
        if r == me {
            if !have[t] {
                continue;
            }
            // Fold the local tile at its depth position: acc = acc over
            // local (the incoming piece is deeper than everything folded
            // so far).
            let over_started = ctx.obs_start();
            let mut non_blank = 0usize;
            let mut at = 0usize;
            for span in &spans {
                for (a, s) in acc[at..at + span.len]
                    .iter_mut()
                    .zip(local.span_pixels(*span)?)
                {
                    if !s.is_blank() {
                        non_blank += 1;
                    }
                    *a = a.over(s);
                }
                at += span.len;
            }
            ctx.obs_span(Phase::Over, over_started);
            ctx.obs_counters(|c| {
                c.non_blank_merged += non_blank as u64;
                c.blank_skipped += (area - non_blank) as u64;
            });
            let over_units = if stage.raw { area } else { non_blank };
            ctx.compute(ComputeKind::Over, over_units as u64);
            continue;
        }
        if !expects(r, t) {
            continue;
        }
        let bytes = match ctx.recv(r, tag::tile(stage.config.frame_tag, channel, t as u64)) {
            Ok(bytes) => bytes,
            Err(CommError::RankFailed { .. }) if stage.config.resilient => continue,
            Err(e) => return Err(e.into()),
        };
        stage.merge(ctx, &bytes, &mut acc, OverDir::Back)?;
        ctx.obs_counters(|c| c.tiles_recv += 1);
    }
    scatter(local, spans, &acc)?;
    scratch.put_acc(acc);
    Ok(())
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
