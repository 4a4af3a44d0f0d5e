//! The tile path's allocation budget: a steady-state frame of tile
//! ownership allocates per rank and per message, never per tile, per tile
//! row or per shipped tile — each shipped tile is encoded straight into its
//! bundle, and the round's lists live in the rank's scratch. Its own test
//! binary, because it installs a counting global allocator.

use rotate_tiling::comm::FaultPlan;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::method::Method;
use rotate_tiling::core::tile::ComposePlan;
use rotate_tiling::core::{compose_plan, Machine, Scratch};
use rotate_tiling::imaging::{GrayAlpha8, Image, Pixel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Two ranks each hold a disc of content 40 pixels across, so each ships a
/// few dozen of its tiles and most tiles of the 256 are blank.
fn disc_partials(edge: usize) -> Vec<Image<GrayAlpha8>> {
    [(70, 90), (150, 120)]
        .into_iter()
        .map(|(cx, cy): (usize, usize)| {
            Image::from_fn(edge, edge, |x, y| {
                let d2 = x.abs_diff(cx).pow(2) + y.abs_diff(cy).pow(2);
                match d2 < 20 * 20 {
                    true => GrayAlpha8::new((x + y) as u8 / 2, 200),
                    false => GrayAlpha8::blank(),
                }
            })
        })
        .collect()
}

/// What a rank makes once a frame whatever it ships: the frame at the
/// root, and now and then a step of its trace's or its channels' growth
/// (a steady frame reads 7–11 of the budget's 14 at P = 2). Its marks are
/// plain values, and its flags, tile lists, owner map and parsed bundles
/// are scratch kept from the frame before.
const PER_RANK: usize = 4;
/// What one message costs: its buffer and the payload handle it travels
/// in. The receiver parses it into its scratch.
const PER_MESSAGE: usize = 2;

/// A steady state frame of `method` (a 16 × 16 tile plan at P = 2 over
/// [`disc_partials`]): the allocations of each frame, and how many tiles
/// the ranks ship and how many messages a frame sends.
fn frame_allocations(method: Method) -> (Vec<u64>, usize, usize) {
    let (p, edge, frames) = (2, 256, 4);
    let plan = method.plan(p, edge, edge).unwrap();
    let ComposePlan::Tiles(tiles) = &plan else {
        unreachable!("{method:?} compiles to a tile plan")
    };
    let partials = disc_partials(edge);
    // A rank ships its content on every tile another rank owns.
    let shipped = (0..p)
        .flat_map(|r| (0..tiles.grid.tiles()).map(move |t| (r, t)))
        .filter(|&(r, t)| tiles.owner_of[t] != r)
        .filter(|&(r, t)| {
            let mut rows = tiles.grid.row_spans(t);
            rows.any(|row| {
                partials[r]
                    .span_pixels(row)
                    .unwrap()
                    .iter()
                    .any(|px| !px.is_blank())
            })
        })
        .count();
    let config = ComposeConfig::default();
    let machine = Machine::build(p, &config, FaultPlan::none(), None);
    // Between the first and the last of a frame's four barriers every rank
    // composes and does nothing else, so rank 0's reading of the global
    // count across the middle two is the frame's allocations.
    let sync = Barrier::new(p);
    let (counts, trace) = machine.run(|ctx| {
        let mut scratch = Scratch::default();
        let mut counts = Vec::with_capacity(frames);
        for frame in 0..frames as u64 {
            let local = partials[ctx.rank()].clone();
            let config = config.with_frame(frame);
            sync.wait();
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            sync.wait();
            let out = compose_plan(ctx, &plan, local, &config, &mut scratch);
            sync.wait();
            counts.push(ALLOCATIONS.load(Ordering::SeqCst) - before);
            sync.wait();
            assert!(out.is_ok(), "frame {frame}: {out:?}");
        }
        counts
    });
    // One bundle per (sender, owner) and one gather message per non-root
    // owner, whatever the content.
    let messages = trace.message_count() as usize / frames;
    assert_eq!(messages, p * (p - 1) + p - 1);
    assert!(
        shipped > 0 && shipped < tiles.grid.tiles() / 4,
        "{shipped} tiles shipped"
    );
    (counts.into_iter().next().unwrap(), shipped, messages)
}

/// Tile ownership and then puzzlepiece (budget 150 ‰), one after the
/// other in one test, as the counter is global: the puzzle family keeps
/// its per-tile intervals in the scratch too and walks a tile's
/// contributors without collecting them, so it meets the same budget.
#[test]
fn a_steady_state_tile_frame_allocates_fewer_times_than_it_has_tiles() {
    let (p, tiles) = (2, 256);
    let (tiles_x, tiles_y) = (16, 16);
    let methods = [
        Method::TileOwner { tiles_x, tiles_y },
        Method::Puzzle {
            tiles_x,
            tiles_y,
            budget_permille: 150,
        },
    ];
    for method in methods {
        let name = method.name();
        let (counts, shipped, messages) = frame_allocations(method);
        // The first frame fills the scratch buffers; the last is steady state.
        let steady = *counts.last().unwrap() as usize;
        let budget = PER_RANK * p + PER_MESSAGE * messages;
        eprintln!("{name}: allocations per frame: {counts:?}, budget {budget}");
        assert!(
            steady < tiles,
            "a steady-state {name} frame made {steady} allocations for {tiles} tiles"
        );
        assert!(
            steady <= budget,
            "a steady-state {name} frame shipping {shipped} tiles made {steady} allocations, \
             over its budget of {PER_RANK} per rank x {p} + {PER_MESSAGE} per message x \
             {messages} = {budget}"
        );
    }
}
