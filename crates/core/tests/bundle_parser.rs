//! The tile bundle is the one wire format of the tile families that a peer
//! writes and this rank parses, so the parser must trust nothing: every
//! malformed input is a typed [`CoreError::InvalidSchedule`] — never a
//! panic, never a tile silently read as blank, and never an allocation
//! sized by a length the peer claimed.

use rt_core::tile::{parse_bundle, write_bundle, Piece, TileGrid};
use rt_core::CoreError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single allocation each thread makes.
struct Watermark;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Watermark = Watermark;

/// A 24×12 frame in 4×3 tiles of 6×4 pixels; the receiver owns `TILES`.
const TILES: [usize; 5] = [1, 4, 5, 8, 11];

fn grid() -> TileGrid {
    TileGrid::new(24, 12, 4, 3).unwrap()
}

/// The receiver's pieces: tiles 4, 5 and 11 carry content, 1 and 8 are
/// blank. Puzzle pieces carry one interval per tile row.
fn pieces(puzzle: bool) -> Vec<Option<Piece<'static>>> {
    let piece = |stream: &'static [u8], ivals: &[(u16, u16)]| {
        Some(Piece {
            ivals: if puzzle { ivals.to_vec() } else { Vec::new() },
            stream,
        })
    };
    vec![
        None,
        piece(b"four", &[(0, 6), (1, 5), (0, 0), (2, 3)]),
        piece(b"5", &[(0, 0), (0, 0), (3, 6), (0, 1)]),
        None,
        piece(b"eleven!", &[(0, 6), (0, 6), (0, 6), (0, 6)]),
    ]
}

/// Offsets of the bundle's sections: `(intervals, streams)`.
fn sections(puzzle: bool) -> (usize, usize) {
    (1, 1 + if puzzle { 3 * 4 * 4 } else { 0 })
}

fn parse(puzzle: bool, bytes: &[u8]) -> Result<Vec<Option<Piece<'_>>>, CoreError> {
    parse_bundle(&grid(), &TILES, puzzle, bytes, 2)
}

/// The parse fails with the typed error, naming the sender.
fn refused(puzzle: bool, bytes: &[u8]) -> String {
    match parse(puzzle, bytes) {
        Err(CoreError::InvalidSchedule { why }) => {
            assert!(why.contains("rank 2"), "{why}");
            why
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}

#[test]
fn a_written_bundle_parses_back_and_has_the_documented_layout() {
    for puzzle in [false, true] {
        let pieces = pieces(puzzle);
        let bundle = write_bundle(&pieces).unwrap();
        assert_eq!(parse(puzzle, &bundle).unwrap(), pieces);
        let (intervals, streams) = sections(puzzle);
        // Bitmap over the five tiles: bits 1, 2 and 4.
        assert_eq!(bundle[0], 0b1_0110);
        assert_eq!(bundle.len(), streams + (4 + 4) + (4 + 1) + (4 + 7));
        assert_eq!(&bundle[streams..streams + 8], b"\x04\0\0\0four");
        if puzzle {
            assert_eq!(&bundle[intervals..intervals + 4], [0, 0, 6, 0]);
        }
    }
    // All blank: the bundle is exactly the bitmap.
    let blank = write_bundle(&[None, None, None, None, None]).unwrap();
    assert_eq!(blank, vec![0]);
    assert!(parse(true, &blank).unwrap().iter().all(Option::is_none));
}

#[test]
fn every_truncation_and_every_extension_is_refused() {
    for puzzle in [false, true] {
        let bundle = write_bundle(&pieces(puzzle)).unwrap();
        for cut in 0..bundle.len() {
            refused(puzzle, &bundle[..cut]);
        }
        let mut longer = bundle.clone();
        longer.push(0);
        assert!(refused(puzzle, &longer).contains("1 trailing bytes"));
        // A bundle of the other family never parses as this one.
        refused(!puzzle, &bundle);
    }
}

#[test]
fn an_overlong_length_prefix_is_refused_without_allocating_for_it() {
    for puzzle in [false, true] {
        let bundle = write_bundle(&pieces(puzzle)).unwrap();
        let (_, streams) = sections(puzzle);
        // Each of the three length prefixes in turn: one byte too long,
        // and as long as a u32 can claim.
        for prefix in [streams, streams + 8, streams + 13] {
            for claim in [bundle.len() as u32, u32::MAX] {
                let mut bad = bundle.clone();
                bad[prefix..prefix + 4].copy_from_slice(&claim.to_le_bytes());
                LARGEST.with(|l| l.set(0));
                let why = refused(puzzle, &bad);
                let largest = LARGEST.with(Cell::get);
                assert!(why.contains("ends inside its streams"), "{why}");
                assert!(largest < 4096, "parse allocated {largest} bytes at once");
            }
        }
    }
}

#[test]
fn a_bitmap_of_the_wrong_length_is_refused() {
    let streams: Vec<Option<Piece>> = (0..16)
        .map(|i| {
            (i == 12).then_some(Piece {
                ivals: Vec::new(),
                stream: b"x",
            })
        })
        .collect();
    let sixteen = write_bundle(&streams).unwrap();
    let tiles: Vec<usize> = (0..12).collect();
    // Written over 16 tiles, read over 9: bit 12 is past the receiver's
    // tiles — not a blank tile, an error.
    let why = parse_bundle(&grid(), &tiles[..9], false, &sixteen, 0).unwrap_err();
    assert!(
        why.to_string().contains("sets a bit past its 9 tiles"),
        "{why}"
    );
    // Read over 8: the second bitmap byte is left over.
    assert!(parse_bundle(&grid(), &tiles[..8], false, &sixteen, 0).is_err());
    // Written over 4 blank tiles, read over 9: shorter than the bitmap.
    let four = write_bundle(&[None, None, None, None]).unwrap();
    let why = parse_bundle(&grid(), &tiles[..9], false, &four, 0).unwrap_err();
    assert!(why.to_string().contains("ends inside its bitmap"), "{why}");
}

#[test]
fn a_flipped_interval_bit_is_refused_or_stays_inside_its_tile() {
    let bundle = write_bundle(&pieces(true)).unwrap();
    let (intervals, streams) = sections(true);
    let mut refusals = 0;
    for bit in intervals * 8..streams * 8 {
        let mut bad = bundle.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        match parse(true, &bad) {
            // A flip may land on another legal interval; what the
            // placement indexes with must still lie inside the 6-wide tile.
            Ok(parsed) => {
                for piece in parsed.iter().flatten() {
                    assert_eq!(piece.ivals.len(), 4);
                    assert!(piece.ivals.iter().all(|&(lo, hi)| lo <= hi && hi <= 6));
                }
            }
            Err(CoreError::InvalidSchedule { why }) => {
                assert!(why.contains("carries the interval"), "{why}");
                refusals += 1;
            }
            Err(other) => panic!("bit {bit}: {other:?}"),
        }
    }
    // Every flip of a bit above the tile width is out of range.
    assert!(refusals >= (streams - intervals) * 8 * 3 / 4, "{refusals}");
}

#[test]
fn random_damage_never_panics() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for puzzle in [false, true] {
        let bundle = write_bundle(&pieces(puzzle)).unwrap();
        for _ in 0..4000 {
            let mut bad = bundle.clone();
            for _ in 0..1 + next() % 3 {
                let at = next() % bad.len();
                bad[at] = next() as u8;
            }
            bad.truncate(bad.len() - next() % 3);
            match parse(puzzle, &bad) {
                Ok(_) | Err(CoreError::InvalidSchedule { .. }) => {}
                Err(other) => panic!("{other:?}"),
            }
        }
    }
}
