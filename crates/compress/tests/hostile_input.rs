//! A codec stream is written by a peer, so `decode` and `decode_over` must
//! trust nothing in it: whatever the bytes, they return a typed error or
//! the right pixels — never a panic, never a different verdict from each
//! other, and never an allocation sized by a length the stream claims.
//! `decode_into` over a dirty destination is held to `decode_over(Front)`
//! onto blank over the same corpus.

mod common;

use proptest::prelude::*;
use rt_compress::{Codec, CodecKind, OverDir};
use rt_imaging::pixel::{GrayAlpha8, Pixel, Provenance};
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

/// Run `f` and return its result with the largest allocation it made.
fn watched<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Decode `data` as `dst.len()` pixels both ways, in both directions, and
/// hold the two walks to one verdict, one frame and one allocation bound.
fn check_stream<P: Pixel>(codec: &dyn Codec<P>, data: &[u8], dst: &[P], what: std::fmt::Arguments) {
    let what = format_args!("{} {what}", codec.name());
    // What an honest stream needs: the frame and the bytes that arrived
    // (RLE stages through a growing Vec, hence the factor).
    let budget = 4 * (dst.len() * P::BYTES + data.len()) + 1024;
    let (decoded, largest) = watched(|| codec.decode(data, dst.len()));
    assert!(largest <= budget, "{what}: decode allocated {largest} B");
    for dir in [OverDir::Front, OverDir::Back] {
        let mut got = dst.to_vec();
        let (fused, largest) = watched(|| codec.decode_over(data, &mut got, dir));
        assert!(
            largest <= budget,
            "{what}: decode_over allocated {largest} B"
        );
        let (Ok(pixels), Ok(stats)) = (&decoded, &fused) else {
            assert_eq!(
                decoded.is_ok(),
                fused.is_ok(),
                "{what}/{dir:?}: {decoded:?} vs {fused:?}"
            );
            continue;
        };
        let want: Vec<P> = pixels
            .iter()
            .zip(dst)
            .map(|(s, d)| match dir {
                OverDir::Front => s.over(d),
                OverDir::Back => d.over(s),
            })
            .collect();
        assert_eq!(got, want, "{what}/{dir:?}: composited pixels differ");
        let non_blank = pixels.iter().filter(|p| !p.is_blank()).count();
        assert_eq!(stats.non_blank, non_blank, "{what}/{dir:?}");
        assert_eq!(
            stats.blank_skipped,
            pixels.len() - non_blank,
            "{what}/{dir:?}"
        );
    }
    let ((), largest) = watched(|| common::check_decode_into(codec, data, dst.len(), ""));
    assert!(
        largest <= budget,
        "{what}: decode_into allocated {largest} B"
    );
}

/// Every prefix, every single-bit flip, every byte forced to 0 / 255 / ±1
/// (RLE counts, TRLE codes) and every 4-byte window forced to `u32::MAX` /
/// ±1 (`n_codes`, bounds `lead` / `content_len`) of a valid stream.
fn check_hostile<P: Pixel>(src: &[P], dst: &[P]) {
    for kind in CodecKind::ALL {
        let codec = kind.build::<P>();
        let valid = codec.encode(src).bytes;
        let codec = codec.as_ref();
        check_stream(codec, &valid, dst, format_args!("valid"));
        for cut in 0..valid.len() {
            check_stream(codec, &valid[..cut], dst, format_args!("cut at {cut}"));
        }
        for at in 0..valid.len() {
            let byte = valid[at];
            let flips = (0..8).map(|bit| byte ^ (1 << bit));
            let forced = [0, 255, byte.wrapping_add(1), byte.wrapping_sub(1)];
            for b in flips.chain(forced) {
                let mut data = valid.clone();
                data[at] = b;
                check_stream(codec, &data, dst, format_args!("byte {at} = {b:#04x}"));
            }
            let Some(window) = valid[at..].first_chunk::<4>() else {
                continue;
            };
            let claim = u32::from_le_bytes(*window);
            for c in [u32::MAX, claim.wrapping_add(1), claim.wrapping_sub(1)] {
                let mut data = valid.clone();
                data[at..at + 4].copy_from_slice(&c.to_le_bytes());
                check_stream(codec, &data, dst, format_args!("u32 at {at} = {c}"));
            }
        }
    }
}

proptest! {
    #[test]
    fn mutated_streams_are_refused_or_decoded_alike(
        // Short runs of blank, constant, opaque and varied pixels: every
        // codec leaves its raw fallback on some cases and not on others.
        runs in proptest::collection::vec((0u8..4, 1u8..=255, 1usize..24, any::<u64>()), 0..4),
    ) {
        let src = common::runs_to_pixels(runs);
        let dst: Vec<GrayAlpha8> = (0..src.len())
            .map(|i| GrayAlpha8::new((i * 31 % 256) as u8, (i * 17 % 256) as u8))
            .collect();
        check_hostile(&src, &dst);
        // The same content on the trait-default byte kernels, whose blank
        // test is not "all-zero bytes".
        let rank = |p: &GrayAlpha8| Provenance { lo: p.v as u16, hi: p.a as u16 };
        let src: Vec<Provenance> = src.iter().map(rank).collect();
        let dst: Vec<Provenance> = dst.iter().map(rank).collect();
        check_hostile(&src, &dst);
    }
}

#[test]
fn claimed_expansion_is_refused_before_it_is_allocated() {
    // 64 KiB that claim 8 MiB: RLE pairs of 255 blank bytes each, and TRLE
    // codes of sixteen blank tiles each, against a 16-pixel frame.
    let dst = vec![GrayAlpha8::blank(); 16];
    let rle = [vec![1u8], [255u8, 0].repeat(32 << 10)].concat();
    let trle = [vec![1u8, 0, 0, 1, 0], vec![0xF0u8; 64 << 10]].concat();
    for (kind, data) in [(CodecKind::Rle, rle), (CodecKind::Trle, trle)] {
        let codec = kind.build::<GrayAlpha8>();
        let (decoded, largest) = watched(|| codec.decode(&data, dst.len()));
        assert!(decoded.is_err(), "{kind:?}");
        assert!(largest < 4096, "{kind:?}: decode allocated {largest} B");
        check_stream(codec.as_ref(), &data, &dst, format_args!("64 KiB claim"));
    }
}
