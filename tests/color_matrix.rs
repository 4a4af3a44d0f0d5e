//! The composition machinery is pixel-type generic; this matrix proves the
//! full stack (schedules → executor → codecs → gather) on RGBA and f32
//! gray pixels, complementing the `Provenance` exactness matrix and the
//! 8-bit figure runs.

use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::core::{Method, RtVariant};
use rotate_tiling::imaging::image::reference_composite;
use rotate_tiling::imaging::{GrayAlpha, Image, Rgba};

fn rt_2n(blocks: usize) -> Method {
    Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks,
    }
}

fn rt_n(blocks: usize) -> Method {
    Method::RotateTiling {
        variant: RtVariant::N,
        blocks,
    }
}

fn rgba_partials(p: usize, len: usize) -> Vec<Image<Rgba>> {
    (0..p)
        .map(|r| {
            Image::from_fn(len, 1, |x, _| {
                if (x / 37 + r) % 3 == 0 {
                    let a = 0.4 + 0.05 * r as f32;
                    Rgba::new(
                        a * (x % 11) as f32 / 11.0,
                        a * (x % 7) as f32 / 7.0,
                        a * (r as f32 / p as f32),
                        a,
                    )
                } else {
                    Rgba::new(0.0, 0.0, 0.0, 0.0)
                }
            })
        })
        .collect()
}

fn gray_partials(p: usize, len: usize) -> Vec<Image<GrayAlpha>> {
    (0..p)
        .map(|r| {
            Image::from_fn(len, 1, |x, _| {
                if (x / 23 + r) % 2 == 0 {
                    let a = 0.3 + 0.07 * r as f32;
                    GrayAlpha::new(a * (x % 13) as f32 / 13.0, a)
                } else {
                    GrayAlpha::new(0.0, 0.0)
                }
            })
        })
        .collect()
}

#[test]
fn rgba_composition_matches_reference_for_every_method_and_codec() {
    let p = 6;
    let len = 900;
    let partials = rgba_partials(p, len);
    let want = reference_composite(&partials).unwrap();
    let methods: Vec<Method> = vec![Method::ParallelPipelined, rt_2n(4), rt_n(3)];
    for m in &methods {
        for codec in CodecKind::ALL {
            let schedule = m.build(p, len).unwrap();
            let (results, _) = Run::new(
                &ComposePlan::Schedule(schedule.clone()),
                &ComposeConfig {
                    codec,
                    root: 0,
                    ..Default::default()
                },
            )
            .execute(partials.clone());
            let frame = results
                .into_iter()
                .filter_map(|r| r.unwrap().frame)
                .next()
                .unwrap();
            assert!(
                frame.approx_eq(&want, 1e-4),
                "{} codec {codec:?}: {:?}",
                m.name(),
                frame.first_mismatch(&want, 1e-4)
            );
        }
    }
}

#[test]
fn f32_gray_composition_matches_reference() {
    let p = 8;
    let len = 1024;
    let partials = gray_partials(p, len);
    let want = reference_composite(&partials).unwrap();
    for m in [Method::BinarySwap, rt_2n(2)] {
        let schedule = m.build(p, len).unwrap();
        let (results, _) = Run::new(
            &ComposePlan::Schedule(schedule.clone()),
            &ComposeConfig {
                codec: CodecKind::Trle,
                root: 0,
                ..Default::default()
            },
        )
        .execute(partials.clone());
        let frame = results
            .into_iter()
            .filter_map(|r| r.unwrap().frame)
            .next()
            .unwrap();
        assert!(frame.approx_eq(&want, 1e-4), "{}", m.name());
    }
}

#[test]
fn trle_compresses_rgba_blank_structure() {
    // 16-byte RGBA pixels: the blank mask mechanism is format-agnostic.
    let p = 4;
    let len = 4096;
    let partials = rgba_partials(p, len);
    let schedule = rt_2n(2).build(p, len).unwrap();
    let run = |codec| {
        let (results, trace) = Run::new(
            &ComposePlan::Schedule(schedule.clone()),
            &ComposeConfig {
                codec,
                root: 0,
                ..Default::default()
            },
        )
        .execute(partials.clone());
        for r in results {
            r.unwrap();
        }
        trace.bytes_sent()
    };
    let raw = run(CodecKind::Raw);
    let trle = run(CodecKind::Trle);
    assert!(trle * 10 < raw * 6, "trle {trle} vs raw {raw}");
}
