//! Quickstart: composite eight partial images with rotate-tiling.
//!
//! Builds a tiny sort-last scenario by hand — eight ranks, each holding a
//! translucent full-frame partial — then runs the paper's 2N_RT method over
//! the threaded multicomputer, checks the result against the sequential
//! reference, and prices the run under the paper's SP2 cost model.
//!
//! Run with: `cargo run --release --example quickstart`

use rotate_tiling::comm::{replay, CostModel};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::schedule::verify_schedule;
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::core::{Method, RtVariant};
use rotate_tiling::imaging::{GrayAlpha, Image, Pixel};

fn main() {
    let p = 8;
    let (w, h) = (256, 256);

    // Each rank renders a soft diagonal band — rank 0 nearest the viewer.
    let partials: Vec<Image<GrayAlpha>> = (0..p)
        .map(|r| {
            Image::from_fn(w, h, |x, y| {
                let band = (x + y) / 64;
                if band % p == r {
                    GrayAlpha::new(0.5 * (r as f32 + 1.0) / p as f32, 0.6)
                } else {
                    GrayAlpha::blank()
                }
            })
        })
        .collect();

    // The paper's 2N_RT method with four initial blocks.
    let method = Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    };
    let schedule = method.build(p, w * h).expect("shape is admissible");
    verify_schedule(&schedule).expect("schedule is provably correct");
    println!(
        "{}: {} steps, {} messages, {} pixels shipped",
        schedule.method,
        schedule.step_count(),
        schedule.message_count(),
        schedule.pixels_shipped()
    );

    // Execute over the threaded multicomputer with TRLE compression.
    let config = ComposeConfig {
        codec: CodecKind::Trle,
        root: 0,
        ..Default::default()
    };
    let (results, trace) =
        Run::new(&ComposePlan::Schedule(schedule.clone()), &config).execute(partials.clone());
    let frame = results
        .into_iter()
        .filter_map(|r| r.expect("composition succeeds").frame)
        .next()
        .expect("root holds the frame");

    // Verify against the sequential depth-ordered reference.
    let reference = rotate_tiling::imaging::image::reference_composite(&partials).unwrap();
    assert!(frame.approx_eq(&reference, 1e-5), "parallel == sequential");
    println!("frame verified against the sequential reference");

    // Price the run on the virtual SP2.
    let report = replay(&trace, &CostModel::SP2).expect("consistent trace");
    println!(
        "virtual SP2 composition time: {:.3} ms ({} messages, {} bytes after TRLE)",
        1e3 * report.phase("compose:start", "gather:end").unwrap(),
        trace.message_count(),
        trace.bytes_sent()
    );

    rotate_tiling::imaging::io::save_pgm(&frame, "quickstart.pgm").expect("write PGM");
    println!("wrote quickstart.pgm");
}
