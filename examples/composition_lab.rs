//! Composition lab: compare every method × codec on one rendered scene.
//!
//! Renders the "brain" dataset into twelve depth-ordered partials, then
//! runs binary-swap, parallel-pipelined, direct-send and both rotate-tiling
//! variants under each codec, printing virtual SP2 composition times and
//! traffic — a miniature of the paper's Figure 8 you can play with.
//!
//! Also prints the paper's Figure 1 worked example (2N_RT, P = 3, four
//! blocks) as a schedule walkthrough.
//!
//! Run with: `cargo run --release --example composition_lab`

use rotate_tiling::comm::{replay, CostModel};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::method::{CompositionMethod, Method};
use rotate_tiling::core::rotate::RtVariant;
use rotate_tiling::core::RotateTiling;
use rotate_tiling::pvr::scene::{compose_scene, prepare_scene_screen};
use rotate_tiling::render::camera::Camera;
use rotate_tiling::render::datasets::Dataset;
use rotate_tiling::render::shearwarp::RenderOptions;

fn main() {
    // The paper's Figure 1 example, verified and printed.
    let fig1 = RotateTiling::two_n(4).build(3, 240).unwrap();
    rotate_tiling::core::schedule::verify_schedule(&fig1).unwrap();
    println!("{}", fig1.walkthrough());

    // A twelve-rank brain scene (note: 12 is not a power of two, so plain
    // binary-swap is inapplicable — the situation rotate-tiling targets).
    let p = 12;
    println!("rendering {p}-rank brain scene...");
    let scene = prepare_scene_screen(
        p,
        Dataset::Brain,
        72,
        2001,
        &Camera::yaw_pitch(0.3, 0.2),
        &RenderOptions {
            early_termination: 1.0,
            ..RenderOptions::square(320)
        },
    )
    .expect("scene renders");
    println!(
        "mean blank fraction of the partials: {:.2}\n",
        scene.mean_blank_fraction()
    );

    let methods = [
        Method::BinarySwap,
        Method::BinarySwapFold,
        Method::ParallelPipelined,
        Method::DirectSend,
        Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        },
        Method::RotateTiling {
            variant: RtVariant::N,
            blocks: 3,
        },
    ];

    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "method", "codec", "time(ms)", "msgs", "bytes", "vs raw"
    );
    for method in methods {
        let mut raw_time = None;
        for codec in CodecKind::ALL {
            match compose_scene(&scene, method, codec, true) {
                Ok((_, trace)) => {
                    let report = replay(&trace, &CostModel::SP2).unwrap();
                    let t = report.phase("compose:start", "gather:end").unwrap();
                    let raw = *raw_time.get_or_insert(t);
                    println!(
                        "{:<12} {:>8} {:>10.3} {:>10} {:>10} {:>9.2}x",
                        method.name(),
                        codec.name(),
                        1e3 * t,
                        trace.message_count(),
                        trace.bytes_sent(),
                        raw / t
                    );
                }
                Err(e) => {
                    println!("{:<12} {:>8}   {e}", method.name(), codec.name());
                    break;
                }
            }
        }
    }
}
