//! The paper's full system on a medical dataset: partition the CT "head"
//! volume across eight ranks, shear-warp render each slab, composite with
//! rotate-tiling + TRLE, warp at the root, and write three orbit frames.
//!
//! This is the three-stage pipeline of the paper's Section 4 end to end,
//! including the view-dependent depth permutation of the ranks.
//!
//! Run with: `cargo run --release --example medical_pipeline`

use rotate_tiling::comm::{replay, CostModel};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::method::Method;
use rotate_tiling::core::rotate::RtVariant;
use rotate_tiling::imaging::io::save_pgm;
use rotate_tiling::pvr::pipeline::{render_frame, PipelineConfig};
use rotate_tiling::render::camera::Camera;
use rotate_tiling::render::datasets::Dataset;
use rotate_tiling::render::shearwarp::RenderOptions;

fn main() {
    let p = 8;
    for (i, yaw) in [0.0f64, 0.45, 0.9].into_iter().enumerate() {
        let config = PipelineConfig {
            dataset: Dataset::Head,
            volume_size: 96,
            seed: 2001,
            camera: Camera::yaw_pitch(yaw, 0.25),
            render: RenderOptions::square(384),
            method: Method::RotateTiling {
                variant: RtVariant::TwoN,
                blocks: 4,
            },
            codec: CodecKind::Trle,
            root: 0,
        };
        let out = render_frame(p, &config).expect("pipeline runs");
        let report = replay(&out.trace, &CostModel::SP2).expect("trace replays");
        println!(
            "frame {i}: yaw {yaw:.2}  depth order {:?}",
            out.rank_of_depth
        );
        println!(
            "  virtual SP2 timings: render {:.2} ms, compose {:.2} ms, compose+gather {:.2} ms",
            1e3 * report.phase("render:start", "render:end").unwrap_or(0.0),
            1e3 * report.phase("compose:start", "compose:end").unwrap(),
            1e3 * report.phase("compose:start", "gather:end").unwrap(),
        );
        println!(
            "  traffic: {} messages, {} bytes after TRLE",
            out.trace.message_count(),
            out.trace.bytes_sent()
        );
        let name = format!("head_orbit_{i}.pgm");
        save_pgm(&out.frame, &name).expect("write frame");
        println!("  wrote {name}");
    }
}
