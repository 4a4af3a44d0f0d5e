//! Compose over real TCP sockets and reconcile against the in-process run.
//!
//! Runs the same four-rank rotate-tiling composition twice — once over the
//! default in-process channels, once over loopback TCP sockets (`rt-net`) —
//! and verifies the two backends are indistinguishable above the transport:
//! same final frame, same event trace, and therefore the same virtual-clock
//! phase summary when the trace is priced under the paper's cost model.
//!
//! Run with: `cargo run --release --example netcompose`

use rotate_tiling::comm::{replay_timeline, CostModel};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, TransportKind};
use rotate_tiling::core::schedule::verify_schedule;
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::core::{Method, RtVariant};
use rotate_tiling::imaging::{GrayAlpha, Image, Pixel};

fn main() {
    let p = 4;
    let (w, h) = (256, 256);

    // Depth-ordered partials: rank r owns a horizontal band of the frame.
    let partials: Vec<Image<GrayAlpha>> = (0..p)
        .map(|r| {
            let (lo, hi) = (r * h / p, (r + 1) * h / p);
            Image::from_fn(w, h, |x, y| {
                if y >= lo && y < hi {
                    GrayAlpha::new(0.2 + 0.6 * (x as f32 / w as f32), 0.7)
                } else {
                    GrayAlpha::blank()
                }
            })
        })
        .collect();

    let method = Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    };
    let schedule = method.build(p, w * h).expect("shape is admissible");
    verify_schedule(&schedule).expect("schedule is provably correct");

    // One config per backend; everything but the transport is identical.
    let config = ComposeConfig::default().with_codec(CodecKind::Trle);
    let frame_of = |transport: TransportKind| {
        let (results, trace) = Run::new(
            &ComposePlan::Schedule(schedule.clone()),
            &config.with_transport(transport),
        )
        .execute(partials.clone());
        let frame = results
            .into_iter()
            .filter_map(|r| r.expect("composition succeeds").frame)
            .next()
            .expect("root holds the frame");
        (frame, trace)
    };

    let (inproc_frame, inproc_trace) = frame_of(TransportKind::InProc);
    let (tcp_frame, tcp_trace) = frame_of(TransportKind::TcpLoopback);

    // The transport is invisible above the envelope: bit-identical frames
    // and bit-identical logical event traces.
    assert!(tcp_frame.approx_eq(&inproc_frame, 0.0), "frames diverged");
    assert_eq!(tcp_trace, inproc_trace, "event traces diverged");
    println!(
        "{} over {} ranks: TCP loopback run reconciled against in-process \
         (frame and {}-message trace bit-identical)",
        schedule.method,
        p,
        tcp_trace.message_count()
    );

    // Identical traces price identically: the virtual phase summary is the
    // same regardless of which wire carried the bytes.
    let (report, _) = replay_timeline(&tcp_trace, &CostModel::SP2).expect("valid trace");
    println!("\nvirtual phase summary (SP2 cost model, ms):");
    println!(
        "{:>4}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "rank", "send", "wait", "over", "codec", "finish"
    );
    for (rank, s) in report.ranks.iter().enumerate() {
        println!(
            "{:>4}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}",
            rank,
            1e3 * s.send_time,
            1e3 * s.wait_time,
            1e3 * s.over_time,
            1e3 * s.codec_time,
            1e3 * s.finish
        );
    }
    println!("virtual makespan: {:.3} ms", 1e3 * report.makespan);
}
