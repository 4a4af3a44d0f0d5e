//! Cross-backend determinism: the TCP transport must be invisible above
//! the envelope.
//!
//! For every Figure-6 method × {raw, rle, trle} × P ∈ {4, 8}, running the
//! same composition over in-process channels and over loopback TCP
//! sockets must produce **byte-identical** final frames and
//! **byte-identical** event traces — the trace records logical sends and
//! receives, and the reliable-delivery envelope (seq, checksum,
//! retransmit) lives above the [`rt_comm::Transport`] trait, so nothing
//! about the wire may leak into observable behaviour. A proptest varies
//! the image content on top of the fixed matrix, and a fault-injection
//! case checks that a dropped frame retransmits identically on TCP.

use proptest::prelude::*;
use rotate_tiling::comm::{FaultPlan, Trace};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, TransportKind};
use rotate_tiling::core::method::Method;
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::imaging::{GrayAlpha8, Image, Pixel};

const EDGE: usize = 64;

/// Depth-ordered partials with 8-pixel runs in rank `r`'s horizontal band
/// (the sparsity profile the structured codecs exist for), perturbed by
/// `seed` so the proptest exercises varied content.
fn partials(p: usize, seed: u64) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|r| {
            let (lo, hi) = (r * EDGE / p, (r + 1) * EDGE / p);
            Image::from_fn(EDGE, EDGE, |x, y| {
                if y >= lo && y < hi {
                    let v = ((x / 8) as u64 * 7 + r as u64 + seed) % 151;
                    GrayAlpha8::new(v as u8, 200)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

/// Run one cell on the given backend; returns the root's frame and the
/// event trace.
fn run_cell(
    method: Method,
    codec: CodecKind,
    p: usize,
    seed: u64,
    transport: TransportKind,
) -> (Image<GrayAlpha8>, Trace) {
    let schedule = method
        .build(p, EDGE * EDGE)
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    let config = ComposeConfig::default()
        .with_codec(codec)
        .with_transport(transport);
    let (results, trace) =
        Run::new(&ComposePlan::Schedule(schedule.clone()), &config).execute(partials(p, seed));
    let frame = results
        .into_iter()
        .filter_map(|r| r.expect("composition succeeds").frame)
        .next()
        .expect("root holds the frame");
    (frame, trace)
}

fn assert_cell_matches(method: Method, codec: CodecKind, p: usize, seed: u64) {
    let (inproc_frame, inproc_trace) = run_cell(method, codec, p, seed, TransportKind::InProc);
    let (tcp_frame, tcp_trace) = run_cell(method, codec, p, seed, TransportKind::TcpLoopback);
    let label = format!("{}/{codec:?}/p={p}", method.name());
    assert_eq!(
        tcp_frame.pixels(),
        inproc_frame.pixels(),
        "{label}: frames diverged between backends"
    );
    assert_eq!(
        tcp_trace, inproc_trace,
        "{label}: event traces diverged between backends"
    );
}

/// The full ISSUE matrix, exhaustively: every Figure-6 method × codec × P.
#[test]
fn tcp_matches_inproc_across_the_figure6_matrix() {
    for p in [4usize, 8] {
        for method in Method::figure6_lineup() {
            for codec in [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle] {
                assert_cell_matches(method, codec, p, 0);
            }
        }
    }
}

proptest! {
    // TCP meshes are comparatively expensive to stand up; a handful of
    // randomized cells on top of the exhaustive matrix is plenty.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random content, method, codec and size: backends still agree.
    #[test]
    fn tcp_matches_inproc_on_random_cells(
        which in 0usize..4,
        codec_ix in 0usize..3,
        p_ix in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let method = Method::figure6_lineup()[which];
        let codec = [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle][codec_ix];
        let p = [4usize, 8][p_ix];
        assert_cell_matches(method, codec, p, seed);
    }
}

/// Fault injection over TCP: a dropped frame is retransmitted by the
/// envelope exactly as in-process — same trace, same final frame as a
/// clean run.
#[test]
fn dropped_frame_retransmits_identically_on_tcp() {
    // Index 2 of the lineup is 2N_RT(B=4).
    let method = Method::figure6_lineup()[2];
    let schedule = method.build(4, EDGE * EDGE).unwrap();
    let config = |transport| {
        ComposeConfig::default()
            .with_codec(CodecKind::Trle)
            .with_transport(transport)
    };
    let plan = || FaultPlan::none().drop_message(0, 1, 0);

    fn frame_of(
        results: Vec<
            Result<
                rotate_tiling::core::exec::ComposeOutput<GrayAlpha8>,
                rotate_tiling::core::CoreError,
            >,
        >,
    ) -> Image<GrayAlpha8> {
        results
            .into_iter()
            .filter_map(|r| r.expect("composition succeeds").frame)
            .next()
            .expect("root holds the frame")
    }

    let (tcp_results, tcp_trace) = Run::new(
        &ComposePlan::Schedule(schedule.clone()),
        &config(TransportKind::TcpLoopback),
    )
    .faults(plan())
    .execute(partials(4, 0));
    let (inproc_results, inproc_trace) = Run::new(
        &ComposePlan::Schedule(schedule.clone()),
        &config(TransportKind::InProc),
    )
    .faults(plan())
    .execute(partials(4, 0));
    let (clean_results, _) = Run::new(
        &ComposePlan::Schedule(schedule.clone()),
        &config(TransportKind::InProc),
    )
    .execute(partials(4, 0));

    assert!(
        tcp_trace.retransmit_count() > 0,
        "the planned drop must force a retransmit"
    );
    assert_eq!(
        tcp_trace, inproc_trace,
        "faulty traces diverged between backends"
    );
    let tcp_frame = frame_of(tcp_results);
    assert_eq!(
        tcp_frame.pixels(),
        frame_of(inproc_results).pixels(),
        "faulty frames diverged between backends"
    );
    assert_eq!(
        tcp_frame.pixels(),
        frame_of(clean_results).pixels(),
        "retransmission must recover the clean frame bit-exactly"
    );
}
