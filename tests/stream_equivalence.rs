//! Streaming equivalence: the pipelined frame stream must be
//! frame-for-frame **byte-identical** to the serial per-frame pipeline —
//! across composition methods, codecs, machine sizes and transports —
//! and must keep the repo's failure trichotomy per frame under chaos.

use rotate_tiling::comm::FaultPlan;
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::TransportKind;
use rotate_tiling::core::hier::IntraMethod;
use rotate_tiling::core::method::Method;
use rotate_tiling::imaging::{GrayAlpha, Image};
use rotate_tiling::pvr::pipeline::{render_frame, FrameRun, PipelineConfig};
use rotate_tiling::pvr::stream::{StreamConfig, StreamSession};
use rotate_tiling::pvr::PvrError;
use rotate_tiling::pvr::{orbit_cameras, OrbitConfig};
use rotate_tiling::render::shearwarp::RenderOptions;

fn base(method: Method, codec: CodecKind) -> PipelineConfig {
    let mut config = PipelineConfig::small(method);
    config.codec = codec;
    config.volume_size = 20;
    config.render = RenderOptions {
        early_termination: 1.0,
        ..RenderOptions::square(56)
    };
    config
}

fn serial_frames(p: usize, config: &PipelineConfig, orbit: &OrbitConfig) -> Vec<Image<GrayAlpha>> {
    orbit_cameras(orbit)
        .into_iter()
        .map(|(_, camera)| {
            let mut c = *config;
            c.camera = camera;
            render_frame(p, &c).unwrap().frame
        })
        .collect()
}

/// The core grid: every composition method × codec × P ∈ {4, 8}, streamed
/// in-process, must reproduce the serial loop byte for byte, in order. A
/// hierarchical schedule rides along: each frame's camera relabels it like
/// any flat one.
#[test]
fn streamed_frames_are_byte_identical_across_methods_codecs_and_p() {
    let orbit = OrbitConfig::quarter(3);
    let hier = Method::Hier {
        k: 2,
        intra: IntraMethod::BinarySwap,
    };
    for method in Method::figure6_lineup().into_iter().chain([hier]) {
        for codec in [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle] {
            for p in [4usize, 8] {
                let config = base(method, codec);
                let want = serial_frames(p, &config, &orbit);
                let session = StreamSession::new(p);
                let got = session
                    .open()
                    .collect_orbit(&StreamConfig::new(config), &orbit)
                    .unwrap();
                assert_eq!(got.len(), want.len());
                for (k, (frame, want)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(frame.seq, k as u64);
                    assert!(frame.degraded.is_none());
                    assert_eq!(
                        frame.frame.pixels(),
                        want.pixels(),
                        "{method:?} {codec:?} p={p} frame {k} diverged"
                    );
                }
            }
        }
    }
}

/// The TCP backend streams the same bytes the in-process backend does.
#[test]
fn tcp_stream_is_byte_identical_to_serial() {
    let orbit = OrbitConfig::quarter(3);
    let config = base(
        Method::RotateTiling {
            variant: rotate_tiling::core::rotate::RtVariant::TwoN,
            blocks: 4,
        },
        CodecKind::Trle,
    );
    let want = serial_frames(4, &config, &orbit);
    let session = StreamSession::new(4);
    let got = session
        .open()
        .collect_orbit(
            &StreamConfig::new(config).with_transport(TransportKind::TcpLoopback),
            &orbit,
        )
        .unwrap();
    for (k, (frame, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            frame.frame.pixels(),
            want.pixels(),
            "tcp frame {k} diverged"
        );
    }
}

/// Message chaos (drops + corruption) mid-stream: retransmission absorbs
/// every fault, so the frames still match the clean serial loop exactly —
/// the trichotomy's bit-exact arm — while the traces prove the faults
/// actually fired.
#[test]
fn seeded_message_chaos_mid_stream_resolves_to_bit_exact() {
    let orbit = OrbitConfig::quarter(4);
    let config = base(Method::BinarySwap, CodecKind::Rle);
    let want = serial_frames(4, &config, &orbit);
    let faults = FaultPlan::none()
        .with_seed(23)
        .drop_rate(0.06)
        .corrupt_rate(0.04);
    let session = StreamSession::new(4);
    let got = session
        .open()
        .collect_orbit(&StreamConfig::new(config).with_faults(faults), &orbit)
        .unwrap();
    let mut retransmits = 0u64;
    for (k, (frame, want)) in got.iter().zip(&want).enumerate() {
        assert!(frame.degraded.is_none());
        assert_eq!(
            frame.frame.pixels(),
            want.pixels(),
            "chaos frame {k} diverged"
        );
        retransmits += frame.trace.retransmit_count();
    }
    assert!(retransmits > 0, "the seed should drop at least one message");
}

/// A fault-plan crash mid-stream: the crash frame is byte-identical to
/// the serial faulty run of the same plan, and every frame resolves to
/// the trichotomy's exact-degraded arm with the crash attributed.
#[test]
fn seeded_crash_mid_stream_resolves_to_exact_degraded() {
    let orbit = OrbitConfig::quarter(3);
    let config = base(Method::BinarySwap, CodecKind::Trle);
    let faults = FaultPlan::none().crash_rank_at_step(1, 1);
    let session = StreamSession::new(4);
    let got = session
        .open()
        .collect_orbit(
            &StreamConfig::new(config).with_faults(faults.clone()),
            &orbit,
        )
        .unwrap();
    assert_eq!(got.len(), 3);
    // Frame 0 sees the same fresh machine the serial run does: exact match
    // against the serial degraded frame.
    let mut c = config;
    c.camera = orbit_cameras(&orbit)[0].1;
    let serial = FrameRun::new(4, &c).faults(faults).execute().unwrap();
    assert_eq!(got[0].frame.pixels(), serial.frame.pixels());
    assert_eq!(
        got[0].degraded.as_ref().map(|d| d.failed.clone()),
        serial.degraded.as_ref().map(|d| d.failed.clone())
    );
    // From the crash on, the rank is gone for good: every frame reports
    // the degradation and composites exactly the survivors' pixels.
    for frame in &got {
        let info = frame.degraded.as_ref().expect("crash reported");
        assert_eq!(info.failed, vec![(1, 1)]);
        assert!(frame.frame.pixels().iter().all(|px| px.a.is_finite()));
    }
}

/// Frame-boundary death attribution, on both transports: a rank dying
/// between frames k-1 and k fails frame k — with frame k's index — and
/// detection is prompt (the death-notification fast path, not the
/// receive deadline).
#[test]
fn between_frame_death_attributes_the_abandoned_frame_on_both_transports() {
    let orbit = OrbitConfig::quarter(3);
    for transport in [TransportKind::InProc, TransportKind::TcpLoopback] {
        let config = StreamConfig::new(base(Method::BinarySwap, CodecKind::Raw))
            .with_transport(transport)
            .kill_rank_before_frame(2, 1);
        let started = std::time::Instant::now();
        let session = StreamSession::new(4);
        let mut stream = session.open().stream_orbit(&config, &orbit);
        let first = stream
            .next()
            .expect("frame 0 emitted")
            .expect("frame 0 clean");
        assert_eq!(first.stats.index, 0);
        let err = stream.next().expect("error emitted").unwrap_err();
        match err {
            PvrError::Frame { index, .. } => assert_eq!(index, 1, "{transport:?}"),
            other => panic!("{transport:?}: expected frame error, got {other}"),
        }
        assert!(stream.next().is_none());
        assert!(
            started.elapsed() < std::time::Duration::from_secs(8),
            "{transport:?}: death detection stalled ({:?})",
            started.elapsed()
        );
    }
}

/// Satellite of the puzzle subsystem: `Method::Puzzle` plans thread
/// through the streaming path (plan → per-camera rank permutation →
/// compose) like any other plan method. Streamed frames must match the
/// serial per-frame pipeline byte for byte at budget 0 (the conservative
/// contract) *and* at a lossy budget (approximation changes the answer
/// deterministically, so stream and serial still agree exactly).
#[test]
fn streamed_puzzle_frames_match_the_serial_pipeline_at_any_budget() {
    let orbit = OrbitConfig::quarter(3);
    for budget in [0u16, 300] {
        let method = Method::Puzzle {
            tiles_x: 4,
            tiles_y: 4,
            budget_permille: budget,
        };
        let config = base(method, CodecKind::Trle);
        let want = serial_frames(4, &config, &orbit);
        let session = StreamSession::new(4);
        let got = session
            .open()
            .collect_orbit(&StreamConfig::new(config), &orbit)
            .unwrap();
        assert_eq!(got.len(), want.len());
        for (k, (frame, want)) in got.iter().zip(&want).enumerate() {
            assert!(frame.degraded.is_none());
            assert_eq!(
                frame.frame.pixels(),
                want.pixels(),
                "puzzle b={budget} frame {k} diverged from the serial pipeline"
            );
        }
    }
}
