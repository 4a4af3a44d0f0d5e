//! The resident session: a pool carries a machine whose ranks, render
//! threads and warp helpers stay parked between calls. Frames after a
//! pool's first and orbits after a session's first start no thread, yet
//! every frame and trace is the one a fresh machine makes; a call that
//! fails leaves no machine behind, and dropping the pool joins the threads.

use rotate_tiling::comm::FaultPlan;
use rotate_tiling::core::exec::ScratchPool;
use rotate_tiling::core::method::Method;
use rotate_tiling::core::rotate::RtVariant;
use rotate_tiling::imaging::GrayAlpha;
use rotate_tiling::pvr::pipeline::{render_frame, render_frame_pooled, FrameRun, PipelineConfig};
use rotate_tiling::pvr::stream::{StreamConfig, StreamFrame, StreamSession};
use rotate_tiling::pvr::{orbit_cameras, threads_spawned, OrbitConfig};
use rotate_tiling::render::camera::Camera;
use rotate_tiling::render::shearwarp::RenderOptions;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Every test here reads a process-wide count (spawns, `Threads:`), so they
/// run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config(method: Method) -> PipelineConfig {
    let mut config = PipelineConfig::small(method);
    config.volume_size = 20;
    config.render = RenderOptions {
        early_termination: 1.0,
        ..RenderOptions::square(48)
    };
    config
}

fn rt2n() -> PipelineConfig {
    config(Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    })
}

fn seen_from(config: &PipelineConfig, camera: Camera) -> PipelineConfig {
    PipelineConfig { camera, ..*config }
}

fn cameras(frames: usize) -> Vec<Camera> {
    orbit_cameras(&OrbitConfig::quarter(frames))
        .into_iter()
        .map(|(_, camera)| camera)
        .collect()
}

fn assert_same_frames(got: &[StreamFrame], want: &[StreamFrame], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(
            got.frame.pixels(),
            want.frame.pixels(),
            "{what}: frame {}",
            got.seq
        );
        assert_eq!(got.trace, want.trace, "{what}: frame {}", got.seq);
    }
}

#[test]
fn steady_pooled_frames_and_later_orbits_start_no_thread() {
    let _serial = serial();
    let config = rt2n();
    let cameras = cameras(6);
    let pool = ScratchPool::<GrayAlpha>::new();
    let before = threads_spawned();
    render_frame_pooled(4, &seen_from(&config, cameras[0]), FaultPlan::none(), &pool).unwrap();
    assert!(
        threads_spawned() > before,
        "the first frame builds the machine"
    );
    let before = threads_spawned();
    for (k, &camera) in cameras.iter().enumerate().skip(1) {
        let frame = seen_from(&config, camera);
        let out = render_frame_pooled(4, &frame, FaultPlan::none(), &pool).unwrap();
        assert_eq!(
            out.frame,
            render_frame(4, &frame).unwrap().frame,
            "frame {k}"
        );
    }
    // The un-pooled reference frames above run on machines of their own.
    let before_orbits = threads_spawned();
    assert!(before_orbits > before);
    for (k, &camera) in cameras.iter().enumerate().skip(1) {
        let frame = seen_from(&config, camera);
        render_frame_pooled(4, &frame, FaultPlan::none(), &pool).unwrap();
        assert_eq!(
            threads_spawned(),
            before_orbits,
            "pooled frame {k} started threads"
        );
    }

    let session = StreamSession::new(4);
    let stream = StreamConfig::new(config);
    let orbit = OrbitConfig::quarter(5);
    let first = session.collect_orbit(&stream, &orbit).unwrap();
    let before = threads_spawned();
    let second = session.collect_orbit(&stream, &orbit).unwrap();
    assert_eq!(threads_spawned(), before, "a second orbit started threads");
    assert_same_frames(&second, &first, "second orbit");
}

#[test]
fn a_failed_call_leaves_no_machine_behind_and_the_next_frame_is_a_fresh_sessions() {
    let _serial = serial();
    let config = rt2n();
    let pool = ScratchPool::<GrayAlpha>::new();
    FrameRun::new(4, &config).pool(&pool).execute().unwrap();
    // A planned crash runs on a machine that lives for its call; the
    // session's machine stays parked, untouched, for the clean frame.
    let crash = FaultPlan::none().crash_rank_at_step(2, 1);
    let crashed = FrameRun::new(4, &config)
        .faults(crash)
        .pool(&pool)
        .execute()
        .unwrap();
    assert!(crashed.degraded.is_some());
    let before = threads_spawned();
    let clean = FrameRun::new(4, &config).pool(&pool).execute().unwrap();
    assert_eq!(
        threads_spawned(),
        before,
        "the clean frame left its machine"
    );
    let fresh = FrameRun::new(4, &config)
        .pool(&ScratchPool::new())
        .execute()
        .unwrap();
    assert_eq!(clean.frame.pixels(), fresh.frame.pixels());
    assert_eq!(clean.trace, fresh.trace);
    assert!(clean.degraded.is_none());

    // A call whose frames fail on the session's own machine drops it: the
    // next orbit builds another and equals a fresh session's.
    let orbit = OrbitConfig::quarter(3);
    let session = StreamSession::new(3);
    session
        .collect_orbit(&StreamConfig::new(config), &orbit)
        .unwrap();
    let dying = StreamConfig::new(config).kill_rank_before_frame(1, 1);
    assert!(session.collect_orbit(&dying, &orbit).is_err());
    let before = threads_spawned();
    let again = session
        .collect_orbit(&StreamConfig::new(config), &orbit)
        .unwrap();
    assert!(
        threads_spawned() > before,
        "the failed call's machine came back"
    );
    let fresh = StreamSession::new(3)
        .collect_orbit(&StreamConfig::new(config), &orbit)
        .unwrap();
    assert_same_frames(&again, &fresh, "after a failed orbit");
}

/// The session threads of this process: their names start with `pvr `
/// (`/proc/self/task/*/comm`). The process's `Threads:` count would also
/// see the test harness start a thread for the next test at any moment.
#[cfg(target_os = "linux")]
fn parked_now() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("pvr "))
        .count()
}

/// Poll until no session thread is left: a joined thread may still be
/// listed for a moment while the kernel reaps it.
#[cfg(target_os = "linux")]
fn all_joined() -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while parked_now() > 0 {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_the_pool_joins_its_parked_threads() {
    let _serial = serial();
    assert!(all_joined(), "{} session threads before", parked_now());
    let config = rt2n();
    let pool = ScratchPool::<GrayAlpha>::new();
    render_frame_pooled(4, &config, FaultPlan::none(), &pool).unwrap();
    // Four ranks and their four renderers, at least, stay parked.
    assert!(parked_now() >= 8, "{} parked", parked_now());
    drop(pool);
    assert!(all_joined(), "{} left after the pool", parked_now());

    let session = StreamSession::new(3);
    let handle = session.clone();
    handle
        .collect_orbit(&StreamConfig::new(config), &OrbitConfig::quarter(3))
        .unwrap();
    assert!(parked_now() >= 6, "{} parked", parked_now());
    drop(handle);
    assert!(parked_now() >= 6, "the session still holds its machine");
    drop(session);
    assert!(all_joined(), "{} left after the session", parked_now());
}

#[test]
fn consecutive_pooled_frames_trace_like_fresh_frames() {
    let _serial = serial();
    for config in [
        rt2n(),
        config(Method::TileOwner {
            tiles_x: 4,
            tiles_y: 4,
        }),
    ] {
        let pool = ScratchPool::<GrayAlpha>::new();
        for (k, camera) in cameras(5).into_iter().enumerate() {
            let frame = seen_from(&config, camera);
            let pooled = FrameRun::new(4, &frame).pool(&pool).execute().unwrap();
            let fresh = render_frame(4, &frame).unwrap();
            assert_eq!(pooled.frame.pixels(), fresh.frame.pixels(), "frame {k}");
            assert_eq!(pooled.trace, fresh.trace, "frame {k}");
            assert_eq!(pooled.rank_of_depth, fresh.rank_of_depth, "frame {k}");
        }
    }
}

#[test]
fn concurrent_clients_on_one_session_match_the_serial_frames() {
    let _serial = serial();
    let config = rt2n();
    let orbit = OrbitConfig::quarter(4);
    let serial: Vec<_> = orbit_cameras(&orbit)
        .into_iter()
        .map(|(_, camera)| render_frame(3, &seen_from(&config, camera)).unwrap())
        .collect();
    let solo = StreamSession::new(3)
        .collect_orbit(&StreamConfig::new(config), &orbit)
        .unwrap();
    let session = StreamSession::new(3);
    // The first round builds the session's machine; in the second one
    // stream takes it and the other runs on a machine of its own.
    for round in 0..2 {
        let handles = [&session, &session]
            .map(|session| session.stream_orbit(&StreamConfig::new(config), &orbit));
        for (stream, handle) in handles.into_iter().enumerate() {
            let frames: Vec<_> = handle.map(Result::unwrap).collect();
            let what = format!("round {round} stream {stream}");
            assert_same_frames(&frames, &solo, &what);
            for (got, want) in frames.iter().zip(&serial) {
                assert_eq!(got.frame.pixels(), want.frame.pixels(), "{what}");
            }
            // Frame 0's tags are the serial frame's: its trace is too.
            assert_eq!(frames[0].trace, serial[0].trace, "{what}");
        }
    }
}
