//! Pipelined frame streaming: render frame `k+1` while frame `k`'s
//! composition is in flight. `stream_rank` is every frame's one per-rank
//! body: a [`crate::FrameRun`] is a run of one plan on the same ranks an
//! orbit runs on.
//!
//! The workload is an orbit ([`OrbitConfig`]): the views of a moving camera,
//! the interactive-rendering scenario that motivates the paper (composition
//! cost is paid *per frame*). Each frame re-derives the depth permutation
//! for its view and emits it as a [`StreamFrame`].
//!
//! A serial animation loop (one [`crate::FrameRun`] per view) pays the
//! paper's Eq. 5/6 communication cost *after* each frame's render, so every
//! rank idles through composition. A longer stream removes that stall:
//!
//! * **Parked render thread per rank.** The session's machine keeps, beside
//!   each rank's thread, a render thread that waits for the next run; given
//!   one, it shear-warps the rank's subvolume for upcoming frames into fresh
//!   partials and hands them over a bounded channel. While the rank's
//!   compose loop works on frame `k`, the renderer is already producing
//!   frame `k+1`. Nothing is spawned per orbit after the session's first
//!   (see `session.rs` for the machine and when it is kept).
//! * **Bounded in-flight window.** The hand-off channel holds at most one
//!   rendered frame (a window of two frames per rank: the one composing
//!   and the one rendered ahead), so the renderer stalls — backpressure —
//!   instead of ballooning memory when composition is the bottleneck.
//! * **Frame-namespaced tags.** Every composition message of frame `k`
//!   carries [`rt_comm::tag::frame_base`]`(k)` in the frame field of its tag, so
//!   ranks on *different* frames exchange concurrently without collision
//!   and with no inter-frame barrier. Reliability (acks, retransmission),
//!   chaos injection and observability work unchanged per frame. Frame 0's
//!   namespace is the identity, and every call's frames number from 0.
//! * **Session-pooled scratch.** Each rank runs an orbit with one compose
//!   scratch set checked out of the session-lifetime [`ScratchPool`] keyed
//!   by rank (a rank composes one frame at a time: render-ahead overlaps
//!   *rendering*, not compositing), and after the first orbit the pool
//!   hands out no fresh allocation. The same pool carries the session's
//!   partition (generated volume, slabs, classification — see
//!   [`crate::pipeline`]) and its machine.
//! * **In-order emission.** The handle assembles the per-rank event slices
//!   of each frame, in rank order, into a per-frame [`Trace`] and yields
//!   [`StreamFrame`]s strictly in sequence, as the consumer asks for them.
//!
//! Failure semantics per frame follow the established trichotomy: a clean
//! frame is byte-identical to the serial pipeline's; a frame degraded by a
//! planned crash is the exact composite of the survivors; anything else is
//! the lowest failed rank's typed error. A rank that dies *between* frames
//! (see [`StreamConfig::kill_rank_before_frame`]) surfaces as the **next**
//! frame's [`PvrError::Frame`] with that frame's index — never as a stale
//! deadline from the previous frame — because death notifications travel
//! the same FIFO channels as data: every already-sent contribution of the
//! dead rank is consumed before the death marker, and the marker then
//! fails the first frame the rank truly abandoned, fast.

use std::sync::{mpsc, Arc};

use crate::pipeline::{FramePlan, FramePlanner, PipelineConfig};
use crate::session::{Call, Crew, RenderJob, Report, Run, Session};
use crate::PvrError;
use rt_comm::{replay, ComputeKind, CostModel, FaultPlan, Mark, RankCtx, RankTrace, Trace};
use rt_core::exec::{Scratch, ScratchPool, TransportKind};
use rt_core::repair::DegradedInfo;
use rt_core::tile::compose_plan;
use rt_imaging::{GrayAlpha, Image};
use rt_render::camera::Camera;

/// An orbit sweep specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitConfig {
    /// Number of frames.
    pub frames: usize,
    /// Yaw of the first frame (radians).
    pub start_yaw: f64,
    /// Yaw of the last frame (radians).
    pub end_yaw: f64,
    /// Fixed pitch (radians).
    pub pitch: f64,
}

impl OrbitConfig {
    /// A quarter orbit in `frames` steps.
    pub fn quarter(frames: usize) -> Self {
        Self {
            frames,
            start_yaw: 0.0,
            end_yaw: std::f64::consts::FRAC_PI_2,
            pitch: 0.2,
        }
    }
}

/// The camera of every frame of `orbit`, with its yaw: index `i` gets yaw
/// interpolated linearly from `start_yaw` to `end_yaw` (a single-frame
/// orbit sits at `start_yaw`).
pub fn orbit_cameras(orbit: &OrbitConfig) -> Vec<(f64, Camera)> {
    (0..orbit.frames)
        .map(|i| {
            let t = if orbit.frames == 1 {
                0.0
            } else {
                i as f64 / (orbit.frames - 1) as f64
            };
            let yaw = orbit.start_yaw + t * (orbit.end_yaw - orbit.start_yaw);
            (yaw, Camera::yaw_pitch(yaw, orbit.pitch))
        })
        .collect()
}

/// Frames in flight per rank: the one composing and the one rendered
/// ahead. Two overlaps the render of frame `k+1` with the composition of
/// frame `k` and nothing more.
const WINDOW: usize = 2;

/// Configuration of one streaming run: the per-frame pipeline settings
/// plus the streaming-specific knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Per-frame pipeline settings (dataset, method, codec, resolution).
    /// The camera field is ignored — each frame's camera comes from the
    /// orbit.
    pub base: PipelineConfig,
    /// Fault-injection plan, exactly like the serial pipeline's: its
    /// crashes degrade a frame; any other death fails it.
    pub faults: FaultPlan,
    /// Scripted between-frame deaths: `(rank, frame)` makes `rank` die
    /// after finishing frame `frame - 1`, before touching frame `frame`.
    pub death_at_frame: Vec<(usize, usize)>,
    /// Communication backend for every inter-rank transfer.
    pub transport: TransportKind,
}

impl StreamConfig {
    /// Streaming defaults around `base`: no faults, in-process transport.
    pub fn new(base: PipelineConfig) -> Self {
        StreamConfig {
            base,
            faults: FaultPlan::none(),
            death_at_frame: Vec::new(),
            transport: TransportKind::InProc,
        }
    }

    /// Install a fault plan (its crashes degrade a frame gracefully).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Select the communication backend.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Script `rank` to die between frames `frame - 1` and `frame`: it
    /// completes every frame before `frame`, announces its death, and
    /// contributes nothing from `frame` on. Survivors surface the loss as
    /// frame `frame`'s typed error with that index.
    pub fn kill_rank_before_frame(mut self, rank: usize, frame: usize) -> Self {
        self.death_at_frame.push((rank, frame));
        self
    }

    /// The first frame `rank` is scripted to be dead for, if any.
    pub(crate) fn death_of(&self, rank: usize) -> Option<usize> {
        self.death_at_frame
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, frame)| *frame)
            .min()
    }
}

/// One emitted frame of a stream, in sequence order.
#[derive(Debug, Clone)]
pub struct StreamFrame {
    /// Sequence number (equals the frame index; emission is in order).
    pub seq: u64,
    /// The final screen frame.
    pub frame: Image<GrayAlpha>,
    /// Camera yaw of this frame.
    pub yaw: f64,
    /// Physical rank at each depth position for this view.
    pub rank_of_depth: Vec<usize>,
    /// `Some` when rank failures degraded this frame — it is then the
    /// exact composite of the surviving ranks.
    pub degraded: Option<DegradedInfo>,
    /// This frame's assembled event trace (all ranks, this frame only).
    pub trace: Trace,
}

impl StreamFrame {
    /// Virtual composition time (compose + gather) of this frame under
    /// `cost`, replayed from the frame's own trace. Best effort: a trace
    /// that cannot be priced (a degraded frame whose compose never closed)
    /// reports zero.
    pub fn compose_time(&self, cost: &CostModel) -> f64 {
        replay(&self.trace, cost)
            .ok()
            .and_then(|report| report.phase("compose:start", "gather:end"))
            .unwrap_or_default()
    }
}

/// A streaming service endpoint owning the session-lifetime scratch pool.
///
/// A session runs orbit streams, sequentially or concurrently, and its
/// clones share it. The shared pool carries the session's resident
/// machine, compositing buffers and partitioned volume, so an orbit after
/// the first starts no thread, allocates no scratch and generates nothing.
/// Concurrent streams stay correct — checkout removes a buffer or the
/// machine from the pool, so nothing is shared mid-frame, and a stream
/// plans from its own handle on a partition, whoever replaces the pool's —
/// and merely fall back to fresh allocations and a machine of their own
/// when they collide.
#[derive(Debug, Clone)]
pub struct StreamSession {
    p: usize,
    pool: Arc<ScratchPool<GrayAlpha>>,
}

impl StreamSession {
    /// A session for machines of `p` ranks.
    pub fn new(p: usize) -> Self {
        StreamSession {
            p,
            pool: Arc::new(ScratchPool::new()),
        }
    }

    /// Machine size this session serves.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Fresh scratch allocations handed out so far (see
    /// [`ScratchPool::fresh_checkouts`]) — flat across steady-state frames.
    pub fn fresh_checkouts(&self) -> u64 {
        self.pool.fresh_checkouts()
    }

    /// Another handle on this session, sharing its pool: a clone.
    pub fn open(&self) -> StreamSession {
        self.clone()
    }

    /// Plan `orbit` under `config` and hand the plans to the session's
    /// machine; returns a handle that yields frames in order as they
    /// complete. A stream that cannot be planned yields its one error.
    pub fn stream_orbit(&self, config: &StreamConfig, orbit: &OrbitConfig) -> StreamHandle {
        let started = plan_orbit(self.p, config, orbit, &self.pool).and_then(|(session, plans)| {
            Call::start(session, &self.pool, self.p, config.clone(), plans)
        });
        let (call, refused) = match started {
            Ok(call) => (Some(call), None),
            Err(e) => (None, Some(e)),
        };
        StreamHandle {
            pool: Arc::clone(&self.pool),
            call,
            refused,
        }
    }

    /// Stream `orbit` and collect every frame, failing on the first frame
    /// error (the stream stops at a failed frame, so nothing after it is
    /// produced).
    pub fn collect_orbit(
        &self,
        config: &StreamConfig,
        orbit: &OrbitConfig,
    ) -> Result<Vec<StreamFrame>, PvrError> {
        self.stream_orbit(config, orbit).collect()
    }
}

/// Every frame of `orbit`, planned on the host from `pool`'s session.
fn plan_orbit(
    p: usize,
    config: &StreamConfig,
    orbit: &OrbitConfig,
    pool: &ScratchPool<GrayAlpha>,
) -> Result<(Arc<Session>, Vec<FramePlan>), PvrError> {
    if orbit.frames == 0 {
        return Err(PvrError::Config {
            what: "a stream needs at least one frame".into(),
        });
    }
    let session = Session::of(pool);
    let mut planner = FramePlanner::new(p, &config.base, &session);
    let plans = orbit_cameras(orbit)
        .into_iter()
        .map(|(_, camera)| planner.plan(camera))
        .collect::<Result<_, _>>()?;
    Ok((session, plans))
}

/// An in-flight stream: iterate to receive frames in sequence order.
///
/// Dropping the handle early does not abort the machine — remaining frames
/// are rendered and discarded; the drop blocks until the run finishes.
pub struct StreamHandle {
    pool: Arc<ScratchPool<GrayAlpha>>,
    call: Option<Call>,
    refused: Option<PvrError>,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle")
            .field("running", &self.call.is_some())
            .field("refused", &self.refused)
            .finish_non_exhaustive()
    }
}

impl Iterator for StreamHandle {
    type Item = Result<StreamFrame, PvrError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.refused.take() {
            return Some(Err(e));
        }
        let call = self.call.as_mut()?;
        let frame = call.next_frame();
        if frame.is_none() {
            call.finish(&self.pool);
        }
        frame
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        if let Some(call) = &mut self.call {
            call.finish(&self.pool);
        }
    }
}

/// What one rank reports for one frame.
pub(crate) enum FrameOutcome {
    /// The rank completed the frame's composition: the screen frame (on
    /// the frame-holding rank only) and the degradation report.
    Alive(Option<Image<GrayAlpha>>, Option<DegradedInfo>),
    /// The rank was dead for this frame and contributed nothing.
    Dead,
    /// The frame's composition failed on this rank.
    Failed(PvrError),
}

/// One rank's part of one frame: its events and its outcome.
pub(crate) struct Contribution {
    pub frame: usize,
    pub rank: usize,
    pub events: RankTrace,
    pub outcome: FrameOutcome,
}

/// One rank's part of a run: the rank's parked renderer feeds a bounded
/// channel, and this compose loop drains it frame by frame.
pub(crate) fn stream_rank(
    ctx: &mut RankCtx,
    run: &Arc<Run>,
    scratch: &mut Scratch<GrayAlpha>,
    renderer: &mpsc::Sender<RenderJob>,
    crew: &Crew,
    reports: &mpsc::Sender<Report>,
) {
    let (config, plans) = (&run.config, &run.plans);
    let me = ctx.rank();
    let my_death = config.death_of(me);
    let report = |frame: usize, events: RankTrace, outcome: FrameOutcome| {
        // A send failure means the call is gone; the rank keeps
        // composing so its peers never deadlock waiting for it.
        let _ = reports.send(Report::Frame(Contribution {
            frame,
            rank: me,
            events,
            outcome,
        }));
    };
    let report_dead = |frames: std::ops::Range<usize>| {
        for frame in frames {
            report(frame, RankTrace::new(), FrameOutcome::Dead);
        }
    };

    // Render pipeline: the channel buffers `WINDOW - 1` finished partials,
    // so with the one the renderer is working on, at most `WINDOW` frames
    // are in flight beyond the composing one. A renderer that is gone drops
    // the sender with the job, which the loop reads as a stopped renderer.
    let (partials, part_rx) = mpsc::sync_channel::<(usize, Image<GrayAlpha>)>(WINDOW - 1);
    let _ = renderer.send(RenderJob {
        run: Arc::clone(run),
        partials,
    });
    let render = &config.base.render;
    for (k, plan) in plans.iter().enumerate() {
        if my_death == Some(k) {
            // Die between frames: the notification rides the same FIFO
            // channels as data, so peers consume every contribution of
            // the frames this rank finished before seeing the death.
            ctx.announce_death(0);
            let _ = ctx.take_events();
            report_dead(k..plans.len());
            return;
        }
        let Ok((rendered, partial)) = part_rx.recv() else {
            ctx.announce_death(0);
            report(
                k,
                ctx.take_events(),
                FrameOutcome::Failed(PvrError::Config {
                    what: format!("rank {me}: renderer stopped before frame {k}"),
                }),
            );
            return;
        };
        debug_assert_eq!(rendered, k, "renderer and compose loop out of step");
        ctx.mark(Mark::FrameStart(k as u32));
        ctx.mark(Mark::RenderStart);
        ctx.compute(ComputeKind::Render, plan.parts[me].sub().vol.len() as u64);
        ctx.mark(Mark::RenderEnd);
        let frame_cfg = run.compose.with_frame(k as u64);
        match compose_plan(ctx, &plan.compose, partial, &frame_cfg, scratch) {
            Ok(band) => {
                let crashed_self = band
                    .degraded
                    .as_ref()
                    .is_some_and(|d| d.failed.iter().any(|&(rank, _)| rank == me));
                // The rank holding the composited intermediate image
                // warps it to the screen, with the machine's warp helpers.
                let screen = band.frame.map(|inter| {
                    ctx.compute(ComputeKind::Render, (render.width * render.height) as u64);
                    let screen = crew.warp(inter, &plan.f, render);
                    ctx.mark(Mark::WarpEnd);
                    screen
                });
                ctx.mark(Mark::FrameEnd(k as u32));
                let outcome = FrameOutcome::Alive(screen, band.degraded);
                report(k, ctx.take_events(), outcome);
                if crashed_self {
                    // The fault plan crashed this rank mid-frame; it is
                    // gone for the rest of the stream.
                    report_dead(k + 1..plans.len());
                    return;
                }
            }
            Err(e) => {
                // Abort the stream on this rank — and say so, so peers
                // blocked on recvs from us fail over their fast
                // dead-rank path instead of burning a full receive
                // deadline. The error cascades and the machine drains
                // promptly.
                ctx.announce_death(0);
                ctx.mark(Mark::FrameEnd(k as u32));
                let _ = ctx.take_events();
                report(k, RankTrace::new(), FrameOutcome::Failed(e.into()));
                return;
            }
        }
    }
}

/// One frame from its `p` contributions, walked in rank order: a failed
/// frame reports its lowest failed rank's error, whatever order the
/// contributions arrived in. The frame sits at the configured root — or,
/// if the root died, at the survivor the repair plan promoted — and the
/// degraded report is that rank's (survivors compute identical reports; a
/// crashed rank only knows about itself).
pub(crate) fn assemble_frame(
    p: usize,
    index: usize,
    mut contributions: Vec<Contribution>,
    yaw: f64,
    rank_of_depth: Vec<usize>,
) -> Result<StreamFrame, PvrError> {
    let frame_error = |e| PvrError::Frame {
        index,
        source: Box::new(e),
    };
    contributions.sort_by_key(|c| c.rank);
    let mut ranks: Vec<RankTrace> = vec![RankTrace::new(); p];
    let mut held = None;
    for c in contributions {
        match c.outcome {
            FrameOutcome::Failed(e) => return Err(frame_error(e)),
            FrameOutcome::Dead | FrameOutcome::Alive(None, _) => {}
            FrameOutcome::Alive(Some(image), degraded) => held = Some((image, degraded)),
        }
        ranks[c.rank] = c.events;
    }
    let (image, degraded) = held.ok_or_else(|| {
        frame_error(PvrError::Config {
            what: "no rank produced the final frame".into(),
        })
    })?;
    Ok(StreamFrame {
        seq: index as u64,
        frame: image,
        yaw,
        rank_of_depth,
        degraded,
        trace: Trace { ranks },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{render_frame, FrameRun};
    use rt_core::method::Method;
    use rt_core::rotate::RtVariant;

    fn base() -> PipelineConfig {
        PipelineConfig::small(Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 2,
        })
    }

    fn serial_frames(p: usize, orbit: &OrbitConfig) -> Vec<Image<GrayAlpha>> {
        orbit_cameras(orbit)
            .into_iter()
            .map(|(_, camera)| {
                let mut config = base();
                config.camera = camera;
                render_frame(p, &config).unwrap().frame
            })
            .collect()
    }

    #[test]
    fn streamed_frames_match_the_serial_loop_byte_for_byte() {
        let half = OrbitConfig {
            frames: 2,
            start_yaw: 0.0,
            end_yaw: std::f64::consts::PI,
            pitch: 0.0,
        };
        let single = OrbitConfig {
            frames: 1,
            start_yaw: 0.4,
            end_yaw: 9.9, // ignored with one frame
            pitch: 0.1,
        };
        for orbit in [OrbitConfig::quarter(4), half, single] {
            let session = StreamSession::new(3);
            let frames = session
                .collect_orbit(&StreamConfig::new(base()), &orbit)
                .unwrap();
            let want = serial_frames(3, &orbit);
            assert_eq!(frames.len(), orbit.frames);
            for (got, want) in frames.iter().zip(&want) {
                assert_eq!(got.frame.pixels(), want.pixels(), "frame {}", got.seq);
            }
            // In order, with sequence numbers, each priced.
            for (i, f) in frames.iter().enumerate() {
                assert_eq!(f.seq, i as u64);
                assert!(f.compose_time(&CostModel::SP2) > 0.0);
                assert!(f.trace.bytes_sent() > 0);
                assert!(f.degraded.is_none());
            }
            // Yaw sweeps start → end; a one-frame orbit sits at the start.
            assert!((frames[0].yaw - orbit.start_yaw).abs() < 1e-12);
            if orbit.frames > 1 {
                let last = frames.last().unwrap();
                assert!((last.yaw - orbit.end_yaw).abs() < 1e-12);
            }
            if orbit == half {
                // Sweeping yaw through π reverses the traversal of the slabs.
                assert_eq!(frames[0].rank_of_depth, vec![0, 1, 2]);
                assert_eq!(frames[1].rank_of_depth, vec![2, 1, 0]);
            }
        }
    }

    #[test]
    fn session_pool_allocation_is_flat_after_the_first_two_frames() {
        let session = StreamSession::new(3);
        let orbit = OrbitConfig::quarter(5);
        session
            .collect_orbit(&StreamConfig::new(base()), &orbit)
            .unwrap();
        // One scratch set per rank, allocated on the first frame: a rank
        // checks its set back in before it composes the next frame.
        let after_first = session.fresh_checkouts();
        assert_eq!(after_first, 3, "expected p fresh checkouts");
        // A second stream on the same session reuses every buffer.
        session
            .collect_orbit(&StreamConfig::new(base()), &orbit)
            .unwrap();
        assert_eq!(session.fresh_checkouts(), after_first);
    }

    #[test]
    fn concurrent_clients_stream_independently() {
        let orbit = OrbitConfig::quarter(3);
        let session = StreamSession::new(3);
        let a = session.stream_orbit(&StreamConfig::new(base()), &orbit);
        let b = session.stream_orbit(&StreamConfig::new(base()), &orbit);
        let got_a: Vec<_> = a.map(Result::unwrap).collect();
        let got_b: Vec<_> = b.map(Result::unwrap).collect();
        let want = serial_frames(3, &orbit);
        for frames in [&got_a, &got_b] {
            assert_eq!(frames.len(), 3);
            for (got, want) in frames.iter().zip(&want) {
                assert_eq!(got.frame.pixels(), want.pixels());
            }
        }
    }

    #[test]
    fn concurrent_orbits_of_different_seeds_equal_their_solo_runs() {
        // Both orbits read and replace the session's one carried partition
        // while the other is planning or rendering from its own.
        let orbit = OrbitConfig::quarter(4);
        let configs = [7, 8].map(|seed| StreamConfig::new(PipelineConfig { seed, ..base() }));
        let shared = StreamSession::new(3);
        let handles = configs
            .each_ref()
            .map(|config| shared.stream_orbit(config, &orbit));
        for (config, handle) in configs.iter().zip(handles) {
            let together: Vec<_> = handle.map(Result::unwrap).collect();
            let solo = StreamSession::new(3).collect_orbit(config, &orbit).unwrap();
            assert_eq!(together.len(), solo.len());
            for (got, want) in together.iter().zip(&solo) {
                assert_eq!(got.frame.pixels(), want.frame.pixels(), "frame {}", got.seq);
                assert_eq!(got.trace, want.trace, "frame {}", got.seq);
            }
        }
    }

    #[test]
    fn an_orbit_across_an_axis_change_and_back_matches_the_serial_loop() {
        // Yaw 0 → π sweeps the principal axis z → x → z; the second orbit
        // starts from the cut the first one left in the session's pool.
        let orbit = OrbitConfig {
            frames: 6,
            start_yaw: 0.0,
            end_yaw: std::f64::consts::PI,
            pitch: 0.1,
        };
        let want = serial_frames(3, &orbit);
        let session = StreamSession::new(3);
        for round in 0..2 {
            let frames = session
                .collect_orbit(&StreamConfig::new(base()), &orbit)
                .unwrap();
            assert_eq!(frames.len(), want.len());
            for (got, want) in frames.iter().zip(&want) {
                assert_eq!(
                    got.frame.pixels(),
                    want.pixels(),
                    "round {round} frame {}",
                    got.seq
                );
            }
        }
    }

    #[test]
    fn message_chaos_is_invisible_to_streamed_frames() {
        let orbit = OrbitConfig::quarter(4);
        let faults = FaultPlan::none()
            .with_seed(11)
            .drop_rate(0.05)
            .corrupt_rate(0.05);
        let session = StreamSession::new(3);
        let frames = session
            .collect_orbit(&StreamConfig::new(base()).with_faults(faults), &orbit)
            .unwrap();
        let want = serial_frames(3, &orbit);
        let mut retransmits = 0;
        for (got, want) in frames.iter().zip(&want) {
            assert_eq!(got.frame.pixels(), want.pixels(), "frame {}", got.seq);
            assert!(got.degraded.is_none());
            retransmits += got.trace.retransmit_count();
        }
        assert!(retransmits > 0, "the seed should lose at least one message");
    }

    #[test]
    fn mid_stream_crash_degrades_every_following_frame() {
        let orbit = OrbitConfig::quarter(3);
        let faults = FaultPlan::none().crash_rank_at_step(2, 1);
        let session = StreamSession::new(4);
        let frames = session
            .collect_orbit(
                &StreamConfig::new(base()).with_faults(faults.clone()),
                &orbit,
            )
            .unwrap();
        assert_eq!(frames.len(), 3);
        // Frame 0 matches the serial faulty frame exactly (same fresh
        // sequence numbers, same participation).
        let mut config = base();
        config.camera = orbit_cameras(&orbit)[0].1;
        let serial = FrameRun::new(4, &config).faults(faults).execute().unwrap();
        assert_eq!(frames[0].frame.pixels(), serial.frame.pixels());
        // Every frame resolves to the degraded arm of the trichotomy: the
        // exact survivors' composite, with the crash attributed.
        for f in &frames {
            let info = f.degraded.as_ref().expect("crash must be reported");
            assert_eq!(info.failed, vec![(2, 1)]);
            assert!(f.frame.pixels().iter().all(|px| px.a.is_finite()));
        }
    }

    #[test]
    fn between_frame_death_fails_the_next_frame_with_its_index() {
        let orbit = OrbitConfig::quarter(4);
        for transport in [TransportKind::InProc, TransportKind::TcpLoopback] {
            let config = StreamConfig::new(base())
                .with_transport(transport)
                .kill_rank_before_frame(1, 2);
            let started = std::time::Instant::now();
            let session = StreamSession::new(3);
            let mut stream = session.stream_orbit(&config, &orbit);
            // Frames before the death complete cleanly.
            for expect in 0..2usize {
                let frame = stream.next().expect("stream open").expect("clean frame");
                assert_eq!(frame.seq, expect as u64);
            }
            // The death between frames 1 and 2 surfaces as *frame 2's*
            // typed error — the frame the rank abandoned — not as a stale
            // deadline from frame 1.
            let err = stream.next().expect("error emitted").unwrap_err();
            match err {
                PvrError::Frame { index, .. } => assert_eq!(index, 2, "{transport:?}"),
                other => panic!("expected frame error, got {other}"),
            }
            assert!(stream.next().is_none(), "stream ends at the failed frame");
            // Death notifications travel the data channels, so detection is
            // prompt — far inside the 10 s receive deadline.
            assert!(
                started.elapsed() < std::time::Duration::from_secs(8),
                "death detection stalled: {:?}",
                started.elapsed()
            );
        }
    }

    #[test]
    fn streams_that_cannot_be_planned_are_typed_errors() {
        let orbit = OrbitConfig::quarter(2);
        let stream = |p: usize, base: PipelineConfig| {
            StreamSession::new(p)
                .collect_orbit(&StreamConfig::new(base), &orbit)
                .unwrap_err()
        };
        let mut flat = base();
        flat.render.height = 0;
        let err = stream(3, flat);
        assert!(matches!(err, PvrError::Config { .. }), "{err}");
        // The neighbouring misconfigurations, typed all along.
        let err = stream(3, PipelineConfig { root: 3, ..base() });
        assert!(matches!(err, PvrError::Frame { index: 0, .. }), "{err}");
        let tiny = PipelineConfig {
            volume_size: 2,
            ..base()
        };
        let err = stream(3, tiny);
        assert!(matches!(err, PvrError::Render(_)), "{err}");
        let err = stream(0, base());
        assert!(matches!(err, PvrError::Render(_)), "{err}");
    }

    #[test]
    fn a_failed_frame_reports_its_lowest_failed_rank_whatever_the_arrival_order() {
        let contribution = |rank: usize, outcome| Contribution {
            frame: 0,
            rank,
            events: RankTrace::new(),
            outcome,
        };
        let failed = |rank: usize| {
            let what = format!("rank {rank} failed");
            contribution(rank, FrameOutcome::Failed(PvrError::Config { what }))
        };
        let arrived = vec![failed(2), contribution(0, FrameOutcome::Dead), failed(1)];
        let err = assemble_frame(3, 0, arrived, 0.0, vec![0, 1, 2]).unwrap_err();
        let want = PvrError::Config {
            what: "rank 1 failed".into(),
        };
        assert_eq!(
            err,
            PvrError::Frame {
                index: 0,
                source: Box::new(want)
            }
        );
    }

    #[test]
    fn zero_frame_stream_is_a_typed_error() {
        let orbit = OrbitConfig {
            frames: 0,
            start_yaw: 0.0,
            end_yaw: 1.0,
            pitch: 0.0,
        };
        let session = StreamSession::new(2);
        let err = session
            .collect_orbit(&StreamConfig::new(base()), &orbit)
            .unwrap_err();
        assert!(matches!(err, PvrError::Config { .. }), "{err}");
    }

    #[test]
    fn frame_traces_carry_frame_scoped_spans() {
        let orbit = OrbitConfig::quarter(3);
        let session = StreamSession::new(2);
        let frames = session
            .collect_orbit(&StreamConfig::new(base()), &orbit)
            .unwrap();
        // Replaying frame k's trace attributes its spans to frame k via
        // the frame:k:start/end marks.
        let (_, timelines) = rt_comm::replay_timeline(&frames[2].trace, &CostModel::SP2).unwrap();
        let spans: Vec<_> = timelines
            .iter()
            .flat_map(|tl| &tl.spans)
            .filter(|s| s.frame.is_some())
            .collect();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| s.frame == Some(2)));
    }
}
