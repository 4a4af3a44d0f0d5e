//! Pipelined frame streaming: render frame `k+1` while frame `k`'s
//! composition is in flight.
//!
//! The workload is an orbit ([`OrbitConfig`]): the views of a moving camera,
//! the interactive-rendering scenario that motivates the paper (composition
//! cost is paid *per frame*). Each frame re-derives the depth permutation
//! for its view and reports [`FrameStats`], so regressions in
//! view-dependent code paths show up as jumps across the sweep.
//!
//! A serial animation loop (one [`crate::FrameRun`] per view) pays the
//! paper's Eq. 5/6 communication cost *after* each frame's render, so every
//! rank idles through composition — the per-frame render→compose stall.
//! This module removes it:
//!
//! * **Per-rank render thread.** Each rank spawns a renderer that
//!   shear-warps its subvolume for upcoming frames into fresh partials and
//!   hands them over a bounded channel. While the rank's compose loop works
//!   on frame `k`, the renderer is already producing frame `k+1`.
//! * **Bounded in-flight window.** The hand-off channel holds at most
//!   `window - 1` rendered frames (default window 2), so the renderer
//!   stalls — backpressure — instead of ballooning memory when composition
//!   is the bottleneck.
//! * **Frame-namespaced tags.** Every composition message of frame `k`
//!   carries [`rt_comm::tag::frame_base`]`(k)` in the frame field of its tag, so
//!   ranks on *different* frames exchange concurrently without collision
//!   and with no inter-frame barrier. Reliability (acks, retransmission),
//!   chaos injection and observability work unchanged per frame. Frame 0's
//!   namespace is the identity, so single-frame tags and traces are
//!   byte-compatible with the serial path.
//! * **Session-pooled scratch.** Compose scratch is checked out of a
//!   session-lifetime [`ScratchPool`] keyed by rank. A rank composes one
//!   frame at a time (render-ahead overlaps *rendering*, not compositing),
//!   so one scratch set per rank serves every frame, and after the first
//!   frame the pool hands out no fresh allocation. The same pool carries
//!   the session's partition (generated volume, slabs, classification —
//!   see [`crate::pipeline`]), so an orbit of the dataset the last one
//!   showed starts without generating it.
//! * **In-order emission.** A collector assembles the per-rank event
//!   slices of each frame into a per-frame [`Trace`] and emits
//!   [`StreamFrame`]s strictly in sequence.
//!
//! Failure semantics per frame follow the established trichotomy: a clean
//! frame is byte-identical to the serial pipeline's; a frame degraded by a
//! planned crash is the exact composite of the survivors; anything else is
//! a typed error. A rank that dies *between* frames (see
//! [`StreamConfig::kill_rank_before_frame`]) surfaces as the **next**
//! frame's [`PvrError::Frame`] with that frame's index — never as a stale
//! deadline from the previous frame — because death notifications travel
//! the same FIFO channels as data: every already-sent contribution of the
//! dead rank is consumed before the death marker, and the marker then
//! fails the first frame the rank truly abandoned, fast.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};

use crate::pipeline::{frame_holder, FramePlan, FramePlanner, PipelineConfig, RankFrame};
use crate::PvrError;
use rt_comm::{replay, ComputeKind, CostModel, FaultPlan, Mark, RankCtx, RankTrace, Trace};
use rt_core::exec::{ComposeConfig, Machine, ScratchPool, TransportKind};
use rt_core::repair::DegradedInfo;
use rt_core::tile::compose_plan;
use rt_imaging::{GrayAlpha, Image};
use rt_render::camera::Camera;
use serde::{Deserialize, Serialize};

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

/// Per-frame statistics of an orbit run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Frame index.
    pub index: usize,
    /// Camera yaw of this frame.
    pub yaw: f64,
    /// Bytes shipped (post-codec).
    pub bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Physical rank at each depth position for this view.
    pub rank_of_depth: Vec<usize>,
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

/// Configuration of one streaming run: the per-frame pipeline settings
/// plus the streaming-specific knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Per-frame pipeline settings (dataset, method, codec, resolution).
    /// The camera field is ignored — each frame's camera comes from the
    /// orbit.
    pub base: PipelineConfig,
    /// Maximum frames in flight per rank (rendered-but-not-composed),
    /// minimum 1. The default of 2 overlaps the render of frame `k+1`
    /// with the composition of frame `k` and nothing more.
    pub window: usize,
    /// Fault-injection plan; a non-empty plan switches composition to
    /// resilient mode, exactly like the serial pipeline.
    pub faults: FaultPlan,
    /// Scripted between-frame deaths: `(rank, frame)` makes `rank` die
    /// after finishing frame `frame - 1`, before touching frame `frame`.
    pub death_at_frame: Vec<(usize, usize)>,
    /// Communication backend for every inter-rank transfer.
    pub transport: TransportKind,
}

impl StreamConfig {
    /// Streaming defaults around `base`: window 2, no faults, in-process
    /// transport.
    pub fn new(base: PipelineConfig) -> Self {
        StreamConfig {
            base,
            window: 2,
            faults: FaultPlan::none(),
            death_at_frame: Vec::new(),
            transport: TransportKind::InProc,
        }
    }

    /// Set the in-flight window (clamped to at least 1).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Install a fault plan (switches composition to resilient mode).
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
}

/// One emitted frame of a stream, in sequence order.
#[derive(Debug, Clone)]
pub struct StreamFrame {
    /// Sequence number (equals the frame index; emission is in order).
    pub seq: u64,
    /// The final screen frame.
    pub frame: Image<GrayAlpha>,
    /// Per-frame statistics (traffic, depth order).
    pub stats: FrameStats,
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
/// One session serves any number of clients ([`StreamSession::open`]);
/// each client can run orbit streams, sequentially or concurrently. The
/// shared pool means successive streams reuse the same compositing
/// buffers and the same partitioned volume — concurrent streams stay
/// correct (checkout removes a buffer from the pool, so nothing is shared
/// mid-frame; a stream plans from its own handle on a partition, whoever
/// replaces the pool's) and merely fall back to fresh allocations when
/// they collide on a slot.
#[derive(Debug)]
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

    /// Open a client on this session.
    pub fn open(&self) -> StreamClient {
        StreamClient {
            p: self.p,
            pool: Arc::clone(&self.pool),
        }
    }
}

/// A client of a [`StreamSession`]: runs orbit streams against the
/// session's shared scratch pool.
#[derive(Debug, Clone)]
pub struct StreamClient {
    p: usize,
    pool: Arc<ScratchPool<GrayAlpha>>,
}

impl StreamClient {
    /// Start streaming `orbit` under `config`; returns immediately with a
    /// handle that yields frames in order as they complete.
    pub fn stream_orbit(&self, config: &StreamConfig, orbit: &OrbitConfig) -> StreamHandle {
        let (out_tx, out_rx) = mpsc::channel();
        let p = self.p;
        let pool = Arc::clone(&self.pool);
        let config = config.clone();
        let orbit = *orbit;
        let join = std::thread::spawn(move || run_stream(p, &config, &orbit, &pool, &out_tx));
        StreamHandle {
            rx: out_rx,
            join: Some(join),
        }
    }

    /// Stream `orbit` and collect every frame, failing on the first frame
    /// error (the emitter stops the stream at a failed frame, so nothing
    /// after it is produced).
    pub fn collect_orbit(
        &self,
        config: &StreamConfig,
        orbit: &OrbitConfig,
    ) -> Result<Vec<StreamFrame>, PvrError> {
        self.stream_orbit(config, orbit).collect()
    }
}

/// An in-flight stream: iterate to receive frames in sequence order.
///
/// Dropping the handle early does not abort the machine — remaining frames
/// are rendered and discarded; the drop blocks until the run finishes.
#[derive(Debug)]
pub struct StreamHandle {
    rx: mpsc::Receiver<Result<StreamFrame, PvrError>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Iterator for StreamHandle {
    type Item = Result<StreamFrame, PvrError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.rx.recv().ok()
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// What one rank reports for one frame.
enum FrameOutcome {
    /// The rank completed the frame's composition.
    Alive(RankFrame),
    /// The rank was dead for this frame and contributed nothing.
    Dead,
    /// The frame's composition failed on this rank.
    Failed(PvrError),
}

struct Contribution {
    frame: usize,
    rank: usize,
    events: RankTrace,
    outcome: FrameOutcome,
}

/// Derive every frame's partition/schedule once, on the host, before the
/// machine starts.
fn plan_frames(
    p: usize,
    base: &PipelineConfig,
    cameras: &[(f64, Camera)],
    pool: &ScratchPool<GrayAlpha>,
) -> Result<Vec<FramePlan>, PvrError> {
    if cameras.is_empty() {
        return Err(PvrError::Config {
            what: "a stream needs at least one frame".into(),
        });
    }
    let mut planner = FramePlanner::new(p, base, Some(pool));
    cameras
        .iter()
        .map(|&(_, camera)| planner.plan(camera))
        .collect()
}

fn run_stream(
    p: usize,
    config: &StreamConfig,
    orbit: &OrbitConfig,
    pool: &ScratchPool<GrayAlpha>,
    out: &mpsc::Sender<Result<StreamFrame, PvrError>>,
) {
    let cameras = orbit_cameras(orbit);
    let plans = match plan_frames(p, &config.base, &cameras, pool) {
        Ok(plans) => plans,
        Err(e) => {
            let _ = out.send(Err(e));
            return;
        }
    };
    let compose_cfg = config.base.compose_config(&config.faults, config.transport);
    let machine = Machine::build(p, &compose_cfg, config.faults.clone(), None);

    // Frame metadata the emitter needs to build FrameStats.
    let frame_meta: Vec<(f64, Vec<usize>)> = cameras
        .iter()
        .zip(&plans)
        .map(|(&(yaw, _), plan)| (yaw, plan.rank_of_depth.clone()))
        .collect();
    let (ctb_tx, ctb_rx) = mpsc::channel::<Contribution>();

    std::thread::scope(|scope| {
        let emitter = scope.spawn(move || emit_frames(p, &frame_meta, &ctb_rx, out));
        machine.run(|ctx| {
            stream_rank(ctx, config, &plans, pool, &compose_cfg, &ctb_tx);
        });
        drop(ctb_tx);
        let _ = emitter.join();
    });
}

/// One rank's whole stream: a scoped render thread feeding a bounded
/// channel, and a compose loop draining it frame by frame.
fn stream_rank(
    ctx: &mut RankCtx,
    config: &StreamConfig,
    plans: &[FramePlan],
    pool: &ScratchPool<GrayAlpha>,
    compose_cfg: &ComposeConfig,
    ctb_tx: &mpsc::Sender<Contribution>,
) {
    let me = ctx.rank();
    let my_death = config
        .death_at_frame
        .iter()
        .filter(|(rank, _)| *rank == me)
        .map(|(_, frame)| *frame)
        .min();
    let report = |frame: usize, events: RankTrace, outcome: FrameOutcome| {
        // A send failure means the emitter is gone; the rank keeps
        // composing so its peers never deadlock waiting for it.
        let _ = ctb_tx.send(Contribution {
            frame,
            rank: me,
            events,
            outcome,
        });
    };
    let report_dead = |frames: std::ops::Range<usize>| {
        for frame in frames {
            report(frame, RankTrace::new(), FrameOutcome::Dead);
        }
    };

    std::thread::scope(|scope| {
        // Render pipeline: the channel buffers `window - 1` finished
        // partials, so with the one the renderer is working on, at most
        // `window` frames are in flight beyond the composing one.
        let (part_tx, part_rx) =
            mpsc::sync_channel::<(usize, Image<GrayAlpha>)>(config.window.saturating_sub(1));
        let render = &config.base.render;
        scope.spawn(move || {
            for (k, plan) in plans.iter().enumerate() {
                if my_death.is_some_and(|death| k >= death) {
                    break;
                }
                let (partial, _) = plan.parts[me].render(&plan.camera, render);
                if part_tx.send((k, partial)).is_err() {
                    break; // compose loop stopped; backpressure doubles as shutdown
                }
            }
        });

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
            let frame_cfg = compose_cfg.with_frame(k as u64);
            // The check-in precedes the next frame's checkout: one
            // session-pooled scratch set per rank.
            let mut scratch = pool.checkout(me);
            let composed = compose_plan(ctx, &plan.compose, partial, &frame_cfg, &mut scratch);
            pool.checkin(me, scratch);
            match composed {
                Ok(band) => {
                    let crashed_self = band
                        .degraded
                        .as_ref()
                        .is_some_and(|d| d.failed.iter().any(|&(rank, _)| rank == me));
                    let held = plan.warp(ctx, render, band);
                    ctx.mark(Mark::FrameEnd(k as u32));
                    report(k, ctx.take_events(), FrameOutcome::Alive(held));
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
    });
}

/// Collect contributions, assemble frames in order, emit. Stops the
/// stream at the first failed frame.
fn emit_frames(
    p: usize,
    frame_meta: &[(f64, Vec<usize>)],
    ctb_rx: &mpsc::Receiver<Contribution>,
    out: &mpsc::Sender<Result<StreamFrame, PvrError>>,
) {
    let n_frames = frame_meta.len();
    let mut pending: BTreeMap<usize, Vec<Contribution>> = BTreeMap::new();
    let mut next = 0usize;
    while next < n_frames {
        let Ok(contribution) = ctb_rx.recv() else {
            // Every rank finished without completing frame `next`.
            let _ = out.send(Err(PvrError::Frame {
                index: next,
                source: Box::new(PvrError::Config {
                    what: "stream ended before the frame was produced".into(),
                }),
            }));
            return;
        };
        pending
            .entry(contribution.frame)
            .or_default()
            .push(contribution);
        while next < n_frames && pending.get(&next).is_some_and(|c| c.len() == p) {
            let contributions = pending.remove(&next).unwrap_or_default();
            let (yaw, rank_of_depth) = frame_meta.get(next).cloned().unwrap_or((0.0, Vec::new()));
            match assemble_frame(p, next, contributions, yaw, rank_of_depth) {
                Ok(frame) => {
                    // A closed receiver means the consumer lost interest;
                    // keep draining so the ranks never block.
                    let _ = out.send(Ok(frame));
                }
                Err(e) => {
                    let _ = out.send(Err(e));
                    return;
                }
            }
            next += 1;
        }
    }
}

fn assemble_frame(
    p: usize,
    index: usize,
    contributions: Vec<Contribution>,
    yaw: f64,
    rank_of_depth: Vec<usize>,
) -> Result<StreamFrame, PvrError> {
    let frame_error = |e| PvrError::Frame {
        index,
        source: Box::new(e),
    };
    let mut ranks: Vec<RankTrace> = vec![RankTrace::new(); p];
    let mut alive = Vec::new();
    for c in contributions {
        match c.outcome {
            FrameOutcome::Failed(e) => return Err(frame_error(e)),
            FrameOutcome::Dead => {}
            FrameOutcome::Alive(held) => alive.push(held),
        }
        ranks[c.rank] = c.events;
    }
    let (image, degraded) = frame_holder(alive).map_err(frame_error)?;
    let trace = Trace { ranks };
    let stats = FrameStats {
        index,
        yaw,
        bytes: trace.bytes_sent(),
        messages: trace.message_count(),
        rank_of_depth,
    };
    Ok(StreamFrame {
        seq: index as u64,
        frame: image,
        stats,
        degraded,
        trace,
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
                .open()
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
                assert_eq!(f.stats.index, i);
                assert!(f.compose_time(&CostModel::SP2) > 0.0);
                assert!(f.stats.bytes > 0);
                assert!(f.degraded.is_none());
            }
            // Yaw sweeps start → end; a one-frame orbit sits at the start.
            assert!((frames[0].stats.yaw - orbit.start_yaw).abs() < 1e-12);
            if orbit.frames > 1 {
                let last = frames.last().unwrap();
                assert!((last.stats.yaw - orbit.end_yaw).abs() < 1e-12);
            }
            if orbit == half {
                // Sweeping yaw through π reverses the traversal of the slabs.
                assert_eq!(frames[0].stats.rank_of_depth, vec![0, 1, 2]);
                assert_eq!(frames[1].stats.rank_of_depth, vec![2, 1, 0]);
            }
        }
    }

    #[test]
    fn session_pool_allocation_is_flat_after_the_first_two_frames() {
        let session = StreamSession::new(3);
        let client = session.open();
        let orbit = OrbitConfig::quarter(5);
        client
            .collect_orbit(&StreamConfig::new(base()), &orbit)
            .unwrap();
        // One scratch set per rank, allocated on the first frame: a rank
        // checks its set back in before it composes the next frame.
        let after_first = session.fresh_checkouts();
        assert_eq!(after_first, 3, "expected p fresh checkouts");
        // A second stream on the same session reuses every buffer.
        client
            .collect_orbit(&StreamConfig::new(base()), &orbit)
            .unwrap();
        assert_eq!(session.fresh_checkouts(), after_first);
    }

    #[test]
    fn concurrent_clients_stream_independently() {
        let orbit = OrbitConfig::quarter(3);
        let session = StreamSession::new(3);
        let a = session
            .open()
            .stream_orbit(&StreamConfig::new(base()), &orbit);
        let b = session
            .open()
            .stream_orbit(&StreamConfig::new(base()), &orbit);
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
            .map(|config| shared.open().stream_orbit(config, &orbit));
        for (config, handle) in configs.iter().zip(handles) {
            let together: Vec<_> = handle.map(Result::unwrap).collect();
            let solo = StreamSession::new(3)
                .open()
                .collect_orbit(config, &orbit)
                .unwrap();
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
                .open()
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
    fn wide_windows_change_nothing_but_memory() {
        let orbit = OrbitConfig::quarter(4);
        let session = StreamSession::new(2);
        let narrow = session
            .open()
            .collect_orbit(&StreamConfig::new(base()).with_window(1), &orbit)
            .unwrap();
        let wide = session
            .open()
            .collect_orbit(&StreamConfig::new(base()).with_window(4), &orbit)
            .unwrap();
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(a.frame.pixels(), b.frame.pixels());
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
            .open()
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
            .open()
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
            let mut stream = session.open().stream_orbit(&config, &orbit);
            // Frames before the death complete cleanly.
            for expect in 0..2usize {
                let frame = stream.next().expect("stream open").expect("clean frame");
                assert_eq!(frame.stats.index, expect);
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
                .open()
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
    fn zero_frame_stream_is_a_typed_error() {
        let orbit = OrbitConfig {
            frames: 0,
            start_yaw: 0.0,
            end_yaw: 1.0,
            pitch: 0.0,
        };
        let session = StreamSession::new(2);
        let err = session
            .open()
            .collect_orbit(&StreamConfig::new(base()), &orbit)
            .unwrap_err();
        assert!(matches!(err, PvrError::Config { .. }), "{err}");
    }

    #[test]
    fn frame_traces_carry_frame_scoped_spans() {
        let orbit = OrbitConfig::quarter(3);
        let session = StreamSession::new(2);
        let frames = session
            .open()
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
