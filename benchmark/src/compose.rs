//! The compose-only workloads: one machine held for a whole visit, every
//! rank looping `compose_plan` on its own pre-built partial.

use crate::calib::Calibrator;
use crate::content::{self, Content};
use crate::procfs::{self, CpuTime};
use crate::window::{Segment, Window};
use rt_comm::{replay, CostModel, FaultPlan, RankCtx, RankTrace, ReplayReport, Trace};
use rt_compress::CodecKind;
use rt_core::exec::{ComposeConfig, Machine, ScratchPool, TransportKind};
use rt_core::method::Method;
use rt_core::tile::{compose_plan, ComposePlan};
use rt_core::CoreError;
use rt_imaging::image::reference_composite;
use rt_imaging::pixel::GrayAlpha8;
use rt_imaging::Image;
use rt_obs::Observer;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Untimed frames every visit composes before its first timed frame.
pub const WARMUP_FRAMES: u64 = 20;
/// Frames of one segment. The ranks must agree on the last frame without
/// exchanging a message of the program's, and the box's speed must be
/// sampled a few times a second, so every `CHUNK` frames they meet on a
/// `std::sync::Barrier`, the root calibrates, and all read its verdict.
const CHUNK: u64 = 64;

/// What a compose workload composites, how, and over what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposeSpec {
    /// Content class of the partials.
    pub content: Content,
    /// Composition method.
    pub method: Method,
    /// Message codec.
    pub codec: CodecKind,
    /// Communication backend.
    pub transport: TransportKind,
}

/// Everything the program under test is handed.
pub struct ComposeInputs {
    /// One partial per rank, depth order = rank order.
    pub partials: Vec<Image<GrayAlpha8>>,
    /// The compiled and verified plan.
    pub plan: ComposePlan,
    /// Codec, root and transport.
    pub config: ComposeConfig,
}

impl ComposeInputs {
    /// Generate the partials for `p` ranks and compile the plan.
    pub fn build(spec: &ComposeSpec, p: usize, seed: u64) -> ComposeInputs {
        let partials = content::partials(spec.content, p, seed);
        let (w, h) = (partials[0].width(), partials[0].height());
        let plan = spec
            .method
            .plan(p, w, h)
            .expect("the workload's method supports its machine size");
        plan.verify().expect("a compiled plan verifies");
        ComposeInputs {
            partials,
            plan,
            config: ComposeConfig::default()
                .with_codec(spec.codec)
                .with_transport(spec.transport),
        }
    }

    /// Ranks of the machine.
    pub fn p(&self) -> usize {
        self.partials.len()
    }

    /// Largest 8-bit error frame 0 may show against the sequential
    /// reference: one level per merge-tree level plus slack for methods
    /// that associate differently from it, none for tile ownership, whose
    /// fold order is the reference's.
    pub fn tolerance(&self) -> u8 {
        match self.plan {
            ComposePlan::Tiles(_) => 0,
            _ => rt_core::rotate::ceil_log2(self.p()) as u8 + 3,
        }
    }

    /// Whether `frame0` is the composite of the partials, within
    /// [`ComposeInputs::tolerance`]. Runs outside every timed interval.
    pub fn frame_is_correct(&self, frame0: &Image<GrayAlpha8>) -> bool {
        let reference = reference_composite(&self.partials).expect("P > 0 partials");
        rt_quality::max_abs_error(frame0, &reference).is_ok_and(|err| err <= self.tolerance())
    }
}

/// How long a visit's timed window runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Until the root has seen this many seconds (checked every `CHUNK`
    /// frames), and never fewer than `RSS_MARK_FRAMES` frames: the visit's
    /// memory is read at that much work whatever the box's speed.
    Seconds(f64),
    /// Exactly this many frames; `Frames(0)` is a set-up-only visit.
    Frames(u64),
}

/// Timed frames after which a visit reads its peak resident set: memory is
/// compared at equal work, not at whatever a window's speed got through
/// (`rt-net`'s sent-frame log alone grows by 1.9 MB per dense frame).
const RSS_MARK_FRAMES: u64 = 4 * CHUNK;

/// What one visit measured.
pub struct ComposeVisit {
    /// Set-up and timed frames, with their calibrations.
    pub window: Window,
    /// `VmHWM` once `RSS_MARK_FRAMES` timed frames were delivered, MB. Only
    /// a frame-limited visit can close sooner; it reads the peak as it
    /// closes, and no end-to-end number comes from it.
    pub peak_rss_mb: f64,
    /// Heap allocations during the timed window (counted only when an
    /// observer is attached).
    pub allocations: u64,
    /// Frames composed, warm-up included.
    pub attempted: u64,
    /// Frames that returned `Err`, were not delivered, or differed from
    /// frame 0.
    pub failed: u64,
    /// The first frame the root assembled.
    pub frame0: Option<Image<GrayAlpha8>>,
    /// Frame 0's event trace, all ranks.
    pub frame0_trace: Trace,
    /// Per rank, the `(start, end)` of each timed `compose_plan` call
    /// (recorded only when an observer is attached).
    pub rank_calls: Vec<Vec<(Instant, Instant)>>,
}

struct RankOut {
    events0: RankTrace,
    frame0: Option<Image<GrayAlpha8>>,
    window_start: Instant,
    kernel_at_start: f64,
    peak_rss_mb: Option<f64>,
    segments: Vec<Segment>,
    allocations: u64,
    calls: Vec<(Instant, Instant)>,
    composed: u64,
    failed_frames: Vec<u64>,
}

/// Run one visit, started at `since`: build the machine, warm up, then time
/// frames until `limit`. Every `CHUNK` frames the ranks pause on a barrier
/// while the root samples the `calibrator`; the pause is outside every
/// frame interval. With an `observer` the visit is the traced pass: the
/// program's phase book is recorded, each rank's calls are stamped and
/// allocations are counted.
pub fn run_visit(
    inputs: &ComposeInputs,
    pool: &ScratchPool<GrayAlpha8>,
    limit: Limit,
    observer: Option<Arc<Observer>>,
    calibrator: &Mutex<Calibrator>,
    since: Instant,
    kernel_at_since: f64,
) -> ComposeVisit {
    let p = inputs.p();
    let traced = observer.is_some();
    let machine = Machine::build(p, &inputs.config, FaultPlan::none(), observer);
    let sync = Barrier::new(p);
    let stop = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let calibrate = || {
        calibrator
            .lock()
            .expect("only the root runs the calibrator")
            .sample()
    };

    let (outs, _) = machine.run(|ctx| {
        let me = ctx.rank();
        let is_root = me == inputs.config.root;
        let mut scratch = pool.checkout(me);
        let mut out = RankOut {
            events0: RankTrace::new(),
            frame0: None,
            window_start: Instant::now(),
            kernel_at_start: 0.0,
            peak_rss_mb: None,
            segments: Vec::with_capacity(256),
            allocations: 0,
            calls: Vec::with_capacity(if traced { 1 << 10 } else { 0 }),
            composed: 0,
            failed_frames: Vec::new(),
        };
        // One frame of the closed loop: compose, then (root) read the frame
        // once against frame 0 — the client's consumption of it. Returns
        // when the frame was delivered.
        let mut frame = |ctx: &mut RankCtx, out: &mut RankOut, k: u64, timed: bool| {
            if abort.load(Ordering::SeqCst) {
                return None;
            }
            let local = inputs.partials[me].clone();
            let config = inputs.config.with_frame(k);
            let started = Instant::now();
            let result = compose_plan(ctx, &inputs.plan, local, &config, &mut scratch);
            let ended = Instant::now();
            let events = ctx.take_events();
            out.composed += 1;
            if timed && traced {
                out.calls.push((started, ended));
            }
            if k == 0 {
                out.events0 = events;
            }
            let ok = match result {
                Ok(composed) if !is_root => composed.frame.is_none(),
                Ok(composed) => match (composed.frame, &out.frame0) {
                    (Some(img), None) => {
                        out.frame0 = Some(img);
                        true
                    }
                    (Some(img), Some(first)) => content::identical(&img, first),
                    (None, _) => false,
                },
                Err(e) => {
                    eprintln!("rank {me}: frame {k} failed: {e}");
                    abort.store(true, Ordering::SeqCst);
                    false
                }
            };
            if !ok {
                out.failed_frames.push(k);
            }
            Some(ended)
        };

        for k in 0..WARMUP_FRAMES {
            frame(ctx, &mut out, k, false);
        }
        sync.wait();
        let allocations_before = crate::alloc::allocations();
        let mut kernel_before = 0.0;
        if is_root {
            kernel_before = calibrate();
            out.kernel_at_start = kernel_before;
            crate::alloc::set_counting(traced);
        }
        sync.wait();
        out.window_start = Instant::now();

        let mut segment_start = out.window_start;
        let mut cpu_before = if is_root {
            procfs::cpu_now()
        } else {
            CpuTime::default()
        };
        let mut frame_ms = Vec::with_capacity(CHUNK as usize);
        let mut done = 0u64;
        loop {
            let finished = matches!(limit, Limit::Frames(n) if done == n);
            if finished || (done > 0 && done.is_multiple_of(CHUNK)) {
                // Close the segment: calibrate while every rank waits.
                if is_root {
                    let cpu = procfs::cpu_now().since(cpu_before);
                    let over = match limit {
                        Limit::Seconds(s) => {
                            done >= RSS_MARK_FRAMES && out.window_start.elapsed().as_secs_f64() >= s
                        }
                        Limit::Frames(_) => finished,
                    };
                    if over || abort.load(Ordering::SeqCst) {
                        stop.store(true, Ordering::SeqCst);
                    }
                    sync.wait();
                    if done >= RSS_MARK_FRAMES || stop.load(Ordering::SeqCst) {
                        out.peak_rss_mb.get_or_insert_with(procfs::peak_rss_mb);
                    }
                    let kernel_after = calibrate();
                    if !frame_ms.is_empty() {
                        out.segments.push(Segment::of_intervals(
                            std::mem::take(&mut frame_ms),
                            cpu,
                            [kernel_before, kernel_after],
                        ));
                    }
                    kernel_before = kernel_after;
                } else {
                    sync.wait();
                }
                // The barriers order the root's store before every read.
                sync.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                segment_start = Instant::now();
                if is_root {
                    cpu_before = procfs::cpu_now();
                }
            }
            let delivered = frame(ctx, &mut out, WARMUP_FRAMES + done, true);
            if let (true, Some(at)) = (is_root, delivered) {
                frame_ms.push(at.duration_since(segment_start).as_secs_f64() * 1e3);
                segment_start = at;
            }
            done += 1;
        }
        if is_root {
            crate::alloc::set_counting(false);
            out.allocations = crate::alloc::allocations() - allocations_before;
        }
        pool.checkin(me, scratch);
        out
    });

    let mut failed_frames = BTreeSet::new();
    let mut frame0_trace = Trace::default();
    let mut rank_calls = Vec::with_capacity(p);
    let mut root = None;
    for (rank, mut out) in outs.into_iter().enumerate() {
        failed_frames.extend(out.failed_frames.drain(..));
        frame0_trace.ranks.push(std::mem::take(&mut out.events0));
        rank_calls.push(std::mem::take(&mut out.calls));
        if rank == inputs.config.root {
            root = Some(out);
        }
    }
    let root = root.expect("the root is one of the ranks");
    ComposeVisit {
        window: Window {
            setup_s: root.window_start.duration_since(since).as_secs_f64(),
            setup_kernel_s: [kernel_at_since, root.kernel_at_start],
            segments: root.segments,
        },
        peak_rss_mb: root.peak_rss_mb.unwrap_or_else(procfs::peak_rss_mb),
        allocations: root.allocations,
        attempted: root.composed,
        failed: failed_frames.len() as u64,
        frame0: root.frame0,
        frame0_trace,
        rank_calls,
    }
}

/// Price a frame's trace on the paper's clock (SP2 constants).
pub fn replay_sp2(trace: &Trace) -> ReplayReport {
    replay(trace, &CostModel::SP2).expect("an executed frame's trace replays")
}

/// The paper's composition time of a replayed frame, ms: first rank into
/// `compose:start` to last rank out of `gather:end`.
pub fn virtual_compose_ms(report: &ReplayReport) -> f64 {
    report
        .phase("compose:start", "gather:end")
        .expect("every executor marks compose:start and gather:end")
        * 1e3
}

/// Compose `partials` once over a fresh in-process machine and return the
/// root's frame with the trace — the one-shot path `rt-pvr` takes per frame.
pub fn compose_once<Px: rt_imaging::Pixel>(
    plan: &ComposePlan,
    partials: Vec<Image<Px>>,
    config: &ComposeConfig,
    pool: &ScratchPool<Px>,
) -> Result<(Image<Px>, Trace), CoreError> {
    let (results, trace) = rt_core::run_plan_composition_pooled(plan, partials, config, pool);
    let mut frame = None;
    for result in results {
        frame = result?.frame.or(frame);
    }
    let frame = frame.ok_or_else(|| CoreError::InvalidSchedule {
        why: "no rank assembled the frame".into(),
    })?;
    Ok((frame, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_inputs(method: Method, transport: TransportKind) -> ComposeInputs {
        let partials = content::dense_partials(4, 32, 32, 3);
        let plan = method.plan(4, 32, 32).unwrap();
        plan.verify().unwrap();
        ComposeInputs {
            partials,
            plan,
            config: ComposeConfig::default().with_transport(transport),
        }
    }

    fn visit(
        inputs: &ComposeInputs,
        pool: &ScratchPool<GrayAlpha8>,
        limit: Limit,
        observer: Option<Arc<Observer>>,
    ) -> ComposeVisit {
        let calibrator = Mutex::new(Calibrator::default());
        run_visit(
            inputs,
            pool,
            limit,
            observer,
            &calibrator,
            Instant::now(),
            1e-3,
        )
    }

    #[test]
    fn a_frame_limited_visit_delivers_exactly_its_frames() {
        let inputs = small_inputs(content::RT_2N, TransportKind::InProc);
        let pool = ScratchPool::new();
        let n = CHUNK + 40;
        let v = visit(&inputs, &pool, Limit::Frames(n), None);
        assert_eq!(v.window.frames(), n);
        assert_eq!(v.window.segments.len(), 2);
        assert_eq!(v.window.segments[0].frame_ms.len() as u64, CHUNK);
        assert_eq!(v.attempted, WARMUP_FRAMES + n);
        assert_eq!(v.failed, 0);
        assert!(v.window.setup_s > 0.0);
        assert!(v.peak_rss_mb > 0.0);
        assert!(v.window.raw_frame_ms().iter().all(|&ms| ms > 0.0));
        let kernels = v.window.segments.iter().flat_map(|s| s.kernel_s);
        assert!(kernels.chain(v.window.setup_kernel_s).all(|s| s > 0.0));
        assert!(inputs.frame_is_correct(v.frame0.as_ref().unwrap()));
        assert_eq!(v.frame0_trace.size(), 4);
        assert!(virtual_compose_ms(&replay_sp2(&v.frame0_trace)) > 0.0);
        // The pool handed out one scratch per rank and got them all back.
        assert_eq!(pool.fresh_checkouts(), 4);
        let again = visit(&inputs, &pool, Limit::Frames(0), None);
        assert_eq!(again.window.frames(), 0);
        assert_eq!(pool.fresh_checkouts(), 4);
    }

    #[test]
    fn a_time_limited_visit_reaches_the_rss_mark_and_stops_on_a_chunk_boundary() {
        let inputs = small_inputs(content::TILES, TransportKind::TcpLoopback);
        // Far too short for the mark: the visit runs on until it is reached.
        let v = visit(&inputs, &ScratchPool::new(), Limit::Seconds(1e-3), None);
        assert!(v.window.frames() >= RSS_MARK_FRAMES);
        assert_eq!(v.window.frames() % CHUNK, 0);
        assert_eq!(v.failed, 0);
        assert_eq!(inputs.tolerance(), 0);
        assert!(inputs.frame_is_correct(v.frame0.as_ref().unwrap()));
    }

    #[test]
    fn a_traced_visit_stamps_every_rank_and_counts_allocations() {
        let inputs = small_inputs(content::RT_N, TransportKind::InProc);
        let observer = Arc::new(Observer::new());
        let v = visit(
            &inputs,
            &ScratchPool::new(),
            Limit::Frames(10),
            Some(Arc::clone(&observer)),
        );
        assert_eq!(v.rank_calls.len(), 4);
        assert!(v.rank_calls.iter().all(|calls| calls.len() == 10));
        assert!(v.allocations > 0);
        assert_eq!(observer.timelines().len(), 4);
    }

    #[test]
    fn a_corrupted_frame_is_not_correct() {
        let inputs = small_inputs(content::RT_2N, TransportKind::InProc);
        let v = visit(&inputs, &ScratchPool::new(), Limit::Frames(1), None);
        let mut frame = v.frame0.unwrap();
        assert!(inputs.frame_is_correct(&frame));
        let px = *frame.get(5, 5);
        frame.set(5, 5, GrayAlpha8::new(px.v.wrapping_add(100), px.a));
        assert!(!inputs.frame_is_correct(&frame));
    }
}
