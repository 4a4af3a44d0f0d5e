//! The full-pipeline workloads: render → composite → warp, one frame at a
//! time through `render_frame_pooled` and streamed through `StreamSession`,
//! plus the staged replica that times the same frame layer by layer.

use crate::calib::Calibrator;
use crate::compose::{compose_once, Limit};
use crate::content::{self, identical, P};
use crate::procfs::{self, CpuTime};
use crate::spans::{SpanLog, DRIVER_TRACK};
use crate::window::{Segment, Window};
use rt_comm::{FaultPlan, Trace};
use rt_core::exec::{ComposeConfig, ScratchPool};
use rt_imaging::{GrayAlpha, Image};
use rt_pvr::permute::permute_plan;
use rt_pvr::{
    orbit_cameras, render_frame_pooled, OrbitConfig, PipelineConfig, StreamConfig, StreamSession,
};
use rt_render::camera::{factorize, Camera};
use rt_render::partition::{depth_order, partition_1d, Subvolume};
use rt_render::shearwarp::{render, render_intermediate, warp_to_screen};
use std::time::Instant;

/// Untimed frames a pipeline visit renders first. Fewer than the compose
/// workloads' twenty: a pipeline frame costs tens of milliseconds, and four
/// already fill the scratch pool and the page cache of the volume.
pub const WARMUP_FRAMES: usize = 4;

/// What the pipeline under test is handed: frame settings and a camera path.
pub struct PipelineInputs {
    /// Dataset, resolution, method and codec.
    pub base: PipelineConfig,
    /// The camera path as the streaming API takes it.
    pub orbit: OrbitConfig,
    /// The orbit's cameras, one distinct frame each.
    pub cameras: Vec<Camera>,
}

impl PipelineInputs {
    /// Inputs for dataset noise seed `seed`.
    pub fn build(seed: u64) -> PipelineInputs {
        let orbit = content::orbit();
        PipelineInputs {
            base: content::pipeline_config(seed),
            orbit,
            cameras: orbit_cameras(&orbit).into_iter().map(|(_, c)| c).collect(),
        }
    }

    /// FNV hash of everything the inputs are built from.
    pub fn fingerprint(&self) -> u64 {
        let words = [
            self.base.seed,
            self.base.volume_size as u64,
            self.base.render.width as u64,
            self.base.render.height as u64,
            self.orbit.frames as u64,
            self.orbit.start_yaw.to_bits(),
            self.orbit.end_yaw.to_bits(),
            self.orbit.pitch.to_bits(),
        ];
        content::fnv_words(words)
    }

    /// The frame settings with `camera` as the view.
    pub fn config_for(&self, camera: Camera) -> PipelineConfig {
        PipelineConfig {
            camera,
            ..self.base
        }
    }
}

/// A delivered frame with the trace of the run that made it.
pub type Delivered = (Image<GrayAlpha>, Trace);

/// What one pipeline visit measured.
pub struct PipelineVisit {
    /// Set-up and timed samples, with their calibrations. Serial: a sample
    /// is the duration of one `render_frame_pooled` call. Stream: the
    /// interval between consecutive frames of an orbit at the consumer.
    pub window: Window,
    /// `VmHWM` after the window's first orbit, MB: memory is compared at
    /// equal work, not at whatever a window's speed got through.
    pub peak_rss_mb: f64,
    /// `(start, end)` of each timed sample, for the traced pass's spans.
    pub calls: Vec<(Instant, Instant)>,
    /// Stream only: `stream_orbit` call → first frame, per orbit, ms.
    pub first_frame_ms: Vec<f64>,
    /// Heap allocations during the timed samples (when asked to count).
    pub allocations: u64,
    /// Frames requested, warm-up included.
    pub attempted: u64,
    /// Frames that returned `Err`, arrived out of order, or differed from
    /// the first delivery for the same camera.
    pub failed: u64,
    /// The first delivery for each camera, in orbit order.
    pub distinct: Vec<Delivered>,
    /// Scratch-pool checkouts after warm-up that found no pooled buffer.
    pub fresh_checkouts: u64,
}

/// When a visit started and what the calibration kernel took just before.
#[derive(Debug, Clone, Copy)]
pub struct Start {
    /// The moment set-up time counts from.
    pub since: Instant,
    /// Calibration kernel seconds at that moment.
    pub kernel_s: f64,
}

impl PipelineVisit {
    fn new() -> PipelineVisit {
        PipelineVisit {
            window: Window {
                setup_s: 0.0,
                setup_kernel_s: [0.0; 2],
                segments: Vec::new(),
            },
            peak_rss_mb: 0.0,
            calls: Vec::new(),
            first_frame_ms: Vec::new(),
            allocations: 0,
            attempted: 0,
            failed: 0,
            distinct: Vec::new(),
            fresh_checkouts: 0,
        }
    }

    /// Set-up is over: stamp it and calibrate. Returns the window's start
    /// and the kernel seconds the first segment begins with.
    fn open_window(&mut self, start: Start, calibrator: &mut Calibrator) -> (Instant, f64) {
        let kernel_s = calibrator.sample();
        let now = Instant::now();
        self.window.setup_s = now.duration_since(start.since).as_secs_f64();
        self.window.setup_kernel_s = [start.kernel_s, kernel_s];
        (now, kernel_s)
    }

    /// File a delivery for camera `index`: the first one becomes the
    /// reference for that camera, later ones must be bit-identical to it.
    fn file(&mut self, index: usize, delivered: Delivered) {
        match self.distinct.get(index) {
            None => {
                debug_assert_eq!(index, self.distinct.len());
                self.distinct.push(delivered);
            }
            Some((first, _)) if identical(first, &delivered.0) => {}
            Some(_) => self.failed += 1,
        }
    }
}

fn done(limit: Limit, window_start: Instant, cycles: u64) -> bool {
    match limit {
        Limit::Seconds(s) => window_start.elapsed().as_secs_f64() >= s,
        Limit::Frames(n) => cycles * content::ORBIT_FRAMES as u64 >= n,
    }
}

/// Switch allocation counting on for `f` when `count` is set; returns what
/// `f` allocated.
fn counted<T>(count: bool, f: impl FnOnce() -> T) -> (T, u64) {
    let before = crate::alloc::allocations();
    crate::alloc::set_counting(count);
    let out = f();
    crate::alloc::set_counting(false);
    (out, crate::alloc::allocations() - before)
}

/// Frames of one serial segment: the box's speed is sampled after every
/// `GROUP` frames, about five times a second.
const GROUP: usize = 4;

/// `pipeline_serial`: whole orbits of `render_frame_pooled` calls, closed
/// loop, until `limit` (checked between orbits so every camera weighs the
/// same). The check of each frame and the calibrations run between calls,
/// outside the samples.
pub fn serial_visit(
    inputs: &PipelineInputs,
    limit: Limit,
    count_allocs: bool,
    calibrator: &mut Calibrator,
    start: Start,
) -> PipelineVisit {
    let pool = ScratchPool::<GrayAlpha>::new();
    let mut visit = PipelineVisit::new();
    for &camera in inputs.cameras.iter().take(WARMUP_FRAMES) {
        visit.attempted += 1;
        if let Err(e) = render_frame_pooled(P, &inputs.config_for(camera), FaultPlan::none(), &pool)
        {
            eprintln!("warm-up frame failed: {e}");
            visit.failed += 1;
        }
    }
    let fresh_before = pool.fresh_checkouts();
    let (window_start, mut kernel_before) = visit.open_window(start, calibrator);
    let mut cycles = 0;
    while !done(limit, window_start, cycles) {
        for (group, cameras) in inputs.cameras.chunks(GROUP).enumerate() {
            let mut frame_ms = Vec::with_capacity(GROUP);
            let mut cpu = CpuTime::default();
            for (offset, &camera) in cameras.iter().enumerate() {
                let index = group * GROUP + offset;
                let config = inputs.config_for(camera);
                let cpu_before = procfs::cpu_now();
                let started = Instant::now();
                let (result, allocations) = counted(count_allocs, || {
                    render_frame_pooled(P, &config, FaultPlan::none(), &pool)
                });
                let ended = Instant::now();
                cpu = cpu.plus(procfs::cpu_now().since(cpu_before));
                frame_ms.push(ended.duration_since(started).as_secs_f64() * 1e3);
                visit.attempted += 1;
                visit.allocations += allocations;
                visit.calls.push((started, ended));
                match result {
                    Ok(out) => visit.file(index, (out.frame, out.trace)),
                    Err(e) => {
                        eprintln!("frame {index} failed: {e}");
                        visit.failed += 1;
                    }
                }
            }
            let kernel_after = calibrator.sample();
            let kernel_s = [kernel_before, kernel_after];
            visit
                .window
                .segments
                .push(Segment::of_intervals(frame_ms, cpu, kernel_s));
            kernel_before = kernel_after;
        }
        cycles += 1;
        if cycles == 1 {
            visit.peak_rss_mb = procfs::peak_rss_mb();
        }
    }
    visit.fresh_checkouts = pool.fresh_checkouts() - fresh_before;
    visit
}

/// `pipeline_stream`: whole orbits through `StreamSession::open()
/// .stream_orbit(..)`, window 2, until `limit`. An orbit is one segment: its
/// samples are the intervals between consecutive arrivals, its wall and CPU
/// time run from the `stream_orbit` call, so the orbit's start-up (volume
/// generation, planning, machine spawn) counts in `frames_per_s` and
/// `cpu_ms_per_frame`. The frames are retained as they arrive and checked
/// once the orbit has drained.
pub fn stream_visit(
    inputs: &PipelineInputs,
    limit: Limit,
    count_allocs: bool,
    calibrator: &mut Calibrator,
    start: Start,
) -> PipelineVisit {
    let session = StreamSession::new(P);
    let client = session.open();
    let config = StreamConfig::new(inputs.base);
    let mut visit = PipelineVisit::new();
    for item in client.stream_orbit(&config, &OrbitConfig::quarter(WARMUP_FRAMES)) {
        visit.attempted += 1;
        if let Err(e) = item {
            eprintln!("warm-up orbit failed: {e}");
            visit.failed += 1;
        }
    }
    let fresh_before = session.fresh_checkouts();
    let (window_start, mut kernel_before) = visit.open_window(start, calibrator);
    let n = inputs.cameras.len();
    let mut cycles = 0;
    while !done(limit, window_start, cycles) {
        let mut arrivals = Vec::with_capacity(n);
        let mut items = Vec::with_capacity(n);
        let allocations_before = crate::alloc::allocations();
        let cpu_before = procfs::cpu_now();
        let called = Instant::now();
        for item in client.stream_orbit(&config, &inputs.orbit) {
            arrivals.push(Instant::now());
            // Allocations are a steady-state count: from the first frame on.
            crate::alloc::set_counting(count_allocs);
            items.push(item);
        }
        crate::alloc::set_counting(false);
        let cpu = procfs::cpu_now().since(cpu_before);
        let kernel_after = calibrator.sample();
        if let (Some(&first), Some(&last)) = (arrivals.first(), arrivals.last()) {
            visit.allocations += crate::alloc::allocations() - allocations_before;
            visit
                .first_frame_ms
                .push(first.duration_since(called).as_secs_f64() * 1e3);
            visit.window.segments.push(Segment {
                frame_ms: arrivals
                    .windows(2)
                    .map(|pair| pair[1].duration_since(pair[0]).as_secs_f64() * 1e3)
                    .collect(),
                frames: arrivals.len() as u64,
                wall_ms: last.duration_since(called).as_secs_f64() * 1e3,
                cpu,
                kernel_s: [kernel_before, kernel_after],
            });
            visit
                .calls
                .extend(arrivals.windows(2).map(|pair| (pair[0], pair[1])));
        }
        kernel_before = kernel_after;
        visit.attempted += n as u64;
        // A failed stream stops early: the frames it never sent failed too.
        visit.failed += (n - items.len()) as u64;
        for (index, item) in items.into_iter().enumerate() {
            match item {
                Ok(frame) if frame.seq == index as u64 => {
                    visit.file(index, (frame.frame, frame.trace));
                }
                Ok(frame) => {
                    eprintln!("frame {index} arrived as sequence {}", frame.seq);
                    visit.failed += 1;
                }
                Err(e) => {
                    eprintln!("streamed frame {index} failed: {e}");
                    visit.failed += 1;
                }
            }
        }
        cycles += 1;
        if cycles == 1 {
            visit.peak_rss_mb = procfs::peak_rss_mb();
        }
    }
    visit.fresh_checkouts = session.fresh_checkouts() - fresh_before;
    visit
}

/// Check the distinct frames of a serial visit, outside every timed
/// interval: each must be `approx_eq(1e-3)` to the sequential shear-warp
/// render of its camera. Returns the frames that fail, missing ones included.
pub fn verify_frames(inputs: &PipelineInputs, frames: &[Delivered]) -> u64 {
    let base = &inputs.base;
    let whole = Subvolume::whole(base.dataset.generate(base.volume_size, base.seed));
    let tf = base.dataset.transfer_function();
    let mut failed = inputs.cameras.len().saturating_sub(frames.len()) as u64;
    for (index, ((frame, _), camera)) in frames.iter().zip(&inputs.cameras).enumerate() {
        let want = render(&whole, &tf, camera, &base.render);
        if !frame.approx_eq(&want, 1e-3) {
            eprintln!(
                "frame {index} is not the sequential render: {:?}",
                frame.first_mismatch(&want, 1e-3)
            );
            failed += 1;
        }
    }
    failed
}

/// How many of `streamed` are not bit-identical to the serial frame of the
/// same camera, missing ones included.
pub fn count_differing(streamed: &[Delivered], serial: &[Delivered]) -> u64 {
    let missing = serial.len().saturating_sub(streamed.len()) as u64;
    let differing = streamed
        .iter()
        .zip(serial)
        .filter(|((a, _), (b, _))| !identical(a, b))
        .count() as u64;
    missing + differing
}

/// The staged replica: the frame of each camera rebuilt from the layers'
/// public functions, one span per call, single-threaded except for the
/// composition itself. Returns how many replica frames were *not*
/// bit-identical to `expected` (what `render_frame_pooled` delivered).
pub fn staged_replica(inputs: &PipelineInputs, expected: &[Delivered], log: &mut SpanLog) -> u64 {
    let base = &inputs.base;
    let pool = ScratchPool::<GrayAlpha>::new();
    let compose_config = ComposeConfig::default()
        .with_codec(base.codec)
        .with_root(base.root);
    let mut mismatches = 0;
    for (k, camera) in inputs.cameras.iter().enumerate() {
        let frame_id = k as u64;
        let span = log.begin("pvr.staged_frame", DRIVER_TRACK, frame_id, None);
        let parent = Some(span);
        let volume = log.time("render.generate", DRIVER_TRACK, frame_id, parent, || {
            base.dataset.generate(base.volume_size, base.seed)
        });
        let tf = base.dataset.transfer_function();
        let f = factorize(camera, volume.dims(), base.render.width, base.render.height);
        let parts = log.time("render.partition", DRIVER_TRACK, frame_id, parent, || {
            partition_1d(&volume, P, f.axis).expect("the volume splits into P slabs")
        });
        let rank_of_depth = depth_order(&parts, &f);
        let depth_plan = log.time("core.plan", DRIVER_TRACK, frame_id, parent, || {
            let plan = base
                .method
                .plan(P, f.inter_size.0, f.inter_size.1)
                .expect("the method supports P");
            plan.verify().expect("a compiled plan verifies");
            plan
        });
        let plan = log.time("pvr.permute", DRIVER_TRACK, frame_id, parent, || {
            permute_plan(&depth_plan, &rank_of_depth).expect("span schedules permute")
        });
        let partials: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(rank, sub)| {
                log.time("render.slab", rank as u32, frame_id, parent, || {
                    render_intermediate(sub, &tf, camera, &base.render).0
                })
            })
            .collect();
        let composed = log.time("core.compose", DRIVER_TRACK, frame_id, parent, || {
            compose_once(&plan, partials, &compose_config, &pool)
        });
        let screen = composed.map(|(inter, _)| {
            log.time("render.warp", DRIVER_TRACK, frame_id, parent, || {
                warp_to_screen(&inter, &f, &base.render)
            })
        });
        log.finish(span);
        let same = match (&screen, expected.get(k)) {
            (Ok(screen), Some((want, _))) => identical(screen, want),
            _ => false,
        };
        if !same {
            eprintln!("staged replica of frame {k} differs from render_frame_pooled's");
            mismatches += 1;
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_render::shearwarp::RenderOptions;

    /// Small enough for a debug-build test: 24³ voxels, 48² frames.
    fn small_inputs() -> PipelineInputs {
        let mut inputs = PipelineInputs::build(7);
        inputs.base.volume_size = 24;
        inputs.base.render = RenderOptions {
            early_termination: 1.0,
            ..RenderOptions::square(48)
        };
        inputs
    }

    fn serial(inputs: &PipelineInputs, frames: u64) -> PipelineVisit {
        let start = Start {
            since: Instant::now(),
            kernel_s: 1e-3,
        };
        serial_visit(
            inputs,
            Limit::Frames(frames),
            false,
            &mut Calibrator::default(),
            start,
        )
    }

    #[test]
    fn serial_and_streamed_orbits_agree_and_verify() {
        let inputs = small_inputs();
        let n = inputs.cameras.len() as u64;
        let serial = serial(&inputs, n);
        assert_eq!(serial.window.frames(), n);
        assert_eq!(serial.window.segments.len(), inputs.cameras.len() / GROUP);
        assert!(serial.window.setup_s > 0.0);
        assert_eq!(serial.attempted, n + WARMUP_FRAMES as u64);
        assert_eq!(serial.failed, 0);
        assert_eq!(serial.fresh_checkouts, 0);
        assert_eq!(verify_frames(&inputs, &serial.distinct), 0);

        let start = Start {
            since: Instant::now(),
            kernel_s: 1e-3,
        };
        let stream = stream_visit(
            &inputs,
            Limit::Frames(n),
            false,
            &mut Calibrator::default(),
            start,
        );
        assert_eq!(stream.window.frames(), n);
        assert_eq!(
            stream.window.raw_frame_ms().len() as u64,
            n - 1,
            "intervals between n arrivals"
        );
        assert_eq!(stream.window.segments.len(), 1);
        // The orbit's wall time runs from the call, start-up included.
        let orbit = &stream.window.segments[0];
        let intervals: f64 = orbit.frame_ms.iter().sum();
        assert!((orbit.wall_ms - intervals - stream.first_frame_ms[0]).abs() < 1e-6);
        assert_eq!(stream.first_frame_ms.len(), 1);
        assert_eq!(stream.failed, 0);
        assert_eq!(count_differing(&stream.distinct, &serial.distinct), 0);
    }

    #[test]
    fn a_corrupted_frame_fails_verification_and_refiling() {
        let inputs = small_inputs();
        let n = inputs.cameras.len() as u64;
        let mut serial = serial(&inputs, n);
        let good = serial.distinct.clone();
        let px = *serial.distinct[3].0.get(20, 20);
        serial.distinct[3]
            .0
            .set(20, 20, GrayAlpha::new(px.v + 0.25, px.a));
        assert_eq!(verify_frames(&inputs, &serial.distinct), 1);
        assert_eq!(count_differing(&good, &serial.distinct), 1);
        // A later delivery that differs from the first one filed is a failure.
        serial.file(3, good[3].clone());
        assert_eq!(serial.failed, 1);
        // A missing frame is a failed frame.
        assert_eq!(verify_frames(&inputs, &good[..10]), n - 10);
        assert_eq!(count_differing(&good[..10], &good), n - 10);
    }

    #[test]
    fn the_staged_replica_rebuilds_the_pipelines_frames_bit_for_bit() {
        let inputs = small_inputs();
        let n = inputs.cameras.len();
        let serial = serial(&inputs, n as u64);
        let mut log = SpanLog::new(Instant::now());
        assert_eq!(staged_replica(&inputs, &serial.distinct, &mut log), 0);
        assert_eq!(log.durations("pvr.staged_frame").len(), n);
        assert_eq!(log.durations("render.slab").len(), n * P);
        assert_eq!(log.durations("core.compose").len(), n);
        // Every child span lies inside its frame span.
        for span in log.spans() {
            if let Some(parent) = span.parent {
                let outer = &log.spans()[parent];
                assert!(outer.start <= span.start && span.end <= outer.end);
            }
        }
    }
}
