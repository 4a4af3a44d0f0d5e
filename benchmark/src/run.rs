//! One measured run of one workload — what `BENCHMARK.json`'s command does:
//! `--workload W --seed N --seconds S --trace 0|1`.
//!
//! `--trace 0` measures the end-to-end metrics with nothing attached.
//! `--trace 1` is the traced run: a shorter untraced window for reference,
//! then a traced pass with spans, the program's observer and the counting
//! allocator, then the layer probes. It never feeds an end-to-end number.

use crate::calib::Calibrator;
use crate::catalog::{Kind, Workload, END_TO_END, PER_LAYER};
use crate::compose::{self, ComposeInputs, ComposeSpec, ComposeVisit, Limit};
use crate::content::{self, fnv, Content, P};
use crate::json::obj;
use crate::pipeline::{self, Delivered, PipelineInputs, PipelineVisit, Start};
use crate::probes;
use crate::spans::{SpanLog, DRIVER_TRACK};
use crate::stats::{imbalance, median, tail, trimmed_mean};
use crate::window::{Sample, Window};
use rt_comm::{FaultPlan, Trace};
use rt_compress::CodecKind;
use rt_core::exec::{ScratchPool, TransportKind};
use rt_core::method::Method;
use rt_core::tile::ComposePlan;
use rt_imaging::{Image, Pixel};
use rt_obs::Observer;
use rt_pvr::render_frame_pooled;
use rt_pvr::scene::prepare_scene;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Timed window of one visit of an end-to-end run, seconds. A run makes as
/// many visits as `--seconds` holds: 8 under `BENCHMARK.json`'s 10 s.
const VISIT_SECONDS: f64 = 1.25;
/// Frames of a compose workload's traced pass.
const TRACED_FRAMES: u64 = 50;
/// Share of `--seconds` a traced run spends on its untraced reference window.
const UNTRACED_SHARE: f64 = 0.4;
/// Ranks of the one virtual-clock scaling figure.
const P_LARGE: usize = 32;

/// Arguments of one run.
pub struct RunArgs {
    /// What to run.
    pub workload: &'static Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Where `run_<workload>.json` and `trace_<workload>.json` go.
    pub out_dir: PathBuf,
}

/// FNV hashes proving which bytes a run measured.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hashes {
    /// One per generated input image (compose) or one over the pipeline
    /// config (pipelines).
    pub inputs: Vec<u64>,
    /// The first delivered frame.
    pub frame0: u64,
}

/// One visit's end-to-end numbers, both ways.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitRecord {
    /// Timed frames.
    pub frames: u64,
    /// Median slow-down of the box over the visit (1 = quiet).
    pub slowdown: f64,
    /// At quiet-box speed: what the run's metrics are the centre of.
    pub quiet: Sample,
    /// As the clock read them.
    pub raw: Sample,
}

/// What one run produced.
pub struct RunResult {
    /// Frames requested from the program, warm-up included.
    pub attempted: u64,
    /// Frames that errored, arrived out of order or failed verification.
    pub failed: u64,
    /// `(name, value, unit)` of every metric the run's mode declares.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// What was measured.
    pub hashes: Hashes,
    /// The untraced visits behind the metrics.
    pub visits: Vec<VisitRecord>,
}

impl RunResult {
    /// Failed ÷ attempted frames.
    pub fn failed_frame_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result as the one JSON object the contract asks for last on
    /// standard output.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// Values by metric name, checked against the catalog on the way out.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Every end-to-end metric, in catalog order; all must have been set.
    fn end_to_end(mut self) -> Vec<(&'static str, f64, &'static str)> {
        let out = END_TO_END
            .iter()
            .map(|(m, _)| {
                let value = self
                    .0
                    .remove(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
                (m.name, value, m.unit)
            })
            .collect();
        assert!(self.0.is_empty(), "undeclared metrics: {:?}", self.0.keys());
        out
    }

    /// Every per-layer metric, in catalog order; a layer off the workload's
    /// path reads 0.
    fn per_layer(mut self) -> Vec<(&'static str, f64, &'static str)> {
        let out = PER_LAYER
            .iter()
            .map(|m| (m.name, self.0.remove(m.name).unwrap_or(0.0), m.unit))
            .collect();
        assert!(self.0.is_empty(), "undeclared metrics: {:?}", self.0.keys());
        out
    }
}

/// Record a visit, and say what the clock and the kernel said.
fn record_of(window: &Window) -> VisitRecord {
    let record = VisitRecord {
        frames: window.frames(),
        slowdown: window.slowdown(),
        quiet: window.at_quiet_speed(),
        raw: window.raw(),
    };
    let VisitRecord { quiet, raw, .. } = &record;
    eprintln!(
        "visit: {} frames, box {:.2}x slower than quiet; at quiet speed (raw): set-up {:.3} ({:.3}) s, \
         p50 {:.3} ({:.3}) ms, {:.1} ({:.1}) frames/s, cpu {:.3} ({:.3}) ms/frame",
        record.frames,
        record.slowdown,
        quiet.setup_s,
        raw.setup_s,
        quiet.frame_ms_p50,
        raw.frame_ms_p50,
        quiet.frames_per_s,
        raw.frames_per_s,
        quiet.cpu_ms_per_frame,
        raw.cpu_ms_per_frame,
    );
    record
}

/// The centre of a run's visits: their trimmed mean, metric by metric. A
/// visit builds its own machine, so its threads land on the cores afresh;
/// on a two-core box that placement alone moves a visit's frame time by
/// ~10 %, and the centre of several visits is what repeats from run to run.
fn centre(samples: &[Sample]) -> Sample {
    let over = |f: fn(&Sample) -> f64| trimmed_mean(&samples.iter().map(f).collect::<Vec<_>>());
    Sample {
        setup_s: over(|s| s.setup_s),
        frame_ms_p50: over(|s| s.frame_ms_p50),
        frames_per_s: over(|s| s.frames_per_s),
        cpu_ms_per_frame: over(|s| s.cpu_ms_per_frame),
    }
}

/// The end-to-end metrics of a run: the centre of its visits at quiet-box
/// speed, and the first visit's peak memory.
fn end_to_end(visits: &[VisitRecord], peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
    let quiet = centre(&visits.iter().map(|v| v.quiet).collect::<Vec<_>>());
    let mut values = Values::default();
    values.set("setup_s", quiet.setup_s);
    values.set("frame_ms_p50", quiet.frame_ms_p50);
    values.set("frames_per_s", quiet.frames_per_s);
    values.set("cpu_ms_per_frame", quiet.cpu_ms_per_frame);
    values.set("peak_rss_mb", peak_rss_mb);
    values.end_to_end()
}

/// Visits and seconds per visit of a run: a traced run times one shorter
/// reference window, an end-to-end run splits `--seconds` into visits of
/// about `VISIT_SECONDS`.
fn windows(args: &RunArgs) -> (usize, f64) {
    if args.trace {
        (1, args.seconds * UNTRACED_SHARE)
    } else {
        let visits = (args.seconds / VISIT_SECONDS).round().max(1.0);
        (visits as usize, args.seconds / visits)
    }
}

/// The exact per-frame numbers of a set of distinct frames' traces.
fn trace_metrics(values: &mut Values, traces: &[&Trace]) {
    let n = traces.len() as f64;
    let mean = |f: &dyn Fn(&Trace) -> f64| traces.iter().map(|t| f(t)).sum::<f64>() / n;
    let reports: Vec<_> = traces.iter().map(|t| compose::replay_sp2(t)).collect();
    values.set("wire_bytes_per_frame", mean(&|t| t.bytes_sent() as f64));
    values.set(
        "core.messages_per_frame",
        mean(&|t| t.message_count() as f64),
    );
    values.set(
        "core.max_sends_per_rank",
        mean(&|t| t.max_sends_per_rank() as f64),
    );
    values.set(
        "core.over_pixels_per_frame",
        mean(&|t| t.over_pixels() as f64),
    );
    values.set(
        "virtual_compose_ms",
        reports.iter().map(compose::virtual_compose_ms).sum::<f64>() / n,
    );
    values.set(
        "core.virtual_wait_share",
        reports
            .iter()
            .map(|r| r.total_wait() / (r.ranks.len() as f64 * r.makespan))
            .sum::<f64>()
            / n,
    );
    values.set("comm.replay_us", probes::replay_us(traces[0]));
}

/// `<class>.frame_ms_p95` of the untraced window, with the percentile the
/// sample count could support.
fn tail_metrics(values: &mut Values, name: &'static str, frame_ms: &[f64]) {
    let (q, value) = tail(frame_ms, 0.95);
    values.set(name, value);
    values.set("tail_percentile", q * 100.0);
}

/// Probes that need no workload input, or the same input on every workload.
fn fixed_probes(values: &mut Values, transport: TransportKind, seed: u64) {
    let comm = probes::transport_probes(TransportKind::InProc);
    values.set("comm.pingpong_us", comm.pingpong_us);
    values.set("comm.bandwidth_mb_s", comm.bandwidth_mb_s);
    values.set("comm.fanin_msgs_per_s", comm.fanin_msgs_per_s);
    values.set("comm.barrier_us", comm.barrier_us);
    values.set("comm.machine_spawn_us", probes::machine_spawn_us());
    if transport == TransportKind::TcpLoopback {
        let net = probes::transport_probes(TransportKind::TcpLoopback);
        values.set("net.pingpong_us", net.pingpong_us);
        values.set("net.bandwidth_mb_s", net.bandwidth_mb_s);
        values.set("net.fanin_msgs_per_s", net.fanin_msgs_per_s);
        values.set("net.barrier_us", net.barrier_us);
        values.set("net.mesh_setup_ms", probes::mesh_setup_ms());
    }
    let dense = content::partials(Content::Dense, 2, seed);
    let sparse = content::partials(Content::Sparse, 2, seed);
    values.set("imaging.over_dense_mpx_s", probes::over_mpx_s(&dense));
    values.set("imaging.over_sparse_mpx_s", probes::over_mpx_s(&sparse));
    let generate = Instant::now();
    std::hint::black_box(rt_render::datasets::Dataset::Engine.generate(content::VOLUME, seed));
    values.set("render.generate_ms", generate.elapsed().as_secs_f64() * 1e3);
}

/// Probes on the workload's own partials, plan and codec.
fn own_input_probes<Px: Pixel>(
    values: &mut Values,
    method: Method,
    codec: CodecKind,
    plan: &ComposePlan,
    partials: &[Image<Px>],
) {
    let (w, h) = (partials[0].width(), partials[0].height());
    values.set("imaging.reference_ms", probes::reference_ms(partials));
    values.set("imaging.blank_fraction", content::blank_fraction(partials));
    let codec_probes = probes::codec_probes(codec, partials);
    values.set("compress.encode_mb_s", codec_probes.encode_mb_s);
    values.set("compress.decode_over_mb_s", codec_probes.decode_over_mb_s);
    values.set("compress.ratio", codec_probes.ratio);
    values.set(
        "core.plan_us",
        probes::plan_us(method, partials.len(), w, h),
    );
    values.set("core.compose_ms", probes::compose_ms(plan, partials, codec));
}

/// Write the span log next to the other outputs.
fn write_trace(log: &SpanLog, args: &RunArgs) {
    match write_out(args, "trace", &log.to_chrome_trace(args.workload.name)) {
        Ok(path) => eprintln!("wrote {} ({} spans)", path.display(), log.spans().len()),
        Err(e) => eprintln!("could not write the trace file: {e}"),
    }
}

fn sample_value(sample: &Sample) -> Value {
    obj(vec![
        ("setup_s", Value::F64(sample.setup_s)),
        ("frame_ms_p50", Value::F64(sample.frame_ms_p50)),
        ("frames_per_s", Value::F64(sample.frames_per_s)),
        ("cpu_ms_per_frame", Value::F64(sample.cpu_ms_per_frame)),
    ])
}

/// What `run_<workload>.json` holds, which the contract's result line has
/// no key for: the hashes of what was measured, and every visit both at
/// quiet-box speed and as the clock read it (`raw`: the centre of the
/// latter, the run's metrics without the calibration).
fn run_file(args: &RunArgs, result: &RunResult) -> Value {
    let hex = |hash: u64| Value::Str(format!("{hash:#018x}"));
    let raw = centre(&result.visits.iter().map(|v| v.raw).collect::<Vec<_>>());
    let visits = result.visits.iter().map(|v| {
        obj(vec![
            ("frames", Value::U64(v.frames)),
            ("slowdown", Value::F64(v.slowdown)),
            ("quiet", sample_value(&v.quiet)),
            ("raw", sample_value(&v.raw)),
        ])
    });
    obj(vec![
        ("workload", Value::Str(args.workload.name.into())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        (
            "input_fnv",
            Value::Array(result.hashes.inputs.iter().copied().map(hex).collect()),
        ),
        ("frame0_fnv", hex(result.hashes.frame0)),
        ("raw", sample_value(&raw)),
        ("visits", Value::Array(visits.collect())),
    ])
}

/// Write `value` as `<name>_<workload>.json` next to the other outputs.
fn write_out(args: &RunArgs, name: &str, value: &Value) -> std::io::Result<PathBuf> {
    let path = args
        .out_dir
        .join(format!("{name}_{}.json", args.workload.name));
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(&path, crate::json::render(value))?;
    Ok(path)
}

/// Run `args.workload` once and leave its `run_<workload>.json`.
pub fn run(args: &RunArgs) -> RunResult {
    // Warm the calibration kernel's buffers and code before its first use.
    let mut calibrator = Calibrator::default();
    calibrator.sample();
    let result = match args.workload.kind {
        Kind::Compose(spec) => run_compose(args, &spec, calibrator),
        Kind::PipelineSerial | Kind::PipelineStream => run_pipeline(args, calibrator),
    };
    if let Err(e) = write_out(args, "run", &run_file(args, &result)) {
        eprintln!("could not write the run file: {e}");
    }
    result
}

/// Close a traced run: the failure share is known only now.
fn traced_result(
    attempted: u64,
    failed: u64,
    mut values: Values,
    hashes: Hashes,
    visits: Vec<VisitRecord>,
) -> RunResult {
    let mut result = RunResult {
        attempted,
        failed,
        metrics: Vec::new(),
        hashes,
        visits,
    };
    values.set("failed_frame_share", result.failed_frame_share());
    result.metrics = values.per_layer();
    result
}

// ---- compose workloads ------------------------------------------------------

/// Set a compose workload up and time its window. Set-up is everything from
/// now to the first timed frame: content generation, plan compile and
/// verify, machine build or mesh dial, warm-up.
fn compose_visit(
    spec: &ComposeSpec,
    seed: u64,
    limit: Limit,
    calibrator: &Mutex<Calibrator>,
) -> (
    ComposeInputs,
    ScratchPool<rt_imaging::GrayAlpha8>,
    ComposeVisit,
) {
    let kernel_s = calibrator
        .lock()
        .expect("no rank holds the calibrator now")
        .sample();
    let since = Instant::now();
    let inputs = ComposeInputs::build(spec, P, seed);
    let pool = ScratchPool::new();
    let visit = compose::run_visit(&inputs, &pool, limit, None, calibrator, since, kernel_s);
    (inputs, pool, visit)
}

/// Failed frames of a visit once its frame 0 has been checked against the
/// sequential reference. Every later frame was only compared with frame 0,
/// so a wrong frame 0 fails them all.
fn failed_given_frame0(inputs: &ComposeInputs, visit: &ComposeVisit) -> u64 {
    if visit
        .frame0
        .as_ref()
        .is_some_and(|frame| inputs.frame_is_correct(frame))
    {
        visit.failed
    } else {
        eprintln!("frame 0 is not the composite of the partials");
        visit.attempted
    }
}

fn run_compose(args: &RunArgs, spec: &ComposeSpec, calibrator: Calibrator) -> RunResult {
    let calibrator = Mutex::new(calibrator);
    let (visits, seconds) = windows(args);
    let mut attempted = 0;
    let mut failed = 0;
    let mut records = Vec::with_capacity(visits);
    let mut last = None;
    let mut peak_rss_mb = None;
    for _ in 0..visits {
        drop(last.take());
        let (inputs, pool, visit) =
            compose_visit(spec, args.seed, Limit::Seconds(seconds), &calibrator);
        // The process's peak only ever grows: the first visit's is the
        // workload's, later ones add what the allocator kept.
        peak_rss_mb.get_or_insert(visit.peak_rss_mb);
        records.push(record_of(&visit.window));
        // From here to the next visit is outside every timed interval.
        attempted += visit.attempted;
        failed += failed_given_frame0(&inputs, &visit);
        last = Some((inputs, pool, visit));
    }
    let (inputs, pool, visit) = last.expect("a run makes at least one visit");
    let hashes = Hashes {
        inputs: inputs.partials.iter().map(fnv).collect(),
        frame0: visit.frame0.as_ref().map_or(0, fnv),
    };
    if !args.trace {
        return RunResult {
            attempted,
            failed,
            metrics: end_to_end(&records, peak_rss_mb.unwrap_or_default()),
            hashes,
            visits: records,
        };
    }
    let mut values = Values::default();
    let frame_ms = visit.window.raw_frame_ms();
    let cpu = visit.window.cpu();
    values.set("host.slowdown", records[0].slowdown);

    // The traced pass: same inputs, same pool, a fresh machine with the
    // program's observer attached.
    let fresh_before = pool.fresh_checkouts();
    let observer = Arc::new(Observer::new());
    let traced = compose::run_visit(
        &inputs,
        &pool,
        Limit::Frames(TRACED_FRAMES),
        Some(Arc::clone(&observer)),
        &calibrator,
        Instant::now(),
        crate::calib::QUIET_S,
    );
    attempted += traced.attempted;
    failed += traced.failed;
    let frames = traced.window.frames() as f64;

    let mut log = SpanLog::new(observer.origin());
    let mut busy_imbalance = Vec::with_capacity(frames as usize);
    let mut rank_frames: Vec<Vec<usize>> = vec![Vec::new(); inputs.p()];
    for k in 0..frames as usize {
        let calls: Vec<_> = traced.rank_calls.iter().map(|calls| calls[k]).collect();
        let start = calls.iter().map(|c| c.0).min().expect("P > 0");
        let end = calls.iter().map(|c| c.1).max().expect("P > 0");
        let frame_id = compose::WARMUP_FRAMES + k as u64;
        let frame = log.push(
            "frame",
            DRIVER_TRACK,
            frame_id,
            None,
            log.at(start),
            log.at(end),
        );
        let mut durations = Vec::with_capacity(calls.len());
        for (rank, (from, to)) in calls.into_iter().enumerate() {
            let (from, to) = (log.at(from), log.at(to));
            durations.push(to - from);
            rank_frames[rank].push(log.push(
                "core.compose_plan",
                rank as u32,
                frame_id,
                Some(frame),
                from,
                to,
            ));
        }
        busy_imbalance.push(imbalance(&durations));
    }
    let own_spans = log.spans().len();
    for timeline in observer.timelines() {
        log.adopt_timeline(&timeline, &rank_frames[timeline.rank]);
    }
    let phase_spans = log.spans().len() - own_spans;
    let call_s: f64 = log.durations("core.compose_plan").iter().sum();
    let own = log.self_time_by_name();
    let phase_ms = |phase: &str| {
        own.get(&format!("core.phase.{phase}"))
            .copied()
            .unwrap_or(0.0)
            * 1e3
            / (inputs.p() as f64 * frames)
    };
    let covered_s: f64 = own
        .iter()
        .filter(|(name, _)| name.starts_with("core.phase."))
        .map(|(_, s)| s)
        .sum();
    write_trace(&log, args);

    values.set("frames_timed", frame_ms.len() as f64);
    trace_metrics(&mut values, &[&visit.frame0_trace]);
    let class_p95 = match spec.transport {
        TransportKind::InProc => "core.frame_ms_p95",
        TransportKind::TcpLoopback => "net.frame_ms_p95",
    };
    tail_metrics(&mut values, class_p95, &frame_ms);
    values.set("net.sys_cpu_share", cpu.sys_s / cpu.total_s());
    values.set("core.rank_busy_imbalance", median(&busy_imbalance));
    values.set("core.allocs_per_frame", traced.allocations as f64 / frames);
    values.set(
        "core.pool_fresh_checkouts",
        (pool.fresh_checkouts() - fresh_before) as f64,
    );
    values.set("core.phase.encode_ms", phase_ms("encode"));
    values.set("core.phase.send_ms", phase_ms("send"));
    values.set("core.phase.wait_ms", phase_ms("wait"));
    values.set("core.phase.decode_ms", phase_ms("decode"));
    values.set("core.phase.over_ms", phase_ms("over"));
    values.set("core.phase.flush_ms", phase_ms("flush"));
    values.set("core.phase.coverage", covered_s / call_s);
    values.set(
        "obs.overhead_ratio",
        median(&traced.window.raw_frame_ms()) / median(&frame_ms),
    );
    values.set("obs.spans_per_frame", phase_spans as f64 / frames);
    fixed_probes(&mut values, spec.transport, args.seed);
    own_input_probes(
        &mut values,
        spec.method,
        spec.codec,
        &inputs.plan,
        &inputs.partials,
    );

    // The one P = 32 number: same method, codec and content class, replayed.
    let large = ComposeInputs::build(
        &ComposeSpec {
            transport: TransportKind::InProc,
            ..*spec
        },
        P_LARGE,
        args.seed,
    );
    let composed = compose::compose_once(
        &large.plan,
        large.partials.clone(),
        &large.config,
        &ScratchPool::new(),
    );
    attempted += 1;
    match composed {
        Ok((frame, trace)) if large.frame_is_correct(&frame) => values.set(
            "core.virtual_compose_ms_p32",
            compose::virtual_compose_ms(&compose::replay_sp2(&trace)),
        ),
        _ => {
            eprintln!("the P = {P_LARGE} frame is wrong");
            failed += 1;
        }
    }

    traced_result(attempted, failed, values, hashes, records)
}

// ---- pipeline workloads -----------------------------------------------------

fn pipeline_visit(
    kind: Kind,
    inputs: &PipelineInputs,
    limit: Limit,
    count: bool,
    calibrator: &mut Calibrator,
    start: Start,
) -> PipelineVisit {
    match kind {
        Kind::PipelineStream => pipeline::stream_visit(inputs, limit, count, calibrator, start),
        _ => pipeline::serial_visit(inputs, limit, count, calibrator, start),
    }
}

/// Calibrate, then start the clock of a visit's set-up.
fn start_now(calibrator: &mut Calibrator) -> Start {
    let kernel_s = calibrator.sample();
    Start {
        since: Instant::now(),
        kernel_s,
    }
}

fn traces_of(frames: &[Delivered]) -> Vec<&Trace> {
    frames.iter().map(|(_, trace)| trace).collect()
}

fn run_pipeline(args: &RunArgs, mut calibrator: Calibrator) -> RunResult {
    let process_start = Instant::now();
    let kind = args.workload.kind;
    let streamed = kind == Kind::PipelineStream;
    let (visits, seconds) = windows(args);
    let mut attempted = 0;
    let mut failed = 0;
    let mut records = Vec::with_capacity(visits);
    let mut first: Option<PipelineVisit> = None;
    for _ in 0..visits {
        let start = start_now(&mut calibrator);
        let inputs = PipelineInputs::build(args.seed);
        let limit = Limit::Seconds(seconds);
        let visit = pipeline_visit(kind, &inputs, limit, false, &mut calibrator, start);
        records.push(record_of(&visit.window));
        // From here to the next visit is outside every timed interval.
        attempted += visit.attempted;
        failed += visit.failed;
        match &first {
            // Every visit must deliver the first visit's frames again.
            Some(first) => failed += pipeline::count_differing(&visit.distinct, &first.distinct),
            None => first = Some(visit),
        }
    }
    let visit = first.expect("a run makes at least one visit");
    let inputs = PipelineInputs::build(args.seed);

    // The other arm runs one orbit: the streamed frames must equal the
    // serial ones bit for bit, and the traced run reports the ratio of the
    // two arms' throughput.
    let one_orbit = Limit::Frames(inputs.cameras.len() as u64);
    let other = (streamed || args.trace).then(|| {
        let other_kind = if streamed {
            Kind::PipelineSerial
        } else {
            Kind::PipelineStream
        };
        let start = start_now(&mut calibrator);
        let other = pipeline_visit(
            other_kind,
            &inputs,
            one_orbit,
            false,
            &mut calibrator,
            start,
        );
        attempted += other.attempted;
        failed += other.failed;
        other
    });
    let (serial, stream) = match (&other, streamed) {
        (Some(other), true) => (other, Some(&visit)),
        (Some(other), false) => (&visit, Some(other)),
        (None, _) => (&visit, None),
    };
    let serial_frames = &serial.distinct;
    failed += pipeline::verify_frames(&inputs, serial_frames);
    if let Some(stream) = stream {
        failed += pipeline::count_differing(&stream.distinct, serial_frames);
    }
    let base = &inputs.base;
    let hashes = Hashes {
        inputs: vec![inputs.fingerprint()],
        frame0: visit.distinct.first().map_or(0, |(frame, _)| fnv(frame)),
    };
    if !args.trace {
        return RunResult {
            attempted,
            failed,
            // The process's peak only ever grows: the first visit's is the
            // workload's, later ones add what the allocator kept.
            metrics: end_to_end(&records, visit.peak_rss_mb),
            hashes,
            visits: records,
        };
    }
    let mut values = Values::default();
    let frame_ms = visit.window.raw_frame_ms();
    let cpu = visit.window.cpu();
    values.set("host.slowdown", records[0].slowdown);

    // The traced pass: one orbit of the workload's own path with a span per
    // delivered frame and allocations counted, then the staged replica of
    // every camera's frame, layer by layer.
    let start = start_now(&mut calibrator);
    let traced = pipeline_visit(kind, &inputs, one_orbit, true, &mut calibrator, start);
    attempted += traced.attempted;
    failed += traced.failed;
    let mut log = SpanLog::new(process_start);
    for (k, &(from, to)) in traced.calls.iter().enumerate() {
        log.push(
            "frame",
            DRIVER_TRACK,
            k as u64,
            None,
            log.at(from),
            log.at(to),
        );
    }
    let mismatches = pipeline::staged_replica(&inputs, serial_frames, &mut log);
    attempted += inputs.cameras.len() as u64;
    failed += mismatches;
    write_trace(&log, args);

    // Allocations are counted over the timed samples, an orbit's first
    // frame excluded when streamed.
    let frames = traced.calls.len() as f64;
    let ms = |name: &str| median(&log.durations(name)) * 1e3;
    let slabs = log.durations("render.slab");
    let slab_imbalance: Vec<f64> = slabs.chunks(P).map(imbalance).collect();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // The frame as the replica accounts for it: every stage once, the P
    // slab renders packed ideally onto the cores.
    let staged_ms = ms("render.generate")
        + ms("render.partition")
        + ms("core.plan")
        + ms("pvr.permute")
        + median(
            &slabs
                .chunks(P)
                .map(|s| s.iter().sum::<f64>())
                .collect::<Vec<_>>(),
        ) * 1e3
            / P.min(cores) as f64
        + ms("core.compose")
        + ms("render.warp");
    let stream = stream.expect("a traced run always measures the other arm");

    values.set("frames_timed", frame_ms.len() as f64);
    trace_metrics(&mut values, &traces_of(&visit.distinct));
    tail_metrics(&mut values, "pvr.frame_ms_p95", &frame_ms);
    values.set("net.sys_cpu_share", cpu.sys_s / cpu.total_s());
    values.set("core.allocs_per_frame", traced.allocations as f64 / frames);
    values.set("core.pool_fresh_checkouts", traced.fresh_checkouts as f64);
    values.set(
        "obs.overhead_ratio",
        median(&traced.window.raw_frame_ms()) / median(&frame_ms),
    );
    values.set(
        "obs.spans_per_frame",
        log.spans().len() as f64 / inputs.cameras.len() as f64,
    );
    values.set("render.partition_ms", ms("render.partition"));
    values.set("render.slab_ms", ms("render.slab"));
    values.set("render.slab_imbalance", median(&slab_imbalance));
    values.set("render.warp_ms", ms("render.warp"));
    values.set("pvr.permute_us", ms("pvr.permute") * 1e3);
    values.set(
        "pvr.glue_ms",
        median(&serial.window.raw_frame_ms()) - staged_ms,
    );
    values.set("pvr.first_frame_ms", median(&stream.first_frame_ms));
    values.set(
        "pvr.stream_speedup",
        stream.window.raw().frames_per_s / serial.window.raw().frames_per_s,
    );
    fixed_probes(&mut values, TransportKind::InProc, args.seed);

    // The workload's own composition inputs: camera 0's slab renders, in
    // depth order.
    let camera = inputs.cameras[0];
    let scene = prepare_scene(
        P,
        base.dataset,
        base.volume_size,
        base.seed,
        &camera,
        &base.render,
    )
    .expect("the scene of a frame that already rendered");
    let (width, height) = scene.factorization.inter_size;
    let plan = base
        .method
        .plan(P, width, height)
        .expect("the method supports P");
    own_input_probes(&mut values, base.method, base.codec, &plan, &scene.partials);

    // The one P = 32 number: the same frame on 32 ranks, replayed.
    attempted += 1;
    let large = render_frame_pooled(
        P_LARGE,
        &inputs.config_for(camera),
        FaultPlan::none(),
        &ScratchPool::new(),
    );
    match large {
        Ok(out) if out.frame.approx_eq(&serial_frames[0].0, 1e-3) => values.set(
            "core.virtual_compose_ms_p32",
            compose::virtual_compose_ms(&compose::replay_sp2(&out.trace)),
        ),
        _ => {
            eprintln!("the P = {P_LARGE} frame is wrong");
            failed += 1;
        }
    }

    traced_result(attempted, failed, values, hashes, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undeclared_and_duplicate_metrics_are_refused() {
        let mut values = Values::default();
        values.set("render.warp_ms", 1.5);
        let out = values.per_layer();
        assert_eq!(out.len(), PER_LAYER.len());
        assert!(out.contains(&("render.warp_ms", 1.5, "ms")));
        // Layers off the path read 0.
        assert!(out.contains(&("net.pingpong_us", 0.0, "us")));

        let undeclared = std::panic::catch_unwind(|| {
            let mut values = Values::default();
            values.set("render.wrap_ms", 1.0);
            values.per_layer()
        });
        assert!(undeclared.is_err());
        let missing = std::panic::catch_unwind(|| Values::default().end_to_end());
        assert!(missing.is_err());
    }

    #[test]
    fn a_corrupted_frame_counts_in_failed_frame_share() {
        let partials = content::dense_partials(4, 16, 16, 1);
        let plan = content::RT_2N.plan(4, 16, 16).unwrap();
        let inputs = ComposeInputs {
            partials,
            plan,
            config: Default::default(),
        };
        let mut visit = compose::run_visit(
            &inputs,
            &ScratchPool::new(),
            Limit::Frames(5),
            None,
            &Mutex::new(Calibrator::default()),
            Instant::now(),
            1e-3,
        );
        let share = |visit: &ComposeVisit| {
            RunResult {
                attempted: visit.attempted,
                failed: failed_given_frame0(&inputs, visit),
                metrics: Vec::new(),
                hashes: Hashes::default(),
                visits: Vec::new(),
            }
            .failed_frame_share()
        };
        assert_eq!(share(&visit), 0.0);
        let frame = visit.frame0.as_mut().unwrap();
        let px = *frame.get(2, 3);
        frame.set(2, 3, rt_imaging::GrayAlpha8::new(px.v ^ 0x80, px.a));
        assert_eq!(share(&visit), 1.0);
        visit.frame0 = None;
        assert_eq!(share(&visit), 1.0);
    }

    #[test]
    fn a_runs_metrics_are_the_centre_of_its_visits() {
        // Each visit ran on a box twice as slow as quiet.
        let visit = |setup_s, frame_ms_p50, frames_per_s, cpu_ms_per_frame| VisitRecord {
            frames: 100,
            slowdown: 2.0,
            quiet: Sample {
                setup_s,
                frame_ms_p50,
                frames_per_s,
                cpu_ms_per_frame,
            },
            raw: Sample {
                setup_s: 2.0 * setup_s,
                frame_ms_p50: 2.0 * frame_ms_p50,
                frames_per_s: frames_per_s / 2.0,
                cpu_ms_per_frame: 2.0 * cpu_ms_per_frame,
            },
        };
        let visits = vec![
            visit(0.3, 2.0, 400.0, 5.0),
            visit(0.1, 1.0, 1000.0, 1.0),
            visit(0.2, 3.0, 333.0, 10.0),
        ];
        let metrics = end_to_end(&visits, 12.5);
        let get = |name| metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("frame_ms_p50"), 2.0);
        assert_eq!(get("frames_per_s"), 400.0);
        assert_eq!(get("cpu_ms_per_frame"), 5.0);
        assert_eq!(get("peak_rss_mb"), 12.5);

        // The run file carries the same visits as the clock read them.
        let args = RunArgs {
            workload: &crate::catalog::WORKLOADS[0],
            seed: 7,
            seconds: 10.0,
            trace: false,
            out_dir: PathBuf::new(),
        };
        let result = RunResult {
            attempted: 300,
            failed: 0,
            metrics,
            hashes: Hashes {
                inputs: vec![1, 2],
                frame0: 0xabc,
            },
            visits,
        };
        let file = run_file(&args, &result);
        let raw = file.get("raw").unwrap();
        assert_eq!(crate::json::number(raw, "frame_ms_p50"), Some(4.0));
        assert_eq!(crate::json::number(raw, "frames_per_s"), Some(200.0));
        assert_eq!(crate::json::array(&file, "visits").unwrap().len(), 3);
        assert_eq!(
            crate::json::string(&file, "frame0_fnv"),
            Some("0x0000000000000abc")
        );
    }

    #[test]
    fn a_run_makes_as_many_visits_as_its_seconds_hold() {
        let args = |seconds, trace| RunArgs {
            workload: &crate::catalog::WORKLOADS[0],
            seed: 7,
            seconds,
            trace,
            out_dir: PathBuf::new(),
        };
        assert_eq!(
            windows(&args(crate::catalog::RUN_SECONDS as f64, false)),
            (8, 1.25)
        );
        assert_eq!(windows(&args(1.25, false)), (1, 1.25));
        assert_eq!(windows(&args(0.2, false)), (1, 0.2));
        assert_eq!(windows(&args(10.0, true)), (1, 4.0));
    }

    #[test]
    fn the_last_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 120,
            failed: 3,
            metrics: vec![("frame_ms_p50", 1.25, "ms")],
            hashes: Hashes::default(),
            visits: Vec::new(),
        };
        assert_eq!(result.failed_frame_share(), 0.025);
        let line = crate::json::render_compact(&result.to_value());
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":120,"failed":3,"metrics":{"frame_ms_p50":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
