//! Wall-clock perf harness for the compositing executor.
//!
//! Unlike the figure binaries (virtual-clock replay), this measures *real*
//! elapsed time of the pooled zero-copy executor over the bench method
//! lineup (the Figure 6 methods plus tile-ownership,
//! [`Method::bench_lineup`]) × codec × machine size grid — on one or both
//! communication backends. (Until PR 12 it also timed a per-transfer
//! allocation baseline; that arm was retired with the path it ran, see
//! EXPERIMENTS.md E5.)
//!
//! * `--transport inproc` (default): the threaded multicomputer.
//! * `--transport tcp`: one OS process per rank (`netrank` workers spawned
//!   through the `rt-net` rendezvous), composing over loopback TCP. Every
//!   TCP cell is **reconciled** against an in-process run of the same
//!   configuration: the event traces must be bit-identical, the
//!   virtual-clock `RankStats` must price identically, and the root frames
//!   must hash identically — the determinism claim of the transport layer,
//!   gated on every run. The reconciled timelines of the last TCP cell are
//!   exported as a Chrome trace (`--trace-out`).
//!
//! Emits `BENCH_compose.json` (schema `bench-compose/v3`; every row names
//! its transport) and prints an aligned table. `--smoke` shrinks the grid
//! to a one-rep 128×128 P=8 pass for CI.

use rt_bench::harness::{parse_list, print_table, quantiles, Quantiles};
use rt_bench::netgrid::{frame_hash, NetJob, WorkerResult};
use rt_comm::{replay_timeline, CostModel, Trace};
use rt_compress::CodecKind;
use rt_core::exec::{ComposeConfig, ScratchPool};
use rt_core::method::{CompositionMethod, Method};
use rt_core::{ComposePlan, Run};
use rt_imaging::pixel::GrayAlpha8;
use rt_imaging::synth::band_partials;
use rt_net::{process::read_blob, Launcher};
use rt_obs::{validate_chrome_trace, ChromeTrace};
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransportArg {
    InProc,
    Tcp,
}

fn transport_label(t: TransportArg) -> &'static str {
    match t {
        TransportArg::InProc => "inproc",
        TransportArg::Tcp => "tcp",
    }
}

#[derive(Debug, Clone)]
struct PerfArgs {
    reps: usize,
    warmup: usize,
    frame: usize,
    ps: Vec<usize>,
    codecs: Vec<CodecKind>,
    transports: Vec<TransportArg>,
    out: String,
    trace_out: String,
    smoke: bool,
}

impl Default for PerfArgs {
    fn default() -> Self {
        Self {
            reps: 5,
            warmup: 1,
            frame: 512,
            ps: vec![8, 32],
            codecs: vec![CodecKind::Raw, CodecKind::Rle, CodecKind::Trle],
            transports: vec![TransportArg::InProc],
            out: "BENCH_compose.json".into(),
            trace_out: "BENCH_tcp_trace.json".into(),
            smoke: false,
        }
    }
}

impl PerfArgs {
    fn parse() -> Self {
        let mut out = Self::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--reps" => out.reps = value("--reps").parse().expect("bad --reps"),
                "--warmup" => out.warmup = value("--warmup").parse().expect("bad --warmup"),
                "--frame" => out.frame = value("--frame").parse().expect("bad --frame"),
                "--p" => out.ps = parse_list("--p", &value("--p")),
                "--codecs" => out.codecs = parse_list("--codecs", &value("--codecs")),
                "--transport" => {
                    out.transports = value("--transport")
                        .split(',')
                        .map(|s| match s.trim() {
                            "inproc" => TransportArg::InProc,
                            "tcp" => TransportArg::Tcp,
                            other => panic!("unknown transport '{other}' (inproc|tcp)"),
                        })
                        .collect();
                }
                "--out" => out.out = value("--out"),
                "--trace-out" => out.trace_out = value("--trace-out"),
                "--smoke" => out.smoke = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --reps N  --warmup N  --frame N  --p 8,32  \
                         --codecs raw,rle,trle  --transport inproc,tcp  \
                         --out FILE  --trace-out FILE  --smoke"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        if out.smoke {
            // One-rep CI sanity cell: small frame, one machine size.
            out.reps = 1;
            out.warmup = 0;
            out.frame = 128;
            out.ps = vec![8];
        }
        assert!(out.reps > 0, "--reps must be positive");
        assert!(
            !out.transports.is_empty(),
            "--transport must name a backend"
        );
        out
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    method: String,
    codec: String,
    p: usize,
    /// Which backend carried the messages: `inproc` or `tcp`.
    transport: String,
    /// Wall-clock quantiles of the (pooled, fused) executor.
    pooled: Quantiles,
    bytes: u64,
    messages: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    frame: usize,
    pixel: String,
    reps: usize,
    warmup: usize,
    results: Vec<Row>,
}

/// Everything one cell measurement produces, on either backend.
struct CellOutcome {
    pooled_ms: Vec<f64>,
    trace: Trace,
    frame_hash: Option<u64>,
}

fn root_frame_hash(
    results: &[Result<rt_core::exec::ComposeOutput<GrayAlpha8>, rt_core::CoreError>],
) -> Option<u64> {
    results
        .iter()
        .find_map(|r| r.as_ref().unwrap().frame.as_ref())
        .map(frame_hash)
}

/// One in-process cell: every rep timed, trace + frame hash from the first
/// timed rep.
fn run_inproc_cell(
    plan: &ComposePlan,
    partials: &[rt_imaging::Image<GrayAlpha8>],
    codec: CodecKind,
    pool: &ScratchPool<GrayAlpha8>,
    reps: usize,
    warmup: usize,
) -> CellOutcome {
    let config = ComposeConfig::default().with_codec(codec);
    let mut outcome = CellOutcome {
        pooled_ms: Vec::with_capacity(reps),
        trace: Trace::default(),
        frame_hash: None,
    };
    for rep in 0..warmup + reps {
        // The clone happens outside the timed region.
        let inputs = partials.to_vec();
        let t0 = Instant::now();
        let (outputs, trace) = Run::new(plan, &config).pool(pool).execute(inputs);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        if rep == warmup {
            outcome.frame_hash = root_frame_hash(&outputs);
            outcome.trace = trace;
        }
        if rep >= warmup {
            outcome.pooled_ms.push(dt);
        }
    }
    outcome
}

/// The sibling `netrank` binary (same target directory as this one).
fn netrank_path() -> std::path::PathBuf {
    let mut path = std::env::current_exe().expect("own executable path");
    path.set_file_name("netrank");
    assert!(
        path.exists(),
        "worker binary {} not built — build the rt-bench bins first",
        path.display()
    );
    path
}

/// One TCP cell: spawn `p` `netrank` processes, rendezvous them into a
/// mesh, collect per-rank results. Per-rep cell time is the slowest rank's
/// local time (completion is gated on the slowest rank, as on a real
/// machine).
fn run_tcp_cell(job: NetJob, p: usize) -> CellOutcome {
    let launcher = Launcher::bind().expect("bind rendezvous listener");
    let mut children = Vec::with_capacity(p);
    for rank in 0..p {
        let mut cmd = std::process::Command::new(netrank_path());
        cmd.args(job.to_args());
        launcher
            .configure(&mut cmd, rank, p)
            .expect("stamp worker environment");
        children.push(cmd.spawn().expect("spawn netrank worker"));
    }
    let mut controls = launcher.rendezvous(p).expect("rendezvous workers");
    let mut results: Vec<WorkerResult> = controls
        .iter_mut()
        .map(|c| {
            let blob = read_blob(c).expect("worker result blob");
            let text = String::from_utf8(blob).expect("worker result is UTF-8");
            serde_json::from_str(&text).expect("worker result parses")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("reap worker");
        assert!(status.success(), "netrank worker exited with {status}");
    }
    results.sort_by_key(|r| r.rank);

    let reps = results[0].pooled_ms.len();
    let pooled_ms = (0..reps)
        .map(|i| {
            results
                .iter()
                .map(|r| r.pooled_ms[i])
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    let frame_hash = results.iter().find_map(|r| r.frame_hash);
    let mut trace = Trace::default();
    for r in results {
        trace.ranks.push(r.trace);
    }
    CellOutcome {
        pooled_ms,
        trace,
        frame_hash,
    }
}

/// The determinism gate: a TCP cell must be indistinguishable from the
/// in-process run of the same configuration — same event trace bit for
/// bit, same virtual-clock `RankStats`, same root frame. Returns the
/// reconciled report + timelines for the Chrome-trace export.
fn reconcile_cell(
    label: &str,
    tcp: &CellOutcome,
    reference: &CellOutcome,
) -> (rt_comm::ReplayReport, Vec<rt_obs::RankTimeline>) {
    assert_eq!(
        tcp.trace, reference.trace,
        "{label}: TCP and in-process event traces diverged"
    );
    assert_eq!(
        tcp.frame_hash, reference.frame_hash,
        "{label}: TCP and in-process frames diverged"
    );
    let (tcp_report, timelines) =
        replay_timeline(&tcp.trace, &CostModel::PAPER_EXAMPLE).expect("tcp trace replays");
    let (ref_report, _) =
        replay_timeline(&reference.trace, &CostModel::PAPER_EXAMPLE).expect("ref trace replays");
    assert_eq!(
        tcp_report.ranks, ref_report.ranks,
        "{label}: virtual-clock RankStats diverged across backends"
    );
    (tcp_report, timelines)
}

fn main() {
    let args = PerfArgs::parse();
    let mut rows = Vec::new();
    let mut reconciled_cells = 0usize;
    let mut last_tcp_timelines: Option<(String, Vec<rt_obs::RankTimeline>)> = None;
    for &p in &args.ps {
        let partials = band_partials(p, args.frame, args.frame);
        let pool = ScratchPool::<GrayAlpha8>::new();
        for (method_index, method) in Method::bench_lineup().into_iter().enumerate() {
            let plan = method
                .plan(p, args.frame, args.frame)
                .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
            plan.verify()
                .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
            for &codec in &args.codecs {
                // The in-process cell doubles as the reconciliation
                // reference whenever the TCP backend is in the grid.
                let needs_inproc = args.transports.contains(&TransportArg::InProc)
                    || args.transports.contains(&TransportArg::Tcp);
                let inproc = needs_inproc.then(|| {
                    run_inproc_cell(&plan, &partials, codec, &pool, args.reps, args.warmup)
                });
                for &transport in &args.transports {
                    let cell = match transport {
                        TransportArg::InProc => inproc.as_ref().expect("inproc cell ran"),
                        TransportArg::Tcp => {
                            let job = NetJob {
                                method_index,
                                codec,
                                frame: args.frame,
                                reps: args.reps,
                                warmup: args.warmup,
                            };
                            let tcp = run_tcp_cell(job, p);
                            let label = format!("{}/{}/p={p}", method.name(), codec.name());
                            let (_, timelines) =
                                reconcile_cell(&label, &tcp, inproc.as_ref().expect("reference"));
                            reconciled_cells += 1;
                            last_tcp_timelines = Some((label, timelines));
                            rows.push(build_row(&method, codec, p, transport, &tcp));
                            continue;
                        }
                    };
                    rows.push(build_row(&method, codec, p, transport, cell));
                }
            }
        }
    }

    if reconciled_cells > 0 {
        println!(
            "reconciled {reconciled_cells} tcp cell(s) against in-process runs \
             (traces, RankStats and frames bit-identical)"
        );
    }
    if let Some((label, timelines)) = &last_tcp_timelines {
        let mut chrome = ChromeTrace::new();
        chrome.meta_process(0, &format!("tcp-loopback {label}"));
        for tl in timelines {
            chrome.add_timeline(0, tl);
        }
        let json = chrome.to_json();
        let events = validate_chrome_trace(&chrome.into_value()).expect("chrome trace validates");
        std::fs::write(&args.trace_out, json).expect("write chrome trace");
        println!(
            "chrome trace of {label}: {events} events -> {}",
            args.trace_out
        );
    }

    let report = Report {
        schema: "bench-compose/v3".into(),
        frame: args.frame,
        pixel: "GrayAlpha8".into(),
        reps: args.reps,
        warmup: args.warmup,
        results: rows,
    };

    let table: Vec<Vec<String>> = report
        .results
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                r.codec.clone(),
                r.p.to_string(),
                r.transport.clone(),
                format!("{:.2}", r.pooled.p50_ms),
                format!("{:.2}", r.pooled.p95_ms),
            ]
        })
        .collect();
    print_table(
        &format!("wall-clock compose, {0}x{0}", report.frame),
        &["method", "codec", "p", "transport", "p50 ms", "p95 ms"],
        &table,
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, &json).expect("write BENCH_compose.json");
    // Round-trip through the file so CI's smoke run proves the artifact is
    // both present and valid JSON.
    let back = std::fs::read_to_string(&args.out).expect("re-read artifact");
    let parsed: Report = serde_json::from_str(&back).expect("artifact parses");
    assert_eq!(parsed.schema, "bench-compose/v3");
    let n = parsed.results.len();
    assert!(n > 0, "artifact has no result rows");
    println!("BENCH_compose.json OK ({n} rows -> {})", args.out);
}

fn build_row(
    method: &Method,
    codec: CodecKind,
    p: usize,
    transport: TransportArg,
    cell: &CellOutcome,
) -> Row {
    Row {
        method: method.name(),
        codec: codec.name().into(),
        p,
        transport: transport_label(transport).into(),
        pooled: quantiles(cell.pooled_ms.clone()),
        bytes: cell.trace.bytes_sent(),
        messages: cell.trace.message_count(),
    }
}
