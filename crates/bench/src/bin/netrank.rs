//! Worker entry point for multi-process TCP composition: one OS process
//! per rank.
//!
//! Spawned by `rt-bench perf --transport tcp` (or any launcher using
//! [`rt_net::Launcher`]): reads its coordinates from the environment,
//! joins the mesh through the rendezvous, runs the benchmark cell encoded
//! on its command line ([`rt_bench::netgrid::NetJob`]), and reports a
//! [`rt_bench::netgrid::WorkerResult`] back over the control stream.
//!
//! Each repetition builds a fresh [`RankCtx`] over the long-lived TCP
//! transport — exactly how the in-process harness builds a fresh
//! multicomputer per call — so the event trace of any single repetition is
//! directly comparable (bit-exact, in fact) to an in-process run of the
//! same cell. Transport-level barriers between repetitions keep the ranks
//! aligned without leaving any mark in the trace.

use rt_bench::netgrid::{frame_hash, NetJob, WorkerResult};
use rt_comm::comm::{RankCtx, RankOptions};
use rt_comm::Transport;
use rt_core::exec::{ComposeConfig, Scratch};
use rt_core::method::CompositionMethod;
use rt_core::tile::compose_plan;
use rt_imaging::synth::band_partials;
use rt_net::WorkerSession;
use std::time::Instant;

fn parse_job() -> NetJob {
    let mut job = NetJob {
        method_index: 0,
        codec: rt_compress::CodecKind::Raw,
        frame: 128,
        reps: 1,
        warmup: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--method-index" => {
                job.method_index = value("--method-index").parse().expect("bad --method-index")
            }
            "--codec" => job.codec = value("--codec").parse().unwrap_or_else(|e| panic!("{e}")),
            "--frame" => job.frame = value("--frame").parse().expect("bad --frame"),
            "--reps" => job.reps = value("--reps").parse().expect("bad --reps"),
            "--warmup" => job.warmup = value("--warmup").parse().expect("bad --warmup"),
            "--help" | "-h" => {
                eprintln!(
                    "worker for `rt-bench perf --transport tcp`; not meant to be run by hand.\n\
                     flags: --method-index N --codec raw|rle|trle --frame N --reps N --warmup N\n\
                     env:   RT_NET_RENDEZVOUS, RT_NET_RANK, RT_NET_WORLD (set by the launcher)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(job.reps > 0, "--reps must be positive");
    job
}

fn main() {
    let job = parse_job();
    let mut session = WorkerSession::from_env()
        .unwrap_or_else(|e| panic!("netrank must be spawned by a launcher (see --help): {e}"));
    let rank = session.rank;
    let p = session.world;
    let mut transport: Box<dyn Transport> = Box::new(
        session
            .take_transport()
            .expect("fresh session owns its transport"),
    );

    let method = job.method();
    let plan = method
        .plan(p, job.frame, job.frame)
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    plan.verify()
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    let partial = band_partials(p, job.frame, job.frame).swap_remove(rank);
    let config = ComposeConfig::default().with_codec(job.codec);

    let mut scratch = Scratch::default();
    let mut result = WorkerResult {
        rank,
        trace: Vec::new(),
        pooled_ms: Vec::new(),
        frame_hash: None,
    };
    for rep in 0..job.warmup + job.reps {
        let local = partial.clone();
        let t0 = Instant::now();
        let mut ctx = RankCtx::over_transport(transport, RankOptions::default());
        let out = compose_plan(&mut ctx, &plan, local, &config, &mut scratch)
            .unwrap_or_else(|e| panic!("rank {rank} compose failed: {e}"));
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        let (events, tr, _) = ctx.into_parts();
        transport = tr;
        // Align ranks between repetitions without touching the trace.
        transport
            .barrier()
            .unwrap_or_else(|e| panic!("rank {rank} inter-rep barrier failed: {e}"));

        if rep == job.warmup {
            // First timed rep carries the comparison payload: the trace the
            // launcher reconciles, and the root's frame fingerprint.
            result.trace = events;
            result.frame_hash = out.frame.as_ref().map(frame_hash);
        }
        if rep >= job.warmup {
            result.pooled_ms.push(dt);
        }
    }

    let blob = serde_json::to_string(&result).expect("worker result serializes");
    session
        .send_result(blob.as_bytes())
        .unwrap_or_else(|e| panic!("rank {rank} failed to report its result: {e}"));
}
