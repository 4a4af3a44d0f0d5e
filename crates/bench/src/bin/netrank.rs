//! Worker entry point for multi-process TCP composition: one OS process
//! per rank.
//!
//! Spawned through [`rt_net::Launcher`] (`tests/tcp_reconcile.rs`): reads
//! its coordinates from the environment, joins the mesh through the
//! rendezvous, runs the cell encoded on its command line
//! ([`rt_bench::netgrid::NetJob`]) once, and reports a
//! [`rt_bench::netgrid::WorkerResult`] back over the control stream.
//!
//! The rank builds a [`RankCtx`] over the TCP transport exactly as the
//! in-process harness builds one over its channel mesh, so its event trace
//! is directly comparable (bit-exact, in fact) to an in-process run of the
//! same cell.

use rt_bench::harness::{argv, parse_flags};
use rt_bench::netgrid::{frame_hash, NetJob, WorkerResult};
use rt_comm::comm::{RankCtx, RankOptions};
use rt_core::exec::{ComposeConfig, Scratch};
use rt_core::method::CompositionMethod;
use rt_core::tile::compose_plan;
use rt_imaging::synth::band_partials;
use rt_net::WorkerSession;

fn parse_job() -> NetJob {
    let mut job = NetJob {
        method_index: 0,
        codec: rt_compress::CodecKind::Raw,
        frame: 128,
    };
    parse_flags(
        &argv(),
        "worker of `tests/tcp_reconcile.rs`; not meant to be run by hand.\n\
         flags: --method-index N --codec raw|rle|trle --frame N\n\
         env:   RT_NET_RENDEZVOUS, RT_NET_RANK, RT_NET_WORLD (set by the launcher)",
        |f| match f.name {
            "--method-index" => job.method_index = f.parse(),
            "--codec" => job.codec = f.parse(),
            "--frame" => job.frame = f.parse(),
            _ => f.unknown(),
        },
    );
    job
}

fn main() {
    let job = parse_job();
    let mut session = WorkerSession::from_env()
        .unwrap_or_else(|e| panic!("netrank must be spawned by a launcher (see --help): {e}"));
    let rank = session.rank;
    let p = session.world;
    let transport = session
        .take_transport()
        .expect("fresh session owns its transport");

    let method = job.method();
    let plan = method
        .plan(p, job.frame, job.frame)
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    plan.verify()
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    let partial = band_partials(p, job.frame, job.frame).swap_remove(rank);
    let config = ComposeConfig::default().with_codec(job.codec);

    let mut ctx = RankCtx::over_transport(Box::new(transport), RankOptions::default());
    let out = compose_plan(&mut ctx, &plan, partial, &config, &mut Scratch::default())
        .unwrap_or_else(|e| panic!("rank {rank} compose failed: {e}"));
    let (trace, mut transport, _) = ctx.into_parts();
    // No rank tears its sockets down while a peer still composes. The
    // barrier is transport-level, so it leaves no mark in the trace.
    transport
        .barrier()
        .unwrap_or_else(|e| panic!("rank {rank} closing barrier failed: {e}"));

    let result = WorkerResult {
        rank,
        trace,
        frame_hash: out.frame.as_ref().map(frame_hash),
    };
    let blob = serde_json::to_string(&result).expect("worker result serializes");
    session
        .send_result(blob.as_bytes())
        .unwrap_or_else(|e| panic!("rank {rank} failed to report its result: {e}"));
}
