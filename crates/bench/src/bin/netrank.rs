//! Worker entry point for multi-process TCP composition: one OS process
//! per rank, spawned through [`rt_net::Launcher`] by
//! `tests/tcp_reconcile.rs`, `tests/kill_recovery.rs` and
//! `chaos --transport tcp`.
//!
//! The worker reads its coordinates from the environment and its cell — a
//! [`rt_bench::chaosnet::Job`] — from its command line, and reconstructs
//! the job's whole fault schedule from `--scenario N --seed S --frame F`
//! plus its rank: [`rt_bench::chaosnet::scenarios`] is a pure function, so
//! the launcher and every worker agree on the plan without shipping it
//! (no `--scenario` is the clean control scenario). It joins the mesh with
//! the scenario's [`rt_net::TcpOptions`], wraps the transport in a
//! [`ChaosTransport`], builds a [`RankCtx`] over it exactly as the
//! in-process harness builds one over its channel mesh, and runs the cell
//! once — so its event trace is directly comparable (bit-exact, in fact)
//! to an in-process run of the same cell under the same [`rt_comm::FaultPlan`].
//!
//! The ending is the trichotomy, reported as a
//! [`rt_bench::chaosnet::ChaosResult`] blob:
//!
//! * clean completion → `"ok"` with the frame hash and event trace;
//! * a planned process death → no blob at all: the victim exits with
//!   [`VICTIM_EXIT_CODE`] the moment its (swallowed) announcement is out,
//!   so the survivors' link layers must detect the death themselves;
//! * a typed error → `"error"` with the error's display — the process
//!   still exits 0, because *reporting* a typed failure is success here.

use rt_bench::chaosnet::{outcome, scenarios, ChaosResult, Expectation, Job, VICTIM_EXIT_CODE};
use rt_bench::harness::{argv, parse_flags};
use rt_bench::netgrid::frame_hash;
use rt_comm::comm::{RankCtx, RankOptions};
use rt_core::exec::{ComposeConfig, Scratch};
use rt_core::method::CompositionMethod;
use rt_core::tile::compose_plan;
use rt_imaging::synth::band_partials;
use rt_net::{ChaosTransport, WorkerSession, ENV_WORLD};

fn parse_job() -> Job {
    let mut job = Job {
        method_index: 0,
        codec: rt_compress::CodecKind::Raw,
        frame: 128,
        scenario: 0,
        seed: 42,
    };
    parse_flags(
        &argv(),
        "worker of the multi-process TCP gates; not meant to be run by hand.\n\
         flags: --method-index N --codec raw|rle|trle --frame N [--scenario N --seed N]\n\
         env:   RT_NET_RENDEZVOUS, RT_NET_RANK, RT_NET_WORLD (set by the launcher)",
        |f| match f.name {
            "--method-index" => job.method_index = f.parse(),
            "--codec" => job.codec = f.parse(),
            "--frame" => job.frame = f.parse(),
            "--scenario" => job.scenario = f.parse(),
            "--seed" => job.seed = f.parse(),
            _ => f.unknown(),
        },
    );
    job
}

fn main() {
    let job = parse_job();
    // The scenario (and with it the mesh options) must exist before the
    // session, so the world size comes straight from the environment.
    let p: usize = std::env::var(ENV_WORLD)
        .unwrap_or_else(|_| {
            panic!("{ENV_WORLD} not set — spawn me through a launcher (see --help)")
        })
        .parse()
        .expect("world size parses");
    let matrix = scenarios(p, job.frame, job.seed);
    let sc = matrix.get(job.scenario).unwrap_or_else(|| {
        panic!(
            "scenario {} outside the matrix of {}",
            job.scenario,
            matrix.len()
        )
    });

    let mut session = WorkerSession::from_env_with(sc.tcp_options())
        .unwrap_or_else(|e| panic!("joining the mesh: {e}"));
    let rank = session.rank;
    let transport = ChaosTransport::new(
        session
            .take_transport()
            .expect("fresh session owns its transport"),
        sc.net[rank].clone(),
    );

    let method = job.method();
    let plan = method
        .plan(p, job.frame, job.frame)
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    plan.verify()
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    let partial = band_partials(p, job.frame, job.frame).swap_remove(rank);
    let config = ComposeConfig::default()
        .with_codec(job.codec)
        .resilient(!sc.faults.is_none());
    let opts = RankOptions {
        timeout: Some(sc.recv_timeout),
        faults: sc.faults.clone(),
        recorder: None,
    };
    let mut ctx = RankCtx::over_transport(Box::new(transport), opts);
    let composed = compose_plan(&mut ctx, &plan, partial, &config, &mut Scratch::new());
    // The reported trace ends here, so it stays bit-comparable with the
    // in-process run, which has no closing barrier.
    let trace = ctx.take_events();

    // Bit-exact scenarios: quiesce before teardown, so no rank closes its
    // sockets while a peer still composes. A fault on the *last* frame of a
    // link (e.g. a truncated gather contribution) leaves its repair in
    // flight when compose returns; the barrier's frames ride the same
    // sent-log/replay path, so the round cannot complete until every link
    // is restored and drained. Skipped for the failure buckets, where dead
    // ranks would turn the barrier itself into a typed failure.
    let quiesce = if sc.expect == Expectation::BitExact {
        ctx.barrier()
    } else {
        Ok(())
    };

    let mut result = ChaosResult {
        rank,
        outcome: outcome::OK.into(),
        detail: String::new(),
        frame_hash: None,
        lost_contributions: Vec::new(),
        lost_pixels: 0,
        trace,
    };
    match composed.and_then(|out| quiesce.map(|()| out).map_err(Into::into)) {
        Ok(out) => {
            if sc.faults.crash_step_of(rank).is_some() {
                // The planned victim: its announcement was swallowed by
                // the chaos plan, so the peers only find out when this
                // process — streams and all — disappears mid-run.
                std::process::exit(VICTIM_EXIT_CODE);
            }
            result.frame_hash = out.frame.as_ref().map(frame_hash);
            if let Some(info) = out.degraded {
                result.outcome = outcome::DEGRADED.into();
                result.lost_contributions = info.lost_contributions;
                result.lost_pixels = info.lost_pixels;
            }
        }
        Err(e) => {
            result.outcome = outcome::ERROR.into();
            result.detail = e.to_string();
        }
    }

    let blob = serde_json::to_string(&result).expect("chaos result serializes");
    session
        .send_result(blob.as_bytes())
        .unwrap_or_else(|e| panic!("rank {rank} failed to report its result: {e}"));
    // Keep the mesh alive until the result is out, then let Drop shut the
    // fabric down in an orderly way (buffered frames still flush).
    drop(ctx);
}
