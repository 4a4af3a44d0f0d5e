//! Worker entry point for the TCP chaos soak: one OS process per rank,
//! spawned by `rt-bench chaos --transport tcp` (or the kill-recovery
//! integration test).
//!
//! The worker reconstructs its entire fault schedule from `--scenario N
//! --seed S --frame F` plus its rank — [`rt_bench::chaosnet::scenarios`]
//! is a pure function, so the launcher and every worker agree on the plan
//! without shipping it. It then joins the mesh with the scenario's
//! [`rt_net::TcpOptions`] (reconnect budget, heartbeat cadence,
//! death-step hints), wraps the transport in a [`ChaosTransport`], and
//! runs the same resilient composition the in-process reference runs.
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

use rt_bench::chaosnet::{outcome, scenarios, soak_method, ChaosResult, VICTIM_EXIT_CODE};
use rt_bench::harness::{argv, parse_flags};
use rt_bench::netgrid::frame_hash;
use rt_comm::comm::{RankCtx, RankOptions};
use rt_compress::CodecKind;
use rt_core::exec::{ComposeConfig, Scratch};
use rt_core::method::CompositionMethod;
use rt_core::{compose_plan, ComposePlan};
use rt_imaging::synth::band_partials;
use rt_net::{ChaosTransport, WorkerSession, ENV_WORLD};

struct Cli {
    scenario: usize,
    seed: u64,
    frame: usize,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        scenario: 0,
        seed: 42,
        frame: 64,
    };
    parse_flags(
        &argv(),
        "worker for `rt-bench chaos --transport tcp`; not meant to be run by hand.\n\
         flags: --scenario N --seed N --frame N\n\
         env:   RT_NET_RENDEZVOUS, RT_NET_RANK, RT_NET_WORLD (set by the launcher)",
        |f| match f.name {
            "--scenario" => cli.scenario = f.parse(),
            "--seed" => cli.seed = f.parse(),
            "--frame" => cli.frame = f.parse(),
            _ => f.unknown(),
        },
    );
    cli
}

fn main() {
    let cli = parse_cli();
    // The scenario (and with it the mesh options) must exist before the
    // session, so the world size comes straight from the environment.
    let p: usize = std::env::var(ENV_WORLD)
        .unwrap_or_else(|_| panic!("{ENV_WORLD} not set — spawn me through the soak launcher"))
        .parse()
        .expect("world size parses");
    let matrix = scenarios(p, cli.frame, cli.seed);
    let sc = matrix.get(cli.scenario).unwrap_or_else(|| {
        panic!(
            "scenario {} outside the matrix of {}",
            cli.scenario,
            matrix.len()
        )
    });

    let mut session = WorkerSession::from_env_with(sc.tcp_options(p))
        .unwrap_or_else(|e| panic!("joining the mesh: {e}"));
    let rank = session.rank;
    let transport = ChaosTransport::new(
        session
            .take_transport()
            .expect("fresh session owns its transport"),
        sc.net[rank].clone(),
    );

    let plan = ComposePlan::Schedule(
        soak_method()
            .build(p, cli.frame * cli.frame)
            .unwrap_or_else(|e| panic!("soak schedule: {e}")),
    );
    let partial = band_partials(p, cli.frame, cli.frame).swap_remove(rank);
    let config = ComposeConfig::default()
        .with_codec(CodecKind::Raw)
        .resilient(!sc.faults.is_none());
    let opts = RankOptions {
        timeout: Some(sc.recv_timeout),
        faults: sc.faults.clone(),
        recorder: None,
    };
    let mut ctx = RankCtx::over_transport(Box::new(transport), opts);
    let composed = compose_plan(&mut ctx, &plan, partial, &config, &mut Scratch::new());
    let (events, mut transport, _) = ctx.into_parts();

    // Bit-exact scenarios: quiesce before teardown. A fault on the *last*
    // frame of a link (e.g. a truncated gather contribution) leaves its
    // repair in flight when compose returns; the barrier's control frames
    // ride the same sent-log/replay path, so it cannot complete until
    // every link is restored and drained. Transport-level, so the trace
    // stays bit-comparable. Skipped for the failure buckets, where dead
    // ranks would turn the barrier itself into a typed failure.
    let quiesce = if matches!(sc.expect, rt_bench::chaosnet::Expectation::BitExact) {
        transport.barrier()
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
        trace: events,
    };
    match composed {
        Ok(_) if quiesce.is_err() => {
            result.outcome = outcome::ERROR.into();
            result.detail = quiesce.expect_err("checked").to_string();
        }
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
    drop(transport);
}
