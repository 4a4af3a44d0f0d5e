//! The multi-process determinism gate: every method of the bench line-up
//! × {raw, rle, trle} composed by eight real `netrank` OS processes over
//! loopback TCP must be indistinguishable from the in-process run of the
//! same cell — the same event trace bit for bit, the same virtual-clock
//! `RankStats`, the same root frame — and its replayed timelines must
//! merge into a valid Chrome trace. The wall clock is the only observable
//! a transport may change.

use rt_bench::chaosnet::{outcome, run_scenario, scenarios, Job};
use rt_bench::netgrid::frame_hash;
use rt_comm::{replay_timeline, CostModel, Trace};
use rt_compress::CodecKind;
use rt_core::method::{CompositionMethod, Method};
use rt_core::{ComposeConfig, Run};
use rt_imaging::synth::band_partials;
use rt_obs::{validate_chrome_trace, ChromeTrace};
use std::path::Path;

const P: usize = 8;
const FRAME: usize = 128;

/// Spawn `P` `netrank` processes on `job`, rendezvous them into a mesh and
/// collect the full trace plus the root's frame hash.
fn tcp_cell(job: &Job) -> (Trace, Option<u64>) {
    let clean = &scenarios(P, job.frame, job.seed)[job.scenario];
    let run = run_scenario(clean, P, job, Path::new(env!("CARGO_BIN_EXE_netrank")))
        .unwrap_or_else(|e| panic!("distributed run failed: {e}"));
    let mut trace = Trace::default();
    let mut frame_hash = None;
    for result in run.results {
        let result = result.expect("every rank reports");
        assert_eq!(result.outcome, outcome::OK, "{}", result.detail);
        frame_hash = frame_hash.or(result.frame_hash);
        trace.ranks.push(result.trace);
    }
    (trace, frame_hash)
}

#[test]
fn every_lineup_cell_over_real_processes_reconciles_with_the_in_process_run() {
    let partials = band_partials(P, FRAME, FRAME);
    let cost = CostModel::PAPER_EXAMPLE;
    for (method_index, method) in Method::bench_lineup().into_iter().enumerate() {
        let plan = method.plan(P, FRAME, FRAME).expect("lineup plans at P = 8");
        plan.verify().expect("lineup plan verifies");
        for codec in [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle] {
            let label = format!("{}/{}/p={P}", method.name(), codec.name());
            let config = ComposeConfig::default().with_codec(codec);
            let (outputs, reference) = Run::new(&plan, &config).execute(partials.clone());
            let reference_hash = outputs
                .iter()
                .find_map(|r| r.as_ref().expect("in-process rank").frame.as_ref())
                .map(frame_hash);
            assert!(reference_hash.is_some(), "{label}: no root frame");

            let (trace, hash) = tcp_cell(&Job {
                method_index,
                codec,
                frame: FRAME,
                scenario: 0,
                seed: 42,
            });
            assert_eq!(trace, reference, "{label}: event traces diverged");
            assert_eq!(hash, reference_hash, "{label}: root frames diverged");
            let (tcp_report, timelines) = replay_timeline(&trace, &cost).expect("tcp replay");
            let (ref_report, _) = replay_timeline(&reference, &cost).expect("reference replay");
            assert_eq!(
                tcp_report.ranks, ref_report.ranks,
                "{label}: virtual-clock RankStats diverged"
            );

            let mut chrome = ChromeTrace::new();
            chrome.meta_process(0, &format!("tcp-loopback {label}"));
            for timeline in &timelines {
                chrome.add_timeline(0, timeline);
            }
            let events = validate_chrome_trace(&chrome.into_value())
                .unwrap_or_else(|e| panic!("{label}: merged timeline is not a Chrome trace: {e}"));
            assert!(events > 0, "{label}: empty Chrome trace");
        }
    }
}
