//! Real-process crash recovery, end to end: spawn four `netrank`
//! worker processes over loopback TCP, have one exit mid-composition
//! without announcing (its death broadcast is swallowed at the socket
//! layer), and require the survivors to detect the death through the
//! link layer alone — heartbeat silence, failed reconnect, synthesized
//! death notification — and then produce the *same exact-degraded
//! output* as the in-process `crash_rank_at_step` run of the identical
//! plan: per-survivor event traces, the root frame hash, and the
//! lost-contribution/lost-pixel accounting, all bit for bit.
//!
//! This is the distributed twin of the in-process resilience tests: same
//! schedule, same partials, same `FaultPlan` — only the failure is now a
//! genuine OS process disappearing under real sockets.

use rt_bench::chaosnet::{gate, reference_run, run_scenario, scenarios, Expectation, Job};
use std::path::Path;

const P: usize = 4;
const FRAME: usize = 64;
const SEED: u64 = 42;

fn run_kill(name: &str) {
    let worker = Path::new(env!("CARGO_BIN_EXE_netrank"));
    let matrix = scenarios(P, FRAME, SEED);
    let sc = matrix
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario {name} missing from the matrix"));
    assert_eq!(sc.expect, Expectation::Degraded);
    let victim = sc.victim.expect("kill scenario has a victim");
    assert_eq!(victim, P - 1);

    let job = Job::soak(sc.id, FRAME, SEED);
    let reference = reference_run(sc, P, &job);
    assert!(
        !reference.lost_contributions.is_empty(),
        "the in-process crash run must lose the victim's contribution"
    );
    let run =
        run_scenario(sc, P, &job, worker).unwrap_or_else(|e| panic!("distributed run failed: {e}"));
    assert!(
        run.results[victim].is_none(),
        "the killed rank must not report a result"
    );
    let verdict = gate(sc, &run, Some(&reference)).unwrap_or_else(|e| panic!("gate failed: {e}"));
    assert!(
        verdict.contains("exact-degraded"),
        "unexpected verdict: {verdict}"
    );
}

#[test]
fn killed_worker_at_step_zero_degrades_exactly_like_the_in_process_crash() {
    run_kill("kill-early");
}

#[test]
fn killed_worker_mid_schedule_degrades_exactly_like_the_in_process_crash() {
    run_kill("kill-mid");
}
