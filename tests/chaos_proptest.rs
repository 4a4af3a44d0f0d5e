//! Chaos property test: for *randomly drawn* fault plans and machine
//! shapes, every composition run must end in one of exactly three ways —
//!
//! 1. **bit-exact**: all ranks succeed, the frame is the complete
//!    depth-ordered composite, and nothing is flagged degraded (message
//!    faults absorbed by retransmission);
//! 2. **gracefully degraded**: a planned crash is reported by every
//!    survivor with a [`DegradedInfo`] that *exactly* names the crashed
//!    rank and step;
//! 3. **typed error**: an unrecoverable fault surfaces as a `CoreError`
//!    (e.g. a retry budget exhausted under extreme loss).
//!
//! Never a silently wrong frame, never a panic, never a hang — each run is
//! executed under a watchdog thread that fails the test on timeout.

use proptest::prelude::*;
use rotate_tiling::comm::FaultPlan;
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, ComposeOutput};
use rotate_tiling::core::rotate::{self, RtVariant};
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::core::{CoreError, Method, Schedule};
use rotate_tiling::imaging::{Image, Provenance};
use std::time::Duration;

const IMAGE_LEN: usize = 240;
const WATCHDOG: Duration = Duration::from_secs(60);

/// Method `which` compiled for `p` ranks; rotate-tiling at any `(p, b)`.
fn schedule_of(which: usize, p: usize, b: usize) -> Schedule {
    match which {
        0 if p.is_power_of_two() => Method::BinarySwap.build(p, IMAGE_LEN),
        0 | 1 => Method::ParallelPipelined.build(p, IMAGE_LEN),
        2 => Method::DirectSend.build(p, IMAGE_LEN),
        _ => rotate::schedule(p, IMAGE_LEN, RtVariant::TwoN, b),
    }
    .unwrap()
}

fn partials(p: usize) -> Vec<Image<Provenance>> {
    (0..p)
        .map(|r| Image::from_fn(IMAGE_LEN, 1, |_, _| Provenance::rank(r as u16)))
        .collect()
}

/// Run one faulty composition on a watchdog thread: a hang (or a rank
/// panic that kills the runner) fails the test instead of wedging it.
fn run_guarded(
    schedule: Schedule,
    codec: CodecKind,
    faults: FaultPlan,
) -> Vec<Result<ComposeOutput<Provenance>, CoreError>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let config = ComposeConfig::default()
            .with_codec(codec)
            .with_timeout(Duration::from_millis(500));
        let p = schedule.p;
        let (results, _) = Run::new(&ComposePlan::Schedule(schedule.clone()), &config)
            .faults(faults)
            .execute(partials(p));
        let _ = tx.send(results);
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(results) => {
            let _ = handle.join();
            results
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("composition hung past the {WATCHDOG:?} watchdog")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("composition panicked: {:?}", handle.join().err())
        }
    }
}

proptest! {
    // Cases default to 64 and are bounded in CI via `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig::default())]

    // Message faults only: retransmission either recovers bit-exact or an
    // exhausted retry budget surfaces as a typed error.
    #[test]
    fn message_faults_never_corrupt_the_frame(
        p in 2usize..=8,
        b in 1usize..=4,
        which in 0usize..4,
        seed in 0u64..1_000_000,
        drop_pct in 0u32..=12,
        corrupt_pct in 0u32..=6,
    ) {
        let schedule = schedule_of(which, p, b);
        let faults = FaultPlan::none()
            .with_seed(seed)
            .drop_rate(drop_pct as f64 / 100.0)
            .corrupt_rate(corrupt_pct as f64 / 100.0);
        let results = run_guarded(schedule, CodecKind::Raw, faults);

        if results.iter().all(|r| r.is_ok()) {
            // Outcome 1: every pixel of the gathered frame carries the
            // complete depth range and no rank reports degradation.
            let mut frames = 0;
            for r in &results {
                let out = r.as_ref().unwrap();
                prop_assert!(out.degraded.is_none(), "no crash was planned: {:?}", out.degraded);
                if let Some(frame) = &out.frame {
                    frames += 1;
                    for px in frame.pixels() {
                        prop_assert_eq!(*px, Provenance::complete(p as u16));
                    }
                }
            }
            prop_assert_eq!(frames, 1, "exactly the root gathers the frame");
        }
        // Outcome 3 (some rank errored) needs no further checks: the error
        // is typed by construction and the watchdog proved no hang.
    }

    // Planned crashes: every completed rank must agree on exactly which
    // rank died, and a deepest-rank crash leaves the survivors' exact
    // contiguous composite.
    #[test]
    fn crashes_degrade_exactly_or_error(
        p in 3usize..=8,
        b in 1usize..=4,
        which in 0usize..4,
        seed in 0u64..1_000_000,
        crash_rank in 0usize..8,
        crash_step in 0usize..16,
        drop_pct in 0u32..=5,
    ) {
        let schedule = schedule_of(which, p, b);
        let crash_rank = crash_rank % p;
        let crash_step = crash_step % (schedule.steps.len() + 1);
        let faults = FaultPlan::none()
            .with_seed(seed)
            .drop_rate(drop_pct as f64 / 100.0)
            .crash_rank_at_step(crash_rank, crash_step);
        let results = run_guarded(schedule, CodecKind::Raw, faults);

        if results.iter().all(|r| r.is_ok()) {
            let mut frames = 0;
            for (rank, r) in results.iter().enumerate() {
                let out = r.as_ref().unwrap();
                let info = out.degraded.as_ref();
                let info = match info {
                    Some(i) => i,
                    None => {
                        prop_assert!(false, "rank {rank} did not report the crash");
                        unreachable!()
                    }
                };
                // Outcome 2: the report names exactly the planned failure.
                prop_assert_eq!(
                    &info.failed,
                    &vec![(crash_rank, crash_step)],
                    "rank {}", rank
                );
                if let Some(frame) = &out.frame {
                    frames += 1;
                    prop_assert!(rank != crash_rank, "the dead rank cannot gather");
                    if crash_rank == p - 1 {
                        // Survivors are depth-contiguous, so every pixel is
                        // exact: complete(p) where the dead rank shipped its
                        // contribution before crashing, complete(p-1) where
                        // that data was lost — and the lost-pixel accounting
                        // matches the frame precisely.
                        let mut missing = 0usize;
                        for px in frame.pixels() {
                            prop_assert_eq!(px.lo, 0, "pixel {:?}", px);
                            prop_assert!(
                                px.hi == p as u16 || px.hi == (p - 1) as u16,
                                "pixel {:?} is not an exact survivor composite", px
                            );
                            if px.hi == (p - 1) as u16 {
                                missing += 1;
                            }
                        }
                        prop_assert_eq!(missing, info.lost_pixels);
                    }
                }
            }
            prop_assert_eq!(frames, 1, "exactly one survivor gathers the frame");
        }
    }

    // Determinism: the same fault plan replays to the same per-rank
    // outcomes and the same trace.
    #[test]
    fn faulty_runs_are_deterministic(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..=10,
    ) {
        let schedule = rotate::schedule(6, IMAGE_LEN, RtVariant::TwoN, 2).unwrap();
        let faults = || FaultPlan::none().with_seed(seed).drop_rate(drop_pct as f64 / 100.0);
        let config = ComposeConfig::default().with_timeout(Duration::from_millis(500));
        let (r1, t1) = Run::new(&ComposePlan::Schedule(schedule.clone()), &config).faults(faults()).execute(partials(6));
        let (r2, t2) = Run::new(&ComposePlan::Schedule(schedule.clone()), &config).faults(faults()).execute(partials(6));
        prop_assert_eq!(t1.retransmit_count(), t2.retransmit_count());
        for (a, b) in r1.iter().zip(r2.iter()) {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(&x.frame, &y.frame);
                    prop_assert_eq!(&x.degraded, &y.degraded);
                }
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                _ => prop_assert!(false, "outcome diverged between identical runs"),
            }
        }
    }
}
