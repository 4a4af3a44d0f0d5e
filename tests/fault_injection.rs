//! Failure injection through the full composition stack: a lost or
//! corrupted message must surface as a typed error from the affected rank,
//! never as a silently wrong frame.

use rotate_tiling::comm::{CommError, FaultPlan, Multicomputer};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::rotate::RtVariant;
use rotate_tiling::core::{ComposePlan, CoreError, Method, Run};
use rotate_tiling::imaging::{Image, Provenance};
use std::time::Duration;

const RT_2N2: Method = Method::RotateTiling {
    variant: RtVariant::TwoN,
    blocks: 2,
};

fn partials(p: usize, len: usize) -> Vec<Image<Provenance>> {
    (0..p)
        .map(|r| Image::from_fn(len, 1, |_, _| Provenance::rank(r as u16)))
        .collect()
}

fn run_with_faults(faults: FaultPlan) -> (Vec<Result<(), CoreError>>, rotate_tiling::comm::Trace) {
    let p = 4;
    let schedule = RT_2N2.build(p, 256).unwrap();
    let config = ComposeConfig {
        codec: CodecKind::Raw,
        root: 0,
        ..Default::default()
    }
    .with_timeout(Duration::from_millis(300));
    let (results, trace) = Run::new(&ComposePlan::Schedule(schedule), &config)
        .faults(faults)
        .execute(partials(p, 256));
    (results.into_iter().map(|r| r.map(|_| ())).collect(), trace)
}

#[test]
fn clean_run_succeeds() {
    let (results, trace) = run_with_faults(FaultPlan::none());
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(trace.retransmit_count(), 0);
}

#[test]
fn dropped_message_is_recovered_by_retransmission() {
    // Find a real transfer of step 0 and drop its first attempt: the sender
    // retransmits and the composition completes as if nothing happened.
    let schedule = RT_2N2.build(4, 256).unwrap();
    let t = schedule.steps[0].transfers[0];
    let (results, trace) = run_with_faults(FaultPlan::none().drop_message(t.src, t.dst, 0));
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    assert!(
        trace.retransmit_count() > 0,
        "the loss must show up as a retransmission"
    );
}

#[test]
fn severed_channel_surfaces_a_typed_error() {
    // A permanently dead link exhausts the retry budget: the sender reports
    // DeliveryFailed and downstream ranks starve with a Timeout — never a
    // silently wrong frame.
    let schedule = RT_2N2.build(4, 256).unwrap();
    let t = schedule.steps[0].transfers[0];
    let (results, _) = run_with_faults(FaultPlan::none().sever_channel(t.src, t.dst));
    let failures: Vec<&CoreError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(!failures.is_empty(), "someone must notice the dead link");
    assert!(
        failures.iter().all(|e| matches!(
            e,
            CoreError::Comm(
                CommError::DeliveryFailed { .. }
                    | CommError::Timeout { .. }
                    | CommError::Disconnected { .. }
            )
        )),
        "{failures:?}"
    );
    assert!(
        failures
            .iter()
            .any(|e| matches!(e, CoreError::Comm(CommError::DeliveryFailed { .. }))),
        "{failures:?}"
    );
}

#[test]
fn all_ranks_crashed_is_a_typed_error() {
    // With every rank dead there is no survivor to degrade onto and no
    // gather root: repair must refuse with the dedicated error, not hand
    // back an empty plan the caller would silently execute.
    let schedule = RT_2N2.build(4, 256).unwrap();
    let crashed: std::collections::BTreeMap<usize, usize> = (0..4).map(|r| (r, 0)).collect();
    let err = rotate_tiling::core::repair(&schedule, &crashed).unwrap_err();
    assert_eq!(err, CoreError::AllRanksFailed { p: 4 });
}

#[test]
fn sole_survivor_is_elected_root() {
    // Three of four ranks (including the configured root) crash at step 0;
    // the lone survivor must take over the gather root and finish with a
    // degraded frame rather than hang or error.
    let p = 4;
    let schedule = RT_2N2.build(p, 256).unwrap();
    let config = ComposeConfig {
        codec: CodecKind::Raw,
        root: 0,
        ..Default::default()
    }
    .resilient(true)
    .with_timeout(Duration::from_millis(300));
    let faults = FaultPlan::none()
        .crash_rank_at_step(0, 0)
        .crash_rank_at_step(1, 0)
        .crash_rank_at_step(2, 0);
    let (results, _) = Run::new(&ComposePlan::Schedule(schedule), &config)
        .faults(faults)
        .execute(partials(p, 256));
    let out = results[3].as_ref().expect("survivor must complete");
    let info = out.degraded.as_ref().expect("run must be flagged degraded");
    assert_eq!(info.root_reassigned_to, Some(3));
    let frame = out.frame.as_ref().expect("survivor assembles the frame");
    assert_eq!(frame.pixels().len(), 256);
}

#[test]
fn corrupted_tag_is_rejected_not_misapplied() {
    let schedule = RT_2N2.build(4, 256).unwrap();
    let t = schedule.steps[0].transfers[0];
    let (results, _) = run_with_faults(FaultPlan::none().corrupt_tag(t.src, t.dst, 0, 0xDEAD));
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(CoreError::Comm(CommError::TagMismatch { .. })))),
        "{results:?}"
    );
}

#[test]
fn truncated_payload_fails_decode() {
    // Deliver a malformed body by swapping the codec expectation: encode
    // raw on the sender, decode as TRLE on the receiver, via a hand-rolled
    // mini exchange.
    let mc = Multicomputer::new(2).with_timeout(Duration::from_millis(300));
    let (results, _) = mc.run(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, vec![1u8, 2, 3]).unwrap(); // garbage TRLE body
            Ok(Vec::new())
        } else {
            let bytes = ctx.recv(0, 7).unwrap();
            let codec = CodecKind::Trle.build::<Provenance>();
            codec
                .decode(&bytes, 64)
                .map_err(rotate_tiling::core::CoreError::from)
        }
    });
    assert!(
        matches!(results[1], Err(CoreError::Codec(_))),
        "{:?}",
        results[1]
    );
}
