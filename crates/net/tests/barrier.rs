//! `RankCtx::barrier` is the one barrier in the workspace: a message round
//! written above the `Transport` trait. Every test here runs one body over
//! both meshes — in-process channels and loopback TCP — because the round
//! must behave, and be traced, the same whatever carries its frames. (What
//! only sockets can do to a round, a peer's link dying under it, is pinned
//! beside the link deadlines in `tcp.rs`'s unit tests.)

use rt_comm::{tag, CommError, Event, FaultPlan, Multicomputer, RankCtx, Trace};
use rt_net::TcpMulticomputer;
use std::time::{Duration, Instant};

/// Run `body` on `machine()` over in-process channels, then over loopback
/// TCP.
fn on_both_meshes<T: Send>(
    machine: impl Fn() -> Multicomputer,
    body: impl Fn(&mut RankCtx) -> T + Send + Sync,
) -> [(Vec<T>, Trace); 2] {
    [
        machine().run(&body),
        TcpMulticomputer::from(machine()).run(&body),
    ]
}

#[test]
fn data_sent_before_barriers_is_received_after_them_in_per_sender_order() {
    // Everyone floods rank 0 right before three rounds, so rank 0 collects
    // its arrivals from between data frames it must queue, not surface.
    const BURST: u8 = 20;
    let runs = on_both_meshes(
        || Multicomputer::new(4),
        |ctx| {
            let me = ctx.rank();
            if me != 0 {
                for i in 0..BURST {
                    ctx.send(0, 42, vec![me as u8, i]).unwrap();
                }
            }
            for _ in 0..3 {
                ctx.barrier().unwrap();
            }
            if me != 0 {
                return Vec::new();
            }
            (1..ctx.size())
                .map(|from| {
                    let burst = (0..BURST).map(|_| ctx.recv(from, 42).unwrap().to_vec());
                    burst.collect::<Vec<_>>()
                })
                .collect()
        },
    );
    for (results, _) in runs {
        assert_eq!(results[0].len(), 3);
        for (from, got) in (1u8..).zip(&results[0]) {
            let sent: Vec<Vec<u8>> = (0..BURST).map(|i| vec![from, i]).collect();
            assert_eq!(got, &sent, "rank {from}'s burst");
        }
    }
}

#[test]
fn a_barrier_is_one_event_and_consumes_no_sequence_number() {
    // A ring pass, `barriers` rounds, another ring pass.
    let ring = |barriers: usize| {
        move |ctx: &mut RankCtx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for tag in [1, 2] {
                ctx.send(next, tag, vec![tag as u8]).unwrap();
                ctx.recv(prev, tag).unwrap();
                if tag == 1 {
                    for _ in 0..barriers {
                        ctx.barrier().unwrap();
                    }
                }
            }
        }
    };
    let [(_, inproc), (_, tcp)] = on_both_meshes(|| Multicomputer::new(4), ring(2));
    assert_eq!(inproc, tcp, "the round is traced alike on both meshes");
    // Take the `Barrier` events out and the trace is the barrier-free run's:
    // no send or receive was added, and the sends after the rounds carry
    // the sequence numbers they would carry without them.
    let (_, plain) = Multicomputer::new(4).run(ring(0));
    let mut stripped = inproc.clone();
    for (rank, events) in stripped.ranks.iter_mut().enumerate() {
        let generations: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Barrier { generation } => Some(*generation),
                _ => None,
            })
            .collect();
        assert_eq!(generations, vec![0, 1], "rank {rank}");
        events.retain(|e| !matches!(e, Event::Barrier { .. }));
    }
    assert_eq!(stripped, plain);
}

#[test]
fn fault_injection_does_not_touch_the_round() {
    // 48 round frames under a 30 % drop rate: were they inside fault
    // injection, some would be dropped and retransmitted.
    let faulty =
        || Multicomputer::new(4).with_faults(FaultPlan::none().with_seed(42).drop_rate(0.3));
    let runs = on_both_meshes(faulty, |ctx| (0..8).try_for_each(|_| ctx.barrier()));
    for (results, trace) in runs {
        assert_eq!(results, vec![Ok(()); 4]);
        assert_eq!(trace.retransmit_count(), 0);
        assert_eq!(trace.message_count(), 0);
    }
}

#[test]
fn a_round_missing_a_rank_times_out_naming_the_peer_and_the_tag() {
    // Rank 2 never arrives. Rank 0 has rank 1's arrival and waits on rank
    // 2's; rank 1 waits on rank 0's release — each for one receive
    // deadline, whatever the number of peers it collects from.
    let deadline = Duration::from_millis(400);
    let runs = on_both_meshes(
        || Multicomputer::new(3).with_timeout(deadline),
        |ctx| {
            let started = Instant::now();
            (ctx.rank() != 2).then(|| (ctx.barrier().unwrap_err(), started.elapsed()))
        },
    );
    for (results, _) in runs {
        for (rank, silent) in [(0, 2), (1, 0)] {
            let (err, waited) = results[rank].clone().expect("ranks 0 and 1 barrier");
            match err {
                CommError::Timeout { from, tag, .. } => {
                    assert_eq!((from, tag), (silent, tag::barrier(0)), "rank {rank}");
                }
                other => panic!("rank {rank}: expected a timeout, got {other}"),
            }
            let text = err.to_string();
            assert!(text.contains(&format!("rank {silent}")), "{text}");
            assert!(text.contains(&format!("{:#x}", tag::barrier(0))), "{text}");
            assert!(waited < 2 * deadline, "rank {rank} waited {waited:?}");
        }
    }
}
