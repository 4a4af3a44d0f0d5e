//! Stress tests for the multicomputer substrate: randomized communication
//! patterns at moderate scale, exercising buffering, FIFO ordering, barrier
//! generations and replay determinism together.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_comm::{replay, ComputeKind, CostModel, Multicomputer};

/// Every rank sends one message to every other rank in a seeded random
/// order each round, receives in rank order, and barriers between rounds.
/// The payload encodes (src, round) and must arrive intact.
#[test]
fn randomized_all_to_all_rounds() {
    let p = 9;
    let rounds = 5u64;
    let mc = Multicomputer::new(p);
    let (results, trace) = mc.run(|ctx| {
        let me = ctx.rank();
        let mut checked = 0usize;
        for round in 0..rounds {
            // Per-rank seeded order, deterministic but different per rank
            // and round.
            let mut order: Vec<usize> = (0..ctx.size()).filter(|&r| r != me).collect();
            let mut rng = StdRng::seed_from_u64(round * 1000 + me as u64);
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &dst in &order {
                ctx.send(dst, round, vec![me as u8, round as u8, dst as u8])
                    .unwrap();
            }
            for src in 0..ctx.size() {
                if src == me {
                    continue;
                }
                let payload = ctx.recv(src, round).unwrap();
                assert_eq!(payload, vec![src as u8, round as u8, me as u8]);
                checked += 1;
            }
            ctx.compute(ComputeKind::Over, 10);
            ctx.barrier().unwrap();
        }
        checked
    });
    for checked in results {
        assert_eq!(checked, (p - 1) * rounds as usize);
    }
    assert_eq!(trace.message_count(), (p * (p - 1)) as u64 * rounds);

    // The trace replays deterministically and the barrier keeps rounds in
    // lockstep: every rank's finish time equals the makespan.
    let report = replay(&trace, &CostModel::new(1e-3, 1e-6, 1e-6)).unwrap();
    for r in &report.ranks {
        assert!((r.finish - report.makespan).abs() < 1e-12);
    }
}

/// Many interleaved tags between a single pair must resolve in FIFO order.
#[test]
fn deep_fifo_queues() {
    let n = 500u64;
    let mc = Multicomputer::new(2);
    let (results, _) = mc.run(|ctx| {
        if ctx.rank() == 0 {
            for i in 0..n {
                ctx.send(1, i, i.to_le_bytes().to_vec()).unwrap();
            }
            0
        } else {
            let mut ok = 0;
            for i in 0..n {
                let payload = ctx.recv(0, i).unwrap();
                assert_eq!(
                    u64::from_le_bytes(payload.as_slice().try_into().unwrap()),
                    i
                );
                ok += 1;
            }
            ok
        }
    });
    assert_eq!(results[1], n);
}
