//! The autotuner against executed runs.
//!
//! Two anchors keep the predicted rankings honest, both on the contract
//! "predicted ranking ≡ ranking of the executed, replayed runs" (how the
//! cost model itself relates to a wall clock is a separate question):
//!
//! * at P = 32 the tuner's pick must be the replayed winner of the bench
//!   line-up, every method of it actually executed, and
//! * at P = 64 the tuner's hierarchical pick must beat its best flat
//!   candidate *when both are actually executed* and priced by the
//!   virtual-clock replay — the same validation the `scale` bench runs
//!   at P ∈ {256, 512}.

use rt_comm::CostModel;
use rt_core::{choose, sweep, ComposeConfig, Method, Run, TuneOptions};
use rt_imaging::synth::band_partials;

#[test]
fn tuner_pick_matches_the_measured_p32_winner() {
    let (p, frame) = (32usize, 512usize);
    // In-process "wire" is a memcpy, so bandwidth dominates and startup is
    // a function call.
    let cost = CostModel::new(1e-6, 1e-9, 1e-10);

    // Execute the whole bench line-up on the banded partials (rank `r`
    // paints rows `r·h/P..`, so 1/P of every partial is content) and price
    // each recorded run on the virtual clock.
    let config = ComposeConfig::default();
    let mut measured: Vec<(String, f64)> = Method::bench_lineup()
        .iter()
        .map(|method| {
            let plan = method.plan(p, frame, frame).unwrap();
            let (_, trace) = Run::new(&plan, &config).execute(band_partials(p, frame, frame));
            (
                method.name(),
                rt_comm::replay(&trace, &cost).unwrap().makespan,
            )
        })
        .collect();
    measured.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (winner, _) = &measured[0];

    let opts = TuneOptions::default().with_content_fraction(1.0 / p as f64);
    let pick = choose(p, frame * frame, &cost, &opts).unwrap();
    assert_eq!(
        pick.method.name(),
        *winner,
        "tuner picked {:?}, replay measured {measured:?}",
        pick.method
    );

    // The ranked report covers the whole bench line-up, direct-send
    // included.
    let cands = sweep(p, frame * frame, &cost, &opts).unwrap();
    assert!(cands.iter().any(|c| matches!(c.method, Method::DirectSend)));
    assert!(cands
        .iter()
        .any(|c| matches!(c.method, Method::TileOwner { .. })));
}

#[test]
fn hier_pick_beats_best_flat_on_the_replayed_virtual_clock_at_p64() {
    let (p, w) = (64usize, 16usize);
    let image_len = w * p;
    // Receive overhead makes the flat P−1-message root gather the
    // bottleneck — the regime the hierarchical plan exists for.
    let cost = CostModel::new(4e-5, 2.9e-8, 1e-9).with_tr(4e-5);
    let opts = TuneOptions::default().with_max_group(16);

    let cands = sweep(p, image_len, &cost, &opts).unwrap();
    let pick = &cands[0];
    let flat = cands
        .iter()
        .find(|c| !matches!(c.method, Method::Hier { .. }))
        .unwrap();
    assert!(
        matches!(pick.method, Method::Hier { .. }),
        "pick {:?}",
        pick.method
    );

    // Execute both picks for real and price the recorded runs with the
    // virtual clock: the predicted ordering must hold up.
    let config = ComposeConfig::default();
    let mut replayed = Vec::new();
    for method in [&pick.method, &flat.method] {
        let plan = method.plan(p, w, p).unwrap();
        let (_, trace) = Run::new(&plan, &config).execute(band_partials(p, w, p));
        let report = rt_comm::replay(&trace, &cost).unwrap();
        replayed.push(report.makespan);
    }
    assert!(
        replayed[0] < replayed[1],
        "hier {:?} replayed {} ≥ flat {:?} replayed {}",
        pick.method,
        replayed[0],
        flat.method,
        replayed[1]
    );
    // The static prediction of an executed schedule is exact for the raw
    // codec — the hierarchical pick is one schedule like the flat one.
    for (cand, replayed) in [pick, flat].iter().zip(&replayed) {
        assert_eq!(
            cand.cost.makespan_with_gather, *replayed,
            "{:?}: predicted vs replayed",
            cand.method
        );
    }
}

/// No `(k, intra)` pair the tuner's candidate list yields fails to build —
/// ragged last groups, prime group counts and odd `p` included — so the
/// sweep's skip-on-`UnsupportedShape` drops nothing today, and an
/// unbuildable pair would cost one candidate, not the sweep.
#[test]
fn every_machine_size_sweeps_with_all_its_hier_candidates() {
    let opts = TuneOptions::default().with_max_group(16);
    for p in 2..=70usize {
        let cands = sweep(p, 1024, &CostModel::SP2, &opts).unwrap();
        let hier = cands
            .iter()
            .filter(|c| matches!(c.method, Method::Hier { .. }))
            .count();
        let group_sizes = [2, 4, 8, 16].iter().filter(|&&k| k <= p / 2).count();
        assert_eq!(hier, 3 * group_sizes, "p={p}");
    }
}
