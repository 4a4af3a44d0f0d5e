//! The autotuner against reality.
//!
//! Two anchors keep the predicted rankings honest:
//!
//! * the measured `BENCH_compose.json` winner at P = 32 (in-process, raw)
//!   must match the tuner's pick under the measured content fraction, and
//! * at P = 64 the tuner's hierarchical pick must beat its best flat
//!   candidate *when both are actually executed* and priced by the
//!   virtual-clock replay — the same validation the `scale` bench runs
//!   at P ∈ {256, 512}.

use rt_comm::CostModel;
use rt_core::{choose, sweep, ComposeConfig, CompositionMethod, Method, Run, TuneOptions};
use rt_imaging::synth::band_partials;
use serde_json::Value;

fn num(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        other => panic!("expected number, got {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

#[test]
fn tuner_pick_matches_the_measured_p32_winner() {
    // The bench renders ~40% content (sphere over a blank background),
    // in-process transport, raw codec. Its measured winner at P = 32.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compose.json");
    let doc = serde_json::parse_value_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let frame = num(doc.get("frame").unwrap()) as usize;
    let Value::Array(results) = doc.get("results").unwrap() else {
        panic!("results is not an array");
    };
    let mut measured: Vec<(String, f64)> = results
        .iter()
        .filter(|r| {
            num(r.get("p").unwrap()) as u64 == 32
                && text(r.get("transport").unwrap()) == "inproc"
                && text(r.get("codec").unwrap()) == "raw"
        })
        .map(|r| {
            (
                text(r.get("method").unwrap()).to_string(),
                num(r.get("pooled").unwrap().get("p50_ms").unwrap()),
            )
        })
        .collect();
    assert!(measured.len() >= 4, "bench file lost its P=32 cells");
    measured.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (winner, _) = &measured[0];

    // Price the same cell: in-process "wire" is a memcpy, so bandwidth
    // dominates and startup is a function-call; ~60% of each partial is
    // blank around the sphere.
    let cost = CostModel::new(1e-6, 1e-9, 1e-10);
    let opts = TuneOptions::default().with_content_fraction(0.6);
    let pick = choose(32, frame * frame, &cost, &opts).unwrap();
    assert_eq!(
        pick.method.name(),
        *winner,
        "tuner picked {:?}, bench measured {measured:?}",
        pick.method
    );

    // The ranked report covers the whole bench line-up, direct-send
    // included.
    let cands = sweep(32, frame * frame, &cost, &opts).unwrap();
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
    // The static prediction of the executed flat schedule is exact for
    // the raw codec; the hierarchical estimate is phase-summed, so it
    // may only *over*-state (no overlap credit) — never flatter.
    assert!(
        pick.cost.makespan_with_gather >= replayed[0] * 0.99,
        "hier estimate {} understates the replayed {}",
        pick.cost.makespan_with_gather,
        replayed[0]
    );
}
