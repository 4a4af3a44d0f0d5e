//! Method auto-tuning: for every machine size, statically pick the best
//! composition method and parameters, then confirm one prediction against
//! a real threaded run.
//!
//! This is the Section-2.3 question ("which N is optimal?") generalized to
//! the whole design space, answered with the exact pricing the replay
//! applies to real executions (the two agree exactly — see the
//! `analysis_vs_replay` integration tests).
//!
//! Run with: `cargo run --release --example autotune`

use rotate_tiling::comm::{replay, CostModel};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::tune::{choose, sweep, TuneOptions};
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::imaging::pixel::GrayAlpha8;
use rotate_tiling::imaging::Image;

fn main() {
    let a = 512 * 512;
    let opts = TuneOptions::default();

    for (name, cost) in [("paper", CostModel::PAPER_EXAMPLE), ("sp2", CostModel::SP2)] {
        println!("\nbest method per machine size (A = 512², cost = {name}):");
        println!(
            "{:>3}  {:<16} {:>12} {:>8} {:>6}",
            "P", "winner", "time(s)", "msgs", "steps"
        );
        for p in [2usize, 3, 4, 6, 8, 12, 16, 24, 32, 33, 40] {
            let best = choose(p, a, &cost, &opts).expect("sweep");
            println!(
                "{:>3}  {:<16} {:>12.4} {:>8} {:>6}",
                p,
                best.method.name(),
                best.cost.makespan_with_gather,
                best.cost.messages,
                best.cost.steps
            );
        }
    }

    // Confirm one prediction with a real run: P = 12, SP2 model.
    let p = 12;
    let cost = CostModel::SP2;
    println!("\nfull sweep at P = {p} (sp2), predicted vs executed:");
    let partials: Vec<Image<GrayAlpha8>> = (0..p)
        .map(|r| {
            Image::from_fn(a, 1, |x, _| {
                GrayAlpha8::new(((x + r * 31) % 251) as u8, 200)
            })
        })
        .collect();
    for cand in sweep(p, a, &cost, &opts)
        .expect("sweep")
        .into_iter()
        .take(5)
    {
        let schedule = cand.method.build(p, a).expect("winner builds");
        let (results, trace) = Run::new(
            &ComposePlan::Schedule(schedule.clone()),
            &ComposeConfig {
                codec: CodecKind::Raw,
                root: 0,
                ..Default::default()
            },
        )
        .execute(partials.clone());
        for r in results {
            r.expect("composition succeeds");
        }
        let measured = replay(&trace, &cost)
            .expect("replay")
            .phase("compose:start", "gather:end")
            .unwrap();
        println!(
            "  {:<16} predicted {:.4}s  executed {:.4}s  (Δ {:+.2}%)",
            cand.method.name(),
            cand.cost.makespan_with_gather,
            measured,
            100.0 * (measured - cand.cost.makespan_with_gather) / measured
        );
    }
}
