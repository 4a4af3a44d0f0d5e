//! The observability layer's books must balance: for every method × codec ×
//! machine size, the per-phase virtual-clock span sums produced by
//! `replay_timeline` must equal the replay cost model's per-rank totals
//! **bit-exactly** (`f64 ==`, no tolerance), and the derived timelines must
//! be well-formed (properly nested, step-attributed).
//!
//! This is the PR's acceptance gate: if an executor change adds a charge
//! the span emitter doesn't mirror (or vice versa), this test fails on the
//! exact account that drifted.

use rotate_tiling::comm::{replay, replay_timeline, CostModel};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::ComposeConfig;
use rotate_tiling::core::method::Method;
use rotate_tiling::core::CoreError;
use rotate_tiling::core::{ComposePlan, Run};
use rotate_tiling::imaging::pixel::GrayAlpha8;
use rotate_tiling::imaging::{Image, Pixel};
use rotate_tiling::obs::reconcile_all;

const LEN: usize = 1600;

/// Banded partials with blank structure, so RLE/TRLE take distinct wire
/// sizes and the blank-skip accounting is exercised.
fn banded_partials(p: usize, len: usize) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|r| {
            Image::from_fn(len, 1, |x, _| {
                let band = len / p;
                if x / band == r || x / band == (r + 1) % p {
                    GrayAlpha8::new((40 + 13 * (x % 9) + r * 3).min(255) as u8, 170)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

fn check_cell(method: Method, p: usize, codec: CodecKind, cost: &CostModel) {
    let schedule = match method.build(p, LEN) {
        Ok(s) => s,
        // Shape constraints (BS: power-of-two P; N_RT: even P) are part of
        // the lineup; skipping them mirrors the figure binaries.
        Err(CoreError::UnsupportedShape { .. }) => return,
        Err(e) => panic!("{} P={p}: {e}", method.name()),
    };
    let config = ComposeConfig::default().with_codec(codec);
    let (results, trace) = Run::new(&ComposePlan::Schedule(schedule.clone()), &config)
        .execute(banded_partials(p, LEN));
    for r in results {
        r.unwrap();
    }

    let (report, timelines) = replay_timeline(&trace, cost).unwrap();
    let label = format!("{}/{codec:?}/P={p}", method.name());

    // The tentpole invariant: span sums == replay totals, bit-exactly.
    let totals: Vec<_> = report.ranks.iter().map(|s| s.phase_totals()).collect();
    if let Err(e) = reconcile_all(&timelines, &totals) {
        panic!("{label}: {e}");
    }

    // Virtual spans are sequential on one clock: strict nesting, no overlap.
    for tl in &timelines {
        if let Err((a, b)) = tl.check_nesting(0.0) {
            panic!(
                "{label}: rank {} spans {a} and {b} overlap improperly",
                tl.rank
            );
        }
    }

    // Deriving timelines must not perturb the replay itself.
    let plain = replay(&trace, cost).unwrap();
    assert_eq!(plain.makespan, report.makespan, "{label}: makespan drifted");
    for (a, b) in plain.ranks.iter().zip(&report.ranks) {
        assert_eq!(a.finish, b.finish, "{label}: per-rank finish drifted");
    }

    // Step attribution reached the spans: at least one span carries a step
    // index, and no span claims a step the schedule doesn't have.
    let steps = schedule.steps.len() as u32;
    let mut stepped = false;
    for tl in &timelines {
        for s in &tl.spans {
            if let Some(k) = s.step {
                stepped = true;
                assert!(k < steps, "{label}: span claims step {k} of {steps}");
            }
        }
    }
    assert!(stepped, "{label}: no span carries a step attribution");
}

#[test]
fn phase_sums_reconcile_across_methods_codecs_and_machine_sizes() {
    // P = 5 exercises the skip paths (BS and N_RT are unsupported there).
    let cost = CostModel::PAPER_EXAMPLE;
    for p in [5usize, 8, 32] {
        for method in Method::figure6_lineup() {
            for codec in [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle] {
                check_cell(method, p, codec, &cost);
            }
        }
    }
}

#[test]
fn reconciliation_survives_nonzero_receive_overhead() {
    // `Tr` is zero in both presets; a nonzero value exercises the `Recv`
    // span account, which must still balance to the replay's books.
    let cost = CostModel::PAPER_EXAMPLE.with_tr(3.4e-7).with_tc(1.1e-8);
    for method in Method::figure6_lineup() {
        check_cell(method, 8, CodecKind::Trle, &cost);
    }
}
