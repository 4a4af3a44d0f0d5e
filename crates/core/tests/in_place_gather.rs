//! The root assembles the frame in its own partial: every pixel it does not
//! own must be overwritten by its owner's stream, or be blank already. On
//! [`Provenance`] partials every rank covers every pixel, so a pixel the
//! gather left stale would read the root's own `[root, root + 1)` (or a
//! partial range) instead of the complete composite, and a mis-cut raw
//! stream would read another owner's ranges or poison the merge.

use rt_compress::CodecKind;
use rt_core::rotate::RtVariant;
use rt_core::{radix, ComposeConfig, ComposePlan, IntraMethod, Method, Run};
use rt_imaging::pixel::Provenance;
use rt_imaging::synth::provenance_partials;

/// Every plan family at `p` ranks on a `w × h` frame, named: the span
/// schedules (RT in both variants, BS, PP, DS, Radix, Hier) and the tile
/// families (TO, PZ). Shapes a family does not take are left out.
fn plans(p: usize, w: usize, h: usize) -> Vec<(String, ComposePlan)> {
    let (tiles_x, tiles_y) = (4, 3);
    let methods = [
        Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 2,
        },
        Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        },
        Method::RotateTiling {
            variant: RtVariant::N,
            blocks: 3,
        },
        Method::BinarySwap,
        Method::BinarySwapFold,
        Method::ParallelPipelined,
        Method::DirectSend,
        Method::Hier {
            k: 3,
            intra: IntraMethod::BinarySwapFold,
        },
        Method::TileOwner { tiles_x, tiles_y },
        Method::Puzzle {
            tiles_x,
            tiles_y,
            budget_permille: 0,
        },
    ];
    let mut plans: Vec<(String, ComposePlan)> = methods
        .iter()
        .filter_map(|m| Some((format!("{m:?}"), m.plan(p, w, h).ok()?)))
        .collect();
    let radices = radix::for_group_size(p, 2);
    let radix = radix::schedule(p, w * h, &radices).expect("radix schedule");
    plans.push((format!("Radix{radices:?}"), ComposePlan::Schedule(radix)));
    plans
}

/// Every family, P from 2 to 8, roots 0 and `p − 1`, every codec: the
/// root's frame reads `Provenance::complete(p)` at every pixel. A ragged
/// 4 × 3 tile grid on a 30 × 22 frame gives the tile families tiles of
/// unequal size, and the span families spans that do not fall on rows.
#[test]
fn the_root_frame_is_complete_everywhere_for_every_family() {
    let (w, h) = (30, 22);
    let mut families = std::collections::BTreeSet::new();
    for p in 2..=8 {
        let partials = provenance_partials(p, w, h);
        let complete = Provenance::complete(p as u16);
        for (name, plan) in plans(p, w, h) {
            families.insert(name.split(['{', '[', ' ']).next().unwrap().to_string());
            for codec in CodecKind::ALL {
                for root in [0, p - 1] {
                    let config = ComposeConfig::default().with_codec(codec).with_root(root);
                    let (results, _) = Run::new(&plan, &config).execute(partials.clone());
                    let what = format!("{name} {codec:?} P={p} root={root}");
                    let frame = match results.into_iter().nth(root) {
                        Some(Ok(out)) => out.frame.unwrap_or_else(|| panic!("{what}: no frame")),
                        other => panic!("{what}: {other:?}"),
                    };
                    let stale = frame.pixels().iter().position(|px| *px != complete);
                    if let Some(i) = stale {
                        let px = frame.pixels()[i];
                        panic!("{what}: pixel {i} reads {px:?}, want {complete:?}");
                    }
                }
            }
        }
    }
    let want = [
        "BinarySwap",
        "BinarySwapFold",
        "DirectSend",
        "Hier",
        "ParallelPipelined",
        "Puzzle",
        "Radix",
        "RotateTiling",
        "TileOwner",
    ];
    assert_eq!(families.into_iter().collect::<Vec<_>>(), want);
}
