//! The [`Method`] enum: the one way to name a composition method and
//! compile it to a plan.

use crate::rotate::RtVariant;
use crate::schedule::Schedule;
use crate::tile::{ComposePlan, TileGrid, TilePlan};
use crate::{binary_swap, direct, pipelined, rotate, CoreError};
use serde::{Deserialize, Serialize};

/// A composition method, as data: benches, examples, the tuner and config
/// files name a method by its variant, and [`Method::plan`] compiles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// Binary-swap (power-of-two `P`).
    BinarySwap,
    /// Binary-swap with the fold prelude (any `P`; extension).
    BinarySwapFold,
    /// Parallel-pipelined (any `P`).
    ParallelPipelined,
    /// Direct-send (any `P`; extension).
    DirectSend,
    /// Rotate-tiling with the given variant and initial block count.
    RotateTiling {
        /// Admissibility variant.
        variant: RtVariant,
        /// Initial block count.
        blocks: usize,
    },
    /// Tile-ownership: content-adaptive direct-to-owner compositing over a
    /// static 2-D tile grid (any `P`; extension). Not expressible as a
    /// span [`Schedule`] — its message set depends on which tiles hold
    /// content — so it compiles through [`Method::plan`] instead of
    /// [`Method::build`].
    TileOwner {
        /// Tile columns.
        tiles_x: usize,
        /// Tile rows.
        tiles_y: usize,
    },
    /// Two-level hierarchical composition: `intra` inside contiguous
    /// groups of `k` ranks, Radix-k between the group leaders (extension;
    /// the `P ≥ 256` scaling path). Compiles to one span [`Schedule`] over
    /// all `P` ranks (see [`crate::hier`]).
    Hier {
        /// Group size (the last group may be smaller when `k ∤ P`).
        k: usize,
        /// The flat method run inside each group.
        intra: crate::hier::IntraMethod,
    },
    /// Approximate puzzlepiece compositing (after Huang, Usher &
    /// Pascucci): tile ownership plus per-scanline segment metadata, so
    /// owners *place* depth-disjoint content with no ordering work and
    /// fall back to the exact fold only where pieces genuinely overlap
    /// beyond the budget. The first method in the repo allowed to differ
    /// from the reference fold — within a declared tolerance (extension).
    /// Compiles through [`Method::plan`] like [`Method::TileOwner`].
    Puzzle {
        /// Tile columns.
        tiles_x: usize,
        /// Tile rows.
        tiles_y: usize,
        /// Per-tile overlap budget in permille of the tile area: a tile
        /// whose estimated contributor overlap exceeds this falls back
        /// to the exact depth-ordered fold. `0` makes the method fully
        /// conservative (byte-identical to the reference everywhere).
        budget_permille: u16,
    },
}

impl Method {
    /// The paper's Figure 6/8 line-up: BS, PP, 2N_RT(4), N_RT(3).
    pub fn figure6_lineup() -> Vec<Method> {
        vec![
            Method::BinarySwap,
            Method::ParallelPipelined,
            Method::RotateTiling {
                variant: RtVariant::TwoN,
                blocks: 4,
            },
            Method::RotateTiling {
                variant: RtVariant::N,
                blocks: 3,
            },
        ]
    }

    /// The bench line-up: the paper's Figure 6/8 methods plus the
    /// tile-ownership extension on a 16×16 grid.
    pub fn bench_lineup() -> Vec<Method> {
        let mut lineup = Self::figure6_lineup();
        lineup.push(Method::TileOwner {
            tiles_x: 16,
            tiles_y: 16,
        });
        lineup
    }

    /// Compile to a [`ComposePlan`] of the appropriate family: a span
    /// [`Schedule`] for the step-structured methods, a [`TilePlan`] for
    /// [`Method::TileOwner`] and (with its budget) [`Method::Puzzle`]. The
    /// tile path needs the real frame geometry, not just the pixel count,
    /// hence the extra parameters.
    pub fn plan(&self, p: usize, width: usize, height: usize) -> Result<ComposePlan, CoreError> {
        match self {
            Method::TileOwner { tiles_x, tiles_y } => {
                let grid = TileGrid::new(width, height, *tiles_x, *tiles_y)?;
                Ok(ComposePlan::Tiles(TilePlan::new(p, grid)?))
            }
            Method::Puzzle {
                tiles_x,
                tiles_y,
                budget_permille,
            } => {
                let grid = TileGrid::new(width, height, *tiles_x, *tiles_y)?;
                let plan = TilePlan::puzzle(p, grid, *budget_permille)?;
                Ok(ComposePlan::Tiles(plan))
            }
            _ => {
                let overflow = || CoreError::UnsupportedShape {
                    method: "plan",
                    why: format!("a {width}x{height} frame overflows the pixel count"),
                };
                let image_len = width.checked_mul(height).ok_or_else(overflow)?;
                Ok(ComposePlan::Schedule(self.build(p, image_len)?))
            }
        }
    }

    /// Display name (used in figures, walkthroughs and plans).
    pub fn name(&self) -> String {
        match self {
            Method::BinarySwap => "BS".to_string(),
            Method::BinarySwapFold => "BS+fold".to_string(),
            Method::ParallelPipelined => "PP".to_string(),
            Method::DirectSend => "DS".to_string(),
            Method::RotateTiling { variant, blocks } => format!("{}(B={blocks})", variant.label()),
            Method::TileOwner { tiles_x, tiles_y } => format!("TO({tiles_x}x{tiles_y})"),
            Method::Hier { k, intra } => format!("HIER(k={k},{})", intra.as_method().name()),
            Method::Puzzle {
                tiles_x,
                tiles_y,
                budget_permille,
            } => format!("PZ({tiles_x}x{tiles_y},b{budget_permille})"),
        }
    }

    /// Compile a step-structured method's span [`Schedule`], or explain why
    /// the shape is unsupported. Rotate-tiling is held to the paper's
    /// admissibility rule here: `2N_RT` needs an even block count, `N_RT` an
    /// even processor count.
    pub fn build(&self, p: usize, image_len: usize) -> Result<Schedule, CoreError> {
        match self {
            Method::BinarySwap => binary_swap::schedule(p, image_len, false),
            Method::BinarySwapFold => binary_swap::schedule(p, image_len, true),
            Method::ParallelPipelined => pipelined::schedule(p, image_len),
            Method::DirectSend => direct::schedule(p, image_len),
            Method::RotateTiling {
                variant: RtVariant::TwoN,
                blocks,
            } if !blocks.is_multiple_of(2) => Err(CoreError::UnsupportedShape {
                method: "rotate-tiling (2N_RT)",
                why: format!("block count {blocks} must be even"),
            }),
            Method::RotateTiling {
                variant: RtVariant::N,
                ..
            } if !p.is_multiple_of(2) => Err(CoreError::UnsupportedShape {
                method: "rotate-tiling (N_RT)",
                why: format!("processor count {p} must be even"),
            }),
            Method::RotateTiling { variant, blocks } => {
                rotate::schedule(p, image_len, *variant, *blocks)
            }
            Method::TileOwner { .. } => Err(CoreError::UnsupportedShape {
                method: "tile-owner",
                why: "content-adaptive message set cannot compile to a static span \
                      schedule; use Method::plan for a ComposePlan"
                    .into(),
            }),
            Method::Hier { k, intra } => crate::hier::build(p, *k, *intra, image_len),
            Method::Puzzle { .. } => Err(CoreError::UnsupportedShape {
                method: "puzzle",
                why: "content-adaptive segment routing cannot compile to a static span \
                      schedule; use Method::plan for a ComposePlan"
                    .into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::IntraMethod;
    use crate::schedule::verify_schedule;

    #[test]
    fn figure6_lineup_builds_for_32_ranks() {
        for m in Method::figure6_lineup() {
            let s = m.build(32, 512 * 512).unwrap();
            verify_schedule(&s).unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        }
    }

    #[test]
    fn names_are_the_paper_labels() {
        let names: Vec<String> = Method::figure6_lineup().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["BS", "PP", "2N_RT(B=4)", "N_RT(B=3)"]);
    }

    #[test]
    fn tile_owner_plans_but_does_not_build() {
        let m = Method::TileOwner {
            tiles_x: 16,
            tiles_y: 16,
        };
        assert_eq!(m.name(), "TO(16x16)");
        assert!(m.build(32, 512 * 512).is_err());
        let plan = m.plan(32, 512, 512).unwrap();
        plan.verify().unwrap();
        assert_eq!(plan.p(), 32);
        assert_eq!(plan.image_len(), 512 * 512);
    }

    #[test]
    fn bench_lineup_is_figure6_plus_tile_owner() {
        let lineup = Method::bench_lineup();
        assert_eq!(lineup.len(), 5);
        assert_eq!(&lineup[..4], &Method::figure6_lineup()[..]);
        assert_eq!(lineup[4].name(), "TO(16x16)");
        // Every lineup member plans for the bench shapes.
        for m in &lineup {
            m.plan(32, 512, 512).unwrap().verify().unwrap();
        }
    }

    #[test]
    fn enum_dispatch_matches_structs() {
        // `build` holds RT to the paper's rule and otherwise compiles the
        // module's schedule unchanged.
        let via_enum = Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        }
        .build(6, 600)
        .unwrap();
        let via_module = rotate::schedule(6, 600, RtVariant::TwoN, 4).unwrap();
        assert_eq!(via_enum, via_module);
    }

    /// Every variant, `Hier` once per intra method.
    fn every_method() -> Vec<Method> {
        let rt = |variant, blocks| Method::RotateTiling { variant, blocks };
        let mut all = vec![
            Method::BinarySwap,
            Method::BinarySwapFold,
            Method::ParallelPipelined,
            Method::DirectSend,
            rt(RtVariant::TwoN, 4),
            rt(RtVariant::N, 3),
            Method::TileOwner {
                tiles_x: 4,
                tiles_y: 4,
            },
            Method::Puzzle {
                tiles_x: 4,
                tiles_y: 4,
                budget_permille: 100,
            },
        ];
        let intras = [
            IntraMethod::BinarySwap,
            IntraMethod::BinarySwapFold,
            IntraMethod::ParallelPipelined,
            IntraMethod::DirectSend,
            IntraMethod::RotateTiling {
                variant: RtVariant::TwoN,
                blocks: 4,
            },
            IntraMethod::RotateTiling {
                variant: RtVariant::N,
                blocks: 3,
            },
        ];
        all.extend(intras.map(|intra| Method::Hier { k: 2, intra }));
        all
    }

    /// Whether `m` compiles to tiles rather than a span schedule; a new
    /// variant stops this compiling until it is sorted (and listed above).
    fn is_tile_family(m: &Method) -> bool {
        match m {
            Method::TileOwner { .. } | Method::Puzzle { .. } => true,
            Method::BinarySwap
            | Method::BinarySwapFold
            | Method::ParallelPipelined
            | Method::DirectSend
            | Method::RotateTiling { .. }
            | Method::Hier { .. } => false,
        }
    }

    #[test]
    fn one_vocabulary_names_and_compiles_every_method() {
        let (w, h) = (12, 10);
        for m in every_method() {
            for p in [1, 2, 3, 4, 8] {
                let planned = m.plan(p, w, h);
                if let Ok(plan) = &planned {
                    assert_eq!(plan.method_name(), m.name(), "{m:?} p={p}");
                }
                if is_tile_family(&m) {
                    assert!(planned.is_ok(), "{m:?} p={p}");
                    assert!(
                        matches!(m.build(p, w * h), Err(CoreError::UnsupportedShape { .. })),
                        "{m:?} p={p}"
                    );
                } else {
                    assert_eq!(planned, m.build(p, w * h).map(ComposePlan::Schedule));
                }
            }
            // Zero ranks: a typed error from both entries, never a panic.
            for zero in [m.plan(0, w, h).err(), m.build(0, w * h).err()] {
                assert!(
                    matches!(zero, Some(CoreError::UnsupportedShape { .. })),
                    "{m:?}: {zero:?}"
                );
            }
        }
    }

    #[test]
    fn an_overflowing_frame_is_an_unsupported_shape() {
        for m in every_method().iter().filter(|m| !is_tile_family(m)) {
            let err = m.plan(4, usize::MAX, 2).unwrap_err();
            assert!(
                matches!(err, CoreError::UnsupportedShape { .. }),
                "{m:?}: {err}"
            );
        }
    }
}
