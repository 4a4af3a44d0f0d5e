//! Property tests for the two-level hierarchical plans: for randomly
//! drawn machine shapes with a group size that does *not* divide the
//! rank count, the hierarchical composite must be byte-identical to the
//! flat reference fold for every intra method × codec — and under a
//! leader crash the degraded output must never invent content.
//!
//! Byte-identity is checked with depth-disjoint band partials (rank `r`
//! renders only row `r`), for which any association of `over` equals
//! the reference fold exactly while mis-routing still corrupts bytes.
//! Band content cannot see a *mis-ordered* merge, though (disjoint bands
//! commute), so the death tests at the end run on [`Members`], an exact
//! pixel that every rank covers everywhere.

use proptest::prelude::*;
use rt_comm::FaultPlan;
use rt_compress::CodecKind;
use rt_core::rotate::RtVariant;
use rt_core::{radix, ComposeConfig, ComposePlan, IntraMethod, Method, Run};
use rt_imaging::image::reference_composite;
use rt_imaging::pixel::{GrayAlpha8, Pixel};
use rt_imaging::synth::band_partials;
use rt_imaging::{Image, ImagingError};

/// Intra methods valid for *any* group size, ragged last group included.
fn ragged_safe_intras() -> Vec<IntraMethod> {
    vec![
        IntraMethod::DirectSend,
        IntraMethod::BinarySwapFold,
        IntraMethod::ParallelPipelined,
        IntraMethod::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 2,
        },
    ]
}

/// Tile-ownership picks its messages from the content, so it cannot run
/// inside the groups of a span schedule: a typed refusal, not a panic.
#[test]
fn tile_owner_intra_is_refused_with_a_typed_error() {
    // `IntraMethod` lists span families only, so tile ownership inside the
    // groups cannot be written in code, and a config file that asks for it
    // is refused on load.
    let tiles = r#"{"Hier":{"k":3,"intra":{"TileOwner":{"tiles_x":2,"tiles_y":2}}}}"#;
    let err = serde_json::from_str::<Method>(tiles).unwrap_err();
    assert!(err.to_string().contains("IntraMethod"), "{err}");
    // The span families it does list still load.
    let ds = r#"{"Hier":{"k":3,"intra":"DirectSend"}}"#;
    let intra = IntraMethod::DirectSend;
    assert_eq!(
        serde_json::from_str::<Method>(ds).unwrap(),
        Method::Hier { k: 3, intra }
    );
}

/// Pick a group size `2 ≤ k < p` with `k ∤ p` from a raw draw; such a
/// `k` exists for every `p ≥ 5` in the ranges drawn below.
fn non_dividing_k(p: usize, seed: usize) -> usize {
    let candidates: Vec<usize> = (2..p).filter(|&k| !p.is_multiple_of(k)).collect();
    candidates[seed % candidates.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // k ∤ P, every ragged-safe intra method, every codec: the two-level
    // fold reproduces the flat reference composite byte-for-byte.
    #[test]
    fn hier_is_byte_identical_to_flat_for_every_method_and_codec(
        p in 5usize..=16,
        k_seed in 0usize..=64,
        w in 6usize..=24,
    ) {
        let k = non_dividing_k(p, k_seed);
        let partials = band_partials(p, w, p);
        let expected = reference_composite(&partials).unwrap();
        for intra in ragged_safe_intras() {
            let plan = Method::Hier { k, intra }.plan(p, w, p).unwrap();
            plan.verify().unwrap();
            for codec in CodecKind::ALL {
                let config = ComposeConfig::default().with_codec(codec);
                let (results, _) = Run::new(&plan, &config).execute(partials.clone());
                let out = results[0].as_ref().unwrap();
                prop_assert_eq!(
                    out.frame.as_ref().unwrap().pixels(),
                    expected.pixels(),
                    "p={} k={} {:?} {:?}: diverged from the flat fold",
                    p, k, intra, codec
                );
                // Non-root ranks never hold the gathered frame.
                for res in results.iter().skip(1) {
                    prop_assert!(res.as_ref().unwrap().frame.is_none());
                }
            }
        }
    }

    // A group leader crashing at a random step lands in one of three
    // fates — intra-phase death, inter-phase death, or past every crash
    // window — and in all three the degraded composite is *faithful*:
    // every output pixel is either the reference value or blank, and
    // content of ranks not reported lost survives exactly.
    #[test]
    fn leader_death_never_invents_content(
        p in 6usize..=14,
        k_seed in 0usize..=64,
        group in 0usize..=6,
        step in 0usize..=6,
    ) {
        let k = non_dividing_k(p, k_seed);
        let w = 16;
        let partials = band_partials(p, w, p);
        let expected = reference_composite(&partials).unwrap();
        let intra = IntraMethod::DirectSend;
        let plan = Method::Hier { k, intra }.plan(p, w, p).unwrap();
        let leaders: Vec<usize> = (0..p).step_by(k).collect();
        let victim = leaders[group % leaders.len()];
        let faults = FaultPlan::none().crash_rank_at_step(victim, step);
        let config = ComposeConfig::default();
        let (results, _) = Run::new(&plan, &config).faults(faults).execute(partials);
        // The victim may or may not have crashed (the step can lie past
        // both phases' windows); the gathered frame lands at the lowest
        // survivor either way.
        let root = results
            .iter()
            .position(|r| {
                r.as_ref().is_ok_and(|o| o.frame.is_some())
            })
            .expect("some survivor must gather the frame");
        let out = results[root].as_ref().unwrap();
        let frame = out.frame.as_ref().unwrap();
        let lost: Vec<usize> = out
            .degraded
            .as_ref()
            .map(|d| d.lost_contributions.clone())
            .unwrap_or_default();
        if out.degraded.is_none() {
            // Fate 3: the crash never fired — exact composite.
            prop_assert_eq!(frame.pixels(), expected.pixels());
        }
        for (i, (&got, &want)) in frame
            .pixels()
            .iter()
            .zip(expected.pixels())
            .enumerate()
        {
            let owner_rank = i / w; // band partials: row y is rank y.
            if got != want {
                // Degradation may only *blank* content, never corrupt.
                prop_assert_eq!(
                    got,
                    GrayAlpha8::blank(),
                    "pixel {} corrupted (victim {} step {})",
                    i, victim, step
                );
                // ... and only for ranks reported as (partially) lost.
                prop_assert!(
                    lost.contains(&owner_rank),
                    "silent loss of rank {}'s content (victim {} step {})",
                    owner_rank, victim, step
                );
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Any one or two ranks dying at any steps under every intra method:
    // the frame is the survivors' exact depth-ordered composite, it misses
    // contributions of dead ranks only, and the report names exactly what
    // is missing and on how many pixels.
    #[test]
    fn deaths_under_any_intra_cost_only_the_dead_in_depth_order(
        p in 6usize..=14,
        k_seed in 0usize..=64,
        intra_seed in 0usize..=3,
        victim in 0usize..=13,
        step in 0usize..=8,
        // Offset 0 (mod p): a single death.
        second in (0usize..=13, 0usize..=8),
    ) {
        let k = non_dividing_k(p, k_seed);
        let intra = ragged_safe_intras()[intra_seed];
        let mut deaths = vec![(victim % p, step)];
        if !second.0.is_multiple_of(p) {
            deaths.push(((victim + second.0) % p, second.1));
        }
        check_deaths(&hier_plan(p, k, intra), &deaths);
    }
}

/// An exact pixel for degraded runs: the set of depth ranks composited
/// into it (bit `r` for rank `r`, so `p ≤ 31`), poisoned by any merge that
/// is out of depth order or repeats a rank. It is
/// [`rt_imaging::pixel::Provenance`] with holes allowed — what a frame
/// that lost some contributions needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Members(u32);

impl Members {
    const POISON: Self = Members(1 << 31);
}

impl Pixel for Members {
    const BYTES: usize = 4;

    fn blank() -> Self {
        Members(0)
    }

    fn is_blank(&self) -> bool {
        self.0 == 0
    }

    fn over(&self, back: &Self) -> Self {
        if self.is_blank() {
            return *back;
        }
        if back.is_blank() {
            return *self;
        }
        // In order iff the farthest front member is nearer than the
        // nearest back member (a poisoned side has bit 31 set and fails).
        let farthest_front = 32 - self.0.leading_zeros();
        if *back != Self::POISON && farthest_front <= back.0.trailing_zeros() {
            Members(self.0 | back.0)
        } else {
            Self::POISON
        }
    }

    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    fn read_bytes(bytes: &[u8]) -> Result<Self, ImagingError> {
        match bytes {
            [a, b, c, d] => Ok(Members(u32::from_le_bytes([*a, *b, *c, *d]))),
            _ => Err(ImagingError::BadEncoding {
                what: "Members needs 4 bytes",
            }),
        }
    }

    fn approx_eq(&self, other: &Self, _tol: f64) -> bool {
        self == other
    }
}

/// Frame size of the death tests.
const DEATH_FRAME: (usize, usize) = (16, 6);

fn hier_plan(p: usize, k: usize, intra: IntraMethod) -> ComposePlan {
    let (w, h) = DEATH_FRAME;
    Method::Hier { k, intra }.plan(p, w, h).unwrap()
}

/// Run `plan` with every rank covering every pixel and `deaths`
/// (`(rank, step)`) planned, and hold the gathered frame to the contract.
fn check_deaths(plan: &ComposePlan, deaths: &[(usize, usize)]) {
    let (w, h) = DEATH_FRAME;
    let p = plan.p();
    let name = match plan {
        ComposePlan::Schedule(s) => s.method.as_str(),
        ComposePlan::Tiles(_) => "tiles",
    };
    let partials: Vec<Image<Members>> = (0..p)
        .map(|r| Image::from_fn(w, h, |_, _| Members(1 << r)))
        .collect();
    let faults = deaths.iter().fold(FaultPlan::none(), |f, &(rank, step)| {
        f.crash_rank_at_step(rank, step)
    });
    let config = ComposeConfig::default();
    let (results, _) = Run::new(plan, &config).faults(faults).execute(partials);
    let out = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .find(|o| o.frame.is_some())
        .expect("some survivor must gather the frame");
    let everyone = (1u32 << p) - 1;
    let mut missing_somewhere = 0u32;
    let mut short_pixels = 0usize;
    for (i, px) in out.frame.as_ref().unwrap().pixels().iter().enumerate() {
        assert!(
            *px != Members::POISON,
            "pixel {i} composited out of depth order ({name} {deaths:?})"
        );
        let missing = everyone & !px.0;
        missing_somewhere |= missing;
        short_pixels += usize::from(missing != 0);
    }
    // A crash planned past the schedule never fires: nothing is reported.
    let (lost, lost_pixels) = out.degraded.as_ref().map_or((0, 0), |d| {
        let lost = d.lost_contributions.iter().fold(0u32, |m, r| m | 1 << r);
        (lost, d.lost_pixels)
    });
    assert_eq!(missing_somewhere, lost, "{name} {deaths:?}: the report");
    assert_eq!(short_pixels, lost_pixels, "{name} {deaths:?}");
    let dead = deaths.iter().fold(0u32, |m, &(rank, _)| m | 1 << rank);
    assert_eq!(
        lost & !dead,
        0,
        "{name} {deaths:?}: a survivor's content is gone"
    );
}

/// The planned deaths where the piece table stops being laminar, each on
/// content that sees a mis-ordered merge.
#[test]
fn dead_relays_and_unplaced_spans_keep_the_depth_order() {
    let (w, h) = DEATH_FRAME;
    let radix = radix::schedule(9, w * h, &[3, 3]).unwrap();
    for (plan, deaths) in [
        // A member dies before placing its quarter: the leader carries its
        // stale copy on, and the other group lands behind it past ranks 1
        // and 3.
        (hier_plan(8, 4, IntraMethod::DirectSend), [(2, 1)]),
        // A leader dies before any traffic: the other leaders merge past
        // its members.
        (hier_plan(12, 4, IntraMethod::DirectSend), [(4, 0)]),
        // The same hole in a flat two-round schedule.
        (ComposePlan::Schedule(radix), [(3, 1)]),
        // A member of a multi-step group, after it relayed a neighbour.
        (hier_plan(8, 4, IntraMethod::BinarySwap), [(1, 1)]),
    ] {
        check_deaths(&plan, &deaths);
    }
}
