//! Method auto-tuning: pick the best composition method for a machine.
//!
//! The paper's Section 2.3 derives the optimal block count analytically;
//! with the static analyzer the same question — *which method, which
//! parameters, for this `(P, A, cost)`?* — can be answered by exhaustive
//! search over the (small) design space, using the exact same pricing the
//! replay applies to real runs. [`choose`] returns the winner;
//! [`sweep`] returns the whole ranked space for reports.
//!
//! Three axes extend the flat sweep:
//!
//! * **Codecs.** A per-codec compression ratio (measured, e.g. from a
//!   trace's `bytes_sent` under that codec against raw) scales the wire
//!   term `Tp`; every enabled codec multiplies the method space. Codec
//!   CPU time is *not* modeled (the paper's premise is that TRLE's bit
//!   operations are cheap); fold it into the ratio if it matters on a
//!   platform.
//! * **Content.** [`TuneOptions::content_fraction`] is the fraction of
//!   the frame that actually holds non-blank pixels. It prices the
//!   tile-ownership method, which ships only content tiles — modeled as
//!   a direct-send message set with every span scaled by the fraction,
//!   which is the executor's message set too: `P·(P−1)` bundles.
//! * **Hierarchy.** With [`TuneOptions::max_group`] ≥ 2 the sweep also
//!   ranks two-level candidates ([`Method::Hier`]): an intra method per
//!   group of `k`, Radix-k between the leaders. They compile to span
//!   schedules ([`crate::hier`]) and are priced by the same analyzer call
//!   as every flat candidate.
//!
//! [`fit_link_costs`] closes the loop: it recovers `(Ts, Tp)` per link
//! class and `To` from replayed observability timelines by pairing each
//! rank's `Send`/`Over` spans with its trace events, so the sweep can
//! rank candidates under *measured* constants instead of presets.

use crate::analysis::{analyze, ScheduleCost};
use crate::hier::IntraMethod;
use crate::method::{CompositionMethod, Method};
use crate::rotate::RtVariant;
use crate::CoreError;
use rt_comm::{CostModel, Event, Trace};
use rt_compress::CodecKind;
use rt_obs::{Phase, RankTimeline};

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The method (with parameters).
    pub method: Method,
    /// The wire codec the cost was priced under.
    pub codec: CodecKind,
    /// Its statically predicted cost.
    pub cost: ScheduleCost,
}

/// Search options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOptions {
    /// Per-codec wire-volume ratios, indexed like [`CodecKind::ALL`]
    /// (raw, RLE, TRLE, bounds). `Some(r)` enables the codec and scales
    /// `Tp` by `r`; `None` leaves it out of the sweep. The default
    /// enables only the raw codec at ratio 1, which keeps the sweep
    /// identical to the flat single-codec space.
    pub codec_ratios: [Option<f64>; 4],
    /// Largest hierarchical group size `k` to consider (powers of two
    /// from 2 up to `min(max_group, p/2)`). `0` (the default) disables
    /// hierarchical candidates.
    pub max_group: usize,
    /// Fraction of the frame holding non-blank content, in `(0, 1]`.
    /// Prices [`Method::TileOwner`]; at the default `1.0` the method is
    /// left out (with full content it degenerates to direct-send).
    pub content_fraction: f64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            codec_ratios: [Some(1.0), None, None, None],
            max_group: 0,
            content_fraction: 1.0,
        }
    }
}

impl TuneOptions {
    /// Enable `codec` at measured wire-volume `ratio` (compressed bytes
    /// over raw bytes).
    pub fn with_codec_ratio(mut self, codec: CodecKind, ratio: f64) -> Self {
        let i = CodecKind::ALL.iter().position(|c| *c == codec).unwrap_or(0);
        self.codec_ratios[i] = Some(ratio);
        self
    }

    /// Consider hierarchical candidates with group sizes up to `k`.
    pub fn with_max_group(mut self, k: usize) -> Self {
        self.max_group = k;
        self
    }

    /// Set the non-blank content fraction (prices tile-ownership).
    pub fn with_content_fraction(mut self, f: f64) -> Self {
        self.content_fraction = f;
        self
    }
}

/// Largest rotate-tiling block count the sweep considers.
const MAX_BLOCKS: usize = 12;

/// Wire bytes per pixel before codec scaling (the `GrayAlpha8` format the
/// benches compose).
const BYTES_PER_PIXEL: usize = 2;

/// The default tile grid for tile-ownership candidates (the bench
/// line-up's `TO(16x16)`). The predicted cost depends on the content
/// fraction, not the grid — the grid only sets the granularity at which
/// content is detected — so one canonical grid per sweep suffices.
const TO_GRID: (usize, usize) = (16, 16);

fn flat_candidates(p: usize) -> Vec<Method> {
    let mut out = vec![Method::ParallelPipelined, Method::DirectSend];
    if p.is_power_of_two() {
        out.push(Method::BinarySwap);
    } else {
        out.push(Method::BinarySwapFold);
    }
    out
}

/// Codec-scaled wire model: compression shrinks every message's payload
/// by `ratio`, which under the paper's linear model is a `Tp` scaling.
fn wire_model(base: &CostModel, ratio: f64) -> CostModel {
    CostModel {
        tp: base.tp * ratio,
        ..*base
    }
}

/// Price tile-ownership: one bundle per (sender, owner) — exactly
/// direct-send's messages (`tests/tile_ownership.rs` holds the counts
/// equal) — with every shipped span scaled by the content fraction. The
/// gather is left at full owned size (owners hold assembled tiles), making
/// this a mild over-estimate.
fn tile_owner_cost(
    p: usize,
    image_len: usize,
    wire: &CostModel,
    content_fraction: f64,
) -> Result<ScheduleCost, CoreError> {
    let mut s = Method::DirectSend.build(p, image_len)?;
    for step in &mut s.steps {
        for t in &mut step.transfers {
            let scaled = (t.span.len as f64 * content_fraction).round() as usize;
            t.span.len = scaled.max(1);
        }
    }
    Ok(analyze(&s, wire, BYTES_PER_PIXEL))
}

/// Intra methods worth trying inside groups of `k` when `p` ranks are
/// chunked: the any-size baselines, plus plain binary-swap when every
/// group (including a ragged last one) is a power of two.
fn hier_intra_candidates(p: usize, k: usize) -> Vec<IntraMethod> {
    let mut out = vec![IntraMethod::DirectSend, IntraMethod::ParallelPipelined];
    let rem = p % k;
    let all_pow2 = k.is_power_of_two() && (rem == 0 || rem.is_power_of_two());
    if all_pow2 {
        out.push(IntraMethod::BinarySwap);
    } else {
        out.push(IntraMethod::BinarySwapFold);
    }
    out
}

/// Evaluate every applicable design point — the flat methods (the four
/// baselines, rotate-tiling at every admissible block count up to 12,
/// tile-ownership when content is sparse) times every enabled codec, plus
/// hierarchical `(k, intra)` pairs when `opts.max_group ≥ 2` — ranked best
/// first.
pub fn sweep(
    p: usize,
    image_len: usize,
    cost: &CostModel,
    opts: &TuneOptions,
) -> Result<Vec<Candidate>, CoreError> {
    let mut out = Vec::new();
    for (ci, codec) in CodecKind::ALL.iter().enumerate() {
        let Some(ratio) = opts.codec_ratios[ci] else {
            continue;
        };
        let wire = wire_model(cost, ratio);
        let mut push = |method: Method, sc: ScheduleCost| {
            out.push(Candidate {
                method,
                codec: *codec,
                cost: sc,
            });
        };
        let mut scheduled = flat_candidates(p);
        for b in 1..=MAX_BLOCKS {
            if b % 2 == 0 {
                scheduled.push(Method::RotateTiling {
                    variant: RtVariant::TwoN,
                    blocks: b,
                });
            } else if p.is_multiple_of(2) {
                scheduled.push(Method::RotateTiling {
                    variant: RtVariant::N,
                    blocks: b,
                });
            }
        }
        for m in scheduled {
            push(m, analyze(&m.build(p, image_len)?, &wire, BYTES_PER_PIXEL));
        }
        if opts.content_fraction < 1.0 && p > 1 {
            let sc = tile_owner_cost(p, image_len, &wire, opts.content_fraction)?;
            push(
                Method::TileOwner {
                    tiles_x: TO_GRID.0,
                    tiles_y: TO_GRID.1,
                },
                sc,
            );
        }
        let mut k = 2usize;
        while k <= opts.max_group && k <= p / 2 {
            for intra in hier_intra_candidates(p, k) {
                let m = Method::Hier { k, intra };
                // A pair whose groups the intra method cannot run is not a
                // design point; it must not abort the sweep.
                match m.build(p, image_len) {
                    Ok(s) => push(m, analyze(&s, &wire, BYTES_PER_PIXEL)),
                    Err(CoreError::UnsupportedShape { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            k *= 2;
        }
    }
    // Ranked by the paper's composition stage: time including the gather.
    out.sort_by(|a, b| {
        a.cost
            .makespan_with_gather
            .total_cmp(&b.cost.makespan_with_gather)
    });
    Ok(out)
}

/// The best design point for `(p, image_len)` under `cost`.
pub fn choose(
    p: usize,
    image_len: usize,
    cost: &CostModel,
    opts: &TuneOptions,
) -> Result<Candidate, CoreError> {
    sweep(p, image_len, cost, opts)?
        .into_iter()
        .next()
        .ok_or_else(|| CoreError::UnsupportedShape {
            method: "autotune",
            why: format!("no method supports p = {p}"),
        })
}

// ---------------------------------------------------------------------
// Measured-cost fitting
// ---------------------------------------------------------------------

/// Fitted wire constants of one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedLink {
    /// Startup latency `Ts`, seconds.
    pub ts: f64,
    /// Per-byte transmission time `Tp`, seconds.
    pub tp: f64,
    /// Number of send samples the fit saw.
    pub samples: usize,
}

/// Cost constants recovered from a measured (or replayed) run by
/// [`fit_link_costs`].
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredCost {
    /// Per-class `(Ts, Tp)` fits, indexed by the classifier's output.
    pub classes: Vec<FittedLink>,
    /// Fitted `over` time per pixel `To` (global — compositing is local
    /// compute, not a link property).
    pub to: f64,
    /// Number of `over` samples behind [`MeasuredCost::to`].
    pub over_samples: usize,
}

impl MeasuredCost {
    /// A [`CostModel`] with class `class`'s fitted wire constants and the
    /// fitted `To`, inheriting everything else from `base`.
    pub fn cost_model(&self, class: usize, base: &CostModel) -> CostModel {
        let link = self.classes[class];
        CostModel {
            ts: link.ts,
            tp: link.tp,
            to: self.to,
            ..*base
        }
    }
}

/// Recover `(Ts, Tp)` per link class and `To` from a run's trace and its
/// observability timelines.
///
/// Each rank's `Send`-phase spans pair 1:1, in order, with its trace's
/// `Send`/`Retransmit` events (which carry the destination and byte
/// count the spans lack); `Over` spans pair with `Compute(Over)` events.
/// `classify(src, dst)` maps each directed send onto one of `classes`
/// link classes — e.g. `src / k != dst / k` separates the group-local
/// links of a hierarchical schedule from its leader overlay, for fabrics
/// where the two differ. Per class, `(Ts, Tp)` is
/// the least-squares line through `(bytes, duration)`; `To` is total
/// over-time divided by total over-pixels.
///
/// The pairing holds exactly for timelines derived by
/// [`rt_comm::replay_timeline`] (which emits one span per billable
/// event, eliding zero-duration charges — so the priced model needs
/// `Ts > 0` and `To > 0`); wall-clock observer timelines work when the
/// executor records one span per send and per merge, which the span
/// executors do.
pub fn fit_link_costs(
    trace: &Trace,
    timelines: &[RankTimeline],
    classes: usize,
    classify: &dyn Fn(usize, usize) -> usize,
) -> Result<MeasuredCost, CoreError> {
    if trace.size() != timelines.len() {
        return Err(CoreError::InvalidSchedule {
            why: format!(
                "fit: trace has {} ranks, timelines {}",
                trace.size(),
                timelines.len()
            ),
        });
    }
    // Per-class send samples (bytes, duration) and global over samples.
    let mut sends: Vec<Vec<(f64, f64)>> = vec![Vec::new(); classes];
    let mut over_time = 0f64;
    let mut over_pixels = 0f64;
    let mut over_samples = 0usize;
    for (r, events) in trace.ranks.iter().enumerate() {
        let meta: Vec<(usize, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Send { to, bytes, .. } | Event::Retransmit { to, bytes, .. } => {
                    Some((classify(r, *to), *bytes))
                }
                _ => None,
            })
            .collect();
        let durs: Vec<f64> = timelines[r]
            .spans
            .iter()
            .filter(|s| s.phase == Phase::Send)
            .map(|s| s.dur)
            .collect();
        if meta.len() != durs.len() {
            return Err(CoreError::InvalidSchedule {
                why: format!(
                    "fit: rank {r} has {} send events but {} send spans \
                     (zero-duration sends elided? price with Ts > 0)",
                    meta.len(),
                    durs.len()
                ),
            });
        }
        for ((class, bytes), dur) in meta.into_iter().zip(durs) {
            if class >= classes {
                return Err(CoreError::InvalidSchedule {
                    why: format!("fit: classifier returned {class} ≥ {classes}"),
                });
            }
            sends[class].push((bytes as f64, dur));
        }

        // Over charges land in `Over` or (after `flush:start`) `Flush`
        // spans; zero-pixel merges emit no span at all and are skipped.
        let units: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Compute { kind, units }
                    if *kind == rt_comm::ComputeKind::Over && *units > 0 =>
                {
                    Some(*units)
                }
                _ => None,
            })
            .collect();
        let odurs: Vec<f64> = timelines[r]
            .spans
            .iter()
            .filter(|s| s.phase == Phase::Over || s.phase == Phase::Flush)
            .map(|s| s.dur)
            .collect();
        if units.len() != odurs.len() {
            return Err(CoreError::InvalidSchedule {
                why: format!(
                    "fit: rank {r} has {} over events but {} over spans \
                     (zero-duration merges elided? price with To > 0)",
                    units.len(),
                    odurs.len()
                ),
            });
        }
        for (u, d) in units.into_iter().zip(odurs) {
            over_time += d;
            over_pixels += u as f64;
            over_samples += 1;
        }
    }

    let fitted = sends
        .into_iter()
        .map(|samples| {
            let n = samples.len() as f64;
            if samples.is_empty() {
                return FittedLink {
                    ts: 0.0,
                    tp: 0.0,
                    samples: 0,
                };
            }
            let sx: f64 = samples.iter().map(|(x, _)| x).sum();
            let sy: f64 = samples.iter().map(|(_, y)| y).sum();
            let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
            let sxy: f64 = samples.iter().map(|(x, y)| x * y).sum();
            let denom = n * sxx - sx * sx;
            // All-equal byte counts can't separate Ts from Tp: report the
            // mean duration as pure startup.
            let (ts, tp) = if denom.abs() < f64::EPSILON * n * sxx.max(1.0) {
                (sy / n, 0.0)
            } else {
                let tp = (n * sxy - sx * sy) / denom;
                ((sy - tp * sx) / n, tp)
            };
            FittedLink {
                ts: ts.max(0.0),
                tp: tp.max(0.0),
                samples: samples.len(),
            }
        })
        .collect();
    Ok(MeasuredCost {
        classes: fitted,
        to: if over_pixels > 0.0 {
            over_time / over_pixels
        } else {
            0.0
        },
        over_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::ComposePlan;

    fn opts() -> TuneOptions {
        TuneOptions::default()
    }

    #[test]
    fn sweep_covers_the_design_space() {
        let cands = sweep(8, 4096, &CostModel::SP2, &opts()).unwrap();
        // PP, DS, BS + 6 even 2N + 6 odd N (p even) = 15.
        assert_eq!(cands.len(), 15);
        // Ranked ascending.
        for w in cands.windows(2) {
            assert!(w[0].cost.makespan_with_gather <= w[1].cost.makespan_with_gather);
        }
        // The default options price raw only.
        assert!(cands.iter().all(|c| c.codec == CodecKind::Raw));
    }

    #[test]
    fn winner_plans_for_the_real_executor() {
        // Whatever wins — schedule-family, tile-ownership, hierarchical —
        // must compile to an executable plan for a concrete frame.
        let opts = opts().with_max_group(8).with_content_fraction(0.5);
        for p in [3usize, 8, 12, 17, 64] {
            let best = choose(p, 64 * 64, &CostModel::SP2, &opts).unwrap();
            let plan = best.method.plan(p, 64, 64).unwrap();
            if let ComposePlan::Schedule(s) = &plan {
                crate::schedule::verify_schedule(s).unwrap();
            }
        }
    }

    #[test]
    fn latency_bound_regime_prefers_log_step_methods() {
        // Tiny frame, fat latency: P−1-step methods must lose.
        let cost = CostModel::new(0.01, 1e-8, 1e-9);
        let best = choose(24, 256, &cost, &opts()).unwrap();
        let steps = best.cost.steps;
        assert!(steps <= 6, "winner {:?} with {steps} steps", best.method);
    }

    #[test]
    fn bandwidth_bound_regime_keeps_everyone_close() {
        // Fat frame, negligible latency: top candidates within ~2x.
        let cost = CostModel::new(1e-7, 1e-7, 0.0);
        let cands = sweep(16, 1 << 18, &cost, &opts()).unwrap();
        let best = cands[0].cost.makespan_with_gather;
        let median = cands[cands.len() / 2].cost.makespan_with_gather;
        assert!(median < 2.5 * best, "best {best} median {median}");
    }

    #[test]
    fn odd_machines_never_pick_plain_binary_swap() {
        let cands = sweep(9, 4096, &CostModel::SP2, &opts()).unwrap();
        assert!(cands
            .iter()
            .all(|c| !matches!(c.method, Method::BinarySwap)));
        assert!(cands
            .iter()
            .any(|c| matches!(c.method, Method::BinarySwapFold)));
    }

    #[test]
    fn codec_ratio_scales_the_ranking() {
        // TRLE at a 4:1 measured ratio: every method's TRLE point beats
        // its raw point under a bandwidth-bound model, and the space
        // doubles.
        let opts = opts().with_codec_ratio(CodecKind::Trle, 0.25);
        let cost = CostModel::new(1e-7, 1e-7, 0.0);
        let cands = sweep(8, 1 << 16, &cost, &opts).unwrap();
        assert_eq!(cands.len(), 30);
        assert_eq!(cands[0].codec, CodecKind::Trle);
        for c in &cands {
            if c.codec == CodecKind::Raw {
                let twin = cands
                    .iter()
                    .find(|t| t.codec == CodecKind::Trle && t.method == c.method)
                    .unwrap();
                assert!(twin.cost.makespan_with_gather < c.cost.makespan_with_gather);
            }
        }
    }

    #[test]
    fn sparse_content_promotes_tile_ownership() {
        // 20% content, bandwidth-bound: shipping only content tiles must
        // beat every full-span method. With full content the method is
        // not even listed.
        let cost = CostModel::new(1e-6, 1e-7, 1e-9);
        let sparse = opts().with_content_fraction(0.2);
        let best = choose(32, 1 << 16, &cost, &sparse).unwrap();
        assert!(
            matches!(best.method, Method::TileOwner { .. }),
            "winner {:?}",
            best.method
        );
        let full = sweep(32, 1 << 16, &cost, &opts()).unwrap();
        assert!(full
            .iter()
            .all(|c| !matches!(c.method, Method::TileOwner { .. })));
    }

    #[test]
    fn hier_candidates_cover_group_sizes_and_build() {
        let opts = opts().with_max_group(16);
        let cands = sweep(64, 4096, &CostModel::SP2, &opts).unwrap();
        let ks: std::collections::BTreeSet<usize> = cands
            .iter()
            .filter_map(|c| match c.method {
                Method::Hier { k, .. } => Some(k),
                _ => None,
            })
            .collect();
        assert_eq!(ks.into_iter().collect::<Vec<_>>(), vec![2, 4, 8, 16]);
        // Every hierarchical candidate compiles to a real plan.
        for c in &cands {
            if let Method::Hier { .. } = c.method {
                c.method.plan(64, 64, 64).unwrap();
            }
        }
    }

    #[test]
    fn hier_wins_at_scale_under_latency_heavy_links() {
        // P = 256 with a real per-message receive overhead: every flat
        // method ends in a 255-message gather serialized at the root
        // (255·tr), while a two-level plan concentrates frames at k−1
        // group leaders in parallel and gathers only P/k messages at the
        // root — the tree-gather argument that motivates hierarchy.
        let cost = CostModel::new(4e-5, 2.9e-8, 1e-9).with_tr(4e-5);
        let opts = opts().with_max_group(16);
        let best = choose(256, 1 << 16, &cost, &opts).unwrap();
        assert!(
            matches!(best.method, Method::Hier { .. }),
            "winner {:?}",
            best.method
        );
        // The flat methods are still in the ranked report, just slower.
        let cands = sweep(256, 1 << 16, &cost, &opts).unwrap();
        let flat_best = cands
            .iter()
            .find(|c| !matches!(c.method, Method::Hier { .. }))
            .unwrap();
        assert!(best.cost.makespan_with_gather < flat_best.cost.makespan_with_gather);
    }

    #[test]
    fn fit_recovers_the_replay_constants_per_link_class() {
        use rt_imaging::image::Image;
        use rt_imaging::pixel::{GrayAlpha8, Pixel};

        // Execute a hierarchical run, replay it under known constants,
        // and fit them back per link class through the plan's classifier.
        // Binary-swap intra keeps message sizes varied (halving spans)
        // so the least-squares fit can separate `Ts` from `Tp` in both
        // classes; the inter level's Radix-k rounds at G = 8 vary too.
        let (p, k, w) = (32usize, 4usize, 16usize);
        let intra = IntraMethod::BinarySwap;
        let plan = Method::Hier { k, intra }.plan(p, w, p).unwrap();
        let partials: Vec<Image<GrayAlpha8>> = (0..p)
            .map(|r| {
                Image::from_fn(w, p, |x, y| {
                    if y == r {
                        GrayAlpha8::new((r * 5 + x) as u8, (60 + r + x) as u8)
                    } else {
                        GrayAlpha8::blank()
                    }
                })
            })
            .collect();
        let config = crate::ComposeConfig::default();
        let (_, trace) = crate::Run::new(&plan, &config).execute(partials);
        let truth = CostModel::new(3e-4, 7e-8, 2e-7);
        let (_, timelines) = rt_comm::replay_timeline(&trace, &truth).unwrap();
        let classify = |a: usize, b: usize| usize::from(a / k != b / k);
        let fit = fit_link_costs(&trace, &timelines, 2, &classify).unwrap();
        // Both classes saw traffic (intra placements + leader exchange).
        for link in &fit.classes {
            assert!(link.samples > 0, "fit {fit:?}");
            assert!((link.ts - truth.ts).abs() < truth.ts * 0.05, "fit {fit:?}");
            assert!((link.tp - truth.tp).abs() < truth.tp * 0.05, "fit {fit:?}");
        }
        assert!((fit.to - truth.to).abs() < truth.to * 0.05, "fit {fit:?}");
        // The fitted model plugs straight back into a sweep.
        let model = fit.cost_model(0, &truth);
        assert!((model.ts - truth.ts).abs() < truth.ts * 0.05);
        choose(p, w * p, &model, &opts()).unwrap();
    }

    #[test]
    fn fit_separates_link_classes() {
        use rt_obs::SpanRec;

        // Hand-built two-class run: rank 0 sends to rank 1 over a fast
        // link (class 0) and to rank 2 over a slow one (class 1), with
        // an over pass; the fit must recover both lines independently.
        let (fast_ts, fast_tp) = (1e-4, 1e-8);
        let (slow_ts, slow_tp) = (5e-3, 4e-7);
        let to = 1e-7;
        let mut events = Vec::new();
        let mut spans = Vec::new();
        let mut clock = 0.0;
        let mut seq = [0u64; 3];
        for bytes in [256u64, 1024, 4096, 16384] {
            for (dst, ts, tp) in [(1usize, fast_ts, fast_tp), (2, slow_ts, slow_tp)] {
                events.push(Event::Send {
                    to: dst,
                    tag: 7,
                    bytes,
                    seq: seq[dst],
                });
                seq[dst] += 1;
                let dur = ts + bytes as f64 * tp;
                spans.push(SpanRec {
                    phase: Phase::Send,
                    step: None,
                    frame: None,
                    start: clock,
                    dur,
                });
                clock += dur;
            }
        }
        events.push(Event::Compute {
            kind: rt_comm::ComputeKind::Over,
            units: 5000,
        });
        spans.push(SpanRec {
            phase: Phase::Over,
            step: None,
            frame: None,
            start: clock,
            dur: 5000.0 * to,
        });
        let trace = Trace {
            ranks: vec![events, Vec::new(), Vec::new()],
        };
        let timelines = vec![
            RankTimeline { rank: 0, spans },
            RankTimeline::new(1),
            RankTimeline::new(2),
        ];
        let classify = |_src: usize, dst: usize| usize::from(dst == 2);
        let fit = fit_link_costs(&trace, &timelines, 2, &classify).unwrap();
        assert!((fit.classes[0].ts - fast_ts).abs() < fast_ts * 1e-6);
        assert!((fit.classes[0].tp - fast_tp).abs() < fast_tp * 1e-6);
        assert!((fit.classes[1].ts - slow_ts).abs() < slow_ts * 1e-6);
        assert!((fit.classes[1].tp - slow_tp).abs() < slow_tp * 1e-6);
        assert!((fit.to - to).abs() < to * 1e-6);
    }
}
