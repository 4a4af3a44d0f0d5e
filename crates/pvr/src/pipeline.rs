//! The full per-frame pipeline: partition → render → composite → warp.
//!
//! Unlike [`crate::scene`], this runs *inside* the multicomputer: every rank
//! renders its own fixed subvolume (rendering work is charged to the trace
//! under [`rt_comm::ComputeKind::Render`]), the depth-indexed schedule is
//! permuted onto the physical ranks for the current view, and the root
//! finishes with the 2-D warp — the complete system of the paper.
//!
//! A frame's host-side derivation (`FramePlanner` → `FramePlan`) and its
//! post-compose tail (`FramePlan::warp`, `frame_holder`) are written once
//! here; [`FrameRun`] and [`crate::stream`] differ only in their per-rank
//! loops.
//!
//! The half of that derivation no camera changes — the generated volume,
//! its slabs along the current principal axis and each slab's
//! classification (`Partitioned`) — is session state: it rides in the
//! carried slot of the [`ScratchPool`] the caller already passes
//! ([`FrameRun::pool`], [`crate::StreamSession`]'s own), is reused while
//! `(dataset, volume_size, seed, p)` holds and replaced when it or the
//! axis changes. A frame without a pool partitions for itself.

use crate::permute::permute_plan;
use crate::PvrError;
use rt_comm::{ComputeKind, FaultPlan, Mark, RankCtx, Trace};
use rt_compress::CodecKind;
use rt_core::exec::{ComposeConfig, ComposeOutput, Machine, ScratchPool, TransportKind};
use rt_core::method::Method;
use rt_core::repair::DegradedInfo;
use rt_core::tile::{compose_plan, ComposePlan};
use rt_imaging::{GrayAlpha, Image};
use rt_render::camera::{factorize, Camera, Factorization};
use rt_render::datasets::Dataset;
use rt_render::partition::{depth_order, partition_1d};
use rt_render::shearwarp::{warp_to_screen, PreparedSlab, RenderOptions};
use rt_render::volume::Volume;
use std::sync::Arc;

/// Configuration of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Which dataset to volume-render.
    pub dataset: Dataset,
    /// Cubic volume resolution.
    pub volume_size: usize,
    /// Dataset noise seed.
    pub seed: u64,
    /// The view.
    pub camera: Camera,
    /// Frame options.
    pub render: RenderOptions,
    /// Composition method.
    pub method: Method,
    /// Message codec.
    pub codec: CodecKind,
    /// Rank that assembles and warps the final frame.
    pub root: usize,
}

impl PipelineConfig {
    /// A small, fast default for tests and the quickstart example.
    pub fn small(method: Method) -> Self {
        Self {
            dataset: Dataset::Engine,
            volume_size: 24,
            seed: 7,
            camera: Camera::yaw_pitch(0.3, 0.15),
            render: RenderOptions {
                early_termination: 1.0,
                ..RenderOptions::square(64)
            },
            method,
            codec: CodecKind::Trle,
            root: 0,
        }
    }

    /// The composition options this pipeline implies: its codec and root,
    /// resilient exactly when a fault plan is installed.
    pub(crate) fn compose_config(
        &self,
        faults: &FaultPlan,
        transport: TransportKind,
    ) -> ComposeConfig {
        ComposeConfig::default()
            .with_codec(self.codec)
            .with_root(self.root)
            .resilient(!faults.is_none())
            .with_transport(transport)
    }
}

/// Host-side plan of one frame: everything that depends on the view,
/// derived before the machine starts.
pub(crate) struct FramePlan {
    pub camera: Camera,
    pub f: Factorization,
    /// Rank `r` renders `parts[r]`.
    pub parts: Arc<Vec<PreparedSlab>>,
    /// Physical rank at each depth position (0 = nearest).
    pub rank_of_depth: Vec<usize>,
    /// The method's verified plan, relabelled from depth positions onto the
    /// physical ranks of this view.
    pub compose: ComposePlan,
    pub method_name: String,
}

/// What one rank holds once a frame is composed: the screen frame (on the
/// frame-holding rank only) and the degradation report.
pub(crate) type RankFrame = (Option<Image<GrayAlpha>>, Option<DegradedInfo>);

impl FramePlan {
    /// The per-rank tail of a frame: the rank holding the composited
    /// intermediate image warps it to the screen.
    pub fn warp(
        &self,
        ctx: &mut RankCtx,
        render: &RenderOptions,
        composed: ComposeOutput<GrayAlpha>,
    ) -> RankFrame {
        let screen = composed.frame.map(|inter| {
            ctx.compute(ComputeKind::Render, (render.width * render.height) as u64);
            let screen = warp_to_screen(&inter, &self.f, render);
            ctx.mark(Mark::WarpEnd);
            screen
        });
        (screen, composed.degraded)
    }
}

/// The view-independent half of a frame — the paper's stage 1, done once:
/// the generated volume, cut into `p` slabs along one principal axis, each
/// slab classified ahead of its views. A [`ScratchPool`] carries one of
/// these from frame to frame (its carried slot), so neither a serial
/// animation loop nor the orbits of a stream session regenerate their
/// dataset; a frame whose `(dataset, volume_size, seed, p)` or axis differs
/// builds its own and replaces it.
pub(crate) struct Partitioned {
    key: PartitionKey,
    volume: Arc<Volume>,
    axis: usize,
    parts: Arc<Vec<PreparedSlab>>,
}

/// What a partition is a function of: `(dataset, volume_size, seed, p)`.
type PartitionKey = (Dataset, usize, u64, usize);

/// The data-partitioning stage (host side): plans any number of views over
/// one volume, cutting it at most once per principal axis.
pub(crate) struct FramePlanner<'a> {
    key: PartitionKey,
    config: &'a PipelineConfig,
    pool: Option<&'a ScratchPool<GrayAlpha>>,
    /// The partition this planner used for each axis, so an orbit that
    /// crosses an axis change and comes back cuts twice, not three times.
    by_axis: [Option<Arc<Partitioned>>; 3],
}

impl<'a> FramePlanner<'a> {
    /// A planner that starts from what `pool` carries, if that is this
    /// configuration's partition, and leaves its latest cut there.
    pub fn new(
        p: usize,
        config: &'a PipelineConfig,
        pool: Option<&'a ScratchPool<GrayAlpha>>,
    ) -> Self {
        let mut by_axis = [None, None, None];
        let key = (config.dataset, config.volume_size, config.seed, p);
        if let Some(carried) = pool.and_then(|pool| pool.carried::<Partitioned>()) {
            if carried.key == key {
                let axis = carried.axis;
                by_axis[axis] = Some(carried);
            }
        }
        FramePlanner {
            key,
            config,
            pool,
            by_axis,
        }
    }

    /// Plan the frame seen from `camera` (`config.camera` is not read).
    pub fn plan(&mut self, camera: Camera) -> Result<FramePlan, PvrError> {
        let (key, config) = (self.key, self.config);
        let p = key.3;
        if config.render.width == 0 || config.render.height == 0 {
            return Err(PvrError::Config {
                what: format!(
                    "a {}x{} frame has no pixels to render",
                    config.render.width, config.render.height
                ),
            });
        }
        let volume = match self.by_axis.iter().flatten().next() {
            Some(cut) => Arc::clone(&cut.volume),
            None => Arc::new(config.dataset.generate(config.volume_size, config.seed)),
        };
        // Rank r owns slab r along the view's principal axis. The
        // factorization is pure camera/geometry math — bit-identical to what
        // each rank's render derives internally — so no probe render of the
        // whole volume is needed to learn the axis.
        let f = factorize(
            &camera,
            volume.dims(),
            config.render.width,
            config.render.height,
        );
        let parts = match &self.by_axis[f.axis] {
            Some(cut) => Arc::clone(&cut.parts),
            None => {
                let tf = config.dataset.transfer_function();
                let parts = partition_1d(&volume, p, f.axis)?
                    .into_iter()
                    .map(|sub| PreparedSlab::new(sub, &tf, f.axis))
                    .collect();
                let cut = Arc::new(Partitioned {
                    key,
                    volume,
                    axis: f.axis,
                    parts: Arc::new(parts),
                });
                if let Some(pool) = self.pool {
                    pool.carry(Arc::clone(&cut));
                }
                let parts = Arc::clone(&cut.parts);
                self.by_axis[f.axis] = Some(cut);
                parts
            }
        };
        let rank_of_depth = depth_order(&parts, &f);

        // Compile and verify the plan in depth coordinates, then relabel onto
        // the physical ranks for this view. Step-structured methods compile to
        // a span schedule; tile-ownership compiles to a tile plan — both run
        // through `compose_plan`.
        let depth_plan = config.method.plan(p, f.inter_size.0, f.inter_size.1)?;
        depth_plan.verify()?;
        let compose = permute_plan(&depth_plan, &rank_of_depth)?;
        Ok(FramePlan {
            camera,
            f,
            parts,
            rank_of_depth,
            compose,
            method_name: depth_plan.method_name().to_string(),
        })
    }
}

/// The host-side tail of a frame. The frame sits at the configured root —
/// or, if the root died, at the survivor the repair plan promoted. The
/// degraded report is taken from that frame-holding rank (survivors compute
/// identical reports; a crashed rank only knows about itself).
pub(crate) fn frame_holder(
    ranks: impl IntoIterator<Item = RankFrame>,
) -> Result<(Image<GrayAlpha>, Option<DegradedInfo>), PvrError> {
    ranks
        .into_iter()
        .filter_map(|(frame, degraded)| frame.map(|frame| (frame, degraded)))
        .last()
        .ok_or_else(|| PvrError::Config {
            what: "no rank produced the final frame".into(),
        })
}

/// The result of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The final screen frame (assembled and warped at the root).
    pub frame: Image<GrayAlpha>,
    /// Event trace of the whole run (render + composite + gather + warp).
    pub trace: Trace,
    /// Physical rank at each depth position for this view (0 = nearest).
    pub rank_of_depth: Vec<usize>,
    /// The executed (depth-indexed) schedule's name.
    pub method_name: String,
    /// `Some` when rank failures degraded the frame: it is the exact
    /// composite of the surviving ranks, and this says what is missing.
    pub degraded: Option<DegradedInfo>,
}

/// Run the full pipeline on `p` ranks: in-process, fault-free, fresh
/// scratch buffers — `FrameRun::new(p, config).execute()`.
pub fn render_frame(p: usize, config: &PipelineConfig) -> Result<PipelineOutput, PvrError> {
    FrameRun::new(p, config).execute()
}

/// `FrameRun::new(p, config).faults(faults).pool(pool).execute()` under its
/// pre-`FrameRun` name: the frozen `benchmark/` package links this
/// function, so it stays as a delegation. New code uses [`FrameRun`].
pub fn render_frame_pooled(
    p: usize,
    config: &PipelineConfig,
    faults: FaultPlan,
    pool: &ScratchPool<GrayAlpha>,
) -> Result<PipelineOutput, PvrError> {
    FrameRun::new(p, config).faults(faults).pool(pool).execute()
}

/// One frame through the full pipeline on `p` ranks — the pipeline's
/// counterpart of [`rt_core::Run`]: faults, a scratch pool and the
/// transport are independent add-ons.
pub struct FrameRun<'a> {
    p: usize,
    config: &'a PipelineConfig,
    faults: FaultPlan,
    pool: Option<&'a ScratchPool<GrayAlpha>>,
    transport: TransportKind,
}

impl<'a> FrameRun<'a> {
    /// A fault-free, in-process run with fresh scratch buffers.
    pub fn new(p: usize, config: &'a PipelineConfig) -> Self {
        FrameRun {
            p,
            config,
            faults: FaultPlan::none(),
            pool: None,
            transport: TransportKind::InProc,
        }
    }

    /// Install `faults` on the multicomputer and compose in resilient mode,
    /// so seeded message loss/corruption is absorbed by retransmission and
    /// planned rank crashes degrade the frame gracefully (see
    /// [`PipelineOutput::degraded`]).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Check per-rank scratch buffers out of `pool` and plan from the
    /// partition it carries, so an animation loop neither reallocates its
    /// compositing buffers nor regenerates, re-cuts and re-classifies its
    /// dataset per frame (the per-frame constant factor the paper's
    /// interactive scenario is sensitive to). Pass the same pool to every
    /// frame; frames of another dataset, size, seed or `p` stay correct
    /// and take the pool's one partition over.
    pub fn pool(mut self, pool: &'a ScratchPool<GrayAlpha>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Run the ranks, the inter-render barrier and every composition
    /// transfer over `transport`. The frame and trace are bit-identical to
    /// the in-process run.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Partition, render, composite and warp the frame.
    pub fn execute(self) -> Result<PipelineOutput, PvrError> {
        let FrameRun {
            p,
            config,
            faults,
            pool,
            transport,
        } = self;
        let plan = FramePlanner::new(p, config, pool).plan(config.camera)?;
        let compose_config = config.compose_config(&faults, transport);

        let mc = Machine::build(p, &compose_config, faults, None);
        let (results, trace) = mc.run(|ctx| -> Result<RankFrame, PvrError> {
            let slab = &plan.parts[ctx.rank()];
            ctx.mark(Mark::RenderStart);
            let (partial, _) = slab.render(&plan.camera, &config.render);
            ctx.compute(ComputeKind::Render, slab.sub().vol.len() as u64);
            ctx.mark(Mark::RenderEnd);
            ctx.barrier().map_err(rt_core::CoreError::from)?;
            let mut scratch = match pool {
                Some(pool) => pool.checkout(ctx.rank()),
                None => Default::default(),
            };
            let composed = compose_plan(ctx, &plan.compose, partial, &compose_config, &mut scratch);
            if let Some(pool) = pool {
                pool.checkin(ctx.rank(), scratch);
            }
            Ok(plan.warp(ctx, &config.render, composed?))
        });

        let ranks = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        let (frame, degraded) = frame_holder(ranks)?;
        Ok(PipelineOutput {
            frame,
            trace,
            rank_of_depth: plan.rank_of_depth,
            method_name: plan.method_name,
            degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::rotate::RtVariant;
    use rt_render::partition::Subvolume;
    use rt_render::shearwarp::render;

    fn reference_frame(config: &PipelineConfig) -> Image<GrayAlpha> {
        let volume = config.dataset.generate(config.volume_size, config.seed);
        render(
            &Subvolume::whole(volume),
            &config.dataset.transfer_function(),
            &config.camera,
            &config.render,
        )
    }

    #[test]
    fn pipeline_matches_the_sequential_renderer() {
        for method in [
            Method::BinarySwap,
            Method::ParallelPipelined,
            Method::RotateTiling {
                variant: RtVariant::TwoN,
                blocks: 4,
            },
        ] {
            let config = PipelineConfig::small(method);
            let out = render_frame(4, &config).unwrap();
            let want = reference_frame(&config);
            assert!(
                out.frame.approx_eq(&want, 1e-3),
                "{}: {:?}",
                out.method_name,
                out.frame.first_mismatch(&want, 1e-3)
            );
        }
    }

    #[test]
    fn tile_owner_pipeline_matches_the_sequential_renderer() {
        // The content-adaptive tile path rides the same pipeline dispatch,
        // including the view permutation that reverses the depth order.
        let mut config = PipelineConfig::small(Method::TileOwner {
            tiles_x: 8,
            tiles_y: 8,
        });
        for camera in [
            Camera::yaw_pitch(0.3, 0.15),
            Camera::yaw_pitch(std::f64::consts::PI, 0.0),
        ] {
            config.camera = camera;
            let out = render_frame(4, &config).unwrap();
            assert_eq!(out.method_name, "TO(8x8)");
            let want = reference_frame(&config);
            assert!(
                out.frame.approx_eq(&want, 1e-3),
                "{:?}",
                out.frame.first_mismatch(&want, 1e-3)
            );
        }
    }

    #[test]
    fn hierarchical_pipeline_matches_the_sequential_renderer() {
        // A two-level schedule is a span schedule: the reversed camera
        // relabels its groups and leaders like any other endpoints.
        let mut config = PipelineConfig::small(Method::Hier {
            k: 2,
            intra: rt_core::IntraMethod::BinarySwap,
        });
        for camera in [
            Camera::front(),
            Camera::yaw_pitch(std::f64::consts::PI, 0.0),
        ] {
            config.camera = camera;
            let out = render_frame(8, &config).unwrap();
            assert!(
                out.method_name.starts_with("HIER(k=2,BS)"),
                "{}",
                out.method_name
            );
            let want = reference_frame(&config);
            assert!(
                out.frame.approx_eq(&want, 1e-3),
                "{:?}",
                out.frame.first_mismatch(&want, 1e-3)
            );
        }
    }

    #[test]
    fn reversed_view_permutes_depth_order() {
        let mut config = PipelineConfig::small(Method::ParallelPipelined);
        config.camera = Camera::front();
        let front = render_frame(3, &config).unwrap();
        assert_eq!(front.rank_of_depth, vec![0, 1, 2]);

        config.camera = Camera::yaw_pitch(std::f64::consts::PI, 0.0);
        let back = render_frame(3, &config).unwrap();
        assert_eq!(back.rank_of_depth, vec![2, 1, 0]);
        let want = reference_frame(&config);
        assert!(back.frame.approx_eq(&want, 1e-3));
    }

    #[test]
    fn trace_contains_all_pipeline_phases() {
        let config = PipelineConfig::small(Method::BinarySwap);
        let out = render_frame(4, &config).unwrap();
        let report = rt_comm::replay(&out.trace, &rt_comm::CostModel::PAPER_EXAMPLE).unwrap();
        assert!(report.phase("render:start", "render:end").unwrap() >= 0.0);
        assert!(report.phase("compose:start", "compose:end").unwrap() > 0.0);
        assert!(report.marks.contains_key("warp:end"));
    }

    #[test]
    fn odd_rank_counts_work_with_rt_and_pp() {
        for method in [
            Method::ParallelPipelined,
            Method::RotateTiling {
                variant: RtVariant::TwoN,
                blocks: 2,
            },
        ] {
            let config = PipelineConfig::small(method);
            let out = render_frame(5, &config).unwrap();
            let want = reference_frame(&config);
            assert!(out.frame.approx_eq(&want, 1e-3), "{}", out.method_name);
        }
    }

    #[test]
    fn binary_swap_rejects_odd_rank_counts() {
        let config = PipelineConfig::small(Method::BinarySwap);
        let err = render_frame(5, &config).unwrap_err();
        assert!(matches!(err, PvrError::Core(_)), "{err}");
    }

    #[test]
    fn pooled_frames_match_unpooled_bit_for_bit() {
        // Reusing scratch buffers across frames must not leak state: the
        // second pooled frame composites in buffers the first frame dirtied
        // and still matches the fresh-allocation run exactly, trace included.
        let config = PipelineConfig::small(Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        });
        let pool = ScratchPool::new();
        let fresh = render_frame(4, &config).unwrap();
        let first = FrameRun::new(4, &config).pool(&pool).execute().unwrap();
        let reused = FrameRun::new(4, &config).pool(&pool).execute().unwrap();
        assert_eq!(fresh.frame.pixels(), first.frame.pixels());
        assert_eq!(fresh.frame.pixels(), reused.frame.pixels());
        assert_eq!(fresh.trace, reused.trace);
    }

    #[test]
    fn a_pool_carries_one_partition_and_recuts_the_same_volume() {
        let mut config = PipelineConfig::small(Method::ParallelPipelined);
        let pool = ScratchPool::new();
        let carried = || {
            pool.carried::<Partitioned>()
                .expect("a pooled frame carries")
        };
        FrameRun::new(3, &config).pool(&pool).execute().unwrap();
        let first = carried();
        FrameRun::new(3, &config).pool(&pool).execute().unwrap();
        assert!(Arc::ptr_eq(&first, &carried()), "same config: same record");
        // Another principal axis cuts the carried volume again.
        config.camera = Camera::yaw_pitch(std::f64::consts::FRAC_PI_2, 0.1);
        let turned = FrameRun::new(3, &config).pool(&pool).execute().unwrap();
        let recut = carried();
        assert_ne!(first.axis, recut.axis);
        assert!(Arc::ptr_eq(&first.volume, &recut.volume));
        assert_eq!(turned.frame, render_frame(3, &config).unwrap().frame);
    }

    #[test]
    fn one_pool_never_serves_a_stale_partition() {
        // Each frame follows one that differed in exactly the field named,
        // through one pool, and must equal its un-pooled run: pixels, trace.
        let base = PipelineConfig::small(Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 2,
        });
        let frames = [
            (4, base),
            (4, PipelineConfig { seed: 8, ..base }),
            (
                4,
                PipelineConfig {
                    dataset: Dataset::Brain,
                    seed: 8,
                    ..base
                },
            ),
            (4, base),
            (
                4,
                PipelineConfig {
                    volume_size: 20,
                    ..base
                },
            ),
            (4, base),
            (3, base),
            (4, base),
        ];
        let pool = ScratchPool::new();
        for (i, (p, config)) in frames.iter().enumerate() {
            let pooled = FrameRun::new(*p, config).pool(&pool).execute().unwrap();
            let fresh = render_frame(*p, config).unwrap();
            assert_eq!(pooled.frame.pixels(), fresh.frame.pixels(), "frame {i}");
            assert_eq!(pooled.trace, fresh.trace, "frame {i}");
        }
    }

    #[test]
    fn frames_that_cannot_be_planned_are_typed_errors() {
        let base = PipelineConfig::small(Method::ParallelPipelined);
        let no_pixels = |render| PipelineConfig { render, ..base };
        for render in [
            RenderOptions {
                width: 0,
                ..base.render
            },
            RenderOptions {
                height: 0,
                ..base.render
            },
        ] {
            let err = render_frame(4, &no_pixels(render)).unwrap_err();
            assert!(matches!(err, PvrError::Config { .. }), "{err}");
        }
        // The neighbouring misconfigurations, typed all along.
        let err = render_frame(4, &PipelineConfig { root: 4, ..base }).unwrap_err();
        assert!(matches!(err, PvrError::Core(_)), "{err}");
        let tiny = PipelineConfig {
            volume_size: 3,
            ..base
        };
        let err = render_frame(4, &tiny).unwrap_err();
        assert!(matches!(err, PvrError::Render(_)), "{err}");
        let err = render_frame(0, &base).unwrap_err();
        assert!(matches!(err, PvrError::Render(_)), "{err}");
    }

    #[test]
    fn message_faults_are_invisible_to_the_frame() {
        // Seeded drops + corruptions are absorbed by retransmission: the
        // frame is bit-identical to the clean run and nothing is flagged
        // degraded.
        let config = PipelineConfig::small(Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        });
        let clean = render_frame(4, &config).unwrap();
        let faults = FaultPlan::none()
            .with_seed(3)
            .drop_rate(0.10)
            .corrupt_rate(0.05);
        let faulty = FrameRun::new(4, &config).faults(faults).execute().unwrap();
        assert!(faulty.degraded.is_none());
        assert_eq!(faulty.frame.pixels(), clean.frame.pixels());
        assert!(
            faulty.trace.retransmit_count() > 0,
            "the seed should lose at least one message"
        );
    }

    #[test]
    fn tcp_loopback_backend_matches_inproc_bit_for_bit() {
        // The transport choice must be invisible: same frame, same trace.
        let config = PipelineConfig::small(Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        });
        let inproc = render_frame(4, &config).unwrap();
        let tcp = FrameRun::new(4, &config)
            .transport(TransportKind::TcpLoopback)
            .execute()
            .unwrap();
        assert_eq!(inproc.frame.pixels(), tcp.frame.pixels());
        assert_eq!(inproc.trace, tcp.trace);
    }

    #[test]
    fn crashed_rank_degrades_the_frame_gracefully() {
        let config = PipelineConfig::small(Method::ParallelPipelined);
        let faults = FaultPlan::none().crash_rank_at_step(2, 1);
        let out = FrameRun::new(4, &config).faults(faults).execute().unwrap();
        let info = out.degraded.expect("crash must be reported");
        assert_eq!(info.failed, vec![(2, 1)]);
        assert!(info.lost_contributions.contains(&2));
        // The frame still renders (survivors' composite, warped).
        assert!(out.frame.pixels().iter().all(|px| px.a.is_finite()));
    }
}
