//! The full per-frame pipeline: partition → render → composite → warp.
//!
//! Unlike [`crate::scene`], this runs *inside* the multicomputer: every rank
//! renders its own fixed subvolume (rendering work is charged to the trace
//! under [`rt_comm::ComputeKind::Render`]), the depth-indexed schedule is
//! permuted onto the physical ranks for the current view, and the root
//! finishes with the 2-D warp — the complete system of the paper.
//!
//! This module is the host side of a frame (`FramePlanner` → `FramePlan`).
//! [`FrameRun`] plans its camera and hands that one plan to the ranks an
//! orbit runs on, so every rank's frame body is written once, in
//! [`crate::stream`].
//!
//! Two things no camera changes are session state, carried in the slot of
//! the [`ScratchPool`] the caller passes ([`FrameRun::pool`],
//! [`crate::StreamSession`]'s own): the half of a plan that is the
//! generated volume, its slabs along each principal axis a view has needed
//! and each slab's classification (`Partitioned`), reused while `(dataset,
//! volume_size, seed, p)` holds and replaced when that changes; and the
//! resident machine — rank threads, render threads and warp helpers parked
//! between frames, so a pooled frame after the first starts no thread. A
//! frame without a pool plans into a throwaway one, whose machine lives for
//! the call.

use crate::permute::permute_plan;
use crate::session::{Call, Session};
use crate::stream::StreamConfig;
use crate::PvrError;
use rt_comm::{raise_rank_panics, FaultPlan, Trace};
use rt_compress::CodecKind;
use rt_core::exec::{ComposeConfig, ScratchPool, TransportKind};
use rt_core::method::Method;
use rt_core::repair::DegradedInfo;
use rt_core::tile::ComposePlan;
use rt_imaging::{GrayAlpha, Image};
use rt_render::camera::{factorize, Camera, Factorization};
use rt_render::datasets::Dataset;
use rt_render::partition::{depth_order, partition_1d};
use rt_render::shearwarp::{PreparedSlab, RenderOptions};
use rt_render::volume::Volume;
use std::sync::{Arc, OnceLock};

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

    /// The composition options this pipeline implies: its codec and root
    /// (the installed fault plan alone decides whether a compose repairs).
    pub(crate) fn compose_config(&self, transport: TransportKind) -> ComposeConfig {
        ComposeConfig::default()
            .with_codec(self.codec)
            .with_root(self.root)
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

/// The view-independent half of a frame — the paper's stage 1, done once:
/// the generated volume and, per principal axis, its cut into `p` slabs,
/// each slab classified ahead of its views. An axis is cut the first time a
/// view along it is planned, and never again. The session a [`ScratchPool`]
/// carries holds one of these from frame to frame, so neither a serial
/// animation loop nor the orbits of a stream session regenerate their
/// dataset or re-cut an axis; a frame whose `(dataset, volume_size, seed,
/// p)` differs builds its own and replaces it.
pub(crate) struct Partitioned {
    pub key: PartitionKey,
    volume: Volume,
    by_axis: [OnceLock<Arc<Vec<PreparedSlab>>>; 3],
}

/// What a partition is a function of: `(dataset, volume_size, seed, p)`.
pub(crate) type PartitionKey = (Dataset, usize, u64, usize);

impl Partitioned {
    pub fn new(key: PartitionKey) -> Self {
        let (dataset, volume_size, seed, _) = key;
        Partitioned {
            key,
            volume: dataset.generate(volume_size, seed),
            by_axis: Default::default(),
        }
    }

    /// The slabs along `axis`, cut and classified on first use. Planners
    /// that race to cut one axis compute the same slabs, and one cut wins.
    fn parts(&self, axis: usize) -> Result<Arc<Vec<PreparedSlab>>, PvrError> {
        let cut = &self.by_axis[axis];
        if let Some(parts) = cut.get() {
            return Ok(Arc::clone(parts));
        }
        let (dataset, _, _, p) = self.key;
        let tf = dataset.transfer_function();
        let parts = partition_1d(&self.volume, p, axis)?
            .into_iter()
            .map(|sub| PreparedSlab::new(sub, &tf, axis))
            .collect();
        Ok(Arc::clone(cut.get_or_init(|| Arc::new(parts))))
    }
}

/// The data-partitioning stage (host side): plans any number of views over
/// the partition its session carries for this configuration.
pub(crate) struct FramePlanner<'a> {
    key: PartitionKey,
    config: &'a PipelineConfig,
    session: Arc<Session>,
    /// This configuration's partition, once a plan has needed it.
    partition: Option<Arc<Partitioned>>,
}

impl<'a> FramePlanner<'a> {
    /// A planner over `session`'s partition for this configuration, which
    /// the first plan takes over if the session carries another.
    pub fn new(p: usize, config: &'a PipelineConfig, session: &Arc<Session>) -> Self {
        FramePlanner {
            key: (config.dataset, config.volume_size, config.seed, p),
            config,
            session: Arc::clone(session),
            partition: None,
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
        let session = &self.session;
        let session = self.partition.get_or_insert_with(|| session.partition(key));
        // Rank r owns slab r along the view's principal axis. The
        // factorization is pure camera/geometry math — bit-identical to what
        // each rank's render derives internally — so no probe render of the
        // whole volume is needed to learn the axis.
        let f = factorize(
            &camera,
            session.volume.dims(),
            config.render.width,
            config.render.height,
        );
        let parts = session.parts(f.axis)?;
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

/// The result of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The final screen frame (assembled and warped at the root).
    pub frame: Image<GrayAlpha>,
    /// This frame's trace: render, composite, gather and warp on every
    /// rank, between its `frame:0` marks.
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

    /// Install `faults` on the multicomputer, so seeded message
    /// loss/corruption is absorbed by retransmission and planned rank
    /// crashes degrade the frame gracefully (see
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

    /// Run the ranks and every composition transfer over `transport`. The
    /// frame and trace are bit-identical to the in-process run.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Partition, render, composite and warp the frame: plan its one
    /// camera, then run that one plan on the pool's machine.
    pub fn execute(self) -> Result<PipelineOutput, PvrError> {
        let FrameRun {
            p,
            config,
            faults,
            pool,
            transport,
        } = self;
        let own_pool;
        let pool = match pool {
            Some(pool) => pool,
            None => {
                own_pool = ScratchPool::new();
                &own_pool
            }
        };
        let session = Session::of(pool);
        let plan = FramePlanner::new(p, config, &session).plan(config.camera)?;
        let method_name = plan.method_name.clone();
        let stream = StreamConfig {
            faults,
            transport,
            ..StreamConfig::new(*config)
        };
        let mut call = Call::start(session, pool, p, stream, vec![plan])?;
        let frame = call.next_frame();
        raise_rank_panics(&call.finish(pool));
        let frame = frame
            .unwrap_or_else(|| {
                Err(PvrError::Config {
                    what: "the stream emitted no frame".into(),
                })
            })
            .map_err(|e| match e {
                PvrError::Frame { index: 0, source } => *source,
                e => e,
            })?;
        Ok(PipelineOutput {
            frame: frame.frame,
            trace: frame.trace,
            rank_of_depth: frame.rank_of_depth,
            method_name,
            degraded: frame.degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::rotate::RtVariant;
    use rt_render::partition::Subvolume;
    use rt_render::shearwarp::render;

    fn carried_partition(pool: &ScratchPool<GrayAlpha>) -> Option<Arc<Partitioned>> {
        pool.carried::<Session>()?.carried_partition()
    }

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
        assert!(report.marks.contains_key(&rt_comm::Mark::WarpEnd));
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
    fn a_pool_warps_each_frame_at_its_own_screen_size() {
        // The warp crew keeps a spare screen made at the last frame's size;
        // a frame of another size drops it, never warps onto it.
        let base = PipelineConfig::small(Method::ParallelPipelined);
        let pool = ScratchPool::new();
        for (i, n) in [64, 96, 64, 64].into_iter().enumerate() {
            let config = PipelineConfig {
                render: RenderOptions {
                    early_termination: 1.0,
                    ..RenderOptions::square(n)
                },
                ..base
            };
            let pooled = render_frame_pooled(3, &config, FaultPlan::none(), &pool).unwrap();
            let fresh = render_frame(3, &config).unwrap();
            assert_eq!((pooled.frame.width(), pooled.frame.height()), (n, n));
            assert_eq!(pooled.frame.pixels(), fresh.frame.pixels(), "frame {i}");
        }
    }

    #[test]
    fn a_pool_carries_one_partition_and_recuts_the_same_volume() {
        let mut config = PipelineConfig::small(Method::ParallelPipelined);
        let pool = ScratchPool::new();
        let carried = || carried_partition(&pool).expect("a pooled frame carries");
        FrameRun::new(3, &config).pool(&pool).execute().unwrap();
        let first = carried();
        FrameRun::new(3, &config).pool(&pool).execute().unwrap();
        assert!(Arc::ptr_eq(&first, &carried()), "same config: same record");
        // Another principal axis cuts the carried volume again, into the
        // same record.
        config.camera = Camera::yaw_pitch(std::f64::consts::FRAC_PI_2, 0.1);
        let turned = FrameRun::new(3, &config).pool(&pool).execute().unwrap();
        assert!(Arc::ptr_eq(&first, &carried()), "same config: same record");
        let cut = |axis: usize| first.by_axis[axis].get().is_some();
        assert_eq!([0, 1, 2].map(cut), [true, false, true]);
        assert_eq!(turned.frame, render_frame(3, &config).unwrap().frame);
    }

    #[test]
    fn an_orbit_across_an_axis_change_and_back_cuts_each_axis_once() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let mut config = PipelineConfig::small(Method::ParallelPipelined);
        let pool = ScratchPool::new();
        let mut session = None;
        let mut cuts = [None; 3];
        // Yaw 0 → π/2 → π → 0 → π/2: principal axis z → x → z → z → x.
        for (frame, yaw) in [0.0, FRAC_PI_2, PI, 0.0, FRAC_PI_2].into_iter().enumerate() {
            config.camera = Camera::yaw_pitch(yaw, 0.1);
            let out = FrameRun::new(3, &config).pool(&pool).execute().unwrap();
            let want = render_frame(3, &config).unwrap().frame;
            assert_eq!(out.frame, want, "frame {frame}");
            let carried = carried_partition(&pool).unwrap();
            let session = session.get_or_insert_with(|| Arc::clone(&carried));
            assert!(Arc::ptr_eq(session, &carried), "frame {frame}: one record");
            for (axis, cut) in cuts.iter_mut().enumerate() {
                let now = carried.by_axis[axis].get().map(Arc::as_ptr);
                // Once cut, an axis keeps its slabs for the session.
                assert!(
                    cut.is_none() || *cut == now,
                    "frame {frame}: axis {axis} recut"
                );
                *cut = now;
            }
        }
        assert_eq!(cuts.map(|cut| cut.is_some()), [true, false, true]);
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
