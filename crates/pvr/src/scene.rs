//! Scenes: pre-rendered, depth-ordered composition inputs.
//!
//! The figure harness sweeps dozens of method/codec combinations over the
//! *same* rendered partials; a [`Scene`] renders them once (sequentially —
//! the rendering stage is not what the figures measure) and
//! [`compose_scene`] replays the composition stage over the multicomputer
//! for each combination.

use crate::PvrError;
use rt_comm::Trace;
use rt_compress::CodecKind;
use rt_core::exec::ComposeConfig;
use rt_core::method::Method;
use rt_core::Run;
use rt_imaging::{GrayAlpha, Image};
use rt_render::camera::{factorize, Camera, Factorization};
use rt_render::datasets::Dataset;
use rt_render::partition::{depth_order, partition_1d};
use rt_render::shearwarp::{render_intermediate, warp_to_screen, RenderOptions};
use rt_render::threads;

/// Pre-rendered composition inputs: `partials[d]` is the partial
/// intermediate image at depth position `d` (0 = nearest the viewer).
#[derive(Debug, Clone)]
pub struct Scene {
    /// Depth-ordered partial intermediate images.
    pub partials: Vec<Image<GrayAlpha>>,
    /// The view factorization shared by all partials.
    pub factorization: Factorization,
    /// Frame options used to render.
    pub opts: RenderOptions,
    /// Dataset the scene came from.
    pub dataset: Dataset,
}

impl Scene {
    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.partials.len()
    }

    /// Pixels per partial image (the composition's `A`).
    pub fn image_len(&self) -> usize {
        self.partials[0].len()
    }

    /// The sequential depth-ordered composite (correctness reference).
    ///
    /// Errors with [`PvrError::Config`] on an empty scene (no partials).
    pub fn reference(&self) -> Result<Image<GrayAlpha>, PvrError> {
        rt_imaging::image::reference_composite(&self.partials).map_err(|e| PvrError::Config {
            what: format!("scene has no composable partials: {e}"),
        })
    }

    /// Mean fraction of blank pixels across the partials — the sparsity
    /// the compression codecs exploit.
    pub fn mean_blank_fraction(&self) -> f64 {
        let total: f64 = self
            .partials
            .iter()
            .map(|img| 1.0 - img.count_non_blank() as f64 / img.len() as f64)
            .sum();
        total / self.partials.len() as f64
    }
}

/// Render a scene: generate the dataset, slab-partition it along the view's
/// principal axis, shear-warp each slab, and sort the partials by depth.
pub fn prepare_scene(
    p: usize,
    dataset: Dataset,
    volume_size: usize,
    seed: u64,
    camera: &Camera,
    opts: &RenderOptions,
) -> Result<Scene, PvrError> {
    let volume = dataset.generate(volume_size, seed);
    // Factorize once to learn the principal axis, then partition along it
    // so slabs stack in depth. (The factorization is pure camera/geometry
    // math — identical to what each slab's render derives internally.)
    let f = factorize(camera, volume.dims(), opts.width, opts.height);
    let parts = partition_1d(&volume, p, f.axis)?;
    let order = depth_order(&parts, &f);
    let tf = dataset.transfer_function();
    // Slabs render independently — the embarrassingly parallel stage the
    // multicomputer distributes; on the host they go to worker threads.
    let partials = threads::map(&order, |&i| {
        render_intermediate(&parts[i], &tf, camera, opts).0
    });
    Ok(Scene {
        partials,
        factorization: f,
        opts: *opts,
        dataset,
    })
}

/// Render a *screen-space* scene: like [`prepare_scene`], but each slab's
/// intermediate image is warped to the final frame before composition, so
/// the partials have the paper's full 512×512 (or chosen) resolution
/// regardless of volume size.
///
/// Compositing individually-warped partials is the classic sort-last
/// arrangement (each rank produces a full-resolution screen-space partial).
/// It differs from warp-after-composite by at most the bilinear resampling
/// of semi-transparent boundaries; the figure harness uses it because the
/// paper's composition stage operates on 512×512 frames.
pub fn prepare_scene_screen(
    p: usize,
    dataset: Dataset,
    volume_size: usize,
    seed: u64,
    camera: &Camera,
    opts: &RenderOptions,
) -> Result<Scene, PvrError> {
    let scene = prepare_scene(p, dataset, volume_size, seed, camera, opts)?;
    let f = scene.factorization.clone();
    let partials = threads::map(&scene.partials, |inter| warp_to_screen(inter, &f, opts));
    Ok(Scene {
        partials,
        factorization: f,
        opts: *opts,
        dataset,
    })
}

/// Run one composition over the multicomputer: returns the gathered frame
/// (from the root) and the event trace for cost replay.
///
/// The method compiles through [`Method::plan`], so every plan family runs
/// here. The plan is verified before execution — a failure there is a bug
/// in the method, not in the caller.
pub fn compose_scene(
    scene: &Scene,
    method: Method,
    codec: CodecKind,
) -> Result<(Option<Image<GrayAlpha>>, Trace), PvrError> {
    let (w, h) = (scene.partials[0].width(), scene.partials[0].height());
    let plan = method.plan(scene.p(), w, h)?;
    plan.verify()?;
    let config = ComposeConfig::default().with_codec(codec);
    let (results, trace) = Run::new(&plan, &config).execute(scene.partials.clone());
    let mut frame = None;
    for r in results {
        let out = r?;
        if out.frame.is_some() {
            frame = out.frame;
        }
    }
    Ok((frame, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::rotate::RtVariant;

    fn two_n(blocks: usize) -> Method {
        Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks,
        }
    }

    fn small_scene(p: usize) -> Scene {
        prepare_scene(
            p,
            Dataset::Engine,
            20,
            7,
            &Camera::yaw_pitch(0.3, 0.15),
            &RenderOptions {
                early_termination: 1.0,
                ..RenderOptions::square(48)
            },
        )
        .unwrap()
    }

    #[test]
    fn scene_partials_are_depth_ordered_and_sparse() {
        let scene = small_scene(4);
        assert_eq!(scene.p(), 4);
        assert!(scene.mean_blank_fraction() > 0.2);
    }

    #[test]
    fn every_method_matches_the_sequential_reference() {
        let scene = small_scene(4);
        let want = scene.reference().unwrap();
        let methods = [
            Method::BinarySwap,
            Method::ParallelPipelined,
            Method::DirectSend,
            two_n(4),
            Method::RotateTiling {
                variant: RtVariant::N,
                blocks: 3,
            },
        ];
        for m in methods {
            let (frame, _) = compose_scene(&scene, m, CodecKind::Raw).unwrap();
            let frame = frame.expect("root gathers the frame");
            assert!(
                frame.approx_eq(&want, 1e-4),
                "{} diverges: {:?}",
                m.name(),
                frame.first_mismatch(&want, 1e-4)
            );
        }
    }

    #[test]
    fn tile_owner_scene_matches_the_sequential_reference_exactly() {
        // The tile path's left fold reproduces the reference fold — on
        // rendered content the match is bit-exact, not approximate.
        let scene = small_scene(4);
        let want = scene.reference().unwrap();
        for codec in CodecKind::ALL {
            let method = Method::TileOwner {
                tiles_x: 6,
                tiles_y: 6,
            };
            let (frame, _) = compose_scene(&scene, method, codec).unwrap();
            assert_eq!(
                frame.unwrap().pixels(),
                want.pixels(),
                "codec {codec:?} diverges"
            );
        }
    }

    #[test]
    fn codecs_do_not_change_the_frame() {
        let scene = small_scene(3);
        let want = scene.reference().unwrap();
        for codec in CodecKind::ALL {
            let (frame, _) = compose_scene(&scene, two_n(2), codec).unwrap();
            assert!(
                frame.unwrap().approx_eq(&want, 1e-4),
                "codec {codec:?} diverges"
            );
        }
    }

    #[test]
    fn screen_scene_has_frame_resolution_partials() {
        let scene = prepare_scene_screen(
            3,
            Dataset::Engine,
            16,
            7,
            &Camera::front(),
            &RenderOptions {
                width: 80,
                height: 60,
                early_termination: 1.0,
            },
        )
        .unwrap();
        for img in &scene.partials {
            assert_eq!((img.width(), img.height()), (80, 60));
        }
        assert!(scene.mean_blank_fraction() > 0.2);
        // Composition still matches its own reference exactly.
        let want = scene.reference().unwrap();
        let (frame, _) = compose_scene(&scene, two_n(4), CodecKind::Raw).unwrap();
        assert!(frame.unwrap().approx_eq(&want, 1e-4));
    }

    #[test]
    fn traces_show_codec_savings_on_sparse_scenes() {
        let scene = small_scene(4);
        let (_, raw) = compose_scene(&scene, Method::BinarySwap, CodecKind::Raw).unwrap();
        let (_, trle) = compose_scene(&scene, Method::BinarySwap, CodecKind::Trle).unwrap();
        assert!(
            trle.bytes_sent() < raw.bytes_sent(),
            "TRLE {} vs raw {}",
            trle.bytes_sent(),
            raw.bytes_sent()
        );
    }
}
