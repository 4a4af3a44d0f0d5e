//! Orbit animation: the pipeline run frame after frame with a moving
//! camera — the interactive-rendering scenario that motivates the paper
//! (composition cost is paid *per frame*, which is why its constant
//! factors matter).
//!
//! Each frame re-derives the depth permutation for the current view (the
//! principal axis and traversal direction change as the camera orbits) and
//! reports per-frame virtual timings, so regressions in view-dependent
//! code paths show up as timing or correctness jumps across the sweep.

use crate::pipeline::{FrameRun, PipelineConfig, PipelineOutput};
use crate::PvrError;
use rt_comm::{replay, CostModel};
use rt_core::exec::ScratchPool;
use rt_imaging::GrayAlpha;
use serde::{Deserialize, Serialize};

/// An orbit sweep specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitConfig {
    /// Number of frames.
    pub frames: usize,
    /// Yaw of the first frame (radians).
    pub start_yaw: f64,
    /// Yaw of the last frame (radians).
    pub end_yaw: f64,
    /// Fixed pitch (radians).
    pub pitch: f64,
}

impl OrbitConfig {
    /// A quarter orbit in `frames` steps.
    pub fn quarter(frames: usize) -> Self {
        Self {
            frames,
            start_yaw: 0.0,
            end_yaw: std::f64::consts::FRAC_PI_2,
            pitch: 0.2,
        }
    }
}

/// Per-frame statistics of an orbit run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Frame index.
    pub index: usize,
    /// Camera yaw of this frame.
    pub yaw: f64,
    /// Virtual composition time (compose + gather) under the orbit's cost
    /// model.
    pub compose_time: f64,
    /// Bytes shipped (post-codec).
    pub bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Physical rank at each depth position for this view.
    pub rank_of_depth: Vec<usize>,
}

/// The camera of every frame of `orbit`, with its yaw: index `i` gets yaw
/// interpolated linearly from `start_yaw` to `end_yaw` (a single-frame
/// orbit sits at `start_yaw`). Shared by the serial sweep and the
/// streaming pipeline so both render the exact same views.
pub fn orbit_cameras(orbit: &OrbitConfig) -> Vec<(f64, rt_render::camera::Camera)> {
    (0..orbit.frames)
        .map(|i| {
            let t = if orbit.frames == 1 {
                0.0
            } else {
                i as f64 / (orbit.frames - 1) as f64
            };
            let yaw = orbit.start_yaw + t * (orbit.end_yaw - orbit.start_yaw);
            (yaw, rt_render::camera::Camera::yaw_pitch(yaw, orbit.pitch))
        })
        .collect()
}

/// Render an orbit: `frames` pipeline runs with yaw interpolated across
/// the sweep. Returns each frame's output and its statistics.
pub fn render_orbit(
    p: usize,
    base: &PipelineConfig,
    orbit: &OrbitConfig,
    cost: &CostModel,
) -> Result<Vec<(PipelineOutput, FrameStats)>, PvrError> {
    let pool = ScratchPool::<GrayAlpha>::new();
    render_orbit_with_pool(p, base, orbit, cost, &pool)
}

/// [`render_orbit`] compositing in a caller-owned [`ScratchPool`] — the
/// session-lifetime pool of a [`crate::StreamSession`], so successive
/// sweeps reuse the same buffers.
///
/// The steady state is enforced, not just hoped for: if the pool hands out
/// any fresh allocation after the first frame (a pool-reuse regression),
/// the sweep fails with a typed [`PvrError::Config`] error.
pub fn render_orbit_with_pool(
    p: usize,
    base: &PipelineConfig,
    orbit: &OrbitConfig,
    cost: &CostModel,
    pool: &ScratchPool<GrayAlpha>,
) -> Result<Vec<(PipelineOutput, FrameStats)>, PvrError> {
    if orbit.frames == 0 {
        return Err(PvrError::Config {
            what: "an orbit needs at least one frame".into(),
        });
    }
    let mut out = Vec::with_capacity(orbit.frames);
    // One scratch pool for the whole sweep: frame i+1 composites in the
    // buffers frame i grew, so steady-state frames allocate nothing.
    let mut after_first_frame = None;
    for (i, (yaw, camera)) in orbit_cameras(orbit).into_iter().enumerate() {
        let mut config = *base;
        config.camera = camera;
        let frame = FrameRun::new(p, &config).pool(pool).execute()?;
        match after_first_frame {
            None => after_first_frame = Some(pool.fresh_checkouts()),
            Some(baseline) => {
                let now = pool.fresh_checkouts();
                if now != baseline {
                    return Err(PvrError::Config {
                        what: format!(
                            "scratch pool allocated {} fresh buffer(s) after frame 0 \
                             (pool-reuse regression at frame {i})",
                            now - baseline
                        ),
                    });
                }
            }
        }
        let report = replay(&frame.trace, cost).map_err(|e| PvrError::Config {
            what: format!("trace replay failed: {e}"),
        })?;
        let compose_time = report
            .phase("compose:start", "gather:end")
            .unwrap_or_default();
        let stats = FrameStats {
            index: i,
            yaw,
            compose_time,
            bytes: frame.trace.bytes_sent(),
            messages: frame.trace.message_count(),
            rank_of_depth: frame.rank_of_depth.clone(),
        };
        out.push((frame, stats));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::method::Method;
    use rt_core::rotate::RtVariant;

    fn base() -> PipelineConfig {
        PipelineConfig::small(Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 2,
        })
    }

    #[test]
    fn orbit_renders_every_frame_with_stats() {
        let frames = render_orbit(3, &base(), &OrbitConfig::quarter(3), &CostModel::SP2).unwrap();
        assert_eq!(frames.len(), 3);
        for (i, (out, stats)) in frames.iter().enumerate() {
            assert_eq!(stats.index, i);
            assert!(stats.compose_time > 0.0);
            assert!(stats.bytes > 0);
            assert!(out.frame.count_non_blank() > 0);
        }
        // Yaw sweeps from 0 to π/2.
        assert!((frames[0].1.yaw - 0.0).abs() < 1e-12);
        assert!((frames[2].1.yaw - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn full_orbit_flips_the_depth_order() {
        // Sweeping yaw through π reverses the traversal of the slabs.
        let orbit = OrbitConfig {
            frames: 2,
            start_yaw: 0.0,
            end_yaw: std::f64::consts::PI,
            pitch: 0.0,
        };
        let frames = render_orbit(3, &base(), &orbit, &CostModel::SP2).unwrap();
        assert_eq!(frames[0].1.rank_of_depth, vec![0, 1, 2]);
        assert_eq!(frames[1].1.rank_of_depth, vec![2, 1, 0]);
    }

    #[test]
    fn zero_frame_orbit_is_a_typed_error() {
        let orbit = OrbitConfig {
            frames: 0,
            start_yaw: 0.0,
            end_yaw: 1.0,
            pitch: 0.0,
        };
        let err = render_orbit(2, &base(), &orbit, &CostModel::SP2).unwrap_err();
        assert!(matches!(err, PvrError::Config { .. }), "{err}");
        assert!(err.to_string().contains("at least one frame"), "{err}");
    }

    #[test]
    fn session_pool_is_reused_across_sequential_sweeps() {
        let pool = ScratchPool::new();
        let orbit = OrbitConfig::quarter(3);
        render_orbit_with_pool(3, &base(), &orbit, &CostModel::SP2, &pool).unwrap();
        let after_first_sweep = pool.fresh_checkouts();
        assert!(after_first_sweep > 0);
        // A second sweep over the same session pool allocates nothing new
        // (the sweep itself also enforces flatness after its frame 0).
        render_orbit_with_pool(3, &base(), &orbit, &CostModel::SP2, &pool).unwrap();
        assert_eq!(pool.fresh_checkouts(), after_first_sweep);
    }

    #[test]
    fn single_frame_orbit_is_well_defined() {
        let orbit = OrbitConfig {
            frames: 1,
            start_yaw: 0.4,
            end_yaw: 9.9, // ignored with one frame
            pitch: 0.1,
        };
        let frames = render_orbit(2, &base(), &orbit, &CostModel::SP2).unwrap();
        assert_eq!(frames.len(), 1);
        assert!((frames[0].1.yaw - 0.4).abs() < 1e-12);
    }
}
