//! Seeded inputs. `--seed` feeds the dataset noise seed and the dense-partial
//! hash and nothing else; the program under test only ever sees the images
//! and configs built here, never the seed or a workload name.

use rt_compress::CodecKind;
use rt_core::method::Method;
use rt_core::rotate::RtVariant;
use rt_imaging::pixel::GrayAlpha8;
use rt_imaging::{GrayAlpha, Image};
use rt_pvr::scene::prepare_scene_screen;
use rt_pvr::{OrbitConfig, PipelineConfig};
use rt_render::camera::Camera;
use rt_render::datasets::Dataset;
use rt_render::shearwarp::RenderOptions;

/// Ranks of every wall-clock workload: the sandbox has two cores, and four
/// rank threads already oversubscribe them twice.
pub const P: usize = 4;
/// Frame edge, the paper's 512×512.
pub const FRAME: usize = 512;
/// Cubic volume resolution of the rendered workloads.
pub const VOLUME: usize = 128;
/// Distinct cameras of the pipeline workloads' quarter orbit.
pub const ORBIT_FRAMES: usize = 16;

/// The paper's `2N_RT` with four initial blocks.
pub const RT_2N: Method = Method::RotateTiling {
    variant: RtVariant::TwoN,
    blocks: 4,
};
/// The paper's `N_RT` with three initial blocks.
pub const RT_N: Method = Method::RotateTiling {
    variant: RtVariant::N,
    blocks: 3,
};
/// Tile ownership on the bench line-up's 16×16 grid.
pub const TILES: Method = Method::TileOwner {
    tiles_x: 16,
    tiles_y: 16,
};

/// Which kind of partial images a compose workload composites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// Every pixel non-blank, alpha 64–223, seeded noise: `over` does real
    /// arithmetic on every pixel and no codec can shrink anything.
    Dense,
    /// Screen-space renders of the engine dataset's slabs: large blank
    /// borders, the content the codecs and blank-skipping kernels exploit.
    Sparse,
}

fn mix(mut z: u64) -> u64 {
    // SplitMix64 finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `p` dense partials of `width × height` pixels.
pub fn dense_partials(p: usize, width: usize, height: usize, seed: u64) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|rank| {
            let lane = mix(seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            Image::from_fn(width, height, |x, y| {
                let h = mix(lane ^ ((y * width + x) as u64));
                let a = 64 + (h % 160) as u8;
                // Premultiplied: luminance never exceeds coverage.
                let v = ((h >> 8) % (u64::from(a) + 1)) as u8;
                GrayAlpha8::new(v, a)
            })
        })
        .collect()
}

/// The fixed oblique view every figure of the repo uses.
fn scene_camera() -> Camera {
    Camera::yaw_pitch(0.35, 0.2)
}

/// Full-frame render options. Early ray termination is off: a slab cannot
/// know what the slabs in front of it accumulated, so with it on the
/// partitioned render is not comparable to the sequential one that the
/// frames are verified against.
fn render_options() -> RenderOptions {
    RenderOptions {
        early_termination: 1.0,
        ..RenderOptions::square(FRAME)
    }
}

/// `p` sparse partials: the engine dataset's slabs rendered to the screen
/// and quantised to the 2-byte wire pixel.
pub fn sparse_partials(p: usize, seed: u64) -> Vec<Image<GrayAlpha8>> {
    let opts = render_options();
    let scene = prepare_scene_screen(p, Dataset::Engine, VOLUME, seed, &scene_camera(), &opts)
        .expect("the engine scene renders for any seed");
    scene
        .partials
        .iter()
        .map(|img| img.map(|px| GrayAlpha8::from_f32(*px)))
        .collect()
}

/// Partials of `content` for `p` ranks.
pub fn partials(content: Content, p: usize, seed: u64) -> Vec<Image<GrayAlpha8>> {
    match content {
        Content::Dense => dense_partials(p, FRAME, FRAME, seed),
        Content::Sparse => sparse_partials(p, seed),
    }
}

/// The pipeline workloads' frame settings; the camera is replaced per frame
/// by the orbit's.
pub fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        dataset: Dataset::Engine,
        volume_size: VOLUME,
        seed,
        camera: scene_camera(),
        render: render_options(),
        method: RT_2N,
        codec: CodecKind::Trle,
        root: 0,
    }
}

/// The pipeline workloads' camera path.
pub fn orbit() -> OrbitConfig {
    OrbitConfig::quarter(ORBIT_FRAMES)
}

/// Mean fraction of blank pixels over `partials`.
pub fn blank_fraction<Px: rt_imaging::Pixel>(partials: &[Image<Px>]) -> f64 {
    let blank: usize = partials
        .iter()
        .map(|img| img.len() - img.count_non_blank())
        .sum();
    blank as f64 / partials.iter().map(Image::len).sum::<usize>() as f64
}

/// Pixels the benchmark can hash and compare bit for bit.
pub trait Bits: rt_imaging::Pixel {
    /// The pixel's channels packed into one word.
    fn bits(&self) -> u64;
}

impl Bits for GrayAlpha8 {
    fn bits(&self) -> u64 {
        u64::from(self.v) << 8 | u64::from(self.a)
    }
}

impl Bits for GrayAlpha {
    fn bits(&self) -> u64 {
        u64::from(self.v.to_bits()) << 32 | u64::from(self.a.to_bits())
    }
}

/// 64-bit FNV-1a, one round per word.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, word| {
        (h ^ word).wrapping_mul(PRIME)
    })
}

/// FNV hash of the image's shape and pixel words.
pub fn fnv<Px: Bits>(img: &Image<Px>) -> u64 {
    fnv_words(
        [img.width() as u64, img.height() as u64]
            .into_iter()
            .chain(img.pixels().iter().map(Bits::bits)),
    )
}

/// Whether two images are bit-identical. A branch-free fold, so it runs at
/// memory speed: it is the client's one read of each delivered frame.
pub fn identical<Px: Bits>(a: &Image<Px>, b: &Image<Px>) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels()
            .iter()
            .zip(b.pixels())
            .fold(0u64, |diff, (x, y)| diff | (x.bits() ^ y.bits()))
            == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_imaging::Pixel;

    #[test]
    fn dense_partials_are_deterministic_per_seed_and_fully_covered() {
        let a = dense_partials(3, 32, 16, 7);
        let b = dense_partials(3, 32, 16, 7);
        let c = dense_partials(3, 32, 16, 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(fnv(x), fnv(y));
            assert!(identical(x, y));
        }
        assert_ne!(fnv(&a[0]), fnv(&c[0]), "the seed must change the content");
        assert_ne!(fnv(&a[0]), fnv(&a[1]), "ranks must differ");
        for px in a.iter().flat_map(|img| img.pixels()) {
            assert!(!px.is_blank());
            assert!((64..=223).contains(&px.a), "alpha {}", px.a);
            assert!(px.v <= px.a);
        }
        assert_eq!(blank_fraction(&a), 0.0);
    }

    #[test]
    fn one_flipped_bit_changes_hash_and_identity() {
        let a = dense_partials(1, 8, 8, 1).remove(0);
        let mut b = a.clone();
        let px = *b.get(3, 5);
        b.set(3, 5, GrayAlpha8::new(px.v ^ 1, px.a));
        assert!(!identical(&a, &b));
        assert_ne!(fnv(&a), fnv(&b));
        // Same pixels, different shape.
        let flat = Image::from_vec(64, 1, a.pixels().to_vec()).unwrap();
        assert!(!identical(&a, &flat));
        assert_ne!(fnv(&a), fnv(&flat));
    }

    #[test]
    fn float_frames_compare_by_bit_pattern() {
        let a = Image::from_fn(4, 4, |x, y| GrayAlpha::new(x as f32 * 0.1, y as f32 * 0.2));
        let mut b = a.clone();
        assert!(identical(&a, &b));
        b.set(0, 0, GrayAlpha::new(-0.0, 0.0));
        assert!(!identical(&a, &b), "-0.0 and 0.0 differ in bits");
    }

    #[test]
    fn orbit_and_pipeline_config_are_fixed_by_the_seed_alone() {
        assert_eq!(pipeline_config(5), pipeline_config(5));
        assert_ne!(pipeline_config(5).seed, pipeline_config(6).seed);
        assert_eq!(rt_pvr::orbit_cameras(&orbit()).len(), ORBIT_FRAMES);
    }
}
