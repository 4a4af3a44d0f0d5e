//! The shear-warp factorization renderer (Lacroute & Levoy).
//!
//! Slices perpendicular to the principal axis are resampled (bilinear
//! gather) into the intermediate image and composited front-to-back with
//! early termination; one 2-D warp then produces the screen frame.
//!
//! [`render_intermediate`] renders a [`Subvolume`] into *full-frame
//! intermediate coordinates*: a rank rendering only its slab produces a
//! partial intermediate image that is blank outside the slab's sheared
//! footprint — exactly the input of the paper's composition stage. The
//! parallel pipeline composites intermediate images and warps once at the
//! root ([`warp_to_screen`]), which is how parallel shear-warp systems
//! (including the paper's) are organized.
//!
//! Both resampling loops are scanline kernels: inside one slice (and along
//! one screen row) the geometry that does not depend on the pixel is
//! computed once, voxels are fetched by direct indexing, and samples the
//! transfer function proves transparent are never computed. Their contract
//! is **bit-identity** with the per-sample renderer kept in this module's
//! tests, not a tolerance: the composition stage, the golden digests and
//! every "frame equals the sequential render" check downstream compare
//! `f32` bits (DESIGN.md §9, "Where the words go", has the argument).

use crate::camera::{factorize, plane_of, Camera, Factorization};
use crate::partition::Subvolume;
use crate::tf::TransferFunction;
use rayon::prelude::*;
use rt_imaging::{GrayAlpha, Image, Pixel};

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Output frame width (pixels).
    pub width: usize,
    /// Output frame height (pixels).
    pub height: usize,
    /// Early-ray-termination opacity threshold (1.0 disables).
    pub early_termination: f32,
    /// Render intermediate-image rows on worker threads. The output is
    /// **bit-identical** to the serial render: parallelism is over rows,
    /// which never share an accumulation pixel, and every slice still
    /// reaches a given pixel in depth order (the serial slice loop and the
    /// parallel row loop are interchanged, not reordered).
    pub parallel: bool,
}

impl RenderOptions {
    /// The paper's 512×512 frames.
    pub fn paper() -> Self {
        Self {
            width: 512,
            height: 512,
            early_termination: 0.98,
            parallel: false,
        }
    }

    /// Square frame of the given size.
    pub fn square(n: usize) -> Self {
        Self {
            width: n,
            height: n,
            early_termination: 0.98,
            parallel: false,
        }
    }

    /// Same options with row-parallel rendering switched on or off.
    pub fn with_parallel(self, parallel: bool) -> Self {
        Self { parallel, ..self }
    }
}

/// `⌊x⌋` as an integer, without the libm call `f64::floor` is on baseline
/// x86-64: truncate toward zero, then step down where that rounded up.
/// Exact for `|x| < 2⁶³` — far beyond any image or voxel coordinate — and
/// `⌊x⌋ as f64` is then exact too, so `x - ⌊x⌋` carries the bits
/// `x - x.floor()` does.
#[inline(always)]
fn floor_to_int(x: f64) -> i64 {
    let t = x as i64;
    t - i64::from(t as f64 > x)
}

/// `x.round().clamp(0.0, 255.0) as u8` for `x ∈ [0, 255.5)` — the range an
/// interpolated 8-bit scalar lives in — without the libm `round`: half away
/// from zero is `⌊x⌋`, plus one where the (exactly computed) fraction
/// reaches ½.
#[inline(always)]
fn round_to_u8(x: f64) -> u8 {
    let t = x as i32;
    (t + i32::from(x - f64::from(t) >= 0.5)).min(255) as u8
}

/// One voxel scanline along the in-slice `i` axis: voxel `i` is
/// `data[i * stride]`.
#[derive(Clone, Copy)]
struct VoxelRow<'a> {
    data: &'a [u8],
    stride: usize,
}

impl VoxelRow<'_> {
    /// A scanline outside the slab reads as zeros: every index lands on
    /// the one zero byte.
    const ZERO: VoxelRow<'static> = VoxelRow {
        data: &[0],
        stride: 0,
    };

    /// Voxel `i`, known to be on the scanline.
    #[inline(always)]
    fn at(self, i: i64) -> u8 {
        self.data[i as usize * self.stride]
    }
}

/// What the transfer function proves transparent without sampling: every
/// scalar in `0..=max` is, so a bilinear sample — a convex combination of
/// its four taps, rounded — is too whenever all four taps are `≤ max`.
/// Per voxel scanline `(j, k)` of the slab, `[lo, hi)` is the interval of
/// voxels `> max` (`lo ≥ hi`: none).
#[derive(Debug)]
struct Transparent {
    max: u8,
    nk: usize,
    lo: Vec<u32>,
    hi: Vec<u32>,
}

impl Transparent {
    /// One pass over the slab in memory order, widening each scanline's
    /// interval by every voxel above `max` it meets.
    fn scan(
        voxels: &[u8],
        (ni, nj, nk): (usize, usize, usize),
        (si, sj, sk): (usize, usize, usize),
        max: u8,
    ) -> Self {
        let mut lo = vec![u32::MAX; nj * nk];
        let mut hi = vec![0u32; nj * nk];
        if si == 1 {
            // Scanlines are memory rows.
            for (jk, (lo, hi)) in lo.iter_mut().zip(&mut hi).enumerate() {
                let row = &voxels[(jk / nk) * sj + (jk % nk) * sk..][..ni];
                if let Some(first) = row.iter().position(|&v| v > max) {
                    let last = row.iter().rposition(|&v| v > max).unwrap_or(first);
                    (*lo, *hi) = (first as u32, last as u32 + 1);
                }
            }
        } else {
            // The principal axis is x: a memory row holds voxel `i` of the
            // `nk` scanlines sharing `j`.
            debug_assert_eq!(sk, 1);
            for j in 0..nj {
                let (lo, hi) = (&mut lo[j * nk..][..nk], &mut hi[j * nk..][..nk]);
                for i in 0..ni {
                    let row = &voxels[j * sj + i * si..][..nk];
                    for ((lo, hi), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
                        if v > max {
                            *lo = (*lo).min(i as u32);
                            *hi = i as u32 + 1;
                        }
                    }
                }
            }
        }
        Transparent { max, nk, lo, hi }
    }
}

/// A slab's voxel scanlines as a sweep along `axis` addresses them: extents
/// `(ni, nj, nk)` and strides along the in-slice axes `(i, j)` and the
/// slice axis `k` of the x-fastest buffer.
fn scanlines(sub: &Subvolume, axis: usize) -> ((usize, usize, usize), (usize, usize, usize)) {
    let (nx, ny, _) = sub.vol.dims();
    let strides = [1, nx, nx * ny];
    let (i, j) = plane_of(axis);
    (
        (sub.vol.dim(i), sub.vol.dim(j), sub.vol.dim(axis)),
        (strides[i], strides[j], strides[axis]),
    )
}

/// The view-independent half of rendering a slab, good for every camera
/// whose principal axis is `axis`: the classification table premultiplied
/// once, and what the table's transparent prefix lets a sweep skip.
#[derive(Debug)]
struct Classification {
    axis: usize,
    classes: [GrayAlpha; 256],
    transparent: Option<Transparent>,
}

impl Classification {
    fn new(sub: &Subvolume, tf: &TransferFunction, axis: usize) -> Self {
        let (dims, stride) = scanlines(sub, axis);
        Classification {
            axis,
            classes: std::array::from_fn(|s| tf.classify_premultiplied(s as u8)),
            transparent: tf
                .transparent_prefix()
                .map(|max| Transparent::scan(sub.vol.voxels(), dims, stride, max)),
        }
    }
}

/// A subvolume classified ahead of its views (Lacroute & Levoy classify per
/// principal axis before rendering): everything [`render_intermediate`]
/// derives that no camera changes, so an animation pays it once per slab
/// instead of once per frame.
#[derive(Debug)]
pub struct PreparedSlab {
    sub: Subvolume,
    classification: Classification,
}

impl PreparedSlab {
    /// Classify `sub` under `tf` for sweeps along principal axis `axis`
    /// (0 = x, 1 = y, 2 = z).
    pub fn new(sub: Subvolume, tf: &TransferFunction, axis: usize) -> Self {
        let classification = Classification::new(&sub, tf, axis);
        PreparedSlab {
            sub,
            classification,
        }
    }

    /// The voxels and their placement in the full grid.
    pub fn sub(&self) -> &Subvolume {
        &self.sub
    }

    /// [`render_intermediate`] of this slab under the transfer function it
    /// was prepared with, bit for bit. A camera whose principal axis is not
    /// the prepared one renders the same pixels, only without skipping.
    pub fn render(
        &self,
        camera: &Camera,
        opts: &RenderOptions,
    ) -> (Image<GrayAlpha>, Factorization) {
        let f = factorize(camera, self.sub.full, opts.width, opts.height);
        sweep(&self.sub, &self.classification, f, opts)
    }
}

impl std::borrow::Borrow<Subvolume> for PreparedSlab {
    fn borrow(&self) -> &Subvolume {
        &self.sub
    }
}

/// The slab as one view's sweep sees it: voxels addressed by in-slice
/// `(i, j)` and slice `k`, the slab's offset inside the full grid, and the
/// classification with what may be skipped.
struct Slab<'a> {
    voxels: &'a [u8],
    ni: usize,
    nj: usize,
    stride: (usize, usize, usize),
    off_i: f64,
    off_j: f64,
    k_lo: usize,
    classes: &'a [GrayAlpha; 256],
    transparent: Option<&'a Transparent>,
    early_termination: f32,
}

impl<'a> Slab<'a> {
    fn new(
        sub: &'a Subvolume,
        classification: &'a Classification,
        f: &Factorization,
        opts: &RenderOptions,
    ) -> Self {
        let ((ni, nj, _), stride) = scanlines(sub, f.axis);
        let off = [sub.offset.0, sub.offset.1, sub.offset.2];
        Slab {
            voxels: sub.vol.voxels(),
            ni,
            nj,
            stride,
            off_i: off[f.plane.0] as f64,
            off_j: off[f.plane.1] as f64,
            k_lo: off[f.axis],
            classes: &classification.classes,
            // The intervals are laid out along the prepared axis's
            // scanlines; along another they prove nothing.
            transparent: classification
                .transparent
                .as_ref()
                .filter(|_| classification.axis == f.axis),
            early_termination: opts.early_termination,
        }
    }

    /// Scanline `j` of local slice `k`; zeros outside the slab.
    #[inline]
    fn row(&self, j: i64, k: usize) -> VoxelRow<'a> {
        if j < 0 || j as usize >= self.nj {
            return VoxelRow::ZERO;
        }
        VoxelRow {
            data: &self.voxels[j as usize * self.stride.1 + k * self.stride.2..],
            stride: self.stride.0,
        }
    }
}

/// One slice of the principal-axis sweep, with its shear offsets and the
/// intermediate-image window its footprint can touch — precomputed once so
/// the serial slice-major loop and the parallel row-major loop interchange
/// over the exact same numbers.
struct SliceJob {
    k: usize,
    u_off: f64,
    v_off: f64,
    iu0: usize,
    iu1: usize,
    iv0: usize,
    iv1: usize,
}

/// The depth-ordered slice jobs of `sub`; both drivers walk this list in
/// order, so every pixel sees its slices front-to-back either way.
fn slice_jobs(sub: &Subvolume, f: &Factorization) -> Vec<SliceJob> {
    let (k_lo, k_hi) = sub.extent(f.axis);
    let (i_lo, i_hi) = sub.extent(f.plane.0);
    let (j_lo, j_hi) = sub.extent(f.plane.1);
    let (w, h) = f.inter_size;
    f.slice_order()
        .filter(|&k| k >= k_lo && k < k_hi)
        .map(|k| {
            let kf = k as f64;
            let u_off = f.origin.0 + f.shear.0 * kf;
            let v_off = f.origin.1 + f.shear.1 * kf;
            // Intermediate pixels whose pre-image lies inside this slice's
            // in-slice extent.
            SliceJob {
                k,
                u_off,
                v_off,
                iu0: (i_lo as f64 + u_off).floor().max(0.0) as usize,
                iu1: ((i_hi as f64 + u_off).ceil() as usize).min(w.saturating_sub(1)),
                iv0: (j_lo as f64 + v_off).floor().max(0.0) as usize,
                iv1: ((j_hi as f64 + v_off).ceil() as usize).min(h.saturating_sub(1)),
            }
        })
        .collect()
}

/// What `composite_row` hoists out of its pixel loops: everything that is a
/// function of `(slice, image row)` alone.
struct RowTaps<'a> {
    /// Voxel scanlines `j0` and `j0 + 1`.
    rows: [VoxelRow<'a>; 2],
    /// Their bilinear weights `1 - fj`, `fj`.
    wj: [f64; 2],
    /// `iu - u_off - off_i` is the in-slice column coordinate `li`.
    u_off: f64,
    off_i: f64,
    /// Skip a sample whose four taps are all `≤ skip_max` (−1: never).
    skip_max: i32,
}

impl RowTaps<'_> {
    /// In-slice column coordinate of pixel `iu` and its floor — monotone in
    /// `iu`, which is all the run boundaries below rely on.
    #[inline(always)]
    fn column(&self, iu: usize) -> (f64, i64) {
        let li = (iu as f64 - self.u_off) - self.off_i;
        (li, floor_to_int(li))
    }

    /// The first pixel of `from..to` whose column is at least `target`
    /// (`to` if none is): a guess from the real-number inverse, stepped to
    /// the exact answer.
    fn first_at(&self, target: i64, from: usize, to: usize) -> usize {
        let guess = (target as f64 + self.off_i + self.u_off).ceil();
        let mut iu = (guess.max(from as f64) as usize).min(to);
        while iu < to && self.column(iu).1 < target {
            iu += 1;
        }
        while iu > from && self.column(iu - 1).1 >= target {
            iu -= 1;
        }
        iu
    }

    /// Sample, classify and composite the pixels `run` (the first is pixel
    /// `iu0` of the image row), fetching voxel `i` of a scanline with `tap`.
    #[inline(always)]
    fn composite(
        &self,
        slab: &Slab,
        iu0: usize,
        run: &mut [GrayAlpha],
        tap: impl Fn(VoxelRow, i64) -> u8,
    ) {
        let [r0, r1] = self.rows;
        for (iu, acc) in (iu0..).zip(run) {
            if acc.a >= slab.early_termination {
                continue;
            }
            let (li, i0) = self.column(iu);
            let v = [tap(r0, i0), tap(r0, i0 + 1), tap(r1, i0), tap(r1, i0 + 1)];
            if i32::from(v[0].max(v[1]).max(v[2]).max(v[3])) <= self.skip_max {
                continue;
            }
            let fi = li - i0 as f64;
            let wi = [1.0 - fi, fi];
            // A tap of weight zero adds +0 to a sum that is never −0, so
            // the four terms need no `w > 0` tests to match a sampler that
            // skips them.
            let scalar = (wi[0] * self.wj[0]) * f64::from(v[0])
                + (wi[1] * self.wj[0]) * f64::from(v[1])
                + (wi[0] * self.wj[1]) * f64::from(v[2])
                + (wi[1] * self.wj[1]) * f64::from(v[3]);
            let sample = slab.classes[usize::from(round_to_u8(scalar))];
            if sample.a <= 0.0 {
                continue;
            }
            // Front-to-back: the accumulated pixel is nearer.
            *acc = acc.over(&sample);
        }
    }
}

/// Composite every pixel slice `job` contributes to row `iv` into that row
/// of the intermediate image. This is the *only* place sample values are
/// produced, shared verbatim by the serial and parallel drivers — identical
/// float expressions per `(k, iv, iu)` is what makes the two orders
/// bit-identical.
///
/// Inside one slice the resampling is a translation, so the row reads two
/// voxel scanlines with fixed weights, and splits into the pixels the
/// transfer function cannot prove transparent (the rest are never
/// sampled), and those into an interior run whose taps all lie on the slab
/// (fetched without a range test) and the few edge pixels either side.
fn composite_row(slab: &Slab, job: &SliceJob, iv: usize, row: &mut [GrayAlpha]) {
    let lj = (iv as f64 - job.v_off) - slab.off_j;
    let j0 = floor_to_int(lj);
    let fj = lj - j0 as f64;
    let k = job.k - slab.k_lo;
    let mut taps = RowTaps {
        rows: [slab.row(j0, k), slab.row(j0 + 1, k)],
        wj: [1.0 - fj, fj],
        u_off: job.u_off,
        off_i: slab.off_i,
        skip_max: -1,
    };
    let mut end = (job.iu1 + 1).min(row.len());
    let mut start = job.iu0.min(end);
    if let Some(t) = slab.transparent {
        // Only a pixel with a tap inside the union of the two scanlines'
        // intervals can be visible: columns `lo - 1 ..= hi - 1`.
        let (mut lo, mut hi) = (u32::MAX, 0);
        for j in [j0, j0 + 1] {
            if j >= 0 && (j as usize) < slab.nj {
                lo = lo.min(t.lo[j as usize * t.nk + k]);
                hi = hi.max(t.hi[j as usize * t.nk + k]);
            }
        }
        if lo >= hi {
            return;
        }
        start = taps.first_at(i64::from(lo) - 1, start, end);
        end = taps.first_at(i64::from(hi), start, end);
        taps.skip_max = i32::from(t.max);
    }
    let ni = slab.ni as i64;
    let inner = taps.first_at(0, start, end);
    let inner_end = taps.first_at(ni - 1, inner, end);
    let edge = |r: VoxelRow, i: i64| if i >= 0 && i < ni { r.at(i) } else { 0 };
    taps.composite(slab, start, &mut row[start..inner], edge);
    taps.composite(slab, inner, &mut row[inner..inner_end], |r, i| r.at(i));
    taps.composite(slab, inner_end, &mut row[inner_end..end], edge);
}

/// Render a subvolume into the full-frame intermediate image.
///
/// Returns the intermediate image and the factorization (needed for the
/// final warp and for depth ordering). All ranks of a partitioned volume
/// produce images of identical shape for the same camera/options, because
/// the factorization depends only on `sub.full`.
///
/// Samples the transfer function proves transparent are skipped without
/// being computed, whatever the table looks like; every pixel carries the
/// bits a plain sample-classify-composite loop over all of them produces.
pub fn render_intermediate(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
) -> (Image<GrayAlpha>, Factorization) {
    let f = factorize(camera, sub.full, opts.width, opts.height);
    sweep(sub, &Classification::new(sub, tf, f.axis), f, opts)
}

/// The per-view half: sweep the classified slab's slices front to back
/// under factorization `f` into a blank intermediate image.
fn sweep(
    sub: &Subvolume,
    classification: &Classification,
    f: Factorization,
    opts: &RenderOptions,
) -> (Image<GrayAlpha>, Factorization) {
    let mut inter: Image<GrayAlpha> = Image::blank(f.inter_size.0, f.inter_size.1);
    let w = inter.width();
    let slab = Slab::new(sub, classification, &f, opts);
    let jobs = slice_jobs(sub, &f);

    if opts.parallel && w > 0 && inter.height() > 0 {
        // Row-parallel interchange: rows are independent accumulation
        // domains, and each row still applies its slices in `jobs` order.
        inter
            .pixels_mut()
            .par_chunks_mut(w)
            .enumerate()
            .for_each(|(iv, row)| {
                for job in &jobs {
                    if iv >= job.iv0 && iv <= job.iv1 {
                        composite_row(&slab, job, iv, row);
                    }
                }
            });
    } else {
        let pixels = inter.pixels_mut();
        for job in &jobs {
            for iv in job.iv0..=job.iv1 {
                let row = &mut pixels[iv * w..(iv + 1) * w];
                composite_row(&slab, job, iv, row);
            }
        }
    }
    (inter, f)
}

/// Bilinear sample of a premultiplied gray image (`iw`-pixel rows) at
/// continuous coordinates, blank outside.
#[inline(always)]
fn warp_pixel(src: &[GrayAlpha], iw: usize, ih: usize, u: f64, v: f64) -> GrayAlpha {
    let mut out = GrayAlpha::new(0.0, 0.0);
    let (u0, v0) = (floor_to_int(u), floor_to_int(v));
    let (w, h) = (iw as i64, ih as i64);
    if u0 < -1 || v0 < -1 || u0 >= w || v0 >= h {
        // All four taps are outside the image.
        return out;
    }
    let (fu, fv) = ((u - u0 as f64) as f32, (v - v0 as f64) as f32);
    let (wu, wv) = ([1.0 - fu, fu], [1.0 - fv, fv]);
    let mut tap = |w: f32, p: GrayAlpha| {
        if w <= 0.0 {
            return;
        }
        out.v += w * p.v;
        out.a += w * p.a;
    };
    if u0 >= 0 && v0 >= 0 && u0 + 1 < w && v0 + 1 < h {
        let at = v0 as usize * iw + u0 as usize;
        let (top, bottom) = (&src[at..at + 2], &src[at + iw..at + iw + 2]);
        tap(wu[0] * wv[0], top[0]);
        tap(wu[1] * wv[0], top[1]);
        tap(wu[0] * wv[1], bottom[0]);
        tap(wu[1] * wv[1], bottom[1]);
    } else {
        for (dv, wv) in (0..2).zip(wv) {
            for (du, wu) in (0..2).zip(wu) {
                let (x, y) = (u0 + du, v0 + dv);
                if x >= 0 && y >= 0 && x < w && y < h {
                    tap(wu * wv, src[y as usize * iw + x as usize]);
                }
            }
        }
    }
    out
}

/// Warp a composited intermediate image to the screen frame.
// The loops below push one pixel per screen position, which is all
// `Image::from_vec` asks for.
#[allow(clippy::expect_used)]
pub fn warp_to_screen(
    inter: &Image<GrayAlpha>,
    f: &Factorization,
    opts: &RenderOptions,
) -> Image<GrayAlpha> {
    // A rotation view's warp is singular only at scale zero, the auto-fit
    // of a frame without area: there is no screen pixel to sample for.
    let Some(inv) = f.warp.inverse() else {
        return Image::blank(opts.width, opts.height);
    };
    let (src, iw, ih) = (inter.pixels(), inter.width(), inter.height());
    let mut screen = Vec::with_capacity(opts.width * opts.height);
    for y in 0..opts.height {
        // `Affine2::apply`, with its `y` products computed once per row.
        let (bu, bv) = (inv.x[1] * y as f64, inv.y[1] * y as f64);
        screen.extend((0..opts.width).map(|x| {
            let u = inv.x[0] * x as f64 + bu + inv.x[2];
            let v = inv.y[0] * x as f64 + bv + inv.y[2];
            warp_pixel(src, iw, ih, u, v)
        }));
    }
    Image::from_vec(opts.width, opts.height, screen).expect("one pixel per screen position")
}

/// Render a subvolume straight to the screen: intermediate pass + warp.
pub fn render(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
) -> Image<GrayAlpha> {
    let (inter, f) = render_intermediate(sub, tf, camera, opts);
    warp_to_screen(&inter, &f, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use crate::partition::{depth_order, partition_1d};
    use rt_imaging::image::reference_composite;

    fn mean_abs_diff(a: &Image<GrayAlpha>, b: &Image<GrayAlpha>) -> f64 {
        assert_eq!(a.len(), b.len());
        let sum: f64 = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(p, q)| ((p.v - q.v).abs() + (p.a - q.a).abs()) as f64)
            .sum();
        sum / a.len() as f64
    }

    #[test]
    fn blank_volume_renders_blank() {
        let sub = Subvolume::whole(crate::volume::Volume::zeros(8, 8, 8));
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let img = render(&sub, &tf, &Camera::front(), &RenderOptions::square(32));
        assert_eq!(img.count_non_blank(), 0);
    }

    #[test]
    fn sphere_renders_centered_blob() {
        let sub = Subvolume::whole(Dataset::Sphere.generate(32, 0));
        let tf = Dataset::Sphere.transfer_function();
        let opts = RenderOptions::square(96);
        let img = render(&sub, &tf, &Camera::front(), &opts);
        // Content near the center, blank at the corners.
        assert!(img.get(48, 48).a > 0.3, "{:?}", img.get(48, 48));
        assert!(img.get(2, 2).is_blank());
        assert!(img.get(93, 93).is_blank());
        // Roughly symmetric.
        let l = img.get(30, 48).a;
        let r = img.get(66, 48).a;
        assert!((l - r).abs() < 0.15, "{l} vs {r}");
    }

    #[test]
    fn partials_composite_to_the_full_intermediate() {
        // The fundamental parallel-rendering identity: the depth-ordered
        // over-composite of the slab partials equals the full render.
        let vol = Dataset::Engine.generate(24, 3);
        let tf = Dataset::Engine.transfer_function();
        let opts = RenderOptions {
            early_termination: 1.0, // exact associativity check
            ..RenderOptions::square(64)
        };
        for camera in [
            Camera::front(),
            Camera::yaw_pitch(0.4, 0.2),
            Camera::yaw_pitch(std::f64::consts::PI - 0.3, -0.5),
        ] {
            let full = Subvolume::whole(vol.clone());
            let (want, f) = render_intermediate(&full, &tf, &camera, &opts);
            let parts = partition_1d(&vol, 3, f.axis).unwrap();
            let order = depth_order(&parts, &f);
            let partials: Vec<Image<GrayAlpha>> = order
                .iter()
                .map(|&i| render_intermediate(&parts[i], &tf, &camera, &opts).0)
                .collect();
            let got = reference_composite(&partials).unwrap();
            let diff = mean_abs_diff(&want, &got);
            assert!(diff < 1e-4, "camera {camera:?}: mean abs diff {diff}");
        }
    }

    #[test]
    fn early_termination_changes_little() {
        let vol = Dataset::Head.generate(24, 3);
        let tf = Dataset::Head.transfer_function();
        let sub = Subvolume::whole(vol);
        let exact = RenderOptions {
            early_termination: 1.0,
            ..RenderOptions::square(64)
        };
        let fast = RenderOptions::square(64);
        let a = render(&sub, &tf, &Camera::yaw_pitch(0.3, 0.1), &exact);
        let b = render(&sub, &tf, &Camera::yaw_pitch(0.3, 0.1), &fast);
        assert!(mean_abs_diff(&a, &b) < 0.01);
    }

    #[test]
    fn rotated_views_move_content() {
        let vol = Dataset::Engine.generate(24, 3);
        let tf = Dataset::Engine.transfer_function();
        let sub = Subvolume::whole(vol);
        let opts = RenderOptions::square(64);
        let a = render(&sub, &tf, &Camera::front(), &opts);
        let b = render(&sub, &tf, &Camera::yaw_pitch(0.7, 0.0), &opts);
        assert!(a.count_non_blank() > 0);
        assert!(b.count_non_blank() > 0);
        assert!(mean_abs_diff(&a, &b) > 1e-3, "different views must differ");
    }

    #[test]
    fn partial_images_have_blank_margins() {
        // Each slab's partial must be mostly blank — the property TRLE and
        // the bounding codecs exploit.
        let vol = Dataset::Brain.generate(24, 3);
        let tf = Dataset::Brain.transfer_function();
        let parts = partition_1d(&vol, 4, 2).unwrap();
        let opts = RenderOptions::square(64);
        for part in &parts {
            let (img, _) = render_intermediate(part, &tf, &Camera::front(), &opts);
            let blank = 1.0 - img.count_non_blank() as f64 / img.len() as f64;
            assert!(blank > 0.3, "blank fraction {blank}");
        }
    }

    #[test]
    fn warp_preserves_total_presence_roughly() {
        // The warp resamples but must neither invent nor lose most alpha
        // mass for a front view at moderate scale.
        let vol = Dataset::Sphere.generate(24, 0);
        let tf = Dataset::Sphere.transfer_function();
        let sub = Subvolume::whole(vol);
        let opts = RenderOptions::square(96);
        let (inter, f) = render_intermediate(&sub, &tf, &Camera::front(), &opts);
        let screen = warp_to_screen(&inter, &f, &opts);
        let mass =
            |img: &Image<GrayAlpha>| -> f64 { img.pixels().iter().map(|p| p.a as f64).sum() };
        let scale = Camera::front().effective_scale((24, 24, 24), 96, 96);
        let expected = mass(&inter) * scale * scale;
        let got = mass(&screen);
        assert!(
            (got - expected).abs() / expected < 0.1,
            "inter mass {} × {scale}² vs screen {got}",
            mass(&inter)
        );
    }
}

/// The scanline kernels against the per-sample renderer they replaced,
/// which is kept here verbatim as their oracle: every output `f32` must
/// carry the same bits.
#[cfg(test)]
mod kernel_tests {
    use super::*;
    use crate::datasets::Dataset;
    use crate::partition::partition_1d;
    use crate::volume::Volume;
    use proptest::prelude::*;

    /// Bilinear scalar sample of slice `k` (global principal-axis index) at
    /// global in-slice coordinates `(gi, gj)`, reading 0 outside the
    /// subvolume.
    fn slice_sample(sub: &Subvolume, f: &Factorization, gi: f64, gj: f64, k: usize) -> f64 {
        let off = [sub.offset.0, sub.offset.1, sub.offset.2];
        let li = gi - off[f.plane.0] as f64;
        let lj = gj - off[f.plane.1] as f64;
        let lk = k as isize - off[f.axis] as isize;
        let (i0, j0) = (li.floor(), lj.floor());
        let (fi, fj) = (li - i0, lj - j0);
        let (i0, j0) = (i0 as isize, j0 as isize);
        let mut acc = 0.0;
        for dj in 0..2 {
            for di in 0..2 {
                let w =
                    (if di == 0 { 1.0 - fi } else { fi }) * (if dj == 0 { 1.0 - fj } else { fj });
                if w > 0.0 {
                    let mut c = [0isize; 3];
                    c[f.plane.0] = i0 + di;
                    c[f.plane.1] = j0 + dj;
                    c[f.axis] = lk;
                    acc += w * sub.vol.at_or_zero(c[0], c[1], c[2]) as f64;
                }
            }
        }
        acc
    }

    fn composite_row_reference(
        sub: &Subvolume,
        f: &Factorization,
        tf: &TransferFunction,
        opts: &RenderOptions,
        job: &SliceJob,
        iv: usize,
        row: &mut [GrayAlpha],
    ) {
        let gj = iv as f64 - job.v_off;
        for (iu, acc) in row.iter_mut().enumerate().take(job.iu1 + 1).skip(job.iu0) {
            if acc.a >= opts.early_termination {
                continue;
            }
            let gi = iu as f64 - job.u_off;
            let scalar = slice_sample(sub, f, gi, gj, job.k);
            let s8 = scalar.round().clamp(0.0, 255.0) as u8;
            if tf.is_transparent(s8) {
                continue;
            }
            let sample = tf.classify_premultiplied(s8);
            *acc = acc.over(&sample);
        }
    }

    fn render_intermediate_reference(
        sub: &Subvolume,
        tf: &TransferFunction,
        camera: &Camera,
        opts: &RenderOptions,
    ) -> (Image<GrayAlpha>, Factorization) {
        let f = factorize(camera, sub.full, opts.width, opts.height);
        let mut inter: Image<GrayAlpha> = Image::blank(f.inter_size.0, f.inter_size.1);
        let w = inter.width();
        let pixels = inter.pixels_mut();
        for job in &slice_jobs(sub, &f) {
            for iv in job.iv0..=job.iv1 {
                let row = &mut pixels[iv * w..(iv + 1) * w];
                composite_row_reference(sub, &f, tf, opts, job, iv, row);
            }
        }
        (inter, f)
    }

    fn image_sample_reference(img: &Image<GrayAlpha>, u: f64, v: f64) -> GrayAlpha {
        let (u0, v0) = (u.floor(), v.floor());
        let (fu, fv) = ((u - u0) as f32, (v - v0) as f32);
        let (u0, v0) = (u0 as isize, v0 as isize);
        let mut out = GrayAlpha::new(0.0, 0.0);
        for dv in 0..2isize {
            for du in 0..2isize {
                let w =
                    (if du == 0 { 1.0 - fu } else { fu }) * (if dv == 0 { 1.0 - fv } else { fv });
                if w <= 0.0 {
                    continue;
                }
                let (x, y) = (u0 + du, v0 + dv);
                if x < 0 || y < 0 || x as usize >= img.width() || y as usize >= img.height() {
                    continue;
                }
                let p = img.get(x as usize, y as usize);
                out.v += w * p.v;
                out.a += w * p.a;
            }
        }
        out
    }

    fn warp_reference(
        inter: &Image<GrayAlpha>,
        f: &Factorization,
        opts: &RenderOptions,
    ) -> Image<GrayAlpha> {
        let inv = f.warp.inverse().unwrap();
        Image::from_fn(opts.width, opts.height, |x, y| {
            let (u, v) = inv.apply(x as f64, y as f64);
            image_sample_reference(inter, u, v)
        })
    }

    fn bits(img: &Image<GrayAlpha>) -> Vec<(u32, u32)> {
        img.pixels()
            .iter()
            .map(|p| (p.v.to_bits(), p.a.to_bits()))
            .collect()
    }

    /// Both drivers of the kernel and the warp, against the reference —
    /// and one slab prepared for `camera`'s axis, rendered from `camera`
    /// and from a rolled, zoomed camera that shares it.
    fn assert_kernel_matches_reference(
        sub: &Subvolume,
        tf: &TransferFunction,
        camera: &Camera,
        opts: &RenderOptions,
        what: &str,
    ) {
        let (want, f) = render_intermediate_reference(sub, tf, camera, opts);
        for parallel in [false, true] {
            let (got, got_f) = render_intermediate(sub, tf, camera, &opts.with_parallel(parallel));
            assert_eq!(got_f, f);
            assert_eq!(got.width(), want.width());
            assert_eq!(
                bits(&got),
                bits(&want),
                "{what}: partial, parallel={parallel}"
            );
        }
        let prepared = PreparedSlab::new(sub.clone(), tf, f.axis);
        let rolled = Camera {
            roll: camera.roll + 0.7,
            scale: 1.3,
            ..*camera
        };
        let (want_rolled, rolled_f) = render_intermediate_reference(sub, tf, &rolled, opts);
        assert_eq!(rolled_f.axis, f.axis, "roll and scale keep the view's axis");
        for (view, want) in [(camera, &want), (&rolled, &want_rolled)] {
            let (got, _) = prepared.render(view, opts);
            assert_eq!(bits(&got), bits(want), "{what}: prepared slab, {view:?}");
        }
        assert_eq!(
            bits(&warp_to_screen(&want, &f, opts)),
            bits(&warp_reference(&want, &f, opts)),
            "{what}: screen"
        );
    }

    #[test]
    fn kernel_equivalence_on_preset_scenes() {
        for dataset in [Dataset::Engine, Dataset::Brain, Dataset::Head] {
            let sub = Subvolume::whole(dataset.generate(24, 5));
            let tf = dataset.transfer_function();
            for camera in [Camera::front(), Camera::yaw_pitch(0.4, -0.3)] {
                let opts = RenderOptions::square(72);
                assert_kernel_matches_reference(&sub, &tf, &camera, &opts, dataset.name());
            }
        }
        // Slab partials, early termination off, and a table whose
        // transparent scalars are not one interval.
        let vol = Dataset::Engine.generate(24, 5);
        let camera = Camera::yaw_pitch(0.3, 0.15);
        let opts = RenderOptions {
            early_termination: 1.0,
            ..RenderOptions::square(64)
        };
        let f = factorize(&camera, vol.dims(), 64, 64);
        let side = Camera::yaw_pitch(std::f64::consts::FRAC_PI_2, 0.1);
        for part in partition_1d(&vol, 3, f.axis).unwrap() {
            for tf in [
                Dataset::Engine.transfer_function(),
                TransferFunction::two_windows(),
            ] {
                assert_kernel_matches_reference(&part, &tf, &camera, &opts, "engine slab");
                // A slab prepared for one axis and viewed along another
                // skips nothing and still carries the reference's bits.
                let (want, want_f) = render_intermediate_reference(&part, &tf, &side, &opts);
                assert_ne!(want_f.axis, f.axis);
                let (got, _) = PreparedSlab::new(part.clone(), &tf, f.axis).render(&side, &opts);
                assert_eq!(bits(&got), bits(&want), "engine slab off its prepared axis");
            }
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Voxel content by `kind`: empty, solid, noise, sparse noise, or noise
    /// hugging the low scalars where transfer functions switch on.
    fn content(kind: u8, seed: u64, (nx, ny, nz): (usize, usize, usize)) -> Volume {
        let mut state = seed;
        let data = (0..nx * ny * nz)
            .map(|_| {
                let r = splitmix(&mut state);
                match kind {
                    0 => 0,
                    1 => 255,
                    2 => r as u8,
                    3 if r >> 8 & 3 != 0 => 0,
                    3 => r as u8,
                    _ => (r % 64) as u8,
                }
            })
            .collect();
        Volume::from_vec(nx, ny, nz, data).unwrap()
    }

    /// A piecewise-linear table by `kind`: all transparent, none
    /// transparent, the two-window table, or 1–5 random control points of
    /// which about half are transparent.
    fn table(kind: u8, seed: u64) -> TransferFunction {
        let mut state = seed;
        match kind {
            0 => TransferFunction::from_points(&[(0, 0.7, 0.0)]),
            1 => TransferFunction::from_points(&[(0, 0.2, 0.05), (255, 1.0, 0.9)]),
            2 => TransferFunction::two_windows(),
            _ => {
                let mut scalars: Vec<u8> = (0..1 + splitmix(&mut state) % 5)
                    .map(|_| splitmix(&mut state) as u8)
                    .collect();
                scalars.sort_unstable();
                let points: Vec<(u8, f32, f32)> = scalars
                    .into_iter()
                    .map(|s| {
                        let r = splitmix(&mut state);
                        let opacity = if r & 1 == 0 {
                            0.0
                        } else {
                            (r >> 8 & 0xff) as f32 / 255.0
                        };
                        (s, (r >> 16 & 0xff) as f32 / 255.0, opacity)
                    })
                    .collect();
                TransferFunction::from_points(&points)
            }
        }
    }

    proptest! {
        #[test]
        fn kernel_equivalence(
            dims in (1usize..=17, 1usize..=17, 1usize..=17),
            before in (0usize..=4, 0usize..=4, 0usize..=4),
            after in (0usize..=4, 0usize..=4, 0usize..=4),
            kinds in (0u8..=4, 0u8..=5),
            seed in any::<u64>(),
            angles in (-3.2f64..3.2, -1.6f64..1.6, -3.2f64..3.2),
            scale in prop_oneof![Just(0.0), 0.3f64..4.0],
            frame in (1usize..=48, 1usize..=48),
            early_termination in prop_oneof![Just(1.0f32), Just(0.98f32), 0.2f32..1.0],
        ) {
            let sub = Subvolume {
                vol: content(kinds.0, seed, dims),
                offset: before,
                full: (
                    before.0 + dims.0 + after.0,
                    before.1 + dims.1 + after.1,
                    before.2 + dims.2 + after.2,
                ),
            };
            let tf = table(kinds.1, seed ^ 0x5bd1_e995);
            let camera = Camera { yaw: angles.0, pitch: angles.1, roll: angles.2, scale };
            let opts = RenderOptions {
                width: frame.0,
                height: frame.1,
                early_termination,
                parallel: false,
            };
            assert_kernel_matches_reference(&sub, &tf, &camera, &opts, "random scene");
        }
    }

    #[test]
    fn inline_floor_and_round_match_libm() {
        let mut state = 7;
        for _ in 0..200_000 {
            let r = splitmix(&mut state);
            let x = (r >> 11) as f64 / (1u64 << 53) as f64;
            for x in [x * 600.0 - 300.0, (r % 600) as f64 - 300.0, x - 0.5] {
                assert_eq!(floor_to_int(x) as f64, x.floor(), "floor {x}");
            }
            for x in [x * 255.5, (r % 256) as f64, (r % 255) as f64 + 0.5] {
                assert_eq!(
                    round_to_u8(x),
                    x.round().clamp(0.0, 255.0) as u8,
                    "round {x}"
                );
            }
        }
        for x in [
            0.49999999999999994,
            0.5,
            254.5,
            255.49999999999997,
            -0.0,
            -1e-300,
        ] {
            assert_eq!(floor_to_int(x) as f64, x.floor(), "floor {x}");
            if x >= 0.0 {
                assert_eq!(
                    round_to_u8(x),
                    x.round().clamp(0.0, 255.0) as u8,
                    "round {x}"
                );
            }
        }
    }

    #[test]
    fn parallel_render_is_bit_identical() {
        // The row-parallel driver must reproduce the serial render down to
        // the last float bit — on whole volumes and on slab partials, with
        // early termination both on and off.
        for dataset in [Dataset::Engine, Dataset::Brain] {
            let vol = dataset.generate(24, 5);
            let tf = dataset.transfer_function();
            let sub = Subvolume::whole(vol.clone());
            for camera in [Camera::front(), Camera::yaw_pitch(0.4, -0.3)] {
                for et in [1.0, 0.98] {
                    let serial = RenderOptions {
                        early_termination: et,
                        ..RenderOptions::square(72)
                    };
                    let par = serial.with_parallel(true);
                    let (want, _) = render_intermediate(&sub, &tf, &camera, &serial);
                    let (got, _) = render_intermediate(&sub, &tf, &camera, &par);
                    assert_eq!(want, got, "{:?} {camera:?} et={et}", dataset.name());
                }
            }
            let camera = Camera::yaw_pitch(0.3, 0.15);
            let serial = RenderOptions::square(64);
            let (_, f) = render_intermediate(&sub, &tf, &camera, &serial);
            for part in partition_1d(&vol, 3, f.axis).unwrap() {
                let (want, _) = render_intermediate(&part, &tf, &camera, &serial);
                let (got, _) =
                    render_intermediate(&part, &tf, &camera, &serial.with_parallel(true));
                assert_eq!(want, got, "slab {:?}", part.offset);
            }
        }
    }

    #[test]
    fn parallel_render_handles_degenerate_frames() {
        // A zero-size screen still yields a volume-footprint intermediate;
        // the parallel driver must match serial and never chunk by zero.
        let sub = Subvolume::whole(crate::volume::Volume::zeros(4, 4, 4));
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let serial = RenderOptions::square(0);
        let (want, _) = render_intermediate(&sub, &tf, &Camera::front(), &serial);
        let (got, _) =
            render_intermediate(&sub, &tf, &Camera::front(), &serial.with_parallel(true));
        assert_eq!(want, got);
    }
}
