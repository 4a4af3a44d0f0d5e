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
//! computed once, a chunk of pixels is sampled before it is composited, and
//! runs that provably contribute nothing are never sampled — voxels the
//! transfer function makes transparent, screen pixels whose taps are all
//! blank. Where a slice's pixels fall along its voxel scanlines is a
//! function of the slice alone, so it is mapped once per slice: the first
//! pixel of each voxel column. Every row of the slice reads that map instead
//! of searching, and samples its whole interior as one fixed-weight four-tap
//! `f32` stencil over two voxel scanlines, rounding without a branch; the
//! rare sample too near a rounding tie for `f32` to settle is recomputed by
//! the per-pixel `f64` definition. The warp always splits
//! its screen rows across threads, in bands ([`ScreenWarp`]). Their contract is **bit-identity** with
//! the per-sample renderer kept in this module's tests, not a tolerance:
//! the composition stage, the golden digests and every "frame equals the
//! sequential render" check downstream compare `f32` bits (DESIGN.md §9,
//! "Where the words go", has the argument).

use crate::camera::{factorize, plane_of, Camera, Factorization};
use crate::math::Affine2;
use crate::partition::Subvolume;
use crate::tf::TransferFunction;
use rt_imaging::kernels::{KernelCopy, SpanKernel};
use rt_imaging::{GrayAlpha, Image, Pixel};
use std::borrow::{Borrow, Cow};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Output frame width (pixels).
    pub width: usize,
    /// Output frame height (pixels).
    pub height: usize,
    /// Early-ray-termination opacity threshold (1.0 disables).
    pub early_termination: f32,
}

impl RenderOptions {
    /// The paper's 512×512 frames.
    pub fn paper() -> Self {
        Self {
            width: 512,
            height: 512,
            early_termination: 0.98,
        }
    }

    /// Square frame of the given size.
    pub fn square(n: usize) -> Self {
        Self {
            width: n,
            height: n,
            early_termination: 0.98,
        }
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
/// interpolated 8-bit scalar lives in — in `f64` arithmetic and one select,
/// so a loop of them vectorises: `y = x + 2⁵²` rounds `x` to an integer `r`
/// exactly (ties to even) and carries it in the low byte of its bits. Ties
/// to even and half away from zero part only where `x` lies exactly half
/// way below `r`: there the exact difference `x − r` is ½, and one more
/// is added.
#[inline(always)]
fn round_to_u8(x: f64) -> u8 {
    const TWO_52: f64 = (1u64 << 52) as f64;
    let y = x + TWO_52;
    let up = if x - (y - TWO_52) == 0.5 { 1.0 } else { 0.0 };
    (y + up).min(TWO_52 + 255.0).to_bits() as u8
}

/// Pixels per pass-1 chunk of a slab kernel run: the scalars of one chunk
/// fit a stack buffer.
const CHUNK: usize = 64;

/// What the transfer function proves transparent without sampling: every
/// scalar in `0..=max` is, so a bilinear sample — a convex combination of
/// its four taps, rounded — is too whenever all four taps are `≤ max`.
/// Per voxel scanline `(j, k)` of the slab, `intervals[j · nk + k] = [lo, hi)`
/// is the interval of voxels `> max` (`lo ≥ hi`: none); per slice `k`,
/// `scanlines[k]` is the interval of `j` whose scanline has one.
#[derive(Debug)]
struct Transparent {
    nk: usize,
    intervals: Vec<(u32, u32)>,
    scanlines: Vec<(u32, u32)>,
}

impl Transparent {
    /// One pass over the slab's scanlines, each interval from its first
    /// and last voxel above `max`.
    fn scan(
        voxels: &[u8],
        (ni, nj, nk): (usize, usize, usize),
        (sj, sk): (usize, usize),
        max: u8,
    ) -> Self {
        let none = (u32::MAX, 0u32);
        let (mut intervals, mut scanlines) = (vec![none; nj * nk], vec![none; nk]);
        for (jk, (lo, hi)) in intervals.iter_mut().enumerate() {
            let (j, k) = (jk / nk, jk % nk);
            let row = &voxels[j * sj + k * sk..][..ni];
            if let Some(first) = row.iter().position(|&v| v > max) {
                let last = row.iter().rposition(|&v| v > max).unwrap_or(first);
                (*lo, *hi) = (first as u32, last as u32 + 1);
                let (j_lo, j_hi) = &mut scanlines[k];
                (*j_lo, *j_hi) = ((*j_lo).min(j as u32), j as u32 + 1);
            }
        }
        Transparent {
            nk,
            intervals,
            scanlines,
        }
    }
}

/// A slab's voxels as a sweep along `axis` addresses them: extents
/// `(ni, nj, nk)` along the in-slice axes `(i, j)` and the slice axis `k`,
/// and where scanline `(j, k)` starts in [`scanline_voxels`]' buffer.
fn scanlines(sub: &Subvolume, axis: usize) -> ((usize, usize, usize), (usize, usize)) {
    let (i, j) = plane_of(axis);
    let dims = (sub.vol.dim(i), sub.vol.dim(j), sub.vol.dim(axis));
    let (nx, ny, _) = sub.vol.dims();
    let strides = [1, nx, nx * ny];
    let starts = if axis == 0 {
        (dims.0, dims.0 * dims.1)
    } else {
        (strides[j], strides[axis])
    };
    (dims, starts)
}

/// The slab's voxels with every scanline along the in-slice `i` axis of
/// `axis` contiguous. For axes y and z that axis is x, and the x-fastest
/// buffer's rows are the scanlines; for axis x (`i` = y) it is a copy in
/// `(k, j, i)` = `(x, z, y)` order.
fn scanline_voxels(sub: &Subvolume, axis: usize) -> Cow<'_, [u8]> {
    let voxels = sub.vol.voxels();
    if axis != 0 {
        return Cow::Borrowed(voxels);
    }
    let mut kji = vec![0; voxels.len()];
    if kji.is_empty() {
        return Cow::Owned(kji);
    }
    // The x-fastest rows, in `(y, z)` order, are the `(i, j)` of slice x:
    // voxel `x` of row `r` goes to `kji[x * rows + r]`, gathered a block of
    // rows at a time so the block stays in cache across the `nx` slices.
    const BLOCK: usize = 64;
    let nx = sub.vol.dim(0);
    let rows = voxels.len() / nx;
    for (b, block) in voxels.chunks(nx * BLOCK).enumerate() {
        let n = block.len() / nx;
        for (x, slice) in kji.chunks_exact_mut(rows).enumerate() {
            for (r, to) in slice[b * BLOCK..][..n].iter_mut().enumerate() {
                *to = block[r * nx + x];
            }
        }
    }
    Cow::Owned(kji)
}

/// The view-independent half of rendering a slab, good for every camera
/// whose principal axis is `axis`: the classification table premultiplied
/// once, what the table's transparent prefix lets a sweep skip, and for
/// axis x the scanline copy of the voxels.
#[derive(Debug)]
struct Classification {
    axis: usize,
    classes: [GrayAlpha; 256],
    transparent: Option<Transparent>,
    /// [`scanline_voxels`]' copy, if it made one.
    copy: Option<Vec<u8>>,
    /// What a scanline off the slab reads: as long as the slab's longest
    /// side, so it serves a sweep along any axis.
    zeros: Vec<u8>,
}

impl Classification {
    fn new(sub: &Subvolume, tf: &TransferFunction, axis: usize) -> Self {
        let (dims, starts) = scanlines(sub, axis);
        let voxels = scanline_voxels(sub, axis);
        Classification {
            axis,
            classes: std::array::from_fn(|s| tf.classify_premultiplied(s as u8)),
            transparent: tf
                .transparent_prefix()
                .map(|max| Transparent::scan(&voxels, dims, starts, max)),
            copy: match voxels {
                Cow::Owned(copy) => Some(copy),
                Cow::Borrowed(_) => None,
            },
            zeros: vec![0; dims.0.max(dims.1).max(dims.2)],
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
    /// the prepared one renders the same pixels, only without skipping (and
    /// along x from a scanline copy of its own).
    pub fn render(
        &self,
        camera: &Camera,
        opts: &RenderOptions,
    ) -> (Image<GrayAlpha>, Factorization) {
        let f = factorize(camera, self.sub.full, opts.width, opts.height);
        sweep(
            KernelCopy::widest(),
            &self.sub,
            &self.classification,
            f,
            opts,
        )
    }
}

impl std::borrow::Borrow<Subvolume> for PreparedSlab {
    fn borrow(&self) -> &Subvolume {
        &self.sub
    }
}

/// The slab as one view's sweep sees it: contiguous voxel scanlines
/// addressed by in-slice `j` and slice `k`, the slab's offset inside the
/// full grid, and the classification with what may be skipped.
struct Slab<'a> {
    voxels: Cow<'a, [u8]>,
    ni: usize,
    nj: usize,
    starts: (usize, usize),
    /// The scanline every row outside the slab reads.
    zeros: &'a [u8],
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
        let ((ni, nj, _), starts) = scanlines(sub, f.axis);
        let off = [sub.offset.0, sub.offset.1, sub.offset.2];
        // The intervals and the copy are laid out along the prepared axis's
        // scanlines; along another they prove nothing and are made afresh.
        let prepared = classification.axis == f.axis;
        Slab {
            voxels: match &classification.copy {
                Some(copy) if prepared => Cow::Borrowed(copy),
                _ => scanline_voxels(sub, f.axis),
            },
            ni,
            nj,
            starts,
            zeros: &classification.zeros[..ni],
            off_j: off[f.plane.1] as f64,
            k_lo: off[f.axis],
            classes: &classification.classes,
            transparent: classification.transparent.as_ref().filter(|_| prepared),
            early_termination: opts.early_termination,
        }
    }

    /// Scanline `j` of local slice `k`, `ni` voxels; zeros outside the slab.
    #[inline]
    fn row(&self, j: i64, k: usize) -> &[u8] {
        if j < 0 || j as usize >= self.nj {
            return self.zeros;
        }
        &self.voxels[j as usize * self.starts.0 + k * self.starts.1..][..self.ni]
    }

    /// Image row `iv`'s in-slice coordinate `lj` in slice `job`.
    #[inline(always)]
    fn lj(&self, job: &SliceJob, iv: usize) -> f64 {
        (iv as f64 - job.v_off) - self.off_j
    }

    /// The rows of `job`'s window whose scanlines `⌊lj⌋` and `⌊lj⌋ + 1` can
    /// hold a voxel the transfer function does not prove transparent; every
    /// other row [`composite_row`] leaves as it is. `⌊lj⌋` is monotone in
    /// the row, so each end is a guess stepped to the exact row.
    #[inline(always)]
    fn rows(&self, job: &SliceJob) -> Range<usize> {
        let window = job.iv0..job.iv1 + 1;
        let Some(t) = self.transparent else {
            return window;
        };
        let (lo, hi) = t.scanlines[job.k - self.k_lo];
        if lo >= hi {
            return 0..0;
        }
        let first = |j: i64| {
            let guess = (j as f64 + self.off_j + job.v_off).ceil();
            first_where(window.start, window.end, guess, |iv| {
                floor_to_int(self.lj(job, iv)) >= j
            })
        };
        first(i64::from(lo) - 1)..first(i64::from(hi))
    }

    /// Classify and composite the pixels `run` (the first is pixel `iu0` of
    /// the image row) in chunks of two passes: first `fill(iu, scalars)`
    /// writes the rounded scalars of the chunk's pixels `iu..`, with nothing
    /// to branch on; then the table lookup fills two lane arrays, the
    /// samples' `v` and `a`, and one branch-free loop merges every pixel —
    /// `over`, front-to-back, with the accumulated pixel nearer — keeping
    /// `acc` where it has reached early termination or the sample has
    /// `a ≤ 0`. The select tests what a loop that skips those pixels tests,
    /// NaN included, so it keeps the same pixels; a sample the transfer
    /// function proves transparent classifies to `a ≤ 0`, so it is kept
    /// without a test of its own.
    #[inline(always)]
    fn composite(&self, iu0: usize, run: &mut [GrayAlpha], fill: impl Fn(usize, &mut [u8])) {
        let (mut scalars, mut v, mut a) = ([0u8; CHUNK], [0f32; CHUNK], [0f32; CHUNK]);
        for (iu, chunk) in (iu0..).step_by(CHUNK).zip(run.chunks_mut(CHUNK)) {
            let scalars = &mut scalars[..chunk.len()];
            fill(iu, scalars);
            for ((v, a), &s) in v.iter_mut().zip(&mut a).zip(&*scalars) {
                let sample = self.classes[usize::from(s)];
                (*v, *a) = (sample.v, sample.a);
            }
            for ((acc, &v), &a) in chunk.iter_mut().zip(&v).zip(&a) {
                let t = 1.0 - acc.a;
                let over = GrayAlpha::new(acc.v + t * v, acc.a + t * a);
                let keep = acc.a >= self.early_termination || a <= 0.0;
                *acc = if keep { *acc } else { over };
            }
        }
    }
}

/// The first pixel of `from..to` where `reached` — false, then true along
/// the row — holds (`to` if nowhere): a guess from the real-number inverse,
/// stepped to the exact answer, so rounding never misplaces it. The steps
/// away from the guess double until they pass the answer, then a bisection
/// closes in: a guess one pixel off costs two tests, a poor one (a nearly
/// flat line) a few logarithms of its miss.
#[inline(always)]
fn first_where(from: usize, to: usize, guess: f64, reached: impl Fn(usize) -> bool) -> usize {
    let guess = (guess.max(from as f64) as usize).min(to);
    // Every pixel before `lo` is short of it; `hi` is `to` or reached.
    let (mut lo, mut hi) = (from, to);
    let mut step = 1;
    if guess < to && !reached(guess) {
        lo = guess + 1;
        while guess + step < to {
            if reached(guess + step) {
                hi = guess + step;
                break;
            }
            lo = guess + step + 1;
            step *= 2;
        }
    } else {
        hi = guess;
        while step <= guess - from {
            if !reached(guess - step) {
                lo = guess - step + 1;
                break;
            }
            hi = guess - step;
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reached(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Where one slice puts an image row's pixels along its in-slice axis `i`:
/// pixel `iu`'s column coordinate is two roundings, `x = iu − u_off`, then
/// `li = x − off_i`. Both are monotone in `iu`, which is all the column map
/// ([`map_columns`]) relies on.
#[derive(Debug, Clone, Copy)]
struct Columns {
    u_off: f64,
    off_i: f64,
}

impl Columns {
    /// `li` of pixel `iu` and its floor, the column of its first taps.
    #[inline(always)]
    fn column(self, iu: usize) -> (f64, i64) {
        let li = (iu as f64 - self.u_off) - self.off_i;
        (li, floor_to_int(li))
    }
}

/// Append one slice's column map over its `run` of pixels to `at`: for
/// `c ∈ −1..=ni`, the first pixel of `run` whose column `⌊li⌋` is at least
/// `c` (`run.end` if none), found by one monotone walk.
///
/// Every row of the slice trims its own pixels inside `run`, and `⌊li⌋` is
/// monotone, so the first pixel of `from..to ⊆ run` with column at least
/// `c` is `at[c].clamp(from, to)`: a row reads the map, it never searches.
fn map_columns(cols: Columns, ni: usize, run: Range<usize>, at: &mut Vec<usize>) {
    let mut iu = run.start;
    for c in -1..=ni as i64 {
        while iu < run.end && cols.column(iu).1 < c {
            iu += 1;
        }
        at.push(iu);
    }
}

/// One slice of the principal-axis sweep: its shear offsets, the
/// intermediate-image window its footprint can touch and where its column
/// map lies in [`Slices`] — precomputed once per sweep, so every row the
/// slice reaches reads the same numbers.
struct SliceJob {
    k: usize,
    cols: Columns,
    v_off: f64,
    /// The pixels of an image row its footprint can touch.
    run: Range<usize>,
    iv0: usize,
    iv1: usize,
    /// Where its `ni + 2` entries of [`Slices::at`] start.
    at: usize,
}

/// A sweep's slice jobs in depth order and their column maps
/// ([`map_columns`]), every slice's stored in one vector.
struct Slices {
    jobs: Vec<SliceJob>,
    at: Vec<usize>,
}

/// The depth-ordered slices of `sub`; the sweep walks the jobs in order, so
/// every pixel sees its slices front-to-back.
fn slice_jobs(sub: &Subvolume, f: &Factorization) -> Slices {
    let (k_lo, k_hi) = sub.extent(f.axis);
    let (i_lo, i_hi) = sub.extent(f.plane.0);
    let (j_lo, j_hi) = sub.extent(f.plane.1);
    let (w, h) = f.inter_size;
    let (n, ni) = (k_hi - k_lo, i_hi - i_lo);
    let mut slices = Slices {
        jobs: Vec::with_capacity(n),
        at: Vec::with_capacity(n * (ni + 2)),
    };
    for k in f.slice_order().filter(|&k| k >= k_lo && k < k_hi) {
        let kf = k as f64;
        let u_off = f.origin.0 + f.shear.0 * kf;
        let v_off = f.origin.1 + f.shear.1 * kf;
        // Intermediate pixels whose pre-image lies inside this slice's
        // in-slice extent.
        let iu0 = (i_lo as f64 + u_off).floor().max(0.0) as usize;
        let iu1 = ((i_hi as f64 + u_off).ceil() as usize).min(w.saturating_sub(1));
        let end = (iu1 + 1).min(w);
        let run = iu0.min(end)..end;
        let cols = Columns {
            u_off,
            off_i: i_lo as f64,
        };
        let at = slices.at.len();
        map_columns(cols, ni, run.clone(), &mut slices.at);
        slices.jobs.push(SliceJob {
            k,
            cols,
            v_off,
            run,
            iv0: (j_lo as f64 + v_off).floor().max(0.0) as usize,
            iv1: ((j_hi as f64 + v_off).ceil() as usize).min(h.saturating_sub(1)),
            at,
        });
    }
    slices
}

/// What `composite_row` hoists out of its pixel loops: everything that is a
/// function of `(slice, image row)` alone.
struct RowTaps<'a> {
    /// Voxel scanlines `j0` and `j0 + 1`.
    rows: [&'a [u8]; 2],
    /// Their bilinear weights `1 - fj`, `fj`.
    wj: [f64; 2],
    cols: Columns,
    /// The pixels [`RowTaps::stencil`] samples, from the interior's first.
    inner: Range<usize>,
    /// The column of `inner.start`'s first taps and its four tap weights.
    c0: usize,
    w: [f32; 4],
}

/// The four tap weights of in-slice weights `wi` and row weights `wj`, in
/// [`blend`]'s order.
#[inline(always)]
fn weights(wi: [f64; 2], wj: [f64; 2]) -> [f64; 4] {
    [wi[0] * wj[0], wi[1] * wj[0], wi[0] * wj[1], wi[1] * wj[1]]
}

/// The rounded bilinear scalar of the taps `v` — voxels `i0`, `i0 + 1` of
/// each scanline — under their weights `w`, summed in the reference's
/// order. A tap of weight zero adds +0 to a sum that is never −0, so the
/// four terms need no `w > 0` tests to match a sampler that skips them.
#[inline(always)]
fn blend(w: [f64; 4], v: [u8; 4]) -> u8 {
    round_to_u8(
        w[0] * f64::from(v[0])
            + w[1] * f64::from(v[1])
            + w[2] * f64::from(v[2])
            + w[3] * f64::from(v[3]),
    )
}

/// One lane of [`RowTaps::stencil`]: the taps `v` under `f32` weights `w`,
/// rounded to an integer by the `2²³` trick, and whether the sum lies within
/// ε = 2⁻¹⁰ of a rounding tie. `y = x + 2²³` carries `x` rounded (ties to
/// even) in the low byte of its bits, and `d = x − (y − 2²³)` is exact.
#[inline(always)]
fn stencil_lane(w: [f32; 4], v: [u8; 4]) -> (u8, bool) {
    const TWO_23: f32 = (1u32 << 23) as f32;
    const TIE: f32 = 0.5 - 1.0 / 1024.0;
    let x = w[0] * f32::from(v[0])
        + w[1] * f32::from(v[1])
        + w[2] * f32::from(v[2])
        + w[3] * f32::from(v[3]);
    let y = x + TWO_23;
    (y.to_bits() as u8, (x - (y - TWO_23)).abs() > TIE)
}

impl<'a> RowTaps<'a> {
    /// The taps of scanlines `rows` (each `ni` voxels) under row weights
    /// `wj`, with the stencil over the row's interior `inner`, the pixels
    /// with `0 ≤ ⌊li⌋ ≤ ni − 2`. The stencil's column `c0 + (iu − inner)`
    /// and a pixel's own `⌊li⌋` can part by one where `li` is within an ulp
    /// of an integer, so the pixels it would place past column `ni − 2` are
    /// left to [`RowTaps::edge`]: no tap reads off a scanline.
    fn new(rows: [&'a [u8]; 2], wj: [f64; 2], cols: Columns, inner: Range<usize>) -> Self {
        let (li, c0) = cols.column(inner.start);
        let fi = li - c0 as f64;
        let room = (rows[0].len() as i64 - 1 - c0).clamp(0, inner.len() as i64) as usize;
        RowTaps {
            rows,
            wj,
            cols,
            inner: inner.start..inner.start + room,
            c0: c0.max(0) as usize,
            w: weights([1.0 - fi, fi], wj).map(|w| w as f32),
        }
    }

    /// Pixel `iu`'s scalar anywhere, taps off the slab reading 0: the
    /// per-pixel `f64` definition.
    fn edge(&self, iu: usize) -> u8 {
        let (li, i0) = self.cols.column(iu);
        let fi = li - i0 as f64;
        let tap = |r: &[u8], i: i64| usize::try_from(i).map_or(0, |i| r.get(i).map_or(0, |&v| v));
        let [r0, r1] = self.rows;
        let v = [tap(r0, i0), tap(r0, i0 + 1), tap(r1, i0), tap(r1, i0 + 1)];
        blend(weights([1.0 - fi, fi], self.wj), v)
    }

    /// The scalars of pixels `iu..iu + out.len()`: the stencil's pixels
    /// through [`RowTaps::stencil`], the few either side through
    /// [`RowTaps::edge`].
    #[inline(always)]
    fn fill(&self, iu: usize, out: &mut [u8]) {
        let to = iu + out.len();
        let (a, b) = (self.inner.start.clamp(iu, to), self.inner.end.clamp(iu, to));
        for (s, iu) in out[..a - iu].iter_mut().zip(iu..) {
            *s = self.edge(iu);
        }
        for (s, iu) in out[b - iu..].iter_mut().zip(b..) {
            *s = self.edge(iu);
        }
        if a < b {
            self.stencil(a, &mut out[a - iu..b - iu]);
        }
    }

    /// The scalars of the stencil's pixels `a..a + out.len()`, each carrying
    /// the bits [`RowTaps::edge`] gives it: one fixed-weight four-tap `f32`
    /// stencil ([`stencil_lane`]) over the two scanlines, under the weights
    /// of the interior's first pixel, its column stepping by one a pixel.
    /// The compiler runs its lanes eight wide in the AVX2 copy; no `fma` is
    /// enabled and IEEE `f32` add and multiply round alike at any width, so
    /// both compiled copies write the same bits.
    ///
    /// The lane's sum `x` differs from the reference's `f64` sum by at most
    /// - 4 · 255 · 2⁻²⁵ ≈ 3.0·10⁻⁵: the four weights rounded to `f32`;
    /// - 7 · 2⁻¹⁷ ≈ 5.3·10⁻⁵: the four products and three sums, each
    ///   below 256, each rounded to `f32`;
    /// - under 10⁻⁸: the pixel's own `li` and the stencil's `c0 + fi +
    ///   (iu − inner)` part by a few roundings of coordinates below 2¹⁶,
    ///   and the interpolant moves at most 255 a unit of `li` (also where
    ///   they part across an integer and the columns differ by one);
    /// - about 10⁻¹³: the reference's own `f64` rounding.
    ///
    /// That is about 8.4·10⁻⁵, well under ε = 2⁻¹⁰. A lane at least ε from
    /// every half-integer (`|d| ≤ ½ − ε`) thus shares its interval
    /// `(k − ½, k + ½)` with the reference's sum and rounds to the same `k`;
    /// the rest, ties included, are recomputed by [`RowTaps::edge`].
    #[inline(always)]
    fn stencil(&self, a: usize, out: &mut [u8]) {
        let i0 = self.c0 + (a - self.inner.start);
        let [r0, r1] = self.rows.map(|r| &r[i0..i0 + out.len() + 1]);
        let lane = |p: &[u8], q: &[u8]| stencil_lane(self.w, [p[0], p[1], q[0], q[1]]);
        let mut ties = false;
        for ((s, p), q) in out.iter_mut().zip(r0.windows(2)).zip(r1.windows(2)) {
            let (scalar, tie) = lane(p, q);
            *s = scalar;
            ties |= tie;
        }
        if ties {
            let taps = r0.windows(2).zip(r1.windows(2));
            for ((s, iu), (p, q)) in out.iter_mut().zip(a..).zip(taps) {
                if lane(p, q).1 {
                    *s = self.edge(iu);
                }
            }
        }
    }
}

/// Composite every pixel slice `job` contributes to row `iv` into that row
/// of the intermediate image. This is the *only* place sample values are
/// produced, shared verbatim by both compiled copies ([`SweepRows`]) —
/// identical float expressions per `(k, iv, iu)` is what makes the copies
/// bit-identical.
///
/// Inside one slice the resampling is a translation, so the row reads two
/// contiguous voxel scanlines with fixed weights, and where its pixels fall
/// along them is the slice's column map. The run is trimmed to the pixels
/// the transfer function cannot prove transparent (the rest are never
/// sampled) and split into the slice's interior, one `f32` stencil with a
/// tie filter ([`RowTaps::stencil`]), and the few edge pixels either side.
/// Each copy inlines it with both passes; only the per-pixel fill of edge
/// pixels and near-tie lanes stays one shared function.
#[inline(always)]
fn composite_row(slab: &Slab, slices: &Slices, job: &SliceJob, iv: usize, row: &mut [GrayAlpha]) {
    let lj = slab.lj(job, iv);
    let j0 = floor_to_int(lj);
    let fj = lj - j0 as f64;
    let k = job.k - slab.k_lo;
    // The first pixel of `from..to` whose column is at least `c`.
    let at = &slices.at[job.at..][..slab.ni + 2];
    let at_least = |c: i64, from: usize, to: usize| at[(c + 1) as usize].clamp(from, to);
    let (mut start, mut end) = (job.run.start, job.run.end);
    if let Some(t) = slab.transparent {
        // Only a pixel with a tap inside the union of the two scanlines'
        // intervals can be visible: columns `lo - 1 ..= hi - 1`.
        let (mut lo, mut hi) = (u32::MAX, 0);
        for j in [j0, j0 + 1] {
            if j >= 0 && (j as usize) < slab.nj {
                let (l, h) = t.intervals[j as usize * t.nk + k];
                (lo, hi) = (lo.min(l), hi.max(h));
            }
        }
        if lo >= hi {
            return;
        }
        start = at_least(i64::from(lo) - 1, start, end);
        end = at_least(i64::from(hi), start, end);
    }
    let rows = [slab.row(j0, k), slab.row(j0 + 1, k)];
    let inner = at_least(0, start, end);
    let inner = inner..at_least(slab.ni as i64 - 1, inner, end);
    let taps = RowTaps::new(rows, [1.0 - fj, fj], job.cols, inner);
    slab.composite(start, &mut row[start..end], |iu, s| taps.fill(iu, s));
}

/// The sweep's rows as one span kernel: every row of every slice job,
/// front to back, through [`composite_row`] into `pixels` (rows of
/// `width`). [`KernelCopy::run`] compiles it for the target's baseline and
/// on x86-64 also with AVX2, where pass 1's stencil runs eight `f32` lanes
/// wide. Only `avx2` is enabled — no `fma`, so no product is fused into a
/// sum — and IEEE add, multiply, min and conversion round alike at any
/// width: the copies write the same bits.
struct SweepRows<'a> {
    slab: &'a Slab<'a>,
    slices: &'a Slices,
    pixels: &'a mut [GrayAlpha],
    width: usize,
}

impl SpanKernel for SweepRows<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            slab,
            slices,
            pixels,
            width,
        } = self;
        for job in &slices.jobs {
            for iv in slab.rows(job) {
                let row = &mut pixels[iv * width..(iv + 1) * width];
                composite_row(slab, slices, job, iv, row);
            }
        }
    }
}

/// Which compiled copy of the render kernels — the slab sweep's row kernel
/// and the warp's band loop — this CPU runs: `"avx2"` (the sweep's `f32`
/// stencil eight lanes wide) or `"baseline"`. Both render the same bits;
/// only the time differs.
pub fn kernel_copy() -> &'static str {
    KernelCopy::widest().name()
}

/// Render a subvolume into the full-frame intermediate image.
///
/// Returns the intermediate image and the factorization (needed for the
/// final warp and for depth ordering). All ranks of a partitioned volume
/// produce images of identical shape for the same camera/options, because
/// the factorization depends only on `sub.full`.
///
/// Runs of pixels the transfer function proves transparent are skipped
/// without being sampled, whatever the table looks like; every pixel
/// carries the bits a plain sample-classify-composite loop over all of them
/// produces.
pub fn render_intermediate(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
) -> (Image<GrayAlpha>, Factorization) {
    let f = factorize(camera, sub.full, opts.width, opts.height);
    let classification = Classification::new(sub, tf, f.axis);
    sweep(KernelCopy::widest(), sub, &classification, f, opts)
}

/// The per-view half: sweep the classified slab's slices front to back
/// under factorization `f` into a blank intermediate image, every row
/// through `copy`, one compiled copy of the row kernel.
fn sweep(
    copy: KernelCopy,
    sub: &Subvolume,
    classification: &Classification,
    f: Factorization,
    opts: &RenderOptions,
) -> (Image<GrayAlpha>, Factorization) {
    let mut inter: Image<GrayAlpha> = Image::blank(f.inter_size.0, f.inter_size.1);
    let w = inter.width();
    let slab = Slab::new(sub, classification, &f, opts);
    let slices = slice_jobs(sub, &f);

    let pixels = inter.pixels_mut();
    copy.run(SweepRows {
        slab: &slab,
        slices: &slices,
        pixels,
        width: w,
    });
    (inter, f)
}

/// An integral `x` with `0 ≤ x < 2³¹` as an `i32`, exactly: `x + 2⁵²` is
/// exact, and its low mantissa bits are `x` (the trick of
/// [`round_to_u8`]). An add and a move per lane, where `x as i32` also
/// clamps, which compiles to a scalar convert and two compares per lane.
/// A lane outside that range gets some value and must not be used.
#[inline(always)]
fn small_int_to_i32(x: f64) -> i32 {
    const TWO_52: f64 = (1u64 << 52) as f64;
    (x + TWO_52).to_bits() as i32
}

/// The bilinear weights of taps `(u0, v0)`, `(u0 + 1, v0)`, `(u0, v0 + 1)`,
/// `(u0 + 1, v0 + 1)` at fractions `(fu, fv)`.
#[inline(always)]
fn bilinear_weights(fu: f32, fv: f32) -> [f32; 4] {
    let (wu, wv) = ([1.0 - fu, fu], [1.0 - fv, fv]);
    [wu[0] * wv[0], wu[1] * wv[0], wu[0] * wv[1], wu[1] * wv[1]]
}

/// One channel of the blend of four taps `p` under weights `w`, summed in
/// their order from `+0`. A tap of weight zero contributes nothing — not
/// `0 · p`, which is NaN for a non-finite `p` — so it adds `+0`: a sum from
/// `+0` is never −0, and adding `+0` leaves it as it is, so the branch-free
/// sum carries the bits of one that skips the tap.
#[inline(always)]
fn blend_channel(w: [f32; 4], p: [f32; 4]) -> f32 {
    let term = |w: f32, p: f32| if w > 0.0 { w * p } else { 0.0 };
    0.0 + term(w[0], p[0]) + term(w[1], p[1]) + term(w[2], p[2]) + term(w[3], p[3])
}

/// The bilinear blend of taps `p` at fractions `(fu, fv)`.
#[inline(always)]
fn bilinear(fu: f32, fv: f32, p: [GrayAlpha; 4]) -> GrayAlpha {
    let w = bilinear_weights(fu, fv);
    GrayAlpha::new(
        blend_channel(w, p.map(|p| p.v)),
        blend_channel(w, p.map(|p| p.a)),
    )
}

/// Warp a composited intermediate image to the screen frame: one
/// [`ScreenWarp`] of `inter`, worked on by [`crate::threads::on_workers`].
pub fn warp_to_screen(
    inter: &Image<GrayAlpha>,
    f: &Factorization,
    opts: &RenderOptions,
) -> Image<GrayAlpha> {
    let warp = ScreenWarp::new(inter, f, opts, None);
    crate::threads::on_workers(warp.bands, || warp.work());
    warp.take_screen()
}

/// A `width × height` screen whose every pixel is blank: the only way to
/// make one is [`BlankScreen::new`], so a [`ScreenWarp`] handed one warps
/// onto it as onto the screen it would have blanked itself. A caller that
/// warps frame after frame can make the next frame's screen — its fill and
/// its page faults — on a thread off the frame's critical path.
pub struct BlankScreen(Image<GrayAlpha>);

impl BlankScreen {
    /// A blank `width × height` screen.
    pub fn new(width: usize, height: usize) -> Self {
        BlankScreen(Image::blank(width, height))
    }
}

/// Screen rows a [`ScreenWarp`] worker claims at a time.
const WARP_BAND: usize = 8;

/// Screen pixels per chunk of a warp row's interior: the chunk's fractions,
/// taps and blends fit lane arrays on the stack.
const WARP_CHUNK: usize = 16;

/// One warp of an intermediate image to the screen, in bands of
/// `WARP_BAND` (8) rows that any number of threads claim until none is left
/// ([`ScreenWarp::work`]) — the scoped threads of [`warp_to_screen`] or
/// threads a caller keeps parked. `I` is the image or a reference to it.
///
/// Along one screen row the intermediate coordinates `(u, v)` of pixel `x`
/// are monotone in `x` (each is a product by a constant plus constants,
/// every rounding monotone), so the pixels with a tap on the image form one
/// span. Its ends are guessed from the real-number line of `u` or `v` along
/// the row and stepped to the exact pixel on that very predicate
/// (`first_where`). The span is narrowed, the same way, to the pixels
/// with a tap on a column some row it reads occupies (each row's non-blank
/// columns are found once per warp): a pixel whose four taps are blank or
/// off the image blends to `+0, +0`, the blank screen pixel. Those with all
/// four taps on the image form one sub-span, reached by walking the edge
/// pixels in from the span's ends. Outside the span the screen stays blank;
/// the sub-span is resampled in chunks of `WARP_CHUNK` (16) pixels —
/// fractions in lanes, the four taps gathered into lane arrays without range
/// tests, one branch-free blend — and every pixel carries the bits of a
/// per-pixel sampler that tests and skips each tap. A worker warps a band
/// into a buffer of its own, then copies each row's span into the screen
/// under one lock per band: rows are disjoint outputs over an immutable
/// source, so the frame is the same whoever warps which band. The screen is
/// a [`BlankScreen`] the caller made ahead of time when one of the frame's
/// size is at hand, else one blanked here.
pub struct ScreenWarp<I> {
    inter: I,
    /// Screen to intermediate coordinates; `None` for a singular view,
    /// whose screen stays blank.
    inv: Option<Affine2>,
    /// Each intermediate row's occupied columns `[lo, hi)`, `(w, 0)` if none.
    occupied: Vec<(i64, i64)>,
    width: usize,
    height: usize,
    bands: usize,
    next_band: AtomicUsize,
    screen: Mutex<Image<GrayAlpha>>,
}

/// A [`ScreenWarp`]'s band loop as one span kernel: [`KernelCopy::run`]
/// compiles it for the target's baseline and on x86-64 also with AVX2, where
/// the interior's fractions and blends run wide. As in the sweep's
/// [`SweepRows`], only `avx2` is enabled, so the copies write the same bits.
struct WarpBands<'a, I> {
    warp: &'a ScreenWarp<I>,
    inv: &'a Affine2,
}

impl<I: Borrow<Image<GrayAlpha>>> SpanKernel for WarpBands<'_, I> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self { warp, inv } = self;
        let width = warp.width;
        let mut buf: Vec<GrayAlpha> = Vec::new();
        let mut spans: [Range<usize>; WARP_BAND] = Default::default();
        loop {
            let band = warp.next_band.fetch_add(1, Ordering::Relaxed);
            if band >= warp.bands {
                return;
            }
            if buf.is_empty() {
                buf = vec![GrayAlpha::blank(); WARP_BAND * width];
            }
            let rows = band * WARP_BAND..((band + 1) * WARP_BAND).min(warp.height);
            let spans = &mut spans[..rows.len()];
            for (y, (line, span)) in rows
                .clone()
                .zip(buf.chunks_exact_mut(width).zip(&mut *spans))
            {
                *span = warp.row(inv, y, line);
            }
            {
                let mut screen = warp.screen.lock().unwrap_or_else(PoisonError::into_inner);
                let out = screen.pixels_mut();
                for (y, (line, span)) in rows.zip(buf.chunks_exact(width).zip(&*spans)) {
                    out[y * width..][span.clone()].copy_from_slice(&line[span.clone()]);
                }
            }
            for (line, span) in buf.chunks_exact_mut(width).zip(&*spans) {
                line[span.clone()].fill(GrayAlpha::blank());
            }
        }
    }
}

impl<I: Borrow<Image<GrayAlpha>>> ScreenWarp<I> {
    /// Plan the warp of `inter` seen through `f` onto a blank
    /// `opts.width × opts.height` screen: `spare` if it has that size (one
    /// of another size is dropped), else a fresh one.
    pub fn new(
        inter: I,
        f: &Factorization,
        opts: &RenderOptions,
        spare: Option<BlankScreen>,
    ) -> Self {
        // A rotation view's warp is singular only at scale zero, the auto-fit
        // of a frame without area: there is no screen pixel to sample for.
        let inv = f.warp.inverse();
        let image = inter.borrow();
        let (src, iw) = (image.pixels(), image.width());
        // `is_blank` decides: `−0` is blank, a non-finite pixel is content.
        let occupied = match inv {
            None => Vec::new(),
            Some(_) => (0..image.height())
                .map(|r| {
                    let row = &src[r * iw..][..iw];
                    let content = |p: &GrayAlpha| !p.is_blank();
                    let Some(lo) = row.iter().position(content) else {
                        return (iw as i64, 0);
                    };
                    let hi = row.iter().rposition(content).map_or(lo + 1, |x| x + 1);
                    (lo as i64, hi as i64)
                })
                .collect(),
        };
        let bands = match (inv, opts.width) {
            (None, _) | (_, 0) => 0,
            _ => opts.height.div_ceil(WARP_BAND),
        };
        let (width, height) = (opts.width, opts.height);
        let screen = match spare {
            Some(BlankScreen(screen)) if (screen.width(), screen.height()) == (width, height) => {
                screen
            }
            _ => Image::blank(width, height),
        };
        ScreenWarp {
            inter,
            inv,
            occupied,
            width,
            height,
            bands,
            next_band: AtomicUsize::new(0),
            screen: Mutex::new(screen),
        }
    }

    /// The screen's `(width, height)`.
    pub fn size(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Warp bands until every band is claimed; returns when this thread's
    /// last band is in the screen.
    pub fn work(&self) {
        self.work_in(KernelCopy::widest());
    }

    /// [`ScreenWarp::work`] through `copy`, one compiled copy of the band
    /// loop.
    fn work_in(&self, copy: KernelCopy) {
        if let Some(inv) = &self.inv {
            copy.run(WarpBands { warp: self, inv });
        }
    }

    /// The screen, taken out once every worker's [`ScreenWarp::work`] has
    /// returned (an empty image is left behind).
    pub fn take_screen(&self) -> Image<GrayAlpha> {
        let mut screen = self.screen.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *screen, Image::blank(0, 0))
    }

    /// Warp screen row `y` into `row`, blank on entry; returns the pixels
    /// it wrote, the span outside which the row stays blank.
    #[inline(always)]
    fn row(&self, inv: &Affine2, y: usize, row: &mut [GrayAlpha]) -> Range<usize> {
        let image = self.inter.borrow();
        let (src, iw, ih) = (image.pixels(), image.width(), image.height());
        let (w, h) = (iw as i64, ih as i64);
        let occupied = &self.occupied;
        // `Affine2::apply`, with its `y` products computed once per row;
        // `x` fits a `u32`, whose conversion is exact and cheap.
        let (bu, bv) = (inv.x[1] * y as f64, inv.y[1] * y as f64);
        let uv = |x: usize| {
            let x = f64::from(x as u32);
            (inv.x[0] * x + bu + inv.x[2], inv.y[0] * x + bv + inv.y[2])
        };
        let floors = |x: usize| {
            let (u, v) = uv(x);
            [floor_to_int(u), floor_to_int(v)]
        };
        // The pixels of `range` with `low ≤ ⌊u⌋ < limit` (`c = 0`) or `⌊v⌋`
        // (`c = 1`): each end is where `⌊·⌋ ≥ t` turns, true along a rising
        // line and false along a falling one, first guessed where the real
        // line `slope · x + base` reaches `t`.
        let within = |c: usize, low: i64, limit: i64, range: Range<usize>| {
            let (slope, base) = [(inv.x[0], bu + inv.x[2]), (inv.y[0], bv + inv.y[2])][c];
            let rising = slope >= 0.0;
            let turn = |from: usize, t: i64| {
                let guess = ((t as f64 - base) / slope).ceil();
                first_where(from, range.end, guess, |x| (floors(x)[c] >= t) == rising)
            };
            let (first, last) = if rising { (low, limit) } else { (limit, low) };
            let start = turn(range.start, first);
            start..turn(start, last)
        };
        // Some tap on the image: `-1 ≤ ⌊u⌋ < w` and `-1 ≤ ⌊v⌋ < h`.
        let touch = within(1, -1, h, within(0, -1, w, 0..row.len()));
        if touch.is_empty() {
            return 0..0;
        }
        // It reads rows `⌊v⌋ ..= ⌊v⌋ + 1`, `⌊v⌋` between its ends' values;
        // some tap on a column they occupy: `lo - 1 ≤ ⌊u⌋ < hi`.
        let (va, vb) = (floors(touch.start)[1], floors(touch.end - 1)[1]);
        let read = va.min(vb).max(0) as usize..(va.max(vb) + 2).min(h) as usize;
        let (lo, hi) = occupied[read]
            .iter()
            .fold((w, 0), |(lo, hi), &(l, r)| (lo.min(l), hi.max(r)));
        if lo >= hi {
            return 0..0;
        }
        let span = within(0, lo - 1, hi, touch);
        // All four taps on it: `0 ≤ ⌊u⌋ < w - 1` and `0 ≤ ⌊v⌋ < h - 1`.
        let inside = |x: usize| {
            let [u0, v0] = floors(x);
            u0 >= 0 && v0 >= 0 && u0 < w - 1 && v0 < h - 1
        };
        let edge = |x: usize| {
            let (u, v) = uv(x);
            let (u0, v0) = (floor_to_int(u), floor_to_int(v));
            let tap = |x: i64, y: i64| {
                let on = x >= 0 && y >= 0 && x < w && y < h;
                if on {
                    src[y as usize * iw + x as usize]
                } else {
                    GrayAlpha::new(0.0, 0.0)
                }
            };
            let p = [
                tap(u0, v0),
                tap(u0 + 1, v0),
                tap(u0, v0 + 1),
                tap(u0 + 1, v0 + 1),
            ];
            bilinear((u - u0 as f64) as f32, (v - v0 as f64) as f32, p)
        };
        let (mut start, mut end) = (span.start, span.end);
        while start < end && !inside(start) {
            row[start] = edge(start);
            start += 1;
        }
        while end > start && !inside(end - 1) {
            end -= 1;
            row[end] = edge(end);
        }
        let chunks = (start..end).step_by(WARP_CHUNK);
        for (x0, out) in chunks.zip(row[start..end].chunks_mut(WARP_CHUNK)) {
            // Every lane's fractions, past the chunk's end too; `u, v ≥ 0`
            // inside, so truncation is the floor.
            let (mut u0, mut v0) = ([0i32; WARP_CHUNK], [0i32; WARP_CHUNK]);
            let (mut fu, mut fv) = ([0f32; WARP_CHUNK], [0f32; WARP_CHUNK]);
            for l in 0..WARP_CHUNK {
                let (u, v) = uv(x0 + l);
                let (tu, tv) = (u.trunc(), v.trunc());
                (u0[l], v0[l]) = (small_int_to_i32(tu), small_int_to_i32(tv));
                fu[l] = (u - tu) as f32;
                fv[l] = (v - tv) as f32;
            }
            // The chunk's taps, `v` and `a` of each of the four.
            let mut taps = [[[0f32; WARP_CHUNK]; 4]; 2];
            for (l, (&u0, &v0)) in u0.iter().zip(&v0).take(out.len()).enumerate() {
                let at = v0 as usize * iw + u0 as usize;
                let quad = &src[at..at + iw + 2];
                let p = [quad[0], quad[1], quad[iw], quad[iw + 1]];
                for (t, p) in p.iter().enumerate() {
                    (taps[0][t][l], taps[1][t][l]) = (p.v, p.a);
                }
            }
            let mut blends = [GrayAlpha::blank(); WARP_CHUNK];
            for (l, blend) in blends.iter_mut().enumerate() {
                let w = bilinear_weights(fu[l], fv[l]);
                let channel = |c: usize| std::array::from_fn(|t| taps[c][t][l]);
                *blend = GrayAlpha::new(blend_channel(w, channel(0)), blend_channel(w, channel(1)));
            }
            out.copy_from_slice(&blends[..out.len()]);
        }
        span
    }
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
    use std::io::Write;

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
        for (iu, acc) in row
            .iter_mut()
            .enumerate()
            .take(job.run.end)
            .skip(job.run.start)
        {
            if acc.a >= opts.early_termination {
                continue;
            }
            let gi = iu as f64 - job.cols.u_off;
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
        for job in &slice_jobs(sub, &f).jobs {
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

    /// The kernel and the warp, against the reference —
    /// and one slab prepared for `camera`'s axis, rendered from `camera`
    /// and from a rolled, zoomed camera that shares it. Returns the
    /// reference render.
    fn assert_kernel_matches_reference(
        sub: &Subvolume,
        tf: &TransferFunction,
        camera: &Camera,
        opts: &RenderOptions,
        what: &str,
    ) -> (Image<GrayAlpha>, Factorization) {
        let (want, f) = render_intermediate_reference(sub, tf, camera, opts);
        let (got, got_f) = render_intermediate(sub, tf, camera, opts);
        assert_eq!(got_f, f);
        assert_eq!(got.width(), want.width());
        assert_eq!(bits(&got), bits(&want), "{what}: partial");
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
        (want, f)
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

    /// The golden's six `render_cameras` (tests/trace_golden.rs): every
    /// principal axis, both flips, a roll and a scale.
    fn golden_cameras() -> [Camera; 6] {
        use std::f64::consts::{FRAC_PI_2, PI};
        let view = Camera::yaw_pitch;
        [
            view(0.3, 0.2),
            view(PI - 0.3, -0.5),
            Camera {
                roll: 0.4,
                ..view(FRAC_PI_2 + 0.25, 0.15)
            },
            view(-FRAC_PI_2 + 0.2, -0.3),
            Camera {
                scale: 1.3,
                ..view(0.35, FRAC_PI_2 - 0.3)
            },
            Camera {
                roll: -0.7,
                ..view(-0.2, -FRAC_PI_2 + 0.25)
            },
        ]
    }

    /// Rows longer than a pass-1 chunk and warp spans hundreds of pixels
    /// wide, which the 24³ presets and the ≤ 25-voxel random scenes never
    /// reach: a 96×96×12 Engine slab at 256², early termination off and
    /// on, also rendered prepared for another axis; then warps of an
    /// intermediate holding non-finite pixels, one of them under a warp
    /// whose taps on one side all weigh zero.
    #[test]
    fn kernel_equivalence_at_production_widths() {
        let vol = Dataset::Engine.generate(96, 5);
        let slab = partition_1d(&vol, 8, 2).unwrap().swap_remove(3);
        let tf = Dataset::Engine.transfer_function();
        for camera in golden_cameras() {
            for early_termination in [1.0, 0.98] {
                let opts = RenderOptions {
                    early_termination,
                    ..RenderOptions::square(256)
                };
                let what = format!("{camera:?} et={early_termination}");
                let (want, f) = assert_kernel_matches_reference(&slab, &tf, &camera, &opts, &what);
                let other = PreparedSlab::new(slab.clone(), &tf, (f.axis + 1) % 3);
                assert_eq!(bits(&other.render(&camera, &opts).0), bits(&want), "{what}");
            }
        }
        // At scale 1 the front view's warp is a whole-pixel shift: every
        // screen pixel's right-hand taps weigh zero.
        let opts = RenderOptions::square(256);
        let front = Camera {
            scale: 1.0,
            ..Camera::front()
        };
        for camera in [golden_cameras()[0], front] {
            let (mut inter, f) = render_intermediate_reference(&slab, &tf, &camera, &opts);
            let (w, h) = (inter.width(), inter.height());
            inter.set(w / 2, h / 2, GrayAlpha::new(f32::NAN, f32::INFINITY));
            inter.set(w / 3, h / 2, GrayAlpha::new(f32::NEG_INFINITY, 1.0));
            assert_eq!(
                bits(&warp_to_screen(&inter, &f, &opts)),
                bits(&warp_reference(&inter, &f, &opts)),
                "non-finite pixels, {camera:?}"
            );
        }
    }

    /// Shifts `u_off` on and beside binade edges, both signs: thirds,
    /// `0.5 − 2⁻⁴⁸`, every power of two to 256 less one ulp, less 2⁻⁴⁰ and
    /// ± ⅓, and 32 seeded values with 46 fraction bits.
    fn binade_edge_shifts() -> Vec<f64> {
        let mut state = 11;
        let mut shifts: Vec<f64> = (-90..=90).map(|k| f64::from(k) / 3.0).collect();
        shifts.push(0.5 - 2f64.powi(-48));
        for n in 0..=8 {
            let p = f64::from(1 << n);
            shifts.push(p.next_down());
            shifts.extend([-2f64.powi(-40), -1.0 / 3.0, 1.0 / 3.0].map(|d| p + d));
        }
        shifts.extend((0..32).map(|_| (splitmix(&mut state) >> 11) as f64 * 2f64.powi(-46)));
        shifts.iter().flat_map(|&s| [s, -s]).collect()
    }

    /// A row as wide as a slab of `ni` voxels at offset `off_i` needs under
    /// shift `u_off`, plus three pixels: past the slab on the right, and on
    /// the left too where `u_off + off_i ≥ 1`.
    fn row_width(u_off: f64, off_i: f64, ni: usize) -> usize {
        ni + off_i as usize + u_off.abs().ceil() as usize + 3
    }

    /// The slice column map against its definition, where the render oracles
    /// cannot see a wrong entry: a rendered scene seldom puts a binade edge
    /// or a transparent interval's end where a one-pixel slip changes a
    /// rounded scalar. Over binade-edge shifts, in-slice offsets 0, 5 and
    /// 37, slabs of 0–150 voxels and runs that start and end outside the
    /// slab or inside it: every `at[c]` is the first pixel of the run whose
    /// `⌊li⌋` (libm's floor) is at least `c`.
    #[test]
    fn slice_columns_kernel_equivalence() {
        for u_off in binade_edge_shifts() {
            for off_i in [0.0, 5.0, 37.0] {
                for ni in [0, 1, 2, 130, 150] {
                    let cols = Columns { u_off, off_i };
                    let floor = |iu: usize| ((iu as f64 - u_off) - off_i).floor();
                    let width = row_width(u_off, off_i, ni);
                    for run in [0..width, width / 3..width, 0..2 * width / 3, width..width] {
                        let what = format!("u_off {u_off:e}, off_i {off_i}, ni {ni}, run {run:?}");
                        let mut at = Vec::new();
                        map_columns(cols, ni, run.clone(), &mut at);
                        assert_eq!(at.len(), ni + 2, "{what}");
                        for (c, &got) in (-1..).zip(&at) {
                            let first = run.clone().find(|&iu| floor(iu) >= f64::from(c));
                            assert_eq!(got, first.unwrap_or(run.end), "{what}: at[{c}]");
                        }
                    }
                }
            }
        }
    }

    /// One row of scanlines `rows` under row weights `wj` and columns
    /// `cols`, its interior taken from the slice's column map as
    /// `composite_row` takes it: every pixel's scalar, filled from the
    /// row's first pixel and again from each pixel on (a pass-1 chunk may
    /// start anywhere), must be [`RowTaps::edge`]'s. The stencil covers
    /// the interior from its first pixel, and the column rule leaves at
    /// most its last pixel to `edge`. Returns the stencil's lanes and how
    /// many of them the tie filter sent to `edge`.
    fn assert_stencil_matches_edge(
        rows: [&[u8]; 2],
        wj: [f64; 2],
        cols: Columns,
        what: &str,
    ) -> (usize, usize) {
        let ni = rows[0].len();
        let width = row_width(cols.u_off, cols.off_i, ni);
        let mut at = Vec::new();
        map_columns(cols, ni, 0..width, &mut at);
        let taps = RowTaps::new(rows, wj, cols, at[1]..at[ni]);
        let inner = taps.inner.clone();
        assert!(
            inner.start == at[1] && inner.end + 1 >= at[ni].max(at[1]),
            "{what}: {inner:?}"
        );
        let mut whole = vec![0; width];
        taps.fill(0, &mut whole);
        let mut ties = 0;
        for (iu, &s) in whole.iter().enumerate() {
            let want = taps.edge(iu);
            assert_eq!(s, want, "{what}: pixel {iu}");
            let mut from_here = [0];
            taps.fill(iu, &mut from_here);
            assert_eq!(from_here[0], want, "{what}: pixel {iu} from a later start");
            if inner.contains(&iu) {
                let i = taps.c0 + (iu - inner.start);
                let v = [rows[0][i], rows[0][i + 1], rows[1][i], rows[1][i + 1]];
                ties += usize::from(stencil_lane(taps.w, v).1);
            }
        }
        (inner.len(), ties)
    }

    /// The stencil's premise, row by row: over the binade-edge shifts and
    /// shifts whose fraction lies within 10⁻¹⁵ of 0 or 1, slabs past 128
    /// voxels and row weights with neither, a half or a zero, every pixel —
    /// the interior's last one included — carries the per-pixel blend's
    /// scalar.
    #[test]
    fn stencil_kernel_equivalence_at_binade_edges() {
        let mut state = 13;
        let voxels: Vec<u8> = (0..300).map(|_| splitmix(&mut state) as u8).collect();
        let near_integers = (0..=8).flat_map(|n| {
            let n = f64::from(n);
            [1e-15, 5e-16, 2e-16]
                .into_iter()
                .flat_map(move |d| [n + d, n + 1.0 - d])
        });
        let mut shifts = binade_edge_shifts();
        shifts.extend(near_integers.flat_map(|s| [s, -s]));
        for u_off in shifts {
            for off_i in [0.0, 5.0, 37.0] {
                for ni in [130, 150] {
                    for wj in [[0.7, 0.3], [0.5, 0.5], [1.0, 0.0]] {
                        let rows = [&voxels[..ni], &voxels[ni..2 * ni]];
                        let cols = Columns { u_off, off_i };
                        let what = format!("u_off {u_off:e}, off_i {off_i}, ni {ni}, wj {wj:?}");
                        assert_stencil_matches_edge(rows, wj, cols, &what);
                    }
                }
            }
        }
        // The column rule, on an interior one pixel longer than the map's:
        // the stencil's column at pixel 26 would be `ni − 1 = 25`, past
        // `ni − 2`, so the rule must leave that pixel to `edge`. No map's
        // interior reaches that far: `x` and `li` only coarsen along an
        // interior, so where a pixel's `⌊li⌋` parts from the stencil's column
        // it is the larger one.
        let cols = Columns {
            u_off: 0.25,
            off_i: 0.0,
        };
        let taps = RowTaps::new([&voxels[..26], &voxels[26..52]], [0.7, 0.3], cols, 1..27);
        assert_eq!(taps.inner, 1..26, "the column rule");
        let mut scalars = [0; 30];
        taps.fill(0, &mut scalars);
        for (iu, &s) in scalars.iter().enumerate() {
            assert_eq!(s, taps.edge(iu), "the column rule: pixel {iu}");
        }
    }

    /// Samples exactly on `k + ½` and `d = ±2⁻¹²` or `±2⁻²⁰` off it, where
    /// `f32` cannot round as the reference does: the tie filter must send
    /// every such lane to [`RowTaps::edge`] (on an exact tie the `2²³`
    /// trick rounds to even, the reference away from zero). At `d = ±2⁻⁹`,
    /// past ε = 2⁻¹⁰, no lane is sent and the stencil rounds alone. Voxel
    /// ramps step by one along and across the scanlines, so the fraction
    /// `½ + d` puts every sample `d` from a tie: along the scanline under
    /// `wj = [1, 0]`, or across them at a whole-voxel shift.
    #[test]
    fn stencil_kernel_equivalence_at_ties() {
        for base in [0u8, 104] {
            let ramp = |from: u8| (from..).take(150).collect::<Vec<u8>>();
            let (r0, r1) = (ramp(base), ramp(base + 1));
            for d in [0.0, 2f64.powi(-12), 2f64.powi(-20), 2f64.powi(-9)] {
                for d in [d, -d] {
                    let cases = [(-(0.5 + d), [1.0, 0.0]), (3.0, [0.5 - d, 0.5 + d])];
                    for ((u_off, wj), off_i) in cases.into_iter().flat_map(|c| [(c, 0.0), (c, 5.0)])
                    {
                        let cols = Columns { u_off, off_i };
                        let what = format!("base {base}, d {d:e}, u_off {u_off}, off_i {off_i}");
                        let (lanes, ties) =
                            assert_stencil_matches_edge([&r0, &r1], wj, cols, &what);
                        assert!(lanes > 100, "{what}: {lanes} stencil lanes");
                        let want = if d.abs() < 2f64.powi(-10) { lanes } else { 0 };
                        assert_eq!(ties, want, "{what}: lanes sent to edge");
                    }
                }
            }
        }
    }

    /// Every compiled copy of the render kernels this CPU runs, each called
    /// directly rather than through [`KernelCopy::widest`]. A CPU without
    /// AVX2 tests the baseline copy alone and says so.
    fn compiled_copies() -> Vec<KernelCopy> {
        let copies = KernelCopy::all();
        if copies.len() == 1 {
            // Past the test harness's capture, so every run shows the skip.
            let skip = "render kernel copies: no AVX2 on this CPU, the wide copy is not tested";
            let _ = writeln!(std::io::stderr(), "{skip}");
        }
        copies
    }

    /// `sub` seen from `camera` through each compiled copy, against the
    /// per-sample reference: so also against each other.
    fn assert_copies_match_reference(
        sub: &Subvolume,
        tf: &TransferFunction,
        camera: &Camera,
        opts: &RenderOptions,
        what: &str,
    ) {
        let (want, f) = render_intermediate_reference(sub, tf, camera, opts);
        let classification = Classification::new(sub, tf, f.axis);
        for copy in compiled_copies() {
            let (got, _) = sweep(copy, sub, &classification, f.clone(), opts);
            assert_eq!(bits(&got), bits(&want), "{what}: {} copy", copy.name());
        }
    }

    /// One slice's row `iv = 0` sampled pixel by pixel as
    /// [`composite_row_reference`] samples it — libm's floor and round,
    /// zero-weight taps skipped, 0 off the two scanlines `rows` — over a
    /// blank row under early termination 1.0.
    fn row_reference(
        rows: [&[u8]; 2],
        fj: f64,
        cols: Columns,
        tf: &TransferFunction,
        width: usize,
    ) -> Image<GrayAlpha> {
        let tap = |j: usize, i: f64| match rows[j].get(i as usize) {
            Some(&v) if i >= 0.0 => f64::from(v),
            _ => 0.0,
        };
        Image::from_fn(width, 1, |iu, _| {
            let li = (iu as f64 - cols.u_off) - cols.off_i;
            let (i0, fi) = (li.floor(), li - li.floor());
            let mut acc = 0.0;
            for (dj, wj) in [1.0 - fj, fj].into_iter().enumerate() {
                for (di, wi) in [1.0 - fi, fi].into_iter().enumerate() {
                    let w = wi * wj;
                    if w > 0.0 {
                        acc += w * tap(dj, i0 + di as f64);
                    }
                }
            }
            let s8 = acc.round().clamp(0.0, 255.0) as u8;
            let blank = GrayAlpha::blank();
            if tf.is_transparent(s8) {
                blank
            } else {
                blank.over(&tf.classify_premultiplied(s8))
            }
        })
    }

    /// The row kernel is compiled twice from one source, and the sweep runs
    /// the widest copy the CPU has, so on an AVX2 machine no other test
    /// reaches the baseline copy. Each copy, called directly, must carry
    /// the per-sample reference's bits: on the preset scenes, at the six
    /// golden cameras at production widths, and on single rows at the
    /// binade-edge shifts, where the stencil's column and weights must hold
    /// across binades. A copy whose body alone changes a rounded scalar
    /// fails here. A fused product moves a sum by about an ulp, which the
    /// stencil's tie filter absorbs and the `f64` blend shows only on a sum
    /// that close to a tie, so what keeps fusion out is that no copy
    /// enables `fma`.
    #[test]
    fn compiled_copies_kernel_equivalence() {
        for dataset in [Dataset::Engine, Dataset::Brain, Dataset::Head] {
            let sub = Subvolume::whole(dataset.generate(24, 5));
            let tf = dataset.transfer_function();
            for camera in [Camera::front(), Camera::yaw_pitch(0.4, -0.3)] {
                let opts = RenderOptions::square(72);
                assert_copies_match_reference(&sub, &tf, &camera, &opts, dataset.name());
            }
        }
        let vol = Dataset::Engine.generate(96, 5);
        let slab = partition_1d(&vol, 8, 2).unwrap().swap_remove(3);
        let tf = Dataset::Engine.transfer_function();
        for camera in golden_cameras() {
            for early_termination in [1.0, 0.98] {
                let opts = RenderOptions {
                    early_termination,
                    ..RenderOptions::square(256)
                };
                let what = format!("{camera:?} et={early_termination}");
                assert_copies_match_reference(&slab, &tf, &camera, &opts, &what);
            }
        }
        // One slice of two scanlines, row `iv = 0` at `lj = fj`.
        let mut state = 13;
        let voxels: Vec<u8> = (0..300).map(|_| splitmix(&mut state) as u8).collect();
        let classes = std::array::from_fn(|s| tf.classify_premultiplied(s as u8));
        for u_off in binade_edge_shifts() {
            for off_i in [0.0, 5.0, 37.0] {
                for (ni, fj) in [(130, 0.0), (150, 0.3)] {
                    let voxels = &voxels[..2 * ni];
                    let zeros = vec![0; ni];
                    let transparent = tf
                        .transparent_prefix()
                        .map(|max| Transparent::scan(voxels, (ni, 2, 1), (ni, 2 * ni), max));
                    let slab = Slab {
                        voxels: Cow::Borrowed(voxels),
                        ni,
                        nj: 2,
                        starts: (ni, 2 * ni),
                        zeros: &zeros,
                        off_j: 0.0,
                        k_lo: 0,
                        classes: &classes,
                        transparent: transparent.as_ref(),
                        early_termination: 1.0,
                    };
                    let cols = Columns { u_off, off_i };
                    let width = row_width(u_off, off_i, ni);
                    let mut slices = Slices {
                        jobs: Vec::new(),
                        at: Vec::new(),
                    };
                    map_columns(cols, ni, 0..width, &mut slices.at);
                    slices.jobs.push(SliceJob {
                        k: 0,
                        cols,
                        v_off: -fj,
                        run: 0..width,
                        iv0: 0,
                        iv1: 0,
                        at: 0,
                    });
                    let rows = [&voxels[..ni], &voxels[ni..]];
                    let want = row_reference(rows, fj, cols, &tf, width);
                    for copy in compiled_copies() {
                        let mut got = Image::blank(width, 1);
                        copy.run(SweepRows {
                            slab: &slab,
                            slices: &slices,
                            pixels: got.pixels_mut(),
                            width,
                        });
                        let what = format!(
                            "u_off {u_off:e}, off_i {off_i}, ni {ni}: {} copy",
                            copy.name()
                        );
                        assert_eq!(bits(&got), bits(&want), "{what}");
                    }
                }
            }
        }
    }

    /// The branch-free rounding against libm's, at every half-integer of
    /// its range and the `f64` either side (where truncate-and-correct and
    /// ties-to-even part), at both zeros and the top of the range, and at
    /// 10⁵ seeded values in `[0, 255.5)`.
    #[test]
    fn round_to_u8_kernel_equivalence() {
        let mut xs: Vec<f64> = (0..=511)
            .map(|k| f64::from(k) / 2.0)
            .flat_map(|x| [x.next_down(), x, x.next_up()])
            .collect();
        xs.extend([0.0, -0.0, 255.5f64.next_down()]);
        let mut state = 17;
        let unit = 2f64.powi(-53);
        xs.extend((0..100_000).map(|_| (splitmix(&mut state) >> 11) as f64 * unit * 255.5));
        for x in xs {
            assert_eq!(
                round_to_u8(x),
                x.round().clamp(0.0, 255.0) as u8,
                "round {x:e}"
            );
        }
    }

    /// `blend` rounds each product and adds them in order. These taps put
    /// that sum one ulp below 239.5 and exactly on 210.5; fusing the first
    /// two products (`w[1].mul_add(v[1], w[0] * v[0])`) moves each sum to
    /// the other side of its tie, and the scalar by one.
    #[test]
    fn blend_sums_in_order_on_either_side_of_a_tie() {
        const BELOW: u8 = 239;
        const ON: u8 = 211;
        let cases: [([f64; 4], [u8; 4], f64, u8); 2] = [
            (
                [
                    0.010343599439308083,
                    0.028445553004865634,
                    0.2990144594537837,
                    0.6675498528634117,
                ],
                [53, 47, 241, 248],
                239.5f64.next_down(),
                BELOW,
            ),
            (
                [
                    0.5188776087225395,
                    0.01751341248453146,
                    0.45211716299384574,
                    0.01350549138425959,
                ],
                [190, 167, 237, 136],
                210.5,
                ON,
            ),
        ];
        for (w, v, sum, want) in cases {
            let got = (0..4).fold(0.0, |s, i| s + w[i] * f64::from(v[i]));
            assert_eq!(got, sum, "{w:?} {v:?}");
            assert_eq!(blend(w, v), want, "{w:?} {v:?}");
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
        // About one scene in eight is wide and thin: in-slice extents past
        // 64 voxels along any principal axis, so its rows cross the 32 and
        // 64 binades the stencil's one set of weights must hold across.
        #[test]
        fn kernel_equivalence(
            dims in prop_oneof![
                7 => (1usize..=17, 1usize..=17, 1usize..=17),
                1 => (65usize..=80, 65usize..=80, 1usize..=3),
            ],
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
            };
            assert_kernel_matches_reference(&sub, &tf, &camera, &opts, "random scene");
        }

        // The warp's blank rule on intermediates no rendered scene makes:
        // a lone pixel in a blank row, on any border, and content that
        // `a > 0` misses (`a = 0, v ≠ 0`, NaN) beside blank `−0`.
        #[test]
        fn warp_kernel_equivalence_on_sparse_images(
            size in (prop_oneof![Just(1usize), 1usize..=40], prop_oneof![Just(1usize), 1usize..=40]),
            density in 0u64..=3,
            seed in any::<u64>(),
            depth in 1usize..=40,
            angles in (-3.2f64..3.2, -1.6f64..1.6, -3.2f64..3.2),
            scale in 0.3f64..4.0,
            front in prop_oneof![3 => Just(false), 1 => Just(true)],
            frame in (0usize..=48, 0usize..=48),
        ) {
            let inter = sparse_intermediate(density, seed, size);
            let (camera, dims) = if front {
                // A volume as wide as the frame modulo 2 centres on a whole
                // pixel: at scale 1 the warp is a whole-pixel shift.
                let fit = |n: usize, screen: usize| n + (n + screen) % 2;
                let camera = Camera { scale: 1.0, ..Camera::front() };
                (camera, (fit(size.0, frame.0), fit(size.1, frame.1), depth))
            } else {
                let (yaw, pitch, roll) = angles;
                (Camera { yaw, pitch, roll, scale }, (size.0, size.1, depth))
            };
            let f = factorize(&camera, dims, frame.0, frame.1);
            if front {
                let inv = f.warp.inverse().unwrap();
                prop_assert_eq!((inv.x[2].fract(), inv.y[2].fract()), (0.0, 0.0));
            }
            let opts = RenderOptions {
                width: frame.0,
                height: frame.1,
                ..RenderOptions::paper()
            };
            let want = bits(&warp_reference(&inter, &f, &opts));
            prop_assert_eq!(&bits(&warp_to_screen(&inter, &f, &opts)), &want);
            for copy in compiled_copies() {
                let got = bits(&warp_in(copy, &inter, &f, &opts, None));
                prop_assert_eq!(&got, &want, "{} copy", copy.name());
            }
        }
    }

    /// `inter` warped under `f` onto `spare` (or a screen of its own)
    /// through one compiled copy of the band loop, every band on this
    /// thread.
    fn warp_in(
        copy: KernelCopy,
        inter: &Image<GrayAlpha>,
        f: &Factorization,
        opts: &RenderOptions,
        spare: Option<BlankScreen>,
    ) -> Image<GrayAlpha> {
        let warp = ScreenWarp::new(inter, f, opts, spare);
        warp.work_in(copy);
        warp.take_screen()
    }

    /// The warp at the benchmark's screen size, where rows are hundreds of
    /// pixels wide and most of a row's interior runs in full chunks: a slab
    /// of the Engine rendered into its intermediate from each golden camera
    /// and warped to 512², through each compiled copy, against the
    /// per-pixel reference — onto a screen of its own, onto a spare
    /// [`BlankScreen`] of its size, and past a spare of another size, which
    /// it must drop rather than warp onto. `warp_to_screen` matches too.
    #[test]
    fn warp_kernel_equivalence_at_production_size() {
        let vol = Dataset::Engine.generate(96, 5);
        let slab = partition_1d(&vol, 8, 2).unwrap().swap_remove(3);
        let tf = Dataset::Engine.transfer_function();
        let opts = RenderOptions::paper();
        let (w, h) = (opts.width, opts.height);
        for camera in golden_cameras() {
            let (inter, f) = render_intermediate(&slab, &tf, &camera, &opts);
            assert!(inter.count_non_blank() > 0, "{camera:?}: blank");
            let want = bits(&warp_reference(&inter, &f, &opts));
            assert!(
                bits(&warp_to_screen(&inter, &f, &opts)) == want,
                "{camera:?}"
            );
            for copy in compiled_copies() {
                let spares = [None, Some((w, h)), Some((w, h + 8)), Some((w / 2, h))];
                for spare in spares {
                    let screen = spare.map(|(w, h)| BlankScreen::new(w, h));
                    let got = warp_in(copy, &inter, &f, &opts, screen);
                    assert_eq!((got.width(), got.height()), (w, h), "{camera:?}");
                    let copy = copy.name();
                    assert!(bits(&got) == want, "{camera:?}: {copy} copy onto {spare:?}");
                }
            }
        }
    }

    /// One of each awkward pixel: blank `−0`, `a = 0` with `v ≠ 0`, NaN and
    /// ±∞ in either channel, or an ordinary premultiplied pixel.
    fn awkward_pixel(state: &mut u64) -> GrayAlpha {
        let r = splitmix(state);
        let x = (r >> 8 & 0xff) as f32 / 255.0;
        let (v, a) = match r % 8 {
            0 => (-0.0, -0.0),
            1 => (x + 0.1, 0.0),
            2 => (f32::NAN, x),
            3 => (x, f32::NAN),
            4 => (f32::INFINITY, 1.0),
            5 => (x, f32::NEG_INFINITY),
            _ => (x * 0.5, x),
        };
        GrayAlpha::new(v, a)
    }

    /// A mostly blank `iw × ih` intermediate: each border holds a lone pixel
    /// half the time, and at `density > 0` a third of the rows hold pixels
    /// at rate `density / 8`, the rest wholly blank.
    fn sparse_intermediate(density: u64, seed: u64, (iw, ih): (usize, usize)) -> Image<GrayAlpha> {
        let mut state = seed;
        let mut img = Image::blank(iw, ih);
        for y in 0..ih {
            if density == 0 || !splitmix(&mut state).is_multiple_of(3) {
                continue;
            }
            for x in 0..iw {
                if splitmix(&mut state) % 8 < density {
                    img.set(x, y, awkward_pixel(&mut state));
                }
            }
        }
        for border in 0..4 {
            let r = splitmix(&mut state);
            if r & 1 == 0 {
                continue;
            }
            let (across, along) = ((r >> 8) as usize % iw, (r >> 8) as usize % ih);
            let (x, y) = match border {
                0 => (0, along),
                1 => (iw - 1, along),
                2 => (across, 0),
                _ => (across, ih - 1),
            };
            img.set(x, y, awkward_pixel(&mut state));
        }
        img
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
}
