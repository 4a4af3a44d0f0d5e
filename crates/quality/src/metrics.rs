//! The metric kernels: max-abs-error, MSE, PSNR and box-windowed SSIM.
//!
//! All four operate channel-wise over 8-bit frames through the
//! [`ChannelPixel`] extraction trait, which the grayscale wire format
//! implements. Conventions:
//!
//! * **max-abs-error** — `max |a − b|` over every pixel and channel, in
//!   8-bit counts. `0` iff the frames are byte-identical, which makes it
//!   the exactness axis of a [`Tolerance`](crate::Tolerance).
//! * **MSE / PSNR** — mean squared error over all channels and
//!   `10·log₁₀(255²/MSE)` dB. Identical frames have `MSE = 0` and
//!   `PSNR = +∞` (the conventional limit; callers serializing JSON
//!   should cap it via [`QualityReport::psnr_db_capped`]).
//! * **SSIM** — mean structural similarity over non-overlapping
//!   [`SSIM_WINDOW`]×[`SSIM_WINDOW`] box windows (ragged edge windows
//!   included), per channel, then averaged. Constants are the standard
//!   `K₁ = 0.01`, `K₂ = 0.03`, `L = 255`. Identical frames score
//!   exactly `1.0`; the score degrades with *structural* damage rather
//!   than uniform offsets, complementing the pixel-wise axes.
//!
//! [`QualityReport::psnr_db_capped`]: crate::QualityReport::psnr_db_capped

use crate::QualityError;
use rt_imaging::pixel::{GrayAlpha8, Pixel};
use rt_imaging::Image;

/// Side length of the non-overlapping SSIM box window (pixels).
pub const SSIM_WINDOW: usize = 8;

const K1: f64 = 0.01;
const K2: f64 = 0.03;
const L: f64 = 255.0;

/// A pixel whose 8-bit channels the metrics can walk.
///
/// The index order is the wire order of the pixel type; out-of-range
/// indices return `0` (the trait is only driven with `i < CHANNELS`).
pub trait ChannelPixel: Pixel {
    /// Number of 8-bit channels the metrics compare.
    const CHANNELS: usize;

    /// The `i`-th channel value.
    fn channel(&self, i: usize) -> u8;
}

impl ChannelPixel for GrayAlpha8 {
    const CHANNELS: usize = 2;

    fn channel(&self, i: usize) -> u8 {
        match i {
            0 => self.v,
            1 => self.a,
            _ => 0,
        }
    }
}

fn check_shapes<P: ChannelPixel>(a: &Image<P>, b: &Image<P>) -> Result<(), QualityError> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(QualityError::ShapeMismatch {
            a: (a.width(), a.height()),
            b: (b.width(), b.height()),
        });
    }
    if a.is_empty() {
        return Err(QualityError::EmptyFrame);
    }
    Ok(())
}

/// Maximum absolute per-channel difference, in 8-bit counts.
///
/// `Ok(0)` iff the frames are byte-identical in every compared channel.
pub fn max_abs_error<P: ChannelPixel>(a: &Image<P>, b: &Image<P>) -> Result<u8, QualityError> {
    check_shapes(a, b)?;
    let mut worst = 0u8;
    for (p, q) in a.pixels().iter().zip(b.pixels()) {
        for c in 0..P::CHANNELS {
            worst = worst.max(p.channel(c).abs_diff(q.channel(c)));
        }
    }
    Ok(worst)
}

/// Mean squared error over every pixel and channel (8-bit counts²).
pub fn mse<P: ChannelPixel>(a: &Image<P>, b: &Image<P>) -> Result<f64, QualityError> {
    check_shapes(a, b)?;
    let mut sum = 0.0f64;
    for (p, q) in a.pixels().iter().zip(b.pixels()) {
        for c in 0..P::CHANNELS {
            let d = f64::from(p.channel(c)) - f64::from(q.channel(c));
            sum += d * d;
        }
    }
    Ok(sum / (a.len() * P::CHANNELS) as f64)
}

/// Peak signal-to-noise ratio in dB (`+∞` for identical frames).
pub fn psnr_db<P: ChannelPixel>(a: &Image<P>, b: &Image<P>) -> Result<f64, QualityError> {
    let m = mse(a, b)?;
    if m == 0.0 {
        Ok(f64::INFINITY)
    } else {
        Ok(10.0 * (L * L / m).log10())
    }
}

/// Mean SSIM over non-overlapping box windows and channels, in `[-1, 1]`
/// (`1.0` for identical frames).
pub fn ssim<P: ChannelPixel>(a: &Image<P>, b: &Image<P>) -> Result<f64, QualityError> {
    check_shapes(a, b)?;
    let c1 = (K1 * L) * (K1 * L);
    let c2 = (K2 * L) * (K2 * L);
    let (w, h) = (a.width(), a.height());
    let mut total = 0.0f64;
    let mut windows = 0usize;
    for c in 0..P::CHANNELS {
        for wy in (0..h).step_by(SSIM_WINDOW) {
            for wx in (0..w).step_by(SSIM_WINDOW) {
                let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
                let mut n = 0.0f64;
                for y in wy..(wy + SSIM_WINDOW).min(h) {
                    for x in wx..(wx + SSIM_WINDOW).min(w) {
                        let pa = f64::from(a.get(x, y).channel(c));
                        let pb = f64::from(b.get(x, y).channel(c));
                        sx += pa;
                        sy += pb;
                        sxx += pa * pa;
                        syy += pb * pb;
                        sxy += pa * pb;
                        n += 1.0;
                    }
                }
                let (mx, my) = (sx / n, sy / n);
                let vx = sxx / n - mx * mx;
                let vy = syy / n - my * my;
                let cov = sxy / n - mx * my;
                total += ((2.0 * mx * my + c1) * (2.0 * cov + c2))
                    / ((mx * mx + my * my + c1) * (vx + vy + c2));
                windows += 1;
            }
        }
    }
    Ok(total / windows as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> Image<GrayAlpha8> {
        Image::from_fn(w, h, |x, y| {
            GrayAlpha8::new(((x * 7 + y * 3) % 251) as u8, 200)
        })
    }

    #[test]
    fn identical_frames_pin_every_metric_maximum() {
        let img = gradient(33, 17);
        assert_eq!(max_abs_error(&img, &img).unwrap(), 0);
        assert_eq!(mse(&img, &img).unwrap(), 0.0);
        assert!(psnr_db(&img, &img).unwrap().is_infinite());
        assert_eq!(ssim(&img, &img).unwrap(), 1.0);
    }

    #[test]
    fn single_pixel_delta_is_measured_exactly() {
        let a = gradient(16, 16);
        let mut b = a.clone();
        let orig = a.get(5, 9).v;
        b.set(5, 9, GrayAlpha8::new(orig.wrapping_add(13), 200));
        assert_eq!(max_abs_error(&a, &b).unwrap(), 13);
        // One channel of one pixel differs by 13 over 16·16 pixels × 2
        // channels.
        let expect = 13.0f64 * 13.0 / (16.0 * 16.0 * 2.0);
        assert!((mse(&a, &b).unwrap() - expect).abs() < 1e-12);
        let psnr = psnr_db(&a, &b).unwrap();
        assert!(psnr.is_finite() && psnr > 30.0, "{psnr}");
        assert!(ssim(&a, &b).unwrap() < 1.0);
    }

    #[test]
    fn shape_mismatch_and_empty_are_typed_errors() {
        let a = gradient(8, 8);
        let b = gradient(8, 9);
        assert!(matches!(
            max_abs_error(&a, &b),
            Err(QualityError::ShapeMismatch { .. })
        ));
        let e: Image<GrayAlpha8> = Image::blank(0, 0);
        assert!(matches!(ssim(&e, &e), Err(QualityError::EmptyFrame)));
    }

    #[test]
    fn metrics_degrade_monotonically_with_error_magnitude() {
        let a = gradient(32, 32);
        let mut last_psnr = f64::INFINITY;
        let mut last_ssim = 1.0f64;
        let mut last_max = 0u8;
        for amp in [4u8, 16, 64] {
            let b = Image::from_fn(32, 32, |x, y| {
                let p = *a.get(x, y);
                if (x + y) % 3 == 0 {
                    GrayAlpha8::new(p.v.saturating_add(amp), p.a)
                } else {
                    p
                }
            });
            let psnr = psnr_db(&a, &b).unwrap();
            let s = ssim(&a, &b).unwrap();
            let m = max_abs_error(&a, &b).unwrap();
            assert!(psnr < last_psnr, "PSNR must fall: {psnr} vs {last_psnr}");
            assert!(s < last_ssim, "SSIM must fall: {s} vs {last_ssim}");
            assert!(m > last_max, "max-abs must rise: {m} vs {last_max}");
            last_psnr = psnr;
            last_ssim = s;
            last_max = m;
        }
    }
}
