//! The [`Volume`] scalar field: 8-bit voxels with trilinear sampling.

use crate::RenderError;
use std::sync::{Mutex, PoisonError};

/// A regular 3-D grid of 8-bit scalars, stored x-fastest (index
/// `x + nx·(y + ny·z)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Volume {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<u8>,
}

impl Volume {
    /// Create a zero-filled volume.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            nx,
            ny,
            nz,
            data: vec![0; nx * ny * nz],
        }
    }

    /// Create a volume by evaluating `f(x, y, z)` at every voxel; z-slices
    /// are filled on worker threads.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        f: impl Fn(usize, usize, usize) -> u8 + Sync,
    ) -> Self {
        let mut data = vec![0; nx * ny * nz];
        if !data.is_empty() {
            let slices = Mutex::new(data.chunks_mut(nx * ny).enumerate());
            crate::threads::on_workers(nz, || loop {
                let claimed = slices.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((z, slice)) = claimed else { break };
                for (y, row) in slice.chunks_mut(nx).enumerate() {
                    for (x, voxel) in row.iter_mut().enumerate() {
                        *voxel = f(x, y, z);
                    }
                }
            });
        }
        Self { nx, ny, nz, data }
    }

    /// Wrap an existing buffer; its length must be `nx·ny·nz`.
    pub fn from_vec(nx: usize, ny: usize, nz: usize, data: Vec<u8>) -> Result<Self, RenderError> {
        if data.len() != nx * ny * nz {
            return Err(RenderError::BadDimensions {
                what: "buffer length != nx*ny*nz",
            });
        }
        Ok(Self { nx, ny, nz, data })
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Dimension along `axis` (0 = x, 1 = y, 2 = z).
    pub fn dim(&self, axis: usize) -> usize {
        [self.nx, self.ny, self.nz][axis]
    }

    /// Total voxel count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the volume has zero voxels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw voxel buffer.
    pub fn voxels(&self) -> &[u8] {
        &self.data
    }

    /// Voxel at integer coordinates (must be in range).
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> u8 {
        self.data[x + self.nx * (y + self.ny * z)]
    }

    /// Set the voxel at integer coordinates.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: u8) {
        self.data[x + self.nx * (y + self.ny * z)] = v;
    }

    /// Voxel at integer coordinates, 0 outside the grid.
    #[inline]
    pub fn at_or_zero(&self, x: isize, y: isize, z: isize) -> u8 {
        if x < 0
            || y < 0
            || z < 0
            || x as usize >= self.nx
            || y as usize >= self.ny
            || z as usize >= self.nz
        {
            0
        } else {
            self.at(x as usize, y as usize, z as usize)
        }
    }

    /// Trilinear sample at continuous coordinates (voxel centers at the
    /// integers); 0 outside the grid. Only the test-only ray-caster samples
    /// off the slice planes.
    #[cfg(test)]
    pub(crate) fn sample(&self, x: f64, y: f64, z: f64) -> f64 {
        let (x0, y0, z0) = (x.floor(), y.floor(), z.floor());
        let (fx, fy, fz) = (x - x0, y - y0, z - z0);
        let (xi, yi, zi) = (x0 as isize, y0 as isize, z0 as isize);
        let mut acc = 0.0;
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    let w = (if dx == 0 { 1.0 - fx } else { fx })
                        * (if dy == 0 { 1.0 - fy } else { fy })
                        * (if dz == 0 { 1.0 - fz } else { fz });
                    if w > 0.0 {
                        acc += w * self.at_or_zero(xi + dx, yi + dy, zi + dz) as f64;
                    }
                }
            }
        }
        acc
    }

    /// Extract the axis-aligned subvolume `[x0, x1) × [y0, y1) × [z0, z1)`.
    pub fn extract(
        &self,
        (x0, x1): (usize, usize),
        (y0, y1): (usize, usize),
        (z0, z1): (usize, usize),
    ) -> Result<Volume, RenderError> {
        if x1 > self.nx || y1 > self.ny || z1 > self.nz || x0 > x1 || y0 > y1 || z0 > z1 {
            return Err(RenderError::BadDimensions {
                what: "subvolume out of range",
            });
        }
        let mut out = Volume::zeros(x1 - x0, y1 - y0, z1 - z0);
        for z in z0..z1 {
            for y in y0..y1 {
                let src =
                    &self.data[x0 + self.nx * (y + self.ny * z)..x1 + self.nx * (y + self.ny * z)];
                let base = (z - z0) * out.nx * out.ny + (y - y0) * out.nx;
                out.data[base..base + (x1 - x0)].copy_from_slice(src);
            }
        }
        Ok(out)
    }

    /// Fraction of voxels that are exactly zero (empty space).
    pub fn empty_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 1.0;
        }
        self.data.iter().filter(|&&v| v == 0).count() as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_x_fastest() {
        let v = Volume::from_fn(3, 4, 5, |x, y, z| (x + 10 * y + 100 * (z % 2)) as u8);
        assert_eq!(v.at(2, 3, 1), (2 + 30 + 100) as u8);
        assert_eq!(v.voxels()[2 + 3 * 3 + 12], v.at(2, 3, 1));
        assert_eq!(v.dims(), (3, 4, 5));
        assert_eq!(v.dim(0), 3);
        assert_eq!(v.dim(2), 5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Volume::from_vec(2, 2, 2, vec![0; 7]).is_err());
        assert!(Volume::from_vec(2, 2, 2, vec![0; 8]).is_ok());
    }

    #[test]
    fn out_of_range_reads_zero() {
        let v = Volume::from_fn(2, 2, 2, |_, _, _| 9);
        assert_eq!(v.at_or_zero(-1, 0, 0), 0);
        assert_eq!(v.at_or_zero(0, 2, 0), 0);
        assert_eq!(v.at_or_zero(1, 1, 1), 9);
    }

    #[test]
    fn trilinear_interpolates_between_voxels() {
        let v = Volume::from_fn(2, 1, 1, |x, _, _| if x == 0 { 0 } else { 100 });
        assert!((v.sample(0.0, 0.0, 0.0) - 0.0).abs() < 1e-9);
        assert!((v.sample(0.5, 0.0, 0.0) - 50.0).abs() < 1e-9);
        assert!((v.sample(1.0, 0.0, 0.0) - 100.0).abs() < 1e-9);
        // Constant volumes sample constant in the interior.
        let c = Volume::from_fn(3, 3, 3, |_, _, _| 77);
        assert!((c.sample(1.0, 1.2, 1.4) - 77.0).abs() < 1e-9);
    }

    #[test]
    fn extract_copies_the_right_voxels() {
        let v = Volume::from_fn(4, 4, 4, |x, y, z| (x + 4 * y + 16 * z) as u8);
        let s = v.extract((1, 3), (2, 4), (0, 2)).unwrap();
        assert_eq!(s.dims(), (2, 2, 2));
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    assert_eq!(s.at(x, y, z), v.at(x + 1, y + 2, z));
                }
            }
        }
        assert!(v.extract((0, 5), (0, 1), (0, 1)).is_err());
    }

    #[test]
    fn empty_fraction_counts_zero_voxels() {
        let v = Volume::from_fn(2, 2, 2, |x, _, _| if x == 0 { 0 } else { 200 });
        assert!((v.empty_fraction() - 0.5).abs() < 1e-12);
    }
}
