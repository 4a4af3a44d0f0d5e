//! Volume partitioning: the 1-D and 2-D schemes of the paper's data
//! partitioning stage (reference \[15\]).
//!
//! A [`Subvolume`] is a rank's slice of the dataset together with its
//! placement inside the full grid, so the renderer can generate the rank's
//! *partial image in full-frame coordinates* — exactly what the composition
//! stage consumes. [`depth_order`] derives the compositing permutation for
//! a view: ranks sorted nearest-first by their extent along the view's
//! principal axis.

use crate::camera::Factorization;
use crate::volume::Volume;
use crate::RenderError;
use std::borrow::Borrow;

/// A rank's piece of the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Subvolume {
    /// The rank's voxels.
    pub vol: Volume,
    /// Placement of `vol`'s origin within the full grid.
    pub offset: (usize, usize, usize),
    /// Dimensions of the full grid.
    pub full: (usize, usize, usize),
}

impl Subvolume {
    /// Wrap a full volume as a single "partition".
    pub fn whole(vol: Volume) -> Self {
        let full = vol.dims();
        Self {
            vol,
            offset: (0, 0, 0),
            full,
        }
    }

    /// This subvolume's extent `[lo, hi)` along `axis`.
    pub fn extent(&self, axis: usize) -> (usize, usize) {
        let off = [self.offset.0, self.offset.1, self.offset.2][axis];
        (off, off + self.vol.dim(axis))
    }
}

fn split_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut at = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push((at, at + len));
        at += len;
    }
    out
}

/// 1-D slab partitioning along `axis` into `p` near-equal slabs.
pub fn partition_1d(vol: &Volume, p: usize, axis: usize) -> Result<Vec<Subvolume>, RenderError> {
    if p == 0 {
        return Err(RenderError::BadPartition {
            what: "zero parts".into(),
        });
    }
    if axis > 2 {
        return Err(RenderError::BadPartition {
            what: format!("axis {axis} out of range"),
        });
    }
    if vol.dim(axis) < p {
        return Err(RenderError::BadPartition {
            what: format!(
                "cannot cut {} slices along axis {axis} into {p} slabs",
                vol.dim(axis)
            ),
        });
    }
    let full = vol.dims();
    let mut out = Vec::with_capacity(p);
    for (lo, hi) in split_ranges(vol.dim(axis), p) {
        let ranges = [
            if axis == 0 { (lo, hi) } else { (0, full.0) },
            if axis == 1 { (lo, hi) } else { (0, full.1) },
            if axis == 2 { (lo, hi) } else { (0, full.2) },
        ];
        let sub = vol.extract(ranges[0], ranges[1], ranges[2])?;
        let mut offset = (0, 0, 0);
        match axis {
            0 => offset.0 = lo,
            1 => offset.1 = lo,
            _ => offset.2 = lo,
        }
        out.push(Subvolume {
            vol: sub,
            offset,
            full,
        });
    }
    Ok(out)
}

/// 2-D grid partitioning: `pa × pb` pieces along `axes.0` and `axes.1`.
///
/// Rank `r` gets cell `(r / pb, r % pb)`.
pub fn partition_2d(
    vol: &Volume,
    pa: usize,
    pb: usize,
    axes: (usize, usize),
) -> Result<Vec<Subvolume>, RenderError> {
    if pa == 0 || pb == 0 {
        return Err(RenderError::BadPartition {
            what: "zero parts".into(),
        });
    }
    if axes.0 > 2 || axes.1 > 2 || axes.0 == axes.1 {
        return Err(RenderError::BadPartition {
            what: format!("bad axis pair {axes:?}"),
        });
    }
    if vol.dim(axes.0) < pa || vol.dim(axes.1) < pb {
        return Err(RenderError::BadPartition {
            what: format!("grid {pa}x{pb} exceeds volume extents along {axes:?}"),
        });
    }
    let full = vol.dims();
    let ra = split_ranges(vol.dim(axes.0), pa);
    let rb = split_ranges(vol.dim(axes.1), pb);
    let mut out = Vec::with_capacity(pa * pb);
    for &(alo, ahi) in &ra {
        for &(blo, bhi) in &rb {
            let mut ranges = [(0, full.0), (0, full.1), (0, full.2)];
            ranges[axes.0] = (alo, ahi);
            ranges[axes.1] = (blo, bhi);
            let sub = vol.extract(ranges[0], ranges[1], ranges[2])?;
            let mut offset = [0usize; 3];
            offset[axes.0] = alo;
            offset[axes.1] = blo;
            out.push(Subvolume {
                vol: sub,
                offset: (offset[0], offset[1], offset[2]),
                full,
            });
        }
    }
    Ok(out)
}

/// The compositing permutation for a view: subvolume indices sorted
/// nearest-first along the factorization's principal axis (ties broken by
/// index, which is safe because tied subvolumes do not overlap on screen
/// along the view direction).
pub fn depth_order<S: Borrow<Subvolume>>(subs: &[S], f: &Factorization) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..subs.len()).collect();
    idx.sort_by_key(|&i| (f.depth_key(subs[i].borrow().extent(f.axis).0), i));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{factorize, Camera};

    fn vol() -> Volume {
        Volume::from_fn(12, 10, 8, |x, y, z| (x + y + z) as u8)
    }

    #[test]
    fn slabs_reassemble_to_the_volume() {
        let v = vol();
        for axis in 0..3 {
            let parts = partition_1d(&v, 3, axis).unwrap();
            assert_eq!(parts.len(), 3);
            let mut total = 0;
            for part in &parts {
                total += part.vol.len();
                // Every voxel matches the source at its offset.
                let (ox, oy, oz) = part.offset;
                let (nx, ny, nz) = part.vol.dims();
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            assert_eq!(part.vol.at(x, y, z), v.at(x + ox, y + oy, z + oz));
                        }
                    }
                }
            }
            assert_eq!(total, v.len());
        }
    }

    #[test]
    fn uneven_slabs_differ_by_at_most_one_slice() {
        let v = vol();
        let parts = partition_1d(&v, 5, 0).unwrap(); // 12 into 5
        let sizes: Vec<usize> = parts.iter().map(|p| p.vol.dim(0)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 12);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn grid_partition_covers_everything() {
        let v = vol();
        let parts = partition_2d(&v, 2, 3, (0, 1)).unwrap();
        assert_eq!(parts.len(), 6);
        let total: usize = parts.iter().map(|p| p.vol.len()).sum();
        assert_eq!(total, v.len());
        // Cells tile without overlap: each voxel of the x-y face is covered
        // exactly once.
        let mut covered = [0u8; 12 * 10];
        for part in &parts {
            let (x0, x1) = part.extent(0);
            let (y0, y1) = part.extent(1);
            for y in y0..y1 {
                for x in x0..x1 {
                    covered[y * 12 + x] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn bad_partitions_are_rejected() {
        let v = vol();
        assert!(partition_1d(&v, 0, 0).is_err());
        assert!(partition_1d(&v, 4, 7).is_err());
        assert!(partition_1d(&v, 9, 2).is_err()); // 8 slices into 9
        assert!(partition_2d(&v, 2, 2, (1, 1)).is_err());
        assert!(partition_2d(&v, 0, 2, (0, 1)).is_err());
        assert!(partition_2d(&v, 13, 2, (0, 1)).is_err());
    }

    #[test]
    fn depth_order_tracks_view_direction() {
        let v = vol();
        let parts = partition_1d(&v, 4, 2).unwrap(); // slabs along z
        let f = factorize(&Camera::front(), v.dims(), 64, 64);
        assert_eq!(f.axis, 2);
        assert_eq!(depth_order(&parts, &f), vec![0, 1, 2, 3]);
        // Opposite view flips the order.
        let f = factorize(
            &Camera::yaw_pitch(std::f64::consts::PI, 0.0),
            v.dims(),
            64,
            64,
        );
        assert!(f.flip);
        assert_eq!(depth_order(&parts, &f), vec![3, 2, 1, 0]);
    }

    #[test]
    fn whole_subvolume_has_zero_offset() {
        let v = vol();
        let s = Subvolume::whole(v.clone());
        assert_eq!(s.offset, (0, 0, 0));
        assert_eq!(s.full, v.dims());
        assert_eq!(s.extent(1), (0, 10));
    }
}
