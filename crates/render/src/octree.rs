//! Min–max octree for empty-space skipping (Levoy '90).
//!
//! The reference ray-caster spends most of its time sampling empty space.
//! A [`MinMaxOctree`] stores, for every power-of-two brick of the volume,
//! the minimum and maximum scalar inside (dilated by one voxel so trilinear
//! taps are covered). A region whose maximum lies in the transfer
//! function's transparent prefix (every scalar from 0 up to it is fully
//! transparent) can be skipped without sampling. [`crate::raycast::render_raycast_accel`] uses the octree to
//! advance rays through empty bricks in single steps per brick.
//!
//! Classification-independent: the octree stores scalar ranges, so it is
//! built once per volume and works with any transfer function (the
//! shear-warp renderer's per-scanline intervals bake the classification in
//! and are rebuilt by every render).

use crate::volume::Volume;

/// A node's scalar range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Minimum scalar in the (dilated) region.
    pub min: u8,
    /// Maximum scalar in the (dilated) region.
    pub max: u8,
}

/// Min–max octree over a volume, with leaf bricks of `leaf_size³` voxels.
#[derive(Debug, Clone)]
pub struct MinMaxOctree {
    leaf_size: usize,
    /// Brick grid dimensions.
    bricks: (usize, usize, usize),
    /// Per-brick ranges, x-fastest.
    ranges: Vec<Range>,
    /// Levels above the leaves: level `l` halves the brick grid `l` times.
    levels: Vec<(usize, usize, usize, Vec<Range>)>,
}

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

impl MinMaxOctree {
    /// Build over `vol` with `leaf_size³` leaf bricks (dilated by one voxel
    /// so interpolated samples near brick borders are covered).
    pub fn build(vol: &Volume, leaf_size: usize) -> Self {
        assert!(leaf_size >= 2, "leaf bricks must be at least 2 voxels");
        let (nx, ny, nz) = vol.dims();
        let bricks = (
            ceil_div(nx.max(1), leaf_size),
            ceil_div(ny.max(1), leaf_size),
            ceil_div(nz.max(1), leaf_size),
        );
        let mut ranges = vec![Range { min: 255, max: 0 }; bricks.0 * bricks.1 * bricks.2];
        for bz in 0..bricks.2 {
            for by in 0..bricks.1 {
                for bx in 0..bricks.0 {
                    // Dilate by 1 voxel (clamped) for interpolation taps.
                    let x0 = (bx * leaf_size).saturating_sub(1);
                    let y0 = (by * leaf_size).saturating_sub(1);
                    let z0 = (bz * leaf_size).saturating_sub(1);
                    let x1 = ((bx + 1) * leaf_size + 1).min(nx);
                    let y1 = ((by + 1) * leaf_size + 1).min(ny);
                    let z1 = ((bz + 1) * leaf_size + 1).min(nz);
                    let mut r = Range { min: 255, max: 0 };
                    for z in z0..z1 {
                        for y in y0..y1 {
                            for x in x0..x1 {
                                let v = vol.at(x, y, z);
                                r.min = r.min.min(v);
                                r.max = r.max.max(v);
                            }
                        }
                    }
                    // A brick adjoining the volume border can interpolate
                    // against zero-extension.
                    if x0 == 0 || y0 == 0 || z0 == 0 || x1 == nx || y1 == ny || z1 == nz {
                        r.min = 0;
                    }
                    ranges[bx + bricks.0 * (by + bricks.1 * bz)] = r;
                }
            }
        }

        // Coarser levels by pairwise reduction.
        let mut levels = Vec::new();
        let (mut w, mut h, mut d) = bricks;
        let mut prev = ranges.clone();
        while w > 1 || h > 1 || d > 1 {
            let (nw, nh, nd) = (ceil_div(w, 2), ceil_div(h, 2), ceil_div(d, 2));
            let mut cur = vec![Range { min: 255, max: 0 }; nw * nh * nd];
            for z in 0..d {
                for y in 0..h {
                    for x in 0..w {
                        let src = prev[x + w * (y + h * z)];
                        let dst = &mut cur[(x / 2) + nw * ((y / 2) + nh * (z / 2))];
                        dst.min = dst.min.min(src.min);
                        dst.max = dst.max.max(src.max);
                    }
                }
            }
            levels.push((nw, nh, nd, cur.clone()));
            prev = cur;
            (w, h, d) = (nw, nh, nd);
        }

        Self {
            leaf_size,
            bricks,
            ranges,
            levels,
        }
    }

    /// Leaf brick edge length in voxels.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Scalar range of the leaf brick containing voxel `(x, y, z)`
    /// (clamped into the grid).
    pub fn leaf_range(&self, x: f64, y: f64, z: f64) -> Range {
        let clamp =
            |v: f64, n: usize| -> usize { (v.max(0.0) as usize / self.leaf_size).min(n - 1) };
        let bx = clamp(x, self.bricks.0);
        let by = clamp(y, self.bricks.1);
        let bz = clamp(z, self.bricks.2);
        self.ranges[bx + self.bricks.0 * (by + self.bricks.1 * bz)]
    }

    /// The whole volume's scalar range (root of the octree).
    pub fn root_range(&self) -> Range {
        match self.levels.last() {
            Some((_, _, _, v)) => v[0],
            None => self.ranges[0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    #[test]
    fn ranges_bound_the_scalars() {
        let vol = Dataset::Engine.generate(24, 5);
        let tree = MinMaxOctree::build(&vol, 4);
        let (nx, ny, nz) = vol.dims();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let v = vol.at(x, y, z);
                    let r = tree.leaf_range(x as f64, y as f64, z as f64);
                    assert!(r.min <= v && v <= r.max, "({x},{y},{z}): {v} vs {r:?}");
                }
            }
        }
        let root = tree.root_range();
        assert_eq!(root.min, 0);
        assert!(root.max >= 200);
    }

    #[test]
    fn dilation_covers_neighbors() {
        // A single bright voxel: the bricks adjacent to it must include it
        // in their (dilated) ranges.
        let mut vol = Volume::zeros(16, 16, 16);
        vol.set(8, 8, 8, 255);
        let tree = MinMaxOctree::build(&vol, 4);
        // Voxel (7,7,7) is in brick (1,1,1); the bright voxel at (8,8,8)
        // is in brick (2,2,2) but within the dilation of (1,1,1).
        assert_eq!(tree.leaf_range(7.0, 7.0, 7.0).max, 255);
        assert_eq!(tree.leaf_range(8.0, 8.0, 8.0).max, 255);
        // A far brick stays empty.
        assert_eq!(tree.leaf_range(0.0, 0.0, 0.0).max, 0);
    }

    #[test]
    fn out_of_range_queries_clamp() {
        let vol = Volume::zeros(8, 8, 8);
        let tree = MinMaxOctree::build(&vol, 4);
        assert_eq!(tree.leaf_range(-5.0, 0.0, 0.0).max, 0);
        assert_eq!(tree.leaf_range(100.0, 100.0, 100.0).max, 0);
    }

    #[test]
    fn uneven_dimensions_are_covered() {
        let vol = Volume::from_fn(10, 6, 7, |x, _, _| if x == 9 { 99 } else { 0 });
        let tree = MinMaxOctree::build(&vol, 4);
        assert_eq!(tree.leaf_range(9.0, 5.0, 6.0).max, 99);
        assert_eq!(tree.root_range().max, 99);
    }
}
