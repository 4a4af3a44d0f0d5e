//! Minimal 3-vector / 3×3-matrix algebra for the viewing transformation.
//!
//! Only what the shear-warp factorization needs: rotations, transposes,
//! matrix–vector products, and a 3×3 solve (used to fit the 2-D warp from
//! point correspondences). Kept local rather than pulling in a linear
//! algebra dependency.

/// A 3-vector of `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// Construct from components.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Component by index (0 = x, 1 = y, 2 = z).
    pub fn get(&self, i: usize) -> f64 {
        [self.x, self.y, self.z][i]
    }

    /// Dot product.
    pub fn dot(&self, o: &Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in this direction.
    pub fn normalized(&self) -> Vec3 {
        let n = self.norm();
        Vec3::new(self.x / n, self.y / n, self.z / n)
    }

    /// Index of the component with the largest magnitude.
    pub fn argmax_abs(&self) -> usize {
        let a = [self.x.abs(), self.y.abs(), self.z.abs()];
        let mut best = 0;
        for i in 1..3 {
            if a[i] > a[best] {
                best = i;
            }
        }
        best
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

/// A row-major 3×3 matrix of `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows-major entries.
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub fn identity() -> Self {
        Self {
            m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Rotation about the X axis by `a` radians.
    pub fn rot_x(a: f64) -> Self {
        let (s, c) = a.sin_cos();
        Self {
            m: [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]],
        }
    }

    /// Rotation about the Y axis by `a` radians.
    pub fn rot_y(a: f64) -> Self {
        let (s, c) = a.sin_cos();
        Self {
            m: [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]],
        }
    }

    /// Rotation about the Z axis by `a` radians.
    pub fn rot_z(a: f64) -> Self {
        let (s, c) = a.sin_cos();
        Self {
            m: [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Matrix product `self * o`.
    pub fn mul(&self, o: &Mat3) -> Mat3 {
        let mut r = [[0.0; 3]; 3];
        for (i, row) in r.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.m[i][k] * o.m[k][j]).sum();
            }
        }
        Mat3 { m: r }
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }

    /// Transpose (the inverse for rotations).
    pub fn transpose(&self) -> Mat3 {
        let mut r = [[0.0; 3]; 3];
        for (i, row) in self.m.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                r[j][i] = v;
            }
        }
        Mat3 { m: r }
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Solve `self · x = b` by Cramer's rule; `None` if singular.
    pub fn solve(&self, b: &Vec3) -> Option<Vec3> {
        let d = self.det();
        if d.abs() < 1e-12 {
            return None;
        }
        let col = |j: usize, b: &Vec3| {
            let mut m = *self;
            m.m[0][j] = b.x;
            m.m[1][j] = b.y;
            m.m[2][j] = b.z;
            m.det() / d
        };
        Some(Vec3::new(col(0, b), col(1, b), col(2, b)))
    }
}

/// A 2-D affine map `(u, v) ↦ (a·u + b·v + c, d·u + e·v + f)` — the warp of
/// the shear-warp factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine2 {
    /// Row for the x output: `[a, b, c]`.
    pub x: [f64; 3],
    /// Row for the y output: `[d, e, f]`.
    pub y: [f64; 3],
}

impl Affine2 {
    /// Apply the map.
    pub fn apply(&self, u: f64, v: f64) -> (f64, f64) {
        (
            self.x[0] * u + self.x[1] * v + self.x[2],
            self.y[0] * u + self.y[1] * v + self.y[2],
        )
    }

    /// Invert the map; `None` if it is degenerate.
    pub fn inverse(&self) -> Option<Affine2> {
        let det = self.x[0] * self.y[1] - self.x[1] * self.y[0];
        if det.abs() < 1e-12 {
            return None;
        }
        let (a, b, c) = (self.x[0], self.x[1], self.x[2]);
        let (d, e, f) = (self.y[0], self.y[1], self.y[2]);
        Some(Affine2 {
            x: [e / det, -b / det, (b * f - c * e) / det],
            y: [-d / det, a / det, (c * d - a * f) / det],
        })
    }

    /// Fit the affine map sending three `(u, v)` points to three `(x, y)`
    /// points; `None` if the source points are collinear.
    pub fn from_points(src: [(f64, f64); 3], dst: [(f64, f64); 3]) -> Option<Affine2> {
        let m = Mat3 {
            m: [
                [src[0].0, src[0].1, 1.0],
                [src[1].0, src[1].1, 1.0],
                [src[2].0, src[2].1, 1.0],
            ],
        };
        let xs = m.solve(&Vec3::new(dst[0].0, dst[1].0, dst[2].0))?;
        let ys = m.solve(&Vec3::new(dst[0].1, dst[1].1, dst[2].1))?;
        Some(Affine2 {
            x: [xs.x, xs.y, xs.z],
            y: [ys.x, ys.y, ys.z],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn rotations_are_orthonormal() {
        for m in [Mat3::rot_x(0.7), Mat3::rot_y(-1.2), Mat3::rot_z(2.5)] {
            let i = m.mul(&m.transpose());
            for r in 0..3 {
                for c in 0..3 {
                    let want = if r == c { 1.0 } else { 0.0 };
                    assert!((i.m[r][c] - want).abs() < EPS);
                }
            }
            assert!((m.det() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let m = Mat3 {
            m: [[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 1.0]],
        };
        let x = Vec3::new(1.0, -2.0, 0.5);
        let b = m.mul_vec(&x);
        let got = m.solve(&b).unwrap();
        assert!((got.x - x.x).abs() < EPS);
        assert!((got.y - x.y).abs() < EPS);
        assert!((got.z - x.z).abs() < EPS);
    }

    #[test]
    fn singular_solve_is_none() {
        let m = Mat3 {
            m: [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]],
        };
        assert!(m.solve(&Vec3::new(1.0, 1.0, 1.0)).is_none());
    }

    #[test]
    fn affine_fit_and_inverse_roundtrip() {
        let src = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)];
        let dst = [(3.0, 4.0), (5.0, 4.5), (2.5, 7.0)];
        let w = Affine2::from_points(src, dst).unwrap();
        for (s, d) in src.iter().zip(&dst) {
            let (x, y) = w.apply(s.0, s.1);
            assert!((x - d.0).abs() < EPS && (y - d.1).abs() < EPS);
        }
        let inv = w.inverse().unwrap();
        let (u, v) = inv.apply(3.0, 4.0);
        assert!((u - 0.0).abs() < EPS && (v - 0.0).abs() < EPS);
        // Random point roundtrip.
        let (x, y) = w.apply(0.3, -0.7);
        let (u, v) = inv.apply(x, y);
        assert!((u - 0.3).abs() < EPS && (v + 0.7).abs() < EPS);
    }

    #[test]
    fn collinear_points_rejected() {
        let src = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)];
        let dst = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)];
        assert!(Affine2::from_points(src, dst).is_none());
    }

    #[test]
    fn argmax_abs_picks_dominant_axis() {
        assert_eq!(Vec3::new(0.1, -0.9, 0.3).argmax_abs(), 1);
        assert_eq!(Vec3::new(0.5, 0.2, -0.6).argmax_abs(), 2);
        assert_eq!(Vec3::new(1.0, 0.0, 0.0).argmax_abs(), 0);
    }
}
