//! Two-dimensional lookup tables with bilinear interpolation.
//!
//! This is the data structure behind the paper's Eq. (1): the victim-driver
//! macromodel `I_DC = f(V_in, V_out)`, characterized on a rectangular
//! `(V_in, V_out)` grid by DC analysis and evaluated with bilinear
//! interpolation inside the dedicated noise engine. The partial derivative
//! `∂f/∂V_out` is returned analytically so Newton iterations get an exact
//! Jacobian within each grid cell.

use crate::error::{Error, Result};

/// Rectangular-grid bilinear lookup table `z = f(x, y)`.
///
/// # Examples
///
/// ```
/// use sna_spice::devices::Table2d;
///
/// // z = x + 2y sampled on a 2x2 grid; bilinear interpolation is exact
/// // for this function.
/// let t = Table2d::new(
///     vec![0.0, 1.0],
///     vec![0.0, 1.0],
///     vec![0.0, 2.0, 1.0, 3.0], // row-major: z(x0,y0), z(x0,y1), z(x1,y0), z(x1,y1)
/// ).unwrap();
/// let e = t.eval(0.5, 0.25);
/// assert!((e.z - 1.0).abs() < 1e-12);
/// assert!((e.dz_dx - 1.0).abs() < 1e-12);
/// assert!((e.dz_dy - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table2d {
    x_axis: Vec<f64>,
    y_axis: Vec<f64>,
    /// Row-major over x: `values[ix * y_axis.len() + iy]`.
    values: Vec<f64>,
}

/// Interpolated value and analytic in-cell partial derivatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableEval {
    /// Interpolated value.
    pub z: f64,
    /// ∂z/∂x within the active cell.
    pub dz_dx: f64,
    /// ∂z/∂y within the active cell.
    pub dz_dy: f64,
}

impl Table2d {
    /// Build a table from axes and row-major values.
    ///
    /// # Errors
    ///
    /// Fails if an axis has fewer than 2 points, is not strictly increasing,
    /// or `values.len() != x.len() * y.len()`, or any value is non-finite.
    pub fn new(x_axis: Vec<f64>, y_axis: Vec<f64>, values: Vec<f64>) -> Result<Self> {
        if x_axis.len() < 2 || y_axis.len() < 2 {
            return Err(Error::InvalidTable(
                "each table axis needs at least 2 points".into(),
            ));
        }
        for axis in [&x_axis, &y_axis] {
            for w in axis.windows(2) {
                if w[1] <= w[0] {
                    return Err(Error::InvalidTable(
                        "table axis must be strictly increasing".into(),
                    ));
                }
            }
        }
        if values.len() != x_axis.len() * y_axis.len() {
            return Err(Error::InvalidTable(format!(
                "value count {} != {} x {}",
                values.len(),
                x_axis.len(),
                y_axis.len()
            )));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(Error::InvalidTable("non-finite table value".into()));
        }
        Ok(Self {
            x_axis,
            y_axis,
            values,
        })
    }

    /// Build by sampling a closure on the given axes.
    ///
    /// # Errors
    ///
    /// Same validation as [`Table2d::new`].
    pub fn from_fn<F: FnMut(f64, f64) -> f64>(
        x_axis: Vec<f64>,
        y_axis: Vec<f64>,
        mut f: F,
    ) -> Result<Self> {
        let mut values = Vec::with_capacity(x_axis.len() * y_axis.len());
        for &x in &x_axis {
            for &y in &y_axis {
                values.push(f(x, y));
            }
        }
        Self::new(x_axis, y_axis, values)
    }

    /// X axis grid.
    pub fn x_axis(&self) -> &[f64] {
        &self.x_axis
    }

    /// Y axis grid.
    pub fn y_axis(&self) -> &[f64] {
        &self.y_axis
    }

    /// Raw row-major values (`x` major, `y` minor).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Grid value at integer indices.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn at(&self, ix: usize, iy: usize) -> f64 {
        self.values[ix * self.y_axis.len() + iy]
    }

    fn locate(axis: &[f64], q: f64) -> (usize, f64) {
        // Clamp the query into the axis span, then find the cell.
        let n = axis.len();
        if q <= axis[0] {
            return (0, 0.0);
        }
        if q >= axis[n - 1] {
            return (n - 2, 1.0);
        }
        let hi = axis.partition_point(|&a| a <= q);
        let lo = hi - 1;
        let frac = (q - axis[lo]) / (axis[hi] - axis[lo]);
        (lo, frac)
    }

    /// Bilinear interpolation with analytic partial derivatives.
    ///
    /// Queries outside the grid are clamped to the boundary; the derivative
    /// reported there is the edge cell's gradient, which keeps Newton
    /// productive even on brief excursions outside the characterized range.
    pub fn eval(&self, x: f64, y: f64) -> TableEval {
        let (ix, fx) = Self::locate(&self.x_axis, x);
        let (iy, fy) = Self::locate(&self.y_axis, y);
        let dx = self.x_axis[ix + 1] - self.x_axis[ix];
        let dy = self.y_axis[iy + 1] - self.y_axis[iy];
        let z00 = self.at(ix, iy);
        let z01 = self.at(ix, iy + 1);
        let z10 = self.at(ix + 1, iy);
        let z11 = self.at(ix + 1, iy + 1);
        let z = z00 * (1.0 - fx) * (1.0 - fy)
            + z10 * fx * (1.0 - fy)
            + z01 * (1.0 - fx) * fy
            + z11 * fx * fy;
        let dz_dx = ((z10 - z00) * (1.0 - fy) + (z11 - z01) * fy) / dx;
        let dz_dy = ((z01 - z00) * (1.0 - fx) + (z11 - z10) * fx) / dy;
        TableEval { z, dz_dx, dz_dy }
    }

    /// Interpolated value only.
    pub fn value(&self, x: f64, y: f64) -> f64 {
        self.eval(x, y).z
    }

    /// Maximum absolute value over the grid.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |a, &v| a.max(v.abs()))
    }
}

/// Uniformly spaced axis over `[lo, hi]` with `n` points (inclusive).
///
/// # Panics
///
/// Panics if `n < 2` or `hi <= lo`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs n >= 2");
    assert!(hi > lo, "linspace needs hi > lo");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + i as f64 * step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bilinear_exact() -> Table2d {
        // z = 3 + 2x - y + 0.5xy sampled on a grid; bilinear interpolation
        // reproduces any such function exactly.
        Table2d::from_fn(linspace(-1.0, 1.0, 5), linspace(0.0, 2.0, 4), |x, y| {
            3.0 + 2.0 * x - y + 0.5 * x * y
        })
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(Table2d::new(vec![0.0], vec![0.0, 1.0], vec![0.0, 0.0]).is_err());
        assert!(Table2d::new(vec![0.0, 0.0], vec![0.0, 1.0], vec![0.0; 4]).is_err());
        assert!(Table2d::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 3]).is_err());
        assert!(Table2d::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![f64::NAN; 4]).is_err());
        assert!(Table2d::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn exact_on_bilinear_function() {
        let t = bilinear_exact();
        for &(x, y) in &[(0.3, 0.7), (-0.9, 1.9), (0.0, 0.0), (1.0, 2.0)] {
            let e = t.eval(x, y);
            let want = 3.0 + 2.0 * x - y + 0.5 * x * y;
            assert!((e.z - want).abs() < 1e-12, "at ({x},{y})");
            assert!((e.dz_dx - (2.0 + 0.5 * y)).abs() < 1e-12);
            assert!((e.dz_dy - (-1.0 + 0.5 * x)).abs() < 1e-12);
        }
    }

    #[test]
    fn clamping_outside_grid() {
        let t = bilinear_exact();
        let inside = t.eval(1.0, 2.0);
        let outside = t.eval(5.0, 9.0);
        assert!((inside.z - outside.z).abs() < 1e-12);
        // Gradient survives clamping (edge cell gradient).
        assert!(outside.dz_dx.abs() > 0.0);
    }

    #[test]
    fn grid_points_reproduced() {
        let t = bilinear_exact();
        for (ix, &x) in t.x_axis().to_vec().iter().enumerate() {
            for (iy, &y) in t.y_axis().to_vec().iter().enumerate() {
                assert!((t.value(x, y) - t.at(ix, iy)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn linspace_endpoints() {
        let a = linspace(0.0, 1.0, 11);
        assert_eq!(a.len(), 11);
        assert_eq!(a[0], 0.0);
        assert_eq!(a[10], 1.0);
        assert!((a[5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clone_equality() {
        let t = bilinear_exact();
        let u = t.clone();
        assert_eq!(t, u);
    }

    proptest! {
        /// Interpolated values never exceed the range of the four cell
        /// corners (bilinear convexity), for in-range queries.
        #[test]
        fn prop_within_corner_bounds(x in -1.0f64..1.0, y in 0.0f64..2.0) {
            let t = bilinear_exact();
            let e = t.eval(x, y);
            let lo = t.values().iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = t.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(e.z >= lo - 1e-9 && e.z <= hi + 1e-9);
        }

        /// Finite differences agree with analytic in-cell derivatives.
        #[test]
        fn prop_derivative_consistency(x in -0.95f64..0.95, y in 0.05f64..1.95) {
            let t = bilinear_exact();
            let e = t.eval(x, y);
            let h = 1e-7;
            let fdx = (t.value(x + h, y) - t.value(x - h, y)) / (2.0 * h);
            let fdy = (t.value(x, y + h) - t.value(x, y - h)) / (2.0 * h);
            // Away from cell boundaries the analytic derivative matches.
            prop_assert!((fdx - e.dz_dx).abs() < 1e-3);
            prop_assert!((fdy - e.dz_dy).abs() < 1e-3);
        }
    }
}
