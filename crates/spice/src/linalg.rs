//! Dense linear algebra for MNA systems.
//!
//! Circuit matrices in this workspace are small (a noise cluster with a
//! finely segmented pair of 500 µm wires is a few hundred unknowns), so a
//! cache-friendly dense LU with partial pivoting beats a sparse code up to
//! well past the sizes we ever build. The factorization is exposed
//! separately from the solve ([`LuFactors`]) because transient analysis of a
//! *linear* circuit factors once per time-step size and back-substitutes
//! thousands of times.
//!
//! The LU kernel works on row slices of the row-major buffer: the pivot
//! search, the row swap and each row's elimination update are slice loops
//! with no per-entry index arithmetic or bounds check. Characterization
//! refactors a 5–9 unknown Jacobian at every Newton iteration, so this
//! kernel is a large share of its time. It takes the pivot (the first
//! strict maximum), the zero-multiplier skip and the operation order of
//! the index-based kernel it replaced, which its tests keep as an oracle:
//! factors, permutations, solutions and singular pivots agree bit for bit.

use crate::error::{Error, Result};

/// The fundamental MNA "stamp" sink: anything that can accumulate
/// `(row, col) += value` contributions. Implemented by [`DenseMatrix`], by
/// the sparse matrix type, and by [`PatternCollector`] (which records the
/// touched positions instead of values — used to pre-size sparse patterns).
pub trait MatrixStamp {
    /// Add `v` to entry `(i, j)`.
    fn add(&mut self, i: usize, j: usize, v: f64);
}

/// A [`MatrixStamp`] that records *which* entries are touched, discarding
/// the values. Device models stamp a fixed set of positions regardless of
/// the operating point, so one collection pass at any state yields the
/// complete non-linear Jacobian pattern.
#[derive(Debug, Clone, Default)]
pub struct PatternCollector {
    entries: Vec<(usize, usize)>,
}

impl PatternCollector {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded `(row, col)` positions, in stamp order (may repeat).
    pub fn entries(&self) -> &[(usize, usize)] {
        &self.entries
    }
}

impl MatrixStamp for PatternCollector {
    fn add(&mut self, i: usize, j: usize, _v: f64) {
        self.entries.push((i, j));
    }
}

impl MatrixStamp for DenseMatrix {
    #[inline]
    fn add(&mut self, i: usize, j: usize, v: f64) {
        DenseMatrix::add(self, i, j, v);
    }
}

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create an `n_rows × n_cols` zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Create an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a nested array literal (rows of equal length).
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for r in rows {
            assert_eq!(r.len(), n_cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            n_rows,
            n_cols,
            data,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Reset all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Add `v` to entry `(i, j)` — the fundamental MNA "stamp" operation.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.n_rows && j < self.n_cols);
        self.data[i * self.n_cols + j] += v;
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Allocation-free matrix-vector product: `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n_cols..(i + 1) * self.n_cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi = acc;
        }
    }

    /// Overwrite this matrix with `other`'s contents without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        assert_eq!(self.n_rows, other.n_rows);
        assert_eq!(self.n_cols, other.n_cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Scaled accumulate: `self += k·other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn axpy(&mut self, k: f64, other: &DenseMatrix) {
        assert_eq!(self.n_rows, other.n_rows);
        assert_eq!(self.n_cols, other.n_cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// LU-factorize (partial pivoting) consuming a copy of the matrix.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] if a pivot column is numerically zero.
    pub fn lu(&self) -> Result<LuFactors> {
        LuFactors::new(self.clone())
    }

    /// Solve `A·x = b` directly (factor + back-substitute).
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] if the matrix is singular.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        Ok(self.lu()?.solve(b))
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.n_rows)
            .map(|i| {
                self.data[i * self.n_cols..(i + 1) * self.n_cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n_cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n_cols + j]
    }
}

/// LU factorization with partial pivoting, reusable for many right-hand
/// sides.
///
/// # Examples
///
/// ```
/// use sna_spice::linalg::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = a.lu().unwrap();
/// let x = lu.solve(&[3.0, 4.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl LuFactors {
    fn new(a: DenseMatrix) -> Result<Self> {
        assert_eq!(a.n_rows, a.n_cols, "LU requires a square matrix");
        let n = a.n_rows;
        let mut f = Self {
            lu: a,
            perm: (0..n).collect(),
        };
        f.eliminate()?;
        Ok(f)
    }

    /// Re-factor `a` (same dimensions) into the existing buffers — the
    /// allocation-free path used by Newton loops that re-assemble the
    /// Jacobian every iteration. Full partial pivoting is redone, so the
    /// result is identical to a fresh [`DenseMatrix::lu`].
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] if a pivot column is numerically zero.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn refactor(&mut self, a: &DenseMatrix) -> Result<()> {
        self.lu.copy_from(a);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.eliminate()
    }

    /// Gaussian elimination with partial pivoting on the row-major buffer,
    /// one row slice at a time. The pivot is the first strict maximum of
    /// `|a[i][k]|` over `i >= k`; a multiplier of exactly zero skips its
    /// row update.
    fn eliminate(&mut self) -> Result<()> {
        let n = self.lu.n_rows;
        let a = &mut self.lu.data[..n * n];
        for k in 0..n {
            let mut p = k;
            let mut best = a[k * n + k].abs();
            for (i, row) in a.chunks_exact(n).enumerate().skip(k + 1) {
                let v = row[k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(Error::SingularMatrix { pivot: k });
            }
            if p != k {
                let (upper, lower) = a.split_at_mut(p * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                self.perm.swap(k, p);
            }
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let pivot_row = &upper[k * n..];
            let pivot = pivot_row[k];
            let u = &pivot_row[k + 1..];
            for row in lower.chunks_exact_mut(n) {
                let m = row[k] / pivot;
                row[k] = m;
                if m != 0.0 {
                    for (aij, &akj) in row[k + 1..].iter_mut().zip(u) {
                        *aij -= m * akj;
                    }
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored system.
    pub fn n(&self) -> usize {
        self.lu.n_rows
    }

    /// Solve `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the system dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n()];
        self.solve_into(b, &mut x);
        x
    }

    /// Allocation-free solve: writes the solution of `A·x = b` into `x`
    /// (which doubles as the substitution workspace).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differs from the system dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        if n == 0 {
            return;
        }
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        let lu = &self.lu.data[..n * n];
        // Forward substitution (L has unit diagonal).
        for (i, row) in lu.chunks_exact(n).enumerate().skip(1) {
            let mut acc = x[i];
            for (l, &xj) in row[..i].iter().zip(&x[..i]) {
                acc -= l * xj;
            }
            x[i] = acc;
        }
        // Back substitution.
        for (i, row) in lu.chunks_exact(n).enumerate().rev() {
            let mut acc = x[i];
            for (u, &xj) in row[i + 1..].iter().zip(&x[i + 1..]) {
                acc -= u * xj;
            }
            x[i] = acc / row[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_solve() {
        let a = DenseMatrix::identity(4);
        let x = a.solve(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solve_known_3x3() {
        let a = DenseMatrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let xs = [1.5, -0.25, 3.0];
        let b = a.mul_vec(&xs);
        let x = a.solve(&b).unwrap();
        for (got, want) in x.iter().zip(xs.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match a.solve(&[1.0, 2.0]) {
            Err(Error::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn factor_reuse_many_rhs() {
        let a = DenseMatrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = a.lu().unwrap();
        for k in 0..10 {
            let b = [k as f64, 1.0 - k as f64];
            let x = lu.solve(&b);
            let back = a.mul_vec(&x);
            assert!((back[0] - b[0]).abs() < 1e-12);
            assert!((back[1] - b[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::identity(2);
        a.axpy(2.5, &b);
        assert_eq!(a[(0, 0)], 2.5);
        assert_eq!(a[(1, 1)], 2.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn norm_inf() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
        assert_eq!(a.norm_inf(), 3.5);
    }

    /// The index-based elimination the row-slice kernel replaced, kept as
    /// its oracle: same pivot search, swaps, zero-multiplier skip and
    /// operation order, one `(i, j)` lookup per entry.
    fn oracle_eliminate(a: &mut DenseMatrix, perm: &mut [usize]) -> Result<()> {
        let n = a.n_rows;
        for k in 0..n {
            let mut p = k;
            let mut best = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(Error::SingularMatrix { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
                perm.swap(k, p);
            }
            let pivot = a[(k, k)];
            for i in (k + 1)..n {
                let m = a[(i, k)] / pivot;
                a[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let akj = a[(k, j)];
                        a[(i, j)] -= m * akj;
                    }
                }
            }
        }
        Ok(())
    }

    /// The index-based substitution the row-slice solve replaced.
    fn oracle_solve(lu: &DenseMatrix, perm: &[usize], b: &[f64]) -> Vec<f64> {
        let n = lu.n_rows;
        let mut x: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                acc -= lu[(i, j)] * xj;
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                acc -= lu[(i, j)] * xj;
            }
            x[i] = acc / lu[(i, i)];
        }
        x
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `a.lu()` and a refactor of a used factor equal the oracle bit for
    /// bit: factors, permutation and solution, or the same singular pivot.
    fn assert_lu_matches_oracle(a: &DenseMatrix, b: &[f64]) {
        let n = a.n_rows;
        let mut want = a.clone();
        let mut want_perm: Vec<usize> = (0..n).collect();
        let oracle = oracle_eliminate(&mut want, &mut want_perm);
        let mut used = DenseMatrix::identity(n).lu().unwrap();
        used.perm.reverse();
        let refactored = used.refactor(a).map(|()| used);
        for got in [a.lu(), refactored] {
            match (&got, &oracle) {
                (Ok(f), Ok(())) => {
                    assert_eq!(bits(&f.lu.data), bits(&want.data), "factors of {a:?}");
                    assert_eq!(f.perm, want_perm, "permutation of {a:?}");
                    assert_eq!(
                        bits(&f.solve(b)),
                        bits(&oracle_solve(&want, &want_perm, b)),
                        "solution of {a:?}"
                    );
                }
                (
                    Err(Error::SingularMatrix { pivot: p }),
                    Err(Error::SingularMatrix { pivot: q }),
                ) => assert_eq!(p, q, "singular pivot of {a:?}"),
                _ => panic!("{a:?}: kernel {got:?} vs oracle {oracle:?}"),
            }
        }
    }

    #[test]
    fn lu_matches_oracle_on_edge_cases() {
        let cases = [
            DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]),
            DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]),
            DenseMatrix::from_rows(&[&[0.0, 0.0], &[0.0, 0.0]]),
            // Ties: the first of equal maxima is the pivot.
            DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 5.0, 1.0], &[1.0, 0.0, 2.0]]),
            // A zero multiplier below the pivot skips its row update.
            DenseMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[0.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]),
            DenseMatrix::from_rows(&[&[f64::NAN, 1.0], &[1.0, 2.0]]),
            DenseMatrix::identity(1),
        ];
        for a in &cases {
            let b: Vec<f64> = (0..a.n_rows).map(|i| 1.0 + i as f64).collect();
            assert_lu_matches_oracle(a, &b);
        }
    }

    proptest! {
        /// Random diagonally dominant systems solve to machine-level residual.
        #[test]
        fn prop_solve_residual(seed_rows in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 6), 6),
            rhs in proptest::collection::vec(-10.0f64..10.0, 6))
        {
            let n = 6;
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                let mut rowsum = 0.0;
                for j in 0..n {
                    a[(i, j)] = seed_rows[i][j];
                    rowsum += seed_rows[i][j].abs();
                }
                // Diagonal dominance guarantees non-singularity.
                a[(i, i)] += rowsum + 1.0;
            }
            let x = a.solve(&rhs).unwrap();
            let back = a.mul_vec(&x);
            for (got, want) in back.iter().zip(rhs.iter()) {
                prop_assert!((got - want).abs() < 1e-8);
            }
        }

        /// LU(A) applied to A's own product with a vector recovers the vector.
        #[test]
        fn prop_roundtrip(xs in proptest::collection::vec(-5.0f64..5.0, 4)) {
            let a = DenseMatrix::from_rows(&[
                &[5.0, 1.0, 0.0, 2.0],
                &[1.0, 4.0, 1.0, 0.0],
                &[0.0, 1.0, 6.0, 1.0],
                &[2.0, 0.0, 1.0, 7.0],
            ]);
            let b = a.mul_vec(&xs);
            let x = a.solve(&b).unwrap();
            for (got, want) in x.iter().zip(xs.iter()) {
                prop_assert!((got - want).abs() < 1e-9);
            }
        }

        /// The row-slice kernel equals the index-based oracle bit for bit
        /// on random matrices (`shape` 0), pivot-heavy ones whose diagonal
        /// is tiny next to the entries below it (1), singular ones with a
        /// repeated row or, at odd `n`, a zero column (2) and ones with
        /// exact zeros that exercise the zero-multiplier skip (3).
        #[test]
        fn prop_lu_matches_index_oracle(
            n in 1usize..10,
            shape in 0u32..4,
            entries in proptest::collection::vec(-1.0f64..1.0, 100),
            rhs in proptest::collection::vec(-10.0f64..10.0, 10),
        ) {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let v = entries[i * 10 + j];
                    a[(i, j)] = match shape {
                        1 if i == j => v * 1e-9,
                        1 if i > j => v * 1e3,
                        3 if v.abs() < 0.5 => 0.0,
                        _ => v,
                    };
                }
            }
            if shape == 2 && n > 1 {
                let (src, dst) = (n / 2, n - 1);
                for j in 0..n {
                    a[(dst, j)] = a[(src, j)];
                }
                if n % 2 == 1 {
                    for i in 0..n {
                        a[(i, src)] = 0.0;
                    }
                }
            }
            assert_lu_matches_oracle(&a, &rhs[..n]);
        }
    }
}
