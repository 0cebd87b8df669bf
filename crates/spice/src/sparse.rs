//! Sparse linear algebra: CSC matrices and a KLU-style LU with a
//! symbolic/numeric split.
//!
//! MNA matrices of finely segmented interconnect are ~99 % zeros
//! (tridiagonal ladders plus a few coupling diagonals), so dense O(n³) LU
//! wastes almost all of its work. This module factors such systems the way
//! production SPICE engines do:
//!
//! 1. **Symbolic analysis** ([`Symbolic::analyze`]) — a fill-reducing
//!    reverse Cuthill–McKee ordering of the pattern of `A + Aᵀ`, computed
//!    once per circuit topology.
//! 2. **Cold factorization** ([`SparseLu::factor`]) — left-looking
//!    Gilbert–Peierls LU with threshold partial pivoting; discovers the
//!    fill pattern and the pivot sequence.
//! 3. **Refactorization** ([`SparseLu::refactor`]) — replays the stored
//!    pattern and pivot sequence on new numeric values (Newton iterations,
//!    per-`dt` conductance changes) with no graph traversal, no pivot
//!    search, and no allocation: near-linear in the factor's non-zeros.
//!
//! Solves ([`SparseLu::solve_into`]) are allocation-free given a caller
//! scratch slice.

use crate::error::{Error, Result};
use crate::linalg::{DenseMatrix, MatrixStamp};

/// Sentinel for "row not yet pivotal" during factorization.
const NONE: usize = usize::MAX;

/// Pivots smaller than this are treated as numerically singular, matching
/// the dense LU's cutoff.
const PIVOT_MIN: f64 = 1e-300;

/// Threshold partial pivoting: keep the diagonal pivot whenever it is at
/// least this fraction of the column's largest candidate. Biasing towards
/// the diagonal preserves the fill-reducing ordering (and thus sparsity);
/// MNA diagonals are strongly dominant away from voltage-source rows.
const PIVOT_TOL: f64 = 0.1;

/// Square sparse matrix in compressed-sparse-column (CSC) form with a
/// *fixed pattern*: positions are decided at construction, values are
/// mutated in place by the MNA stamp operations.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseMatrix {
    /// Build a pattern (all values zero) from `(row, col)` positions.
    /// Duplicates are merged.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_pattern(n: usize, entries: &[(usize, usize)]) -> Self {
        let mut keys: Vec<(usize, usize)> = entries
            .iter()
            .map(|&(i, j)| {
                assert!(i < n && j < n, "entry ({i},{j}) outside {n}x{n}");
                (j, i) // column-major sort key
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(keys.len());
        for &(j, i) in &keys {
            col_ptr[j + 1] += 1;
            row_idx.push(i);
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = row_idx.len();
        Self {
            n,
            col_ptr,
            row_idx,
            vals: vec![0.0; nnz],
        }
    }

    /// Build from triplets, summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let pattern: Vec<(usize, usize)> = triplets.iter().map(|&(i, j, _)| (i, j)).collect();
        let mut m = Self::from_pattern(n, &pattern);
        for &(i, j, v) in triplets {
            m.add(i, j, v);
        }
        m
    }

    /// Build from a dense matrix, keeping every non-zero entry.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn from_dense(a: &DenseMatrix) -> Self {
        assert_eq!(a.n_rows(), a.n_cols(), "sparse conversion needs square");
        let n = a.n_rows();
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let v = a[(i, j)];
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        Self::from_triplets(n, &triplets)
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entry count.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Slot index of entry `(i, j)` in the value array, if present.
    #[inline]
    fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .binary_search(&i)
            .ok()
            .map(|off| lo + off)
    }

    /// Read entry `(i, j)` (0 if outside the pattern).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.slot(i, j).map_or(0.0, |s| self.vals[s])
    }

    /// Add `v` to entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the fixed pattern — stamping must only
    /// touch positions declared at construction.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let s = self
            .slot(i, j)
            .unwrap_or_else(|| panic!("stamp at ({i},{j}) outside the sparse pattern"));
        self.vals[s] += v;
    }

    /// The value array, pattern order (column-major, rows ascending).
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable value array, pattern order.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Allocation-free matrix-vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vals_into(&self.vals, x, y);
    }

    /// `y = A'·x` where `A'` shares this pattern but takes its values from
    /// `vals` — lets one pattern back several coefficient sets (G, C,
    /// G + α·C) without duplicating the index structure.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vals_into(&self, vals: &[f64], x: &[f64], y: &mut [f64]) {
        assert_eq!(vals.len(), self.row_idx.len());
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[p]] += vals[p] * xj;
            }
        }
    }

    /// Materialize as a dense matrix: the oracle sparse results are
    /// checked against.
    #[cfg(test)]
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                d.add(self.row_idx[p], j, self.vals[p]);
            }
        }
        d
    }
}

impl MatrixStamp for SparseMatrix {
    #[inline]
    fn add(&mut self, i: usize, j: usize, v: f64) {
        SparseMatrix::add(self, i, j, v);
    }
}

/// Result of the symbolic analysis pass: a fill-reducing elimination order,
/// computed once per circuit topology and shared by every numeric
/// factorization of matrices with that pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbolic {
    /// `perm[k]` = original column eliminated in position `k`.
    perm: Vec<usize>,
}

impl Symbolic {
    /// Analyze the pattern of `a`: reverse Cuthill–McKee on `A + Aᵀ`.
    /// RCM drives banded-plus-coupling MNA structures (segmented wires with
    /// inter-wire coupling caps) to a narrow band, so LU fill stays
    /// near-linear in the input non-zeros.
    pub fn analyze(a: &SparseMatrix) -> Self {
        let n = a.n;
        // Symmetrized adjacency, diagonal excluded.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for j in 0..n {
            for p in a.col_ptr[j]..a.col_ptr[j + 1] {
                let i = a.row_idx[p];
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        let degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // BFS from `start`, neighbors by increasing degree; returns the
        // range of `order` this component occupies.
        let bfs = |start: usize, visited: &mut Vec<bool>, order: &mut Vec<usize>| -> usize {
            let begin = order.len();
            visited[start] = true;
            order.push(start);
            let mut head = begin;
            let mut frontier: Vec<usize> = Vec::new();
            while head < order.len() {
                let u = order[head];
                head += 1;
                frontier.clear();
                for &v in &adj[u] {
                    if !visited[v] {
                        visited[v] = true;
                        frontier.push(v);
                    }
                }
                frontier.sort_unstable_by_key(|&v| degree[v]);
                order.extend_from_slice(&frontier);
            }
            begin
        };
        for seed in 0..n {
            if visited[seed] {
                continue;
            }
            // Pseudo-peripheral start: BFS once, restart from the node
            // discovered last (an eccentric, low-degree endpoint).
            let begin = bfs(seed, &mut visited, &mut order);
            let far = *order.last().expect("bfs visited at least the seed");
            if far != seed {
                for &u in &order[begin..] {
                    visited[u] = false;
                }
                order.truncate(begin);
                bfs(far, &mut visited, &mut order);
            }
        }
        order.reverse();
        Self { perm: order }
    }

    /// The natural (identity) ordering — baseline for tests and benches.
    pub fn natural(n: usize) -> Self {
        Self {
            perm: (0..n).collect(),
        }
    }

    /// The elimination order: `perm()[k]` is the original column
    /// eliminated at position `k`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }
}

/// Sparse LU factors `P·A·Q = L·U` with stored pattern and pivot sequence,
/// supporting repeated [`SparseLu::refactor`]/[`SparseLu::solve_into`]
/// cycles without allocation.
///
/// # Examples
///
/// ```
/// use sna_spice::sparse::{SparseLu, SparseMatrix, Symbolic};
///
/// let a = SparseMatrix::from_triplets(
///     2,
///     &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)],
/// );
/// let sym = Symbolic::analyze(&a);
/// let lu = SparseLu::factor(&a, &sym).unwrap();
/// let mut x = [0.0; 2];
/// let mut work = [0.0; 2];
/// lu.solve_into(&[3.0, 4.0], &mut x, &mut work);
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Column order (from the symbolic pass).
    q: Vec<usize>,
    /// `p[k]` = original row pivotal at position `k`.
    p: Vec<usize>,
    /// `pinv[original row]` = pivotal position.
    pinv: Vec<usize>,
    /// Strict lower factor, CSC by pivotal column; unit diagonal implicit.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    /// Strict upper factor, CSC by pivotal column, rows ascending.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// Dense accumulator reused by [`SparseLu::refactor`].
    work: Vec<f64>,
}

impl SparseLu {
    /// Cold factorization: Gilbert–Peierls left-looking LU with threshold
    /// partial pivoting, discovering the fill pattern and pivot sequence.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] on a structurally or numerically singular
    /// column.
    pub fn factor(a: &SparseMatrix, sym: &Symbolic) -> Result<Self> {
        let n = a.n;
        assert_eq!(sym.perm.len(), n, "symbolic analysis dimension mismatch");
        let q = sym.perm.clone();
        let mut pinv = vec![NONE; n];
        let mut p = vec![0usize; n];
        // Factors under construction; L rows are ORIGINAL indices until the
        // final remap, U rows are pivotal.
        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut u_diag = Vec::with_capacity(n);
        l_colptr.push(0);
        u_colptr.push(0);
        // Scratch: dense accumulator, DFS visit stamps, traversal stacks.
        let mut x = vec![0.0; n];
        let mut mark = vec![NONE; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for k in 0..n {
            let col = q[k];
            // Reach of A(:,col) through the DAG of finished L columns,
            // collected in postorder (reverse = topological).
            topo.clear();
            for ap in a.col_ptr[col]..a.col_ptr[col + 1] {
                let root = a.row_idx[ap];
                if mark[root] == k {
                    continue;
                }
                mark[root] = k;
                stack.push((root, 0));
                while let Some(&(node, child)) = stack.last() {
                    let (lo, hi) = if pinv[node] == NONE {
                        (0, 0)
                    } else {
                        let jc = pinv[node];
                        (l_colptr[jc], l_colptr[jc + 1])
                    };
                    let mut descended = false;
                    let mut ci = child;
                    while lo + ci < hi {
                        let next = l_rows[lo + ci];
                        ci += 1;
                        if mark[next] != k {
                            mark[next] = k;
                            stack.last_mut().expect("non-empty stack").1 = ci;
                            stack.push((next, 0));
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        stack.pop();
                        topo.push(node);
                    }
                }
            }
            // Numeric sparse triangular solve x = L \ A(:,col).
            for &i in &topo {
                x[i] = 0.0;
            }
            for ap in a.col_ptr[col]..a.col_ptr[col + 1] {
                x[a.row_idx[ap]] = a.vals[ap];
            }
            for idx in (0..topo.len()).rev() {
                let i = topo[idx];
                if pinv[i] == NONE {
                    continue;
                }
                let xi = x[i];
                if xi == 0.0 {
                    continue;
                }
                let jc = pinv[i];
                for lp in l_colptr[jc]..l_colptr[jc + 1] {
                    x[l_rows[lp]] -= l_vals[lp] * xi;
                }
            }
            // Pivot choice among not-yet-pivotal rows.
            let mut ipiv = NONE;
            let mut amax = 0.0f64;
            for &i in &topo {
                if pinv[i] == NONE {
                    let v = x[i].abs();
                    if v > amax {
                        amax = v;
                        ipiv = i;
                    }
                }
            }
            if ipiv == NONE || amax < PIVOT_MIN {
                return Err(Error::SingularMatrix { pivot: k });
            }
            if pinv[col] == NONE && x[col].abs() >= PIVOT_TOL * amax {
                ipiv = col; // keep the diagonal: preserves the ordering
            }
            let pivot = x[ipiv];
            pinv[ipiv] = k;
            p[k] = ipiv;
            u_diag.push(pivot);
            // Partition the reach into U (already pivotal) and L columns;
            // exact zeros are kept so the pattern is closed under refactor.
            for &i in &topo {
                let pi = pinv[i];
                if pi < k {
                    u_rows.push(pi);
                    u_vals.push(x[i]);
                } else if i != ipiv {
                    l_rows.push(i);
                    l_vals.push(x[i] / pivot);
                }
            }
            u_colptr.push(u_rows.len());
            l_colptr.push(l_rows.len());
            for &i in &topo {
                x[i] = 0.0;
            }
        }
        // Finalize: L rows to pivotal indices; U columns sorted ascending
        // (the order refactor's left-looking replay requires).
        for r in &mut l_rows {
            *r = pinv[*r];
        }
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for kk in 0..n {
            let lo = u_colptr[kk];
            let hi = u_colptr[kk + 1];
            scratch.clear();
            scratch.extend(
                u_rows[lo..hi]
                    .iter()
                    .copied()
                    .zip(u_vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for (off, &(r, v)) in scratch.iter().enumerate() {
                u_rows[lo + off] = r;
                u_vals[lo + off] = v;
            }
        }
        Ok(Self {
            n,
            q,
            p,
            pinv,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            u_diag,
            work: x,
        })
    }

    /// Dimension of the factored system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Non-zeros in `L + U` (fill included).
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.n
    }

    /// Numeric refactorization: recompute the factor values for `a`, which
    /// must have the *same pattern* as the matrix originally factored.
    /// Reuses the stored pattern and pivot sequence — no graph traversal,
    /// no pivot search, no allocation.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] if a stored pivot position becomes
    /// numerically zero; the caller should fall back to a cold
    /// [`SparseLu::factor`] (which re-pivots).
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<()> {
        assert_eq!(a.n, self.n, "refactor dimension mismatch");
        let x = &mut self.work;
        for k in 0..self.n {
            let col = self.q[k];
            // Zero this column's pattern slots (pivotal space).
            for up in self.u_colptr[k]..self.u_colptr[k + 1] {
                x[self.u_rows[up]] = 0.0;
            }
            x[k] = 0.0;
            for lp in self.l_colptr[k]..self.l_colptr[k + 1] {
                x[self.l_rows[lp]] = 0.0;
            }
            // Scatter A(:,col); the factored pattern is a superset.
            for ap in a.col_ptr[col]..a.col_ptr[col + 1] {
                x[self.pinv[a.row_idx[ap]]] = a.vals[ap];
            }
            // Left-looking replay in ascending pivotal order.
            for up in self.u_colptr[k]..self.u_colptr[k + 1] {
                let r = self.u_rows[up];
                let ur = x[r];
                self.u_vals[up] = ur;
                if ur != 0.0 {
                    for lp in self.l_colptr[r]..self.l_colptr[r + 1] {
                        x[self.l_rows[lp]] -= self.l_vals[lp] * ur;
                    }
                }
            }
            let pivot = x[k];
            if pivot.abs() < PIVOT_MIN {
                return Err(Error::SingularMatrix { pivot: k });
            }
            self.u_diag[k] = pivot;
            for lp in self.l_colptr[k]..self.l_colptr[k + 1] {
                self.l_vals[lp] = x[self.l_rows[lp]] / pivot;
            }
        }
        Ok(())
    }

    /// Allocation-free solve of `A·x = b` using the stored factors.
    /// `work` is caller-provided scratch of the system dimension.
    ///
    /// # Panics
    ///
    /// Panics if `b`, `x`, or `work` differ from the system dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], work: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        assert_eq!(work.len(), n);
        for (k, w) in work.iter_mut().enumerate() {
            *w = b[self.p[k]];
        }
        // Forward: L has implicit unit diagonal, rows strictly below.
        for k in 0..n {
            let wk = work[k];
            if wk == 0.0 {
                continue;
            }
            for lp in self.l_colptr[k]..self.l_colptr[k + 1] {
                work[self.l_rows[lp]] -= self.l_vals[lp] * wk;
            }
        }
        // Backward: U strict upper plus diagonal.
        for k in (0..n).rev() {
            let wk = work[k] / self.u_diag[k];
            work[k] = wk;
            if wk == 0.0 {
                continue;
            }
            for up in self.u_colptr[k]..self.u_colptr[k + 1] {
                work[self.u_rows[up]] -= self.u_vals[up] * wk;
            }
        }
        for (k, &w) in work.iter().enumerate() {
            x[self.q[k]] = w;
        }
    }

    /// Convenience allocating solve (setup paths, tests).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        let mut work = vec![0.0; self.n];
        self.solve_into(b, &mut x, &mut work);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tridiag(n: usize, diag: f64, off: f64) -> SparseMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, diag));
            if i + 1 < n {
                t.push((i, i + 1, off));
                t.push((i + 1, i, off));
            }
        }
        SparseMatrix::from_triplets(n, &t)
    }

    #[test]
    fn pattern_and_stamping() {
        let mut m = SparseMatrix::from_pattern(3, &[(0, 0), (1, 1), (2, 2), (0, 2), (0, 2)]);
        assert_eq!(m.nnz(), 4); // duplicate merged
        m.add(0, 2, 5.0);
        m.add(0, 2, 1.0);
        assert_eq!(m.get(0, 2), 6.0);
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the sparse pattern")]
    fn stamp_outside_pattern_panics() {
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (1, 1)]);
        m.add(0, 1, 1.0);
    }

    #[test]
    fn dense_roundtrip_and_matvec() {
        let d = DenseMatrix::from_rows(&[&[4.0, 0.0, 1.0], &[0.0, 3.0, 0.0], &[1.0, 0.0, 5.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.to_dense(), d);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        s.mul_vec_into(&x, &mut y);
        assert_eq!(y.to_vec(), d.mul_vec(&x));
    }

    #[test]
    fn solve_known_system() {
        let a = tridiag(5, 4.0, -1.0);
        let sym = Symbolic::analyze(&a);
        let lu = SparseLu::factor(&a, &sym).unwrap();
        let xs = [1.0, -2.0, 3.0, 0.5, -1.5];
        let mut b = vec![0.0; 5];
        a.mul_vec_into(&xs, &mut b);
        let x = lu.solve(&b);
        for (got, want) in x.iter().zip(xs.iter()) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Voltage-source-style incidence block: zero diagonal at (2,2).
        let a = SparseMatrix::from_triplets(
            3,
            &[
                (0, 0, 1e-3),
                (0, 2, 1.0),
                (2, 0, 1.0),
                (1, 1, 2e-3),
                (1, 0, -1e-3),
                (0, 1, -1e-3),
            ],
        );
        let sym = Symbolic::analyze(&a);
        let lu = SparseLu::factor(&a, &sym).unwrap();
        let b = [0.0, 1e-3, 2.0];
        let x = lu.solve(&b);
        let mut back = vec![0.0; 3];
        a.mul_vec_into(&x, &mut back);
        for (got, want) in back.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detected() {
        let a =
            SparseMatrix::from_triplets(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        let sym = Symbolic::analyze(&a);
        match SparseLu::factor(&a, &sym) {
            Err(Error::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn structurally_singular_detected() {
        // Empty column 1.
        let a = SparseMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 0, 1.0)]);
        let sym = Symbolic::natural(2);
        assert!(SparseLu::factor(&a, &sym).is_err());
    }

    #[test]
    fn refactor_tracks_new_values() {
        let mut a = tridiag(20, 5.0, -1.0);
        let sym = Symbolic::analyze(&a);
        let mut lu = SparseLu::factor(&a, &sym).unwrap();
        // Change values (same pattern) the way a Newton iteration would.
        for (idx, v) in a.values_mut().iter_mut().enumerate() {
            *v += 0.01 * (idx as f64 % 3.0);
        }
        lu.refactor(&a).unwrap();
        let xs: Vec<f64> = (0..20).map(|i| (i as f64) - 10.0).collect();
        let mut b = vec![0.0; 20];
        a.mul_vec_into(&xs, &mut b);
        let x = lu.solve(&b);
        for (got, want) in x.iter().zip(xs.iter()) {
            assert!((got - want).abs() < 1e-11, "{got} vs {want}");
        }
    }

    #[test]
    fn refactor_reports_singular_for_fallback() {
        let a = tridiag(4, 2.0, -1.0);
        let sym = Symbolic::analyze(&a);
        let mut lu = SparseLu::factor(&a, &sym).unwrap();
        let mut zeroed = a.clone();
        zeroed.values_mut().fill(0.0);
        assert!(lu.refactor(&zeroed).is_err());
        // Fallback path: recover by refactoring the good values again.
        lu.refactor(&a).unwrap();
        let x = lu.solve(&[1.0, 0.0, 0.0, 1.0]);
        let mut back = vec![0.0; 4];
        a.mul_vec_into(&x, &mut back);
        assert!((back[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rcm_narrows_two_wire_coupling_band() {
        // Two chains 0-1-2-..-9 and 10-11-..-19 with rung couplings
        // (i, i+10): natural order has bandwidth 10, RCM interleaves.
        let n = 20;
        let mut t = Vec::new();
        for w in 0..2 {
            for i in 0..10 {
                let u = w * 10 + i;
                t.push((u, u, 4.0));
                if i + 1 < 10 {
                    t.push((u, u + 1, -1.0));
                    t.push((u + 1, u, -1.0));
                }
            }
        }
        for i in 0..10 {
            t.push((i, i + 10, -0.5));
            t.push((i + 10, i, -0.5));
        }
        let a = SparseMatrix::from_triplets(n, &t);
        let sym = Symbolic::analyze(&a);
        let inv: Vec<usize> = {
            let mut inv = vec![0; n];
            for (k, &orig) in sym.perm().iter().enumerate() {
                inv[orig] = k;
            }
            inv
        };
        let mut band = 0usize;
        for j in 0..n {
            for p in a.col_ptr[j]..a.col_ptr[j + 1] {
                band = band.max(inv[a.row_idx[p]].abs_diff(inv[j]));
            }
        }
        assert!(band <= 4, "RCM bandwidth {band} (natural is 10)");
        // And the factor stays sparse: fill bounded by bandwidth.
        let lu = SparseLu::factor(&a, &sym).unwrap();
        assert!(
            lu.factor_nnz() <= a.nnz() * 3,
            "fill {} vs nnz {}",
            lu.factor_nnz(),
            a.nnz()
        );
    }

    proptest! {
        /// Sparse and dense LU agree to 1e-9 on random SPD-ish MNA-style
        /// systems (diagonally dominant, symmetric pattern).
        #[test]
        fn prop_sparse_matches_dense(
            seed in proptest::collection::vec(
                proptest::collection::vec(-1.0f64..1.0, 12), 12),
            rhs in proptest::collection::vec(-5.0f64..5.0, 12))
        {
            let n = 12;
            let mut d = DenseMatrix::zeros(n, n);
            for i in 0..n {
                let mut rowsum = 0.0;
                for j in 0..n {
                    // Sparsify: keep near-band entries only.
                    let v = if i.abs_diff(j) <= 2 { seed[i][j] } else { 0.0 };
                    d[(i, j)] = v;
                    rowsum += v.abs();
                }
                d[(i, i)] += rowsum + 1.0;
            }
            let dense_x = d.solve(&rhs).unwrap();
            let s = SparseMatrix::from_dense(&d);
            let sym = Symbolic::analyze(&s);
            let lu = SparseLu::factor(&s, &sym).unwrap();
            let sparse_x = lu.solve(&rhs);
            for (a, b) in dense_x.iter().zip(&sparse_x) {
                prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }

        /// Refactor after a value perturbation matches a cold factor.
        #[test]
        fn prop_refactor_matches_cold(
            bump in proptest::collection::vec(0.0f64..0.5, 16),
            rhs in proptest::collection::vec(-2.0f64..2.0, 16))
        {
            let n = 16;
            let mut a = tridiag(n, 4.0, -1.0);
            let sym = Symbolic::analyze(&a);
            let mut lu = SparseLu::factor(&a, &sym).unwrap();
            for (i, b) in bump.iter().enumerate() {
                a.add(i, i, *b);
            }
            lu.refactor(&a).unwrap();
            let cold = SparseLu::factor(&a, &sym).unwrap();
            let xw = lu.solve(&rhs);
            let xc = cold.solve(&rhs);
            for (w, c) in xw.iter().zip(&xc) {
                prop_assert!((w - c).abs() < 1e-10);
            }
        }
    }
}
