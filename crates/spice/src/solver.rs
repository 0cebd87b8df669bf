//! Linear-solver selection: one front-end over the dense LU of [`crate::linalg`]
//! and the sparse symbolic/numeric LU of [`crate::sparse`].
//!
//! Every repeated solve in the workspace — Newton iterations in DC, the
//! per-step trapezoidal systems in transient (every lane of a
//! [`crate::sweep::BatchedSweep`] included), PRIMA's shifted solves — goes
//! through [`SystemSolver`], which owns the assembled linear part (`G`, `C`,
//! their combination `G + α·C`), the Jacobian being stamped, and the
//! factors. The backend is chosen once per system by [`SolverKind`]: `Auto`
//! keeps tiny gate-only circuits on the cache-friendly dense path and
//! switches finely segmented interconnect to sparse at
//! [`SPARSE_AUTO_THRESHOLD`]; `Dense` and `Sparse` force a path, so tests
//! can use each as the other's oracle.

use serde::{Deserialize, Serialize};
use sna_obs::{count, phase_span, Metric, Phase};

use crate::error::Result;
use crate::linalg::{DenseMatrix, LuFactors, MatrixStamp, PatternCollector};
use crate::mna::MnaSystem;
use crate::netlist::Circuit;
use crate::sparse::{SparseLu, SparseMatrix, Symbolic};

/// Unknown count at and above which [`SolverKind::Auto`] picks the sparse
/// backend. Below it, dense LU's contiguous inner loops win; above it, the
/// O(n³)/O(n²) dense costs take over. The crossover was measured on the
/// segmented coupled-bus sweep in `benches/solver.rs`.
pub const SPARSE_AUTO_THRESHOLD: usize = 96;

/// Which linear-solver backend an analysis should use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    /// Pick by dimension: dense below [`SPARSE_AUTO_THRESHOLD`] unknowns,
    /// sparse at or above it.
    #[default]
    Auto,
    /// Force the dense LU path.
    Dense,
    /// Force the sparse symbolic/numeric LU path.
    Sparse,
}

impl SolverKind {
    /// Whether a system of `dim` unknowns resolves to the sparse backend.
    pub fn is_sparse_for(self, dim: usize) -> bool {
        match self {
            SolverKind::Auto => dim >= SPARSE_AUTO_THRESHOLD,
            SolverKind::Dense => false,
            SolverKind::Sparse => true,
        }
    }
}

/// A compute-backend selector with a single value, read by nothing in the
/// workspace. It stays only because `perfbench/` still sets the
/// `backend` fields of `CharacterizeOptions` and `MacromodelOptions` and
/// passes a value to the alignment search's old-name forwarder and to
/// `constrained_worst_case`; it goes when that benchmark stops doing so.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The serial solver kernels, the only implementation.
    #[default]
    Scalar,
}

// One Backend lives per analysis (never in arrays), so the variant size
// spread is irrelevant; boxing would only add indirection to hot paths.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Dense {
        g: DenseMatrix,
        c: DenseMatrix,
        base: DenseMatrix,
        jac: DenseMatrix,
        lu: Option<LuFactors>,
    },
    Sparse {
        /// Union pattern: G ∪ C ∪ non-linear stamps ∪ full diagonal.
        jac: SparseMatrix,
        g_vals: Vec<f64>,
        c_vals: Vec<f64>,
        base_vals: Vec<f64>,
        sym: Symbolic,
        lu: Option<SparseLu>,
        work: Vec<f64>,
    },
}

/// The per-circuit linear-solver state shared by DC and transient analyses.
///
/// Holds the linear MNA part on the chosen backend, a resettable Jacobian
/// on the same pattern, and the (re)factorization. The sparse backend runs
/// symbolic analysis exactly once, refactors numerically on every
/// subsequent Newton iteration or value change, and falls back to a cold
/// factor (with fresh pivoting) if a stored pivot collapses.
pub struct SystemSolver {
    dim: usize,
    alpha: f64,
    backend: Backend,
}

impl SystemSolver {
    /// Build the solver for `mna`'s linear part, including the non-linear
    /// Jacobian pattern of `circuit` so Newton stamps always land inside
    /// the sparse pattern.
    pub fn new(mna: &MnaSystem, circuit: &Circuit, kind: SolverKind) -> Self {
        let dim = mna.dim();
        let backend = if kind.is_sparse_for(dim) {
            let g = mna.g_matrix();
            let c = mna.c_matrix();
            let mut entries: Vec<(usize, usize)> = Vec::new();
            for i in 0..dim {
                entries.push((i, i));
                for j in 0..dim {
                    if g[(i, j)] != 0.0 || c[(i, j)] != 0.0 {
                        entries.push((i, j));
                    }
                }
            }
            let mut collector = PatternCollector::new();
            let zeros = vec![0.0; dim];
            let mut scratch = vec![0.0; dim];
            mna.stamp_nonlinear(circuit, &zeros, &mut scratch, Some(&mut collector));
            entries.extend_from_slice(collector.entries());
            let jac = SparseMatrix::from_pattern(dim, &entries);
            let mut g_m = jac.clone();
            let mut c_m = jac.clone();
            for i in 0..dim {
                for j in 0..dim {
                    if g[(i, j)] != 0.0 {
                        g_m.add(i, j, g[(i, j)]);
                    }
                    if c[(i, j)] != 0.0 {
                        c_m.add(i, j, c[(i, j)]);
                    }
                }
            }
            let g_vals = g_m.values().to_vec();
            let c_vals = c_m.values().to_vec();
            let sym = Symbolic::analyze(&jac);
            Backend::Sparse {
                base_vals: g_vals.clone(),
                g_vals,
                c_vals,
                jac,
                sym,
                lu: None,
                work: vec![0.0; dim],
            }
        } else {
            Backend::Dense {
                g: mna.g_matrix().clone(),
                c: mna.c_matrix().clone(),
                base: mna.g_matrix().clone(),
                jac: DenseMatrix::zeros(dim, dim),
                lu: None,
            }
        };
        count(
            if matches!(backend, Backend::Sparse { .. }) {
                Metric::SolverSparseSelected
            } else {
                Metric::SolverDenseSelected
            },
            1,
        );
        Self {
            dim,
            alpha: 0.0,
            backend,
        }
    }

    /// Unknown count.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the sparse backend was selected.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, Backend::Sparse { .. })
    }

    /// Set the integration coefficient: the base matrix becomes
    /// `G + α·C` (`α = 0` for DC). Changing `α` invalidates the sparse
    /// pivot sequence, so the next factorization is cold.
    pub fn set_alpha(&mut self, alpha: f64) {
        if alpha == self.alpha {
            return;
        }
        self.alpha = alpha;
        match &mut self.backend {
            Backend::Dense { g, c, base, .. } => {
                base.copy_from(g);
                base.axpy(alpha, c);
            }
            Backend::Sparse {
                g_vals,
                c_vals,
                base_vals,
                ..
            } => {
                for ((b, &gv), &cv) in base_vals.iter_mut().zip(g_vals.iter()).zip(c_vals.iter()) {
                    *b = gv + alpha * cv;
                }
                // The stored pivot sequence stays: α only rescales the
                // capacitive part of a diagonally-dominant MNA matrix, so
                // the next [`SystemSolver::factor_jacobian`] replays it as
                // a numeric refactor (a transient after a DC solve on one
                // workspace switches α from 0). A pivot that does collapse
                // under the new values makes `refactor` report singular,
                // and `factor_jacobian` falls back to a cold factor with a
                // fresh pivot search.
            }
        }
    }

    /// `y = G·x` (linear conductance only).
    pub fn g_mul_into(&self, x: &[f64], y: &mut [f64]) {
        match &self.backend {
            Backend::Dense { g, .. } => g.mul_vec_into(x, y),
            Backend::Sparse { jac, g_vals, .. } => jac.mul_vals_into(g_vals, x, y),
        }
    }

    /// `y = C·x` (capacitance only).
    pub fn c_mul_into(&self, x: &[f64], y: &mut [f64]) {
        match &self.backend {
            Backend::Dense { c, .. } => c.mul_vec_into(x, y),
            Backend::Sparse { jac, c_vals, .. } => jac.mul_vals_into(c_vals, x, y),
        }
    }

    /// `y = (G + α·C)·x` with the current `α`.
    pub fn base_mul_into(&self, x: &[f64], y: &mut [f64]) {
        match &self.backend {
            Backend::Dense { base, .. } => base.mul_vec_into(x, y),
            Backend::Sparse { jac, base_vals, .. } => jac.mul_vals_into(base_vals, x, y),
        }
    }

    /// Reset the Jacobian to the linear base `G + α·C`, ready for
    /// non-linear stamps.
    pub fn begin_jacobian(&mut self) {
        match &mut self.backend {
            Backend::Dense { base, jac, .. } => jac.copy_from(base),
            Backend::Sparse { jac, base_vals, .. } => {
                jac.values_mut().copy_from_slice(base_vals);
            }
        }
    }

    /// Stamp sink for the current Jacobian (pass to
    /// [`MnaSystem::stamp_nonlinear`]).
    pub fn jac_stamp(&mut self) -> &mut dyn MatrixStamp {
        match &mut self.backend {
            Backend::Dense { jac, .. } => jac,
            Backend::Sparse { jac, .. } => jac,
        }
    }

    /// Add `v` to Jacobian entry `(i, j)` — e.g. gmin-stepping shunts on
    /// the diagonal (always inside the pattern).
    pub fn jac_add(&mut self, i: usize, j: usize, v: f64) {
        self.jac_stamp().add(i, j, v);
    }

    /// Factor the stamped Jacobian: dense refactors in place with full
    /// pivoting; sparse refactors on the stored pivot sequence and falls
    /// back to a cold factor (fresh pivot search) if a pivot collapsed.
    ///
    /// # Errors
    ///
    /// [`crate::Error::SingularMatrix`] if the system is singular even
    /// after the cold-factor fallback.
    pub fn factor_jacobian(&mut self) -> Result<()> {
        match &mut self.backend {
            Backend::Dense { jac, lu, .. } => match lu {
                Some(f) => {
                    let _t = phase_span(Phase::Refactor);
                    count(Metric::SolverRefactorsDense, 1);
                    f.refactor(jac)
                }
                None => {
                    let _t = phase_span(Phase::Factor);
                    count(Metric::SolverFactorsDense, 1);
                    *lu = Some(jac.lu()?);
                    Ok(())
                }
            },
            Backend::Sparse { jac, sym, lu, .. } => {
                if let Some(f) = lu {
                    let _t = phase_span(Phase::Refactor);
                    if f.refactor(jac).is_ok() {
                        count(Metric::SolverRefactorsSparse, 1);
                        return Ok(());
                    }
                    // A stored pivot collapsed under the new values.
                    count(Metric::SolverColdFallbacks, 1);
                }
                let _t = phase_span(Phase::Factor);
                count(Metric::SolverFactorsSparse, 1);
                *lu = Some(SparseLu::factor(jac, sym)?);
                Ok(())
            }
        }
    }

    /// Factor the linear base `G + α·C` (no non-linear stamps) — the path
    /// for linear circuits factored once and back-substituted per step.
    ///
    /// # Errors
    ///
    /// [`crate::Error::SingularMatrix`] on a singular base matrix.
    pub fn factor_base(&mut self) -> Result<()> {
        self.begin_jacobian();
        self.factor_jacobian()
    }

    /// Solve with the factors from the last
    /// [`SystemSolver::factor_jacobian`]/[`SystemSolver::factor_base`].
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful factorization.
    pub fn solve_into(&mut self, b: &[f64], x: &mut [f64]) {
        let _t = phase_span(Phase::Solve);
        count(Metric::SolverSolves, 1);
        match &mut self.backend {
            Backend::Dense { lu, .. } => {
                lu.as_ref().expect("factor before solve").solve_into(b, x);
            }
            Backend::Sparse { lu, work, .. } => {
                lu.as_ref()
                    .expect("factor before solve")
                    .solve_into(b, x, work);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SourceWaveform;

    fn ladder(n_nodes: usize) -> Circuit {
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("n0");
        ckt.add_vsource("V", prev, Circuit::gnd(), SourceWaveform::Dc(1.0));
        for i in 1..n_nodes {
            let next = ckt.node(&format!("n{i}"));
            ckt.add_resistor(&format!("R{i}"), prev, next, 100.0)
                .unwrap();
            ckt.add_capacitor(&format!("C{i}"), next, Circuit::gnd(), 1e-15)
                .unwrap();
            prev = next;
        }
        ckt
    }

    #[test]
    fn auto_threshold_selects_backend() {
        assert!(!SolverKind::Auto.is_sparse_for(SPARSE_AUTO_THRESHOLD - 1));
        assert!(SolverKind::Auto.is_sparse_for(SPARSE_AUTO_THRESHOLD));
        assert!(!SolverKind::Dense.is_sparse_for(10_000));
        assert!(SolverKind::Sparse.is_sparse_for(2));
    }

    #[test]
    fn dense_and_sparse_backends_agree() {
        let ckt = ladder(40);
        let mna = MnaSystem::new(&ckt).unwrap();
        let b = mna.rhs(&ckt, 0.0, 1.0);
        let mut solutions = Vec::new();
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let mut s = SystemSolver::new(&mna, &ckt, kind);
            assert_eq!(s.is_sparse(), kind == SolverKind::Sparse);
            s.set_alpha(1e9);
            s.factor_base().unwrap();
            let mut x = vec![0.0; s.dim()];
            s.solve_into(&b, &mut x);
            // Consistency: base·x == b.
            let mut back = vec![0.0; s.dim()];
            s.base_mul_into(&x, &mut back);
            for (got, want) in back.iter().zip(&b) {
                assert!((got - want).abs() < 1e-9);
            }
            solutions.push(x);
        }
        for (d, s) in solutions[0].iter().zip(&solutions[1]) {
            assert!((d - s).abs() < 1e-9, "dense {d} vs sparse {s}");
        }
    }

    #[test]
    fn alpha_switch_refactors_correctly() {
        let ckt = ladder(30);
        let mna = MnaSystem::new(&ckt).unwrap();
        let b = mna.rhs(&ckt, 0.0, 1.0);
        let mut s = SystemSolver::new(&mna, &ckt, SolverKind::Sparse);
        let mut x1 = vec![0.0; s.dim()];
        let mut x2 = vec![0.0; s.dim()];
        for (alpha, x) in [(1e10, &mut x1), (2e10, &mut x2)] {
            s.set_alpha(alpha);
            s.factor_base().unwrap();
            s.solve_into(&b, x);
            let mut back = vec![0.0; b.len()];
            s.base_mul_into(x, &mut back);
            for (got, want) in back.iter().zip(&b) {
                assert!((got - want).abs() < 1e-9);
            }
        }
        assert!(x1.iter().zip(&x2).any(|(a, b)| (a - b).abs() > 1e-12));
    }
}
