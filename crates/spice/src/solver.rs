//! Linear-solver selection: one front-end over the dense LU of [`crate::linalg`]
//! and the sparse symbolic/numeric LU of [`crate::sparse`].
//!
//! Every repeated solve of a circuit analysis — Newton iterations in DC and
//! the per-step trapezoidal systems in transient — goes through
//! [`SystemSolver`], which owns the assembled linear part (`G`, `C`, their
//! combination `G + α·C`), the Jacobian being stamped, and the factors.
//! Device values reach the Jacobian through `SystemSolver::stamp_nonlinear`,
//! which hands the backend's own matrix type to
//! `MnaSystem::stamp_nonlinear`, so each stamp is a direct call. The backend is chosen once per system by [`SolverKind`]: `Auto`
//! keeps tiny gate-only circuits on the cache-friendly dense path and
//! switches finely segmented interconnect to sparse at
//! [`SPARSE_AUTO_THRESHOLD`]; `Dense` and `Sparse` force a path, so tests
//! can use each as the other's oracle.
//!
//! A solver counts its factorizations, refactorizations, solves and cold
//! fallbacks in plain fields, and the analysis driving it reports them to
//! `sna-obs` once, when it returns (`SystemSolver::flush_counts`): the
//! Newton loops call the solver millions of times per characterization,
//! and one atomic update per call would show in their profile.

use sna_obs::{count, phase_span, Metric, Phase};

use crate::error::Result;
use crate::linalg::{DenseMatrix, LuFactors, PatternCollector};
use crate::mna::{DeviceEval, MnaSystem};
use crate::sparse::{SparseLu, SparseMatrix, Symbolic};

/// Unknown count at and above which [`SolverKind::Auto`] picks the sparse
/// backend. Below it, dense LU's contiguous inner loops win; above it, the
/// O(n³)/O(n²) dense costs take over. The crossover was measured on the
/// segmented coupled-bus sweep of `sna-bench --bin solver_sweep`, whose
/// medians are checked in as `BENCH_solver.json`.
pub const SPARSE_AUTO_THRESHOLD: usize = 96;

/// Which linear-solver backend an analysis should use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    counts: SolverCounts,
}

/// Solver calls not yet reported to `sna-obs`.
#[derive(Debug, Default, Clone, Copy)]
struct SolverCounts {
    factors: u64,
    refactors: u64,
    solves: u64,
    cold_fallbacks: u64,
}

impl SystemSolver {
    /// Build the solver for `mna`'s linear part, including its non-linear
    /// Jacobian pattern so Newton stamps always land inside the sparse
    /// pattern.
    pub fn new(mna: &MnaSystem, kind: SolverKind) -> Self {
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
            // Stamped positions do not depend on the values, so zero
            // evaluations give the whole non-linear pattern.
            let mut collector = PatternCollector::new();
            let evals = vec![DeviceEval::default(); mna.nonlinear_count()];
            let mut scratch = vec![0.0; dim];
            mna.stamp_nonlinear(&evals, &mut scratch, Some(&mut collector));
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
            counts: SolverCounts::default(),
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
    /// `G + α·C` (`α = 0` for DC). The sparse backend keeps its stored
    /// pivot sequence, so the next [`SystemSolver::factor_jacobian`]
    /// replays it as a numeric refactor; only a pivot that collapses under
    /// the new values makes it fall back to a cold factor.
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
                // The stored pivot sequence stays valid because α only
                // rescales the capacitive part of a diagonally-dominant MNA
                // matrix (a transient after a DC solve on one workspace
                // switches α from 0). A pivot that does collapse makes
                // `refactor` report singular, and `factor_jacobian` then
                // runs a cold factor with a fresh pivot search.
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

    /// Stamp the non-linear device values `evals` into `residual` and the
    /// current Jacobian (see `MnaSystem::stamp_nonlinear`).
    pub(crate) fn stamp_nonlinear(
        &mut self,
        mna: &MnaSystem,
        evals: &[DeviceEval],
        residual: &mut [f64],
    ) {
        match &mut self.backend {
            Backend::Dense { jac, .. } => mna.stamp_nonlinear(evals, residual, Some(jac)),
            Backend::Sparse { jac, .. } => mna.stamp_nonlinear(evals, residual, Some(jac)),
        }
    }

    /// Stamp sink for the current Jacobian, for the single-pass stamping
    /// of the test oracle.
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) fn jac_stamp(&mut self) -> &mut dyn crate::linalg::MatrixStamp {
        match &mut self.backend {
            Backend::Dense { jac, .. } => jac,
            Backend::Sparse { jac, .. } => jac,
        }
    }

    /// Add `v` to Jacobian entry `(i, j)` — e.g. gmin-stepping shunts on
    /// the diagonal (always inside the pattern).
    pub fn jac_add(&mut self, i: usize, j: usize, v: f64) {
        match &mut self.backend {
            Backend::Dense { jac, .. } => jac.add(i, j, v),
            Backend::Sparse { jac, .. } => jac.add(i, j, v),
        }
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
        let counts = &mut self.counts;
        match &mut self.backend {
            Backend::Dense { jac, lu, .. } => match lu {
                Some(f) => {
                    let _t = phase_span(Phase::Refactor);
                    counts.refactors += 1;
                    f.refactor(jac)
                }
                None => {
                    let _t = phase_span(Phase::Factor);
                    counts.factors += 1;
                    *lu = Some(jac.lu()?);
                    Ok(())
                }
            },
            Backend::Sparse { jac, sym, lu, .. } => {
                if let Some(f) = lu {
                    let _t = phase_span(Phase::Refactor);
                    if f.refactor(jac).is_ok() {
                        counts.refactors += 1;
                        return Ok(());
                    }
                    // A stored pivot collapsed under the new values.
                    counts.cold_fallbacks += 1;
                }
                let _t = phase_span(Phase::Factor);
                counts.factors += 1;
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
        self.counts.solves += 1;
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

    /// Report the factorizations, refactorizations, solves and cold
    /// fallbacks since the last flush to `sna-obs`, and reset them. Every
    /// analysis that drives a solver calls this once before it returns,
    /// on success and failure alike; dropping the solver flushes what is
    /// left.
    pub(crate) fn flush_counts(&mut self) {
        let c = std::mem::take(&mut self.counts);
        let (factors, refactors) = if self.is_sparse() {
            (Metric::SolverFactorsSparse, Metric::SolverRefactorsSparse)
        } else {
            (Metric::SolverFactorsDense, Metric::SolverRefactorsDense)
        };
        count(factors, c.factors);
        count(refactors, c.refactors);
        count(Metric::SolverSolves, c.solves);
        count(Metric::SolverColdFallbacks, c.cold_fallbacks);
    }
}

impl Drop for SystemSolver {
    fn drop(&mut self) {
        self.flush_counts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SourceWaveform;
    use crate::netlist::Circuit;

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
            let mut s = SystemSolver::new(&mna, kind);
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
        let mut s = SystemSolver::new(&mna, SolverKind::Sparse);
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
