//! DC operating-point analysis.
//!
//! Newton–Raphson on the MNA system with step damping; if plain Newton
//! stalls, the solver falls back to gmin stepping and then source stepping —
//! the standard SPICE continuation ladder. A grid of operating points of
//! one circuit runs on one [`crate::tran::TranWorkspace`] through
//! [`TranWorkspace::dc`](crate::tran::TranWorkspace::dc), each point
//! warm-started from a neighbour's solution: that is what makes the 33×33
//! load-curve characterization grids (paper Eq. 1) cheap.

use sna_obs::{count, phase_span, Metric, Phase};

use crate::error::{Error, Result};
use crate::mna::{DeviceEval, MnaSystem};
use crate::netlist::{Circuit, NodeId};
use crate::solver::{SolverKind, SystemSolver};

/// Newton iteration controls shared by DC and transient analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations before declaring non-convergence.
    pub max_iter: usize,
    /// Absolute voltage tolerance (V) on the Newton update.
    pub vntol: f64,
    /// Relative tolerance on the Newton update.
    pub reltol: f64,
    /// Absolute KCL residual tolerance (A).
    pub abstol: f64,
    /// Maximum per-iteration voltage change (V); larger updates are scaled
    /// down (damping). Critical for MOSFET circuits started far from the
    /// solution.
    pub max_step: f64,
    /// Linear-solver backend for the DC system (the escape hatch over the
    /// dimension-based auto selection).
    pub solver: SolverKind,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iter: 100,
            vntol: 1e-6,
            reltol: 1e-4,
            abstol: 1e-9,
            max_step: 0.3,
            solver: SolverKind::Auto,
        }
    }
}

/// Solution of a DC operating-point analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    x: Vec<f64>,
    /// Unknown index of each vsource's branch current, parallel to
    /// `vsource_names`.
    vsource_branch: Vec<usize>,
    vsource_names: Vec<String>,
    /// Newton iterations spent (diagnostic).
    pub iterations: usize,
}

impl DcSolution {
    /// Voltage of `node` (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch current of the named voltage source (SPICE convention:
    /// positive flows from the + terminal through the source to −).
    pub fn vsource_current(&self, name: &str) -> Option<f64> {
        self.vsource_names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
            .map(|k| self.x[self.vsource_branch[k]])
    }

    /// Raw unknown vector (nodes then branch currents).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }
}

/// Solve one Newton problem: `(G + extra_gmin·I)x + f(x) = b`, warm-started
/// at `x0`. Returns `(x, iterations)`. The caller-owned `solver` carries
/// the factorization state across continuation stages, so the (sparse)
/// symbolic analysis is paid once per operating-point call.
#[allow(clippy::too_many_arguments)] // internal solver: explicit state beats a bag struct
fn newton_solve(
    circuit: &Circuit,
    mna: &MnaSystem,
    solver: &mut SystemSolver,
    b: &[f64],
    x0: &[f64],
    opts: &NewtonOptions,
    extra_gmin: f64,
    analysis: &'static str,
    time: f64,
) -> Result<(Vec<f64>, usize)> {
    let dim = mna.dim();
    let n_nodes = mna.n_nodes();
    let mut x = x0.to_vec();
    // Purely linear circuits: one direct solve.
    if !mna.has_nonlinear() && extra_gmin == 0.0 {
        solver.factor_base()?;
        solver.solve_into(b, &mut x);
        count(Metric::DcNewtonIterations, 1);
        return Ok((x, 1));
    }
    let mut residual = vec![0.0; dim];
    let mut neg_res = vec![0.0; dim];
    let mut dx = vec![0.0; dim];
    let mut evals = vec![DeviceEval::default(); mna.nonlinear_count()];
    for it in 0..opts.max_iter {
        // residual = G x + f(x) - b ; jac = G + df/dx (+ gmin).
        solver.begin_jacobian();
        for i in 0..n_nodes {
            solver.jac_add(i, i, extra_gmin);
        }
        solver.g_mul_into(&x, &mut residual);
        for (r, bv) in residual.iter_mut().zip(b) {
            *r -= bv;
        }
        for (i, r) in residual.iter_mut().enumerate().take(n_nodes) {
            *r += extra_gmin * x[i];
        }
        mna.eval_nonlinear(circuit, &x, &mut evals);
        solver.stamp_nonlinear(mna, &evals, &mut residual);
        let max_res = residual.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
        // Newton step: J dx = -residual.
        for (n, &r) in neg_res.iter_mut().zip(residual.iter()) {
            *n = -r;
        }
        solver.factor_jacobian()?;
        solver.solve_into(&neg_res, &mut dx);
        // Damping.
        let max_dx = dx.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
        let scale = if max_dx > opts.max_step {
            opts.max_step / max_dx
        } else {
            1.0
        };
        let mut converged = max_res < opts.abstol.max(1e-12);
        for i in 0..dim {
            let step = scale * dx[i];
            x[i] += step;
            if step.abs() > opts.reltol * x[i].abs() + opts.vntol {
                converged = false;
            }
        }
        if converged && scale == 1.0 {
            count(Metric::DcNewtonIterations, (it + 1) as u64);
            return Ok((x, it + 1));
        }
    }
    count(Metric::DcNewtonIterations, opts.max_iter as u64);
    // Final residual for the error report.
    solver.g_mul_into(&x, &mut residual);
    for (r, bv) in residual.iter_mut().zip(b) {
        *r -= bv;
    }
    mna.eval_nonlinear(circuit, &x, &mut evals);
    mna.stamp_currents(&evals, &mut residual);
    let max_res = residual.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
    Err(Error::NonConvergence {
        analysis,
        iterations: opts.max_iter,
        time,
        residual: max_res,
    })
}

fn vsource_names(circuit: &Circuit, mna: &MnaSystem) -> Vec<String> {
    mna.vsources()
        .iter()
        .map(|id| circuit.element(*id).name().to_string())
        .collect()
}

/// Compute the DC operating point with full continuation fallbacks.
///
/// `warm_start` (raw unknown vector from a previous [`DcSolution`]) seeds
/// Newton; a grid of operating points should pass a neighbouring point.
///
/// # Errors
///
/// [`Error::NonConvergence`] if plain Newton, gmin stepping, and source
/// stepping all fail; [`Error::SingularMatrix`] on structurally singular
/// circuits.
pub fn dc_operating_point(
    circuit: &Circuit,
    opts: &NewtonOptions,
    warm_start: Option<&[f64]>,
) -> Result<DcSolution> {
    let mna = MnaSystem::new(circuit)?;
    // One solver for the whole continuation ladder: the (sparse) symbolic
    // analysis and pattern allocation happen once, every Newton iteration
    // afterwards is a numeric refactor.
    let mut solver = SystemSolver::new(&mna, opts.solver);
    let sol = dc_operating_point_with(circuit, opts, warm_start, &mna, &mut solver);
    solver.flush_counts();
    sol
}

/// [`dc_operating_point`] on a caller-owned MNA system and solver — the
/// path for [`crate::tran::TranWorkspace`], which already paid matrix
/// assembly and symbolic analysis for this circuit. The solver's α is reset
/// to 0 (`G`-only) on entry; the caller re-applies its own α afterwards,
/// and flushes the solver's counts when its analysis returns.
pub(crate) fn dc_operating_point_with(
    circuit: &Circuit,
    opts: &NewtonOptions,
    warm_start: Option<&[f64]>,
    mna: &MnaSystem,
    solver: &mut SystemSolver,
) -> Result<DcSolution> {
    let _t = phase_span(Phase::Dc);
    count(Metric::DcSolves, 1);
    let dim = mna.dim();
    solver.set_alpha(0.0);
    let b = mna.rhs(circuit, 0.0, 1.0);
    let x0: Vec<f64> = match warm_start {
        Some(w) if w.len() == dim => w.to_vec(),
        _ => vec![0.0; dim],
    };
    // 1. Plain Newton.
    if let Ok((x, iterations)) = newton_solve(circuit, mna, solver, &b, &x0, opts, 0.0, "dc", 0.0) {
        return Ok(DcSolution {
            x,
            vsource_branch: mna.vsource_branches().to_vec(),
            vsource_names: vsource_names(circuit, mna),
            iterations,
        });
    }
    // 2. Gmin stepping: heavy shunt conductance, relaxed geometrically.
    count(Metric::DcGminFallbacks, 1);
    let mut x = x0.clone();
    let mut total_iters = 0;
    let mut gmin = 1e-2;
    let mut ok = true;
    while gmin > 1e-13 {
        match newton_solve(circuit, mna, solver, &b, &x, opts, gmin, "dc-gmin", 0.0) {
            Ok((xs, it)) => {
                x = xs;
                total_iters += it;
            }
            Err(_) => {
                ok = false;
                break;
            }
        }
        gmin *= 0.1;
    }
    if ok {
        if let Ok((x, it)) = newton_solve(circuit, mna, solver, &b, &x, opts, 0.0, "dc-gmin", 0.0) {
            return Ok(DcSolution {
                x,
                vsource_branch: mna.vsource_branches().to_vec(),
                vsource_names: vsource_names(circuit, mna),
                iterations: total_iters + it,
            });
        }
    }
    // 3. Source stepping.
    count(Metric::DcSourceStepFallbacks, 1);
    let mut x = vec![0.0; dim];
    let mut total_iters = 0;
    let steps = 20;
    let mut bk = vec![0.0; dim];
    for k in 1..=steps {
        let scale = k as f64 / steps as f64;
        mna.rhs_into(circuit, 0.0, scale, &mut bk);
        let (xs, it) = newton_solve(circuit, mna, solver, &bk, &x, opts, 0.0, "dc-srcstep", 0.0)?;
        x = xs;
        total_iters += it;
    }
    Ok(DcSolution {
        x,
        vsource_branch: mna.vsource_branches().to_vec(),
        vsource_names: vsource_names(circuit, mna),
        iterations: total_iters,
    })
}

/// Small-signal conductance seen into `node` from ground, by finite
/// difference of an injected probe current around the operating point.
///
/// This is how the *holding resistance* of a victim driver is extracted for
/// the linear-superposition baseline: `R_hold = 1 / conductance`.
///
/// # Errors
///
/// Propagates DC convergence failures.
pub fn dc_input_conductance(circuit: &Circuit, node: NodeId, opts: &NewtonOptions) -> Result<f64> {
    let base = dc_operating_point(circuit, opts, None)?;
    let v0 = base.voltage(node);
    // Inject a small probe current and measure the voltage shift.
    let i_probe = 1e-6;
    let mut probed = circuit.clone();
    probed.add_isource(
        "__gprobe",
        Circuit::gnd(),
        node,
        crate::devices::SourceWaveform::Dc(i_probe),
    );
    let sol = dc_operating_point(&probed, opts, Some(base.unknowns()))?;
    let v1 = sol.voltage(node);
    let dv = v1 - v0;
    if dv.abs() < 1e-15 {
        return Err(Error::InvalidAnalysis(
            "probe produced no voltage change; node may be voltage-driven".into(),
        ));
    }
    Ok(i_probe / dv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{MosPolarity, MosfetModel, SourceWaveform};
    use crate::netlist::Circuit;

    fn nmos() -> MosfetModel {
        MosfetModel {
            polarity: MosPolarity::Nmos,
            vt0: 0.32,
            kp: 2.5e-4,
            lambda: 0.15,
            gamma: 0.4,
            phi: 0.7,
            cox: 0.012,
            cgso: 3e-10,
            cgdo: 3e-10,
            cj: 8e-10,
        }
    }

    fn pmos() -> MosfetModel {
        MosfetModel {
            polarity: MosPolarity::Pmos,
            vt0: -0.34,
            kp: 1.0e-4,
            ..nmos()
        }
    }

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::gnd(), SourceWaveform::Dc(3.0));
        ckt.add_resistor("R1", a, b, 2000.0).unwrap();
        ckt.add_resistor("R2", b, Circuit::gnd(), 1000.0).unwrap();
        let sol = dc_operating_point(&ckt, &NewtonOptions::default(), None).unwrap();
        assert!((sol.voltage(b) - 1.0).abs() < 1e-6);
        assert!((sol.vsource_current("V1").unwrap() + 1e-3).abs() < 1e-8);
    }

    #[test]
    fn inverter_transfer_points() {
        // CMOS inverter: input low -> output at vdd; input high -> output 0.
        let vdd = 1.2;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        let vddn = ckt.node("vdd");
        ckt.add_vsource("Vdd", vddn, Circuit::gnd(), SourceWaveform::Dc(vdd));
        ckt.add_vsource("Vin", vin, Circuit::gnd(), SourceWaveform::Dc(0.0));
        ckt.add_mosfet(
            "Mn",
            vout,
            vin,
            Circuit::gnd(),
            Circuit::gnd(),
            nmos(),
            0.42e-6,
            0.13e-6,
        )
        .unwrap();
        ckt.add_mosfet("Mp", vout, vin, vddn, vddn, pmos(), 0.64e-6, 0.13e-6)
            .unwrap();
        let sol = dc_operating_point(&ckt, &NewtonOptions::default(), None).unwrap();
        assert!(
            (sol.voltage(vout) - vdd).abs() < 0.02,
            "out={} expected ~{}",
            sol.voltage(vout),
            vdd
        );
        ckt.set_source_wave("Vin", SourceWaveform::Dc(vdd)).unwrap();
        let sol = dc_operating_point(&ckt, &NewtonOptions::default(), None).unwrap();
        assert!(sol.voltage(vout).abs() < 0.02, "out={}", sol.voltage(vout));
    }

    #[test]
    fn nand2_output_low_when_both_high() {
        let vdd = 1.2;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let out = ckt.node("out");
        let mid = ckt.node("mid");
        let vddn = ckt.node("vdd");
        ckt.add_vsource("Vdd", vddn, Circuit::gnd(), SourceWaveform::Dc(vdd));
        ckt.add_vsource("Va", a, Circuit::gnd(), SourceWaveform::Dc(vdd));
        ckt.add_vsource("Vb", b, Circuit::gnd(), SourceWaveform::Dc(vdd));
        // NMOS stack.
        ckt.add_mosfet("Mn1", out, a, mid, Circuit::gnd(), nmos(), 0.6e-6, 0.13e-6)
            .unwrap();
        ckt.add_mosfet(
            "Mn2",
            mid,
            b,
            Circuit::gnd(),
            Circuit::gnd(),
            nmos(),
            0.6e-6,
            0.13e-6,
        )
        .unwrap();
        // Parallel PMOS.
        ckt.add_mosfet("Mp1", out, a, vddn, vddn, pmos(), 0.64e-6, 0.13e-6)
            .unwrap();
        ckt.add_mosfet("Mp2", out, b, vddn, vddn, pmos(), 0.64e-6, 0.13e-6)
            .unwrap();
        let sol = dc_operating_point(&ckt, &NewtonOptions::default(), None).unwrap();
        assert!(sol.voltage(out) < 0.03, "out={}", sol.voltage(out));
        // One input low -> output high.
        ckt.set_source_wave("Va", SourceWaveform::Dc(0.0)).unwrap();
        let sol = dc_operating_point(&ckt, &NewtonOptions::default(), None).unwrap();
        assert!(sol.voltage(out) > vdd - 0.03, "out={}", sol.voltage(out));
    }

    #[test]
    fn holding_conductance_of_grounded_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor("R", a, Circuit::gnd(), 2500.0).unwrap();
        // Keep the matrix well-posed with a source somewhere.
        let b = ckt.node("b");
        ckt.add_vsource("V", b, Circuit::gnd(), SourceWaveform::Dc(1.0));
        ckt.add_resistor("Rb", b, a, 1e9).unwrap();
        let g = dc_input_conductance(&ckt, a, &NewtonOptions::default()).unwrap();
        assert!((1.0 / g - 2500.0).abs() / 2500.0 < 1e-3, "g={g}");
    }

    #[test]
    fn table_vccs_dc_solution() {
        use crate::devices::table2d::{linspace, Table2d};
        // VCCS emulating a 1 kS resistor to ground: i = 1e-3 * vout,
        // independent of vin.
        let t = Table2d::from_fn(linspace(-1.0, 1.0, 3), linspace(-2.0, 2.0, 5), |_x, y| {
            1e-3 * y
        })
        .unwrap();
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("Vin", inp, Circuit::gnd(), SourceWaveform::Dc(0.5));
        // 1 uA pushed into out; should settle at 1 mV.
        ckt.add_isource("I1", Circuit::gnd(), out, SourceWaveform::Dc(1e-6));
        ckt.add_table_vccs("Gnl", out, Circuit::gnd(), inp, t);
        let sol = dc_operating_point(&ckt, &NewtonOptions::default(), None).unwrap();
        assert!(
            (sol.voltage(out) - 1e-3).abs() < 1e-7,
            "v={}",
            sol.voltage(out)
        );
    }
}
