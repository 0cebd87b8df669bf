//! The transient stepping [`super::transient_with`] replaced, kept as its
//! oracle: every Newton iterate and every accepted point evaluates the
//! non-linear devices afresh, in one pass that stamps the residual and the
//! Jacobian as it goes (through a `dyn` [`MatrixStamp`] sink). The
//! production loop evaluates each Newton point once and stamps in a second
//! pass; both must give the same waveforms and Newton counts bit for bit.
//!
//! The module is compiled for this crate's tests and, through the `oracle`
//! feature, which only dev-dependencies enable, for other crates' tests.
//! [`with_fresh_evaluation`] runs a closure with every [`super::transient_with`]
//! on the calling thread stepped by this loop, so a characterization can be
//! compared with itself under the oracle without a second code path in the
//! characterization.

use std::cell::Cell;

use crate::dc::dc_operating_point_with;
use crate::error::{Error, Result};
use crate::linalg::MatrixStamp;
use crate::mna::MnaSystem;
use crate::netlist::{Circuit, Element, NodeId};

use super::{NodeVoltages, StopPredicate, TranParams, TranResult, TranWorkspace};

thread_local! {
    static FRESH: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with every transient on this thread stepped by the oracle loop
/// (a fresh device evaluation at every Newton iterate and accepted point).
pub fn with_fresh_evaluation<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FRESH.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FRESH.with(|c| c.replace(true)));
    f()
}

/// Whether [`with_fresh_evaluation`] is active on this thread.
pub(super) fn active() -> bool {
    FRESH.with(Cell::get)
}

/// The single-pass stamp: evaluate each non-linear device of `circuit` at
/// `x` and add its current to `residual` and, when `jac` is given, its
/// conductances to the Jacobian, element by element.
pub(crate) fn stamp_nonlinear_fresh(
    mna: &MnaSystem,
    circuit: &Circuit,
    x: &[f64],
    residual: &mut [f64],
    mut jac: Option<&mut dyn MatrixStamp>,
) {
    for el in circuit.elements().iter().filter(|e| e.is_nonlinear()) {
        match el {
            Element::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w,
                l,
                ..
            } => {
                let vd = mna.voltage(x, *d);
                let vg = mna.voltage(x, *g);
                let vs = mna.voltage(x, *s);
                let vb = mna.voltage(x, *b);
                let e = model.eval_terminal(vd, vg, vs, vb, *w, *l);
                if let Some(i) = mna.node_unknown(*d) {
                    residual[i] += e.id;
                }
                if let Some(i) = mna.node_unknown(*s) {
                    residual[i] -= e.id;
                }
                if let Some(j) = jac.as_deref_mut() {
                    let terms = [(*d, e.gd), (*g, e.gg), (*s, e.gs), (*b, e.gb)];
                    if let Some(i) = mna.node_unknown(*d) {
                        for (n, gv) in terms {
                            if let Some(jn) = mna.node_unknown(n) {
                                j.add(i, jn, gv);
                            }
                        }
                    }
                    if let Some(i) = mna.node_unknown(*s) {
                        for (n, gv) in terms {
                            if let Some(jn) = mna.node_unknown(n) {
                                j.add(i, jn, -gv);
                            }
                        }
                    }
                }
            }
            Element::TableVccs {
                out_p,
                out_n,
                ctrl,
                table,
                ..
            } => {
                let vin = mna.voltage(x, *ctrl);
                let vout = mna.voltage(x, *out_p) - mna.voltage(x, *out_n);
                let e = table.eval(vin, vout);
                if let Some(i) = mna.node_unknown(*out_p) {
                    residual[i] += e.z;
                }
                if let Some(i) = mna.node_unknown(*out_n) {
                    residual[i] -= e.z;
                }
                if let Some(j) = jac.as_deref_mut() {
                    let terms = [(*ctrl, e.dz_dx), (*out_p, e.dz_dy), (*out_n, -e.dz_dy)];
                    if let Some(i) = mna.node_unknown(*out_p) {
                        for (n, gv) in terms {
                            if let Some(jn) = mna.node_unknown(n) {
                                j.add(i, jn, gv);
                            }
                        }
                    }
                    if let Some(i) = mna.node_unknown(*out_n) {
                        for (n, gv) in terms {
                            if let Some(jn) = mna.node_unknown(n) {
                                j.add(i, jn, -gv);
                            }
                        }
                    }
                }
            }
            Element::Diode { p, n, model, .. } => {
                let vd = mna.voltage(x, *p) - mna.voltage(x, *n);
                let e = model.eval(vd);
                if let Some(i) = mna.node_unknown(*p) {
                    residual[i] += e.id;
                }
                if let Some(i) = mna.node_unknown(*n) {
                    residual[i] -= e.id;
                }
                if let Some(j) = jac.as_deref_mut() {
                    if let Some(i) = mna.node_unknown(*p) {
                        j.add(i, i, e.gd);
                        if let Some(jn) = mna.node_unknown(*n) {
                            j.add(i, jn, -e.gd);
                        }
                    }
                    if let Some(i) = mna.node_unknown(*n) {
                        j.add(i, i, e.gd);
                        if let Some(jp) = mna.node_unknown(*p) {
                            j.add(i, jp, -e.gd);
                        }
                    }
                }
            }
            _ => unreachable!("only mosfets, diodes, and table vccs are non-linear"),
        }
    }
}

/// The oracle stepping loop, on a workspace [`super::transient_with`] has
/// checked; it records its counts in the workspace as the production loop
/// does.
pub(super) fn run_transient(
    circuit: &Circuit,
    params: &TranParams,
    n_steps: usize,
    ws: &mut TranWorkspace,
    ics: &[(NodeId, f64)],
    mut stop: Option<StopPredicate<'_>>,
) -> Result<TranResult> {
    let dim = ws.mna.dim();
    let n_nodes = ws.mna.n_nodes();
    let mut x: Vec<f64> = if params.dc_init {
        dc_operating_point_with(circuit, &params.newton, None, &ws.mna, &mut ws.solver)?
            .unknowns()
            .to_vec()
    } else {
        vec![0.0; dim]
    };
    for &(node, v) in ics {
        if let Some(row) = ws.mna.node_unknown(node) {
            x[row] = v;
        }
    }
    let mut x_next = vec![0.0; dim];
    let alpha = 2.0 / params.dt;
    ws.solver.set_alpha(alpha);
    let linear = !ws.mna.has_nonlinear();
    if linear {
        ws.solver.factor_base()?;
    }
    let mut times = Vec::new();
    let mut traces: Vec<Vec<f64>> = vec![Vec::new(); n_nodes];
    let mut branch_currents: Vec<Vec<f64>> = vec![Vec::new(); ws.mna.vsources().len()];
    let vb: Vec<usize> = ws.mna.vsource_branches().to_vec();
    let record = |x: &[f64],
                  t: f64,
                  times: &mut Vec<f64>,
                  traces: &mut Vec<Vec<f64>>,
                  branch: &mut Vec<Vec<f64>>| {
        times.push(t);
        for (n, tr) in traces.iter_mut().enumerate() {
            tr.push(x[n]);
        }
        for (s, br) in branch.iter_mut().enumerate() {
            br.push(x[vb[s]]);
        }
    };
    let mut stop_here = |t: f64, x: &[f64]| {
        stop.as_deref_mut()
            .is_some_and(|f| f(t, NodeVoltages(&x[..n_nodes])))
    };
    record(&x, 0.0, &mut times, &mut traces, &mut branch_currents);
    let last_step = if stop_here(0.0, &x) { 0 } else { n_steps };

    ws.mna.rhs_into(circuit, 0.0, 1.0, &mut ws.b_prev);
    ws.f_prev.fill(0.0);
    stamp_nonlinear_fresh(&ws.mna, circuit, &x, &mut ws.f_prev, None);
    for step in 1..=last_step {
        let t1 = step as f64 * params.dt;
        ws.mna.rhs_into(circuit, t1, 1.0, &mut ws.b_cur);
        ws.solver.c_mul_into(&x, &mut ws.scratch);
        for i in 0..dim {
            ws.rhs[i] = ws.b_cur[i] + ws.b_prev[i] - ws.f_prev[i] + alpha * ws.scratch[i];
        }
        ws.solver.g_mul_into(&x, &mut ws.scratch);
        for i in 0..dim {
            ws.rhs[i] -= ws.scratch[i];
        }
        if linear {
            ws.solver.solve_into(&ws.rhs, &mut x_next);
            std::mem::swap(&mut x, &mut x_next);
        } else {
            let mut converged = false;
            for _ in 0..params.newton.max_iter {
                ws.solver.base_mul_into(&x, &mut ws.residual);
                for (r, rhs) in ws.residual.iter_mut().zip(&ws.rhs) {
                    *r -= rhs;
                }
                ws.solver.begin_jacobian();
                let jac = ws.solver.jac_stamp();
                stamp_nonlinear_fresh(&ws.mna, circuit, &x, &mut ws.residual, Some(jac));
                for (n, &r) in ws.neg.iter_mut().zip(ws.residual.iter()) {
                    *n = -r;
                }
                ws.solver.factor_jacobian()?;
                ws.solver.solve_into(&ws.neg, &mut ws.dx);
                let max_dx = ws.dx.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
                let scale = if max_dx > params.newton.max_step {
                    params.newton.max_step / max_dx
                } else {
                    1.0
                };
                let mut done = true;
                for (xi, &di) in x.iter_mut().zip(ws.dx.iter()) {
                    let s = scale * di;
                    *xi += s;
                    if s.abs() > params.newton.reltol * xi.abs() + params.newton.vntol {
                        done = false;
                    }
                }
                ws.stats.newton_iterations += 1;
                if done && scale == 1.0 {
                    converged = true;
                    break;
                }
            }
            if !converged {
                let max_res = ws.residual.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
                return Err(Error::NonConvergence {
                    analysis: "tran",
                    iterations: params.newton.max_iter,
                    time: t1,
                    residual: max_res,
                });
            }
        }
        record(&x, t1, &mut times, &mut traces, &mut branch_currents);
        ws.stats.steps += 1;
        if stop_here(t1, &x) {
            break;
        }
        std::mem::swap(&mut ws.b_prev, &mut ws.b_cur);
        ws.f_prev.fill(0.0);
        stamp_nonlinear_fresh(&ws.mna, circuit, &x, &mut ws.f_prev, None);
    }
    Ok(TranResult {
        times,
        traces,
        branch_currents,
        node_names: (0..circuit.node_count())
            .map(|i| circuit.node_name(NodeId(i)).to_string())
            .collect(),
        vsource_names: ws
            .mna
            .vsources()
            .iter()
            .map(|id| circuit.element(*id).name().to_string())
            .collect(),
        newton_iterations: ws.stats.newton_iterations as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::super::transient_with;
    use super::*;
    use crate::devices::table2d::{linspace, Table2d};
    use crate::devices::{DiodeModel, MosPolarity, MosfetModel, SourceWaveform};
    use crate::linalg::DenseMatrix;
    use crate::mna::DeviceEval;
    use crate::solver::SolverKind;
    use crate::units::{NS, PS};

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

    fn glitch(v_base: f64, v_peak: f64) -> SourceWaveform {
        SourceWaveform::TriangleGlitch {
            v_base,
            v_peak,
            t_start: 0.2 * NS,
            t_rise: 150.0 * PS,
            t_fall: 150.0 * PS,
        }
    }

    fn inverter(ckt: &mut Circuit, name: &str, inp: NodeId, out: NodeId, vdd: NodeId) {
        let gnd = Circuit::gnd();
        ckt.add_mosfet(
            &format!("Mn{name}"),
            out,
            inp,
            gnd,
            gnd,
            nmos(),
            0.42e-6,
            0.13e-6,
        )
        .unwrap();
        ckt.add_mosfet(
            &format!("Mp{name}"),
            out,
            inp,
            vdd,
            vdd,
            pmos(),
            0.64e-6,
            0.13e-6,
        )
        .unwrap();
    }

    /// A supply, a glitching input source `Vin` and `n_in` more inputs
    /// held at `hold`: the shell every gate fixture below fills in.
    fn shell(v_in: SourceWaveform, hold: f64) -> (Circuit, NodeId, NodeId, NodeId, NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let b = ckt.node("b");
        let out = ckt.node("out");
        ckt.add_vsource("Vdd", vdd, Circuit::gnd(), SourceWaveform::Dc(1.2));
        ckt.add_vsource("Vin", a, Circuit::gnd(), v_in);
        ckt.add_vsource("Vb", b, Circuit::gnd(), SourceWaveform::Dc(hold));
        ckt.add_capacitor("Cl", out, Circuit::gnd(), 10e-15)
            .unwrap();
        (ckt, vdd, a, b, out)
    }

    /// INV, NAND2, NOR2 and BUF glitch fixtures, a diode clamp and a
    /// table-VCCS driver: every kind of non-linear device, by name, with
    /// the node each one's early stop watches.
    fn fixtures() -> Vec<(&'static str, Circuit)> {
        let gnd = Circuit::gnd();
        let (mut inv, vdd, a, _, out) = shell(glitch(1.2, 0.2), 1.2);
        inverter(&mut inv, "1", a, out, vdd);

        let (mut nand2, vdd, a, b, out) = shell(glitch(1.2, 0.2), 1.2);
        let mid = nand2.node("mid");
        nand2
            .add_mosfet("Mn1", out, a, mid, gnd, nmos(), 0.6e-6, 0.13e-6)
            .unwrap();
        nand2
            .add_mosfet("Mn2", mid, b, gnd, gnd, nmos(), 0.6e-6, 0.13e-6)
            .unwrap();
        nand2
            .add_mosfet("Mp1", out, a, vdd, vdd, pmos(), 0.64e-6, 0.13e-6)
            .unwrap();
        nand2
            .add_mosfet("Mp2", out, b, vdd, vdd, pmos(), 0.64e-6, 0.13e-6)
            .unwrap();

        let (mut nor2, vdd, a, b, out) = shell(glitch(0.0, 1.0), 0.0);
        let mid = nor2.node("mid");
        nor2.add_mosfet("Mp1", mid, a, vdd, vdd, pmos(), 1.2e-6, 0.13e-6)
            .unwrap();
        nor2.add_mosfet("Mp2", out, b, mid, vdd, pmos(), 1.2e-6, 0.13e-6)
            .unwrap();
        nor2.add_mosfet("Mn1", out, a, gnd, gnd, nmos(), 0.42e-6, 0.13e-6)
            .unwrap();
        nor2.add_mosfet("Mn2", out, b, gnd, gnd, nmos(), 0.42e-6, 0.13e-6)
            .unwrap();

        let (mut buf, vdd, a, _, out) = shell(glitch(0.0, 1.0), 0.0);
        let mid = buf.node("mid");
        inverter(&mut buf, "1", a, mid, vdd);
        inverter(&mut buf, "2", mid, out, vdd);

        let mut clamp = Circuit::new();
        let vdd = clamp.node("vdd");
        let src = clamp.node("src");
        let out = clamp.node("out");
        clamp.add_vsource("Vdd", vdd, gnd, SourceWaveform::Dc(1.2));
        clamp.add_vsource(
            "Vin",
            src,
            gnd,
            SourceWaveform::Pulse {
                v0: -0.6,
                v1: 1.9,
                t_delay: 0.1 * NS,
                t_rise: 50.0 * PS,
                t_width: 0.3 * NS,
                t_fall: 50.0 * PS,
            },
        );
        clamp.add_resistor("Rs", src, out, 1e3).unwrap();
        clamp.add_capacitor("Cl", out, gnd, 5e-15).unwrap();
        let diode = DiodeModel {
            is: 1e-14,
            n: 1.05,
            cj0: 2e-15,
        };
        clamp.add_diode("Dhi", out, vdd, diode).unwrap();
        clamp.add_diode("Dlo", gnd, out, diode).unwrap();

        let mut table = Circuit::new();
        let inp = table.node("in");
        let out = table.node("out");
        table.add_vsource("Vin", inp, gnd, glitch(1.2, 0.1));
        let drive = Table2d::from_fn(
            linspace(-0.2, 1.4, 9),
            linspace(-0.4, 1.6, 11),
            |vin, vout| 1e-4 * (vout - 1.2 * (1.0 - vin / 1.2)).tanh() * (1.0 + 0.3 * vin),
        )
        .unwrap();
        // The current returns through `sink`, so both output terminals of
        // the VCCS are unknowns.
        let sink = table.node("sink");
        table.add_table_vccs("Gdrv", out, sink, inp, drive);
        table.add_resistor("Rsink", sink, gnd, 200.0).unwrap();
        table.add_capacitor("Cl", out, gnd, 8e-15).unwrap();
        table.add_resistor("Rl", out, gnd, 50e3).unwrap();

        vec![
            ("inv", inv),
            ("nand2", nand2),
            ("nor2", nor2),
            ("buf", buf),
            ("diode_clamp", clamp),
            ("table_vccs", table),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Equal times, node traces, branch traces and Newton counts, bit for
    /// bit.
    fn assert_same(got: &TranResult, want: &TranResult, what: &str) {
        assert_eq!(bits(&got.times), bits(&want.times), "{what}: times");
        assert_eq!(got.traces.len(), want.traces.len(), "{what}");
        for (n, (a, b)) in got.traces.iter().zip(&want.traces).enumerate() {
            assert_eq!(bits(a), bits(b), "{what}: node {}", n + 1);
        }
        assert_eq!(got.branch_currents.len(), want.branch_currents.len());
        for (k, (a, b)) in got
            .branch_currents
            .iter()
            .zip(&want.branch_currents)
            .enumerate()
        {
            assert_eq!(bits(a), bits(b), "{what}: branch {k}");
        }
        assert_eq!(got.newton_iterations, want.newton_iterations, "{what}");
    }

    /// One fixture's runs, in order, on one workspace: plain, with `.IC`
    /// overrides, early-stopped once `out` leaves its starting level by
    /// 50 mV, and plain again with a new input wave.
    fn run_sequence(ckt: &Circuit, kind: SolverKind) -> Vec<TranResult> {
        let mut ckt = ckt.clone();
        let out = ckt.find_node("out").unwrap();
        let mut params = TranParams::new(1.0 * NS, 2.0 * PS);
        params.newton.solver = kind;
        let mut ws = TranWorkspace::new(&ckt, kind).unwrap();
        let plain = transient_with(&ckt, &params, &mut ws, &[], None).unwrap();
        let v0 = plain.traces[out.index() - 1][0];
        let ics = [(out, 0.5), (Circuit::gnd(), 1.0)];
        let with_ics = transient_with(&ckt, &params, &mut ws, &ics, None).unwrap();
        let mut leaves = |_, v: NodeVoltages<'_>| (v.get(out) - v0).abs() > 0.05;
        let stopped = transient_with(&ckt, &params, &mut ws, &[], Some(&mut leaves)).unwrap();
        assert!(
            1 < stopped.times.len() && stopped.times.len() < plain.times.len(),
            "the early stop fires mid-run"
        );
        ckt.set_source_wave("Vin", SourceWaveform::Dc(0.6)).unwrap();
        let moved = transient_with(&ckt, &params, &mut ws, &[], None).unwrap();
        vec![plain, with_ics, stopped, moved]
    }

    #[test]
    fn stepping_equals_fresh_evaluation_oracle() {
        for (name, ckt) in fixtures() {
            for kind in [SolverKind::Dense, SolverKind::Sparse] {
                let got = run_sequence(&ckt, kind);
                let want = with_fresh_evaluation(|| run_sequence(&ckt, kind));
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_same(g, w, &format!("{name} {kind:?} run {i}"));
                }
                assert!(got[0].newton_iterations > 0, "{name}: non-linear");
            }
        }
    }

    #[test]
    fn oracle_switch_is_scoped_to_the_closure() {
        assert!(!active());
        let inner = with_fresh_evaluation(|| {
            assert!(active());
            with_fresh_evaluation(active)
        });
        assert!(inner);
        assert!(!active());
        let caught = std::panic::catch_unwind(|| with_fresh_evaluation(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!active(), "a panic leaves the switch off");
    }

    /// The two-pass stamp (evaluate, then stamp) adds the same residual and
    /// Jacobian, and touches the same positions in the same order, as the
    /// single-pass one, at operating points off the solution.
    #[test]
    fn two_pass_stamp_equals_single_pass_stamp() {
        for (name, ckt) in fixtures() {
            let mna = MnaSystem::new(&ckt).unwrap();
            let dim = mna.dim();
            let mut evals = vec![DeviceEval::default(); mna.nonlinear_count()];
            for k in 0..8 {
                let x: Vec<f64> = (0..dim)
                    .map(|i| (0.37 * (i * 7 + k * 3) as f64).sin() * 1.4)
                    .collect();
                let seed: Vec<f64> = (0..dim).map(|i| 1e-6 * i as f64).collect();
                let (mut r_got, mut r_want) = (seed.clone(), seed.clone());
                let mut j_got = DenseMatrix::identity(dim);
                let mut j_want = DenseMatrix::identity(dim);
                mna.eval_nonlinear(&ckt, &x, &mut evals);
                mna.stamp_nonlinear(&evals, &mut r_got, Some(&mut j_got));
                stamp_nonlinear_fresh(&mna, &ckt, &x, &mut r_want, Some(&mut j_want));
                assert_eq!(bits(&r_got), bits(&r_want), "{name}: residual");
                for i in 0..dim {
                    for j in 0..dim {
                        let (g, w) = (j_got[(i, j)], j_want[(i, j)]);
                        assert_eq!(g.to_bits(), w.to_bits(), "{name}: J[{i}][{j}]");
                    }
                }
                let (mut c_got, mut c_want) = (seed.clone(), seed);
                mna.stamp_currents(&evals, &mut c_got);
                stamp_nonlinear_fresh(&mna, &ckt, &x, &mut c_want, None);
                assert_eq!(bits(&c_got), bits(&c_want), "{name}: currents only");
            }
            let mut p_got = crate::linalg::PatternCollector::new();
            let mut p_want = crate::linalg::PatternCollector::new();
            let zeros = vec![0.0; dim];
            mna.stamp_nonlinear(&evals, &mut vec![0.0; dim], Some(&mut p_got));
            stamp_nonlinear_fresh(&mna, &ckt, &zeros, &mut vec![0.0; dim], Some(&mut p_want));
            assert_eq!(p_got.entries(), p_want.entries(), "{name}: pattern");
        }
    }
}
