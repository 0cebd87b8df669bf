//! PRIMA-style passive projection reduction.
//!
//! The workhorse reduction behind the cluster macromodel: a block-Arnoldi
//! Krylov basis of the shifted system `(G + s₀C)⁻¹C` projected by
//! congruence onto the port incidence. This is the modern formulation of
//! the moment-matched multiport macromodel the paper's reference \[8\]
//! ("coupled-S model") constructs — it matches block moments at `s₀` while
//! preserving the RC network's passivity structure, and keeps *all* ports
//! (victim driving point, aggressor driving points, receiver taps) visible
//! to the non-linear noise engine.

use sna_spice::error::{Error, Result};
use sna_spice::linalg::{DenseMatrix, LuFactors};
use sna_spice::mna::MnaSystem;
use sna_spice::netlist::{Circuit, NodeId};
use sna_spice::solver::SolverKind;
use sna_spice::sparse::{SparseLu, SparseMatrix, Symbolic};

/// Factorization of the shifted system `(G + s₀·C)`, on whichever backend
/// [`SolverKind`] resolves to: the block-Arnoldi recursion solves against
/// it `q × p` times plus once per deflation retry, so segmented-bus
/// reductions (hundreds of unknowns, tridiagonal-plus-coupling pattern)
/// gain the full sparse-factor advantage.
enum ShiftedFactor {
    Dense(LuFactors),
    Sparse {
        lu: Box<SparseLu>,
        x: Vec<f64>,
        work: Vec<f64>,
    },
}

impl ShiftedFactor {
    fn build(shifted: &DenseMatrix, kind: SolverKind) -> Result<Self> {
        let n = shifted.n_rows();
        if kind.is_sparse_for(n) {
            let sp = SparseMatrix::from_dense(shifted);
            let sym = Symbolic::analyze(&sp);
            Ok(ShiftedFactor::Sparse {
                lu: Box::new(SparseLu::factor(&sp, &sym)?),
                x: vec![0.0; n],
                work: vec![0.0; n],
            })
        } else {
            Ok(ShiftedFactor::Dense(shifted.lu()?))
        }
    }

    fn solve(&mut self, b: &[f64]) -> Vec<f64> {
        match self {
            ShiftedFactor::Dense(lu) => lu.solve(b),
            ShiftedFactor::Sparse { lu, x, work } => {
                lu.solve_into(b, x, work);
                x.clone()
            }
        }
    }
}

/// Reduced multiport RC system `Ĉ·ẋ + Ĝ·x = B̂·u`, `y = B̂ᵀ·x`, where `u`
/// are port current injections and `y` the port voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedSystem {
    /// Reduced conductance matrix (m × m).
    pub g: DenseMatrix,
    /// Reduced capacitance matrix (m × m).
    pub c: DenseMatrix,
    /// Reduced port incidence (m × p).
    pub b: DenseMatrix,
}

impl ReducedSystem {
    /// Reduced state dimension.
    pub fn dim(&self) -> usize {
        self.g.n_rows()
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.b.n_cols()
    }

    /// Port voltages `B̂ᵀ·x` for a state vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn port_voltages(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim());
        let mut y = vec![0.0; self.n_ports()];
        for (p, yp) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                acc += self.b[(i, p)] * xi;
            }
            *yp = acc;
        }
        y
    }
}

/// Reduce `circuit` (linear RC only) seen from `ports` with `q` block
/// moments expanded around `s0` (rad/s). Reduced dimension is at most
/// `q × ports.len()`.
///
/// # Errors
///
/// Fails on non-linear circuits, sources in the network, ground ports, or
/// singular shifted systems.
pub fn prima_reduce(
    circuit: &Circuit,
    ports: &[NodeId],
    q: usize,
    s0: f64,
) -> Result<ReducedSystem> {
    prima_reduce_with(circuit, ports, q, s0, SolverKind::Auto)
}

/// [`prima_reduce`] with an explicit linear-solver selection for the
/// shifted-system factorization (dense, sparse, or dimension-based auto).
///
/// # Errors
///
/// As [`prima_reduce`].
pub fn prima_reduce_with(
    circuit: &Circuit,
    ports: &[NodeId],
    q: usize,
    s0: f64,
    solver: SolverKind,
) -> Result<ReducedSystem> {
    if ports.is_empty() || q == 0 {
        return Err(Error::InvalidAnalysis(
            "prima needs at least one port and one moment block".into(),
        ));
    }
    if circuit.is_nonlinear() {
        return Err(Error::InvalidAnalysis(
            "prima requires a linear RC network".into(),
        ));
    }
    if s0.is_nan() || s0 <= 0.0 {
        return Err(Error::InvalidAnalysis(
            "prima expansion point must be > 0".into(),
        ));
    }
    let mna = MnaSystem::new(circuit)?;
    if !mna.vsources().is_empty() {
        return Err(Error::InvalidAnalysis(
            "prima requires a source-free network".into(),
        ));
    }
    let n = mna.dim();
    let p = ports.len();
    // Port incidence matrix B (n × p).
    let mut b = DenseMatrix::zeros(n, p);
    for (j, &port) in ports.iter().enumerate() {
        let row = mna
            .node_unknown(port)
            .ok_or_else(|| Error::InvalidAnalysis("ground cannot be a port".into()))?;
        b[(row, j)] = 1.0;
    }
    // Shifted system A = (G + s0 C)^{-1}.
    let mut shifted = DenseMatrix::zeros(n, n);
    shifted.axpy(1.0, mna.g_matrix());
    shifted.axpy(s0, mna.c_matrix());
    let mut lu = ShiftedFactor::build(&shifted, solver)?;
    // Block Arnoldi with modified Gram-Schmidt.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(q * p);
    let mut block: Vec<Vec<f64>> = (0..p)
        .map(|j| {
            let col: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
            lu.solve(&col)
        })
        .collect();
    for _ in 0..q {
        let mut next_block = Vec::with_capacity(p);
        for mut v in block.drain(..) {
            // Deflation must be judged relative to the incoming vector's
            // scale: Krylov vectors shrink by ~|C|/|G| every block, so an
            // absolute cutoff would wrongly discard deep moments.
            let norm_in: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm_in == 0.0 {
                continue;
            }
            // Orthogonalize against the existing basis (two MGS passes for
            // numerical safety).
            for _ in 0..2 {
                for u in &basis {
                    let dot: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
                    for (vi, ui) in v.iter_mut().zip(u) {
                        *vi -= dot * ui;
                    }
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-10 * norm_in {
                for vi in &mut v {
                    *vi /= norm;
                }
                basis.push(v.clone());
                next_block.push(v);
            }
        }
        if next_block.is_empty() {
            break; // Krylov space exhausted.
        }
        // Next block: A^{-1} C * current block.
        block = next_block
            .iter()
            .map(|v| {
                let cv = mna.c_matrix().mul_vec(v);
                lu.solve(&cv)
            })
            .collect();
    }
    let m = basis.len();
    if m == 0 {
        return Err(Error::InvalidAnalysis(
            "prima produced an empty basis".into(),
        ));
    }
    // Congruence projection.
    let project = |mat: &DenseMatrix| -> DenseMatrix {
        let mut out = DenseMatrix::zeros(m, m);
        // tmp = mat * V (n × m)
        let mut tmp = vec![vec![0.0; m]; n];
        for (k, v) in basis.iter().enumerate() {
            let mv = mat.mul_vec(v);
            for i in 0..n {
                tmp[i][k] = mv[i];
            }
        }
        for (r, vr) in basis.iter().enumerate() {
            for k in 0..m {
                let mut acc = 0.0;
                for i in 0..n {
                    acc += vr[i] * tmp[i][k];
                }
                out[(r, k)] = acc;
            }
        }
        out
    };
    let g_hat = project(mna.g_matrix());
    let c_hat = project(mna.c_matrix());
    let mut b_hat = DenseMatrix::zeros(m, p);
    for (r, vr) in basis.iter().enumerate() {
        for j in 0..p {
            let mut acc = 0.0;
            for i in 0..n {
                acc += vr[i] * b[(i, j)];
            }
            b_hat[(r, j)] = acc;
        }
    }
    Ok(ReducedSystem {
        g: g_hat,
        c: c_hat,
        b: b_hat,
    })
}

/// Default PRIMA expansion point: 1/(100 ps) — the middle of the
/// glitch-bandwidth decade noise analysis cares about.
pub const DEFAULT_S0: f64 = 1.0e10;

/// Default number of block moments.
pub const DEFAULT_Q: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use sna_interconnect::prelude::*;
    use sna_spice::devices::SourceWaveform;
    use sna_spice::tran::{transient, TranParams};
    use sna_spice::units::{NS, PS, UM};

    impl ReducedSystem {
        /// Simulate the *linear* reduced system with trapezoidal integration.
        /// `inject(t)` returns the port current injections (A, into the port);
        /// returns the port-voltage series sampled at each step, starting at
        /// `t = 0` with zero initial state. Fails on a singular step matrix or
        /// non-positive step/horizon.
        fn simulate_linear<F: FnMut(f64) -> Vec<f64>>(
            &self,
            mut inject: F,
            dt: f64,
            t_stop: f64,
        ) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
            if !(dt > 0.0 && t_stop > dt) {
                return Err(Error::InvalidAnalysis(format!(
                    "bad reduced-transient window: dt={dt}, t_stop={t_stop}"
                )));
            }
            let m = self.dim();
            let n_steps = (t_stop / dt).round() as usize;
            let alpha = 2.0 / dt;
            // LHS = G + alpha C ; RHS uses (alpha C - G).
            let mut lhs = DenseMatrix::zeros(m, m);
            lhs.axpy(1.0, &self.g);
            lhs.axpy(alpha, &self.c);
            let lu = lhs.lu()?;
            let mut rhs_mat = DenseMatrix::zeros(m, m);
            rhs_mat.axpy(-1.0, &self.g);
            rhs_mat.axpy(alpha, &self.c);
            let mut x = vec![0.0; m];
            let mut u_prev = inject(0.0);
            let mut times = Vec::with_capacity(n_steps + 1);
            let mut ys = Vec::with_capacity(n_steps + 1);
            times.push(0.0);
            ys.push(self.port_voltages(&x));
            for k in 1..=n_steps {
                let t = k as f64 * dt;
                let u = inject(t);
                let mut rhs = rhs_mat.mul_vec(&x);
                for (i, ri) in rhs.iter_mut().enumerate().take(m) {
                    let mut acc = 0.0;
                    for (p, (up, upr)) in u.iter().zip(&u_prev).enumerate() {
                        acc += self.b[(i, p)] * (up + upr);
                    }
                    *ri += acc;
                }
                x = lu.solve(&rhs);
                times.push(t);
                ys.push(self.port_voltages(&x));
                u_prev = u;
            }
            Ok((times, ys))
        }
    }

    fn paper_bus(segments: usize) -> (Circuit, Vec<WireNodes>) {
        let w = WireGeom::new(500.0 * UM, 0.2e6, 40e-12);
        let bus = CoupledBus::parallel_pair(w, w, 90e-12, segments);
        let mut ckt = Circuit::new();
        let nets = bus.instantiate(&mut ckt, "n").unwrap();
        (ckt, nets)
    }

    #[test]
    fn dimensions() {
        let (ckt, nets) = paper_bus(20);
        let ports = [nets[0].near, nets[1].near, nets[0].far, nets[1].far];
        let red = prima_reduce(&ckt, &ports, 3, DEFAULT_S0).unwrap();
        assert_eq!(red.n_ports(), 4);
        assert!(red.dim() <= 12);
        assert!(red.dim() >= 4);
    }

    #[test]
    fn reduced_matches_full_crosstalk_transient() {
        // Full ladder: aggressor Norton drive (ramp through R as current
        // injection is awkward in the full circuit, so use the same
        // Thevenin there) vs reduced system with equivalent Norton.
        let (mut full, nets) = paper_bus(25);
        let rdrv = 300.0;
        let rhold = 2e3;
        let src = full.node("src");
        full.add_vsource(
            "Vagg",
            src,
            Circuit::gnd(),
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.2,
                t_start: 0.2 * NS,
                t_rise: 100.0 * PS,
            },
        );
        full.add_resistor("Rdrv", src, nets[1].near, rdrv).unwrap();
        full.add_resistor("Rhold", nets[0].near, Circuit::gnd(), rhold)
            .unwrap();
        let p = TranParams::new(3.0 * NS, 2.0 * PS);
        let res = transient(&full, &p).unwrap();
        let w_vic_full = res.node_waveform(nets[0].near);
        let w_far_full = res.node_waveform(nets[0].far);

        // Reduced: absorb both resistors into the network BEFORE reduction
        // is not possible (they are port loads); instead keep them external
        // as Norton elements: i_port = (V_src(t) - y)/R is affine in y, so
        // fold the conductance into G_hat via B diag(g) B^T.
        let (net_only, nets2) = paper_bus(25);
        let ports = [nets2[0].near, nets2[1].near, nets2[0].far, nets2[1].far];
        let red = prima_reduce(&net_only, &ports, 3, DEFAULT_S0).unwrap();
        // Augment G_hat with the two port conductances.
        let m = red.dim();
        let mut g_aug = red.g.clone();
        let loads = [(0usize, 1.0 / rhold), (1usize, 1.0 / rdrv)];
        for &(port, g) in &loads {
            for i in 0..m {
                for j in 0..m {
                    let add = g * red.b[(i, port)] * red.b[(j, port)];
                    g_aug.add(i, j, add);
                }
            }
        }
        let aug = ReducedSystem {
            g: g_aug,
            c: red.c.clone(),
            b: red.b.clone(),
        };
        let ramp = SourceWaveform::Ramp {
            v0: 0.0,
            v1: 1.2,
            t_start: 0.2 * NS,
            t_rise: 100.0 * PS,
        };
        let (times, ys) = aug
            .simulate_linear(
                |t| vec![0.0, ramp.eval(t) / rdrv, 0.0, 0.0],
                2.0 * PS,
                3.0 * NS,
            )
            .unwrap();
        let vic_red = sna_spice::waveform::Waveform::from_samples(
            times.clone(),
            ys.iter().map(|y| y[0]).collect(),
        )
        .unwrap();
        let far_red =
            sna_spice::waveform::Waveform::from_samples(times, ys.iter().map(|y| y[2]).collect())
                .unwrap();
        let m_full = w_vic_full.glitch_metrics(0.0);
        let m_red = vic_red.glitch_metrics(0.0);
        let peak_err = (m_red.peak - m_full.peak).abs() / m_full.peak;
        assert!(
            peak_err < 0.02,
            "DP peak err {peak_err:.4}: full={} red={}",
            m_full.peak,
            m_red.peak
        );
        let area_err = (m_red.area - m_full.area).abs() / m_full.area;
        assert!(area_err < 0.03, "DP area err {area_err:.4}");
        // Receiver-end (far) waveform also tracked.
        let mf = w_far_full.glitch_metrics(0.0);
        let mr = far_red.glitch_metrics(0.0);
        assert!(
            (mr.peak - mf.peak).abs() / mf.peak < 0.03,
            "far peak: full={} red={}",
            mf.peak,
            mr.peak
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (ckt, nets) = paper_bus(5);
        assert!(prima_reduce(&ckt, &[], 3, DEFAULT_S0).is_err());
        assert!(prima_reduce(&ckt, &[nets[0].near], 0, DEFAULT_S0).is_err());
        assert!(prima_reduce(&ckt, &[nets[0].near], 3, -1.0).is_err());
        assert!(prima_reduce(&ckt, &[Circuit::gnd()], 3, DEFAULT_S0).is_err());
        let mut with_src = ckt.clone();
        let s = with_src.node("s");
        with_src.add_vsource("V", s, Circuit::gnd(), SourceWaveform::Dc(1.0));
        assert!(prima_reduce(&with_src, &[nets[0].near], 2, DEFAULT_S0).is_err());
    }

    #[test]
    fn projection_preserves_symmetry() {
        let (ckt, nets) = paper_bus(15);
        let ports = [nets[0].near, nets[1].near];
        let red = prima_reduce(&ckt, &ports, 2, DEFAULT_S0).unwrap();
        let m = red.dim();
        for i in 0..m {
            for j in 0..m {
                assert!(
                    (red.g[(i, j)] - red.g[(j, i)]).abs() < 1e-9 * red.g.norm_inf().max(1e-12),
                    "G not symmetric at ({i},{j})"
                );
                assert!(
                    (red.c[(i, j)] - red.c[(j, i)]).abs() < 1e-9 * red.c.norm_inf().max(1e-30),
                    "C not symmetric at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn simulate_linear_validates_window() {
        let (ckt, nets) = paper_bus(5);
        let red = prima_reduce(&ckt, &[nets[0].near], 2, DEFAULT_S0).unwrap();
        assert!(red.simulate_linear(|_| vec![0.0], -1.0, 1.0).is_err());
        assert!(red.simulate_linear(|_| vec![0.0], 1.0, 0.5).is_err());
    }
}
