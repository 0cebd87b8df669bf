//! Noise-cluster specification and the Figure-1 macromodel.
//!
//! A *noise cluster* is "a victim net and its neighboring coupled
//! aggressors". [`ClusterSpec`] describes one physically (cells, drive
//! states, wire geometry, switching events); [`ClusterMacromodel::build`]
//! performs the paper's pre-characterization and reduction steps and yields
//! the macromodel of Figure 1:
//!
//! * aggressor drivers → Thevenin equivalents (`V_TH` saturated ramp behind
//!   `R_TH`), per Dartu–Pileggi;
//! * coupled interconnect → moment-matched multiport reduction retaining
//!   the victim driving point `DP_Vic`, each aggressor driving point, and
//!   the victim receiver tap as ports;
//! * victim receiver → its input capacitance (absorbed before reduction);
//! * victim driver → the non-linear VCCS `I_DC = f(V_in, V_out)` of Eq. (1)
//!   plus its lumped output/Miller capacitances.

use sna_cells::characterize::{
    characterize_load_curve, characterize_propagated_noise_with, characterize_thevenin_with,
    holding_resistance, prop_table, CharacterizeOptions, LoadCurve, PropagatedNoiseTable,
    TheveninDriver, TheveninLoad,
};
use sna_cells::{Cell, DriverMode, Technology};
use sna_interconnect::CoupledBus;
use sna_obs::{phase_span, Phase};

use crate::library::NoiseModelLibrary;
use sna_mor::{
    port_admittance_moments, prima_reduce_with, PiModel, ReducedSystem, DEFAULT_Q, DEFAULT_S0,
};
use sna_spice::devices::SourceWaveform;
use sna_spice::error::{Error, Result};
use sna_spice::netlist::Circuit;
use sna_spice::solver::{BackendKind, SolverKind};
use sna_spice::units::PS;

/// A triangular noise glitch arriving at the victim driver's input
/// (propagated from an upstream stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputGlitch {
    /// Magnitude of the excursion from the quiescent input level (V).
    pub height: f64,
    /// Base width of the triangle (s).
    pub width: f64,
    /// Time of the glitch peak (s).
    pub t_peak: f64,
}

impl InputGlitch {
    /// The glitch as a source waveform around the quiescent level `q_in`,
    /// heading toward the opposite rail.
    pub fn waveform(&self, q_in: f64, vdd: f64) -> SourceWaveform {
        let sign = if q_in > 0.5 * vdd { -1.0 } else { 1.0 };
        SourceWaveform::TriangleGlitch {
            v_base: q_in,
            v_peak: q_in + sign * self.height,
            t_start: self.t_peak - 0.5 * self.width,
            t_rise: 0.5 * self.width,
            t_fall: 0.5 * self.width,
        }
    }
}

/// A timing window `[t_min, t_max]` within which an event may occur (s).
///
/// On an aggressor it bounds the switch time (FRAME-style STA arrival
/// window); on a victim it bounds the *sensitivity* interval during which
/// injected noise can matter (e.g. the latching window of a downstream
/// flop). A candidate alignment placing an aggressor edge that cannot
/// overlap the victim's sensitivity window is infeasible and pruned
/// before simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingWindow {
    /// Earliest event time (s).
    pub t_min: f64,
    /// Latest event time (s).
    pub t_max: f64,
}

impl SwitchingWindow {
    /// Construct a window; `t_min` and `t_max` may coincide (a fixed event).
    pub fn new(t_min: f64, t_max: f64) -> Self {
        Self { t_min, t_max }
    }

    /// Whether the window is well-formed (finite, ordered).
    pub fn is_valid(&self) -> bool {
        self.t_min.is_finite() && self.t_max.is_finite() && self.t_min <= self.t_max
    }

    /// Whether an edge starting at `t` with transition duration `slew`
    /// can overlap this window: `[t, t + slew] ∩ [t_min, t_max] ≠ ∅`.
    pub fn overlaps_edge(&self, t: f64, slew: f64) -> bool {
        t <= self.t_max && t + slew >= self.t_min
    }
}

/// One aggressor of a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct AggressorSpec {
    /// Driver cell (e.g. an INV ×4).
    pub cell: Cell,
    /// Whether the aggressor output rises.
    pub rising: bool,
    /// Slew of the ramp at the aggressor driver's input (s).
    pub input_slew: f64,
    /// Cluster time at which the aggressor's input starts moving (s).
    pub switch_time: f64,
    /// Input capacitance of the aggressor's receiver, loading the far end
    /// of its wire (F).
    pub receiver_cap: f64,
    /// Optional switching window constraining when this aggressor may
    /// switch. `None` means unconstrained (always switches at
    /// `switch_time`; the pessimistic assumption).
    pub window: Option<SwitchingWindow>,
    /// Optional mutual-exclusion group id: at most one aggressor of a
    /// group may switch in any feasible alignment (e.g. outputs of the
    /// same one-hot decoder). `None` means no logical constraint.
    pub mexcl_group: Option<u32>,
}

impl AggressorSpec {
    /// Whether this aggressor carries any FRAME constraint (window or
    /// mutual-exclusion membership).
    pub fn is_constrained(&self) -> bool {
        self.window.is_some() || self.mexcl_group.is_some()
    }
}

/// The victim side of a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimSpec {
    /// Victim driver cell (the paper uses a 2-input NAND).
    pub cell: Cell,
    /// Quiescent drive state (which input is noisy, what the output holds).
    pub mode: DriverMode,
    /// Optional propagating glitch at the driver input.
    pub glitch: Option<InputGlitch>,
    /// Receiver cell at the victim's far end (its input capacitance loads
    /// the net; NRC checks use it too).
    pub receiver: Cell,
    /// Optional sensitivity window: the interval during which the victim's
    /// receiver actually samples (latches) the net. Aggressor edges that
    /// cannot overlap it are pruned from the constrained analysis. `None`
    /// means always sensitive.
    pub sensitivity: Option<SwitchingWindow>,
}

/// Full physical description of a noise cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Technology node (victim and aggressors must share it).
    pub tech: Technology,
    /// The victim.
    pub victim: VictimSpec,
    /// The aggressors; `bus` wire `k + 1` belongs to aggressor `k`.
    pub aggressors: Vec<AggressorSpec>,
    /// Wire geometry: wire 0 is the victim net.
    pub bus: CoupledBus,
    /// Characterization controls.
    pub char_opts: CharacterizeOptions,
    /// Simulation horizon (s).
    pub t_stop: f64,
    /// Simulation step (s).
    pub dt: f64,
}

impl ClusterSpec {
    /// Validate the wiring/aggressor correspondence.
    ///
    /// # Errors
    ///
    /// Fails when the bus wire count is not `aggressors + 1` or the window
    /// is empty.
    pub fn validate(&self) -> Result<()> {
        if self.bus.wires.len() != self.aggressors.len() + 1 {
            return Err(Error::InvalidCircuit(format!(
                "bus has {} wires but cluster needs {} (victim + {} aggressors)",
                self.bus.wires.len(),
                self.aggressors.len() + 1,
                self.aggressors.len()
            )));
        }
        if !(self.dt > 0.0 && self.t_stop > self.dt) {
            return Err(Error::InvalidAnalysis(format!(
                "bad cluster window: dt={}, t_stop={}",
                self.dt, self.t_stop
            )));
        }
        for (k, agg) in self.aggressors.iter().enumerate() {
            if let Some(w) = &agg.window {
                if !w.is_valid() {
                    return Err(Error::InvalidAnalysis(format!(
                        "aggressor {k} switching window [{}, {}] is invalid \
                         (need finite t_min <= t_max)",
                        w.t_min, w.t_max
                    )));
                }
            }
        }
        if let Some(w) = &self.victim.sensitivity {
            if !w.is_valid() {
                return Err(Error::InvalidAnalysis(format!(
                    "victim sensitivity window [{}, {}] is invalid \
                     (need finite t_min <= t_max)",
                    w.t_min, w.t_max
                )));
            }
        }
        Ok(())
    }

    /// Whether any aggressor carries a window or mutual-exclusion
    /// constraint (i.e. whether a constrained FRAME analysis would differ
    /// from the pessimistic one).
    pub fn has_frame_constraints(&self) -> bool {
        self.aggressors.iter().any(AggressorSpec::is_constrained)
    }

    /// Total capacitance hanging on the victim net (wire ground + coupling
    /// + receiver + driver output), used as the characterization load.
    pub fn victim_total_cap(&self, c_out_driver: f64) -> f64 {
        let wire = &self.bus.wires[0];
        let mut total = wire.total_cg() + self.victim.receiver.input_capacitance() + c_out_driver;
        for k in 0..self.aggressors.len() {
            total += self.bus.total_coupling(0, k + 1);
        }
        total
    }
}

/// Port roles within the reduced interconnect model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRole {
    /// The victim driving point (`DP_Vic` in Figure 1).
    VictimDp,
    /// Driving point of aggressor `k`.
    AggressorDp(usize),
    /// The victim receiver tap (far end of the victim wire).
    VictimReceiver,
}

/// Modeling switches for [`ClusterMacromodel::build_with`] — the ablation
/// knobs of DESIGN.md §5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacromodelOptions {
    /// Lump the victim driver's characterized output + Miller capacitance
    /// at `DP_Vic` (default). Disabling this is the classic source of
    /// optimistic noise estimates — kept as an ablation.
    pub include_driver_caps: bool,
    /// Block-moment count of the interconnect reduction (PRIMA `q`).
    pub reduction_order: usize,
    /// Expansion point of the reduction (rad/s).
    pub expansion_point: f64,
    /// Linear-solver backend for the reduction's shifted-system solves
    /// (dense, sparse, or dimension-based auto selection). Also forwarded
    /// to every characterization analysis this build runs.
    pub solver: SolverKind,
    /// Read by no analysis; see [`BackendKind`].
    pub backend: BackendKind,
}

impl Default for MacromodelOptions {
    fn default() -> Self {
        Self {
            include_driver_caps: true,
            reduction_order: DEFAULT_Q,
            expansion_point: DEFAULT_S0,
            solver: SolverKind::Auto,
            backend: BackendKind::default(),
        }
    }
}

/// The built noise-cluster macromodel (Figure 1 of the paper).
#[derive(Debug, Clone)]
pub struct ClusterMacromodel {
    /// The originating spec.
    pub spec: ClusterSpec,
    /// Reduced coupled interconnect (receiver caps and victim driver
    /// parasitics absorbed).
    pub reduced: ReducedSystem,
    /// Role of each reduced-system port, in port order.
    pub port_roles: Vec<PortRole>,
    /// The victim driver's Eq. (1) table with parasitics.
    pub load_curve: LoadCurve,
    /// Thevenin model per aggressor, already shifted to its switch time.
    pub thevenins: Vec<TheveninDriver>,
    /// Victim holding resistance (Ω) — for the baselines.
    pub r_hold: f64,
    /// Propagated-noise table — for the superposition baseline.
    pub prop_table: PropagatedNoiseTable,
    /// The victim-input waveform (quiescent or glitching).
    pub vin_wave: SourceWaveform,
    /// Quiescent victim input level (V).
    pub q_in: f64,
    /// Quiescent victim output level (V).
    pub q_out: f64,
    /// Miller feed-through capacitance the engine injects
    /// `c · dV_in/dt` with (zeroed when driver caps are ablated).
    pub c_miller_injection: f64,
}

impl ClusterMacromodel {
    /// Run the full pre-characterization + reduction pipeline with default
    /// modeling options.
    ///
    /// # Errors
    ///
    /// Propagates validation, characterization, and reduction failures.
    pub fn build(spec: &ClusterSpec) -> Result<Self> {
        Self::build_with(spec, &MacromodelOptions::default())
    }

    /// [`ClusterMacromodel::build`] with explicit modeling options (used by
    /// the ablation studies).
    ///
    /// # Errors
    ///
    /// Propagates validation, characterization, and reduction failures.
    pub fn build_with(spec: &ClusterSpec, options: &MacromodelOptions) -> Result<Self> {
        Self::build_impl(spec, options, None)
    }

    /// [`ClusterMacromodel::build`] drawing the per-cell artifacts from a
    /// shared [`NoiseModelLibrary`]: load curves and holding resistances
    /// are reused exactly, propagated-noise tables per ×1.2 load bucket.
    /// This is how a design-level flow amortizes characterization. The
    /// library is taken by `&` — it is internally synchronized, so a
    /// parallel flow can share one instance across worker threads.
    ///
    /// # Errors
    ///
    /// Propagates validation, characterization, and reduction failures.
    pub fn build_with_library(
        spec: &ClusterSpec,
        options: &MacromodelOptions,
        library: &NoiseModelLibrary,
    ) -> Result<Self> {
        Self::build_impl(spec, options, Some(library))
    }

    fn build_impl(
        spec: &ClusterSpec,
        options: &MacromodelOptions,
        library: Option<&NoiseModelLibrary>,
    ) -> Result<Self> {
        spec.validate()?;
        let _t = phase_span(Phase::Characterize);
        let vdd = spec.tech.vdd;
        // The modeling options' solver selection applies to the
        // characterization analyses too, not just the reduction.
        let mut char_opts = spec.char_opts;
        char_opts.newton.solver = options.solver;
        // --- Victim driver characterization (Eq. 1 + parasitics).
        let load_curve = match library {
            Some(lib) => {
                (*lib.load_curve(&spec.victim.cell, &spec.victim.mode, &char_opts)?).clone()
            }
            None => characterize_load_curve(&spec.victim.cell, &spec.victim.mode, &char_opts)?,
        };
        let r_hold = match library {
            Some(lib) => {
                lib.holding_resistance(&spec.victim.cell, &spec.victim.mode, &char_opts)?
            }
            None => holding_resistance(&spec.victim.cell, &spec.victim.mode, &char_opts.newton)?,
        };
        let char_load = spec.victim_total_cap(load_curve.c_out);
        let prop_table = match library {
            Some(lib) => (*lib.propagated_table(
                &spec.victim.cell,
                &spec.victim.mode,
                char_load,
                &char_opts,
            )?)
            .clone(),
            None => {
                let (heights, widths) = prop_table::standard_grid(vdd);
                characterize_propagated_noise_with(
                    &spec.victim.cell,
                    &spec.victim.mode,
                    char_load,
                    &heights,
                    &widths,
                    &char_opts,
                )?
            }
        };
        // Helper: instantiate a bus with every linear load absorbed
        // (receiver input caps, victim driver output + Miller caps).
        let c_dp = if options.include_driver_caps {
            load_curve.c_out + load_curve.c_miller
        } else {
            0.0
        };
        let build_net = |bus: &CoupledBus| -> Result<(Circuit, Vec<sna_interconnect::WireNodes>)> {
            let mut net = Circuit::new();
            let wires = bus.instantiate(&mut net, "net")?;
            net.add_capacitor(
                "Crecv_vic",
                wires[0].far,
                Circuit::gnd(),
                spec.victim.receiver.input_capacitance(),
            )?;
            if c_dp > 0.0 {
                net.add_capacitor("Cdrv_vic", wires[0].near, Circuit::gnd(), c_dp)?;
            }
            for (k, agg) in spec.aggressors.iter().enumerate() {
                if agg.receiver_cap > 0.0 {
                    net.add_capacitor(
                        &format!("Crecv_a{k}"),
                        wires[k + 1].far,
                        Circuit::gnd(),
                        agg.receiver_cap,
                    )?;
                }
            }
            Ok((net, wires))
        };
        let (net, wires) = build_net(&spec.bus)?;
        let driver_ports = |wires: &[sna_interconnect::WireNodes]| -> Vec<_> {
            std::iter::once(wires[0].near)
                .chain((0..spec.aggressors.len()).map(|k| wires[k + 1].near))
                .collect()
        };
        // --- Aggressor Thevenin models, fitted against the Π of each
        // aggressor's real (loaded, shielded) net per Dartu–Pileggi. The Π
        // comes from the driving-point moments with the *driver* ports
        // shorted (drivers are low-impedance); receiver taps stay floating.
        // Couplings to neighbor aggressors switching simultaneously get the
        // standard Miller factor (0 for in-phase — the neighbor bootstraps
        // the cap; 2 for anti-phase) before the Π is extracted.
        const SIMULTANEOUS_WINDOW: f64 = 150.0 * PS;
        let mut thevenins = Vec::with_capacity(spec.aggressors.len());
        for (k, agg) in spec.aggressors.iter().enumerate() {
            let mut bus_k = spec.bus.clone();
            for c in &mut bus_k.couplings {
                let involves_k = c.a == k + 1 || c.b == k + 1;
                if !involves_k {
                    continue;
                }
                let other = if c.a == k + 1 { c.b } else { c.a };
                if other == 0 {
                    continue; // the victim is quiet: full coupling stands
                }
                let neighbor = &spec.aggressors[other - 1];
                if (neighbor.switch_time - agg.switch_time).abs() < SIMULTANEOUS_WINDOW {
                    c.cc_per_m *= if neighbor.rising == agg.rising {
                        0.0
                    } else {
                        2.0
                    };
                }
            }
            let (net_k, wires_k) = build_net(&bus_k)?;
            let ports_k = driver_ports(&wires_k);
            let moments = port_admittance_moments(&net_k, &ports_k, 3)?;
            let p = k + 1; // driver-port index of aggressor k
            let pi =
                PiModel::from_moments(moments[0][(p, p)], moments[1][(p, p)], moments[2][(p, p)])?;
            let load = TheveninLoad::Pi {
                c_near: pi.c_near,
                r: pi.r,
                c_far: pi.c_far,
            };
            // The library caches the *unshifted* fit (keyed by the exact
            // Π bits), so a persistent cache serves repeated runs of the
            // same design; the switch-time shift is a cheap translation.
            let th = {
                let _t = phase_span(Phase::Thevenin);
                match library {
                    Some(lib) => {
                        (*lib.thevenin(&agg.cell, agg.rising, agg.input_slew, &load, &char_opts)?)
                            .clone()
                    }
                    None => characterize_thevenin_with(
                        &agg.cell,
                        agg.rising,
                        agg.input_slew,
                        &load,
                        &char_opts,
                    )?,
                }
            };
            thevenins.push(th.shifted(agg.switch_time));
        }
        // --- Moment-matched reduction with every port retained.
        let mut ports = vec![wires[0].near];
        let mut port_roles = vec![PortRole::VictimDp];
        for k in 0..spec.aggressors.len() {
            ports.push(wires[k + 1].near);
            port_roles.push(PortRole::AggressorDp(k));
        }
        ports.push(wires[0].far);
        port_roles.push(PortRole::VictimReceiver);
        let reduced = {
            let _t = phase_span(Phase::Reduce);
            prima_reduce_with(
                &net,
                &ports,
                options.reduction_order,
                options.expansion_point,
                options.solver,
            )?
        };
        // --- Victim input waveform.
        let q_in = spec.victim.mode.input_levels[spec.victim.mode.noisy_input];
        let q_out = spec.victim.mode.output_level;
        let vin_wave = match &spec.victim.glitch {
            Some(g) => g.waveform(q_in, vdd),
            None => SourceWaveform::Dc(q_in),
        };
        let c_miller_injection = if options.include_driver_caps {
            load_curve.c_miller
        } else {
            0.0
        };
        Ok(ClusterMacromodel {
            spec: spec.clone(),
            reduced,
            port_roles,
            load_curve,
            thevenins,
            r_hold,
            prop_table,
            vin_wave,
            q_in,
            q_out,
            c_miller_injection,
        })
    }

    /// Index of the victim driving-point port.
    pub fn victim_dp_port(&self) -> usize {
        self.port_roles
            .iter()
            .position(|r| *r == PortRole::VictimDp)
            .expect("victim port always present")
    }

    /// Index of the victim receiver port.
    pub fn victim_receiver_port(&self) -> usize {
        self.port_roles
            .iter()
            .position(|r| *r == PortRole::VictimReceiver)
            .expect("receiver port always present")
    }

    /// Index of aggressor `k`'s driving-point port.
    pub fn aggressor_port(&self, k: usize) -> usize {
        self.port_roles
            .iter()
            .position(|r| *r == PortRole::AggressorDp(k))
            .expect("aggressor port exists")
    }

    /// Victim input voltage at time `t`.
    pub fn vin(&self, t: f64) -> f64 {
        self.vin_wave.eval(t)
    }

    /// d(V_in)/dt at time `t` (central finite difference; the waveform is
    /// piecewise linear so any small step is exact away from corners).
    pub fn dvin_dt(&self, t: f64) -> f64 {
        let h = 0.05 * PS;
        (self.vin_wave.eval(t + h) - self.vin_wave.eval(t - h)) / (2.0 * h)
    }

    /// Re-schedule the cluster's events *without* re-characterizing:
    /// aggressor `k`'s switching event moves to `switch_times[k]` and the
    /// input glitch (if any) peaks at `glitch_peak`. Characterization
    /// artifacts (tables, Thevenin fits, reduction) are timing-independent,
    /// so the worst-case alignment search can call this thousands of times
    /// cheaply.
    ///
    /// # Panics
    ///
    /// Panics if `switch_times.len()` differs from the aggressor count.
    pub fn with_timing(&self, switch_times: &[f64], glitch_peak: Option<f64>) -> Self {
        assert_eq!(
            switch_times.len(),
            self.spec.aggressors.len(),
            "one switch time per aggressor"
        );
        let mut out = self.clone();
        for (k, (&t_new, agg)) in switch_times.iter().zip(&self.spec.aggressors).enumerate() {
            out.thevenins[k] = self.thevenins[k].shifted(t_new - agg.switch_time);
            out.spec.aggressors[k].switch_time = t_new;
        }
        if let (Some(t_peak), Some(g)) = (glitch_peak, self.spec.victim.glitch) {
            let new_glitch = InputGlitch { t_peak, ..g };
            out.spec.victim.glitch = Some(new_glitch);
            out.vin_wave = new_glitch.waveform(self.q_in, self.spec.tech.vdd);
        }
        out
    }

    /// A one-line structural description of the Figure-1 topology, used by
    /// examples and asserted in the integration tests.
    pub fn topology_summary(&self) -> String {
        let mut s = format!(
            "cluster[{}]: VCCS(I_DC {}x{}) + Cout {:.2}fF @ DP_Vic; ",
            self.spec.tech.name,
            self.load_curve.table.x_axis().len(),
            self.load_curve.table.y_axis().len(),
            self.load_curve.c_out * 1e15,
        );
        for (k, th) in self.thevenins.iter().enumerate() {
            s.push_str(&format!(
                "agg{k}: Vth({}) + Rth {:.0}ohm; ",
                if th.rising { "rise" } else { "fall" },
                th.rth
            ));
        }
        s.push_str(&format!(
            "reduced interconnect: dim {} / {} ports",
            self.reduced.dim(),
            self.reduced.n_ports()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::table1_spec;
    use sna_spice::units::NS;

    #[test]
    fn spec_validation() {
        let mut spec = table1_spec();
        assert!(spec.validate().is_ok());
        spec.aggressors.clear();
        assert!(spec.validate().is_err());
        let mut spec = table1_spec();
        spec.dt = 0.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn build_produces_figure1_topology() {
        let spec = table1_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        // Figure 1: one VCCS at DP_Vic, Thevenin per aggressor, reduced
        // coupled interconnect, receiver caps absorbed.
        assert_eq!(model.port_roles.len(), 3);
        assert_eq!(model.victim_dp_port(), 0);
        assert_eq!(model.aggressor_port(0), 1);
        assert_eq!(model.victim_receiver_port(), 2);
        assert_eq!(model.thevenins.len(), 1);
        assert!(model.thevenins[0].rising);
        assert!(model.r_hold > 100.0);
        assert!(model.load_curve.c_out > 0.0);
        let summary = model.topology_summary();
        assert!(summary.contains("DP_Vic"));
        assert!(summary.contains("agg0"));
    }

    #[test]
    fn glitch_waveform_direction() {
        let g = InputGlitch {
            height: 0.8,
            width: 400.0 * PS,
            t_peak: 1.0 * NS,
        };
        // Quiescent high input: glitch dips downward.
        let w = g.waveform(1.2, 1.2);
        assert!((w.eval(1.0 * NS) - 0.4).abs() < 1e-9);
        assert!((w.eval(0.0) - 1.2).abs() < 1e-12);
        // Quiescent low input: glitch rises.
        let w = g.waveform(0.0, 1.2);
        assert!((w.eval(1.0 * NS) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn vin_derivative_matches_slope() {
        let spec = table1_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        // During the falling edge of the triangle the slope is
        // -height / (width/2).
        let g = spec.victim.glitch.unwrap();
        let slope = model.dvin_dt(g.t_peak - 0.1 * g.width);
        let want = -g.height / (0.5 * g.width);
        assert!(
            (slope - want).abs() / want.abs() < 1e-6,
            "slope={slope} want={want}"
        );
    }
}
