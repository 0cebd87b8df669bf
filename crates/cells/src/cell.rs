//! Transistor-level library-cell generators.
//!
//! Each [`Cell`] expands into level-1 MOSFETs when instantiated into a
//! [`Circuit`]. The set covers what the paper's evaluation needs — an
//! inverter aggressor driver, the 2-input NAND victim of Tables 1/2 — plus
//! NOR2, BUF and AOI21 for the §3 accuracy sweep across "several noise
//! clusters".

use sna_spice::error::{Error, Result};
use sna_spice::netlist::{Circuit, NodeId};

use crate::tech::Technology;

/// Logic function of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellType {
    /// Inverter.
    Inv,
    /// Two cascaded inverters (non-inverting buffer).
    Buf,
    /// 2-input NAND — the victim driver of the paper's test cases.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// AND-OR-INVERT 21: `out = !((a & b) | c)`.
    Aoi21,
}

impl CellType {
    /// Number of logic inputs.
    pub fn input_count(self) -> usize {
        match self {
            CellType::Inv | CellType::Buf => 1,
            CellType::Nand2 | CellType::Nor2 => 2,
            CellType::Aoi21 => 3,
        }
    }

    /// Short instance-name tag.
    pub fn tag(self) -> &'static str {
        match self {
            CellType::Inv => "inv",
            CellType::Buf => "buf",
            CellType::Nand2 => "nand2",
            CellType::Nor2 => "nor2",
            CellType::Aoi21 => "aoi21",
        }
    }
}

/// A sized library cell in a given technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Logic function.
    pub cell_type: CellType,
    /// Technology node.
    pub tech: Technology,
    /// Drive-strength multiplier (1.0 = unit cell, 4.0 = X4, ...).
    pub strength: f64,
}

/// Node handles returned by [`Cell::instantiate`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellPorts {
    /// Input nodes, in declaration order (`a`, `b`, `c`).
    pub inputs: Vec<NodeId>,
    /// Output node.
    pub output: NodeId,
}

/// Quiescent drive state of a victim driver for noise analysis: which input
/// carries the incoming glitch, what the other inputs are held at, and the
/// resting level of the noisy input.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverMode {
    /// Index of the input that receives the propagating glitch.
    pub noisy_input: usize,
    /// Static level of every input (the noisy input's entry is its
    /// quiescent level).
    pub input_levels: Vec<f64>,
    /// Quiescent output level (V) implied by the inputs.
    pub output_level: f64,
}

impl Cell {
    /// Construct a cell of `cell_type` at the given strength.
    pub fn new(cell_type: CellType, tech: Technology, strength: f64) -> Self {
        assert!(strength > 0.0, "strength must be positive");
        Cell {
            cell_type,
            tech,
            strength,
        }
    }

    /// Inverter shorthand.
    pub fn inv(tech: Technology, strength: f64) -> Self {
        Self::new(CellType::Inv, tech, strength)
    }

    /// NAND2 shorthand (the paper's victim driver).
    pub fn nand2(tech: Technology, strength: f64) -> Self {
        Self::new(CellType::Nand2, tech, strength)
    }

    /// NOR2 shorthand.
    pub fn nor2(tech: Technology, strength: f64) -> Self {
        Self::new(CellType::Nor2, tech, strength)
    }

    /// Number of logic inputs.
    pub fn input_count(&self) -> usize {
        self.cell_type.input_count()
    }

    /// Whether the cell inverts (output moves opposite to a common input
    /// ramp applied to all inputs). Only BUF is non-inverting here.
    pub fn is_inverting(&self) -> bool {
        !matches!(self.cell_type, CellType::Buf)
    }

    /// NMOS width used by this instance (m). Series stacks are widened 1.5×
    /// to partially recover drive, as standard-cell libraries do.
    fn wn(&self) -> f64 {
        let stack_boost = match self.cell_type {
            CellType::Nand2 | CellType::Aoi21 => 1.5,
            _ => 1.0,
        };
        self.tech.wn_unit * self.strength * stack_boost
    }

    /// PMOS width used by this instance (m).
    fn wp(&self) -> f64 {
        let stack_boost = match self.cell_type {
            CellType::Nor2 | CellType::Aoi21 => 1.5,
            _ => 1.0,
        };
        self.tech.wp_unit * self.strength * stack_boost
    }

    /// Approximate input capacitance of one input pin (F): the gate caps of
    /// the transistors that pin drives. Used as the receiver load in noise
    /// clusters.
    pub fn input_capacitance(&self) -> f64 {
        let l = self.tech.l_min;
        let gate = |model: &sna_spice::devices::MosfetModel, w: f64| {
            model.cox * w * l + (model.cgso + model.cgdo) * w
        };
        match self.cell_type {
            CellType::Inv | CellType::Buf | CellType::Nand2 | CellType::Nor2 | CellType::Aoi21 => {
                gate(&self.tech.nmos, self.wn()) + gate(&self.tech.pmos, self.wp())
            }
        }
    }

    /// Expand the cell into MOSFETs.
    ///
    /// `prefix` namespaces instance and internal node names; `vdd` is the
    /// supply node (caller provides the source).
    ///
    /// # Errors
    ///
    /// Fails if `inputs.len()` does not match the cell's input count.
    pub fn instantiate(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        inputs: &[NodeId],
        output: NodeId,
        vdd: NodeId,
    ) -> Result<CellPorts> {
        if inputs.len() != self.input_count() {
            return Err(Error::InvalidCircuit(format!(
                "{} needs {} inputs, got {}",
                self.cell_type.tag(),
                self.input_count(),
                inputs.len()
            )));
        }
        let gnd = Circuit::gnd();
        let l = self.tech.l_min;
        let n = self.tech.nmos;
        let p = self.tech.pmos;
        let (wn, wp) = (self.wn(), self.wp());
        match self.cell_type {
            CellType::Inv => {
                ckt.add_mosfet(
                    &format!("{prefix}.mn"),
                    output,
                    inputs[0],
                    gnd,
                    gnd,
                    n,
                    wn,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mp"),
                    output,
                    inputs[0],
                    vdd,
                    vdd,
                    p,
                    wp,
                    l,
                )?;
            }
            CellType::Buf => {
                let mid = ckt.node(&format!("{prefix}.x"));
                ckt.add_mosfet(&format!("{prefix}.mn1"), mid, inputs[0], gnd, gnd, n, wn, l)?;
                ckt.add_mosfet(&format!("{prefix}.mp1"), mid, inputs[0], vdd, vdd, p, wp, l)?;
                ckt.add_mosfet(&format!("{prefix}.mn2"), output, mid, gnd, gnd, n, wn, l)?;
                ckt.add_mosfet(&format!("{prefix}.mp2"), output, mid, vdd, vdd, p, wp, l)?;
            }
            CellType::Nand2 => {
                // NMOS stack: a on top (next to output), b at the bottom.
                let mid = ckt.node(&format!("{prefix}.mid"));
                ckt.add_mosfet(
                    &format!("{prefix}.mna"),
                    output,
                    inputs[0],
                    mid,
                    gnd,
                    n,
                    wn,
                    l,
                )?;
                ckt.add_mosfet(&format!("{prefix}.mnb"), mid, inputs[1], gnd, gnd, n, wn, l)?;
                ckt.add_mosfet(
                    &format!("{prefix}.mpa"),
                    output,
                    inputs[0],
                    vdd,
                    vdd,
                    p,
                    wp,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mpb"),
                    output,
                    inputs[1],
                    vdd,
                    vdd,
                    p,
                    wp,
                    l,
                )?;
            }
            CellType::Nor2 => {
                // PMOS stack: a on top, b next to output.
                let mid = ckt.node(&format!("{prefix}.mid"));
                ckt.add_mosfet(&format!("{prefix}.mpa"), mid, inputs[0], vdd, vdd, p, wp, l)?;
                ckt.add_mosfet(
                    &format!("{prefix}.mpb"),
                    output,
                    inputs[1],
                    mid,
                    vdd,
                    p,
                    wp,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mna"),
                    output,
                    inputs[0],
                    gnd,
                    gnd,
                    n,
                    wn,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mnb"),
                    output,
                    inputs[1],
                    gnd,
                    gnd,
                    n,
                    wn,
                    l,
                )?;
            }
            CellType::Aoi21 => {
                // out = !((a & b) | c): NMOS (a series b) parallel c;
                // PMOS (a parallel b) series c.
                let nmid = ckt.node(&format!("{prefix}.nmid"));
                let pmid = ckt.node(&format!("{prefix}.pmid"));
                ckt.add_mosfet(
                    &format!("{prefix}.mna"),
                    output,
                    inputs[0],
                    nmid,
                    gnd,
                    n,
                    wn,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mnb"),
                    nmid,
                    inputs[1],
                    gnd,
                    gnd,
                    n,
                    wn,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mnc"),
                    output,
                    inputs[2],
                    gnd,
                    gnd,
                    n,
                    wn,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mpa"),
                    pmid,
                    inputs[0],
                    vdd,
                    vdd,
                    p,
                    wp,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mpb"),
                    pmid,
                    inputs[1],
                    vdd,
                    vdd,
                    p,
                    wp,
                    l,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.mpc"),
                    output,
                    inputs[2],
                    pmid,
                    vdd,
                    p,
                    wp,
                    l,
                )?;
            }
        }
        Ok(CellPorts {
            inputs: inputs.to_vec(),
            output,
        })
    }

    /// Canonical *output-low* holding mode: the inputs that drive the output
    /// to 0 V, with the glitch arriving on input 0 (a downward input glitch
    /// produces an upward propagated glitch on the low output, adding to a
    /// rising-aggressor injected glitch — the paper's Table 1 scenario).
    pub fn holding_low_mode(&self) -> DriverMode {
        let vdd = self.tech.vdd;
        let levels = match self.cell_type {
            CellType::Inv | CellType::Buf => vec![vdd],
            CellType::Nand2 => vec![vdd, vdd],
            // NOR2 low with only the noisy input high: the single NMOS is
            // the weakest (worst-case) holding configuration.
            CellType::Nor2 => vec![vdd, 0.0],
            // AOI21 low via the c-branch... keep a&b active for the stack
            // path: a=b=vdd, c=0 pulls low through the series stack.
            CellType::Aoi21 => vec![vdd, vdd, 0.0],
        };
        DriverMode {
            noisy_input: 0,
            input_levels: levels,
            output_level: 0.0,
        }
    }

    /// Canonical *output-high* holding mode: glitch on input 0, output at
    /// Vdd (an upward input glitch produces a downward propagated glitch).
    pub fn holding_high_mode(&self) -> DriverMode {
        let vdd = self.tech.vdd;
        let levels = match self.cell_type {
            CellType::Inv | CellType::Buf => vec![0.0],
            // NAND2 high with only the noisy input low: single PMOS holds.
            CellType::Nand2 => vec![0.0, vdd],
            CellType::Nor2 => vec![0.0, 0.0],
            CellType::Aoi21 => vec![0.0, 0.0, 0.0],
        };
        DriverMode {
            noisy_input: 0,
            input_levels: levels,
            output_level: vdd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_spice::dc::{dc_operating_point, NewtonOptions};
    use sna_spice::devices::SourceWaveform;

    fn dc_out(cell: &Cell, levels: &[f64]) -> f64 {
        let mut ckt = Circuit::new();
        let vddn = ckt.node("vdd");
        ckt.add_vsource(
            "Vdd",
            vddn,
            Circuit::gnd(),
            SourceWaveform::Dc(cell.tech.vdd),
        );
        let inputs: Vec<NodeId> = (0..cell.input_count())
            .map(|i| ckt.node(&format!("in{i}")))
            .collect();
        for (i, (&node, &v)) in inputs.iter().zip(levels).enumerate() {
            ckt.add_vsource(
                &format!("Vin{i}"),
                node,
                Circuit::gnd(),
                SourceWaveform::Dc(v),
            );
        }
        let out = ckt.node("out");
        cell.instantiate(&mut ckt, "u1", &inputs, out, vddn)
            .unwrap();
        let sol = dc_operating_point(&ckt, &NewtonOptions::default(), None).unwrap();
        sol.voltage(out)
    }

    #[test]
    fn inv_truth_table() {
        let t = Technology::cmos130();
        let c = Cell::inv(t.clone(), 1.0);
        assert!(dc_out(&c, &[0.0]) > t.vdd - 0.05);
        assert!(dc_out(&c, &[t.vdd]) < 0.05);
    }

    #[test]
    fn buf_truth_table() {
        let t = Technology::cmos130();
        let c = Cell::new(CellType::Buf, t.clone(), 1.0);
        assert!(dc_out(&c, &[0.0]) < 0.05);
        assert!(dc_out(&c, &[t.vdd]) > t.vdd - 0.05);
    }

    #[test]
    fn nand2_truth_table() {
        let t = Technology::cmos130();
        let c = Cell::nand2(t.clone(), 1.0);
        let v = t.vdd;
        assert!(dc_out(&c, &[0.0, 0.0]) > v - 0.05);
        assert!(dc_out(&c, &[v, 0.0]) > v - 0.05);
        assert!(dc_out(&c, &[0.0, v]) > v - 0.05);
        assert!(dc_out(&c, &[v, v]) < 0.05);
    }

    #[test]
    fn nor2_truth_table() {
        let t = Technology::cmos130();
        let c = Cell::nor2(t.clone(), 1.0);
        let v = t.vdd;
        assert!(dc_out(&c, &[0.0, 0.0]) > v - 0.05);
        assert!(dc_out(&c, &[v, 0.0]) < 0.05);
        assert!(dc_out(&c, &[0.0, v]) < 0.05);
        assert!(dc_out(&c, &[v, v]) < 0.05);
    }

    #[test]
    fn aoi21_truth_table() {
        let t = Technology::cmos130();
        let c = Cell::new(CellType::Aoi21, t.clone(), 1.0);
        let v = t.vdd;
        // out = !((a&b)|c)
        assert!(dc_out(&c, &[0.0, 0.0, 0.0]) > v - 0.05);
        assert!(dc_out(&c, &[v, v, 0.0]) < 0.05);
        assert!(dc_out(&c, &[0.0, 0.0, v]) < 0.05);
        assert!(dc_out(&c, &[v, 0.0, 0.0]) > v - 0.05);
    }

    #[test]
    fn holding_modes_consistent_with_truth_tables() {
        let t = Technology::cmos130();
        for ct in [
            CellType::Inv,
            CellType::Nand2,
            CellType::Nor2,
            CellType::Aoi21,
        ] {
            let c = Cell::new(ct, t.clone(), 1.0);
            let low = c.holding_low_mode();
            assert_eq!(low.input_levels.len(), c.input_count());
            let out = dc_out(&c, &low.input_levels);
            assert!(out < 0.05, "{:?} holding-low gives out={out}", ct);
            let high = c.holding_high_mode();
            let out = dc_out(&c, &high.input_levels);
            assert!(out > t.vdd - 0.05, "{:?} holding-high gives out={out}", ct);
        }
    }

    #[test]
    fn wrong_input_count_rejected() {
        let t = Technology::cmos130();
        let c = Cell::nand2(t, 1.0);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let vdd = ckt.node("vdd");
        assert!(c.instantiate(&mut ckt, "u", &[a], out, vdd).is_err());
    }

    #[test]
    fn input_capacitance_scales_with_strength() {
        let t = Technology::cmos130();
        let c1 = Cell::inv(t.clone(), 1.0);
        let c4 = Cell::inv(t, 4.0);
        assert!(c1.input_capacitance() > 0.1e-15);
        assert!((c4.input_capacitance() / c1.input_capacitance() - 4.0).abs() < 0.01);
    }

    #[test]
    fn strength_raises_drive() {
        // X4 inverter pulls a mid-rail node harder than X1: check via the
        // output voltage of a contended divider (inverter output low vs a
        // pull-up resistor).
        let t = Technology::cmos130();
        let check = |s: f64| -> f64 {
            let c = Cell::inv(t.clone(), s);
            let mut ckt = Circuit::new();
            let vddn = ckt.node("vdd");
            ckt.add_vsource("Vdd", vddn, Circuit::gnd(), SourceWaveform::Dc(t.vdd));
            let a = ckt.node("a");
            ckt.add_vsource("Va", a, Circuit::gnd(), SourceWaveform::Dc(t.vdd));
            let out = ckt.node("out");
            c.instantiate(&mut ckt, "u", &[a], out, vddn).unwrap();
            ckt.add_resistor("Rup", vddn, out, 10e3).unwrap();
            let sol = dc_operating_point(&ckt, &NewtonOptions::default(), None).unwrap();
            sol.voltage(out)
        };
        let v1 = check(1.0);
        let v4 = check(4.0);
        assert!(v4 < v1, "x4 should hold lower: v1={v1} v4={v4}");
    }
}
