//! Circuit netlist representation.
//!
//! A [`Circuit`] is a flat element list over named nodes. Node `0` is
//! ground (`"0"` / `"gnd"`). Builders return the element index so callers
//! can later retarget source waveforms (e.g. the worst-case alignment
//! search re-shifts aggressor ramps without rebuilding the cluster).

use std::collections::HashMap;

use crate::devices::{DiodeModel, MosfetModel, SourceWaveform, Table2d};
use crate::error::{Error, Result};

/// Handle to a circuit node. `NodeId::GROUND` is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground / reference node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index (0 = ground). Mainly useful for diagnostics.
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the reference node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Handle to an element within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// A circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be non-negative).
        farads: f64,
    },
    /// Independent voltage source; `pos` − `neg` equals the waveform value.
    VSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// EMF as a function of time.
        wave: SourceWaveform,
    },
    /// Independent current source; the waveform value flows from `pos`
    /// through the source to `neg` (SPICE convention: positive value pulls
    /// current out of `pos` and pushes it into `neg`).
    ISource {
        /// Instance name.
        name: String,
        /// Terminal current is drawn from.
        pos: NodeId,
        /// Terminal current is pushed into.
        neg: NodeId,
        /// Current as a function of time.
        wave: SourceWaveform,
    },
    /// Linear voltage-controlled current source:
    /// `i(out_p→out_n) = gm · (V(ctrl_p) − V(ctrl_n))`.
    LinearVccs {
        /// Instance name.
        name: String,
        /// Current exits this node.
        out_p: NodeId,
        /// Current enters this node.
        out_n: NodeId,
        /// Positive controlling node.
        ctrl_p: NodeId,
        /// Negative controlling node.
        ctrl_n: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Table-driven non-linear VCCS — the paper's victim-driver macromodel.
    ///
    /// The current `i = table(V(ctrl), V(out_p) − V(out_n))` flows from
    /// `out_p` to `out_n`. With `out_n = ground` and the table holding the
    /// characterized cell output current (positive = the cell sinking
    /// current from its output node), this is exactly the `I_DC` element of
    /// Figure 1 in the paper.
    TableVccs {
        /// Instance name.
        name: String,
        /// Node the current leaves (the victim driving point).
        out_p: NodeId,
        /// Node the current enters (usually ground).
        out_n: NodeId,
        /// Controlling input node (the victim driver's input).
        ctrl: NodeId,
        /// `I_DC = f(V_ctrl, V_out)` load-curve table.
        table: Table2d,
    },
    /// Linear voltage-controlled voltage source (SPICE `E`):
    /// `V(out_p) − V(out_n) = gain · (V(ctrl_p) − V(ctrl_n))`. Adds one
    /// branch-current unknown.
    Vcvs {
        /// Instance name.
        name: String,
        /// Positive output terminal.
        out_p: NodeId,
        /// Negative output terminal.
        out_n: NodeId,
        /// Positive controlling node.
        ctrl_p: NodeId,
        /// Negative controlling node.
        ctrl_n: NodeId,
        /// Voltage gain (dimensionless).
        gain: f64,
    },
    /// Linear current-controlled current source (SPICE `F`):
    /// `i(out_p→out_n) = gain · i(ctrl)` where `ctrl` names an independent
    /// voltage source whose branch current is the controlling quantity.
    Cccs {
        /// Instance name.
        name: String,
        /// Current exits this node.
        out_p: NodeId,
        /// Current enters this node.
        out_n: NodeId,
        /// Name of the controlling voltage source.
        ctrl: String,
        /// Current gain (dimensionless).
        gain: f64,
    },
    /// Linear current-controlled voltage source (SPICE `H`):
    /// `V(out_p) − V(out_n) = r · i(ctrl)`. Adds one branch-current
    /// unknown; `ctrl` names an independent voltage source.
    Ccvs {
        /// Instance name.
        name: String,
        /// Positive output terminal.
        out_p: NodeId,
        /// Negative output terminal.
        out_n: NodeId,
        /// Name of the controlling voltage source.
        ctrl: String,
        /// Transresistance (ohms).
        r: f64,
    },
    /// Junction diode (anode → cathode), Shockley model with a linearized
    /// overflow-safe high-bias extension.
    Diode {
        /// Instance name.
        name: String,
        /// Anode terminal.
        p: NodeId,
        /// Cathode terminal.
        n: NodeId,
        /// Model card.
        model: DiodeModel,
    },
    /// MOSFET with lumped constant capacitances (see
    /// [`MosfetModel::capacitances`]).
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Bulk terminal.
        b: NodeId,
        /// Model card.
        model: MosfetModel,
        /// Channel width (m).
        w: f64,
        /// Channel length (m).
        l: f64,
    },
}

impl Element {
    /// Instance name of this element.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VSource { name, .. }
            | Element::ISource { name, .. }
            | Element::LinearVccs { name, .. }
            | Element::TableVccs { name, .. }
            | Element::Vcvs { name, .. }
            | Element::Cccs { name, .. }
            | Element::Ccvs { name, .. }
            | Element::Diode { name, .. }
            | Element::Mosfet { name, .. } => name,
        }
    }

    /// Whether this element contributes non-linear residuals (needs Newton).
    pub fn is_nonlinear(&self) -> bool {
        matches!(
            self,
            Element::TableVccs { .. } | Element::Mosfet { .. } | Element::Diode { .. }
        )
    }

    /// Whether this element carries its own branch-current unknown in the
    /// MNA system (voltage-defined elements).
    pub fn has_branch_current(&self) -> bool {
        matches!(
            self,
            Element::VSource { .. } | Element::Vcvs { .. } | Element::Ccvs { .. }
        )
    }
}

/// A flat netlist over named nodes.
///
/// # Examples
///
/// ```
/// use sna_spice::netlist::Circuit;
/// use sna_spice::devices::SourceWaveform;
///
/// let mut ckt = Circuit::new();
/// let inp = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add_vsource("Vin", inp, Circuit::gnd(), SourceWaveform::Dc(1.0));
/// ckt.add_resistor("R1", inp, out, 1e3).unwrap();
/// ckt.add_capacitor("C1", out, Circuit::gnd(), 1e-12).unwrap();
/// assert_eq!(ckt.node_count(), 3); // including ground
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, usize>,
    elements: Vec<Element>,
}

impl Circuit {
    /// Create an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["0".to_string()],
            node_index: HashMap::new(),
            elements: Vec::new(),
        };
        c.node_index.insert("0".into(), 0);
        c.node_index.insert("gnd".into(), 0);
        c
    }

    /// The ground node.
    pub fn gnd() -> NodeId {
        NodeId::GROUND
    }

    /// Get or create a node by name. `"0"` and `"gnd"` (any case) map to
    /// ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if let Some(&idx) = self.node_index.get(&key) {
            return NodeId(idx);
        }
        let idx = self.node_names.len();
        self.node_names.push(name.to_string());
        self.node_index.insert(key, idx);
        NodeId(idx)
    }

    /// Look up an existing node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index
            .get(&name.to_ascii_lowercase())
            .map(|&i| NodeId(i))
    }

    /// Name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Total node count, including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All elements, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Element by id.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0]
    }

    /// Mutable element access (e.g. to retune a source waveform in place).
    pub fn element_mut(&mut self, id: ElementId) -> &mut Element {
        &mut self.elements[id.0]
    }

    /// Find an element id by instance name.
    pub fn find_element(&self, name: &str) -> Option<ElementId> {
        self.elements
            .iter()
            .position(|e| e.name().eq_ignore_ascii_case(name))
            .map(ElementId)
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Whether any element requires Newton iteration.
    pub fn is_nonlinear(&self) -> bool {
        self.elements.iter().any(Element::is_nonlinear)
    }

    fn push(&mut self, e: Element) -> ElementId {
        self.elements.push(e);
        ElementId(self.elements.len() - 1)
    }

    /// Add a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite resistance.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<ElementId> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(Error::InvalidCircuit(format!(
                "resistor {name}: resistance must be positive and finite, got {ohms}"
            )));
        }
        Ok(self.push(Element::Resistor {
            name: name.into(),
            a,
            b,
            ohms,
        }))
    }

    /// Add a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite capacitance.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<ElementId> {
        if !(farads.is_finite() && farads >= 0.0) {
            return Err(Error::InvalidCircuit(format!(
                "capacitor {name}: capacitance must be non-negative, got {farads}"
            )));
        }
        Ok(self.push(Element::Capacitor {
            name: name.into(),
            a,
            b,
            farads,
        }))
    }

    /// Add an independent voltage source.
    pub fn add_vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: SourceWaveform,
    ) -> ElementId {
        self.push(Element::VSource {
            name: name.into(),
            pos,
            neg,
            wave,
        })
    }

    /// Add an independent current source.
    pub fn add_isource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: SourceWaveform,
    ) -> ElementId {
        self.push(Element::ISource {
            name: name.into(),
            pos,
            neg,
            wave,
        })
    }

    /// Add a linear VCCS.
    pub fn add_linear_vccs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_n: NodeId,
        ctrl_p: NodeId,
        ctrl_n: NodeId,
        gm: f64,
    ) -> ElementId {
        self.push(Element::LinearVccs {
            name: name.into(),
            out_p,
            out_n,
            ctrl_p,
            ctrl_n,
            gm,
        })
    }

    /// Add a table-driven VCCS (the victim-driver macromodel element).
    pub fn add_table_vccs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_n: NodeId,
        ctrl: NodeId,
        table: Table2d,
    ) -> ElementId {
        self.push(Element::TableVccs {
            name: name.into(),
            out_p,
            out_n,
            ctrl,
            table,
        })
    }

    /// Add a linear VCVS (SPICE `E` element).
    ///
    /// # Errors
    ///
    /// Rejects a non-finite gain.
    pub fn add_vcvs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_n: NodeId,
        ctrl_p: NodeId,
        ctrl_n: NodeId,
        gain: f64,
    ) -> Result<ElementId> {
        if !gain.is_finite() {
            return Err(Error::InvalidCircuit(format!(
                "vcvs {name}: gain must be finite, got {gain}"
            )));
        }
        Ok(self.push(Element::Vcvs {
            name: name.into(),
            out_p,
            out_n,
            ctrl_p,
            ctrl_n,
            gain,
        }))
    }

    /// Add a linear CCCS (SPICE `F` element). `ctrl` names the independent
    /// voltage source whose branch current controls the output; it is
    /// resolved when the MNA system is assembled, so forward references are
    /// fine.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite gain.
    pub fn add_cccs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_n: NodeId,
        ctrl: &str,
        gain: f64,
    ) -> Result<ElementId> {
        if !gain.is_finite() {
            return Err(Error::InvalidCircuit(format!(
                "cccs {name}: gain must be finite, got {gain}"
            )));
        }
        Ok(self.push(Element::Cccs {
            name: name.into(),
            out_p,
            out_n,
            ctrl: ctrl.into(),
            gain,
        }))
    }

    /// Add a linear CCVS (SPICE `H` element). `ctrl` as in
    /// [`Circuit::add_cccs`].
    ///
    /// # Errors
    ///
    /// Rejects a non-finite transresistance.
    pub fn add_ccvs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_n: NodeId,
        ctrl: &str,
        r: f64,
    ) -> Result<ElementId> {
        if !r.is_finite() {
            return Err(Error::InvalidCircuit(format!(
                "ccvs {name}: transresistance must be finite, got {r}"
            )));
        }
        Ok(self.push(Element::Ccvs {
            name: name.into(),
            out_p,
            out_n,
            ctrl: ctrl.into(),
            r,
        }))
    }

    /// Add a junction diode *and* its constant junction capacitance.
    ///
    /// As with [`Circuit::add_mosfet`]'s device caps, the zero-bias junction
    /// capacitance is stamped as an explicit capacitor `<name>.cj` across
    /// the junction (always added, even at 0 F, so topology is independent
    /// of the model values).
    ///
    /// # Errors
    ///
    /// Rejects a non-positive saturation current or emission coefficient,
    /// or a negative junction capacitance.
    pub fn add_diode(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        model: DiodeModel,
    ) -> Result<ElementId> {
        if !(model.is.is_finite() && model.is > 0.0) {
            return Err(Error::InvalidCircuit(format!(
                "diode {name}: saturation current must be positive, got {}",
                model.is
            )));
        }
        if !(model.n.is_finite() && model.n > 0.0) {
            return Err(Error::InvalidCircuit(format!(
                "diode {name}: emission coefficient must be positive, got {}",
                model.n
            )));
        }
        if !(model.cj0.is_finite() && model.cj0 >= 0.0) {
            return Err(Error::InvalidCircuit(format!(
                "diode {name}: junction capacitance must be non-negative, got {}",
                model.cj0
            )));
        }
        let id = self.push(Element::Diode {
            name: name.into(),
            p,
            n,
            model,
        });
        self.add_capacitor(&format!("{name}.cj"), p, n, model.cj0)?;
        Ok(id)
    }

    /// Add a MOSFET *and* its lumped device capacitances.
    ///
    /// The five constant caps from [`MosfetModel::capacitances`] are stamped
    /// as explicit capacitor elements named `<name>.cgs` etc., so the golden
    /// transistor-level simulation sees realistic Miller coupling and
    /// junction loading.
    ///
    /// # Errors
    ///
    /// Rejects non-positive geometry.
    #[allow(clippy::too_many_arguments)] // mirrors the SPICE M-card: d g s b model w l
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: MosfetModel,
        w: f64,
        l: f64,
    ) -> Result<ElementId> {
        if !(w.is_finite() && w > 0.0 && l.is_finite() && l > 0.0) {
            return Err(Error::InvalidCircuit(format!(
                "mosfet {name}: W and L must be positive, got w={w} l={l}"
            )));
        }
        let id = self.push(Element::Mosfet {
            name: name.into(),
            d,
            g,
            s,
            b,
            model,
            w,
            l,
        });
        let (cgs, cgd, cgb, cdb, csb) = model.capacitances(w, l);
        self.add_capacitor(&format!("{name}.cgs"), g, s, cgs)?;
        self.add_capacitor(&format!("{name}.cgd"), g, d, cgd)?;
        self.add_capacitor(&format!("{name}.cgb"), g, b, cgb)?;
        self.add_capacitor(&format!("{name}.cdb"), d, b, cdb)?;
        self.add_capacitor(&format!("{name}.csb"), s, b, csb)?;
        Ok(id)
    }

    /// Replace the waveform of the named V- or I-source.
    ///
    /// # Errors
    ///
    /// Fails if the element does not exist or is not a source.
    pub fn set_source_wave(&mut self, name: &str, wave: SourceWaveform) -> Result<()> {
        let id = self
            .find_element(name)
            .ok_or_else(|| Error::InvalidCircuit(format!("no element named {name}")))?;
        match &mut self.elements[id.0] {
            Element::VSource { wave: w, .. } | Element::ISource { wave: w, .. } => {
                *w = wave;
                Ok(())
            }
            _ => Err(Error::InvalidCircuit(format!("{name} is not a source"))),
        }
    }

    /// Structural validation: every circuit must have at least one element,
    /// and every non-ground node must have a DC path that MNA can solve
    /// (approximated here as: every node referenced by at least one element;
    /// the matrix itself reports true singularities).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidCircuit`] on an empty netlist or a node left
    /// completely unconnected.
    pub fn validate(&self) -> Result<()> {
        if self.elements.is_empty() {
            return Err(Error::InvalidCircuit("no elements".into()));
        }
        let mut touched = vec![false; self.node_count()];
        touched[0] = true;
        let mark = |n: NodeId, t: &mut Vec<bool>| t[n.0] = true;
        for e in &self.elements {
            match e {
                Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                    mark(*a, &mut touched);
                    mark(*b, &mut touched);
                }
                Element::VSource { pos, neg, .. } | Element::ISource { pos, neg, .. } => {
                    mark(*pos, &mut touched);
                    mark(*neg, &mut touched);
                }
                Element::LinearVccs {
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    ..
                } => {
                    mark(*out_p, &mut touched);
                    mark(*out_n, &mut touched);
                    mark(*ctrl_p, &mut touched);
                    mark(*ctrl_n, &mut touched);
                }
                Element::TableVccs {
                    out_p, out_n, ctrl, ..
                } => {
                    mark(*out_p, &mut touched);
                    mark(*out_n, &mut touched);
                    mark(*ctrl, &mut touched);
                }
                Element::Vcvs {
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    ..
                } => {
                    mark(*out_p, &mut touched);
                    mark(*out_n, &mut touched);
                    mark(*ctrl_p, &mut touched);
                    mark(*ctrl_n, &mut touched);
                }
                Element::Cccs { out_p, out_n, .. } | Element::Ccvs { out_p, out_n, .. } => {
                    mark(*out_p, &mut touched);
                    mark(*out_n, &mut touched);
                }
                Element::Diode { p, n, .. } => {
                    mark(*p, &mut touched);
                    mark(*n, &mut touched);
                }
                Element::Mosfet { d, g, s, b, .. } => {
                    mark(*d, &mut touched);
                    mark(*g, &mut touched);
                    mark(*s, &mut touched);
                    mark(*b, &mut touched);
                }
            }
        }
        if let Some(idx) = touched.iter().position(|&t| !t) {
            return Err(Error::InvalidCircuit(format!(
                "node '{}' is not connected to any element",
                self.node_names[idx]
            )));
        }
        Ok(())
    }
}

/// Circuits compare by observable content: node names (in interning order)
/// and elements. The derived name→index map is a cache and is excluded —
/// this equality is what the parse/write round-trip property tests use.
impl PartialEq for Circuit {
    fn eq(&self, other: &Self) -> bool {
        self.node_names == other.node_names && self.elements == other.elements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), NodeId::GROUND);
        assert_eq!(c.node("gnd"), NodeId::GROUND);
        assert_eq!(c.node("GND"), NodeId::GROUND);
        assert!(NodeId::GROUND.is_ground());
    }

    #[test]
    fn node_interning() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("A");
        assert_eq!(a, a2);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("zz"), None);
    }

    #[test]
    fn builders_validate_values() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.add_resistor("R1", a, Circuit::gnd(), -5.0).is_err());
        assert!(c.add_resistor("R1", a, Circuit::gnd(), 0.0).is_err());
        assert!(c.add_capacitor("C1", a, Circuit::gnd(), -1e-15).is_err());
        assert!(c.add_capacitor("C1", a, Circuit::gnd(), 0.0).is_ok());
    }

    #[test]
    fn mosfet_adds_caps() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let model = MosfetModel {
            polarity: crate::devices::MosPolarity::Nmos,
            vt0: 0.3,
            kp: 2e-4,
            lambda: 0.1,
            gamma: 0.3,
            phi: 0.7,
            cox: 0.01,
            cgso: 3e-10,
            cgdo: 3e-10,
            cj: 8e-10,
        };
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
            model,
            1e-6,
            0.13e-6,
        )
        .unwrap();
        // 1 mosfet + 5 caps
        assert_eq!(c.element_count(), 6);
        assert!(c.find_element("M1.cgd").is_some());
        assert!(c.is_nonlinear());
    }

    #[test]
    fn validate_catches_empty_and_dangling() {
        let c = Circuit::new();
        assert!(c.validate().is_err());
        let mut c = Circuit::new();
        let a = c.node("a");
        let _dangling = c.node("b");
        c.add_resistor("R", a, Circuit::gnd(), 1.0).unwrap();
        assert!(c.validate().is_err());
    }

    #[test]
    fn set_source_wave() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::gnd(), SourceWaveform::Dc(1.0));
        c.add_resistor("R1", a, Circuit::gnd(), 1.0).unwrap();
        c.set_source_wave("v1", SourceWaveform::Dc(2.0)).unwrap();
        match c.element(c.find_element("V1").unwrap()) {
            Element::VSource { wave, .. } => assert_eq!(wave.eval(0.0), 2.0),
            _ => panic!(),
        }
        assert!(c.set_source_wave("R1", SourceWaveform::Dc(0.0)).is_err());
        assert!(c.set_source_wave("nope", SourceWaveform::Dc(0.0)).is_err());
    }

    #[test]
    fn find_element_case_insensitive() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("Rload", a, Circuit::gnd(), 50.0).unwrap();
        assert!(c.find_element("rload").is_some());
        assert_eq!(c.element_count(), 1);
    }
}
