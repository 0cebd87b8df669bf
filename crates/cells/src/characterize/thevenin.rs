//! Thevenin-equivalent aggressor-driver characterization.
//!
//! Aggressor drivers in the cluster macromodel are linear Thevenin
//! equivalents — a saturated-ramp EMF `V_TH` behind a driving resistance
//! `R_TH` — "obtained as in \[7\]" (Dartu & Pileggi, DAC'97). Two points of
//! that reference matter for accuracy:
//!
//! * the fit must be performed against the driver's **actual load** — for
//!   a resistively-shielded net that is a Π model of the driving-point
//!   admittance, not the total lumped capacitance ([`TheveninLoad::Pi`]);
//!   a lumped fit underestimates the early edge rate at the driving point
//!   and with it the injected noise peak by ~10 %;
//! * the parameters are chosen to reproduce the **waveform**, not just two
//!   scalar delays: after seeding `R_TH` from a two-load delay fit, ramp
//!   time and resistance are refined by coordinate descent on the L2
//!   waveform error of the replayed Thevenin response.
//!
//! The fit reads each of its transients only up to a known sample, so each
//! run stops right after it ([`transient_with`]'s early-stop predicate):
//! the reference run once its 20/50/80 % crossings are seen and
//! `t > t50 + 3·slew + dt`, the two lumped-load delay runs at their 50 %
//! crossing, each replay once `t > t50 + 3·slew + dt`. The stop rules use
//! the same first-crossing test as the measurements, and integration is
//! causal, so every sample the fit reads — and with it the fitted driver —
//! is bit-identical to a full-horizon run. The horizons stay as upper
//! bounds: a run that never crosses fails as it always did.

use serde::{Deserialize, Serialize};
use sna_spice::dc::NewtonOptions;
use sna_spice::devices::SourceWaveform;
use sna_spice::error::{Error, Result};
use sna_spice::netlist::{Circuit, NodeId};
use sna_spice::tran::{transient_with, NodeVoltages, TranParams, TranWorkspace};
use sna_spice::waveform::Waveform;

use crate::cell::Cell;
use crate::characterize::CharacterizeOptions;

/// Load presented to the driver during characterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TheveninLoad {
    /// Single capacitor to ground (F).
    Lumped(f64),
    /// O'Brien–Savarino Π: near cap, series resistance, far cap — the
    /// reduced driving-point admittance of the real net.
    Pi {
        /// Capacitance at the driving point (F).
        c_near: f64,
        /// Series resistance (Ω).
        r: f64,
        /// Capacitance behind the resistance (F).
        c_far: f64,
    },
}

impl TheveninLoad {
    /// Total (low-frequency) capacitance of the load.
    pub fn total_cap(&self) -> f64 {
        match self {
            TheveninLoad::Lumped(c) => *c,
            TheveninLoad::Pi { c_near, c_far, .. } => c_near + c_far,
        }
    }

    /// Attach the load to `node` inside `ckt`.
    fn attach(&self, ckt: &mut Circuit, node: NodeId) -> Result<()> {
        match self {
            TheveninLoad::Lumped(c) => {
                ckt.add_capacitor("Cload", node, Circuit::gnd(), *c)?;
            }
            TheveninLoad::Pi { c_near, r, c_far } => {
                if *c_near > 0.0 {
                    ckt.add_capacitor("Cload1", node, Circuit::gnd(), *c_near)?;
                }
                if *r > 0.0 && *c_far > 0.0 {
                    let far = ckt.node("loadfar");
                    ckt.add_resistor("Rload", node, far, *r)?;
                    ckt.add_capacitor("Cload2", far, Circuit::gnd(), *c_far)?;
                } else if *c_far > 0.0 {
                    ckt.add_capacitor("Cload2", node, Circuit::gnd(), *c_far)?;
                }
            }
        }
        Ok(())
    }
}

/// Linear Thevenin model of a switching aggressor driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TheveninDriver {
    /// Driving resistance (Ω).
    pub rth: f64,
    /// Saturated-ramp EMF.
    pub wave: SourceWaveform,
    /// Whether the output transition is rising.
    pub rising: bool,
    /// Supply voltage (V).
    pub vdd: f64,
}

impl TheveninDriver {
    /// Shift the switching event in time (worst-case alignment search).
    pub fn shifted(&self, delta: f64) -> TheveninDriver {
        TheveninDriver {
            rth: self.rth,
            wave: self.wave.shifted(delta),
            rising: self.rising,
            vdd: self.vdd,
        }
    }

    /// Time of the 50 % point of the EMF ramp.
    pub fn t50(&self) -> f64 {
        match &self.wave {
            SourceWaveform::Ramp {
                t_start, t_rise, ..
            } => t_start + 0.5 * t_rise,
            other => other.last_event_time() * 0.5,
        }
    }
}

/// First crossing of `level` in the transition direction, found one sample
/// at a time. It is the one test behind [`crossing_time`] and the fit's
/// stop rules, so a stopped run and the full waveform agree on every
/// crossing the stopped run contains.
struct FirstCrossing {
    level: f64,
    rising: bool,
    prev: Option<(f64, f64)>,
    at: Option<f64>,
}

impl FirstCrossing {
    fn new(level: f64, rising: bool) -> Self {
        Self {
            level,
            rising,
            prev: None,
            at: None,
        }
    }

    /// Feed the next sample; returns the crossing time, linearly
    /// interpolated, once it has been seen.
    fn push(&mut self, t: f64, v: f64) -> Option<f64> {
        if self.at.is_none() {
            if let Some((t0, a)) = self.prev {
                let level = self.level;
                let hit = if self.rising {
                    a < level && v >= level
                } else {
                    a > level && v <= level
                };
                if hit {
                    let f = (level - a) / (v - a);
                    self.at = Some(t0 + f * (t - t0));
                }
            }
            self.prev = Some((t, v));
        }
        self.at
    }
}

/// Crossing time of `w` through `level` (first crossing in the transition
/// direction), linearly interpolated.
fn crossing_time(w: &Waveform, level: f64, rising: bool) -> Option<f64> {
    let mut c = FirstCrossing::new(level, rising);
    w.times()
        .iter()
        .zip(w.values())
        .find_map(|(&t, &v)| c.push(t, v))
}

/// Input-ramp onset used inside characterization runs; fitted EMF times are
/// reported relative to this instant.
const T_INPUT_ONSET: f64 = 200e-12;

/// Time step of every fit transient (s).
const FIT_DT: f64 = 1e-12;

/// Run a fit transient on a fresh workspace and return the waveform of
/// `node`, ending early once `stop` (given `t` and that node's voltage)
/// returns `true`.
fn simulate_node(
    ckt: &Circuit,
    node: NodeId,
    horizon: f64,
    newton: &NewtonOptions,
    stop: &mut dyn FnMut(f64, f64) -> bool,
) -> Result<Waveform> {
    let mut params = TranParams::new(horizon, FIT_DT);
    params.newton = *newton;
    let mut ws = TranWorkspace::new(ckt, newton.solver)?;
    let mut stop_at_node = |t: f64, v: NodeVoltages<'_>| stop(t, v.get(node));
    let res = transient_with(ckt, &params, &mut ws, &[], Some(&mut stop_at_node))?;
    Ok(res.node_waveform(node))
}

/// Simulate the transistor driver into `load`, returning the driving-point
/// waveform up to where `stop` (given `t` and the output voltage) ends it.
fn simulate_driver(
    cell: &Cell,
    rising: bool,
    input_slew: f64,
    load: &TheveninLoad,
    newton: &NewtonOptions,
    stop: &mut dyn FnMut(f64, f64) -> bool,
) -> Result<Waveform> {
    let vdd_v = cell.tech.vdd;
    // For an inverting cell the input falls to make the output rise.
    let input_rising = rising ^ cell.is_inverting();
    let (v0, v1) = if input_rising {
        (0.0, vdd_v)
    } else {
        (vdd_v, 0.0)
    };
    let t_start = T_INPUT_ONSET;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource("Vdd", vdd, Circuit::gnd(), SourceWaveform::Dc(vdd_v));
    let inp = ckt.node("in");
    ckt.add_vsource(
        "Vin",
        inp,
        Circuit::gnd(),
        SourceWaveform::Ramp {
            v0,
            v1,
            t_start,
            t_rise: input_slew,
        },
    );
    let out = ckt.node("out");
    // All inputs switch together (the worst-case aggressor event).
    let inputs = vec![inp; cell.input_count()];
    cell.instantiate(&mut ckt, "drv", &inputs, out, vdd)?;
    load.attach(&mut ckt, out)?;
    let horizon = t_start + input_slew + 4e-9;
    simulate_node(&ckt, out, horizon, newton, stop)
}

/// Characterize a Thevenin driver for `cell` making a `rising`/falling
/// output transition with the given input slew, fitted against `load`
/// (pass the Π of the real net for shielded interconnect).
///
/// The returned EMF's time axis is **relative to the aggressor's input-ramp
/// onset** (`t = 0` = the instant the input starts moving); shift it by the
/// cluster's switching time with [`TheveninDriver::shifted`].
///
/// # Errors
///
/// Fails if the simulated output never completes its transition (load too
/// large for the horizon) or on simulator errors.
pub fn characterize_thevenin(
    cell: &Cell,
    rising: bool,
    input_slew: f64,
    load: &TheveninLoad,
) -> Result<TheveninDriver> {
    characterize_thevenin_with(
        cell,
        rising,
        input_slew,
        load,
        &CharacterizeOptions::default(),
    )
}

/// [`characterize_thevenin`] with explicit solver controls
/// (`opts.newton.solver` picks the linear solver for every fit transient).
///
/// # Errors
///
/// As [`characterize_thevenin`].
pub fn characterize_thevenin_with(
    cell: &Cell,
    rising: bool,
    input_slew: f64,
    load: &TheveninLoad,
    opts: &CharacterizeOptions,
) -> Result<TheveninDriver> {
    fit_thevenin(cell, rising, input_slew, load, opts, true)
}

/// The fit behind [`characterize_thevenin_with`]. With `early_stop` false
/// every transient runs to its full horizon: the oracle the stop rules are
/// checked against.
fn fit_thevenin(
    cell: &Cell,
    rising: bool,
    input_slew: f64,
    load: &TheveninLoad,
    opts: &CharacterizeOptions,
    early_stop: bool,
) -> Result<TheveninDriver> {
    let newton = &opts.newton;
    let vdd = cell.tech.vdd;
    let half = 0.5 * vdd;
    let (lo_lvl, hi_lvl) = (0.2 * vdd, 0.8 * vdd);
    // The 20-80 % slew runs from the first to the second of these levels.
    let (first_lvl, second_lvl) = if rising {
        (lo_lvl, hi_lvl)
    } else {
        (hi_lvl, lo_lvl)
    };
    // Reference: the driver's DP waveform on the real (Π) load. The fit
    // reads it up to t50 + 3·slew (the L2 window below).
    let mut ref_crossings = [half, first_lvl, second_lvl].map(|l| FirstCrossing::new(l, rising));
    let w_ref = simulate_driver(cell, rising, input_slew, load, newton, &mut |t, v| {
        let [t50, ta, tb] = ref_crossings.each_mut().map(|c| c.push(t, v));
        early_stop
            && matches!((t50, ta, tb), (Some(t50), Some(ta), Some(tb))
                if t > t50 + 3.0 * (tb - ta) + FIT_DT)
    })?;
    let t50_ref = crossing_time(&w_ref, half, rising)
        .ok_or_else(|| Error::InvalidAnalysis("driver output never crossed 50%".into()))?;
    let (ta, tb) = (
        crossing_time(&w_ref, first_lvl, rising),
        crossing_time(&w_ref, second_lvl, rising),
    );
    let slew_2080 = match (ta, tb) {
        (Some(a), Some(b)) if b > a => b - a,
        _ => {
            return Err(Error::InvalidAnalysis(
                "driver output slew not measurable".into(),
            ))
        }
    };
    // R_TH seed from a classic two-lumped-load delay fit.
    let c1 = load.total_cap().max(1e-15);
    let c2 = 2.0 * c1 + 5e-15;
    // The delay runs are read only up to their 50 % crossing.
    let delay_run = |c: f64| {
        let mut c50 = FirstCrossing::new(half, rising);
        simulate_driver(
            cell,
            rising,
            input_slew,
            &TheveninLoad::Lumped(c),
            newton,
            &mut |t, v| early_stop && c50.push(t, v).is_some(),
        )
    };
    let w_l1 = delay_run(c1)?;
    let w_l2 = delay_run(c2)?;
    let t50_l1 = crossing_time(&w_l1, half, rising)
        .ok_or_else(|| Error::InvalidAnalysis("driver output never crossed 50%".into()))?;
    let t50_l2 = crossing_time(&w_l2, half, rising).ok_or_else(|| {
        Error::InvalidAnalysis("driver output never crossed 50% (heavy load)".into())
    })?;
    let rth_seed = ((t50_l2 - t50_l1) / ((c2 - c1) * std::f64::consts::LN_2)).max(1.0);
    let t_rise_seed = (slew_2080 / 0.6).max(2e-12);
    let (v0, v1) = if rising { (0.0, vdd) } else { (vdd, 0.0) };
    // Replay a (rth, t_rise) candidate on the SAME load. The replay circuit
    // is LTI, so one simulation suffices: the response to a shifted ramp is
    // the shifted response, and 50 %-crossing alignment is arithmetic.
    const T_REPLAY_ONSET: f64 = 100e-12;
    let replay = |rth: f64, t_rise: f64| -> Result<(f64, f64)> {
        let mut ckt = Circuit::new();
        let e = ckt.node("emf");
        let o = ckt.node("out");
        ckt.add_vsource(
            "Vth",
            e,
            Circuit::gnd(),
            SourceWaveform::Ramp {
                v0,
                v1,
                t_start: T_REPLAY_ONSET,
                t_rise,
            },
        );
        ckt.add_resistor("Rth", e, o, rth)?;
        load.attach(&mut ckt, o)?;
        let horizon = T_REPLAY_ONSET + t_rise + 12.0 * rth * load.total_cap() + 2e-9;
        // Scored below up to t50_fit + 3·slew.
        let mut c50 = FirstCrossing::new(half, rising);
        let wfit = simulate_node(&ckt, o, horizon, newton, &mut |t, v| {
            early_stop
                && c50
                    .push(t, v)
                    .is_some_and(|t50| t > t50 + 3.0 * slew_2080 + FIT_DT)
        })?;
        let t50_fit = crossing_time(&wfit, half, rising)
            .ok_or_else(|| Error::InvalidAnalysis("thevenin fit never crossed 50%".into()))?;
        // Shift the replayed response so its 50% crossing lands on the
        // reference's, then score the L2 error over the transition window.
        let shift = t50_ref - t50_fit;
        let lo_t = t50_ref - 2.0 * slew_2080;
        let hi_t = t50_ref + 3.0 * slew_2080;
        let n = 160;
        let mut acc = 0.0;
        for i in 0..n {
            let t = lo_t + (hi_t - lo_t) * i as f64 / (n - 1) as f64;
            let d = wfit.value_at(t - shift) - w_ref.value_at(t);
            acc += d * d;
        }
        let err = (acc / n as f64).sqrt();
        Ok((err, T_REPLAY_ONSET + shift))
    };
    // Coordinate descent: t_rise, then rth, then t_rise again.
    let golden_min =
        |f: &mut dyn FnMut(f64) -> Result<f64>, mut a: f64, mut b: f64| -> Result<f64> {
            let phi = 0.618_033_988_749_895;
            let mut x1 = b - phi * (b - a);
            let mut x2 = a + phi * (b - a);
            let mut f1 = f(x1)?;
            let mut f2 = f(x2)?;
            for _ in 0..10 {
                if f1 < f2 {
                    b = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = b - phi * (b - a);
                    f1 = f(x1)?;
                } else {
                    a = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = a + phi * (b - a);
                    f2 = f(x2)?;
                }
            }
            Ok(if f1 < f2 { x1 } else { x2 })
        };
    let mut rth = rth_seed;
    let mut t_rise = golden_min(
        &mut |x| replay(rth, x).map(|r| r.0),
        0.25 * t_rise_seed,
        2.0 * t_rise_seed,
    )?;
    rth = golden_min(
        &mut |x| replay(x, t_rise).map(|r| r.0),
        0.35 * rth_seed,
        2.0 * rth_seed,
    )?;
    t_rise = golden_min(
        &mut |x| replay(rth, x).map(|r| r.0),
        0.25 * t_rise_seed,
        2.0 * t_rise_seed,
    )?;
    let (_, fit_t_start) = replay(rth, t_rise)?;
    Ok(TheveninDriver {
        rth,
        wave: SourceWaveform::Ramp {
            v0,
            v1,
            // Report times relative to the input-ramp onset so cluster
            // builders can schedule the switching event freely.
            t_start: fit_t_start - T_INPUT_ONSET,
            t_rise,
        },
        rising,
        vdd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellType};
    use crate::tech::Technology;
    use sna_spice::tran::transient;
    use sna_spice::units::{FF, PS};

    #[test]
    fn thevenin_fit_matches_transistor_driver() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t.clone(), 4.0);
        let load = TheveninLoad::Lumped(60.0 * FF);
        let th = characterize_thevenin(&cell, true, 50.0 * PS, &load).unwrap();
        assert!(th.rth > 20.0 && th.rth < 5e3, "rth={}", th.rth);
        // Replay both models into the same load and compare waveforms.
        let newton = NewtonOptions::default();
        let gold =
            simulate_driver(&cell, true, 50.0 * PS, &load, &newton, &mut |_, _| false).unwrap();
        let mut ckt = Circuit::new();
        let e = ckt.node("emf");
        let o = ckt.node("out");
        // EMF times are relative to the input onset; the characterization
        // fixture starts its ramp at T_INPUT_ONSET.
        ckt.add_vsource("Vth", e, Circuit::gnd(), th.wave.shifted(T_INPUT_ONSET));
        ckt.add_resistor("Rth", e, o, th.rth).unwrap();
        ckt.add_capacitor("Cl", o, Circuit::gnd(), 60.0 * FF)
            .unwrap();
        let res = transient(&ckt, &TranParams::new(4e-9, 1e-12)).unwrap();
        let fit = res.node_waveform(o);
        // 50% crossings aligned within a couple ps.
        let tg = crossing_time(&gold, 0.6, true).unwrap();
        let tf = crossing_time(&fit, 0.6, true).unwrap();
        assert!((tg - tf).abs() < 5.0 * PS, "tg={tg:e} tf={tf:e}");
        // Waveform L-inf error over the transition modest.
        let err = gold.max_abs_difference(&fit);
        assert!(err < 0.12, "waveform error {err} V");
    }

    #[test]
    fn falling_transition_fits_too() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t, 2.0);
        let th = characterize_thevenin(&cell, false, 80.0 * PS, &TheveninLoad::Lumped(30.0 * FF))
            .unwrap();
        assert!(!th.rising);
        match th.wave {
            SourceWaveform::Ramp { v0, v1, .. } => {
                assert!(v0 > v1, "falling ramp should go down");
            }
            _ => panic!("expected ramp"),
        }
    }

    #[test]
    fn stronger_driver_lower_rth() {
        let t = Technology::cmos130();
        let c1 = Cell::inv(t.clone(), 1.0);
        let c4 = Cell::inv(t, 4.0);
        let th1 =
            characterize_thevenin(&c1, true, 50.0 * PS, &TheveninLoad::Lumped(40.0 * FF)).unwrap();
        let th4 =
            characterize_thevenin(&c4, true, 50.0 * PS, &TheveninLoad::Lumped(40.0 * FF)).unwrap();
        assert!(th4.rth < th1.rth, "rth1={} rth4={}", th1.rth, th4.rth);
    }

    #[test]
    fn pi_load_fit_differs_from_lumped() {
        // On a strongly shielded net the Π-fitted Thevenin must produce a
        // faster driving-point edge than the lumped fit (less effective
        // capacitance early in the transition).
        let t = Technology::cmos130();
        let cell = Cell::inv(t, 2.0);
        let pi = TheveninLoad::Pi {
            c_near: 25.0 * FF,
            r: 150.0,
            c_far: 40.0 * FF,
        };
        let lumped = TheveninLoad::Lumped(65.0 * FF);
        let th_pi = characterize_thevenin(&cell, true, 60.0 * PS, &pi).unwrap();
        let th_lump = characterize_thevenin(&cell, true, 60.0 * PS, &lumped).unwrap();
        // The Π fit sees a faster DP transition.
        let ramp_rate = |th: &TheveninDriver| match th.wave {
            SourceWaveform::Ramp { t_rise, .. } => th.vdd / t_rise,
            _ => panic!("expected ramp"),
        };
        assert!(
            ramp_rate(&th_pi) > ramp_rate(&th_lump),
            "pi rate {:.3e} <= lumped rate {:.3e}",
            ramp_rate(&th_pi),
            ramp_rate(&th_lump)
        );
    }

    #[test]
    fn shifted_moves_t50() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t, 2.0);
        let th = characterize_thevenin(&cell, true, 50.0 * PS, &TheveninLoad::Lumped(20.0 * FF))
            .unwrap();
        let sh = th.shifted(100.0 * PS);
        assert!((sh.t50() - th.t50() - 100.0 * PS).abs() < 1e-15);
    }

    /// The early-stop fit and the full-horizon oracle agree bit for bit,
    /// errors included: `Debug` prints every `f64` in its shortest
    /// round-trip form, so equal strings are equal bits.
    fn assert_fit_matches_oracle(cell: &Cell, rising: bool, slew: f64, load: &TheveninLoad) {
        let opts = CharacterizeOptions::default();
        let fit = fit_thevenin(cell, rising, slew, load, &opts, true);
        let oracle = fit_thevenin(cell, rising, slew, load, &opts, false);
        let what = format!(
            "{} {:?} x{} rising={rising} slew={slew:e} {load:?}",
            cell.tech.name, cell.cell_type, cell.strength
        );
        assert_eq!(format!("{fit:?}"), format!("{oracle:?}"), "{what}");
        if let (Ok(a), Ok(b)) = (&fit, &oracle) {
            assert_eq!(a.rth.to_bits(), b.rth.to_bits(), "{what}");
        }
    }

    #[test]
    fn early_stop_fit_equals_full_horizon_oracle() {
        let t = Technology::cmos130();
        let cells = [
            Cell::inv(t.clone(), 2.0),
            Cell::nand2(t.clone(), 1.0),
            Cell::nor2(t, 1.0),
        ];
        let loads = [
            TheveninLoad::Lumped(40.0 * FF),
            TheveninLoad::Pi {
                c_near: 20.0 * FF,
                r: 200.0,
                c_far: 40.0 * FF,
            },
        ];
        for cell in &cells {
            for rising in [true, false] {
                for load in &loads {
                    assert_fit_matches_oracle(cell, rising, 60.0 * PS, load);
                }
            }
        }
    }

    /// The characterization oracle gate: 2 techs × 6 cells × 2 edges ×
    /// 3 slews × 4 loads, 288 fits each checked against the full-horizon
    /// oracle.
    #[test]
    #[ignore = "288 fits against the oracle, about 8 s in release; run with --ignored"]
    fn early_stop_fit_equals_full_horizon_oracle_on_full_grid() {
        let loads = [
            TheveninLoad::Lumped(10.0 * FF),
            TheveninLoad::Lumped(120.0 * FF),
            TheveninLoad::Pi {
                c_near: 15.0 * FF,
                r: 80.0,
                c_far: 25.0 * FF,
            },
            TheveninLoad::Pi {
                c_near: 30.0 * FF,
                r: 600.0,
                c_far: 90.0 * FF,
            },
        ];
        for tech in [Technology::cmos130(), Technology::cmos90()] {
            let cells = [
                Cell::inv(tech.clone(), 1.0),
                Cell::inv(tech.clone(), 4.0),
                Cell::new(CellType::Buf, tech.clone(), 2.0),
                Cell::nand2(tech.clone(), 2.0),
                Cell::nor2(tech.clone(), 2.0),
                Cell::new(CellType::Aoi21, tech, 1.0),
            ];
            for cell in &cells {
                for rising in [true, false] {
                    for slew in [30.0 * PS, 80.0 * PS, 200.0 * PS] {
                        for load in &loads {
                            assert_fit_matches_oracle(cell, rising, slew, load);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn load_total_cap() {
        assert_eq!(TheveninLoad::Lumped(5e-15).total_cap(), 5e-15);
        let pi = TheveninLoad::Pi {
            c_near: 2e-15,
            r: 100.0,
            c_far: 3e-15,
        };
        assert_eq!(pi.total_cap(), 5e-15);
    }
}
