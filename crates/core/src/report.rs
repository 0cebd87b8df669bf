//! Paper-style method comparison tables.
//!
//! [`MethodComparison::run`] evaluates one cluster with all four engines —
//! golden transistor-level ("ELDO™" column), linear superposition,
//! iterative Thevenin, and the non-linear VCCS macromodel — and formats the
//! rows the way Tables 1 and 2 of the paper do (peak in volts, area in
//! V·ps, signed error percentages against golden).

use std::fmt;
use std::time::{Duration, Instant};

use sna_spice::error::Result;
use sna_spice::waveform::GlitchMetrics;

use crate::cluster::{ClusterMacromodel, ClusterSpec};
use crate::engine::simulate_macromodel;
use crate::golden::simulate_golden;
use crate::superposition::simulate_superposition;
use crate::zolotov::{simulate_zolotov, ZolotovOptions};

/// One method's results on a cluster.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Method name.
    pub method: &'static str,
    /// Victim DP glitch metrics.
    pub metrics: GlitchMetrics,
    /// Signed peak error vs golden (%).
    pub peak_err_pct: f64,
    /// Signed area error vs golden (%).
    pub area_err_pct: f64,
    /// Signed width error vs golden (%).
    pub width_err_pct: f64,
    /// Wall-clock time of the analysis itself (excludes shared
    /// characterization).
    pub runtime: Duration,
}

/// Four-way comparison on one cluster.
#[derive(Debug, Clone)]
pub struct MethodComparison {
    /// Cluster identifier (free-form).
    pub id: String,
    /// Golden metrics (the reference row).
    pub golden: ComparisonRow,
    /// The paper's macromodel.
    pub macromodel: ComparisonRow,
    /// Linear superposition baseline.
    pub superposition: ComparisonRow,
    /// Iterative-Thevenin baseline.
    pub zolotov: ComparisonRow,
    /// Time spent building the macromodel (characterization + reduction),
    /// amortized across every use of the cell/cluster in a real flow.
    pub build_time: Duration,
}

fn row(
    method: &'static str,
    metrics: GlitchMetrics,
    golden: &GlitchMetrics,
    runtime: Duration,
) -> ComparisonRow {
    let e = metrics.error_percent_vs(golden);
    ComparisonRow {
        method,
        metrics,
        peak_err_pct: e.peak_pct,
        area_err_pct: e.area_pct,
        width_err_pct: e.width_pct,
        runtime,
    }
}

impl MethodComparison {
    /// Evaluate all four methods on `spec`.
    ///
    /// # Errors
    ///
    /// Propagates any engine failure.
    pub fn run(id: impl Into<String>, spec: &ClusterSpec) -> Result<Self> {
        let t0 = Instant::now();
        let model = ClusterMacromodel::build(spec)?;
        let build_time = t0.elapsed();
        let q = model.q_out;

        let t0 = Instant::now();
        let gold = simulate_golden(spec)?;
        let t_gold = t0.elapsed();
        let gm = gold.dp_metrics(q);

        let t0 = Instant::now();
        let eng = simulate_macromodel(&model)?;
        let t_eng = t0.elapsed();

        let t0 = Instant::now();
        let sup = simulate_superposition(&model)?;
        let t_sup = t0.elapsed();

        let t0 = Instant::now();
        let zol = simulate_zolotov(&model, &ZolotovOptions::default())?;
        let t_zol = t0.elapsed();

        Ok(MethodComparison {
            id: id.into(),
            golden: row("golden (spice)", gm, &gm, t_gold),
            macromodel: row("macromodel (this paper)", eng.dp_metrics(q), &gm, t_eng),
            superposition: row("linear superposition", sup.dp_metrics(q), &gm, t_sup),
            zolotov: row("iterative thevenin [4]", zol.dp_metrics(q), &gm, t_zol),
            build_time,
        })
    }

    /// Golden-vs-macromodel speed-up factor (the paper reports ~20×).
    pub fn speedup(&self) -> f64 {
        self.golden.runtime.as_secs_f64() / self.macromodel.runtime.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for MethodComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cluster: {}", self.id)?;
        writeln!(
            f,
            "{:<26} {:>9} {:>9} {:>11} {:>9} {:>10}",
            "method", "Peak (V)", "Err%", "Area (V*ps)", "Err%", "time"
        )?;
        for r in [
            &self.golden,
            &self.superposition,
            &self.zolotov,
            &self.macromodel,
        ] {
            let (peak_err, area_err) = if std::ptr::eq(r, &self.golden) {
                ("-".to_string(), "-".to_string())
            } else {
                (
                    format!("{:+.1}", r.peak_err_pct),
                    format!("{:+.1}", r.area_err_pct),
                )
            };
            writeln!(
                f,
                "{:<26} {:>9.3} {:>9} {:>11.1} {:>9} {:>9.2?}",
                r.method,
                r.metrics.peak,
                peak_err,
                r.metrics.area * 1e12,
                area_err,
                r.runtime
            )?;
        }
        writeln!(f, "speed-up (golden / macromodel): {:.1}x", self.speedup())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::table1_spec;

    #[test]
    fn comparison_runs_and_formats() {
        let mut spec = table1_spec();
        // Keep the test fast: coarser interconnect, shorter horizon.
        spec.bus.segments = 8;
        spec.t_stop = 2.0e-9;
        let cmp = MethodComparison::run("t1-quick", &spec).unwrap();
        let text = cmp.to_string();
        assert!(text.contains("Peak (V)"));
        assert!(text.contains("macromodel"));
        assert!(text.contains("speed-up"));
        // Reference row has zero error by construction.
        assert_eq!(cmp.golden.peak_err_pct, 0.0);
        // Macromodel must beat superposition on peak accuracy.
        assert!(
            cmp.macromodel.peak_err_pct.abs() < cmp.superposition.peak_err_pct.abs(),
            "macromodel {}% vs superposition {}%",
            cmp.macromodel.peak_err_pct,
            cmp.superposition.peak_err_pct
        );
        // The engine must be faster than golden. (The headline ~20x factor
        // is measured by the dedicated bench binaries on a quiet machine;
        // unit tests run in parallel, so keep this threshold contention-
        // proof.)
        assert!(cmp.speedup() > 1.2, "speedup {}", cmp.speedup());
    }
}
