//! The accuracy sample: the flow's receiver glitch against the
//! transistor-level golden simulation and the linear-superposition
//! baseline, at the timing the flow analyzed.

use sna_core::cluster::{ClusterMacromodel, MacromodelOptions};
use sna_core::golden::simulate_golden;
use sna_core::library::NoiseModelLibrary;
use sna_core::sna::{analyze_cluster, DesignCluster, SnaOptions};
use sna_core::superposition::simulate_superposition;
use sna_spice::error::Result;
use sna_spice::waveform::GlitchMetrics;

use crate::batch::nrc;
use crate::Report;

/// Mean absolute deviations (%) from golden over a sample.
#[derive(Debug, Default)]
pub struct Accuracy {
    pub clusters: usize,
    pub peak_pct: f64,
    pub area_pct: f64,
    pub superposition_peak_pct: f64,
}

impl Accuracy {
    /// Add one cluster: `timed` is the macromodel at the timing the flow
    /// analyzed, `flow` the receiver glitch the flow reported for it.
    pub fn add(&mut self, timed: &ClusterMacromodel, flow: &GlitchMetrics) -> Result<()> {
        let golden = simulate_golden(&timed.spec)?
            .receiver
            .glitch_metrics(timed.q_out);
        let sup = simulate_superposition(timed)?
            .receiver
            .glitch_metrics(timed.q_out);
        let dev = |a: f64, b: f64| 100.0 * (a - b).abs() / b.abs();
        self.peak_pct += dev(flow.peak, golden.peak);
        self.area_pct += dev(flow.area, golden.area);
        self.superposition_peak_pct += dev(sup.peak, golden.peak);
        self.clusters += 1;
        Ok(())
    }

    /// Turn the sums into means and check the paper's claim: the
    /// macromodel's mean peak deviation is below superposition's.
    pub fn finish(mut self, report: &mut Report) -> Accuracy {
        let n = self.clusters.max(1) as f64;
        self.peak_pct /= n;
        self.area_pct /= n;
        self.superposition_peak_pct /= n;
        report.check(self.peak_pct < self.superposition_peak_pct, || {
            format!(
                "macromodel peak deviation {:.2}% is not below superposition's {:.2}%",
                self.peak_pct, self.superposition_peak_pct
            )
        });
        eprintln!(
            "accuracy sample ({} clusters): macromodel peak {:.2}% area {:.2}%, superposition peak {:.2}%",
            self.clusters, self.peak_pct, self.area_pct, self.superposition_peak_pct
        );
        self
    }
}

/// The accuracy of `clusters` analyzed at nominal timing on a fresh
/// library, as `analyze_cluster` reports them.
pub fn nominal_sample(
    report: &mut Report,
    clusters: &[DesignCluster],
    sna: &SnaOptions,
    mm: &MacromodelOptions,
) -> Accuracy {
    let lib = NoiseModelLibrary::new();
    let curve = nrc(&lib, mm).expect("receiver NRC");
    let mut acc = Accuracy::default();
    for c in clusters {
        let outcome = analyze_cluster(c, &curve, sna, mm, &lib).and_then(|f| {
            let model = ClusterMacromodel::build_with_library(&c.spec, mm, &lib)?;
            acc.add(&model, &f.receiver_metrics)
        });
        report.check(outcome.is_ok(), || {
            format!("accuracy sample {}: {outcome:?}", c.name)
        });
    }
    acc.finish(report)
}
