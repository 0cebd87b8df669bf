//! The simulator oracle gate: every characterization artifact the flow's
//! design needs is the same, bit for bit, whether its transients run on
//! the production stepping loop (one device evaluation per Newton point)
//! or on the oracle loop that evaluates afresh at every Newton iterate and
//! accepted point (`sna_spice::tran::oracle`).
//!
//! Artifacts are compared as `sna-libcache-v1` image bytes, which hold
//! every `f64` of every load curve, holding resistance, propagated-noise
//! table, Thevenin fit and NRC as its bits.

use sna_cells::{Cell, Technology};
use sna_core::cluster::{ClusterMacromodel, MacromodelOptions};
use sna_core::library::{ArtifactKind, NoiseModelLibrary};
use sna_core::sna::Design;
use sna_spice::solver::SolverKind;
use sna_spice::tran::oracle::with_fresh_evaluation;
use sna_spice::units::PS;

/// Characterize what `sna --clusters n --seed seed` needs at `tech`: the
/// receiver NRC and every cluster's macromodel artifacts, serially on this
/// thread. Returns the library image and each cluster's build error, if
/// any.
fn characterize_design(tech: &Technology, n: usize, seed: u64) -> (NoiseModelLibrary, Vec<String>) {
    let library = NoiseModelLibrary::new();
    let widths = [100.0, 200.0, 400.0, 800.0, 1600.0].map(|w| w * PS);
    library
        .nrc(
            &Cell::inv(tech.clone(), 1.0),
            true,
            &widths,
            SolverKind::Auto,
        )
        .unwrap();
    let design = Design::random(tech, n, seed);
    let errors = design
        .clusters
        .iter()
        .filter_map(|cl| {
            ClusterMacromodel::build_with_library(&cl.spec, &MacromodelOptions::default(), &library)
                .err()
                .map(|e| format!("{}: {e}", cl.name))
        })
        .collect();
    (library, errors)
}

fn assert_design_matches_oracle(tech: &Technology, n: usize) {
    let (library, errors) = characterize_design(tech, n, 2005);
    let (oracle, oracle_errors) = with_fresh_evaluation(|| characterize_design(tech, n, 2005));
    assert_eq!(errors, oracle_errors, "{}: cluster build errors", tech.name);
    let stats = library.stats();
    for kind in [
        ArtifactKind::PropTable,
        ArtifactKind::Thevenin,
        ArtifactKind::Nrc,
    ] {
        assert!(
            stats.by_kind[kind as usize].misses > 0,
            "{}: the design characterizes no {kind:?}",
            tech.name
        );
    }
    let (image, oracle_image) = (library.to_cache_bytes(), oracle.to_cache_bytes());
    assert!(
        image == oracle_image,
        "{}: library image differs from the oracle stepping's ({} vs {} bytes)",
        tech.name,
        image.len(),
        oracle_image.len()
    );
}

#[test]
fn small_design_characterizes_as_the_oracle_does() {
    assert_design_matches_oracle(&Technology::cmos130(), 2);
}

/// The full gate: the 64-cluster flow design at both corners.
#[test]
#[ignore = "two 64-cluster cold characterizations per corner, about 30 s in release; run with --ignored"]
fn flow_design_characterizes_as_the_oracle_does() {
    for tech in [Technology::cmos130(), Technology::cmos90()] {
        assert_design_matches_oracle(&tech, 64);
    }
}
