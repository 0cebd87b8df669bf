//! Deck-driven flow mode: `sna --deck <file>`.
//!
//! Instead of the synthetic cluster generator, this mode reads a real SPICE
//! deck through [`sna_spice::parser::parse_deck_file`] (subcircuits flattened,
//! models bound, controlled sources stamped) and runs one noise analysis per
//! `.sna` card — or per the `--victim`/`--aggressors` CLI fallback when the
//! deck carries no card.
//!
//! Each case runs two transients, each on a fresh [`TranWorkspace`]: the
//! noisy run is the deck as written, the quiet run a clone with every
//! aggressor source frozen at its `t = 0` value. The victim-node difference
//! between the two is the injected noise waveform; [`GlitchMetrics`] of
//! that difference against a zero baseline give peak/width/area, and
//! `margin = threshold − peak` drives the verdict. The deck's `.IC`
//! overrides apply to both runs. The per-case work is embarrassingly
//! parallel — reports are byte-identical across thread counts.

use std::path::Path;

use sna_core::sna::Verdict;
use sna_obs::Metric;
use sna_spice::devices::SourceWaveform;
use sna_spice::error::{Error, Result};
use sna_spice::netlist::{Circuit, Element};
use sna_spice::parser::{parse_deck_file, ParsedDeck, SnaCard};
use sna_spice::tran::{transient_with, TranWorkspace};
use sna_spice::waveform::GlitchMetrics;

use crate::output::{esc, num, verdict_tag};
use crate::pool::parallel_map_ordered;

/// Knobs for deck mode, mirroring the subset of CLI flags that apply.
#[derive(Debug, Clone)]
pub struct DeckOptions {
    /// Fallback noise threshold (volts) for cards that carry none, and for
    /// the `--victim` CLI path. `None` means cards must set their own.
    pub threshold: Option<f64>,
    /// Victim node used when the deck has no `.sna` card.
    pub victim: Option<String>,
    /// Aggressor sources used when the deck has no `.sna` card.
    pub aggressors: Vec<String>,
    /// Margins below this band (volts) are warnings rather than passes.
    pub guard_band: f64,
    /// Fail the whole run on the first broken case instead of skipping it.
    pub strict: bool,
    /// Worker threads for the per-case fan-out.
    pub threads: usize,
}

impl Default for DeckOptions {
    fn default() -> Self {
        DeckOptions {
            threshold: None,
            victim: None,
            aggressors: Vec::new(),
            guard_band: 0.1,
            strict: false,
            threads: 1,
        }
    }
}

/// One analyzed `.sna` case.
#[derive(Debug, Clone)]
pub struct DeckFinding {
    /// Case name (`name=` on the card, else the victim node).
    pub name: String,
    /// Victim node as spelled in the deck.
    pub victim: String,
    /// Aggressor source names.
    pub aggressors: Vec<String>,
    /// Threshold the verdict was judged against (volts).
    pub threshold: f64,
    /// Glitch metrics of the noise waveform (baseline 0 V).
    pub metrics: GlitchMetrics,
    /// `threshold − peak`, volts; negative means failure.
    pub margin: f64,
    /// Pass / margin-warning / fail.
    pub verdict: Verdict,
}

/// A case that could not be analyzed (non-strict mode only).
#[derive(Debug, Clone)]
pub struct DeckSkipped {
    /// Case name.
    pub name: String,
    /// Human-readable reason.
    pub reason: String,
}

/// Everything `sna --deck` reports.
#[derive(Debug, Clone)]
pub struct DeckReport {
    /// Deck path (or label) as given.
    pub deck: String,
    /// Title line of the deck.
    pub title: String,
    /// Flattened node count (excluding ground).
    pub nodes: usize,
    /// Flattened element count.
    pub elements: usize,
    /// Guard band used for verdicts (volts).
    pub guard_band: f64,
    /// Analyzed cases, in deck order.
    pub findings: Vec<DeckFinding>,
    /// Cases skipped with their reasons, in deck order.
    pub skipped: Vec<DeckSkipped>,
}

impl DeckReport {
    /// Worst verdict across all findings (skips count as warnings).
    pub fn worst_verdict(&self) -> Verdict {
        let mut worst = Verdict::Pass;
        if !self.skipped.is_empty() {
            worst = Verdict::MarginWarning;
        }
        for f in &self.findings {
            worst = match (worst, f.verdict) {
                (_, Verdict::Fail) | (Verdict::Fail, _) => Verdict::Fail,
                (_, Verdict::MarginWarning) | (Verdict::MarginWarning, _) => Verdict::MarginWarning,
                _ => Verdict::Pass,
            };
        }
        worst
    }
}

fn case_name(card: &SnaCard) -> String {
    card.name.clone().unwrap_or_else(|| card.victim.clone())
}

fn analyze_case(parsed: &ParsedDeck, card: &SnaCard, opts: &DeckOptions) -> Result<DeckFinding> {
    let name = case_name(card);
    let circuit = &parsed.circuit;
    let victim = circuit.find_node(&card.victim).ok_or_else(|| {
        Error::InvalidAnalysis(format!(
            "case '{name}': unknown victim node '{}'",
            card.victim
        ))
    })?;
    let threshold = card.threshold.or(opts.threshold).ok_or_else(|| {
        Error::InvalidAnalysis(format!(
            "case '{name}': no threshold (set threshold= on the .sna card or pass --threshold)"
        ))
    })?;
    if !(threshold.is_finite() && threshold > 0.0) {
        return Err(Error::InvalidAnalysis(format!(
            "case '{name}': threshold must be finite and positive, got {threshold}"
        )));
    }
    let tran = parsed
        .tran
        .as_ref()
        .ok_or_else(|| Error::InvalidAnalysis("deck mode needs a .tran card".to_string()))?;

    // FRAME constraints: aggressors whose switching window cannot overlap
    // the victim sensitivity interval — or who lost their mutual-exclusion
    // slot to an earlier group member — cannot contribute noise, so they
    // are frozen in *both* runs (the difference then excludes them).
    // Only sources in the card's aggressor list participate: a source
    // outside it switches identically in both runs and cancels anyway.
    let mut pruned: Vec<String> = Vec::new();
    if !(card.windows.is_empty() && card.mexcl.is_empty()) {
        sna_obs::count(Metric::FrameClusters, 1);
        sna_obs::count(
            Metric::FrameCandidatesConsidered,
            card.aggressors.len() as u64,
        );
        let in_aggressors = |src: &str| card.aggressors.iter().any(|a| a.eq_ignore_ascii_case(src));
        if let Some((s_lo, s_hi)) = card.sensitivity {
            for (src, lo, hi) in &card.windows {
                if (*hi < s_lo || *lo > s_hi) && in_aggressors(src) {
                    pruned.push(src.clone());
                }
            }
        }
        sna_obs::count(Metric::FramePrunedWindow, pruned.len() as u64);
        // Within each mexcl group the first still-feasible member keeps
        // switching; the rest are frozen. (The per-candidate search over
        // group members is the synthetic-flow FRAME path; the deck path
        // runs one transient, so it picks the deterministic representative.)
        let mut claimed: Vec<u32> = Vec::new();
        let mut mexcl_pruned = 0u64;
        for (src, g) in &card.mexcl {
            if !in_aggressors(src) || pruned.iter().any(|p| p.eq_ignore_ascii_case(src)) {
                continue;
            }
            if claimed.contains(g) {
                pruned.push(src.clone());
                mexcl_pruned += 1;
            } else {
                claimed.push(*g);
            }
        }
        sna_obs::count(Metric::FramePrunedMexcl, mexcl_pruned);
        sna_obs::count(
            Metric::FrameSimulated,
            (card.aggressors.len() - pruned.len()) as u64,
        );
    }

    // The quiet run: aggressors frozen at their t = 0 value, so the
    // difference between the runs isolates the noise they inject.
    let mut quiet = circuit.clone();
    for aggr in &card.aggressors {
        let id = quiet.find_element(aggr).ok_or_else(|| {
            Error::InvalidAnalysis(format!("case '{name}': unknown aggressor source '{aggr}'"))
        })?;
        let v0 = match quiet.element(id) {
            Element::VSource { wave, .. } | Element::ISource { wave, .. } => wave.eval(0.0),
            _ => {
                return Err(Error::InvalidAnalysis(format!(
                    "case '{name}': aggressor '{aggr}' is not a V or I source"
                )))
            }
        };
        quiet.set_source_wave(aggr, SourceWaveform::Dc(v0))?;
    }

    // The noisy run: the pruned aggressors are frozen here too, removing
    // their contribution from the difference.
    let mut noisy = circuit.clone();
    for src in &pruned {
        let id = noisy.find_element(src).ok_or_else(|| {
            Error::InvalidAnalysis(format!("case '{name}': unknown constrained source '{src}'"))
        })?;
        let v0 = match noisy.element(id) {
            Element::VSource { wave, .. } | Element::ISource { wave, .. } => wave.eval(0.0),
            _ => {
                return Err(Error::InvalidAnalysis(format!(
                    "case '{name}': constrained source '{src}' is not a V or I source"
                )))
            }
        };
        noisy.set_source_wave(src, SourceWaveform::Dc(v0))?;
    }

    let ics = parsed.resolve_ics();
    let run = |ckt: &Circuit| {
        let mut ws = TranWorkspace::new(ckt, tran.newton.solver)?;
        transient_with(ckt, tran, &mut ws, &ics, None).map(|r| r.node_waveform(victim))
    };
    let noisy = run(&noisy)?;
    let still = run(&quiet)?;
    let noise = noisy.sub(&still);
    let metrics = GlitchMetrics::from_waveform(&noise, 0.0);
    let margin = threshold - metrics.peak;
    let verdict = if margin < 0.0 {
        Verdict::Fail
    } else if margin < opts.guard_band {
        Verdict::MarginWarning
    } else {
        Verdict::Pass
    };
    Ok(DeckFinding {
        name,
        victim: card.victim.clone(),
        aggressors: card.aggressors.clone(),
        threshold,
        metrics,
        margin,
        verdict,
    })
}

/// Run every `.sna` case of an already-parsed deck. `label` names the deck in
/// the report (the file path in CLI use).
///
/// # Errors
///
/// Fails when the deck has no `.tran` card, no `.sna` card and no CLI victim,
/// or (in strict mode) when any case is broken. Non-strict broken cases are
/// downgraded to [`DeckReport::skipped`].
pub fn run_deck(parsed: &ParsedDeck, label: &str, opts: &DeckOptions) -> Result<DeckReport> {
    if parsed.tran.is_none() {
        return Err(Error::InvalidAnalysis(
            "deck mode needs a .tran card".to_string(),
        ));
    }
    let mut cases = parsed.sna_cards.clone();
    if cases.is_empty() {
        let victim = opts.victim.clone().ok_or_else(|| {
            Error::InvalidAnalysis(
                "deck has no .sna card; pass --victim <node> (and optionally --aggressors)"
                    .to_string(),
            )
        })?;
        cases.push(SnaCard {
            name: None,
            victim,
            aggressors: opts.aggressors.clone(),
            threshold: None,
            windows: Vec::new(),
            mexcl: Vec::new(),
            sensitivity: None,
        });
    }
    let outcomes = parallel_map_ordered(opts.threads, &cases, |_, card| {
        analyze_case(parsed, card, opts)
    });
    let mut findings = Vec::new();
    let mut skipped = Vec::new();
    for (card, outcome) in cases.iter().zip(outcomes) {
        match outcome {
            Ok(f) => findings.push(f),
            Err(e) if opts.strict => return Err(e),
            Err(e) => skipped.push(DeckSkipped {
                name: case_name(card),
                reason: e.to_string(),
            }),
        }
    }
    Ok(DeckReport {
        deck: label.to_string(),
        title: parsed.title.clone(),
        nodes: parsed.circuit.node_count(),
        elements: parsed.circuit.element_count(),
        guard_band: opts.guard_band,
        findings,
        skipped,
    })
}

/// Parse `path` (expanding `.include`s) and run every `.sna` case.
///
/// # Errors
///
/// As [`run_deck`], plus parse and I/O errors from the deck itself.
pub fn run_deck_file(path: &Path, opts: &DeckOptions) -> Result<DeckReport> {
    let parsed = parse_deck_file(path)?;
    run_deck(&parsed, &path.display().to_string(), opts)
}

/// Human-readable deck report.
pub fn deck_to_text(report: &DeckReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("deck: {} ({})\n", report.deck, report.title));
    out.push_str(&format!(
        "flattened: {} nodes, {} elements\n",
        report.nodes, report.elements
    ));
    let (mut pass, mut warn, mut fail) = (0usize, 0usize, 0usize);
    for f in &report.findings {
        match f.verdict {
            Verdict::Pass => pass += 1,
            Verdict::MarginWarning => warn += 1,
            Verdict::Fail => fail += 1,
        }
        out.push_str(&format!(
            "case {}: victim={} aggressors=[{}] peak={} V width={} s margin={} V [{}]\n",
            f.name,
            f.victim,
            f.aggressors.join(","),
            num(f.metrics.peak),
            num(f.metrics.width),
            num(f.margin),
            verdict_tag(f.verdict).to_uppercase(),
        ));
    }
    for s in &report.skipped {
        out.push_str(&format!("case {}: SKIPPED ({})\n", s.name, s.reason));
    }
    out.push_str(&format!(
        "summary: {pass} pass, {warn} warn, {fail} fail, {} skipped\n",
        report.skipped.len()
    ));
    out
}

/// Machine-readable deck report (`sna-deck-report-v1`). Deterministic: no
/// timestamps, no thread counts, shortest-round-trip floats.
pub fn deck_to_json(report: &DeckReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"sna-deck-report-v1\",\n");
    out.push_str(&format!("  \"deck\": \"{}\",\n", esc(&report.deck)));
    out.push_str(&format!("  \"title\": \"{}\",\n", esc(&report.title)));
    out.push_str(&format!("  \"nodes\": {},\n", report.nodes));
    out.push_str(&format!("  \"elements\": {},\n", report.elements));
    out.push_str(&format!(
        "  \"guard_band_v\": {},\n",
        num(report.guard_band)
    ));
    out.push_str(&format!(
        "  \"worst_verdict\": \"{}\",\n",
        verdict_tag(report.worst_verdict())
    ));
    out.push_str("  \"cases\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"name\": \"{}\", ", esc(&f.name)));
        out.push_str(&format!("\"victim\": \"{}\", ", esc(&f.victim)));
        out.push_str("\"aggressors\": [");
        for (j, a) in f.aggressors.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", esc(a)));
        }
        out.push_str("], ");
        out.push_str(&format!("\"threshold_v\": {}, ", num(f.threshold)));
        out.push_str(&format!("\"peak_v\": {}, ", num(f.metrics.peak)));
        out.push_str(&format!("\"polarity\": {}, ", num(f.metrics.polarity)));
        out.push_str(&format!("\"peak_time_s\": {}, ", num(f.metrics.peak_time)));
        out.push_str(&format!("\"width_s\": {}, ", num(f.metrics.width)));
        out.push_str(&format!("\"area_vs\": {}, ", num(f.metrics.area)));
        out.push_str(&format!("\"margin_v\": {}, ", num(f.margin)));
        out.push_str(&format!("\"verdict\": \"{}\"}}", verdict_tag(f.verdict)));
    }
    if report.findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"skipped\": [");
    for (i, s) in report.skipped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"reason\": \"{}\"}}",
            esc(&s.name),
            esc(&s.reason)
        ));
    }
    if report.skipped.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// CSV deck report: one row per case, skips flagged in the verdict column.
pub fn deck_to_csv(report: &DeckReport) -> String {
    let mut out = String::from(
        "case,victim,aggressors,threshold_v,peak_v,polarity,peak_time_s,width_s,area_vs,margin_v,verdict\n",
    );
    for f in &report.findings {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            f.name,
            f.victim,
            f.aggressors.join(";"),
            num(f.threshold),
            num(f.metrics.peak),
            num(f.metrics.polarity),
            num(f.metrics.peak_time),
            num(f.metrics.width),
            num(f.metrics.area),
            num(f.margin),
            verdict_tag(f.verdict),
        ));
    }
    for s in &report.skipped {
        out.push_str(&format!("{},,,,,,,,,,skipped\n", s.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_spice::parser::parse_deck;

    const COUPLED: &str = "\
* coupled pair
Va agg 0 PULSE(0 1.2 1n 0.2n 0.2n 2n)
Ra agg vic_in 1k
Cc agg vic 20f
Rv vic 0 2k
Cv vic 0 30f
Rb vic_in 0 1k
.tran 0.05n 6n
.sna victim=vic aggressors=Va threshold=0.4 name=pair
";

    fn opts() -> DeckOptions {
        DeckOptions {
            threshold: Some(0.4),
            ..DeckOptions::default()
        }
    }

    #[test]
    fn deck_with_sna_card_runs() {
        let parsed = parse_deck(COUPLED).unwrap();
        let report = run_deck(&parsed, "mem", &opts()).unwrap();
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(f.name, "pair");
        assert!(f.metrics.peak > 1e-3, "peak={}", f.metrics.peak);
        assert!(f.metrics.peak < 0.4, "peak={}", f.metrics.peak);
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn cli_victim_fallback_and_missing_victim() {
        let deck = COUPLED.replace(".sna victim=vic aggressors=Va threshold=0.4 name=pair", "");
        let parsed = parse_deck(&deck).unwrap();
        assert!(run_deck(&parsed, "mem", &opts()).is_err());
        let mut o = opts();
        o.victim = Some("vic".to_string());
        o.aggressors = vec!["Va".to_string()];
        let report = run_deck(&parsed, "mem", &o).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].name, "vic");
    }

    #[test]
    fn no_aggressors_means_zero_noise() {
        let parsed = parse_deck(COUPLED).unwrap();
        let mut o = opts();
        o.victim = Some("vic".to_string());
        let deck = COUPLED.replace(".sna victim=vic aggressors=Va threshold=0.4 name=pair", "");
        let parsed2 = parse_deck(&deck).unwrap();
        let report = run_deck(&parsed2, "mem", &o).unwrap();
        assert_eq!(report.findings[0].metrics.peak, 0.0);
        assert_eq!(report.findings[0].verdict, Verdict::Pass);
        drop(parsed);
    }

    #[test]
    fn infeasible_window_freezes_the_aggressor() {
        // Window entirely after the sensitivity interval: Va cannot hit
        // the receiver, so its noise contribution must vanish.
        let deck = COUPLED.replace(
            ".sna victim=vic aggressors=Va threshold=0.4 name=pair",
            ".sna victim=vic aggressors=Va threshold=0.4 name=pair \
             window=Va:4n:5n sensitivity=0:1n",
        );
        let parsed = parse_deck(&deck).unwrap();
        let report = run_deck(&parsed, "mem", &opts()).unwrap();
        assert_eq!(report.findings[0].metrics.peak, 0.0);
        assert_eq!(report.findings[0].verdict, Verdict::Pass);

        // A feasible window changes nothing: byte-identical to the
        // unconstrained run.
        let feasible = COUPLED.replace(
            ".sna victim=vic aggressors=Va threshold=0.4 name=pair",
            ".sna victim=vic aggressors=Va threshold=0.4 name=pair \
             window=Va:0:2n sensitivity=0:8n",
        );
        let parsed_f = parse_deck(&feasible).unwrap();
        let constrained = run_deck(&parsed_f, "mem", &opts()).unwrap();
        let baseline = run_deck(&parse_deck(COUPLED).unwrap(), "mem", &opts()).unwrap();
        assert_eq!(
            constrained.findings[0].metrics.peak.to_bits(),
            baseline.findings[0].metrics.peak.to_bits(),
        );
        assert_eq!(constrained.findings[0].margin, baseline.findings[0].margin);
    }

    #[test]
    fn mexcl_keeps_one_group_member_switching() {
        // Two identical aggressors in one mexcl group: the second is
        // frozen, so the noise equals the single-aggressor run.
        let two = COUPLED.replace(
            "Va agg 0 PULSE(0 1.2 1n 0.2n 0.2n 2n)",
            "Va agg 0 PULSE(0 1.2 1n 0.2n 0.2n 2n)\nVb agg2 0 PULSE(0 1.2 1n 0.2n 0.2n 2n)\nCc2 agg2 vic 20f\nRa2 agg2 0 1k",
        );
        let both = two.replace("aggressors=Va", "aggressors=Va,Vb");
        let gated = two.replace("aggressors=Va", "aggressors=Va,Vb mexcl=Va:1,Vb:1");
        // Reference: the same circuit with Vb held at DC 0 at the source —
        // exactly what the mexcl freeze does (PULSE value at t = 0 is 0).
        let frozen = both.replace("Vb agg2 0 PULSE(0 1.2 1n 0.2n 0.2n 2n)", "Vb agg2 0 DC 0");
        let both_r = run_deck(&parse_deck(&both).unwrap(), "mem", &opts()).unwrap();
        let gated_r = run_deck(&parse_deck(&gated).unwrap(), "mem", &opts()).unwrap();
        let frozen_r = run_deck(&parse_deck(&frozen).unwrap(), "mem", &opts()).unwrap();
        // Both aggressors together inject more than the gated pair.
        assert!(both_r.findings[0].metrics.peak > gated_r.findings[0].metrics.peak * 1.5);
        // The mexcl gate freezes exactly the second group member: bitwise
        // the same runs as the source-level freeze.
        assert_eq!(
            gated_r.findings[0].metrics.peak.to_bits(),
            frozen_r.findings[0].metrics.peak.to_bits(),
        );
    }

    #[test]
    fn strict_vs_skip_on_broken_case() {
        let deck = COUPLED.replace("aggressors=Va", "aggressors=Va,Vmissing");
        // The parser itself verifies .sna aggressors, so inject the broken
        // case through the CLI fallback path instead.
        let clean = deck.replace(
            ".sna victim=vic aggressors=Va,Vmissing threshold=0.4 name=pair",
            "",
        );
        let parsed = parse_deck(&clean).unwrap();
        let mut o = opts();
        o.victim = Some("vic".to_string());
        o.aggressors = vec!["Va".to_string(), "Vmissing".to_string()];
        let report = run_deck(&parsed, "mem", &o).unwrap();
        assert!(report.findings.is_empty());
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].reason.contains("Vmissing"));
        o.strict = true;
        assert!(run_deck(&parsed, "mem", &o).is_err());
    }

    #[test]
    fn report_bytes_identical_across_threads() {
        let parsed = parse_deck(COUPLED).unwrap();
        let mut o1 = opts();
        o1.threads = 1;
        let mut o4 = opts();
        o4.threads = 4;
        let r1 = run_deck(&parsed, "mem", &o1).unwrap();
        let r4 = run_deck(&parsed, "mem", &o4).unwrap();
        assert_eq!(deck_to_json(&r1), deck_to_json(&r4));
        assert_eq!(deck_to_text(&r1), deck_to_text(&r4));
        assert_eq!(deck_to_csv(&r1), deck_to_csv(&r4));
    }

    #[test]
    fn missing_tran_is_an_error() {
        let deck = COUPLED.replace(".tran 0.05n 6n\n", "");
        let parsed = parse_deck(&deck).unwrap();
        let err = run_deck(&parsed, "mem", &opts()).unwrap_err();
        assert!(err.to_string().contains(".tran"));
    }

    #[test]
    fn verdict_thresholds() {
        let parsed = parse_deck(COUPLED).unwrap();
        let mut o = opts();
        let base = run_deck(&parsed, "mem", &o).unwrap();
        let peak = base.findings[0].metrics.peak;
        // Threshold just above the peak but inside the guard band: warn.
        let mut warn_deck = parse_deck(COUPLED).unwrap();
        warn_deck.sna_cards[0].threshold = Some(peak + 0.01);
        o.guard_band = 0.05;
        let r = run_deck(&warn_deck, "mem", &o).unwrap();
        assert_eq!(r.findings[0].verdict, Verdict::MarginWarning);
        // Threshold below the peak: fail.
        let mut fail_deck = parse_deck(COUPLED).unwrap();
        fail_deck.sna_cards[0].threshold = Some(peak * 0.5);
        let r = run_deck(&fail_deck, "mem", &o).unwrap();
        assert_eq!(r.findings[0].verdict, Verdict::Fail);
        assert_eq!(r.worst_verdict(), Verdict::Fail);
    }
}
