//! End-to-end corpus gate: every checked-in deck runs through the whole
//! `sna --deck` pipeline (parse → flatten → noisy and quiet transients →
//! glitch metrics → report) and the JSON report must match its golden byte
//! for byte — at every thread count.
//!
//! Regenerate goldens after an intentional change with
//!
//! ```text
//! SNAPSHOT_UPDATE=1 cargo test -p sna-flow --test deck_corpus
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use sna_flow::deck::{deck_to_csv, deck_to_json, deck_to_text, run_deck, DeckOptions, DeckReport};
use sna_spice::parser::parse_deck_file;

const CORPUS: &[&str] = &[
    "inverter",
    "coupled_bus",
    "subckt_hierarchy",
    "controlled_filter",
];

fn deck_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../spice/tests/decks")
        .join(format!("{name}.cir"))
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{name}.json"))
}

fn opts(threads: usize) -> DeckOptions {
    DeckOptions {
        threads,
        ..DeckOptions::default()
    }
}

/// Run a corpus deck, labeled with its repo-relative path so goldens are
/// machine-independent and `cmp`-able against CI runs of the `sna` binary
/// from the repository root.
fn run_corpus_deck(name: &str, o: &DeckOptions) -> DeckReport {
    let parsed = parse_deck_file(deck_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    let label = format!("crates/spice/tests/decks/{name}.cir");
    run_deck(&parsed, &label, o).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn corpus_matches_goldens_across_threads() {
    for name in CORPUS {
        let report = run_corpus_deck(name, &opts(1));
        assert!(
            report.skipped.is_empty(),
            "{name}: no corpus case may be skipped: {:?}",
            report.skipped
        );
        assert!(!report.findings.is_empty(), "{name}: no cases ran");
        let json = deck_to_json(&report);
        let golden = golden_path(name);
        if std::env::var_os("SNAPSHOT_UPDATE").is_some() {
            fs::write(&golden, &json).expect("write golden");
        } else {
            let want = fs::read_to_string(&golden).unwrap_or_else(|e| {
                panic!(
                    "missing golden {}: {e}; run with SNAPSHOT_UPDATE=1 to create it",
                    golden.display()
                )
            });
            assert_eq!(
                json, want,
                "{name}: deck report drifted from its golden; if intentional, \
                 regenerate with SNAPSHOT_UPDATE=1 and commit"
            );
        }
        // Determinism contract: the thread count must not change a byte.
        let r = run_corpus_deck(name, &opts(4));
        assert_eq!(
            deck_to_json(&r),
            json,
            "{name}: report differs at threads=4"
        );
    }
}

#[test]
fn corpus_renders_all_formats() {
    for name in CORPUS {
        let report = run_corpus_deck(name, &opts(1));
        let text = deck_to_text(&report);
        assert!(text.contains("summary:"), "{name}: text report malformed");
        let csv = deck_to_csv(&report);
        assert!(
            csv.starts_with("case,victim,"),
            "{name}: csv report malformed"
        );
        assert_eq!(
            csv.lines().count(),
            1 + report.findings.len(),
            "{name}: csv row count"
        );
    }
}
