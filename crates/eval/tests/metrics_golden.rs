//! Golden-file tests for the `eval::metrics` exports: the committed
//! seed-42 outputs under `tests/goldens/` pin the TSV columns, the JSONL
//! journal schema, and the campaign fingerprints, so silent column drift
//! or a renamed counter fails loudly instead of rotting EXPERIMENTS.md.
//!
//! Updating a golden is a deliberate act: regenerate with
//! `revtr-cli metrics --scale smoke --seed 42 --out crates/eval/tests/goldens/smoke42`
//! (and `--scale standard` for the TSVs under `standard42/`), then review
//! the diff. See DESIGN.md §8 for the baseline-update procedure.

use revtr_eval::{metrics, profile, Scale};
use std::path::Path;

fn golden_dir(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn assert_matches_golden(dir: &Path, name: &str, actual: &str) {
    let path = dir.join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name} drifted from its committed golden ({}); \
         regenerate deliberately if the change is intended",
        path.display()
    );
}

#[test]
fn smoke_seed42_exports_match_goldens_byte_for_byte() {
    let report = metrics::run(Scale::Smoke, 42);
    let dir = golden_dir("smoke42");
    assert_matches_golden(&dir, "metrics_stages.tsv", &report.stage_table().to_tsv());
    assert_matches_golden(&dir, "metrics_cache.tsv", &report.cache_table().to_tsv());
    assert_matches_golden(
        &dir,
        "metrics_counters.tsv",
        &report.counter_table().to_tsv(),
    );
    let jsonl: String = report.journal.iter().map(|r| r.to_json() + "\n").collect();
    assert_matches_golden(&dir, "metrics_journal.jsonl", &jsonl);
}

/// The standard-scale golden (seed 42). The journal is ~2.7 MB, so the
/// TSVs are pinned byte-for-byte and the journal by fingerprint. Run by
/// ci.sh in release mode (`--ignored`): a debug run takes minutes.
#[test]
#[ignore = "standard scale; run in release via ci.sh"]
fn standard_seed42_exports_match_goldens() {
    let report = metrics::run(Scale::Standard, 42);
    let dir = golden_dir("standard42");
    assert_matches_golden(&dir, "metrics_stages.tsv", &report.stage_table().to_tsv());
    assert_matches_golden(&dir, "metrics_cache.tsv", &report.cache_table().to_tsv());
    assert_matches_golden(
        &dir,
        "metrics_counters.tsv",
        &report.counter_table().to_tsv(),
    );
    assert_eq!(
        format!(
            "metrics {:#018x} journal {:#018x}",
            report.metrics_fingerprint, report.journal_fingerprint
        ),
        "metrics 0xe72d9da6fd24178f journal 0xeb1efe2d61300455",
        "standard seed-42 campaign fingerprints drifted"
    );
}

#[test]
fn profile_smoke_seed42_report_matches_golden() {
    // The resource-forensics report is a pure function of the seed: the
    // committed seed-42 rendering pins the ledger set, the cost-stack
    // paths, and every byte reading at once. Regenerate with
    // `revtr-cli profile --scale smoke --seed 42 > crates/eval/tests/goldens/profile_smoke42.txt`.
    let report = profile::run(Scale::Smoke, 42);
    assert_matches_golden(
        &golden_dir(""),
        "profile_smoke42.txt",
        &format!("{}\n", report.render()),
    );
}

#[test]
fn journal_jsonl_schema_is_stable() {
    // Guard the JSONL field set itself (column drift in the journal is
    // invisible to a TSV diff if no journal golden is read).
    let report = metrics::run(Scale::Smoke, 42);
    let first = report.journal.first().expect("journal non-empty").to_json();
    for key in [
        "\"dst\":",
        "\"src\":",
        "\"status\":",
        "\"virtual_us\":",
        "\"spans\":",
    ] {
        assert!(first.contains(key), "journal line lost {key}: {first}");
    }
}
