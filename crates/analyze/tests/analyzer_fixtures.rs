//! Fixture tests: each file under `tests/fixtures/` seeds known violations
//! (and known-clean neighbours) for one rule; the analyzer must fire on
//! every seeded span — exact line and rule — and stay silent on the rest.
//!
//! Fixtures are lexed, never compiled: they are fed to the rule engine
//! under synthetic workspace-relative paths so the path-scoped rules
//! (lock-discipline, panic-freedom, crash-coverage) see them as the files
//! they impersonate.

use pds_analyze::rules::{
    self, Report, SourceModel, RULE_ALLOW, RULE_CRASH, RULE_FRAMING, RULE_LOCK, RULE_PANIC,
    RULE_VFS,
};

fn analyze(files: &[(&str, &str)]) -> Report {
    let models: Vec<SourceModel> = files
        .iter()
        .map(|(path, source)| SourceModel::new(*path, source))
        .collect();
    rules::analyze_sources(&models)
}

/// `(line, rule)` pairs of every finding, sorted as reported.
fn findings(report: &Report) -> Vec<(u32, &'static str)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn lock_discipline_fires_on_seeded_spans_only() {
    let report = analyze(&[(
        "crates/store/src/lock_fixture.rs",
        include_str!("fixtures/lock_violation.rs"),
    )]);
    assert_eq!(
        findings(&report),
        [8, 14, 39, 51].map(|line| (line, RULE_LOCK)).to_vec(),
        "expected exactly the I/O-under-guard, nested-acquisition, \
         seal-under-guard and block-load-in-capture seeds: {:#?}",
        report.diagnostics
    );
}

#[test]
fn panic_freedom_fires_on_seeded_spans_only() {
    let report = analyze(&[(
        "crates/core/src/binio.rs",
        include_str!("fixtures/panic_violation.rs"),
    )]);
    assert_eq!(
        findings(&report),
        vec![(6, RULE_PANIC), (7, RULE_PANIC), (8, RULE_PANIC)],
        "expected the unguarded index, unwrap, and panic! seeds: {:#?}",
        report.diagnostics
    );
}

#[test]
fn query_path_scoping_follows_the_query_module() {
    let fixture = include_str!("fixtures/query_path_violation.rs");
    let report = analyze(&[("crates/store/src/query.rs", fixture)]);
    assert_eq!(
        findings(&report),
        vec![
            (7, RULE_PANIC),
            (8, RULE_PANIC),
            (14, RULE_PANIC),
            (14, RULE_PANIC),
            (15, RULE_PANIC),
        ],
        "expected every seed to fire — the read-side module is covered \
         wall to wall, whatever the function is called: {:#?}",
        report.diagnostics
    );
    let report = analyze(&[("crates/store/src/store.rs", fixture)]);
    assert_eq!(
        findings(&report),
        vec![],
        "the identical shapes in `store.rs` are write-path and stay silent: {:#?}",
        report.diagnostics
    );
}

#[test]
fn server_crate_is_wholly_on_the_serving_path_contract() {
    let report = analyze(&[(
        "crates/server/src/conn_fixture.rs",
        include_str!("fixtures/server_violation.rs"),
    )]);
    assert_eq!(
        findings(&report),
        vec![
            (6, RULE_PANIC),
            (10, RULE_PANIC),
            (11, RULE_LOCK),
            (11, RULE_PANIC),
        ],
        "expected write_all under the connection mutex plus the three \
         panic seeds: {:#?}",
        report.diagnostics
    );
}

#[test]
fn binio_framing_fires_on_seeded_spans_only() {
    let report = analyze(&[(
        "crates/core/src/framing_fixture.rs",
        include_str!("fixtures/framing_violation.rs"),
    )]);
    let got = findings(&report);
    assert_eq!(
        got,
        vec![(9, RULE_FRAMING), (23, RULE_FRAMING), (30, RULE_FRAMING)],
        "expected the orphan writer, version-unchecked reader, and \
         verifier-less CRC producer seeds: {:#?}",
        report.diagnostics
    );
}

#[test]
fn crash_coverage_fires_on_seeded_spans_only() {
    let report = analyze(&[
        (
            "crates/store/src/crash_fixture.rs",
            include_str!("fixtures/crash_violation.rs"),
        ),
        (
            "crates/store/tests/store_crash_matrix.rs",
            include_str!("fixtures/crash_matrix_fixture.rs"),
        ),
    ]);
    assert_eq!(
        findings(&report),
        vec![(10, RULE_CRASH), (24, RULE_CRASH)],
        "expected the unlabelled publish and the stray label seeds: {:#?}",
        report.diagnostics
    );
}

#[test]
fn vfs_discipline_fires_on_seeded_spans_only() {
    let report = analyze(&[(
        "crates/store/src/vfs_fixture.rs",
        include_str!("fixtures/vfs_violation.rs"),
    )]);
    assert_eq!(
        findings(&report),
        vec![(9, RULE_VFS), (13, RULE_VFS), (17, RULE_VFS)],
        "expected the direct fs::/File::/OpenOptions:: seeds only (the \
         vfs-routed call, the justified allow, and the test mod are \
         clean): {:#?}",
        report.diagnostics
    );
    let allow = report
        .allows
        .iter()
        .find(|a| a.rule == RULE_VFS)
        .expect("the vfs-discipline allow must be recorded");
    assert_eq!(allow.uses, 1, "the allow must suppress the metadata probe");
}

#[test]
fn allows_suppress_and_are_recorded() {
    let report = analyze(&[(
        "crates/store/src/wal.rs",
        include_str!("fixtures/allow_suppression.rs"),
    )]);
    // The two justified allows suppress their findings; the only remaining
    // diagnostics are allow-discipline complaints about the unjustified
    // (and therefore also unused) allow on line 16.
    for d in &report.diagnostics {
        assert_eq!(d.rule, RULE_ALLOW, "unexpected finding: {d:?}");
        assert_eq!(d.line, 16, "unexpected finding: {d:?}");
    }
    assert!(
        !report.diagnostics.is_empty(),
        "the empty-justification allow must be reported"
    );
    let used: Vec<(u32, usize)> = report.allows.iter().map(|a| (a.line, a.uses)).collect();
    assert!(
        used.contains(&(6, 1)) && used.contains(&(10, 1)),
        "both justified allows must be recorded with one use each: {used:?}"
    );
}

#[test]
fn live_workspace_is_clean() {
    // The canonical acceptance check, as a test: the real workspace must
    // analyse clean (every surviving finding is either fixed or carries a
    // justified allow).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let report = rules::check_workspace(root).expect("workspace walk");
    assert!(
        report.is_clean(),
        "the workspace must pass its own invariant checker: {:#?}",
        report.diagnostics
    );
    assert!(
        report.files_scanned > 40,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    for allow in &report.allows {
        assert!(
            !allow.justification.is_empty() && allow.uses > 0,
            "allow without justification or use survived: {allow:?}"
        );
    }
}
