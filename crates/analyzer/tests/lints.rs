//! Fixture-driven integration tests for `seccloud-lint`.
//!
//! Each bad fixture in `tests/fixtures/` must trip exactly its rule, both
//! through the library API and through the compiled binary (nonzero exit).
//! The clean fixture must be silent, and so must the real workspace tree.

use std::path::{Path, PathBuf};
use std::process::Command;

use analyzer::{lint_single_file, render_json, Report};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Report {
    lint_single_file(&fixture_path(name)).expect("fixture readable")
}

fn rules_hit(report: &Report) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

fn run_binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_seccloud-lint"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn panic_fixture_trips_panic_rule() {
    let report = lint_fixture("panic.rs");
    assert_eq!(rules_hit(&report), ["panic"]);
    // unwrap + expect + panic! + unreachable!
    assert_eq!(report.findings.len(), 4);
}

#[test]
fn index_fixture_trips_index_rule() {
    let report = lint_fixture("index.rs");
    assert_eq!(rules_hit(&report), ["index"]);
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn secret_fixture_trips_secret_and_taint_rules() {
    let report = lint_fixture("secret.rs");
    // Debug derive + missing Drop fire `secret`; the format-site leak is
    // now interprocedural and fires `taint`.
    assert_eq!(rules_hit(&report), ["secret", "taint"]);
    assert!(
        report.findings.len() >= 3,
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn taint_fixture_trips_taint_rule() {
    let report = lint_fixture("taint_bad.rs");
    assert_eq!(rules_hit(&report), ["taint"], "{:?}", report.findings);
    // The laundered scalar reaches a wire-encode sink and a format sink.
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("wire-encode")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("format")), "{msgs:?}");
}

#[test]
fn taint_clean_fixture_is_silent() {
    let report = lint_fixture("taint_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn panic_path_fixture_trips_panic_and_panic_path() {
    let report = lint_fixture("panic_path_bad.rs");
    // The `.unwrap()` itself is a `panic` finding; both callers that
    // reach it transitively are `panic_path` findings.
    assert_eq!(rules_hit(&report), ["panic", "panic_path"]);
    let paths: Vec<&_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "panic_path")
        .collect();
    assert_eq!(paths.len(), 2, "{:?}", report.findings);
    // The witness chain names the panic source.
    assert!(
        paths.iter().all(|f| f.message.contains("unwrap")),
        "{paths:?}"
    );
}

#[test]
fn panic_path_clean_fixture_is_silent() {
    let report = lint_fixture("panic_path_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn bare_call_prefers_the_local_fn_over_a_foreign_namesake() {
    // Two crates each define `fn setup`; only the foreign one panics. The
    // protocol root calling its own `setup` must not inherit that panic,
    // while a bare call with no local target still resolves across crates.
    let local = "pub fn run_protocol() -> u8 { setup() }\n\
                 fn setup() -> u8 { 1 }\n\
                 pub fn run_imported() -> u8 { remote_only() }\n";
    let foreign = "pub fn setup() -> u8 { panic!(\"boom\") }\n\
                   pub fn remote_only() -> u8 { panic!(\"boom\") }\n";
    let report = analyzer::lint_files(
        &[
            ("crates/core/src/proto.rs".into(), local.into()),
            ("crates/net/src/boot.rs".into(), foreign.into()),
        ],
        false,
    );
    let paths: Vec<(&str, u32)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "panic_path")
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        paths,
        [("crates/core/src/proto.rs", 3)],
        "{:?}",
        report.findings
    );
}

#[test]
fn arith_fixture_trips_arith_rule() {
    let report = lint_fixture("arith_bad.rs");
    assert_eq!(rules_hit(&report), ["arith"], "{:?}", report.findings);
    // `1usize << s` and `t * scale`.
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
}

#[test]
fn arith_clean_fixture_is_silent() {
    let report = lint_fixture("arith_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn dispatch_fixture_trips_dispatch_rule() {
    let report = lint_fixture("dispatch_bad.rs");
    assert_eq!(rules_hit(&report), ["dispatch"], "{:?}", report.findings);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0].message.contains("WireError"));
}

#[test]
fn dispatch_clean_fixture_is_silent() {
    let report = lint_fixture("dispatch_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn ct_fixture_trips_ct_rule() {
    let report = lint_fixture("ct.rs");
    assert_eq!(rules_hit(&report), ["ct"]);
    assert_eq!(report.findings.len(), 3);
}

#[test]
fn unsafe_fixture_trips_unsafe_rule() {
    let report = lint_fixture("unsafe.rs");
    assert_eq!(rules_hit(&report), ["unsafe"]);
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn transport_fixture_trips_transport_rule() {
    let report = lint_fixture("transport.rs");
    assert_eq!(rules_hit(&report), ["transport"]);
    // `WireTransport` bound + `WireServer` construction.
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn clean_fixture_is_silent_and_reports_allowance() {
    let report = lint_fixture("clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
    // The one `lint: allow(panic, ...)` escape hatch must be surfaced.
    assert_eq!(report.allowances.len(), 1);
    assert_eq!(report.allowances[0].rule, "panic");
    assert!(report.allowances[0].reason.contains("escape hatch"));
}

#[test]
fn ctflow_fixture_trips_ctflow_rule() {
    let report = lint_fixture("ctflow_bad.rs");
    assert_eq!(rules_hit(&report), ["ctflow"], "{:?}", report.findings);
    // `==` comparison, `match` on concrete values, loop bound.
    assert_eq!(report.findings.len(), 3, "{:?}", report.findings);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("comparison")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("match")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("loop bound")), "{msgs:?}");
}

#[test]
fn ctflow_clean_fixture_is_silent_with_declassify_allowance() {
    let report = lint_fixture("ctflow_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
    // The one `lint: declassify(...)` must surface as a ctflow allowance.
    assert_eq!(report.allowances.len(), 1, "{:?}", report.allowances);
    assert_eq!(report.allowances[0].rule, "ctflow");
    assert!(report.allowances[0].reason.contains("parity"));
}

#[test]
fn vartime_fixture_trips_vartime_rule() {
    let report = lint_fixture("vartime_bad.rs");
    assert_eq!(rules_hit(&report), ["vartime"], "{:?}", report.findings);
    // Direct call into the primitive + the transitive path through `normalize`.
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("primitive `modinv_vartime`")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("path `normalize`")),
        "{msgs:?}"
    );
}

#[test]
fn vartime_clean_fixture_is_silent() {
    let report = lint_fixture("vartime_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn atomics_fixture_trips_atomics_rule() {
    let report = lint_fixture("atomics_bad.rs");
    assert_eq!(rules_hit(&report), ["atomics"], "{:?}", report.findings);
    // Two unannotated ordering sites + the Relaxed RMW escalation.
    assert_eq!(report.findings.len(), 3, "{:?}", report.findings);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("read-modify-write")),
        "{msgs:?}"
    );
}

#[test]
fn atomics_clean_fixture_is_silent_with_ordering_allowances() {
    let report = lint_fixture("atomics_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
    assert_eq!(report.allowances.len(), 3, "{:?}", report.allowances);
    assert!(report.allowances.iter().all(|a| a.rule == "atomics"));
}

#[test]
fn locks_fixture_trips_locks_rule() {
    let report = lint_fixture("locks_bad.rs");
    assert_eq!(rules_hit(&report), ["locks"], "{:?}", report.findings);
    // One elementary cycle: `Pair.a → Pair.b → Pair.a`.
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let msg = &report.findings[0].message;
    assert!(msg.contains("lock-order cycle"), "{msg}");
    // The cross-function edge names the helper it goes through, and every
    // edge carries a file:line witness.
    assert!(msg.contains("via `with_b`"), "{msg}");
    assert!(msg.contains("`Pair::backward`"), "{msg}");
    assert!(msg.contains("locks_bad.rs:"), "{msg}");
}

#[test]
fn locks_clean_fixture_is_silent() {
    let report = lint_fixture("locks_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn blocking_fixture_trips_blocking_rule() {
    let report = lint_fixture("blocking_bad.rs");
    assert_eq!(rules_hit(&report), ["blocking"], "{:?}", report.findings);
    // Pairing and a weighted GT fold under bound guards + sleep on a
    // guard-extending temporary.
    assert_eq!(report.findings.len(), 3, "{:?}", report.findings);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    for entry in ["miller_loop", "weighted_product_gt"] {
        assert!(
            msgs.iter()
                .any(|m| m.contains(entry) && m.contains("pairing computation")),
            "{entry}: {msgs:?}"
        );
    }
    assert!(
        msgs.iter()
            .any(|m| m.contains("sleep") && m.contains("while holding `State.inner`")),
        "{msgs:?}"
    );
}

#[test]
fn blocking_clean_fixture_is_silent_with_lock_allowance() {
    let report = lint_fixture("blocking_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
    // The one justified `lint: lock(...)` surfaces as a blocking allowance.
    assert_eq!(report.allowances.len(), 1, "{:?}", report.allowances);
    assert_eq!(report.allowances[0].rule, "blocking");
    assert!(report.allowances[0].reason.contains("serialization point"));
}

#[test]
fn deadline_fixture_trips_deadline_rule() {
    let report = lint_fixture("deadline_bad.rs");
    assert_eq!(rules_hit(&report), ["deadline"], "{:?}", report.findings);
    // Direct un-deadlined write + the read obligation propagated out of
    // the generic `read_header` helper to the call site.
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("no write deadline")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("flows into `read_header`") && m.contains("no read deadline")),
        "{msgs:?}"
    );
}

#[test]
fn deadline_clean_fixture_is_silent() {
    let report = lint_fixture("deadline_clean.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn binary_fails_on_each_bad_fixture() {
    for name in [
        "panic.rs",
        "index.rs",
        "secret.rs",
        "ct.rs",
        "unsafe.rs",
        "transport.rs",
        "taint_bad.rs",
        "panic_path_bad.rs",
        "arith_bad.rs",
        "dispatch_bad.rs",
        "ctflow_bad.rs",
        "vartime_bad.rs",
        "atomics_bad.rs",
        "locks_bad.rs",
        "blocking_bad.rs",
        "deadline_bad.rs",
    ] {
        let path = fixture_path(name);
        let out = run_binary(&[path.to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name} should exit 1: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_passes_on_clean_fixtures() {
    for name in [
        "clean.rs",
        "taint_clean.rs",
        "panic_path_clean.rs",
        "arith_clean.rs",
        "dispatch_clean.rs",
        "ctflow_clean.rs",
        "vartime_clean.rs",
        "atomics_clean.rs",
        "locks_clean.rs",
        "blocking_clean.rs",
        "deadline_clean.rs",
    ] {
        let path = fixture_path(name);
        let out = run_binary(&[path.to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} should exit 0: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_baseline_emits_findings_and_allowances() {
    let path = fixture_path("ct.rs");
    let out = run_binary(&["--baseline", path.to_str().unwrap()]);
    // Baseline mode always exits 0 — it reports, it does not gate.
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"findings\""), "stdout: {stdout}");
    assert!(stdout.contains("\"allowances\""), "stdout: {stdout}");
    assert!(stdout.contains("\"rule\":\"ct\""), "stdout: {stdout}");
    assert!(stdout.contains("\"line\""), "stdout: {stdout}");
}

#[test]
fn binary_format_sarif_emits_sarif_and_still_gates() {
    let path = fixture_path("dispatch_bad.rs");
    let out = run_binary(&["--format", "sarif", path.to_str().unwrap()]);
    // SARIF changes the output shape, not the exit contract.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"version\": \"2.1.0\""),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("\"ruleId\": \"dispatch\""),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"startLine\""), "stdout: {stdout}");
}

#[test]
fn binary_rejects_unknown_format() {
    let out = run_binary(&["--format", "xml"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn binary_rejects_bad_usage() {
    let out = run_binary(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn workspace_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyzer::lint_workspace(&root).expect("workspace readable");
    assert!(
        report.findings.is_empty(),
        "workspace findings:\n{}",
        render_json(&report)
    );
    // Every allowance in the tree must carry a reason.
    for a in &report.allowances {
        assert!(!a.reason.is_empty(), "allowance without reason: {a:?}");
    }
}
