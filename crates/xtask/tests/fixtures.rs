//! Fixture tests pinning the analyzer's exact behavior: each known-bad
//! snippet under `tests/fixtures/` must produce precisely the expected
//! `(lint, line)` findings under the workspace scoping, justification
//! markers must suppress, out-of-scope paths must stay silent, and the
//! clean fixture must produce zero findings under the *strictest* scoping.

use std::path::Path;
use xtask::{analyze_source, Config, Finding, R1Scope, R2Scope};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Reduce findings to comparable `(lint id, line)` pairs.
fn spans(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.lint.id(), f.line)).collect()
}

#[test]
fn d1_flags_every_container_including_tests_but_not_uses() {
    let src = fixture("d1_bad.rs");
    let f = analyze_source("crates/crf/src/gibbs.rs", &src, &Config::workspace());
    assert_eq!(spans(&f), vec![("D1", 6), ("D1", 14), ("D1", 25)]);
}

#[test]
fn d1_is_silent_outside_the_determinism_critical_scope() {
    let src = fixture("d1_bad.rs");
    let f = analyze_source("crates/bench/src/lib.rs", &src, &Config::workspace());
    assert_eq!(spans(&f), vec![]);
}

#[test]
fn d1_markers_suppress_only_with_a_justification() {
    let src = fixture("d1_justified.rs");
    let f = analyze_source("crates/stream/src/window.rs", &src, &Config::workspace());
    assert_eq!(
        spans(&f),
        vec![("D1", 19)],
        "empty `det-ok:` must not count"
    );
}

#[test]
fn d2_flags_clock_rng_and_env_but_not_tests_or_justified() {
    let src = fixture("d2_bad.rs");
    let f = analyze_source("crates/core/src/select.rs", &src, &Config::workspace());
    assert_eq!(
        spans(&f),
        vec![("D2", 5), ("D2", 10), ("D2", 15), ("D2", 20)]
    );
}

#[test]
fn d2_env_reads_are_allowed_in_the_config_layer() {
    let src = fixture("d2_bad.rs");
    let f = analyze_source("crates/core/src/config.rs", &src, &Config::workspace());
    assert_eq!(
        spans(&f),
        vec![("D2", 5), ("D2", 10), ("D2", 15)],
        "the env read drops out; the clock and rng findings stay"
    );
}

#[test]
fn r1_flags_panics_in_scoped_fns_only() {
    let src = fixture("r1_bad.rs");
    // wal.rs scopes exactly `open`/`read_frame`/`segment_lsn`: the
    // fixture's `helper` stays silent, the cfg(test) module too, and the
    // `panic-ok:` marker suppresses the justified indexing.
    let f = analyze_source("crates/durability/src/wal.rs", &src, &Config::workspace());
    assert_eq!(
        spans(&f),
        vec![("R1", 6), ("R1", 6), ("R1", 7), ("R1", 9)],
        "line 6 carries both the indexing and the unwrap finding"
    );
}

#[test]
fn r2_flags_unchecked_pub_mut_methods_on_revisioned_types() {
    let src = fixture("r2_bad.rs");
    let f = analyze_source("crates/crf/src/graph.rs", &src, &Config::workspace());
    assert_eq!(
        spans(&f),
        vec![("R2", 16)],
        "revision-evidence, rev-ok, &self, private, and foreign impls all pass"
    );
}

#[test]
fn serve_crate_carries_the_d1_and_r2_scopes() {
    let src = fixture("serve_scope.rs");
    // server.rs is both determinism-critical (D1) and revision-scoped for
    // `TruthServer` (R2): the HashMap field and the unchecked pub &mut
    // method are findings; the checked, justified, &self, and foreign-type
    // methods all pass.
    let f = analyze_source("crates/serve/src/server.rs", &src, &Config::workspace());
    assert_eq!(spans(&f), vec![("D1", 9), ("R2", 18)]);
    // The rest of serve/src is D1-only: TruthServer's R2 contract is
    // pinned to server.rs.
    let f = analyze_source("crates/serve/src/query.rs", &src, &Config::workspace());
    assert_eq!(spans(&f), vec![("D1", 9)]);
    // Integration tests are out of scope entirely.
    let f = analyze_source(
        "crates/serve/tests/serve_concurrent.rs",
        &src,
        &Config::workspace(),
    );
    assert_eq!(spans(&f), vec![]);
}

#[test]
fn u1_flags_unsafe_everywhere_outside_the_allowlist() {
    let src = fixture("u1_bad.rs");
    let f = analyze_source("crates/core/src/lib.rs", &src, &Config::workspace());
    assert_eq!(spans(&f), vec![("U1", 4), ("U1", 11)]);
    let f = analyze_source("crates/shims/rand/src/lib.rs", &src, &Config::workspace());
    assert_eq!(spans(&f), vec![], "the shim allowlist admits unsafe");
}

#[test]
fn clean_fixture_is_clean_under_the_strictest_scoping() {
    let src = fixture("clean.rs");
    let cfg = Config {
        d1_paths: vec!["fixtures/clean.rs".into()],
        d2_skip: vec![],
        d2_env_allow: vec![],
        r1: vec![R1Scope {
            path: "fixtures/clean.rs".into(),
            fns: None,
        }],
        r2: vec![R2Scope {
            path: "fixtures/clean.rs".into(),
            types: vec!["CrfModel".into()],
        }],
        unsafe_allow: vec![],
    };
    let f = analyze_source("fixtures/clean.rs", &src, &cfg);
    assert_eq!(spans(&f), vec![], "findings: {f:#?}");
}

/// The real workspace must analyze clean — the same gate CI applies via
/// `cargo xtask analyze`, enforced here so `cargo test` catches a newly
/// introduced violation even without the CI step.
#[test]
fn workspace_analyzes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let findings = xtask::analyze_workspace(&root, &Config::workspace()).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
