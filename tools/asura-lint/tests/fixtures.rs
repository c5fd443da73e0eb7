//! Fixture suite for `asura-lint`: drives the real binary over the
//! violation/clean trees under `tests/fixtures/` (which the workspace
//! walker deliberately skips) and over the live workspace itself.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_lint(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asura-lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("asura-lint binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Assert the report has a findings-table row for `rule` at `path`.
fn assert_finding(report: &str, rule: &str, path: &str) {
    let needle = format!("| `{rule}` | `{path}");
    assert!(
        report.contains(&needle),
        "expected a `{rule}` finding at {path} in:\n{report}"
    );
}

#[test]
fn bad_tree_trips_every_rule() {
    let out = run_lint(&crate_dir().join("tests/fixtures/bad"));
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let report = stdout(&out);
    assert_finding(&report, "atomic-io", "crates/core/src/state.rs:4");
    assert_finding(&report, "atomic-io", "crates/core/src/state.rs:5");
    assert_finding(&report, "no-fma", "crates/gravity/src/kernel.rs:3");
    assert_finding(&report, "no-fma", "crates/unet/src/conv.rs:8");
    assert_finding(&report, "no-fma", "crates/lanes/src/lib.rs:7");
    assert_finding(&report, "no-fma", "crates/surrogate/src/voxel.rs:4");
    assert_finding(&report, "no-fma", "crates/surrogate/src/encode.rs:3");
    assert_finding(&report, "safety-comment", "crates/gravity/src/simd.rs:3");
    assert_finding(&report, "no-panic-daemon", "crates/core/src/serve.rs:3");
    assert_finding(&report, "no-panic-daemon", "crates/core/src/serve.rs:5");
    assert_finding(&report, "no-panic-daemon", "crates/core/src/ckpt.rs:4");
    assert_finding(&report, "no-panic-daemon", "crates/json/src/json.rs:4");
    assert_finding(
        &report,
        "no-wallclock-determinism",
        "crates/core/src/sim.rs:5",
    );
    assert_finding(
        &report,
        "no-wallclock-determinism",
        "crates/core/src/forces.rs:5",
    );
    assert_finding(
        &report,
        "ordered-iteration",
        "crates/core/src/snapshot.rs:2",
    );
    assert_finding(
        &report,
        "no-exact-audit-live",
        "crates/core/src/diagnostics.rs:4",
    );
    assert_finding(
        &report,
        "no-exact-audit-live",
        "crates/core/src/diagnostics.rs:5",
    );
    assert_finding(&report, "one-json-writer", "crates/core/src/supervise.rs:4");
    assert_finding(&report, "one-json-writer", "crates/core/src/supervise.rs:8");
    assert_finding(
        &report,
        "one-json-writer",
        "crates/surrogate/src/model.rs:5",
    );
    assert_finding(
        &report,
        "one-json-writer",
        "crates/surrogate/src/model.rs:6",
    );
    assert_finding(
        &report,
        "one-json-writer",
        "crates/bench/benches/blockstep.rs:4",
    );
    assert_finding(&report, "one-json-writer", "crates/unet/src/tensor.rs:4");
    // The reasonless suppression in sim.rs is itself a finding and does
    // NOT silence the wall-clock read it sits above.
    assert_finding(&report, "lint-allow", "crates/core/src/sim.rs:4");
}

#[test]
fn clean_tree_is_clean_and_suppression_counts() {
    let out = run_lint(&crate_dir().join("tests/fixtures/clean"));
    let report = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean tree must exit 0:\n{report}"
    );
    assert!(report.contains("0 finding(s)"), "{report}");
    // The one reasoned suppression is reported, and marked used.
    assert!(
        report.contains("| `ordered-iteration` | `crates/core/src/sim.rs:8` | yes |"),
        "suppression row missing or unused:\n{report}"
    );
}

#[test]
fn scope_limits_where_rules_fire() {
    // The same unwrap is a violation in serve.rs and legal one directory
    // over: the rule binds to the path, not the code.
    let dir = std::env::temp_dir().join("asura-lint-scope-fixture");
    let _ = std::fs::remove_dir_all(&dir);
    let in_scope = dir.join("crates/core/src");
    std::fs::create_dir_all(&in_scope).unwrap();
    let code = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    std::fs::write(in_scope.join("serve.rs"), code).unwrap();
    std::fs::write(in_scope.join("elsewhere.rs"), code).unwrap();
    let out = run_lint(&dir);
    let report = stdout(&out);
    assert_eq!(out.status.code(), Some(1));
    assert_finding(&report, "no-panic-daemon", "crates/core/src/serve.rs:1");
    assert!(
        !report.contains("elsewhere.rs"),
        "out-of-scope file must not fire:\n{report}"
    );
}

#[test]
fn list_rules_prints_the_catalog() {
    let out = Command::new(env!("CARGO_BIN_EXE_asura-lint"))
        .arg("--list-rules")
        .output()
        .expect("asura-lint binary runs");
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for rule in [
        "atomic-io",
        "no-fma",
        "safety-comment",
        "no-panic-daemon",
        "no-wallclock-determinism",
        "ordered-iteration",
        "no-exact-audit-live",
        "one-json-writer",
    ] {
        assert!(text.contains(rule), "catalog missing {rule}:\n{text}");
    }
}

/// The acceptance bar: the shipped tree lints clean. Keeping this as a
/// test means `cargo test` alone catches a new violation even before CI's
/// dedicated job runs.
#[test]
fn self_lint_smoke() {
    let root = crate_dir()
        .parent()
        .and_then(Path::parent)
        .expect("workspace root exists")
        .to_path_buf();
    let out = run_lint(&root);
    let report = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must lint clean:\n{report}"
    );
    assert!(report.contains("No violations"), "{report}");
}
