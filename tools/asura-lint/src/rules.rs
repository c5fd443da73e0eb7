//! The rule catalog: each rule is a name, a path scope, and a token-level
//! check. The scopes encode *where the invariant lives* — the same token
//! that is a violation inside a kernel is fine in a bench harness — and
//! every scope is documented next to the contract it enforces (see
//! `## Static invariants & lint` in ROADMAP.md).

use crate::engine::{FileModel, Finding};
use crate::lexer::TokKind;

/// One lint rule.
pub struct Rule {
    pub name: &'static str,
    pub description: &'static str,
    /// Glob patterns (repo-relative, `/`-separated) the rule applies to.
    pub include: &'static [&'static str],
    /// Paths carved back out of `include` (the rule's allowed sites).
    pub exclude: &'static [&'static str],
    pub check: fn(&FileModel) -> Vec<Finding>,
}

/// The full rule set, in report order.
pub fn all_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "atomic-io",
            description: "every persisted byte of run state goes through \
                          core::ckpt::atomic_write (tmp → fsync → rename); \
                          no std::fs::write / File::create outside core::ckpt",
            include: &["crates/core/src/**", "crates/mpisim/src/**", "src/**"],
            exclude: &["crates/core/src/ckpt.rs"],
            check: check_atomic_io,
        },
        Rule {
            name: "no-fma",
            description: "no mul_add / FMA intrinsics in the deterministic \
                          kernels — FMA contracts a rounding step and breaks \
                          the bitwise snapshot contract",
            include: &[
                "crates/gravity/**",
                "crates/lanes/**",
                "crates/sph/**",
                "crates/unet/src/gemm.rs",
                "crates/unet/src/conv.rs",
                "crates/surrogate/src/voxel.rs",
                "crates/surrogate/src/encode.rs",
            ],
            exclude: &[],
            check: check_no_fma,
        },
        Rule {
            name: "safety-comment",
            description: "every `unsafe` block, fn, or impl is preceded by a \
                          `// SAFETY:` comment stating the discharged proof \
                          obligation",
            include: &["**"],
            exclude: &[],
            check: check_safety_comment,
        },
        Rule {
            name: "no-panic-daemon",
            description: "no unwrap/expect/panic!/unreachable! in the serve \
                          daemon, supervisor, protocol/fault parsers, the \
                          checkpoint store, or the decoders they reach (the \
                          snapshot codec, the json crate, the weights \
                          document) — malformed input must be a typed error, \
                          never a crashed fleet",
            include: &[
                "crates/core/src/serve.rs",
                "crates/core/src/supervise.rs",
                "crates/core/src/faults.rs",
                "crates/core/src/ckpt.rs",
                "crates/core/src/snapshot.rs",
                "crates/json/src/**",
                "crates/surrogate/src/model.rs",
            ],
            exclude: &[],
            check: check_no_panic,
        },
        Rule {
            name: "no-wallclock-determinism",
            description: "no Instant::now / SystemTime::now in the step loop, \
                          snapshot codecs, or kernels — timing belongs in the \
                          driver's phase-timer layer",
            include: &[
                "crates/core/src/sim.rs",
                "crates/core/src/dist.rs",
                "crates/core/src/forces.rs",
                "crates/core/src/step.rs",
                "crates/core/src/snapshot.rs",
                "crates/core/src/ckpt.rs",
                "crates/core/src/scheduler.rs",
                "crates/gravity/src/**",
                "crates/lanes/src/**",
                "crates/sph/src/**",
                "crates/fdps/src/**",
                "crates/unet/src/**",
                "crates/surrogate/src/**",
            ],
            exclude: &[],
            check: check_no_wallclock,
        },
        Rule {
            name: "ordered-iteration",
            description: "no HashMap/HashSet in snapshot, manifest, or \
                          JSON-rendering paths — iteration order must not \
                          depend on the hasher (use BTreeMap/Vec, or suppress \
                          with a lookup-only reason)",
            include: &[
                "crates/core/src/sim.rs",
                "crates/core/src/dist.rs",
                "crates/core/src/step.rs",
                "crates/core/src/snapshot.rs",
                "crates/core/src/ckpt.rs",
                "crates/core/src/diagnostics.rs",
                "crates/core/src/serve.rs",
                "crates/core/src/supervise.rs",
                "crates/json/src/**",
                "crates/surrogate/src/model.rs",
            ],
            exclude: &[],
            check: check_ordered_iteration,
        },
        Rule {
            name: "no-exact-audit-live",
            description: "no total_energy_of(…) / .total_energy() on the \
                          per-step live path (diagnostics samples, daemon, \
                          supervisor, the run loop) — the exact audit is \
                          O(N²); live readers use Simulation::live_energy",
            include: &[
                "crates/core/src/diagnostics.rs",
                "crates/core/src/serve.rs",
                "crates/core/src/supervise.rs",
                "src/bin/asura.rs",
            ],
            exclude: &[],
            check: check_no_exact_audit_live,
        },
        Rule {
            name: "one-json-writer",
            description: "no escaped JSON key (`\\\":`) inside a string literal — \
                          documents, protocol replies and bench results \
                          (bench::BenchDoc) are built as json::Json values and \
                          rendered by its one writer, which keeps integers \
                          integers and escapes strings",
            include: &[
                "crates/core/src/**",
                "crates/surrogate/src/**",
                "src/**",
                "crates/bench/**",
                "benches/**",
                "tools/bench-gate/src/**",
                "crates/unet/src/**",
                "crates/json/src/**",
            ],
            exclude: &[],
            check: check_one_json_writer,
        },
    ]
}

fn finding(rule: &'static str, model: &FileModel, line: usize, message: String) -> Finding {
    Finding {
        rule,
        path: model.path.clone(),
        line,
        message,
    }
}

/// `fs::write(…)` or `File::create(…)` — including `std::fs::write`.
fn check_atomic_io(model: &FileModel) -> Vec<Finding> {
    let toks = &model.lexed.tokens;
    let mut out = Vec::new();
    for i in 2..toks.len() {
        let qualified = |head: &str| {
            toks[i - 1].text == ":" && toks[i - 2].text == ":" && i >= 3 && {
                toks[i - 3].text == head
            }
        };
        if toks[i].text == "write" && qualified("fs") {
            out.push(finding(
                "atomic-io",
                model,
                toks[i].line,
                "`fs::write` bypasses the atomic tmp→fsync→rename discipline — \
                 route this through `core::ckpt::atomic_write`"
                    .into(),
            ));
        }
        if toks[i].text == "create" && qualified("File") {
            out.push(finding(
                "atomic-io",
                model,
                toks[i].line,
                "bare `File::create` can leave a half-written file under a \
                 committed name — route this through `core::ckpt::atomic_write`"
                    .into(),
            ));
        }
    }
    out
}

/// `mul_add` calls or any `*fmadd*` intrinsic identifier.
fn check_no_fma(model: &FileModel) -> Vec<Finding> {
    model
        .lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .filter(|t| t.text == "mul_add" || t.text.contains("fmadd"))
        .map(|t| {
            finding(
                "no-fma",
                model,
                t.line,
                format!(
                    "`{}` fuses a multiply-add into one rounding — the kernels' \
                     bitwise snapshot contract requires exactly-rounded ops only \
                     (see ROADMAP `## Kernel determinism`)",
                    t.text
                ),
            )
        })
        .collect()
}

/// Every `unsafe` token needs a `SAFETY:` comment on its own line or in
/// the contiguous comment/attribute block directly above it.
fn check_safety_comment(model: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    for t in &model.lexed.tokens {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if has_safety_comment(model, t.line) {
            continue;
        }
        out.push(finding(
            "safety-comment",
            model,
            t.line,
            "`unsafe` without a `// SAFETY:` comment — state the proof \
             obligation this site discharges on the line(s) above"
                .into(),
        ));
    }
    out
}

fn has_safety_comment(model: &FileModel, line: usize) -> bool {
    let contains = |l: usize| {
        model
            .lexed
            .comment_on(l)
            .is_some_and(|c| c.contains("SAFETY:"))
    };
    if contains(line) {
        return true;
    }
    // Walk up through the contiguous block of comment / attribute /
    // blank-prefix lines above the unsafe site.
    let mut l = line;
    while l > 1 {
        l -= 1;
        let text = model.line_text(l);
        let trimmed = text.trim_start();
        let is_comment = trimmed.starts_with("//") || trimmed.starts_with("/*") || contains(l);
        let is_attr = trimmed.starts_with("#[") || trimmed.starts_with("#![");
        if is_comment {
            if contains(l) {
                return true;
            }
            continue;
        }
        if is_attr {
            continue;
        }
        break;
    }
    false
}

/// `.unwrap()` / `.expect(…)` method calls and panicking macros.
fn check_no_panic(model: &FileModel) -> Vec<Finding> {
    let toks = &model.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].text == ".";
        let next_bang = toks.get(i + 1).is_some_and(|n| n.text == "!");
        if (t.text == "unwrap" || t.text == "expect") && prev_dot {
            out.push(finding(
                "no-panic-daemon",
                model,
                t.line,
                format!(
                    "`.{}()` in a daemon/supervisor path — a malformed input or \
                     lost invariant must surface as a typed error, not kill the \
                     fleet",
                    t.text
                ),
            ));
        }
        if next_bang
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            out.push(finding(
                "no-panic-daemon",
                model,
                t.line,
                format!(
                    "`{}!` in a daemon/supervisor path — return an error",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `Instant::now` / `SystemTime::now` token triples.
fn check_no_wallclock(model: &FileModel) -> Vec<Finding> {
    let toks = &model.lexed.tokens;
    let mut out = Vec::new();
    for i in 3..toks.len() {
        if toks[i].text == "now"
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && (toks[i - 3].text == "Instant" || toks[i - 3].text == "SystemTime")
        {
            out.push(finding(
                "no-wallclock-determinism",
                model,
                toks[i].line,
                format!(
                    "`{}::now()` inside a deterministic path — wall-clock reads \
                     belong in the driver's phase-timer layer only",
                    toks[i - 3].text
                ),
            ));
        }
    }
    out
}

/// Any `HashMap` / `HashSet` identifier in an order-sensitive path.
fn check_ordered_iteration(model: &FileModel) -> Vec<Finding> {
    model
        .lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .filter(|t| t.text == "HashMap" || t.text == "HashSet")
        .map(|t| {
            finding(
                "ordered-iteration",
                model,
                t.line,
                format!(
                    "`{}` in a snapshot/manifest/JSON-rendering path — hasher \
                     iteration order can leak into persisted bytes; use \
                     BTreeMap/Vec, or suppress with a lookup-only reason",
                    t.text
                ),
            )
        })
        .collect()
}

/// `total_energy_of(` calls and `.total_energy(` method calls (the
/// `TimeSample::total_energy` *field* is never followed by a paren).
fn check_no_exact_audit_live(model: &FileModel) -> Vec<Finding> {
    let toks = &model.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || toks.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        let method = i > 0 && toks[i - 1].text == ".";
        if t.text == "total_energy_of" || (t.text == "total_energy" && method) {
            out.push(finding(
                "no-exact-audit-live",
                model,
                t.line,
                format!(
                    "`{}(…)` direct-sums all N² pairs — on the per-step live \
                     path read `Simulation::live_energy()` (the step's own tree \
                     potential) and leave the exact audit to tests and reports",
                    t.text
                ),
            ));
        }
    }
    out
}

/// A string literal that spells a JSON key by hand: `\":` in an ordinary
/// literal, `":` in a raw one. Reported at the line of the key, which for
/// a multi-line literal is not the line it opens on.
fn check_one_json_writer(model: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    for lit in &model.lexed.strings {
        let key_end = if lit.raw { "\":" } else { "\\\":" };
        for (at, _) in lit.text.match_indices(key_end) {
            out.push(finding(
                "one-json-writer",
                model,
                lit.line + lit.text[..at].matches('\n').count(),
                "a JSON key spelled inside a string literal — build the \
                 document as a `json::Json` value (`Json::obj`, \
                 `.into()`) and let `render()` write it"
                    .into(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileModel;

    fn model(path: &str, src: &str) -> FileModel {
        FileModel::parse(path.to_string(), src)
    }

    #[test]
    fn atomic_io_catches_qualified_and_bare_forms() {
        let m = model(
            "crates/core/src/sim.rs",
            "fn f() { std::fs::write(p, b).unwrap(); let g = File::create(p); }",
        );
        let f = check_atomic_io(&m);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn atomic_io_ignores_unrelated_writes() {
        let m = model(
            "crates/core/src/sim.rs",
            "fn f(w: &mut dyn Write) { w.write(b).ok(); store.write_all(b); }",
        );
        assert!(check_atomic_io(&m).is_empty());
    }

    #[test]
    fn no_fma_catches_method_and_intrinsic() {
        let m = model(
            "crates/gravity/src/kernel.rs",
            "fn f(a: f64) -> f64 { let v = _mm256_fmadd_pd(x, y, z); a.mul_add(2.0, 1.0) }",
        );
        assert_eq!(check_no_fma(&m).len(), 2);
    }

    #[test]
    fn safety_comment_walks_over_attributes() {
        let src = "// SAFETY: feature checked by the dispatcher.\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   pub unsafe fn body() {}\n";
        assert!(check_safety_comment(&model("a.rs", src)).is_empty());
    }

    #[test]
    fn safety_comment_missing_is_flagged() {
        let src = "fn f() {\n    let x = unsafe { *p };\n}\n";
        let f = check_safety_comment(&model("a.rs", src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_does_not_leak_across_code_lines() {
        // A SAFETY comment above *other code* must not cover a later
        // unsafe block.
        let src = "// SAFETY: covers only the next line.\n\
                   let a = 1;\n\
                   let x = unsafe { *p };\n";
        assert_eq!(check_safety_comment(&model("a.rs", src)).len(), 1);
    }

    #[test]
    fn no_panic_distinguishes_unwrap_or() {
        let m = model(
            "crates/core/src/serve.rs",
            "fn f() { x.unwrap_or(0); y.unwrap_or_else(id); z.expect_err(\"e\"); }",
        );
        assert!(check_no_panic(&m).is_empty());
        let m = model(
            "crates/core/src/serve.rs",
            "fn f() { x.unwrap(); panic!(\"b\"); }",
        );
        assert_eq!(check_no_panic(&m).len(), 2);
    }

    #[test]
    fn wallclock_catches_both_clocks() {
        let m = model(
            "crates/core/src/sim.rs",
            "fn f() { let a = Instant::now(); let b = std::time::SystemTime::now(); }",
        );
        assert_eq!(check_no_wallclock(&m).len(), 2);
    }

    #[test]
    fn exact_audit_catches_calls_but_not_the_sample_field() {
        let m = model(
            "crates/core/src/diagnostics.rs",
            "fn f(sim: &Simulation) -> f64 { sim.total_energy() + total_energy_of(&sim.particles, 1.0) }",
        );
        assert_eq!(check_no_exact_audit_live(&m).len(), 2);
        let m = model(
            "crates/core/src/diagnostics.rs",
            "use crate::sim::total_energy_of; fn f(s: &TimeSample, sim: &Simulation) -> f64 { s.total_energy + sim.live_energy() }",
        );
        assert!(check_no_exact_audit_live(&m).is_empty());
    }

    #[test]
    fn one_json_writer_catches_escaped_and_raw_keys_on_their_own_lines() {
        let src = "fn f(id: &str) -> String {\n    format!(\n        \"{{\\\"ok\\\":true,\\\n         \\\"id\\\":{id}}}\"\n    ) + r#\"{\"k\":1}\"#\n}\n";
        let found = check_one_json_writer(&model("crates/core/src/serve.rs", src));
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 4, 5], "{src}");
    }

    #[test]
    fn one_json_writer_ignores_quotes_and_colons_that_are_not_keys() {
        let src = "fn f() { let a = \"say \\\"hi\\\" then: go\"; let b = \"k:v\"; let c = (\"ok\", true); }";
        assert!(check_one_json_writer(&model("src/bin/asura.rs", src)).is_empty());
    }

    #[test]
    fn ordered_iteration_catches_both_collections() {
        let m = model(
            "crates/core/src/snapshot.rs",
            "use std::collections::{HashMap, HashSet};",
        );
        assert_eq!(check_ordered_iteration(&m).len(), 2);
    }
}
