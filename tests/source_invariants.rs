//! The two source invariants clippy cannot state, scanned over the
//! workspace's non-test, non-comment source, and a pin on the
//! configuration that states the other six (ROADMAP "Static invariants &
//! lint"):
//!
//! - `no-fma`: no identifier containing `mul_add`, `fmadd`, `fmsub`,
//!   `fnmadd` or `fnmsub` in the kernel crates. A fused multiply-add
//!   drops a rounding step, and the bitwise snapshot contract needs
//!   exactly-rounded operations only.
//! - `one-json-writer`: no JSON key spelled inside a string literal (`\":`,
//!   or `":` in a raw literal) where documents, replies and bench results
//!   are written. They are `json::Json` values rendered by its one writer.
//!
//! Code inside `#[cfg(test)]` items is not scanned: golden bytes in tests
//! may spell keys.

use std::fs;
use std::path::{Path, PathBuf};

/// Where `no-fma` holds: a path ending in `/` is a directory, walked whole.
const NO_FMA: &[&str] = &[
    "crates/gravity/",
    "crates/lanes/",
    "crates/sph/",
    "crates/unet/src/gemm.rs",
    "crates/unet/src/conv.rs",
    "crates/surrogate/src/voxel.rs",
    "crates/surrogate/src/encode.rs",
];

/// Where `one-json-writer` holds.
const ONE_JSON_WRITER: &[&str] = &[
    "crates/core/src/",
    "crates/surrogate/src/",
    "src/",
    "crates/bench/",
    "benches/",
    "tools/bench-gate/src/",
    "crates/unet/src/",
    "crates/json/src/",
];

const FUSED: [&str; 5] = ["mul_add", "fmadd", "fmsub", "fnmadd", "fnmsub"];

/// One string literal: raw or not, the byte offset of its text in the
/// file, and the text between its quotes.
struct Lit {
    raw: bool,
    at: usize,
    text: String,
}

/// A source file reduced to what the scans read: `code` is the file with
/// comments and literals blanked (line breaks kept, so offsets and line
/// numbers hold), and `strings` the string literals outside test items.
struct Source {
    code: String,
    strings: Vec<Lit>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl Source {
    fn parse(src: &str) -> Source {
        let s = src.as_bytes();
        // A literal's prefix (`b"`, `br#"`, `b'`) may touch it; any other
        // identifier byte before `r` or `'` makes an identifier or lifetime.
        let starts_word = |k: usize| k == 0 || !is_ident(s[k - 1]);
        let prefixed = |k: usize| starts_word(k) || s[k - 1] == b'b' && starts_word(k - 1);
        let mut strings = Vec::new();
        let mut spans = Vec::new();
        let mut i = 0;
        while i < s.len() {
            let hashes = s[i + 1..].iter().take_while(|&&b| b == b'#').count();
            let end = if s[i..].starts_with(b"//") {
                s[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(s.len(), |n| i + n)
            } else if s[i..].starts_with(b"/*") {
                let (mut depth, mut j) = (0, i);
                while j < s.len() {
                    if s[j..].starts_with(b"/*") {
                        depth += 1;
                        j += 2;
                    } else if s[j..].starts_with(b"*/") {
                        depth -= 1;
                        j += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        j += 1;
                    }
                }
                j
            } else if s[i] == b'"' {
                let mut j = i + 1;
                while j < s.len() && s[j] != b'"' {
                    j += if s[j] == b'\\' { 2 } else { 1 };
                }
                strings.push((false, i + 1, j.min(s.len())));
                j + 1
            } else if s[i] == b'r' && prefixed(i) && s.get(i + 1 + hashes) == Some(&b'"') {
                let open = i + hashes + 2;
                let close = [&b"\""[..], &vec![b'#'; hashes]].concat();
                let j = s[open..]
                    .windows(close.len())
                    .position(|w| w == close)
                    .map_or(s.len(), |n| open + n);
                strings.push((true, open, j));
                j + close.len()
            } else if s[i] == b'\'' && prefixed(i) {
                // A char literal (`'x'`, `'\''`, `'"'`) or a lifetime.
                let len = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                if s.get(i + 1) == Some(&b'\\') {
                    s.iter()
                        .skip(i + 3)
                        .position(|&b| b == b'\'')
                        .map_or(s.len(), |n| i + n + 4)
                } else if s.get(i + 1 + len) == Some(&b'\'') {
                    i + len + 2
                } else {
                    i + 1
                }
            } else {
                i + 1
            };
            if end > i + 1 {
                spans.push((i, end.min(s.len())));
            }
            i = end.max(i + 1);
        }
        let mut code = blanked(src, &spans);
        let tests = test_items(&code);
        code = blanked(&code, &tests);
        let strings = strings
            .into_iter()
            .filter(|&(_, at, _)| !tests.iter().any(|&(a, b)| (a..b).contains(&at)))
            .map(|(raw, at, to)| Lit {
                raw,
                at,
                text: src[at..to].to_string(),
            })
            .collect();
        Source { code, strings }
    }

    fn line_of(&self, at: usize) -> usize {
        self.code[..at].matches('\n').count() + 1
    }

    /// `no-fma`: every identifier that names a fused multiply-add.
    fn fused(&self) -> Vec<(usize, String)> {
        self.code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|word| FUSED.iter().any(|f| word.contains(f)))
            .map(|word| {
                let at = word.as_ptr() as usize - self.code.as_ptr() as usize;
                (self.line_of(at), word.to_string())
            })
            .collect()
    }

    /// `one-json-writer`: the line of every key spelled in a literal.
    fn json_keys(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for lit in &self.strings {
            let key_end = if lit.raw { "\":" } else { "\\\":" };
            for (k, _) in lit.text.match_indices(key_end) {
                out.push(self.line_of(lit.at + k));
            }
        }
        out
    }
}

/// `text` with every byte in `spans` but line breaks turned to spaces.
/// The spans start and end at ASCII bytes, so the text stays UTF-8.
fn blanked(text: &str, spans: &[(usize, usize)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(a, b) in spans {
        for byte in &mut bytes[a..b] {
            if *byte != b'\n' {
                *byte = b' ';
            }
        }
    }
    String::from_utf8(bytes).expect("blanking keeps UTF-8")
}

/// The byte spans of `#[cfg(test)]` items in blanked `code`: from the
/// attribute to the end of the item it gates (its `;` or closing brace).
fn test_items(code: &str) -> Vec<(usize, usize)> {
    const ATTR: &str = "#[cfg(test)]";
    let s = code.as_bytes();
    let mut spans = Vec::new();
    for (start, _) in code.match_indices(ATTR) {
        let (mut depth, mut j) = (0i32, start + ATTR.len());
        while j < s.len() {
            match s[j] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' => depth -= 1,
                b'}' if depth <= 1 => {
                    j += usize::from(depth == 1);
                    break;
                }
                b'}' => depth -= 1,
                b';' if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((start, j.min(s.len())));
    }
    spans
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file a scope names, repo-relative. A scope entry that
/// names nothing fails: a moved file must not drop out of its rule.
fn files_in(scope: &[&str]) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("readable scope directory") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut found = Vec::new();
    for entry in scope {
        let path = root.join(entry);
        assert!(path.exists(), "scope entry `{entry}` names nothing");
        if entry.ends_with('/') {
            walk(&path, &mut found);
        } else {
            found.push(path);
        }
    }
    let mut out: Vec<String> = found
        .iter()
        .map(|p| p.strip_prefix(&root).unwrap().display().to_string())
        .collect();
    out.sort();
    out
}

fn parse_file(rel: &str) -> Source {
    Source::parse(&fs::read_to_string(repo_root().join(rel)).expect(rel))
}

#[test]
fn the_workspace_source_keeps_both_invariants() {
    let mut findings = Vec::new();
    for rel in files_in(NO_FMA) {
        for (line, word) in parse_file(&rel).fused() {
            findings.push(format!(
                "no-fma {rel}:{line}: `{word}` fuses a rounding step"
            ));
        }
    }
    for rel in files_in(ONE_JSON_WRITER) {
        for line in parse_file(&rel).json_keys() {
            findings.push(format!(
                "one-json-writer {rel}:{line}: a JSON key spelled in a string \
                 literal; build a `json::Json` value and `render()` it"
            ));
        }
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

#[test]
fn no_fma_catches_the_whole_fused_family() {
    for word in [
        "mul_add",
        "_mm256_fmadd_pd",
        "_mm256_fmsub_pd",
        "_mm256_fnmadd_ps",
        "_mm256_fnmsub_pd",
        "_mm256_fmaddsub_pd",
        "_mm256_fmsubadd_pd",
        "_mm_fmadd_sd",
        "_mm512_fmadd_pd",
        "_mm512_fnmsub_round_ps",
        "_mm512_mask3_fmsubadd_ps",
    ] {
        let src = format!("fn f() {{\n    let v = {word}(a, b, c);\n}}\n");
        assert_eq!(
            Source::parse(&src).fused(),
            [(2, word.to_string())],
            "{word}"
        );
    }
    let plain = "fn f(a: f64) -> f64 { let fma_free = a * 2.0 + 1.0; _mm256_add_pd(x, y) }";
    assert!(Source::parse(plain).fused().is_empty());
}

#[test]
fn one_json_writer_catches_escaped_and_raw_keys_on_their_own_lines() {
    let src = "fn f(id: &str) -> String {\n    format!(\n        \"{{\\\"ok\\\":true,\\\n         \\\"id\\\":{id}}}\"\n    ) + r#\"{\"k\":1}\"#\n}\n";
    assert_eq!(Source::parse(src).json_keys(), [3, 4, 5], "{src}");
}

#[test]
fn one_json_writer_ignores_quotes_and_colons_that_are_not_keys() {
    let src =
        "fn f() { let a = \"say \\\"hi\\\" then: go\"; let b = \"k:v\"; let c = ('\"', true); }";
    assert!(Source::parse(src).json_keys().is_empty());
}

#[test]
fn comments_and_test_items_are_not_scanned() {
    let src = "// a.mul_add(b, c) and \"{\\\"k\\\":1}\"\n\
               /* _mm256_fmsub_pd /* nested */ fmadd */\n\
               fn f() -> char { '{' }\n\
               #[cfg(test)]\n\
               use core::f64::mul_add;\n\
               #[cfg(test)]\n\
               mod tests {\n    fn g(a: [u8; 4]) { a.mul_add(); \"{\\\"k\\\":1}\"; }\n}\n\
               fn h() { x.mul_add(y, z) }\n";
    let source = Source::parse(src);
    assert_eq!(source.fused(), [(10, "mul_add".to_string())]);
    assert!(source.json_keys().is_empty());
}

/// The six rules clippy carries are only as good as their configuration:
/// deleting a ban, a daemon scope's `deny` or the workspace lints is a
/// red test, not a silently weaker CI job.
#[test]
fn the_lint_configuration_still_states_every_rule() {
    let read = |rel: &str| fs::read_to_string(repo_root().join(rel)).expect(rel);
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    let clippy = read("clippy.toml");
    let list = |key: &str| {
        let from = clippy
            .find(&format!("\n{key} = ["))
            .unwrap_or_else(|| panic!("no {key}"));
        let to = clippy[from..]
            .find("\n]")
            .map_or(clippy.len(), |n| from + n);
        clippy[from..to].to_string()
    };
    let methods = list("disallowed-methods");
    for path in [
        "std::fs::write",
        "std::fs::File::create",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "asura_core::sim::total_energy_of",
        "asura_core::sim::Simulation::total_energy",
    ] {
        assert!(
            methods.contains(&format!("path = \"{path}\"")),
            "{path} is not banned"
        );
    }
    let types = list("disallowed-types");
    for path in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            types.contains(&format!("path = \"{path}\"")),
            "{path} is not banned"
        );
    }
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
        "check-private-items",
    ] {
        assert!(
            clippy.contains(&format!("\n{key} = true")),
            "clippy.toml: {key}"
        );
    }

    let deny = "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,\
                clippy::unreachable,clippy::todo,clippy::unimplemented)]";
    for scope in [
        "src/serve.rs",
        "crates/core/src/supervise.rs",
        "crates/core/src/faults.rs",
        "crates/core/src/ckpt.rs",
        "crates/core/src/snapshot.rs",
        "crates/json/src/lib.rs",
        "crates/surrogate/src/model.rs",
    ] {
        assert!(
            squash(&read(scope)).contains(deny),
            "{scope} lost its no-panic deny"
        );
    }

    let manifest = read("Cargo.toml");
    assert!(
        squash(&manifest).contains(
            "[workspace.lints.clippy]undocumented_unsafe_blocks=\"deny\"missing_safety_doc=\"deny\""
        ),
        "the workspace no longer denies undocumented unsafe code"
    );
    assert!(
        squash(&manifest).contains("[workspace.lints.rust]unreachable_pub=\"warn\""),
        "the workspace no longer flags `pub` items no path reaches"
    );
    let members = manifest
        .split("\nmembers = [")
        .nth(1)
        .expect("a members list");
    let members = members[..members.find(']').expect("a closed list")]
        .split('"')
        .skip(1)
        .step_by(2);
    for dir in std::iter::once(".").chain(members) {
        let own = read(&format!("{dir}/Cargo.toml"));
        assert!(
            squash(&own).contains("[lints]workspace=true"),
            "{dir} does not opt in to the workspace lints"
        );
    }
}
