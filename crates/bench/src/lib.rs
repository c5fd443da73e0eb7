//! The bench harness's one shared module: how a bench measures and what
//! a bench result *is*.
//!
//! Every bench is a plain `main` that times its work through [`best_of`]
//! (best-of-`reps` seconds) and writes a [`BenchDoc`]. Every
//! `BENCH_*.json` at the repo root is one: scalars and nested objects in
//! the order the bench reports them, the `threads` the numbers were taken
//! at, and a `"gated"` object naming which top-level scalars gate and
//! which way is better. A gated scalar is a within-run ratio; an absolute
//! timing is an informational scalar, kept only where the repo benchmark
//! (`benchmark/`, whose traced replay times each layer on the real
//! workloads) does not measure the same thing.
//! `tools/bench-gate` reads that declaration back through [`gates`] — it
//! holds no per-file table — so making a metric gated is one
//! [`BenchDoc::gated`] call in the bench that measures it (ROADMAP
//! "Benchmarks & gating"). The inputs more than one bench measures on
//! live in [`fixtures`]; a gravity pass's error against the direct sum is
//! measured by [`accuracy`].
//!
//! The CSV helpers below serve `src/bin/validate_surrogate.rs`.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod fixtures;

use json::Json;
use std::fmt;
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The best wall-clock seconds of `reps` calls of `f` (at least one), and
/// the last call's output.
pub fn best_of<O>(reps: usize, mut f: impl FnMut() -> O) -> (f64, O) {
    let mut timed = || {
        let start = Instant::now();
        let out = black_box(f());
        (start.elapsed().as_secs_f64(), out)
    };
    let (mut best, mut last) = timed();
    for _ in 1..reps {
        let (seconds, out) = timed();
        (best, last) = (best.min(seconds), out);
    }
    (best, last)
}

/// Which way "better" points for a gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl fmt::Display for Better {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        })
    }
}

impl FromStr for Better {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "higher" => Ok(Better::Higher),
            "lower" => Ok(Better::Lower),
            other => Err(format!("expected `higher` or `lower`, got `{other}`")),
        }
    }
}

/// Key of the gate declaration inside a bench document.
const GATED: &str = "gated";

/// One bench result document, built in the order it is reported.
#[derive(Default)]
pub struct BenchDoc {
    fields: Vec<(String, Json)>,
    gated: Vec<(String, Json)>,
}

impl BenchDoc {
    pub fn new() -> Self {
        Self::default()
    }

    /// An informational entry — a count, a wall time, a label, a nested
    /// object of them: the gate reports it and never fails on it.
    pub fn info(mut self, name: &str, value: impl Into<Json>) -> Self {
        self.fields.push((name.to_string(), value.into()));
        self
    }

    /// A gated scalar: a machine-independent quantity measured within one
    /// run, which the gate fails on when it moves the wrong way beyond its
    /// tolerance or stops being a number.
    pub fn gated(mut self, name: &str, value: f64, better: Better) -> Self {
        self.gated
            .push((name.to_string(), better.to_string().into()));
        self.info(name, value)
    }

    fn render(mut self, threads: usize) -> String {
        self.fields.push(("threads".to_string(), threads.into()));
        self.fields.push((GATED.to_string(), Json::Obj(self.gated)));
        let mut text = Json::Obj(self.fields).render();
        text.push('\n');
        text
    }

    /// Write the document to `file` at the repo root, stamped with the
    /// pool's thread count.
    pub fn write(self, file: &str) {
        let path = repo_root().join(file);
        let text = self.render(rayon::current_num_threads());
        fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("[artifact] {}", path.display());
    }
}

/// The gates a parsed bench document declares, in document order; a
/// document without the declaration gates nothing.
pub fn gates(doc: &Json) -> Result<Vec<(String, Better)>, String> {
    let Ok(declared) = doc.get(GATED) else {
        return Ok(Vec::new());
    };
    let Json::Obj(fields) = declared else {
        return Err(format!("`{GATED}` must be an object, got {declared:?}"));
    };
    fields
        .iter()
        .map(|(name, better)| match better.as_parsed() {
            Ok(better) => Ok((name.clone(), better)),
            Err(e) => Err(format!("`{GATED}.{name}`: {e}")),
        })
        .collect()
}

/// Directory where harness binaries drop their CSV artifacts.
pub fn results_dir() -> PathBuf {
    let dir = repo_root().join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a named CSV artifact and report the path.
pub fn write_artifact(name: &str, contents: &str) {
    let path = results_dir().join(name);
    fs::write(&path, contents).expect("write artifact");
    println!("[artifact] {}", path.display());
}

/// Render a number in the paper's compact scientific style.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let exp = v.abs().log10().floor() as i32;
    if (-2..4).contains(&exp) {
        format!("{v:.3}")
    } else {
        let mant = v / 10f64.powi(exp);
        format!("{mant:.2}e{exp}")
    }
}

#[cfg(test)]
mod tests {
    use super::Better::{Higher, Lower};
    use super::*;
    use json::parse_json;

    #[test]
    fn sci_formats_both_regimes() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(12.5), "12.500");
        assert_eq!(sci(3.0e11), "3.00e11");
        assert_eq!(sci(7.5e-7), "7.50e-7");
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn bench_doc_bytes_are_stable() {
        let text = BenchDoc::new()
            .info("n", 1000usize)
            .info("dt_base", 0.002)
            .info("grid", "2x1x1+1")
            .info(
                "block",
                Json::obj([("wall_s", 1.5.into()), ("substeps", 256u64.into())]),
            )
            .gated("update_ratio", 6.035, Higher)
            .gated("h_iter_walk_ratio", 0.115756, Lower)
            .info("label", "g/\"q\"")
            .render(2);
        assert_eq!(
            text,
            concat!(
                r#"{"n":1000,"dt_base":0.002,"grid":"2x1x1+1","#,
                r#""block":{"wall_s":1.5,"substeps":256},"#,
                r#""update_ratio":6.035,"h_iter_walk_ratio":0.115756,"#,
                r#""label":"g/\"q\"","#,
                r#""threads":2,"#,
                r#""gated":{"update_ratio":"higher","h_iter_walk_ratio":"lower"}}"#,
                "\n"
            )
        );
    }

    /// The fastest call (a no-op) wins over the mean (~67 ms) and the
    /// last call (100 ms); the output is the last call's.
    #[test]
    fn best_of_keeps_the_fastest_call_and_the_last_output() {
        let mut call = 0u64;
        let (seconds, last) = best_of(3, || {
            call += 1;
            if call != 2 {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            call
        });
        assert_eq!(last, 3);
        assert!((0.0..0.05).contains(&seconds), "{seconds}");
        assert_eq!(best_of(0, || 9).1, 9, "zero reps still call once");
    }

    #[test]
    fn artifact_metrics_land_as_top_level_scalars() {
        let text = BenchDoc::new()
            .info("paper_grid", Json::obj([("forward_ms", 12.5.into())]))
            .gated("conv_gflops_ratio", 39.25, Higher)
            .render(1);
        let doc = parse_json(&text).unwrap();
        assert_eq!(doc.get("conv_gflops_ratio"), Ok(&Json::Num(39.25)));
        let nested = doc.get("paper_grid").and_then(|g| g.get("forward_ms"));
        assert_eq!(
            nested,
            Ok(&Json::Num(12.5)),
            "informational, beside the gate"
        );
        assert_eq!(
            gates(&doc).unwrap(),
            [("conv_gflops_ratio".to_string(), Higher)]
        );
    }

    #[test]
    fn a_gate_declaration_that_is_not_a_direction_is_an_error() {
        let doc = parse_json(r#"{"x": 1.0, "gated": {"x": "sideways"}}"#).unwrap();
        assert!(gates(&doc).unwrap_err().contains("gated.x"));
        let doc = parse_json(r#"{"x": 1.0, "gated": ["x"]}"#).unwrap();
        assert!(gates(&doc).is_err());
        assert_eq!(gates(&parse_json(r#"{"x": 1.0}"#).unwrap()), Ok(vec![]));
    }

    /// A gate dropped from a checked-in baseline (or from the bench that
    /// refreshes it) is a red test, not a silently passing gate.
    #[test]
    fn checked_in_baselines_declare_todays_gates() {
        let expected: [(&str, &[(&str, Better)]); 8] = [
            (
                "BENCH_force.json",
                &[
                    ("walk_speedup", Higher),
                    ("simd_speedup", Higher),
                    ("force_err_p99_ratio", Lower),
                    ("n_group_p99_ratio", Lower),
                    ("sph_simd_speedup", Higher),
                ],
            ),
            (
                "BENCH_blockstep.json",
                &[
                    ("update_ratio", Higher),
                    ("wall_speedup", Higher),
                    ("modeled_block_efficiency", Higher),
                ],
            ),
            ("BENCH_dist_blockstep.json", &[("update_ratio", Higher)]),
            ("BENCH_tree_walk.json", &[("h_iter_walk_ratio", Lower)]),
            ("BENCH_unet_infer.json", &[("conv_gflops_ratio", Higher)]),
            ("BENCH_serve.json", &[("overlap_speedup", Higher)]),
            (
                "BENCH_surrogate.json",
                &[("surrogate_speedup", Higher), ("energy_err_ratio", Lower)],
            ),
            ("BENCH_alltoall.json", &[]),
        ];
        for (file, want) in expected {
            let text = fs::read_to_string(repo_root().join(file)).expect(file);
            let doc = parse_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            let got = gates(&doc).unwrap_or_else(|e| panic!("{file}: {e}"));
            let want: Vec<_> = want.iter().map(|&(n, b)| (n.to_string(), b)).collect();
            assert_eq!(got, want, "{file}");
            for (name, _) in &got {
                let value = doc.get(name).unwrap_or_else(|e| panic!("{file}: {e}"));
                assert!(
                    matches!(value, Json::Num(v) if v.is_finite()),
                    "{file}: gated `{name}` is {value:?}"
                );
            }
        }
    }
}
