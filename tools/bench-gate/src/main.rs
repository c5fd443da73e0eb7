//! `bench-gate` — the CI bench-regression gate.
//!
//! The workspace's benches emit `BENCH_*.json` perf trajectories at the
//! repo root, and the checked-in copies double as the *baselines* of the
//! last merged PR. CI stashes those baselines before the bench step
//! overwrites them, then runs this gate to diff fresh results against
//! them:
//!
//! ```sh
//! bench-gate --baseline-dir bench-baselines --current-dir . --tolerance 0.30
//! ```
//!
//! The gate holds no table of files or metrics. A bench document says
//! itself which of its scalars gate and which way is better (its
//! `"gated"` object, written by `bench::BenchDoc::gated` and read back by
//! `bench::gates`); everything else in it is informational, because CI
//! runners are noisy:
//!
//! * **Gated** — the names the fresh document or its baseline declares:
//!   machine-independent quantities (speedup ratios, update savings,
//!   modeled efficiencies, deterministic counts) measured *within* one
//!   run, so runner throttling cancels out. One regressing by more than
//!   `--tolerance` (default 30%), or one the baseline had as a number and
//!   the fresh document lacks or holds as `null` / a non-number, fails the
//!   job.
//! * **Informational** — every other numeric leaf, by its dotted path.
//!   Reported with its change, never failing: a shared runner's absolute
//!   timings swing far more than any real regression they could catch
//!   (this repo has measured 2x run-to-run variance on idle containers
//!   with CPU shares). One only the baseline holds — a renamed or deleted
//!   leaf — is listed as `dropped`.
//!
//! The gate prints one markdown table per file to the job log and exits
//! non-zero iff a gated metric failed. The files are the `BENCH_*.json`
//! either directory holds, or the ones `--files` names. A *missing
//! baseline* for a file is reported and passes (first run of a new bench);
//! a missing *current* file fails — that's a CI wiring error, not a perf
//! result.

#![forbid(unsafe_code)]
// Unit tests may write files, read the clock and key maps by hash; the
// non-test build stays under clippy.toml's bans.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

use bench::{gates, Better};
use json::{parse_json, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Outcome of one metric comparison.
struct Row {
    name: String,
    baseline: Option<f64>,
    current: Option<f64>,
    /// Which way is better, for a row a document declares as gated;
    /// `None` is an informational row.
    gate: Option<Better>,
}

impl Row {
    /// Relative growth from baseline to current; ±inf off a zero baseline.
    fn growth(&self) -> Option<f64> {
        let (b, c) = (self.baseline?, self.current?);
        Some(if c == b { 0.0 } else { (c - b) / b.abs() })
    }

    /// A gated row's growth in its *worse* direction (positive = regressed).
    fn regression(&self) -> Option<f64> {
        let growth = self.growth()?;
        Some(match self.gate? {
            Better::Higher => -growth,
            Better::Lower => growth,
        })
    }

    /// A gated metric the baseline had fails when it regressed beyond the
    /// tolerance — or has no regression to compute: one that vanished from
    /// the fresh output, or came back `null` (the writer's NaN / ±inf) or
    /// as a non-number, is the likeliest silent-bypass accident, not a
    /// shrug.
    fn failed(&self, tolerance: f64) -> bool {
        self.gate.is_some()
            && self.baseline.is_some()
            && self.regression().is_none_or(|r| r > tolerance)
    }

    fn status(&self, tolerance: f64) -> &'static str {
        match (self.baseline, self.current) {
            (None, _) => "new",
            (Some(_), None) if self.gate.is_some() => "MISSING",
            (Some(_), None) => "dropped",
            _ if self.failed(tolerance) => "REGRESSED",
            _ if self.gate.is_some() => "ok",
            _ => "info",
        }
    }

    fn change(&self) -> String {
        let Some(growth) = self.growth() else {
            return "—".into();
        };
        // A gated row knows which way is worse: say so plainly instead of
        // leaving the reader to remember each metric's sign.
        match self.regression() {
            _ if growth.abs() < 5e-4 => "±0.0%".into(),
            Some(r) if r > 0.0 => format!("{:.1}% worse", r * 100.0),
            Some(r) => format!("{:.1}% better", -r * 100.0),
            None => format!("{:+.1}%", growth * 100.0),
        }
    }
}

/// A finite number, or nothing: `null`, strings and overflowed literals
/// (`1e999`) are not values a metric can be compared on.
fn finite(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) if n.is_finite() => Some(*n),
        _ => None,
    }
}

/// Every numeric leaf under `v` as `(dotted.path, value)`, in document
/// order.
fn leaves(prefix: &str, v: &Json, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let dot = if prefix.is_empty() { "" } else { "." };
                leaves(&format!("{prefix}{dot}{key}"), value, out);
            }
        }
        _ => out.extend(finite(v).map(|n| (prefix.to_string(), n))),
    }
}

fn lookup<T: Copy>(pairs: &[(String, T)], name: &str) -> Option<T> {
    let pair = pairs.iter().find(|(n, _)| n == name);
    pair.map(|&(_, v)| v)
}

/// Compare one bench document against its baseline: gated rows first (the
/// fresh declaration, then names only the baseline still declares), then
/// every other numeric leaf of the fresh document, then the informational
/// leaves only the baseline holds — a renamed or vanished leaf shows up as
/// `dropped` instead of leaving the table without a trace.
fn compare(baseline: Option<&Json>, current: &Json) -> Result<Vec<Row>, String> {
    let mut gated = gates(current)?;
    for (name, better) in baseline.map(gates).transpose()?.unwrap_or_default() {
        if lookup(&gated, &name).is_none() {
            gated.push((name, better));
        }
    }
    let (mut was, mut now) = (Vec::new(), Vec::new());
    if let Some(doc) = baseline {
        leaves("", doc, &mut was);
    }
    leaves("", current, &mut now);
    let dropped = was.iter().filter(|(n, _)| lookup(&now, n).is_none());
    let others = now.iter().chain(dropped).map(|(n, _)| n);
    let others = others.filter(|n| lookup(&gated, n).is_none());
    let names = gated.iter().map(|(n, _)| n).chain(others);
    Ok(names
        .map(|name| Row {
            name: name.clone(),
            baseline: lookup(&was, name),
            current: lookup(&now, name),
            gate: lookup(&gated, name),
        })
        .collect())
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "—".into(),
        Some(0.0) => "0".into(),
        Some(v) if v.abs() >= 1e6 || v.abs() < 1e-3 => format!("{v:.4e}"),
        Some(v) => format!("{v:.4}"),
    }
}

/// Render one file's comparison as a markdown table into `out`.
fn render(file: &str, rows: &[Row], tolerance: f64, out: &mut String) {
    use std::fmt::Write;
    writeln!(out, "\n### {file}\n").unwrap();
    writeln!(out, "| metric | baseline | current | change | status |").unwrap();
    writeln!(out, "|---|---:|---:|---:|---|").unwrap();
    for r in rows {
        writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            r.name,
            fmt_value(r.baseline),
            fmt_value(r.current),
            r.change(),
            r.status(tolerance),
        )
        .unwrap();
    }
}

struct Args {
    baseline_dir: PathBuf,
    current_dir: PathBuf,
    tolerance: f64,
    /// `--files`; without it, every `BENCH_*.json` either directory holds.
    files: Option<Vec<String>>,
}

const USAGE: &str = "\
bench-gate — diff fresh BENCH_*.json against checked-in baselines

USAGE:
    bench-gate [--baseline-dir <dir>] [--current-dir <dir>]
               [--tolerance <frac>] [--files <a.json,b.json,...>]

Compares every BENCH_*.json found in either directory (or just --files).
Exits non-zero iff a metric the documents declare as gated regressed by
more than the tolerance (default 0.30) or is no longer a number. Everything
else is reported but never gates. A missing baseline passes (new bench); a
missing current file fails.
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        baseline_dir: PathBuf::from("bench-baselines"),
        current_dir: PathBuf::from("."),
        tolerance: 0.30,
        files: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--baseline-dir" => args.baseline_dir = PathBuf::from(value("--baseline-dir")?),
            "--current-dir" => args.current_dir = PathBuf::from(value("--current-dir")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
                if !(0.0..10.0).contains(&args.tolerance) {
                    return Err("--tolerance must be a fraction in [0, 10)".into());
                }
            }
            "--files" => {
                args.files = Some(
                    value("--files")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The `BENCH_*.json` names under `dir`; a directory that does not exist
/// holds none.
fn bench_files(dir: &Path, into: &mut BTreeSet<String>) -> Result<(), String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    for entry in entries {
        let name = entry
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .file_name();
        if let Some(name) = name.to_str() {
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                into.insert(name.to_string());
            }
        }
    }
    Ok(())
}

fn load(path: &Path) -> Result<Option<Json>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_json(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| {
        if e.is_empty() {
            String::new()
        } else {
            format!("usage: {e}")
        }
    })?;
    let files = match args.files {
        Some(files) => files,
        None => {
            let mut found = BTreeSet::new();
            bench_files(&args.baseline_dir, &mut found)?;
            bench_files(&args.current_dir, &mut found)?;
            found.into_iter().collect()
        }
    };
    if files.is_empty() {
        return Err(format!(
            "no BENCH_*.json under {} or {} — nothing to gate",
            args.baseline_dir.display(),
            args.current_dir.display()
        ));
    }

    let mut report = String::from("## Bench regression gate\n");
    let mut failures: Vec<String> = Vec::new();
    for file in &files {
        let current = load(&args.current_dir.join(file))?;
        let baseline = load(&args.baseline_dir.join(file))?;
        let Some(current) = current else {
            failures.push(format!(
                "{file}: no fresh result under {} — did the bench step run?",
                args.current_dir.display()
            ));
            continue;
        };
        if baseline.is_none() {
            report.push_str(&format!(
                "\n### {file}\n\nno checked-in baseline — first run, passing.\n"
            ));
        }
        let rows = compare(baseline.as_ref(), &current).map_err(|e| format!("{file}: {e}"))?;
        render(file, &rows, args.tolerance, &mut report);
        for r in rows.iter().filter(|r| r.failed(args.tolerance)) {
            let what = match r.regression() {
                Some(by) => format!("regressed {:.1}%", by * 100.0),
                None => "is missing from the fresh output or not a finite number there".into(),
            };
            failures.push(format!(
                "{file}: gated metric {} {what} (baseline {}, current {}, tolerance {:.0}%)",
                r.name,
                fmt_value(r.baseline),
                fmt_value(r.current),
                args.tolerance * 100.0,
            ));
        }
    }
    println!("{report}");
    if failures.is_empty() {
        println!(
            "\nbench-gate: all gated metrics within {:.0}% of baseline",
            args.tolerance * 100.0
        );
        Ok(true)
    } else {
        eprintln!("\nbench-gate: FAILED");
        for f in &failures {
            eprintln!("  ✗ {f}");
        }
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) if e.is_empty() || e.starts_with("usage:") => {
            if !e.is_empty() {
                eprintln!("{e}\n");
            }
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        parse_json(text).expect("test doc parses")
    }

    fn rows(baseline: &Json, current: &Json) -> Vec<Row> {
        compare(Some(baseline), current).expect("gate declarations parse")
    }

    fn row<'a>(rows: &'a [Row], name: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no row `{name}`"))
    }

    /// `doc` with top-level `name` replaced by `value`.
    fn with(doc: &Json, name: &str, value: Json) -> Json {
        let Json::Obj(fields) = doc else {
            panic!("bench documents are objects")
        };
        Json::obj(fields.iter().map(|(k, v)| {
            let v = if k == name { value.clone() } else { v.clone() };
            (k.clone(), v)
        }))
    }

    #[test]
    fn regression_signs_follow_direction() {
        let gated = |baseline, current, better| Row {
            name: "m".into(),
            baseline: Some(baseline),
            current: Some(current),
            gate: Some(better),
        };
        // Higher-is-better dropping 50% is a +0.5 regression.
        let r = gated(2.0, 1.0, Better::Higher).regression().unwrap();
        assert!((r - 0.5).abs() < 1e-12);
        // Higher-is-better improving reads negative.
        assert!(gated(2.0, 3.0, Better::Higher).regression().unwrap() < 0.0);
        // Lower-is-better growing 50% is a +0.5 regression.
        let r = gated(2.0, 3.0, Better::Lower).regression().unwrap();
        assert!((r - 0.5).abs() < 1e-12);
        // Off a zero baseline any worsening is unbounded, not "ok".
        assert!(gated(0.0, 1.0, Better::Lower).failed(0.30));
        assert!(!gated(0.0, 0.0, Better::Lower).failed(0.30));
        assert!(!gated(0.0, 1.0, Better::Higher).failed(0.30));
    }

    #[test]
    fn gated_metric_beyond_tolerance_fails() {
        let base = doc(r#"{"update_ratio": 6.0, "wall_speedup": 3.0,
                "gated": {"update_ratio": "higher", "wall_speedup": "higher"}}"#);
        let worse = with(&base, "wall_speedup", 1.8.into());
        let rows = rows(&base, &worse);
        let speedup = row(&rows, "wall_speedup");
        assert!(speedup.failed(0.30), "40% drop must fail at 30% tolerance");
        assert_eq!(speedup.status(0.30), "REGRESSED");
        assert!(!speedup.failed(0.50), "but pass at 50% tolerance");
        assert!(!row(&rows, "update_ratio").failed(0.30), "unchanged passes");
    }

    #[test]
    fn gated_metric_missing_from_fresh_output_fails() {
        let base = doc(r#"{"update_ratio": 6.0, "wall_speedup": 3.0,
                "gated": {"update_ratio": "higher", "wall_speedup": "higher"}}"#);
        // Renamed away together with its declaration: the baseline's
        // declaration still gates it.
        let renamed = doc(r#"{"update_ratio": 6.0, "wallclock_speedup": 3.0,
                "gated": {"update_ratio": "higher"}}"#);
        let rows = rows(&base, &renamed);
        let speedup = row(&rows, "wall_speedup");
        assert_eq!(speedup.current, None);
        assert_eq!(speedup.status(0.3), "MISSING");
        assert!(
            speedup.failed(0.3),
            "a vanished gated metric must fail the gate, not bypass it"
        );
    }

    /// The one writer renders NaN and ±inf as `null`, and two of the gated
    /// metrics are quotients: a gated number that stopped being one fails
    /// exactly like a missing one.
    #[test]
    fn gated_metric_that_is_no_longer_a_finite_number_fails() {
        let base = doc(r#"{"energy_err_ratio": 76.0, "gated": {"energy_err_ratio": "lower"}}"#);
        let not_numbers = [
            Json::Null,
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            "76.0".into(),
            Json::obj([("value", 76.0.into())]),
        ];
        for value in not_numbers {
            let fresh = with(&base, "energy_err_ratio", value.clone());
            let rows = rows(&base, &fresh);
            let ratio = row(&rows, "energy_err_ratio");
            assert_eq!(ratio.status(0.30), "MISSING", "{value:?}");
            assert!(ratio.failed(0.30), "{value:?} must fail the gate");
        }
        // Through the text, as the gate meets it: a literal past f64 range.
        let fresh = doc(r#"{"energy_err_ratio": 1e999, "gated": {"energy_err_ratio": "lower"}}"#);
        assert!(row(&rows(&base, &fresh), "energy_err_ratio").failed(0.30));
    }

    #[test]
    fn informational_metrics_never_fail() {
        let base = doc(r#"{"global": {"wall_s": 1.0}, "update_ratio": 6.0,
                "gated": {"update_ratio": "higher"}}"#);
        let worse = doc(
            r#"{"global": {"wall_s": 100.0, "steps": null}, "update_ratio": 6.0,
                "gated": {"update_ratio": "higher"}}"#,
        );
        let rows = rows(&base, &worse);
        let wall = row(&rows, "global.wall_s");
        assert!(wall.growth().unwrap() > 10.0, "huge slowdown measured");
        assert_eq!(wall.change(), "+9900.0%");
        assert!(!wall.failed(0.30), "...but absolute timings never gate");
        assert!(rows.iter().all(|r| r.name != "global.steps"));
    }

    /// An informational leaf only the baseline holds is listed as
    /// `dropped`, never silently left out, and never fails the gate.
    #[test]
    fn baseline_only_leaves_are_reported_dropped_and_pass() {
        let base = doc(r#"{"stage_ms": {"a": 100.0, "b": 200.0},
                "block": {"wall_s": 1.0}, "update_ratio": 6.0,
                "gated": {"update_ratio": "higher"}}"#);
        let renamed = doc(r#"{"stage_ms": {"a": 100.0, "b_two": 200.0},
                "update_ratio": 6.0, "gated": {"update_ratio": "higher"}}"#);
        let rows = rows(&base, &renamed);
        for name in ["stage_ms.b", "block.wall_s"] {
            let r = row(&rows, name);
            assert_eq!((r.baseline.is_some(), r.current), (true, None), "{name}");
            assert_eq!(r.status(0.30), "dropped", "{name}");
            assert!(!r.failed(0.0), "{name} is informational");
        }
        assert_eq!(row(&rows, "stage_ms.b_two").status(0.30), "new");
        let mut out = String::new();
        render("BENCH_tree_walk.json", &rows, 0.30, &mut out);
        assert!(
            out.contains("| stage_ms.b | 200.0000 | — | — | dropped |"),
            "{out}"
        );
        assert!(
            rows.iter().all(|r| !r.failed(0.30)),
            "the file still passes"
        );
    }

    #[test]
    fn dist_blockstep_gates_only_the_update_ratio() {
        let base = doc(r#"{"update_ratio": 8.0, "block_sync_share": 0.1,
                "block": {"wall_s": 1.0, "substeps": 128},
                "gated": {"update_ratio": "higher"}}"#);
        let worse = doc(r#"{"update_ratio": 4.0, "block_sync_share": 0.9,
                "block": {"wall_s": 50.0, "substeps": 512},
                "gated": {"update_ratio": "higher"}}"#);
        let rows = rows(&base, &worse);
        assert!(
            row(&rows, "update_ratio").failed(0.30),
            "halved update economy must gate"
        );
        for name in ["block_sync_share", "block.wall_s", "block.substeps"] {
            assert!(!row(&rows, name).failed(0.30), "{name} is informational");
        }
    }

    #[test]
    fn simd_speedup_regression_gates_force_file() {
        let base = doc(r#"{"walk_speedup": 3.0, "simd_speedup": 2.0,
                "kernel_f64_soa_ns_per_interaction": 2.5,
                "gated": {"walk_speedup": "higher", "simd_speedup": "higher"}}"#);
        let worse = doc(r#"{"walk_speedup": 3.0, "simd_speedup": 1.0,
                "kernel_f64_soa_ns_per_interaction": 9.0,
                "gated": {"walk_speedup": "higher", "simd_speedup": "higher"}}"#);
        let rows = rows(&base, &worse);
        assert!(
            row(&rows, "simd_speedup").failed(0.30),
            "halved simd speedup must gate"
        );
        assert!(
            !row(&rows, "kernel_f64_soa_ns_per_interaction").failed(0.30),
            "absolute kernel timing stays informational"
        );
    }

    #[test]
    fn unet_conv_ratio_and_records_coexist() {
        // unet_infer records both a gated top-level scalar and the
        // informational stage times of the paper-grid pipeline.
        let base = doc(r#"{"paper_grid_64cubed_f4": {"forward_ms": 10.0},
                "conv_gflops_ratio": 30.0, "gated": {"conv_gflops_ratio": "higher"}}"#);
        let worse = doc(r#"{"paper_grid_64cubed_f4": {"forward_ms": 80.0},
                "conv_gflops_ratio": 4.0, "gated": {"conv_gflops_ratio": "higher"}}"#);
        let rows = rows(&base, &worse);
        assert!(
            row(&rows, "conv_gflops_ratio").failed(0.30),
            "collapsed conv throughput must gate"
        );
        assert!(
            !row(&rows, "paper_grid_64cubed_f4.forward_ms").failed(0.30),
            "stage times stay informational"
        );
    }

    #[test]
    fn h_iter_walk_ratio_gates_lower_is_better() {
        let base = doc(r#"{"h_iter_walk_ratio": 0.5, "gated": {"h_iter_walk_ratio": "lower"}}"#);
        let worse = with(&base, "h_iter_walk_ratio", 1.0.into());
        let better = with(&base, "h_iter_walk_ratio", 0.34.into());
        assert!(
            row(&rows(&base, &worse), "h_iter_walk_ratio").failed(0.30),
            "walks-per-iteration doubling must gate"
        );
        assert!(
            !row(&rows(&base, &better), "h_iter_walk_ratio").failed(0.30),
            "fewer walks per iteration passes"
        );
    }

    #[test]
    fn serve_overlap_gates_but_fleet_wall_times_stay_informational() {
        let base = doc(r#"{"overlap_speedup": 1.0, "serial_wall_s": 1.5,
                "concurrent_wall_s": 1.5, "gated": {"overlap_speedup": "higher"}}"#);
        let worse = doc(r#"{"overlap_speedup": 0.5, "serial_wall_s": 9.0,
                "concurrent_wall_s": 18.0, "gated": {"overlap_speedup": "higher"}}"#);
        let rows = rows(&base, &worse);
        assert!(
            row(&rows, "overlap_speedup").failed(0.30),
            "halved fleet overlap must gate"
        );
        for name in ["serial_wall_s", "concurrent_wall_s"] {
            assert!(!row(&rows, name).failed(0.30), "{name} is informational");
        }
    }

    #[test]
    fn surrogate_loop_gates_speedup_and_energy_ratio_but_not_walls() {
        let base = doc(r#"{"surrogate_speedup": 3.0, "energy_err_ratio": 76.0,
                "train_wall_s": 4.0, "surrogate_wall_s": 0.1,
                "conventional_wall_s": 0.4, "conventional_steps": 28,
                "gated": {"surrogate_speedup": "higher", "energy_err_ratio": "lower"}}"#);
        let worse = doc(r#"{"surrogate_speedup": 1.2, "energy_err_ratio": 500.0,
                "train_wall_s": 40.0, "surrogate_wall_s": 1.0,
                "conventional_wall_s": 4.0, "conventional_steps": 28,
                "gated": {"surrogate_speedup": "higher", "energy_err_ratio": "lower"}}"#);
        let rows = rows(&base, &worse);
        assert!(
            row(&rows, "surrogate_speedup").failed(0.30),
            "collapsed surrogate speedup must gate"
        );
        assert!(
            row(&rows, "energy_err_ratio").failed(0.30),
            "fidelity-cost blowup must gate"
        );
        for name in ["train_wall_s", "surrogate_wall_s", "conventional_wall_s"] {
            assert!(!row(&rows, name).failed(0.30), "{name} is informational");
        }
    }

    #[test]
    fn missing_baseline_passes_and_renders() {
        let cur = doc(r#"{"update_ratio": 6.0, "wall_speedup": 3.0,
                "gated": {"update_ratio": "higher", "wall_speedup": "higher"}}"#);
        let rows = compare(None, &cur).unwrap();
        assert!(rows.iter().all(|r| !r.failed(0.0)), "no baseline, no fail");
        let mut out = String::new();
        render("BENCH_blockstep.json", &rows, 0.3, &mut out);
        assert!(out.contains("| update_ratio |"));
        assert!(out.contains("| new |"));
    }

    /// The acceptance bar over the real baselines: every gate they declare
    /// fails 31 % the wrong way, passes 29 % the wrong way, passes any
    /// improvement, and fails when the fresh document holds `null`.
    #[test]
    fn every_checked_in_gate_trips_at_the_tolerance_and_on_null() {
        let mut found = BTreeSet::new();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        bench_files(&root, &mut found).unwrap();
        assert_eq!(found.len(), 7, "{found:?}");
        let mut checked = 0;
        for file in &found {
            let base = load(&root.join(file)).unwrap().expect(file);
            for (name, better) in gates(&base).unwrap() {
                let value = finite(base.get(&name).unwrap()).expect("gated numbers");
                let toward_worse = match better {
                    Better::Higher => -value.abs(),
                    Better::Lower => value.abs(),
                };
                let verdict = |fresh: Json| {
                    let rows = rows(&base, &with(&base, &name, fresh));
                    row(&rows, &name).failed(0.30)
                };
                assert!(
                    verdict((value + 0.31 * toward_worse).into()),
                    "{file} {name}"
                );
                assert!(
                    !verdict((value + 0.29 * toward_worse).into()),
                    "{file} {name}"
                );
                assert!(
                    !verdict((value - 5.0 * toward_worse).into()),
                    "{file} {name}"
                );
                assert!(verdict(Json::Null), "{file} {name}");
                checked += 1;
            }
            let unchanged = rows(&base, &base);
            assert!(unchanged.iter().all(|r| !r.failed(0.0)), "{file}");
        }
        assert_eq!(checked, 14);
    }

    #[test]
    fn the_file_list_is_what_the_directories_hold() {
        let dir = std::env::temp_dir().join(format!("bench-gate-files-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("cur")).unwrap();
        for name in [
            "BENCH_b.json",
            "BENCH_a.json",
            "BENCHMARK.json",
            "BENCH_x.txt",
        ] {
            std::fs::write(dir.join("cur").join(name), "{}").unwrap();
        }
        let mut found = BTreeSet::new();
        bench_files(&dir.join("no-such-baseline-dir"), &mut found).unwrap();
        bench_files(&dir.join("cur"), &mut found).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(Vec::from_iter(found), ["BENCH_a.json", "BENCH_b.json"]);
    }
}
