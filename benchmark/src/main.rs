//! The repo benchmark (see `README.md`).
//!
//! ```text
//! asura-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//!     object BENCHMARK.json's contract asks for
//! asura-benchmark [--seed <n>] [--seconds <s>] [--out <file>]
//!     every workload, untraced then traced, each in a fresh child process,
//!     one at a time; writes the result document
//! asura-benchmark --spread <runs> [--workload <name>] [--seed <n>] [--seconds <s>]
//!     every workload (or the one named) <runs> times on consecutive seeds:
//!     the quartile spread of each end-to-end metric against its bound
//! asura-benchmark --compare <a.json> <b.json>
//!     two result documents against the bounds; exits 1 on `worse`
//! ```

#![forbid(unsafe_code)]

mod compare;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use metrics::{Contract, Values, END_TO_END, PER_LAYER};
use run::{Opts, Report};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use unet::json::{parse_json, write_json, Json};
use workloads::Workload;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    spread: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        spread: None,
        compare: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("usage: {flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("usage: {flag} {v}: not a valid number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => {
                let s: f64 = num(flag, value()?)?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("usage: --seconds {s}: must be finite and >= 0"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("usage: --trace {v}: must be 0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--spread" => args.spread = Some(num(flag, value()?)?),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("usage: unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn to_text(doc: &Json) -> String {
    let mut out = String::new();
    write_json(doc, &mut out);
    out
}

/// The contract's result object. `attempted` and `failed` are written as
/// integers (the shared JSON writer renders every number as a float).
fn result_text(report: &Report) -> String {
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
        report.failed == 0,
        report.attempted,
        report.failed,
        to_text(&report.metrics.to_json(report.registry))
    )
}

fn print_metrics(values: &Values, registry: &[(&'static str, &'static str)]) {
    for (name, unit) in registry {
        println!("  {name:<40} {:>16.6} {unit}", values.get(name));
    }
}

/// One workload in this process. Prints every metric by name with its
/// unit, then `detail <json>`, then — last — the contract's result object.
fn run_one(w: Workload, opts: &Opts) -> ExitCode {
    let report = run::run(w, opts);
    println!(
        "workload {} seed {} trace {}",
        w.name(),
        opts.seed,
        opts.trace as u8
    );
    print_metrics(&report.metrics, report.registry);
    if let (false, Ok(Json::Bool(false))) = (opts.trace, report.detail.get("tail_resolved")) {
        println!(
            "  (step_ms_p80 is taken over {:?} per-step values: fewer than 10 lie beyond it)",
            report.detail.get("step_samples")
        );
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    println!("detail {}", to_text(&report.detail));
    println!("{}", result_text(&report));
    // A run whose checks failed still exits 0: the result object carries
    // `correct: false` and the failed count, which is what the driver
    // reads. The all-workloads command turns them into a non-zero exit.
    ExitCode::SUCCESS
}

/// Re-execute this binary on one workload and parse its last two lines.
fn run_child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} child exited with {}", w.name(), out.status));
    }
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    Ok((parse_json(result)?, parse_json(detail)?))
}

fn failed_ops(result: &Json) -> bool {
    !matches!(result.get("failed"), Ok(Json::Num(n)) if *n == 0.0)
}

/// Every workload, untraced then traced, one child at a time.
fn run_all(args: &Args, contract: &Contract) -> Result<ExitCode, String> {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut docs = Vec::new();
    let mut any_failed = false;
    for w in workloads::ALL {
        let (e2e, detail) = run_child(w, args.seed, seconds, false)?;
        let (layers, trace_detail) = run_child(w, args.seed, seconds, true)?;
        println!("== {} ==", w.name());
        for (result, registry) in [(&e2e, &END_TO_END[..]), (&layers, &PER_LAYER[..])] {
            let metrics = result.get("metrics")?;
            for (name, unit) in registry {
                if let Json::Num(v) = metrics.get(name)?.get("value")? {
                    println!("  {name:<40} {v:>16.6} {unit}");
                }
            }
            println!(
                "  ops attempted {:?} failed {:?}",
                result.get("attempted")?,
                result.get("failed")?
            );
            any_failed |= failed_ops(result);
        }
        for d in [&detail, &trace_detail] {
            if let Json::Arr(failures) = d.get("failures")? {
                for f in failures {
                    println!("  FAILED: {f:?}");
                }
            }
        }
        docs.push(Json::Obj(vec![
            ("name".into(), Json::Str(w.name().into())),
            ("end_to_end".into(), e2e.get("metrics")?.clone()),
            ("per_layer".into(), layers.get("metrics")?.clone()),
            ("ops".into(), ops_json(&e2e, &layers)?),
            ("detail".into(), detail),
            ("trace_detail".into(), trace_detail),
        ]));
    }
    let doc = Json::Obj(vec![
        ("format".into(), Json::Str("asura-benchmark-result".into())),
        ("seed".into(), Json::Str(args.seed.to_string())),
        ("seconds".into(), Json::Num(seconds)),
        ("workloads".into(), Json::Arr(docs)),
        // This benchmark measures; it claims no gain.
        ("claim".into(), Json::Null),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/result-seed{}.json", args.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, to_text(&doc)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result document: {}", path.display());
    println!("\"claim\": null");
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn ops_json(e2e: &Json, layers: &Json) -> Result<Json, String> {
    let sum = |key: &str| -> Result<Json, String> {
        match (e2e.get(key)?, layers.get(key)?) {
            (Json::Num(a), Json::Num(b)) => Ok(Json::Num(a + b)),
            _ => Err(format!("{key} must be a number")),
        }
    };
    Ok(Json::Obj(vec![
        ("attempted".into(), sum("attempted")?),
        ("failed".into(), sum("failed")?),
    ]))
}

/// The steadiness procedure of the contract: `runs` invocations per
/// workload on consecutive seeds, the inter-quartile distance of every
/// end-to-end metric as a share of its median against the metric's bound.
fn run_spread(
    args: &Args,
    contract: &Contract,
    runs: usize,
    selected: &[Workload],
) -> Result<ExitCode, String> {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut over = false;
    println!(
        "{:<14} {:<14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for &w in selected {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); contract.bounds.len()];
        for i in 0..runs {
            let (result, _) = run_child(w, args.seed + i as u64, seconds, false)?;
            if failed_ops(&result) {
                return Err(format!(
                    "{} failed ops at seed {}",
                    w.name(),
                    args.seed + i as u64
                ));
            }
            for (b, s) in contract.bounds.iter().zip(&mut samples) {
                if let Json::Num(v) = result.get("metrics")?.get(&b.name)?.get("value")? {
                    s.push(*v);
                }
            }
        }
        for (b, s) in contract.bounds.iter().zip(&samples) {
            let spread = stats::quartile_spread(s).unwrap_or(0.0);
            // The driver does not hold `setup_s` to its spread, only to
            // its median; every other metric should sit under a third of
            // its bound.
            let verdict = if b.name == "setup_s" || spread < b.bound / 3.0 {
                "steady"
            } else if spread <= b.bound {
                "within bound"
            } else {
                over = true;
                "OVER BOUND"
            };
            println!(
                "{:<14} {:<14} {:>14.4} {:>7.2}% {:>5.0}%  {verdict}",
                w.name(),
                b.name,
                stats::median(s),
                100.0 * spread,
                100.0 * b.bound
            );
        }
    }
    Ok(if over {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_compare(a: &Path, b: &Path, contract: &Contract) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Json, String> {
        parse_json(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let rows = compare::compare(&load(a)?, &load(b)?, &contract.bounds)?;
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{worse} worse, {unresolved} unresolved, {} rows",
        rows.len()
    );
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main_inner() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    for name in workloads::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0))
    {
        if !stats::valid_name(name) {
            return Err(format!("`{name}` is not a valid workload or metric name"));
        }
    }
    let workload = match &args.workload {
        Some(name) => Some(Workload::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
            format!(
                "usage: unknown workload `{name}` (known: {})",
                known.join(", ")
            )
        })?),
        None => None,
    };
    if let (Some(w), None) = (workload, args.spread) {
        let opts = Opts {
            seed: args.seed,
            seconds: args.seconds.unwrap_or(0.0),
            trace: args.trace,
            smoke: args.smoke,
        };
        return Ok(run_one(w, &opts));
    }
    let contract = metrics::load_contract(&metrics::contract_path())?;
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b, &contract);
    }
    if let Some(runs) = args.spread {
        let selected = workload.map_or(workloads::ALL.to_vec(), |w| vec![w]);
        return run_spread(&args, &contract, runs, &selected);
    }
    run_all(&args, &contract)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("asura-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "sn_block",
            "--seed",
            "7",
            "--seconds",
            "16",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sn_block"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(16.0), true));
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        let c = parse(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }
}
