//! `--compare a.json b.json`: per workload and end-to-end metric, the
//! relative change from `a` to `b` against the metric's bound — the tool of
//! the two-run agreement criterion and of every later parent-vs-change
//! comparison.

use crate::metrics::Bound;
use unet::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The spread between a run's own rounds is wider than the bound, so
    /// the pair cannot be told apart from noise: not "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`, signed so that positive is worse.
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn judge(a: f64, b: f64, spread: f64, bound: &Bound) -> (f64, Verdict) {
    let change = if a != 0.0 { (b - a) / a.abs() } else { 0.0 };
    let worse_by = if bound.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = if spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    match doc.get("workloads")? {
        Json::Arr(items) => Ok(items),
        _ => Err("workloads must be an array".into()),
    }
}

fn num(v: &Json) -> Result<f64, String> {
    match v {
        Json::Num(n) => Ok(*n),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

/// Compare two result documents (as the all-workloads command writes them).
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wa in workloads(a)? {
        let name = wa.get("name")?;
        let wb = workloads(b)?
            .iter()
            .find(|w| w.get("name").ok() == Some(name))
            .ok_or_else(|| format!("workload {name:?} is missing from the second document"))?;
        let Json::Str(name) = name else {
            return Err("workload names must be strings".into());
        };
        for bound in bounds {
            let value = |w: &Json| num(w.get("end_to_end")?.get(&bound.name)?.get("value")?);
            let spread = |w: &Json| num(w.get("detail")?.get("round_spread")?.get(&bound.name)?);
            let (va, vb) = (value(wa)?, value(wb)?);
            let spread = spread(wa)?.max(spread(wb)?);
            let (worse_by, verdict) = judge(va, vb, spread, bound);
            rows.push(Row {
                workload: name.clone(),
                metric: bound.name.clone(),
                a: va,
                b: vb,
                worse_by,
                spread,
                bound: bound.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<14} {:>14.4} {:>14.4} {:>+8.1}% {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * r.bound,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unet::json::parse_json;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "wall_s".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn direction_bound_and_spread_decide_the_verdict() {
        let higher = Bound {
            name: "updates_per_s".into(),
            higher_is_better: true,
            bound: 0.1,
        };
        assert_eq!(judge(10.0, 10.9, 0.02, &lower(0.1)).1, Verdict::Ok);
        assert_eq!(judge(10.0, 11.5, 0.02, &lower(0.1)).1, Verdict::Worse);
        assert_eq!(judge(10.0, 5.0, 0.02, &lower(0.1)).1, Verdict::Ok);
        assert_eq!(judge(10.0, 8.5, 0.02, &higher).1, Verdict::Worse);
        assert_eq!(judge(10.0, 12.0, 0.02, &higher).1, Verdict::Ok);
        // A spread wider than the bound resolves nothing, even a big loss.
        assert_eq!(judge(10.0, 20.0, 0.3, &lower(0.1)).1, Verdict::Unresolved);
        let (by, _) = judge(10.0, 8.5, 0.0, &higher);
        assert!((by - 0.15).abs() < 1e-12);
    }

    #[test]
    fn documents_are_compared_workload_by_workload() {
        let doc = |wall: f64, spread: f64| {
            parse_json(&format!(
                r#"{{"workloads":[{{"name":"w","end_to_end":{{"wall_s":{{"value":{wall},"unit":"s"}}}},
                   "detail":{{"round_spread":{{"wall_s":{spread}}}}}}}]}}"#
            ))
            .unwrap()
        };
        let rows = compare(&doc(2.0, 0.01), &doc(2.5, 0.02), &[lower(0.1)]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(rows[0].spread, 0.02);
        assert!(render(&rows).contains("worse"));
        let missing = parse_json(r#"{"workloads":[]}"#).unwrap();
        assert!(compare(&doc(2.0, 0.0), &missing, &[lower(0.1)]).is_err());
    }
}
