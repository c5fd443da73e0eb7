//! Order statistics, spreads and the name validator every reported number
//! goes through.

/// Fewest samples that must lie beyond a percentile before it may be
/// reported as resolved (choosing-metrics: "the highest percentile that has
/// at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// The tail percentile of the end-to-end step latency. 0.80 rather than
/// 0.90 because the slowest workload takes ~0.25 s per step, so a run of
/// the length `BENCHMARK.json` allows yields 50-70 samples: `MIN_BEYOND`
/// samples lie beyond p80 from 50 samples on, beyond p90 only from 100.
pub const TAIL_Q: f64 = 0.80;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (0 if empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above the `q`-quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = quantile(samples, q);
    samples.iter().filter(|&&s| s > p).count()
}

/// A percentile that refuses to resolve without [`MIN_BEYOND`] samples
/// beyond it: `Err` carries the plain value and how many samples did lie
/// beyond, so a caller that must print a number can flag it instead.
pub fn percentile_guarded(samples: &[f64], q: f64) -> Result<f64, (f64, usize)> {
    let p = quantile(samples, q);
    match beyond(samples, q) {
        b if b >= MIN_BEYOND => Ok(p),
        b => Err((p, b)),
    }
}

/// `(max - min) / median`: the spread of a handful of rounds (0 if fewer
/// than two samples or a zero median).
pub fn round_spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    (hi - lo) / m.abs()
}

/// The quartiles of `values` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the driver
/// judges a metric's steadiness. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([q(1), q(2), q(3)])
}

/// Inter-quartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. `spans` are `(start_ns, end_ns, parent)`.
pub fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.1.saturating_sub(s.0)).collect();
    for &(start, end, parent) in spans {
        if let Some(p) = parent {
            own[p] = own[p].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// A workload or metric name: starts with a letter or digit, at most 64 of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 11.0);
    }

    #[test]
    fn a_percentile_without_ten_samples_beyond_is_refused() {
        let few: Vec<f64> = (0..40).map(f64::from).collect();
        let (p, b) = percentile_guarded(&few, TAIL_Q).unwrap_err();
        assert_eq!(b, 8);
        assert!((p - 31.2).abs() < 1e-9);
        let enough: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(percentile_guarded(&enough, TAIL_Q).is_ok());
        assert!(percentile_guarded(&enough, 0.9).is_err());
        let hundred: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(percentile_guarded(&hundred, 0.9), Ok(90.0));
    }

    #[test]
    fn round_spread_is_range_over_median() {
        assert_eq!(round_spread(&[10.0]), 0.0);
        assert!((round_spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) with children [10,40) and [50,70); the first child
        // has a grandchild [20,30).
        let spans = [
            (0, 100, None),
            (10, 40, Some(0)),
            (20, 30, Some(1)),
            (50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn names_are_validated() {
        for ok in ["wall_s", "core.sim.step_ms", "sn-block", "2nd", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
