//! What a tree gravity pass costs in accuracy: per-target relative error of
//! force and potential against the O(N²) softened direct sum, summarised
//! as p50 / p99 / max. `tests/force_accuracy.rs` (the registered ICs) and
//! the `force_pipeline` bench (its `cloud`) measure it the same way.

use fdps::Vec3;
use rayon::prelude::*;

/// Exact gravity at each of `targets` from every other particle, in f64,
/// with the tree solver's conventions: Plummer softening `eps2` (already
/// `eps_i² + eps_j²`), no self term, and `acc = -g Σ m_j d / (r² + eps2)^1.5`,
/// `pot = -g Σ m_j / √(r² + eps2)` with `d = x_i - x_j`.
pub fn direct_sum(
    g: f64,
    pos: &[Vec3],
    mass: &[f64],
    eps2: f64,
    targets: &[usize],
) -> Vec<(Vec3, f64)> {
    targets
        .par_iter()
        .map(|&i| {
            let mut acc = Vec3::ZERO;
            let mut pot = 0.0;
            for (j, (&pj, &mj)) in pos.iter().zip(mass).enumerate() {
                if j == i {
                    continue;
                }
                let d = pos[i] - pj;
                let rinv = 1.0 / (d.norm2() + eps2).sqrt();
                acc -= d * (mj * rinv * rinv * rinv);
                pot -= mj * rinv;
            }
            (acc * g, pot * g)
        })
        .collect()
}

/// The median, 99th percentile (nearest rank) and maximum of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrStats {
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

impl ErrStats {
    /// Summarise `errs` (non-empty, no NaN).
    pub fn of(mut errs: Vec<f64>) -> Self {
        assert!(!errs.is_empty(), "no errors to summarise");
        errs.sort_by(f64::total_cmp);
        let rank = |q: f64| errs[(q * errs.len() as f64).ceil() as usize - 1];
        ErrStats {
            p50: rank(0.5),
            p99: rank(0.99),
            max: errs[errs.len() - 1],
        }
    }
}

/// Relative error of a gravity pass at `targets` against [`direct_sum`]'s
/// `exact` values for the same targets: `|a - a_exact| / |a_exact|` and
/// `|φ - φ_exact| / |φ_exact|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForceErrors {
    pub force: ErrStats,
    pub pot: ErrStats,
}

impl ForceErrors {
    /// `acc` / `pot` are indexed by particle, `exact` by position in `targets`.
    pub fn measure(acc: &[Vec3], pot: &[f64], exact: &[(Vec3, f64)], targets: &[usize]) -> Self {
        assert_eq!(exact.len(), targets.len());
        let (force, pot_err) = targets
            .iter()
            .zip(exact)
            .map(|(&i, &(a, p))| ((acc[i] - a).norm() / a.norm(), ((pot[i] - p) / p).abs()))
            .unzip();
        ForceErrors {
            force: ErrStats::of(force),
            pot: ErrStats::of(pot_err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = ErrStats::of((1..=200).rev().map(f64::from).collect());
        assert_eq!((s.p50, s.p99, s.max), (100.0, 198.0, 200.0));
        let one = ErrStats::of(vec![0.25]);
        assert_eq!((one.p50, one.p99, one.max), (0.25, 0.25, 0.25));
    }

    /// Two bodies: the pair force and potential, and zero error against
    /// themselves.
    #[test]
    fn direct_sum_of_a_pair_is_newtonian() {
        let pos = [Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)];
        let mass = [3.0, 5.0];
        let exact = direct_sum(0.5, &pos, &mass, 0.0, &[0, 1]);
        assert_eq!(
            exact[0],
            (Vec3::new(0.5 * 5.0 / 4.0, 0.0, 0.0), -0.5 * 5.0 / 2.0)
        );
        assert_eq!(
            exact[1],
            (Vec3::new(-0.5 * 3.0 / 4.0, 0.0, 0.0), -0.5 * 3.0 / 2.0)
        );
        let acc = [exact[0].0, exact[1].0];
        let pot = [exact[0].1, exact[1].1];
        let errs = ForceErrors::measure(&acc, &pot, &exact, &[0, 1]);
        assert_eq!(errs.force.max, 0.0);
        assert_eq!(errs.pot.max, 0.0);
    }
}
