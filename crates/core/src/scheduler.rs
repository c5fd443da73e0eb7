//! Block timesteps: the power-of-two level assignment, the active-set
//! walk over it, and the cost model of the paper's argument against it.
//!
//! The paper's headline comparison (§1, §5.3) is between its surrogate
//! scheme — which keeps the fixed global timestep of the §3.2 loop — and
//! conventional direct feedback, which is forced onto hierarchical
//! individual timesteps ("computational efficiency tends to decrease when
//! the fraction of particles to be updated is small because inter-process
//! communications must be done at each timestep"). [`ActiveScheduler`]
//! both *models* that cost ([`ActiveScheduler::efficiency`]: every substep
//! pays a fixed synchronization cost regardless of how few particles are
//! active) and makes it *measurable* by actually running the hierarchy.
//! One base step of the integrator (`ForceBuffers::block_step`, shared by
//! both drivers) maps onto the paper's procedure as follows:
//!
//! 1. **Full force pass + level assignment** (the §3.2 step-3 force
//!    evaluation, done once per base step): forces on everyone from a
//!    freshly rebuilt tree, then per-particle desired timesteps — the SPH
//!    CFL criterion `C h / v_sig` from the last force pass's signal speeds
//!    (the quantity §5.3 says collapses after an SN) and a gravity
//!    acceleration criterion `C sqrt(eps / |a|)` — are binned into
//!    power-of-two levels by [`ActiveScheduler::assign`]
//!    ([`desired_timesteps`]).
//! 2. **Opening half-kick**: every particle kicks by half of its *own*
//!    level's step, entering the standard KDK stagger of hierarchical
//!    leapfrog.
//! 3. **Binary-subdivision walk**: for each of the `2^max_level` fine
//!    substeps, *all* particles drift (inactive particles are thereby
//!    drift-predicted to the boundary — exactly the per-substep
//!    "prediction for all particles" overhead the paper's §1 argument
//!    charges against individual timesteps), the tree is moment-refreshed
//!    rather than rebuilt ([`fdps::Tree::refresh`], falling back to a full
//!    rebuild when [`fdps::Tree::may_refresh`]'s drift bound trips), and
//!    only the boundary's active set
//!    ([`ActiveScheduler::active_at_boundary_into`]) gets new forces and a
//!    full kick — closing its old step and opening its next.
//! 4. **Base-step close**: at the last boundary every level closes with a
//!    half-kick, re-synchronizing the system so cooling, star formation
//!    and SN identification (§3.2 steps 1 and 6) run on the shared base
//!    step, as conventional codes do.
//!
//! [`SimStats`](crate::sim::SimStats) counts substeps, active updates and
//! tree refreshes/rebuilds so the modeled overhead can be checked against
//! measured wall-clock (`cargo bench --bench blockstep`).

use fdps::Vec3;
use sph::timestep::{dt_accel, dt_cfl};

/// Assignment of particles to power-of-two timestep levels, reused
/// (allocation-free after warm-up) every base step: level 0 steps with
/// `dt_max`, level `l` with `dt_max / 2^l`. The `Default` scheduler is
/// unassigned — one substep, no levels — until [`ActiveScheduler::assign`]
/// or [`ActiveScheduler::restore`] runs.
#[derive(Debug, Clone, Default)]
pub struct ActiveScheduler {
    pub dt_max: f64,
    /// Level per particle.
    pub levels: Vec<u32>,
    max_level: u32,
    assigned: bool,
}

impl ActiveScheduler {
    /// Bin `dt_wanted` into levels for a new base step of `dt_max`: the
    /// largest power-of-two fraction of `dt_max` not exceeding each
    /// particle's desired step, capped at `max_level`. The level array is
    /// cleared and refilled, never re-collected.
    pub fn assign(&mut self, dt_max: f64, dt_wanted: &[f64], max_level: u32) {
        assert!(dt_max > 0.0);
        self.dt_max = dt_max;
        self.levels.clear();
        self.levels.extend(dt_wanted.iter().map(|&dt| {
            assert!(dt > 0.0, "timesteps must be positive");
            let ratio = dt_max / dt;
            if ratio <= 1.0 {
                0
            } else {
                (ratio.log2().ceil() as u32).min(max_level)
            }
        }));
        self.max_level = self.levels.iter().copied().max().unwrap_or(0);
        self.assigned = true;
    }

    /// The schedule of the current (last assigned) base step, if any —
    /// `self`, once something has been assigned or restored. Readers that
    /// must tell "never ran in block mode" from "one level" go through
    /// this.
    pub fn schedule(&self) -> Option<&ActiveScheduler> {
        self.assigned.then_some(self)
    }

    /// Restore a previously captured level assignment verbatim (snapshot
    /// restart): unlike [`ActiveScheduler::assign`] the levels are taken
    /// as given, not re-derived from desired timesteps.
    pub fn restore(&mut self, dt_max: f64, levels: &[u32]) {
        assert!(dt_max > 0.0);
        self.dt_max = dt_max;
        self.levels.clear();
        self.levels.extend_from_slice(levels);
        self.max_level = levels.iter().copied().max().unwrap_or(0);
        self.assigned = true;
    }

    /// Deepen the substep walk to `depth` without touching any particle's
    /// level: the base step is subdivided as if level `depth` were
    /// occupied, so `substeps_per_base_step` becomes `2^depth` and every
    /// active-set period is computed against the deeper hierarchy. This
    /// is the distributed schedule-agreement hook — every rank raises its
    /// local schedule to the allreduced world maximum so all ranks walk
    /// the same fine-substep boundaries (and hit the same collectives),
    /// while ranks with only shallow levels simply have empty active sets
    /// at the extra boundaries. A `depth` below the deepest occupied
    /// level is a no-op. Panics if no schedule has been assigned.
    pub(crate) fn raise_depth(&mut self, depth: u32) {
        assert!(self.assigned, "raise_depth requires an assigned schedule");
        self.max_level = self.max_level.max(depth);
    }

    /// Deepest level the substep walk subdivides to: the deepest occupied
    /// level, or the `ActiveScheduler::raise_depth` override if deeper.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Substeps of the finest level needed to cover one base step (1
    /// before any assignment).
    pub fn substeps_per_base_step(&self) -> u64 {
        1u64 << self.max_level
    }

    /// The finest substep of the current schedule.
    pub(crate) fn dt_fine(&self) -> f64 {
        self.dt_max / self.substeps_per_base_step() as f64
    }

    /// The quantized step of particle `i`: `dt_max / 2^level`.
    pub(crate) fn dt_of(&self, i: usize) -> f64 {
        self.dt_max / (1u64 << self.levels[i]) as f64
    }

    /// Particles closing (and, mid-base-step, re-opening) a step at
    /// fine-substep boundary `k` in `1..=substeps_per_base_step()`,
    /// written into the caller-owned buffer (cleared, capacity kept): a
    /// particle at level `l` updates every `2^(max - l)` substeps, and at
    /// the base-step end boundary everyone closes a step.
    pub fn active_at_boundary_into(&self, k: u64, out: &mut Vec<u32>) {
        out.clear();
        for (i, &l) in self.levels.iter().enumerate() {
            let period = 1u64 << (self.max_level - l);
            if k.is_multiple_of(period) {
                out.push(i as u32);
            }
        }
    }

    /// Total particle-updates over one base step — the useful work.
    pub fn updates_per_base_step(&self) -> u64 {
        self.levels.iter().map(|&l| 1u64 << l).sum()
    }

    /// Parallel efficiency under the paper's cost argument: each of the
    /// `2^max_level` substeps pays `overhead_fraction` of a full-system
    /// update (prediction + tree + communication for *all* particles),
    /// while useful work is only the active updates. Equals ~1 when all
    /// particles share one level, and collapses when a few particles force
    /// deep levels.
    pub fn efficiency(&self, overhead_fraction: f64) -> f64 {
        let n = self.levels.len() as f64;
        let substeps = self.substeps_per_base_step() as f64;
        let useful = self.updates_per_base_step() as f64;
        let overhead = substeps * overhead_fraction * n;
        useful / (useful + overhead)
    }
}

/// Reduce per-rank schedules to a world-consistent substep walk — the
/// distributed block-timestep agreement protocol. Every rank bins its own
/// particles' desired dts locally ([`ActiveScheduler::assign`], same
/// `dt_base` everywhere), then contributes its deepest occupied level to
/// an allreduce-max; each rank raises its schedule to the agreed depth
/// ([`ActiveScheduler::raise_depth`]), so all ranks walk the identical
/// fine-substep boundaries — and therefore enter the identical sequence of
/// per-substep collectives (ghost refresh, barrier-bracketed timing) — with
/// ranks whose particles are all shallow simply contributing empty active
/// sets at the extra boundaries. Equivalent to an allreduce-min of the
/// finest quantized dt, since levels are powers of two below the shared
/// base step. Returns the world-consistent fine-substep count.
pub(crate) fn reduce_depth_world(comm: &mpisim::Comm, sched: &mut ActiveScheduler) -> u64 {
    let world = comm.allreduce_max_u64(sched.max_level() as u64) as u32;
    if sched.schedule().is_some() {
        sched.raise_depth(world);
    }
    sched.substeps_per_base_step()
}

/// Fill `out[i]` with particle `i`'s desired timestep: the minimum of the
/// base step, the SPH CFL criterion over the last force pass's signal
/// speeds (`vsig` entries are `(particle index, v_sig, h)`), and the
/// gravity acceleration criterion `C sqrt(eps / |a|)` — clamped below by
/// `dt_min` so one pathological particle cannot demand unbounded depth.
pub fn desired_timesteps(
    cfl: f64,
    eps: f64,
    dt_base: f64,
    dt_min: f64,
    acc: &[Vec3],
    vsig: &[(usize, f64, f64)],
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(acc.len(), dt_base);
    for (dt, a) in out.iter_mut().zip(acc) {
        let a_norm = a.norm();
        if a_norm > 0.0 {
            *dt = dt.min(dt_accel(cfl, eps.max(1e-12), a_norm));
        }
    }
    for &(i, v_sig, h) in vsig {
        if v_sig > 0.0 {
            out[i] = out[i].min(dt_cfl(cfl, h, 0.0, v_sig));
        }
    }
    for dt in out.iter_mut() {
        *dt = dt.clamp(dt_min, dt_base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unassigned_scheduler_reports_one_substep() {
        let s = ActiveScheduler::default();
        assert_eq!(s.substeps_per_base_step(), 1);
        assert!(s.schedule().is_none());
    }

    #[test]
    fn assignment_reuses_storage_across_base_steps() {
        let mut s = ActiveScheduler::default();
        s.assign(1.0, &[1.0, 0.3, 0.01], 10);
        assert_eq!(s.schedule().unwrap().max_level(), 7);
        assert_eq!(s.substeps_per_base_step(), 128);
        assert!((s.dt_fine() - 1.0 / 128.0).abs() < 1e-15);
        let mut active = Vec::new();
        s.active_at_boundary_into(s.substeps_per_base_step(), &mut active);
        assert_eq!(active, vec![0, 1, 2], "everyone closes at the base end");
        // Re-assign with uniform steps: no growth, single level.
        s.assign(1.0, &[1.0, 1.0, 1.0], 10);
        assert_eq!(s.substeps_per_base_step(), 1);
        assert_eq!(s.dt_of(1), 1.0);
    }

    #[test]
    fn world_depth_reduction_aligns_every_rank() {
        mpisim::World::new(3).run(|c| {
            let mut s = ActiveScheduler::default();
            // Rank 1 wants a 4x finer step than the others.
            let dt = if c.rank() == 1 { 0.25 } else { 1.0 };
            s.assign(1.0, &[dt], 10);
            let n_sub = reduce_depth_world(c, &mut s);
            assert_eq!(n_sub, 4, "rank {} walks the world depth", c.rank());
            assert_eq!(s.schedule().unwrap().max_level(), 2);
            // Shallow ranks are active only at the base-step boundaries.
            let mut active = Vec::new();
            s.active_at_boundary_into(2, &mut active);
            if c.rank() == 1 {
                assert_eq!(active, vec![0]);
            } else {
                assert!(active.is_empty());
            }
        });
    }

    #[test]
    fn desired_timesteps_combine_cfl_and_acceleration() {
        let acc = vec![
            Vec3::ZERO,                  // unconstrained -> dt_base
            Vec3::new(100.0, 0.0, 0.0),  // accel-limited
            Vec3::new(1e-12, 0.0, 0.0),  // negligible accel -> dt_base
            Vec3::new(1.0e12, 0.0, 0.0), // pathological -> clamped to dt_min
        ];
        // Particle 2 is gas with a hot signal speed.
        let vsig = vec![(2usize, 1000.0, 1.0)];
        let mut out = Vec::new();
        desired_timesteps(0.3, 1.0, 1.0, 1e-6, &acc, &vsig, &mut out);
        assert_eq!(out[0], 1.0);
        assert!((out[1] - 0.3 * (1.0f64 / 100.0).sqrt()).abs() < 1e-12);
        assert!(
            (out[2] - 0.3 / 1000.0).abs() < 1e-12,
            "CFL bites: {}",
            out[2]
        );
        assert_eq!(out[3], 1e-6, "clamped at dt_min");
        // The buffer is reused, not regrown.
        let cap = out.capacity();
        desired_timesteps(0.3, 1.0, 1.0, 1e-6, &acc, &vsig, &mut out);
        assert_eq!(out.capacity(), cap);
    }
}
