//! Layer replays of the traced pass. Nothing inside the program is
//! instrumented, so per-layer times come from copying the driver's particles
//! and calling the layers' public functions here, in the order
//! `Simulation::compute_forces` / `compute_forces_active` /
//! `SurrogateModel::predict_particles` compose them, one span per call.

use crate::trace::Tracer;
use astro::lifetime::explodes_in_interval;
use astro::units::{E_SN, G};
use asura_core::forces::NOT_GAS;
use asura_core::pool::UNetPredictor;
use asura_core::scheduler::desired_timesteps;
use asura_core::{ActiveScheduler, ForceBuffers, Particle, PoolPredictor, SimConfig, Simulation};
use fdps::{InteractionList, Tree, Vec3, WalkScratch};
use gravity::kernel::{accumulate_f64_soa, GravityAccum};
use gravity::GravitySolver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sph::solver::SphSolver;
use sph::GammaLawEos;
use std::hint::black_box;
use surrogate::{
    decode_fields, encode_fields, grid_to_particles, particles_to_grid, GasParticle, SurrogateModel,
};

/// Exact interaction counts of one replayed force evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForceCounts {
    pub gravity: u64,
    pub density: u64,
    pub force: u64,
}

impl ForceCounts {
    pub fn hydro(&self) -> u64 {
        self.density + self.force
    }
}

/// The staged list of the kernel probe: 64 targets against 2048 sources.
const KERNEL_I: usize = 64;
const KERNEL_J: usize = 2048;
const KERNEL_REPS: usize = 8;
pub const KERNEL_INTERACTIONS: f64 = (KERNEL_I * KERNEL_J * KERNEL_REPS) as f64;

/// Replays force evaluations on a scratch arena of its own, kept across
/// steps like the driver keeps its `ForceBuffers`.
pub struct ForceReplay {
    cfg: SimConfig,
    grav: GravitySolver,
    sph: SphSolver,
    bufs: ForceBuffers,
    copy: Vec<Particle>,
    vsig: Vec<(usize, f64, f64)>,
    scheduler: ActiveScheduler,
    walk_scratch: WalkScratch,
    walk_list: InteractionList,
    kernel_i: Vec<Vec3>,
    kernel_j: [Vec<f64>; 4],
    kernel_out: Vec<GravityAccum>,
    /// Groups and summed list length of the last serial walk probe.
    pub n_groups: usize,
    pub list_len_sum: usize,
}

impl ForceReplay {
    /// Solvers configured as `Simulation::gravity_solver` / `sph_solver`
    /// configure them.
    pub fn new(cfg: SimConfig, seed: u64) -> ForceReplay {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let kernel_j = [
            coords(KERNEL_J),
            coords(KERNEL_J),
            coords(KERNEL_J),
            vec![1.0; KERNEL_J],
        ];
        let (ix, iy, iz) = (coords(KERNEL_I), coords(KERNEL_I), coords(KERNEL_I));
        ForceReplay {
            cfg,
            grav: GravitySolver {
                g: G,
                theta: cfg.theta,
                n_group: cfg.n_group,
                n_leaf: 8,
                eps: cfg.eps,
                mixed_precision: cfg.mixed_precision,
            },
            sph: SphSolver {
                density_cfg: sph::density::DensityConfig {
                    n_ngb_target: cfg.n_ngb,
                    ..Default::default()
                },
                cfl: cfg.cfl,
                ..Default::default()
            },
            bufs: ForceBuffers::default(),
            copy: Vec::new(),
            vsig: Vec::new(),
            scheduler: ActiveScheduler::default(),
            walk_scratch: WalkScratch::default(),
            walk_list: InteractionList::default(),
            kernel_i: (0..KERNEL_I)
                .map(|k| Vec3::new(ix[k], iy[k], iz[k]))
                .collect(),
            kernel_j,
            kernel_out: vec![GravityAccum::default(); KERNEL_I],
            n_groups: 0,
            list_len_sum: 0,
        }
    }

    /// Copy the driver's particles: every evaluation below runs on the copy.
    pub fn load(&mut self, particles: &[Particle], t: &mut Tracer) {
        let copy = &mut self.copy;
        t.leaf("replay.copy", || {
            copy.clear();
            copy.extend_from_slice(particles);
        });
    }

    /// One full force evaluation on the copy, as `compute_forces` composes
    /// it, results scattered back like the driver scatters them.
    pub fn evaluate(&mut self, t: &mut Tracer) -> ForceCounts {
        t.scope("replay.full", |t| self.evaluate_inner(t))
    }

    fn evaluate_inner(&mut self, t: &mut Tracer) -> ForceCounts {
        let ForceReplay {
            grav,
            sph,
            bufs,
            copy,
            vsig,
            ..
        } = self;
        let n = copy.len();
        let mut counts = ForceCounts::default();
        if n == 0 {
            return counts;
        }
        t.leaf("core.forces.refresh", || bufs.refresh(copy));
        let tree = t.leaf("fdps.tree_build", || {
            Tree::build(&bufs.pos, &bufs.mass, grav.n_leaf)
        });
        let index = t.leaf("fdps.walk_index", || match bufs.walk_index.take() {
            Some(mut ix) => {
                ix.rebuild_from(&tree);
                ix
            }
            None => tree.walk_index(),
        });
        counts.gravity = t.leaf("gravity.eval", || {
            grav.evaluate_into_indexed(
                &tree,
                &index,
                &bufs.pos,
                &bufs.mass,
                n,
                &mut bufs.acc,
                &mut bufs.pot,
            )
        });
        bufs.tree = Some(tree);
        bufs.walk_index = Some(index);

        vsig.clear();
        if bufs.gas_idx.len() > 1 {
            t.leaf("core.forces.refresh_hydro", || bufs.refresh_hydro(copy));
            let n_gas = bufs.hydro.len();
            counts.density = t
                .leaf("sph.density", || {
                    sph.density_pass_with(&mut bufs.hydro, n_gas, &mut bufs.sph)
                })
                .density_interactions;
            counts.force = t
                .leaf("sph.force", || {
                    sph.force_pass_with(&mut bufs.hydro, n_gas, &mut bufs.sph)
                })
                .force_interactions;
            let state = &bufs.hydro;
            for (k, &i) in bufs.gas_idx.iter().enumerate() {
                bufs.acc[i] += state.acc[k];
                bufs.dudt[i] = state.dudt[k];
                copy[i].h = state.h[k];
                copy[i].rho = state.rho[k];
                vsig.push((i, state.v_sig[k].max(state.cs[k]), state.h[k]));
            }
        }
        counts
    }

    /// The opening half-kick and drift of `Simulation::kdk` on the copy,
    /// from the forces [`evaluate`](Self::evaluate) just scattered — so a
    /// second `evaluate` sees bit for bit the state of the driver's
    /// closing evaluation, and the pair can be held against the driver's
    /// own interaction counts for the step. (The driver offers no view of
    /// its mid-step state; this is the one piece of it mirrored here.)
    pub fn kick_drift(&mut self, dt: f64) {
        let (acc, dudt) = (&self.bufs.acc, &self.bufs.dudt);
        for (i, p) in self.copy.iter_mut().enumerate() {
            p.vel += acc[i] * (0.5 * dt);
            if p.is_gas() {
                p.u = (p.u + dudt[i] * 0.5 * dt).max(1e-10);
            }
            p.pos += p.vel * dt;
        }
    }

    /// The serial indexed MAC walk over every group of the tree the last
    /// [`evaluate`](Self::evaluate) built: the walk alone, which
    /// `evaluate_into_indexed` otherwise fuses with the kernel.
    pub fn walk_probe(&mut self, t: &mut Tracer) {
        let (Some(tree), Some(index)) = (&self.bufs.tree, &self.bufs.walk_index) else {
            return;
        };
        let (scratch, list) = (&mut self.walk_scratch, &mut self.walk_list);
        let theta = self.grav.theta;
        let n_group = self.grav.n_group;
        let (n_groups, len_sum) = t.leaf("fdps.walk_serial", || {
            let groups = tree.groups(n_group);
            let mut len_sum = 0;
            for &g in &groups {
                tree.walk_mac_indexed(index, &tree.nodes[g].bbox, theta, scratch, list);
                len_sum += black_box(list.len());
            }
            (groups.len(), len_sum)
        });
        self.n_groups = n_groups;
        self.list_len_sum = len_sum;
    }

    /// `accumulate_f64_soa` on the staged 64 x 2048 list, `KERNEL_REPS`
    /// times: the monopole kernel with nothing around it.
    pub fn kernel_probe(&mut self, t: &mut Tracer) {
        let eps2 = self.cfg.eps * self.cfg.eps;
        let [jx, jy, jz, jm] = &self.kernel_j;
        let (ipos, out) = (&self.kernel_i, &mut self.kernel_out);
        t.leaf("gravity.kernel", || {
            for _ in 0..KERNEL_REPS {
                accumulate_f64_soa(black_box(ipos), jx, jy, jz, jm, eps2, out);
            }
            black_box(&out);
        });
    }

    /// `desired_timesteps` + `ActiveScheduler::assign` on the forces of the
    /// last [`evaluate`](Self::evaluate), as `Simulation::block_step` opens a base
    /// step.
    pub fn assign_probe(&mut self, max_level: u32, t: &mut Tracer) {
        let ForceReplay {
            cfg,
            bufs,
            vsig,
            scheduler,
            ..
        } = self;
        t.leaf("core.scheduler.assign", || {
            desired_timesteps(
                cfg.cfl,
                cfg.eps,
                cfg.dt_global,
                cfg.dt_min,
                &bufs.acc,
                vsig,
                &mut bufs.dt_wanted,
            );
            scheduler.assign(cfg.dt_global, &bufs.dt_wanted, max_level);
        });
    }

    /// The active-subset passes of one base step under the schedule
    /// [`assign_probe`](Self::assign_probe) just assigned — the one the
    /// driver is about to assign from the same forces — on the copy and
    /// cached trees the last [`evaluate`](Self::evaluate) left:
    /// `Simulation::compute_forces_active` without the drift. A boundary's
    /// active set depends only on how many times 2 divides it, so one pass
    /// per such class, weighted by how many of the `2^L` boundaries fall in
    /// it, gives the mean cost of a substep.
    pub fn active(&mut self, t: &mut Tracer) -> Option<ActiveCost> {
        t.scope("replay.active", |t| self.active_inner(t))
    }

    fn active_inner(&mut self, t: &mut Tracer) -> Option<ActiveCost> {
        let ForceReplay {
            grav,
            sph,
            bufs,
            copy,
            scheduler,
            ..
        } = self;
        let n = copy.len();
        let depth = scheduler.schedule()?.max_level();
        let (mut tree, mut index) = (bufs.tree.take()?, bufs.walk_index.take()?);
        let mut cost = ActiveCost::default();
        for class in 0..=depth {
            // Boundaries `k` in `1..=2^depth` with exactly `class` factors
            // of two; the last boundary alone has `depth` of them.
            let boundaries = if class < depth {
                1u64 << (depth - class - 1)
            } else {
                1
            };
            let weight = boundaries as f64 / (1u64 << depth) as f64;
            scheduler.active_at_boundary_into(1 << class, &mut bufs.active);
            if bufs.active.is_empty() {
                continue;
            }
            cost.refresh_ms += weight * t.timed("core.forces.refresh", || bufs.refresh(copy)).1;
            bufs.active_mask.clear();
            bufs.active_mask.resize(n, false);
            bufs.active_gas.clear();
            for &ai in &bufs.active {
                bufs.active_mask[ai as usize] = true;
                let k = bufs.gas_local[ai as usize];
                if k != NOT_GAS {
                    bufs.active_gas.push(k as usize);
                }
            }
            cost.particles += weight * bufs.active.len() as f64;
            cost.tree_refresh_ms += weight
                * t.timed("fdps.tree_refresh", || tree.refresh(&bufs.pos, &bufs.mass))
                    .1;
            cost.index_refresh_ms += weight
                * t.timed("fdps.walk_index_refresh", || index.refresh(&tree))
                    .1;
            let (interactions, ms) = t.timed("gravity.eval_active", || {
                grav.evaluate_into_active_indexed(
                    &tree,
                    &index,
                    &bufs.pos,
                    &bufs.mass,
                    n,
                    &bufs.active_mask,
                    &mut bufs.acc,
                    &mut bufs.pot,
                )
            });
            cost.gravity_ms += weight * ms;
            cost.gravity_interactions += weight * interactions as f64;
            if bufs.gas_idx.len() > 1 && !bufs.active_gas.is_empty() {
                cost.refresh_hydro_ms += weight
                    * t.timed("core.forces.refresh_hydro", || bufs.refresh_hydro(copy))
                        .1;
                cost.density_ms += weight
                    * t.timed("sph.density_active", || {
                        sph.density_pass_active(&mut bufs.hydro, &bufs.active_gas, &mut bufs.sph)
                    })
                    .1;
                cost.force_ms += weight
                    * t.timed("sph.force_active", || {
                        sph.force_pass_active(&mut bufs.hydro, &bufs.active_gas, &mut bufs.sph)
                    })
                    .1;
            }
        }
        bufs.tree = Some(tree);
        bufs.walk_index = Some(index);
        Some(cost)
    }

    /// The levels [`assign_probe`](Self::assign_probe) last assigned.
    pub fn assigned_levels(&self) -> Option<&[u32]> {
        self.scheduler.schedule().map(|s| s.levels.as_slice())
    }
}

/// Mean cost of one fine substep's active-subset pass, per call \[ms\].
#[derive(Debug, Clone, Copy, Default)]
pub struct ActiveCost {
    pub refresh_ms: f64,
    pub tree_refresh_ms: f64,
    pub index_refresh_ms: f64,
    pub gravity_ms: f64,
    pub refresh_hydro_ms: f64,
    pub density_ms: f64,
    pub force_ms: f64,
    /// Mean active particles and gravity interactions per substep.
    pub particles: f64,
    pub gravity_interactions: f64,
}

/// What one replayed SN region prediction conserved.
#[derive(Debug, Clone, Copy)]
pub struct RegionAudit {
    pub particles: usize,
    /// `|m_out - m_in| / m_in`.
    pub mass_err: f64,
    /// `|gain - E_SN| / E_SN`, gain = thermal + kinetic energy of the
    /// predicted region minus that of the region as cut (ROADMAP item 4a).
    pub energy_budget_err: f64,
}

/// Replays the pool predictor on the regions the driver is about to cut.
pub struct SurrogateReplay {
    predictor: UNetPredictor,
    eos: GammaLawEos,
}

impl SurrogateReplay {
    pub fn new(seed: u64, weights_json: &str, region_side: f64) -> Result<SurrogateReplay, String> {
        Ok(SurrogateReplay {
            predictor: UNetPredictor::from_weights(seed, weights_json, region_side)?,
            eos: GammaLawEos::default(),
        })
    }

    pub fn model(&self) -> &SurrogateModel {
        &self.predictor.model
    }

    /// The `(centre, region gas)` of every SN `sim.step()` will identify
    /// next, cut as `Simulation::dispatch_region` cuts it.
    fn regions(&self, sim: &Simulation) -> Vec<(Vec3, Vec<GasParticle>)> {
        let cfg = &sim.config;
        let half = 0.5 * cfg.region_side;
        sim.particles
            .iter()
            .filter(|p| {
                p.is_star()
                    && !p.exploded
                    && explodes_in_interval(p.mass, p.birth_time, sim.time, cfg.dt_global)
            })
            .map(|star| {
                let c = star.pos;
                let gas = sim
                    .particles
                    .iter()
                    .filter(|p| {
                        let d = p.pos - c;
                        p.is_gas() && d.x.abs() < half && d.y.abs() < half && d.z.abs() < half
                    })
                    .map(|p| GasParticle {
                        pos: p.pos,
                        vel: p.vel,
                        mass: p.mass,
                        temp: self.eos.temperature_from_u(p.u),
                        h: p.h.max(1e-3),
                        id: p.id,
                    })
                    .collect();
                (c, gas)
            })
            .collect()
    }

    fn energy(&self, gas: &[GasParticle]) -> f64 {
        gas.iter()
            .map(|g| g.mass * (0.5 * g.vel.norm2() + self.eos.u_from_temperature(g.temp.max(1.0))))
            .sum()
    }

    /// For each SN of the coming step: the whole `PoolPredictor::predict`
    /// call the driver makes, then its stages one by one with the same RNG
    /// stream.
    pub fn replay(&self, sim: &Simulation, t: &mut Tracer) -> Vec<RegionAudit> {
        let regions = t.leaf("replay.cut_regions", || self.regions(sim));
        if regions.is_empty() {
            return Vec::new();
        }
        let model = self.model();
        regions
            .iter()
            .filter(|(_, gas)| !gas.is_empty())
            .map(|(center, gas)| {
                let whole = t.leaf("core.pool.predict", || {
                    self.predictor
                        .predict(*center, E_SN, sim.config.horizon(), gas)
                });
                let staged = t.scope("replay.predict_stages", |t| {
                    let mut rng = StdRng::seed_from_u64(self.predictor.seed ^ gas.len() as u64);
                    let grid = model.region_grid(*center);
                    let fields = t.leaf("surrogate.voxelize", || particles_to_grid(grid, gas));
                    let encoded = t.leaf("surrogate.encode", || encode_fields(&fields));
                    let predicted = t.leaf("unet.forward", || model.infer(&encoded));
                    let out = t.leaf("surrogate.decode", || decode_fields(&predicted, grid));
                    let ids: Vec<u64> = gas.iter().map(|p| p.id).collect();
                    t.leaf("surrogate.gibbs", || {
                        grid_to_particles(&mut rng, &out, gas.len(), &ids, 30, 1)
                    })
                });
                black_box(&staged);
                let m_in: f64 = gas.iter().map(|p| p.mass).sum();
                let m_out: f64 = whole.iter().map(|p| p.mass).sum();
                let gain = self.energy(&whole) - self.energy(gas);
                RegionAudit {
                    particles: gas.len(),
                    mass_err: ((m_out - m_in) / m_in).abs(),
                    energy_budget_err: ((gain - E_SN) / E_SN).abs(),
                }
            })
            .collect()
    }
}

/// Floating-point operations of one U-Net forward pass on an `n`^3 grid
/// with `f` base features and 8 channels in and out: 2 per multiply-add of
/// every convolution in `UNet3d::new`'s layer table (3^3 kernels, a 1^3
/// head), computed from the shapes — not measured.
pub fn unet_forward_flops(n: usize, f: usize) -> f64 {
    let conv = |cin: usize, cout: usize, k: usize, side: usize| {
        2.0 * (cin * cout * k.pow(3) * side.pow(3)) as f64
    };
    let (l1, l2, l3) = (n, n / 2, n / 4);
    conv(8, f, 3, l1)
        + conv(f, f, 3, l1)
        + conv(f, 2 * f, 3, l2)
        + conv(2 * f, 2 * f, 3, l2)
        + conv(2 * f, 4 * f, 3, l3)
        + conv(4 * f, 4 * f, 3, l3)
        + conv(6 * f, 2 * f, 3, l2)
        + conv(2 * f, 2 * f, 3, l2)
        + conv(3 * f, f, 3, l1)
        + conv(f, f, 3, l1)
        + conv(f, 8, 1, l1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Workload};

    #[test]
    fn a_replayed_kdk_pair_counts_exactly_what_the_driver_counts() {
        // Star formation and cooling stay on: they act after the step's
        // two evaluations and cannot reach its counts.
        let input = generate(Workload::GalaxyGlobal, 9, true);
        let mut sim = Simulation::new(input.cfg, input.particles, 9);
        let mut replay = ForceReplay::new(input.cfg, 9);
        let mut t = Tracer::new("test");
        t.set_on(true);
        for _ in 0..2 {
            let then = sim.stats;
            replay.load(&sim.particles, &mut t);
            let a = replay.evaluate(&mut t);
            replay.kick_drift(sim.config.dt_global);
            let b = replay.evaluate(&mut t);
            sim.step();
            assert_eq!(
                a.gravity + b.gravity,
                sim.stats.gravity_interactions - then.gravity_interactions
            );
            assert_eq!(
                a.hydro() + b.hydro(),
                sim.stats.hydro_interactions - then.hydro_interactions
            );
        }
        replay.walk_probe(&mut t);
        assert!(replay.n_groups > 0 && replay.list_len_sum > replay.n_groups);
        replay.kernel_probe(&mut t);
        assert_eq!(t.durations_ms("gravity.eval").len(), 4);
        assert_eq!(t.durations_ms("gravity.kernel").len(), 1);
    }

    #[test]
    fn unet_flops_follow_the_layer_table() {
        // 4^3 grid, f = 1: level sides 4, 2, 1.
        let macs = 27 * (64 * (8 + 1 + 3 + 1) + 8 * (2 + 4 + 12 + 4) + (8 + 16)) + 64 * 8;
        assert_eq!(unet_forward_flops(4, 1), 2.0 * macs as f64);
    }
}
