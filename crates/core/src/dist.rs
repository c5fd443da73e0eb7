//! Distributed driver: the paper's main/pool architecture over `mpisim`.
//!
//! The world communicator is split (paper §3.1): *main* ranks integrate the
//! galaxy with domain decomposition, LET gravity, ghost-exchange SPH and a
//! KDK leapfrog; *pool* ranks sit in a service loop running the SN
//! predictor. Regions travel main → pool when an SN is identified and come
//! back `pool_latency_steps` later, exactly as in Fig. 3. Every phase is
//! timed with barrier brackets under the paper's phase names, which is what
//! Figures 6/7 and Table 3 plot.
//!
//! # Phase map (paper Fig. 6/7 legend → where it is measured here)
//!
//! | Legend entry | Global (KDK) | Block (substepped) |
//! |---|---|---|
//! | `Exchange_Particle` | decomposition + migration, once per step | once per base step |
//! | `Identify_SNe` | the slab's SN scan | same, at base cadence |
//! | `Send_SNe` | event all-gather; per event the feedback weights' Σw and (surrogate scheme) the region gather | same, at base cadence |
//! | `1st Make_Local_Tree` / `1st Exchange_LET` | gravity tree + LET of the opening force pass | base-step full pass |
//! | `1st Calc_Force` | gravity + SPH forces of the opening pass | base-step full pass |
//! | `Preprocess_of_Feedback` | SPH ghost exchange (pre-density + owner-value refresh) | **per-substep ghost refresh** — the synchronization cost §1 charges against individual timesteps |
//! | `1st Calc_Kernel_Size_and_Density` | kernel-size/density of the opening pass | base-step full pass |
//! | `Integration` | the conventional scheme's CFL-step min-reduction, opening half-kick + drift | level assignment, schedule reduction, opening half-kick and per-substep drift-prediction of *all* particles |
//! | `2nd Make_Tree` / `2nd Exchange_LET` | gravity tree + LET of the closing (re-force) pass | per-substep moment refresh of the cached source tree (LET imports reused) |
//! | `2nd Calc_Kernel_Size` | density of the closing pass | per-substep active-set density |
//! | `2nd Calc_Force` | gravity + SPH forces of the closing pass | per-substep active-set forces |
//! | `Final_kick (brdg asso)` | closing half-kick | per-substep closing/opening kicks of the active set |
//! | `Receive_SNe` | pool replies, shared with every rank | same, at base cadence |
//! | `Feedback_and_Cooling (direct)` / `Star Formation` | cooling / the star-formation draws and the all-gather of the spawning parents' ids | same, at base cadence |
//!
//! In `Global` mode the loop is a true kick–drift–kick: the opening force
//! pass (`1st *` phases) feeds the half-kick + drift, a full re-force at
//! the drifted positions (`2nd *` phases — a real evaluation, not a timed
//! placeholder) feeds the closing half-kick under `Final_kick`.
//!
//! # One step, two drivers
//!
//! None of the §3.2 sequence is written here: a main rank calls
//! `step::step` — the function the shared-memory
//! [`Simulation`](crate::sim::Simulation) calls — on its local slab,
//! through a `Halo` (`DistHalo`) that holds everything distributed about
//! the step, so [`SimConfig::scheme`] and [`SimConfig::timestep`] mean here
//! what they mean there. On a `(1,1,1)` grid the halo has nobody to talk
//! to and the two drivers agree to the bit — every particle field and the
//! whole [`SimStats`] — under either scheme and either timestep mode,
//! through an SN and while forming stars (`tests/distributed.rs`). On more
//! ranks the domain cut reorders the force sums and agreement is a drift
//! class; a blast that straddles the cut still deposits the same yields and
//! energy to round-off, since only Σw crosses ranks, and a star-formation
//! draw is keyed by `(SimConfig::seed, id, step)`, not by the rank.
//!
//! # Distributed block timesteps
//!
//! [`TimestepMode::Block`](crate::config::TimestepMode) runs the paper's
//! *conventional* hierarchy across ranks so its per-substep
//! synchronization cost (§1, §5.3, Figs. 6/7) is measured rather than
//! modeled. The schedule-reduction protocol per base step:
//!
//! 1. each rank computes per-particle desired dts from the base-step full
//!    force pass ([`scheduler::desired_timesteps`]) and bins them into
//!    power-of-two levels locally ([`ActiveScheduler::assign`] — the level
//!    of a particle depends only on its own dt and the shared `dt_global`,
//!    so binning needs no communication);
//! 2. the deepest occupied level is allreduce-maxed over the main ranks
//!    (equivalently: allreduce-min of the finest quantized dt) and every
//!    rank raises its schedule to the agreed depth
//!    (`scheduler::reduce_depth_world`), so all ranks walk the identical
//!    `2^depth` fine-substep boundaries and enter the identical sequence
//!    of collectives;
//! 3. each fine substep drifts *all* particles (inactive ones are thereby
//!    drift-predicted), refreshes the SPH ghosts (two collective
//!    exchanges: pre-density, then owner-converged values — this is the
//!    cost that dominates Fig. 6/7 when active fractions are small),
//!    moment-refreshes the cached gravity source tree
//!    ([`fdps::Tree::refresh`], LET imports frozen at their base-step
//!    positions, full rebuild when the 5%-of-cube drift bound trips) and
//!    the SPH neighbor tree, and gives only the boundary's active set new
//!    forces and kicks.
//!
//! Domain decomposition, SN identification/feedback, pool replies and
//! cooling stay at the base cadence, as conventional codes re-synchronize
//! there. Per-rank [`SimStats`] (substeps, active updates, tree
//! refresh/rebuild splits) are gathered into [`DistReport::rank_stats`],
//! and [`SimStats::combine`] of them is the run's.
//!
//! # Checkpoints
//!
//! At the [`DistConfig::snapshot_every`] cadence the main ranks gather the
//! one snapshot kind there is, a [`SimSnapshot`] with one
//! [`SlabRecord`](crate::snapshot::SlabRecord) per rank — what
//! [`Simulation::snapshot`](crate::sim::Simulation::snapshot) writes with
//! one — onto main rank 0. Each rank first redeems the tickets it has in
//! the pool, so the queue travels *predicted*, as it does there, and a
//! resume asks the pool for nothing; each slab keeps its own queue because
//! the rank that dispatched a region is the one that counts it applied.
//!
//! None is kept: main rank 0 hands each to [`run`]'s per-step hook (the
//! `asura` CLI commits it there), and the gather's broadcast leg carries
//! the hook's verdict back, so a failed commit stops every rank at that
//! step. [`Start::Resumed`] hands every rank its slab back and the run
//! continues to the bit, [`DistReport::rank_stats`] included.
//!
//! # Threads
//!
//! Every rank is an `mpisim` thread, as every rank is a process in the
//! paper (§3.1, Fig. 3). The pool rank sleeps in [`Comm::wait_any`] until a
//! region or main rank 0's shutdown is queued, so it holds no core while
//! idle. Where the parallel regions of a rank (tree walks, SPH passes, the
//! U-Net's convolutions) run depends on one observable count:
//!
//! - **Fewer main ranks than worker-pool threads**
//!   (`n_main < rayon::current_num_threads()`): a rank submits its regions
//!   to the process's one worker pool, which runs one region at a time on
//!   every core.
//! - **At least as many**: every rank, pool rank included, runs inside
//!   [`rayon::solo`], so its regions run on its own thread. On the shared
//!   pool these ranks would only take turns, each one's region holding
//!   the cores the others' rank threads are already on.
//!
//! The output bits are the same either way. Every parallel kernel writes
//! disjoint targets, each a function of its own inputs; a kernel that
//! partitions its work does so by `rayon::current_num_threads()`, which
//! `solo` does not change, never by which thread runs a piece.
//! `tests/partition_independence.rs` holds shared-memory runs of every
//! kernel family to that, inside and outside `solo`.
//!
//! # Ghost exchange
//!
//! SPH ghosts are exchanged twice per force evaluation: once before the
//! density pass (positions/masses make boundary densities exact), and
//! again after it with the *owner's* freshly converged `rho`/`h` and
//! current `u`/`vel` — the second exchange re-selects with the identical
//! per-particle reach, so it returns the same ghosts in the same order and
//! the entries are overwritten in place. Ghost densities are therefore the
//! owning rank's same-pass values, never a locally invented clamp.

use crate::config::SimConfig;
use crate::forces::{Halo, PassPhases};
use crate::particle::Particle;
use crate::phases;
use crate::pool::{PoolPredictor, SedovOverlayPredictor, UNetPredictor};
use crate::scheduler::{self, ActiveScheduler};
pub use crate::sim::SimStats;
use crate::snapshot::{ModelState, PendingPrediction, SimSnapshot};
use crate::step::{self, Explosion, Slab, SlabState};
use astro::units::E_SN;
use fdps::domain::DomainDecomposition;
use fdps::exchange::{exchange_ghosts, exchange_particles, Routing};
use fdps::exchange_let;
use fdps::{Tree, Vec3};
use gravity::GravitySolver;
use mpisim::ReduceOp;
use mpisim::{Comm, PhaseReport, PhaseTimer, World};
use sph::solver::HydroState;
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;
use surrogate::{GasParticle, SurrogateModel};

const TAG_REGION: u64 = 50;
const TAG_SHUTDOWN: u64 = 51;
const TAG_REPLY_BASE: u64 = 1_000_000;

/// Which predictor the pool ranks run (paper Fig. 3 step 3), ready to
/// build: a file-backed `--predictor` is a [`PredictorSpec`] until
/// [`PredictorSpec::resolve`] has read and validated it. A config-level
/// enum rather than a trait object so [`DistConfig`] stays cloneable and
/// every pool rank can construct its own instance.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorKind {
    /// Analytic Sedov–Taylor overlay: deterministic and cheap (the default,
    /// and the reference the U-Net is trained to imitate).
    SedovOverlay,
    /// Trained weights held inline, as snapshots embed them: the verbatim,
    /// checksummed [`SurrogateModel::to_json`] document and the
    /// per-request Gibbs-resampling RNG seed.
    UNet(ModelState),
}

impl PredictorKind {
    /// Instantiate the predictor for regions of side `region_side`. This is
    /// where an inline weights document is decoded, whoever supplied it — a
    /// checkpoint's checksum covers damage, not intent — so one that does
    /// not decode is [`DistError::BadWeights`] here, before any rank or
    /// step runs.
    pub fn build(&self, region_side: f64) -> Result<Box<dyn PoolPredictor>, DistError> {
        match self {
            PredictorKind::SedovOverlay => Ok(Box::new(SedovOverlayPredictor)),
            PredictorKind::UNet(model) => {
                match UNetPredictor::from_weights(model.seed, &model.weights_json, region_side) {
                    Ok(predictor) => Ok(Box::new(predictor)),
                    Err(reason) => Err(DistError::BadWeights {
                        path: "<inline weights>".into(),
                        reason,
                    }),
                }
            }
        }
    }

    /// The model a checkpoint embeds for this predictor: the trained
    /// weights, or `None` for the analytic kind, which rebuilds
    /// deterministically from config alone.
    pub fn model(&self) -> Option<&ModelState> {
        match self {
            PredictorKind::UNet(model) => Some(model),
            PredictorKind::SedovOverlay => None,
        }
    }
}

/// How `--predictor` spells the pool predictor: `sedov`, or
/// `unet:<weights.json>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictorSpec {
    /// The analytic Sedov–Taylor overlay (the default, no weights needed).
    Sedov,
    /// A trained U-Net from `asura train-surrogate` weights at this path.
    UNet(String),
}

impl PredictorSpec {
    /// Resolve to a ready [`PredictorKind`]: for `unet:` this reads the
    /// weights file and decodes it in full (checksum included), so a
    /// missing, foreign or corrupt file is a typed
    /// [`DistError::BadWeights`] here — before any rank is spawned, never
    /// a loader panic mid-run. `seed` seeds the Gibbs resampling.
    pub fn resolve(&self, seed: u64) -> Result<PredictorKind, DistError> {
        let PredictorSpec::UNet(path) = self else {
            return Ok(PredictorKind::SedovOverlay);
        };
        let bad = |reason: String| DistError::BadWeights {
            path: path.clone(),
            reason,
        };
        let weights_json = std::fs::read_to_string(path).map_err(|e| bad(e.to_string()))?;
        SurrogateModel::from_json(&weights_json).map_err(bad)?;
        Ok(PredictorKind::UNet(ModelState { seed, weights_json }))
    }
}

impl fmt::Display for PredictorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorSpec::Sedov => f.write_str("sedov"),
            PredictorSpec::UNet(path) => write!(f, "unet:{path}"),
        }
    }
}

impl FromStr for PredictorSpec {
    type Err = String;
    fn from_str(s: &str) -> Result<PredictorSpec, String> {
        match (s, s.strip_prefix("unet:")) {
            ("sedov", _) => Ok(PredictorSpec::Sedov),
            (_, Some(path)) if !path.is_empty() => Ok(PredictorSpec::UNet(path.to_string())),
            _ => Err(format!(
                "unknown predictor `{s}` (expected sedov | unet:<weights.json>)"
            )),
        }
    }
}

/// Distributed run parameters.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Main-rank process grid; `nx * ny * nz` main ranks.
    pub grid: (usize, usize, usize),
    /// Pool ranks (paper: ~50 at full scale; small runs use a few).
    pub n_pool: usize,
    /// Alltoallv routing for decomposition/LET traffic.
    pub routing: Routing,
    pub sim: SimConfig,
    /// Steps to integrate (base steps in `TimestepMode::Block`).
    pub steps: usize,
    /// The predictor served by the pool ranks.
    pub predictor: PredictorKind,
    /// Checkpoint cadence in steps (0 = off): every `snapshot_every`-th
    /// completed step the main ranks gather a [`SimSnapshot`] (one slab
    /// per rank) for [`run`]'s hook, resumable with [`Start::Resumed`].
    pub snapshot_every: u64,
}

impl DistConfig {
    pub fn n_main(&self) -> usize {
        self.grid.0 * self.grid.1 * self.grid.2
    }

    pub(crate) fn world_size(&self) -> usize {
        self.n_main() + self.n_pool
    }
}

/// Typed failure of the distributed driver, returned as `Err` from [`run`]
/// / [`run_distributed`] (or
/// `Simulation::try_restore`): all
/// but [`DistError::Stopped`] before any rank is spawned or any step taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// The main-rank grid is empty (`grid` multiplies to zero).
    NoMainRank,
    /// No pool ranks are configured to serve SN-region predictions.
    NoPoolRank,
    /// A resume snapshot's slab count does not match the configured grid
    /// (one, for the shared-memory driver).
    GridMismatch {
        snapshot_ranks: usize,
        config_ranks: usize,
    },
    /// Trained weights — a `--predictor` file, or the document a
    /// checkpoint embeds — could not be read or failed validation (foreign
    /// document, damaged weights, checksum mismatch). Raised by
    /// [`PredictorSpec::resolve`] and [`PredictorKind::build`]; the CLI
    /// maps it to a permanent exit so the supervisor never retries a run
    /// whose weights can never load.
    BadWeights { path: String, reason: String },
    /// [`run`]'s per-step hook failed (a checkpoint commit, in the CLI), and
    /// every rank stopped at the gather that carried the failure.
    Stopped(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NoMainRank => write!(f, "distributed run needs at least one main rank"),
            DistError::NoPoolRank => write!(f, "distributed run needs at least one pool rank"),
            DistError::GridMismatch {
                snapshot_ranks,
                config_ranks,
            } => write!(
                f,
                "resume requires the snapshotting run's main-rank grid: \
                 snapshot has {snapshot_ranks} slab(s), this run has {config_ranks}"
            ),
            DistError::BadWeights { path, reason } => {
                write!(f, "cannot load surrogate weights `{path}`: {reason}")
            }
            DistError::Stopped(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for DistError {}

/// Aggregated result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Slowest-rank phase timings (the paper's measurement convention).
    pub phases: PhaseReport,
    /// Steps this call integrated. Every counter below is the *run's*
    /// total: a resumed run carries its checkpoint's counters on. The four
    /// named ones are [`SimStats::combine`] of `rank_stats`, kept by name
    /// because callers read them.
    pub steps: u64,
    pub sn_events: u64,
    pub regions_applied: u64,
    pub gravity_interactions: u64,
    pub hydro_interactions: u64,
    pub final_particles: u64,
    /// Communication volume per rank (bytes sent), main ranks only.
    pub bytes_sent: Vec<u64>,
    /// The complete final particle state, sorted by id (restart-determinism
    /// audits compare this across runs).
    pub final_state: Vec<Particle>,
    /// Per-main-rank integration counters (substeps, active updates, tree
    /// refresh/rebuild splits, dt floor) — `TimestepMode::Block` runs
    /// populate the substep counters on every rank, and schedule agreement
    /// shows up as identical `substeps` across the vector.
    pub rank_stats: Vec<SimStats>,
    /// Always `None`: no path degrades a run mid-flight — a run completes
    /// or returns `Err`. Kept because callers read it.
    pub error: Option<DistError>,
}

/// A region in the pool, as the main rank that dispatched it holds it.
enum Ticket {
    /// Shipped: the reply comes from `pool_rank` under the event's own tag.
    Shipped { event_id: u64, pool_rank: usize },
    /// Already received — by a checkpoint gather, or by the run a resume
    /// continues.
    Redeemed(Vec<GasParticle>),
}

impl Ticket {
    /// The prediction: the blocking receive due at `due_step`, or what an
    /// earlier one returned. A prediction is a pure function of its
    /// request, so *when* it is received cannot reach state.
    fn redeem(self, world: &Comm) -> Vec<GasParticle> {
        match self {
            Ticket::Shipped {
                event_id,
                pool_rank,
            } => world.recv_vec(pool_rank, TAG_REPLY_BASE + event_id),
            Ticket::Redeemed(predicted) => predicted,
        }
    }
}

/// Where a run starts: a full initial condition (main ranks claim strided
/// slices, then balance) or a checkpoint (each rank takes its slab back).
pub enum Start {
    Fresh(Vec<Particle>),
    Resumed(Box<SimSnapshot>),
}

/// Run `cfg.steps` steps of `cfg.sim`'s scheme across `n_main + n_pool`
/// ranks from `start`, main rank 0 calling `on_step(step, checkpoint)`
/// after every step — with the checkpoint on the
/// [`DistConfig::snapshot_every`] cadence. A hook error is the hook's last
/// call: every rank stops at the next gather, or the run's end, with
/// [`DistError::Stopped`]. A resume runs under `cfg.sim` (the snapshot's
/// `config` with overrides, normally) on the snapshotting run's grid
/// ([`DistError::GridMismatch`] if not), its pool serving the model the
/// snapshot embeds, if any, over `cfg.predictor`.
pub fn run(
    cfg: &DistConfig,
    start: &Start,
    on_step: impl FnMut(u64, Option<&SimSnapshot>) -> Result<(), String> + Send,
) -> Result<DistReport, DistError> {
    let snapshot = match start {
        Start::Fresh(particles) => return run_inner(cfg, particles, None, on_step),
        Start::Resumed(snapshot) => snapshot,
    };
    if snapshot.slabs.len() != cfg.n_main() {
        return Err(DistError::GridMismatch {
            snapshot_ranks: snapshot.slabs.len(),
            config_ranks: cfg.n_main(),
        });
    }
    let mut cfg = cfg.clone();
    if let Some(model) = &snapshot.model {
        cfg.predictor = PredictorKind::UNet(model.clone());
    }
    run_inner(&cfg, &[], Some(snapshot), on_step)
}

/// [`run`] from `particles`, with nothing to do between steps.
pub fn run_distributed(cfg: &DistConfig, particles: &[Particle]) -> Result<DistReport, DistError> {
    run_inner(cfg, particles, None, |_, _| Ok(()))
}

fn run_inner(
    cfg: &DistConfig,
    particles: &[Particle],
    resume: Option<&SimSnapshot>,
    on_step: impl FnMut(u64, Option<&SimSnapshot>) -> Result<(), String> + Send,
) -> Result<DistReport, DistError> {
    let n_main = cfg.n_main();
    if n_main < 1 {
        return Err(DistError::NoMainRank);
    }
    if cfg.n_pool < 1 {
        return Err(DistError::NoPoolRank);
    }
    // One predictor, built (and its weights decoded) before any rank is
    // spawned; the pool ranks share it.
    let predictor = cfg.predictor.build(cfg.sim.region_side)?;
    let on_step = Mutex::new(on_step);
    // With at least as many main ranks as cores, every rank keeps its own
    // (module docs, "Threads").
    let solo = n_main >= rayon::current_num_threads();
    let world = World::new(cfg.world_size());
    let (results, stats) = world.run_with_stats(|comm| {
        let rank = || {
            let is_pool = comm.rank() >= n_main;
            let sub = comm.split(is_pool as u64, comm.rank() as i64);
            if is_pool {
                pool_loop(comm, n_main, predictor.as_ref(), cfg);
                None
            } else {
                Some(main_loop(comm, &sub, cfg, particles, resume, &on_step))
            }
        };
        if solo {
            rayon::solo(rank)
        } else {
            rank()
        }
    });
    let mut report = results
        .into_iter()
        .flatten()
        .next()
        .ok_or(DistError::NoMainRank)??;
    report.bytes_sent = stats[..n_main].iter().map(|s| s.bytes_sent).collect();
    Ok(report)
}

/// The pool-rank service loop (paper Fig. 3 right half): asleep until a
/// main rank ships a region or main rank 0 ends the service.
fn pool_loop(world: &Comm, n_main: usize, predictor: &dyn PoolPredictor, cfg: &DistConfig) {
    loop {
        let (src, tag) = world.wait_any(|src, tag| {
            (tag == TAG_REGION && src < n_main) || (tag == TAG_SHUTDOWN && src == 0)
        });
        if tag == TAG_SHUTDOWN {
            let _: u8 = world.recv(0, TAG_SHUTDOWN);
            return;
        }
        let (event_id, center, gas): (u64, [f64; 3], Vec<GasParticle>) =
            world.recv(src, TAG_REGION);
        let predicted = predictor.predict(
            Vec3::new(center[0], center[1], center[2]),
            E_SN,
            cfg.sim.horizon(),
            &gas,
        );
        world.send_vec(src, TAG_REPLY_BASE + event_id, predicted);
    }
}

/// One SPH ghost record: the owner's current state plus the exchange
/// reach it was selected with (stored so the post-density refresh
/// re-selects the identical ghost set — see the module docs).
#[derive(Clone)]
struct Ghost {
    pos: Vec3,
    vel: Vec3,
    mass: f64,
    u: f64,
    h: f64,
    rho: f64,
    reach: f64,
}

/// One main rank's view of the other ranks: the [`Halo`] that
/// [`step::step`] and the force pipeline under it run through. Every
/// method but `submit` is collective over `main` and recorded,
/// barrier-bracketed, under the paper's phase names.
struct DistHalo<'a> {
    world: &'a Comm,
    main: &'a Comm,
    cfg: &'a DistConfig,
    timer: PhaseTimer,
    /// This step's decomposition (`rebalance` opens every step).
    dd: Option<DomainDecomposition>,
    /// Pre-density exchange reach per local gas particle, reused by the
    /// post-density ghost refresh so the selection is identical.
    reach0: Vec<f64>,
    /// Regions this rank has shipped; numbers its event ids.
    shipped: u64,
}

/// This step's decomposition.
fn opened(dd: &Option<DomainDecomposition>) -> &DomainDecomposition {
    dd.as_ref().expect("rebalance opens every step")
}

/// Exchange the local gas (current owner values, one `reach` entry each)
/// as ghost payloads.
fn exchange_gas(
    main: &Comm,
    dd: &DomainDecomposition,
    routing: Routing,
    reach: &[f64],
    hydro: &HydroState,
) -> Vec<Ghost> {
    let locals: Vec<Ghost> = reach
        .iter()
        .enumerate()
        .map(|(k, &reach)| Ghost {
            pos: hydro.pos[k],
            vel: hydro.vel[k],
            mass: hydro.mass[k],
            u: hydro.u[k],
            h: hydro.h[k],
            rho: hydro.rho[k],
            reach,
        })
        .collect();
    exchange_ghosts(main, dd, &locals, |g| g.pos, |g| g.reach, routing)
}

impl Halo for DistHalo<'_> {
    /// The exchanges and the barrier brackets are collective over the main
    /// communicator: a rank whose domain holds no gas (or no active
    /// particle this boundary) still enters every one of them with empty
    /// payloads/targets — a data-dependent skip would desynchronize the
    /// collective sequence and deadlock the walk.
    const COLLECTIVE: bool = true;

    type Ticket = Ticket;

    /// Tagged send to a pool rank (round-robin by event id); the reply
    /// comes back under the event's own tag.
    fn submit(&mut self, center: Vec3, gas: Vec<GasParticle>) -> Ticket {
        let n_main = self.main.size();
        let event_id = self.shipped * n_main as u64 + self.main.rank() as u64;
        self.shipped += 1;
        let pool_rank = n_main + (event_id as usize % self.cfg.n_pool);
        let center = [center.x, center.y, center.z];
        self.world
            .send(pool_rank, TAG_REGION, (event_id, center, gas));
        Ticket::Shipped {
            event_id,
            pool_rank,
        }
    }

    fn collect(&mut self, due: Vec<Ticket>) -> Vec<GasParticle> {
        self.timer.region(self.main, phases::RECEIVE_SNE, || {
            let mine: Vec<GasParticle> =
                due.into_iter().flat_map(|t| t.redeem(self.world)).collect();
            self.main.allgatherv(mine).into_iter().flatten().collect()
        })
    }

    fn rebalance(&mut self, particles: &mut Vec<Particle>) {
        self.timer.region(self.main, phases::EXCHANGE_PARTICLE, || {
            let pos: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
            let dd = DomainDecomposition::decompose(self.main, self.cfg.grid, &pos, 512);
            let mine = std::mem::take(particles);
            *particles = exchange_particles(self.main, &dd, mine, |p| p.pos, self.cfg.routing);
            self.dd = Some(dd);
        });
    }

    fn all_events(&mut self, mine: Vec<Explosion>) -> Vec<(usize, Explosion)> {
        self.timer.region(self.main, phases::SEND_SNE, || {
            let all = self.main.allgatherv(mine).into_iter().enumerate();
            all.flat_map(|(owner, evs)| evs.into_iter().map(move |e| (owner, e)))
                .collect()
        })
    }

    fn gather_region(&mut self, owner: usize, local: Vec<GasParticle>) -> Option<Vec<GasParticle>> {
        self.timer.region(self.main, phases::SEND_SNE, || {
            let mut sends = vec![Vec::new(); self.main.size()];
            sends[owner] = local;
            let parts = self.main.alltoallv(sends);
            (owner == self.main.rank()).then(|| parts.into_iter().flatten().collect())
        })
    }

    fn sum(&mut self, x: f64) -> f64 {
        self.timer.region(self.main, phases::SEND_SNE, || {
            self.main.allreduce_f64(x, ReduceOp::Sum)
        })
    }

    fn min(&mut self, x: f64) -> f64 {
        self.timer.region(self.main, phases::INTEGRATION, || {
            self.main.allreduce_f64(x, ReduceOp::Min)
        })
    }

    fn all_parents(&mut self, mine: Vec<u64>) -> Vec<u64> {
        self.timer.region(self.main, phases::STAR_FORMATION, || {
            self.main.allgatherv(mine).concat()
        })
    }

    /// Local tree → LET exchange → imports appended after the locals.
    fn import_sources(
        &mut self,
        ph: &PassPhases,
        solver: &GravitySolver,
        pos: &mut Vec<Vec3>,
        mass: &mut Vec<f64>,
    ) {
        let local_tree = self
            .timer
            .region(self.main, ph.tree, || Tree::build(pos, mass, solver.n_leaf));
        let imports = self.timer.region(self.main, ph.let_exchange, || {
            exchange_let(
                self.main,
                opened(&self.dd),
                &local_tree,
                pos,
                mass,
                solver.theta,
                self.cfg.routing,
            )
        });
        for e in &imports {
            pos.push(e.position());
            mass.push(e.mass);
        }
    }

    /// Pre-density ghost exchange (their `rho` is the owner's previous
    /// value; [`Halo::refresh_ghosts`] replaces it with the same-pass one).
    fn append_ghosts(&mut self, hydro: &mut HydroState, n_local: usize) {
        self.timer
            .region(self.main, phases::PREPROCESS_FEEDBACK, || {
                self.reach0.clear();
                self.reach0
                    .extend(hydro.h[..n_local].iter().map(|&h| 2.0 * h));
                let dd = opened(&self.dd);
                for g in exchange_gas(self.main, dd, self.cfg.routing, &self.reach0, hydro) {
                    hydro.pos.push(g.pos);
                    hydro.vel.push(g.vel);
                    hydro.mass.push(g.mass);
                    hydro.u.push(g.u);
                    hydro.h.push(g.h);
                    hydro.rho.push(g.rho);
                }
                hydro.resize_derived();
            });
    }

    /// Post-density ghost refresh: re-run the exchange with the identical
    /// per-particle reach (same positions, same selection, same order).
    fn refresh_ghosts(&mut self, hydro: &mut HydroState, n_local: usize) {
        self.timer
            .region(self.main, phases::PREPROCESS_FEEDBACK, || {
                let dd = opened(&self.dd);
                let ghosts = exchange_gas(self.main, dd, self.cfg.routing, &self.reach0, hydro);
                assert_eq!(
                    ghosts.len(),
                    hydro.len() - n_local,
                    "ghost refresh must re-select the identical ghost set"
                );
                for (k, g) in ghosts.into_iter().enumerate() {
                    let j = n_local + k;
                    hydro.vel[j] = g.vel;
                    hydro.u[j] = g.u;
                    hydro.h[j] = g.h;
                    hydro.rho[j] = g.rho;
                }
            });
    }

    fn agree_depth(&mut self, sched: &mut ActiveScheduler) -> u64 {
        self.timer.region(self.main, phases::INTEGRATION, || {
            scheduler::reduce_depth_world(self.main, sched)
        })
    }

    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timer.region(self.main, name, f)
    }
}

/// One main rank's integration loop: [`step::step`] on its slab at every
/// step, then the checkpoint gather at the cadence and main rank 0's hook;
/// the report at the end.
fn main_loop<H: FnMut(u64, Option<&SimSnapshot>) -> Result<(), String>>(
    world: &Comm,
    main: &Comm,
    cfg: &DistConfig,
    all_particles: &[Particle],
    resume: Option<&SimSnapshot>,
    on_step: &Mutex<H>,
) -> Result<DistReport, DistError> {
    let me = main.rank();
    let n_main = main.size();
    let mut halo = DistHalo {
        world,
        main,
        cfg,
        timer: PhaseTimer::new(),
        dd: None,
        reach0: Vec::new(),
        shipped: 0,
    };

    // Fresh runs claim strided slices of the initial condition (then
    // balance); resumed runs take back exactly their slab. `state` is the
    // per-rank force scratch + source caches threaded through every step
    // (gravity results and SPH staging are refreshed in place, so the
    // steady-state loop does not re-collect them) and the pool queue.
    let mut next_id = resume.map_or_else(|| step::first_free_id(all_particles), |s| s.next_id);
    let (mut particles, mut time, step0, mut stats, mut state) = match resume {
        Some(s) => {
            let slab = &s.slabs[me];
            let state = SlabState::resumed(slab, Ticket::Redeemed);
            let particles = slab.particles.clone();
            (particles, s.time, s.step_count, slab.stats, state)
        }
        None => {
            let mine = all_particles.iter().skip(me).step_by(n_main);
            let stats = SimStats::default();
            (mine.copied().collect(), 0.0, 0, stats, SlabState::default())
        }
    };
    let mut step: u64 = step0;
    // The hook's error: main rank 0's, every rank's once a gather carries it.
    let mut stop: Option<String> = None;

    for _ in 0..cfg.steps {
        let mut slab = Slab {
            particles: &mut particles,
            time: &mut time,
            step_count: &mut step,
            next_id: &mut next_id,
            stats: &mut stats,
            state: &mut state,
        };
        step::step(&cfg.sim, &mut halo, &mut slab);

        // --- Checkpoint at the configured cadence, onto main rank 0 -------
        let due = cfg.snapshot_every > 0 && step.is_multiple_of(cfg.snapshot_every);
        let snap = due.then(|| {
            // Snapshots hold regions *predicted*: redeem what is in flight
            // (the receive `collect` would issue at `due_step` anyway) and
            // keep the predictions on the tickets.
            let redeemed = |p: step::InFlight<Ticket>| PendingPrediction {
                due_step: p.due_step,
                predicted: p.ticket.redeem(world),
            };
            let pending: Vec<_> = state.pending.drain(..).map(redeemed).collect();
            state.pending = step::requeue(&pending, Ticket::Redeemed);
            let slabs = main.gather(0, state.record(&particles, &stats, pending));
            slabs.map(|slabs| SimSnapshot {
                config: cfg.sim,
                time,
                step_count: step,
                model: cfg.predictor.model().cloned(),
                next_id,
                slabs,
            })
        });
        if me == 0 && stop.is_none() {
            let mut hook = on_step.lock().expect("only main rank 0 takes the hook");
            stop = hook(step, snap.flatten().as_ref()).err();
        }
        if due {
            // The gather's broadcast leg: main rank 0's verdict.
            stop = main.bcast(0, (me == 0).then(|| stop.clone()));
            if stop.is_some() {
                break;
            }
        }
    }

    // Redeem any remaining pool replies so messages don't leak, then stop
    // the pool ranks.
    halo.collect(state.pending.drain(..).map(|p| p.ticket).collect());
    main.barrier();
    if me == 0 {
        for pr in 0..cfg.n_pool {
            world.send(n_main + pr, TAG_SHUTDOWN, 1u8);
        }
    }

    let phases = halo.timer.report_max(main);
    let total_particles = main.allreduce_sum_u64(particles.len() as u64);
    let rank_stats = main.allgather(stats);
    let run = SimStats::combine(&rank_stats);
    let final_state = {
        let all = main.allgatherv(particles.clone());
        if me == 0 {
            let mut flat: Vec<Particle> = all.into_iter().flatten().collect();
            flat.sort_by_key(|p| p.id);
            flat
        } else {
            Vec::new()
        }
    };
    let report = DistReport {
        phases,
        steps: step - step0,
        sn_events: run.sn_events,
        regions_applied: run.regions_applied,
        gravity_interactions: run.gravity_interactions,
        hydro_interactions: run.hydro_interactions,
        final_particles: total_particles,
        bytes_sent: Vec::new(),
        final_state,
        rank_stats,
        error: None,
    };
    stop.map_or(Ok(report), |why| Err(DistError::Stopped(why)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, TimestepMode};
    use astro::lifetime::stellar_lifetime_myr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn disk_ic(n_gas: usize, n_dm: usize, with_sn: bool, dt: f64) -> Vec<Particle> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = Vec::new();
        let mut id = 0u64;
        for _ in 0..n_gas {
            out.push(Particle::gas(
                id,
                Vec3::new(
                    rng.gen_range(-50.0..50.0),
                    rng.gen_range(-50.0..50.0),
                    rng.gen_range(-10.0..10.0),
                ),
                Vec3::ZERO,
                1.0,
                1.0,
                5.0,
            ));
            id += 1;
        }
        for _ in 0..n_dm {
            out.push(Particle::dm(
                id,
                Vec3::new(
                    rng.gen_range(-80.0..80.0),
                    rng.gen_range(-80.0..80.0),
                    rng.gen_range(-80.0..80.0),
                ),
                Vec3::ZERO,
                10.0,
            ));
            id += 1;
        }
        if with_sn {
            let m = 10.0;
            let birth = dt * 1.5 - stellar_lifetime_myr(m);
            out.push(Particle::star(id, Vec3::ZERO, Vec3::ZERO, m, birth));
        }
        out
    }

    fn test_cfg(steps: usize, latency: usize) -> DistConfig {
        DistConfig {
            grid: (2, 2, 1),
            n_pool: 2,
            routing: Routing::Flat,
            sim: SimConfig {
                scheme: Scheme::Surrogate,
                dt_global: 2.0e-3,
                pool_latency_steps: latency,
                cooling: false,
                star_formation: false,
                eps: 1.0,
                n_ngb: 16,
                ..Default::default()
            },
            steps,
            predictor: PredictorKind::SedovOverlay,
            snapshot_every: 0,
        }
    }

    /// [`run`] with a hook that keeps every checkpoint it is handed.
    fn collected(cfg: &DistConfig, start: &Start) -> (DistReport, Vec<SimSnapshot>) {
        let mut snaps = Vec::new();
        let report = run(cfg, start, |_, snap| {
            snaps.extend(snap.cloned());
            Ok(())
        });
        (report.expect("dist run"), snaps)
    }

    #[test]
    fn config_errors_are_typed_not_panics() {
        let ic = disk_ic(10, 0, false, 2.0e-3);
        let mut no_main = test_cfg(1, 1);
        no_main.grid = (0, 2, 1);
        assert_eq!(
            run_distributed(&no_main, &ic).unwrap_err(),
            DistError::NoMainRank
        );

        let mut no_pool = test_cfg(1, 1);
        no_pool.n_pool = 0;
        assert_eq!(
            run_distributed(&no_pool, &ic).unwrap_err(),
            DistError::NoPoolRank
        );
    }

    #[test]
    fn resume_grid_mismatch_is_a_typed_error() {
        // Two of the four slabs a (2,2,1) grid wrote.
        let ic = disk_ic(40, 0, false, 2.0e-3);
        let mut cfg = test_cfg(1, 1);
        cfg.snapshot_every = 1;
        let mut snap = collected(&cfg, &Start::Fresh(ic)).1.remove(0);
        snap.slabs.truncate(2);
        assert_eq!(
            run(&cfg, &Start::Resumed(Box::new(snap)), |_, _| Ok(())).unwrap_err(),
            DistError::GridMismatch {
                snapshot_ranks: 2,
                config_ranks: 4
            }
        );
    }

    #[test]
    fn distributed_run_completes_and_conserves_particles() {
        let ic = disk_ic(300, 100, false, 2.0e-3);
        let cfg = test_cfg(3, 2);
        let report = run_distributed(&cfg, &ic).expect("dist run");
        assert_eq!(report.steps, 3);
        assert!(report.error.is_none(), "clean run reports no degradation");
        assert_eq!(report.final_particles, ic.len() as u64);
        assert_eq!(report.sn_events, 0);
        assert!(report.gravity_interactions > 0);
        assert!(report.hydro_interactions > 0);
        // Per-rank counters are gathered for every main rank.
        assert_eq!(report.rank_stats.len(), 4);
        assert!(report.rank_stats.iter().all(|s| s.steps == 3));
        assert!(report
            .rank_stats
            .iter()
            .all(|s| s.active_updates > 0 && s.substeps == 0));
    }

    #[test]
    fn sn_region_round_trips_through_the_pool() {
        let dt = 2.0e-3;
        let ic = disk_ic(400, 0, true, dt);
        let cfg = test_cfg(6, 3);
        let report = run_distributed(&cfg, &ic).expect("dist run");
        assert_eq!(report.sn_events, 1, "the SN must be identified once");
        assert_eq!(
            report.regions_applied, 1,
            "the prediction must come back and be applied"
        );
    }

    #[test]
    fn phase_report_contains_paper_phases() {
        let ic = disk_ic(200, 50, false, 2.0e-3);
        let cfg = test_cfg(2, 2);
        let report = run_distributed(&cfg, &ic).expect("dist run");
        // The KDK re-force pass makes the 2nd-pass legend entries and the
        // final kick real measurements; the SN, cooling and star-formation
        // brackets are entered every step whether or not they have work.
        for name in phases::ALL {
            assert!(
                report.phases.get(name).is_some(),
                "missing phase {name} in report"
            );
        }
        assert!(report.phases.total_s() > 0.0);
        let final_kick = report.phases.get(phases::FINAL_KICK).expect("recorded");
        assert!(final_kick.count > 0, "the final kick must actually run");
    }

    #[test]
    fn torus_routing_produces_same_particle_totals() {
        let ic = disk_ic(250, 80, false, 2.0e-3);
        let mut cfg = test_cfg(2, 2);
        let flat = run_distributed(&cfg, &ic).expect("dist run");
        cfg.routing = Routing::Torus;
        let torus = run_distributed(&cfg, &ic).expect("dist run");
        assert_eq!(flat.final_particles, torus.final_particles);
    }

    #[test]
    fn unet_predictor_kind_serves_the_pool_ranks() {
        // The satellite fix for the hardcoded SedovOverlayPredictor: a
        // U-Net predictor configured through DistConfig must serve the
        // round-trip end to end.
        let dt = 2.0e-3;
        let ic = disk_ic(300, 0, true, dt);
        let mut cfg = test_cfg(5, 2);
        cfg.predictor = PredictorKind::UNet(ModelState {
            seed: 7,
            weights_json: SurrogateModel::new(surrogate::SurrogateConfig {
                grid_n: 8,
                side: cfg.sim.region_side,
                base_features: 2,
                seed: 7,
            })
            .to_json(),
        });
        let report = run_distributed(&cfg, &ic).expect("dist run");
        assert_eq!(report.sn_events, 1);
        assert_eq!(
            report.regions_applied, 1,
            "the U-Net prediction must come back and be applied"
        );
    }

    #[test]
    fn distributed_resume_reproduces_the_uninterrupted_run_bitwise() {
        // 6 steps straight vs snapshot-at-3 + resume-for-3, in every mode.
        // Under the surrogate scheme the SN's region is still pending in
        // the pool queue at the snapshot step (latency 4 > snapshot step 3
        // - explosion step 1); under conventional + global the SN's heat
        // collapses the step, and the resumed run's first CFL estimate
        // comes out of the snapshotted signal-speed stash.
        let dt = 2.0e-3;
        let ic = disk_ic(300, 60, true, dt);
        for (scheme, timestep) in [
            (Scheme::Surrogate, TimestepMode::Global),
            (Scheme::Conventional, TimestepMode::Global),
            (Scheme::Conventional, TimestepMode::Block { max_level: 4 }),
        ] {
            let what = format!("{scheme:?} + {timestep:?}");
            let surrogate = scheme == Scheme::Surrogate;
            let mut cfg = test_cfg(6, 4);
            cfg.sim.scheme = scheme;
            cfg.sim.timestep = timestep;
            cfg.snapshot_every = 3;
            let (full, snaps) = collected(&cfg, &Start::Fresh(ic.clone()));
            assert_eq!(full.sn_events, 1, "{what}");
            assert_eq!(full.regions_applied, surrogate as u64, "{what}");
            assert_eq!(snaps.len(), 2, "{what}: snapshots at steps 3 and 6");

            let snap = &snaps[0];
            assert_eq!(snap.step_count, 3);
            assert_eq!(snap.config, cfg.sim, "{what}: the physics rides along");
            assert_eq!(
                snap.pending_regions(),
                surrogate as usize,
                "{what}: the SN region must still be in flight at the snapshot"
            );
            assert_eq!(snap.slabs.len(), cfg.n_main(), "{what}");
            for slab in &snap.slabs {
                assert_eq!(
                    slab.schedule.is_none(),
                    timestep == TimestepMode::Global,
                    "{what}: only block runs carry a schedule"
                );
                assert_eq!(slab.stats.steps, 3, "{what}: counters ride along");
            }
            if scheme == Scheme::Conventional {
                let dt_min = full.rank_stats[0].dt_min_seen;
                assert!(dt_min < dt, "{what}: the SN must collapse the step");
            }
            // The checkpoint survives its binary encoding.
            let snap = SimSnapshot::from_bytes(&snap.to_bytes()).expect("roundtrip");

            let mut resume_cfg = cfg;
            resume_cfg.steps = 3;
            let (resumed, resumed_snaps) = collected(&resume_cfg, &Start::Resumed(Box::new(snap)));
            assert_eq!(resumed.steps, 3);
            assert_eq!(
                resumed.regions_applied, surrogate as u64,
                "{what}: the replayed region must be applied after the restart"
            );
            assert_eq!(full.final_state.len(), ic.len());
            assert_eq!(resumed.final_state.len(), ic.len());
            for (a, b) in full.final_state.iter().zip(&resumed.final_state) {
                assert_eq!(a, b, "{what}: resumed particle {} diverged", a.id);
            }
            // Every rank's counters carry on from the checkpoint — the
            // region counted applied by the rank that dispatched it.
            assert_eq!(resumed.rank_stats, full.rank_stats, "{what}");
            // The resumed run's own step-6 checkpoint is the uninterrupted
            // run's, to the byte.
            assert_eq!(resumed_snaps.len(), 1, "{what}");
            assert_eq!(
                resumed_snaps[0].to_bytes(),
                snaps[1].to_bytes(),
                "{what}: checkpoint of the resumed run"
            );
        }
    }

    #[test]
    fn a_failed_hook_stops_every_rank_at_the_gather_that_carries_it() {
        // Failing at step 2 (a cadence step) stops the run there; failing
        // at 3 is the hook's last call, and the run stops at the next
        // gather, 4. Every rank stops: one that stepped on would wait
        // forever in the next step's collectives.
        let ic = disk_ic(200, 50, false, 2.0e-3);
        let mut cfg = test_cfg(6, 2);
        cfg.snapshot_every = 2;
        for fail_at in [2, 3] {
            let mut seen = Vec::new();
            let stopped = run(&cfg, &Start::Fresh(ic.clone()), |step, snap| {
                seen.push((step, snap.is_some()));
                match step == fail_at {
                    true => Err(format!("no room at step {step}")),
                    false => Ok(()),
                }
            });
            let why = format!("no room at step {fail_at}");
            assert_eq!(stopped.unwrap_err(), DistError::Stopped(why));
            let want: Vec<_> = (1..=fail_at).map(|s| (s, s % 2 == 0)).collect();
            assert_eq!(seen, want, "fail at {fail_at}");
        }
    }

    #[test]
    fn ranks_that_outnumber_the_cores_run_their_regions_on_their_own_thread() {
        // Main rank 0's hook runs on its rank thread, inside whatever mode
        // the rank body runs in.
        let ic = disk_ic(100, 20, false, 2.0e-3);
        let mut cfg = test_cfg(1, 1);
        cfg.grid = (rayon::current_num_threads(), 1, 1);
        cfg.n_pool = 1;
        let mut foreign = None;
        run(&cfg, &Start::Fresh(ic), |_, _| {
            use rayon::prelude::*;
            let me = std::thread::current().id();
            let threads: Vec<_> = (0..10_000usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            foreign = Some(threads.iter().filter(|&&t| t != me).count());
            Ok(())
        })
        .expect("dist run");
        assert_eq!(foreign, Some(0), "items run off the rank's thread");
    }

    #[test]
    fn block_mode_substeps_agree_across_ranks() {
        // A hot particle forces deep levels on whichever rank owns it; the
        // schedule reduction must still march every rank through the same
        // number of fine substeps.
        let mut ic = disk_ic(300, 0, false, 2.0e-3);
        ic[40].u = 1.0e8;
        let mut cfg = test_cfg(2, 2);
        cfg.sim.scheme = Scheme::Conventional;
        cfg.sim.timestep = TimestepMode::Block { max_level: 8 };
        let report = run_distributed(&cfg, &ic).expect("dist run");
        assert_eq!(report.final_particles, ic.len() as u64);
        assert_eq!(report.rank_stats.len(), 4);
        let subs: Vec<u64> = report.rank_stats.iter().map(|s| s.substeps).collect();
        assert!(
            subs.iter().all(|&s| s == subs[0]),
            "world-consistent schedule: {subs:?}"
        );
        assert!(
            subs[0] > report.steps,
            "the hierarchy must engage: {} substeps over {} base steps",
            subs[0],
            report.steps
        );
        // Substeps refresh, rather than rebuild, the cached source trees.
        assert!(report
            .rank_stats
            .iter()
            .all(|s| s.tree_refreshes > 0 && s.tree_rebuilds > 0));
        assert!(report
            .rank_stats
            .iter()
            .all(|s| s.sph_tree_refreshes > s.sph_tree_rebuilds));
        // Fewer particle updates than Global mode would have paid for the
        // same number of fine steps.
        let updates: u64 = report.rank_stats.iter().map(|s| s.active_updates).sum();
        assert!(updates < subs[0] * ic.len() as u64);
    }
}
