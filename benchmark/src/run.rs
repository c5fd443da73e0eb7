//! Running one workload: rounds of set-up + timed region, output checks, and
//! (traced pass) the layer replays and the per-layer metrics derived from
//! their spans.
//!
//! A round generates the input from the seed, builds a fresh
//! `Simulation`/`DistConfig`, takes the warm-up steps (all of that is
//! `setup_s`) and then integrates the workload's fixed number of base steps
//! (`wall_s`). Rounds repeat on the identical input until `--seconds` of
//! measuring are spent, never fewer than three; exact counts and the final
//! particle state must repeat bit for bit across them. It is a closed loop
//! with one client — the step loop — and no load-generator threads: the
//! process's own worker pool is the only parallelism.

use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::replay::{
    unet_forward_flops, ActiveCost, ForceCounts, ForceReplay, RegionAudit, SurrogateReplay,
    KERNEL_INTERACTIONS,
};
use crate::stats::{self, median, TAIL_Q};
use crate::trace::Tracer;
use crate::workloads::{self, Input, Workload, OPS_SNAPSHOT_EVERY, WARMUP_STEPS};
use asura_core::ckpt::{atomic_write, CkptFormat, CkptStore, DEFAULT_KEEP};
use asura_core::diagnostics::{TimeSample, TimeSeries};
use asura_core::dist::{run_distributed, DistConfig, DistReport, PredictorKind};
use asura_core::pool::UNetPredictor;
use asura_core::sim::total_energy_of;
use asura_core::{
    phases, FaultInjector, Heartbeat, Particle, Scheme, SimSnapshot, SimStats, Simulation,
    TimestepMode,
};
use fdps::exchange::Routing;
use std::path::{Path, PathBuf};
use std::time::Instant;
use unet::json::Json;

pub struct Opts {
    pub seed: u64,
    /// Seconds of measuring (timed regions, and in the traced pass the
    /// replays between their steps) after which no further round starts.
    pub seconds: f64,
    pub trace: bool,
    /// Tests only: N / 8, 4 steps, one round (two when traced).
    pub smoke: bool,
}

/// Operations attempted and failed: steps, commits, recoveries and every
/// output check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    fn did(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// The exact counts that must repeat across rounds, as deltas over the
/// timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub gravity_interactions: u64,
    pub hydro_interactions: u64,
    pub substeps: u64,
    pub active_updates: u64,
    pub sn_events: u64,
    pub regions_applied: u64,
    pub stars_formed: u64,
    pub tree_rebuilds: u64,
    pub tree_refreshes: u64,
    pub sph_tree_rebuilds: u64,
    pub sph_tree_refreshes: u64,
    pub bytes_sent: u64,
}

impl Counts {
    fn delta(now: &SimStats, then: &SimStats) -> Counts {
        Counts {
            gravity_interactions: now.gravity_interactions - then.gravity_interactions,
            hydro_interactions: now.hydro_interactions - then.hydro_interactions,
            substeps: now.substeps - then.substeps,
            active_updates: now.active_updates - then.active_updates,
            sn_events: now.sn_events - then.sn_events,
            regions_applied: now.regions_applied - then.regions_applied,
            stars_formed: now.stars_formed - then.stars_formed,
            tree_rebuilds: now.tree_rebuilds - then.tree_rebuilds,
            tree_refreshes: now.tree_refreshes - then.tree_refreshes,
            sph_tree_rebuilds: now.sph_tree_rebuilds - then.sph_tree_rebuilds,
            sph_tree_refreshes: now.sph_tree_refreshes - then.sph_tree_refreshes,
            bytes_sent: 0,
        }
    }

    fn to_json(self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("gravity_interactions".into(), n(self.gravity_interactions)),
            ("hydro_interactions".into(), n(self.hydro_interactions)),
            ("substeps".into(), n(self.substeps)),
            ("active_updates".into(), n(self.active_updates)),
            ("sn_events".into(), n(self.sn_events)),
            ("regions_applied".into(), n(self.regions_applied)),
            ("stars_formed".into(), n(self.stars_formed)),
            ("bytes_sent".into(), n(self.bytes_sent)),
        ])
    }
}

/// What one round measured.
struct Round {
    setup_s: f64,
    /// Summed timed parts: steps (and, `ops_run`, the recovery).
    wall_s: f64,
    /// Wall clock of the whole timed loop, probes between the steps
    /// included.
    loop_s: f64,
    /// One sample per base step; for `dist_galaxy` one per
    /// `run_distributed` call, amortised over its steps.
    step_ms: Vec<f64>,
    /// Timed work of the round that is not a step: `ops_run`'s recovery.
    extra_ms: f64,
    counts: Counts,
    ic_checksum: u64,
    final_checksum: u64,
    mass_drift: f64,
    traced: bool,
}

impl Round {
    /// A round whose timed parts are `step_ms` and `extra_ms`; counts,
    /// final checksum and mass drift are filled in by what ends the round.
    fn timed(setup_s: f64, step_ms: Vec<f64>, extra_ms: f64, loop_s: f64, traced: bool) -> Round {
        Round {
            setup_s,
            wall_s: (step_ms.iter().sum::<f64>() + extra_ms) / 1e3,
            loop_s,
            step_ms,
            extra_ms,
            counts: Counts::default(),
            ic_checksum: 0,
            final_checksum: 0,
            mass_drift: 0.0,
            traced,
        }
    }
}

/// The result of one invocation on one workload.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub registry: &'static [(&'static str, &'static str)],
    pub metrics: Values,
    pub detail: Json,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process \[MB\].
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the tree the benchmark was built in, read from `.git`
/// without spawning anything; a checkout without one reports `unknown`.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    read(git.join("HEAD"))
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r)),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Finite state and conserved mass: the checks every round ends with.
fn audit_state(particles: &[Particle], ic_mass: f64, what: &str, ops: &mut Ops) -> f64 {
    let finite = particles.iter().all(|p| {
        [p.mass, p.u, p.h, p.rho, p.metals, p.birth_time]
            .into_iter()
            .chain([p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z])
            .all(f64::is_finite)
    });
    ops.check(finite, || format!("{what}: non-finite particle state"));
    let mass: f64 = particles.iter().map(|p| p.mass).sum();
    let drift = ((mass - ic_mass) / ic_mass).abs();
    ops.check(drift <= 1e-9, || {
        format!("{what}: total mass drifted by {drift:e}")
    });
    drift
}

/// The probes of the traced pass over a bare `Simulation::step` loop.
struct Probes {
    force: ForceReplay,
    surrogate: Option<SurrogateReplay>,
    /// The KDK pair replayed before the step about to be taken, summed.
    replayed: Option<(u64, ForceCounts)>,
    full_counts: Vec<ForceCounts>,
    active_costs: Vec<ActiveCost>,
    /// Levels the replay assigned before the step about to be taken.
    assigned: Option<(u64, Vec<u32>)>,
    audits: Vec<RegionAudit>,
    levels: Vec<f64>,
    fidelity_checked: u64,
    fidelity_failed: u64,
}

impl Probes {
    fn new(input: &Input, seed: u64) -> Probes {
        Probes {
            force: ForceReplay::new(input.cfg, seed),
            surrogate: input.weights.as_ref().map(|(json, _)| {
                SurrogateReplay::new(seed, json, input.cfg.region_side)
                    .expect("weights trained in set-up decode")
            }),
            replayed: None,
            full_counts: Vec::new(),
            active_costs: Vec::new(),
            assigned: None,
            audits: Vec::new(),
            levels: Vec::new(),
            fidelity_checked: 0,
            fidelity_failed: 0,
        }
    }

    fn block_max_level(sim: &Simulation) -> Option<u32> {
        match (sim.config.scheme, sim.config.timestep) {
            (Scheme::Conventional, TimestepMode::Block { max_level }) => Some(max_level),
            _ => None,
        }
    }

    /// Before the driver takes step `s`. On `s % 4 == 0`: replay its force
    /// evaluations on a copy of its particles — in Global mode both of the
    /// KDK step, whose counts the fidelity check then holds against the
    /// driver's; in Block mode the opening one plus the level-assignment
    /// and active-subset probes — and the walk and kernel probes. On odd
    /// `s` (`sn_surrogate` only; about half its SN steps are odd): the pool
    /// predictor on the regions the step is about to cut, if any.
    fn before_step(&mut self, sim: &Simulation, t: &mut Tracer) {
        let step = sim.step_count;
        if let (Some(surrogate), true) = (&self.surrogate, step % 2 == 1) {
            self.audits.extend(surrogate.replay(sim, t));
        }
        if !step.is_multiple_of(4) {
            return;
        }
        self.force.load(&sim.particles, t);
        let mut counts = self.force.evaluate(t);
        self.full_counts.push(counts);
        self.force.walk_probe(t);
        self.force.kernel_probe(t);
        if let Some(max_level) = Self::block_max_level(sim) {
            self.force.assign_probe(max_level, t);
            self.active_costs.extend(self.force.active(t));
            self.assigned = self.force.assigned_levels().map(|l| (step, l.to_vec()));
        } else {
            self.force.kick_drift(sim.config.dt_global);
            let closing = self.force.evaluate(t);
            self.full_counts.push(closing);
            counts.gravity += closing.gravity;
            counts.density += closing.density;
            counts.force += closing.force;
            self.replayed = Some((step, counts));
        }
    }

    /// After the driver took the step that began at `step` with stats
    /// `then`, hold the replay against the driver's own counters. Global
    /// mode: the replayed KDK pair counted exactly the step's gravity and
    /// hydro interactions (star formation, cooling and region application
    /// come after the step's two evaluations and cannot reach them). Block
    /// mode: the substeps and updates the driver took are what its
    /// schedule's own arithmetic says, and the levels the replay assigned
    /// from its replayed forces are the levels the driver assigned.
    fn after_step(&mut self, step: u64, then: &SimStats, sim: &Simulation, ops: &mut Ops) {
        let delta = Counts::delta(&sim.stats, then);
        if let Some((s, c)) = self.replayed.take().filter(|(s, _)| *s == step) {
            self.fidelity_checked += 1;
            let ok =
                c.gravity == delta.gravity_interactions && c.hydro() == delta.hydro_interactions;
            self.fidelity_failed += !ok as u64;
            ops.check(ok, || {
                format!(
                    "step {s}: replayed {} gravity / {} hydro interactions, driver counted {} / {}",
                    c.gravity,
                    c.hydro(),
                    delta.gravity_interactions,
                    delta.hydro_interactions
                )
            });
        }
        if Self::block_max_level(sim).is_none() {
            return;
        }
        if let Some(schedule) = sim.scheduler().schedule() {
            self.levels.push(schedule.max_level() as f64);
            self.fidelity_checked += 1;
            let ok = delta.substeps == schedule.substeps_per_base_step()
                && delta.active_updates == schedule.updates_per_base_step()
                && self
                    .assigned
                    .take()
                    .filter(|(s, _)| *s == step)
                    .is_none_or(|(_, levels)| levels == schedule.levels);
            self.fidelity_failed += !ok as u64;
            ops.check(ok, || {
                format!(
                    "step {step}: driver took {} substeps / {} updates, its schedule says {} / {} \
                     (or the replayed level assignment differs from the driver's)",
                    delta.substeps,
                    delta.active_updates,
                    schedule.substeps_per_base_step(),
                    schedule.updates_per_base_step()
                )
            });
        }
    }
}

/// State that outlives a round.
struct Run<'a> {
    w: Workload,
    opts: &'a Opts,
    k: usize,
    ops: Ops,
    tracer: Tracer,
    probes: Option<Probes>,
    n_ic: usize,
    /// Energy of the input and particles of the last finished round, for
    /// `core.sim.energy_drift` (traced pass only: the exact audit is
    /// O(N^2)).
    e0: Option<f64>,
    eps: f64,
    last_final: Vec<Particle>,
    train_s: Vec<f64>,
    /// `ops_run`: bytes of every live `diagnostics.json` rewrite.
    diag_bytes: u64,
    commit_failures: u64,
    commit_bytes: u64,
    /// `(bin, json)` bytes of the snapshot the last codec probe encoded.
    codec_bytes: (usize, usize),
    last_dist: Option<DistReport>,
    shared_step_ms: f64,
}

impl<'a> Run<'a> {
    fn sim_from(&self, input: Input) -> Simulation {
        match input.weights {
            Some((json, _)) => {
                let predictor =
                    UNetPredictor::from_weights(self.opts.seed, &json, input.cfg.region_side)
                        .expect("weights trained in set-up decode");
                Simulation::with_predictor(
                    input.cfg,
                    input.particles,
                    self.opts.seed,
                    Box::new(predictor),
                )
            }
            None => Simulation::new(input.cfg, input.particles, self.opts.seed),
        }
    }

    /// Generate the input (timed), then take the untimed notes every round
    /// needs from it. Returns the input and the seconds generation took.
    fn input(&mut self, traced: bool) -> (Input, f64, u64, f64) {
        let t0 = Instant::now();
        let input = workloads::generate(self.w, self.opts.seed, self.opts.smoke);
        let gen_s = t0.elapsed().as_secs_f64();
        self.n_ic = input.particles.len();
        self.eps = input.cfg.eps;
        if let Some((_, s)) = &input.weights {
            self.train_s.push(*s);
        }
        if self.opts.trace && self.e0.is_none() {
            self.e0 = Some(total_energy_of(&input.particles, input.cfg.eps));
        }
        if traced && self.probes.is_none() && self.w != Workload::DistGalaxy {
            self.probes = Some(Probes::new(&input, self.opts.seed));
        }
        let ic_mass = input.particles.iter().map(|p| p.mass).sum();
        let ic_checksum = workloads::checksum(&input.particles);
        (input, gen_s, ic_checksum, ic_mass)
    }

    /// A round of the bare `Simulation::step` loop.
    fn sim_round(&mut self, traced: bool) -> Round {
        let (input, gen_s, ic_checksum, ic_mass) = self.input(traced);
        let t0 = Instant::now();
        let mut sim = self.sim_from(input);
        sim.run(WARMUP_STEPS);
        let setup_s = gen_s + t0.elapsed().as_secs_f64();

        let then = sim.stats;
        let mut step_ms = Vec::with_capacity(self.k);
        let t_loop = Instant::now();
        for _ in 0..self.k {
            let step = sim.step_count;
            self.tracer.step = step;
            if let (true, Some(p)) = (traced, self.probes.as_mut()) {
                p.before_step(&sim, &mut self.tracer);
            }
            let before = sim.stats;
            let t0 = Instant::now();
            self.tracer.leaf("core.sim.step", || sim.step());
            step_ms.push(ms_since(t0));
            if let (true, Some(p)) = (traced, self.probes.as_mut()) {
                p.after_step(step, &before, &sim, &mut self.ops);
            }
        }
        let loop_s = t_loop.elapsed().as_secs_f64();
        self.ops.did(self.k);
        let mut round = Round::timed(setup_s, step_ms, 0.0, loop_s, traced);
        round.ic_checksum = ic_checksum;
        self.end_round(
            &mut round,
            sim.particles,
            Counts::delta(&sim.stats, &then),
            ic_mass,
        );
        round
    }

    /// Close a round on its final particles: the state checks, the counts
    /// and the checksum the other rounds must reproduce.
    fn end_round(
        &mut self,
        round: &mut Round,
        particles: Vec<Particle>,
        counts: Counts,
        ic_mass: f64,
    ) {
        round.mass_drift = audit_state(&particles, ic_mass, self.w.name(), &mut self.ops);
        round.counts = counts;
        round.final_checksum = workloads::checksum(&particles);
        self.last_final = particles;
    }

    /// A round of `ops_run`: the step loop as `asura --scenario dwarf_galaxy
    /// --snapshot-every 4` under supervision drives it, with a drop and
    /// recover-from-the-store at the midpoint.
    fn ops_round(&mut self, traced: bool, index: usize) -> Round {
        let (input, gen_s, ic_checksum, ic_mass) = self.input(traced);
        let t0 = Instant::now();
        let dir = out_dir().join(format!("run-ops_run-{}-r{index}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let made = std::fs::create_dir_all(&dir);
        self.ops.check(made.is_ok(), || {
            format!("create {}: {made:?}", dir.display())
        });
        let store = CkptStore::new(&dir, DEFAULT_KEEP);
        let map_half = input.map_half;
        let mut sim = self.sim_from(input);
        let mut side = OpsSide {
            heartbeat: Heartbeat::new(dir.join("heartbeat")),
            series: TimeSeries::new("dwarf_galaxy"),
            t_prev: sim.time,
            map_half,
            diag_path: dir.join("diagnostics.json"),
        };
        let mut faults = FaultInjector::none();
        for _ in 0..WARMUP_STEPS {
            self.ops_step(&mut sim, &store, &mut faults, &mut side, false);
        }
        let setup_s = gen_s + t0.elapsed().as_secs_f64();

        let then = sim.stats;
        let mut step_ms = Vec::with_capacity(self.k);
        let mut recover_ms = 0.0;
        let mut recovered = false;
        let t_loop = Instant::now();
        for i in 0..self.k {
            self.tracer.step = sim.step_count;
            let t0 = Instant::now();
            self.ops_step(&mut sim, &store, &mut faults, &mut side, traced);
            step_ms.push(ms_since(t0));
            // The supervisor's retry path, once per round: at the first
            // commit step from the midpoint on, the process "dies" and is
            // resumed from the newest intact checkpoint.
            if !recovered
                && 2 * (i + 1) >= self.k
                && sim.step_count.is_multiple_of(OPS_SNAPSHOT_EVERY)
            {
                recovered = true;
                let t0 = Instant::now();
                drop(sim);
                let found = self
                    .tracer
                    .leaf("core.ckpt.latest_valid", || store.latest_valid_sim());
                self.ops.check(found.is_some(), || {
                    "recovery found no intact checkpoint".into()
                });
                let Some((entry, snap)) = found else {
                    // Nothing to resume from: the round cannot go on.
                    let loop_s = t_loop.elapsed().as_secs_f64();
                    return Round::timed(setup_s, step_ms, 0.0, loop_s, traced);
                };
                sim = self
                    .tracer
                    .leaf("core.sim.restore", || Simulation::restore(&snap));
                recover_ms = ms_since(t0);
                let committed = std::fs::read(store.entry_path(&entry)).unwrap_or_default();
                let same = sim.snapshot().to_bytes() == committed;
                self.ops.check(same, || {
                    format!("restored state differs from committed {}", entry.file)
                });
                if traced {
                    self.codec_probe(&snap, &committed, &dir);
                }
                // A resumed `asura` starts its series and heartbeat anew.
                side.series = TimeSeries::new("dwarf_galaxy");
                side.heartbeat = Heartbeat::new(dir.join("heartbeat"));
                side.t_prev = sim.time;
            }
        }
        let loop_s = t_loop.elapsed().as_secs_f64();
        self.ops.did(self.k);
        self.ops
            .check(recovered, || "no recovery point in the round".into());
        let mut round = Round::timed(setup_s, step_ms, recover_ms, loop_s, traced);
        round.ic_checksum = ic_checksum;
        self.end_round(
            &mut round,
            sim.particles,
            Counts::delta(&sim.stats, &then),
            ic_mass,
        );
        let _ = std::fs::remove_dir_all(&dir);
        round
    }

    /// One `ops_run` step. Untraced it is the program's own run loop,
    /// `Simulation::run_with_store`, for one step; traced, the same calls
    /// in the same order with a span around each (the loop and
    /// `CkptStore::commit_sim` are already public compositions of them).
    fn ops_step(
        &mut self,
        sim: &mut Simulation,
        store: &CkptStore,
        faults: &mut FaultInjector,
        side: &mut OpsSide,
        traced: bool,
    ) {
        let Run {
            tracer,
            ops,
            diag_bytes,
            commit_failures,
            commit_bytes,
            ..
        } = self;
        if !traced {
            let result = sim.run_with_store(1, store, CkptFormat::Bin, faults, |s| {
                side.on_step(s, tracer, ops, diag_bytes)
            });
            if sim.step_count.is_multiple_of(OPS_SNAPSHOT_EVERY) {
                ops.check(result.is_ok(), || format!("commit: {result:?}"));
            }
            return;
        }
        tracer.scope("ops.step", |t| {
            t.leaf("core.sim.step", || sim.step());
            side.on_step(sim, t, ops, diag_bytes);
            faults.enforce_step(sim.step_count);
            if sim.step_count.is_multiple_of(OPS_SNAPSHOT_EVERY) {
                let snap = t.leaf("core.snapshot.capture", || sim.snapshot());
                let bytes = t.leaf("core.snapshot.encode_bin", || snap.to_bytes());
                *commit_bytes += bytes.len() as u64;
                let result = t.leaf("core.ckpt.commit", || {
                    store.commit_bytes(snap.step_count, CkptFormat::Bin, bytes, faults)
                });
                *commit_failures += result.is_err() as u64;
                ops.check(result.is_ok(), || format!("commit: {result:?}"));
            }
        });
    }

    /// Codec and fsync probes on the snapshot a recovery just decoded: the
    /// end-to-end loop only ever writes `bin`, so the JSON codec and the
    /// decode side are measured here.
    fn codec_probe(&mut self, snap: &SimSnapshot, committed: &[u8], dir: &Path) {
        let t = &mut self.tracer;
        let decoded = t.leaf("core.snapshot.decode_bin", || {
            SimSnapshot::from_bytes(committed)
        });
        self.ops.check(decoded.is_ok(), || {
            format!("decode bin: {:?}", decoded.err())
        });
        let json = t.leaf("core.snapshot.encode_json", || snap.to_json());
        let back = t.leaf("core.snapshot.decode_json", || {
            SimSnapshot::from_json(&json)
        });
        self.ops
            .check(back.is_ok(), || format!("decode json: {:?}", back.err()));
        for _ in 0..5 {
            let r = t.leaf("core.ckpt.fsync_4k", || {
                atomic_write(&dir.join("probe.4k"), &[0u8; 4096])
            });
            self.ops.check(r.is_ok(), || format!("4 KiB write: {r:?}"));
        }
        self.codec_bytes = (committed.len(), json.len());
    }

    fn dist_config(&self, input: &Input, steps: usize) -> DistConfig {
        DistConfig {
            grid: (2, 1, 1),
            n_pool: 1,
            routing: Routing::Flat,
            sim: input.cfg,
            steps,
            predictor: PredictorKind::SedovOverlay,
            snapshot_every: 0,
        }
    }

    /// A round of `dist_galaxy`: `run_distributed` is one opaque call, so
    /// the round is one call and its step sample is the call amortised.
    fn dist_round(&mut self, traced: bool) -> Round {
        let (input, gen_s, ic_checksum, ic_mass) = self.input(traced);
        let t0 = Instant::now();
        let warm = run_distributed(&self.dist_config(&input, WARMUP_STEPS), &input.particles);
        let setup_s = gen_s + t0.elapsed().as_secs_f64();
        self.ops
            .check(warm.is_ok(), || format!("warm-up call: {:?}", warm.err()));

        let cfg = self.dist_config(&input, self.k);
        let t0 = Instant::now();
        let result = self
            .tracer
            .leaf("core.dist.run", || run_distributed(&cfg, &input.particles));
        let wall_ms = ms_since(t0);
        self.ops.did(self.k);
        // One amortised sample stands for all the steps of the call.
        let mut round = Round::timed(
            setup_s,
            vec![wall_ms / self.k as f64],
            0.0,
            wall_ms / 1e3,
            traced,
        );
        round.wall_s = wall_ms / 1e3;
        round.ic_checksum = ic_checksum;
        let mut report = match result {
            Ok(report) => report,
            Err(e) => {
                self.ops.check(false, || format!("run_distributed: {e}"));
                return round;
            }
        };
        self.ops.check(report.error.is_none(), || {
            format!("run degraded: {:?}", report.error)
        });
        let sum = |f: fn(&SimStats) -> u64| report.rank_stats.iter().map(f).sum::<u64>();
        let counts = Counts {
            gravity_interactions: report.gravity_interactions,
            hydro_interactions: report.hydro_interactions,
            substeps: report.rank_stats.first().map_or(0, |s| s.substeps),
            active_updates: sum(|s| s.active_updates),
            sn_events: report.sn_events,
            regions_applied: report.regions_applied,
            stars_formed: sum(|s| s.stars_formed),
            tree_rebuilds: sum(|s| s.tree_rebuilds),
            tree_refreshes: sum(|s| s.tree_refreshes),
            sph_tree_rebuilds: sum(|s| s.sph_tree_rebuilds),
            sph_tree_refreshes: sum(|s| s.sph_tree_refreshes),
            bytes_sent: report.bytes_sent.iter().sum(),
        };
        let expected = self.n_ic as u64 + counts.stars_formed;
        self.ops.check(report.final_particles == expected, || {
            format!(
                "{} particles came back, {expected} expected",
                report.final_particles
            )
        });
        let final_state = std::mem::take(&mut report.final_state);
        self.end_round(&mut round, final_state, counts, ic_mass);

        // The traced pass also steps the same input through the
        // shared-memory driver once, for `core.dist.vs_shared_wall_ratio`.
        if traced && self.shared_step_ms == 0.0 {
            let mut sim = Simulation::new(input.cfg, input.particles, self.opts.seed);
            sim.run(WARMUP_STEPS);
            let t0 = Instant::now();
            sim.run(self.k);
            self.shared_step_ms = ms_since(t0) / self.k as f64;
        }
        self.last_dist = Some(report);
        round
    }
}

/// The per-step side work of a supervised `asura` run: heartbeat, a
/// diagnostics sample, and the live full rewrite of `diagnostics.json`.
struct OpsSide {
    heartbeat: Heartbeat,
    series: TimeSeries,
    t_prev: f64,
    map_half: f64,
    diag_path: PathBuf,
}

impl OpsSide {
    fn on_step(&mut self, sim: &Simulation, t: &mut Tracer, ops: &mut Ops, bytes: &mut u64) {
        let beat = t.leaf("core.supervise.heartbeat", || {
            self.heartbeat.beat(sim.step_count)
        });
        ops.check(beat.is_ok(), || format!("heartbeat: {beat:?}"));
        let sample = t.leaf("core.diagnostics.measure", || {
            TimeSample::measure(sim, self.t_prev, self.map_half)
        });
        self.series.record(sample);
        self.t_prev = sim.time;
        let json = t.leaf("core.diagnostics.render", || self.series.to_json());
        *bytes += json.len() as u64;
        let wrote = t.leaf("core.diagnostics.live_rewrite", || {
            atomic_write(&self.diag_path, json.as_bytes())
        });
        ops.check(wrote.is_ok(), || format!("diagnostics.json: {wrote:?}"));
    }
}

/// The time metrics of a run, from the `rank`-th fastest replica of every
/// step. Every round takes the same steps on the same input, bit for bit,
/// so the replicas of a step differ only by what disturbed them — and on a
/// shared machine a disturbance only ever slows a step down. Rank 0, the
/// fastest replica, is therefore the least disturbed observation of each
/// step and what is reported; rank 1 says how well two rounds agree on it.
struct Estimate {
    setup_s: f64,
    wall_s: f64,
    step_ms_p50: f64,
    step_ms_p80: f64,
    /// The per-step values the percentiles are taken over.
    steps: Vec<f64>,
}

fn estimate(rounds: &[&Round], steps_per_round: usize, rank: usize) -> Estimate {
    let nth = |mut replicas: Vec<f64>| {
        replicas.sort_by(f64::total_cmp);
        replicas[rank.min(replicas.len() - 1)]
    };
    let k = rounds.iter().map(|r| r.step_ms.len()).min().unwrap_or(0);
    let steps: Vec<f64> = (0..k)
        .map(|i| nth(rounds.iter().map(|r| r.step_ms[i]).collect()))
        .collect();
    let extra_ms = nth(rounds.iter().map(|r| r.extra_ms).collect());
    // `dist_galaxy` has one amortised sample for all the steps of a call.
    let steps_per_sample = steps_per_round as f64 / k.max(1) as f64;
    Estimate {
        setup_s: nth(rounds.iter().map(|r| r.setup_s).collect()),
        wall_s: (steps.iter().sum::<f64>() * steps_per_sample + extra_ms) / 1e3,
        step_ms_p50: median(&steps),
        step_ms_p80: stats::quantile(&steps, TAIL_Q),
        steps,
    }
}

/// Run `w` once: rounds until `opts.seconds` are spent, checks, metrics.
pub fn run(w: Workload, opts: &Opts) -> Report {
    let mut run = Run {
        w,
        opts,
        k: w.steps_per_round(opts.smoke),
        ops: Ops::default(),
        tracer: Tracer::new(w.name()),
        probes: None,
        n_ic: 0,
        e0: None,
        eps: 0.0,
        last_final: Vec::new(),
        train_s: Vec::new(),
        diag_bytes: 0,
        commit_failures: 0,
        commit_bytes: 0,
        codec_bytes: (0, 0),
        last_dist: None,
        shared_step_ms: 0.0,
    };
    // The traced pass keeps its first round untraced: the base of
    // `core.sim.trace_step_ratio`.
    let min_rounds = match (opts.smoke, opts.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, _) => 3,
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut spent = 0.0;
    let mut peak_rss = 0.0;
    loop {
        let traced = opts.trace && !rounds.is_empty();
        run.tracer.set_on(traced);
        let t0 = Instant::now();
        let round = match w {
            Workload::GalaxyGlobal | Workload::SnBlock | Workload::SnSurrogate => {
                run.sim_round(traced)
            }
            Workload::OpsRun => run.ops_round(traced, rounds.len()),
            Workload::DistGalaxy => run.dist_round(traced),
        };
        let cost = (t0.elapsed().as_secs_f64() - round.setup_s).max(round.wall_s);
        spent += cost;
        rounds.push(round);
        // Memory is read where every run has done the same work: a fast
        // machine fits a fourth round, and the allocator's high-water mark
        // creeps up with every round.
        if rounds.len() == min_rounds {
            peak_rss = peak_rss_mb();
        }
        if rounds.len() >= min_rounds && spent + cost > opts.seconds {
            break;
        }
    }
    run.tracer.set_on(false);

    // Bitwise determinism: every round saw the same input and ended in the
    // same state with the same exact counts.
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        run.ops.check(r.ic_checksum == first.ic_checksum, || {
            format!("round {i}: the seed gave another input")
        });
        run.ops.check(r.counts == first.counts, || {
            format!(
                "round {i}: counts {:?} differ from round 0's {:?}",
                r.counts, first.counts
            )
        });
        run.ops.check(r.final_checksum == first.final_checksum, || {
            format!("round {i}: final particle state differs from round 0's")
        });
    }

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let best = estimate(&untraced, run.k, 0);
    let second = estimate(&untraced, run.k, 1);
    let tail = stats::percentile_guarded(&best.steps, TAIL_Q);
    // How far the second-fastest replicas sit from the fastest: what
    // `--compare` holds against a metric's bound before it calls a pair
    // resolved.
    let apart = |a: f64, b: f64| if a > 0.0 { (b - a).abs() / a } else { 0.0 };
    let wall_apart = apart(best.wall_s, second.wall_s);
    let round_spread = Json::Obj(
        [
            ("setup_s", apart(best.setup_s, second.setup_s)),
            ("wall_s", wall_apart),
            ("updates_per_s", wall_apart),
            ("step_ms_p50", apart(best.step_ms_p50, second.step_ms_p50)),
            ("step_ms_p80", apart(best.step_ms_p80, second.step_ms_p80)),
            ("peak_rss_mb", 0.0),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), Json::Num(v)))
        .collect(),
    );
    let mut detail = vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("seed".into(), Json::Str(opts.seed.to_string())),
        ("trace".into(), Json::Bool(opts.trace)),
        ("n".into(), Json::Num(run.n_ic as f64)),
        ("steps_per_round".into(), Json::Num(run.k as f64)),
        ("rounds".into(), Json::Num(rounds.len() as f64)),
        ("step_samples".into(), Json::Num(best.steps.len() as f64)),
        (
            "tail_samples_beyond".into(),
            Json::Num(stats::beyond(&best.steps, TAIL_Q) as f64),
        ),
        ("tail_resolved".into(), Json::Bool(tail.is_ok())),
        (
            "round_wall_s".into(),
            Json::Arr(rounds.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
        ("round_spread".into(), round_spread),
        (
            "round_spread_wall_s".into(),
            Json::Num(stats::round_spread(
                &untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
            )),
        ),
        ("counts".into(), first.counts.to_json()),
        (
            "ic_checksum".into(),
            Json::Str(format!("{:016x}", first.ic_checksum)),
        ),
        (
            "final_checksum".into(),
            Json::Str(format!("{:016x}", first.final_checksum)),
        ),
        (
            "threads".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("commit".into(), Json::Str(git_commit())),
    ];

    let (registry, metrics): (&'static [_], Values) = if opts.trace {
        (&PER_LAYER, layer_metrics(&mut run, &rounds))
    } else {
        let mut m = Values::zeroed(&END_TO_END);
        m.set("setup_s", best.setup_s);
        m.set("wall_s", best.wall_s);
        m.set(
            "updates_per_s",
            first.counts.active_updates as f64 / best.wall_s,
        );
        m.set("step_ms_p50", best.step_ms_p50);
        m.set("step_ms_p80", best.step_ms_p80);
        m.set("peak_rss_mb", peak_rss);
        (&END_TO_END, m)
    };
    if opts.trace {
        let path = out_dir().join(format!("trace-{}.json", w.name()));
        let mut text = String::new();
        unet::json::write_json(&run.tracer.to_json(), &mut text);
        let wrote = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text));
        run.ops
            .check(wrote.is_ok(), || format!("{}: {wrote:?}", path.display()));
        detail.push(("trace_file".into(), Json::Str(path.display().to_string())));
    }
    detail.push((
        "failures".into(),
        Json::Arr(run.ops.failures.iter().cloned().map(Json::Str).collect()),
    ));
    Report {
        attempted: run.ops.attempted,
        failed: run.ops.failed,
        failures: run.ops.failures,
        registry,
        metrics,
        detail: Json::Obj(detail),
    }
}

/// Derive the per-layer metrics of the traced pass from its spans, the
/// probes' exact counts and the driver's own counters.
fn layer_metrics(run: &mut Run, rounds: &[Round]) -> Values {
    let mut m = Values::zeroed(&PER_LAYER);
    let w = run.w;
    let k = run.k as f64;
    let first = &rounds[0];
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // core.sim: the driver's own counters over one round, the step as the
    // tracer saw it, and what tracing cost.
    let c = first.counts;
    m.set("core.sim.substeps", c.substeps as f64);
    m.set("core.sim.active_updates", c.active_updates as f64);
    m.set("core.sim.tree_rebuilds", c.tree_rebuilds as f64);
    m.set("core.sim.tree_refreshes", c.tree_refreshes as f64);
    m.set("core.sim.sn_events", c.sn_events as f64);
    m.set("core.sim.regions_applied", c.regions_applied as f64);
    m.set("core.sim.stars_formed", c.stars_formed as f64);
    m.set("sph.tree_rebuilds", c.sph_tree_rebuilds as f64);
    m.set("sph.tree_refreshes", c.sph_tree_refreshes as f64);
    m.set(
        "core.sim.mass_drift",
        rounds.iter().map(|r| r.mass_drift).fold(0.0, f64::max),
    );
    m.set("core.sim.untraced_step_ms", median(&first.step_ms));
    if let Some(e0) = run.e0 {
        let e1 = total_energy_of(&run.last_final, run.eps);
        let drift = ((e1 - e0) / e0).abs();
        m.set("core.sim.energy_drift", drift);
        // The ceilings belong to the reported configuration, not to the
        // smoke-sized one.
        let ceiling = w.energy_drift_ceiling().filter(|_| !run.opts.smoke);
        let ok = drift.is_finite() && ceiling.is_none_or(|c| drift <= c);
        run.ops.check(ok, || {
            format!("energy drift {drift:e} over the ceiling {ceiling:?}")
        });
    }
    let t = &run.tracer;
    let step_ms = match w {
        Workload::DistGalaxy => t.median_ms("core.dist.run") / k,
        _ => t.median_ms("core.sim.step"),
    };
    m.set("core.sim.step_ms", step_ms);
    // A traced round's timed loop over the untraced round's: every replay
    // and probe between the steps is in the numerator.
    m.set(
        "core.sim.trace_step_ratio",
        ratio(
            median(&traced.iter().map(|r| r.loop_s).collect::<Vec<_>>()),
            first.loop_s,
        ),
    );

    if let Some(p) = &run.probes {
        let n = run.n_ic as f64;
        let full = |f: fn(&ForceCounts) -> u64| {
            median(
                &p.full_counts
                    .iter()
                    .map(|c| f(c) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let (gi, di, fi) = (full(|c| c.gravity), full(|c| c.density), full(|c| c.force));
        let refresh = t.median_ms("core.forces.refresh");
        let refresh_hydro = t.median_ms("core.forces.refresh_hydro");
        let build = t.median_ms("fdps.tree_build");
        let windex = t.median_ms("fdps.walk_index");
        let geval = t.median_ms("gravity.eval");
        let dens = t.median_ms("sph.density");
        let force = t.median_ms("sph.force");
        let walk = t.median_ms("fdps.walk_serial");
        m.set("replay.samples", p.full_counts.len() as f64);
        m.set("replay.fidelity_checked", p.fidelity_checked as f64);
        m.set("replay.fidelity_failed", p.fidelity_failed as f64);
        m.set("core.forces.refresh_ms", refresh);
        m.set("core.forces.refresh_hydro_ms", refresh_hydro);
        m.set("fdps.tree_build_ns_per_particle", ratio(build * 1e6, n));
        m.set("fdps.walk_index_ms", windex);
        m.set("fdps.n_groups", p.force.n_groups as f64);
        m.set(
            "fdps.walk_list_len_mean",
            ratio(p.force.list_len_sum as f64, p.force.n_groups as f64),
        );
        m.set(
            "fdps.walk_lists_per_s",
            ratio(p.force.n_groups as f64, walk / 1e3),
        );
        m.set("gravity.eval_ms", geval);
        m.set("gravity.interactions", gi);
        m.set("gravity.ns_per_interaction", ratio(geval * 1e6, gi));
        m.set(
            "gravity.gflops",
            ratio(gi * gravity::OPS_PER_INTERACTION as f64, geval * 1e6),
        );
        m.set(
            "gravity.kernel_ns_per_interaction",
            t.median_ms("gravity.kernel") * 1e6 / KERNEL_INTERACTIONS,
        );
        m.set("sph.density_ms", dens);
        m.set("sph.density_interactions", di);
        m.set("sph.density_ns_per_interaction", ratio(dens * 1e6, di));
        m.set("sph.force_ms", force);
        m.set("sph.force_interactions", fi);
        m.set("sph.force_ns_per_interaction", ratio(force * 1e6, fi));

        // Shares are of the traced rounds' mean step. Block mode: one full
        // evaluation opens the base step and every substep runs an
        // active-subset pass; Global mode is two full evaluations (KDK).
        let mean_step = ratio(
            t.total_ms("core.sim.step"),
            t.durations_ms("core.sim.step").len() as f64,
        );
        let substeps = c.substeps as f64 / k;
        let evals = if substeps > 0.0 { 1.0 } else { 2.0 };
        let active =
            |f: fn(&ActiveCost) -> f64| median(&p.active_costs.iter().map(f).collect::<Vec<_>>());
        m.set(
            "fdps.tree_refresh_ns_per_particle",
            ratio(active(|c| c.tree_refresh_ms) * 1e6, n),
        );
        m.set("fdps.walk_index_refresh_ms", active(|c| c.index_refresh_ms));
        m.set("gravity.eval_active_ms", active(|c| c.gravity_ms));
        m.set(
            "gravity.active_interactions",
            active(|c| c.gravity_interactions),
        );
        m.set("sph.density_active_ms", active(|c| c.density_ms));
        m.set("sph.force_active_ms", active(|c| c.force_ms));
        m.set(
            "core.scheduler.assign_ms",
            t.median_ms("core.scheduler.assign"),
        );
        m.set("core.scheduler.max_level", median(&p.levels));
        m.set("core.scheduler.substeps_per_base_step", substeps);
        m.set(
            "core.scheduler.active_fraction",
            ratio(c.active_updates as f64, c.substeps as f64 * n),
        );
        let gravity_ms = evals * geval + substeps * active(|c| c.gravity_ms);
        let sph_ms = evals * (dens + force) + substeps * active(|c| c.density_ms + c.force_ms);
        let fdps_ms = evals * (build + windex)
            + substeps * active(|c| c.tree_refresh_ms + c.index_refresh_ms);
        let forces_ms = evals * (refresh + refresh_hydro)
            + substeps * active(|c| c.refresh_ms + c.refresh_hydro_ms);
        // The pool predictor runs inside the step that dispatches a region.
        let predict_ms = t.median_ms("core.pool.predict") * c.sn_events as f64 / k;
        m.set("gravity.share", ratio(gravity_ms, mean_step));
        m.set("sph.share", ratio(sph_ms, mean_step));
        m.set("core.pool.predict_share", ratio(predict_ms, mean_step));
        m.set(
            "core.sim.unattributed_share",
            1.0 - ratio(
                gravity_ms + sph_ms + fdps_ms + forces_ms + predict_ms,
                mean_step,
            ),
        );

        if let Some(s) = &p.surrogate {
            for (metric, span) in [
                ("surrogate.voxelize_ms", "surrogate.voxelize"),
                ("surrogate.encode_ms", "surrogate.encode"),
                ("unet.forward_ms", "unet.forward"),
                ("surrogate.decode_ms", "surrogate.decode"),
                ("surrogate.gibbs_ms", "surrogate.gibbs"),
                ("core.pool.predict_ms", "core.pool.predict"),
            ] {
                m.set(metric, t.median_ms(span));
            }
            let cfg = s.model().config;
            m.set(
                "unet.forward_gflops",
                ratio(
                    unet_forward_flops(cfg.grid_n, cfg.base_features),
                    t.median_ms("unet.forward") * 1e6,
                ),
            );
            let of = |f: fn(&RegionAudit) -> f64| p.audits.iter().map(f).collect::<Vec<_>>();
            let mass_err = of(|a| a.mass_err).into_iter().fold(0.0, f64::max);
            m.set(
                "surrogate.region_particles",
                median(&of(|a| a.particles as f64)),
            );
            m.set("surrogate.mass_err", mass_err);
            m.set(
                "surrogate.energy_budget_err",
                median(&of(|a| a.energy_budget_err)),
            );
            m.set("surrogate.train_s", median(&run.train_s));
            run.ops.check(mass_err <= 1e-9, || {
                "a replayed region prediction did not conserve mass".into()
            });
        }
    }

    if w == Workload::OpsRun {
        for (metric, span) in [
            ("core.snapshot.capture_ms", "core.snapshot.capture"),
            ("core.ckpt.commit_ms_p50", "core.ckpt.commit"),
            ("core.ckpt.fsync_4k_ms", "core.ckpt.fsync_4k"),
            ("core.ckpt.latest_valid_ms", "core.ckpt.latest_valid"),
            ("core.sim.restore_ms", "core.sim.restore"),
            ("core.diagnostics.measure_ms", "core.diagnostics.measure"),
            ("core.diagnostics.render_ms", "core.diagnostics.render"),
            (
                "core.diagnostics.live_rewrite_ms_p50",
                "core.diagnostics.live_rewrite",
            ),
            (
                "core.supervise.heartbeat_ms_p50",
                "core.supervise.heartbeat",
            ),
        ] {
            m.set(metric, t.median_ms(span));
        }
        let mb_per_s = |bytes: f64, ms: f64| ratio(bytes / 1e6, ms / 1e3);
        let (bin, json) = (run.codec_bytes.0 as f64, run.codec_bytes.1 as f64);
        m.set("core.snapshot.bin_bytes", bin);
        m.set("core.snapshot.json_bytes", json);
        for (metric, bytes, span) in [
            (
                "core.snapshot.encode_bin_mb_per_s",
                bin,
                "core.snapshot.encode_bin",
            ),
            (
                "core.snapshot.decode_bin_mb_per_s",
                bin,
                "core.snapshot.decode_bin",
            ),
            (
                "core.snapshot.encode_json_mb_per_s",
                json,
                "core.snapshot.encode_json",
            ),
            (
                "core.snapshot.decode_json_mb_per_s",
                json,
                "core.snapshot.decode_json",
            ),
        ] {
            m.set(metric, mb_per_s(bytes, t.median_ms(span)));
        }
        let commit = t.durations_ms("core.ckpt.commit");
        m.set("core.ckpt.commit_ms_p90", stats::quantile(&commit, 0.9));
        m.set(
            "core.ckpt.commit_mb_per_s",
            mb_per_s(run.commit_bytes as f64, commit.iter().sum()),
        );
        m.set("core.ckpt.commits", commit.len() as f64);
        m.set("core.ckpt.failed", run.commit_failures as f64);
        m.set(
            "core.diagnostics.bytes_written_total",
            run.diag_bytes as f64 / rounds.len() as f64,
        );
        // Everything timed in a traced round: its steps and its recovery.
        let wall_ms = t.total_ms("ops.step")
            + t.total_ms("core.ckpt.latest_valid")
            + t.total_ms("core.sim.restore");
        let diagnostics_ms = t.total_ms("core.diagnostics.measure")
            + t.total_ms("core.diagnostics.render")
            + t.total_ms("core.diagnostics.live_rewrite");
        m.set("core.diagnostics.share", ratio(diagnostics_ms, wall_ms));
        m.set(
            "core.ops.outside_step_share",
            1.0 - ratio(t.total_ms("core.sim.step"), wall_ms),
        );
        m.set(
            "core.sim.unattributed_share",
            ratio(t.self_ms("ops.step"), wall_ms),
        );
    }

    if let Some(report) = &run.last_dist {
        let phase = |names: &[&str]| -> f64 {
            names
                .iter()
                .filter_map(|n| report.phases.get(n))
                .map(|e| e.total_s)
                .sum()
        };
        let wall_s = step_ms * k / 1e3;
        let let_s = phase(&[phases::EXCHANGE_LET_1, phases::EXCHANGE_LET_2]);
        let exchange_s = phase(&[phases::EXCHANGE_PARTICLE]);
        let ghosts_s = phase(&[phases::PREPROCESS_FEEDBACK]);
        m.set(
            "core.dist.force_s",
            phase(&[phases::CALC_FORCE_1, phases::CALC_FORCE_2]),
        );
        m.set(
            "core.dist.density_s",
            phase(&[phases::CALC_KERNEL_DENSITY_1, phases::CALC_KERNEL_SIZE_2]),
        );
        m.set(
            "core.dist.tree_s",
            phase(&[phases::MAKE_LOCAL_TREE_1, phases::MAKE_TREE_2]),
        );
        m.set("core.dist.let_exchange_s", let_s);
        m.set("core.dist.exchange_particle_s", exchange_s);
        m.set(
            "core.dist.sn_s",
            phase(&[phases::IDENTIFY_SNE, phases::SEND_SNE, phases::RECEIVE_SNE]),
        );
        m.set(
            "core.dist.comm_share",
            ratio(let_s + exchange_s + ghosts_s, wall_s),
        );
        m.set(
            "core.dist.phase_coverage",
            ratio(report.phases.total_s(), wall_s),
        );
        m.set(
            "core.dist.vs_shared_wall_ratio",
            ratio(step_ms, run.shared_step_ms),
        );
        let sent: Vec<f64> = report.bytes_sent.iter().map(|&b| b as f64).collect();
        let total: f64 = sent.iter().sum();
        m.set("mpisim.bytes_sent_per_step", total / k);
        m.set(
            "mpisim.bytes_imbalance",
            ratio(
                sent.iter().cloned().fold(0.0, f64::max),
                total / sent.len().max(1) as f64,
            ),
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, untraced and traced, at smoke size: no operation
    /// fails, every registered metric is reported and finite, and the
    /// metrics a workload was built to expose are non-zero.
    #[test]
    fn smoke_runs_of_all_five_workloads_pass_their_checks() {
        for w in workloads::ALL {
            for trace in [false, true] {
                let report = run(
                    w,
                    &Opts {
                        seed: 42,
                        seconds: 0.0,
                        trace,
                        smoke: true,
                    },
                );
                assert_eq!(
                    report.failed,
                    0,
                    "{} trace {trace}: {:?}",
                    w.name(),
                    report.failures
                );
                assert!(report.attempted > 0);
                for (name, _) in report.registry {
                    let v = report.metrics.get(name);
                    assert!(v.is_finite(), "{} {name} = {v}", w.name());
                    if !trace {
                        assert!(v > 0.0, "{} {name} must never be 0", w.name());
                    }
                }
                if trace {
                    let must: &[&str] = match w {
                        Workload::GalaxyGlobal => &["gravity.eval_ms", "sph.force_ms"],
                        Workload::SnBlock => {
                            &["gravity.eval_active_ms", "core.scheduler.max_level"]
                        }
                        Workload::SnSurrogate => &["unet.forward_ms", "core.pool.predict_ms"],
                        Workload::DistGalaxy => {
                            &["core.dist.force_s", "mpisim.bytes_sent_per_step"]
                        }
                        Workload::OpsRun => {
                            &["core.ckpt.commit_ms_p50", "core.diagnostics.measure_ms"]
                        }
                    };
                    for name in must {
                        assert!(report.metrics.get(name) > 0.0, "{} {name}", w.name());
                    }
                    assert!(report.metrics.get("core.sim.step_ms") > 0.0);
                }
            }
        }
    }
}
