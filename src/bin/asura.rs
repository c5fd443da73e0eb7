//! `asura` — the scenario-runner CLI.
//!
//! One operational entry point over the registered scenarios
//! (see [`asura::scenarios`]): pick a workload by name, override the
//! scheme/timestep mode/step count, checkpoint at a cadence, resume from a
//! snapshot, and collect a diagnostics time series — all under `results/`.
//!
//! ```sh
//! asura --list
//! asura --scenario quickstart --steps 5 --snapshot-every 2
//! asura --scenario quickstart --resume results/quickstart --steps 5
//! asura --scenario supernova_remnant --snapshot-format json
//! asura --scenario spiked_dt --scheme conventional --timestep block:8
//! asura --scenario spiked_dt --supervised --snapshot-every 2
//! asura --scenario quickstart --dist 2x1x1+1 --steps 6 --snapshot-every 3
//! asura --scenario quickstart --dist 2x1x1+1 --resume results/quickstart
//! ```
//!
//! # Checkpoints
//!
//! Checkpoints are managed by the atomic rotated store
//! ([`asura_core::ckpt`]): every commit is tmp → fsync → rename, the run
//! directory keeps the last `--keep` stamped snapshots
//! (`checkpoint-<step>.<ext>`, `dist_checkpoint-<step>.<ext>` for
//! `--dist`) plus a checksummed manifest, and `--resume` accepts either a
//! snapshot file or a run *directory* — the latter loads the newest
//! rotation entry that passes validation, silently skipping damaged ones.
//!
//! # Supervision
//!
//! `--supervised` runs the scenario as a child process that touches a
//! heartbeat file every step. The parent detects crashes (exit status)
//! and hangs (stale heartbeat) and auto-resumes from the newest intact
//! checkpoint under a bounded retry budget with exponential backoff,
//! recording every incident in `supervisor.json`. Deterministic fault
//! injection for testing this machinery is driven by the `ASURA_FAULTS` /
//! `ASURA_ATTEMPT` environment variables ([`asura_core::faults`]).
//!
//! `--dist NXxNYxNZ+P` routes the scenario through the distributed
//! (`mpisim`) driver — `NX*NY*NZ` main ranks plus `P` pool ranks —
//! rotating `dist_checkpoint-<step>.{bin,json}` per `--snapshot-format`
//! (resumable with `--dist --resume`, either encoding) and writing
//! `dist_report.json` instead of the shared-memory outputs. `--timestep
//! block[:<max_level>]` runs the conventional hierarchy's substep walk
//! across the ranks so its per-substep synchronization cost is measured
//! (paper Figs. 6/7).
//!
//! # Trained surrogates
//!
//! `asura train-surrogate` closes the paper's train→persist→deploy loop:
//! it generates `(input, target)` voxel pairs from real conventional
//! SN-shell runs, trains the U-Net, and writes a checksummed weights
//! document plus a training manifest (see [`asura::surrogate_train`]).
//! `--predictor unet:<weights.json>` then serves those weights on any
//! surrogate-scheme run — shared-memory, `--supervised`, or `--dist` —
//! and embeds them in every checkpoint, so `--resume` rebuilds the
//! identical predictor without the weights file. An unreadable or corrupt
//! weights file is a *permanent* error (exit 2): the supervisor never
//! retries it.
//!
//! Exit codes: 0 success, 1 runtime failure (unreadable snapshot, I/O,
//! supervision gave up), 2 usage error or permanent failure (bad weights).

#![forbid(unsafe_code)]

use asura::scenarios;
use asura::surrogate_train::{self, TrainSpec};
use asura_core::ckpt::{atomic_write, CkptFormat, CkptStore, DEFAULT_KEEP};
use asura_core::diagnostics::{TimeSample, TimeSeries};
use asura_core::dist::{
    run_distributed, run_distributed_resume, DistConfig, DistSnapshot, PredictorKind,
};
use asura_core::faults::{self, FaultInjector};
use asura_core::serve::{self, Request, ServeConfig};
use asura_core::snapshot::{SimSnapshot, Snapshot};
use asura_core::supervise::{
    Heartbeat, Outcome, ProcessChild, ResumePoint, RetryPolicy, Supervisor,
};
use asura_core::{Scheme, Simulation, TimestepMode};
use fdps::exchange::Routing;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
asura — ASURA-FDPS-ML scenario runner

USAGE:
    asura --list
    asura --scenario <name> [OPTIONS]
    asura --resume <snapshot|run-dir> [--scenario <name>] [OPTIONS]
    asura --scenario <name> --supervised [OPTIONS]
    asura train-surrogate [--out <weights.json>] [--samples <n>] [--epochs <n>]
                          [--grid <n>] [--base-features <n>] [--lr <x>] [--seed <s>]
    asura scenarios
    asura serve [--root <dir>] [--addr <ip:port>] [--max-concurrent <n>]
                [--max-retries <n>] [--backoff-ms <ms>]
                [--heartbeat-timeout-ms <ms>] [--keep <k>]
    asura submit <scenario> [<overrides-json>] [--root <dir> | --addr <ip:port>]
    asura status <run-id>   [--root | --addr]
    asura list              [--root | --addr]
    asura watch <run-id>    [--root | --addr]
    asura cancel <run-id>   [--root | --addr]
    asura shutdown [--drain] [--root | --addr]

`asura serve` is the simulation-as-a-service daemon: a run registry
persisted to <root>/fleet.json, a bounded-concurrency job queue, and one
supervised child process per dispatched run. The client subcommands speak
its line protocol; they find the daemon via <root>/serve.json unless
--addr is given. See the asura-core serve module docs for the grammar.

OPTIONS:
    --list                     list registered scenarios and exit
    --scenario <name>          scenario to run (also names the results/ subdirectory)
    --resume <path>            continue from a snapshot file, or from a run directory's
                               newest intact rotation entry
    --steps <n>                steps to integrate (default: the scenario's default)
    --scheme <s>               surrogate | conventional
    --timestep <t>             global | block | block:<max_level>
    --snapshot-every <k>       checkpoint cadence in steps (0 = off)
    --snapshot-format <f>      bin | json (default bin)
    --seed <s>                 scenario realization / RNG seed (default 42)
    --predictor <p>            sedov (default) | unet:<weights.json> — the pool
                               predictor serving SN regions; unet: loads trained
                               weights from `asura train-surrogate` and embeds
                               them in every checkpoint (a bad file exits 2 and
                               is never retried by the supervisor)
    --diag-every <k>           diagnostics sampling cadence (default 1)
    --out-dir <dir>            output root (default results); artifacts land in
                               <out-dir>/<scenario>/
    --run-dir <dir>            exact artifact directory (no scenario-name nesting);
                               used by the serve daemon so each run id owns its
                               own directory
    --keep <k>                 checkpoint rotation depth (default 3)
    --dist <NXxNYxNZ+P>        run through the distributed (mpisim) driver:
                               NX*NY*NZ main ranks + P pool ranks
    --supervised               run as a heartbeat-monitored child with crash/hang
                               detection and auto-resume from the rotation
    --max-retries <n>          supervised: resume budget (default 3)
    --backoff-ms <ms>          supervised: exponential backoff base (default 500)
    --heartbeat-timeout-ms <ms>  supervised: stale-heartbeat hang threshold
                               (default 30000)
    --heartbeat <path>         (internal) heartbeat file touched every step
    --help                     this text

Deterministic fault injection (for testing the crash-safety machinery) is
read from ASURA_FAULTS, e.g. `ASURA_FAULTS=\"torn@2:64#0,kill@5#0\"`; see
the asura-core faults module docs for the grammar.
";

/// Parsed `--predictor` spec: which pool predictor serves SN regions.
#[derive(Debug, Clone, PartialEq)]
enum PredictorSpec {
    /// The analytic Sedov–Taylor overlay (the default, no weights needed).
    Sedov,
    /// A trained U-Net from `asura train-surrogate` weights at this path.
    UNet(String),
}

impl PredictorSpec {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sedov" => Ok(PredictorSpec::Sedov),
            other => match other.strip_prefix("unet:") {
                Some(p) if !p.is_empty() => Ok(PredictorSpec::UNet(p.to_string())),
                _ => Err(format!(
                    "--predictor expects `sedov` or `unet:<weights.json>`, got `{s}`"
                )),
            },
        }
    }

    /// Render back to the flag value (for forwarding to supervised children).
    fn flag_value(&self) -> String {
        match self {
            PredictorSpec::Sedov => "sedov".into(),
            PredictorSpec::UNet(p) => format!("unet:{p}"),
        }
    }

    /// Resolve to a ready [`PredictorKind`]: for `unet:` this reads and
    /// validates the weights file, so a bad file fails here — as a
    /// *permanent* error (exit 2, never retried by the supervisor) — not
    /// mid-run.
    fn resolve(&self, seed: u64) -> Result<PredictorKind, String> {
        let kind = match self {
            PredictorSpec::Sedov => PredictorKind::SedovOverlay,
            PredictorSpec::UNet(path) => PredictorKind::UNetTrained {
                path: path.clone(),
                seed,
            },
        };
        kind.resolve().map_err(|e| format!("permanent: {e}"))
    }
}

struct Args {
    list: bool,
    scenario: Option<String>,
    resume: Option<PathBuf>,
    steps: Option<usize>,
    scheme: Option<Scheme>,
    timestep: Option<TimestepMode>,
    snapshot_every: Option<u64>,
    snapshot_format: CkptFormat,
    seed: u64,
    /// Diagnostics sampling cadence; `None` means the default of every
    /// step (explicitly passing the flag with `--dist` is rejected).
    diag_every: Option<u64>,
    out_dir: PathBuf,
    /// Exact artifact directory, overriding the `<out-dir>/<scenario>`
    /// nesting — the serve daemon gives every run id its own directory.
    run_dir: Option<PathBuf>,
    /// Checkpoint rotation depth.
    keep: usize,
    /// Main-rank grid + pool rank count of `--dist`.
    dist: Option<((usize, usize, usize), usize)>,
    supervised: bool,
    max_retries: u32,
    backoff_ms: u64,
    heartbeat_timeout_ms: u64,
    /// Heartbeat file the (supervised) child touches after every step —
    /// set by the supervisor when it spawns the child.
    heartbeat: Option<PathBuf>,
    /// `--predictor`: which pool predictor serves SN regions on a fresh
    /// run (resumed runs reuse the snapshot's embedded model when present).
    predictor: Option<PredictorSpec>,
}

/// Parse `--dist`'s `NXxNYxNZ+P` spec.
fn parse_dist_spec(spec: &str) -> Result<((usize, usize, usize), usize), String> {
    let bad = || format!("--dist expects NXxNYxNZ+P (e.g. 2x1x1+1), got `{spec}`");
    let (grid, pool) = spec.split_once('+').ok_or_else(bad)?;
    let dims: Vec<usize> = grid
        .split('x')
        .map(|d| d.parse::<usize>().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let [nx, ny, nz] = dims[..] else {
        return Err(bad());
    };
    let n_pool = pool.parse::<usize>().map_err(|_| bad())?;
    if nx * ny * nz == 0 {
        return Err(format!("--dist needs at least one main rank, got `{spec}`"));
    }
    if n_pool == 0 {
        return Err(format!(
            "--dist needs at least one pool rank (the surrogate scheme ships SN regions \
             to the pool), got `{spec}`"
        ));
    }
    Ok(((nx, ny, nz), n_pool))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        list: false,
        scenario: None,
        resume: None,
        steps: None,
        scheme: None,
        timestep: None,
        snapshot_every: None,
        snapshot_format: CkptFormat::Bin,
        seed: 42,
        diag_every: None,
        out_dir: PathBuf::from("results"),
        run_dir: None,
        keep: DEFAULT_KEEP,
        dist: None,
        supervised: false,
        max_retries: 3,
        backoff_ms: 500,
        heartbeat_timeout_ms: 30_000,
        heartbeat: None,
        predictor: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--list" => args.list = true,
            "--scenario" => args.scenario = Some(value("--scenario")?.clone()),
            "--resume" => args.resume = Some(PathBuf::from(value("--resume")?)),
            "--steps" => {
                args.steps = Some(
                    value("--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                )
            }
            "--scheme" => {
                args.scheme = Some(match value("--scheme")?.as_str() {
                    "surrogate" => Scheme::Surrogate,
                    "conventional" => Scheme::Conventional,
                    other => return Err(format!("unknown scheme `{other}`")),
                })
            }
            "--timestep" => {
                let v = value("--timestep")?.clone();
                args.timestep = Some(match v.as_str() {
                    "global" => TimestepMode::Global,
                    "block" => TimestepMode::Block { max_level: 8 },
                    other => match other.strip_prefix("block:") {
                        Some(l) => TimestepMode::Block {
                            max_level: l.parse().map_err(|e| format!("--timestep block: {e}"))?,
                        },
                        None => return Err(format!("unknown timestep mode `{other}`")),
                    },
                })
            }
            "--snapshot-every" => {
                args.snapshot_every = Some(
                    value("--snapshot-every")?
                        .parse()
                        .map_err(|e| format!("--snapshot-every: {e}"))?,
                )
            }
            "--snapshot-format" => {
                args.snapshot_format = match value("--snapshot-format")?.as_str() {
                    "bin" => CkptFormat::Bin,
                    "json" => CkptFormat::Json,
                    other => return Err(format!("unknown snapshot format `{other}`")),
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--diag-every" => {
                args.diag_every = Some(
                    value("--diag-every")?
                        .parse()
                        .map_err(|e| format!("--diag-every: {e}"))?,
                )
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--run-dir" => args.run_dir = Some(PathBuf::from(value("--run-dir")?)),
            "--keep" => {
                args.keep = value("--keep")?
                    .parse()
                    .map_err(|e| format!("--keep: {e}"))?;
                if args.keep == 0 {
                    return Err("--keep must be at least 1".into());
                }
            }
            "--dist" => args.dist = Some(parse_dist_spec(value("--dist")?)?),
            "--supervised" => args.supervised = true,
            "--max-retries" => {
                args.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?
            }
            "--backoff-ms" => {
                args.backoff_ms = value("--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("--backoff-ms: {e}"))?
            }
            "--heartbeat-timeout-ms" => {
                args.heartbeat_timeout_ms = value("--heartbeat-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-timeout-ms: {e}"))?
            }
            "--heartbeat" => args.heartbeat = Some(PathBuf::from(value("--heartbeat")?)),
            "--predictor" => args.predictor = Some(PredictorSpec::parse(value("--predictor")?)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Resolve `--resume` for a snapshot kind: a snapshot file, or a run
/// directory whose rotation (entries named `<base>-<step>`) supplies the
/// newest intact checkpoint.
fn load_resume<S: Snapshot>(path: &Path, base: &str, keep: usize) -> Result<(S, PathBuf), String> {
    if path.is_dir() {
        let store = CkptStore::with_base(path, base, keep);
        let (entry, snap) = store.latest_valid().ok_or_else(|| {
            format!(
                "--resume {}: no intact {base} in the rotation",
                path.display()
            )
        })?;
        Ok((snap, store.entry_path(&entry)))
    } else {
        let snap = S::load(path).map_err(|e| format!("--resume {path:?}: {e}"))?;
        Ok((snap, path.to_path_buf()))
    }
}

fn load_sim_resume(path: &Path, keep: usize) -> Result<(SimSnapshot, PathBuf), String> {
    load_resume(path, "checkpoint", keep)
}

fn load_dist_resume(path: &Path, keep: usize) -> Result<(DistSnapshot, PathBuf), String> {
    load_resume(path, "dist_checkpoint", keep)
}

/// The `--dist` path: route the scenario through the mpisim driver, with
/// snapshot→resume support mirroring the shared-memory CLI.
fn run_dist(
    args: &Args,
    grid: (usize, usize, usize),
    n_pool: usize,
    injector: &mut FaultInjector,
) -> Result<(), String> {
    let name = args
        .scenario
        .as_deref()
        .ok_or("--dist requires --scenario (it provides the config and initial condition)")?;
    let scenario = scenarios::find(name).ok_or_else(|| format!("unknown scenario `{name}`"))?;
    // The distributed driver handles SNe through the pool ranks (the
    // surrogate data path) in either timestep mode; reject flags it would
    // silently ignore rather than hand back a run the user didn't ask for.
    if args.scheme == Some(Scheme::Conventional) {
        return Err(
            "--dist handles SNe through the pool ranks (the surrogate data path); \
                    --scheme conventional is the shared-memory driver's comparison baseline"
                .into(),
        );
    }
    if args.diag_every.is_some() {
        return Err(
            "--dist writes dist_report.json instead of a diagnostics time series; \
                    --diag-every applies to the shared-memory driver"
                .into(),
        );
    }
    // Resume replaces the particle state wholesale, so only realize the
    // initial condition on a fresh run; the config alone is cheap.
    let (mut sim_cfg, particles) = match args.resume {
        Some(_) => (scenario.config(), Vec::new()),
        None => scenario.build(args.seed),
    };
    sim_cfg.scheme = Scheme::Surrogate;
    // `--timestep block[:<max_level>]` runs the conventional hierarchy's
    // substep walk across the mpisim ranks (dist.rs module docs:
    // "Distributed block timesteps").
    if let Some(t) = args.timestep {
        sim_cfg.timestep = t;
    }
    let steps = args.steps.unwrap_or(scenario.default_steps);
    let cfg = DistConfig {
        grid,
        n_pool,
        routing: Routing::Flat,
        sim: sim_cfg,
        steps,
        // Resolved eagerly so a bad weights file dies here with exit 2
        // (on resume the snapshot's embedded model overrides this anyway).
        predictor: match &args.predictor {
            Some(p) => p.resolve(args.seed)?,
            None => PredictorKind::SedovOverlay,
        },
        snapshot_every: args.snapshot_every.unwrap_or(0),
    };
    let dir = args.out_dir.join(scenario.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let report = match &args.resume {
        Some(path) => {
            let (snap, resolved) = load_dist_resume(path, args.keep)?;
            if snap.rank_particles.len() != cfg.n_main() {
                return Err(format!(
                    "--resume {}: checkpoint was written by {} main ranks but --dist \
                     asks for {} ({}x{}x{}) — resume requires the same main-rank grid",
                    resolved.display(),
                    snap.rank_particles.len(),
                    cfg.n_main(),
                    grid.0,
                    grid.1,
                    grid.2,
                ));
            }
            println!(
                "dist resume from {} (step {}, t = {:.4} Myr, {} ranks, {} regions in flight): \
                 {} more steps on {}x{}x{}+{} ranks",
                resolved.display(),
                snap.step,
                snap.time,
                snap.rank_particles.len(),
                snap.pending.len(),
                steps,
                grid.0,
                grid.1,
                grid.2,
                n_pool,
            );
            // Unlike shared-memory snapshots, a DistSnapshot carries no
            // SimConfig — the named scenario supplies it, so resuming
            // under a different scenario's name would integrate the
            // checkpointed particles with the wrong physics.
            println!(
                "note: resuming with scenario `{}`'s config — it must be the scenario \
                 that wrote the checkpoint",
                scenario.name
            );
            run_distributed_resume(&cfg, &snap)
        }
        None => {
            println!(
                "dist scenario {} ({} particles) on {}x{}x{}+{} ranks for {} steps",
                scenario.name,
                particles.len(),
                grid.0,
                grid.1,
                grid.2,
                n_pool,
                steps,
            );
            run_distributed(&cfg, &particles)
        }
    }
    .map_err(|e| format!("distributed run: {e}"))?;

    // Gathered checkpoints rotate through the atomic store — the newest
    // `--keep` of them, in the requested encoding, plus the manifest.
    let store = CkptStore::with_base(&dir, "dist_checkpoint", args.keep);
    for snap in &report.snapshots {
        let path = store
            .commit_dist(snap, args.snapshot_format, injector)
            .map_err(|e| format!("writing dist checkpoint under {}: {e}", dir.display()))?;
        println!("[checkpoint] {} (step {})", path.display(), snap.step);
    }
    if !report.snapshots.is_empty() {
        println!("[manifest] {}", store.manifest_path().display());
    }
    // Counter summary (hand-rendered JSON, like the bench artifacts).
    let total_bytes: u64 = report.bytes_sent.iter().sum();
    let substeps_max = report
        .rank_stats
        .iter()
        .map(|s| s.substeps)
        .max()
        .unwrap_or(0);
    let active_updates: u64 = report.rank_stats.iter().map(|s| s.active_updates).sum();
    let tree_refreshes: u64 = report.rank_stats.iter().map(|s| s.tree_refreshes).sum();
    let tree_rebuilds: u64 = report.rank_stats.iter().map(|s| s.tree_rebuilds).sum();
    let phases: String = report
        .phases
        .entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"total_s\": {:.6}}}",
                e.name, e.total_s
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let degraded = match &report.error {
        Some(e) => format!("\"{e}\""),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"steps\": {},\n  \"sn_events\": {},\n  \"regions_applied\": {},\n  \
         \"gravity_interactions\": {},\n  \"hydro_interactions\": {},\n  \
         \"final_particles\": {},\n  \"bytes_sent_total\": {},\n  \"snapshots\": {},\n  \
         \"substeps\": {},\n  \"active_updates\": {},\n  \"tree_refreshes\": {},\n  \
         \"tree_rebuilds\": {},\n  \"error\": {},\n  \"phases\": [\n{}\n  ]\n}}\n",
        report.steps,
        report.sn_events,
        report.regions_applied,
        report.gravity_interactions,
        report.hydro_interactions,
        report.final_particles,
        total_bytes,
        report.snapshots.len(),
        substeps_max,
        active_updates,
        tree_refreshes,
        tree_rebuilds,
        degraded,
        phases,
    );
    let report_path = dir.join("dist_report.json");
    atomic_write(&report_path, json.as_bytes())
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    println!(
        "dist done: {} steps ({} substeps) | {} SNe, {} regions applied, {} particles, \
         {} snapshot(s)",
        report.steps,
        substeps_max,
        report.sn_events,
        report.regions_applied,
        report.final_particles,
        report.snapshots.len(),
    );
    println!("[report] {}", report_path.display());
    // A degraded run aborted early at a collective point: its final
    // checkpoint and report are on disk, but the run did not complete —
    // surface that as a failure after persisting everything.
    if let Some(err) = &report.error {
        return Err(format!(
            "distributed run degraded: {err} (checkpoint and report retained under {})",
            dir.display()
        ));
    }
    Ok(())
}

/// The `--supervised` parent: spawn the scenario as a heartbeat-monitored
/// child, auto-resume it from the checkpoint rotation on crash or hang,
/// and record every incident in `supervisor.json`.
fn run_supervised(args: &Args) -> Result<(), String> {
    let name = args
        .scenario
        .as_deref()
        .ok_or("usage: --supervised requires --scenario")?;
    if args.dist.is_some() {
        return Err(
            "usage: --supervised drives the shared-memory runner; it cannot be combined \
             with --dist"
                .into(),
        );
    }
    if args.resume.is_some() {
        return Err(
            "usage: --supervised resumes automatically from the run directory's rotation; \
             drop --resume"
                .into(),
        );
    }
    let scenario = scenarios::find(name).ok_or_else(|| format!("unknown scenario `{name}`"))?;
    // `--steps` is the run's *target* in absolute steps: every resumed
    // attempt is handed `target - resume_step` so all attempts end at the
    // same final step, which is what makes the chaos tests' bitwise
    // final-state comparison meaningful.
    let target_steps = args.steps.unwrap_or(scenario.default_steps);
    let dir = args
        .run_dir
        .clone()
        .unwrap_or_else(|| args.out_dir.join(scenario.name));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let store = CkptStore::new(&dir, args.keep);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let hb_path = dir.join("heartbeat");
    let supervisor = Supervisor {
        policy: RetryPolicy {
            max_retries: args.max_retries,
            backoff_base_ms: args.backoff_ms,
            backoff_cap_ms: args.backoff_ms.max(1) * 16,
        },
        heartbeat_timeout_ms: args.heartbeat_timeout_ms,
        poll_interval_ms: 20,
        permanent_exit_codes: vec![2],
        log_path: dir.join("supervisor.json"),
        heartbeat_path: hb_path.clone(),
    };
    println!(
        "supervising scenario {name}: target {target_steps} steps, rotation keep {}, \
         up to {} resume(s)",
        args.keep, args.max_retries
    );
    let (outcome, log) = supervisor
        .run(
            |attempt, resume| {
                let mut cmd = std::process::Command::new(&exe);
                cmd.arg("--scenario").arg(name);
                let child_steps = match resume {
                    Some(rp) => target_steps.saturating_sub(rp.step as usize),
                    None => target_steps,
                };
                cmd.arg("--steps").arg(child_steps.to_string());
                if let Some(rp) = resume {
                    cmd.arg("--resume").arg(&rp.path);
                }
                if let Some(s) = args.scheme {
                    cmd.arg("--scheme").arg(match s {
                        Scheme::Surrogate => "surrogate",
                        Scheme::Conventional => "conventional",
                    });
                }
                if let Some(t) = args.timestep {
                    cmd.arg("--timestep").arg(match t {
                        TimestepMode::Global => "global".to_string(),
                        TimestepMode::Block { max_level } => format!("block:{max_level}"),
                    });
                }
                if let Some(k) = args.snapshot_every {
                    cmd.arg("--snapshot-every").arg(k.to_string());
                }
                cmd.arg("--snapshot-format").arg(args.snapshot_format.ext());
                cmd.arg("--seed").arg(args.seed.to_string());
                if let Some(d) = args.diag_every {
                    cmd.arg("--diag-every").arg(d.to_string());
                }
                if let Some(p) = &args.predictor {
                    cmd.arg("--predictor").arg(p.flag_value());
                }
                cmd.arg("--run-dir").arg(&dir);
                cmd.arg("--keep").arg(args.keep.to_string());
                cmd.arg("--heartbeat").arg(&hb_path);
                // Attempt-scoped fault arming: ASURA_FAULTS is inherited
                // from this process's environment untouched.
                cmd.env(faults::ATTEMPT_ENV, attempt.to_string());
                match resume {
                    Some(rp) => println!(
                        "[supervisor] attempt {attempt}: resuming from step {} ({})",
                        rp.step,
                        rp.path.display()
                    ),
                    None => println!("[supervisor] attempt {attempt}: fresh start"),
                }
                cmd.spawn().map(ProcessChild::new)
            },
            || {
                store.latest_valid_sim().map(|(entry, _)| ResumePoint {
                    step: entry.step,
                    path: store.entry_path(&entry),
                })
            },
        )
        .map_err(|e| format!("supervisor: {e}"))?;
    println!(
        "[supervisor] {} incident(s), log {}",
        log.incidents.len(),
        supervisor.log_path.display()
    );
    match outcome {
        Outcome::Completed { attempts } => {
            println!("[supervisor] run completed after {attempts} attempt(s)");
            Ok(())
        }
        Outcome::GaveUp { attempts } => Err(format!(
            "supervised run gave up after {attempts} attempt(s); see {}",
            supervisor.log_path.display()
        )),
        Outcome::Permanent { exit_code } => Err(format!(
            "supervised child failed permanently (exit {exit_code}); see {}",
            supervisor.log_path.display()
        )),
        // `Supervisor::run` has no abort hook, so cancellation can only
        // come out of the serve daemon's `run_with_abort` path.
        Outcome::Canceled { attempts } => Err(format!(
            "supervised run canceled after {attempts} attempt(s); see {}",
            supervisor.log_path.display()
        )),
    }
}

/// The `asura scenarios` subcommand: the submittable registry, one line
/// per scenario.
fn cmd_scenarios(rest: &[String]) -> Result<(), String> {
    if !rest.is_empty() {
        return Err(format!(
            "usage: scenarios takes no arguments, got `{}`",
            rest.join(" ")
        ));
    }
    println!("registered scenarios:");
    for s in scenarios::SCENARIOS {
        println!(
            "  {:<18} {:>4} default steps   {}",
            s.name, s.default_steps, s.description
        );
    }
    Ok(())
}

/// The `asura train-surrogate` subcommand: generate the conventional-run
/// dataset, train the U-Net, and write the weights + training manifest
/// (see [`asura::surrogate_train`]). The weights document is what
/// `--predictor unet:<weights.json>` deploys.
fn cmd_train_surrogate(rest: &[String]) -> Result<(), String> {
    let mut spec = TrainSpec::default();
    let mut out = PathBuf::from("results/train-surrogate/weights.json");
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next()
                .ok_or_else(|| format!("usage: train-surrogate: {name} needs a value"))
        };
        let bad =
            |name: &str, e: std::num::ParseIntError| format!("usage: train-surrogate: {name}: {e}");
        match flag.as_str() {
            "--out" => out = PathBuf::from(value("--out")?),
            "--samples" => {
                spec.samples = value("--samples")?
                    .parse()
                    .map_err(|e| bad("--samples", e))?
            }
            "--epochs" => {
                spec.epochs = value("--epochs")?.parse().map_err(|e| bad("--epochs", e))?
            }
            "--grid" => spec.grid_n = value("--grid")?.parse().map_err(|e| bad("--grid", e))?,
            "--base-features" => {
                spec.base_features = value("--base-features")?
                    .parse()
                    .map_err(|e| bad("--base-features", e))?
            }
            "--lr" => {
                spec.lr = value("--lr")?
                    .parse()
                    .map_err(|e| format!("usage: train-surrogate: --lr: {e}"))?
            }
            "--seed" => spec.seed = value("--seed")?.parse().map_err(|e| bad("--seed", e))?,
            other => return Err(format!("usage: train-surrogate: unknown flag `{other}`")),
        }
    }
    if spec.samples == 0 || spec.epochs == 0 || spec.base_features == 0 {
        return Err(
            "usage: train-surrogate: --samples, --epochs and --base-features \
                    must be at least 1"
                .into(),
        );
    }
    // Two 2× pooling stages in the U-Net encoder.
    if spec.grid_n < 4 || spec.grid_n % 4 != 0 {
        return Err(format!(
            "usage: train-surrogate: --grid must be a positive multiple of 4, got {}",
            spec.grid_n
        ));
    }
    println!(
        "train-surrogate: {} sample(s) from `{}` (seeds {}..{}), {} epoch(s), \
         grid {}^3, {} base features, lr {}",
        spec.samples,
        surrogate_train::TRAIN_SCENARIO,
        spec.seed,
        spec.seed + spec.samples as u64,
        spec.epochs,
        spec.grid_n,
        spec.base_features,
        spec.lr,
    );
    let t0 = std::time::Instant::now();
    let outcome = surrogate_train::train(&spec);
    let wall = t0.elapsed().as_secs_f64();
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    atomic_write(&out, outcome.model.to_json().as_bytes())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    let manifest_path = out.with_file_name("train_manifest.json");
    atomic_write(
        &manifest_path,
        surrogate_train::manifest_json(&spec, &outcome.losses).as_bytes(),
    )
    .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;
    println!(
        "trained in {:.1} s: loss {:.6} -> {:.6} over {} epoch(s)",
        wall,
        outcome.losses.first().copied().unwrap_or(f64::NAN),
        outcome.losses.last().copied().unwrap_or(f64::NAN),
        outcome.losses.len(),
    );
    println!("[weights] {}", out.display());
    println!("[manifest] {}", manifest_path.display());
    println!(
        "deploy with: asura --scenario supernova_remnant --predictor unet:{}",
        out.display()
    );
    Ok(())
}

/// The `asura serve` subcommand: run the fleet daemon in the foreground.
fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig {
        root: PathBuf::from("results"),
        addr: "127.0.0.1:0".to_string(),
        max_concurrent: ServeConfig::default_max_concurrent(),
        catalog: scenarios::catalog(),
        retry: RetryPolicy::default(),
        heartbeat_timeout_ms: 30_000,
        keep: DEFAULT_KEEP,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--root" => cfg.root = PathBuf::from(value("--root")?),
            "--addr" => cfg.addr = value("--addr")?.clone(),
            "--max-concurrent" => {
                cfg.max_concurrent = value("--max-concurrent")?
                    .parse()
                    .map_err(|e| format!("--max-concurrent: {e}"))?;
                if cfg.max_concurrent == 0 {
                    return Err("--max-concurrent must be at least 1".into());
                }
            }
            "--max-retries" => {
                cfg.retry.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?
            }
            "--backoff-ms" => {
                cfg.retry.backoff_base_ms = value("--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("--backoff-ms: {e}"))?;
                cfg.retry.backoff_cap_ms = cfg.retry.backoff_base_ms.max(1) * 16;
            }
            "--heartbeat-timeout-ms" => {
                cfg.heartbeat_timeout_ms = value("--heartbeat-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-timeout-ms: {e}"))?
            }
            "--keep" => {
                cfg.keep = value("--keep")?
                    .parse()
                    .map_err(|e| format!("--keep: {e}"))?;
                if cfg.keep == 0 {
                    return Err("--keep must be at least 1".into());
                }
            }
            other => return Err(format!("serve: unknown flag `{other}`")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let keep = cfg.keep;
    // Build each worker attempt's command line from the run entry. The
    // daemon itself adds ASURA_ATTEMPT and any per-run ASURA_FAULTS plan.
    let spawner: serve::Spawner = Arc::new(move |spec: &serve::SpawnSpec| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--scenario").arg(&spec.run.scenario);
        // Absolute-step target: resumed attempts integrate the remainder,
        // so every attempt ends at the same final step (the
        // bitwise-determinism contract of the chaos tests).
        let child_steps = match spec.resume {
            Some(rp) => spec.run.target_steps.saturating_sub(rp.step),
            None => spec.run.target_steps,
        };
        cmd.arg("--steps").arg(child_steps.to_string());
        if let Some(rp) = spec.resume {
            cmd.arg("--resume").arg(&rp.path);
        }
        let o = &spec.run.overrides;
        if let Some(s) = &o.scheme {
            cmd.arg("--scheme").arg(s);
        }
        if let Some(t) = &o.timestep {
            cmd.arg("--timestep").arg(t);
        }
        // Serve default cadence is every step: auto-resume should never
        // replay more than one step of lost work.
        cmd.arg("--snapshot-every")
            .arg(o.snapshot_every.unwrap_or(1).to_string());
        if let Some(f) = &o.snapshot_format {
            cmd.arg("--snapshot-format").arg(f);
        }
        cmd.arg("--seed").arg(o.seed.unwrap_or(42).to_string());
        cmd.arg("--run-dir").arg(spec.run_dir);
        cmd.arg("--keep").arg(keep.to_string());
        cmd.arg("--heartbeat").arg(spec.heartbeat);
        Ok(cmd)
    });
    serve::serve(cfg, spawner).map_err(|e| format!("serve: {e}"))
}

/// The client subcommands (`submit`/`status`/`list`/`watch`/`cancel`/
/// `shutdown`): one request line to the daemon, response lines streamed
/// to stdout as they arrive.
fn cmd_client(verb: &str, rest: &[String]) -> Result<(), String> {
    let mut root = PathBuf::from("results");
    let mut addr: Option<String> = None;
    let mut drain = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a value".to_string())?,
                )
            }
            "--addr" => {
                addr = Some(
                    it.next()
                        .ok_or_else(|| "--addr needs a value".to_string())?
                        .clone(),
                )
            }
            "--drain" if verb == "shutdown" => drain = true,
            other if other.starts_with("--") => {
                return Err(format!("{verb}: unknown flag `{other}`"))
            }
            _ => positional.push(arg),
        }
    }
    let pos = |n: usize, what: &str| -> Result<&String, String> {
        positional
            .get(n)
            .copied()
            .ok_or_else(|| format!("usage: asura {verb} <{what}>"))
    };
    let line = match verb {
        "submit" => {
            let scenario = pos(0, "scenario")?;
            match positional.get(1) {
                Some(json) => format!("SUBMIT {scenario} {json}"),
                None => format!("SUBMIT {scenario}"),
            }
        }
        "status" => format!("STATUS {}", pos(0, "run-id")?),
        "list" => "LIST".to_string(),
        "watch" => format!("WATCH {}", pos(0, "run-id")?),
        "cancel" => format!("CANCEL {}", pos(0, "run-id")?),
        "shutdown" => {
            if drain {
                "SHUTDOWN DRAIN".to_string()
            } else {
                "SHUTDOWN".to_string()
            }
        }
        other => return Err(format!("unknown subcommand `{other}`")),
    };
    // Catch grammar errors locally (typo'd overrides JSON etc.) before
    // the request crosses the wire.
    Request::parse(&line).map_err(|e| format!("{verb}: {e}"))?;
    let addr = match addr {
        Some(a) => a,
        None => serve::read_serve_addr(&root).ok_or_else(|| {
            format!(
                "no daemon found: pass --addr, or start `asura serve` \
                 (looked for {})",
                root.join(serve::ADDR_FILE).display()
            )
        })?,
    };
    let mut stream =
        std::net::TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| stream.shutdown(std::net::Shutdown::Write))
        .map_err(|e| format!("send: {e}"))?;
    let mut failed = false;
    for reply in BufReader::new(stream).lines() {
        let reply = reply.map_err(|e| format!("read: {e}"))?;
        failed |= reply.contains("\"ok\":false");
        println!("{reply}");
    }
    if failed {
        Err("request failed (see response above)".into())
    } else {
        Ok(())
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Subcommand forms first; everything else is the classic flag CLI.
    match argv.first().map(|s| s.as_str()) {
        Some("scenarios") => return cmd_scenarios(&argv[1..]),
        Some("serve") => return cmd_serve(&argv[1..]),
        Some("train-surrogate") => return cmd_train_surrogate(&argv[1..]),
        Some(verb @ ("submit" | "status" | "list" | "watch" | "cancel" | "shutdown")) => {
            return cmd_client(verb, &argv[1..])
        }
        _ => {}
    }
    let args = parse_args(&argv).map_err(|e| {
        if e.is_empty() {
            String::new()
        } else {
            format!("usage: {e}")
        }
    })?;

    if args.list {
        println!("registered scenarios:");
        for s in scenarios::SCENARIOS {
            println!(
                "  {:<18} {:>4} default steps   {}",
                s.name, s.default_steps, s.description
            );
        }
        return Ok(());
    }

    if args.supervised {
        return run_supervised(&args);
    }

    // A malformed fault plan is a usage error (exit 2, never retried) so a
    // typo'd ASURA_FAULTS can't silently run fault-free.
    let mut injector = FaultInjector::from_env().map_err(|e| format!("usage: {e}"))?;

    if let Some((grid, n_pool)) = args.dist {
        return run_dist(&args, grid, n_pool, &mut injector);
    }

    // Resolve the run: a fresh scenario build, or a snapshot restore.
    let (mut sim, run_name, default_steps) = match (&args.resume, &args.scenario) {
        (Some(path), scenario) => {
            let (snap, resolved) = load_sim_resume(path, args.keep)?;
            let name = scenario.clone().unwrap_or_else(|| "resumed".to_string());
            println!(
                "resumed from {} (step {}, t = {:.4} Myr, {} particles, {} regions in flight)",
                resolved.display(),
                snap.step_count,
                snap.time,
                snap.particles.len(),
                snap.pending.len()
            );
            // A model embedded in the snapshot is authoritative — it is
            // what the bitwise resume contract demands. Only a model-less
            // snapshot accepts `--predictor` (the supervisor forwards the
            // flag to resumed attempts, so it must not conflict here).
            let sim = match (&snap.model, &args.predictor) {
                (None, Some(spec @ PredictorSpec::UNet(_))) => {
                    let kind = spec.resolve(args.seed)?;
                    let mut sim = Simulation::restore_with_predictor(
                        &snap,
                        kind.build(snap.config.region_side),
                    );
                    sim.model = kind.model_state();
                    sim
                }
                _ => Simulation::restore(&snap),
            };
            // When the scenario is named alongside --resume, honour its
            // registered default step count; otherwise fall back to 10.
            let default_steps = scenarios::find(&name).map_or(10, |s| s.default_steps);
            (sim, name, default_steps)
        }
        (None, Some(name)) => {
            let scenario = scenarios::find(name).ok_or_else(|| {
                format!(
                    "unknown scenario `{name}` (available: {})",
                    scenarios::SCENARIOS
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
            let (cfg, particles) = scenario.build(args.seed);
            println!(
                "scenario {} ({} particles): {}",
                scenario.name,
                particles.len(),
                scenario.description
            );
            let sim = match &args.predictor {
                None | Some(PredictorSpec::Sedov) => Simulation::new(cfg, particles, args.seed),
                Some(spec) => {
                    let kind = spec.resolve(args.seed)?;
                    let mut sim = Simulation::with_predictor(
                        cfg,
                        particles,
                        args.seed,
                        kind.build(cfg.region_side),
                    );
                    // Embed the weights so every checkpoint carries the
                    // model and `--resume` rebuilds it without the file.
                    sim.model = kind.model_state();
                    sim
                }
            };
            (sim, scenario.name.to_string(), scenario.default_steps)
        }
        (None, None) => {
            return Err("usage: either --scenario <name> or --resume <snapshot> is required".into())
        }
    };

    // Flag overrides on top of the scenario/snapshot config.
    if let Some(s) = args.scheme {
        sim.config.scheme = s;
    }
    if let Some(t) = args.timestep {
        sim.config.timestep = t;
    }
    if let Some(k) = args.snapshot_every {
        sim.config.snapshot_every = k;
    }
    let steps = args.steps.unwrap_or(default_steps);
    let map_half = scenarios::find(&run_name).map_or(100.0, |s| s.map_half);

    let dir = args
        .run_dir
        .clone()
        .unwrap_or_else(|| args.out_dir.join(&run_name));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let store = CkptStore::new(&dir, args.keep);

    println!(
        "integrating {steps} steps (dt = {} Myr, scheme {:?}, timestep {:?}, snapshot every {})",
        sim.config.dt_global, sim.config.scheme, sim.config.timestep, sim.config.snapshot_every
    );

    let mut series = TimeSeries::new(run_name.clone());
    let mut t_prev = sim.time;
    let diag_every = args.diag_every.unwrap_or(1);
    let mut heartbeat = args.heartbeat.as_ref().map(Heartbeat::new);
    let mut hb_io: Option<std::io::Error> = None;
    let diag_path = dir.join("diagnostics.json");
    // Under supervision (--heartbeat set) the series is also rewritten
    // atomically after every sample, so WATCHers of the serve daemon see
    // rows as they land instead of at run end. In-loop write errors are
    // tolerated (the final write below still reports them).
    let live_diag = args.heartbeat.is_some();
    // The crash-safe run loop: heartbeat + diagnostics after every step,
    // then (fault enforcement and) the cadence commit through the atomic
    // rotated store — see `Simulation::run_with_store`.
    let mut written = sim
        .run_with_store(steps, &store, args.snapshot_format, &mut injector, |s| {
            if let Some(hb) = heartbeat.as_mut() {
                if hb_io.is_none() {
                    if let Err(e) = hb.beat(s.step_count) {
                        hb_io = Some(e);
                    }
                }
            }
            if diag_every > 0 && s.step_count.is_multiple_of(diag_every) {
                series.record(TimeSample::measure(s, t_prev, map_half));
                t_prev = s.time;
                if live_diag {
                    let _ = atomic_write(&diag_path, series.to_json().as_bytes());
                }
            }
        })
        .map_err(|e| format!("writing checkpoint under {}: {e}", dir.display()))?;
    if let Some(e) = hb_io {
        return Err(format!("writing heartbeat: {e}"));
    }

    // Always leave a final checkpoint (unless the cadence already
    // committed the last step) + the diagnostics series.
    let cadence_hit = steps > 0
        && sim.config.snapshot_every > 0
        && sim.step_count.is_multiple_of(sim.config.snapshot_every);
    if !cadence_hit {
        written.push(
            store
                .commit_sim(&sim.snapshot(), args.snapshot_format, &mut injector)
                .map_err(|e| format!("writing final checkpoint: {e}"))?,
        );
    }
    atomic_write(&diag_path, series.to_json().as_bytes())
        .map_err(|e| format!("write {}: {e}", diag_path.display()))?;

    println!(
        "done: t = {:.4} Myr after {} total steps | {} SNe, {} regions applied, {} in flight, {} stars formed",
        sim.time,
        sim.step_count,
        sim.stats.sn_events,
        sim.stats.regions_applied,
        sim.pending_regions(),
        sim.stats.stars_formed,
    );
    for p in &written {
        println!("[checkpoint] {}", p.display());
    }
    println!("[manifest] {}", store.manifest_path().display());
    println!(
        "[diagnostics] {} ({} samples)",
        diag_path.display(),
        series.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is_empty() || e.starts_with("usage:") => {
            if !e.is_empty() {
                eprintln!("{e}\n");
            }
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        // "permanent:" marks failures retrying can never fix (e.g. a
        // corrupt weights file): exit 2 without the usage text, which the
        // supervisor's permanent_exit_codes list refuses to retry.
        Err(e) => match e.strip_prefix("permanent:") {
            Some(msg) => {
                eprintln!("error:{msg}");
                ExitCode::from(2)
            }
            None => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
