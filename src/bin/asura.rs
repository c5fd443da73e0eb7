//! `asura` — the scenario-runner CLI.
//!
//! One operational entry point over the registered scenarios
//! (see [`asura::scenarios`]): pick a workload by name, override the
//! scheme/timestep mode/step count, checkpoint at a cadence, resume from a
//! snapshot, and collect a diagnostics time series — all under `results/`.
//!
//! ```sh
//! asura scenarios
//! asura --scenario quickstart --steps 5 --snapshot-every 2
//! asura --scenario quickstart --resume results/quickstart --steps 5
//! asura inspect results/quickstart/checkpoint-000004.bin
//! asura --scenario spiked_dt --scheme conventional --timestep block:8
//! asura --scenario spiked_dt --supervised --snapshot-every 2
//! asura --scenario quickstart --dist 2x1x1+1 --steps 6 --snapshot-every 3
//! asura --dist 2x1x1+1 --resume results/quickstart
//! asura --scenario spiked_dt --dist 2x1x1+1 --supervised --snapshot-every 2
//! ```
//!
//! # Checkpoints
//!
//! Checkpoints are managed by the atomic rotated store
//! ([`asura_core::ckpt`]): every commit is tmp → fsync → rename, the run
//! directory keeps the last `--keep` stamped binary snapshots
//! (`checkpoint-<step>.bin`, `dist_checkpoint-<step>.bin` for `--dist`)
//! plus a checksummed manifest, and `--resume` accepts either a snapshot
//! file or a run *directory* — the latter loads the newest rotation entry
//! that passes validation, silently skipping damaged ones. A checkpoint has
//! one encoding on disk; `asura inspect <checkpoint.bin>` prints its JSON
//! rendering for a person to read, and nothing reads that JSON back.
//!
//! # Supervision
//!
//! `--supervised` runs the scenario as a child process that touches a
//! heartbeat file every step. The parent detects crashes (exit status)
//! and hangs (stale heartbeat) and auto-resumes from the newest intact
//! checkpoint under a bounded retry budget with exponential backoff,
//! recording every incident in `supervisor.json` — on either route: with
//! `--dist` the child runs distributed and resumes from the
//! `dist_checkpoint` rotation. `--supervised` and `asura serve` read the
//! same three flags into one `RetryPolicy` and launch their children
//! through the same [`ChildRun::supervise`]; only the run they describe
//! differs. Deterministic fault injection for testing this machinery is
//! driven by the `ASURA_FAULTS` / `ASURA_ATTEMPT` environment variables
//! ([`asura_core::faults`]).
//!
//! `--dist NXxNYxNZ+P` routes the scenario through the distributed
//! (`mpisim`) driver — `NX*NY*NZ` main ranks plus `P` pool ranks —
//! rotating `dist_checkpoint-<step>.bin` and writing `dist_report.json`
//! instead of the shared-memory outputs. A checkpoint is the same
//! [`SimSnapshot`] on both routes — one slab, or one per main rank — so
//! `--dist --resume` follows the shared-memory rules: the checkpoint
//! supplies config, counters and model, flags override, `--scenario` is
//! optional, and the grid must be the writer's. Both routes close with one
//! `[stats]` line, the run's [`SimStats`] as `name=value` pairs (merged
//! over the main ranks by [`SimStats::combine`] on `--dist`, which nests
//! the same counters under `"stats"` in `dist_report.json`): on one main
//! rank the two lines are equal.
//! `--scheme` and `--timestep` mean what they mean without `--dist` (both
//! drivers run the one `asura_core::step::step`): `--scheme conventional --timestep
//! block[:<max_level>]` runs the conventional hierarchy's substep walk
//! across the ranks so its per-substep synchronization cost is measured
//! (paper Figs. 6/7). Stars form on both routes from the same keyed draws.
//! Both routes run one per-step tail — heartbeat, step fault, cadence commit —
//! so a distributed run's checkpoints reach disk as it steps (from main
//! rank 0) and a failed commit stops it where it stops the shared-memory
//! run.
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
//! # How this file is laid out
//!
//! A run child's flags have one owner, [`RunFlags`] in the library's
//! [`asura::serve`]: the scenario flag loop hands it every flag but the
//! parent's own ([`Args`]: `--supervised`, `--out-dir`, `--help` and the
//! supervision flags), and [`ChildRun`] writes it back as the child's
//! command line. Option *values* are spelled beside their types, each with
//! one `FromStr` + `Display` pair. Every flag loop reads through one cursor
//! ([`Flags`]); the two supervising loops share [`Flags::retry_flag`]. The
//! fleet daemon ([`asura::serve`]) fills the same `RunFlags` from a run's
//! overrides. Every JSON document written here (`dist_report.json`, and
//! through the library `train_manifest.json`) is a `json::Json` value
//! rendered by the one writer.
//!
//! Exit codes: 0 success, 1 runtime failure (unreadable snapshot, I/O,
//! supervision gave up), 2 usage error or permanent failure (bad weights).

#![forbid(unsafe_code)]

use asura::scenarios;
use asura::serve::{
    self, ckpt_base, ChildRun, DistSpec, Request, RunFlags, RunOverrides, ServeConfig,
};
use asura::surrogate_train::{self, TrainSpec};
use asura_core::ckpt::{atomic_write, CkptFormat, CkptStore, DEFAULT_KEEP};
use asura_core::diagnostics::{TimeSample, TimeSeries};
use asura_core::dist::{self, DistConfig, DistError, PredictorKind, Start};
use asura_core::faults::FaultInjector;
use asura_core::snapshot::SimSnapshot;
use asura_core::supervise::{Heartbeat, Outcome, ResumePoint, RetryPolicy, LOG_FILE};
use asura_core::{SimConfig, SimStats, Simulation};
use fdps::exchange::Routing;
use json::Json;
use std::fmt::Display;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
asura — ASURA-FDPS-ML scenario runner

USAGE:
    asura --scenario <name> [OPTIONS]
    asura --resume <snapshot|run-dir> [--scenario <name>] [OPTIONS]
    asura --scenario <name> --supervised [OPTIONS]
    asura train-surrogate [--out <weights.json>] [--samples <n>] [--epochs <n>]
                          [--grid <n>] [--base-features <n>] [--lr <x>] [--seed <s>]
    asura scenarios
    asura inspect <checkpoint.bin>
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
--addr is given. See the asura::serve module docs for the grammar.

`asura inspect` prints a binary checkpoint as JSON, for reading; nothing
reads that JSON back (a checkpoint has one encoding on disk).

OPTIONS:
    --scenario <name>          scenario to run (also names the results/ subdirectory)
    --resume <path>            continue from a snapshot file, or from a run directory's
                               newest intact rotation entry
    --steps <n>                steps to integrate (default: the scenario's default)
    --scheme <s>               surrogate | conventional
    --timestep <t>             global | block | block:<max_level>
    --snapshot-every <k>       checkpoint cadence in steps (0 = off)
    --seed <s>                 scenario realization and star-formation key
                               (default 42; a resume keeps its checkpoint's)
    --predictor <p>            sedov (default) | unet:<weights.json> — the pool
                               predictor serving SN regions; unet: loads trained
                               weights from `asura train-surrogate` and embeds
                               them in every checkpoint (a bad file exits 2 and
                               is never retried by the supervisor)
    --out-dir <dir>            output root (default results); artifacts land in
                               <out-dir>/<scenario>/
    --run-dir <dir>            exact artifact directory (no scenario-name nesting);
                               used by the serve daemon so each run id owns its
                               own directory
    --keep <k>                 checkpoint rotation depth (default 3)
    --dist <NXxNYxNZ+P>        run through the distributed (mpisim) driver:
                               NX*NY*NZ main ranks + P pool ranks, under either
                               --scheme and either --timestep; --resume needs the
                               grid that wrote the checkpoint
    --supervised               run as a heartbeat-monitored child with crash/hang
                               detection and auto-resume from the rotation (with
                               --dist too: the child runs distributed)
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

/// A driver error as this CLI reports it. Weights that cannot load — a
/// `--predictor` file or the model a checkpoint embeds — are a *permanent*
/// error (exit 2, never retried by the supervisor), and they fail before
/// the first step, not mid-run.
fn run_error(e: DistError) -> String {
    match e {
        DistError::BadWeights { .. } => format!("permanent: {e}"),
        _ => e.to_string(),
    }
}

/// The one cursor every flag loop reads through: hands out flags, their
/// values, and parsed values, with each error naming the flag (after
/// `ctx`, the subcommand's error prefix).
struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    ctx: &'a str,
}

impl<'a> Flags<'a> {
    fn new(argv: &'a [String], ctx: &'a str) -> Flags<'a> {
        Flags {
            rest: argv.iter(),
            ctx,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| format!("{}{flag} needs a value", self.ctx))
    }

    fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|e| format!("{}{flag}: {e}", self.ctx))
    }

    /// A count that must not be zero (`--keep`, `--max-concurrent`).
    fn at_least_one(&mut self, flag: &str) -> Result<usize, String> {
        match self.parsed(flag)? {
            0 => Err(format!("{}{flag} must be at least 1", self.ctx)),
            n => Ok(n),
        }
    }

    /// Read one of the supervision flags `--supervised` and `serve` share
    /// into `policy`; any other flag is unknown.
    fn retry_flag(&mut self, flag: &str, policy: &mut RetryPolicy) -> Result<(), String> {
        match flag {
            "--max-retries" => policy.max_retries = self.parsed(flag)?,
            "--backoff-ms" => policy.backoff_base_ms = self.parsed(flag)?,
            "--heartbeat-timeout-ms" => policy.heartbeat_timeout_ms = self.parsed(flag)?,
            other => return Err(self.unknown(other)),
        }
        Ok(())
    }

    fn unknown(&self, flag: &str) -> String {
        format!("{}unknown flag `{flag}`", self.ctx)
    }
}

struct Args {
    /// The run's own flags: what a `--supervised` parent hands its child.
    run: RunFlags,
    out_dir: PathBuf,
    supervised: bool,
    /// `--max-retries`, `--backoff-ms`, `--heartbeat-timeout-ms`.
    retry: RetryPolicy,
}

impl Args {
    /// Create and return the run's artifact directory: `--run-dir` as
    /// given, else `<out-dir>/<run name>` — on every route.
    fn prepare_run_dir(&self, run_name: &str) -> Result<PathBuf, String> {
        let dir = self
            .run
            .run_dir
            .clone()
            .unwrap_or_else(|| self.out_dir.join(run_name));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        run: RunFlags::default(),
        out_dir: PathBuf::from("results"),
        supervised: false,
        retry: RetryPolicy::default(),
    };
    let mut flags = Flags::new(argv, "");
    while let Some(flag) = flags.next() {
        match flag {
            "--help" | "-h" => return Err(String::new()),
            "--out-dir" => args.out_dir = PathBuf::from(flags.value(flag)?),
            "--supervised" => args.supervised = true,
            other => {
                if !args.run.read(other, || flags.value(other))? {
                    flags.retry_flag(other, &mut args.retry)?;
                }
            }
        }
    }
    Ok(args)
}

/// Resolve `--resume`: a snapshot file, or a run directory whose rotation
/// (entries named `<base>-<step>`) supplies the newest intact checkpoint.
fn load_resume(path: &Path, base: &str, keep: usize) -> Result<(SimSnapshot, PathBuf), String> {
    if path.is_dir() {
        let store = CkptStore::with_base(path, base, keep);
        let (entry, snap) = store.latest_valid_sim().ok_or_else(|| {
            format!(
                "--resume {}: no intact {base} in the rotation",
                path.display()
            )
        })?;
        Ok((snap, store.entry_path(&entry)))
    } else {
        let snap = SimSnapshot::load(path).map_err(|e| format!("--resume {path:?}: {e}"))?;
        Ok((snap, path.to_path_buf()))
    }
}

/// A run as either driver takes it.
struct Run {
    /// Names the run directory under `--out-dir`.
    name: String,
    /// The scenario's or the checkpoint's config, flag overrides applied.
    config: SimConfig,
    predictor: PredictorKind,
    steps: usize,
    start: Start,
}

/// The registered scenario `name`. An unknown name is a usage error
/// (exit 2, never retried), on every route.
fn find_scenario(name: &str) -> Result<&'static scenarios::Scenario, String> {
    scenarios::lookup(name).map_err(|e| format!("usage: {e}"))
}

/// Resolve the run — a snapshot restore or a fresh scenario build — by
/// one rule on both routes (`base` names the route's rotation).
fn resolve_run(args: &RunFlags, base: &str) -> Result<Run, String> {
    let flag_predictor = || match &args.predictor {
        Some(spec) => spec.resolve(args.seed).map_err(run_error),
        None => Ok(PredictorKind::SedovOverlay),
    };
    let (name, mut config, predictor, default_steps, start) = match (&args.resume, &args.scenario) {
        (Some(path), scenario) => {
            let (snap, resolved) = load_resume(path, base, args.keep)?;
            println!(
                "resumed from {} (step {}, t = {:.4} Myr, {} particles in {} slab(s), \
                 {} regions in flight)",
                resolved.display(),
                snap.step_count,
                snap.time,
                snap.slabs.iter().map(|s| s.particles.len()).sum::<usize>(),
                snap.slabs.len(),
                snap.pending_regions()
            );
            // A model embedded in the snapshot is authoritative — it is
            // what the bitwise resume contract demands. Only a model-less
            // snapshot accepts `--predictor` (the supervisor forwards the
            // flag to resumed attempts, so it must not conflict here).
            let predictor = match &snap.model {
                Some(model) => PredictorKind::UNet(model.clone()),
                None => flag_predictor()?,
            };
            // When the scenario is named alongside --resume, honour its
            // registered default step count; otherwise fall back to 10.
            let name = scenario.clone().unwrap_or_else(|| "resumed".to_string());
            let default_steps = scenarios::find(&name).map_or(10, |s| s.default_steps);
            let config = snap.config;
            let start = Start::Resumed(Box::new(snap));
            (name, config, predictor, default_steps, start)
        }
        (None, Some(name)) => {
            let scenario = find_scenario(name)?;
            let (cfg, particles) = scenario.build(args.seed);
            println!(
                "scenario {} ({} particles): {}",
                scenario.name,
                particles.len(),
                scenario.description
            );
            let name = scenario.name.to_string();
            let start = Start::Fresh(particles);
            (name, cfg, flag_predictor()?, scenario.default_steps, start)
        }
        (None, None) => {
            return Err("usage: either --scenario <name> or --resume <snapshot> is required".into())
        }
    };
    // Flag overrides on top of the scenario/snapshot config.
    if let Some(s) = args.scheme {
        config.scheme = s;
    }
    if let Some(t) = args.timestep {
        config.timestep = t;
    }
    if let Some(k) = args.snapshot_every {
        config.snapshot_every = k;
    }
    Ok(Run {
        name,
        config,
        predictor,
        steps: args.steps.map_or(default_steps, |n| n as usize),
        start,
    })
}

/// A run on either route: the heartbeat beats after every step, ahead of
/// the per-step tail both drivers end in, [`CkptStore::after_step`] — in
/// [`Simulation::run_with_store`], or main rank 0's hook under `--dist`.
fn run_scenario(args: &Args) -> Result<(), String> {
    // A malformed fault plan is a usage error (exit 2, never retried) so a
    // typo'd ASURA_FAULTS can't silently run fault-free.
    let mut injector = FaultInjector::from_env().map_err(|e| format!("usage: {e}"))?;
    let base = ckpt_base(args.run.dist);
    let run = resolve_run(&args.run, base)?;
    let ranks = args
        .run
        .dist
        .map_or(String::new(), |d| format!(" on {d} ranks"));
    println!(
        "integrating {} steps{ranks} (dt = {} Myr, scheme {:?}, timestep {:?}, snapshot every {})",
        run.steps,
        run.config.dt_global,
        run.config.scheme,
        run.config.timestep,
        run.config.snapshot_every
    );
    let dir = args.prepare_run_dir(&run.name)?;
    let store = CkptStore::with_base(&dir, base, args.run.keep);
    let ckpt_error = |e: std::io::Error| format!("writing checkpoint under {}: {e}", dir.display());
    // A fresh run starts an empty rotation: entries an earlier run left in
    // the directory would be pruned against this run's, and a later
    // `--resume <dir>` would continue whichever run is newest.
    if let Start::Fresh(_) = run.start {
        store.clear().map_err(ckpt_error)?;
    }
    let mut hb = args.run.heartbeat.as_ref().map(Heartbeat::new);
    let mut hb_io: Option<std::io::Error> = None;
    // A heartbeat write error stops the beats and fails the run at its end.
    let mut beat = |step: u64| {
        hb_io = hb_io.take().or_else(|| hb.as_mut()?.beat(step).err());
    };
    match args.run.dist {
        Some(spec) => run_dist(run, spec, &store, |step, snap| {
            beat(step);
            let committed = store.after_step(step, snap, &mut injector);
            if let Some(path) = committed.map_err(ckpt_error)? {
                println!("[checkpoint] {}", path.display());
            }
            Ok(())
        }),
        None => run_shared(args, run, &store, &mut injector, beat, ckpt_error),
    }?;
    hb_io.map_or(Ok(()), |e| Err(format!("writing heartbeat: {e}")))
}

/// The shared-memory route: [`Simulation::run_with_store`], sampling
/// diagnostics after every step — and a final checkpoint unless the
/// cadence committed the last step.
fn run_shared(
    args: &Args,
    run: Run,
    store: &CkptStore,
    injector: &mut FaultInjector,
    mut beat: impl FnMut(u64),
    ckpt_error: impl Fn(std::io::Error) -> String,
) -> Result<(), String> {
    let predictor = run
        .predictor
        .build(run.config.region_side)
        .map_err(run_error)?;
    let mut sim = match run.start {
        Start::Fresh(particles) => {
            Simulation::with_predictor(run.config, particles, run.config.seed, predictor)
        }
        Start::Resumed(snap) => {
            Simulation::restore_with_predictor(&snap, predictor).map_err(run_error)?
        }
    };
    sim.config = run.config;
    // Embed the weights so every checkpoint carries the model and
    // `--resume` rebuilds it without the file.
    sim.model = run.predictor.model().cloned();
    let map_half = scenarios::find(&run.name).map_or(100.0, |s| s.map_half);
    let mut series = TimeSeries::new(run.name.clone());
    let mut t_prev = sim.time;
    let diag_path = store.dir().join("diagnostics.json");
    // Under supervision (--heartbeat set) the series is also rewritten
    // atomically after every sample, so WATCHers of the serve daemon see
    // rows as they land instead of at run end. In-loop write errors are
    // tolerated (the final write below still reports them).
    let live_diag = args.run.heartbeat.is_some();
    sim.run_with_store(run.steps, store, CkptFormat::Bin, injector, |s| {
        beat(s.step_count);
        series.record(TimeSample::measure(s, t_prev, map_half));
        t_prev = s.time;
        if live_diag {
            let _ = atomic_write(&diag_path, series.to_json().as_bytes());
        }
    })
    .map_err(ckpt_error)?;
    // Always leave a final checkpoint (unless the cadence already
    // committed the last step) + the diagnostics series.
    let every = sim.config.snapshot_every;
    if run.steps == 0 || every == 0 || !sim.step_count.is_multiple_of(every) {
        store
            .commit_sim(&sim.snapshot(), injector)
            .map_err(|e| format!("writing final checkpoint: {e}"))?;
    }
    atomic_write(&diag_path, series.to_json().as_bytes())
        .map_err(|e| format!("write {}: {e}", diag_path.display()))?;

    println!(
        "done: t = {:.4} Myr after {} total steps | {} in flight",
        sim.time,
        sim.step_count,
        sim.pending_regions(),
    );
    println!("[stats] {}", sim.stats);
    // What the rotation holds, oldest first: pruned commits are gone.
    for entry in store.entries().iter().rev() {
        println!("[checkpoint] {}", store.entry_path(entry).display());
    }
    println!("[manifest] {}", store.manifest_path().display());
    println!(
        "[diagnostics] {} ({} samples)",
        diag_path.display(),
        series.len()
    );
    Ok(())
}

/// The `--dist` route: the same run through the mpisim driver, whose main
/// rank 0 runs `on_step`; `dist_report.json` at the end.
fn run_dist(
    run: Run,
    DistSpec { grid, n_pool }: DistSpec,
    store: &CkptStore,
    mut on_step: impl FnMut(u64, Option<&SimSnapshot>) -> Result<(), String> + Send,
) -> Result<(), String> {
    let cfg = DistConfig {
        grid,
        n_pool,
        routing: Routing::Flat,
        sim: run.config,
        steps: run.steps,
        predictor: run.predictor,
        snapshot_every: run.config.snapshot_every,
    };
    let mut snapshots = 0usize;
    let counted = |step, snap: Option<&SimSnapshot>| {
        snapshots += snap.is_some() as usize;
        on_step(step, snap)
    };
    let report = dist::run(&cfg, &run.start, counted).map_err(run_error)?;
    if snapshots > 0 {
        println!("[manifest] {}", store.manifest_path().display());
    }
    let stats = SimStats::combine(&report.rank_stats);
    let total_bytes: u64 = report.bytes_sent.iter().sum();
    let phases = report.phases.entries.iter().map(|e| {
        Json::obj([
            ("name", e.name.as_str().into()),
            // Microseconds, as this file has always resolved them.
            ("total_s", ((e.total_s * 1e6).round() / 1e6).into()),
        ])
    });
    let json = Json::obj([
        ("steps", report.steps.into()),
        ("stats", Json::obj(stats.fields())),
        ("final_particles", report.final_particles.into()),
        ("bytes_sent_total", total_bytes.into()),
        ("snapshots", snapshots.into()),
        ("phases", Json::Arr(phases.collect())),
    ])
    .render()
        + "\n";
    let report_path = store.dir().join("dist_report.json");
    atomic_write(&report_path, json.as_bytes())
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    println!(
        "dist done: {} steps | {} particles, {} snapshot(s)",
        report.steps, report.final_particles, snapshots,
    );
    println!("[stats] {stats}");
    println!("[report] {}", report_path.display());
    Ok(())
}

/// The child a `--supervised` parent launches into `dir`: its own flags,
/// to `--steps` or the scenario's default.
fn supervised_child(args: &Args, scenario: &scenarios::Scenario, dir: &Path) -> ChildRun {
    // ASURA_FAULTS is inherited from this process's environment untouched.
    let target_steps = args.run.steps.unwrap_or(scenario.default_steps as u64);
    ChildRun::new(args.run.clone(), dir, target_steps)
}

/// The `--supervised` parent: spawn the scenario as a heartbeat-monitored
/// child, auto-resume it from the checkpoint rotation on crash or hang,
/// and record every incident in `supervisor.json`.
fn run_supervised(args: &Args) -> Result<(), String> {
    let name = args
        .run
        .scenario
        .as_deref()
        .ok_or("usage: --supervised requires --scenario")?;
    if args.run.resume.is_some() {
        return Err(
            "usage: --supervised resumes automatically from the run directory's rotation; \
             drop --resume"
                .into(),
        );
    }
    let scenario = find_scenario(name)?;
    let dir = args.prepare_run_dir(scenario.name)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = supervised_child(args, scenario, &dir);
    println!(
        "supervising scenario {name}: target {} steps, rotation keep {}, \
         up to {} resume(s)",
        child.target_steps, args.run.keep, args.retry.max_retries
    );
    // A supervised run always starts fresh (it refuses `--resume`), and
    // every attempt starts from the rotation: empty it once, here, so
    // attempt 0 is fresh and a retry never resumes an earlier run's entry.
    child
        .store()
        .clear()
        .map_err(|e| format!("clearing the rotation under {}: {e}", dir.display()))?;
    let announce = |attempt, resume: Option<&ResumePoint>, _| match resume {
        Some(rp) => println!(
            "[supervisor] attempt {attempt}: resuming from step {} ({})",
            rp.step,
            rp.path.display()
        ),
        None => println!("[supervisor] attempt {attempt}: fresh start"),
    };
    let (outcome, log) = child
        .supervise(&exe, args.retry, announce, || None)
        .map_err(|e| format!("supervisor: {e}"))?;
    let log_path = dir.join(LOG_FILE);
    let log_path = log_path.display();
    println!(
        "[supervisor] {} incident(s), log {log_path}",
        log.incidents.len()
    );
    match outcome {
        Some(Outcome::Completed { attempts }) => {
            println!("[supervisor] run completed after {attempts} attempt(s)");
            Ok(())
        }
        Some(Outcome::GaveUp { attempts }) => Err(format!(
            "supervised run gave up after {attempts} attempt(s); see {log_path}"
        )),
        Some(Outcome::Permanent { exit_code }) => Err(format!(
            "supervised child failed permanently (exit {exit_code}); see {log_path}"
        )),
        // The stop hook above never asks to stop: only the serve daemon's
        // workers are canceled or detached.
        Some(Outcome::Canceled { .. }) | None => Err(format!(
            "supervised run stopped before it finished; see {log_path}"
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

/// The `asura inspect` subcommand: print a binary checkpoint's JSON
/// rendering to stdout. The one argument is the checkpoint file.
fn cmd_inspect(rest: &[String]) -> Result<(), String> {
    let [path] = rest else {
        return Err("usage: asura inspect <checkpoint.bin>".into());
    };
    let snap = SimSnapshot::load(Path::new(path)).map_err(|e| format!("inspect {path}: {e}"))?;
    println!("{}", snap.to_json());
    Ok(())
}

/// The `asura train-surrogate` subcommand: generate the conventional-run
/// dataset, train the U-Net, and write the weights + training manifest
/// (see [`asura::surrogate_train`]). The weights document is what
/// `--predictor unet:<weights.json>` deploys.
fn cmd_train_surrogate(rest: &[String]) -> Result<(), String> {
    let mut spec = TrainSpec::default();
    let mut out = PathBuf::from("results/train-surrogate/weights.json");
    let mut flags = Flags::new(rest, "usage: train-surrogate: ");
    while let Some(flag) = flags.next() {
        match flag {
            "--out" => out = PathBuf::from(flags.value(flag)?),
            "--samples" => spec.samples = flags.parsed(flag)?,
            "--epochs" => spec.epochs = flags.parsed(flag)?,
            "--grid" => spec.grid_n = flags.parsed(flag)?,
            "--base-features" => spec.base_features = flags.parsed(flag)?,
            "--lr" => spec.lr = flags.parsed(flag)?,
            "--seed" => spec.seed = flags.parsed(flag)?,
            other => return Err(flags.unknown(other)),
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
    #[expect(
        clippy::disallowed_methods,
        reason = "reports the training's wall time"
    )]
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
        retry: RetryPolicy::default(),
        keep: DEFAULT_KEEP,
    };
    let mut flags = Flags::new(rest, "serve: ");
    while let Some(flag) = flags.next() {
        match flag {
            "--root" => cfg.root = PathBuf::from(flags.value(flag)?),
            "--addr" => cfg.addr = flags.value(flag)?.to_string(),
            "--max-concurrent" => cfg.max_concurrent = flags.at_least_one(flag)?,
            "--keep" => cfg.keep = flags.at_least_one(flag)?,
            other => flags.retry_flag(other, &mut cfg.retry)?,
        }
    }
    serve::serve(cfg).map_err(|e| format!("serve: {e}"))
}

/// The client subcommands (`submit`/`status`/`list`/`watch`/`cancel`/
/// `shutdown`): one request line to the daemon, response lines streamed
/// to stdout as they arrive.
fn cmd_client(verb: &str, rest: &[String]) -> Result<(), String> {
    let mut root = PathBuf::from("results");
    let mut addr: Option<String> = None;
    let mut drain = false;
    let mut positional: Vec<&str> = Vec::new();
    let ctx = format!("{verb}: ");
    let mut flags = Flags::new(rest, &ctx);
    while let Some(arg) = flags.next() {
        match arg {
            "--root" => root = PathBuf::from(flags.value(arg)?),
            "--addr" => addr = Some(flags.value(arg)?.to_string()),
            "--drain" if verb == "shutdown" => drain = true,
            other if other.starts_with("--") => return Err(flags.unknown(other)),
            _ => positional.push(arg),
        }
    }
    let pos = |n: usize, what: &str| -> Result<String, String> {
        let arg = positional.get(n).map(|a| a.to_string());
        arg.ok_or_else(|| format!("usage: asura {verb} <{what}>"))
    };
    let id = || pos(0, "run-id");
    // Typo'd overrides JSON is caught here, before the request crosses
    // the wire; `render` sends the overrides in their canonical form.
    let request = match verb {
        "submit" => Request::Submit {
            scenario: pos(0, "scenario")?,
            overrides: match positional.get(1) {
                Some(text) => json::parse_json(text)
                    .and_then(|doc| RunOverrides::from_json(&doc))
                    .map_err(|e| format!("{verb}: {e}"))?,
                None => RunOverrides::default(),
            },
        },
        "status" => Request::Status { id: id()? },
        "list" => Request::List,
        "watch" => Request::Watch { id: id()? },
        "cancel" => Request::Cancel { id: id()? },
        "shutdown" => Request::Shutdown { drain },
        other => return Err(format!("unknown subcommand `{other}`")),
    };
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
    let replies = serve::send(&addr, &request.render()).map_err(|e| format!("{addr}: {e}"))?;
    let mut failed = false;
    for reply in replies.lines() {
        let reply = reply.map_err(|e| format!("read: {e}"))?;
        failed |= !serve::reply_ok(&reply);
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
        Some("inspect") => return cmd_inspect(&argv[1..]),
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

    if args.supervised {
        return run_supervised(&args);
    }
    run_scenario(&args)
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

#[cfg(test)]
mod tests {
    use super::{find_scenario, parse_args, supervised_child};
    use asura::serve::{ChildRun, RunEntry, RunOverrides, RunState};
    use asura_core::supervise::ResumePoint;
    use asura_core::{Scheme, TimestepMode};
    use std::path::Path;
    use std::process::Command;

    /// One attempt's argv and the `ASURA_FAULTS` it sets, as strings.
    fn spelled(cmd: &Command) -> (String, Option<String>) {
        let argv: Vec<_> = cmd.get_args().map(|a| a.to_string_lossy()).collect();
        let faults = cmd
            .get_envs()
            .find(|(key, _)| *key == "ASURA_FAULTS")
            .and_then(|(_, value)| Some(value?.to_string_lossy().into_owned()));
        (argv.join(" "), faults)
    }

    /// The command line every launcher hands a run child, recorded before
    /// the child's flags had one owner: a fleet run with every override
    /// set, the same run resumed, and `--supervised` with every flag set.
    #[test]
    fn child_command_lines_are_pinned() {
        let exe = Path::new("asura");
        let entry = RunEntry {
            id: "r0002-spiked_dt".into(),
            scenario: "spiked_dt".into(),
            state: RunState::Running,
            target_steps: 3,
            child_pid: None,
            overrides: RunOverrides {
                steps: Some(3),
                seed: Some(7),
                scheme: Some(Scheme::Conventional),
                timestep: Some(TimestepMode::Block { max_level: 6 }),
                snapshot_every: Some(2),
                faults: Some("kill@3#0".into()),
            },
        };
        let dir = Path::new("/runs/r0002-spiked_dt");
        let heartbeat = dir.join("heartbeat");
        let fleet = ChildRun::fleet(&entry, dir, 4);
        assert_eq!(
            spelled(&fleet.command(exe, &heartbeat, None)),
            (
                "--scenario spiked_dt --steps 3 --scheme conventional --timestep block:6 \
                 --snapshot-every 2 --seed 7 --run-dir /runs/r0002-spiked_dt --keep 4 \
                 --heartbeat /runs/r0002-spiked_dt/heartbeat"
                    .into(),
                Some("kill@3#0".into())
            )
        );
        let resume = ResumePoint {
            step: 2,
            path: dir.join("checkpoint-000002.bin"),
        };
        assert_eq!(
            spelled(&fleet.command(exe, &heartbeat, Some(&resume))),
            (
                "--scenario spiked_dt --steps 1 --resume /runs/r0002-spiked_dt/checkpoint-000002.bin \
                 --scheme conventional --timestep block:6 --snapshot-every 2 --seed 7 \
                 --run-dir /runs/r0002-spiked_dt --keep 4 --heartbeat /runs/r0002-spiked_dt/heartbeat"
                    .into(),
                Some("kill@3#0".into())
            )
        );

        let argv = "--scenario spiked_dt --steps 5 --scheme surrogate --timestep block:4 \
                    --snapshot-every 3 --seed 9 --predictor unet:w.json --dist 2x1x1+1 \
                    --out-dir out --run-dir /runs/sup --keep 2 --supervised --max-retries 1 \
                    --backoff-ms 10 --heartbeat-timeout-ms 100 --heartbeat /elsewhere/hb";
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let args = parse_args(&argv).expect("every flag parses");
        let scenario = find_scenario("spiked_dt").expect("registered");
        let supervised = supervised_child(&args, scenario, Path::new("/runs/sup"));
        let heartbeat = Path::new("/runs/sup/heartbeat");
        assert_eq!(
            spelled(&supervised.command(exe, heartbeat, None)),
            (
                "--scenario spiked_dt --steps 5 --scheme surrogate --timestep block:4 \
                 --snapshot-every 3 --seed 9 --predictor unet:w.json --dist 2x1x1+1 \
                 --run-dir /runs/sup --keep 2 --heartbeat /runs/sup/heartbeat"
                    .into(),
                None
            )
        );
    }
}
