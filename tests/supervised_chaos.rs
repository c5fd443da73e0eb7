//! Chaos tests of the supervised runner: inject deterministic faults
//! (kill-at-step, torn checkpoint writes, stalled heartbeats) into real
//! `asura` child processes and assert the supervisor auto-resumes from the
//! newest valid rotation entry, finishes at the same absolute step, and
//! produces a final checkpoint **bitwise identical** to an uninterrupted
//! run — in both Block and Global timestep modes.

#![expect(
    clippy::disallowed_methods,
    reason = "damage injection writes torn bytes on purpose"
)]

use asura_core::ckpt::CkptStore;
use asura_core::faults::FAULT_KILL_EXIT;
use asura_core::snapshot::SimSnapshot;
use asura_core::supervise::{Heartbeat, IncidentKind, IncidentLog, Outcome};
use asura_core::{SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_asura");
const STEPS: u64 = 6;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "asura-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// All artifacts land in `<out-dir>/<scenario>/`.
fn run_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("spiked_dt")
}

fn base_cmd(out_dir: &Path, timestep: Option<&str>) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(["--scenario", "spiked_dt"])
        .args(["--steps", &STEPS.to_string()])
        .args(["--snapshot-every", "2"])
        .args(["--seed", "123"])
        .arg("--out-dir")
        .arg(out_dir)
        // Never inherit a fault plan from the test runner's environment.
        .env_remove(asura_core::faults::FAULTS_ENV)
        .env_remove(asura_core::faults::ATTEMPT_ENV);
    if let Some(mode) = timestep {
        cmd.args(["--timestep", mode]);
    }
    cmd
}

/// Fault-free reference run; returns the bytes of its final checkpoint.
fn baseline(tag: &str, timestep: Option<&str>) -> Vec<u8> {
    let dir = tmpdir(tag);
    let status = base_cmd(&dir, timestep).status().unwrap();
    assert!(status.success(), "baseline run failed");
    fs::read(run_dir(&dir).join(format!("checkpoint-{STEPS:06}.bin"))).unwrap()
}

fn supervised_cmd(out_dir: &Path, timestep: Option<&str>, faults: &str) -> Command {
    let mut cmd = base_cmd(out_dir, timestep);
    cmd.arg("--supervised")
        .args(["--backoff-ms", "10"])
        .env(asura_core::faults::FAULTS_ENV, faults);
    cmd
}

fn read_log(out_dir: &Path) -> IncidentLog {
    let text = fs::read_to_string(run_dir(out_dir).join("supervisor.json")).unwrap();
    IncidentLog::from_json(&text).unwrap()
}

#[test]
fn kill_at_seeded_random_step_resumes_bitwise_identical() {
    // Both timestep modes, a handful of seeded kill steps each. Killing
    // happens after the step but before that step's cadence commit, so the
    // attempt always loses its newest progress — the most adversarial
    // resume point.
    for (mode_tag, timestep) in [("block", None), ("global", Some("global"))] {
        let reference = baseline(&format!("base-{mode_tag}"), timestep);
        let mut rng = StdRng::seed_from_u64(0xC4A0 + mode_tag.len() as u64);
        for case in 0..3u32 {
            let kill_step = rng.gen_range(1..STEPS + 1);
            let dir = tmpdir(&format!("kill-{mode_tag}-{case}"));
            let status = supervised_cmd(&dir, timestep, &format!("kill@{kill_step}#0"))
                .status()
                .unwrap();
            assert!(
                status.success(),
                "{mode_tag} kill@{kill_step}: supervised run should complete"
            );

            let log = read_log(&dir);
            assert_eq!(log.outcome, Some(Outcome::Completed { attempts: 2 }));
            assert_eq!(
                log.incidents.len(),
                1,
                "{mode_tag} kill@{kill_step}: exactly the injected incident"
            );
            let inc = &log.incidents[0];
            assert_eq!(inc.attempt, 0);
            assert_eq!(
                inc.kind,
                IncidentKind::Crash {
                    exit_code: FAULT_KILL_EXIT
                }
            );
            // Checkpoints land at even steps; the kill fires before the
            // same-step commit, so the resume point is the last even step
            // strictly below the kill step (none before step 2).
            let expect_resume = ((kill_step - 1) / 2 * 2 != 0).then(|| (kill_step - 1) / 2 * 2);
            assert_eq!(
                inc.resumed_from_step, expect_resume,
                "{mode_tag} kill@{kill_step}: wrong resume point"
            );

            let final_bytes =
                fs::read(run_dir(&dir).join(format!("checkpoint-{STEPS:06}.bin"))).unwrap();
            assert_eq!(
                final_bytes, reference,
                "{mode_tag} kill@{kill_step}: final checkpoint differs from uninterrupted run"
            );
        }
    }
}

#[test]
fn torn_checkpoint_plus_kill_falls_back_past_the_torn_entry() {
    // Commit 2 (step 4) is torn mid-write; the kill at step 5 then forces
    // a resume, which must skip the damaged step-4 entry and restart from
    // step 2 — and still converge to the reference final state.
    let reference = baseline("base-torn", None);
    let dir = tmpdir("torn-kill");
    let status = supervised_cmd(&dir, None, "torn@2:64#0,kill@5#0")
        .status()
        .unwrap();
    assert!(status.success());

    let log = read_log(&dir);
    assert_eq!(log.outcome, Some(Outcome::Completed { attempts: 2 }));
    assert_eq!(log.incidents.len(), 1);
    assert_eq!(
        log.incidents[0].resumed_from_step,
        Some(2),
        "resume must fall back past the torn step-4 checkpoint"
    );

    let final_bytes = fs::read(run_dir(&dir).join(format!("checkpoint-{STEPS:06}.bin"))).unwrap();
    assert_eq!(final_bytes, reference);
}

/// A supervised run into the directory of an earlier run of the same
/// scenario: attempt 0 starts fresh and so empties the rotation, and the
/// retry after a kill ahead of the first commit starts fresh as well,
/// instead of resuming the earlier run's newest checkpoint.
#[test]
fn a_retry_never_resumes_an_earlier_runs_checkpoint() {
    let supervised = |out_dir: &Path, seed: &str| {
        let mut cmd = Command::new(BIN);
        cmd.args(["--scenario", "spiked_dt", "--supervised", "--seed", seed])
            .args(["--steps", &STEPS.to_string(), "--backoff-ms", "10"])
            .arg("--out-dir")
            .arg(out_dir)
            .env_remove(asura_core::faults::FAULTS_ENV)
            .env_remove(asura_core::faults::ATTEMPT_ENV);
        cmd
    };
    let reference = tmpdir("earlier-run-reference");
    assert!(supervised(&reference, "2").status().unwrap().success());
    let dir = tmpdir("earlier-run");
    assert!(supervised(&dir, "1").status().unwrap().success());
    let status = supervised(&dir, "2")
        .env(asura_core::faults::FAULTS_ENV, "kill@1#0")
        .status()
        .unwrap();
    assert!(status.success());

    let log = read_log(&dir);
    assert_eq!(log.outcome, Some(Outcome::Completed { attempts: 2 }));
    assert_eq!(log.incidents.len(), 1);
    assert_eq!(log.incidents[0].resumed_from_step, None, "a fresh retry");
    let last = |out_dir: &Path| {
        fs::read(run_dir(out_dir).join(format!("checkpoint-{STEPS:06}.bin"))).unwrap()
    };
    assert_eq!(last(&dir), last(&reference));
}

#[test]
fn stalled_heartbeat_is_detected_killed_and_resumed() {
    let reference = baseline("base-stall", None);
    let dir = tmpdir("stall");
    let mut cmd = supervised_cmd(&dir, None, "stall@3#0");
    // The resumed attempt must produce its *first* beat within the
    // timeout; with the suite's tests running 4-wide on a loaded single
    // core (debug codegen), startup alone has been observed to exceed
    // 1500 ms, flagging a healthy child as hung.
    cmd.args(["--heartbeat-timeout-ms", "4000"]);
    let status = cmd.status().unwrap();
    assert!(status.success(), "supervised run should survive the hang");

    let log = read_log(&dir);
    assert_eq!(log.outcome, Some(Outcome::Completed { attempts: 2 }));
    assert_eq!(log.incidents.len(), 1);
    match log.incidents[0].kind {
        IncidentKind::Hang { stale_ms } => {
            assert!(stale_ms >= 4000, "stale for at least the timeout")
        }
        other => panic!("expected a hang incident, got {other:?}"),
    }
    assert_eq!(log.incidents[0].resumed_from_step, Some(2));

    let final_bytes = fs::read(run_dir(&dir).join(format!("checkpoint-{STEPS:06}.bin"))).unwrap();
    assert_eq!(final_bytes, reference);
}

#[test]
fn unrecoverable_fault_budget_exhaustion_gives_up() {
    // Kill on every attempt the budget allows: the supervisor must stop
    // after max-retries, leave a gave_up outcome, and exit non-zero.
    let dir = tmpdir("giveup");
    let mut cmd = supervised_cmd(&dir, None, "kill@2#0,kill@2#1,kill@2#2");
    cmd.args(["--max-retries", "2"]);
    let status = cmd.status().unwrap();
    assert!(!status.success(), "exhausted retries must exit non-zero");

    let log = read_log(&dir);
    assert_eq!(log.outcome, Some(Outcome::GaveUp { attempts: 3 }));
    assert_eq!(log.incidents.len(), 3);
    assert!(log.incidents.iter().all(|i| i.kind
        == IncidentKind::Crash {
            exit_code: FAULT_KILL_EXIT
        }));
}

/// An unknown `--scenario` is a usage error — exit 2, which the
/// supervisor and the fleet never retry — on the direct route and under
/// `--supervised` alike: stderr names the registered scenarios, and no
/// run directory is created.
#[test]
fn an_unknown_scenario_is_a_usage_error_on_both_routes() {
    for (route, extra) in [("direct", &[][..]), ("supervised", &["--supervised"][..])] {
        let out = tmpdir(&format!("unknown-scenario-{route}"));
        let output = Command::new(BIN)
            .args(["--scenario", "nosuch", "--steps", "1"])
            .args(extra)
            .arg("--out-dir")
            .arg(&out)
            .env_remove(asura_core::faults::FAULTS_ENV)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{route}: {stderr}");
        assert!(
            stderr.contains("unknown scenario `nosuch`"),
            "{route}: {stderr}"
        );
        for scenario in asura::scenarios::SCENARIOS {
            assert!(stderr.contains(scenario.name), "{route}: {stderr}");
        }
        let created: Vec<_> = fs::read_dir(&out).unwrap().collect();
        assert!(created.is_empty(), "{route}: created {created:?}");
    }
}

/// `--dist` used to write to `<out-dir>/<scenario>` whatever `--run-dir`
/// said, and — its steps running inside `run_distributed`, with no hook to
/// fire them from — to drop `kill@N` / `stall@N` and `--heartbeat`, later
/// to refuse them. Main rank 0 now runs the shared-memory loop's per-step
/// tail: the heartbeat beats, a step fault fires, a checkpoint reaches
/// disk as the run steps.
#[test]
fn dist_honours_run_dir_and_fires_step_faults_as_it_steps() {
    let out = tmpdir("dist-run-dir");
    let exact = out.join("exactly-here");
    let dist_cmd = || {
        let mut cmd = base_cmd(&out, None);
        cmd.args(["--dist", "1x1x1+1"]).arg("--run-dir").arg(&exact);
        cmd
    };
    let heartbeat = out.join("heartbeat");
    let status = dist_cmd()
        .arg("--heartbeat")
        .arg(&heartbeat)
        .status()
        .unwrap();
    assert!(status.success(), "--dist --run-dir run failed");
    for file in [
        format!("dist_checkpoint-{STEPS:06}.bin"),
        "dist_checkpoint.manifest.json".to_string(),
        "dist_report.json".to_string(),
    ] {
        assert!(exact.join(&file).is_file(), "{file} belongs in --run-dir");
    }
    assert!(
        !run_dir(&out).exists(),
        "nothing under <out-dir>/<scenario>"
    );
    let report = fs::read_to_string(exact.join("dist_report.json")).unwrap();
    // The call's steps, then the run's counters, `steps` first.
    let head = format!("{{\"steps\":{STEPS},\"stats\":{{\"steps\":{STEPS},\"sn_events\":");
    assert!(report.starts_with(&head), "{report}");
    let stats = json::parse_json(&report).and_then(|r| r.get("stats").cloned());
    let rebuilds = stats.and_then(|s| s.get("tree_rebuilds")?.as_u64());
    assert!(rebuilds.is_ok_and(|n| n > 0), "{report}");
    assert!(!report.contains("\"error\""));
    assert!(report.contains(",\"phases\":[{\"name\":\""));
    // The heartbeat was beaten after every step; it reads the last one.
    assert_eq!(
        Heartbeat::read(&heartbeat).map(|(_, step)| step),
        Some(STEPS)
    );

    // kill@5 fires after step 5, before anything else: the step-4
    // checkpoint is on disk and intact, the step-6 one never happens.
    let killed = out.join("killed");
    let output = base_cmd(&out, None)
        .args(["--dist", "1x1x1+1"])
        .arg("--run-dir")
        .arg(&killed)
        .env(asura_core::faults::FAULTS_ENV, "kill@5")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(FAULT_KILL_EXIT), "kill@5");
    assert!(killed.join("dist_checkpoint-000004.bin").is_file());
    let store = CkptStore::with_base(&killed, "dist_checkpoint", 3);
    let (entry, snap) = store.latest_valid_sim().expect("an intact checkpoint");
    assert_eq!((entry.step, snap.step_count), (4, 4));
    assert!(!killed.join("dist_report.json").exists());

    // A write fault stays legal (and the torn first commit is what the
    // rotation then skips) …
    let output = dist_cmd()
        .env(asura_core::faults::FAULTS_ENV, "torn@1:8")
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "write faults still apply to --dist"
    );
    // … as is a step fault armed for another attempt than this one.
    let output = dist_cmd()
        .env(asura_core::faults::FAULTS_ENV, "kill@3#1")
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "a fault for attempt 1 is not armed"
    );
}

/// A checkpoint commit that fails stops `--dist` at that step, with the
/// shared-memory route's message — it used to run all its steps first.
#[test]
fn a_failed_commit_stops_dist_where_it_stops_the_shared_memory_run() {
    let out = tmpdir("io-fault");
    for (route, dist) in [("shared", None), ("dist", Some("2x1x1+1"))] {
        let dir = out.join(route);
        let heartbeat = out.join(format!("{route}.heartbeat"));
        let mut cmd = base_cmd(&out, None);
        cmd.args(dist.map(|grid| ["--dist", grid]).into_iter().flatten())
            .arg("--run-dir")
            .arg(&dir)
            .arg("--heartbeat")
            .arg(&heartbeat)
            .env(asura_core::faults::FAULTS_ENV, "io@1");
        let output = cmd.output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{route}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let why = format!(
            "error: writing checkpoint under {}: injected I/O fault\n",
            dir.display()
        );
        assert!(stderr.ends_with(&why), "{route}: {stderr}");
        assert_eq!(
            Heartbeat::read(&heartbeat).map(|(_, step)| step),
            Some(2),
            "{route}: the run stopped at the first cadence step"
        );
        assert!(!dir.join("dist_report.json").exists(), "{route}");
    }
}

/// Undisturbed `--dist 2x1x1+1` reference; returns its final checkpoint.
fn dist_baseline(tag: &str) -> Vec<u8> {
    let dir = tmpdir(tag);
    let status = base_cmd(&dir, None)
        .args(["--dist", "2x1x1+1"])
        .status()
        .unwrap();
    assert!(status.success(), "distributed baseline run failed");
    fs::read(run_dir(&dir).join(format!("dist_checkpoint-{STEPS:06}.bin"))).unwrap()
}

/// The supervised child forwards `--dist` and resumes from the
/// `dist_checkpoint` rotation: a kill, a hang, and a torn checkpoint plus
/// a kill each converge to the undisturbed distributed run's final
/// checkpoint, byte for byte.
#[test]
fn supervised_dist_runs_recover_bitwise() {
    let reference = dist_baseline("base-dist");
    for (tag, faults, hang) in [
        ("dist-kill", "kill@3#0", false),
        ("dist-stall", "stall@3#0", true),
        ("dist-torn-kill", "torn@2:64#0,kill@5#0", false),
    ] {
        let dir = tmpdir(tag);
        let mut cmd = supervised_cmd(&dir, None, faults);
        cmd.args(["--dist", "2x1x1+1", "--heartbeat-timeout-ms", "4000"]);
        assert!(cmd.status().unwrap().success(), "{faults}");

        let log = read_log(&dir);
        assert_eq!(
            log.outcome,
            Some(Outcome::Completed { attempts: 2 }),
            "{faults}"
        );
        assert_eq!(log.incidents.len(), 1, "{faults}");
        let incident = &log.incidents[0];
        assert_eq!(
            matches!(incident.kind, IncidentKind::Hang { .. }),
            hang,
            "{faults}"
        );
        // Step 4 is either never written (kill@3, stall@3) or torn.
        assert_eq!(incident.resumed_from_step, Some(2), "{faults}");
        let final_bytes =
            fs::read(run_dir(&dir).join(format!("dist_checkpoint-{STEPS:06}.bin"))).unwrap();
        assert_eq!(final_bytes, reference, "{faults}: final checkpoint");
    }
}

/// The supervisor forwards `--seed` to every attempt, resumed ones
/// included, and the serve daemon does the same from a run's overrides; a
/// resume must nonetheless draw its stars from the checkpoint's seed. A
/// `dwarf_galaxy` run resumed at step 2 under another `--seed` lands
/// bitwise on the uninterrupted run — with stars formed after the resume
/// point — on both routes.
#[test]
fn a_resume_under_another_seed_keeps_the_checkpoints_seed() {
    let out = tmpdir("seed-resume");
    for (route, dist, base) in [
        ("shared", None, "checkpoint"),
        ("dist", Some("1x1x1+1"), "dist_checkpoint"),
    ] {
        let run = |dir: &str, steps: &str, seed: &str, resume: bool| {
            let dir = out.join(route).join(dir);
            let mut cmd = Command::new(BIN);
            cmd.args(["--scenario", "dwarf_galaxy", "--steps", steps])
                .args(["--snapshot-every", "2", "--seed", seed])
                .args(dist.map(|grid| ["--dist", grid]).into_iter().flatten())
                .arg("--run-dir")
                .arg(&dir)
                .env_remove(asura_core::faults::FAULTS_ENV);
            if resume {
                cmd.arg("--resume").arg(&dir);
            }
            assert!(cmd.status().unwrap().success(), "{route} {dir:?}");
            dir
        };
        let at = |dir: &Path, step: u64| fs::read(dir.join(format!("{base}-{step:06}.bin")));
        let full = run("full", "6", "5", false);
        let part = run("part", "2", "5", false);
        let at_resume = at(&part, 2).unwrap();
        run("part", "4", "99", true);
        let resumed = at(&part, 6).unwrap();
        assert_eq!(
            resumed,
            at(&full, 6).unwrap(),
            "{route}: resumed under --seed 99"
        );

        let stars = |bytes: &[u8]| {
            let snap = SimSnapshot::from_bytes(bytes).unwrap();
            assert_eq!(snap.config.seed, 5, "{route}");
            snap.slabs.iter().map(|s| s.stats.stars_formed).sum::<u64>()
        };
        assert!(
            stars(&resumed) > stars(&at_resume),
            "{route}: no star formed after the resume point"
        );
    }
}

/// A checkpoint keeps the gravity kernel and group size it was written
/// with: `--resume` takes the snapshot's config, not the named scenario's.
/// `dwarf_galaxy` runs the mixed-precision kernel at `n_group` 256, but a
/// checkpoint an f64 run at 64 wrote — as every run in flight before the
/// scenario switched did, and supervised retries and fleet adoption
/// resume such runs — goes on in f64 at 64 and lands on the library's
/// uninterrupted run with those settings, byte for byte.
#[test]
fn a_resume_keeps_the_checkpoints_gravity_kernel() {
    const K: usize = 2;
    const M: usize = 2;
    let dir = tmpdir("kernel-resume");
    let (cfg, particles) = asura::scenarios::find("dwarf_galaxy").unwrap().build(42);
    assert!(cfg.mixed_precision, "dwarf_galaxy runs the mixed kernel");
    assert_eq!(cfg.n_group, 256, "dwarf_galaxy runs 256-target groups");
    let cfg = SimConfig {
        mixed_precision: false,
        n_group: 64,
        ..cfg
    };
    let mut sim = Simulation::new(cfg, particles, cfg.seed);
    sim.run(K);
    let start = dir.join("f64.bin");
    fs::write(&start, sim.snapshot().to_bytes()).unwrap();
    sim.run(M);
    let uninterrupted = sim.snapshot().to_bytes();

    let run_dir = dir.join("resumed");
    let status = Command::new(BIN)
        .arg("--resume")
        .arg(&start)
        .args(["--scenario", "dwarf_galaxy", "--steps", &M.to_string()])
        .arg("--run-dir")
        .arg(&run_dir)
        .env_remove(asura_core::faults::FAULTS_ENV)
        .status()
        .unwrap();
    assert!(status.success(), "resume failed");
    let last = run_dir.join(format!("checkpoint-{:06}.bin", K + M));
    assert!(
        fs::read(&last).unwrap() == uninterrupted,
        "the resumed run left the f64, n_group 64 trajectory"
    );
    let inspect = Command::new(BIN)
        .arg("inspect")
        .arg(&last)
        .output()
        .unwrap();
    assert!(inspect.status.success(), "inspect failed");
    let json = String::from_utf8(inspect.stdout).unwrap();
    assert!(json.contains(r#""mixed_precision":false"#), "{json}");
    assert!(json.contains(r#""n_group":64"#), "{json}");
}
