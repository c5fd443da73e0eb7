//! Property tests of the atomic rotated checkpoint store's recovery
//! contract: damage a committed checkpoint at a **seeded random byte**
//! (truncation or corruption) and `latest_valid()` must fall back to the
//! previous rotation entry — for a one-slab [`SimSnapshot`] and a
//! several-slab one under the distributed driver's base name. Damage is
//! detected by two independent layers: the manifest's intended
//! length/FNV-1a checksum, and the binary codec's own magic/version/checksum
//! validation (which is all that's left when the manifest itself is lost).
//!
//! A checkpoint has one encoding on disk. A JSON rendering — `asura
//! inspect`'s output, or a `.json` rotation entry an older build wrote — is
//! never read back: the rotation skips it and `--resume` refuses it.

use asura::scenarios;
use asura_core::ckpt::{CkptEntry, CkptFormat, CkptStore, MANIFEST_FORMAT, MANIFEST_VERSION};
use asura_core::faults::FaultInjector;
use asura_core::snapshot::{SimSnapshot, SlabRecord, SnapshotError};
use asura_core::Simulation;
use json::{fnv1a, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "asura-ckpt-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two consecutive real checkpoints of the spiked_dt scenario (small and
/// fast, block timesteps, so the snapshot carries a schedule).
fn sim_snapshots(seed: u64) -> (SimSnapshot, SimSnapshot) {
    let scenario = scenarios::find("spiked_dt").unwrap();
    let (cfg, particles) = scenario.build(seed);
    let mut sim = Simulation::new(cfg, particles, seed);
    sim.run(1);
    let first = sim.snapshot();
    sim.run(1);
    (first, sim.snapshot())
}

/// The same pair as a distributed run would have gathered it: the slab
/// dealt out over two ranks.
fn several_slab_snapshots(seed: u64) -> (SimSnapshot, SimSnapshot) {
    let (a, b) = sim_snapshots(seed);
    let split = |mut s: SimSnapshot| {
        let slab = s.slabs.remove(0);
        let mid = slab.particles.len() / 2;
        let levels = |range: std::ops::Range<usize>| {
            let mut sched = slab.schedule.clone();
            if let Some(sched) = &mut sched {
                sched.levels = sched.levels[range].to_vec();
            }
            sched
        };
        s.slabs = vec![
            SlabRecord {
                particles: slab.particles[..mid].to_vec(),
                schedule: levels(0..mid),
                ..slab.clone()
            },
            SlabRecord {
                particles: slab.particles[mid..].to_vec(),
                last_vsig: Vec::new(),
                schedule: levels(mid..slab.particles.len()),
                ..slab.clone()
            },
        ];
        s
    };
    (split(a), split(b))
}

/// What an older build could leave in a run directory: `snap`'s JSON
/// rendering as the rotation entry `<base>-<step:06>.json`, listed with its
/// true length and checksum in a manifest that passes its own check.
fn commit_parent_json(st: &CkptStore, base: &str, snap: &SimSnapshot) {
    let text = snap.to_json();
    let file = format!("{base}-{:06}.json", snap.step_count);
    fs::write(st.dir().join(&file), &text).unwrap();
    let mut entries = st.entries();
    entries.reverse();
    entries.push(CkptEntry {
        file,
        step: snap.step_count,
        len: text.len() as u64,
        checksum: fnv1a(text.as_bytes()),
    });
    let entry = |e: &CkptEntry| {
        Json::obj([
            ("file", e.file.as_str().into()),
            ("step", e.step.into()),
            ("len", e.len.into()),
            ("checksum", Json::checksum(e.checksum)),
        ])
    };
    let listed = Json::Arr(entries.iter().map(entry).collect()).render();
    let checksum = Json::checksum(fnv1a(listed.as_bytes()));
    let manifest = Json::obj([
        ("format", MANIFEST_FORMAT.into()),
        ("version", MANIFEST_VERSION.into()),
        ("base", base.into()),
        ("entries", Json::Raw(listed)),
        ("checksum", checksum),
    ]);
    fs::write(st.manifest_path(), manifest.render() + "\n").unwrap();
    let json_listed = st.entries().iter().any(|e| e.file.ends_with(".json"));
    assert!(
        json_listed,
        "the manifest validates and lists the JSON entry"
    );
}

#[derive(Clone, Copy)]
enum Damage {
    Truncate,
    FlipByte,
}

/// Commit `older` then `newer` into a rotation under `base`, damage the
/// newest entry's file at a seeded random position, and assert the walk
/// falls back to `older` — also when an older build left an intact JSON
/// rendering of `newer` beside the damaged entry (`parent_json`), which is
/// no fallback.
fn damaged_newest_falls_back(
    tag: &str,
    base: &str,
    (older, newer): (&SimSnapshot, &SimSnapshot),
    damage: Damage,
    seed: u64,
    parent_json: bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let st = CkptStore::with_base(tmpdir(tag), base, 3);
    let mut inj = FaultInjector::none();
    st.commit_sim(older, &mut inj).unwrap();
    let newest_path = st.commit_sim(newer, &mut inj).unwrap();

    let mut bytes = fs::read(&newest_path).unwrap();
    assert!(bytes.len() > 1);
    match damage {
        Damage::Truncate => {
            let at = rng.gen_range(0..bytes.len());
            bytes.truncate(at);
        }
        Damage::FlipByte => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 0x40;
        }
    }
    fs::write(&newest_path, &bytes).unwrap();
    if parent_json {
        commit_parent_json(&st, base, newer);
    }

    let (entry, recovered) = st.latest_valid_sim().unwrap_or_else(|| {
        panic!("{tag} seed {seed} (parent JSON {parent_json}): no valid entry survived")
    });
    assert_eq!(
        entry.step, older.step_count,
        "{tag} seed {seed} (parent JSON {parent_json}): damaged newest must fall back to \
         the previous entry"
    );
    assert_eq!(&recovered, older, "{tag} seed {seed}");
}

#[test]
fn sim_checkpoint_damage_falls_back_bin_and_json() {
    for seed in [3u64, 7, 11, 19] {
        let (older, newer) = sim_snapshots(seed);
        for parent_json in [false, true] {
            for damage in [Damage::Truncate, Damage::FlipByte] {
                let pair = (&older, &newer);
                damaged_newest_falls_back("sim", "checkpoint", pair, damage, seed, parent_json);
            }
        }
    }
}

#[test]
fn dist_checkpoint_damage_falls_back_bin_and_json() {
    for seed in [5u64, 13] {
        let (older, newer) = several_slab_snapshots(seed);
        assert!(older.slabs.len() == 2 && older.slabs[1].schedule.is_some());
        for parent_json in [false, true] {
            for damage in [Damage::Truncate, Damage::FlipByte] {
                let pair = (&older, &newer);
                damaged_newest_falls_back(
                    "dist",
                    "dist_checkpoint",
                    pair,
                    damage,
                    seed,
                    parent_json,
                );
            }
        }
    }
}

#[test]
fn fallback_snapshot_is_bitwise_the_committed_one() {
    let (older, newer) = sim_snapshots(42);
    let st = CkptStore::new(tmpdir("bitwise"), 3);
    let mut inj = FaultInjector::none();
    st.commit_sim(&older, &mut inj).unwrap();
    let newest = st.commit_sim(&newer, &mut inj).unwrap();
    fs::write(&newest, b"garbage").unwrap();
    let (entry, recovered) = st.latest_valid_sim().unwrap();
    assert_eq!(entry.step, older.step_count);
    assert_eq!(
        recovered.to_bytes(),
        older.to_bytes(),
        "recovered snapshot must be byte-identical to what was committed"
    );
}

#[test]
fn lost_manifest_still_recovers_via_codec_validation() {
    // Without a manifest the dir scan cannot check intended lengths or
    // checksums — the codec's internal validation alone must reject the
    // damaged newest entry.
    let (older, newer) = sim_snapshots(23);
    let st = CkptStore::new(tmpdir("nomanifest"), 3);
    let mut inj = FaultInjector::none();
    st.commit_sim(&older, &mut inj).unwrap();
    let newest = st.commit_sim(&newer, &mut inj).unwrap();
    // Flip a byte in the payload interior (past the magic header) and
    // drop the manifest entirely.
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&newest, &bytes).unwrap();
    fs::remove_file(st.manifest_path()).unwrap();
    let (entry, _) = st.latest_valid_sim().unwrap();
    assert_eq!(
        entry.step, older.step_count,
        "codec checksum must reject the flipped byte"
    );
}

#[test]
fn all_entries_damaged_means_no_valid_checkpoint() {
    let (older, newer) = sim_snapshots(9);
    let st = CkptStore::new(tmpdir("alldead"), 3);
    let mut inj = FaultInjector::none();
    let p1 = st.commit_sim(&older, &mut inj).unwrap();
    let p2 = st.commit_sim(&newer, &mut inj).unwrap();
    fs::write(&p1, b"x").unwrap();
    fs::write(&p2, b"y").unwrap();
    assert!(st.latest_valid_sim().is_none());
}

/// A run directory an older build switched to JSON mid-way: the newest
/// entry is an intact `.json` rendering, listed in a manifest that passes
/// its own checksum. The walk skips it and resumes from the newest `.bin`.
#[test]
fn a_parent_json_entry_is_skipped_even_when_newest_and_listed() {
    let (older, newer) = sim_snapshots(31);
    let st = CkptStore::new(tmpdir("mixed"), 3);
    let mut inj = FaultInjector::none();
    st.commit_sim(&older, &mut inj).unwrap();
    commit_parent_json(&st, "checkpoint", &newer);
    let newest = &st.entries()[0];
    assert!(newest.file.ends_with(".json") && newest.step == newer.step_count);
    let (entry, snap) = st.latest_valid_sim().expect("the .bin entry");
    assert_eq!(
        entry.file,
        format!("checkpoint-{:06}.bin", older.step_count)
    );
    assert_eq!(snap, older);
    // The next commit keeps the listed entry until the rotation prunes it.
    st.commit_sim(&newer, &mut inj).unwrap();
    assert_eq!(st.latest_valid_sim().unwrap().1, newer);
}

/// A schedule a resume cannot take — a base step that is not finite and
/// positive, more levels than particles, a level of 64 or more (past
/// `1u64 << level`) — in an intact, checksummed checkpoint is a typed
/// `Malformed` at decode: the rotation skips back past it and `--resume`
/// fails on both routes with exit 1. It used to decode, and
/// `ActiveScheduler::restore`'s `assert!(dt_max > 0.0)` panicked.
/// `to_bytes` checks nothing, so each hostile value encodes as is.
#[test]
fn a_resealed_checkpoint_with_a_hostile_schedule_is_malformed_not_a_panic() {
    let (older, newer) = sim_snapshots(3);
    assert!(newer.slabs[0].schedule.is_some(), "a block run's");
    let hostile = |edit: fn(&mut Vec<u32>, &mut f64)| {
        let mut snap = newer.clone();
        let sched = snap.slabs[0].schedule.as_mut().unwrap();
        edit(&mut sched.levels, &mut sched.dt_max);
        snap.to_bytes()
    };
    for (what, hostile) in [
        ("zero dt_max", hostile(|_, dt| *dt = 0.0)),
        ("negative dt_max", hostile(|_, dt| *dt = -0.002)),
        ("infinite dt_max", hostile(|_, dt| *dt = f64::INFINITY)),
        ("NaN dt_max", hostile(|_, dt| *dt = f64::NAN)),
        ("a level too many", hostile(|levels, _| levels.insert(0, 0))),
        ("a level too deep", hostile(|levels, _| levels[0] = 64)),
    ] {
        let decoded = SimSnapshot::from_bytes(&hostile);
        assert!(
            matches!(decoded, Err(SnapshotError::Malformed(_))),
            "{what}: {decoded:?}"
        );

        let dir = tmpdir("hostile-schedule");
        let st = CkptStore::new(&dir, 3);
        let mut inj = FaultInjector::none();
        st.commit_sim(&older, &mut inj).unwrap();
        st.commit_bytes(newer.step_count, CkptFormat::Bin, hostile.clone(), &mut inj)
            .unwrap();
        let (entry, _) = st.latest_valid_sim().expect("the older entry");
        assert_eq!(entry.step, older.step_count, "{what}: skipped back");

        let file = dir.join("hostile.bin");
        fs::write(&file, &hostile).unwrap();
        for route in [&[][..], &["--dist", "1x1x1+1"]] {
            let mut resume = vec!["--resume", file.to_str().unwrap(), "--steps", "1"];
            resume.extend(route);
            let output = asura(&resume, Some(&dir.join("resumed")));
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{what} {route:?}: {stderr}");
            assert!(stderr.contains("malformed snapshot"), "{what}: {stderr}");
        }
    }
}

/// The `asura` binary with `args`, into `run_dir` when given.
fn asura(args: &[&str], run_dir: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_asura"));
    cmd.args(args).env_remove(asura_core::faults::FAULTS_ENV);
    if let Some(dir) = run_dir {
        cmd.arg("--run-dir").arg(dir);
    }
    cmd.output().unwrap()
}

/// `asura inspect <checkpoint.bin>` prints exactly the checkpoint's JSON
/// rendering (one line), which decodes back to the checkpoint. A missing
/// file or a non-checkpoint is a runtime failure (exit 1); a missing or
/// extra argument is a usage error (exit 2).
#[test]
fn inspect_prints_the_json_rendering_of_a_committed_checkpoint() {
    let dir = tmpdir("inspect");
    let out = asura(
        &[
            "--scenario",
            "spiked_dt",
            "--steps",
            "2",
            "--snapshot-every",
            "2",
        ],
        Some(&dir),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ckpt = dir.join("checkpoint-000002.bin");
    let snap = SimSnapshot::load(&ckpt).expect("a committed checkpoint");
    let out = asura(&["inspect", ckpt.to_str().unwrap()], None);
    assert_eq!(out.status.code(), Some(0));
    let printed = String::from_utf8(out.stdout).unwrap();
    assert_eq!(printed, snap.to_json() + "\n");
    assert!(printed.starts_with("{\"format\":\"asura-snapshot\""));
    assert_eq!(SimSnapshot::from_json(&printed).as_ref(), Ok(&snap));

    let rendering = dir.join("inspected.json");
    fs::write(&rendering, &printed).unwrap();
    for (what, path) in [
        ("missing", dir.join("absent.bin")),
        ("a JSON rendering", rendering),
        ("a manifest", dir.join("checkpoint.manifest.json")),
        ("a directory", dir.clone()),
    ] {
        let out = asura(&["inspect", path.to_str().unwrap()], None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(stderr.contains(path.to_str().unwrap()), "{what}: {stderr}");
        assert!(out.stdout.is_empty(), "{what}");
    }
    for args in [&["inspect"][..], &["inspect", "a.bin", "b.bin"]] {
        let out = asura(args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("asura inspect <checkpoint.bin>"),
            "{stderr}"
        );
    }
}

/// `--resume` of a JSON rendering fails before the first step, naming the
/// file, on both routes: nothing is integrated and no checkpoint written.
#[test]
fn resume_of_a_json_rendering_fails_naming_the_file() {
    let dir = tmpdir("resume-json");
    let (_, snap) = sim_snapshots(17);
    let file = dir.join("x.json");
    fs::write(&file, snap.to_json()).unwrap();
    for (route, dist) in [("shared", &[][..]), ("dist", &["--dist", "1x1x1+1"][..])] {
        let mut args = vec!["--resume", file.to_str().unwrap(), "--steps", "1"];
        args.extend(dist);
        let run_dir = dir.join(route);
        let out = asura(&args, Some(&run_dir));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{route}: {stderr}");
        assert!(
            stderr.contains("x.json") && stderr.contains("bad magic"),
            "{route}: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("integrating"), "{route}: {stdout}");
        assert!(!run_dir.exists(), "{route}: nothing written");
    }
}

/// The `[checkpoint]` lines of a run's stdout, as paths.
fn printed_checkpoints(out: &Output) -> Vec<PathBuf> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("[checkpoint] "));
    lines.map(PathBuf::from).collect()
}

/// A fresh run into a directory an earlier run used starts an empty
/// rotation: it lists only its own checkpoints, every listed file exists,
/// and `--resume <dir>` continues it — not the earlier run, whose entries
/// are newer by step.
#[test]
fn a_fresh_run_starts_an_empty_rotation() {
    let dir = tmpdir("fresh-rotation");
    let run = |seed: &str, steps: &str, run_dir: &Path| {
        let args = ["--scenario", "spiked_dt", "--snapshot-every", "2"];
        let out = asura(
            &[
                &args[..],
                &["--keep", "2", "--seed", seed, "--steps", steps],
            ]
            .concat(),
            Some(run_dir),
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        printed_checkpoints(&out)
    };
    let shared = dir.join("shared");
    // The listing is what the rotation holds: step 2 was pruned.
    let first = run("1", "6", &shared);
    assert_eq!(
        first,
        [4, 6].map(|s| shared.join(format!("checkpoint-{s:06}.bin")))
    );
    let second = run("2", "2", &shared);
    let entry = shared.join("checkpoint-000002.bin");
    assert_eq!(second, std::slice::from_ref(&entry));
    assert!(entry.exists());
    let store = CkptStore::new(&shared, 2);
    assert_eq!(
        store.entries().iter().map(|e| e.step).collect::<Vec<_>>(),
        [2]
    );

    let clean = dir.join("clean");
    run("2", "2", &clean);
    let clean_entry = fs::read(clean.join("checkpoint-000002.bin")).unwrap();
    assert_eq!(fs::read(&entry).unwrap(), clean_entry);
    let (_, snap) = store.latest_valid_sim().expect("an intact entry");
    assert_eq!((snap.step_count, snap.config.seed), (2, 2));
}
