//! Property tests of the atomic rotated checkpoint store's recovery
//! contract: damage a committed checkpoint at a **seeded random byte**
//! (truncation or corruption) and `latest_valid()` must fall back to the
//! previous rotation entry — for both codecs (binary and JSON), for a
//! one-slab [`SimSnapshot`] and a several-slab one under the distributed
//! driver's base name. Damage is detected by two independent layers: the
//! manifest's intended length/FNV-1a checksum, and the codec's own
//! magic/version/checksum validation (which is all that's left when the
//! manifest itself is lost).

use asura::scenarios;
use asura_core::ckpt::{CkptFormat, CkptStore};
use asura_core::faults::FaultInjector;
use asura_core::snapshot::{fnv1a, SimSnapshot, SlabRecord, SnapshotError, SNAPSHOT_VERSION};
use asura_core::Simulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;
use std::process::Command;
use unet::json::{parse_json, Json};

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

#[derive(Clone, Copy)]
enum Damage {
    Truncate,
    FlipByte,
}

/// Commit `older` then `newer` into a rotation under `base`, damage the
/// newest entry's file at a seeded random position, and assert the walk
/// falls back to `older`.
fn damaged_newest_falls_back(
    tag: &str,
    format: CkptFormat,
    base: &str,
    (older, newer): (&SimSnapshot, &SimSnapshot),
    damage: Damage,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let st = CkptStore::with_base(tmpdir(tag), base, 3);
    let mut inj = FaultInjector::none();
    st.commit_sim(older, format, &mut inj).unwrap();
    let newest_path = st.commit_sim(newer, format, &mut inj).unwrap();

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

    let (entry, recovered) = st.latest_valid_sim().unwrap_or_else(|| {
        panic!(
            "{tag} seed {seed} ({:?}): no valid entry survived",
            format.ext()
        )
    });
    assert_eq!(
        entry.step,
        older.step_count,
        "{tag} seed {seed} ({}): damaged newest must fall back to the previous entry",
        format.ext()
    );
    assert_eq!(&recovered, older, "{tag} seed {seed}");
}

#[test]
fn sim_checkpoint_damage_falls_back_bin_and_json() {
    for seed in [3u64, 7, 11, 19] {
        let (older, newer) = sim_snapshots(seed);
        for format in [CkptFormat::Bin, CkptFormat::Json] {
            for damage in [Damage::Truncate, Damage::FlipByte] {
                let pair = (&older, &newer);
                damaged_newest_falls_back("sim", format, "checkpoint", pair, damage, seed);
            }
        }
    }
}

#[test]
fn dist_checkpoint_damage_falls_back_bin_and_json() {
    for seed in [5u64, 13] {
        let (older, newer) = several_slab_snapshots(seed);
        assert!(older.slabs.len() == 2 && older.slabs[1].schedule.is_some());
        for format in [CkptFormat::Bin, CkptFormat::Json] {
            for damage in [Damage::Truncate, Damage::FlipByte] {
                let pair = (&older, &newer);
                damaged_newest_falls_back("dist", format, "dist_checkpoint", pair, damage, seed);
            }
        }
    }
}

#[test]
fn fallback_snapshot_is_bitwise_the_committed_one() {
    let (older, newer) = sim_snapshots(42);
    let st = CkptStore::new(tmpdir("bitwise"), 3);
    let mut inj = FaultInjector::none();
    st.commit_sim(&older, CkptFormat::Bin, &mut inj).unwrap();
    let newest = st.commit_sim(&newer, CkptFormat::Bin, &mut inj).unwrap();
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
    for format in [CkptFormat::Bin, CkptFormat::Json] {
        let (older, newer) = sim_snapshots(23);
        let st = CkptStore::new(tmpdir("nomanifest"), 3);
        let mut inj = FaultInjector::none();
        st.commit_sim(&older, format, &mut inj).unwrap();
        let newest = st.commit_sim(&newer, format, &mut inj).unwrap();
        // Flip a byte in the payload interior (past any magic header) and
        // drop the manifest entirely.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        fs::remove_file(st.manifest_path()).unwrap();
        let (entry, _) = st.latest_valid_sim().unwrap();
        assert_eq!(
            entry.step,
            older.step_count,
            "({}) codec checksum must reject the flipped byte",
            format.ext()
        );
    }
}

#[test]
fn all_entries_damaged_means_no_valid_checkpoint() {
    let (older, newer) = sim_snapshots(9);
    let st = CkptStore::new(tmpdir("alldead"), 3);
    let mut inj = FaultInjector::none();
    let p1 = st.commit_sim(&older, CkptFormat::Bin, &mut inj).unwrap();
    let p2 = st.commit_sim(&newer, CkptFormat::Bin, &mut inj).unwrap();
    fs::write(&p1, b"x").unwrap();
    fs::write(&p2, b"y").unwrap();
    assert!(st.latest_valid_sim().is_none());
}

#[test]
fn rotation_across_formats_resumes_the_newest_intact_of_either() {
    // A run switched from bin to json mid-way: the rotation holds both
    // extensions; the walk is step-ordered, not extension-ordered.
    let (older, newer) = sim_snapshots(31);
    let st = CkptStore::new(tmpdir("mixed"), 3);
    let mut inj = FaultInjector::none();
    st.commit_sim(&older, CkptFormat::Bin, &mut inj).unwrap();
    st.commit_sim(&newer, CkptFormat::Json, &mut inj).unwrap();
    let (entry, _) = st.latest_valid_sim().unwrap();
    assert_eq!(entry.step, newer.step_count);
    assert!(entry.file.ends_with(".json"));
}

/// `text`, a JSON snapshot, with its state's first `from` replaced by `to`
/// and sealed again: every checksum passes, so only the decoder's own
/// checks stand between the file and a resume.
fn resealed(text: &str, from: &str, to: &str) -> String {
    let state = parse_json(text).unwrap().get("state").unwrap().render();
    assert!(state.contains(from), "`{from}` not found");
    let state = parse_json(&state.replacen(from, to, 1)).unwrap().render();
    let sum = fnv1a(state.as_bytes());
    format!(
        "{{\"format\":\"asura-snapshot\",\"version\":{SNAPSHOT_VERSION},\"state\":{state},\
         \"checksum\":\"fnv1a:{sum:016x}\"}}"
    )
}

/// A schedule a resume cannot take — a base step that is not finite and
/// positive, more levels than particles, a level of 64 or more (past
/// `1u64 << level`) — in a re-sealed checkpoint is a
/// typed `Malformed` at decode: the rotation skips back past it and
/// `--resume` fails on both routes with exit 1. It used to decode, and
/// `ActiveScheduler::restore`'s `assert!(dt_max > 0.0)` panicked.
#[test]
fn a_resealed_checkpoint_with_a_hostile_schedule_is_malformed_not_a_panic() {
    let (older, newer) = sim_snapshots(3);
    let sched = newer.slabs[0].schedule.as_ref().expect("a block run's");
    let dt_max = format!("\"dt_max\":{}", Json::Num(sched.dt_max).render());
    let text = newer.to_json();
    // Encoding checks nothing, so a level 2^64 substeps deep seals as is.
    let mut deep = newer.clone();
    deep.slabs[0].schedule.as_mut().unwrap().levels[0] = 64;
    for (what, hostile) in [
        ("zero dt_max", resealed(&text, &dt_max, "\"dt_max\":0")),
        (
            "negative dt_max",
            resealed(&text, &dt_max, "\"dt_max\":-0.002"),
        ),
        (
            "infinite dt_max",
            resealed(&text, &dt_max, "\"dt_max\":\"bits:7ff0000000000000\""),
        ),
        (
            "NaN dt_max",
            resealed(&text, &dt_max, "\"dt_max\":\"bits:7ff8000000000000\""),
        ),
        (
            "a level too many",
            resealed(&text, "\"levels\":[", "\"levels\":[0,"),
        ),
        ("a level too deep", deep.to_json()),
    ] {
        let decoded = SimSnapshot::decode(hostile.as_bytes());
        assert!(
            matches!(decoded, Err(SnapshotError::Malformed(_))),
            "{what}: {decoded:?}"
        );

        let dir = tmpdir("hostile-schedule");
        let st = CkptStore::new(&dir, 3);
        let mut inj = FaultInjector::none();
        st.commit_sim(&older, CkptFormat::Json, &mut inj).unwrap();
        let bytes = hostile.clone().into_bytes();
        st.commit_bytes(newer.step_count, CkptFormat::Json, bytes, &mut inj)
            .unwrap();
        let (entry, _) = st.latest_valid_sim().expect("the older entry");
        assert_eq!(entry.step, older.step_count, "{what}: skipped back");

        let file = dir.join("hostile.json");
        fs::write(&file, &hostile).unwrap();
        for route in [&[][..], &["--dist", "1x1x1+1"]] {
            let output = Command::new(env!("CARGO_BIN_EXE_asura"))
                .args(route)
                .arg("--resume")
                .arg(&file)
                .args(["--steps", "1"])
                .arg("--run-dir")
                .arg(dir.join("resumed"))
                .env_remove(asura_core::faults::FAULTS_ENV)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{what} {route:?}: {stderr}");
            assert!(stderr.contains("malformed snapshot"), "{what}: {stderr}");
        }
    }
}
