//! Atomic, rotated checkpoint store.
//!
//! Every checkpoint the drivers write used to be a bare
//! `std::fs::write` over the live `checkpoint.*` — a crash mid-write
//! destroyed the only recovery point. This module replaces that with a
//! crash-safe store built from two pieces:
//!
//! * [`atomic_write`]: tmp-file → write → `fsync` → `rename`, so a file
//!   is either its complete old contents or its complete new contents,
//!   never a torn hybrid. Used for *every* output file (checkpoints,
//!   manifests, diagnostics, reports, incident logs).
//! * [`CkptStore`]: a rotation of the last `keep` stamped binary
//!   snapshots (`<base>-<step:06>.bin`) plus a checksummed JSON manifest
//!   (`<base>.manifest.json`). Commits prune the oldest entries beyond
//!   `keep`; `CkptStore::latest_valid_with` walks the rotation
//!   newest-first and returns the first entry that passes *all* of:
//!   file readable, length matches the manifest, FNV-1a checksum matches
//!   the manifest, and the payload decodes (the binary codec's own magic,
//!   version, and internal-checksum checks). Anything that fails is
//!   skipped, so a damaged newest checkpoint silently falls back to the
//!   previous one.
//!
//! The manifest records the *intended* length and checksum of each commit
//! (captured before any injected `WriteFault`
//! damage is applied), which is what makes storage-level corruption
//! detectable at read time. If the manifest itself is missing or fails
//! its own checksum, the store falls back to scanning the directory for
//! rotation-shaped file names and leans on payload decoding alone — a
//! corrupt manifest never strands an intact checkpoint.
//!
//! # Manifest schema
//!
//! ```json
//! {
//!   "format": "asura-ckpt-manifest",
//!   "version": 1,
//!   "base": "checkpoint",
//!   "entries": [
//!     {"file": "checkpoint-000004.bin", "step": 4,
//!      "len": 31240, "checksum": "fnv1a:8c5a1e0d9b2f4711"}
//!   ],
//!   "checksum": "fnv1a:..."  // FNV-1a over the serialized entries array
//! }
//! ```

// no-panic-daemon: malformed input is a typed error, never a crashed fleet.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::faults::{apply_write_fault, FaultInjector};
use crate::snapshot::SimSnapshot;
use json::{fnv1a, parse_json, Json};
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// `format` field of the rotation manifest.
pub const MANIFEST_FORMAT: &str = "asura-ckpt-manifest";
/// Manifest schema version.
pub const MANIFEST_VERSION: u64 = 1;
/// Default rotation depth.
pub const DEFAULT_KEEP: usize = 3;

/// The checkpoint encoding: the binary [`SimSnapshot`], the only thing the
/// store writes to a rotation or reads back (a JSON rendering is `asura
/// inspect`'s output, never a rotation entry). Kept, with its one variant,
/// because callers pass it to
/// [`Simulation::run_with_store`](crate::sim::Simulation::run_with_store)
/// and [`CkptStore::commit_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptFormat {
    Bin,
}

/// Write `bytes` to `path` atomically: the data lands in a hidden
/// temporary file in the same directory, is flushed to stable storage
/// (`fsync`), and is then `rename`d over the destination — readers see
/// either the complete old file or the complete new file, never a torn
/// mix. The directory is fsynced best-effort afterwards so the rename
/// itself survives power loss.
#[expect(
    clippy::disallowed_methods,
    reason = "the one writer: it creates only the temporary it renames"
)]
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("no file name in `{}`", path.display())))?
        .to_string_lossy()
        .into_owned();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(".{file_name}.{}.tmp", std::process::id()));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result?;
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// One rotation entry as recorded in the manifest: the file name relative
/// to the store directory, the step it captures, and the intended length
/// and FNV-1a checksum of its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptEntry {
    pub file: String,
    pub step: u64,
    pub len: u64,
    pub checksum: u64,
}

/// A rotated checkpoint store rooted at a directory. All files it owns
/// share a `base` name: rotation entries are `<base>-<step:06>.bin`,
/// the manifest is `<base>.manifest.json`. See the module docs for the
/// validation walk.
#[derive(Debug, Clone)]
pub struct CkptStore {
    dir: PathBuf,
    base: String,
    keep: usize,
}

impl CkptStore {
    /// Store under `dir` with the default base name `checkpoint`.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> CkptStore {
        CkptStore::with_base(dir, "checkpoint", keep)
    }

    /// Store under `dir` with an explicit base name (the dist driver uses
    /// `dist_checkpoint` so both stores can share a run directory).
    pub fn with_base(dir: impl Into<PathBuf>, base: impl Into<String>, keep: usize) -> CkptStore {
        CkptStore {
            dir: dir.into(),
            base: base.into(),
            keep: keep.max(1),
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the rotation manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(format!("{}.manifest.json", self.base))
    }

    /// Absolute path of a rotation entry.
    pub fn entry_path(&self, entry: &CkptEntry) -> PathBuf {
        self.dir.join(&entry.file)
    }

    fn entry_file(&self, step: u64) -> String {
        format!("{}-{step:06}.bin", self.base)
    }

    /// Commit one snapshot payload for `step`: apply any armed write
    /// fault (torn/corrupt damage the committed bytes, a synthetic I/O
    /// fault fails the commit), write the entry atomically, then update
    /// the manifest and prune the rotation to the newest `keep` entries.
    /// The manifest records the *intended* length/checksum, so injected
    /// damage is detectable at read time. Returns the entry path.
    /// `_format` is always [`CkptFormat::Bin`]; kept because callers pass
    /// it.
    pub fn commit_bytes(
        &self,
        step: u64,
        _format: CkptFormat,
        bytes: Vec<u8>,
        faults: &mut FaultInjector,
    ) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let intended_len = bytes.len() as u64;
        let intended_checksum = fnv1a(&bytes);
        let mut payload = bytes;
        if let Some(fault) = faults.on_commit() {
            eprintln!("[fault] checkpoint commit {}: {fault}", faults.commits());
            apply_write_fault(fault, &mut payload)?;
        }
        let file = self.entry_file(step);
        let path = self.dir.join(&file);
        atomic_write(&path, &payload)?;

        let mut entries = self.entries_oldest_first();
        entries.retain(|e| e.file != file);
        entries.push(CkptEntry {
            file,
            step,
            len: intended_len,
            checksum: intended_checksum,
        });
        entries.sort_by(|a, b| a.step.cmp(&b.step).then_with(|| a.file.cmp(&b.file)));
        while entries.len() > self.keep {
            let dropped = entries.remove(0);
            // A co-located process (or an earlier crashed prune) may have
            // already removed the file; only that case is benign.
            match fs::remove_file(self.dir.join(&dropped.file)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        self.write_manifest(&entries)?;
        Ok(path)
    }

    /// Encode and commit a snapshot, stamped with its step.
    pub fn commit_sim(
        &self,
        snap: &SimSnapshot,
        faults: &mut FaultInjector,
    ) -> io::Result<PathBuf> {
        self.commit_bytes(snap.step_count, CkptFormat::Bin, snap.to_bytes(), faults)
    }

    /// The crash-safe run loop's per-step tail, under either driver: enforce
    /// the step fault armed for `step` — *before* the commit, so a kill costs
    /// the newest checkpoint — then commit `snap`, a cadence step's one.
    pub fn after_step(
        &self,
        step: u64,
        snap: Option<&SimSnapshot>,
        faults: &mut FaultInjector,
    ) -> io::Result<Option<PathBuf>> {
        faults.enforce_step(step);
        snap.map(|s| self.commit_sim(s, faults)).transpose()
    }

    /// Rotation entries, newest-first: from the manifest when it is
    /// present and passes its own checksum, otherwise by scanning the
    /// directory for rotation-shaped file names (in which case lengths
    /// and checksums are recomputed from the files themselves, and
    /// payload decoding is the only real validation left).
    pub fn entries(&self) -> Vec<CkptEntry> {
        let mut entries = self.entries_oldest_first();
        entries.reverse();
        entries
    }

    /// Empty the rotation: remove every file [`entries`](Self::entries)
    /// lists, then the manifest, so a fresh run starts from nothing an
    /// earlier run left in the directory. A file already gone is fine;
    /// files the rotation does not own (diagnostics, heartbeat, incident
    /// log) stay.
    pub fn clear(&self) -> io::Result<()> {
        let remove = |path: PathBuf| match fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        };
        for entry in self.entries() {
            remove(self.entry_path(&entry))?;
        }
        remove(self.manifest_path())
    }

    fn entries_oldest_first(&self) -> Vec<CkptEntry> {
        let mut entries = self.read_manifest().unwrap_or_else(|| self.scan_dir());
        entries.sort_by(|a, b| a.step.cmp(&b.step).then_with(|| a.file.cmp(&b.file)));
        entries
    }

    /// Walk the rotation newest-first and return the first entry whose
    /// payload is intact: readable, length and FNV-1a checksum matching
    /// the manifest, and accepted by `decode`. Damaged or missing entries
    /// are skipped — this is the auto-resume fallback.
    pub(crate) fn latest_valid_with<T>(
        &self,
        mut decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> Option<(CkptEntry, T)> {
        for entry in self.entries() {
            let Ok(bytes) = fs::read(self.entry_path(&entry)) else {
                continue;
            };
            if bytes.len() as u64 != entry.len || fnv1a(&bytes) != entry.checksum {
                continue;
            }
            if let Some(value) = decode(&bytes) {
                return Some((entry, value));
            }
        }
        None
    }

    /// Newest intact snapshot in the rotation — a run's under the
    /// `checkpoint` base, a distributed run's under `dist_checkpoint`. Only
    /// the binary codec decides: an entry an older build wrote as JSON is
    /// skipped like a damaged one, even when the manifest lists it.
    pub fn latest_valid_sim(&self) -> Option<(CkptEntry, SimSnapshot)> {
        self.latest_valid_with(|bytes| SimSnapshot::from_bytes(bytes).ok())
    }

    // -- manifest ---------------------------------------------------------

    /// The entries array as a value. The manifest's self-checksum is
    /// defined over the rendering of exactly this, so reading re-renders
    /// the parsed entries through the same function before comparing.
    fn entries_value(entries: &[CkptEntry]) -> Json {
        let entry = |e: &CkptEntry| {
            Json::obj([
                ("file", e.file.as_str().into()),
                ("step", e.step.into()),
                ("len", e.len.into()),
                ("checksum", Json::checksum(e.checksum)),
            ])
        };
        Json::Arr(entries.iter().map(entry).collect())
    }

    fn write_manifest(&self, entries: &[CkptEntry]) -> io::Result<()> {
        let entries_text = Self::entries_value(entries).render();
        let checksum = Json::checksum(fnv1a(entries_text.as_bytes()));
        let doc = Json::obj([
            ("format", MANIFEST_FORMAT.into()),
            ("version", MANIFEST_VERSION.into()),
            ("base", self.base.as_str().into()),
            ("entries", Json::Raw(entries_text)),
            ("checksum", checksum),
        ]);
        atomic_write(&self.manifest_path(), (doc.render() + "\n").as_bytes())
    }

    /// Parse and validate the manifest. `None` on any failure (missing,
    /// unparseable, wrong format/version, self-checksum mismatch,
    /// malformed entry) — the caller then falls back to the dir scan.
    fn read_manifest(&self) -> Option<Vec<CkptEntry>> {
        let text = fs::read_to_string(self.manifest_path()).ok()?;
        let doc = parse_json(&text).ok()?;
        doc.expect_header(MANIFEST_FORMAT, MANIFEST_VERSION).ok()?;
        let entry = |item: &Json| -> Result<CkptEntry, String> {
            Ok(CkptEntry {
                file: item.at("file", Json::as_str)?.to_string(),
                step: item.at("step", Json::as_u64)?,
                len: item.at("len", Json::as_u64)?,
                checksum: item.at("checksum", Json::as_checksum)?,
            })
        };
        let entries = doc.at("entries", Json::as_arr).ok()?;
        let entries: Vec<CkptEntry> = entries.iter().map(entry).collect::<Result<_, _>>().ok()?;
        // The self-checksum is defined over the canonical rendering, so
        // re-render the parsed entries rather than hashing raw file text.
        let canonical = Self::entries_value(&entries).render();
        (doc.at("checksum", Json::as_checksum).ok()? == fnv1a(canonical.as_bytes()))
            .then_some(entries)
    }

    /// Recover rotation entries from file names alone: anything matching
    /// `<base>-<digits>.bin` in the store directory. Length and
    /// checksum come from the file contents, so only payload decoding can
    /// reject a damaged entry on this path.
    fn scan_dir(&self) -> Vec<CkptEntry> {
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let prefix = format!("{}-", self.base);
        let mut entries = Vec::new();
        for dent in rd.flatten() {
            let name = dent.file_name().to_string_lossy().into_owned();
            let digits = name
                .strip_prefix(&prefix)
                .and_then(|s| s.strip_suffix(".bin"));
            let Some(Ok(step)) = digits.map(str::parse::<u64>) else {
                continue;
            };
            let Ok(bytes) = fs::read(dent.path()) else {
                continue;
            };
            entries.push(CkptEntry {
                file: name,
                step,
                len: bytes.len() as u64,
                checksum: fnv1a(&bytes),
            });
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "asura-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn store(tag: &str, keep: usize) -> CkptStore {
        CkptStore::new(tmpdir(tag), keep)
    }

    /// Commit raw payloads with a trivial "decode" that accepts payloads
    /// starting with `OK`.
    fn ok_decode(bytes: &[u8]) -> Option<Vec<u8>> {
        bytes.starts_with(b"OK").then(|| bytes.to_vec())
    }

    #[test]
    fn rotation_prunes_to_keep_and_walks_newest_first() {
        let st = store("rotate", 2);
        let mut inj = FaultInjector::none();
        for step in [2u64, 4, 6] {
            st.commit_bytes(
                step,
                CkptFormat::Bin,
                format!("OK step {step}").into_bytes(),
                &mut inj,
            )
            .unwrap();
        }
        let entries = st.entries();
        assert_eq!(
            entries.iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![6, 4],
            "oldest entry pruned, newest first"
        );
        assert!(
            !st.dir().join("checkpoint-000002.bin").exists(),
            "pruned file deleted"
        );
        let (entry, payload) = st.latest_valid_with(ok_decode).unwrap();
        assert_eq!(entry.step, 6);
        assert_eq!(payload, b"OK step 6");
    }

    #[test]
    fn pruning_tolerates_already_missing_files() {
        let st = store("prune-missing", 2);
        let mut inj = FaultInjector::none();
        st.commit_bytes(1, CkptFormat::Bin, b"OK one".to_vec(), &mut inj)
            .unwrap();
        st.commit_bytes(2, CkptFormat::Bin, b"OK two".to_vec(), &mut inj)
            .unwrap();
        // Someone else already deleted the entry the next commit will
        // prune — the commit must not fail on the NotFound.
        fs::remove_file(st.dir().join("checkpoint-000001.bin")).unwrap();
        st.commit_bytes(3, CkptFormat::Bin, b"OK three".to_vec(), &mut inj)
            .unwrap();
        assert_eq!(
            st.entries().iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![3, 2]
        );
    }

    #[test]
    fn clear_empties_the_rotation_and_keeps_the_run_files() {
        let st = store("clear", 2);
        let mut inj = FaultInjector::none();
        for step in [2u64, 4] {
            st.commit_bytes(step, CkptFormat::Bin, b"OK".to_vec(), &mut inj)
                .unwrap();
        }
        let others = ["diagnostics.json", "heartbeat", "supervisor.json"];
        for name in others {
            fs::write(st.dir().join(name), b"{}").unwrap();
        }
        // An entry already gone is no error.
        fs::remove_file(st.dir().join("checkpoint-000002.bin")).unwrap();
        st.clear().unwrap();
        assert!(st.entries().is_empty());
        assert!(!st.manifest_path().exists());
        assert!(!st.dir().join("checkpoint-000004.bin").exists());
        for name in others {
            assert!(st.dir().join(name).exists(), "{name} kept");
        }
        st.clear().unwrap();
        let missing = CkptStore::new(st.dir().join("no-such-run"), 2);
        missing.clear().unwrap();
    }

    #[test]
    fn damaged_newest_falls_back_to_previous_entry() {
        let st = store("fallback", 3);
        let mut inj = FaultInjector::none();
        st.commit_bytes(1, CkptFormat::Bin, b"OK one".to_vec(), &mut inj)
            .unwrap();
        st.commit_bytes(2, CkptFormat::Bin, b"OK two".to_vec(), &mut inj)
            .unwrap();
        // Corrupt the newest entry on disk (bypassing the store).
        let newest = st.dir().join("checkpoint-000002.bin");
        fs::write(&newest, b"XX two").unwrap();
        let (entry, payload) = st.latest_valid_with(ok_decode).unwrap();
        assert_eq!(entry.step, 1, "checksum mismatch skips to previous");
        assert_eq!(payload, b"OK one");
    }

    #[test]
    fn injected_torn_and_corrupt_commits_are_skipped() {
        let st = store("faults", 4);
        let plan = FaultPlan::parse("torn@2:3,corrupt@3:1").unwrap();
        let mut inj = FaultInjector::from_plan(&plan, 0);
        st.commit_bytes(1, CkptFormat::Bin, b"OK aaaa".to_vec(), &mut inj)
            .unwrap();
        st.commit_bytes(2, CkptFormat::Bin, b"OK bbbb".to_vec(), &mut inj)
            .unwrap();
        st.commit_bytes(3, CkptFormat::Bin, b"OK cccc".to_vec(), &mut inj)
            .unwrap();
        assert_eq!(
            fs::read(st.dir().join("checkpoint-000002.bin")).unwrap(),
            b"OK ",
            "torn"
        );
        let (entry, _) = st.latest_valid_with(ok_decode).unwrap();
        assert_eq!(entry.step, 1, "both damaged commits skipped");
    }

    #[test]
    fn injected_io_fault_fails_the_commit_but_keeps_the_store_intact() {
        let st = store("io", 3);
        let plan = FaultPlan::parse("io@2").unwrap();
        let mut inj = FaultInjector::from_plan(&plan, 0);
        st.commit_bytes(1, CkptFormat::Bin, b"OK one".to_vec(), &mut inj)
            .unwrap();
        let err = st
            .commit_bytes(2, CkptFormat::Bin, b"OK two".to_vec(), &mut inj)
            .unwrap_err();
        assert!(err.to_string().contains("injected"));
        let (entry, _) = st.latest_valid_with(ok_decode).unwrap();
        assert_eq!(entry.step, 1);
    }

    #[test]
    fn corrupt_manifest_falls_back_to_dir_scan() {
        let st = store("manifest", 3);
        let mut inj = FaultInjector::none();
        st.commit_bytes(5, CkptFormat::Bin, b"OK five".to_vec(), &mut inj)
            .unwrap();
        fs::write(st.manifest_path(), b"{ not json").unwrap();
        let (entry, payload) = st.latest_valid_with(ok_decode).unwrap();
        assert_eq!(entry.step, 5);
        assert_eq!(payload, b"OK five");
        // Missing manifest too — and the scan takes only `.bin` names: a
        // newer `.json` entry an older build wrote is not a rotation entry.
        fs::remove_file(st.manifest_path()).unwrap();
        fs::write(st.dir().join("checkpoint-000009.json"), b"OK json").unwrap();
        assert_eq!(
            st.entries().iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![5]
        );
        assert_eq!(st.latest_valid_with(ok_decode).unwrap().0.step, 5);
    }

    /// A newest entry whose header claims a payload of nearly `u64::MAX`
    /// bytes is one more damaged file to skip on the manifest-less scan —
    /// not a length computation to overflow.
    #[test]
    fn hostile_length_header_falls_back_to_the_previous_snapshot() {
        use crate::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
        let st = store("hostile-len", 3);
        let mut inj = FaultInjector::none();
        let intact = SimSnapshot {
            config: crate::SimConfig::default(),
            time: 0.5,
            step_count: 1,
            model: None,
            next_id: 0,
            slabs: Vec::new(),
        };
        st.commit_sim(&intact, &mut inj).unwrap();
        let mut hostile = SNAPSHOT_MAGIC.to_vec();
        hostile.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        hostile.extend_from_slice(&(u64::MAX - 25).to_le_bytes());
        hostile.extend_from_slice(&[0; 16]);
        fs::write(st.dir().join("checkpoint-000002.bin"), hostile).unwrap();
        fs::remove_file(st.manifest_path()).unwrap();
        assert_eq!(st.entries()[0].step, 2, "the hostile file is newest");
        let (entry, snap) = st.latest_valid_sim().expect("falls back");
        assert_eq!(entry.step, 1);
        assert_eq!(snap, intact);
    }

    #[test]
    fn recommit_of_same_step_replaces_the_entry() {
        let st = store("recommit", 3);
        let mut inj = FaultInjector::none();
        st.commit_bytes(4, CkptFormat::Bin, b"OK old".to_vec(), &mut inj)
            .unwrap();
        st.commit_bytes(4, CkptFormat::Bin, b"OK new".to_vec(), &mut inj)
            .unwrap();
        let entries = st.entries();
        assert_eq!(entries.len(), 1);
        let (_, payload) = st.latest_valid_with(ok_decode).unwrap();
        assert_eq!(payload, b"OK new");
    }

    #[test]
    fn atomic_write_replaces_contents_and_cleans_tmp() {
        let dir = tmpdir("atomic");
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|d| d.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no tmp files left behind");
    }
    /// Bytes recorded at the commit before the manifest moved onto the
    /// `unet::json` writer (PR 19). The self-checksum is defined over the
    /// entries text, so a manifest written on either side of that change
    /// must validate on the other — through `read_manifest`, not the
    /// directory-scan fallback. `PARENT` is that recording, from the days
    /// the rotation could hold a `.json` entry; the writer's bytes differ
    /// from it only in that entry's name and the self-checksum.
    #[test]
    fn manifest_bytes_are_stable_and_parent_written_manifests_validate() {
        const PARENT: &str = "{\"format\":\"asura-ckpt-manifest\",\"version\":1,\"base\":\"checkpoint\",\"entries\":[{\"file\":\"checkpoint-000002.bin\",\"step\":2,\"len\":6,\"checksum\":\"fnv1a:701d3ccaad469f21\"},{\"file\":\"checkpoint-000004.json\",\"step\":4,\"len\":9,\"checksum\":\"fnv1a:c38b95671c9ae86d\"}],\"checksum\":\"fnv1a:a1c2dc7606e5005e\"}\n";
        let golden = PARENT
            .replace("000004.json", "000004.bin")
            .replace("a1c2dc7606e5005e", "505ba3143186747f");
        let st = store("golden", 3);
        let mut inj = FaultInjector::none();
        st.commit_bytes(2, CkptFormat::Bin, b"OK two".to_vec(), &mut inj)
            .unwrap();
        st.commit_bytes(4, CkptFormat::Bin, b"OK \"four\"".to_vec(), &mut inj)
            .unwrap();
        assert_eq!(fs::read_to_string(st.manifest_path()).unwrap(), golden);
        // The reverse direction: the recorded text, put back, is accepted
        // as a manifest (lengths and checksums are the *recorded* ones).
        fs::write(st.manifest_path(), PARENT).unwrap();
        let entries = st.read_manifest().expect("no fall-back to the scan");
        assert_eq!(entries.len(), 2);
        assert_eq!((entries[1].step, entries[1].len), (4, 9));
        assert_eq!(entries[1].checksum, 0xc38b95671c9ae86d);
        // A base name that needs escaping, a seven-digit step.
        let st = CkptStore::with_base(tmpdir("golden-base"), "dist \"ckpt\"", 3);
        st.commit_bytes(1234567, CkptFormat::Bin, vec![7u8; 70000], &mut inj)
            .unwrap();
        assert_eq!(
            fs::read_to_string(st.manifest_path()).unwrap(),
            "{\"format\":\"asura-ckpt-manifest\",\"version\":1,\"base\":\"dist \\\"ckpt\\\"\",\"entries\":[{\"file\":\"dist \\\"ckpt\\\"-1234567.bin\",\"step\":1234567,\"len\":70000,\"checksum\":\"fnv1a:36f67a227cd238d5\"}],\"checksum\":\"fnv1a:e760c35622a5d7d1\"}\n"
        );
        assert!(st.read_manifest().is_some());
    }

    #[test]
    fn a_manifest_with_inexact_integers_is_not_a_manifest() {
        let st = store("inexact", 3);
        let mut inj = FaultInjector::none();
        st.commit_bytes(2, CkptFormat::Bin, b"OK two".to_vec(), &mut inj)
            .unwrap();
        let good = fs::read_to_string(st.manifest_path()).unwrap();
        for (from, to) in [
            ("\"step\":2", "\"step\":2.5"),
            ("\"len\":6", "\"len\":-6"),
            ("\"version\":1", "\"version\":1.5"),
        ] {
            fs::write(st.manifest_path(), good.replacen(from, to, 1)).unwrap();
            assert!(st.read_manifest().is_none(), "{to}");
        }
        // … and the store still finds the entry, by the directory scan.
        assert_eq!(st.latest_valid_with(ok_decode).unwrap().0.step, 2);
    }
}
