//! Versioned snapshot / checkpoint-restart serialization.
//!
//! A [`SimSnapshot`] captures the **complete** state of a run — the
//! [`SimConfig`] (the run's seed with it), the clock, the surrogate model in
//! service, the id the next star takes, and one [`SlabRecord`]
//! per particle slab: the particles in local order, the signal-speed
//! stash, the block-timestep schedule, the counters and the slab's queue
//! of in-flight pool predictions — such that restoring it continues the
//! run bit-for-bit identically to a run that never stopped.
//!
//! ## One schema, one encoding on disk, one kind
//!
//! Both drivers keep the same `SlabState`
//! between steps, so there is one kind of checkpoint and the number of
//! slabs is data: [`Simulation::snapshot`](crate::sim::Simulation::snapshot)
//! writes one slab, [`dist::run`](crate::dist::run)'s gather writes one
//! per main rank, in rank order
//! (`tests/snapshot_restart.rs` asserts bitwise resume in both timestep
//! modes with an SN region pending in the pool queue; `tests/distributed.rs`
//! that on one rank the two drivers write the same record).
//!
//! Every record that travels in a snapshot declares its fields **once**, in
//! a `record!` table below: name, wire type, and the JSON key where it
//! differs. The table expands to the typed walk to and from the binary
//! layout, and to that layout described as plain data, which is all the
//! JSON backends need. There is one encoding on disk, and JSON is a
//! rendering of it; both are self-describing and checksummed:
//!
//! * **Binary** ([`SimSnapshot::to_bytes`] / [`SimSnapshot::from_bytes`]):
//!   the one on-disk format — what the checkpoint rotation holds and what
//!   a resume reads back ([`SimSnapshot::load`]). Fields are positional and
//!   little-endian, floats raw IEEE-754 bits (restart state is exact),
//!   lists carry a `u64` length prefix, enums and options a `u8` tag.
//!   Envelope: the 8-byte `SNAPSHOT_MAGIC`, a `u32` format version, a
//!   `u64` payload length, the payload, and a trailing FNV-1a 64-bit
//!   checksum of it.
//! * **JSON** ([`SimSnapshot::to_json`] / [`SimSnapshot::from_json`]): a
//!   human-readable rendering through the [`json`] crate — `asura inspect
//!   <checkpoint.bin>` prints it — that the program never reads back.
//!   Particle and gas lists are column-oriented (one array per field,
//!   coordinates as flat triplets). Finite floats use Rust's
//!   shortest-roundtrip formatting (exact on reload); non-finite floats
//!   and `u64` values above 2^53 fall back to tagged hex strings
//!   (`"bits:..."` / `"u64:..."`), so every value survives bit-exactly.
//!   The envelope's checksum covers the rendered `"state"` sub-document.
//!
//! **Adding a field**: one line in the record's table (structs are
//! destructured and rebuilt exhaustively, so a field missing from its
//! table does not compile), bump `SNAPSHOT_VERSION`, and refresh the
//! goldens (`crates/core/fixtures/` and the checksums in this module's
//! format-stability tests). A run counter's table is [`SimStats`]'s own,
//! in [`crate::sim`]: its one line there is its snapshot field as well as
//! its rank merge, diagnostics column and report key.
//!
//! **Format version policy**: `SNAPSHOT_VERSION` is bumped whenever the
//! payload layout changes in any way (field added, removed, reordered, or
//! re-encoded). Readers accept exactly the current version and reject
//! everything else with [`SnapshotError::UnsupportedVersion`] — snapshots
//! are short-lived operational artifacts (crash recovery, scenario
//! replay), not archival storage, so no migration shims are kept.
//! Corruption is reported as [`SnapshotError::ChecksumMismatch`]; every
//! decode error is a `Result`, never a panic. The checksums catch damage,
//! not intent: a slab schedule no resume can take (a base step that is not
//! finite and positive, more levels than particles, a level of 64 or more)
//! is [`SnapshotError::Malformed`] at decode, and what a snapshot *embeds*
//! (the weights document) is decoded where it is used, fallibly
//! ([`PredictorKind::build`](crate::dist::PredictorKind::build)).
//!
//! The `asura` scenario-runner CLI (`src/bin/asura.rs`) writes binary
//! snapshots at the [`SimConfig::snapshot_every`] cadence under
//! `results/<scenario>/` and resumes from them via [`SimSnapshot::load`].

// no-panic-daemon: malformed input is a typed error, never a crashed fleet.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::config::{Scheme, SimConfig, TimestepMode, SCHEME_NAMES, TIMESTEP_MODE_NAMES};
use crate::particle::{Kind, Particle};
use crate::sim::SimStats;
use fdps::Vec3;
use json::{parse_json, Json};
use std::fmt;
use surrogate::GasParticle;
use wire::{BinReader, Ty, Wire};

// Kept for `benchmark/`, which imports `asura_core::snapshot::fnv1a`.
pub use json::fnv1a;

/// Leading magic of binary snapshots.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"ASURSNAP";
/// Current snapshot format version (see the module docs for the policy).
/// v2: [`SimStats`] gained the split SPH neighbor-tree reuse counters
/// (`sph_tree_rebuilds` / `sph_tree_refreshes`);
/// v3: the surrogate model travels with the run ([`SimSnapshot::model`]),
/// so a trained-predictor run resumes bitwise without re-reading the
/// weights file;
/// v4: one kind for both drivers — per-slab state moved into
/// [`SimSnapshot::slabs`] (the pool queue with it), the star-formation
/// stream became optional, and the distributed driver's own format
/// (`ASURDSNP`, last at v5) was retired;
/// v5: star formation draws from no stream — [`SimConfig`] gained its
/// `seed`, and the stream gave way to the run-level
/// [`SimSnapshot::next_id`].
pub(crate) const SNAPSHOT_VERSION: u32 = 5;
/// `format` field of the JSON document.
const SNAPSHOT_FORMAT: &str = "asura-snapshot";

/// Why a snapshot failed to decode. Every variant is a recoverable error —
/// corrupt or foreign input never panics the reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with `SNAPSHOT_MAGIC` (binary) or is not
    /// an `asura-snapshot` document (JSON).
    BadMagic,
    /// The snapshot was written by a different format version.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The stored checksum does not match the payload.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Structurally invalid input (truncated, wrong types, bad field).
    Malformed(String),
    /// The snapshot file could not be read.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an asura snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            SnapshotError::Io(why) => write!(f, "snapshot i/o error: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(why.into())
}

// ---------------------------------------------------------------------------
// The schema: wire types, the typed binary walk, and the record tables
// ---------------------------------------------------------------------------

/// What the schema is made of; nothing outside this crate can implement or
/// drive it, and outside this file only through `record!`.
pub(crate) mod wire {
    use super::{malformed, SnapshotError};

    /// The wire type of a value: the schema as plain data. It describes
    /// the binary layout the typed walk ([`Wire`]) follows, and is all the
    /// two JSON backends need to render that layout and read it back.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Ty {
        /// Little-endian integers; `F64` is the raw IEEE-754 bits.
        U32,
        U64,
        F64,
        /// One byte.
        Bool,
        /// `u64` byte length, then UTF-8.
        Str,
        /// An enum variant as a `u8` tag; in JSON its name, or the tag
        /// number when `by_name` is false.
        Tag {
            names: &'static [&'static str],
            by_name: bool,
        },
        /// The keyed fields in order; a JSON object — except that a list
        /// of `columns` records is one object holding an array per field.
        Record {
            fields: &'static [(&'static str, Ty)],
            columns: bool,
        },
        /// Fixed arity, the parts in order; a JSON array, flattened into
        /// its column inside a column-oriented list.
        Tuple(&'static [Ty]),
        /// `u64` length prefix, then the elements.
        List(&'static Ty),
        /// `u8` 0/1, then the value if 1; `null` or the value in JSON.
        Option(&'static Ty),
        /// `TimestepMode`: `u8` mode, then `u32` max_level (0 for global);
        /// in JSON `{"mode": ..}`, plus `max_level` in block mode.
        Timestep,
    }

    /// A value with a place in the schema: its wire type, and the typed
    /// walk to and from the binary layout that type describes.
    pub(crate) trait Wire: Sized {
        const TY: Ty;
        fn put(&self, out: &mut Vec<u8>);
        fn get(r: &mut BinReader) -> Result<Self, SnapshotError>;
    }

    pub(crate) struct BinReader<'a> {
        pub b: &'a [u8],
        pub pos: usize,
    }

    impl<'a> BinReader<'a> {
        pub(crate) fn new(b: &'a [u8]) -> Self {
            BinReader { b, pos: 0 }
        }
        pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
            let remaining = self.b.len() - self.pos;
            if n > remaining {
                return Err(malformed(format!(
                    "truncated payload: wanted {n} bytes at offset {}, have {remaining}",
                    self.pos
                )));
            }
            let s = &self.b[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }
        pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
            let mut out = [0; N];
            out.copy_from_slice(self.bytes(N)?);
            Ok(out)
        }
        pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
            Ok(self.array::<1>()?[0])
        }
        /// A length prefix, sanity-bounded so corrupt input cannot trigger
        /// a huge allocation before the checksum is even consulted.
        pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
            let n = u64::from_le_bytes(self.array()?);
            let remaining = self.b.len() - self.pos;
            match usize::try_from(n) {
                Ok(n) if n <= remaining => Ok(n),
                _ => Err(malformed(format!("length prefix {n} overruns the payload"))),
            }
        }
    }
}

/// Declares a record's schema: its fields in wire order, each with its
/// wire type and, where the JSON key differs from the field name,
/// `as "key"`. Given a whole `pub struct`, it defines the struct as well;
/// a leading `columns` makes lists of the record column-oriented in JSON.
/// Both directions destructure / rebuild the struct exhaustively, so a
/// field missing from the table does not compile.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $($(#[$fmeta:meta])* pub $field:ident $(as $key:literal)? : $fty:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $ty {
            $($(#[$fmeta])* pub $field: $fty),+
        }
        $crate::snapshot::record!(@impl $ty false { $($field $(as $key)? : $fty),+ });
    };
    (columns $ty:ident $fields:tt) => {
        $crate::snapshot::record!(@impl $ty true $fields);
    };
    ($ty:ident $fields:tt) => {
        $crate::snapshot::record!(@impl $ty false $fields);
    };
    (@impl $ty:ident $columns:literal {
        $($field:ident $(as $key:literal)? : $fty:ty),+ $(,)?
    }) => {
        impl $crate::snapshot::wire::Wire for $ty {
            const TY: $crate::snapshot::wire::Ty = $crate::snapshot::wire::Ty::Record {
                // `[key?, name][0]`: the explicit key where one is given.
                fields: &[$((
                    [$($key,)? stringify!($field)][0],
                    <$fty as $crate::snapshot::wire::Wire>::TY,
                )),+],
                columns: $columns,
            };
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($field),+ } = self;
                $(<$fty as $crate::snapshot::wire::Wire>::put($field, out);)+
            }
            fn get(
                r: &mut $crate::snapshot::wire::BinReader,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty { $($field: <$fty as $crate::snapshot::wire::Wire>::get(r)?),+ })
            }
        }
    };
}
// The run counters declare themselves (`crate::sim`'s table).
pub(crate) use record;

/// Declares a field-less enum's wire tags (consecutive from 0, so a tag
/// indexes the JSON names) and whether JSON spells the name or the number.
macro_rules! tagged {
    ($ty:ident, by_name: $by_name:literal, names: $names:expr, { $($variant:ident = $tag:literal),+ }) => {
        impl Wire for $ty {
            const TY: Ty = Ty::Tag {
                names: $names,
                by_name: $by_name,
            };
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($ty::$variant => $tag),+
                });
            }
            fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
                match r.u8()? {
                    $($tag => Ok($ty::$variant),)+
                    k => Err(malformed(format!("unknown {} tag {k}", stringify!($ty)))),
                }
            }
        }
    };
}

macro_rules! little_endian {
    ($($ty:ident => $variant:ident),+) => {$(
        impl Wire for $ty {
            const TY: Ty = Ty::$variant;
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )+};
}

little_endian!(u32 => U32, u64 => U64, f64 => F64);
tagged!(Scheme, by_name: true, names: SCHEME_NAMES, { Surrogate = 0, Conventional = 1 });
tagged!(Kind, by_name: false, names: &["dm", "star", "gas"], { Dm = 0, Star = 1, Gas = 2 });

impl Wire for usize {
    const TY: Ty = Ty::U64;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| malformed(format!("{v} does not fit usize")))
    }
}

impl Wire for bool {
    const TY: Ty = Ty::Bool;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        r.u8().map(|b| b != 0)
    }
}

impl Wire for String {
    const TY: Ty = Ty::Str;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        let n = r.len()?;
        let text = std::str::from_utf8(r.bytes(n)?);
        let text = text.map_err(|e| malformed(format!("string field is not UTF-8: {e}")))?;
        Ok(text.to_string())
    }
}

impl Wire for [f64; 3] {
    const TY: Ty = Ty::Tuple(&[Ty::F64; 3]);
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|x| x.put(out));
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        Ok([f64::get(r)?, f64::get(r)?, f64::get(r)?])
    }
}

impl Wire for Vec3 {
    const TY: Ty = <[f64; 3]>::TY;
    fn put(&self, out: &mut Vec<u8>) {
        [self.x, self.y, self.z].put(out);
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        <[f64; 3]>::get(r).map(|[x, y, z]| Vec3::new(x, y, z))
    }
}

/// A `last_vsig` entry: `(particle index, v_sig, h)`.
impl Wire for (u64, f64, f64) {
    const TY: Ty = Ty::Tuple(&[Ty::U64, Ty::F64, Ty::F64]);
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        Ok((u64::get(r)?, f64::get(r)?, f64::get(r)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const TY: Ty = Ty::List(&T::TY);
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        self.iter().for_each(|v| v.put(out));
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        let n = r.len()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    const TY: Ty = Ty::Option(&T::TY);
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        self.iter().for_each(|v| v.put(out));
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            k => Err(malformed(format!("unknown option tag {k}"))),
        }
    }
}

impl Wire for TimestepMode {
    const TY: Ty = Ty::Timestep;
    fn put(&self, out: &mut Vec<u8>) {
        let (mode, max_level) = match *self {
            TimestepMode::Global => (0, 0),
            TimestepMode::Block { max_level } => (1, max_level),
        };
        out.push(mode);
        max_level.put(out);
    }
    fn get(r: &mut BinReader) -> Result<Self, SnapshotError> {
        match (r.u8()?, u32::get(r)?) {
            (0, _) => Ok(TimestepMode::Global),
            (1, max_level) => Ok(TimestepMode::Block { max_level }),
            (k, _) => Err(malformed(format!("unknown timestep mode tag {k}"))),
        }
    }
}

record!(SimConfig {
    scheme: Scheme,
    timestep: TimestepMode,
    dt_global: f64,
    theta: f64,
    n_group: usize,
    eps: f64,
    n_ngb: usize,
    region_side: f64,
    pool_latency_steps: usize,
    cooling: bool,
    star_formation: bool,
    cfl: f64,
    dt_min: f64,
    mixed_precision: bool,
    sf_rho_min: f64,
    sf_t_max: f64,
    sf_efficiency: f64,
    snapshot_every: u64,
    seed: u64,
});

record!(columns Particle {
    id: u64,
    kind: Kind,
    pos: Vec3,
    vel: Vec3,
    mass: f64,
    u: f64,
    h: f64,
    rho: f64,
    metals: f64,
    birth_time: f64,
    exploded: bool,
});

record!(columns GasParticle {
    pos: Vec3,
    vel: Vec3,
    mass: f64,
    temp: f64,
    h: f64,
    id: u64,
});

record! {
    /// One in-flight pool prediction (paper §3.2 step 2→4): the predicted
    /// region state and the absolute step at which it falls due.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PendingPrediction {
        pub due_step: u64,
        pub predicted: Vec<GasParticle>,
    }
}

record! {
    /// The block-timestep scheduler's level assignment at snapshot time.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScheduleState {
        pub dt_max: f64,
        pub levels: Vec<u32>,
    }
}

record! {
    /// The trained surrogate model a run carries: the pool-predictor RNG seed
    /// plus the verbatim weights document ([`SurrogateModel::to_json`] text,
    /// itself checksummed). Embedded in snapshots so a surrogate run resumes
    /// bitwise with its model intact — no weights file needs to exist at
    /// resume time.
    ///
    /// [`SurrogateModel::to_json`]: surrogate::SurrogateModel::to_json
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ModelState {
        /// Seed of the predictor's per-request Gibbs-resampling RNG.
        pub seed: u64,
        /// The self-describing weights document, byte-for-byte as written by
        /// `asura train-surrogate`.
        pub weights_json as "weights": String,
    }
}

record! {
    /// One particle slab and what its `SlabState`
    /// must carry across a restart.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SlabRecord {
        /// The slab's particles, local order preserved — a resumed slab
        /// rebuilds identical trees and sums forces in the identical order.
        pub particles: Vec<Particle>,
        /// `(particle index, v_sig, h)` stash from the last SPH force pass —
        /// hidden driver state that seeds the *next* step's CFL estimate, so
        /// restart determinism requires it.
        pub last_vsig: Vec<(u64, f64, f64)>,
        /// The regions this slab has in the pool, each *predicted*: the
        /// slab that dispatched a region is the one that counts it applied.
        pub pending: Vec<PendingPrediction>,
        /// The scheduler's last level assignment (levels in local particle
        /// order), if block mode has run.
        pub schedule: Option<ScheduleState>,
        pub stats: SimStats,
    }
}

record! {
    /// Complete serializable state of a run, under either driver.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SimSnapshot {
        pub config: SimConfig,
        pub time: f64,
        /// Completed steps at capture (the resume continues from here).
        pub step_count: u64,
        /// The trained surrogate model in service, if the run uses one
        /// (`None` for the analytic Sedov-overlay default).
        pub model: Option<ModelState>,
        /// The id the next star takes — the same on every slab.
        pub next_id: u64,
        /// One record from [`Simulation`](crate::sim::Simulation), one per
        /// main rank in rank order from [`dist::run`](crate::dist::run); a
        /// resume needs the same count.
        pub slabs: Vec<SlabRecord>,
    }
}

impl SimSnapshot {
    /// Regions in flight in the pool, over all slabs.
    pub fn pending_regions(&self) -> usize {
        self.slabs.iter().map(|s| s.pending.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// JSON backends: binary payload <-> JSON value tree, by the schema
// ---------------------------------------------------------------------------

fn ju(x: u64) -> Json {
    if x <= (1u64 << 53) {
        Json::Num(x as f64)
    } else {
        Json::Str(format!("u64:{x:016x}"))
    }
}

fn as_f64(v: &Json) -> Result<f64, SnapshotError> {
    match v {
        Json::Num(n) => Ok(*n),
        bits => bits.as_hex("bits:").map(f64::from_bits).map_err(malformed),
    }
}

fn as_u64(v: &Json) -> Result<u64, SnapshotError> {
    match v {
        Json::Str(_) => v.as_hex("u64:"),
        number => number.as_u64(),
    }
    .map_err(malformed)
}

fn tag_to_value(tag: u8, names: &[&str], by_name: bool) -> Result<Json, SnapshotError> {
    if !by_name {
        return Ok(Json::Num(tag as f64));
    }
    let name = names.get(tag as usize);
    let name = name.ok_or_else(|| malformed(format!("tag {tag} names none of {names:?}")))?;
    Ok(Json::Str(name.to_string()))
}

fn tag_from_value(v: &Json, names: &[&str], by_name: bool) -> Result<u8, SnapshotError> {
    let tag = match v {
        Json::Str(s) if by_name => names.iter().position(|n| n == s),
        _ if by_name => None,
        number => usize::try_from(as_u64(number)?).ok(),
    };
    tag.and_then(|t| u8::try_from(t).ok())
        .ok_or_else(|| malformed(format!("unknown tag {v:?} (names: {names:?})")))
}

/// The fields of `elem` if lists of it are column-oriented in JSON.
fn columns_of(elem: &Ty) -> Option<&'static [(&'static str, Ty)]> {
    match *elem {
        Ty::Record { fields, columns } if columns => Some(fields),
        _ => None,
    }
}

/// JSON write backend: render the binary value of type `ty` at `r`.
fn to_value(ty: &Ty, r: &mut BinReader) -> Result<Json, SnapshotError> {
    Ok(match *ty {
        Ty::U32 => ju(u32::get(r)? as u64),
        Ty::U64 => ju(u64::get(r)?),
        Ty::F64 => match f64::get(r)? {
            x if x.is_finite() => Json::Num(x),
            x => Json::Str(format!("bits:{:016x}", x.to_bits())),
        },
        Ty::Bool => Json::Bool(bool::get(r)?),
        Ty::Str => Json::Str(String::get(r)?),
        Ty::Tag { names, by_name } => tag_to_value(r.u8()?, names, by_name)?,
        Ty::Timestep => {
            let mode = r.u8()?;
            let max_level = ju(u32::get(r)? as u64);
            let mut fields = vec![(
                "mode".into(),
                tag_to_value(mode, TIMESTEP_MODE_NAMES, true)?,
            )];
            if mode == 1 {
                fields.push(("max_level".into(), max_level));
            }
            Json::Obj(fields)
        }
        Ty::Record { fields, .. } => {
            let keys = fields.iter().map(|(key, _)| key.to_string());
            let values = fields.iter().map(|(_, ty)| to_value(ty, r));
            Json::Obj(keys.zip(values.collect::<Result<Vec<_>, _>>()?).collect())
        }
        Ty::Tuple(parts) => {
            let parts = parts.iter().map(|ty| to_value(ty, r));
            Json::Arr(parts.collect::<Result<_, _>>()?)
        }
        Ty::List(elem) => {
            let rows = r.len()?;
            let Some(fields) = columns_of(elem) else {
                let items = (0..rows).map(|_| to_value(elem, r));
                return Ok(Json::Arr(items.collect::<Result<_, _>>()?));
            };
            let mut cols = vec![Vec::with_capacity(rows); fields.len()];
            for _ in 0..rows {
                for ((_, ty), col) in fields.iter().zip(&mut cols) {
                    match (ty, to_value(ty, r)?) {
                        (Ty::Tuple(_), Json::Arr(parts)) => col.extend(parts),
                        (_, v) => col.push(v),
                    }
                }
            }
            let keys = fields.iter().map(|(key, _)| key.to_string());
            Json::Obj(keys.zip(cols.into_iter().map(Json::Arr)).collect())
        }
        Ty::Option(inner) => match r.u8()? {
            0 => Json::Null,
            _ => to_value(inner, r)?,
        },
    })
}

/// JSON read backend: append the binary value of type `ty` that `v`
/// renders. Tag and range validity are the typed walk's to check.
fn from_value(ty: &Ty, v: &Json, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
    let field = |key: &str| v.get(key).map_err(malformed);
    match (*ty, v) {
        (Ty::U32, _) => v.as_u32().map_err(malformed)?.put(out),
        (Ty::U64, _) => as_u64(v)?.put(out),
        (Ty::F64, _) => as_f64(v)?.put(out),
        (Ty::Bool, Json::Bool(b)) => b.put(out),
        (Ty::Str, Json::Str(s)) => s.put(out),
        (Ty::Tag { names, by_name }, _) => out.push(tag_from_value(v, names, by_name)?),
        (Ty::Timestep, Json::Obj(_)) => {
            let mode = tag_from_value(field("mode")?, TIMESTEP_MODE_NAMES, true)?;
            out.push(mode);
            match mode {
                1 => field("max_level")?.as_u32().map_err(malformed)?.put(out),
                _ => 0u32.put(out),
            }
        }
        (Ty::Record { fields, .. }, Json::Obj(_)) => {
            for (key, ty) in fields {
                from_value(ty, field(key)?, out)?;
            }
        }
        (Ty::Tuple(parts), Json::Arr(items)) if items.len() == parts.len() => {
            for (ty, item) in parts.iter().zip(items) {
                from_value(ty, item, out)?;
            }
        }
        (Ty::List(elem), Json::Arr(items)) if columns_of(elem).is_none() => {
            (items.len() as u64).put(out);
            for item in items {
                from_value(elem, item, out)?;
            }
        }
        (Ty::List(elem), Json::Obj(_)) => {
            let fields = columns_of(elem).ok_or_else(|| malformed("expected an array"))?;
            // Every column as a tuple of `parts` per row (one for a leaf);
            // the first column fixes the row count.
            let mut rows = None;
            let mut cols = Vec::new();
            for (key, ty) in fields {
                let parts = match ty {
                    Ty::Tuple(parts) => *parts,
                    leaf => std::slice::from_ref(leaf),
                };
                let Json::Arr(items) = field(key)? else {
                    return Err(malformed(format!("column `{key}` must be an array")));
                };
                let n = *rows.get_or_insert(items.len() / parts.len());
                if items.len() != n * parts.len() {
                    let want = n * parts.len();
                    let why = format!("column `{key}` has {} entries, not {want}", items.len());
                    return Err(malformed(why));
                }
                cols.push((parts, items.chunks(parts.len())));
            }
            let rows = rows.unwrap_or(0);
            (rows as u64).put(out);
            for _ in 0..rows {
                for (parts, chunks) in &mut cols {
                    for (ty, item) in parts.iter().zip(chunks.next().into_iter().flatten()) {
                        from_value(ty, item, out)?;
                    }
                }
            }
        }
        (Ty::Option(_), Json::Null) => out.push(0),
        (Ty::Option(inner), _) => {
            out.push(1);
            from_value(inner, v, out)?;
        }
        _ => return Err(malformed(format!("wrong JSON type for the schema: {v:?}"))),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The envelope
// ---------------------------------------------------------------------------

/// Magic (8) + version (4) + payload length (8).
const HEADER_LEN: usize = 20;

fn check_version(found: u32) -> Result<(), SnapshotError> {
    let supported = SNAPSHOT_VERSION;
    if found == supported {
        return Ok(());
    }
    Err(SnapshotError::UnsupportedVersion { found, supported })
}

/// The typed walk over a complete binary payload, then what the walk
/// cannot see: a slab's schedule must be one a resume can take — a finite,
/// positive base step, and a level below 64 (`2^level` substeps fit a
/// `u64`) for no more particles than the slab holds. (Fewer is
/// legitimate: a star spawned after the base step's assignment has no
/// level until the next one.)
fn from_payload(payload: &[u8]) -> Result<SimSnapshot, SnapshotError> {
    let mut r = BinReader::new(payload);
    let snap = SimSnapshot::get(&mut r)?;
    if let extra @ 1.. = payload.len() - r.pos {
        return Err(malformed(format!("{extra} trailing payload bytes")));
    }
    for (k, slab) in snap.slabs.iter().enumerate() {
        let Some(s) = &slab.schedule else { continue };
        if !(s.dt_max.is_finite() && s.dt_max > 0.0) {
            return Err(malformed(format!("slab {k}: schedule dt_max {}", s.dt_max)));
        }
        if s.levels.len() > slab.particles.len() {
            let n = slab.particles.len();
            let why = format!(
                "slab {k}: {} schedule levels for {n} particles",
                s.levels.len()
            );
            return Err(malformed(why));
        }
        if let Some(deep) = s.levels.iter().find(|&&l| l >= u64::BITS) {
            return Err(malformed(format!("slab {k}: schedule level {deep}")));
        }
    }
    Ok(snap)
}

/// The codecs of the module docs: the binary envelope on disk, and its
/// JSON rendering.
impl SimSnapshot {
    /// Serialize to the compact binary format (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        SNAPSHOT_VERSION.put(&mut out);
        0u64.put(&mut out); // payload length, patched once the payload is written
        self.put(&mut out);
        let payload_len = (out.len() - HEADER_LEN) as u64;
        out[12..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        fnv1a(&out[HEADER_LEN..]).put(&mut out);
        out
    }

    /// Decode the binary format, verifying magic, version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN || bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = BinReader { b: bytes, pos: 8 };
        check_version(u32::get(&mut r)?)?;
        // The length is untrusted: `len` bounds it by the bytes present.
        let payload_len = r.len()?;
        let payload = r.bytes(payload_len)?;
        let (stored, computed) = (u64::get(&mut r)?, fnv1a(payload));
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        from_payload(payload)
    }

    /// Render as JSON (see the module docs): what `asura inspect` prints.
    /// Never written to a checkpoint rotation.
    pub fn to_json(&self) -> String {
        let mut payload = Vec::new();
        self.put(&mut payload);
        let value = to_value(&Self::TY, &mut BinReader::new(&payload));
        #[expect(
            clippy::expect_used,
            reason = "decodes the bytes `put` just wrote from `TY`, never input; \
                      only `asura inspect` and tests call it"
        )]
        let value = value.expect("`put` writes what `TY` describes");
        let state = value.render();
        let checksum = Json::checksum(fnv1a(state.as_bytes()));
        Json::obj([
            ("format", SNAPSHOT_FORMAT.into()),
            ("version", Json::Num(SNAPSHOT_VERSION as f64)),
            ("state", Json::Raw(state)),
            ("checksum", checksum),
        ])
        .render()
    }

    /// Decode a JSON rendering, verifying the document type, version and
    /// checksum. No resume path calls it: it is the decoder of the format
    /// fixtures (`crates/core/fixtures/`), and kept because callers
    /// measure the rendering's round trip.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let doc = parse_json(text).map_err(|_| SnapshotError::BadMagic)?;
        if !matches!(doc.get("format"), Ok(Json::Str(f)) if f == SNAPSHOT_FORMAT) {
            return Err(SnapshotError::BadMagic);
        }
        let field = |key: &str| doc.get(key).map_err(malformed);
        check_version(doc.at("version", Json::as_u32).map_err(malformed)?)?;
        // The checksum is defined over the rendering of the *parsed*
        // state, so key order and whitespace of the text do not matter.
        let computed = fnv1a(field("state")?.render().as_bytes());
        let stored = doc.at("checksum", Json::as_checksum).map_err(malformed)?;
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut payload = Vec::new();
        from_value(&Self::TY, field("state")?, &mut payload)?;
        from_payload(&payload)
    }

    /// Load a binary snapshot file. A JSON rendering is not a checkpoint:
    /// it fails here with [`SnapshotError::BadMagic`].
    pub fn load(path: &std::path::Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A one-slab snapshot, as `Simulation::snapshot` writes them.
    fn random_snapshot(seed: u64, n: usize) -> SimSnapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        let rv3 = |rng: &mut StdRng| {
            Vec3::new(
                rng.gen_range(-1.0e3..1.0e3),
                rng.gen_range(-1.0e3..1.0e3),
                rng.gen_range(-1.0e3..1.0e3),
            )
        };
        let particles: Vec<Particle> = (0..n)
            .map(|i| {
                let kind = match rng.gen_range(0..3u32) {
                    0 => Kind::Dm,
                    1 => Kind::Star,
                    _ => Kind::Gas,
                };
                Particle {
                    id: i as u64,
                    kind,
                    pos: rv3(&mut rng),
                    vel: rv3(&mut rng),
                    mass: rng.gen_range(0.1..100.0),
                    u: rng.gen_range(0.0..1.0e6),
                    h: rng.gen_range(1.0e-3..10.0),
                    rho: rng.gen_range(0.0..50.0),
                    metals: rng.gen_range(0.0..1.0),
                    birth_time: rng.gen_range(-500.0..500.0),
                    exploded: rng.gen_bool(0.2),
                }
            })
            .collect();
        let pending = (0..rng.gen_range(0..3usize))
            .map(|_| PendingPrediction {
                due_step: rng.gen::<u32>() as u64,
                predicted: (0..rng.gen_range(1..5usize))
                    .map(|j| GasParticle {
                        pos: rv3(&mut rng),
                        vel: rv3(&mut rng),
                        mass: rng.gen_range(0.1..10.0),
                        temp: rng.gen_range(10.0..1.0e8),
                        h: rng.gen_range(0.1..5.0),
                        id: j as u64,
                    })
                    .collect(),
            })
            .collect();
        SimSnapshot {
            config: SimConfig {
                scheme: if seed.is_multiple_of(2) {
                    Scheme::Surrogate
                } else {
                    Scheme::Conventional
                },
                timestep: if seed.is_multiple_of(3) {
                    TimestepMode::Global
                } else {
                    TimestepMode::Block {
                        max_level: rng.gen_range(1..12u32),
                    }
                },
                snapshot_every: rng.gen_range(0..10u64),
                seed: rng.gen(), // full-range u64
                ..Default::default()
            },
            time: rng.gen_range(0.0..100.0),
            step_count: rng.gen::<u32>() as u64,
            model: if seed.is_multiple_of(3) {
                Some(ModelState {
                    seed: rng.gen(), // full-range u64 (exercises the "u64:" JSON fallback)
                    weights_json: format!(
                        "{{\"format\":\"asura-surrogate-model\",\"fake\":{}}}",
                        rng.gen_range(0..1000u32)
                    ),
                })
            } else {
                None
            },
            next_id: n as u64,
            slabs: vec![SlabRecord {
                stats: SimStats {
                    steps: rng.gen::<u32>() as u64,
                    dt_min_seen: if seed.is_multiple_of(4) {
                        f64::INFINITY // a fresh run's sentinel must survive
                    } else {
                        rng.gen_range(1e-9..1e-2)
                    },
                    gravity_interactions: rng.gen(), // full-range u64
                    ..Default::default()
                },
                last_vsig: (0..n / 3)
                    .map(|i| (i as u64, rng.gen_range(0.0..1e4), rng.gen_range(1e-3..10.0)))
                    .collect(),
                pending,
                schedule: if seed.is_multiple_of(2) {
                    Some(ScheduleState {
                        dt_max: rng.gen_range(1e-4..1.0),
                        levels: (0..n).map(|_| rng.gen_range(0..10u32)).collect(),
                    })
                } else {
                    None
                },
                particles,
            }],
        }
    }

    #[test]
    fn binary_roundtrip_is_exact_and_reserialization_is_byte_identical() {
        for seed in 0..8u64 {
            let snap = random_snapshot(seed, 40);
            let bytes = snap.to_bytes();
            let back = SimSnapshot::from_bytes(&bytes).expect("roundtrip");
            assert_eq!(back, snap, "seed {seed}");
            assert_eq!(back.to_bytes(), bytes, "seed {seed}: reserialize differs");
        }
    }

    #[test]
    fn json_roundtrip_is_exact_and_reserialization_is_byte_identical() {
        for seed in 0..8u64 {
            let snap = random_snapshot(seed, 25);
            let text = snap.to_json();
            let back = SimSnapshot::from_json(&text).expect("roundtrip");
            assert_eq!(back, snap, "seed {seed}");
            assert_eq!(back.to_json(), text, "seed {seed}: reserialize differs");
        }
    }

    #[test]
    fn corrupted_binary_payload_is_rejected_not_panicked() {
        let snap = random_snapshot(1, 20);
        let mut bytes = snap.to_bytes();
        // Flip one payload byte (past the 20-byte header).
        let k = 20 + bytes.len() / 2;
        bytes[k] ^= 0x40;
        match SimSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::ChecksumMismatch { .. }) | Err(SnapshotError::Malformed(_)) => {}
            other => panic!("corrupted snapshot must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn truncated_binary_is_rejected() {
        let snap = random_snapshot(2, 10);
        let bytes = snap.to_bytes();
        for cut in [0, 4, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        assert!(SimSnapshot::from_bytes(b"not a snapshot at all").is_err());
    }

    #[test]
    fn wrong_version_is_rejected_with_the_found_version() {
        let snap = random_snapshot(3, 5);
        let mut bytes = snap.to_bytes();
        bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
        match SimSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 999);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn tampered_json_state_fails_the_checksum() {
        let snap = random_snapshot(4, 8);
        let text = snap.to_json();
        // Tamper with a state value without touching the checksum field.
        let tampered = text.replacen("\"time\":", "\"time_x\":", 1);
        assert_ne!(tampered, text);
        match SimSnapshot::from_json(&tampered) {
            Err(SnapshotError::ChecksumMismatch { .. }) | Err(SnapshotError::Malformed(_)) => {}
            other => panic!("tampered JSON must be rejected, got {other:?}"),
        }
        // Wrong version in JSON.
        let vx = text.replacen(
            &format!("\"version\":{SNAPSHOT_VERSION}"),
            "\"version\":42",
            1,
        );
        assert!(matches!(
            SimSnapshot::from_json(&vx),
            Err(SnapshotError::UnsupportedVersion { found: 42, .. })
        ));
        // Entirely foreign JSON.
        assert_eq!(
            SimSnapshot::from_json("{\"hello\": 1}"),
            Err(SnapshotError::BadMagic)
        );
    }

    /// A several-slab snapshot, as the distributed gather writes them: the
    /// one-slab snapshot's particles dealt out in chunks of 7, a schedule on
    /// every slab or none.
    fn random_dist_snapshot(seed: u64) -> SimSnapshot {
        let mut snap = random_snapshot(seed, 30);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(77).wrapping_add(5));
        let base = snap.slabs.remove(0);
        let mut pending = base.pending.into_iter();
        let mut vsig = base.last_vsig.chunks(2);
        for (rank, chunk) in base.particles.chunks(7).enumerate() {
            snap.slabs.push(SlabRecord {
                particles: chunk.to_vec(),
                last_vsig: vsig.next().map(|c| c.to_vec()).unwrap_or_default(),
                pending: pending.next().into_iter().collect(),
                schedule: base.schedule.as_ref().map(|_| ScheduleState {
                    dt_max: rng.gen_range(1e-4..1.0),
                    levels: chunk.iter().map(|_| rng.gen_range(0..10u32)).collect(),
                }),
                stats: SimStats {
                    steps: 17,
                    substeps: rank as u64 * 3,
                    ..base.stats
                },
            });
        }
        snap.step_count = 17;
        snap
    }

    /// What the formats this one replaced look like to the decoder, in
    /// both encodings: the retired distributed kind (`ASURDSNP` /
    /// `asura-dist-snapshot`, last at v5) and a v3 shared-memory file.
    fn retired_files(current: &SimSnapshot) -> [(Vec<u8>, SnapshotError); 4] {
        let unsupported = |found| SnapshotError::UnsupportedVersion {
            found,
            supported: SNAPSHOT_VERSION,
        };
        let mut dist_bin = current.to_bytes();
        dist_bin[..8].copy_from_slice(b"ASURDSNP");
        dist_bin[8..12].copy_from_slice(&5u32.to_le_bytes());
        let mut v3_bin = current.to_bytes();
        v3_bin[8..12].copy_from_slice(&3u32.to_le_bytes());
        let json = current.to_json();
        let stamp = format!("\"version\":{SNAPSHOT_VERSION}.0");
        let dist_json = json
            .replacen("asura-snapshot", "asura-dist-snapshot", 1)
            .replacen(&stamp, "\"version\":5.0", 1);
        let v3_json = json.replacen(&stamp, "\"version\":3.0", 1);
        assert!(dist_json != json && v3_json != json && dist_json != v3_json);
        [
            (dist_bin, SnapshotError::BadMagic),
            (v3_bin, unsupported(3)),
            (dist_json.into_bytes(), SnapshotError::BadMagic),
            (v3_json.into_bytes(), unsupported(3)),
        ]
    }

    #[test]
    fn dist_snapshot_binary_roundtrip_and_rejection() {
        let snap = random_dist_snapshot(6);
        assert!(snap.slabs.len() > 2 && snap.slabs.iter().all(|s| s.schedule.is_some()));
        let bytes = snap.to_bytes();
        assert_eq!(SimSnapshot::from_bytes(&bytes).expect("roundtrip"), snap);
        assert_eq!(SimSnapshot::from_bytes(&bytes).unwrap().to_bytes(), bytes);
        let mut corrupt = bytes.clone();
        let k = 20 + corrupt.len() / 3;
        corrupt[k] ^= 1;
        assert!(matches!(
            SimSnapshot::from_bytes(&corrupt),
            Err(SnapshotError::ChecksumMismatch { .. }) | Err(SnapshotError::Malformed(_))
        ));
        // A v3 file, a v5 file and the `ASURDSNP` magic are typed
        // refusals, not a panic.
        let [(dist, bad_magic), (v3, unsupported), ..] = retired_files(&snap);
        assert_eq!(SimSnapshot::from_bytes(&dist), Err(bad_magic));
        assert_eq!(SimSnapshot::from_bytes(&v3), Err(unsupported));
    }

    #[test]
    fn dist_snapshot_json_roundtrip_and_rejection() {
        for seed in [6u64, 7] {
            let snap = random_dist_snapshot(seed);
            let text = snap.to_json();
            let back = SimSnapshot::from_json(&text).expect("roundtrip");
            assert_eq!(back, snap, "seed {seed}");
            assert_eq!(back.to_json(), text, "seed {seed}: reserialize differs");
        }
        let snap = random_dist_snapshot(6);
        let text = snap.to_json();
        assert_eq!(
            SimSnapshot::from_json(&snap.slabs.len().to_string()),
            Err(SnapshotError::BadMagic)
        );
        let tampered = text.replacen("\"step_count\":17", "\"step_count\":18", 1);
        assert_ne!(tampered, text, "test must actually tamper");
        assert!(matches!(
            SimSnapshot::from_json(&tampered),
            Err(SnapshotError::ChecksumMismatch { .. }) | Err(SnapshotError::Malformed(_))
        ));
        let [.., (dist, bad_magic), (v3, unsupported)] = retired_files(&snap);
        let text = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).unwrap();
        assert_eq!(SimSnapshot::from_json(&text(&dist)), Err(bad_magic));
        assert_eq!(SimSnapshot::from_json(&text(&v3)), Err(unsupported));
    }

    #[test]
    fn dist_snapshot_load_refuses_json_and_retired_files() {
        let snap = random_dist_snapshot(8);
        let dir = std::env::temp_dir();
        let bin_path = dir.join("asura_dist_snapshot_load_test.bin");
        let json_path = dir.join("asura_dist_snapshot_load_test.json");
        std::fs::write(&bin_path, snap.to_bytes()).unwrap();
        std::fs::write(&json_path, snap.to_json()).unwrap();
        assert_eq!(SimSnapshot::load(&bin_path).expect("binary load"), snap);
        assert_eq!(SimSnapshot::load(&json_path), Err(SnapshotError::BadMagic));
        // An old version behind the magic is refused by its version; a
        // foreign magic, or a JSON rendering of any kind, by the magic.
        for (bytes, refusal) in retired_files(&snap) {
            std::fs::write(&bin_path, &bytes).unwrap();
            let got = SimSnapshot::load(&bin_path).expect_err("a retired format");
            let magic = bytes.starts_with(&SNAPSHOT_MAGIC);
            assert_eq!(
                got,
                if magic {
                    refusal
                } else {
                    SnapshotError::BadMagic
                }
            );
        }
        let _ = std::fs::remove_file(&bin_path);
        let _ = std::fs::remove_file(&json_path);
    }

    #[test]
    fn load_reads_binary_and_refuses_json_files() {
        let snap = random_snapshot(5, 12);
        let dir = std::env::temp_dir();
        let bin_path = dir.join("asura_snapshot_load_test.bin");
        let json_path = dir.join("asura_snapshot_load_test.json");
        std::fs::write(&bin_path, snap.to_bytes()).unwrap();
        std::fs::write(&json_path, snap.to_json()).unwrap();
        assert_eq!(SimSnapshot::load(&bin_path).expect("binary load"), snap);
        assert_eq!(SimSnapshot::load(&json_path), Err(SnapshotError::BadMagic));
        assert!(matches!(
            SimSnapshot::load(&dir.join("asura_snapshot_missing_file")),
            Err(SnapshotError::Io(_))
        ));
        let _ = std::fs::remove_file(&bin_path);
        let _ = std::fs::remove_file(&json_path);
    }

    // -- format stability ---------------------------------------------------

    /// Fixed snapshots behind the format-stability goldens: model-bearing,
    /// a region pending, a block schedule, a non-finite float and `u64`
    /// values above 2^53 all present.
    fn golden_sim() -> SimSnapshot {
        let mut s = random_snapshot(12, 16);
        s.config.timestep = TimestepMode::Block { max_level: 9 };
        s.slabs[0].pending.push(PendingPrediction {
            due_step: 77,
            predicted: vec![GasParticle {
                pos: Vec3::new(1.5, -2.25, 3.0),
                vel: Vec3::new(-0.5, 0.125, 8.0),
                mass: 1.0,
                temp: 1.0e7,
                h: 0.75,
                id: u64::MAX - 3,
            }],
        });
        s
    }

    /// The several-slab golden (what a distributed run gathers).
    fn golden_dist() -> SimSnapshot {
        let mut d = random_dist_snapshot(12);
        d.config.timestep = TimestepMode::Block { max_level: 9 };
        d.slabs[0].particles[0].u = f64::INFINITY;
        d.slabs[0].particles[1].id = u64::MAX - 7;
        let mut region = golden_sim().slabs.remove(0).pending.pop().unwrap();
        region.due_step = 91;
        region.predicted[0].pos.y = f64::NEG_INFINITY;
        d.slabs[2].pending.push(region);
        d
    }

    /// `fnv1a(to_bytes())` of the goldens, recorded with v5 (the seed in
    /// the config, `next_id` at run level). A mismatch means the binary
    /// layout changed: bump the version, then refresh these.
    #[test]
    fn binary_encoding_reproduces_the_recorded_goldens() {
        let s = golden_sim();
        let slab = &s.slabs[0];
        assert!(s.model.is_some() && s.slabs.len() == 1 && s.config.seed > 1 << 53);
        assert!(slab.schedule.is_some() && !slab.pending.is_empty());
        assert!(slab.stats.dt_min_seen.is_infinite());
        assert_eq!(s.to_bytes().len(), 2796);
        assert_eq!(fnv1a(&s.to_bytes()), 0x68a2_c2a3_1f69_3c61, "one slab, v5");
        let d = golden_dist();
        assert!(d.model.is_some() && d.slabs.len() > 2);
        assert!(d.slabs.iter().all(|slab| slab.schedule.is_some()));
        assert!(d.slabs.iter().any(|slab| !slab.pending.is_empty()));
        assert!(d.slabs.iter().any(|slab| !slab.last_vsig.is_empty()));
        assert_eq!(d.to_bytes().len(), 5036);
        assert_eq!(
            fnv1a(&d.to_bytes()),
            0x1750_dd88_3f3b_cdd5,
            "several slabs, v5"
        );
        assert_eq!(SNAPSHOT_VERSION, 5);
    }

    /// The fixtures are the goldens as rendered by the commit that last
    /// changed the layout (its key order, its envelope): they must keep
    /// decoding to the same values.
    #[test]
    fn json_fixtures_rendered_before_the_schema_decode_to_equal_values() {
        let sim = include_str!("../fixtures/sim_snapshot_v5.json");
        assert_eq!(
            SimSnapshot::from_json(sim).expect("one-slab fixture"),
            golden_sim()
        );
        let dist = include_str!("../fixtures/slabs_snapshot_v5.json");
        assert_eq!(
            SimSnapshot::from_json(dist).expect("several-slab fixture"),
            golden_dist()
        );
    }

    // -- hostile input --------------------------------------------------------

    #[test]
    fn hostile_payload_length_is_malformed_not_a_panic() {
        let mut hostile = SNAPSHOT_MAGIC.to_vec();
        hostile.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        hostile.extend_from_slice(&(u64::MAX - 25).to_le_bytes());
        hostile.extend_from_slice(&[0; 16]);
        let got = SimSnapshot::from_bytes(&hostile);
        assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{got:?}");
    }

    /// Recompute the checksum of a JSON snapshot whose state was edited.
    fn resealed(text: &str) -> String {
        let doc = parse_json(text).unwrap();
        let (Json::Str(format), Json::Num(version)) =
            (doc.get("format").unwrap(), doc.get("version").unwrap())
        else {
            panic!("not a snapshot document")
        };
        let state = doc.get("state").unwrap().render();
        format!(
            "{{\"format\":\"{format}\",\"version\":{version:?},\"state\":{state},\
             \"checksum\":\"fnv1a:{:016x}\"}}",
            fnv1a(state.as_bytes())
        )
    }

    fn edited(text: &str, from: &str, to: &str) -> String {
        let out = text.replacen(from, to, 1);
        assert_ne!(out, text, "`{from}` not found");
        resealed(&out)
    }

    #[test]
    fn json_version_beyond_u32_is_not_truncated_into_range() {
        // 2^32 + VERSION used to truncate to VERSION and be accepted.
        let wide = (1u64 << 32) + SNAPSHOT_VERSION as u64;
        for golden in [golden_sim(), golden_dist()] {
            let widened = edited(
                &golden.to_json(),
                &format!("\"version\":{SNAPSHOT_VERSION}.0"),
                &format!("\"version\":{wide}.0"),
            );
            let got = SimSnapshot::from_json(&widened);
            assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{got:?}");
        }
    }

    #[test]
    fn json_max_level_beyond_u32_is_malformed() {
        let text = golden_sim().to_json();
        let bad = edited(&text, "\"max_level\":9.0", "\"max_level\":4294967305.0");
        let got = SimSnapshot::from_json(&bad);
        assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{got:?}");
        // The edit itself is sound: an in-range value decodes.
        let ok = edited(&text, "\"max_level\":9.0", "\"max_level\":10.0");
        let ok = SimSnapshot::from_json(&ok).expect("in-range edit");
        assert_eq!(ok.config.timestep, TimestepMode::Block { max_level: 10 });
    }

    #[test]
    fn json_schedule_level_beyond_u32_is_malformed() {
        for golden in [golden_sim(), golden_dist()] {
            let text = golden.to_json();
            let wide = edited(&text, "\"levels\":[", "\"levels\":[4294967296.0,");
            let got = SimSnapshot::from_json(&wide);
            assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{got:?}");
        }
    }

    /// A star spawned after the base step's level assignment leaves its
    /// slab a level short — a checkpoint a resume must take; a level more
    /// than the slab has particles is not one.
    #[test]
    fn a_schedule_may_fall_short_of_its_slab_but_not_exceed_it() {
        let mut s = golden_sim();
        let spawned = s.slabs[0].particles[0];
        s.slabs[0].particles.push(spawned);
        assert_eq!(SimSnapshot::from_bytes(&s.to_bytes()).as_ref(), Ok(&s));
        let levels = &mut s.slabs[0].schedule.as_mut().unwrap().levels;
        levels.extend([0, 0]);
        let got = SimSnapshot::from_bytes(&s.to_bytes());
        assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{got:?}");
    }

    // -- schema coverage -----------------------------------------------------

    /// Byte ranges of every scalar of a `ty` value at `r`, by the schema.
    fn scalars(ty: &Ty, r: &mut BinReader, out: &mut Vec<(usize, Ty)>) {
        let at = r.pos;
        match *ty {
            Ty::U32 => drop(u32::get(r).unwrap()),
            Ty::U64 | Ty::F64 => drop(u64::get(r).unwrap()),
            Ty::Bool | Ty::Tag { .. } => drop(r.u8().unwrap()),
            Ty::Str => drop(String::get(r).unwrap()),
            Ty::Timestep => {
                out.push((
                    at,
                    Ty::Tag {
                        names: TIMESTEP_MODE_NAMES,
                        by_name: true,
                    },
                ));
                r.u8().unwrap();
                return scalars(&Ty::U32, r, out);
            }
            Ty::Record { fields, .. } => {
                return fields.iter().for_each(|(_, ty)| scalars(ty, r, out));
            }
            Ty::Tuple(parts) => return parts.iter().for_each(|ty| scalars(ty, r, out)),
            Ty::List(elem) => return (0..r.len().unwrap()).for_each(|_| scalars(elem, r, out)),
            Ty::Option(inner) => {
                if r.u8().unwrap() == 1 {
                    scalars(inner, r, out);
                }
                return;
            }
        }
        out.push((at, *ty));
    }

    /// Perturbing any one scalar the schema walks — located in the binary
    /// payload by the schema itself, so the test cannot fall behind it —
    /// yields a different value whose binary *and* JSON encodings differ.
    /// (Needs block mode: global mode's `max_level` word is read by nothing.)
    fn every_scalar_reaches_both_encodings(snap: &SimSnapshot) {
        let bytes = snap.to_bytes();
        let json = snap.to_json();
        let payload = &bytes[HEADER_LEN..bytes.len() - 8];
        let mut found = Vec::new();
        let mut r = BinReader { b: payload, pos: 0 };
        scalars(&SimSnapshot::TY, &mut r, &mut found);
        assert_eq!(r.pos, payload.len(), "schema covers the whole payload");
        assert!(found.len() > 100, "a fully populated snapshot");
        for (at, ty) in found {
            let mut perturbed = payload.to_vec();
            match ty {
                Ty::Tag { names, .. } => perturbed[at] = (perturbed[at] + 1) % names.len() as u8,
                Ty::Str => perturbed[at + 8] ^= 1,
                _ => perturbed[at] ^= 1,
            }
            let other = from_payload(&perturbed).expect("perturbed payload decodes");
            assert_ne!(&other, snap, "{ty:?} at payload byte {at}");
            assert_ne!(
                other.to_bytes(),
                bytes,
                "{ty:?} at payload byte {at}: binary"
            );
            assert_ne!(other.to_json(), json, "{ty:?} at payload byte {at}: JSON");
        }
    }

    #[test]
    fn schema_covers_every_scalar_in_both_encodings() {
        every_scalar_reaches_both_encodings(&golden_sim());
        every_scalar_reaches_both_encodings(&golden_dist());
    }
}
