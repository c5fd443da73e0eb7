//! Simulation configuration, and how its option values are spelled.

use std::fmt;
use std::str::FromStr;

/// Which SN-handling scheme drives the timestep (paper §3.2 vs §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Fixed global timestep; SN regions handled by the surrogate with a
    /// 50-step latency.
    Surrogate,
    /// Direct thermal injection; CFL-adaptive shared timestep.
    Conventional,
}

/// How the integrator advances time within one global step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimestepMode {
    /// One shared timestep for every particle (the paper's §3.2 loop; in
    /// the conventional scheme the shared dt is CFL-adaptive, §5.3).
    Global,
    /// Hierarchical block (power-of-two individual) timesteps: particles
    /// are binned into levels below the base step and only the active
    /// subset is updated per fine substep — the conventional machinery the
    /// paper's surrogate scheme replaces (§1, §5.3). Levels are capped at
    /// `max_level`, i.e. the finest substep is `dt_global / 2^max_level`.
    Block { max_level: u32 },
}

/// The spellings of [`Scheme`], indexed by variant — what `--scheme`, the
/// `scheme` override and the snapshot tag all read and write.
pub(crate) const SCHEME_NAMES: &[&str] = &["surrogate", "conventional"];

/// The spellings of [`TimestepMode`]'s two modes (`block` may carry a
/// `:<max_level>` suffix).
pub(crate) const TIMESTEP_MODE_NAMES: &[&str] = &["global", "block"];

/// `max_level` of a bare `block`.
const DEFAULT_MAX_LEVEL: u32 = 8;

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(SCHEME_NAMES[*self as usize])
    }
}

impl FromStr for Scheme {
    type Err = String;
    fn from_str(s: &str) -> Result<Scheme, String> {
        match SCHEME_NAMES.iter().position(|n| *n == s) {
            Some(0) => Ok(Scheme::Surrogate),
            Some(_) => Ok(Scheme::Conventional),
            None => Err(format!(
                "unknown scheme `{s}` (expected {})",
                SCHEME_NAMES.join(" | ")
            )),
        }
    }
}

/// `global`, or `block:<max_level>` — always with the level, so a value
/// that was spelled `block` reads back the same after a round trip.
impl fmt::Display for TimestepMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimestepMode::Global => f.write_str(TIMESTEP_MODE_NAMES[0]),
            TimestepMode::Block { max_level } => {
                write!(f, "{}:{max_level}", TIMESTEP_MODE_NAMES[1])
            }
        }
    }
}

impl FromStr for TimestepMode {
    type Err = String;
    fn from_str(s: &str) -> Result<TimestepMode, String> {
        let (mode, level) = match s.split_once(':') {
            Some((mode, level)) => (mode, Some(level)),
            None => (s, None),
        };
        match (TIMESTEP_MODE_NAMES.iter().position(|n| *n == mode), level) {
            (Some(0), None) => Ok(TimestepMode::Global),
            (Some(1), None) => Ok(TimestepMode::Block {
                max_level: DEFAULT_MAX_LEVEL,
            }),
            (Some(1), Some(level)) => match level.parse() {
                Ok(max_level) => Ok(TimestepMode::Block { max_level }),
                Err(e) => Err(format!("timestep `{s}`: bad max_level: {e}")),
            },
            _ => Err(format!(
                "unknown timestep mode `{s}` (expected global | block | block:<max_level>)"
            )),
        }
    }
}

/// Driver parameters; defaults follow the paper where it gives numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    pub scheme: Scheme,
    /// Timestep hierarchy driving the conventional scheme's integration
    /// loop. The surrogate scheme ignores this under either driver: its
    /// whole point is the fixed global step, so it never leaves `Global`
    /// mode.
    pub timestep: TimestepMode,
    /// Global timestep \[Myr\] (paper: 2,000 yr = 2e-3 Myr).
    pub dt_global: f64,
    /// Barnes–Hut opening angle.
    pub theta: f64,
    /// Gravity group size (paper `n_g`): at most this many targets share
    /// one tree walk and one interaction list. Larger groups make fewer
    /// walks but longer lists, opened against the whole group's box, so
    /// every member sees more interactions, each at least as accurate. The
    /// best value depends on the walk's cost against the kernel's:
    /// `force_pipeline` records the curve (`BENCH_force.json`'s
    /// `n_group_sweep`), and the galaxy scenarios take 256 from it. The
    /// lattice scenarios keep the default, 64: on their IC a larger group
    /// raises the max force error (`tests/force_accuracy.rs`). Rides the
    /// snapshot, so a resume keeps its checkpoint's value.
    pub n_group: usize,
    /// Gravitational softening \[pc\].
    pub eps: f64,
    /// SPH target neighbour count.
    pub n_ngb: usize,
    /// SN region cube side \[pc\] (paper: 60).
    pub region_side: f64,
    /// Steps of pool-node latency (paper: 50; the prediction horizon
    /// `50 * dt_global` = 0.1 Myr at the paper's dt).
    pub pool_latency_steps: usize,
    /// Enable radiative cooling/heating.
    pub cooling: bool,
    /// Enable star formation.
    pub star_formation: bool,
    /// Courant factor for the conventional scheme.
    pub cfl: f64,
    /// Floor on the adaptive timestep \[Myr\].
    pub dt_min: f64,
    /// Evaluate gravity with the mixed-precision kernel
    /// ([`gravity::GravitySolver::mixed_precision`]): f32 interaction
    /// arithmetic on group-relative coordinates, ~3.5× cheaper per
    /// interaction than f64, for a force error the tree's opening-angle
    /// error swamps. Off by default; every registered scenario sets it,
    /// gated by `tests/force_accuracy.rs`. It rides the snapshot, so a
    /// resumed run keeps the kernel it started on.
    pub mixed_precision: bool,
    /// Star-formation density threshold \[M_sun/pc^3\]. The paper-physical
    /// value (~3.2, i.e. ~100 cm^-3) suits star-by-star resolution;
    /// coarse-resolution runs lower it.
    pub sf_rho_min: f64,
    /// Star-formation temperature ceiling \[K\].
    pub sf_t_max: f64,
    /// Star-formation efficiency per free-fall time.
    pub sf_efficiency: f64,
    /// Checkpoint cadence in steps: every `snapshot_every`-th completed
    /// step [`Simulation::run_with_store`](crate::sim::Simulation::run_with_store)
    /// commits a [`SimSnapshot`](crate::snapshot::SimSnapshot) into its
    /// store (the distributed driver's cadence is
    /// [`DistConfig::snapshot_every`](crate::dist::DistConfig), its
    /// checkpoints go to [`dist::run`](crate::dist::run)'s hook). `0`
    /// disables periodic checkpointing.
    pub snapshot_every: u64,
    /// Key of the run's random draws: a star-formation draw is a function
    /// of `(seed, particle id, step)` alone (`core::step`), so it rides the
    /// checkpoint and one value serves every slab.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheme: Scheme::Surrogate,
            timestep: TimestepMode::Global,
            dt_global: 2.0e-3,
            theta: 0.5,
            n_group: 64,
            eps: 3.0,
            n_ngb: 32,
            region_side: 60.0,
            pool_latency_steps: 50,
            cooling: true,
            star_formation: true,
            cfl: 0.3,
            dt_min: 1.0e-6,
            mixed_precision: false,
            sf_rho_min: 3.2,
            sf_t_max: 100.0,
            sf_efficiency: 0.02,
            snapshot_every: 0,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// Prediction horizon of the surrogate \[Myr\].
    pub fn horizon(&self) -> f64 {
        self.pool_latency_steps as f64 * self.dt_global
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.dt_global, 2.0e-3); // 2,000 yr
        assert_eq!(c.timestep, TimestepMode::Global);
        assert_eq!(c.pool_latency_steps, 50);
        assert_eq!(c.region_side, 60.0);
        // 50 steps * 2,000 yr = 0.1 Myr, the paper's prediction horizon.
        assert!((c.horizon() - 0.1).abs() < 1e-12);
    }
    /// Every option value, through the one `FromStr` + `Display` pair its
    /// type carries: what the CLI flags, the supervisor's flag forwarding,
    /// the `SUBMIT` overrides and `fleet.json` all read and write.
    #[test]
    fn every_option_value_round_trips_through_its_spelling() {
        use crate::dist::PredictorSpec;
        fn check<T>(spelled: &str, value: T, rendered: &str)
        where
            T: FromStr<Err = String> + fmt::Display + PartialEq + fmt::Debug,
        {
            assert_eq!(spelled.parse::<T>().as_ref(), Ok(&value), "`{spelled}`");
            assert_eq!(value.to_string(), rendered, "{value:?}");
            assert_eq!(rendered.parse::<T>(), Ok(value), "`{rendered}` reads back");
        }
        check("surrogate", Scheme::Surrogate, "surrogate");
        check("conventional", Scheme::Conventional, "conventional");
        check("global", TimestepMode::Global, "global");
        check("block", TimestepMode::Block { max_level: 8 }, "block:8");
        check("block:8", TimestepMode::Block { max_level: 8 }, "block:8");
        check("block:0", TimestepMode::Block { max_level: 0 }, "block:0");
        check(
            "block:12",
            TimestepMode::Block { max_level: 12 },
            "block:12",
        );
        check("sedov", PredictorSpec::Sedov, "sedov");
        check(
            "unet:results/w.json",
            PredictorSpec::UNet("results/w.json".into()),
            "unet:results/w.json",
        );
        check(
            "unet:unet:odd",
            PredictorSpec::UNet("unet:odd".into()),
            "unet:unet:odd",
        );
        assert!("warp".parse::<Scheme>().is_err());
        assert!("Surrogate".parse::<Scheme>().is_err());
        for bad in [
            "",
            "blocks",
            "block:",
            "block:x",
            "block:-1",
            "global:3",
            "block:1:2",
        ] {
            assert!(bad.parse::<TimestepMode>().is_err(), "`{bad}`");
        }
        for bad in ["", "unet", "unet:", "sedov:x", "weights.json"] {
            assert!(bad.parse::<PredictorSpec>().is_err(), "`{bad}`");
        }
    }
}
