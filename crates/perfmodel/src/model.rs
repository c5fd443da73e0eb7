//! The per-step phase cost model.
//!
//! Each phase of the paper's breakdown (Table 3 / Figures 6–7) gets an
//! analytic cost with the functional form the paper derives, with software
//! constants calibrated once at the published anchor point: the
//! 148,896-node weakMW2M step (Table 3). Work terms use the counted
//! operations per interaction (27/73/101) and the paper's *measured
//! phase-level* efficiencies, which fold in imbalance and list overheads on
//! top of the asymptotic kernel numbers of Table 4.

use crate::machine::Machine;
use pikg::kernels::{PAPER_DENSITY_OPS, PAPER_GRAVITY_OPS, PAPER_HYDRO_OPS};

/// One run configuration to model.
#[derive(Debug, Clone, Copy)]
pub struct RunPoint {
    /// Total particles.
    pub n_tot: f64,
    /// Gas fraction of the particle count.
    pub gas_frac: f64,
    /// Main nodes (one MPI process per node, as on Fugaku).
    pub p: usize,
    /// Interaction-list group size.
    pub n_g: usize,
}

impl RunPoint {
    /// The paper's anchor: weakMW2M on the full Fugaku partition.
    pub fn weak_mw2m_anchor() -> RunPoint {
        RunPoint {
            n_tot: 3.0e11,
            gas_frac: 4.9e10 / 3.0e11,
            p: 148_896,
            n_g: 2048,
        }
    }

    pub fn n_loc(&self) -> f64 {
        self.n_tot / self.p as f64
    }
}

/// Calibrated software constants (defaults anchored to Table 3; see each
/// field's comment for the anchored value it reproduces).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Interaction-list length multiplier: `n_l = alpha (log2 N + n_g)`.
    /// From the anchor's gravity FLOP count (1.47e17 per step).
    pub alpha_list: f64,
    /// Hydro candidate-list multiplier over the neighbour count.
    pub beta_hydro_list: f64,
    /// SPH neighbour target.
    pub n_ngb: f64,
    /// Seconds per particle-level tree-build operation on Fugaku
    /// (random-access bound; anchors "Tree construction 0.96 s").
    pub tree_op_s: f64,
    /// Seconds per remote rank of LET construction + messaging at the
    /// anchor's tree depth (anchors "LET Exchange gravity 3.89 s" at
    /// 148,896 ranks: 3.89 / 148,895 = 2.6e-5).
    pub let_build_s: f64,
    /// Effective bytes shipped per surface particle during LET exchange.
    pub let_surface_bytes: f64,
    /// Seconds of domain-decomposition bookkeeping per rank
    /// (anchors "Particle exchange 3.87 s").
    pub dd_per_rank_s: f64,
    /// Fraction of local particles migrating per step.
    pub migrate_frac: f64,
    /// Phase-level efficiency of the gravity force phase (paper: 9.9 %
    /// of SP peak at the anchor — lower than Table 4's kernel-only 29.4 %
    /// because of imbalance and list assembly).
    pub phase_eff_gravity: f64,
    /// Phase-level efficiency of the hydro force phase (13.0 PF / 915 PF).
    pub phase_eff_hydro: f64,
    /// Phase-level efficiency of the density phase (3.23 PF / 915 PF).
    pub phase_eff_density: f64,
    /// Kernel-size iterations (paper §5.2.5: "usually twice").
    pub h_iterations: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            alpha_list: 8.8,
            beta_hydro_list: 8.9,
            n_ngb: 100.0,
            tree_op_s: 2.3e-8,
            let_build_s: 2.6e-5,
            let_surface_bytes: 4600.0,
            dd_per_rank_s: 2.0e-5,
            migrate_frac: 0.05,
            phase_eff_gravity: 0.099,
            phase_eff_hydro: 0.0142,
            phase_eff_density: 0.00353,
            h_iterations: 2.0,
        }
    }
}

/// Modeled seconds and FLOPs for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    pub name: &'static str,
    pub seconds: f64,
    pub flops: f64,
}

/// Full per-step breakdown.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    pub phases: Vec<PhaseCost>,
}

impl PhaseBreakdown {
    pub fn total_s(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    pub fn total_flops(&self) -> f64 {
        self.phases.iter().map(|p| p.flops).sum()
    }

    pub fn get(&self, name: &str) -> Option<&PhaseCost> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// The step model: machine + calibration.
#[derive(Debug, Clone, Copy)]
pub struct StepModel {
    pub machine: Machine,
    pub cal: Calibration,
}

impl StepModel {
    pub fn new(machine: Machine) -> Self {
        StepModel {
            machine,
            cal: Calibration::default(),
        }
    }

    /// Gravity interaction-list length per i-particle.
    fn n_l_gravity(&self, run: &RunPoint) -> f64 {
        self.cal.alpha_list * (run.n_tot.log2() + run.n_g as f64)
    }

    /// Hydro candidate-list length per gas particle.
    fn n_l_hydro(&self) -> f64 {
        self.cal.beta_hydro_list * self.cal.n_ngb
    }

    /// Software speed factor relative to Fugaku cores (per-core clock-ish
    /// proxy from DP peak per core).
    fn core_speed_factor(&self) -> f64 {
        let fugaku_dp_core = 3.072e12 / 48.0;
        let dp_core = self.machine.peak_dp_node / self.machine.cores_per_node as f64;
        (dp_core / fugaku_dp_core).max(0.25)
    }

    /// Model every phase of one step.
    pub fn step(&self, run: &RunPoint) -> PhaseBreakdown {
        let m = &self.machine;
        let cal = &self.cal;
        let n_loc = run.n_loc();
        let n_gas_loc = n_loc * run.gas_frac;
        let p = run.p;
        let speed = self.core_speed_factor();

        let mut phases = Vec::new();

        // --- Particle exchange: decomposition bookkeeping O(p) + migration.
        let migrate_bytes = n_loc * cal.migrate_frac * 64.0;
        let t_exch =
            cal.dd_per_rank_s / speed * p as f64 + m.alltoallv_time(p, migrate_bytes / p as f64);
        phases.push(PhaseCost {
            name: "Particle exchange",
            seconds: t_exch,
            flops: 0.0,
        });

        // --- Tree construction (gravity: all species; hydro: gas only).
        let t_tree = cal.tree_op_s / speed * n_loc * n_loc.log2().max(1.0);
        phases.push(PhaseCost {
            name: "Tree construction (gravity)",
            seconds: t_tree,
            flops: 0.0,
        });
        phases.push(PhaseCost {
            name: "Tree construction (hydro)",
            seconds: t_tree * run.gas_frac,
            flops: 0.0,
        });

        // --- LET exchange: per-rank LET construction dominates at scale,
        // plus the staged surface volume.
        let surface = n_loc.powf(2.0 / 3.0);
        let t_let_build = cal.let_build_s / speed * (p as f64 - 1.0) * n_loc.log2().max(1.0) / 21.0; // normalized to the anchor's log2(2e6) = 21 levels
        let t_let_vol = m.alltoallv_time(p, surface * cal.let_surface_bytes / p as f64);
        phases.push(PhaseCost {
            name: "LET exchange (gravity)",
            seconds: t_let_build + t_let_vol,
            flops: 0.0,
        });
        phases.push(PhaseCost {
            name: "LET exchange (hydro)",
            seconds: (t_let_build + t_let_vol) * 0.36, // gas share of tree depth
            flops: 0.0,
        });

        // --- Interaction calculations.
        let f_grav = n_loc * self.n_l_gravity(run) * PAPER_GRAVITY_OPS as f64;
        let eff_scale = |anchor_eff: f64, table4_anchor: f64, table4_here: f64| {
            // Scale the phase efficiency by the machine's kernel-efficiency
            // ratio relative to Fugaku's Table 4 value.
            (anchor_eff * table4_here / table4_anchor).min(0.95)
        };
        let eff_g = eff_scale(cal.phase_eff_gravity, 0.294, m.eff_gravity);
        phases.push(PhaseCost {
            name: "Interaction (gravity)",
            seconds: f_grav / (m.peak_sp_node * eff_g),
            flops: f_grav,
        });

        let f_hydro = n_gas_loc * self.n_l_hydro() * PAPER_HYDRO_OPS as f64;
        let eff_h = eff_scale(cal.phase_eff_hydro, 0.154, m.eff_hydro);
        phases.push(PhaseCost {
            name: "Interaction (hydro force)",
            seconds: f_hydro / (m.peak_sp_node * eff_h),
            flops: f_hydro,
        });

        let f_dens = n_gas_loc * self.n_l_hydro() * PAPER_DENSITY_OPS as f64;
        let eff_d = eff_scale(cal.phase_eff_density, 0.171, m.eff_density);
        phases.push(PhaseCost {
            name: "Density and pressure",
            seconds: f_dens / (m.peak_sp_node * eff_d),
            flops: f_dens,
        });

        // Kernel-size iteration: h_iterations density-like passes at reduced
        // efficiency (it interleaves tree walks, §5.2.5).
        let f_ks = f_dens * (cal.h_iterations - 1.0).max(0.0) * 0.47;
        phases.push(PhaseCost {
            name: "Kernel size calculation",
            seconds: f_ks / (m.peak_sp_node * eff_d * 0.17),
            flops: f_ks,
        });

        PhaseBreakdown { phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    /// The model must reproduce the paper's Table 3 anchor within tolerance.
    #[test]
    fn anchor_reproduces_table3_rows() {
        let model = StepModel::new(Machine::fugaku());
        let run = RunPoint::weak_mw2m_anchor();
        let b = model.step(&run);
        let check = |name: &str, paper_s: f64, tol: f64| {
            let got = b
                .get(name)
                .unwrap_or_else(|| panic!("phase {name}"))
                .seconds;
            assert!(
                (got / paper_s - 1.0).abs() < tol,
                "{name}: modeled {got:.3} s vs paper {paper_s} s"
            );
        };
        check("Particle exchange", 3.87, 0.35);
        check("Tree construction (gravity)", 0.96, 0.35);
        check("LET exchange (gravity)", 3.89, 0.35);
        check("Interaction (gravity)", 1.63, 0.35);
        check("Interaction (hydro force)", 0.34, 0.45);
        check("Density and pressure", 1.18, 0.45);
        check("Kernel size calculation", 3.18, 0.45);
        // Total in the 20 s ballpark (Table 3: 20.34 s with extra phases).
        assert!(
            (10.0..30.0).contains(&b.total_s()),
            "total {:.2} s",
            b.total_s()
        );
    }

    #[test]
    fn anchor_gravity_flops_match_table3() {
        let model = StepModel::new(Machine::fugaku());
        let run = RunPoint::weak_mw2m_anchor();
        let b = model.step(&run);
        // Table 3: 1.47e17 FLOP (gravity) per step across the system.
        let f_grav = b.get("Interaction (gravity)").unwrap().flops * run.p as f64;
        assert!(
            (f_grav / 1.47e17 - 1.0).abs() < 0.2,
            "gravity FLOP {f_grav:.3e}"
        );
        // Achieved PFLOPS for the gravity phase ~ 90 PF.
        let t = b.get("Interaction (gravity)").unwrap().seconds;
        let pf = f_grav / t / 1e15;
        assert!((60.0..130.0).contains(&pf), "gravity phase at {pf:.1} PF");
    }

    #[test]
    fn weak_scaling_total_grows_slowly_with_p() {
        // Fixed n_loc = 2e6: total time should grow from ~6-10 s at 128
        // nodes to ~20 s at 148k (log N work + comm), never shrinking.
        let model = StepModel::new(Machine::fugaku());
        let t_at = |p: usize| {
            model
                .step(&RunPoint {
                    n_tot: 2.0e6 * p as f64,
                    gas_frac: 0.163,
                    p,
                    n_g: 2048,
                })
                .total_s()
        };
        let t128 = t_at(128);
        let t4k = t_at(4096);
        let t148k = t_at(148_896);
        assert!(t128 < t4k && t4k < t148k, "{t128} {t4k} {t148k}");
        assert!((4.0..14.0).contains(&t128), "t(128) = {t128}");
        assert!((14.0..30.0).contains(&t148k), "t(148k) = {t148k}");
        // Growth is far milder than linear in p (1000x nodes, < 4x time).
        assert!(t148k / t128 < 4.0);
    }

    #[test]
    fn strong_scaling_saturates_when_comm_dominates() {
        // Fixed N: compute shrinks ~1/p, comm grows; wallclock must have a
        // minimum inside the node range.
        let model = StepModel::new(Machine::fugaku());
        let n_tot = 2.3e10; // the paper's small strong-scaling set
        let t_at = |p: usize| {
            model
                .step(&RunPoint {
                    n_tot,
                    gas_frac: 0.163,
                    p,
                    n_g: 2048,
                })
                .total_s()
        };
        let ps = [128usize, 512, 2048, 8192, 32768, 131072];
        let ts: Vec<f64> = ps.iter().map(|&p| t_at(p)).collect();
        // Early range: near-ideal speedup (>= 2.5x per 4x nodes).
        assert!(ts[0] / ts[1] > 2.0, "early speedup {} -> {}", ts[0], ts[1]);
        // Late range: saturation (speedup per 4x nodes < 2x).
        let late = ts[4] / ts[5];
        assert!(late < 2.0, "late speedup ratio {late}");
    }

    #[test]
    fn rusty_scales_cleanly_in_its_range() {
        // 193 nodes with 1.2e9 particles per rank: comm is negligible, so
        // halving nodes should roughly double the time.
        let model = StepModel::new(Machine::rusty());
        let n_tot = 2.3e11;
        let t_at = |p: usize| {
            model
                .step(&RunPoint {
                    n_tot,
                    gas_frac: 0.163,
                    p,
                    n_g: 2048,
                })
                .total_s()
        };
        let r = t_at(48) / t_at(193);
        assert!((2.8..5.0).contains(&r), "speedup 48->193: {r}");
    }

    #[test]
    fn miyabi_hydro_is_inefficient_as_measured() {
        // Table 4: GH200 hydro kernels run at a few percent efficiency, so
        // the hydro phases take a larger share than on Rusty.
        let run = RunPoint {
            n_tot: 2.0e10,
            gas_frac: 0.163,
            p: 1024,
            n_g: 65536,
        };
        let miyabi = StepModel::new(Machine::miyabi()).step(&run);
        let share =
            |b: &PhaseBreakdown| b.get("Interaction (hydro force)").unwrap().seconds / b.total_s();
        let rusty = StepModel::new(Machine::rusty()).step(&RunPoint { p: 193, ..run });
        assert!(share(&miyabi) > share(&rusty));
    }
}
