//! The paper's run and literature tables as data (Tables 1 and 2), so the
//! bench harness can regenerate them and scaled-down experiments can anchor
//! themselves to the published configurations.

/// One row of Table 1: state-of-the-art isolated-disk simulations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LiteratureRun {
    pub(crate) paper: &'static str,
    pub(crate) n_gas: f64,
    pub(crate) m_gas: f64,
    pub(crate) n_star: f64,
    pub(crate) m_star: f64,
    pub(crate) n_dm: f64,
    pub(crate) m_tot: f64,
    pub(crate) n_tot: f64,
    pub(crate) code: &'static str,
}

/// Table 1 of the paper, verbatim.
pub(crate) const TABLE1: [LiteratureRun; 8] = [
    LiteratureRun {
        paper: "Hu et al. (2017)",
        n_gas: 1e7,
        m_gas: 4.0,
        n_star: 1e7,
        m_star: 4.0,
        n_dm: 4e6,
        m_tot: 2e10,
        n_tot: 2.4e7,
        code: "GADGET-3",
    },
    LiteratureRun {
        paper: "Smith et al. (2018)",
        n_gas: 1.9e7,
        m_gas: 20.0,
        n_star: 1e5,
        m_star: 20.0,
        n_dm: 1e5,
        m_tot: 1e10,
        n_tot: 2.0e7,
        code: "AREPO",
    },
    LiteratureRun {
        paper: "Smith et al. (2018) Large",
        n_gas: 1.9e7,
        m_gas: 200.0,
        n_star: 1e5,
        m_star: 200.0,
        n_dm: 1e5,
        m_tot: 1e11,
        n_tot: 2.0e7,
        code: "AREPO",
    },
    LiteratureRun {
        paper: "Smith et al. (2021)",
        n_gas: 3.4e6,
        m_gas: 20.0,
        n_star: 4.9e6,
        m_star: 20.0,
        n_dm: 6.2e6,
        m_tot: 1e10,
        n_tot: 2.0e7,
        code: "AREPO",
    },
    LiteratureRun {
        paper: "Richings et al. (2022)",
        n_gas: 1e7,
        m_gas: 400.0,
        n_star: 3e7,
        m_star: 400.0,
        n_dm: 1.6e8,
        m_tot: 1e12,
        n_tot: 2.0e8,
        code: "GIZMO",
    },
    LiteratureRun {
        paper: "Hu et al. (2023)",
        n_gas: 7e7,
        m_gas: 1.0,
        n_star: 1e7,
        m_star: 1.0,
        n_dm: 1e7,
        m_tot: 1e10,
        n_tot: 2.4e7,
        code: "GIZMO",
    },
    LiteratureRun {
        paper: "Steinwandel et al. (2024)",
        n_gas: 1e8,
        m_gas: 4.0,
        n_star: 5e8,
        m_star: 4.0,
        n_dm: 4e7,
        m_tot: 2e11,
        n_tot: 6.4e8,
        code: "GADGET-3",
    },
    LiteratureRun {
        paper: "This work",
        n_gas: 4.9e10,
        m_gas: 0.75,
        n_star: 7.2e10,
        m_star: 0.75,
        n_dm: 1.8e11,
        m_tot: 1.2e12,
        n_tot: 3.0e11,
        code: "ASURA",
    },
];

/// One row of Table 2: the paper's measurement runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PaperRun {
    pub(crate) name: &'static str,
    /// Node range `(max, min)` as printed in the table.
    pub(crate) nodes: (u64, u64),
    pub(crate) m_dm: f64,
    pub(crate) n_dm: f64,
    pub(crate) m_star: f64,
    pub(crate) n_star: f64,
    pub(crate) m_gas: f64,
    pub(crate) n_gas: f64,
    pub(crate) m_tot: f64,
    /// Particles per node as printed (min, max) where ranges are given.
    pub(crate) n_per_node: (f64, f64),
}

/// Table 2 of the paper, verbatim.
pub(crate) const TABLE2: [PaperRun; 8] = [
    PaperRun {
        name: "weakMW2M",
        nodes: (148_896, 128),
        m_dm: 6.0,
        n_dm: 1.8e11,
        m_star: 0.75,
        n_star: 7.2e10,
        m_gas: 0.75,
        n_gas: 4.9e10,
        m_tot: 1.2e12,
        n_per_node: (2e6, 2e6),
    },
    PaperRun {
        name: "weakMW_rusty",
        nodes: (193, 11),
        m_dm: 7.7,
        n_dm: 1.4e11,
        m_star: 0.96,
        n_star: 5.5e10,
        m_gas: 0.96,
        n_gas: 3.8e10,
        m_tot: 1.2e12,
        n_per_node: (1.2e9, 1.2e9),
    },
    PaperRun {
        name: "strongMW",
        nodes: (148_896, 67_680),
        m_dm: 11.7,
        n_dm: 9.3e10,
        m_star: 1.4,
        n_star: 3.7e10,
        m_gas: 1.4,
        n_gas: 2.6e10,
        m_tot: 1.2e12,
        n_per_node: (1.0e6, 2.3e6),
    },
    PaperRun {
        name: "strongMWs",
        nodes: (40_608, 4_096),
        m_dm: 4.0,
        n_dm: 2.8e10,
        m_star: 0.5,
        n_star: 1.2e10,
        m_gas: 0.5,
        n_gas: 7.5e9,
        m_tot: 1.2e11,
        n_per_node: (1.2e6, 12.0e6),
    },
    PaperRun {
        name: "strongMWm",
        nodes: (1_024, 128),
        m_dm: 12.0,
        n_dm: 1.4e9,
        m_star: 1.5,
        n_star: 3.7e8,
        m_gas: 1.5,
        n_gas: 3.4e9,
        m_tot: 1.8e10,
        n_per_node: (2.1e6, 16.0e6),
    },
    PaperRun {
        name: "strongMW_rusty",
        nodes: (193, 43),
        m_dm: 36.0,
        n_dm: 3.0e10,
        m_star: 4.5,
        n_star: 1.2e10,
        m_gas: 4.5,
        n_gas: 8.4e9,
        m_tot: 1.2e12,
        n_per_node: (2.6e8, 11.9e8),
    },
    PaperRun {
        name: "strongMWs_rusty",
        nodes: (43, 11),
        m_dm: 166.0,
        n_dm: 6.5e9,
        m_star: 21.0,
        n_star: 2.6e9,
        m_gas: 21.0,
        n_gas: 1.8e9,
        m_tot: 1.2e12,
        n_per_node: (2.5e8, 99.4e8),
    },
    PaperRun {
        name: "MW_miyabi",
        nodes: (1_024, 1_024),
        m_dm: 87.9,
        n_dm: 1.2e10,
        m_star: 11.0,
        n_star: 5.0e9,
        m_gas: 11.0,
        n_gas: 3.4e9,
        m_tot: 1.2e12,
        n_per_node: (2.0e7, 2.0e7),
    },
];

impl PaperRun {
    /// Total particle count of this configuration.
    pub(crate) fn n_tot(&self) -> f64 {
        self.n_dm + self.n_star + self.n_gas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_work_breaks_the_billion_particle_barrier() {
        let ours = TABLE1.last().unwrap();
        assert_eq!(ours.paper, "This work");
        assert!(ours.n_tot > 1e9, "the headline claim");
        // Everyone else sits below it (the 'barrier').
        for run in &TABLE1[..TABLE1.len() - 1] {
            assert!(run.n_tot < 1e9, "{} exceeds 1e9?", run.paper);
        }
    }

    #[test]
    fn this_work_is_500x_more_particles_than_prior_state_of_the_art() {
        let best_prior = TABLE1[..TABLE1.len() - 1]
            .iter()
            .map(|r| r.n_tot)
            .fold(0.0, f64::max);
        let ours = TABLE1.last().unwrap().n_tot;
        let ratio = ours / best_prior;
        assert!(
            (300.0..700.0).contains(&ratio),
            "paper claims ~500x: got {ratio}"
        );
    }

    #[test]
    fn weak_scaling_run_keeps_2m_particles_per_node() {
        let weak = &TABLE2[0];
        assert_eq!(weak.name, "weakMW2M");
        let n_per_node = weak.n_tot() / weak.nodes.0 as f64;
        assert!(
            (1.5e6..2.5e6).contains(&n_per_node),
            "N/node = {n_per_node}"
        );
    }

    #[test]
    fn table2_masses_are_consistent_with_counts() {
        for run in &TABLE2 {
            let m_sum = run.m_dm * run.n_dm + run.m_star * run.n_star + run.m_gas * run.n_gas;
            assert!(
                (m_sum / run.m_tot - 1.0).abs() < 0.35,
                "{}: component masses sum to {m_sum:.3e}, table says {:.3e}",
                run.name,
                run.m_tot
            );
        }
    }

    #[test]
    fn star_by_star_resolution_for_the_headline_run() {
        let ours = TABLE1.last().unwrap();
        assert!(ours.m_star < 1.0, "sub-solar star particles");
        assert!(ours.m_gas < 1.0);
    }
}
