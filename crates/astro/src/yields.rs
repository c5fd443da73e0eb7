//! Core-collapse supernova nucleosynthesis yields — the chemical side of
//! the paper's Figure 1: "These explosions inject both energy and heavy
//! elements, such as carbon (C), oxygen (O), magnesium (Mg), and iron (Fe)
//! into the surrounding interstellar gas."
//!
//! Yields follow the standard mass-dependent fits (Nomoto et al. 2006
//! shape): ejecta mass grows with progenitor mass, oxygen steeply, iron
//! weakly.

/// The tracked species, in the order Figure 1 names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Species {
    Carbon,
    Oxygen,
    Magnesium,
    Iron,
}

pub const ALL_SPECIES: [Species; 4] = [
    Species::Carbon,
    Species::Oxygen,
    Species::Magnesium,
    Species::Iron,
];

/// Ejected masses \[M_sun\] from one core-collapse SN.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SnYield {
    /// Total ejecta (progenitor minus the ~1.4 M_sun remnant).
    pub ejecta: f64,
    pub c: f64,
    pub o: f64,
    pub mg: f64,
    pub fe: f64,
}

impl SnYield {
    /// Yields for a progenitor of initial mass `m` \[M_sun\] (valid for the
    /// 8–40 M_sun core-collapse window).
    pub fn for_progenitor(m: f64) -> SnYield {
        assert!(m > 0.0);
        let m = m.clamp(8.0, 40.0);
        // Remnant: neutron star below ~25 M_sun, growing black hole above.
        let remnant = if m < 25.0 {
            1.5
        } else {
            1.5 + 0.2 * (m - 25.0)
        };
        let ejecta = (m - remnant).max(0.0);
        // Power-law fits to tabulated solar-metallicity yields.
        let o = 0.05 * (m / 13.0_f64).powf(2.6); // steeply rising
        let c = 0.10 * (m / 13.0_f64).powf(1.0);
        let mg = 0.025 * (m / 13.0_f64).powf(2.0);
        let fe = 0.07 + 0.002 * (m - 13.0).max(0.0); // nearly flat
        SnYield {
            ejecta,
            c,
            o,
            mg,
            fe,
        }
    }

    /// Total metal mass ejected.
    pub fn metals(&self) -> f64 {
        self.c + self.o + self.mg + self.fe
    }

    /// Access by species.
    pub fn of(&self, s: Species) -> f64 {
        match s {
            Species::Carbon => self.c,
            Species::Oxygen => self.o,
            Species::Magnesium => self.mg,
            Species::Iron => self.fe,
        }
    }
}

/// Distribute one SN's yields over neighbour gas particles with the given
/// (unnormalized) weights: returns the metal-mass increments per neighbour
/// per species, ordered as [`ALL_SPECIES`]. `wsum` is the weights' sum over
/// *every* recipient — a caller that holds only some of them passes the
/// total.
pub fn distribute_yields(y: &SnYield, weights: &[f64], wsum: f64) -> Vec<[f64; 4]> {
    if wsum <= 0.0 {
        return vec![[0.0; 4]; weights.len()];
    }
    weights
        .iter()
        .map(|&w| {
            let f = w / wsum;
            [y.c * f, y.o * f, y.mg * f, y.fe * f]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejecta_less_than_progenitor_and_positive() {
        for m in [8.0, 13.0, 20.0, 30.0, 40.0] {
            let y = SnYield::for_progenitor(m);
            assert!(y.ejecta > 0.0 && y.ejecta < m, "m={m}: {:?}", y.ejecta);
            assert!(y.metals() < y.ejecta, "metals exceed ejecta at m={m}");
        }
    }

    #[test]
    fn oxygen_rises_steeply_iron_stays_flat() {
        let y13 = SnYield::for_progenitor(13.0);
        let y30 = SnYield::for_progenitor(30.0);
        assert!(y30.o / y13.o > 5.0, "O ratio {}", y30.o / y13.o);
        assert!(y30.fe / y13.fe < 2.0, "Fe ratio {}", y30.fe / y13.fe);
        // Alpha-to-iron grows with progenitor mass: the [O/Fe] plateau of
        // old stellar populations.
        assert!(y30.o / y30.fe > y13.o / y13.fe);
    }

    #[test]
    fn typical_iron_yield_is_about_0p07_msun() {
        // Canonical SN II iron: ~0.07 M_sun (SN 1987A-like).
        let y = SnYield::for_progenitor(15.0);
        assert!((0.05..0.12).contains(&y.fe), "Fe = {}", y.fe);
    }

    #[test]
    fn species_accessor_matches_fields() {
        let y = SnYield::for_progenitor(20.0);
        assert_eq!(y.of(Species::Carbon), y.c);
        assert_eq!(y.of(Species::Oxygen), y.o);
        assert_eq!(y.of(Species::Magnesium), y.mg);
        assert_eq!(y.of(Species::Iron), y.fe);
    }

    #[test]
    fn distribution_conserves_each_species() {
        let y = SnYield::for_progenitor(18.0);
        let weights = [1.0, 3.0, 0.5, 2.5];
        let given = distribute_yields(&y, &weights, weights.iter().sum());
        let mut totals = [0.0f64; 4];
        for g in &given {
            for k in 0..4 {
                totals[k] += g[k];
            }
        }
        for (k, s) in ALL_SPECIES.iter().enumerate() {
            assert!((totals[k] - y.of(*s)).abs() < 1e-12, "{s:?}");
        }
    }

    #[test]
    fn zero_weights_give_nothing() {
        let y = SnYield::for_progenitor(12.0);
        let given = distribute_yields(&y, &[0.0, 0.0], 0.0);
        assert!(given.iter().all(|g| g.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn out_of_window_masses_clamp() {
        assert_eq!(SnYield::for_progenitor(5.0), SnYield::for_progenitor(8.0));
        assert_eq!(SnYield::for_progenitor(80.0), SnYield::for_progenitor(40.0));
    }
}
