//! Supernova detection and direct (thermal) feedback injection.
//!
//! The surrogate scheme intercepts these events (paper §3.2 step 1:
//! "Identify stars exploding between the current time t and t + dt"); the
//! conventional baseline instead injects the energy thermally and lets the
//! CFL condition shrink the timestep.

use crate::lifetime::{explodes_in_interval, stellar_lifetime_myr, SN_MAX_MASS, SN_MIN_MASS};
use crate::units::E_SN;

/// One supernova event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnEvent {
    /// Index of the exploding star particle (caller's indexing).
    pub star_index: usize,
    /// Explosion position \[pc\].
    pub pos: [f64; 3],
    /// Explosion time \[Myr\].
    pub time: f64,
    /// Injected energy [code units]; 10^51 erg by default.
    pub energy: f64,
}

/// Star records scanned for explosions.
#[derive(Debug, Clone, Copy)]
pub struct StarRecord {
    pub mass: f64,
    pub birth_time: f64,
    pub pos: [f64; 3],
    /// Set once the star has exploded (it never explodes again).
    pub exploded: bool,
}

/// Feedback model parameters.
#[derive(Debug, Clone, Copy)]
pub struct SnFeedback {
    pub energy_per_sn: f64,
    /// Fraction deposited as thermal energy (the rest kinetic; the direct
    /// scheme here deposits thermally, matching ASURA's default).
    pub thermal_fraction: f64,
}

impl Default for SnFeedback {
    fn default() -> Self {
        SnFeedback {
            energy_per_sn: E_SN,
            thermal_fraction: 1.0,
        }
    }
}

impl SnFeedback {
    /// Scan `stars` for explosions in `(t, t + dt]` ("Identify_SNe").
    pub fn identify(&self, stars: &[StarRecord], t: f64, dt: f64) -> Vec<SnEvent> {
        stars
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.exploded && explodes_in_interval(s.mass, s.birth_time, t, dt))
            .map(|(i, s)| SnEvent {
                star_index: i,
                pos: s.pos,
                time: s.birth_time + stellar_lifetime_myr(s.mass),
                energy: self.energy_per_sn,
            })
            .collect()
    }

    /// Distribute one SN's thermal energy over neighbour gas particles with
    /// kernel weights: returns `du` [specific energy] per neighbour given
    /// their masses and weights. Weights need not be normalized: `wsum` is
    /// their sum over *every* recipient (a caller that holds only some of
    /// them passes the total).
    pub fn thermal_injection(
        &self,
        event: &SnEvent,
        neighbour_mass: &[f64],
        weights: &[f64],
        wsum: f64,
    ) -> Vec<f64> {
        assert_eq!(neighbour_mass.len(), weights.len());
        if wsum <= 0.0 {
            return vec![0.0; weights.len()];
        }
        let e_th = event.energy * self.thermal_fraction;
        weights
            .iter()
            .zip(neighbour_mass)
            .map(|(&w, &m)| e_th * (w / wsum) / m.max(1e-300))
            .collect()
    }
}

/// Rough number of core-collapse SNe per solar mass of stars formed,
/// for a Kroupa IMF: `N(8..40 M_sun) / <m>` per unit mass.
pub fn sn_per_solar_mass(imf: &crate::imf::KroupaImf) -> f64 {
    imf.number_fraction(SN_MIN_MASS, SN_MAX_MASS) / imf.mean_mass()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(mass: f64, birth: f64) -> StarRecord {
        StarRecord {
            mass,
            birth_time: birth,
            pos: [1.0, 2.0, 3.0],
            exploded: false,
        }
    }

    #[test]
    fn identifies_only_stars_dying_this_step() {
        let fb = SnFeedback::default();
        let life10 = stellar_lifetime_myr(10.0);
        let stars = vec![
            star(10.0, 0.0), // dies at life10
            star(10.0, 5.0), // dies at life10 + 5
            star(1.0, 0.0),  // never (too light)
            star(60.0, 0.0), // never (direct collapse)
        ];
        let events = fb.identify(&stars, life10 - 0.5, 1.0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].star_index, 0);
        assert!((events[0].energy - E_SN).abs() < 1e-6 * E_SN);
        assert!((events[0].time - life10).abs() < 1e-9);
    }

    #[test]
    fn exploded_stars_do_not_repeat() {
        let fb = SnFeedback::default();
        let life = stellar_lifetime_myr(12.0);
        let mut stars = vec![star(12.0, 0.0)];
        let ev = fb.identify(&stars, life - 0.5, 1.0);
        assert_eq!(ev.len(), 1);
        stars[0].exploded = true;
        assert!(fb.identify(&stars, life - 0.5, 1.0).is_empty());
    }

    #[test]
    fn thermal_injection_conserves_energy() {
        let fb = SnFeedback::default();
        let event = SnEvent {
            star_index: 0,
            pos: [0.0; 3],
            time: 0.0,
            energy: E_SN,
        };
        let masses = vec![1.0, 2.0, 0.5, 1.5];
        let weights = vec![0.4, 0.3, 0.2, 0.1];
        let du = fb.thermal_injection(&event, &masses, &weights, weights.iter().sum());
        let total: f64 = du.iter().zip(&masses).map(|(d, m)| d * m).sum();
        assert!((total - E_SN).abs() < 1e-6 * E_SN);
    }

    #[test]
    fn injection_heats_to_supernova_temperatures() {
        // ~100 M_sun of nearby gas receiving 1e51 erg reaches >> 10^6 K.
        let fb = SnFeedback::default();
        let event = SnEvent {
            star_index: 0,
            pos: [0.0; 3],
            time: 0.0,
            energy: E_SN,
        };
        let masses = vec![1.0; 100];
        let weights = vec![1.0; 100];
        let du = fb.thermal_injection(&event, &masses, &weights, weights.iter().sum());
        // T = u mu (gamma-1) / (kB/mp)
        let t = du[0] * 1.27 * (2.0 / 3.0) / crate::units::KB_OVER_MP;
        assert!(t > 1.0e6, "post-injection T = {t} K");
    }

    #[test]
    fn zero_weights_inject_nothing() {
        let fb = SnFeedback::default();
        let event = SnEvent {
            star_index: 0,
            pos: [0.0; 3],
            time: 0.0,
            energy: E_SN,
        };
        let du = fb.thermal_injection(&event, &[1.0, 1.0], &[0.0, 0.0], 0.0);
        assert_eq!(du, vec![0.0, 0.0]);
    }

    #[test]
    fn sn_rate_is_about_one_per_hundred_solar_masses() {
        let imf = crate::imf::KroupaImf::default();
        let rate = sn_per_solar_mass(&imf);
        assert!(
            (0.002..0.03).contains(&rate),
            "SN per M_sun = {rate}, expected ~0.01"
        );
    }
}
