//! The unified particle record used by the driver.
//!
//! DM, stars, and gas share one flat struct (unused fields stay at their
//! defaults) so the exchange paths stay simple and copy-friendly.

use fdps::Vec3;

/// Particle species.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Dm,
    Star,
    Gas,
}

/// One simulation particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    pub id: u64,
    pub kind: Kind,
    pub pos: Vec3,
    pub vel: Vec3,
    pub mass: f64,
    /// Gas: specific internal energy [code units].
    pub u: f64,
    /// Gas: smoothing length \[pc\].
    pub h: f64,
    /// Gas: density (derived each step) \[M_sun/pc^3\].
    pub rho: f64,
    /// Gas: metal mass carried \[M_sun\] (C+O+Mg+Fe, Figure 1's cycle).
    pub metals: f64,
    /// Star: formation time \[Myr\].
    pub birth_time: f64,
    /// Star: whether its SN has already fired.
    pub exploded: bool,
}

impl Particle {
    pub fn dm(id: u64, pos: Vec3, vel: Vec3, mass: f64) -> Self {
        Particle {
            id,
            kind: Kind::Dm,
            pos,
            vel,
            mass,
            u: 0.0,
            h: 0.0,
            rho: 0.0,
            metals: 0.0,
            birth_time: 0.0,
            exploded: false,
        }
    }

    pub fn star(id: u64, pos: Vec3, vel: Vec3, mass: f64, birth_time: f64) -> Self {
        Particle {
            id,
            kind: Kind::Star,
            pos,
            vel,
            mass,
            u: 0.0,
            h: 0.0,
            rho: 0.0,
            metals: 0.0,
            birth_time,
            exploded: false,
        }
    }

    pub fn gas(id: u64, pos: Vec3, vel: Vec3, mass: f64, u: f64, h: f64) -> Self {
        Particle {
            id,
            kind: Kind::Gas,
            pos,
            vel,
            mass,
            u,
            h,
            rho: 0.0,
            metals: 0.0,
            birth_time: 0.0,
            exploded: false,
        }
    }

    pub fn is_gas(&self) -> bool {
        self.kind == Kind::Gas
    }

    pub fn is_star(&self) -> bool {
        self.kind == Kind::Star
    }

    /// Metallicity Z = metal mass / total mass (gas particles).
    pub fn metallicity(&self) -> f64 {
        if self.mass > 0.0 {
            self.metals / self.mass
        } else {
            0.0
        }
    }
}

/// The spiked-dt IC (the `spiked_dt` scenario and the block-timestep
/// benches): an `n_side`³ unit lattice of gas at rest with one SN-hot
/// centre particle, whose ~10^4 km/s signal speed collapses its CFL step
/// well below the base step.
pub fn spiked_blob(n_side: usize) -> Vec<Particle> {
    let half = n_side as f64 / 2.0;
    let mut particles = Vec::with_capacity(n_side * n_side * n_side);
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                let pos = Vec3::new(i as f64 - half, j as f64 - half, k as f64 - half);
                let id = particles.len() as u64;
                particles.push(Particle::gas(id, pos, Vec3::ZERO, 1.0, 1.0, 1.3));
            }
        }
    }
    let c = n_side / 2;
    particles[(c * n_side + c) * n_side + c].u = 1.0e8;
    particles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_and_fields() {
        let d = Particle::dm(1, Vec3::splat(1.0), Vec3::ZERO, 5.0);
        assert_eq!(d.kind, Kind::Dm);
        assert!(!d.is_gas());
        let s = Particle::star(2, Vec3::ZERO, Vec3::ZERO, 9.0, 13.5);
        assert!(s.is_star());
        assert_eq!(s.birth_time, 13.5);
        assert!(!s.exploded);
        let g = Particle::gas(3, Vec3::ZERO, Vec3::ZERO, 1.0, 0.4, 2.0);
        assert!(g.is_gas());
        assert_eq!(g.u, 0.4);
        assert_eq!(g.h, 2.0);
        assert_eq!(g.metals, 0.0);
        assert_eq!(g.metallicity(), 0.0);
    }

    #[test]
    fn metallicity_is_metal_fraction() {
        let mut g = Particle::gas(1, Vec3::ZERO, Vec3::ZERO, 2.0, 0.1, 1.0);
        g.metals = 0.04;
        assert!((g.metallicity() - 0.02).abs() < 1e-15);
    }
}
