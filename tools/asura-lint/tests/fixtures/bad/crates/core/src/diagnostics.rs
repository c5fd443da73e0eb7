// Fixture: no-exact-audit-live violations — the O(N^2) audit on the
// per-step sampling path, as a method call and as the free function.
pub fn sample(sim: &Simulation) -> (f64, f64) {
    let e = sim.total_energy();
    let again = total_energy_of(&sim.particles, sim.config.eps);
    (e, again)
}
