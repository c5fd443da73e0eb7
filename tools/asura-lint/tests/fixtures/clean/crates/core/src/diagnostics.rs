// Fixture: no-exact-audit-live compliant — the sample reads the step's own
// potential, and the `total_energy` *field* of a sample is not a call.
pub fn sample(sim: &Simulation) -> TimeSample {
    TimeSample {
        total_energy: sim.live_energy(),
    }
}

pub fn column(samples: &[TimeSample]) -> Vec<f64> {
    samples.iter().map(|s| s.total_energy).collect()
}
