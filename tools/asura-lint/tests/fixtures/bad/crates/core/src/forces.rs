// Fixture: no-wallclock-determinism violation in the shared force
// pipeline / integrator — a phase timed in place instead of through the
// halo's `phase` hook.
pub fn kdk() -> f64 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_secs_f64()
}
