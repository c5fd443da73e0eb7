// Fixture: no-wallclock-determinism compliant — the shared integrator
// hands each phase to the halo, which is where a distributed driver's
// timer lives; the shared-memory halo just runs the closure.
pub trait Halo {
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

impl Halo for () {
    fn phase<R>(&mut self, _: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

pub fn kdk<H: Halo>(halo: &mut H, dt: f64) -> f64 {
    halo.phase("Integration", || 0.5 * dt)
}
