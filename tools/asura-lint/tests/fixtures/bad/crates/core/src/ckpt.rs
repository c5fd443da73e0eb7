// Fixture: no-panic-daemon violation — the store trusts bytes it read from
// disk.
pub fn step_of(name: &str) -> u64 {
    name.strip_suffix(".bin").unwrap().parse().unwrap_or(0)
}
