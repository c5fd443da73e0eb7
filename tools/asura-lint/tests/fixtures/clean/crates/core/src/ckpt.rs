// Fixture: no-panic-daemon compliant — a file name that is not a rotation
// entry is skipped, not a crash.
pub fn step_of(name: &str) -> Option<u64> {
    name.strip_suffix(".bin")?.parse().ok()
}

#[cfg(test)]
mod tests {
    // Test code may unwrap: the invariants protect production paths.
    fn parsed() -> u64 {
        super::step_of("checkpoint-000004.bin").unwrap()
    }
}
