// Fixture: no-panic-daemon covers the json crate, whose parser reads
// every protocol line and persisted document the daemon sees.
pub fn first_char(rest: &str) -> char {
    rest.chars().next().expect("non-empty")
}
