// Fixture: one-json-writer reaches the benches — a bench document spelled
// as a positional `format!` template instead of a `bench::BenchDoc`.
fn main() {
    let json = format!("{{\n  \"update_ratio\": {:.3}\n}}\n", 6.035);
    std::fs::write("BENCH_blockstep.json", json).unwrap();
}
