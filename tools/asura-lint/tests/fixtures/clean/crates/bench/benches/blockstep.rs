// Fixture: one-json-writer compliant bench — the document is a
// `bench::BenchDoc`, which names its own gates and renders through the one
// writer.
fn main() {
    BenchDoc::new()
        .info("n", 1000usize)
        .gated("update_ratio", 6.035, Better::Higher)
        .write("BENCH_blockstep.json");
}
