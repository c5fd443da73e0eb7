// Fixture: one-json-writer applies to the surrogate crate's documents too,
// and reports a key on the line it is on inside a `\`-continued literal.
pub fn envelope(grid_n: usize, net: &str) -> String {
    format!(
        "{{\"format\":\"asura-surrogate-model\",\
         \"grid_n\":{grid_n},\"net\":{net}}}"
    )
}
