// Fixture: one-json-writer covers the U-Net's weights documents — a
// tensor rendered by `format!` spells its keys outside the one writer.
pub fn shape_json(c: usize, d: usize) -> String {
    format!("{{\"c\":{c},\"d\":{d}}}")
}
