// Fixture: one-json-writer violations — a document spelled by hand, key by
// key, in a `format!` and in a raw literal.
pub fn outcome_json(attempts: u32) -> String {
    format!("{{\"outcome\":\"completed\",\"attempts\":{attempts}}}")
}

pub fn running_json() -> &'static str {
    r#"{"outcome":"running"}"#
}
