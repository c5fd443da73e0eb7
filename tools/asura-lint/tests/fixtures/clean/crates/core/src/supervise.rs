// Fixture: one-json-writer compliant — the document is a value the one
// writer renders, and a quoted word next to a colon in prose is not a key.
pub fn outcome_json(attempts: u32) -> String {
    Json::obj([
        ("outcome", "completed".into()),
        ("attempts", attempts.into()),
    ])
    .render()
}

pub fn explain() -> &'static str {
    "the supervisor said \"gave up\" : see supervisor.json"
}

#[cfg(test)]
mod tests {
    // Golden bytes are spelled out in tests, which is the point of them.
    const GOLDEN: &str = "{\"outcome\":\"completed\",\"attempts\":2}";
}
