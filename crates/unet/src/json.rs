//! Minimal JSON serialization for model interchange.
//!
//! The build environment has no registry access, so instead of
//! `serde`/`serde_json` the model types serialize through this small
//! hand-rolled layer: a JSON value tree, a recursive-descent parser, and
//! explicit to/from impls for the handful of network types. Floats are
//! written with Rust's shortest-roundtrip formatting, so weights survive a
//! save/load cycle bit-exactly.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up an object field.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`")),
            _ => Err(format!("expected object while reading `{key}`")),
        }
    }

    pub fn as_usize(&self) -> Result<usize, String> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
            other => Err(format!("expected non-negative integer, got {other:?}")),
        }
    }

    pub fn as_f32_vec(&self) -> Result<Vec<f32>, String> {
        match self {
            Json::Arr(items) => items
                .iter()
                .map(|v| match v {
                    Json::Num(n) => Ok(*n as f32),
                    // Non-finite values serialize as `null` (JSON has no
                    // NaN/Inf); load them back as NaN so a diverged model
                    // remains inspectable instead of unloadable.
                    Json::Null => Ok(f32::NAN),
                    other => Err(format!("expected number in array, got {other:?}")),
                })
                .collect(),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

/// Render a JSON value to a compact string.
pub fn write_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.is_finite() {
                // `{:?}` is the shortest representation that round-trips.
                let _ = write!(out, "{n:?}");
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(&Json::Str(k.clone()), out);
                out.push(':');
                write_json(val, out);
            }
            out.push('}');
        }
    }
}

/// Serialize a vector of `f32` without going through `Json` allocation per
/// element (weight arrays dominate the payload).
pub fn write_f32_array(values: &[f32], out: &mut String) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_finite() {
            let _ = write!(out, "{v:?}");
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
}

/// FNV-1a 64-bit checksum — the one every checksummed document in the
/// workspace (snapshots, checkpoint manifests, surrogate weights) carries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Parse a complete JSON document.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be string, got {other:?}")),
                };
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = s_slice(b, *pos + 1, *pos + 5)?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|e| format!("bad \\u escape: {e}"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "bad \\u codepoint".to_string())?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 character.
                        let rest = std::str::from_utf8(&b[*pos..])
                            .map_err(|e| format!("invalid UTF-8: {e}"))?;
                        let c = rest.chars().next().expect("non-empty");
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = s_slice(b, start, *pos)?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

fn s_slice(b: &[u8], start: usize, end: usize) -> Result<&str, String> {
    if end > b.len() {
        return Err("unexpected end of input".into());
    }
    std::str::from_utf8(&b[start..end]).map_err(|e| format!("invalid UTF-8: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("u-net \"v1\"\n".into())),
            (
                "layers".into(),
                Json::Arr(vec![Json::Num(1.5), Json::Num(-2.0), Json::Null]),
            ),
            ("trained".into(), Json::Bool(true)),
        ]);
        let mut s = String::new();
        write_json(&doc, &mut s);
        assert_eq!(parse_json(&s).unwrap(), doc);
    }

    #[test]
    fn f32_shortest_form_roundtrips_exactly() {
        let values: Vec<f32> = vec![0.1, -3.4028235e38, 1.1754944e-38, 0.0, 123.456];
        let mut s = String::new();
        write_f32_array(&values, &mut s);
        let back = parse_json(&s).unwrap().as_f32_vec().unwrap();
        assert_eq!(values, back);
    }

    #[test]
    fn non_finite_weights_stay_loadable_as_nan() {
        let values: Vec<f32> = vec![1.0, f32::NAN, f32::INFINITY, -2.5];
        let mut s = String::new();
        write_f32_array(&values, &mut s);
        let back = parse_json(&s).unwrap().as_f32_vec().unwrap();
        assert_eq!(back[0], 1.0);
        assert!(back[1].is_nan());
        assert!(back[2].is_nan(), "Inf degrades to NaN, not a load error");
        assert_eq!(back[3], -2.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("hello").is_err());
        assert!(parse_json("{} junk").is_err());
    }
}
