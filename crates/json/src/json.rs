use std::fmt::{self, Write as _};
use std::str::FromStr;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// An integer, written without a fraction where `Num(2.0)` writes
    /// `2.0`. Writer-side only: [`parse_json`] returns `Num` for every
    /// number, and the integer readers accept both.
    Int(i128),
    /// Text this writer already rendered, written verbatim — a document
    /// body whose checksum was just taken over exactly these bytes, or a
    /// [`Json::f32s`] array. Never parsed.
    Raw(String),
}

macro_rules! json_from {
    ($($ty:ty => $make:expr),+ $(,)?) => {$(
        impl From<$ty> for Json {
            fn from(v: $ty) -> Json {
                $make(v)
            }
        }
    )+};
}

json_from!(
    bool => Json::Bool,
    f64 => Json::Num,
    String => Json::Str,
    &str => |v: &str| Json::Str(v.to_string()),
    i32 => |v| Json::Int(v as i128),
    u32 => |v| Json::Int(v as i128),
    u64 => |v| Json::Int(v as i128),
    usize => |v| Json::Int(v as i128),
);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given — key order
    /// is part of every document's contract.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The `"fnv1a:<16 hex>"` string every checksummed document carries;
    /// [`Json::as_checksum`] reads it back.
    pub fn checksum(sum: u64) -> Json {
        Json::Str(format!("fnv1a:{sum:016x}"))
    }

    /// `x` as an integer when it is one (`60`, the way `{}` prints
    /// `60.0`), as a float otherwise.
    pub fn number(x: f64) -> Json {
        if x.fract() == 0.0 && x.abs() <= MAX_EXACT {
            Json::Int(x as i128)
        } else {
            Json::Num(x)
        }
    }

    /// An `f32` array rendered in one pass, one allocation per array and
    /// not a `Json` per element; a non-finite value is written `null`.
    pub fn f32s(values: &[f32]) -> Json {
        let mut out = String::with_capacity(values.len() * 12 + 2);
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
        Json::Raw(out)
    }

    /// Render to a compact string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out);
        out
    }

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

    /// Read object field `key` with `read`, naming the key in the error:
    /// `item.at("attempt", Json::as_u32)`.
    pub fn at<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        read(self.get(key)?).map_err(|e| format!("`{key}`: {e}"))
    }

    /// Check a document's `format` tag and `version` number.
    pub fn expect_header(&self, format: &str, version: u64) -> Result<(), String> {
        match self.at("format", Json::as_str)? {
            f if f == format => {}
            other => return Err(format!("not a {format} document (format `{other}`)")),
        }
        match self.at("version", Json::as_u64)? {
            v if v == version => Ok(()),
            other => Err(format!("unsupported {format} version {other}")),
        }
    }

    /// `null` is `None`; anything else goes through `read`.
    pub fn as_opt<'a, T>(
        &'a self,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self {
            Json::Null => Ok(None),
            v => read(v).map(Some),
        }
    }

    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    /// A string that parses as a `T` — an option value through its
    /// `FromStr`, a `u64` kept as decimal text.
    pub fn as_parsed<T: FromStr>(&self) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        self.as_str()?.parse().map_err(|e: T::Err| e.to_string())
    }

    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, got {other:?}")),
        }
    }

    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, got {other:?}")),
        }
    }

    /// The integer this value spells, if it spells one exactly.
    fn as_int<T: TryFrom<i128>>(&self) -> Result<T, String> {
        let wide = match self {
            Json::Int(i) => *i,
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= MAX_EXACT => *n as i128,
            other => return Err(format!("expected an integer, got {other:?}")),
        };
        let ty = std::any::type_name::<T>();
        T::try_from(wide).map_err(|_| format!("{wide} does not fit {ty}"))
    }

    pub fn as_u64(&self) -> Result<u64, String> {
        self.as_int()
    }

    pub fn as_u32(&self) -> Result<u32, String> {
        self.as_int()
    }

    pub fn as_i32(&self) -> Result<i32, String> {
        self.as_int()
    }

    pub fn as_usize(&self) -> Result<usize, String> {
        self.as_int()
    }

    /// A `"<prefix><hex>"` string as the `u64` it spells.
    pub fn as_hex(&self, prefix: &str) -> Result<u64, String> {
        let s = self.as_str()?;
        s.strip_prefix(prefix)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("expected `{prefix}<hex>`, got `{s}`"))
    }

    /// Read a [`Json::checksum`] string.
    pub fn as_checksum(&self) -> Result<u64, String> {
        self.as_hex("fnv1a:")
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

/// 2^53: up to here every integral `f64` is exact; past it the text a
/// number was parsed from has already lost digits.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

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
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Raw(text) => out.push_str(text),
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

/// The deepest nesting of arrays and objects [`parse_json`] accepts. The
/// parser recurses once per level, so this bounds its stack use whatever
/// the input. The deepest document the workspace writes, a snapshot's
/// `to_json`, nests 8 levels; the weights document nests 5.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
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

/// Parse the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
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
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be string, got {other:?}")),
                };
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
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
                items.push(parse_value(b, pos, depth + 1)?);
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
                        // Copy the run up to the next quote or escape whole:
                        // both are ASCII, so the run ends on a char boundary.
                        let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\');
                        let end = run.map_or(b.len(), |n| *pos + n);
                        out.push_str(s_slice(b, *pos, end)?);
                        *pos = end;
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
            ("name".into(), Json::Str("u-net \"v1\"\n — σ ✓".into())),
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
        let back = parse_json(&Json::f32s(&values).render())
            .unwrap()
            .as_f32_vec()
            .unwrap();
        assert_eq!(values, back);
    }

    #[test]
    fn non_finite_weights_stay_loadable_as_nan() {
        let values: Vec<f32> = vec![1.0, f32::NAN, f32::INFINITY, -2.5];
        let back = parse_json(&Json::f32s(&values).render())
            .unwrap()
            .as_f32_vec()
            .unwrap();
        assert_eq!(back[0], 1.0);
        assert!(back[1].is_nan());
        assert!(back[2].is_nan(), "Inf degrades to NaN, not a load error");
        assert_eq!(back[3], -2.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("\"unterminated é").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("hello").is_err());
        assert!(parse_json("{} junk").is_err());
    }

    /// Nesting past [`MAX_DEPTH`] is an `Err` on a thread with the 2 MiB
    /// stack `std::thread::spawn` gives a daemon connection, however deep
    /// the input goes; without the limit these overflow the stack.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&at_limit).is_ok());
        let past = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&past).unwrap_err().contains("nesting"));
        for hostile in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || parse_json(&hostile))
                .unwrap()
                .join()
                .expect("the parser returns rather than overflowing")
                .unwrap_err();
            assert!(err.contains(&format!("deeper than {MAX_DEPTH}")), "{err}");
        }
    }
    #[test]
    fn integers_stay_integers_and_raw_text_goes_out_verbatim() {
        let body = Json::Arr(vec![1.5.into(), 2u64.into()]).render();
        let doc = Json::obj([
            ("seed", u64::MAX.into()),
            ("exit_code", (-1i32).into()),
            ("float", 2.0.into()),
            ("pid", None::<u32>.into()),
            ("side", Json::number(60.0)),
            ("half", Json::number(62.5)),
            ("sum", Json::checksum(0xab)),
            ("body", Json::Raw(body)),
        ]);
        assert_eq!(
            doc.render(),
            "{\"seed\":18446744073709551615,\"exit_code\":-1,\"float\":2.0,\"pid\":null,\
             \"side\":60,\"half\":62.5,\"sum\":\"fnv1a:00000000000000ab\",\"body\":[1.5,2]}"
        );
        // The parser's side of the contract: every number is a `Num`.
        let back = parse_json(&doc.render()).unwrap();
        assert_eq!(back.get("exit_code").unwrap(), &Json::Num(-1.0));
        assert_eq!(back.at("sum", Json::as_checksum), Ok(0xab));
    }

    #[test]
    fn integer_readers_are_exact_or_an_error() {
        let read = |text: &str| parse_json(text).unwrap();
        assert_eq!(read("4242").as_u32(), Ok(4242));
        assert_eq!(read("-1").as_i32(), Ok(-1));
        assert_eq!(read("2147483647").as_i32(), Ok(i32::MAX));
        assert_eq!(read("9007199254740992").as_u64(), Ok(1 << 53));
        assert_eq!(Json::Int(u64::MAX as i128).as_u64(), Ok(u64::MAX));
        // Truncation, saturation and wrap-around are all refused.
        assert!(read("86.7").as_i32().is_err());
        assert!(read("2147483648").as_i32().is_err());
        assert!(read("4294967297").as_u32().is_err());
        assert!(read("-1").as_u64().is_err());
        assert!(read("-1").as_usize().is_err());
        assert!(read("1e300").as_u64().is_err());
        assert!(read("18446744073709551615").as_u64().is_err(), "past 2^53");
        assert!(read("\"7\"").as_u64().is_err());
        assert_eq!(read("\"7\"").as_parsed::<u64>(), Ok(7));
        assert!(read("\"7.5\"").as_parsed::<u64>().is_err());
    }

    #[test]
    fn field_readers_name_the_key_and_check_the_header() {
        let read_doc = |text: &str| parse_json(text).unwrap();
        let doc = read_doc("{\"format\":\"x\",\"version\":1,\"pid\":null,\"n\":2.5}");
        assert_eq!(doc.at("pid", |v| v.as_opt(Json::as_u32)), Ok(None));
        assert_eq!(doc.at("version", |v| v.as_opt(Json::as_u32)), Ok(Some(1)));
        let err = doc.at("n", Json::as_u32).unwrap_err();
        assert!(err.contains("`n`"), "{err}");
        assert!(doc.at("missing", Json::as_str).is_err());
        assert_eq!(doc.expect_header("x", 1), Ok(()));
        assert!(doc.expect_header("y", 1).is_err());
        assert!(doc.expect_header("x", 2).is_err());
        assert!(read_doc("\"fnv1a:zz\"").as_checksum().is_err());
        assert!(read_doc("\"crc:00\"").as_checksum().is_err());
        assert_eq!(read_doc("\"bits:ff\"").as_hex("bits:"), Ok(255));
    }
}
