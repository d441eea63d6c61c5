//! A minimal JSON codec for the machine-readable exporters and the tests
//! that schema-check their output. Not a general-purpose library: it parses
//! the subset the exporters emit (objects, arrays, strings with standard
//! escapes, f64 numbers, booleans, null) with no streaming and no
//! serde-style derive.

use std::fmt::Write as _;

/// Escape a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value at `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The key/value pairs when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kv) => Some(kv),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
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
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|()| Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{text}' at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash at
                // once. Both are ASCII, so they never fall inside a
                // multi-byte character and the run is valid UTF-8 on its
                // own; validating run by run keeps parsing linear.
                let end = find_quote_or_backslash(b, *pos);
                out.push_str(std::str::from_utf8(&b[*pos..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

/// Index of the first `"` or `\` at or after `from`, or `b.len()`. Whole
/// 16-byte blocks are tested without an early exit per byte, which the
/// compiler vectorizes; long strings (base64 payloads) are scanned at
/// memory speed.
fn find_quote_or_backslash(b: &[u8], from: usize) -> usize {
    let is_stop = |c: u8| (c == b'"') | (c == b'\\');
    let mut at = from;
    for block in b[from..].chunks_exact(16) {
        if block.iter().fold(false, |hit, &c| hit | is_stop(c)) {
            break;
        }
        at += 16;
    }
    b[at..].iter().position(|&c| is_stop(c)).map_or(b.len(), |n| at + n)
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        out.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        let raw = "a\"b\\c\nd\te\u{1}";
        let parsed = parse(&format!("\"{}\"", escape_json(raw))).unwrap();
        assert_eq!(parsed.as_str(), Some(raw));
    }

    #[test]
    fn multi_megabyte_strings_round_trip() {
        // Escapes and multi-byte characters sit directly against the run
        // boundaries (the quotes and backslashes the parser stops at).
        let unit = "é\"€\\𝄞\nab\u{1}ü\"\"\\\\ÿ𝄞";
        let raw = unit.repeat(4 << 20 >> 5);
        assert!(raw.len() > 3 << 20);
        let doc = format!("{{\"k\":\"{}\",\"n\":[\"{}\"]}}", escape_json(&raw), escape_json(unit));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some(raw.as_str()));
        assert_eq!(v.get("n").unwrap().as_arr().unwrap()[0].as_str(), Some(unit));
        // One long run with no escapes at all, ending in a multi-byte char.
        let plain = format!("{}é", "x".repeat(8 << 20));
        assert_eq!(parse(&format!("\"{plain}\"")).unwrap().as_str(), Some(plain.as_str()));
        // Unterminated after a long run is still an error.
        assert!(parse(&format!("\"{}", "y".repeat(1 << 20))).is_err());
    }

    #[test]
    fn string_stops_at_every_block_offset() {
        // The scanner tests 16-byte blocks; put the quote or escape at
        // every offset across three blocks.
        for len in 0..48 {
            for stop in ["\"", "\\", "é"] {
                let raw = format!("{}{stop}z", "a".repeat(len));
                let parsed = parse(&format!("[\"{}\",1]", escape_json(&raw))).unwrap();
                assert_eq!(parsed.as_arr().unwrap()[0].as_str(), Some(raw.as_str()), "{len}");
            }
        }
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a":[1,2.5,-3e2],"b":{"c":"x","d":true,"e":null},"f":false}"#;
        let v = parse(doc).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
        assert_eq!(v.get("f"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"x", "{\"a\" 1}", "[1] extra", "{'a':1}"] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse(" [ { } ] ").unwrap().as_arr().unwrap().len(), 1);
    }
}
