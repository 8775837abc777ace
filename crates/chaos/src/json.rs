//! Reproducer serialization: a minimal hand-rolled JSON reader/writer.
//!
//! The build environment is offline (no serde), and a reproducer only needs
//! a small, fixed schema, so this module implements just enough JSON for
//! the four families' specs: objects, arrays, strings with basic escapes,
//! and integers. Integers are kept as raw token strings end to end — seeds
//! use the full `u64` range and must not round-trip through `f64` — and
//! are narrowed with a range check ([`num`], [`population`]), never `as`.

use std::collections::BTreeMap;

use vampos_bench::cli::MAX_REQUESTS;
use vampos_telemetry::text::push_escaped;

/// A parsed JSON value. Numbers keep their raw token text so 64-bit
/// integers survive exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A numeric token, verbatim.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is irrelevant to the schema; a map keeps
    /// lookups simple.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a `u64`, or why it is not one.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(raw) => raw.parse().map_err(|_| format!("not a u64: {raw}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// The value as a bool, or why it is not one.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    /// The value as a string, or why it is not one.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as an array, or why it is not one.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// Looks `key` up in an object value; an error names the missing key.
    pub fn get<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        match self {
            Json::Obj(map) => map.get(key).ok_or_else(|| format!("missing key {key:?}")),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// Like [`Json::get`] for object values whose key may be absent.
    pub fn get_opt<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

/// `s` as a JSON string literal.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::from('"');
    push_escaped(&mut out, s);
    out.push('"');
    out
}

/// The pretty-printed top-level object every spec serializes to: one
/// `"key": value` per line in the given order (reproducer artifacts must
/// be byte-identical across runs), closed by `}\n`.
pub(crate) fn object(fields: &[(&str, String)]) -> String {
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// A one-line object, the element layout of every array in a reproducer.
pub(crate) fn inline(fields: &[(&str, String)]) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{ {} }}", pairs.join(", "))
}

/// An array value of a top-level key, one element per line.
pub(crate) fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    if items.is_empty() {
        return "[]".to_owned();
    }
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// The ceiling [`population`] enforces: the one the command-line flags
/// sizing the same `Vec`s are held to.
pub use vampos_bench::cli::MAX_POPULATION;

/// Reads the unsigned integer at `key`, refusing values the target type
/// cannot hold (a reproducer is outside input: `as` would reinterpret
/// them silently). Errors name the key.
pub fn num<T: TryFrom<u64>>(doc: &Json, key: &str) -> Result<T, String> {
    let raw = doc.get(key)?.as_u64()?;
    T::try_from(raw).map_err(|_| format!("{key} {raw} is out of range"))
}

/// Reads an instance, replica, client or per-client request count: a
/// [`num`] of at most [`MAX_POPULATION`].
pub fn population(doc: &Json, key: &str) -> Result<usize, String> {
    let n: usize = num(doc, key)?;
    if n > MAX_POPULATION {
        return Err(format!(
            "{key} {n} exceeds the population ceiling {MAX_POPULATION}"
        ));
    }
    Ok(n)
}

/// Reads the `clients` and `requests_per_client` populations of a fleet,
/// recursive or mesh spec, refusing a pair whose product exceeds
/// [`MAX_REQUESTS`], the ceiling `--clients` x `--requests` is held to.
pub fn clients_and_requests(doc: &Json) -> Result<(usize, usize), String> {
    let clients = population(doc, "clients")?;
    let requests = population(doc, "requests_per_client")?;
    match clients.checked_mul(requests) {
        Some(total) if total <= MAX_REQUESTS => Ok((clients, requests)),
        _ => Err(format!(
            "clients x requests_per_client: {clients} x {requests} exceeds the request ceiling {MAX_REQUESTS}"
        )),
    }
}

/// Reads an index into a population of `len` at `key`.
pub fn index(doc: &Json, key: &str, len: usize) -> Result<usize, String> {
    let i: usize = num(doc, key)?;
    if i >= len {
        return Err(format!("{key} {i} is out of range for {len}"));
    }
    Ok(i)
}

/// Reads the string at `key`.
pub fn text(doc: &Json, key: &str) -> Result<String, String> {
    Ok(doc.get(key)?.as_str()?.to_owned())
}

/// Reads the array at `key`, element by element.
pub fn list<T>(
    doc: &Json,
    key: &str,
    item: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    doc.get(key)?.as_arr()?.iter().map(item).collect()
}

/// Deepest `[`/`{` nesting [`parse_value`] follows; reproducers nest 3
/// deep. `Parser::value` recurses per level, so an unbounded document
/// (200 KB of `[`) would overflow the stack instead of failing to parse.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_owned())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                other => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = match other {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8")?;
                    s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected number at byte {start}"));
        }
        Ok(Json::Num(
            std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|e| e.to_string())?
                .to_owned(),
        ))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.pos += 1;
                self.depth += 1;
                let container = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                container
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    /// The rest of an object whose `{` was just consumed.
    fn object(&mut self) -> Result<Json, String> {
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => return Err(format!("expected , or }} got {:?}", other as char)),
            }
        }
    }

    /// The rest of an array whose `[` was just consumed.
    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] got {:?}", other as char)),
            }
        }
    }
}

/// Parses a JSON document into a [`Json`] tree.
///
/// # Errors
///
/// A human-readable description of the first syntax error.
pub fn parse_value(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Family;
    use crate::laws::{self, read as from_json, sample_campaign as sample};
    use crate::spec::CampaignSpec;
    use crate::ComponentFamily;

    fn to_json(spec: &CampaignSpec) -> String {
        ComponentFamily::write_spec(spec)
    }

    fn round_trip(spec: &CampaignSpec) -> CampaignSpec {
        from_json::<ComponentFamily>(&to_json(spec)).unwrap()
    }

    #[test]
    fn round_trips_every_event_kind() {
        laws::every_class_and_plant_round_trips_through_json::<ComponentFamily>();
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let mut spec = sample();
        spec.seed = 18_446_744_073_709_551_615; // u64::MAX
        assert_eq!(round_trip(&spec).seed, u64::MAX);
    }

    #[test]
    fn serialization_is_stable() {
        assert_eq!(to_json(&sample()), to_json(&sample()));
    }

    #[test]
    fn empty_events_round_trip() {
        let mut spec = sample();
        spec.events.clear();
        assert_eq!(round_trip(&spec), spec);
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let mut spec = sample();
        spec.events = vec![vampos_workloads::Disruption::fail(
            vampos_sim::Nanos::from_nanos(1),
            "we\"ird\\nameß",
        )];
        assert_eq!(round_trip(&spec), spec);
    }

    #[test]
    fn nesting_is_followed_to_the_cap_and_refused_past_it() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_value(&nested(MAX_DEPTH + 1)).unwrap_err(),
            "nesting deeper than 64 at byte 64"
        );
        // Siblings do not add up: the cap is on open containers.
        assert!(parse_value(&format!("[{}]", vec!["[[]]"; 100].join(","))).is_ok());
    }

    #[test]
    fn schema_errors_are_reported() {
        let read = from_json::<ComponentFamily>;
        assert!(read("{").is_err());
        assert!(read("{}").is_err());
        assert!(read("{\"workload\": \"marsrover\"}").is_err());
        let whole = to_json(&sample());
        assert!(read(&whole[..whole.len() / 2]).is_err());
        // Numbers wider than their field are refused, not truncated.
        let err = read(&whole.replace("\"bit\": 7", "\"bit\": 263")).unwrap_err();
        assert!(err.contains("bit 263"), "{err}");
        // A request count no sweep writes is refused, not added to `tail`.
        for (key, field) in [("ops", "\"ops\": 48"), ("tail", "\"tail\": 16")] {
            let wide = whole.replace(field, &format!("\"{key}\": 18446744073709551615"));
            let err = read(&wide).unwrap_err();
            assert!(
                err.contains("exceeds the population ceiling"),
                "{key}: {err}"
            );
        }
    }
}
