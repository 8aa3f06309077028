//! A minimal JSON reader/writer for artifact files (serde_json is not
//! available in this build environment).
//!
//! Integers are kept out of `f64` so `u64` cycle counts round-trip exactly,
//! and floats are written with Rust's shortest-round-trip formatting so a
//! reloaded artifact is bit-identical to a recomputed one.

/// Deepest array/object nesting [`Json::parse`] accepts: the parser
/// recurses per level, so a deeper (hostile or corrupt) document is an
/// error, not a stack overflow. Prism's deepest document is 5 levels.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Negative integer (also any integer written with a sign).
    I64(i64),
    /// Non-negative integer.
    U64(u64),
    /// Number with a fraction or exponent.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Value as `u64` (integer-typed only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Value as `f64` (any numeric type).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Value as `bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Value as string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Value as array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` is shortest-round-trip: parse(format(v)) == v.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

/// Compact JSON serialization (round-trips through [`Json::parse`]).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use std::fmt::Write;
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    /// Parses one value nested inside `depth` arrays or objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nested deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("truncated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

/// Seeded byte-edit fuzzing for this crate's decoder tests: every
/// decoder of bytes from disk or the network must turn corrupt input into
/// an error, never a panic.
#[cfg(test)]
pub(crate) mod fuzz {
    use std::panic::{catch_unwind, RefUnwindSafe};

    /// Mutated documents per decoder.
    pub(crate) const EDITS: usize = 20_000;

    /// Bytes that steer the parser: structure, digits, escapes, literals.
    const STEER: &[u8] = b"{}[]\",:\\-.0123456789eEtfnul ";

    /// SplitMix64: small, seedable, no dependencies.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Makes [`EDITS`] mutants of `docs` (taken in turn), each with one to
    /// four edits that overwrite, delete or insert one byte, and runs
    /// `check` on each under `catch_unwind`. Panics, naming the mutant,
    /// when `check` panicked.
    pub(crate) fn for_each_mutant(
        seed: u64,
        docs: &[String],
        check: impl Fn(&str) + RefUnwindSafe,
    ) {
        let mut gen = Gen(seed);
        for i in 0..EDITS {
            let mut bytes = docs[i % docs.len()].clone().into_bytes();
            for _ in 0..=gen.below(4) {
                let at = gen.below(bytes.len() + 1);
                let byte = if gen.next().is_multiple_of(2) {
                    STEER[gen.below(STEER.len())]
                } else {
                    gen.next() as u8
                };
                match gen.below(3) {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            assert!(
                catch_unwind(|| check(&text)).is_ok(),
                "a decoder panicked on {text:?}"
            );
        }
    }

    /// `doc` nested inside enough arrays to pass the parser's depth cap.
    pub(crate) fn nested_past_the_cap(doc: &str) -> String {
        format!(
            "{}{doc}{}",
            "[".repeat(super::MAX_DEPTH),
            "]".repeat(super::MAX_DEPTH)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("stencil \"v2\"\n".into())),
            ("cycles".into(), Json::U64(u64::MAX)),
            ("delta".into(), Json::I64(-42)),
            ("energy".into(), Json::F64(2.5e-7)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02214076e23, f64::MIN_POSITIVE, -0.0] {
            let text = Json::F64(v).to_string();
            match Json::parse(&text).unwrap() {
                Json::F64(back) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn u64_precision_is_preserved() {
        let v = (1u64 << 53) + 1; // not representable in f64
        let text = Json::U64(v).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
    }

    #[test]
    fn corrupt_documents_are_rejected() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"\\q\"", "{}extra",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Nesting past the cap is an error, not a stack overflow; at the
        // cap it still parses.
        assert!(Json::parse(&"[".repeat(60_000)).is_err());
        assert!(Json::parse(&format!("{}{}", "[".repeat(33), "]".repeat(33))).is_err());
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
    }

    #[test]
    fn mutated_payloads_parse_or_fail_never_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let docs = crate::codec::tests::payloads();
        let parsed = AtomicUsize::new(0);
        fuzz::for_each_mutant(0x5EED_0001, &docs, |text| {
            if Json::parse(text).is_ok() {
                parsed.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Edits inside strings and numbers keep a document valid: the
        // mutants reach past the first syntax check.
        assert!(parsed.into_inner() > fuzz::EDITS / 10);
        for doc in &docs {
            assert!(Json::parse(doc).is_ok(), "{doc}");
            assert!(Json::parse(&fuzz::nested_past_the_cap(doc)).is_err());
        }
    }
}
