//! Minimal vendored `serde_json` for offline builds: serializes the
//! `serde` shim's [`Value`] tree to JSON text and parses it back.
//!
//! Covers the subset the workspace uses: `to_string`, `to_vec`,
//! `from_str`, `from_slice`, `Result`, `Error`. Non-finite floats are
//! written as `null` (like upstream) and read back as NaN.
//!
//! Both directions are linear in the size of the document. The parser
//! rejects nesting deeper than 128 arrays and objects (upstream's default
//! limit) with an error, so a hostile body cannot overflow a thread's
//! stack. The writer's bytes are part of the workspace's formats:
//! artifact digests and state fingerprints hash them, so they must not
//! change.

use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;

pub use serde::Error;

pub type Result<T> = std::result::Result<T, Error>;

/// The deepest nesting of arrays and objects the parser accepts.
const MAX_DEPTH: usize = 128;

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        src: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    T::deserialize_owned(v)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

// ---------- writer ----------

fn write_value(v: &Value, out: &mut String) {
    // `fmt::Write` for `String` never fails, so the `write!` results below
    // carry no information.
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest round-trip float formatting.
                let _ = write!(out, "{f:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

/// Writes `s` as a JSON string. Runs free of `"`, `\` and control
/// characters are copied with one `push_str` each; the scan for the bytes
/// that need escaping reads 8 bytes a step ([`next_escape`]).
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Every byte that needs escaping is ASCII, so each split falls on a
    // character boundary.
    while let Some(i) = next_escape(rest.as_bytes()) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Whether a byte must be escaped inside a JSON string.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// A byte in each of a word's eight lanes.
const fn lanes(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// Flags the lanes of `w` that hold a byte [`needs_escape`] (bit 7 of the
/// lane). The subtractions borrow upward only from a lane that holds a
/// match, so a false flag can only sit above a true one, and the lowest
/// flag always marks the first match.
fn escape_flags(w: u64) -> u64 {
    const HIGH: u64 = lanes(0x80);
    let below = |x: u64, n: u8| x.wrapping_sub(lanes(n)) & !x & HIGH;
    below(w ^ lanes(b'"'), 1) | below(w ^ lanes(b'\\'), 1) | below(w, 0x20)
}

/// The index of the first byte of `bytes` that needs escaping, read as
/// little-endian words so the first byte is the lowest lane.
fn next_escape(bytes: &[u8]) -> Option<usize> {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for (k, word) in words.enumerate() {
        let flags = escape_flags(u64::from_le_bytes(word.try_into().unwrap_or_default()));
        if flags != 0 {
            return Some(8 * k + flags.trailing_zeros() as usize / 8);
        }
    }
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| needs_escape(b)).map(|p| at + p)
}

// ---------- parser ----------

/// A recursive-descent parser over already-validated UTF-8. `pos` only
/// ever stops on an ASCII byte (a structural character, a quote, an
/// escape or the end), so every slice it takes of `src` falls on a
/// character boundary.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// The source text from `start` up to the current position.
    fn text_from(&self, start: usize) -> Result<&'a str> {
        self.src
            .get(start..self.pos)
            .ok_or_else(|| Error::msg(format!("bytes {start}..{} split a character", self.pos)))
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_seq),
            Some(b'{') => self.nested(Self::parse_map),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] of them at once.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_seq(&mut self) -> Result<Value> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at byte {}, found {other:?}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}, found {other:?}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            let start = self.pos;
            let run = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            self.pos = run.map_or(self.src.len(), |n| start + n);
            out.push_str(self.text_from(start)?);
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.parse_escape(&mut out)?,
            }
        }
    }

    /// Decodes the escape whose backslash is at the current position.
    fn parse_escape(&mut self, out: &mut String) -> Result<()> {
        let esc = self
            .bytes()
            .get(self.pos + 1)
            .copied()
            .ok_or_else(|| Error::msg("bad escape"))?;
        self.pos += 2;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hex = self
                    .bytes()
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| Error::msg("bad \\u escape"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| Error::msg("bad \\u escape"))?;
                self.pos += 4;
                // Surrogate pairs are not needed for this workspace's
                // identifiers; map lone surrogates to the replacement
                // character.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            other => return Err(Error::msg(format!("bad escape `\\{}`", other as char))),
        }
        Ok(())
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self.text_from(start)?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::UInt(u64::MAX)),
            ("b".to_string(), Value::Int(-7)),
            ("c".to_string(), Value::Float(0.1)),
            (
                "d".to_string(),
                Value::Seq(vec![Value::Bool(true), Value::Null]),
            ),
            ("e".to_string(), Value::Str("q\"\\\n✓".to_string())),
        ]);
        let mut s = String::new();
        write_value(&v, &mut s);
        let back: Value = from_str(&s).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.0f64, 1.5, -2.25, 1e-9, 3.402_823_5e38, f64::MIN_POSITIVE] {
            let s = to_string(&x).expect("serialize");
            let back: f64 = from_str(&s).expect("parse");
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn parses_the_same_tree() {
        // Integer tokens stay integers (so "-0" is integer zero), anything
        // with a fraction or exponent is an f64, and u64 overflow falls
        // back to f64.
        let doc = " {\"u\": 7, \"i\": -7, \"z\": -0, \"f\": 1.5, \"e\": 1E3, \
                   \"big\": 18446744073709551616, \"s\": \"a\\u00e9\\\"\", \
                   \"n\": null, \"b\": [true, false, []], \"m\": {}} ";
        let entry = |k: &str, v: Value| (k.to_string(), v);
        let want = Value::Map(vec![
            entry("u", Value::UInt(7)),
            entry("i", Value::Int(-7)),
            entry("z", Value::Int(0)),
            entry("f", Value::Float(1.5)),
            entry("e", Value::Float(1000.0)),
            entry("big", Value::Float(18_446_744_073_709_551_616.0)),
            entry("s", Value::Str("aé\"".to_string())),
            entry("n", Value::Null),
            entry(
                "b",
                Value::Seq(vec![
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Seq(vec![]),
                ]),
            ),
            entry("m", Value::Map(vec![])),
        ]);
        assert_eq!(from_str::<Value>(doc).expect("parse"), want);
        assert_eq!(from_slice::<Value>(doc.as_bytes()).expect("parse"), want);
        assert!(from_str::<Value>("[1] x").is_err());
        assert!(from_slice::<Value>(b"\"\xff\"").is_err());
    }

    #[test]
    fn strings_mix_multibyte_runs_and_escapes() {
        // Escapes sit right next to multi-byte characters, so every copied
        // run starts or ends on a character boundary.
        let cases = [
            (r#""✓\n✓""#, "✓\n✓"),
            (r#""\"é\\""#, "\"é\\"),
            (r#""日本\u00e9語\t""#, "日本é語\t"),
            (r#""\u2713🎉\/\b\f\r""#, "✓🎉/\u{8}\u{c}\r"),
            (r#""é\\\\\"""#, "é\\\\\""),
            (r#""""#, ""),
            (r#""plain ascii""#, "plain ascii"),
        ];
        for (json, want) in cases {
            let got: String = from_str(json).expect(json);
            assert_eq!(got, want, "{json}");
        }
        let s = "a\"b\\c\nd\re\tf\u{1}g✓🎉";
        let back: String = from_str(&to_string(s).expect("serialize")).expect("parse");
        assert_eq!(back, s);
    }

    #[test]
    fn string_may_end_on_the_last_byte() {
        assert_eq!(from_str::<String>("\"é\"").expect("parse"), "é");
        assert_eq!(from_str::<String>("\"\\n\"").expect("parse"), "\n");
        let v: Value = from_slice("[\"x\",\"🎉\"]".as_bytes()).expect("parse");
        assert_eq!(
            v,
            Value::Seq(vec![
                Value::Str("x".to_string()),
                Value::Str("🎉".to_string())
            ])
        );
    }

    #[test]
    fn broken_strings_still_error() {
        for (bad, msg) in [
            ("\"abc", "unterminated string"),
            ("\"é", "unterminated string"),
            ("\"", "unterminated string"),
            ("\"abc\\", "bad escape"),
            ("\"\\", "bad escape"),
            ("\"\\q\"", "bad escape `\\q`"),
            ("\"\\u12\"", "bad \\u escape"),
            ("\"\\u12g4\"", "bad \\u escape"),
        ] {
            let err = from_str::<String>(bad).expect_err(bad);
            assert!(err.to_string().contains(msg), "{bad}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let seqs = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        let maps = |d: usize| format!("{}1{}", "{\"k\":".repeat(d), "}".repeat(d));
        for doc in [seqs(MAX_DEPTH), maps(MAX_DEPTH)] {
            assert!(from_str::<Value>(&doc).is_ok());
        }
        for doc in [seqs(MAX_DEPTH + 1), maps(MAX_DEPTH + 1), "[".repeat(10_000)] {
            let err = from_str::<Value>(&doc).expect_err("too deep");
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn writer_bytes_are_pinned() {
        // Artifact digests and state fingerprints hash these bytes.
        let entry = |k: &str, v: Value| (k.to_string(), v);
        let nested = Value::Map(vec![
            entry(
                "a",
                Value::Seq(vec![
                    Value::UInt(1),
                    Value::Int(-2),
                    Value::Float(0.5),
                    Value::Map(vec![entry("b", Value::Null), entry("c", Value::Bool(true))]),
                ]),
            ),
            entry("d", Value::Str("x\"y\n\u{1}✓".to_string())),
            entry("e", Value::Map(vec![])),
        ]);
        let cases = [
            (Value::Float(0.1), "0.1"),
            (Value::Float(1e-9), "1e-9"),
            (Value::Float(-2.25), "-2.25"),
            (Value::Float(1.0), "1.0"),
            (Value::Float(1e16), "1e16"),
            (Value::Float(f64::from(0.1f32)), "0.10000000149011612"),
            (Value::Float(f64::NAN), "null"),
            (Value::Float(f64::INFINITY), "null"),
            (Value::Float(f64::NEG_INFINITY), "null"),
            (Value::UInt(u64::MAX), "18446744073709551615"),
            (Value::Int(i64::MIN), "-9223372036854775808"),
            (Value::Str(String::new()), "\"\""),
            (
                Value::Str("\\a\tb\rc\u{1f}\u{7f}é\"".to_string()),
                "\"\\\\a\\tb\\rc\\u001f\u{7f}é\\\"\"",
            ),
            (
                nested,
                "{\"a\":[1,-2,0.5,{\"b\":null,\"c\":true}],\"d\":\"x\\\"y\\n\\u0001✓\",\"e\":{}}",
            ),
        ];
        for (v, want) in cases {
            assert_eq!(to_string(&v).expect("serialize"), want);
        }
    }

    /// The writer's string form, scanning one byte at a time.
    fn reference_string(s: &str) -> String {
        let mut out = vec![b'"'];
        for &b in s.as_bytes() {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b if b < 0x20 => out.extend_from_slice(format!("\\u{b:04x}").as_bytes()),
                b => out.push(b),
            }
        }
        out.push(b'"');
        String::from_utf8(out).expect("escaping keeps every character whole")
    }

    fn assert_writes_like_reference(s: &str) {
        let got = to_string(s).expect("serialize");
        assert_eq!(got, reference_string(s), "{s:?}");
        assert_eq!(from_str::<String>(&got).expect("parse"), s);
    }

    #[test]
    fn string_escapes_match_a_bytewise_scan_at_every_offset() {
        // Every escape class, and the bytes next to each class's bound.
        let mut specials: Vec<char> = (0u8..0x20).map(char::from).collect();
        specials.extend(['"', '\\']);
        let neighbours = ['\u{20}', '!', '#', '[', ']', '\u{7f}', 'é', '✓', '🎉'];
        for &c in &specials {
            for offset in 0..=16 {
                for tail in [0, 1, 7, 8, 9] {
                    let mut s = "0123456789abcdef".repeat(2)[..offset].to_string();
                    s.push(c);
                    s.push_str(&"x".repeat(tail));
                    assert_writes_like_reference(&s);
                    // A second escape in the same word, and one a word later.
                    let mut two = s.clone();
                    two.push(c);
                    two.push_str("abcdefgh");
                    two.push('"');
                    assert_writes_like_reference(&two);
                }
            }
        }
        for &c in &neighbours {
            for offset in 0..=16 {
                let s = format!("{}{c}\n", &"ab".repeat(offset)[..offset]);
                assert_writes_like_reference(&s);
            }
        }
    }

    #[test]
    fn string_escapes_sit_beside_multibyte_characters() {
        for s in [
            "é\"✓\\🎉\n",
            "日本語テキスト\t",
            "\u{1}é\u{1f}é\u{7f}€\"",
            "🎉🎉🎉🎉\\🎉🎉🎉🎉",
            "ééééééé\"",
            "\u{80}\u{9f}\u{a0}\u{ff}\u{100}\u{2028}\u{10ffff}\r",
            "",
            "no escapes at all, but longer than a word",
        ] {
            for offset in 0..=16 {
                assert_writes_like_reference(&format!("{}{s}", "z".repeat(offset)));
            }
        }
    }

    #[test]
    fn multi_megabyte_hex_string_writes_like_a_bytewise_scan() {
        // A 4 MB bit string like the dataset's: no escapes, then the same
        // string with escapes at its start, middle and last byte.
        let values: Vec<f32> = (0..500_000u32)
            .map(|i| f32::from_bits(i.wrapping_mul(2_654_435_761)))
            .collect();
        let Value::Str(hex) = serde::f32_bits(&values) else {
            panic!("a bit string is a string")
        };
        assert_writes_like_reference(&hex);
        let mut marked = hex.into_bytes();
        let n = marked.len();
        for at in [0, n / 2 + 3, n - 1] {
            marked[at] = b'"';
        }
        marked[n / 3] = b'\n';
        let marked = String::from_utf8(marked).expect("ascii");
        assert_writes_like_reference(&marked);
    }

    #[test]
    fn batch_body_decodes_f32_components_bit_identically() {
        // A 64-query × 64-dim `/estimate_batch` body as clients write it:
        // f32 components in `{x}` Display. Every component must decode to
        // exactly `text.parse::<f64>() as f32`.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut component = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            if r & 3 == 0 {
                // Any finite nonzero f32, subnormals up to f32::MAX.
                let x = f32::from_bits((r >> 32) as u32);
                if x.is_finite() && x != 0.0 {
                    x
                } else {
                    0.5
                }
            } else {
                // Unit-vector-sized components.
                (r >> 40) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
            }
        };
        let mut texts: Vec<Vec<String>> = Vec::new();
        let entries: Vec<String> = (0..64)
            .map(|i| {
                let parts: Vec<String> = (0..64).map(|_| format!("{}", component())).collect();
                let tau = 0.05 * (i % 12) as f32;
                let entry = format!("{{\"query\":[{}],\"tau\":{tau}}}", parts.join(","));
                texts.push(parts);
                entry
            })
            .collect();
        let body = format!("{{\"queries\":[{}]}}", entries.join(","));
        let v: Value = from_slice(body.as_bytes()).expect("parse");
        let map = v.expect_map("batch").expect("a map");
        let queries: Vec<Value> = serde::get_field(map, "queries", "batch").expect("queries");
        assert_eq!(queries.len(), 64);
        for (q, parts) in queries.iter().zip(&texts) {
            let m = q.expect_map("entry").expect("a map");
            let got: Vec<f32> = serde::get_field(m, "query", "entry").expect("query");
            assert_eq!(got.len(), parts.len());
            for (g, text) in got.iter().zip(parts) {
                let want = text.parse::<f64>().expect("a number") as f32;
                assert_eq!(g.to_bits(), want.to_bits(), "{text}");
            }
        }
    }
}
