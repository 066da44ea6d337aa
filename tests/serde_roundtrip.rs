//! Serialization round-trips: specifications and libraries survive JSON —
//! the contract behind the `crusade` CLI's spec files — and the vendored
//! JSON printer and parser match a verbatim reference byte for byte.

// Test code: helpers unwrap and cast freely on controlled inputs.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use crusade::model::{ResourceLibrary, SystemSpec};
use crusade::workloads::{paper_examples, paper_library};

#[test]
fn paper_library_round_trips() {
    let lib = paper_library();
    let json = serde_json::to_string(&lib.lib).unwrap();
    let back: ResourceLibrary = serde_json::from_str(&json).unwrap();
    assert_eq!(lib.lib, back);
}

#[test]
fn full_spec_round_trips() {
    let lib = paper_library();
    let spec = paper_examples()[0].build(&lib);
    let json = serde_json::to_string(&spec).unwrap();
    let back: SystemSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
    back.validate().unwrap();
}

#[test]
fn deserialized_spec_synthesizes_identically() {
    use crusade::core::CoSynthesis;
    let lib = paper_library();
    let spec = paper_examples()[0].build(&lib);
    let back: SystemSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    let a = CoSynthesis::new(&spec, &lib.lib).run().unwrap();
    let b = CoSynthesis::new(&back, &lib.lib).run().unwrap();
    assert_eq!(a.report.cost, b.report.cost);
    assert_eq!(a.report.pe_count, b.report.pe_count);
}

#[test]
fn malformed_spec_is_rejected_cleanly() {
    let err = serde_json::from_str::<SystemSpec>("{\"graphs\": 3}").unwrap_err();
    assert!(err.to_string().contains("invalid"));
}

#[test]
fn damage_round_trips() {
    use crusade::core::Damage;
    let damages = [
        Damage::ExecInflated,
        Damage::ErufTightened,
        Damage::BootDegraded,
    ];
    for damage in damages {
        let json = serde_json::to_string(&damage).unwrap();
        let back: Damage = serde_json::from_str(&json).unwrap();
        assert_eq!(damage, back, "{json}");
    }
}

#[test]
fn repair_outcome_round_trips() {
    use crusade::core::{repair, CoSynthesis, CosynOptions, Damage, RepairOptions, RepairOutcome};
    let lib = paper_library();
    let spec = paper_examples()[0].build(&lib);
    let options = CosynOptions::default();
    let deployed = CoSynthesis::new(&spec, &lib.lib)
        .with_options(options.clone())
        .run()
        .unwrap();
    let dead = deployed
        .architecture
        .pes()
        .map(|(id, _)| id)
        .next()
        .expect("deployed architecture has a live PE");
    let outcome = repair(
        &spec,
        &lib.lib,
        &options,
        &deployed,
        &Damage::PeLost(dead),
        &RepairOptions::default(),
    )
    .expect("a lone PE loss is repairable");
    // `RepairOutcome` carries the full architecture, which has no
    // `PartialEq`: a faithful round-trip re-serializes to the same JSON.
    let json = serde_json::to_string(&outcome).unwrap();
    let back: RepairOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&back).unwrap());
    assert_eq!(outcome.moved_clusters, back.moved_clusters);
    assert_eq!(outcome.added_cost, back.added_cost);
    assert_eq!(outcome.new_pes, back.new_pes);
}

/// The vendored printer and parser must give exactly the bytes, values
/// and error messages of the plain versions they replaced, kept verbatim
/// in `reference` as the oracle.
mod json_layer {
    use proptest::prelude::*;
    use proptest::TestRng;
    use serde::Value;

    mod reference {
        //! The vendored `serde_json` printer and parser before their
        //! allocation fast paths, verbatim but for the error type.

        use serde::Value;

        #[derive(Debug)]
        pub struct Error {
            msg: String,
        }

        impl Error {
            fn new(msg: impl Into<String>) -> Self {
                Error { msg: msg.into() }
            }
        }

        impl std::fmt::Display for Error {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(&self.msg)
            }
        }

        pub fn to_string(v: &Value, indent: Option<&str>) -> Result<String, Error> {
            let mut out = String::new();
            write_value(&mut out, v, indent, 0)?;
            Ok(out)
        }

        pub fn from_str(text: &str) -> Result<Value, Error> {
            let mut p = Parser {
                bytes: text.as_bytes(),
                pos: 0,
            };
            p.skip_ws();
            let value = p.parse_value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
            }
            Ok(value)
        }

        fn write_value(
            out: &mut String,
            v: &Value,
            indent: Option<&str>,
            depth: usize,
        ) -> Result<(), Error> {
            match v {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::U64(n) => out.push_str(&n.to_string()),
                Value::I64(n) => out.push_str(&n.to_string()),
                Value::F64(f) => {
                    if !f.is_finite() {
                        return Err(Error::new("JSON cannot represent a non-finite float"));
                    }
                    // `{:?}` keeps a decimal point (`1.0`, not `1`) so floats stay
                    // floats across a round-trip.
                    out.push_str(&format!("{f:?}"));
                }
                Value::Str(s) => write_json_string(out, s),
                Value::Seq(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return Ok(());
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline_indent(out, indent, depth + 1);
                        write_value(out, item, indent, depth + 1)?;
                    }
                    newline_indent(out, indent, depth);
                    out.push(']');
                }
                Value::Map(entries) => {
                    if entries.is_empty() {
                        out.push_str("{}");
                        return Ok(());
                    }
                    out.push('{');
                    for (i, (k, val)) in entries.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline_indent(out, indent, depth + 1);
                        write_json_string(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        write_value(out, val, indent, depth + 1)?;
                    }
                    newline_indent(out, indent, depth);
                    out.push('}');
                }
            }
            Ok(())
        }

        fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
            if let Some(unit) = indent {
                out.push('\n');
                for _ in 0..depth {
                    out.push_str(unit);
                }
            }
        }

        fn write_json_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
                while let Some(b) = self.bytes.get(self.pos) {
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

            fn expect(&mut self, b: u8) -> Result<(), Error> {
                if self.peek() == Some(b) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(Error::new(format!(
                        "expected `{}` at byte {}",
                        b as char, self.pos
                    )))
                }
            }

            fn eat_literal(&mut self, lit: &str) -> bool {
                if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                    self.pos += lit.len();
                    true
                } else {
                    false
                }
            }

            fn parse_value(&mut self) -> Result<Value, Error> {
                match self.peek() {
                    Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
                    Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
                    Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
                    Some(b'"') => self.parse_string().map(Value::Str),
                    Some(b'[') => self.parse_seq(),
                    Some(b'{') => self.parse_map(),
                    Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
                    other => Err(Error::new(format!(
                        "unexpected {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    ))),
                }
            }

            fn parse_seq(&mut self) -> Result<Value, Error> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }

            fn parse_map(&mut self) -> Result<Value, Error> {
                self.expect(b'{')?;
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
                    self.skip_ws();
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }

            fn parse_string(&mut self) -> Result<String, Error> {
                self.expect(b'"')?;
                let mut s = String::new();
                loop {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| Error::new("invalid UTF-8 in string"))?,
                    );
                    match self.peek() {
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(s);
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.peek() {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'/') => s.push('/'),
                                Some(b'n') => s.push('\n'),
                                Some(b'r') => s.push('\r'),
                                Some(b't') => s.push('\t'),
                                Some(b'b') => s.push('\u{8}'),
                                Some(b'f') => s.push('\u{c}'),
                                Some(b'u') => {
                                    let hex = self
                                        .bytes
                                        .get(self.pos + 1..self.pos + 5)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .ok_or_else(|| Error::new("invalid \\u escape"))?;
                                    // Surrogate pairs are not needed for this
                                    // workspace's data; reject them explicitly.
                                    let c = char::from_u32(hex).ok_or_else(|| {
                                        Error::new("\\u escape is not a scalar value")
                                    })?;
                                    s.push(c);
                                    self.pos += 4;
                                }
                                _ => return Err(Error::new("invalid escape sequence")),
                            }
                            self.pos += 1;
                        }
                        _ => return Err(Error::new("unterminated string")),
                    }
                }
            }

            fn parse_number(&mut self) -> Result<Value, Error> {
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
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid number"))?;
                if is_float {
                    text.parse::<f64>()
                        .map(Value::F64)
                        .map_err(|_| Error::new(format!("invalid number `{text}`")))
                } else if text.starts_with('-') {
                    text.parse::<i64>()
                        .map(Value::I64)
                        .map_err(|_| Error::new(format!("invalid number `{text}`")))
                } else {
                    text.parse::<u64>()
                        .map(Value::U64)
                        .map_err(|_| Error::new(format!("invalid number `{text}`")))
                }
            }
        }
    }

    /// Asserts that `from_str::<Value>` and `parse` give the reference's
    /// value, or its error message, on `text`.
    fn same_parse(text: &str) {
        let slow = reference::from_str(text).map_err(|e| e.to_string());
        let fast = serde_json::from_str::<Value>(text).map_err(|e| e.to_string());
        assert_eq!(fast, slow, "from_str of {text:?}");
        let bare = serde_json::parse(text).map_err(|e| e.to_string());
        assert_eq!(bare, slow, "parse of {text:?}");
    }

    const PIECES: &[&str] = &[
        "a", "Z", "0", " ", "/", "\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{8}", "\u{c}", "\u{1f}",
        "\u{7f}", "é", "✓", "𝄞", "key", "\\u0041",
    ];

    const INTEGERS: &[u64] = &[0, 1, 9, 10, 99, 100, u64::MAX - 1, u64::MAX];

    const SIGNED: &[i64] = &[-1, -10, i64::MIN, i64::MIN + 1, 0, 7, i64::MAX];

    const FLOATS: &[f64] = &[
        1.0,
        1e-7,
        -2.5e300,
        0.0,
        -0.0,
        0.1,
        123.456,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
    ];

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize]
    }

    fn string(rng: &mut TestRng) -> String {
        (0..rng.below(8)).map(|_| pick(rng, PIECES)).collect()
    }

    /// Random `Value` trees up to `depth` levels of nesting.
    struct Trees {
        depth: u32,
    }

    impl Strategy for Trees {
        type Value = Value;

        fn new_value(&self, rng: &mut TestRng) -> Value {
            let kinds = if self.depth == 0 { 6 } else { 8 };
            let inner = Trees {
                depth: self.depth.saturating_sub(1),
            };
            match rng.below(kinds) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::U64(match rng.below(3) {
                    0 => pick(rng, INTEGERS),
                    1 => rng.next_u64(),
                    _ => rng.next_u64() >> rng.below(64),
                }),
                3 => Value::I64(match rng.below(2) {
                    0 => pick(rng, SIGNED),
                    _ => rng.next_u64() as i64,
                }),
                4 => Value::F64(match rng.below(16) {
                    0 => f64::NAN,
                    1..=7 => pick(rng, FLOATS),
                    _ => f64::from_bits(rng.next_u64()),
                }),
                5 => Value::Str(string(rng)),
                6 => Value::Seq((0..rng.below(5)).map(|_| inner.new_value(rng)).collect()),
                _ => Value::Map(
                    (0..rng.below(5))
                        .map(|_| (string(rng), inner.new_value(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn printer_and_parser_match_the_reference(
            tree in Trees { depth: 4 },
            cuts in prop::collection::vec(0usize..4096, 4),
        ) {
            let compact = serde_json::to_string(&tree).map_err(|e| e.to_string());
            let pretty = serde_json::to_string_pretty(&tree).map_err(|e| e.to_string());
            let reference_compact = reference::to_string(&tree, None).map_err(|e| e.to_string());
            let reference_pretty =
                reference::to_string(&tree, Some("  ")).map_err(|e| e.to_string());
            prop_assert_eq!(&compact, &reference_compact);
            prop_assert_eq!(&pretty, &reference_pretty);
            for text in [compact, pretty].into_iter().flatten() {
                same_parse(&text);
                for cut in &cuts {
                    let mut at = cut % (text.len() + 1);
                    while !text.is_char_boundary(at) {
                        at -= 1;
                    }
                    same_parse(&text[..at]);
                }
            }
        }
    }

    #[test]
    fn hostile_texts_parse_like_the_reference() {
        let corpus = [
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "-",
            "-0",
            "007",
            "1.",
            "1e",
            "1E+2",
            "1e999",
            "1-2",
            "+1",
            ".5",
            "--1",
            "-9223372036854775808",
            "-9223372036854775809",
            "[1.,2]",
            "{\"a\":12e}",
            "\"\\u12\"",
            "\"\\u001f\"",
            "\"\\u001F\"",
            "\"\\u+041\"",
            "\"\\ud800\"",
            "\"\\x\"",
            "\"é\\n✓\\t𝄞\"",
            "\"unterminated",
            "\"ends in an escape\\",
            "{\"a\":1} trailing",
            "[1]]",
            "1 2",
            "{\"k\":-}",
            "[1,",
            "{\"a\":1,}",
            "tru",
            "",
            "  ",
        ];
        for text in corpus {
            same_parse(text);
        }
    }
}
