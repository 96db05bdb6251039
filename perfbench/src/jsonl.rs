//! The client side of the JSONL protocol: a string escaper for building
//! requests and a small linear-time reader for checking responses.
//!
//! The benchmark checks the service's output with its own reader rather
//! than the service's `json` module, so a parser bug in the program cannot
//! hide itself, and the client's cost does not move when the program's
//! parser changes.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Val>),
    /// An object, in document order.
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload.
    pub fn num(&self) -> Option<f64> {
        match self {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Bool payload.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn arr(&self) -> Option<&[Val]> {
        match self {
            Val::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `"ok": true`?
    pub fn ok(&self) -> bool {
        self.get("ok").and_then(Val::bool) == Some(true)
    }
}

/// Append `s` as a JSON string literal.
pub fn push_str(out: &mut String, s: &str) {
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

/// Append a JSON array of string literals.
pub fn push_str_array<'a>(out: &mut String, values: impl IntoIterator<Item = &'a str>) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, v);
    }
    out.push(']');
}

/// Parse one JSON document.
pub fn parse(input: &str) -> Result<Val, String> {
    let mut p = Reader {
        b: input.as_bytes(),
        s: input,
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(v)
}

struct Reader<'a> {
    b: &'a [u8],
    s: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit} at {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        self.ws();
        match self.b.get(self.pos) {
            Some(b'n') => self.eat("null").map(|_| Val::Null),
            Some(b't') => self.eat("true").map(|_| Val::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Val::Bool(false)),
            Some(b'"') => self.string().map(Val::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Val::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.ws();
                if self.b.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Val::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Val::Obj(members));
                        }
                        _ => return Err(format!("bad object at {}", self.pos)),
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.b.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                self.s[start..self.pos]
                    .parse()
                    .map(Val::Num)
                    .map_err(|_| format!("bad number at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or escape.
            let start = self.pos;
            while let Some(&c) = self.b.get(self.pos) {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.s[start..self.pos]);
            match self.b.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *self.b.get(self.pos + 1).ok_or("truncated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                self.eat("\\u")?;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        _ => return Err(format!("bad escape at {}", self.pos)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.s.get(self.pos..self.pos + 4).ok_or("truncated \\u")?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_round_trip() {
        for s in [
            "plain",
            "quote \" and \\ slash",
            "tab\tnl\n",
            "ctl \u{1}",
            "ü €",
        ] {
            let mut out = String::new();
            push_str(&mut out, s);
            assert_eq!(parse(&out).unwrap(), Val::Str(s.to_string()));
        }
    }

    #[test]
    fn reads_nested_documents() {
        let v = parse(r#"{"ok":true,"n":-1.5e-3,"a":[null,"xé"],"o":{}}"#).unwrap();
        assert!(v.ok());
        assert_eq!(v.get("n").and_then(Val::num), Some(-0.0015));
        assert_eq!(
            v.get("a").and_then(Val::arr).unwrap()[1],
            Val::Str("xé".into())
        );
        assert!(parse("{\"a\":1} x").is_err());
    }
}
