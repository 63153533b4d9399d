//! SQL lexer: keywords, identifiers (plain and `"quoted"`), numbers,
//! `'string'` literals with `''` escaping, operators and comments.

use pytond_common::{Error, Result};

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keyword or identifier, upper-cased for keyword matching; the original
    /// spelling is kept alongside.
    Word {
        /// Upper-cased form used for keyword comparison.
        upper: String,
        /// Original spelling (identifier case is preserved).
        original: String,
        /// `true` when the word was written in double quotes.
        quoted: bool,
    },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (content, unescaped).
    Str(String),
    /// Operator / punctuation.
    Op(&'static str),
    /// End of input.
    Eof,
}

impl Tok {
    /// `true` when this token is the given keyword.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Word { upper, quoted: false, .. } if upper == kw)
    }
}

const OPERATORS: &[&str] = &[
    "<>", "!=", "<=", ">=", "||", "(", ")", ",", ";", "+", "-", "*", "/", "%", "<", ">", "=", ".",
];

/// Reads a `quote`-delimited run whose opening quote sits just before
/// `start`; a doubled quote inside it is one literal quote. Returns the
/// unescaped content and the position after the closing quote.
fn quoted(src: &str, start: usize, quote: u8, what: &str) -> Result<(String, usize)> {
    let b = src.as_bytes();
    let mut out = String::new();
    let (mut seg, mut pos) = (start, start);
    loop {
        match b.get(pos) {
            None => return Err(Error::Sql(format!("unterminated {what}"))),
            Some(&c) if c == quote => {
                out.push_str(&src[seg..pos]);
                if b.get(pos + 1) != Some(&quote) {
                    return Ok((out, pos + 1));
                }
                out.push(quote as char);
                pos += 2;
                seg = pos;
            }
            Some(_) => pos += 1,
        }
    }
}

/// Tokenizes SQL text.
pub fn tokenize(src: &str) -> Result<Vec<Tok>> {
    let b = src.as_bytes();
    let mut pos = 0usize;
    let mut toks = Vec::new();
    while pos < b.len() {
        let c = b[pos];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'-' if b.get(pos + 1) == Some(&b'-') => {
                while pos < b.len() && b[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'\'' => {
                let (s, end) = quoted(src, pos + 1, b'\'', "string literal")?;
                pos = end;
                toks.push(Tok::Str(s));
            }
            b'"' => {
                let (original, end) = quoted(src, pos + 1, b'"', "quoted identifier")?;
                pos = end;
                toks.push(Tok::Word {
                    upper: original.to_uppercase(),
                    original,
                    quoted: true,
                });
            }
            b'0'..=b'9' => {
                let start = pos;
                let mut is_float = false;
                while pos < b.len() {
                    match b[pos] {
                        b'0'..=b'9' => pos += 1,
                        b'.' if !is_float && matches!(b.get(pos + 1), Some(b'0'..=b'9')) => {
                            is_float = true;
                            pos += 1;
                        }
                        b'e' | b'E'
                            if matches!(b.get(pos + 1), Some(b'0'..=b'9'))
                                || (matches!(b.get(pos + 1), Some(b'+' | b'-'))
                                    && matches!(b.get(pos + 2), Some(b'0'..=b'9'))) =>
                        {
                            is_float = true;
                            pos += 1;
                            if matches!(b[pos], b'+' | b'-') {
                                pos += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&b[start..pos]).unwrap();
                if is_float {
                    toks.push(Tok::Float(
                        text.parse()
                            .map_err(|_| Error::Sql(format!("bad float literal '{text}'")))?,
                    ));
                } else {
                    toks.push(Tok::Int(text.parse().map_err(|_| {
                        Error::Sql(format!("bad integer literal '{text}'"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = pos;
                while pos < b.len() && (b[pos].is_ascii_alphanumeric() || b[pos] == b'_') {
                    pos += 1;
                }
                let original = std::str::from_utf8(&b[start..pos]).unwrap().to_string();
                toks.push(Tok::Word {
                    upper: original.to_uppercase(),
                    original,
                    quoted: false,
                });
            }
            _ => {
                let rest = &src[pos..];
                let mut matched = false;
                for op in OPERATORS {
                    if rest.starts_with(op) {
                        toks.push(Tok::Op(op));
                        pos += op.len();
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    return Err(Error::Sql(format!("unexpected character '{}'", c as char)));
                }
            }
        }
    }
    toks.push(Tok::Eof);
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_identifiers() {
        let t = tokenize("SELECT a FROM t").unwrap();
        assert!(t[0].is_kw("SELECT"));
        assert!(matches!(&t[1], Tok::Word { original, .. } if original == "a"));
    }

    #[test]
    fn string_escaping() {
        let t = tokenize("'o''brien' 'caf\u{e9}' \"a\"\"b\"").unwrap();
        assert_eq!(t[0], Tok::Str("o'brien".into()));
        assert_eq!(t[1], Tok::Str("caf\u{e9}".into()));
        assert!(matches!(&t[2], Tok::Word { original, quoted: true, .. } if original == "a\"b"));
        assert!(tokenize("'open").is_err());
    }

    #[test]
    fn numbers() {
        let t = tokenize("1 2.5 1e3").unwrap();
        assert_eq!(t[0], Tok::Int(1));
        assert_eq!(t[1], Tok::Float(2.5));
        assert_eq!(t[2], Tok::Float(1000.0));
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT -- comment\n1").unwrap();
        assert_eq!(t.len(), 3); // SELECT, 1, EOF
    }

    #[test]
    fn quoted_identifiers_not_keywords() {
        let t = tokenize("\"select\"").unwrap();
        assert!(matches!(&t[0], Tok::Word { quoted: true, .. }));
        assert!(!t[0].is_kw("SELECT"));
    }

    #[test]
    fn multi_char_operators() {
        let t = tokenize("a <> b <= c || d").unwrap();
        assert_eq!(t[1], Tok::Op("<>"));
        assert_eq!(t[3], Tok::Op("<="));
        assert_eq!(t[5], Tok::Op("||"));
    }
}
