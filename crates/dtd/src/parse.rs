//! Textual syntax for DTDs.
//!
//! The syntax is a compact equivalent of `<!ELEMENT …>` / `<!ATTLIST …>` declarations:
//!
//! ```text
//! root store;
//! store -> (book | magazine)*;
//! book  -> title, author+, price?;
//! title -> #;                       // '#' is the empty content model ε
//! magazine -> #;
//! author -> #; price -> #;
//! @book: isbn, year;                // attribute declarations
//! ```
//!
//! * declarations are separated by `;`, `//` starts a line comment;
//! * the first `name -> …` declaration is the root unless an explicit `root name;` is
//!   given;
//! * content models use `,` (concatenation), `|` (disjunction), `*`, `+`, `?`, `#`
//!   (epsilon) and parentheses.

use crate::dtd::Dtd;
use crate::ContentModel;
use std::fmt;
use xpsat_automata::Regex;

/// A byte range into the source text an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first offending byte.
    pub offset: usize,
    /// Length in bytes of the offending region.
    pub len: usize,
}

impl Span {
    /// A span covering `len` bytes starting at `offset`.
    pub fn new(offset: usize, len: usize) -> Span {
        Span { offset, len }
    }
}

/// Error raised by [`parse_dtd`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtdParseError {
    /// Description of the problem.
    pub message: String,
    /// Byte range of the offending input.
    pub span: Span,
}

impl fmt::Display for DtdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DTD parse error at byte {}: {}",
            self.span.offset, self.message
        )
    }
}

impl std::error::Error for DtdParseError {}

/// Resource limits applied while parsing untrusted DTD text.
///
/// `max_elements` caps the number of element types (declared plus auto-declared
/// leaves) — every downstream artifact (symbol table, automata, solver state) scales
/// with it, so the cap is the admission control for the whole pipeline.  `max_depth`
/// caps content-model parenthesis nesting, which otherwise maps straight onto native
/// stack depth in the recursive-descent content parser and in every later recursion
/// over the [`Regex`] tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtdParseLimits {
    /// Maximum number of element types (declared or referenced).
    pub max_elements: usize,
    /// Maximum content-model nesting depth.
    pub max_depth: usize,
    /// Maximum number of tokens in one content model.
    pub max_tokens: usize,
}

impl Default for DtdParseLimits {
    fn default() -> DtdParseLimits {
        DtdParseLimits {
            max_elements: 4096,
            max_depth: 64,
            max_tokens: 1 << 20,
        }
    }
}

/// Parse the textual DTD syntax described in the module documentation, with default
/// [`DtdParseLimits`].
pub fn parse_dtd(input: &str) -> Result<Dtd, DtdParseError> {
    parse_dtd_with_limits(input, &DtdParseLimits::default())
}

/// Parse the textual DTD syntax under explicit resource limits.
pub fn parse_dtd_with_limits(input: &str, limits: &DtdParseLimits) -> Result<Dtd, DtdParseError> {
    // Blank out `//` comments in place (same byte length) so every span below is an
    // offset into the caller's original text.
    let mut cleaned = input.as_bytes().to_vec();
    let mut i = 0;
    while i < cleaned.len() {
        if cleaned[i] == b'/' && cleaned.get(i + 1) == Some(&b'/') {
            while i < cleaned.len() && cleaned[i] != b'\n' {
                cleaned[i] = b' ';
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    let cleaned = String::from_utf8(cleaned).expect("only ASCII bytes were replaced");

    let mut root: Option<String> = None;
    let mut decls: Vec<(String, ContentModel)> = Vec::new();
    let mut attrs: Vec<(String, Vec<String>, Span)> = Vec::new();

    let mut cursor = 0;
    for raw in cleaned.split(';') {
        let raw_start = cursor;
        cursor += raw.len() + 1; // account for the consumed `;`
        let decl = raw.trim();
        if decl.is_empty() {
            continue;
        }
        let decl_start = raw_start + (raw.len() - raw.trim_start().len());
        let decl_span = Span::new(decl_start, decl.len());
        if let Some(rest) = decl.strip_prefix("root ") {
            root = Some(rest.trim().to_string());
        } else if let Some(rest) = decl.strip_prefix('@') {
            let (name, list) = rest.split_once(':').ok_or_else(|| DtdParseError {
                message: format!("attribute declaration without ':' in `{decl}`"),
                span: decl_span,
            })?;
            let names = list
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            attrs.push((name.trim().to_string(), names, decl_span));
        } else {
            let (name, body) = decl.split_once("->").ok_or_else(|| DtdParseError {
                message: format!("element declaration without '->' in `{decl}`"),
                span: decl_span,
            })?;
            if decls.len() >= limits.max_elements {
                return Err(DtdParseError {
                    message: format!(
                        "DTD exceeds the element-type limit ({} element types)",
                        limits.max_elements
                    ),
                    span: decl_span,
                });
            }
            let body_trimmed = body.trim();
            let body_offset =
                decl_start + (decl.len() - body.len()) + (body.len() - body.trim_start().len());
            let content = parse_content_at(body_trimmed, body_offset, limits)?;
            decls.push((name.trim().to_string(), content));
        }
    }

    let root = root
        .or_else(|| decls.first().map(|(n, _)| n.clone()))
        .ok_or_else(|| DtdParseError {
            message: "empty DTD: no declarations found".into(),
            span: Span::new(0, input.len()),
        })?;

    let mut dtd = Dtd::new(root);
    for (name, content) in decls {
        dtd.define(name, content);
    }
    for (name, list, span) in attrs {
        if !dtd.contains(&name) {
            return Err(DtdParseError {
                message: format!("attributes declared for unknown element type `{name}`"),
                span,
            });
        }
        dtd.add_attributes(name, list);
    }
    // Auto-declare referenced-but-undefined element types with empty content, mirroring
    // the convention used throughout the paper's examples (leaf types are often left
    // implicit).  Auto-declared leaves count against the element budget too: they grow
    // the symbol table and every per-DTD artifact just like explicit declarations.
    let missing = dtd.undeclared_references();
    if dtd.elements().count() + missing.len() > limits.max_elements {
        return Err(DtdParseError {
            message: format!(
                "DTD exceeds the element-type limit ({} element types including \
                 auto-declared leaves)",
                limits.max_elements
            ),
            span: Span::new(0, input.len()),
        });
    }
    for missing in missing {
        dtd.declare_empty(missing);
    }
    Ok(dtd)
}

/// Parse a content-model expression whose text starts at byte `base` of the enclosing
/// document; spans on errors are absolute.
fn parse_content_at(
    input: &str,
    base: usize,
    limits: &DtdParseLimits,
) -> Result<ContentModel, DtdParseError> {
    let tokens = tokenize(input, base, limits)?;
    let end = Span::new(base + input.len(), 0);
    let mut p = ContentParser {
        tokens,
        pos: 0,
        depth: 0,
        max_depth: limits.max_depth,
        end,
    };
    let re = p.alternation()?;
    if p.pos != p.tokens.len() {
        return Err(DtdParseError {
            message: format!("trailing tokens in content model `{input}`"),
            span: p.span_here(),
        });
    }
    Ok(re)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Name(String),
    Comma,
    Pipe,
    Star,
    Plus,
    Question,
    Hash,
    LParen,
    RParen,
}

fn tokenize(
    input: &str,
    base: usize,
    limits: &DtdParseLimits,
) -> Result<Vec<(Tok, Span)>, DtdParseError> {
    let mut out: Vec<(Tok, Span)> = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if out.len() >= limits.max_tokens {
            return Err(DtdParseError {
                message: format!(
                    "content model exceeds the token budget ({} tokens)",
                    limits.max_tokens
                ),
                span: Span::new(base + i, 1),
            });
        }
        let start = i;
        let token = match bytes[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b',' => {
                i += 1;
                Tok::Comma
            }
            b'|' => {
                i += 1;
                Tok::Pipe
            }
            b'*' => {
                i += 1;
                Tok::Star
            }
            b'+' => {
                i += 1;
                Tok::Plus
            }
            b'?' => {
                i += 1;
                Tok::Question
            }
            b'#' => {
                i += 1;
                Tok::Hash
            }
            b'(' => {
                i += 1;
                Tok::LParen
            }
            b')' => {
                i += 1;
                Tok::RParen
            }
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'-'
                        || bytes[i] == b'.')
                {
                    i += 1;
                }
                let name = String::from_utf8_lossy(&bytes[start..i]).into_owned();
                if name == "EMPTY" {
                    Tok::Hash
                } else {
                    Tok::Name(name)
                }
            }
            c => {
                return Err(DtdParseError {
                    message: format!("unexpected character `{}` in content model", c as char),
                    span: Span::new(base + i, 1),
                })
            }
        };
        out.push((token, Span::new(base + start, i - start)));
    }
    Ok(out)
}

struct ContentParser {
    tokens: Vec<(Tok, Span)>,
    pos: usize,
    depth: usize,
    max_depth: usize,
    /// Zero-length span just past the content model, for end-of-input errors.
    end: Span,
}

impl ContentParser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// The span of the token at `pos`, or the end-of-input span.
    fn span_here(&self) -> Span {
        self.tokens
            .get(self.pos)
            .map(|(_, s)| *s)
            .unwrap_or(self.end)
    }

    fn alternation(&mut self) -> Result<ContentModel, DtdParseError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            let err = DtdParseError {
                message: format!(
                    "content model nesting exceeds the depth limit ({})",
                    self.max_depth
                ),
                span: self.span_here(),
            };
            self.depth -= 1;
            return Err(err);
        }
        let result = self.alternation_inner();
        self.depth -= 1;
        result
    }

    fn alternation_inner(&mut self) -> Result<ContentModel, DtdParseError> {
        let mut parts = vec![self.concatenation()?];
        while self.eat(&Tok::Pipe) {
            parts.push(self.concatenation()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Regex::Alt(parts)
        })
    }

    fn concatenation(&mut self) -> Result<ContentModel, DtdParseError> {
        let mut parts = vec![self.repetition()?];
        while self.eat(&Tok::Comma) {
            parts.push(self.repetition()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Regex::Concat(parts)
        })
    }

    fn repetition(&mut self) -> Result<ContentModel, DtdParseError> {
        let mut base = self.atom()?;
        loop {
            if self.eat(&Tok::Star) {
                base = Regex::Star(Box::new(base));
            } else if self.eat(&Tok::Plus) {
                base = Regex::Plus(Box::new(base));
            } else if self.eat(&Tok::Question) {
                base = Regex::Opt(Box::new(base));
            } else {
                break;
            }
        }
        Ok(base)
    }

    fn atom(&mut self) -> Result<ContentModel, DtdParseError> {
        match self.peek().cloned() {
            Some(Tok::Name(n)) => {
                self.pos += 1;
                Ok(Regex::Sym(n))
            }
            Some(Tok::Hash) => {
                self.pos += 1;
                Ok(Regex::Epsilon)
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let inner = self.alternation()?;
                if !self.eat(&Tok::RParen) {
                    return Err(DtdParseError {
                        message: "missing closing parenthesis in content model".into(),
                        span: self.span_here(),
                    });
                }
                Ok(inner)
            }
            other => Err(DtdParseError {
                message: format!("expected an element type, '#', or '(': found {other:?}"),
                span: self.span_here(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bookstore_dtd() {
        let dtd = parse_dtd(
            "root store;\n\
             store -> (book | magazine)*;\n\
             book -> title, author+, price?;\n\
             title -> #; author -> #; price -> #; magazine -> #;\n\
             @book: isbn, year;",
        )
        .unwrap();
        assert_eq!(dtd.root(), "store");
        assert!(dtd.contains("book"));
        assert_eq!(dtd.attributes("book").len(), 2);
        let content = dtd.content("book").unwrap();
        assert!(content.matches(&["title".into(), "author".into()]));
        assert!(content.matches(&[
            "title".into(),
            "author".into(),
            "author".into(),
            "price".into()
        ]));
        assert!(!content.matches(&["title".into()]));
    }

    #[test]
    fn first_declaration_is_root_by_default() {
        let dtd = parse_dtd("r -> a, b; a -> #; b -> #;").unwrap();
        assert_eq!(dtd.root(), "r");
    }

    #[test]
    fn referenced_types_are_auto_declared() {
        let dtd = parse_dtd("r -> a*;").unwrap();
        assert!(dtd.contains("a"));
        assert_eq!(dtd.content("a"), Some(&Regex::Epsilon));
    }

    #[test]
    fn comments_and_empty_keyword() {
        let dtd = parse_dtd(
            "// the classic 3SAT skeleton\nr -> x1, x2; x1 -> t | f; x2 -> t | f; t -> EMPTY; f -> EMPTY;",
        )
        .unwrap();
        assert!(dtd.content("t").unwrap().nullable());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_dtd("").is_err());
        assert!(parse_dtd("r >> a;").is_err());
        assert!(parse_dtd("r -> (a;").is_err());
        assert!(parse_dtd("r -> a; @ghost: x;").is_err());
    }

    #[test]
    fn errors_carry_spans_into_the_original_text() {
        // The bad token sits after a comment line; spans must still index the caller's
        // original text, comment included.
        let text = "// preamble\nr -> a; a -> (b%c);";
        let err = parse_dtd(text).unwrap_err();
        assert_eq!(&text[err.span.offset..err.span.offset + err.span.len], "%");

        // The unclosed-paren error points at the end of the content model (the `;`).
        let text = "r -> a; a -> (b, c;";
        let err = parse_dtd(text).unwrap_err();
        assert_eq!(err.span.offset, text.len() - 1, "{err:?}");

        let text = "r -> a; @ghost: x;";
        let err = parse_dtd(text).unwrap_err();
        assert_eq!(
            &text[err.span.offset..err.span.offset + err.span.len],
            "@ghost: x"
        );
    }

    #[test]
    fn element_budget_is_enforced() {
        // 10k-element recursive DTD: structured error, not unbounded artifact growth.
        let mut text = String::from("root e0;\n");
        for i in 0..10_000 {
            text.push_str(&format!("e{i} -> e{}?;\n", (i + 1) % 10_000));
        }
        let err = parse_dtd(&text).unwrap_err();
        assert!(err.message.contains("element-type limit"), "{err}");
        assert!(err.span.len > 0);

        // Auto-declared leaves count against the budget too.
        let limits = DtdParseLimits {
            max_elements: 3,
            ..DtdParseLimits::default()
        };
        let err = parse_dtd_with_limits("r -> a, b, c;", &limits).unwrap_err();
        assert!(err.message.contains("element-type limit"), "{err}");
        assert!(parse_dtd_with_limits("r -> a, b;", &limits).is_ok());
    }

    #[test]
    fn content_nesting_depth_is_enforced() {
        let deep = format!("r -> {}a{};", "(".repeat(50_000), ")".repeat(50_000));
        let err = parse_dtd(&deep).unwrap_err();
        assert!(err.message.contains("depth limit"), "{err}");

        let ok = format!("r -> {}a{};", "(".repeat(32), ")".repeat(32));
        assert!(parse_dtd(&ok).is_ok());
    }
}
