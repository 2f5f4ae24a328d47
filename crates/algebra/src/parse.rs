//! A parser for the ASCII expression form produced by
//! [`crate::display::to_text`], and the [`Scanner`] that both text
//! grammars read with: this one and `sj_logic`'s formula grammar.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! expr    := IDENT                                  -- relation name
//!          | "union" "(" expr "," expr ")"
//!          | "diff" "(" expr "," expr ")"
//!          | "project" "[" cols "]" "(" expr ")"
//!          | "gcount" "[" cols "]" "(" expr ")"
//!          | "select" "[" selcond "]" "(" expr ")"
//!          | "tag" "[" literal "]" "(" expr ")"
//!          | "join" "[" cond "]" "(" expr "," expr ")"
//!          | "semijoin" "[" cond "]" "(" expr "," expr ")"
//! cols    := INT ("," INT)*  | ε
//! selcond := INT "=" INT | INT "<" INT | INT "=" literal
//! cond    := "true" | atom ("," atom)*
//! atom    := INT op INT          with op ∈ { "=", "!=", "<", ">" }
//! literal := "{" "-"? INT "}"    -- integer constant
//!          | "'" chars "'"       -- string constant; "''" is one quote
//! ```
//!
//! Round-trip guarantee: `parse(&to_text(e)) == e` for every well-formed
//! expression (see the property test in the crate tests).
//!
//! Operators nest at most [`MAX_DEPTH`] deep, so over-deep input is a
//! parse error rather than a stack overflow.

use crate::condition::{Atom, CompOp, Condition};
use crate::error::AlgebraError;
use crate::expr::{Expr, Selection};
use sj_storage::Value;

/// The deepest operator nesting [`parse`] accepts: each operator is one
/// level, and a relation name none. The committed tests, examples and
/// round trips parse at most 100 deep (`tests::nested_deeply`). Without
/// the bound, a debug build (rustc 1.95) on a 2 MiB test thread parses
/// 310 nested projections and overflows at 311.
pub const MAX_DEPTH: usize = 200;

/// Parse an expression; see the module docs for the grammar. Input
/// nested deeper than [`MAX_DEPTH`] is a parse error.
pub fn parse(input: &str) -> Result<Expr, AlgebraError> {
    let mut s = Scanner::new(input, MAX_DEPTH);
    let e = expr(&mut s)?;
    s.finish()?;
    Ok(e)
}

/// The lexical layer of both text grammars: a byte position in the
/// input and the number of productions open at it. Every reader but
/// [`Scanner::literal`]'s string body skips whitespace first, so the
/// grammars are whitespace-insensitive between tokens. Errors are
/// [`AlgebraError::Parse`] at the current byte.
pub struct Scanner<'a> {
    input: &'a [u8],
    pos: usize,
    /// Productions open at the current byte.
    depth: usize,
    max_depth: usize,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `input` that lets productions nest at
    /// most `max_depth` deep.
    pub fn new(input: &'a str, max_depth: usize) -> Self {
        Scanner {
            input: input.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth,
        }
    }

    /// A parse error at the current byte.
    pub fn err(&self, message: impl Into<String>) -> AlgebraError {
        AlgebraError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Skip whitespace; then a parse error unless the input is used up.
    pub fn finish(&mut self) -> Result<(), AlgebraError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing input")),
        }
    }

    /// The next byte after whitespace, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip(|b| b.is_ascii_whitespace());
        self.input.get(self.pos).copied()
    }

    /// Consume `token` if the input continues with it after whitespace.
    pub fn eat(&mut self, token: &str) -> bool {
        self.peek();
        let found = self.input[self.pos..].starts_with(token.as_bytes());
        if found {
            self.pos += token.len();
        }
        found
    }

    /// Consume `token`, or a parse error.
    pub fn expect(&mut self, token: &str) -> Result<(), AlgebraError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?}")))
        }
    }

    /// A run of ASCII letters, digits and `_` that does not start with a
    /// digit.
    pub fn ident(&mut self) -> Result<String, AlgebraError> {
        self.peek();
        let start = self.skip(|b| b.is_ascii_alphanumeric() || b == b'_');
        if self.pos == start || self.input[start].is_ascii_digit() {
            self.pos = start;
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// An optionally negative decimal `i64`.
    fn integer(&mut self) -> Result<i64, AlgebraError> {
        self.peek();
        let start = self.pos;
        if self.input.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        self.skip(|b| b.is_ascii_digit());
        let text = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
        text.parse().map_err(|_| self.err("expected integer"))
    }

    /// A constant as [`crate::display::value_literal`] prints it:
    /// `{int}`, or `'string'` with each quote inside doubled.
    pub fn literal(&mut self) -> Result<Value, AlgebraError> {
        if self.eat("{") {
            let v = self.integer()?;
            self.expect("}")?;
            return Ok(Value::int(v));
        }
        if !self.eat("'") {
            return Err(self.err("expected literal ({int} or 'string')"));
        }
        let mut text = Vec::new();
        loop {
            let start = self.skip(|b| b != b'\'');
            text.extend_from_slice(&self.input[start..self.pos]);
            if self.pos == self.input.len() {
                return Err(self.err("unterminated string literal"));
            }
            self.pos += 1;
            if self.input.get(self.pos) != Some(&b'\'') {
                return Ok(Value::str(String::from_utf8_lossy(&text)));
            }
            text.push(b'\'');
            self.pos += 1;
        }
    }

    /// `depth` itself, or the parse error past the scanner's bound.
    pub fn bounded(&self, depth: usize) -> Result<usize, AlgebraError> {
        if depth > self.max_depth {
            return Err(self.err(format!("nested deeper than {}", self.max_depth)));
        }
        Ok(depth)
    }

    /// Parse `inner` one production deeper, or a parse error if that
    /// nests past the scanner's bound.
    pub fn nested<T, E: From<AlgebraError>>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        self.depth = self.bounded(self.depth + 1)?;
        let out = inner(self)?;
        self.depth -= 1;
        Ok(out)
    }

    /// Advance over the bytes `keep` accepts; the position it started at.
    fn skip(&mut self, keep: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while self.input.get(self.pos).is_some_and(|&b| keep(b)) {
            self.pos += 1;
        }
        start
    }
}

fn column(s: &mut Scanner) -> Result<usize, AlgebraError> {
    let v = s.integer()?;
    usize::try_from(v).map_err(|_| s.err("column must be nonnegative"))
}

fn columns(s: &mut Scanner) -> Result<Vec<usize>, AlgebraError> {
    let mut cols = Vec::new();
    if s.peek() != Some(b']') {
        cols.push(column(s)?);
        while s.eat(",") {
            cols.push(column(s)?);
        }
    }
    Ok(cols)
}

fn condition(s: &mut Scanner) -> Result<Condition, AlgebraError> {
    if s.eat("true") {
        return Ok(Condition::always());
    }
    let ops = [
        ("=", CompOp::Eq),
        ("!=", CompOp::Neq),
        ("<", CompOp::Lt),
        (">", CompOp::Gt),
    ];
    let mut atoms = Vec::new();
    loop {
        let left = column(s)?;
        let Some((_, op)) = ops.into_iter().find(|(token, _)| s.eat(token)) else {
            return Err(s.err("expected comparison operator"));
        };
        let right = column(s)?;
        atoms.push(Atom { left, op, right });
        if !s.eat(",") {
            return Ok(Condition::new(atoms));
        }
    }
}

fn selection(s: &mut Scanner) -> Result<Selection, AlgebraError> {
    let i = column(s)?;
    if s.eat("<") {
        return Ok(Selection::Lt(i, column(s)?));
    }
    if !s.eat("=") {
        return Err(s.err("expected '=' or '<' in selection"));
    }
    match s.peek() {
        Some(b'{' | b'\'') => Ok(Selection::EqConst(i, s.literal()?)),
        _ => Ok(Selection::Eq(i, column(s)?)),
    }
}

/// `"[" inner "]"`: an operator's parameter.
fn bracketed<T>(
    s: &mut Scanner,
    inner: impl FnOnce(&mut Scanner) -> Result<T, AlgebraError>,
) -> Result<T, AlgebraError> {
    s.expect("[")?;
    let x = inner(s)?;
    s.expect("]")?;
    Ok(x)
}

/// An operator's `N` parenthesized operands, one level deeper.
fn operands<const N: usize>(s: &mut Scanner) -> Result<[Expr; N], AlgebraError> {
    s.nested(|s| {
        s.expect("(")?;
        let mut args = Vec::with_capacity(N);
        for k in 0..N {
            if k > 0 {
                s.expect(",")?;
            }
            args.push(expr(s)?);
        }
        s.expect(")")?;
        Ok(args.try_into().expect("N operands"))
    })
}

fn expr(s: &mut Scanner) -> Result<Expr, AlgebraError> {
    let name = s.ident()?;
    // Operator keywords are recognized only when followed by their
    // bracket/paren syntax; otherwise the identifier is a relation name.
    Ok(match (name.as_str(), s.peek()) {
        ("union", Some(b'(')) => {
            let [a, b] = operands(s)?;
            a.union(b)
        }
        ("diff", Some(b'(')) => {
            let [a, b] = operands(s)?;
            a.diff(b)
        }
        ("project", Some(b'[')) => {
            let cols = bracketed(s, columns)?;
            let [a] = operands(s)?;
            a.project(cols)
        }
        ("gcount", Some(b'[')) => {
            let cols = bracketed(s, columns)?;
            let [a] = operands(s)?;
            a.group_count(cols)
        }
        ("select", Some(b'[')) => {
            let sel = bracketed(s, selection)?;
            let [a] = operands(s)?;
            Expr::Select(sel, Box::new(a))
        }
        ("tag", Some(b'[')) => {
            let c = bracketed(s, |s| s.literal())?;
            let [a] = operands(s)?;
            a.tag(c)
        }
        ("join", Some(b'[')) => {
            let theta = bracketed(s, condition)?;
            let [a, b] = operands(s)?;
            a.join(theta, b)
        }
        ("semijoin", Some(b'[')) => {
            let theta = bracketed(s, condition)?;
            let [a, b] = operands(s)?;
            a.semijoin(theta, b)
        }
        _ => Expr::Rel(name),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::to_text;

    #[test]
    fn parses_relation_name() {
        assert_eq!(parse("Visits").unwrap(), Expr::rel("Visits"));
        assert_eq!(parse("  R_1  ").unwrap(), Expr::rel("R_1"));
    }

    #[test]
    fn parses_example3() {
        let text = "project[1](semijoin[2=1](Visits, diff(project[1](Serves), \
                    project[1](semijoin[2=2](Serves, Likes)))))";
        let e = parse(text).unwrap();
        assert!(e.is_sa_eq());
        assert_eq!(to_text(&e), text);
    }

    #[test]
    fn parses_all_operators() {
        for text in [
            "union(R, S)",
            "diff(R, S)",
            "project[1,3,1](R)",
            "project[](R)",
            "select[1=2](R)",
            "select[1<2](R)",
            "select[2={-7}](R)",
            "select[2='flu'](R)",
            "tag[{5}](R)",
            "tag['x y'](R)",
            "tag['it''s'](R)",
            "select[1=''''](R)",
            "join[true](R, S)",
            "join[1=1,2!=2,1<2,2>1](R, S)",
            "semijoin[2=1](R, S)",
            "gcount[1,2](R)",
        ] {
            let e = parse(text).unwrap_or_else(|err| panic!("{text}: {err}"));
            assert_eq!(to_text(&e), text, "round trip failed for {text}");
        }
    }

    #[test]
    fn operator_names_can_be_relation_names() {
        // "union" not followed by '(' is a relation name.
        assert_eq!(parse("union").unwrap(), Expr::rel("union"));
        assert_eq!(
            parse("diff(union, join)").unwrap(),
            Expr::rel("union").diff(Expr::rel("join"))
        );
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in [
            "",
            "project[1](R",
            "join[1=](R, S)",
            "select[](R)",
            "tag[x](R)",
            "union(R)",
            "R extra",
            "tag['unterminated](R)",
            "tag['doubled''](R)",
            "project[-1](R)",
        ] {
            match parse(bad) {
                Err(AlgebraError::Parse { .. }) => {}
                other => panic!("expected parse error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn whitespace_insensitive() {
        let e = parse("  join [ 1 = 1 ] ( R ,  S )  ").unwrap();
        assert_eq!(to_text(&e), "join[1=1](R, S)");
    }

    fn projections(n: usize) -> String {
        format!("{}R{}", "project[1](".repeat(n), ")".repeat(n))
    }

    #[test]
    fn over_deep_input_is_a_parse_error() {
        let err = parse(&projections(100_000)).unwrap_err();
        assert!(matches!(err, AlgebraError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("nested deeper than 200"), "{err}");
        // Every operator is one level, binary ones included.
        let joins = format!(
            "{}R{}",
            "join[true](R, ".repeat(100_000),
            ")".repeat(100_000)
        );
        assert!(parse(&joins).is_err());
    }

    #[test]
    fn max_depth_is_accepted_and_one_more_is_not() {
        assert_eq!(
            parse(&projections(MAX_DEPTH)).unwrap().depth(),
            MAX_DEPTH + 1
        );
        assert!(parse(&projections(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn nested_deeply() {
        let mut text = String::from("R");
        for _ in 0..50 {
            text = format!("project[1](select[1=1]({text}))");
        }
        let e = parse(&text).unwrap();
        assert_eq!(e.depth(), 101);
    }
}
