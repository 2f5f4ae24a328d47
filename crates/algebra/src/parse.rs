//! A parser for the ASCII expression form produced by
//! [`crate::display::to_text`].
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
//!          | "'" chars "'"       -- string constant (no escapes)
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
/// 304 nested projections and overflows at 305.
pub const MAX_DEPTH: usize = 200;

/// Parse an expression; see the module docs for the grammar. Input
/// nested deeper than [`MAX_DEPTH`] is a parse error.
pub fn parse(input: &str) -> Result<Expr, AlgebraError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Operators open at the current byte.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> AlgebraError {
        AlgebraError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), AlgebraError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn ident(&mut self) -> Result<String, AlgebraError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() {
            let b = self.input[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start || self.input[start].is_ascii_digit() {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn integer(&mut self) -> Result<i64, AlgebraError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
        s.parse::<i64>().map_err(|_| self.err("expected integer"))
    }

    fn column(&mut self) -> Result<usize, AlgebraError> {
        let v = self.integer()?;
        usize::try_from(v).map_err(|_| self.err("column must be nonnegative"))
    }

    fn columns_until(&mut self, close: u8) -> Result<Vec<usize>, AlgebraError> {
        let mut cols = Vec::new();
        if self.peek() == Some(close) {
            return Ok(cols);
        }
        loop {
            cols.push(self.column()?);
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        Ok(cols)
    }

    /// `{int}` or `'string'`.
    fn literal(&mut self) -> Result<Value, AlgebraError> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let v = self.integer()?;
                self.expect(b'}')?;
                Ok(Value::int(v))
            }
            Some(b'\'') => {
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.input.len() && self.input[self.pos] != b'\'' {
                    self.pos += 1;
                }
                if self.pos >= self.input.len() {
                    return Err(self.err("unterminated string literal"));
                }
                let s = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                self.pos += 1;
                Ok(Value::str(s))
            }
            _ => Err(self.err("expected literal ({int} or 'string')")),
        }
    }

    fn comp_op(&mut self) -> Result<CompOp, AlgebraError> {
        match self.peek() {
            Some(b'=') => {
                self.pos += 1;
                Ok(CompOp::Eq)
            }
            Some(b'!') => {
                self.pos += 1;
                self.expect(b'=')?;
                Ok(CompOp::Neq)
            }
            Some(b'<') => {
                self.pos += 1;
                Ok(CompOp::Lt)
            }
            Some(b'>') => {
                self.pos += 1;
                Ok(CompOp::Gt)
            }
            _ => Err(self.err("expected comparison operator")),
        }
    }

    fn condition(&mut self) -> Result<Condition, AlgebraError> {
        // "true" or atom list.
        let save = self.pos;
        if let Ok(id) = self.ident() {
            if id == "true" {
                return Ok(Condition::always());
            }
            self.pos = save;
        } else {
            self.pos = save;
        }
        let mut atoms = Vec::new();
        loop {
            let left = self.column()?;
            let op = self.comp_op()?;
            let right = self.column()?;
            atoms.push(Atom { left, op, right });
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        Ok(Condition::new(atoms))
    }

    fn selection(&mut self) -> Result<Selection, AlgebraError> {
        let i = self.column()?;
        match self.peek() {
            Some(b'=') => {
                self.pos += 1;
                match self.peek() {
                    Some(b'{') | Some(b'\'') => Ok(Selection::EqConst(i, self.literal()?)),
                    _ => Ok(Selection::Eq(i, self.column()?)),
                }
            }
            Some(b'<') => {
                self.pos += 1;
                Ok(Selection::Lt(i, self.column()?))
            }
            _ => Err(self.err("expected '=' or '<' in selection")),
        }
    }

    /// An operator's `n` parenthesized operands, one level deeper.
    fn paren_args(&mut self, n: usize) -> Result<Vec<Expr>, AlgebraError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.expect(b'(')?;
        let mut args = Vec::with_capacity(n);
        for k in 0..n {
            if k > 0 {
                self.expect(b',')?;
            }
            args.push(self.expr()?);
        }
        self.expect(b')')?;
        self.depth -= 1;
        Ok(args)
    }

    fn expr(&mut self) -> Result<Expr, AlgebraError> {
        let name = self.ident()?;
        // Operator keywords are recognized only when followed by their
        // bracket/paren syntax; otherwise the identifier is a relation name.
        match (name.as_str(), self.peek()) {
            ("union", Some(b'(')) => {
                let mut a = self.paren_args(2)?;
                let b = a.pop().unwrap();
                Ok(a.pop().unwrap().union(b))
            }
            ("diff", Some(b'(')) => {
                let mut a = self.paren_args(2)?;
                let b = a.pop().unwrap();
                Ok(a.pop().unwrap().diff(b))
            }
            ("project", Some(b'[')) => {
                self.pos += 1;
                let cols = self.columns_until(b']')?;
                self.expect(b']')?;
                let mut a = self.paren_args(1)?;
                Ok(a.pop().unwrap().project(cols))
            }
            ("gcount", Some(b'[')) => {
                self.pos += 1;
                let cols = self.columns_until(b']')?;
                self.expect(b']')?;
                let mut a = self.paren_args(1)?;
                Ok(a.pop().unwrap().group_count(cols))
            }
            ("select", Some(b'[')) => {
                self.pos += 1;
                let sel = self.selection()?;
                self.expect(b']')?;
                let mut a = self.paren_args(1)?;
                Ok(Expr::Select(sel, Box::new(a.pop().unwrap())))
            }
            ("tag", Some(b'[')) => {
                self.pos += 1;
                let v = self.literal()?;
                self.expect(b']')?;
                let mut a = self.paren_args(1)?;
                Ok(a.pop().unwrap().tag(v))
            }
            ("join", Some(b'[')) => {
                self.pos += 1;
                let cond = self.condition()?;
                self.expect(b']')?;
                let mut a = self.paren_args(2)?;
                let b = a.pop().unwrap();
                Ok(a.pop().unwrap().join(cond, b))
            }
            ("semijoin", Some(b'[')) => {
                self.pos += 1;
                let cond = self.condition()?;
                self.expect(b']')?;
                let mut a = self.paren_args(2)?;
                let b = a.pop().unwrap();
                Ok(a.pop().unwrap().semijoin(cond, b))
            }
            _ => Ok(Expr::Rel(name)),
        }
    }
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
