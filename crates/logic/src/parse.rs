//! A parser and ASCII printer for GF formulas.
//!
//! Grammar (precedence low → high: `<->`, `->`, `|`, `&`, `!`):
//!
//! ```text
//! formula := unary ( binop unary )*      -- by precedence: one loop
//! binop   := "<->" | "->" | "|" | "&"     -- loosest first; "->" is
//!                                         -- right-associative
//! unary   := "!" unary | atom
//! atom    := "true" | "false"
//!          | "exists" vars "(" IDENT "(" vars ")" "&" formula ")"
//!          | IDENT "(" vars ")"           -- relation atom
//!          | IDENT "=" (IDENT | literal)  -- x=y / x=c
//!          | IDENT "<" IDENT              -- x<y
//!          | "(" formula ")"
//! vars    := IDENT ("," IDENT)*
//! literal := "{" "-"? INT "}" | "'" chars "'"
//! ```
//!
//! [`to_ascii`] prints a formula in exactly this grammar;
//! `parse_formula(&to_ascii(f)) == f` up to connective re-association
//! (the printer parenthesizes fully, so round-tripping is exact — see the
//! property test).
//!
//! Nesting is bounded by [`MAX_DEPTH`], so over-deep input is a parse
//! error rather than a stack overflow, both while parsing and when the
//! formula is dropped or walked later.

use crate::error::LogicError;
use crate::formula::Formula;
use sj_storage::Value;

/// Render a formula in the parseable ASCII grammar (fully parenthesized).
pub fn to_ascii(f: &Formula) -> String {
    match f {
        Formula::Bool(true) => "true".into(),
        Formula::Bool(false) => "false".into(),
        Formula::Eq(x, y) => format!("{x}={y}"),
        Formula::Lt(x, y) => format!("{x}<{y}"),
        Formula::EqConst(x, c) => match c {
            Value::Int(i) => format!("{x}={{{i}}}"),
            Value::Str(s) => format!("{x}='{s}'"),
        },
        Formula::Rel(r, args) => format!("{r}({})", args.join(",")),
        Formula::Not(g) => format!("!({})", to_ascii(g)),
        Formula::And(a, b) => format!("({} & {})", to_ascii(a), to_ascii(b)),
        Formula::Or(a, b) => format!("({} | {})", to_ascii(a), to_ascii(b)),
        Formula::Implies(a, b) => format!("({} -> {})", to_ascii(a), to_ascii(b)),
        Formula::Iff(a, b) => format!("({} <-> {})", to_ascii(a), to_ascii(b)),
        Formula::Exists {
            vars,
            guard_rel,
            guard_args,
            body,
        } => format!(
            "exists {} ({}({}) & {})",
            vars.join(","),
            guard_rel,
            guard_args.join(","),
            to_ascii(body)
        ),
    }
}

/// The deepest nesting [`parse_formula`] accepts. Two depths are held to
/// it: the productions open at any point of the input (each parenthesis,
/// `!`, `->` and quantifier body), and the height of the formula built,
/// which counts each connective — every `&`, `|` or `<->` link of a chain
/// too, though the parser reads a chain in a loop. Outside the parser's
/// own depth and fuzz tests, the committed tests, examples and round
/// trips parse at most 17 deep (the eight-semijoin `sa_to_gf` chain
/// re-parsed in `tests/gf_pipeline.rs`; Example 3's translation is 9
/// deep). Without the bound, a debug build (rustc 1.95) on a 2 MiB test
/// thread parses 193 nested parentheses or quantifier bodies, the
/// costliest productions per level, and overflows at 194: the bound keeps
/// that margin at 1.4.
pub const MAX_DEPTH: usize = 137;

/// Parse a GF formula from the ASCII grammar. Guardedness is *not*
/// enforced here (use [`Formula::check_guarded`]); the syntax is.
/// Input nested deeper than [`MAX_DEPTH`] is a parse error.
pub fn parse_formula(input: &str) -> Result<Formula, LogicError> {
    let mut p = P {
        b: input.as_bytes(),
        i: 0,
        open: 0,
    };
    let (f, _) = p.binary(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing input"));
    }
    Ok(f)
}

/// A parsed formula and its height: the connectives on its longest path.
type Node = (Formula, usize);

/// The formula a binary connective builds from its two operands.
type Connective = fn(Formula, Formula) -> Formula;

/// The binary connectives, loosest first: token, right-associative, and
/// the formula it builds.
const BINARY: [(&str, bool, Connective); 4] = [
    ("<->", false, Formula::iff),
    ("->", true, Formula::implies),
    ("|", false, Formula::or),
    ("&", false, Formula::and),
];

struct P<'a> {
    b: &'a [u8],
    i: usize,
    /// Productions open at the current byte.
    open: usize,
}

impl<'a> P<'a> {
    fn err(&self, m: &str) -> LogicError {
        LogicError::Unguarded(format!("parse error at byte {}: {m}", self.i))
    }

    /// `depth` itself, or the parse error past [`MAX_DEPTH`].
    fn bounded(&self, depth: usize) -> Result<usize, LogicError> {
        if depth > MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH}")));
        }
        Ok(depth)
    }

    /// Parse `inner` one production deeper.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, LogicError>,
    ) -> Result<T, LogicError> {
        self.open = self.bounded(self.open + 1)?;
        let out = inner(self)?;
        self.open -= 1;
        Ok(out)
    }

    /// The connective `op` over two parsed operands.
    fn link(&self, (a, ha): Node, (b, hb): Node, op: Connective) -> Result<Node, LogicError> {
        Ok((op(a, b), self.bounded(ha.max(hb) + 1)?))
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, s: &str) -> bool {
        self.ws();
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), LogicError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {s:?}")))
        }
    }

    fn ident(&mut self) -> Result<String, LogicError> {
        self.ws();
        let start = self.i;
        while self.i < self.b.len()
            && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
        {
            self.i += 1;
        }
        if self.i == start || self.b[start].is_ascii_digit() {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.i]).into_owned())
    }

    fn vars(&mut self) -> Result<Vec<String>, LogicError> {
        let mut out = vec![self.ident()?];
        while self.peek() == Some(b',') {
            self.i += 1;
            out.push(self.ident()?);
        }
        Ok(out)
    }

    fn literal(&mut self) -> Result<Value, LogicError> {
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                self.ws();
                let start = self.i;
                if self.peek() == Some(b'-') {
                    self.i += 1;
                }
                while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
                    self.i += 1;
                }
                let n: i64 = std::str::from_utf8(&self.b[start..self.i])
                    .unwrap()
                    .trim()
                    .parse()
                    .map_err(|_| self.err("bad integer literal"))?;
                self.expect("}")?;
                Ok(Value::int(n))
            }
            Some(b'\'') => {
                self.i += 1;
                let start = self.i;
                while self.i < self.b.len() && self.b[self.i] != b'\'' {
                    self.i += 1;
                }
                if self.i >= self.b.len() {
                    return Err(self.err("unterminated string"));
                }
                let s = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
                self.i += 1;
                Ok(Value::str(s))
            }
            _ => Err(self.err("expected literal")),
        }
    }

    /// A formula whose connectives all bind at least as tightly as
    /// `BINARY[loosest]`: precedence climbing over [`BINARY`].
    fn binary(&mut self, loosest: usize) -> Result<Node, LogicError> {
        let mut f = self.unary()?;
        while let Some(level) = (loosest..BINARY.len()).find(|&l| self.eat(BINARY[l].0)) {
            let (_, right_assoc, op) = BINARY[level];
            let g = if right_assoc {
                self.nested(|p| p.binary(level))?
            } else {
                self.binary(level + 1)?
            };
            f = self.link(f, g, op)?;
        }
        Ok(f)
    }

    fn unary(&mut self) -> Result<Node, LogicError> {
        if self.eat("!") {
            let (f, h) = self.nested(Self::unary)?;
            return Ok((f.not(), self.bounded(h + 1)?));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Node, LogicError> {
        if self.peek() == Some(b'(') {
            self.i += 1;
            let f = self.nested(|p| p.binary(0))?;
            self.expect(")")?;
            return Ok(f);
        }
        let save = self.i;
        let name = self.ident()?;
        match name.as_str() {
            "true" => return Ok((Formula::Bool(true), 0)),
            "false" => return Ok((Formula::Bool(false), 0)),
            "exists" => {
                let vars = self.vars()?;
                self.expect("(")?;
                let guard_rel = self.ident()?;
                self.expect("(")?;
                let guard_args = self.vars()?;
                self.expect(")")?;
                self.expect("&")?;
                let (body, h) = self.nested(|p| p.binary(0))?;
                self.expect(")")?;
                let f = Formula::Exists {
                    vars,
                    guard_rel,
                    guard_args,
                    body: Box::new(body),
                };
                return Ok((f, self.bounded(h + 1)?));
            }
            _ => {}
        }
        // Relation atom, equality, or comparison.
        let leaf = match self.peek() {
            Some(b'(') => {
                self.i += 1;
                let args = self.vars()?;
                self.expect(")")?;
                Ok(Formula::Rel(name, args))
            }
            Some(b'=') => {
                self.i += 1;
                match self.peek() {
                    Some(b'{') | Some(b'\'') => Ok(Formula::EqConst(name, self.literal()?)),
                    _ => Ok(Formula::Eq(name, self.ident()?)),
                }
            }
            Some(b'<') => {
                // not '<->' (a connective); here a bare comparison
                if self.b.get(self.i + 1) == Some(&b'-') {
                    self.i = save;
                    return Err(self.err("unexpected '<-'"));
                }
                self.i += 1;
                Ok(Formula::Lt(name, self.ident()?))
            }
            _ => Err(self.err("expected '(', '=', or '<' after identifier")),
        };
        Ok((leaf?, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::example7_lousy_bar;

    #[test]
    fn parses_example7() {
        let text = "exists y (Visits(x,y) & !(exists z (Serves(y,z) & \
                    exists w (Likes(w,z) & true))))";
        let f = parse_formula(text).unwrap();
        assert_eq!(f, example7_lousy_bar());
        assert!(f.check_guarded().is_ok());
    }

    #[test]
    fn ascii_roundtrip_examples() {
        for f in [
            Formula::Bool(true),
            Formula::Bool(false),
            Formula::Eq("x".into(), "y".into()),
            Formula::Lt("a".into(), "b".into()),
            Formula::EqConst("x".into(), Value::int(-5)),
            Formula::EqConst("x".into(), Value::str("flu season")),
            Formula::Rel("R".into(), vec!["x".into(), "x".into(), "z".into()]),
            Formula::Eq("x".into(), "y".into()).not(),
            Formula::Bool(true).and(Formula::Bool(false)),
            Formula::Bool(true).or(Formula::Bool(false)),
            Formula::Bool(true).implies(Formula::Bool(false)),
            Formula::Bool(true).iff(Formula::Bool(false)),
            example7_lousy_bar(),
        ] {
            let text = to_ascii(&f);
            let parsed = parse_formula(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, f, "round trip failed for {text}");
        }
    }

    #[test]
    fn precedence() {
        // a=b & c=d | e=f parses as ((a=b & c=d) | e=f)
        let f = parse_formula("a=b & c=d | e=f").unwrap();
        match f {
            Formula::Or(l, _) => assert!(matches!(*l, Formula::And(..))),
            other => panic!("{other:?}"),
        }
        // ! binds tighter than &
        let g = parse_formula("!a=b & c=d").unwrap();
        assert!(matches!(g, Formula::And(..)));
        // -> is right-associative
        let h = parse_formula("a=b -> c=d -> e=f").unwrap();
        match h {
            Formula::Implies(_, r) => assert!(matches!(*r, Formula::Implies(..))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        for bad in [
            "",
            "exists y Visits(x,y)",
            "R(",
            "x=",
            "x<",
            "(a=b",
            "a=b extra",
            "x={5",
            "x='oops",
            "3=x",
        ] {
            assert!(parse_formula(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// `n` levels of one nesting production around `R(x)`.
    fn nested(kind: &str, n: usize) -> String {
        match kind {
            "(" => format!("{}R(x){}", "(".repeat(n), ")".repeat(n)),
            "!" => format!("{}R(x)", "!".repeat(n)),
            "exists" => format!("{}R(x){}", "exists y (R(x,y) & ".repeat(n), ")".repeat(n)),
            link => vec!["R(x)"; n + 1].join(link),
        }
    }

    const PRODUCTIONS: [&str; 7] = ["(", "!", "exists", " & ", " | ", " -> ", " <-> "];

    #[test]
    fn over_deep_input_is_a_parse_error() {
        for kind in PRODUCTIONS {
            let err = parse_formula(&nested(kind, 100_000)).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("nested deeper than {MAX_DEPTH}")),
                "{kind:?}: {err}"
            );
        }
        // A flat chain is parsed in a loop, but the formula it builds is
        // as deep as the chain is long.
        assert!(parse_formula(&nested(" & ", 1_000_000)).is_err());
    }

    #[test]
    fn max_depth_is_accepted_and_one_more_is_not() {
        for kind in PRODUCTIONS {
            assert!(parse_formula(&nested(kind, MAX_DEPTH)).is_ok(), "{kind:?}");
            assert!(
                parse_formula(&nested(kind, MAX_DEPTH + 1)).is_err(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn whitespace_insensitive() {
        let f = parse_formula("  exists  y , z ( R ( x , y )  &  y = z )  ").unwrap();
        match f {
            Formula::Exists { vars, .. } => assert_eq!(vars, vec!["y", "z"]),
            other => panic!("{other:?}"),
        }
    }
}
