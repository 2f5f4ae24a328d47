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
//! literal := "{" "-"? INT "}" | "'" chars "'"   -- "''" is one quote
//! ```
//!
//! The tokens are read by [`sj_algebra::parse::Scanner`], the lexical
//! layer the algebra's text form shares: identifiers, literals and
//! whitespace mean the same in both, and a syntax error is
//! [`LogicError::Algebra`] holding an [`AlgebraError::Parse`] with its
//! byte offset. [`to_ascii`] prints a formula in exactly this grammar,
//! constants through [`value_literal`];
//! `parse_formula(&to_ascii(f)) == f` up to connective re-association
//! (the printer parenthesizes fully, so round-tripping is exact — see the
//! property test).
//!
//! Nesting is bounded by [`MAX_DEPTH`], so over-deep input is a parse
//! error rather than a stack overflow, both while parsing and when the
//! formula is dropped or walked later.

use crate::error::LogicError;
use crate::formula::Formula;
use sj_algebra::display::value_literal;
use sj_algebra::parse::Scanner;
use sj_algebra::AlgebraError;

/// Render a formula in the parseable ASCII grammar (fully parenthesized).
pub fn to_ascii(f: &Formula) -> String {
    match f {
        Formula::Bool(true) => "true".into(),
        Formula::Bool(false) => "false".into(),
        Formula::Eq(x, y) => format!("{x}={y}"),
        Formula::Lt(x, y) => format!("{x}<{y}"),
        Formula::EqConst(x, c) => format!("{x}={}", value_literal(c)),
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
/// thread parses 242 nested parentheses or quantifier bodies, the
/// costliest productions per level, and overflows at 243: the bound keeps
/// a margin of at least 1.4.
pub const MAX_DEPTH: usize = 137;

/// Parse a GF formula from the ASCII grammar. Guardedness is *not*
/// enforced here (use [`Formula::check_guarded`]); the syntax is.
/// Input nested deeper than [`MAX_DEPTH`] is a parse error.
pub fn parse_formula(input: &str) -> Result<Formula, LogicError> {
    let mut s = Scanner::new(input, MAX_DEPTH);
    let (f, _) = binary(&mut s, 0)?;
    s.finish()?;
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

/// A formula whose connectives all bind at least as tightly as
/// `BINARY[loosest]`: precedence climbing over [`BINARY`].
fn binary(s: &mut Scanner, loosest: usize) -> Result<Node, LogicError> {
    let (mut f, mut h) = unary(s)?;
    while let Some(level) = (loosest..BINARY.len()).find(|&l| s.eat(BINARY[l].0)) {
        let (_, right_assoc, op) = BINARY[level];
        let (g, hg) = if right_assoc {
            s.nested(|s| binary(s, level))?
        } else {
            binary(s, level + 1)?
        };
        h = s.bounded(h.max(hg) + 1)?;
        f = op(f, g);
    }
    Ok((f, h))
}

fn unary(s: &mut Scanner) -> Result<Node, LogicError> {
    if s.eat("!") {
        let (f, h) = s.nested(unary)?;
        return Ok((f.not(), s.bounded(h + 1)?));
    }
    atom(s)
}

fn atom(s: &mut Scanner) -> Result<Node, LogicError> {
    if s.eat("(") {
        let f = s.nested(|s| binary(s, 0))?;
        s.expect(")")?;
        return Ok(f);
    }
    let name = s.ident()?;
    let leaf = match name.as_str() {
        "true" => Formula::Bool(true),
        "false" => Formula::Bool(false),
        "exists" => {
            let bound = vars(s)?;
            s.expect("(")?;
            let guard_rel = s.ident()?;
            s.expect("(")?;
            let guard_args = vars(s)?;
            s.expect(")")?;
            s.expect("&")?;
            let (body, h) = s.nested(|s| binary(s, 0))?;
            s.expect(")")?;
            let f = Formula::Exists {
                vars: bound,
                guard_rel,
                guard_args,
                body: Box::new(body),
            };
            return Ok((f, s.bounded(h + 1)?));
        }
        _ if s.eat("(") => {
            let args = vars(s)?;
            s.expect(")")?;
            Formula::Rel(name, args)
        }
        _ if s.eat("=") => match s.peek() {
            Some(b'{' | b'\'') => Formula::EqConst(name, s.literal()?),
            _ => Formula::Eq(name, s.ident()?),
        },
        _ if s.eat("<") => Formula::Lt(name, s.ident()?),
        _ => return Err(s.err("expected '(', '=', or '<' after identifier").into()),
    };
    Ok((leaf, 0))
}

fn vars(s: &mut Scanner) -> Result<Vec<String>, AlgebraError> {
    let mut out = vec![s.ident()?];
    while s.eat(",") {
        out.push(s.ident()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::example7_lousy_bar;
    use sj_storage::Value;

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
            Formula::EqConst("x".into(), Value::str("it's")),
            Formula::EqConst("x".into(), Value::str("7")),
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
        // Each bad input, and the byte its error points at where pinned.
        for (bad, at) in [
            ("", Some(0)),
            ("exists", Some(6)),
            ("exists y Visits(x,y)", Some(9)),
            ("R(", Some(2)),
            ("x=", Some(2)),
            ("x<", None),
            ("(a=b", Some(4)),
            ("a=b extra", Some(4)),
            ("x={5", None),
            ("x='oops", Some(7)),
            ("x='it''", None),
            ("3=x", Some(0)),
            ("x <-> y", None),
        ] {
            match parse_formula(bad) {
                Err(LogicError::Algebra(AlgebraError::Parse { offset, .. })) => {
                    if let Some(at) = at {
                        assert_eq!(offset, at, "{bad:?}");
                    }
                }
                other => panic!("{bad:?} should be a parse error, got {other:?}"),
            }
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
