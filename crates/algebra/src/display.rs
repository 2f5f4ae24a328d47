//! The parseable text form of expressions.
//!
//! [`to_text`] prints a plain ASCII, fully parenthesized form accepted
//! back by the parser in [`mod@crate::parse`]:
//! `project[1](semijoin[2=1](Visits, …))`. Each node prints as its
//! [`Expr::label`] followed by its parenthesized operands.

use crate::expr::Expr;
use sj_storage::Value;

/// Render a constant as a literal both text grammars accept: integers in
/// braces (`{7}`), strings in single quotes with each quote inside
/// doubled (`'flu'`, `'it''s'`). The braces keep integer constants
/// distinguishable from column references in selection conditions, and
/// from strings of digits.
pub fn value_literal(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("{{{i}}}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Render the parseable ASCII form (see [`crate::parse::parse`]).
pub fn to_text(e: &Expr) -> String {
    let mut out = e.label();
    let children = e.children();
    if !children.is_empty() {
        let operands: Vec<String> = children.into_iter().map(to_text).collect();
        out = format!("{out}({})", operands.join(", "));
    }
    out
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&to_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;

    fn example3() -> Expr {
        Expr::rel("Visits")
            .semijoin(
                Condition::eq(2, 1),
                Expr::rel("Serves").project([1]).diff(
                    Expr::rel("Serves")
                        .semijoin(Condition::eq(2, 2), Expr::rel("Likes"))
                        .project([1]),
                ),
            )
            .project([1])
    }

    #[test]
    fn text_form_of_example3() {
        assert_eq!(
            to_text(&example3()),
            "project[1](semijoin[2=1](Visits, diff(project[1](Serves), \
             project[1](semijoin[2=2](Serves, Likes)))))"
        );
    }

    #[test]
    fn constants_and_selects() {
        let e = Expr::rel("R")
            .tag(Value::int(5))
            .select_const(1, Value::str("x"))
            .select_lt(1, 2);
        let t = to_text(&e);
        assert_eq!(t, "select[1<2](select[1='x'](tag[{5}](R)))");
    }

    #[test]
    fn quotes_inside_strings_are_doubled() {
        let e = Expr::rel("R").select_const(1, Value::str("it's"));
        assert_eq!(to_text(&e), "select[1='it''s'](R)");
        assert_eq!(crate::parse(&to_text(&e)).unwrap(), e);
        assert_eq!(value_literal(&Value::str("''")), "''''''");
    }

    #[test]
    fn display_impl_matches_to_text() {
        let e = example3();
        assert_eq!(e.to_string(), to_text(&e));
    }

    #[test]
    fn join_with_multi_atom_condition() {
        let e = Expr::rel("R").join(Condition::eq(1, 2).and_eq(2, 1), Expr::rel("S"));
        assert_eq!(to_text(&e), "join[1=2,2=1](R, S)");
    }

    #[test]
    fn product_prints_true_condition() {
        let e = Expr::rel("R").product(Expr::rel("S"));
        assert_eq!(to_text(&e), "join[true](R, S)");
    }
}
