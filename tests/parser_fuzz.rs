//! A seeded fuzzer for both parsers: `sj_algebra::parse` and
//! `sj_logic::parse_formula` must answer every input with `Ok` or `Err`,
//! never a panic or a stack overflow.
//!
//! Inputs are random byte strings and random byte edits — deletions,
//! replacements, insertions and repeated slices, the last to drive the
//! nesting deep — of the printed form (`to_text`, `to_ascii`) of random
//! expressions and formulas drawn like the crates' round-trip properties
//! draw them. Bytes are read as UTF-8 lossily, since both parsers take
//! `&str`. Generation is the vendored `proptest`'s deterministic stream,
//! so every run replays the same cases and needs no corpus.

use proptest::prelude::*;
use setjoins::algebra::{parse, to_text, Atom, CompOp, Condition, Expr};
use setjoins::logic::{parse_formula, to_ascii, Formula};
use setjoins::storage::Value;

/// Bytes that mean something to one of the grammars, drawn as often as
/// an arbitrary byte.
const GRAMMAR: &[u8] = b"()[],{}'=<>!&|-~ 019Rxyexists";

/// One byte edit: `(position as a fraction of the text, kind, byte,
/// length, repeats)`.
type Edit = (u16, u8, u8, u8, u16);

fn arb_byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), proptest::sample::select(GRAMMAR.to_vec())]
}

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((any::<u16>(), 0u8..4, arb_byte(), 1u8..16, 1u16..512), 0..6)
}

/// Apply `edits` to `text` in order.
fn edited(text: &str, edits: &[Edit]) -> String {
    let mut b = text.as_bytes().to_vec();
    for &(at, kind, byte, len, repeats) in edits {
        let i = at as usize * b.len() / (u16::MAX as usize + 1);
        match kind {
            0 if i < b.len() => {
                b.remove(i);
            }
            1 if i < b.len() => b[i] = byte,
            2 => b.insert(i, byte),
            _ => {
                // Repeat the slice starting at `i`, nesting its operators.
                let piece = b[i..(i + len as usize).min(b.len())].to_vec();
                for _ in 0..repeats {
                    b.splice(i..i, piece.iter().copied());
                }
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Either random bytes or an edit of `printed`'s output.
fn arb_input<T: std::fmt::Debug + Clone + 'static>(
    seed: impl Strategy<Value = T> + 'static,
    printed: fn(&T) -> String,
) -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(arb_byte(), 0..96)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        (seed, arb_edits()).prop_map(move |(t, edits)| edited(&printed(&t), &edits)),
    ]
}

/// String constants of up to `max` letters, spaces and bytes the
/// grammars give a meaning to, the quote among them.
fn arb_string(max: usize) -> impl Strategy<Value = String> {
    let alphabet = "abz '{}[](),=<".chars().collect();
    proptest::collection::vec(proptest::sample::select(alphabet), 0..=max)
        .prop_map(String::from_iter)
}

fn arb_condition() -> impl Strategy<Value = Condition> {
    proptest::collection::vec((1usize..=3, 0u8..4, 1usize..=3), 0..3).prop_map(|atoms| {
        Condition::new(atoms.into_iter().map(|(left, op, right)| Atom {
            left,
            op: [CompOp::Eq, CompOp::Neq, CompOp::Lt, CompOp::Gt][op as usize],
            right,
        }))
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("R")), Just(Expr::rel("S"))];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            (proptest::collection::vec(1usize..=2, 0..3), inner.clone())
                .prop_map(|(cols, a)| a.project(cols)),
            (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_eq(i, j)),
            (1usize..=2, 1usize..=2, inner.clone()).prop_map(|(i, j, a)| a.select_lt(i, j)),
            (any::<i64>(), inner.clone()).prop_map(|(c, a)| a.select_const(1, c)),
            (arb_string(8), inner.clone()).prop_map(|(s, a)| a.tag(Value::str(s))),
            (arb_condition(), inner.clone(), inner.clone()).prop_map(|(t, a, b)| a.join(t, b)),
            (arb_condition(), inner.clone(), inner.clone()).prop_map(|(t, a, b)| a.semijoin(t, b)),
            (proptest::collection::vec(1usize..=2, 0..3), inner)
                .prop_map(|(cols, a)| a.group_count(cols)),
        ]
    })
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    let var = proptest::sample::select(vec!["x", "y", "z"]);
    let leaf = prop_oneof![
        Just(Formula::Bool(true)),
        (var.clone(), var.clone()).prop_map(|(a, b)| Formula::Eq(a.into(), b.into())),
        (var.clone(), var.clone()).prop_map(|(a, b)| Formula::Lt(a.into(), b.into())),
        (var.clone(), any::<i64>()).prop_map(|(a, c)| Formula::EqConst(a.into(), Value::int(c))),
        (var.clone(), arb_string(6)).prop_map(|(a, s)| Formula::EqConst(a.into(), Value::str(s))),
        (var.clone(), var).prop_map(|(a, b)| Formula::Rel("R".into(), vec![a.into(), b.into()])),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        let var = proptest::sample::select(vec!["x", "y", "z"]);
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.iff(b)),
            (var.clone(), var, inner).prop_map(|(u, v, body)| Formula::Exists {
                vars: vec![u.into()],
                guard_rel: "R".into(),
                guard_args: vec![u.into(), v.into()],
                body: Box::new(body),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `parse` never panics; what it accepts prints back to text it
    /// parses to the same expression.
    #[test]
    fn algebra_parser_answers_every_input(text in arb_input(arb_expr(), to_text)) {
        if let Ok(e) = parse(&text) {
            prop_assert_eq!(parse(&to_text(&e)), Ok(e), "input {:?}", text);
        }
    }

    /// `parse_formula` never panics.
    #[test]
    fn logic_parser_answers_every_input(text in arb_input(arb_formula(), to_ascii)) {
        let _ = parse_formula(&text);
    }
}
