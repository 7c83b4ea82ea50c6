//! Golden tests for the lexer's character classes, columns and line
//! ends, through both parsers that share it.
//!
//! Each case pins what `parse_query` and `parse_sigma` make of one
//! input: the exact `SyntaxError` text with its `line:col`, or the
//! parsed result. A query renders as its `P_FL` text plus its variables
//! (so a constant read as a variable shows); a `.sigma` file renders
//! every rule with the position of each atom and term. Columns count
//! characters, not bytes; only `\n` ends a line.

use flogic_lite::syntax::{parse_query, parse_sigma, SigmaAtomAst, SigmaRuleKindAst, SpannedTerm};

fn query_golden(src: &str) -> String {
    match parse_query(src) {
        Ok(q) => format!("{q} vars {:?}", q.vars()),
        Err(e) => format!("error {e}"),
    }
}

fn term(t: &SpannedTerm) -> String {
    format!("{:?}@{}", t.term, t.pos)
}

fn atom(a: &SigmaAtomAst) -> String {
    let args: Vec<String> = a.args.iter().map(term).collect();
    format!("{}@{}({})", a.name, a.pos, args.join(", "))
}

fn sigma_golden(src: &str) -> String {
    match parse_sigma(src) {
        Ok(ast) => ast
            .rules
            .iter()
            .map(|r| {
                let (lhs, body) = match &r.kind {
                    SigmaRuleKindAst::Tgd { head, body } => (atom(head), body),
                    SigmaRuleKindAst::Egd { left, right, body } => {
                        (format!("{} = {}", term(left), term(right)), body)
                    }
                };
                let body: Vec<String> = body.iter().map(atom).collect();
                format!("{}: {lhs} :- {}.", r.pos, body.join(", "))
            })
            .collect::<Vec<_>>()
            .join(" "),
        Err(e) => format!("error {e}"),
    }
}

/// Asserts each `(input, parse_query golden, parse_sigma golden)`.
fn check(cases: &[(&str, &str, &str)]) {
    for &(src, query, sigma) in cases {
        assert_eq!(query_golden(src), query, "parse_query of {src:?}");
        assert_eq!(sigma_golden(src), sigma, "parse_sigma of {src:?}");
    }
}

#[test]
fn non_ascii_identifiers() {
    check(&[
        (
            "q(Ärger) :- member(Ärger, été), sub(été, Ωmega).",
            "q(Ärger) :- member(Ärger, été), sub(été, Ωmega). vars {Var(Ärger), Var(Ωmega)}",
            "1:1: q@1:1(Var(\"Ärger\")@1:3) :- member@1:13(Var(\"Ärger\")@1:20, \
             Const(\"été\")@1:27), sub@1:33(Const(\"été\")@1:37, Var(\"Ωmega\")@1:42).",
        ),
        (
            "q(X) :- data(X, größe, Äpfel_1').",
            "q(X) :- data(X, größe, Äpfel_1'). vars {Var(X), Var(Äpfel_1')}",
            "1:1: q@1:1(Var(\"X\")@1:3) :- data@1:9(Var(\"X\")@1:14, \
             Const(\"größe\")@1:17, Var(\"Äpfel_1'\")@1:24).",
        ),
        (
            "Wert = Värde :- data(O, A, Wert), data(O, A, Värde).",
            "error at 1:6: expected `:`, `::` or `[`, got `=`",
            "1:1: Var(\"Wert\")@1:1 = Var(\"Värde\")@1:8 :- data@1:17(Var(\"O\")@1:22, \
             Var(\"A\")@1:25, Var(\"Wert\")@1:28), data@1:35(Var(\"O\")@1:40, \
             Var(\"A\")@1:43, Var(\"Värde\")@1:46).",
        ),
    ]);
}

#[test]
fn columns_count_characters_after_multi_byte_ones() {
    check(&[
        (
            "q(Ä) :- member(Ä, été) $",
            "error at 1:24: unexpected character `$`",
            "error at 1:24: unexpected character `$`",
        ),
        // Letters that are neither lowercase nor uppercase start no
        // identifier.
        (
            "q(X) :- member(X, 中).",
            "error at 1:19: unexpected character `中`",
            "error at 1:19: unexpected character `中`",
        ),
        (
            "q(X) :- member(X, ǅ).",
            "error at 1:19: unexpected character `ǅ`",
            "error at 1:19: unexpected character `ǅ`",
        ),
        // Unicode white space (no-break space, em space, next line) is
        // one column each, and `²` continues an identifier.
        (
            "q(X)\u{a0}:-\u{2003}member(X, a²b)\u{85}$",
            "error at 1:24: unexpected character `$`",
            "error at 1:24: unexpected character `$`",
        ),
        (
            "% 😀 comment 😀\nq(X) :- member(X, 😀).",
            "error at 2:19: unexpected character `😀`",
            "error at 2:19: unexpected character `😀`",
        ),
        (
            "q(É) :- member(É, é) é",
            "error at 1:22: expected `.` or end of input, got `é`",
            "error at 1:22: expected `.`, got `é`",
        ),
        // A vertical tab is white space too.
        (
            "q(X) :-\u{b}member(X, c).",
            "q(X) :- member(X, c). vars {Var(X)}",
            "1:1: q@1:1(Var(\"X\")@1:3) :- member@1:9(Var(\"X\")@1:16, Const(\"c\")@1:19).",
        ),
    ]);
}

#[test]
fn crlf_line_ends() {
    check(&[
        (
            "q(X) :-\r\n  member(X, c),\r\n  sub(c, d).\r\n",
            "q(X) :- member(X, c), sub(c, d). vars {Var(X)}",
            "1:1: q@1:1(Var(\"X\")@1:3) :- member@2:3(Var(\"X\")@2:10, Const(\"c\")@2:13), \
             sub@3:3(Const(\"c\")@3:7, Const(\"d\")@3:10).",
        ),
        (
            "q(X) :-\r\n  member(X, c) $\r\n",
            "error at 2:16: unexpected character `$`",
            "error at 2:16: unexpected character `$`",
        ),
        // A lone carriage return ends no line.
        (
            "q(X) :-\r member(X, $)",
            "error at 1:20: unexpected character `$`",
            "error at 1:20: unexpected character `$`",
        ),
    ]);
}

#[test]
fn percent_comments() {
    check(&[
        (
            "% head comment\r\nq(X) :- % after implies\n  member(X, c). % trailing",
            "q(X) :- member(X, c). vars {Var(X)}",
            "2:1: q@2:1(Var(\"X\")@2:3) :- member@3:3(Var(\"X\")@3:10, Const(\"c\")@3:13).",
        ),
        (
            "% nothing but comments\n% here",
            "error expected exactly one query, found 0 statements",
            "",
        ),
        (
            "q(X) :- member(X, c) % no dot before this comment\n",
            "q(X) :- member(X, c). vars {Var(X)}",
            "error at 2:1: unexpected end of input",
        ),
        // `%` ends an identifier and comments out the rest of the line.
        (
            "q(X) :- member(X, c%d).",
            "error at 1:24: unexpected end of input",
            "error at 1:24: unexpected end of input",
        ),
    ]);
}

#[test]
fn fresh_variables_skip_user_names_beside_anonymous_ones() {
    check(&[
        (
            "q(_G1) :- data(_G1, a, _), type(_, _G2, _G1).",
            "q(_G1) :- data(_G1, a, _G3), type(_G4, _G2, _G1). \
             vars {Var(_G1), Var(_G2), Var(_G3), Var(_G4)}",
            "1:1: q@1:1(Var(\"_G1\")@1:3) :- data@1:11(Var(\"_G1\")@1:16, \
             Const(\"a\")@1:21, Anon@1:24), type@1:28(Anon@1:33, Var(\"_G2\")@1:36, \
             Var(\"_G1\")@1:41).",
        ),
        // `_G01` is not a name a fresh variable takes.
        (
            "q(X) :- data(X, _G3, _), data(_, _G01, _G1).",
            "q(X) :- data(X, _G3, _G2), data(_G4, _G01, _G1). \
             vars {Var(X), Var(_G01), Var(_G1), Var(_G2), Var(_G3), Var(_G4)}",
            "1:1: q@1:1(Var(\"X\")@1:3) :- data@1:9(Var(\"X\")@1:14, \
             Var(\"_G3\")@1:17, Anon@1:22), data@1:26(Anon@1:31, Var(\"_G01\")@1:34, \
             Var(\"_G1\")@1:40).",
        ),
        (
            "q(_) :- member(_, c).",
            "error head variable `_G1` does not occur in the query body",
            "1:1: q@1:1(Anon@1:3) :- member@1:9(Anon@1:16, Const(\"c\")@1:19).",
        ),
    ]);
}

#[test]
fn comma_separated_cardinalities() {
    check(&[
        (
            "q(A) :- C[A {1,*} *=> T].",
            "q(A) :- mandatory(A, C), type(C, A, T). vars {Var(A), Var(C), Var(T)}",
            "error at 1:9: expected a predicate atom, got `C`",
        ),
        (
            "q(A) :- C[A { 1 , * } *=> _], member(X, C).",
            "q(A) :- mandatory(A, C), member(X, C). vars {Var(A), Var(C), Var(X)}",
            "error at 1:9: expected a predicate atom, got `C`",
        ),
        (
            "q(A) :- C[A {1,1} *=> T].",
            "error at 1:13: unsupported cardinality `{1:1}`: F-logic Lite allows only \
             {0:1} and {1:*}",
            "error at 1:9: expected a predicate atom, got `C`",
        ),
        (
            "q(A) :- C[A {1*} *=> T].",
            "error at 1:15: expected `:` or `,`, got `*`",
            "error at 1:9: expected a predicate atom, got `C`",
        ),
    ]);
}

#[test]
fn empty_heads() {
    check(&[
        (
            "q() :- member(X, Y).",
            "q() :- member(X, Y). vars {Var(X), Var(Y)}",
            "1:1: q@1:1() :- member@1:8(Var(\"X\")@1:15, Var(\"Y\")@1:18).",
        ),
        (
            "q( ) :- sub(X, Y)",
            "q() :- sub(X, Y). vars {Var(X), Var(Y)}",
            "error at 1:18: unexpected end of input",
        ),
        (
            "() :- member(X, Y).",
            "error at 1:1: expected a term (constant, variable or `_`), got `(`",
            "error at 1:1: expected a constant, variable, or `_`, got `(`",
        ),
        (
            "q() :- .",
            "error at 1:8: expected a term (constant, variable or `_`), got `.`",
            "error at 1:8: expected a predicate atom, got `.`",
        ),
    ]);
}
