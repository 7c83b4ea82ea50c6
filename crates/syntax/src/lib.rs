//! Surface syntax for F-logic Lite.
//!
//! This crate parses the notation used throughout the paper and pretty-prints
//! it back:
//!
//! * **F-logic molecules** — `john:student`, `freshman::student`,
//!   `john[age->33]`, `person[age*=>number]`,
//!   `person[age {0:1} *=> number]`, `person[name {1:*} *=> string]`;
//! * **low-level predicate notation** — `member(O, C)`, `sub(C1, C2)`,
//!   `data(O, A, V)`, `type(O, A, T)`, `mandatory(A, O)`, `funct(A, O)`;
//! * **queries/rules** — `q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].`
//!
//! Identifiers starting with a lowercase letter or a digit are constants;
//! identifiers starting with an uppercase letter or `_` are variables; a bare
//! `_` is an anonymous variable (each occurrence is a completely new
//! variable, as in the paper). `%` starts a line comment.
//!
//! Molecules are translated to the `P_FL` encoding of Section 2:
//! `o:c` ↦ `member(o,c)`; `c::d` ↦ `sub(c,d)`; `o[a->v]` ↦ `data(o,a,v)`;
//! `o[a*=>t]` ↦ `type(o,a,t)`; `o[a {1:*} *=> t]` ↦ `mandatory(a,o)` (plus
//! `type(o,a,t)` when `t` is not `_`); `o[a {0:1} *=> t]` ↦ `funct(a,o)`
//! (plus `type` likewise). Both `{1:*}` and `{1,*}` separators are accepted,
//! mirroring the paper's own usage.

mod ast;
mod error;
mod lexer;
mod parser;
mod pretty;
mod sigma;
mod translate;

pub use ast::{AstQuery, AstTerm, Card, Molecule, Program, Spec, Statement};
pub use error::{Pos, SyntaxError, SyntaxErrorKind};
pub use lexer::{Lexer, Token, TokenKind};
pub use pretty::{atom_to_flogic, query_to_flogic, query_to_predicates};
pub use sigma::{parse_sigma, SigmaAst, SigmaAtomAst, SigmaRuleAst, SigmaRuleKindAst, SpannedTerm};

use flogic_model::{ConjunctiveQuery, Database};

/// Parses a program into its surface AST without translating to `P_FL`.
///
/// This is the entry point for tooling that inspects programs *as written*
/// (e.g. the `flogic-analysis` lints, which need molecule spans and the raw
/// `_` occurrences that translation replaces with fresh variables).
pub fn parse_ast(input: &str) -> Result<Program, SyntaxError> {
    parser::parse(input)
}

/// Parses a single query/rule, e.g.
/// `q(A,B) :- T1[A*=>T2], T2[B*=>_].`
///
/// The trailing `.` is optional for a single statement.
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery, SyntaxError> {
    let program = parser::parse(input)?;
    let mut queries = translate::program_to_queries(&program)?;
    match (queries.len(), program.statements.len()) {
        (1, 1) => Ok(queries.pop().expect("just checked")),
        _ => Err(SyntaxError::whole_input(
            SyntaxErrorKind::ExpectedSingleQuery {
                got: program.statements.len(),
            },
        )),
    }
}

/// Parses a program of `.`-terminated statements and returns all queries in
/// it (fact statements are rejected).
pub fn parse_queries(input: &str) -> Result<Vec<ConjunctiveQuery>, SyntaxError> {
    let program = parser::parse(input)?;
    if program
        .statements
        .iter()
        .any(|s| matches!(s, Statement::Fact(_)))
    {
        return Err(SyntaxError::whole_input(
            SyntaxErrorKind::FactWhereQueryExpected,
        ));
    }
    translate::program_to_queries(&program)
}

/// Parses an ad-hoc goal in the paper's interactive form, e.g.
/// `?- X::person.` or `?- student[Att*=>string], john[Att->Val].`
///
/// The result is a query named `ans` whose head lists the goal's named
/// variables in order of first occurrence; variables starting with `_`
/// (including each `_` occurrence) are projected out.
pub fn parse_goal(input: &str) -> Result<ConjunctiveQuery, SyntaxError> {
    let program = parser::parse(input)?;
    match program.statements.as_slice() {
        [Statement::Goal(body)] => translate::goal(body),
        _ => Err(SyntaxError::whole_input(
            SyntaxErrorKind::ExpectedSingleQuery {
                got: program.statements.len(),
            },
        )),
    }
}

/// Parses a program of ground facts (molecules or predicate atoms) into a
/// [`Database`]. Variables in facts are an error.
pub fn parse_database(input: &str) -> Result<Database, SyntaxError> {
    let program = parser::parse(input)?;
    translate::program_to_database(&program)
}

/// Parses a mixed program and returns its queries and its fact base.
pub fn parse_program(input: &str) -> Result<(Vec<ConjunctiveQuery>, Database), SyntaxError> {
    let program = parser::parse(input)?;
    translate::split_program(&program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_model::Pred;

    #[test]
    fn paper_joinable_attributes_query() {
        let q = parse_query("q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].").unwrap();
        assert_eq!(q.arity(), 2);
        assert_eq!(q.size(), 3);
        assert_eq!(q.body()[0].pred(), Pred::Type);
        assert_eq!(q.body()[1].pred(), Pred::Sub);
        assert_eq!(q.body()[2].pred(), Pred::Type);
    }

    #[test]
    fn paper_mandatory_attribute_query() {
        let q =
            parse_query("q(Att,Class,Type) :- Class[Att {1,*} *=> _], Class[Att*=>Type], _:Class.")
                .unwrap();
        assert_eq!(q.arity(), 3);
        // mandatory(Att, Class), type(Class, Att, Type), member(_, Class)
        assert_eq!(q.size(), 3);
        assert_eq!(q.body()[0].pred(), Pred::Mandatory);
        assert_eq!(q.body()[1].pred(), Pred::Type);
        assert_eq!(q.body()[2].pred(), Pred::Member);
    }

    #[test]
    fn predicate_notation_round_trip() {
        let q = parse_query("q(V1,V2) :- data(O,A,V1), data(O,A,V2), funct(A,C), member(O,C).")
            .unwrap();
        assert_eq!(q.size(), 4);
        assert_eq!(
            q.to_string(),
            "q(V1, V2) :- data(O, A, V1), data(O, A, V2), funct(A, C), member(O, C)."
        );
    }

    #[test]
    fn database_of_molecules() {
        let db = parse_database(
            "john:student. freshman::student. john[age->33].\n\
             person[age {0:1} *=> number]. person[name {1:*} *=> string].",
        )
        .unwrap();
        assert_eq!(db.len(), 7); // member, sub, data, funct+type, mandatory+type
        assert_eq!(db.pred_facts(Pred::Funct).len(), 1);
        assert_eq!(db.pred_facts(Pred::Mandatory).len(), 1);
        assert_eq!(db.pred_facts(Pred::Type).len(), 2);
    }

    #[test]
    fn variables_in_facts_rejected() {
        assert!(parse_database("X:student.").is_err());
        assert!(parse_database("john[age->V].").is_err());
    }

    #[test]
    fn mixed_program_splits() {
        let (queries, db) = parse_program("john:student. q(X) :- member(X, student).").unwrap();
        assert_eq!(queries.len(), 1);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn goal_form_parses_with_inferred_head() {
        // The paper's "?- X::person." form.
        let g = parse_goal("?- X::person.").unwrap();
        assert_eq!(g.name().as_str(), "ans");
        assert_eq!(g.head(), &[flogic_term::Term::var("X")]);
        // Mixed goal: head lists Att then Val, in first-occurrence order.
        let g = parse_goal("?- student[Att*=>string], john[Att->Val].").unwrap();
        assert_eq!(
            g.head(),
            &[flogic_term::Term::var("Att"), flogic_term::Term::var("Val")]
        );
    }

    #[test]
    fn goal_projects_out_underscore_vars() {
        let g = parse_goal("?- member(_Ignored, C), data(_, a, V).").unwrap();
        assert_eq!(
            g.head(),
            &[flogic_term::Term::var("C"), flogic_term::Term::var("V")]
        );
    }

    #[test]
    fn a_goal_at_the_default_body_cap_parses_in_linear_time() {
        // A request body may carry an ad-hoc goal, whose head collects
        // every distinct variable. Up to the server's default 1 MiB
        // `--max-body-bytes`, it parses in well under two seconds, even
        // unoptimized.
        use std::fmt::Write as _;
        let mut input = String::from("?- V0 : c");
        let mut vars = 1;
        while input.len() < 1_000_000 {
            write!(input, ", V{vars} : c").unwrap();
            vars += 1;
        }
        let start = std::time::Instant::now();
        let g = parse_query(&input).unwrap();
        let took = start.elapsed();
        assert_eq!((g.head().len(), g.size()), (vars, vars));
        assert_eq!(
            g.head()[vars - 1],
            flogic_term::Term::var(&format!("V{}", vars - 1))
        );
        assert!(
            took < std::time::Duration::from_secs(2),
            "parsing a {}-byte goal took {took:?}",
            input.len()
        );
    }

    #[test]
    fn goal_in_database_position_rejected() {
        assert!(parse_database("?- member(X, Y).").is_err());
    }

    #[test]
    fn goal_in_mixed_program_becomes_query() {
        let (queries, db) = parse_program("john:student. ?- X:student.").unwrap();
        assert_eq!(queries.len(), 1);
        assert_eq!(db.len(), 1);
        assert_eq!(queries[0].name().as_str(), "ans");
    }
}
