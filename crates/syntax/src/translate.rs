//! Translation from the surface AST to the `P_FL` encoding.

use std::collections::HashSet;

use flogic_model::{Atom, ConjunctiveQuery, Database, Pred};
use flogic_term::{Symbol, Term};

use crate::ast::{AstQuery, AstTerm, Card, Molecule, Program, Spec, Statement};
use crate::error::{SyntaxError, SyntaxErrorKind};

/// Allocates fresh variables for the anonymous `_`: "Different occurrences
/// of `_` denote different variables" (Section 2 of the paper).
struct FreshVars<'q> {
    /// The query's own variable names that a fresh `_G<n>` could take.
    /// Fresh names never repeat, since `next` only grows.
    taken: HashSet<&'q str>,
    next: u32,
}

impl<'q> FreshVars<'q> {
    fn for_query(head: &'q [AstTerm], body: &'q [Molecule]) -> FreshVars<'q> {
        let mut taken = HashSet::new();
        let mut note = |t: &'q AstTerm| {
            if let AstTerm::Var(name) = t {
                if name.starts_with("_G") {
                    taken.insert(name.as_str());
                }
            }
        };
        for t in head {
            note(t);
        }
        for m in body {
            match m {
                Molecule::Isa { obj, class, .. } => {
                    note(obj);
                    note(class);
                }
                Molecule::Sub { sub, sup, .. } => {
                    note(sub);
                    note(sup);
                }
                Molecule::Specs { obj, specs, .. } => {
                    note(obj);
                    for s in specs {
                        match s {
                            Spec::DataVal { attr, value, .. } => {
                                note(attr);
                                note(value);
                            }
                            Spec::Signature { attr, typ, .. } => {
                                note(attr);
                                note(typ);
                            }
                        }
                    }
                }
                Molecule::Pred { args, .. } => args.iter().for_each(&mut note),
            }
        }
        FreshVars { taken, next: 1 }
    }

    fn fresh(&mut self) -> Term {
        loop {
            let name = format!("_G{}", self.next);
            self.next += 1;
            if !self.taken.contains(name.as_str()) {
                return Term::var(&name);
            }
        }
    }
}

/// Whether we are translating a query body (variables allowed) or a fact
/// (must be ground).
enum Mode<'a, 'q> {
    Query(&'a mut FreshVars<'q>),
    Fact,
}

fn term(t: &AstTerm, mode: &mut Mode<'_, '_>) -> Result<Term, SyntaxError> {
    match (t, mode) {
        (AstTerm::Const(name), _) => Ok(Term::constant(name)),
        (AstTerm::Var(name), Mode::Query(_)) => Ok(Term::var(name)),
        (AstTerm::Anon, Mode::Query(fresh)) => Ok(fresh.fresh()),
        (AstTerm::Var(name), Mode::Fact) => Err(SyntaxError::whole_input(
            SyntaxErrorKind::VariableInFact(name.clone()),
        )),
        (AstTerm::Anon, Mode::Fact) => Err(SyntaxError::whole_input(
            SyntaxErrorKind::VariableInFact("_".into()),
        )),
    }
}

/// Expands one surface molecule into its `P_FL` atoms.
fn molecule(m: &Molecule, mode: &mut Mode<'_, '_>, out: &mut Vec<Atom>) -> Result<(), SyntaxError> {
    match m {
        Molecule::Isa { obj, class, .. } => {
            let (o, c) = (term(obj, mode)?, term(class, mode)?);
            out.push(Atom::member(o, c));
        }
        Molecule::Sub { sub, sup, .. } => {
            let (s, p) = (term(sub, mode)?, term(sup, mode)?);
            out.push(Atom::sub(s, p));
        }
        Molecule::Specs { obj, specs, .. } => {
            let o = term(obj, mode)?;
            for spec in specs {
                match spec {
                    Spec::DataVal { attr, value, .. } => {
                        let (a, v) = (term(attr, mode)?, term(value, mode)?);
                        out.push(Atom::data(o, a, v));
                    }
                    Spec::Signature {
                        attr, card, typ, ..
                    } => {
                        let a = term(attr, mode)?;
                        match card {
                            Some(Card::ZeroOne) => out.push(Atom::funct(a, o)),
                            Some(Card::OneStar) => out.push(Atom::mandatory(a, o)),
                            None => {}
                        }
                        // `O[A {1:*} *=> _]` encodes *only* mandatory(A, O)
                        // (Section 2): the anonymous type asserts (and, in a
                        // query, constrains) nothing, so no type atom is
                        // emitted. Without a cardinality, `T3[B*=>_]`
                        // genuinely queries for a type, so the `_` becomes a
                        // fresh variable (and is illegal in a fact).
                        match (typ, &mode, card) {
                            (AstTerm::Anon, _, Some(_)) => {}
                            (AstTerm::Anon, Mode::Fact, None) => {
                                return Err(SyntaxError::whole_input(
                                    SyntaxErrorKind::EmptySignatureFact,
                                ));
                            }
                            _ => {
                                let t = term(typ, mode)?;
                                out.push(Atom::typ(o, a, t));
                            }
                        }
                    }
                }
            }
        }
        Molecule::Pred { name, args, .. } => {
            let Some(pred) = Pred::from_name(name) else {
                return Err(SyntaxError::whole_input(SyntaxErrorKind::UnknownPredicate(
                    name.clone(),
                )));
            };
            if args.len() != pred.arity() {
                return Err(SyntaxError::whole_input(SyntaxErrorKind::PredicateArity {
                    name: name.clone(),
                    expected: pred.arity(),
                    got: args.len(),
                }));
            }
            let terms: Vec<Term> = args
                .iter()
                .map(|a| term(a, mode))
                .collect::<Result<_, _>>()?;
            out.push(Atom::new(pred, &terms).expect("arity checked above"));
        }
    }
    Ok(())
}

/// Translates an ad-hoc goal `?- body.` into a query named `ans` whose
/// head lists the goal's named variables in order of first occurrence
/// (variables starting with `_` are projected out, Prolog-style).
pub(crate) fn goal(body_molecules: &[Molecule]) -> Result<ConjunctiveQuery, SyntaxError> {
    let mut fresh = FreshVars::for_query(&[], body_molecules);
    let mut mode = Mode::Query(&mut fresh);
    let mut atoms = Vec::new();
    for m in body_molecules {
        molecule(m, &mut mode, &mut atoms)?;
    }
    let mut head = Vec::new();
    let mut seen = HashSet::new();
    for atom in &atoms {
        for v in atom.vars() {
            let Term::Var(sym) = v else {
                unreachable!("vars() yields variables")
            };
            if !sym.as_str().starts_with('_') && seen.insert(v) {
                head.push(v);
            }
        }
    }
    Ok(ConjunctiveQuery::new(Symbol::intern("ans"), head, atoms)?)
}

fn query(q: &AstQuery) -> Result<ConjunctiveQuery, SyntaxError> {
    let mut fresh = FreshVars::for_query(&q.head, &q.body);
    let mut mode = Mode::Query(&mut fresh);
    let head: Vec<Term> = q
        .head
        .iter()
        .map(|t| term(t, &mut mode))
        .collect::<Result<_, _>>()?;
    let mut body = Vec::new();
    for m in &q.body {
        molecule(m, &mut mode, &mut body)?;
    }
    Ok(ConjunctiveQuery::new(Symbol::intern(&q.name), head, body)?)
}

/// Translates every query statement in the program.
pub(crate) fn program_to_queries(program: &Program) -> Result<Vec<ConjunctiveQuery>, SyntaxError> {
    program
        .statements
        .iter()
        .filter_map(|s| match s {
            Statement::Query(q) => Some(query(q)),
            Statement::Goal(body) => Some(goal(body)),
            Statement::Fact(_) => None,
        })
        .collect()
}

/// Translates every fact statement in the program into a database;
/// query statements are an error.
pub(crate) fn program_to_database(program: &Program) -> Result<Database, SyntaxError> {
    let mut db = Database::new();
    for s in &program.statements {
        match s {
            Statement::Fact(m) => {
                let mut atoms = Vec::new();
                molecule(m, &mut Mode::Fact, &mut atoms)?;
                for a in atoms {
                    db.insert(a).map_err(SyntaxError::from)?;
                }
            }
            Statement::Query(q) => {
                return Err(SyntaxError::whole_input(SyntaxErrorKind::UnexpectedToken {
                    expected: "a fact",
                    got: format!("query {}", q.name),
                }));
            }
            Statement::Goal(_) => {
                return Err(SyntaxError::whole_input(SyntaxErrorKind::UnexpectedToken {
                    expected: "a fact",
                    got: "goal ?-".to_owned(),
                }));
            }
        }
    }
    Ok(db)
}

/// Splits a mixed program into (queries, fact base).
pub(crate) fn split_program(
    program: &Program,
) -> Result<(Vec<ConjunctiveQuery>, Database), SyntaxError> {
    let mut queries = Vec::new();
    let mut db = Database::new();
    for s in &program.statements {
        match s {
            Statement::Query(q) => queries.push(query(q)?),
            Statement::Goal(body) => queries.push(goal(body)?),
            Statement::Fact(m) => {
                let mut atoms = Vec::new();
                molecule(m, &mut Mode::Fact, &mut atoms)?;
                for a in atoms {
                    db.insert(a).map_err(SyntaxError::from)?;
                }
            }
        }
    }
    Ok((queries, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn one_query(input: &str) -> ConjunctiveQuery {
        program_to_queries(&parse(input).unwrap())
            .unwrap()
            .remove(0)
    }

    #[test]
    fn anonymous_vars_are_distinct() {
        let q = one_query("q(A) :- type(T, A, _), type(T, A, _).");
        let a0 = q.body()[0].arg(2);
        let a1 = q.body()[1].arg(2);
        assert!(a0.is_var() && a1.is_var());
        assert_ne!(
            a0, a1,
            "different `_` occurrences must be different variables"
        );
    }

    #[test]
    fn fresh_vars_avoid_user_names() {
        let q = one_query("q(G) :- data(_G1, a, G), type(_, a, _G1).");
        // The fresh variable for `_` must not collide with user's _G1.
        let fresh = q.body()[1].arg(0);
        assert_ne!(fresh, Term::var("_G1"));
    }

    #[test]
    fn signature_cardinalities_expand_per_the_encoding() {
        let q = one_query("q(A) :- C[A {1:*} *=> T].");
        assert_eq!(q.body().len(), 2);
        assert_eq!(q.body()[0], Atom::mandatory(Term::var("A"), Term::var("C")));
        assert_eq!(
            q.body()[1],
            Atom::typ(Term::var("C"), Term::var("A"), Term::var("T"))
        );
        // Anonymous type with cardinality: only the cardinality atom.
        let q = one_query("q(A) :- C[A {0:1} *=> _], member(X, C), data(X, A, Y).");
        assert_eq!(q.body()[0], Atom::funct(Term::var("A"), Term::var("C")));
        assert_eq!(q.body().len(), 3);
    }

    #[test]
    fn unknown_predicate_rejected() {
        let err = program_to_queries(&parse("q(X) :- parent(X, Y).").unwrap()).unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::UnknownPredicate(ref n) if n == "parent"));
    }

    #[test]
    fn wrong_predicate_arity_rejected() {
        let err = program_to_queries(&parse("q(X) :- member(X).").unwrap()).unwrap_err();
        assert!(matches!(
            err.kind,
            SyntaxErrorKind::PredicateArity {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn unsafe_head_becomes_semantic_error() {
        let err = program_to_queries(&parse("q(Z) :- member(X, Y).").unwrap()).unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::Semantic(_)));
    }

    #[test]
    fn anonymous_signature_fact_without_card_rejected() {
        let err = program_to_database(&parse("person[age *=> _].").unwrap()).unwrap_err();
        assert_eq!(err.kind, SyntaxErrorKind::EmptySignatureFact);
    }

    #[test]
    fn mandatory_fact_with_anonymous_type_ok() {
        let db = program_to_database(&parse("person[name {1:*} *=> _].").unwrap()).unwrap();
        assert_eq!(db.len(), 1);
        assert!(db.contains(&Atom::mandatory(
            Term::constant("name"),
            Term::constant("person")
        )));
    }

    #[test]
    fn multi_spec_molecule_expands_to_multiple_atoms() {
        let db = program_to_database(&parse("john[age->33, office->b42].").unwrap()).unwrap();
        assert_eq!(db.len(), 2);
    }
}
