//! Recursive-descent parser for the F-logic Lite surface syntax.

use crate::ast::{AstQuery, AstTerm, Card, Molecule, Program, Spec, Statement};
use crate::error::{Pos, SyntaxError, SyntaxErrorKind};
use crate::lexer::{Cursor, TokenKind};

/// Parses a whole program.
pub fn parse(input: &str) -> Result<Program, SyntaxError> {
    let mut t = Cursor::new(input)?;
    let mut statements = Vec::new();
    while t.peek().kind != TokenKind::Eof {
        statements.push(statement(&mut t)?);
        // '.' terminates a statement; it may be omitted before EOF.
        if !t.eat(TokenKind::Dot) && t.peek().kind != TokenKind::Eof {
            return Err(t.unexpected("`.` or end of input"));
        }
    }
    Ok(Program { statements })
}

fn statement(t: &mut Cursor<'_>) -> Result<Statement, SyntaxError> {
    // An ad-hoc goal starts with `?-`.
    if t.eat(TokenKind::Goal) {
        return Ok(Statement::Goal(body(t)?));
    }
    // A query starts with `name(args) :-`; without the `:-`, `name(args)`
    // is a predicate-notation fact. Anything else is a molecule fact.
    if !t.at_atom() {
        return Ok(Statement::Fact(molecule(t)?));
    }
    let (name, pos, args, head_pos) = pred_shape(t)?;
    if !t.eat(TokenKind::Implies) {
        return Ok(Statement::Fact(Molecule::Pred { name, args, pos }));
    }
    Ok(Statement::Query(AstQuery {
        name,
        head: args,
        body: body(t)?,
        pos,
        head_pos,
    }))
}

/// `name(t1, …, tn)` — used for both query heads and predicate atoms.
/// Returns the name and its position, plus the arguments and their
/// positions (the two vectors are parallel).
#[allow(clippy::type_complexity)]
fn pred_shape(t: &mut Cursor<'_>) -> Result<(String, Pos, Vec<AstTerm>, Vec<Pos>), SyntaxError> {
    let tok = t.bump();
    let TokenKind::LIdent(name) = tok.kind else {
        unreachable!("caller checked `at_atom`")
    };
    t.expect(TokenKind::LParen, "`(`")?;
    let mut args = Vec::new();
    let mut arg_pos = Vec::new();
    if t.peek().kind != TokenKind::RParen {
        loop {
            arg_pos.push(t.peek().pos);
            args.push(term(t)?);
            if !t.eat(TokenKind::Comma) {
                break;
            }
        }
    }
    t.expect(TokenKind::RParen, "`)`")?;
    Ok((name.to_owned(), tok.pos, args, arg_pos))
}

fn body(t: &mut Cursor<'_>) -> Result<Vec<Molecule>, SyntaxError> {
    let mut molecules = vec![molecule(t)?];
    while t.eat(TokenKind::Comma) {
        molecules.push(molecule(t)?);
    }
    Ok(molecules)
}

fn term(t: &mut Cursor<'_>) -> Result<AstTerm, SyntaxError> {
    t.term("a term (constant, variable or `_`)")
}

fn molecule(t: &mut Cursor<'_>) -> Result<Molecule, SyntaxError> {
    // Predicate notation: lowercase name immediately followed by '('.
    if t.at_atom() {
        let (name, pos, args, _) = pred_shape(t)?;
        return Ok(Molecule::Pred { name, args, pos });
    }
    let pos = t.peek().pos;
    let subject = term(t)?;
    if t.eat(TokenKind::Colon) {
        Ok(Molecule::Isa {
            obj: subject,
            class: term(t)?,
            pos,
        })
    } else if t.eat(TokenKind::SubSym) {
        Ok(Molecule::Sub {
            sub: subject,
            sup: term(t)?,
            pos,
        })
    } else if t.eat(TokenKind::LBracket) {
        let mut specs = vec![spec(t)?];
        while t.eat(TokenKind::Comma) {
            specs.push(spec(t)?);
        }
        t.expect(TokenKind::RBracket, "`]`")?;
        Ok(Molecule::Specs {
            obj: subject,
            specs,
            pos,
        })
    } else {
        Err(t.unexpected("`:`, `::` or `[`"))
    }
}

fn spec(t: &mut Cursor<'_>) -> Result<Spec, SyntaxError> {
    let pos = t.peek().pos;
    let attr = term(t)?;
    if t.eat(TokenKind::Arrow) {
        return Ok(Spec::DataVal {
            attr,
            value: term(t)?,
            pos,
        });
    }
    let card = match t.peek().kind {
        TokenKind::LBrace => Some(cardinality(t)?),
        TokenKind::SigArrow => None,
        _ => return Err(t.unexpected("`->`, `{` or `*=>`")),
    };
    t.expect(TokenKind::SigArrow, "`*=>`")?;
    Ok(Spec::Signature {
        attr,
        card,
        typ: term(t)?,
        pos,
    })
}

/// `{0:1}` or `{1:*}`; the paper also writes `{1,*}`, so both `:` and
/// `,` separators are accepted. Anything else is rejected — F-logic
/// Lite allows only these two cardinalities.
fn cardinality(t: &mut Cursor<'_>) -> Result<Card, SyntaxError> {
    let open = t.expect(TokenKind::LBrace, "`{`")?;
    let TokenKind::LIdent(lo @ ("0" | "1")) = t.peek().kind else {
        return Err(t.unexpected("`0` or `1`"));
    };
    t.bump();
    if !t.eat(TokenKind::Colon) && !t.eat(TokenKind::Comma) {
        return Err(t.unexpected("`:` or `,`"));
    }
    let hi = match t.peek().kind {
        TokenKind::LIdent("1") => "1",
        TokenKind::Star => "*",
        _ => return Err(t.unexpected("`1` or `*`")),
    };
    t.bump();
    t.expect(TokenKind::RBrace, "`}`")?;
    match (lo, hi) {
        ("0", "1") => Ok(Card::ZeroOne),
        ("1", "*") => Ok(Card::OneStar),
        _ => Err(SyntaxError::at(
            open.pos.line,
            open.pos.col,
            SyntaxErrorKind::UnsupportedCardinality(format!("{lo}:{hi}")),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_isa_and_sub_facts() {
        let p = parse("john:student. freshman::student.").unwrap();
        assert_eq!(p.statements.len(), 2);
        assert!(matches!(
            &p.statements[0],
            Statement::Fact(Molecule::Isa { .. })
        ));
        assert!(matches!(
            &p.statements[1],
            Statement::Fact(Molecule::Sub { .. })
        ));
    }

    #[test]
    fn parses_multi_spec_molecule() {
        let p = parse("john[age->33, name->j].").unwrap();
        let Statement::Fact(Molecule::Specs { specs, .. }) = &p.statements[0] else {
            panic!("expected specs molecule");
        };
        assert_eq!(specs.len(), 2);
    }

    #[test]
    fn parses_signature_with_cardinalities() {
        let p = parse("person[age {0:1} *=> number]. person[name {1,*} *=> string].").unwrap();
        let Statement::Fact(Molecule::Specs { specs, .. }) = &p.statements[0] else {
            panic!()
        };
        assert_eq!(
            specs[0],
            Spec::Signature {
                attr: AstTerm::Const("age".into()),
                card: Some(Card::ZeroOne),
                typ: AstTerm::Const("number".into()),
                pos: Pos { line: 1, col: 8 },
            }
        );
        let Statement::Fact(Molecule::Specs { specs, .. }) = &p.statements[1] else {
            panic!()
        };
        assert!(matches!(
            specs[0],
            Spec::Signature {
                card: Some(Card::OneStar),
                ..
            }
        ));
    }

    #[test]
    fn rejects_unsupported_cardinality() {
        let err = parse("person[kids {1:1} *=> person].").unwrap_err();
        assert!(
            matches!(err.kind, SyntaxErrorKind::UnexpectedToken { .. })
                || matches!(err.kind, SyntaxErrorKind::UnsupportedCardinality(_))
        );
        let err = parse("person[kids {0,*} *=> person].").unwrap_err();
        assert!(
            matches!(&err.kind, SyntaxErrorKind::UnsupportedCardinality(s) if s == "0:*"),
            "{err}"
        );
    }

    #[test]
    fn parses_query_with_molecule_body() {
        let p = parse("q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].").unwrap();
        let Statement::Query(q) = &p.statements[0] else {
            panic!()
        };
        assert_eq!(q.name, "q");
        assert_eq!(q.head.len(), 2);
        assert_eq!(q.body.len(), 3);
    }

    #[test]
    fn parses_boolean_query() {
        let p = parse("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
        let Statement::Query(q) = &p.statements[0] else {
            panic!()
        };
        assert!(q.head.is_empty());
        assert_eq!(q.body.len(), 3);
    }

    #[test]
    fn predicate_fact_vs_rule_disambiguation() {
        let p = parse("member(john, student).").unwrap();
        assert!(matches!(
            &p.statements[0],
            Statement::Fact(Molecule::Pred { name, .. }) if name == "member"
        ));
    }

    #[test]
    fn final_dot_optional() {
        assert!(parse("q(X) :- member(X, c)").is_ok());
    }

    #[test]
    fn missing_separator_is_an_error() {
        let err = parse("john:student mary:student.").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn eof_inside_molecule_is_an_error() {
        let err = parse("john[age->").unwrap_err();
        assert_eq!(err.kind, SyntaxErrorKind::UnexpectedEof);
    }

    #[test]
    fn variables_allowed_anywhere_in_queries() {
        // "Variables can occur anywhere an object, an attribute, or a class
        // is allowed" (Section 2).
        let p = parse("q(Att, Val) :- student[Att*=>string], john[Att->Val].").unwrap();
        let Statement::Query(q) = &p.statements[0] else {
            panic!()
        };
        assert_eq!(q.body.len(), 2);
    }
}
