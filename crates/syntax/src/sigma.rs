//! Parser for `.sigma` rule files: user-supplied TGD/EGD sets over the
//! `P_FL` schema.
//!
//! The surface form mirrors how this repo prints `Σ_FL` rules:
//!
//! ```text
//! % a TGD: head :- body.
//! member(V, T) :- type(O, A, T), data(O, A, V).
//! % an existential TGD: a head variable absent from the body is
//! % implicitly existentially quantified.
//! data(O, A, V) :- mandatory(A, O).
//! % an EGD: equated pair :- body.
//! V = W :- data(O, A, V), data(O, A, W), funct(A, O).
//! ```
//!
//! Uppercase/underscore identifiers are variables, lowercase identifiers
//! are constants, a bare `_` is an anonymous variable (each occurrence
//! distinct), `%` starts a line comment.
//!
//! The parser is deliberately *lenient* about predicate names and
//! arities: it records what was written, with spans. Schema validation
//! (unknown predicates, arity mismatches, safety) is the Σ-admission
//! analyzer's job in `flogic-analysis`, which reports them as coded
//! `FL010`/`FL011` diagnostics instead of hard parse errors — so one run
//! surfaces *all* problems of a rule file, not just the first.

use crate::ast::AstTerm;
use crate::error::{Pos, SyntaxError};
use crate::lexer::{Cursor, TokenKind};

/// A parsed `.sigma` file: rules in declaration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigmaAst {
    /// The rules, in file order.
    pub rules: Vec<SigmaRuleAst>,
}

/// One parsed rule with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigmaRuleAst {
    /// Position of the rule's first token.
    pub pos: Pos,
    /// TGD or EGD.
    pub kind: SigmaRuleKindAst,
}

/// The two rule forms of a `.sigma` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SigmaRuleKindAst {
    /// `head(args) :- body.` — head variables absent from the body are
    /// implicitly existentially quantified.
    Tgd {
        /// The head atom.
        head: SigmaAtomAst,
        /// The body atoms (at least one).
        body: Vec<SigmaAtomAst>,
    },
    /// `left = right :- body.`
    Egd {
        /// Left side of the equated pair.
        left: SpannedTerm,
        /// Right side of the equated pair.
        right: SpannedTerm,
        /// The body atoms (at least one).
        body: Vec<SigmaAtomAst>,
    },
}

/// A parsed atom: predicate name as written, arguments with spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigmaAtomAst {
    /// The predicate name as written (validated later).
    pub name: String,
    /// Position of the predicate name.
    pub pos: Pos,
    /// The arguments, in order.
    pub args: Vec<SpannedTerm>,
}

/// A term with the position of its token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpannedTerm {
    /// The term (constant, variable, or anonymous `_`).
    pub term: AstTerm,
    /// Position of the term's token.
    pub pos: Pos,
}

/// Parses a `.sigma` file (see module docs). Parse errors (malformed
/// tokens or rule shapes) are returned as `Err`; schema-level problems
/// are left for the admission analyzer.
pub fn parse_sigma(input: &str) -> Result<SigmaAst, SyntaxError> {
    let mut t = Cursor::new(input)?;
    let mut rules = Vec::new();
    while t.peek().kind != TokenKind::Eof {
        rules.push(rule(&mut t)?);
    }
    Ok(SigmaAst { rules })
}

fn rule(t: &mut Cursor<'_>) -> Result<SigmaRuleAst, SyntaxError> {
    let pos = t.peek().pos;
    // An atom head starts `name(`; anything else must be the equated
    // pair of an EGD.
    let kind = if t.at_atom() {
        let head = atom(t)?;
        t.expect(TokenKind::Implies, "`:-`")?;
        SigmaRuleKindAst::Tgd {
            head,
            body: body(t)?,
        }
    } else {
        let left = term(t)?;
        t.expect(TokenKind::Eq, "`=` or a head atom")?;
        let right = term(t)?;
        t.expect(TokenKind::Implies, "`:-`")?;
        SigmaRuleKindAst::Egd {
            left,
            right,
            body: body(t)?,
        }
    };
    t.expect(TokenKind::Dot, "`.`")?;
    Ok(SigmaRuleAst { pos, kind })
}

fn body(t: &mut Cursor<'_>) -> Result<Vec<SigmaAtomAst>, SyntaxError> {
    let mut atoms = vec![atom(t)?];
    while t.eat(TokenKind::Comma) {
        atoms.push(atom(t)?);
    }
    Ok(atoms)
}

fn atom(t: &mut Cursor<'_>) -> Result<SigmaAtomAst, SyntaxError> {
    let TokenKind::LIdent(name) = t.peek().kind else {
        return Err(t.unexpected("a predicate atom"));
    };
    let pos = t.bump().pos;
    t.expect(TokenKind::LParen, "`(`")?;
    let mut args = Vec::new();
    if t.peek().kind != TokenKind::RParen {
        args.push(term(t)?);
        while t.eat(TokenKind::Comma) {
            args.push(term(t)?);
        }
    }
    t.expect(TokenKind::RParen, "`)`")?;
    Ok(SigmaAtomAst {
        name: name.to_owned(),
        pos,
        args,
    })
}

fn term(t: &mut Cursor<'_>) -> Result<SpannedTerm, SyntaxError> {
    let pos = t.peek().pos;
    let term = t.term("a constant, variable, or `_`")?;
    Ok(SpannedTerm { term, pos })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SyntaxErrorKind;

    #[test]
    fn parses_tgds_and_egds_with_spans() {
        let src = "% comment\n\
                   member(V, T) :- type(O, A, T), data(O, A, V).\n\
                   V = W :- data(O, A, V), data(O, A, W), funct(A, O).\n";
        let ast = parse_sigma(src).unwrap();
        assert_eq!(ast.rules.len(), 2);
        let SigmaRuleKindAst::Tgd { head, body } = &ast.rules[0].kind else {
            panic!("rule 1 is a TGD")
        };
        assert_eq!(head.name, "member");
        assert_eq!(head.pos, Pos { line: 2, col: 1 });
        assert_eq!(body.len(), 2);
        assert_eq!(body[1].args[2].term, AstTerm::Var("V".into()));
        let SigmaRuleKindAst::Egd { left, right, body } = &ast.rules[1].kind else {
            panic!("rule 2 is an EGD")
        };
        assert_eq!(left.term, AstTerm::Var("V".into()));
        assert_eq!(right.term, AstTerm::Var("W".into()));
        assert_eq!(ast.rules[1].pos, Pos { line: 3, col: 1 });
        assert_eq!(body.len(), 3);
    }

    #[test]
    fn unknown_arities_and_predicates_parse_leniently() {
        // Validation is the admission analyzer's job, not the parser's.
        let ast = parse_sigma("frobnicate(A, B, C, D) :- member(A).").unwrap();
        let SigmaRuleKindAst::Tgd { head, body } = &ast.rules[0].kind else {
            panic!()
        };
        assert_eq!(head.name, "frobnicate");
        assert_eq!(head.args.len(), 4);
        assert_eq!(body[0].args.len(), 1);
    }

    #[test]
    fn missing_dot_is_a_parse_error() {
        let err = parse_sigma("member(A, B) :- sub(A, B)").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::UnexpectedEof));
    }

    #[test]
    fn bodyless_rule_is_a_parse_error() {
        assert!(parse_sigma("member(A, B) :- .").is_err());
        assert!(parse_sigma("member(A, B).").is_err());
    }

    #[test]
    fn egd_sides_may_be_any_term() {
        // `c = X :- …` parses; safety (sides must be body variables) is
        // an FL011 admission diagnostic, not a parse error.
        let ast = parse_sigma("c = X :- member(X, d).").unwrap();
        let SigmaRuleKindAst::Egd { left, .. } = &ast.rules[0].kind else {
            panic!()
        };
        assert_eq!(left.term, AstTerm::Const("c".into()));
    }

    #[test]
    fn empty_file_parses_to_no_rules() {
        assert_eq!(parse_sigma("  % only comments\n").unwrap().rules.len(), 0);
    }
}
