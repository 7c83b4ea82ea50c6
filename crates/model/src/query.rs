//! Conjunctive meta-queries over `P_FL`.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use flogic_term::{Subst, Symbol, Term};

use crate::{Atom, ModelError};

/// A conjunctive query `q(t̄) :- c1, …, cn` over the `P_FL` predicates.
///
/// The head is a tuple of terms (variables or constants); the body is a
/// non-empty conjunction of atoms. Queries are validated on construction:
///
/// * the body must be non-empty (the paper's conjunctive queries are
///   conjunctions of `P_FL` predicates);
/// * every head variable must occur in the body (*safety*);
/// * labelled nulls may not appear anywhere (nulls belong to chases and
///   databases only).
///
/// The paper writes `|q|` for the size of a query; [`ConjunctiveQuery::size`]
/// returns the number of body atoms, which is the measure used in the level
/// bound `δ = 2·|q1|` of Theorem 12.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    name: Symbol,
    head: Vec<Term>,
    body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Creates and validates a conjunctive query.
    pub fn new(
        name: Symbol,
        head: Vec<Term>,
        body: Vec<Atom>,
    ) -> Result<ConjunctiveQuery, ModelError> {
        if body.is_empty() {
            return Err(ModelError::EmptyBody);
        }
        if head.iter().any(|t| t.is_null())
            || body.iter().any(|a| a.args().iter().any(|t| t.is_null()))
        {
            return Err(ModelError::NullInQuery);
        }
        let body_vars: HashSet<Term> = body.iter().flat_map(super::atom::Atom::vars).collect();
        for &t in &head {
            if t.is_var() && !body_vars.contains(&t) {
                return Err(ModelError::UnsafeHeadVariable { var: t });
            }
        }
        Ok(ConjunctiveQuery { name, head, body })
    }

    /// The query name (purely cosmetic; containment ignores it).
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The head tuple.
    pub fn head(&self) -> &[Term] {
        &self.head
    }

    /// The body conjuncts.
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// The arity of the head. Containment is only defined between queries
    /// of equal arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// The paper's `|q|`: the number of conjuncts in the body.
    pub fn size(&self) -> usize {
        self.body.len()
    }

    /// The set of variables occurring in the query (head ∪ body), in
    /// deterministic order.
    pub fn vars(&self) -> BTreeSet<Term> {
        self.body
            .iter()
            .flat_map(super::atom::Atom::vars)
            .chain(self.head.iter().copied().filter(|t| t.is_var()))
            .collect()
    }

    /// Applies a substitution to head and body, returning a new query.
    ///
    /// Used by the chase when ρ4 merges a head variable (Example 1 of the
    /// paper shows the head of a query changing during the chase). The
    /// result is *not* re-validated: merging may ground a head variable,
    /// which is fine.
    #[must_use]
    pub fn apply(&self, s: &Subst) -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: self.name,
            head: self.head.iter().map(|&t| s.apply(t)).collect(),
            body: self.body.iter().map(|a| a.apply(s)).collect(),
        }
    }

    /// Returns a copy whose variables are renamed apart from `other`'s by
    /// suffixing `'` marks, so that the two queries share no variables.
    ///
    /// Containment checks must not confuse `X` in `q1` with `X` in `q2`.
    #[must_use]
    pub fn rename_apart(&self, other: &ConjunctiveQuery) -> ConjunctiveQuery {
        let taken = other.vars();
        let mut s = Subst::new();
        for v in self.vars() {
            if let Term::Var(sym) = v {
                let mut candidate = v;
                let mut name = sym.as_str().to_owned();
                while taken.contains(&candidate) {
                    name.push('\'');
                    candidate = Term::var(&name);
                }
                if candidate != v {
                    s.bind(v, candidate);
                }
            }
        }
        if s.is_empty() {
            self.clone()
        } else {
            self.apply(&s)
        }
    }

    /// Drops the body atom at `idx`, returning `None` if the resulting
    /// query would be invalid (empty body or unsafe head). Used by query
    /// minimisation.
    pub fn without_atom(&self, idx: usize) -> Option<ConjunctiveQuery> {
        if self.body.len() <= 1 || idx >= self.body.len() {
            return None;
        }
        let mut body = self.body.clone();
        body.remove(idx);
        ConjunctiveQuery::new(self.name, self.head.clone(), body).ok()
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::var(n)
    }
    fn c(n: &str) -> Term {
        Term::constant(n)
    }
    fn q(head: Vec<Term>, body: Vec<Atom>) -> Result<ConjunctiveQuery, ModelError> {
        ConjunctiveQuery::new(Symbol::intern("q"), head, body)
    }

    #[test]
    fn valid_query_constructs() {
        let query = q(
            vec![v("A"), v("B")],
            vec![Atom::typ(v("T"), v("A"), v("B"))],
        )
        .unwrap();
        assert_eq!(query.arity(), 2);
        assert_eq!(query.size(), 1);
    }

    #[test]
    fn empty_body_rejected() {
        assert_eq!(q(vec![], vec![]).unwrap_err(), ModelError::EmptyBody);
    }

    #[test]
    fn unsafe_head_rejected() {
        let err = q(vec![v("Z")], vec![Atom::member(v("X"), v("Y"))]).unwrap_err();
        assert_eq!(err, ModelError::UnsafeHeadVariable { var: v("Z") });
    }

    #[test]
    fn constants_allowed_in_head() {
        let query = q(vec![c("k")], vec![Atom::member(v("X"), v("Y"))]).unwrap();
        assert_eq!(query.head(), &[c("k")]);
    }

    #[test]
    fn nulls_rejected_everywhere() {
        use flogic_term::NullGen;
        let mut g = NullGen::new();
        let n = Term::Null(g.fresh());
        let err = q(vec![], vec![Atom::member(n, c("c"))]).unwrap_err();
        assert_eq!(err, ModelError::NullInQuery);
    }

    #[test]
    fn vars_collects_head_and_body() {
        let query = q(vec![v("A")], vec![Atom::data(v("O"), v("A"), v("V"))]).unwrap();
        let vars = query.vars();
        assert!(vars.contains(&v("A")) && vars.contains(&v("O")) && vars.contains(&v("V")));
        assert_eq!(vars.len(), 3);
    }

    #[test]
    fn display_is_rule_notation() {
        let query = q(
            vec![v("A")],
            vec![
                Atom::member(v("O"), v("C")),
                Atom::mandatory(v("A"), v("C")),
            ],
        )
        .unwrap();
        assert_eq!(query.to_string(), "q(A) :- member(O, C), mandatory(A, C).");
    }

    #[test]
    fn rename_apart_avoids_collisions() {
        let q1 = q(vec![v("A")], vec![Atom::member(v("A"), v("B"))]).unwrap();
        let q2 = q(vec![v("A")], vec![Atom::sub(v("A"), v("C"))]).unwrap();
        let q1r = q1.rename_apart(&q2);
        let (v1, v2) = (q1r.vars(), q2.vars());
        let shared: Vec<_> = v1.intersection(&v2).collect();
        assert!(shared.is_empty(), "renamed query shares {shared:?}");
        // Structure preserved: head var still occurs in body.
        assert_eq!(q1r.head()[0], q1r.body()[0].arg(0));
    }

    #[test]
    fn rename_apart_noop_when_disjoint() {
        let q1 = q(vec![v("A")], vec![Atom::member(v("A"), v("B"))]).unwrap();
        let q2 = q(vec![v("X")], vec![Atom::sub(v("X"), v("Y"))]).unwrap();
        assert_eq!(q1.rename_apart(&q2), q1);
    }

    #[test]
    fn without_atom_respects_safety() {
        let query = q(
            vec![v("A")],
            vec![Atom::member(v("A"), v("B")), Atom::sub(v("B"), v("C"))],
        )
        .unwrap();
        // Removing atom 0 would orphan head var A.
        assert!(query.without_atom(0).is_none());
        let smaller = query.without_atom(1).unwrap();
        assert_eq!(smaller.size(), 1);
        // Single-atom query cannot shrink further.
        assert!(smaller.without_atom(0).is_none());
    }

    #[test]
    fn apply_rewrites_head_and_body() {
        let query = q(vec![v("A")], vec![Atom::data(v("O"), v("A"), v("V"))]).unwrap();
        let s = Subst::singleton(v("A"), c("age"));
        let r = query.apply(&s);
        assert_eq!(r.head(), &[c("age")]);
        assert_eq!(r.body()[0], Atom::data(v("O"), c("age"), v("V")));
    }
}
