//! Containment involving unions of conjunctive queries — one of the
//! "more expressive query languages" extensions the paper's conclusion
//! proposes.
//!
//! For a union `Q = q_1 ∪ … ∪ q_n` of conjunctive queries of equal arity:
//!
//! * `q ⊆_ΣFL Q` iff **some** disjunct `q_i` has a homomorphism into
//!   `chase_ΣFL(q)` mapping `head(q_i)` onto the chase head. This is the
//!   classical Sagiv–Yannakakis criterion lifted to the constrained
//!   setting: the chase of `q` is a universal model of `q`'s canonical
//!   database under `Σ_FL` (the Theorem 4 argument), so `q`'s canonical
//!   answer is in `Q`'s answer iff one disjunct maps.
//! * `Q ⊆_ΣFL q` iff **every** disjunct is contained in `q` (union is the
//!   least upper bound).

use flogic_model::ConjunctiveQuery;

use crate::{contains_with, ChaseSnapshot, ContainmentOptions, CoreError};

/// Decides `q ⊆_ΣFL (q2s[0] ∪ q2s[1] ∪ …)`.
///
/// Returns the index of the witnessing disjunct (`Some(0)` by convention
/// when the containment is vacuous because `chase(q)` failed), or `None`
/// if the containment does not hold. For an *empty* union `None` is always
/// returned: `q ⊆ ∅` holds only when `q` is unsatisfiable, which callers
/// can observe with [`crate::contains`]'s vacuity flag.
///
/// One [`ChaseSnapshot`] serves every disjunct, each decided as
/// [`contains_with`] decides it. An undecided disjunct before the first
/// that holds is [`CoreError::Exhausted`]: "no disjunct contains `q`"
/// cannot be certified from a prefix.
pub fn contained_in_union(
    q: &ConjunctiveQuery,
    q2s: &[ConjunctiveQuery],
    opts: &ContainmentOptions,
) -> Result<Option<usize>, CoreError> {
    for q2 in q2s {
        if q.arity() != q2.arity() {
            return Err(CoreError::ArityMismatch {
                q1: q.arity(),
                q2: q2.arity(),
            });
        }
    }
    let snapshot = ChaseSnapshot::for_candidates(q, q2s, opts)?;
    for (i, q2) in q2s.iter().enumerate() {
        if snapshot.contains(q2, opts)?.require_decided()?.holds() {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

/// Decides `(q1s[0] ∪ q1s[1] ∪ …) ⊆_ΣFL q2`: every disjunct must be
/// contained. An empty union is trivially contained.
pub fn union_contained_in(
    q1s: &[ConjunctiveQuery],
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Result<bool, CoreError> {
    for q1 in q1s {
        // An exhausted per-disjunct check must not silently read as "not
        // contained": propagate it as an error instead.
        if !contains_with(q1, q2, opts)?.require_decided()?.holds() {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_syntax::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }
    fn opts() -> ContainmentOptions {
        ContainmentOptions::default()
    }

    #[test]
    fn contained_in_some_disjunct() {
        let q1 = q("q(X) :- member(X, c), sub(c, d).");
        let union = [q("a(X) :- funct(X, Y)."), q("b(X) :- member(X, d).")];
        // member(X, d) holds by rho3: disjunct index 1.
        assert_eq!(contained_in_union(&q1, &union, &opts()).unwrap(), Some(1));
    }

    #[test]
    fn not_contained_in_any() {
        let q1 = q("q(X) :- member(X, c).");
        let union = [q("a(X) :- sub(X, c)."), q("b(X) :- data(X, a, V).")];
        assert_eq!(contained_in_union(&q1, &union, &opts()).unwrap(), None);
    }

    #[test]
    fn empty_union_contains_nothing() {
        let q1 = q("q(X) :- member(X, c).");
        assert_eq!(contained_in_union(&q1, &[], &opts()).unwrap(), None);
    }

    #[test]
    fn union_contained_needs_all_disjuncts() {
        let q2 = q("p(X) :- member(X, C).");
        let ok = [
            q("a(X) :- member(X, c)."),
            q("b(X) :- member(X, d), sub(d, e)."),
        ];
        assert!(union_contained_in(&ok, &q2, &opts()).unwrap());
        let bad = [q("a(X) :- member(X, c)."), q("b(X) :- sub(X, Y).")];
        assert!(!union_contained_in(&bad, &q2, &opts()).unwrap());
    }

    #[test]
    fn empty_union_is_contained_everywhere() {
        let q2 = q("p(X) :- member(X, C).");
        assert!(union_contained_in(&[], &q2, &opts()).unwrap());
    }

    #[test]
    fn union_mixed_arities_rejected() {
        let q1 = q("q(X) :- member(X, c).");
        let union = [q("a(X, Y) :- member(X, Y).")];
        assert!(contained_in_union(&q1, &union, &opts()).is_err());
    }

    #[test]
    fn vacuous_union_containment() {
        // q is unsatisfiable: contained in any non-empty union (index 0 by
        // convention), but an empty union still reports None.
        let q1 = q("q() :- data(o, a, 1), data(o, a, 2), funct(a, o).");
        let union = [q("a() :- sub(X, Y).")];
        assert_eq!(contained_in_union(&q1, &union, &opts()).unwrap(), Some(0));
        assert_eq!(contained_in_union(&q1, &[], &opts()).unwrap(), None);
    }

    #[test]
    fn disjunct_requiring_sigma_reasoning() {
        // Neither disjunct maps classically; the second needs rho5+rho10.
        let q1 = q("q(O) :- member(O, c), mandatory(a, c).");
        let union = [q("x(O) :- sub(O, O)."), q("y(O) :- data(O, a, V).")];
        assert_eq!(contained_in_union(&q1, &union, &opts()).unwrap(), Some(1));
    }
}
