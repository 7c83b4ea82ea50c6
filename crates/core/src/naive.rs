//! A naive iterative-deepening baseline that does not know the Theorem 12
//! bound.
//!
//! Before the paper's result, the obvious semi-decision procedure for
//! `q1 ⊆_ΣFL q2` was: chase `q1` deeper and deeper, checking for the
//! Theorem 4 homomorphism after every extension. It terminates with
//! *holds* as soon as a homomorphism appears, and with *does not hold*
//! only if the chase happens to be finite; on an infinite chase with no
//! homomorphism it runs forever (here: until `max_level`). The benchmark
//! suite compares this baseline against the bounded procedure.

use flogic_chase::{chase_bounded, ChaseOptions, ChaseOutcome};
use flogic_hom::find_hom;
use flogic_model::ConjunctiveQuery;

use crate::CoreError;

/// Outcome of the naive procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NaiveOutcome {
    /// A homomorphism was found once the chase reached this level.
    Holds {
        /// The chase level at which the witness first appeared.
        level: u32,
    },
    /// The chase completed (it was finite) at this level and no
    /// homomorphism exists: containment refuted.
    NotContained {
        /// The level at which the chase reached its fixpoint.
        level: u32,
    },
    /// `max_level` was reached without either outcome; the naive procedure
    /// cannot decide (this is precisely what Theorem 12 fixes).
    Unknown,
}

/// Runs the iterative-deepening baseline up to `max_level`.
pub fn contains_naive(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    max_level: u32,
    max_conjuncts: usize,
) -> Result<NaiveOutcome, CoreError> {
    if q1.arity() != q2.arity() {
        return Err(CoreError::ArityMismatch {
            q1: q1.arity(),
            q2: q2.arity(),
        });
    }
    for level in 0..=max_level {
        let chase = chase_bounded(
            q1,
            &ChaseOptions {
                level_bound: level,
                max_conjuncts,
                ..Default::default()
            },
        )?;
        match chase.outcome() {
            ChaseOutcome::Failed { .. } => return Ok(NaiveOutcome::Holds { level }),
            ChaseOutcome::Exhausted { reason } => {
                return Err(CoreError::Exhausted {
                    reason,
                    conjuncts: chase.len(),
                    levels: chase.max_level(),
                })
            }
            ChaseOutcome::Completed | ChaseOutcome::LevelBounded => {}
        }
        if find_hom(q2.body(), q2.head(), &chase, chase.head()).is_some() {
            return Ok(NaiveOutcome::Holds { level });
        }
        if chase.outcome() == ChaseOutcome::Completed {
            // Finite chase fully materialized and no hom: definitive no.
            return Ok(NaiveOutcome::NotContained { level });
        }
    }
    Ok(NaiveOutcome::Unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contains;
    use flogic_syntax::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn finds_shallow_witness_early() {
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("qq(X, Z) :- sub(X, Z).");
        assert_eq!(
            contains_naive(&q1, &q2, 10, 100_000).unwrap(),
            NaiveOutcome::Holds { level: 0 },
            "rho2 fires in chase-minus, i.e. level 0"
        );
    }

    #[test]
    fn refutes_on_finite_chase() {
        let q1 = q("q(X) :- member(X, c).");
        let q2 = q("qq(X) :- sub(X, c).");
        assert!(matches!(
            contains_naive(&q1, &q2, 10, 100_000).unwrap(),
            NaiveOutcome::NotContained { .. }
        ));
    }

    #[test]
    fn witness_at_positive_level() {
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        let r = contains_naive(&q1, &q2, 10, 100_000).unwrap();
        assert!(matches!(r, NaiveOutcome::Holds { level } if (1..=2).contains(&level)));
    }

    #[test]
    fn unknown_on_infinite_chase_without_witness() {
        // Infinite chase, and q2 needs a data edge between two *distinct
        // constants* — never produced by rho5 (values are fresh nulls).
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(c1, c2, c3).");
        assert_eq!(
            contains_naive(&q1, &q2, 6, 100_000).unwrap(),
            NaiveOutcome::Unknown
        );
        // The bounded procedure *decides* (not contained) instead.
        assert!(!contains(&q1, &q2).unwrap().holds());
    }

    #[test]
    fn agrees_with_bounded_procedure() {
        let pairs = [
            ("q(X) :- member(X, c), sub(c, d).", "qq(X) :- member(X, d)."),
            ("q(X) :- member(X, c).", "qq(X) :- member(X, d)."),
            (
                "q(A) :- type(T, A, U), sub(U, W).",
                "qq(A) :- type(T, A, W).",
            ),
        ];
        for (s1, s2) in pairs {
            let q1 = q(s1);
            let q2 = q(s2);
            let bounded = contains(&q1, &q2).unwrap().holds();
            let naive = contains_naive(&q1, &q2, 20, 100_000).unwrap();
            match naive {
                NaiveOutcome::Holds { .. } => assert!(bounded, "{s1} vs {s2}"),
                NaiveOutcome::NotContained { .. } => assert!(!bounded, "{s1} vs {s2}"),
                NaiveOutcome::Unknown => {}
            }
        }
    }
}
