//! Cross-validation of the static-analysis containment fast paths.
//!
//! `ContainmentOptions::analysis` promises a verdict that is bit-identical
//! with the toggle on or off; only the amount of chasing (which
//! `ContainmentResult::decided_by_analysis` reports) may differ. These tests replay the paper
//! pairs and seeded random workloads in the style of the E1–E9 harness in
//! both modes and compare every outcome, and additionally pin down
//! queries where each early decision must fire.

use flogic_lite::core::{contains_with, ContainmentOptions};
use flogic_lite::gen::rng::SplitMix64;
use flogic_lite::gen::{random_query, QueryGenConfig};
use flogic_lite::model::ConjunctiveQuery;
use flogic_lite::prelude::*;

fn opts(analysis: bool) -> ContainmentOptions {
    ContainmentOptions {
        analysis,
        ..ContainmentOptions::default()
    }
}

/// The observable verdict: `holds`/`vacuous` on success, the error text
/// otherwise. The two modes must agree on this exactly.
fn verdict(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    analysis: bool,
) -> Result<(bool, bool), String> {
    contains_with(q1, q2, &opts(analysis))
        .map(|r| (r.holds(), r.is_vacuous()))
        .map_err(|e| e.to_string())
}

fn assert_agreement(label: &str, q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) {
    let on = verdict(q1, q2, true);
    let off = verdict(q1, q2, false);
    assert_eq!(
        on, off,
        "{label}: analysis on/off disagree\n  q1: {q1}\n  q2: {q2}"
    );
}

#[test]
fn paper_pairs_agree_in_both_modes() {
    let q = |s: &str| parse_query(s).expect("paper query parses");
    let pairs = [
        (
            "joinable-attributes",
            q("q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_]."),
            q("qq(A,B) :- T1[A*=>T2], T2[B*=>_]."),
        ),
        (
            "mandatory-attribute",
            q("q(Att,Class,Type) :- Class[Att {1,*} *=> _], Class[Att*=>Type], _:Class."),
            q("qq(Att,Class,Type) :- Obj[Att->_], Obj:Class, Class[Att*=>Type]."),
        ),
    ];
    for (name, q1, q2) in &pairs {
        assert_agreement(name, q1, q2);
        assert_agreement(name, q2, q1);
    }
}

#[test]
fn random_workloads_agree_in_both_modes() {
    // Mirrors the generator settings of the E4/E6 harness experiments, plus
    // skewed predicate mixes that make dead q2 atoms (and hence the
    // early-false path) likely.
    let configs = [
        QueryGenConfig::default(),
        QueryGenConfig {
            n_atoms: 3,
            const_prob: 0.6,
            ..QueryGenConfig::default()
        },
        // q1 drawn from {member, sub} only: its closure misses data/type,
        // while the partner config still emits them.
        QueryGenConfig {
            n_atoms: 4,
            pred_weights: [1, 1, 0, 0, 0, 0],
            ..QueryGenConfig::default()
        },
        // data/funct heavy: exercises the chase-may-fail guard.
        QueryGenConfig {
            n_atoms: 4,
            const_prob: 0.8,
            pred_weights: [0, 0, 3, 1, 0, 2],
            ..QueryGenConfig::default()
        },
    ];
    let mut rng = SplitMix64::seed_from_u64(0xF10C);
    let mut checked = 0;
    for cfg1 in &configs {
        for cfg2 in &configs {
            for _ in 0..4 {
                let q1 = random_query(cfg1, &mut rng);
                let q2 = random_query(cfg2, &mut rng);
                if q1.arity() != q2.arity() {
                    // Arity mismatches error identically in both modes; the
                    // interesting comparisons are real decisions.
                    continue;
                }
                assert_agreement("random", &q1, &q2);
                checked += 1;
            }
        }
    }
    assert!(checked >= 20, "only {checked} random pairs compared");
}

#[test]
fn early_false_fires_and_agrees() {
    // q1's predicate closure under Σ_FL is {sub}; q2 needs data, which is
    // not derivable, and q1 cannot make the chase fail (no data/funct).
    let q1 = parse_query("q(X) :- sub(X, Y), sub(Y, Z).").unwrap();
    let q2 = parse_query("p(X) :- data(X, a, V).").unwrap();
    let on = contains_with(&q1, &q2, &opts(true)).unwrap();
    assert!(!on.holds());
    assert!(on.decided_by_analysis(), "early-false path should fire");
    assert_eq!(on.chase_conjuncts(), 0, "no chase was materialized");
    assert_agreement("early-false", &q1, &q2);
}

#[test]
fn early_true_fires_and_agrees() {
    // A visible ρ4 violation: one functional attribute, two distinct
    // constant values. The chase fails at level 0, so containment is
    // vacuously true — analysis answers without materializing anything.
    let q1 = parse_query("q() :- data(o, a, 1), data(o, a, 2), funct(a, o).").unwrap();
    let q2 = parse_query("p() :- sub(X, Y).").unwrap();
    let on = contains_with(&q1, &q2, &opts(true)).unwrap();
    assert!(on.holds() && on.is_vacuous());
    assert!(on.decided_by_analysis(), "early-true path should fire");
    assert_eq!(on.chase_conjuncts(), 0, "no chase was materialized");
    assert_agreement("early-true", &q1, &q2);
}

#[test]
fn guarded_case_chases_and_agrees() {
    // The functionality of `a` only reaches `o` through a sub-step, which
    // `direct_unsat` does not look for; and because data+funct are present
    // with two distinct constants, the chase-may-fail guard must also
    // suppress the early-false answer for the dead `type` atom in q2.
    let q1 =
        parse_query("q() :- data(o, a, 1), data(o, a, 2), member(o, c), sub(c, d), funct(a, d).")
            .unwrap();
    let q2 = parse_query("p() :- type(X, Y, Z).").unwrap();
    let on = contains_with(&q1, &q2, &opts(true)).unwrap();
    assert!(!on.decided_by_analysis(), "guard must force a real chase");
    assert_agreement("guarded", &q1, &q2);
}
