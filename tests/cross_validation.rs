//! Empirical cross-validation of the Theorem 12 decision procedure.
//!
//! The theory says `q1 ⊆_ΣFL q2` iff `q1(B) ⊆ q2(B)` for *every* database
//! `B` satisfying `Σ_FL`. We attack both directions of every verdict:
//!
//! * verdicts of **contained** are checked on many random `Σ_FL`-closed
//!   databases (a single counterexample database would disprove the
//!   implementation);
//! * verdicts of **not contained** are checked against a chase twice as
//!   deep as the Theorem 12 bound (if the bound were wrong, a homomorphism
//!   would appear beyond it) and against the naive iterative-deepening
//!   procedure.

use flogic_lite::gen::rng::SplitMix64;

use flogic_lite::chase::{chase_bounded, ChaseOptions, ChaseOutcome};
use flogic_lite::core::{contains, naive, theorem_bound};
use flogic_lite::datalog::{answers, close_database, ClosureOptions};
use flogic_lite::gen::{
    generalize, generalize_from_chase, random_database, random_query, DbGenConfig,
    GeneralizeConfig, QueryGenConfig,
};
use flogic_lite::hom::{all_homs, find_hom, Target};

fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed)
}

/// Checks `q1(B) ⊆ q2(B)` on a batch of random closed databases;
/// returns how many databases were usable (closed within budget).
fn holds_on_random_databases(
    q1: &flogic_lite::model::ConjunctiveQuery,
    q2: &flogic_lite::model::ConjunctiveQuery,
    seeds: std::ops::Range<u64>,
) -> (usize, bool) {
    let mut used = 0;
    for seed in seeds {
        let db = random_database(&DbGenConfig::default(), &mut rng(seed));
        let Ok((closed, _)) = close_database(&db, &ClosureOptions::default()) else {
            continue; // inconsistent or infinite closure: not an admissible B
        };
        used += 1;
        let a1 = answers(q1, &closed);
        let a2 = answers(q2, &closed);
        if !a1.is_subset(&a2) {
            return (used, false);
        }
    }
    (used, true)
}

#[test]
fn contained_generalizations_hold_on_concrete_databases() {
    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let mut checked_pairs = 0;
    for seed in 0..15u64 {
        let q1 = random_query(&qcfg, &mut rng(seed));
        let q2 = generalize(&q1, &gcfg, &mut rng(seed + 500));
        let verdict = contains(&q1, &q2).unwrap();
        assert!(
            verdict.holds(),
            "generalize guarantees containment (seed {seed})"
        );
        let (used, ok) = holds_on_random_databases(&q1, &q2, 0..10);
        assert!(ok, "counterexample database found for seed {seed}");
        if used > 0 {
            checked_pairs += 1;
        }
    }
    assert!(
        checked_pairs >= 10,
        "most pairs must actually get database checks"
    );
}

#[test]
fn chase_generalizations_hold_on_concrete_databases() {
    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig {
        keep_atom_prob: 0.5,
        blur_prob: 0.4,
    };
    for seed in 100..115u64 {
        let q1 = random_query(&qcfg, &mut rng(seed));
        let Some(q2) = generalize_from_chase(&q1, &gcfg, &mut rng(seed + 500)) else {
            continue;
        };
        let verdict = contains(&q1, &q2).unwrap();
        assert!(
            verdict.holds(),
            "Theorem 4 guarantees Sigma-containment for chase generalizations (seed {seed}): {q1} vs {q2}"
        );
        let (_, ok) = holds_on_random_databases(&q1, &q2, 0..8);
        assert!(ok, "counterexample database for seed {seed}");
    }
}

#[test]
fn not_contained_verdicts_survive_double_depth() {
    // For random (likely unrelated) pairs that the procedure rejects, going
    // to twice the theorem bound must not change the answer.
    let qcfg = QueryGenConfig {
        n_atoms: 3,
        n_vars: 3,
        n_consts: 2,
        ..Default::default()
    };
    let mut rejected = 0;
    for seed in 200..230u64 {
        let q1 = random_query(&qcfg, &mut rng(seed));
        let q2 = random_query(&qcfg, &mut rng(seed + 999));
        if q1.arity() != q2.arity() {
            continue;
        }
        let verdict = contains(&q1, &q2).unwrap();
        if verdict.holds() {
            continue;
        }
        rejected += 1;
        let deep_bound = 2 * theorem_bound(&q1, &q2) + 4;
        let chase = chase_bounded(
            &q1,
            &ChaseOptions {
                level_bound: deep_bound,
                max_conjuncts: 2_000_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            !matches!(chase.outcome(), ChaseOutcome::Failed { .. }),
            "verdict would have been vacuous"
        );
        let hom = find_hom(q2.body(), q2.head(), &chase, chase.head());
        assert!(
            hom.is_none(),
            "hom beyond the Theorem 12 bound for seed {seed}: {q1} vs {q2}"
        );
    }
    assert!(
        rejected >= 10,
        "workload must exercise the not-contained path"
    );
}

#[test]
fn naive_and_bounded_procedures_agree() {
    let qcfg = QueryGenConfig {
        n_atoms: 3,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let mut decided_by_naive = 0;
    for seed in 300..340u64 {
        let q1 = random_query(&qcfg, &mut rng(seed));
        // Mix: half generalizations (contained), half random (usually not).
        let q2 = if seed % 2 == 0 {
            generalize(&q1, &gcfg, &mut rng(seed + 1))
        } else {
            let alt = random_query(&qcfg, &mut rng(seed + 1));
            if alt.arity() != q1.arity() {
                continue;
            }
            alt
        };
        let bounded = contains(&q1, &q2).unwrap().holds();
        match naive::contains_naive(&q1, &q2, 16, 1_000_000).unwrap() {
            naive::NaiveOutcome::Holds { .. } => {
                decided_by_naive += 1;
                assert!(bounded, "naive says holds, bounded disagrees (seed {seed})");
            }
            naive::NaiveOutcome::NotContained { .. } => {
                decided_by_naive += 1;
                assert!(!bounded, "naive refutes, bounded disagrees (seed {seed})");
            }
            naive::NaiveOutcome::Unknown => {}
        }
    }
    assert!(
        decided_by_naive >= 20,
        "the workload must exercise both procedures"
    );
}

#[test]
fn vacuous_verdicts_match_database_emptiness() {
    // If the chase of q1 fails, q1 must return no answers over any closed
    // database we can construct.
    let q1 = flogic_lite::syntax::parse_query(
        "q() :- data(o0, a0, o1), data(o0, a0, o2), funct(a0, o0).",
    )
    .unwrap();
    let verdict = contains(
        &q1,
        &flogic_lite::syntax::parse_query("qq() :- sub(X, Y).").unwrap(),
    )
    .unwrap();
    assert!(verdict.holds() && verdict.is_vacuous());
    for seed in 0..10u64 {
        let db = random_database(&DbGenConfig::default(), &mut rng(seed));
        let Ok((closed, _)) = close_database(&db, &ClosureOptions::default()) else {
            continue;
        };
        assert!(
            answers(&q1, &closed).is_empty(),
            "vacuously-contained query produced answers on seed {seed}"
        );
    }
}

#[test]
fn search_on_the_chase_matches_a_target_copy_of_it() {
    // The decider searches the chase's own live-root index. A `Target`
    // built from the chase's live atoms is the independent oracle: its
    // index lists must name the same atoms in the same order, so both
    // searches make the same choices and return the same witnesses.
    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let (mut compared, mut witnessed) = (0, 0);
    for i in 0..60u64 {
        // E4's pair mix: body generalizations, chase generalizations and
        // unrelated queries.
        let q1 = random_query(&qcfg, &mut rng(i));
        let q2 = match i % 3 {
            0 => generalize(&q1, &gcfg, &mut rng(i + 10_000)),
            1 => match generalize_from_chase(&q1, &gcfg, &mut rng(i + 20_000)) {
                Some(q) => q,
                None => continue,
            },
            _ => random_query(&qcfg, &mut rng(i + 30_000)),
        };
        if q2.arity() != q1.arity() {
            continue;
        }
        let chase = chase_bounded(
            &q1,
            &ChaseOptions {
                level_bound: theorem_bound(&q1, &q2),
                max_conjuncts: 20_000,
                ..Default::default()
            },
        )
        .unwrap();
        if chase.is_failed() || chase.is_exhausted() {
            continue;
        }
        let copy = Target::new(chase.conjuncts().map(|(_, a, _)| *a).collect());
        let on_chase = find_hom(q2.body(), q2.head(), &chase, chase.head());
        let on_copy = find_hom(q2.body(), q2.head(), &copy, chase.head());
        assert_eq!(
            on_chase, on_copy,
            "witness differs for pair {i}: {q1} vs {q2}"
        );
        assert_eq!(
            all_homs(q2.body(), q2.head(), &chase, chase.head(), 32),
            all_homs(q2.body(), q2.head(), &copy, chase.head(), 32),
            "enumeration order differs for pair {i}"
        );
        compared += 1;
        witnessed += usize::from(on_chase.is_some());
    }
    assert!(compared >= 30, "only {compared} pairs compared");
    assert!(witnessed >= 10, "only {witnessed} pairs had a witness");
}
