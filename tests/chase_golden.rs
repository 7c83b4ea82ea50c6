//! The chase's output, pinned across builds.
//!
//! `tests/parallel_determinism.rs` compares thread counts within one
//! build; this suite compares a build against a recorded digest. It
//! chases seeded random queries — some with an injected mandatory cycle,
//! whose chase is infinite — under the built-in `Σ_FL`, under each
//! admitted `examples/sigma` set and under a reordered copy of `Σ_FL`
//! that takes the generic rule-set path, at one and two discovery
//! threads. It digests every chase: each live conjunct with its level,
//! rule and parents, the arcs, the head, the outcome, the run counters,
//! the level growth and the byte estimate. It also digests each pair's
//! containment verdict, witness and homomorphism-search counters. Any
//! change to which rule instances fire, or in which order, changes the
//! digest. Labelled nulls are renamed by first appearance, because the
//! null counter is process-global.
//!
//! The default size runs in a few seconds unoptimized; `--features fuzz`
//! runs a ten times larger workload against its own recorded digest.

use std::collections::HashMap;
use std::sync::Arc;

use flogic_lite::analysis::admit_sigma;
use flogic_lite::chase::{chase_bounded, chase_minus_with, Chase, ChaseOptions};
use flogic_lite::core::{contains_with, ContainmentOptions};
use flogic_lite::gen::rng::{Rng, SplitMix64};
use flogic_lite::gen::{generalize, random_query, GeneralizeConfig, QueryGenConfig};
use flogic_lite::model::RuleSet;
use flogic_lite::prelude::*;
use flogic_lite::term::Term;

/// Seeded queries per rule set and thread count.
const QUERIES: u64 = if cfg!(feature = "fuzz") { 400 } else { 40 };

/// The digest recorded for [`QUERIES`] queries.
const DIGEST: u64 = if cfg!(feature = "fuzz") {
    0xff6f_1a21_1d83_bb55
} else {
    0x9dfc_f8c5_7694_163d
};

/// FNV-1a, 64-bit: a digest that stays the same across Rust releases,
/// unlike `DefaultHasher`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders terms with labelled nulls renamed by first appearance: the
/// null counter is process-global, so raw null names differ from run to
/// run.
#[derive(Default)]
struct Nulls(HashMap<Term, usize>);

impl Nulls {
    fn show(&mut self, t: Term) -> String {
        if let Term::Null(_) = t {
            let next = self.0.len();
            format!("#null{}", self.0.entry(t).or_insert(next))
        } else {
            t.to_string()
        }
    }

    fn atom(&mut self, atom: &Atom) -> String {
        let args: Vec<String> = atom.args().iter().map(|&t| self.show(t)).collect();
        format!("{:?}({})", atom.pred(), args.join(", "))
    }
}

/// Everything a chase records, one line per fact.
fn fingerprint(chase: &Chase) -> Vec<String> {
    let mut nulls = Nulls::default();
    let mut out = Vec::new();
    for (id, atom, level) in chase.conjuncts() {
        let parents: Vec<usize> = chase.parents_of(id).iter().map(|p| p.index()).collect();
        out.push(format!(
            "conjunct {}: {} @{level} by {:?} from {parents:?}",
            id.index(),
            nulls.atom(atom),
            chase.rule_of(id),
        ));
    }
    for arc in chase.arcs() {
        out.push(format!(
            "arc {} -> {} [{:?}{}]",
            arc.from.index(),
            arc.to.index(),
            arc.rule,
            if arc.cross { ", cross" } else { "" }
        ));
    }
    let head: Vec<String> = chase.head().iter().map(|&t| nulls.show(t)).collect();
    out.push(format!("head ({})", head.join(", ")));
    out.push(format!("outcome {:?}", chase.outcome()));
    out.push(format!("stats {:?}", chase.stats()));
    out.push(format!("levels {:?}", chase.level_growth()));
    out.push(format!("bytes {}", chase.approx_bytes()));
    out
}

fn admitted(src: &str, name: &str) -> Arc<RuleSet> {
    let admission = admit_sigma(src, name).expect("rule set parses");
    assert!(admission.is_admitted(), "{name} is admitted");
    admission.rule_set().clone()
}

fn example_sigma(name: &str) -> Arc<RuleSet> {
    let path = format!("{}/examples/sigma/{name}", env!("CARGO_MANIFEST_DIR"));
    admitted(
        &std::fs::read_to_string(&path).expect("example .sigma file exists"),
        name,
    )
}

/// `Σ_FL` with ρ4 declared first: admitted, but not structurally the
/// built-in set, so its chase runs the generic EGD fixpoint and the
/// generic existential step.
const REORDERED: &str = "
    V = W :- data(O, A, V), data(O, A, W), funct(A, O).
    member(V, T) :- type(O, A, T), data(O, A, V).
    sub(C1, C2) :- sub(C1, C3), sub(C3, C2).
    member(O, C1) :- member(O, C), sub(C, C1).
    data(O, A, V) :- mandatory(A, O).
    type(O, A, T) :- member(O, C), type(C, A, T).
    type(C, A, T) :- sub(C, C1), type(C1, A, T).
    type(C, A, T) :- type(C, A, T1), sub(T1, T).
    mandatory(A, C) :- sub(C, C1), mandatory(A, C1).
    mandatory(A, O) :- member(O, C), mandatory(A, C).
    funct(A, C) :- sub(C, C1), funct(A, C1).
    funct(A, O) :- member(O, C), funct(A, C).
";

/// The `i`-th query and its containment partner. Every fourth query has
/// a mandatory cycle, every third leans on `data`, `mandatory` and
/// `funct`, every fifth carries Example 1's merge, and `q2` alternates between a generalization
/// of `q1` (so containment holds) and an unrelated query.
fn pair(i: u64) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let mut rng = SplitMix64::seed_from_u64(0xC4A5_E000 ^ i);
    let cfg = QueryGenConfig {
        n_atoms: 4 + (i % 4) as usize,
        n_vars: 4,
        n_consts: 2,
        cycle: (i % 4 == 3).then_some(1 + (i % 3) as usize),
        pred_weights: if i % 3 == 2 {
            [1, 1, 3, 1, 2, 3]
        } else {
            QueryGenConfig::default().pred_weights
        },
        ..QueryGenConfig::default()
    };
    let mut q1 = random_query(&cfg, &mut rng);
    if i % 5 == 1 {
        // Example 1's shape over pool variables: ρ12 inherits `funct` to
        // the member, and ρ4 then equates the two values.
        let [o, a, v, w, c] = [0; 5].map(|_| Term::var(&format!("V{}", rng.random_range(0..5))));
        let mut body = q1.body().to_vec();
        body.extend([
            Atom::data(o, a, v),
            Atom::data(o, a, w),
            Atom::funct(a, c),
            Atom::member(o, c),
        ]);
        q1 = ConjunctiveQuery::new(q1.name(), q1.head().to_vec(), body)
            .expect("extra atoms keep the query safe");
    }
    let q2 = if i % 2 == 0 {
        generalize(&q1, &GeneralizeConfig::default(), &mut rng)
    } else {
        random_query(&QueryGenConfig::default(), &mut rng)
    };
    (q1, q2)
}

#[test]
fn chase_output_matches_the_recorded_digest() {
    let sigmas = [
        RuleSet::sigma_fl().clone(),
        example_sigma("guarded.sigma"),
        example_sigma("transitive.sigma"),
        example_sigma("sigma_fl.sigma"),
        admitted(REORDERED, "reordered"),
    ];
    let pairs: Vec<_> = (0..QUERIES).map(pair).collect();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut chases = 0usize;
    for sigma in &sigmas {
        for threads in [1, 2] {
            for (q1, q2) in &pairs {
                let opts = ChaseOptions {
                    level_bound: 4,
                    max_conjuncts: 2_000,
                    threads,
                    sigma: sigma.clone(),
                    ..ChaseOptions::default()
                };
                let minus = chase_minus_with(q1, &opts).unwrap();
                let bounded = chase_bounded(q1, &opts).unwrap();
                for chase in [minus, bounded] {
                    for line in fingerprint(&chase) {
                        digest = fnv1a(digest, line.as_bytes());
                        digest = fnv1a(digest, b"\n");
                    }
                    chases += 1;
                }
                let decision = contains_with(
                    q1,
                    q2,
                    &ContainmentOptions {
                        max_conjuncts: 400,
                        threads,
                        sigma: sigma.clone(),
                        ..ContainmentOptions::default()
                    },
                )
                .unwrap();
                let mut nulls = Nulls::default();
                let mut witness: Vec<(Term, Term)> = decision
                    .witness()
                    .map(|w| w.iter().collect())
                    .unwrap_or_default();
                witness.sort_by_key(|&(var, _)| var);
                let witness: Vec<String> = witness
                    .into_iter()
                    .map(|(var, image)| format!("{var} -> {}", nulls.show(image)))
                    .collect();
                let line = format!(
                    "decision {:?} vacuous {} witness {witness:?} hom {:?} conjuncts {} level {}",
                    decision.verdict(),
                    decision.is_vacuous(),
                    decision.hom_stats(),
                    decision.chase_conjuncts(),
                    decision.max_chase_level(),
                );
                digest = fnv1a(digest, line.as_bytes());
                digest = fnv1a(digest, b"\n");
            }
        }
    }
    assert_eq!(chases as u64, 20 * QUERIES);
    assert_eq!(digest, DIGEST, "chase output digest: {digest:#018x}");
}
