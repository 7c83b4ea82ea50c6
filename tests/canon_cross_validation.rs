//! Cross-validation of semantic (canonicalized) cache keys against the
//! raw path, plus property tests of the canonical form itself.
//!
//! The central contract mirrors `tests/sigma_cross_validation.rs`: with
//! canonicalization on (the default) and off (`--no-canon` /
//! `ContainmentOptions::canon = false`), every containment question gets
//! the *same verdict* — the canonical form only changes which cache
//! entries are shared, never what is answered. And the key itself must
//! be a true semantic invariant: stable under variable renaming, body
//! permutation and redundant-atom insertion, and never identifying two
//! queries that are not classically equivalent.

use flogic_lite::core::{
    canonical_query, classic_contains, contains_with, ContainmentOptions, DecisionCache,
    KeyBuilder, QueryKey,
};
use flogic_lite::gen::rng::SplitMix64;
use flogic_lite::gen::{
    add_redundant_atoms, generalize, generalize_from_chase, mutate_variant, permute_body,
    random_query, rename_vars, GeneralizeConfig, QueryGenConfig,
};
use flogic_lite::prelude::*;
use flogic_lite::syntax::query_to_flogic;

fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed)
}

fn q(s: &str) -> ConjunctiveQuery {
    parse_query(s).unwrap()
}

fn workload_cfg() -> QueryGenConfig {
    QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    }
}

fn canon_off() -> ContainmentOptions {
    ContainmentOptions {
        canon: false,
        ..Default::default()
    }
}

#[test]
fn fixed_pairs_verdicts_identical_canon_on_and_off() {
    let pairs = [
        // Positive, needs Σ_FL reasoning (rho2 transitivity).
        ("q(X, Z) :- sub(X, Y), sub(Y, Z).", "p(X, Z) :- sub(X, Z)."),
        // Positive with value invention (rho5 + rho1).
        (
            "q(O) :- member(O, c), mandatory(a, c), type(c, a, t).",
            "p(O) :- data(O, a, V), member(V, T).",
        ),
        // Negative.
        ("q(X) :- member(X, c).", "p(X) :- sub(X, c)."),
        // Vacuous: rho4 equates two distinct constants.
        (
            "q() :- data(o, a, 1), data(o, a, 2), funct(a, o).",
            "p() :- sub(X, Y).",
        ),
        // Redundant atoms on the left: the core is the transitivity pair.
        (
            "q(X, Z) :- sub(X, Y), sub(Y, Z), sub(X, W), sub(W, Z).",
            "p(X, Z) :- sub(X, Z).",
        ),
    ];
    let on_opts = ContainmentOptions::default();
    let off_opts = canon_off();
    assert!(on_opts.canon, "canonicalization is on by default");
    for (s1, s2) in pairs {
        // Fresh caches per pair: a cold ask computes fresh on the
        // original queries in both modes, so the *entire result* must be
        // identical.
        let on_cache = DecisionCache::new();
        let off_cache = DecisionCache::new();
        let (q1, q2) = (q(s1), q(s2));
        let on = on_cache.contains_with(&q1, &q2, &on_opts).unwrap();
        let off = off_cache.contains_with(&q1, &q2, &off_opts).unwrap();
        assert_eq!(on.verdict(), off.verdict(), "{s1} vs {s2}");
        assert_eq!(on.holds(), off.holds());
        assert_eq!(on.is_vacuous(), off.is_vacuous());
        assert_eq!(on.witness(), off.witness());
        assert_eq!(on.level_bound(), off.level_bound());
        assert_eq!(on.chase_conjuncts(), off.chase_conjuncts());
        assert_eq!(on.max_chase_level(), off.max_chase_level());
        assert_eq!(on.decided_by_analysis(), off.decided_by_analysis());
        // Replays — renamed-apart variants — must keep the verdict.
        let q1v = q1.rename_apart(&q2);
        let on2 = on_cache.contains_with(&q1v, &q2, &on_opts).unwrap();
        let off2 = off_cache.contains_with(&q1v, &q2, &off_opts).unwrap();
        assert_eq!(on2.verdict(), on.verdict());
        assert_eq!(off2.verdict(), off.verdict());
    }
    // A shared canon-on cache unifies the transitivity pair with its
    // redundant-atom variant (same cores): one entry, second ask is a
    // replay with the same verdict.
    let shared = DecisionCache::new();
    let first = shared
        .contains_with(&q(pairs[0].0), &q(pairs[0].1), &on_opts)
        .unwrap();
    assert_eq!(shared.len(), 1);
    let variant = shared
        .contains_with(&q(pairs[4].0), &q(pairs[4].1), &on_opts)
        .unwrap();
    assert_eq!(variant.verdict(), first.verdict());
    assert_eq!(shared.len(), 1, "redundant-atom variant shares the entry");
}

#[test]
fn generated_variant_workload_verdicts_identical_canon_on_and_off() {
    let cfg = workload_cfg();
    let gcfg = GeneralizeConfig::default();
    let on_cache = DecisionCache::new();
    let off_cache = DecisionCache::new();
    let on_opts = ContainmentOptions::default();
    let off_opts = canon_off();
    let mut decided = 0;
    for seed in 0..120u64 {
        let q1 = random_query(&cfg, &mut rng(seed));
        let q2 = generalize(&q1, &gcfg, &mut rng(seed + 10_000));
        // The base pair plus a mutated variant of each side: the traffic
        // shape where canon-on takes the hit path and canon-off
        // recomputes — the verdicts must agree everywhere.
        let variants = [
            (q1.clone(), q2.clone()),
            (mutate_variant(&q1, &mut rng(seed + 20_000)), q2.clone()),
            (
                mutate_variant(&q1, &mut rng(seed + 30_000)),
                mutate_variant(&q2, &mut rng(seed + 40_000)),
            ),
        ];
        for (a, b) in &variants {
            let on = on_cache.contains_with(a, b, &on_opts).unwrap();
            let off = off_cache.contains_with(a, b, &off_opts).unwrap();
            assert_eq!(
                on.verdict(),
                off.verdict(),
                "seed {seed}: canon-on and canon-off disagree on {a} vs {b}"
            );
            assert_eq!(on.holds(), off.holds(), "seed {seed}");
            assert_eq!(on.is_vacuous(), off.is_vacuous(), "seed {seed}");
            if !on.is_exhausted() {
                decided += 1;
            }
        }
    }
    assert!(decided > 300, "only {decided} decided runs in the sweep");
    // The semantic table must be unifying variants: strictly fewer
    // entries than the structural one.
    assert!(
        on_cache.len() < off_cache.len(),
        "canon-on entries ({}) should undercut canon-off ({})",
        on_cache.len(),
        off_cache.len()
    );
}

#[test]
fn query_key_is_invariant_under_the_three_mutators() {
    let cfg = workload_cfg();
    for seed in 0..200u64 {
        let q = random_query(&cfg, &mut rng(seed));
        let key = QueryKey::of(&q);
        let renamed = rename_vars(&q, &mut rng(seed + 1));
        assert_eq!(key, QueryKey::of(&renamed), "seed {seed}: renaming");
        assert_eq!(
            QueryKey::structural(&q),
            QueryKey::structural(&renamed),
            "seed {seed}: renaming must not disturb even the structural key"
        );
        let permuted = permute_body(&q, &mut rng(seed + 2));
        assert_eq!(key, QueryKey::of(&permuted), "seed {seed}: permutation");
        assert_eq!(
            QueryKey::structural(&q),
            QueryKey::structural(&permuted),
            "seed {seed}: permutation must not disturb even the structural key"
        );
        let padded = add_redundant_atoms(&q, 2, &mut rng(seed + 3));
        assert_eq!(key, QueryKey::of(&padded), "seed {seed}: redundant atoms");
        let composite = mutate_variant(&q, &mut rng(seed + 4));
        assert_eq!(key, QueryKey::of(&composite), "seed {seed}: composite");
        // The canonical representative itself is a fixed point: every
        // variant maps to the same query, and its key is the class key.
        assert_eq!(
            canonical_query(&q),
            canonical_query(&composite),
            "seed {seed}"
        );
        assert_eq!(QueryKey::of(&canonical_query(&q)), key, "seed {seed}");
        // What lets `q1`'s key half double as the snapshot key.
        assert_eq!(
            QueryKey::structural(&canonical_query(&q)),
            key,
            "seed {seed}"
        );
    }
}

#[test]
fn distinct_cores_never_collide_on_a_thousand_pairs() {
    let cfg = workload_cfg();
    let mut collisions = 0;
    let mut engineered = 0;
    for seed in 0..1_000u64 {
        let a = random_query(&cfg, &mut rng(seed));
        // Every fourth pair is engineered to share a core (a mutated
        // variant); the rest are independent draws. This keeps the
        // soundness check non-vacuous: equal keys *do* occur, and every
        // occurrence must be backed by classical equivalence.
        let b = if seed % 4 == 0 {
            engineered += 1;
            mutate_variant(&a, &mut rng(seed + 700_000))
        } else {
            random_query(&cfg, &mut rng(seed + 500_000))
        };
        if QueryKey::of(&a) == QueryKey::of(&b) {
            collisions += 1;
            if a.arity() == b.arity() {
                assert!(
                    classic_contains(&a, &b).unwrap() && classic_contains(&b, &a).unwrap(),
                    "seed {seed}: equal keys without classical equivalence: {a} vs {b}"
                );
            } else {
                panic!("seed {seed}: equal keys across arities: {a} vs {b}");
            }
        } else if seed % 4 == 0 {
            panic!("seed {seed}: a mutated variant missed its own key: {a} vs {b}");
        }
    }
    assert!(
        collisions >= engineered,
        "every engineered pair must collide ({collisions} < {engineered})"
    );
}

#[test]
fn exhausted_and_truncated_runs_agree_across_canon_modes() {
    // A truncating level bound forces the structural key path even with
    // canon on; the verdicts must still agree with canon off.
    let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
    let q2 = q("qq() :- data(T, A, V), member(V, T).");
    for bound in [0u32, 1, 2] {
        let on = contains_with(
            &q1,
            &q2,
            &ContainmentOptions {
                level_bound: Some(bound),
                ..Default::default()
            },
        )
        .unwrap();
        let off = contains_with(
            &q1,
            &q2,
            &ContainmentOptions {
                level_bound: Some(bound),
                canon: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(on.verdict(), off.verdict(), "bound {bound}");
        assert_eq!(on.holds(), off.holds(), "bound {bound}");
    }
}

/// Pair `i` of one of `perfbench`'s seeded streams (its `workload.rs`): a
/// random 4-atom `q1` and, by turns, a `q2` generalized from its body,
/// generalized from its chase, or drawn independently.
fn perf_pair(seed: u64, stream: u64, i: u64) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let mut rng = perf_rng(seed, stream, i);
    let blur = GeneralizeConfig::default();
    let q1 = random_query(&workload_cfg(), &mut rng);
    let q2 = match i % 3 {
        0 => generalize(&q1, &blur, &mut rng),
        1 => match generalize_from_chase(&q1, &blur, &mut rng) {
            Some(q2) => q2,
            None => generalize(&q1, &blur, &mut rng),
        },
        _ => random_query(&workload_cfg(), &mut rng),
    };
    (q1, q2)
}

fn perf_rng(seed: u64, stream: u64, i: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ i,
    )
}

/// FNV-1a, 64-bit: a digest that stays the same across Rust releases,
/// unlike `DefaultHasher`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Every byte `flqd`'s canon stage produces for `perfbench`'s seed-1
/// traffic — each pair's decision key and both canonical representatives
/// as text — digested against the value recorded before canonicalization
/// was last reworked. Any change to a key byte, a representative or the
/// order of its atoms changes the digest.
#[test]
fn canon_output_matches_the_recorded_digest() {
    let text = |q1: &ConjunctiveQuery, q2: &ConjunctiveQuery| {
        (
            parse_query(&query_to_flogic(q1)).unwrap(),
            parse_query(&query_to_flogic(q2)).unwrap(),
        )
    };
    // The 256 corpus pairs, 2 000 respellings of them, 2 000 cold pairs
    // (each `q1` narrowed by a request-unique constant).
    let corpus: Vec<_> = (0..256).map(|i| perf_pair(1, 1, i)).collect();
    let mut pairs: Vec<_> = corpus.iter().map(|(a, b)| text(a, b)).collect();
    for r in 0..2_000u64 {
        let (q1, q2) = &corpus[(r % 256) as usize];
        let mut rng = perf_rng(1, 4, r);
        let v1 = mutate_variant(q1, &mut rng);
        let v2 = mutate_variant(q2, &mut rng);
        pairs.push(text(&v1, &v2));
    }
    for r in 0..2_000u64 {
        let (q1, q2) = perf_pair(1, 3, r);
        let narrowed = format!(
            "{}, {} : u1x{r}.",
            query_to_flogic(&q1).trim_end_matches('.'),
            q1.head()[0]
        );
        pairs.push((q(&narrowed), parse_query(&query_to_flogic(&q2)).unwrap()));
    }
    let opts = ContainmentOptions::default();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (q1, q2) in &pairs {
        let (key, reps) = KeyBuilder::new(q1, &opts)
            .with_representatives()
            .key(q2)
            .unwrap();
        digest = fnv1a(digest, key.bytes());
        let (c1, c2) = reps.expect("default options key semantically");
        for c in [c1, c2] {
            digest = fnv1a(digest, query_to_flogic(&c).as_bytes());
            digest = fnv1a(digest, &[0]);
        }
    }
    assert_eq!(pairs.len(), 4_256);
    assert_eq!(digest, 0x2c5d_ce19_12d5_7c99, "canon output digest");
}
