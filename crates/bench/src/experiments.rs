//! The experiments (see crate docs and DESIGN.md).

use std::sync::Arc;
use std::time::{Duration, Instant};

use flogic_gen::rng::SplitMix64;

use flogic_analysis::{classify_rule_set, SigmaClass};
use flogic_chase::{
    chase_bounded, chase_minus, find_mandatory_cycles, to_dot, to_text, ChaseOptions, ChaseOutcome,
    LevelGrowth,
};
use flogic_core::{
    bound_from_sizes, classic_contains, contains, contains_batch, contains_with, naive,
    theorem_bound, ContainmentOptions, DecisionCache,
};
use flogic_datalog::{answers, close_database, ClosureOptions};
use flogic_gen::{
    generalize, generalize_from_chase, mutate_variant, random_database, random_query,
    random_rule_set, DbGenConfig, GeneralizeConfig, QueryGenConfig, SigmaGenConfig,
};
use flogic_model::{Atom, ConjunctiveQuery, Pred, RuleId, RuleSet, SIGMA_RULE_COUNT};
use flogic_syntax::parse_query;
use flogic_term::{Subst, Symbol, Term};

use crate::promstats::scrape_samples;
use crate::Table;

/// Output of one experiment: tables plus free-form notes/artifacts.
#[derive(Clone, Debug, Default)]
pub struct ExperimentOutput {
    /// The tables to print and export.
    pub tables: Vec<Table>,
    /// Extra artifacts (e.g. a DOT rendering) printed after the tables.
    pub notes: Vec<String>,
    /// Extra files to write verbatim under `bench_results/` as
    /// `(file name, contents)` — for exports that are not shaped like a
    /// [`Table`] (e.g. E10's profile CSVs).
    pub files: Vec<(String, String)>,
}

fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed)
}

/// Median wall-clock time of `reps` runs of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut samples: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let dt = t0.elapsed();
            std::hint::black_box(out);
            dt
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

fn micros(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// The paper's four Section 2 queries.
pub fn paper_pairs() -> Vec<(&'static str, ConjunctiveQuery, ConjunctiveQuery)> {
    let q = |s: &str| parse_query(s).expect("paper query parses");
    vec![
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
    ]
}

// ---------------------------------------------------------------------------
// E1 — Section 2 worked containments.
// ---------------------------------------------------------------------------

/// E1: both worked containments of Section 2 hold under `Σ_FL`, are strict,
/// and fail classically.
pub fn e1() -> ExperimentOutput {
    let mut t = Table::new(
        "E1: Section 2 worked containments (expected: sigma=true, converse=false, classic=false)",
        &[
            "pair",
            "q subset qq (Sigma)",
            "qq subset q (Sigma)",
            "q subset qq (classic)",
            "time_us",
        ],
    );
    for (name, q1, q2) in paper_pairs() {
        let sigma = contains(&q1, &q2).expect("arity ok").holds();
        let conv = contains(&q2, &q1).expect("arity ok").holds();
        let classic = classic_contains(&q1, &q2).expect("arity ok");
        let dt = time_median(21, || contains(&q1, &q2).unwrap().holds());
        t.push(vec![
            name.into(),
            sigma.to_string(),
            conv.to_string(),
            classic.to_string(),
            micros(dt),
        ]);
    }
    ExperimentOutput {
        tables: vec![t],
        notes: vec![],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E2 — Example 1: head rewriting.
// ---------------------------------------------------------------------------

/// E2: the chase of Example 1 rewrites the head `(V1, V2)` to `(V1, V1)`.
pub fn e2() -> ExperimentOutput {
    let q = parse_query("q(V1, V2) :- data(O, A, V1), data(O, A, V2), funct(A, C), member(O, C).")
        .expect("Example 1 parses");
    let chase = chase_minus(&q);
    let mut t = Table::new(
        "E2: Example 1 head rewriting by rho12 + rho4",
        &["quantity", "value"],
    );
    t.push(vec!["head before chase".into(), "(V1, V2)".into()]);
    let head: Vec<String> = chase.head().iter().map(|x| x.to_string()).collect();
    t.push(vec![
        "head after chase".into(),
        format!("({})", head.join(", ")),
    ]);
    t.push(vec![
        "funct(A, O) derived".into(),
        chase
            .find(&Atom::funct(Term::var("A"), Term::var("O")))
            .is_some()
            .to_string(),
    ]);
    t.push(vec![
        "merges performed".into(),
        chase.stats().merges.to_string(),
    ]);
    let follows = contains(&q, &parse_query("qq(W, W) :- data(O, A, W).").unwrap())
        .unwrap()
        .holds();
    t.push(vec![
        "q subset qq(W,W) :- data(O,A,W)".into(),
        follows.to_string(),
    ]);
    ExperimentOutput {
        tables: vec![t],
        notes: vec![],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E3 — Example 2 / Figure 1: chase-graph shape.
// ---------------------------------------------------------------------------

/// E3: the chase graph of Example 2 — per-level census, cycle detection,
/// and the Figure 1 rendering (text + DOT artifact).
pub fn e3() -> ExperimentOutput {
    let q =
        parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").expect("Example 2 parses");
    let cycles = find_mandatory_cycles(q.body());
    let chase = chase_bounded(
        &q,
        &ChaseOptions {
            level_bound: 9,
            max_conjuncts: 100_000,
            ..Default::default()
        },
    )
    .expect("sequential chase cannot fail");

    let mut census = Table::new(
        "E3: Example 2 chase census per level (the rho5-rho1-rho6-rho10 pump)",
        &["level", "conjuncts", "data", "member", "type", "mandatory"],
    );
    for level in 0..=chase.max_level() {
        let ids = chase.at_level(level);
        let count_pred = |p: Pred| {
            ids.iter()
                .filter(|&&id| chase.atom(id).pred() == p)
                .count()
                .to_string()
        };
        census.push(vec![
            level.to_string(),
            ids.len().to_string(),
            count_pred(Pred::Data),
            count_pred(Pred::Member),
            count_pred(Pred::Type),
            count_pred(Pred::Mandatory),
        ]);
    }

    let mut facts = Table::new("E3: Example 2 facts", &["quantity", "value"]);
    facts.push(vec![
        "mandatory/type cycles in q".into(),
        cycles.len().to_string(),
    ]);
    facts.push(vec![
        "chase outcome at bound 9".into(),
        format!("{:?}", chase.outcome()),
    ]);
    facts.push(vec![
        "nulls invented".into(),
        chase.stats().nulls_invented.to_string(),
    ]);
    facts.push(vec![
        "cross-arcs".into(),
        chase.stats().cross_arcs.to_string(),
    ]);

    let text = to_text(&chase);
    let dot = to_dot(&chase);
    ExperimentOutput {
        tables: vec![facts, census],
        notes: vec![
            format!("Figure 1 (text rendering):\n{text}"),
            format!("DOT:\n{dot}"),
        ],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E4 — soundness cross-validation.
// ---------------------------------------------------------------------------

/// E4: verdict agreement between the Theorem 12 procedure, the naive
/// iterative-deepening baseline, and evaluation over concrete
/// `Σ_FL`-closed databases.
///
/// Pairs whose chase exceeds the conjunct cap are skipped and counted
/// separately — random variable-heavy queries can have chases that grow
/// exponentially *within* the Theorem 12 bound (the problem is NP-hard;
/// the cap keeps the harness total-time bounded).
pub fn e4(pairs: usize, dbs_per_pair: u64) -> ExperimentOutput {
    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let copts = ContainmentOptions {
        level_bound: None,
        max_conjuncts: 50_000,
        ..Default::default()
    };

    let mut n_holds = 0usize;
    let mut n_rejects = 0usize;
    let mut n_vacuous = 0usize;
    let mut n_capped = 0usize;
    let mut naive_agree = 0usize;
    let mut naive_decided = 0usize;
    let mut db_checks = 0usize;
    let mut db_violations = 0usize;

    for i in 0..pairs as u64 {
        let q1 = random_query(&qcfg, &mut rng(i));
        let q2 = match i % 3 {
            0 => generalize(&q1, &gcfg, &mut rng(i + 10_000)),
            1 => match generalize_from_chase(&q1, &gcfg, &mut rng(i + 20_000)) {
                Some(q) => q,
                None => continue,
            },
            _ => {
                let alt = random_query(&qcfg, &mut rng(i + 30_000));
                if alt.arity() != q1.arity() {
                    continue;
                }
                alt
            }
        };
        let verdict = match contains_with(&q1, &q2, &copts) {
            Ok(v) if v.is_exhausted() => {
                n_capped += 1;
                continue;
            }
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e}"),
        };
        if verdict.is_vacuous() {
            n_vacuous += 1;
        } else if verdict.holds() {
            n_holds += 1;
        } else {
            n_rejects += 1;
        }

        match naive::contains_naive(&q1, &q2, 10, 20_000) {
            Ok(naive::NaiveOutcome::Holds { .. }) => {
                naive_decided += 1;
                if verdict.holds() {
                    naive_agree += 1;
                }
            }
            Ok(naive::NaiveOutcome::NotContained { .. }) => {
                naive_decided += 1;
                if !verdict.holds() {
                    naive_agree += 1;
                }
            }
            Ok(naive::NaiveOutcome::Unknown) | Err(flogic_core::CoreError::Exhausted { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }

        if verdict.holds() {
            for s in 0..dbs_per_pair {
                let db = random_database(&DbGenConfig::default(), &mut rng(i * 100 + s));
                let Ok((closed, _)) = close_database(&db, &ClosureOptions::default()) else {
                    continue;
                };
                db_checks += 1;
                if !answers(&q1, &closed).is_subset(&answers(&q2, &closed)) {
                    db_violations += 1;
                }
            }
        }
    }

    let mut t = Table::new(
        "E4: soundness cross-validation (expected: agreement 100%, violations 0)",
        &["quantity", "value"],
    );
    t.push(vec![
        "pairs checked".into(),
        (n_holds + n_rejects + n_vacuous).to_string(),
    ]);
    t.push(vec![
        "pairs over the resource cap".into(),
        n_capped.to_string(),
    ]);
    t.push(vec!["verdict contained".into(), n_holds.to_string()]);
    t.push(vec!["verdict not contained".into(), n_rejects.to_string()]);
    t.push(vec![
        "verdict vacuous (failed chase)".into(),
        n_vacuous.to_string(),
    ]);
    t.push(vec![
        "naive baseline agreement".into(),
        format!("{naive_agree}/{naive_decided}"),
    ]);
    t.push(vec!["database subset checks".into(), db_checks.to_string()]);
    t.push(vec![
        "database counterexamples".into(),
        db_violations.to_string(),
    ]);
    ExperimentOutput {
        tables: vec![t],
        notes: vec![],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E5 — scaling (Theorem 13).
// ---------------------------------------------------------------------------

/// Builds the `sub`-chain query `q(X0, Xn) :- sub(X0,X1), …, sub(X(n-1),Xn)`.
pub fn sub_chain(n: usize) -> ConjunctiveQuery {
    let v = |i: usize| Term::var(&format!("X{i}"));
    let body: Vec<Atom> = (0..n).map(|i| Atom::sub(v(i), v(i + 1))).collect();
    ConjunctiveQuery::new(Symbol::intern("chain"), vec![v(0), v(n)], body)
        .expect("chains are valid")
}

/// E5: decision time and chase size as `|q1|` and `|q2|` grow, on acyclic
/// chains (positive and negative instances) and on cyclic queries.
pub fn e5(reps: usize) -> ExperimentOutput {
    let mut chains = Table::new(
        "E5a: sub-chain workload — chain(n) subset chain(m) iff m <= n",
        &[
            "n (=|q1|)",
            "m (=|q2|)",
            "holds",
            "chase conjuncts",
            "time_us",
        ],
    );
    // Negative instances (m > n) force the hom search to exhaust an
    // exponentially large path space — the NP-hardness of CQ containment
    // made visible — so they are kept small; positive instances scale
    // further.
    for &(n, m) in &[
        (2usize, 2usize),
        (4, 2),
        (4, 4),
        (4, 6),
        (8, 4),
        (8, 8),
        (8, 10),
        (16, 8),
        (16, 16),
        (24, 24),
        (32, 32),
    ] {
        let q1 = sub_chain(n);
        let q2 = sub_chain(m);
        let r = contains(&q1, &q2).expect("arity ok");
        let dt = time_median(reps, || contains(&q1, &q2).unwrap().holds());
        assert_eq!(r.holds(), m <= n, "chain workload ground truth");
        chains.push(vec![
            n.to_string(),
            m.to_string(),
            r.holds().to_string(),
            r.chase_conjuncts().to_string(),
            micros(dt),
        ]);
    }

    let mut cyclic = Table::new(
        "E5b: cyclic workload — q1 has a mandatory cycle of length k, q2 probes d pump steps",
        &[
            "k",
            "d (=|q2|)",
            "holds",
            "bound",
            "chase conjuncts",
            "time_us",
        ],
    );
    for &(k, d) in &[
        (1usize, 1usize),
        (1, 3),
        (2, 2),
        (2, 4),
        (3, 3),
        (3, 6),
        (4, 4),
    ] {
        let q1 = cyclic_query(k);
        let q2 = pump_probe(k, d);
        let r = contains(&q1, &q2).expect("arity ok");
        let dt = time_median(reps, || contains(&q1, &q2).unwrap().holds());
        assert!(r.holds(), "pump probes are always produced by the cycle");
        cyclic.push(vec![
            k.to_string(),
            d.to_string(),
            r.holds().to_string(),
            r.level_bound().to_string(),
            r.chase_conjuncts().to_string(),
            micros(dt),
        ]);
    }

    let mut random = Table::new(
        "E5c: random workload — median time over 20 random pairs per size",
        &[
            "|q1| = |q2|",
            "median_us",
            "contained_fraction",
            "exhausted",
        ],
    );
    for &n in &[2usize, 4, 8, 12] {
        let cfg = QueryGenConfig {
            n_atoms: n,
            n_vars: n + 2,
            n_consts: 3,
            ..Default::default()
        };
        let mut times = Vec::new();
        let mut held = 0usize;
        let mut total = 0usize;
        let mut exhausted = 0usize;
        for seed in 0..20u64 {
            let q1 = random_query(&cfg, &mut rng(seed * 7 + n as u64));
            let q2 = generalize(
                &q1,
                &GeneralizeConfig::default(),
                &mut rng(seed * 13 + n as u64),
            );
            let t0 = Instant::now();
            let copts = ContainmentOptions {
                level_bound: None,
                max_conjuncts: 50_000,
                ..Default::default()
            };
            let r = contains_with(&q1, &q2, &copts).expect("arity ok");
            if r.is_exhausted() {
                // Resource-capped pair: excluded from the medians.
                exhausted += 1;
                continue;
            }
            times.push(t0.elapsed());
            total += 1;
            if r.holds() {
                held += 1;
            }
        }
        times.sort();
        random.push(vec![
            n.to_string(),
            micros(times[times.len() / 2]),
            format!("{held}/{total}"),
            exhausted.to_string(),
        ]);
    }

    ExperimentOutput {
        tables: vec![chains, cyclic, random],
        notes: vec![],
        files: vec![],
    }
}

/// A Boolean query holding a mandatory/type cycle of length `k`
/// (Section 4's infinite-chase pattern).
pub fn cyclic_query(k: usize) -> ConjunctiveQuery {
    let cfg = QueryGenConfig {
        n_atoms: 1,
        n_vars: 1,
        n_consts: 0,
        const_prob: 0.0,
        head_arity: 0,
        // One harmless member atom plus the injected cycle.
        pred_weights: [1, 0, 0, 0, 0, 0],
        cycle: Some(k),
    };
    random_query(&cfg, &mut rng(0))
}

/// A probe of `d` pump steps: `data(T0, a0, V1), data(V1, a1, V2), …` with
/// the cycle's attribute constants; produced by the chase of
/// [`cyclic_query`] at level ≈ 4·d.
pub fn pump_probe(k: usize, d: usize) -> ConjunctiveQuery {
    let v = |i: usize| Term::var(&format!("P{i}"));
    let attr = |i: usize| Term::constant(&format!("cyc_a{}", i % k));
    let mut body = vec![Atom::data(Term::constant("cyc_t0"), attr(0), v(1))];
    for i in 1..d {
        body.push(Atom::data(v(i), attr(i), v(i + 1)));
    }
    ConjunctiveQuery::new(Symbol::intern("probe"), vec![], body).expect("probe is valid")
}

// ---------------------------------------------------------------------------
// E6 — Σ_FL containments beyond classical.
// ---------------------------------------------------------------------------

/// E6: fraction of pairs contained classically vs under `Σ_FL`, on two
/// workloads (body generalizations vs chase generalizations), plus the
/// curated pairs where only `Σ_FL` succeeds.
pub fn e6(pairs: u64) -> ExperimentOutput {
    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();

    let mut t = Table::new(
        "E6: classical vs Sigma_FL containment rates",
        &[
            "workload",
            "pairs",
            "classic holds",
            "sigma holds",
            "sigma-only",
        ],
    );
    for (name, from_chase) in [("generalize(body)", false), ("generalize(chase)", true)] {
        let mut total = 0u64;
        let mut classic_n = 0u64;
        let mut sigma_n = 0u64;
        let mut only = 0u64;
        for seed in 0..pairs {
            let q1 = random_query(&qcfg, &mut rng(seed));
            let q2 = if from_chase {
                match generalize_from_chase(&q1, &gcfg, &mut rng(seed + 40_000)) {
                    Some(q) => q,
                    None => continue,
                }
            } else {
                generalize(&q1, &gcfg, &mut rng(seed + 50_000))
            };
            let copts = ContainmentOptions {
                level_bound: None,
                max_conjuncts: 50_000,
                ..Default::default()
            };
            let r = contains_with(&q1, &q2, &copts).expect("arity ok");
            if r.is_exhausted() {
                continue; // resource-capped pair
            }
            total += 1;
            let c = classic_contains(&q1, &q2).expect("arity ok");
            let s = r.holds();
            assert!(!c || s, "classic must imply sigma");
            if c {
                classic_n += 1;
            }
            if s {
                sigma_n += 1;
            }
            if s && !c {
                only += 1;
            }
        }
        t.push(vec![
            name.into(),
            total.to_string(),
            classic_n.to_string(),
            sigma_n.to_string(),
            only.to_string(),
        ]);
    }

    let mut curated = Table::new(
        "E6b: curated sigma-only containments",
        &["q1", "q2", "classic", "sigma"],
    );
    let cases = [
        ("q(X,Z) :- sub(X,Y), sub(Y,Z).", "p(X,Z) :- sub(X,Z)."),
        ("q(O,D) :- member(O,C), sub(C,D).", "p(O,D) :- member(O,D)."),
        (
            "q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].",
            "p(A,B) :- T1[A*=>T2], T2[B*=>_].",
        ),
        ("q(O) :- mandatory(a, O).", "p(O) :- data(O, a, V)."),
        (
            "q(O,T) :- member(O,C), type(C,a,T).",
            "p(O,T) :- type(O,a,T).",
        ),
    ];
    for (s1, s2) in cases {
        let q1 = parse_query(s1).expect("curated parses");
        let q2 = parse_query(s2).expect("curated parses");
        let c = classic_contains(&q1, &q2).expect("arity ok");
        let s = contains(&q1, &q2).expect("arity ok").holds();
        curated.push(vec![s1.into(), s2.into(), c.to_string(), s.to_string()]);
    }
    ExperimentOutput {
        tables: vec![t, curated],
        notes: vec![],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E7 — bound tightness (Lemmas 9/11, Theorem 12).
// ---------------------------------------------------------------------------

/// E7: the level at which the witness homomorphism actually appears vs the
/// Theorem 12 bound `2·|q1|·|q2|`, on cyclic workloads.
pub fn e7() -> ExperimentOutput {
    let mut t = Table::new(
        "E7: witness level vs Theorem 12 bound (cyclic pump workloads)",
        &["k", "d", "|q1|", "|q2|", "bound", "witness level", "slack"],
    );
    for &(k, d) in &[
        (1usize, 1usize),
        (1, 2),
        (1, 4),
        (2, 2),
        (2, 4),
        (3, 3),
        (4, 4),
        (2, 6),
    ] {
        let q1 = cyclic_query(k);
        let q2 = pump_probe(k, d);
        let bound = theorem_bound(&q1, &q2);
        let outcome = naive::contains_naive(&q1, &q2, bound, 2_000_000).expect("arity ok");
        let naive::NaiveOutcome::Holds { level } = outcome else {
            panic!("pump probe must be contained within the bound, got {outcome:?}");
        };
        t.push(vec![
            k.to_string(),
            d.to_string(),
            q1.size().to_string(),
            q2.size().to_string(),
            bound.to_string(),
            level.to_string(),
            (bound - level).to_string(),
        ]);
    }
    ExperimentOutput {
        tables: vec![t],
        notes: vec![
            "The witness always appears within the Theorem 12 bound; the slack \
             shows the bound is conservative (its tightness is the paper's open \
             lower-bound question)."
                .into(),
        ],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E8 — chase⁻ is polynomial.
// ---------------------------------------------------------------------------

/// E8: `chase⁻` size and time on random acyclic queries of growing size.
pub fn e8(reps: usize) -> ExperimentOutput {
    let mut t = Table::new(
        "E8: chase-minus growth on random acyclic queries (Theorem 13 step 1 is polynomial)",
        &["|q|", "median conjuncts", "max conjuncts", "median_us"],
    );
    for &n in &[2usize, 4, 8, 16, 32, 64] {
        let cfg = QueryGenConfig {
            n_atoms: n,
            n_vars: n,
            n_consts: 4,
            ..Default::default()
        };
        let mut sizes = Vec::new();
        let mut times = Vec::new();
        for seed in 0..reps as u64 {
            let q = random_query(&cfg, &mut rng(seed * 31 + n as u64));
            let t0 = Instant::now();
            let chase = chase_minus(&q);
            times.push(t0.elapsed());
            if !chase.is_failed() {
                assert_eq!(chase.outcome(), ChaseOutcome::Completed);
                sizes.push(chase.len());
            }
        }
        sizes.sort_unstable();
        times.sort();
        t.push(vec![
            n.to_string(),
            sizes.get(sizes.len() / 2).copied().unwrap_or(0).to_string(),
            sizes.last().copied().unwrap_or(0).to_string(),
            micros(times[times.len() / 2]),
        ]);
    }
    ExperimentOutput {
        tables: vec![t],
        notes: vec![],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E9 — repeated-query batches: decision cache, shared chase, parallel chase.
// ---------------------------------------------------------------------------

/// E9: the same containment workload decided four ways — one `contains_with`
/// call per pair, `contains_batch` (one shared chase of `q1`), and a
/// [`DecisionCache`] in both single-pair and batch mode — plus the parallel
/// chase engine at several thread counts.
///
/// The workload repeats each distinct `q2` several times under fresh
/// variable names, the shape a query optimiser produces when it re-asks the
/// same containment question for syntactically distinct rewrites. The cache
/// canonicalizes the renames away, so only the first occurrence pays for a
/// chase + hom search.
pub fn e9(distinct: usize, repeats: usize, threads: usize) -> ExperimentOutput {
    let q1 = cyclic_query(2);
    let copts = ContainmentOptions {
        level_bound: None,
        max_conjuncts: 200_000,
        ..Default::default()
    };

    // `distinct` probe shapes, each repeated `repeats` times under fresh
    // variable names (every rename adds another `'` to each variable).
    let mut q2s: Vec<ConjunctiveQuery> = Vec::new();
    for d in 1..=distinct {
        let base = pump_probe(2, d);
        let mut copy = base.clone();
        for _ in 0..repeats {
            q2s.push(copy.clone());
            copy = copy.rename_apart(&copy);
        }
    }

    let time_total = |f: &mut dyn FnMut() -> Vec<bool>| -> (Vec<bool>, Duration) {
        let t0 = Instant::now();
        let verdicts = f();
        (verdicts, t0.elapsed())
    };

    let (singles, t_singles) = time_total(&mut || {
        q2s.iter()
            .map(|q2| contains_with(&q1, q2, &copts).expect("within cap").holds())
            .collect()
    });

    let (batched, t_batch) = time_total(&mut || {
        contains_batch(&q1, &q2s, &copts)
            .into_iter()
            .map(|r| r.expect("within cap").holds())
            .collect()
    });

    let cache = DecisionCache::new();
    let (cached, t_cache) = time_total(&mut || {
        q2s.iter()
            .map(|q2| {
                cache
                    .contains_with(&q1, q2, &copts)
                    .expect("within cap")
                    .holds()
            })
            .collect()
    });

    let cache2 = DecisionCache::new();
    let (cached_batch, t_cache_batch) = time_total(&mut || {
        cache2
            .contains_batch(&q1, &q2s, &copts)
            .into_iter()
            .map(|r| r.expect("within cap").holds())
            .collect()
    });

    assert_eq!(singles, batched, "batch must agree with singles");
    assert_eq!(singles, cached, "cache must agree with singles");
    assert_eq!(
        singles, cached_batch,
        "cached batch must agree with singles"
    );

    let n = q2s.len();
    // A cache stores every miss it decided, and this workload decides
    // every pair within its cap, so the entries are the misses.
    let hits_misses = |cache: &DecisionCache| [n - cache.len(), cache.len()].map(|c| c.to_string());
    let [cache_hits, cache_misses] = hits_misses(&cache);
    let [batch_hits, batch_misses] = hits_misses(&cache2);
    let speedup = |t: Duration| format!("{:.2}x", t_singles.as_secs_f64() / t.as_secs_f64());
    let mut t = Table::new(
        "E9a: repeated-query batch — same verdicts, shared work (expected: speedup > 1 for cache)",
        &[
            "strategy",
            "decisions",
            "total_ms",
            "per_decision_us",
            "speedup",
            "cache hits",
            "cache misses",
        ],
    );
    let ms = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    let per = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e6 / n as f64);
    t.push(vec![
        "contains_with per pair".into(),
        n.to_string(),
        ms(t_singles),
        per(t_singles),
        "1.00x".into(),
        "-".into(),
        "-".into(),
    ]);
    t.push(vec![
        "contains_batch (shared chase)".into(),
        n.to_string(),
        ms(t_batch),
        per(t_batch),
        speedup(t_batch),
        "-".into(),
        "-".into(),
    ]);
    t.push(vec![
        "DecisionCache per pair".into(),
        n.to_string(),
        ms(t_cache),
        per(t_cache),
        speedup(t_cache),
        cache_hits,
        cache_misses,
    ]);
    t.push(vec![
        "DecisionCache + contains_batch".into(),
        n.to_string(),
        ms(t_cache_batch),
        per(t_cache_batch),
        speedup(t_cache_batch),
        batch_hits,
        batch_misses,
    ]);

    // Parallel chase: Example 2's infinite chase, cut at a fixed level, is
    // re-run at several thread counts; the results must be identical.
    let example2 =
        parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").expect("Example 2 parses");
    let chase_at = |workers: usize| {
        chase_bounded(
            &example2,
            &ChaseOptions {
                level_bound: 11,
                max_conjuncts: 500_000,
                threads: workers,
                ..Default::default()
            },
        )
        .expect("no worker failure expected")
    };
    let baseline = chase_at(1);
    let mut pt = Table::new(
        "E9b: parallel chase of Example 2 (level bound 11; expected: identical = true)",
        &[
            "threads",
            "conjuncts",
            "max level",
            "time_ms",
            "identical to threads=1",
        ],
    );
    let mut thread_counts = vec![1usize, 2, 4];
    if threads > 0 && !thread_counts.contains(&threads) {
        thread_counts.push(threads);
    }
    for workers in thread_counts {
        let chase = chase_at(workers);
        let dt = time_median(3, || chase_at(workers).len());
        let identical = chase.len() == baseline.len()
            && chase.max_level() == baseline.max_level()
            && chase.outcome() == baseline.outcome()
            && chase.stats() == baseline.stats();
        pt.push(vec![
            workers.to_string(),
            chase.len().to_string(),
            chase.max_level().to_string(),
            format!("{:.2}", dt.as_secs_f64() * 1e3),
            identical.to_string(),
        ]);
    }

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    ExperimentOutput {
        tables: vec![t, pt],
        notes: vec![format!(
            "E9 workload: {distinct} distinct probes x {repeats} renamed repeats = {n} decisions \
             against one q1 (mandatory cycle of length 2). Host reports {cores} core(s): \
             with a single core the parallel engine can only demonstrate determinism, \
             not speedup."
        )],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E10 — the chase profile of the E4 workload.
// ---------------------------------------------------------------------------

/// E10: every E4-workload pair's `q1` chased to the pair's Theorem 12
/// bound, summed from what each chase reports by value: per-rule firings
/// (`rule_profile.csv`; ρ4's row counts EGD merge rounds) and per-level
/// growth (`level_growth.csv`; `chase⁻` conjuncts at level 0), plus the
/// observed depth against the bound.
pub fn e10(pairs: usize) -> ExperimentOutput {
    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let mut firings = [0usize; SIGMA_RULE_COUNT];
    let mut levels: Vec<LevelGrowth> = Vec::new();
    let (mut completed, mut cut, mut nulls) = (0, 0, 0);
    // The deepest chase: its observed depth and its pair's bound.
    let mut deepest = (0, 0);
    for i in 0..pairs as u64 {
        let q1 = random_query(&qcfg, &mut rng(i));
        let q2 = generalize(&q1, &gcfg, &mut rng(i + 10_000));
        let pair_bound = theorem_bound(&q1, &q2);
        let chase = chase_bounded(
            &q1,
            &ChaseOptions {
                level_bound: pair_bound,
                max_conjuncts: 50_000,
                ..Default::default()
            },
        )
        .expect("a sequential chase has no discovery worker to fail");
        for (sum, n) in firings.iter_mut().zip(chase.stats().rule_firings()) {
            *sum += n;
        }
        let growth = chase.level_growth();
        if levels.len() < growth.len() {
            levels.resize(growth.len(), LevelGrowth::default());
        }
        for (sum, g) in levels.iter_mut().zip(&growth) {
            sum.created += g.created;
            sum.invented += g.invented;
        }
        completed += usize::from(chase.outcome() == ChaseOutcome::Completed);
        cut += usize::from(chase.outcome() == ChaseOutcome::LevelBounded);
        nulls += chase.stats().nulls_invented;
        if chase.max_level() > deepest.0 {
            deepest = (chase.max_level(), pair_bound);
        }
    }

    let mut t = Table::new(
        "E10: chase profile of the E4 workload, each q1 chased to its pair's Theorem 12 \
         bound (expected: observed depth <= bound on every pair)",
        &[
            "pairs",
            "completed",
            "cut at the bound",
            "rule firings",
            "nulls invented",
            "egd merge rounds",
            "deepest chase (depth / bound)",
        ],
    );
    t.push(vec![
        pairs.to_string(),
        completed.to_string(),
        cut.to_string(),
        firings.iter().sum::<usize>().to_string(),
        nulls.to_string(),
        firings[RuleId::R4.index()].to_string(),
        format!("{} / {}", deepest.0, deepest.1),
    ]);
    let mut rule_csv = String::from("rule,firings\n");
    for (i, n) in firings.iter().enumerate() {
        rule_csv += &format!("rho{},{n}\n", i + 1);
    }
    let mut level_csv = String::from("level,created,invented\n");
    for (level, g) in levels.iter().enumerate() {
        level_csv += &format!("{level},{},{}\n", g.created, g.invented);
    }
    ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "E10 workload: {pairs} generated containment pairs (E4 generator). Per-rule \
             firings and per-level growth are exported as rule_profile.csv and \
             level_growth.csv."
        )],
        files: vec![
            ("rule_profile.csv".into(), rule_csv),
            ("level_growth.csv".into(), level_csv),
        ],
    }
}

/// E11: `flqd` serving economics — the cost of a containment decision
/// over the wire, cold (first sight of a `q1`: the server chases) versus
/// warm (decision and snapshot caches resident), and batch throughput as
/// the worker pool grows.
///
/// For each worker count an in-process server is started fresh (cold
/// caches), the same `distinct`-pair workload (the E4 generator, first
/// arm) is sent once cold and `repeats` rounds warm over
/// `POST /v1/contains`, and then `workers` concurrent clients each post
/// the full pair list `repeats` times via `POST /v1/contains_batch`.
/// Expected shape: warm p50 well below cold p50 (the chase amortized
/// away), batch throughput scaling with workers until decisions, not
/// transport, dominate.
pub fn e11(distinct: usize, repeats: usize) -> ExperimentOutput {
    use crate::wire;
    use flogic_serve::{Server, ServerConfig};
    use std::sync::Arc;

    // Heavier queries than E4's defaults: on loopback a request costs
    // ~1ms of transport, so the cold chase must be comfortably more
    // expensive than that for the cold/warm contrast to be visible.
    let qcfg = QueryGenConfig {
        n_atoms: 7,
        n_vars: 5,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let texts: Arc<Vec<(String, String)>> = Arc::new(
        (0..distinct as u64)
            .map(|i| {
                let q1 = random_query(&qcfg, &mut rng(i));
                let q2 = generalize(&q1, &gcfg, &mut rng(i + 10_000));
                (
                    flogic_syntax::query_to_flogic(&q1),
                    flogic_syntax::query_to_flogic(&q2),
                )
            })
            .collect(),
    );
    let contains_body = |q1: &str, q2: &str| {
        format!(
            "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":50000}}",
            wire::json_quote(q1),
            wire::json_quote(q2)
        )
    };
    let batch_body = {
        let items: Vec<String> = texts
            .iter()
            .map(|(q1, q2)| format!("[{},{}]", wire::json_quote(q1), wire::json_quote(q2)))
            .collect();
        Arc::new(format!(
            "{{\"pairs\":[{}],\"max_conjuncts\":50000}}",
            items.join(",")
        ))
    };
    let median = |mut samples: Vec<Duration>| -> Duration {
        samples.sort();
        samples[samples.len() / 2]
    };

    let mut t = Table::new(
        "E11: flqd serving economics (cold chase vs warm caches, batch throughput by workers)",
        &[
            "workers",
            "connect_p50_us",
            "cold_p50_us",
            "warm_p50_us",
            "warm_speedup",
            "batch_pairs_per_s",
        ],
    );
    for workers in [1usize, 2, 4] {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            ..ServerConfig::default()
        })
        .expect("bind in-process server");
        let addr = Arc::new(server.local_addr().expect("local addr").to_string());
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());

        // A fresh connection per request (the worst-case client), but
        // timed as two phases so TCP handshake cost never pollutes the
        // decision numbers.
        let shoot = |q1: &str, q2: &str| -> (Duration, Duration) {
            let mut client = wire::Client::connect(&addr).expect("connect");
            let t0 = Instant::now();
            let (status, body) = client
                .post("/v1/contains", &contains_body(q1, q2))
                .expect("request");
            assert_eq!(status, 200, "{body}");
            (client.connect_time(), t0.elapsed())
        };
        let mut connects = Vec::new();
        // Cold: first sight of every pair on a fresh server.
        let cold = median(
            texts
                .iter()
                .map(|(q1, q2)| {
                    let (connect, request) = shoot(q1, q2);
                    connects.push(connect);
                    request
                })
                .collect(),
        );
        // Warm: the same pairs again, now answered from the caches.
        let warm = median(
            (0..repeats.max(1))
                .flat_map(|_| {
                    texts
                        .iter()
                        .map(|(q1, q2)| {
                            let (connect, request) = shoot(q1, q2);
                            connects.push(connect);
                            request
                        })
                        .collect::<Vec<_>>()
                })
                .collect(),
        );
        let connect = median(connects);

        // Batch throughput: one client per worker, each posting the full
        // pair list `repeats` times.
        let t0 = Instant::now();
        let clients: Vec<_> = (0..workers)
            .map(|_| {
                let addr = Arc::clone(&addr);
                let batch_body = Arc::clone(&batch_body);
                let reps = repeats.max(1);
                std::thread::spawn(move || {
                    for _ in 0..reps {
                        let (status, body) =
                            wire::post(&addr, "/v1/contains_batch", &batch_body).expect("batch");
                        assert_eq!(status, 200, "{body}");
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client");
        }
        let batch_pairs = workers * repeats.max(1) * texts.len();
        let throughput = batch_pairs as f64 / t0.elapsed().as_secs_f64();

        handle.shutdown();
        join.join().expect("server thread").expect("clean drain");

        t.push(vec![
            workers.to_string(),
            micros(connect),
            micros(cold),
            micros(warm),
            format!("{:.1}x", cold.as_secs_f64() / warm.as_secs_f64().max(1e-9)),
            format!("{throughput:.0}"),
        ]);
    }
    ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "{distinct} distinct pairs; warm rounds repeat the identical requests, so the \
             decision cache answers them without re-chasing. Batch rows post all pairs per \
             request from one client per worker. Every request opens a fresh connection; \
             connect_p50_us reports that handshake phase separately so cold/warm reflect \
             request time only (see E12 for kept-alive and pipelined clients)."
        )],
        files: vec![],
    }
}

/// E12: blocking-vs-reactor client economics — what the transport shape
/// costs once decisions are warm.
///
/// One server, one warm workload, three client shapes over
/// `POST /v1/contains`: a fresh connection per request (`close`, the
/// only mode the pre-reactor server supported), one kept-alive
/// connection (`keep-alive`), and a kept-alive connection with a window
/// of requests in flight (`pipeline`). A local baseline row decides the
/// same pairs in-process with `contains_with` — the raw decision cost
/// with no transport at all.
///
/// Expected shape: keep-alive within ~2× the raw warm decision cost
/// (one loopback round trip plus JSON framing), pipelining amortizing
/// the round trip below it, and `close` paying the extra handshake —
/// reported separately, never folded into request time.
pub fn e12(distinct: usize, repeats: usize) -> ExperimentOutput {
    use crate::wire;
    use flogic_serve::{Server, ServerConfig};

    const PIPELINE_WINDOW: usize = 8;

    // The E11 workload, so the two tables are directly comparable.
    let qcfg = QueryGenConfig {
        n_atoms: 7,
        n_vars: 5,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let pairs: Vec<(ConjunctiveQuery, ConjunctiveQuery)> = (0..distinct as u64)
        .map(|i| {
            let q1 = random_query(&qcfg, &mut rng(i));
            let q2 = generalize(&q1, &gcfg, &mut rng(i + 10_000));
            (q1, q2)
        })
        .collect();
    let texts: Vec<(String, String)> = pairs
        .iter()
        .map(|(q1, q2)| {
            (
                flogic_syntax::query_to_flogic(q1),
                flogic_syntax::query_to_flogic(q2),
            )
        })
        .collect();
    let bodies: Vec<String> = texts
        .iter()
        .map(|(q1, q2)| {
            format!(
                "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":50000}}",
                wire::json_quote(q1),
                wire::json_quote(q2)
            )
        })
        .collect();
    let median = |mut samples: Vec<Duration>| -> Duration {
        samples.sort();
        samples[samples.len() / 2]
    };
    let rounds = repeats.max(1);

    // Local baseline: deciding a pair given its *text* — parse both
    // queries, then decide — warm (one unmeasured round first, exactly
    // like the server's warmup below). Parsing belongs to the decision,
    // not the transport: the wire carries text, and so does `flq
    // contains`.
    let opts = ContainmentOptions {
        max_conjuncts: 50_000,
        ..ContainmentOptions::default()
    };
    for (q1, q2) in &pairs {
        let _ = contains_with(q1, q2, &opts).expect("baseline decision");
    }
    let decision = median(
        (0..rounds)
            .flat_map(|_| {
                texts.iter().map(|(t1, t2)| {
                    let t0 = Instant::now();
                    let q1 = flogic_syntax::parse_query(t1).expect("baseline parse");
                    let q2 = flogic_syntax::parse_query(t2).expect("baseline parse");
                    let _ = contains_with(&q1, &q2, &opts).expect("baseline decision");
                    t0.elapsed()
                })
            })
            .collect(),
    );

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind in-process server");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // Warm every pair once so each mode below measures steady state.
    {
        let mut client = wire::Client::connect(&addr).expect("connect");
        for body in &bodies {
            let (status, resp) = client.post("/v1/contains", body).expect("warmup");
            assert_eq!(status, 200, "{resp}");
        }
    }

    let mut t = Table::new(
        "E12: client shapes over warm decisions (close vs keep-alive vs pipelined vs no transport)",
        &[
            "mode",
            "connect_p50_us",
            "warm_p50_us",
            "vs_decision",
            "pairs_per_s",
        ],
    );
    let ratio = |warm: Duration| -> String {
        format!(
            "{:.1}x",
            warm.as_secs_f64() / decision.as_secs_f64().max(1e-9)
        )
    };
    let throughput = |n: usize, elapsed: Duration| -> String {
        format!("{:.0}", n as f64 / elapsed.as_secs_f64().max(1e-9))
    };

    // close: a fresh connection per request, phases timed separately.
    {
        let mut connects = Vec::new();
        let mut requests = Vec::new();
        let t0 = Instant::now();
        for _ in 0..rounds {
            for body in &bodies {
                let mut client = wire::Client::connect(&addr).expect("connect");
                connects.push(client.connect_time());
                let r0 = Instant::now();
                let (status, resp) = client.post("/v1/contains", body).expect("request");
                requests.push(r0.elapsed());
                assert_eq!(status, 200, "{resp}");
            }
        }
        let elapsed = t0.elapsed();
        let warm = median(requests);
        t.push(vec![
            "close".into(),
            micros(median(connects)),
            micros(warm),
            ratio(warm),
            throughput(rounds * bodies.len(), elapsed),
        ]);
    }

    // keep-alive: one connection for everything.
    {
        let mut client = wire::Client::connect(&addr).expect("connect");
        let connect = client.connect_time();
        let mut requests = Vec::new();
        let t0 = Instant::now();
        for _ in 0..rounds {
            for body in &bodies {
                let r0 = Instant::now();
                let (status, resp) = client.post("/v1/contains", body).expect("request");
                requests.push(r0.elapsed());
                assert_eq!(status, 200, "{resp}");
            }
        }
        let elapsed = t0.elapsed();
        let warm = median(requests);
        t.push(vec![
            "keep-alive".into(),
            micros(connect),
            micros(warm),
            ratio(warm),
            throughput(rounds * bodies.len(), elapsed),
        ]);
    }

    // pipeline: windows of requests in flight on one connection;
    // per-request time is the window round trip shared evenly.
    {
        let mut client = wire::Client::connect(&addr).expect("connect");
        let connect = client.connect_time();
        let mut requests = Vec::new();
        let t0 = Instant::now();
        for _ in 0..rounds {
            for window in bodies.chunks(PIPELINE_WINDOW) {
                let r0 = Instant::now();
                let responses = client
                    .post_pipelined("/v1/contains", window)
                    .expect("pipelined request");
                let per_request = r0.elapsed() / window.len() as u32;
                for (status, resp) in &responses {
                    assert_eq!(*status, 200, "{resp}");
                    requests.push(per_request);
                }
            }
        }
        let elapsed = t0.elapsed();
        let warm = median(requests);
        t.push(vec![
            format!("pipeline-{PIPELINE_WINDOW}"),
            micros(connect),
            micros(warm),
            ratio(warm),
            throughput(rounds * bodies.len(), elapsed),
        ]);
    }

    handle.shutdown();
    join.join().expect("server thread").expect("clean drain");

    t.push(vec![
        "decision (no transport)".into(),
        "-".into(),
        micros(decision),
        "1.0x".into(),
        "-".into(),
    ]);

    ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "{distinct} distinct pairs, {rounds} warm round(s) per mode, decisions warmed \
             before measuring. vs_decision compares each transport shape against deciding \
             the same pairs in-process; keep-alive is the shape the CI latency gate holds \
             under its budget."
        )],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E13 — Σ-admission classifier cost and derived bounds.
// ---------------------------------------------------------------------------

/// E13: cost of the Σ-admission classifier on generated TGD/EGD sets,
/// class frequencies per set size, and the derived chase level bound
/// compared against the Theorem 12 bound for a fixed query-pair size.
///
/// `sets_per_size` rule sets are generated at each size in the sweep and
/// classified; `reps` repetitions feed the per-set median timing. The
/// bound columns use body sizes `n1 = n2 = 4`, so the Theorem 12
/// reference is `2·4·4 = 32`: guarded/sticky (non-WA) sets must derive
/// exactly that, weakly acyclic sets derive a rank-based terminating
/// bound instead (usually larger — it covers the *full* chase — but a
/// guarantee of termination rather than a cutoff).
pub fn e13(sets_per_size: usize, reps: usize) -> ExperimentOutput {
    const SIZES: [usize; 5] = [2, 4, 8, 12, 16];
    const N1: usize = 4;
    const N2: usize = 4;
    let theorem = bound_from_sizes(N1, N2);

    let mut t = Table::new(
        "E13: Sigma-admission classifier cost and derived bounds (n1 = n2 = 4, Theorem 12 = 32)",
        &[
            "n_rules",
            "sets",
            "admitted",
            "weakly_acyclic",
            "guarded",
            "sticky",
            "rejected",
            "classify_p50_us",
            "classify_max_us",
            "wa_bound_min",
            "wa_bound_p50",
            "wa_bound_max",
            "theorem_12",
        ],
    );

    let median_u32 = |xs: &mut Vec<u32>| -> u32 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    };

    for (si, &n_rules) in SIZES.iter().enumerate() {
        let cfg = SigmaGenConfig {
            n_rules,
            ..Default::default()
        };
        let mut admitted = 0usize;
        let mut per_class = [0usize; 3];
        let mut times = Vec::with_capacity(sets_per_size);
        let mut wa_bounds: Vec<u32> = Vec::new();
        for i in 0..sets_per_size as u64 {
            let set = Arc::new(random_rule_set(&cfg, &mut rng(si as u64 * 100_000 + i)));
            times.push(time_median(reps, || classify_rule_set(set.clone())));
            let admission = classify_rule_set(set);
            if admission.is_admitted() {
                admitted += 1;
            }
            for (slot, class) in per_class.iter_mut().zip(SigmaClass::ALL) {
                if admission.classes().contains(&class) {
                    *slot += 1;
                }
            }
            if admission.classes().contains(&SigmaClass::WeaklyAcyclic) {
                wa_bounds.push(admission.level_bound(N1, N2));
            } else if admission.is_admitted() {
                // Non-WA admitted sets must fall back to the Theorem 12
                // shape exactly — the harness asserts the contract the
                // docs promise.
                assert_eq!(admission.level_bound(N1, N2), theorem);
            }
        }
        times.sort();
        let (wa_min, wa_p50, wa_max) = if wa_bounds.is_empty() {
            ("-".into(), "-".into(), "-".into())
        } else {
            (
                wa_bounds.iter().min().unwrap().to_string(),
                median_u32(&mut wa_bounds.clone()).to_string(),
                wa_bounds.iter().max().unwrap().to_string(),
            )
        };
        t.push(vec![
            n_rules.to_string(),
            sets_per_size.to_string(),
            admitted.to_string(),
            per_class[0].to_string(),
            per_class[1].to_string(),
            per_class[2].to_string(),
            (sets_per_size - admitted).to_string(),
            micros(times[times.len() / 2]),
            micros(*times.last().unwrap()),
            wa_min,
            wa_p50,
            wa_max,
            theorem.to_string(),
        ]);
    }

    // Σ_FL itself as the reference row: guarded only, so its derived
    // bound is exactly the Theorem 12 bound.
    let sigma_fl = RuleSet::sigma_fl().clone();
    let fl_time = time_median(reps.max(3), || classify_rule_set(sigma_fl.clone()));
    let fl = classify_rule_set(sigma_fl);
    assert!(fl.is_admitted());
    assert_eq!(fl.classes(), [SigmaClass::Guarded]);
    assert_eq!(fl.level_bound(N1, N2), theorem);
    t.push(vec![
        "12 (Sigma_FL)".into(),
        "1".into(),
        "1".into(),
        "0".into(),
        "1".into(),
        "0".into(),
        "0".into(),
        micros(fl_time),
        micros(fl_time),
        "-".into(),
        "-".into(),
        "-".into(),
        theorem.to_string(),
    ]);

    ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "{sets_per_size} generated sets per size, SigmaGenConfig defaults otherwise \
             (EGD prob 0.15, existential prob 0.35). classify_* columns time the full \
             admission pipeline (dependency graph, three class tests, diagnostics). \
             wa_bound_* columns are the rank-derived terminating-chase bounds of the \
             weakly acyclic sets at n1 = n2 = 4; non-WA admitted sets derive the \
             Theorem 12 bound exactly (asserted, not just tabulated)."
        )],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E14 — semantic cache keys under variant-heavy traffic.
// ---------------------------------------------------------------------------

/// A fresh semantic question with the same body size as `q2`: one
/// variable (preferring one that does not appear in the head) is ground
/// to a constant never used anywhere else. The Theorem 12 bound is a
/// function of body sizes, so a snapshot warm for `q2`-sized questions
/// can usually serve the new one — while the decision itself has never
/// been asked, in either canon mode.
fn freshen(q2: &ConjunctiveQuery, k: usize) -> ConjunctiveQuery {
    let head_vars: std::collections::BTreeSet<Term> =
        q2.head().iter().copied().filter(|t| t.is_var()).collect();
    let vars = q2.vars();
    let pick = vars
        .iter()
        .find(|v| !head_vars.contains(v))
        .or_else(|| vars.iter().next());
    match pick {
        Some(&v) => q2.apply(&Subst::singleton(v, Term::constant(&format!("fz{k}")))),
        None => q2.clone(),
    }
}

/// E14: what semantic (canonicalized) cache keys buy on variant-heavy
/// traffic — the workload the raw structural keys get ~0% on.
///
/// `distinct` base pairs (the E4 workload shape) are warmed on two
/// in-process `flqd` servers, one default (canon on) and one
/// `--no-canon`. Two measured phases follow, `variants` rounds each:
///
/// 1. **variant decisions** — every base pair mutated on both sides
///    ([`mutate_variant`]: redundant atoms + renaming + permutation).
///    Canon keys fold the mutations back to the warmed core pair, so the
///    decision cache answers without re-chasing; raw keys miss every
///    time. Hit rate comes from scraping the server's
///    `flqd_decision_cache_*` counters around the phase;
///    `variant_p50_us` is the request p50.
/// 2. **fresh questions** — a mutated `q1` against a freshened `q2`
///    (a question never asked before, in either mode). The decision
///    cache *must* miss; what is measured is the snapshot LRU: canon
///    substitutes the warm canonical `q1`, raw keys see a brand-new
///    spelling. Hit rate comes from scraping `GET /metrics`.
///
/// The acceptance contract from the canonicalization work is asserted,
/// not just tabulated: canon-on hits ≥ 80% on both caches while
/// canon-off hits ≤ 5%, and every request decides with HTTP 200.
pub fn e14(distinct: usize, variants: usize) -> ExperimentOutput {
    use crate::wire;
    use flogic_serve::{Server, ServerConfig};

    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let base: Vec<(ConjunctiveQuery, ConjunctiveQuery)> = (0..distinct as u64)
        .map(|i| {
            let q1 = random_query(&qcfg, &mut rng(i));
            let q2 = generalize(&q1, &gcfg, &mut rng(i + 10_000));
            (q1, q2)
        })
        .collect();
    let text = flogic_syntax::query_to_flogic;
    let base_texts: Vec<(String, String)> = base.iter().map(|(a, b)| (text(a), text(b))).collect();
    // The *structural* key already folds renaming and permutation, so
    // two independently seeded mutants of the same q1 can coincide by
    // chance and hand the raw-key server an accidental snapshot hit.
    // That folding is fine — it is the seed behavior — but this
    // experiment isolates the *semantic* folding on top of it, so the
    // q1 mutants are drawn to be pairwise structurally distinct.
    let mut seen: std::collections::HashSet<flogic_core::QueryKey> = base
        .iter()
        .map(|(q1, _)| flogic_core::QueryKey::structural(q1))
        .collect();
    let mut distinct_mutant = |q: &ConjunctiveQuery, seed: u64| -> ConjunctiveQuery {
        let mut s = seed;
        loop {
            let m = mutate_variant(q, &mut rng(s));
            if seen.insert(flogic_core::QueryKey::structural(&m)) {
                return m;
            }
            s = s.wrapping_add(1_000_000_000);
        }
    };
    // Phase 1: both sides mutated. The canonical keys must fold these
    // back onto the warmed entries; the raw keys cannot.
    let mut variant_texts: Vec<(String, String)> = Vec::new();
    for v in 0..variants as u64 {
        for (i, (q1, q2)) in base.iter().enumerate() {
            let s = 700_000 + v * 10_000 + i as u64;
            variant_texts.push((
                text(&distinct_mutant(q1, s)),
                text(&mutate_variant(q2, &mut rng(s + 100_000))),
            ));
        }
    }
    // Phase 2: mutated q1, never-asked q2. Forces a decision miss in
    // both modes, so the snapshot cache is what answers (or doesn't).
    let mut fresh_texts: Vec<(String, String)> = Vec::new();
    for v in 0..variants {
        for (i, (q1, q2)) in base.iter().enumerate() {
            let s = 900_000 + v as u64 * 10_000 + i as u64;
            fresh_texts.push((
                text(&distinct_mutant(q1, s)),
                text(&freshen(q2, v * distinct + i)),
            ));
        }
    }

    let contains_body = |q1: &str, q2: &str| {
        format!(
            "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":50000}}",
            wire::json_quote(q1),
            wire::json_quote(q2)
        )
    };
    let pct = |hits: u64, misses: u64| -> f64 {
        if hits + misses == 0 {
            0.0
        } else {
            100.0 * hits as f64 / (hits + misses) as f64
        }
    };

    let mut t = Table::new(
        "E14: semantic vs raw cache keys on variant-heavy traffic (mutated spellings of warm pairs)",
        &[
            "mode",
            "warm_reqs",
            "variant_reqs",
            "decision_hit_pct",
            "variant_p50_us",
            "fresh_reqs",
            "snapshot_hit_pct",
            "canon_keys",
        ],
    );
    let mut contrast: Vec<(f64, f64, Duration)> = Vec::new();
    for canon in [true, false] {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            canon,
            ..ServerConfig::default()
        })
        .expect("bind in-process server");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let mut client = wire::Client::connect(&addr).expect("connect");
        let post = |client: &mut wire::Client, q1: &str, q2: &str| -> Duration {
            let t0 = Instant::now();
            let (status, body) = client
                .post("/v1/contains", &contains_body(q1, q2))
                .expect("request");
            let dt = t0.elapsed();
            assert_eq!(status, 200, "{body}");
            dt
        };

        for (q1, q2) in &base_texts {
            post(&mut client, q1, q2);
        }
        // This server's decision-cache and canonicalization counters.
        let families = [
            "flqd_decision_cache_hits_total",
            "flqd_decision_cache_misses_total",
            "flqd_canon_keys_total",
        ];
        let before = scrape_samples(&addr, families);
        let mut latencies: Vec<Duration> = variant_texts
            .iter()
            .map(|(q1, q2)| post(&mut client, q1, q2))
            .collect();
        let after = scrape_samples(&addr, families);
        let [decision_hits, decision_misses, canon_keys]: [u64; 3] =
            std::array::from_fn(|i| after[i] - before[i]);
        latencies.sort();
        let p50 = latencies[latencies.len() / 2];

        let snapshot_families = [
            "flqd_snapshot_cache_hits_total",
            "flqd_snapshot_cache_misses_total",
        ];
        let [h0, s0] = scrape_samples(&addr, snapshot_families);
        for (q1, q2) in &fresh_texts {
            post(&mut client, q1, q2);
        }
        let [h1, s1] = scrape_samples(&addr, snapshot_families);
        let (snap_hits, snap_misses) = (h1 - h0, s1 - s0);
        handle.shutdown();
        join.join().expect("server thread").expect("clean drain");

        let decision_pct = pct(decision_hits, decision_misses);
        let snapshot_pct = pct(snap_hits, snap_misses);
        contrast.push((decision_pct, snapshot_pct, p50));
        t.push(vec![
            if canon {
                "canon (default)"
            } else {
                "--no-canon"
            }
            .into(),
            base_texts.len().to_string(),
            variant_texts.len().to_string(),
            format!("{decision_pct:.1}"),
            micros(p50),
            fresh_texts.len().to_string(),
            format!("{snapshot_pct:.1}"),
            canon_keys.to_string(),
        ]);
    }
    // The acceptance contract: semantic keys make variant traffic a hit
    // workload, raw keys leave it a miss workload.
    let (on, off) = (&contrast[0], &contrast[1]);
    assert!(
        on.0 >= 80.0 && on.1 >= 80.0,
        "canon-on hit rates below the 80% floor: decision {:.1}%, snapshot {:.1}%",
        on.0,
        on.1
    );
    assert!(
        off.0 <= 5.0 && off.1 <= 5.0,
        "canon-off hit rates above the 5% ceiling: decision {:.1}%, snapshot {:.1}%",
        off.0,
        off.1
    );

    ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "{distinct} warm base pairs, {variants} variant round(s) per phase, one kept-alive \
             client. Variant requests mutate both sides (redundant atoms + renaming + \
             permutation); fresh requests pair a mutated q1 with a never-asked q2 of the same \
             size, so only the snapshot cache can help. decision_hit_pct and canon_keys are \
             scoped to the variant phase, snapshot_hit_pct to the fresh phase, all via the \
             server's GET /metrics. Asserted: canon >= 80% on both caches, --no-canon <= 5%."
        )],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E15 — request-level observability: overhead and per-stage latency.
// ---------------------------------------------------------------------------

/// E15: what the always-on observability layer (stage-timed spans,
/// lock-free histograms) plus the optional access log cost, and where a
/// warm request's time actually goes.
///
/// Three measurements over `distinct` warm E4-shaped pairs:
///
/// 1. **overhead A/B** — warm keep-alive p50 on one persistent
///    connection, access log off vs on (full sampling, every request
///    logged). Spans and histograms cannot be disabled, so the log is
///    the toggleable increment; the A/B rows make the total cost of the
///    instrumented path visible next to the latency gate's budget.
///    Asserted: log-on p50 within 5% of log-off (plus a small absolute
///    jitter floor, since 5% of a ~100 µs p50 is single-digit µs).
/// 2. **per-stage percentiles by transport mode** — close / keep-alive
///    / pipelined clients against fresh servers; the server's own
///    `flqd_stage_duration_nanoseconds` histograms are scraped before
///    and after the measured phase and diffed ([`crate::promstats`]),
///    so the mean/p50/p99 per stage cover exactly the measured window.
///    The mean comes from the exact `_sum`; a p50 is interpolated inside
///    a log2 bucket, so it is only good to a factor of two.
/// 3. **batch dedup** — one `POST /v1/contains_batch` carrying several
///    mutated respellings of every base `q1`: the server's canonical
///    dedup must fold them, observable as `flqd_batch_dedup_hits_total`.
pub fn e15(distinct: usize, requests: usize) -> ExperimentOutput {
    use crate::promstats::{diff_stages, scrape_server_stats};
    use crate::wire;
    use flogic_serve::{Server, ServerConfig};

    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let base: Vec<(ConjunctiveQuery, ConjunctiveQuery)> = (0..distinct as u64)
        .map(|i| {
            let q1 = random_query(&qcfg, &mut rng(i));
            let q2 = generalize(&q1, &gcfg, &mut rng(i + 10_000));
            (q1, q2)
        })
        .collect();
    let text = flogic_syntax::query_to_flogic;
    let base_texts: Vec<(String, String)> = base.iter().map(|(a, b)| (text(a), text(b))).collect();
    let contains_body = |q1: &str, q2: &str| {
        format!(
            "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":50000}}",
            wire::json_quote(q1),
            wire::json_quote(q2)
        )
    };
    let log_path =
        std::env::temp_dir().join(format!("flq_e15_access_{}.jsonl", std::process::id()));
    let spawn = |access_log: Option<String>| {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            access_log,
            ..ServerConfig::default()
        })
        .expect("bind in-process server");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (addr, handle, join)
    };
    let post_ok = |client: &mut wire::Client, body: &str| {
        let (status, resp) = client.post("/v1/contains", body).expect("request");
        assert_eq!(status, 200, "{resp}");
    };

    let mut t = Table::new(
        "E15: observability overhead and per-stage latency (warm requests, in-process flqd)",
        &["mode", "stage", "count", "mean_us", "p50_us", "p99_us"],
    );

    // 1. Overhead A/B: warm keep-alive total latency, access log off/on.
    let mut total_p50 = [Duration::ZERO; 2];
    for (slot, log) in [None, Some(log_path.display().to_string())]
        .into_iter()
        .enumerate()
    {
        let (addr, handle, join) = spawn(log);
        let mut client = wire::Client::connect(&addr).expect("connect");
        for (q1, q2) in &base_texts {
            post_ok(&mut client, &contains_body(q1, q2));
        }
        let mut latencies: Vec<Duration> = (0..requests)
            .map(|i| {
                let (q1, q2) = &base_texts[i % base_texts.len()];
                let body = contains_body(q1, q2);
                let t0 = Instant::now();
                post_ok(&mut client, &body);
                t0.elapsed()
            })
            .collect();
        latencies.sort();
        total_p50[slot] = latencies[latencies.len() / 2];
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        let mean = latencies.iter().sum::<Duration>() / requests as u32;
        drop(client);
        handle.shutdown();
        join.join().expect("server thread").expect("clean drain");
        t.push(vec![
            if slot == 0 {
                "keepalive_log_off"
            } else {
                "keepalive_log_on"
            }
            .into(),
            "total".into(),
            requests.to_string(),
            micros(mean),
            micros(total_p50[slot]),
            micros(p99),
        ]);
    }
    let [off, on] = total_p50;
    let overhead_pct = if off.is_zero() {
        0.0
    } else {
        100.0 * (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64()
    };
    // The 5% contract, with a 25 µs absolute floor so single-digit-µs
    // scheduler jitter on a ~100 µs p50 cannot fail the run spuriously.
    assert!(
        on <= off.mul_f64(1.05) + Duration::from_micros(25),
        "access log overhead breached the 5% contract: off {off:?}, on {on:?}"
    );

    // 2. Per-stage percentiles by transport mode, from the server's own
    // histograms, scoped to the measured window by scrape diffing.
    for mode in ["close", "keep-alive", "pipeline"] {
        let (addr, handle, join) = spawn(Some(log_path.display().to_string()));
        let mut client = wire::Client::connect(&addr).expect("connect");
        for (q1, q2) in &base_texts {
            post_ok(&mut client, &contains_body(q1, q2));
        }
        let before = scrape_server_stats(&addr).expect("scrape");
        match mode {
            "close" => {
                for i in 0..requests {
                    let (q1, q2) = &base_texts[i % base_texts.len()];
                    let (status, resp) =
                        wire::post(&addr, "/v1/contains", &contains_body(q1, q2)).expect("request");
                    assert_eq!(status, 200, "{resp}");
                }
            }
            "keep-alive" => {
                for i in 0..requests {
                    let (q1, q2) = &base_texts[i % base_texts.len()];
                    post_ok(&mut client, &contains_body(q1, q2));
                }
            }
            _ => {
                let bodies: Vec<String> = (0..requests)
                    .map(|i| {
                        let (q1, q2) = &base_texts[i % base_texts.len()];
                        contains_body(q1, q2)
                    })
                    .collect();
                for window in bodies.chunks(8) {
                    for (status, resp) in client
                        .post_pipelined("/v1/contains", window)
                        .expect("burst")
                    {
                        assert_eq!(status, 200, "{resp}");
                    }
                }
            }
        }
        let after = scrape_server_stats(&addr).expect("scrape");
        drop(client);
        handle.shutdown();
        join.join().expect("server thread").expect("clean drain");
        for (stage, diff) in diff_stages(&before, &after) {
            t.push(vec![
                mode.into(),
                stage.into(),
                diff.count.to_string(),
                format!("{:.1}", diff.sum as f64 / diff.count.max(1) as f64 / 1e3),
                format!("{:.1}", diff.p50() as f64 / 1e3),
                format!("{:.1}", diff.p99() as f64 / 1e3),
            ]);
        }
    }

    // 3. Batch dedup: 4 respellings of every base q1 in one batch; the
    // canonical dedup must fold each group to one chased representative.
    let (addr, handle, join) = spawn(None);
    let mut items: Vec<String> = Vec::new();
    for (i, (q1, q2)) in base.iter().enumerate() {
        for v in 0..4u64 {
            let m1 = if v == 0 {
                q1.clone()
            } else {
                mutate_variant(q1, &mut rng(5_000_000 + i as u64 * 100 + v))
            };
            items.push(format!(
                "[{},{}]",
                wire::json_quote(&text(&m1)),
                wire::json_quote(&text(q2))
            ));
        }
    }
    let batch_body = format!(
        "{{\"pairs\":[{}],\"max_conjuncts\":50000}}",
        items.join(",")
    );
    let (status, resp) = wire::post(&addr, "/v1/contains_batch", &batch_body).expect("batch");
    assert_eq!(status, 200, "{resp}");
    let [dedup_hits] = scrape_samples(&addr, ["flqd_batch_dedup_hits_total"]);
    handle.shutdown();
    join.join().expect("server thread").expect("clean drain");
    // 4 spellings per base, so 3 foldable respellings each. Mutation can
    // occasionally be an identity on tiny queries; require most to fold.
    assert!(
        dedup_hits >= 2 * distinct as u64,
        "batch dedup folded too little: {dedup_hits} hits over {distinct} bases x 4 spellings"
    );
    t.push(vec![
        "batch".into(),
        "dedup_hits".into(),
        dedup_hits.to_string(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    let _ = std::fs::remove_file(&log_path);

    ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "{distinct} warm base pairs, {requests} measured requests per mode. \
             keepalive_log_off/on rows are client-observed totals on one persistent connection \
             (overhead {overhead_pct:+.1}%, asserted <= 5% + 25us jitter floor); per-stage rows \
             are the server's own histograms diffed across the measured window; the batch row \
             counts canonical q1 dedup hits for one batch of {distinct} bases x 4 spellings."
        )],
        files: vec![],
    }
}

/// E16 — restart-warm serving: latency tiers of the durable decision
/// store. For each store size the same pairs are decided cold (first
/// sight, chase + persist), RAM-warm (repeat on the same process), and
/// disk-warm (first sight after a restart on the same `--data-dir` —
/// every answer must come from the LSM store, bit-identical to the
/// cold response), alongside the restart-open (recovery) time.
pub fn e16(distinct: usize, scales: usize) -> ExperimentOutput {
    use crate::wire;
    use flogic_serve::{Server, ServerConfig};

    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let contains_body = |q1: &str, q2: &str| {
        format!(
            "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":50000}}",
            wire::json_quote(q1),
            wire::json_quote(q2)
        )
    };
    // Returns (addr, handle, join, bind time). Binding opens the store,
    // so the bind time on a reopened dir IS the restart-recovery cost.
    let spawn = |data_dir: Option<String>| {
        let t0 = Instant::now();
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir,
            ..ServerConfig::default()
        })
        .expect("bind in-process server");
        let open = t0.elapsed();
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (addr, handle, join, open)
    };
    let percentiles = |mut lat: Vec<Duration>| {
        lat.sort();
        let p50 = lat[lat.len() / 2];
        let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
        (p50, p99)
    };

    let mut t = Table::new(
        "E16: restart-warm serving — cold vs RAM-warm vs disk-warm, restart-open time",
        &[
            "store_pairs",
            "tier",
            "p50_us",
            "p99_us",
            "restart_open_us",
            "disk_hits",
            "hit_rate_pct",
        ],
    );
    let mut summaries = Vec::new();
    for scale in 0..scales.max(1) {
        let n = distinct << scale;
        let texts: Vec<(String, String)> = (0..n as u64)
            .map(|i| {
                let q1 = random_query(&qcfg, &mut rng(i));
                let q2 = generalize(&q1, &gcfg, &mut rng(i + 10_000));
                (
                    flogic_syntax::query_to_flogic(&q1),
                    flogic_syntax::query_to_flogic(&q2),
                )
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("flq_e16_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();

        // Pass 1 (cold) and pass 2 (RAM-warm) on the first process.
        let (addr, handle, join, _) = spawn(Some(dir_s.clone()));
        let mut client = wire::Client::connect(&addr).expect("connect");
        let pass = |client: &mut wire::Client| -> (Vec<Duration>, Vec<String>) {
            let mut lat = Vec::with_capacity(texts.len());
            let mut bodies = Vec::with_capacity(texts.len());
            for (q1, q2) in &texts {
                let body = contains_body(q1, q2);
                let t0 = Instant::now();
                let (status, resp) = client.post("/v1/contains", &body).expect("request");
                lat.push(t0.elapsed());
                assert_eq!(status, 200, "{resp}");
                bodies.push(resp);
            }
            (lat, bodies)
        };
        let (cold_lat, cold_bodies) = pass(&mut client);
        let (ram_lat, _) = pass(&mut client);
        drop(client);
        handle.shutdown();
        join.join().expect("server thread").expect("clean drain");

        // Restart on the same dir: bind time is recovery, and the first
        // pass must be served entirely by the durable tier.
        let (addr, handle, join, open) = spawn(Some(dir_s.clone()));
        let mut client = wire::Client::connect(&addr).expect("connect");
        let (disk_lat, disk_bodies) = pass(&mut client);
        for (i, (cold, disk)) in cold_bodies.iter().zip(&disk_bodies).enumerate() {
            assert_eq!(
                cold, disk,
                "pair {i}: disk-warm answer differs from the cold one"
            );
        }
        let [disk_hits] = scrape_samples(&addr, ["flqd_store_disk_hits_total"]);
        drop(client);
        handle.shutdown();
        join.join().expect("server thread").expect("clean drain");
        let _ = std::fs::remove_dir_all(&dir);

        let hit_rate = 100.0 * disk_hits as f64 / n as f64;
        for (tier, lat) in [("cold", cold_lat), ("ram_warm", ram_lat)] {
            let (p50, p99) = percentiles(lat);
            t.push(vec![
                n.to_string(),
                tier.into(),
                micros(p50),
                micros(p99),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        let (p50, p99) = percentiles(disk_lat);
        t.push(vec![
            n.to_string(),
            "disk_warm".into(),
            micros(p50),
            micros(p99),
            micros(open),
            disk_hits.to_string(),
            format!("{hit_rate:.1}"),
        ]);
        summaries.push(format!(
            "{n} pairs: restart open {}, disk hit rate {hit_rate:.1}%",
            format_args!("{:.1}us", open.as_secs_f64() * 1e6)
        ));
    }

    ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "Each store size decides the same generated pairs cold (first sight, chase + \
             persist), RAM-warm (repeat, decision-cache hit), and disk-warm (first sight \
             after SIGTERM-style drain + restart on the same --data-dir; every response \
             asserted byte-identical to the cold one, hits counted by the server's \
             flqd_store_disk_hits_total). restart_open_us is the Server::bind time on the \
             reopened dir, i.e. manifest + segment-metadata recovery. {}",
            summaries.join("; ")
        )],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// E17 — soak run of flqd's resident caches under never-repeating traffic.
// ---------------------------------------------------------------------------

/// The resident set size of this process, in bytes, from
/// `/proc/self/status` (0 where that file does not exist).
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// E17: a soak run of `flqd`'s two resident tiers under traffic that
/// never repeats. `requests` cold questions go to one in-process server
/// with `--cache-bytes cache_bytes`, one kept-alive client, in windows of
/// `window` requests. Each request is an E4-mix pair whose `q1` carries
/// a constant no other request uses (perfbench's `cold` shape), so every
/// request misses both tiers, and once the snapshot cap is full every
/// retained chase evicts another.
///
/// Per window: the client's mean and p50 latency, the server's resident
/// snapshot bytes and entries, snapshot evictions, resident decisions,
/// and this process's RSS (client, server and harness share it).
/// Asserted: resident snapshot bytes never exceed the cap, every window
/// from the first eviction on evicts, and every sampled verdict equals a
/// local `contains_with`.
pub fn e17(seed: u64, requests: usize, cache_bytes: usize, window: usize) -> ExperimentOutput {
    use crate::wire;
    use flogic_serve::{Server, ServerConfig};

    let qcfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let gcfg = GeneralizeConfig::default();
    let opts = ContainmentOptions {
        max_conjuncts: 50_000,
        ..Default::default()
    };
    // Request r: q1 narrowed by `X : u<seed>x<r>` on its head variable,
    // and a q2 generalized from its body, from its chase, or unrelated.
    let pair = |r: u64| -> (String, String) {
        let mut g = rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r);
        let q1 = random_query(&qcfg, &mut g);
        let q2 = match r % 3 {
            0 => generalize(&q1, &gcfg, &mut g),
            1 => generalize_from_chase(&q1, &gcfg, &mut g)
                .unwrap_or_else(|| generalize(&q1, &gcfg, &mut g)),
            _ => Some(random_query(&qcfg, &mut g))
                .filter(|alt| alt.arity() == q1.arity())
                .unwrap_or_else(|| generalize(&q1, &gcfg, &mut g)),
        };
        let text = flogic_syntax::query_to_flogic(&q1);
        let q1 = format!(
            "{}, {} : u{seed}x{r}.",
            text.trim_end_matches('.'),
            q1.head()[0]
        );
        (q1, flogic_syntax::query_to_flogic(&q2))
    };
    let check_every = (requests / 2_000).max(8) as u64;

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_bytes,
        ..ServerConfig::default()
    })
    .expect("bind in-process server");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let mut client = wire::Client::connect(&addr).expect("connect");
    let families = [
        "flqd_snapshot_resident_bytes",
        "flqd_snapshot_resident_entries",
        "flqd_snapshot_cache_evictions_total",
        "flqd_decision_cache_entries",
    ];

    let name = format!("s={seed}_n={requests}_cap={cache_bytes}");
    let mut t = Table::new(
        &format!("E17: soak run of the resident caches under never-repeating traffic ({name})"),
        &[
            "requests",
            "mean_us",
            "p50_us",
            "snapshot_bytes",
            "snapshot_entries",
            "evictions",
            "decision_entries",
            "rss_mib",
        ],
    );
    // Per window: (requests so far, p50, evictions, decisions, RSS).
    let mut rows: Vec<(u64, Duration, u64, u64, u64)> = Vec::new();
    let (mut evicted_before, mut checked) = (0u64, 0usize);
    let mut latencies = Vec::with_capacity(window);
    for r in 0..requests as u64 {
        let (q1, q2) = pair(r);
        let body = format!(
            "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":50000}}",
            wire::json_quote(&q1),
            wire::json_quote(&q2)
        );
        let t0 = Instant::now();
        let (status, resp) = client.post("/v1/contains", &body).expect("request");
        latencies.push(t0.elapsed());
        assert_eq!(status, 200, "{resp}");
        if r % check_every == 0 {
            let parse = |text: &str| parse_query(text).expect("generated query parses");
            let local = contains_with(&parse(&q1), &parse(&q2), &opts).expect("same arity");
            assert_eq!(
                wire::nth_verdict(&resp, 0),
                Some(local.verdict().wire_name()),
                "request {r}: {resp}"
            );
            checked += 1;
        }
        if latencies.len() < window && r + 1 < requests as u64 {
            continue;
        }
        let [bytes, entries, evictions, decisions] = scrape_samples(&addr, families);
        let rss = rss_bytes();
        assert!(
            bytes <= cache_bytes as u64,
            "resident snapshot bytes {bytes} over the {cache_bytes}-byte cap"
        );
        let evicted = evictions - evicted_before;
        assert!(
            evicted > 0 || evicted_before == 0,
            "window ending at request {}: no eviction after the cap was crossed",
            r + 1
        );
        evicted_before = evictions;
        let mean = latencies.iter().sum::<Duration>() / latencies.len() as u32;
        latencies.sort();
        let p50 = latencies[latencies.len() / 2];
        latencies.clear();
        t.push(vec![
            (r + 1).to_string(),
            micros(mean),
            micros(p50),
            bytes.to_string(),
            entries.to_string(),
            evicted.to_string(),
            decisions.to_string(),
            format!("{:.1}", rss as f64 / (1 << 20) as f64),
        ]);
        rows.push((r + 1, p50, evicted, decisions, rss));
    }
    drop(client);
    handle.shutdown();
    join.join().expect("server thread").expect("clean drain");

    // Before and after the snapshot cap (every window from the first
    // eviction on evicts); "both full" from the first window in which the
    // decision tier grew by under 1% of a window.
    let capped = rows
        .iter()
        .position(|w| w.2 > 0)
        .unwrap_or_else(|| panic!("{name}: the run never filled its snapshot cap"));
    let median = |v: &[(u64, Duration, u64, u64, u64)]| {
        let mut p50s: Vec<Duration> = v.iter().map(|w| w.1).collect();
        p50s.sort();
        p50s.get(p50s.len() / 2).copied()
    };
    let p50_ratio = match (median(&rows[..capped]), median(&rows[capped..])) {
        (Some(b), Some(a)) => format!(
            "median window p50 {} us before the snapshot cap, {} us after ({:.2}x)",
            micros(b),
            micros(a),
            a.as_secs_f64() / b.as_secs_f64()
        ),
        _ => "the snapshot cap filled within the first window".into(),
    };
    let plateau =
        (1..rows.len()).find(|&i| rows[i].3.saturating_sub(rows[i - 1].3) * 100 < window as u64);
    let slope = |from: Option<usize>| -> String {
        match from {
            Some(i) if i + 1 < rows.len() => {
                let (a, b) = (&rows[i], &rows[rows.len() - 1]);
                format!(
                    "{:.0} B/request over requests {}..{}",
                    (b.4 as f64 - a.4 as f64) / (b.0 - a.0) as f64,
                    a.0,
                    b.0
                )
            }
            _ => "not reached".into(),
        }
    };
    ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "{name}: {requests} never-repeating cold requests over one kept-alive connection, \
             windows of {window}; {checked} sampled verdicts equal contains_with. {p50_ratio}. \
             RSS growth after the snapshot cap: {}; after the decision tier stopped growing: {}.",
            slope(Some(capped)),
            slope(plateau)
        )],
        files: vec![],
    }
}

// ---------------------------------------------------------------------------
// Bounded-vs-naive comparison used by the micro-benches.
// ---------------------------------------------------------------------------

/// Decide with an explicit level bound (for the micro-benches).
pub fn contains_at_bound(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, bound: u32) -> bool {
    contains_with(
        q1,
        q2,
        &ContainmentOptions {
            level_bound: Some(bound),
            max_conjuncts: 2_000_000,
            ..Default::default()
        },
    )
    .expect("arity ok")
    .holds()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pairs_parse_and_hold() {
        for (name, q1, q2) in paper_pairs() {
            assert!(contains(&q1, &q2).unwrap().holds(), "{name}");
        }
    }

    #[test]
    fn sub_chain_ground_truth() {
        assert!(contains(&sub_chain(4), &sub_chain(2)).unwrap().holds());
        assert!(!contains(&sub_chain(2), &sub_chain(4)).unwrap().holds());
    }

    #[test]
    fn cyclic_query_and_probe_agree() {
        let q1 = cyclic_query(2);
        let q2 = pump_probe(2, 3);
        assert!(contains(&q1, &q2).unwrap().holds());
    }

    #[test]
    fn e1_e2_run() {
        let out = e1();
        assert_eq!(out.tables[0].rows.len(), 2);
        let out = e2();
        assert!(out.tables[0].rows.iter().any(|r| r[1] == "(V1, V1)"));
    }

    #[test]
    fn e3_census_is_pump_shaped() {
        let out = e3();
        assert!(out.tables[1].rows.len() >= 5, "several levels materialized");
        assert!(out.notes[0].contains("level 1"));
    }

    #[test]
    fn e4_small_run_has_no_violations() {
        let out = e4(5, 1);
        let rows = &out.tables[0].rows;
        let violations = rows
            .iter()
            .find(|r| r[0] == "database counterexamples")
            .unwrap();
        assert_eq!(violations[1], "0");
        let agree = rows
            .iter()
            .find(|r| r[0] == "naive baseline agreement")
            .unwrap();
        let parts: Vec<&str> = agree[1].split('/').collect();
        assert_eq!(parts[0], parts[1], "full agreement expected");
    }

    #[test]
    fn e7_witness_within_bound() {
        let out = e7();
        for row in &out.tables[0].rows {
            let bound: u32 = row[4].parse().unwrap();
            let level: u32 = row[5].parse().unwrap();
            assert!(level <= bound);
        }
    }
}
