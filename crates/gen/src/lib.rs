//! Seeded random workload generators for queries, query pairs and
//! databases.
//!
//! The paper proves its results rather than measuring them, so the
//! experiment harness needs synthetic workloads that exercise the
//! interesting regimes:
//!
//! * [`random_query`] — random conjunctive meta-queries over `P_FL` with a
//!   configurable predicate mix, variable/constant pools and an optional
//!   injected mandatory/type **cycle** (the Section 4 pattern that makes
//!   the chase infinite);
//! * [`generalize`] — given `q1`, produces a `q2` with a homomorphism
//!   `q2 → body(q1)` *by construction* (atom subset + anti-unification), so
//!   `q1 ⊆ q2` holds classically — positive containment instances;
//! * [`generalize_from_chase`] — like `generalize` but sampling atoms from
//!   `chase⁻(q1)`: the resulting pairs are contained **under `Σ_FL`** but
//!   frequently *not* classically — the paper's headline phenomenon;
//! * [`rename_vars`] / [`permute_body`] / [`add_redundant_atoms`] /
//!   [`mutate_variant`] — equivalence-preserving mutators producing
//!   syntactic variants of a query (same classic core up to isomorphism,
//!   different bytes) — the variant-heavy traffic shape that semantic
//!   cache keys exist for;
//! * [`random_database`] — random ground databases shaped like class
//!   hierarchies with attributes, members and cardinality constraints,
//!   suitable for closing under `Σ_FL` and evaluating queries;
//! * [`random_rule_set`] — random well-formed TGD/EGD constraint sets
//!   over `P_FL`, for exercising the Σ-admission classifier
//!   (`flogic-analysis`) and the E13 experiment: structural safety is
//!   guaranteed by construction, chase-termination is deliberately not.
//!
//! All generators take an explicit seeded RNG (the vendored
//! [`rng::SplitMix64`], re-exported here), so every workload is
//! reproducible from a seed without any registry dependency.

pub use flogic_term::rng;

use flogic_term::rng::{Rng, SliceRandom};

use flogic_chase::chase_minus;
use flogic_model::{Atom, ConjunctiveQuery, Database, Egd, Pred, RuleId, RuleSet, SigmaRule, Tgd};
use flogic_term::{Subst, Symbol, Term};

/// Configuration for [`random_query`].
#[derive(Clone, Debug)]
pub struct QueryGenConfig {
    /// Number of body atoms (before cycle injection).
    pub n_atoms: usize,
    /// Size of the variable pool.
    pub n_vars: usize,
    /// Size of the constant pool (0 ⇒ pure meta-queries, variables only).
    pub n_consts: usize,
    /// Probability that an argument position is a constant (when the
    /// constant pool is non-empty).
    pub const_prob: f64,
    /// Head arity (head terms are drawn from the body's variables).
    pub head_arity: usize,
    /// Relative weight per predicate, indexed by [`Pred::index`]. Zero
    /// disables a predicate.
    pub pred_weights: [u32; 6],
    /// If `Some(k)`, additionally inject a mandatory/type cycle of length
    /// `k` over fresh constants (making the chase infinite, per Section 4).
    pub cycle: Option<usize>,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            n_atoms: 5,
            n_vars: 6,
            n_consts: 3,
            const_prob: 0.3,
            head_arity: 1,
            pred_weights: [3, 3, 2, 3, 2, 1],
            cycle: None,
        }
    }
}

fn pool_var(i: usize) -> Term {
    Term::var(&format!("V{i}"))
}

fn pool_const(i: usize) -> Term {
    Term::constant(&format!("k{i}"))
}

fn pick_pred<R: Rng>(weights: &[u32; 6], rng: &mut R) -> Pred {
    let total: u32 = weights.iter().sum();
    assert!(total > 0, "at least one predicate weight must be positive");
    let mut roll = rng.random_range(0..total as usize) as u32;
    for p in Pred::ALL {
        let w = weights[p.index()];
        if roll < w {
            return p;
        }
        roll -= w;
    }
    unreachable!("weights sum covered")
}

fn pick_term<R: Rng>(cfg: &QueryGenConfig, rng: &mut R) -> Term {
    if cfg.n_consts > 0 && rng.random_bool(cfg.const_prob) {
        pool_const(rng.random_range(0..cfg.n_consts))
    } else {
        pool_var(rng.random_range(0..cfg.n_vars))
    }
}

/// Generates a random conjunctive meta-query.
///
/// The head is drawn from the variables that actually occur in the body,
/// so the result is always safe; the body is never empty.
pub fn random_query<R: Rng>(cfg: &QueryGenConfig, rng: &mut R) -> ConjunctiveQuery {
    assert!(cfg.n_atoms > 0, "queries need at least one atom");
    assert!(cfg.n_vars > 0, "the variable pool must be non-empty");
    let mut body = Vec::with_capacity(cfg.n_atoms);
    for _ in 0..cfg.n_atoms {
        let pred = pick_pred(&cfg.pred_weights, rng);
        let args: Vec<Term> = (0..pred.arity()).map(|_| pick_term(cfg, rng)).collect();
        body.push(Atom::new(pred, &args).expect("arity matches by construction"));
    }
    if let Some(k) = cfg.cycle {
        inject_cycle(&mut body, k);
    }
    // Make sure at least one variable occurs (head needs candidates).
    if body.iter().all(|a| a.vars().next().is_none()) {
        let var = pool_var(0);
        body.push(Atom::member(var, pick_term(cfg, rng)));
    }
    let body_vars: Vec<Term> = {
        let mut vs: Vec<Term> = body.iter().flat_map(Atom::vars).collect();
        vs.sort();
        vs.dedup();
        vs
    };
    let head: Vec<Term> = (0..cfg.head_arity)
        .map(|_| *body_vars.choose(rng).expect("non-empty"))
        .collect();
    ConjunctiveQuery::new(Symbol::intern("q"), head, body)
        .expect("generated queries are valid by construction")
}

/// Appends the Section 4 cycle pattern of length `k`:
/// `mandatory(ai, ti), type(ti, ai, t(i+1 mod k))`.
fn inject_cycle(body: &mut Vec<Atom>, k: usize) {
    assert!(k > 0, "cycle length must be positive");
    let class = |i: usize| Term::constant(&format!("cyc_t{}", i % k));
    let attr = |i: usize| Term::constant(&format!("cyc_a{i}"));
    for i in 0..k {
        body.push(Atom::mandatory(attr(i), class(i)));
        body.push(Atom::typ(class(i), attr(i), class(i + 1)));
    }
}

/// Configuration for [`generalize`] / [`generalize_from_chase`].
#[derive(Clone, Debug)]
pub struct GeneralizeConfig {
    /// Probability of keeping each source atom (at least one is always
    /// kept).
    pub keep_atom_prob: f64,
    /// Probability of replacing an argument occurrence by a fresh variable
    /// (anti-unification).
    pub blur_prob: f64,
}

impl Default for GeneralizeConfig {
    fn default() -> Self {
        GeneralizeConfig {
            keep_atom_prob: 0.7,
            blur_prob: 0.3,
        }
    }
}

fn generalize_atoms<R: Rng>(
    atoms: &[Atom],
    head: &[Term],
    cfg: &GeneralizeConfig,
    rng: &mut R,
) -> ConjunctiveQuery {
    assert!(!atoms.is_empty(), "cannot generalize an empty atom set");

    // Distinct head terms keep a *consistent* image: variables stay
    // themselves; nulls (possible when generalizing from a chase whose
    // head was merged into an invented value) get one dedicated variable.
    // This keeps the witnessing homomorphism h(image) = original-term
    // well defined on the head.
    let mut head_map: Vec<(Term, Term)> = Vec::new();
    for (i, &t) in head.iter().enumerate() {
        if head_map.iter().any(|&(k, _)| k == t) {
            continue;
        }
        let image = if t.is_null() {
            Term::var(&format!("H{i}"))
        } else {
            t
        };
        head_map.push((t, image));
    }
    let head_image = |t: Term| head_map.iter().find(|&&(k, _)| k == t).map(|&(_, v)| v);

    // Choose atoms to keep; every non-constant head term must be witnessed
    // by at least one kept atom (otherwise the result would be unsafe or
    // the head mapping broken), and at least one atom is always kept.
    let mut keep: Vec<bool> = atoms
        .iter()
        .map(|_| rng.random_bool(cfg.keep_atom_prob))
        .collect();
    if !keep.iter().any(|&k| k) {
        let i = rng.random_range(0..atoms.len());
        keep[i] = true;
    }
    for &(t, _) in &head_map {
        if t.is_const() {
            continue;
        }
        let witnessed = atoms
            .iter()
            .zip(&keep)
            .any(|(a, &k)| k && a.args().contains(&t));
        if !witnessed {
            if let Some(i) = atoms.iter().position(|a| a.args().contains(&t)) {
                keep[i] = true;
            }
        }
    }

    // Blur non-head occurrences into fresh variables (anti-unification);
    // nulls must always be blurred — queries cannot contain them. Each
    // fresh variable maps back to the term it replaced, so the witnessing
    // homomorphism exists by construction. Fresh names must avoid the
    // variables already present in the source (a previous generalization
    // round may have introduced `G*` names of its own).
    let used: std::collections::HashSet<Term> = atoms.iter().flat_map(Atom::vars).collect();
    let mut fresh = 0usize;
    let mut next_fresh = move || loop {
        fresh += 1;
        let v = Term::var(&format!("G{fresh}"));
        if !used.contains(&v) {
            return v;
        }
    };
    let mut body = Vec::new();
    for (atom, &k) in atoms.iter().zip(&keep) {
        if !k {
            continue;
        }
        let args: Vec<Term> = atom
            .args()
            .iter()
            .map(|&t| {
                if let Some(image) = head_image(t) {
                    image
                } else if t.is_null() || rng.random_bool(cfg.blur_prob) {
                    next_fresh()
                } else {
                    t
                }
            })
            .collect();
        body.push(Atom::new(atom.pred(), &args).expect("same predicate, same arity"));
    }

    let head: Vec<Term> = head
        .iter()
        .map(|&t| head_image(t).expect("every head term entered the map"))
        .collect();
    ConjunctiveQuery::new(Symbol::intern("qq"), head, body)
        .expect("generalized queries are valid by construction")
}

/// Produces `q2` with a homomorphism `body(q2) → body(q1)` (and
/// `head(q2) → head(q1)`) by construction, so **`q1 ⊆ q2` holds
/// classically** (and a fortiori under `Σ_FL`).
pub fn generalize<R: Rng>(
    q1: &ConjunctiveQuery,
    cfg: &GeneralizeConfig,
    rng: &mut R,
) -> ConjunctiveQuery {
    generalize_atoms(q1.body(), q1.head(), cfg, rng)
}

/// Produces `q2` by generalizing atoms sampled from `chase⁻(q1)` instead of
/// `body(q1)`: by Theorem 4, `q1 ⊆_ΣFL q2` holds by construction, but the
/// sampled atoms may be *derived* conjuncts absent from `body(q1)`, so the
/// classical containment frequently fails — these are the pairs where the
/// meta-level constraints genuinely matter.
///
/// Returns `None` when `chase⁻(q1)` fails (then `q1` is unsatisfiable and
/// every containment holds trivially — not an interesting test pair).
pub fn generalize_from_chase<R: Rng>(
    q1: &ConjunctiveQuery,
    cfg: &GeneralizeConfig,
    rng: &mut R,
) -> Option<ConjunctiveQuery> {
    let chase = chase_minus(q1);
    if chase.is_failed() {
        return None;
    }
    let atoms: Vec<Atom> = chase.conjuncts().map(|(_, a, _)| *a).collect();
    Some(generalize_atoms(&atoms, chase.head(), cfg, rng))
}

/// Fisher–Yates shuffle on a slice (the vendored RNG exposes `choose`
/// but not `shuffle`).
fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

/// Consistently renames every variable of `q` to a fresh shuffled name
/// (`M0`, `M1`, … assigned in random order). The result is isomorphic to
/// `q` — same answers on every database — but shares no variable names
/// with it, so byte-level and name-sensitive cache keys miss while
/// canonical keys hit.
pub fn rename_vars<R: Rng>(q: &ConjunctiveQuery, rng: &mut R) -> ConjunctiveQuery {
    let vars: Vec<Term> = q.vars().into_iter().collect();
    let mut slots: Vec<usize> = (0..vars.len()).collect();
    shuffle(&mut slots, rng);
    let mut s = Subst::new();
    for (v, slot) in vars.iter().zip(slots) {
        s.bind(*v, Term::var(&format!("M{slot}")));
    }
    q.apply(&s)
}

/// Randomly permutes the body conjuncts of `q` (the head is untouched —
/// its order is semantically fixed). Conjunction is commutative, so the
/// result is equivalent to `q`.
pub fn permute_body<R: Rng>(q: &ConjunctiveQuery, rng: &mut R) -> ConjunctiveQuery {
    let mut body = q.body().to_vec();
    shuffle(&mut body, rng);
    ConjunctiveQuery::new(q.name(), q.head().to_vec(), body)
        .expect("permuting conjuncts preserves well-formedness")
}

/// Appends `n` redundant atoms to `q`: each is a copy of a random
/// existing body atom with each argument independently blurred to a
/// fresh variable (probability ½, and at least one argument is always
/// blurred so the copy is never a literal duplicate). Every copy folds
/// back onto its source atom by mapping the fresh variables to the terms
/// they replaced, so `q`'s classic core — and hence every containment
/// verdict — is unchanged, while the literal body grows.
pub fn add_redundant_atoms<R: Rng>(
    q: &ConjunctiveQuery,
    n: usize,
    rng: &mut R,
) -> ConjunctiveQuery {
    let used: std::collections::HashSet<Term> = q.body().iter().flat_map(Atom::vars).collect();
    let mut fresh = 0usize;
    let mut next_fresh = move || loop {
        fresh += 1;
        let v = Term::var(&format!("F{fresh}"));
        if !used.contains(&v) {
            return v;
        }
    };
    let mut body = q.body().to_vec();
    for _ in 0..n {
        let source = *q.body().choose(rng).expect("bodies are never empty");
        let mut args: Vec<Term> = source.args().to_vec();
        let forced = rng.random_range(0..args.len());
        for (i, arg) in args.iter_mut().enumerate() {
            if i == forced || rng.random_bool(0.5) {
                *arg = next_fresh();
            }
        }
        body.push(Atom::new(source.pred(), &args).expect("same predicate, same arity"));
    }
    ConjunctiveQuery::new(q.name(), q.head().to_vec(), body)
        .expect("redundant atoms never touch the head")
}

/// A composite syntactic variant of `q`: one or two redundant atoms,
/// then a consistent random renaming, then a body permutation. The
/// result is classically equivalent to `q` (identical classic core up to
/// isomorphism) but differs from it in every byte-level and structural
/// respect — the adversarial traffic shape semantic cache keys exist
/// for.
pub fn mutate_variant<R: Rng>(q: &ConjunctiveQuery, rng: &mut R) -> ConjunctiveQuery {
    let n = 1 + rng.random_range(0..2);
    let q = add_redundant_atoms(q, n, rng);
    let q = rename_vars(&q, rng);
    permute_body(&q, rng)
}

/// Configuration for [`random_database`].
#[derive(Clone, Debug)]
pub struct DbGenConfig {
    /// Number of classes in the hierarchy.
    pub n_classes: usize,
    /// Number of objects.
    pub n_objects: usize,
    /// Number of attributes.
    pub n_attrs: usize,
    /// Number of `sub` edges (drawn upward, acyclic).
    pub n_sub_edges: usize,
    /// Number of `member` facts.
    pub n_members: usize,
    /// Number of `type` facts.
    pub n_types: usize,
    /// Number of `data` facts.
    pub n_data: usize,
    /// Number of `mandatory` facts.
    pub n_mandatory: usize,
    /// Number of `funct` facts.
    pub n_funct: usize,
}

impl Default for DbGenConfig {
    fn default() -> Self {
        DbGenConfig {
            n_classes: 6,
            n_objects: 8,
            n_attrs: 4,
            n_sub_edges: 5,
            n_members: 8,
            n_types: 5,
            n_data: 8,
            n_mandatory: 2,
            n_funct: 2,
        }
    }
}

/// Generates a random ground database shaped like an object-oriented
/// schema: an *acyclic* `sub` hierarchy (edges point from lower-numbered to
/// higher-numbered classes), members, attribute types, data values and a
/// few cardinality constraints.
///
/// The result is generally *not* closed under `Σ_FL`; close it with
/// `flogic_datalog::close_database`. Acyclicity of `sub` plus class-level
/// `type` targets keeps most instances finitely closable (mandatory cycles
/// can still arise and are reported by the closure as budget exhaustion).
pub fn random_database<R: Rng>(cfg: &DbGenConfig, rng: &mut R) -> Database {
    let class = |i: usize| Term::constant(&format!("c{i}"));
    let obj = |i: usize| Term::constant(&format!("o{i}"));
    let attr = |i: usize| Term::constant(&format!("a{i}"));
    let mut db = Database::new();
    let add = |db: &mut Database, a: Atom| {
        db.insert(a).expect("generated facts are ground");
    };
    assert!(cfg.n_classes >= 2 && cfg.n_objects >= 1 && cfg.n_attrs >= 1);
    for _ in 0..cfg.n_sub_edges {
        let lo = rng.random_range(0..cfg.n_classes - 1);
        let hi = rng.random_range(lo + 1..cfg.n_classes);
        add(&mut db, Atom::sub(class(lo), class(hi)));
    }
    for _ in 0..cfg.n_members {
        add(
            &mut db,
            Atom::member(
                obj(rng.random_range(0..cfg.n_objects)),
                class(rng.random_range(0..cfg.n_classes)),
            ),
        );
    }
    for _ in 0..cfg.n_types {
        add(
            &mut db,
            Atom::typ(
                class(rng.random_range(0..cfg.n_classes)),
                attr(rng.random_range(0..cfg.n_attrs)),
                class(rng.random_range(0..cfg.n_classes)),
            ),
        );
    }
    for _ in 0..cfg.n_data {
        add(
            &mut db,
            Atom::data(
                obj(rng.random_range(0..cfg.n_objects)),
                attr(rng.random_range(0..cfg.n_attrs)),
                obj(rng.random_range(0..cfg.n_objects)),
            ),
        );
    }
    for _ in 0..cfg.n_mandatory {
        add(
            &mut db,
            Atom::mandatory(
                attr(rng.random_range(0..cfg.n_attrs)),
                class(rng.random_range(0..cfg.n_classes)),
            ),
        );
    }
    for _ in 0..cfg.n_funct {
        add(
            &mut db,
            Atom::funct(
                attr(rng.random_range(0..cfg.n_attrs)),
                class(rng.random_range(0..cfg.n_classes)),
            ),
        );
    }
    db
}

/// Configuration for [`random_rule_set`].
#[derive(Clone, Debug)]
pub struct SigmaGenConfig {
    /// Number of rules in the set.
    pub n_rules: usize,
    /// Size of the per-rule variable pool.
    pub n_vars: usize,
    /// Body atoms per rule are drawn uniformly from `1..=max_body_atoms`.
    pub max_body_atoms: usize,
    /// Probability that a rule is an EGD (both equated sides are body
    /// variables, so generated EGDs are always safe).
    pub egd_prob: f64,
    /// Probability that a TGD head gets one fresh, existentially
    /// quantified variable in a random argument position.
    pub existential_prob: f64,
    /// Relative weight per predicate, indexed by [`Pred::index`]. Zero
    /// disables a predicate.
    pub pred_weights: [u32; 6],
}

impl Default for SigmaGenConfig {
    fn default() -> Self {
        SigmaGenConfig {
            n_rules: 6,
            n_vars: 4,
            max_body_atoms: 3,
            egd_prob: 0.15,
            existential_prob: 0.35,
            pred_weights: [3, 3, 2, 3, 2, 1],
        }
    }
}

/// A variable in the reserved `#`-prefixed rule namespace, mirroring how
/// the built-in `Σ_FL` names its variables so generated rules can never
/// capture query variables.
fn rule_var(i: usize) -> Term {
    Term::var(&format!("#G{i}"))
}

/// Generates a random, *well-formed* TGD/EGD rule set over the `P_FL`
/// schema.
///
/// Well-formed means structurally safe by construction — every head and
/// EGD variable occurs in the body, except at most one existential head
/// variable per TGD — so the only thing deciding admissibility is the
/// chase-termination classification (`flogic-analysis`'s `FL012`–`FL014`):
/// generated sets exercise the *classifier*, not the translator. Whether a
/// given seed yields an admitted or a rejected set is therefore a property
/// of its dependency structure, which is exactly what property tests and
/// the E13 experiment want to sample.
pub fn random_rule_set<R: Rng>(cfg: &SigmaGenConfig, rng: &mut R) -> RuleSet {
    assert!(cfg.n_rules > 0, "rule sets need at least one rule");
    assert!(cfg.n_vars > 0, "the variable pool must be non-empty");
    assert!(cfg.max_body_atoms > 0, "bodies are never empty");
    let mut rules = Vec::with_capacity(cfg.n_rules);
    for i in 0..cfg.n_rules {
        let id = RuleId::Custom(u16::try_from(i).expect("rule count fits u16"));
        let n_atoms = rng.random_range(0..cfg.max_body_atoms) + 1;
        let mut body = Vec::with_capacity(n_atoms);
        for _ in 0..n_atoms {
            let pred = pick_pred(&cfg.pred_weights, rng);
            let args: Vec<Term> = (0..pred.arity())
                .map(|_| rule_var(rng.random_range(0..cfg.n_vars)))
                .collect();
            body.push(Atom::new(pred, &args).expect("arity matches by construction"));
        }
        let body_vars: Vec<Term> = {
            let mut vs: Vec<Term> = body.iter().flat_map(Atom::vars).collect();
            vs.sort();
            vs.dedup();
            vs
        };
        if rng.random_bool(cfg.egd_prob) {
            rules.push(SigmaRule::Egd(Egd {
                id,
                left: *body_vars.choose(rng).expect("non-empty body"),
                right: *body_vars.choose(rng).expect("non-empty body"),
                body,
            }));
            continue;
        }
        let head_pred = pick_pred(&cfg.pred_weights, rng);
        let mut head_args: Vec<Term> = (0..head_pred.arity())
            .map(|_| *body_vars.choose(rng).expect("non-empty body"))
            .collect();
        let mut existential = None;
        if rng.random_bool(cfg.existential_prob) {
            let fresh = Term::var(&format!("#E{i}"));
            let slot = rng.random_range(0..head_args.len());
            head_args[slot] = fresh;
            existential = Some(fresh);
        }
        rules.push(SigmaRule::Tgd(Tgd {
            id,
            body,
            head: Atom::new(head_pred, &head_args).expect("arity matches by construction"),
            existential,
        }));
    }
    RuleSet::new("generated", rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_term::rng::SplitMix64;

    fn rng(seed: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(seed)
    }

    #[test]
    fn random_queries_are_valid_and_sized() {
        let cfg = QueryGenConfig {
            n_atoms: 7,
            head_arity: 2,
            ..Default::default()
        };
        for seed in 0..50 {
            let q = random_query(&cfg, &mut rng(seed));
            assert!(q.size() >= 7);
            assert_eq!(q.arity(), 2);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = QueryGenConfig::default();
        let a = random_query(&cfg, &mut rng(42));
        let b = random_query(&cfg, &mut rng(42));
        assert_eq!(a, b);
        let c = random_query(&cfg, &mut rng(43));
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn cycle_injection_creates_infinite_chase_potential() {
        use flogic_chase::has_infinite_chase_potential;
        let cfg = QueryGenConfig {
            cycle: Some(3),
            ..Default::default()
        };
        let q = random_query(&cfg, &mut rng(7));
        assert!(has_infinite_chase_potential(q.body()));
    }

    #[test]
    fn generalize_yields_classically_contained_pair() {
        use flogic_hom::{find_hom, Target};
        let cfg = QueryGenConfig {
            n_atoms: 6,
            head_arity: 1,
            ..Default::default()
        };
        let gcfg = GeneralizeConfig::default();
        for seed in 0..30 {
            let q1 = random_query(&cfg, &mut rng(seed));
            let q2 = generalize(&q1, &gcfg, &mut rng(seed + 1000));
            // Chandra–Merlin witness must exist.
            let target = Target::from_query(&q1);
            let hom = find_hom(q2.body(), q2.head(), &target, q1.head());
            assert!(hom.is_some(), "seed {seed}: no hom from {q2} into {q1}");
        }
    }

    #[test]
    fn generalize_from_chase_produces_valid_queries() {
        let cfg = QueryGenConfig {
            n_atoms: 5,
            head_arity: 1,
            ..Default::default()
        };
        let gcfg = GeneralizeConfig::default();
        let mut produced = 0;
        for seed in 0..30 {
            let q1 = random_query(&cfg, &mut rng(seed));
            if let Some(q2) = generalize_from_chase(&q1, &gcfg, &mut rng(seed + 2000)) {
                produced += 1;
                assert!(q2.size() >= 1);
            }
        }
        assert!(produced > 20, "most seeds should produce a pair");
    }

    #[test]
    fn mutators_preserve_the_classic_core() {
        use flogic_hom::classic_core;
        let cfg = QueryGenConfig {
            n_atoms: 5,
            head_arity: 1,
            ..Default::default()
        };
        for seed in 0..30 {
            let q = random_query(&cfg, &mut rng(seed));
            let core_size = classic_core(&q).size();
            let renamed = rename_vars(&q, &mut rng(seed + 100));
            assert_eq!(classic_core(&renamed).size(), core_size, "seed {seed}");
            assert_eq!(renamed.size(), q.size());
            let permuted = permute_body(&q, &mut rng(seed + 200));
            assert_eq!(classic_core(&permuted).size(), core_size, "seed {seed}");
            let padded = add_redundant_atoms(&q, 2, &mut rng(seed + 300));
            assert_eq!(padded.size(), q.size() + 2);
            assert_eq!(
                classic_core(&padded).size(),
                core_size,
                "seed {seed}: redundant atoms must fold back into the core"
            );
            let variant = mutate_variant(&q, &mut rng(seed + 400));
            assert!(variant.size() > q.size());
            assert_eq!(classic_core(&variant).size(), core_size, "seed {seed}");
        }
    }

    #[test]
    fn mutators_are_deterministic_per_seed_and_change_spelling() {
        let cfg = QueryGenConfig::default();
        let q = random_query(&cfg, &mut rng(5));
        let a = mutate_variant(&q, &mut rng(77));
        let b = mutate_variant(&q, &mut rng(77));
        assert_eq!(a, b);
        let c = mutate_variant(&q, &mut rng(78));
        assert_ne!(a, c, "different seeds should (almost surely) differ");
        // A renaming never reuses the original spelling wholesale.
        let renamed = rename_vars(&q, &mut rng(9));
        assert_ne!(q, renamed);
        assert!(q.vars().iter().all(|v| !renamed.vars().contains(v)));
    }

    #[test]
    fn random_databases_are_ground_and_sized() {
        let cfg = DbGenConfig::default();
        for seed in 0..20 {
            let db = random_database(&cfg, &mut rng(seed));
            assert!(!db.is_empty());
            assert!(db.iter().all(|a| a.is_ground()));
        }
    }

    #[test]
    fn random_rule_sets_are_well_formed() {
        let cfg = SigmaGenConfig::default();
        for seed in 0..100 {
            let set = random_rule_set(&cfg, &mut rng(seed));
            assert_eq!(set.len(), cfg.n_rules);
            for rule in set.rules() {
                let body_vars: Vec<Term> = rule.body().iter().flat_map(Atom::vars).collect();
                match rule {
                    SigmaRule::Egd(e) => {
                        assert!(body_vars.contains(&e.left));
                        assert!(body_vars.contains(&e.right));
                    }
                    SigmaRule::Tgd(t) => {
                        for v in t.head.vars() {
                            assert!(
                                body_vars.contains(&v) || t.existential == Some(v),
                                "head variable {v} neither in body nor existential"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rule_set_generation_is_deterministic_per_seed() {
        let cfg = SigmaGenConfig::default();
        let a = random_rule_set(&cfg, &mut rng(11));
        let b = random_rule_set(&cfg, &mut rng(11));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = random_rule_set(&cfg, &mut rng(12));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn generated_sets_are_never_sigma_fl() {
        // Σ_FL has a very specific 12-rule structure; random sets should
        // never collide with it (and must say so via `is_sigma_fl`).
        let cfg = SigmaGenConfig {
            n_rules: 12,
            ..Default::default()
        };
        for seed in 0..50 {
            assert!(!random_rule_set(&cfg, &mut rng(seed)).is_sigma_fl());
        }
    }

    #[test]
    fn random_database_sub_hierarchy_is_acyclic() {
        use flogic_model::Pred;
        let cfg = DbGenConfig {
            n_sub_edges: 12,
            ..Default::default()
        };
        let db = random_database(&cfg, &mut rng(9));
        // Edges go from c_i to c_j with i < j: topological by construction.
        for a in db.pred_facts(Pred::Sub) {
            let lo: usize = a.arg(0).to_string()[1..].parse().unwrap();
            let hi: usize = a.arg(1).to_string()[1..].parse().unwrap();
            assert!(lo < hi);
        }
    }
}
