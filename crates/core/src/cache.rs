//! Containment-decision caching keyed by canonical query pairs.
//!
//! Deciding `q1 ⊆_ΣFL q2` is expensive (a bounded chase plus a
//! backtracking homomorphism search), while real workloads — query
//! minimisation, union checks, many users asking about syntactic variants
//! of the same schema queries — keep asking *semantically identical*
//! questions. [`DecisionCache`] memoizes verdicts under a **semantic
//! canonical form**: the classic core ([`flogic_hom::classic_core`])
//! under a deterministic total variable/atom ordering. Renamed variables,
//! permuted conjuncts and redundant (core-foldable) atoms all land on the
//! same entry, because classically equivalent queries answer every
//! Σ-containment question alike (equivalent queries have identical
//! answers on every database, hence on every model of Σ).
//!
//! The total ordering replaces an earlier greedy pass whose tie-breaking
//! fell back to input order, so isomorphic queries could get distinct
//! keys. The new pass backtracks over tied choices and emits the
//! lexicographically least complete encoding; for any two isomorphic
//! queries within the (deterministic) search budget the encodings are
//! equal, so equal keys are now both sound *and* — up to the budget —
//! complete: equal keys always mean equivalent queries, and equivalent
//! queries get equal keys unless a pathologically symmetric body exhausts
//! [`CANON_NODE_BUDGET`], in which case the pass degrades to the greedy
//! choice and the only cost is a possible extra recomputation, never a
//! wrong answer.
//!
//! Canonicalization is governed by [`ContainmentOptions::canon`]
//! (default on; `flqd` exposes `--no-canon`): with it off, keys use the
//! structural form only (no core), reproducing the pre-semantic
//! behaviour. Truncated runs (an explicit level bound *below* the
//! Theorem 12 bound) always key structurally with their effective bound —
//! their verdicts answer a bound-dependent question about the literal
//! query, not its core, and must never be replayed across bounds.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::{LazyLock, Mutex};

use flogic_hom::classic_core;
use flogic_model::{Atom, ConjunctiveQuery, Pred};
use flogic_term::{Symbol, Term};

use crate::decide::{
    contains_batch, contains_with, derived_bound, ContainmentOptions, ContainmentResult,
};
use crate::CoreError;

/// A term in canonical form: variables are replaced by their
/// first-occurrence index (head first, then the canonically ordered
/// body), everything else is kept verbatim.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum CanonTerm {
    /// A rigid constant, by name.
    Const(Symbol),
    /// A labelled null (cannot appear in well-formed queries, but the
    /// canonicalization is total anyway), by id.
    Null(u64),
    /// A variable, by first-occurrence index.
    Var(u32),
}

/// A query in canonical form. Two queries with equal `CanonQuery`s are
/// identical up to variable renaming and body-conjunct order, hence
/// `Σ_FL`-equivalent — they answer every containment question alike.
///
/// It carries a hash of its content, computed once when it is built, and
/// [`Hash`] writes only that word. The decision and snapshot caches key
/// on canonical queries and grow by doubling; a rehash then reads one
/// word per entry instead of walking every key's scattered head, body
/// and argument vectors. That walk cost ~1.5–3 µs per resident entry on
/// a 2-vCPU VM: under never-repeated traffic, the request that grew both
/// tables past 14 336 entries stalled for ~60 ms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct CanonQuery {
    hash: u64,
    pub(crate) head: Vec<CanonTerm>,
    pub(crate) body: Vec<(Pred, Vec<CanonTerm>)>,
}

/// The keys of [`CanonQuery`]'s content hash, drawn once per process so
/// that clients cannot craft queries whose hashes collide.
static CANON_HASH_KEYS: LazyLock<RandomState> = LazyLock::new(RandomState::new);

impl CanonQuery {
    fn new(head: Vec<CanonTerm>, body: Vec<(Pred, Vec<CanonTerm>)>) -> CanonQuery {
        CanonQuery {
            hash: CANON_HASH_KEYS.hash_one((&head, &body)),
            head,
            body,
        }
    }
}

impl Hash for CanonQuery {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Ordering key for an atom *under a partial variable numbering*:
/// constants sort by name, numbered variables by their number, and
/// not-yet-numbered variables by their first-occurrence pattern within
/// the atom (so `sub(U, U)` and `sub(U, V)` stay distinguishable).
/// Derived `Ord` puts `Const < Null < Var < Fresh`, which mirrors how the
/// terms compare once the fresh variables are numbered: freshly numbered
/// variables always receive indices above every already-numbered one, so
/// minimising `atom_key`s is the same as minimising emitted encodings.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum KeyTerm {
    Const(&'static str),
    Null(u64),
    Var(u32),
    Fresh(u32),
}

/// An atom encoded under a *complete* numbering (no `Fresh` inside):
/// one entry of the canonical encoding the search minimises.
type EncodedAtom = (usize, Vec<KeyTerm>);

fn atom_key(atom: &Atom, numbering: &HashMap<Symbol, u32>) -> EncodedAtom {
    let mut local: HashMap<Symbol, u32> = HashMap::new();
    let args = atom
        .args()
        .iter()
        .map(|t| match t {
            Term::Const(s) => KeyTerm::Const(s.as_str()),
            Term::Null(n) => KeyTerm::Null(n.0),
            Term::Var(v) => match numbering.get(v) {
                Some(&n) => KeyTerm::Var(n),
                None => {
                    let next = local.len() as u32;
                    KeyTerm::Fresh(*local.entry(*v).or_insert(next))
                }
            },
        })
        .collect();
    (atom.pred().index(), args)
}

/// Numbers an atom's variables into `numbering` (extending it with fresh
/// indices in argument order) and returns the fully-numbered encoding.
fn number_atom(atom: &Atom, numbering: &mut HashMap<Symbol, u32>) -> EncodedAtom {
    let args = atom
        .args()
        .iter()
        .map(|t| match t {
            Term::Const(s) => KeyTerm::Const(s.as_str()),
            Term::Null(n) => KeyTerm::Null(n.0),
            Term::Var(v) => {
                let next = numbering.len() as u32;
                KeyTerm::Var(*numbering.entry(*v).or_insert(next))
            }
        })
        .collect();
    (atom.pred().index(), args)
}

/// Cap on the number of *extra* branches (beyond the greedy first choice)
/// the tie-backtracking search may explore per query. Real queries hit a
/// handful of ties at most; the cap only bites on pathologically
/// symmetric bodies, where the pass deterministically degrades to the
/// greedy choice for the branches it cannot afford — costing at worst a
/// cache miss, never a wrong hit.
const CANON_NODE_BUDGET: usize = 512;

/// Backtracking search for the lexicographically least body encoding.
///
/// Each round computes every remaining atom's [`atom_key`] **once**
/// (the earlier greedy pass rebuilt both sides' keys inside every
/// `min_by` comparison — O(n³) key builds on wide bodies; this is O(n²)
/// plus whatever tie branches the budget admits). Because `atom_key`
/// ordering agrees with emitted-encoding ordering (see [`KeyTerm`]), the
/// minimal-key atoms are exactly the candidates for the least encoding's
/// next entry, so restricting branching to them loses nothing.
struct CanonSearch<'a> {
    atoms: &'a [Atom],
    budget: usize,
}

impl CanonSearch<'_> {
    /// The emission order (indices into `self.atoms`) of the least
    /// encoding reachable within budget, starting from `numbering`.
    fn emission_order(mut self, numbering: &HashMap<Symbol, u32>) -> Vec<usize> {
        let remaining: Vec<usize> = (0..self.atoms.len()).collect();
        self.search(&remaining, numbering).1
    }

    fn search(
        &mut self,
        remaining: &[usize],
        numbering: &HashMap<Symbol, u32>,
    ) -> (Vec<EncodedAtom>, Vec<usize>) {
        if remaining.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let keys: Vec<EncodedAtom> = remaining
            .iter()
            .map(|&i| atom_key(&self.atoms[i], numbering))
            .collect();
        let min = keys.iter().min().expect("remaining is non-empty");
        // Tied positions, deduplicated: literally identical atoms lead to
        // identical states, so exploring one of them suffices.
        let mut tied: Vec<usize> = Vec::new();
        for (pos, key) in keys.iter().enumerate() {
            if key == min
                && !tied
                    .iter()
                    .any(|&p| self.atoms[remaining[p]] == self.atoms[remaining[pos]])
            {
                tied.push(pos);
            }
        }
        let take = tied.len().min(self.budget + 1);
        self.budget -= take - 1;
        let mut best: Option<(Vec<EncodedAtom>, Vec<usize>)> = None;
        for &pos in &tied[..take] {
            let idx = remaining[pos];
            let mut extended = numbering.clone();
            let entry = number_atom(&self.atoms[idx], &mut extended);
            let rest: Vec<usize> = remaining.iter().copied().filter(|&j| j != idx).collect();
            let (tail, order) = self.search(&rest, &extended);
            let mut enc = Vec::with_capacity(tail.len() + 1);
            enc.push(entry);
            enc.extend(tail);
            let better = match &best {
                None => true,
                Some((b, _)) => enc < *b,
            };
            if better {
                let mut ord = Vec::with_capacity(order.len() + 1);
                ord.push(idx);
                ord.extend(order);
                best = Some((enc, ord));
            }
        }
        best.expect("at least one branch explored")
    }
}

fn assign(t: &Term, numbering: &mut HashMap<Symbol, u32>) -> CanonTerm {
    match t {
        Term::Const(s) => CanonTerm::Const(*s),
        Term::Null(n) => CanonTerm::Null(n.0),
        Term::Var(v) => {
            let next = numbering.len() as u32;
            CanonTerm::Var(*numbering.entry(*v).or_insert(next))
        }
    }
}

/// Computes the *structural* canonical form: number the head variables in
/// head order (the head is the one part of a query whose order is
/// semantically fixed), then emit body atoms in the order found by
/// [`CanonSearch`], extending the numbering with each emitted atom's
/// fresh variables. Also returns the emission order (indices into
/// `q.body()`) and the final variable numbering, so callers can rebuild a
/// real [`ConjunctiveQuery`] in canonical shape.
fn canonicalize_full(q: &ConjunctiveQuery) -> (CanonQuery, Vec<usize>, HashMap<Symbol, u32>) {
    let mut numbering: HashMap<Symbol, u32> = HashMap::new();
    let head = q.head().iter().map(|t| assign(t, &mut numbering)).collect();
    let order = CanonSearch {
        atoms: q.body(),
        budget: CANON_NODE_BUDGET,
    }
    .emission_order(&numbering);
    let mut body = Vec::with_capacity(order.len());
    for &i in &order {
        let atom = &q.body()[i];
        body.push((
            atom.pred(),
            atom.args()
                .iter()
                .map(|t| assign(t, &mut numbering))
                .collect(),
        ));
    }
    (CanonQuery::new(head, body), order, numbering)
}

fn canonicalize(q: &ConjunctiveQuery) -> CanonQuery {
    canonicalize_full(q).0
}

/// The semantic half of a cache key: the canonicalized classic core plus
/// the core's size.
fn semantic_parts(q: &ConjunctiveQuery) -> (CanonQuery, usize) {
    let core = classic_core(q);
    (canonicalize(&core), core.size())
}

/// The semantic canonical representative of `q` as a real query: the
/// classic core with canonical variable names (`C0`, `C1`, … in canonical
/// numbering order) and body atoms in canonical emission order. The query
/// name is preserved (containment ignores it).
///
/// Every query in an equivalence class maps to the *same* representative
/// (up to the search budget, see the module docs), so deciding on the
/// representative instead of the original makes *everything* downstream —
/// decision-cache keys, chase-snapshot keys, derived level bounds —
/// agree across syntactic variants. This is how `flqd` unifies variant
/// traffic: it substitutes the representatives up front and runs the
/// whole decision stack on them.
///
/// ```
/// use flogic_core::canonical_query;
/// use flogic_syntax::parse_query;
/// let a = parse_query("q(X) :- member(X, C), sub(C, D).").unwrap();
/// // Renamed, reordered, and with a redundant (core-foldable) copy.
/// let b = parse_query("q(U) :- sub(K, L), member(U, K), member(U, M), sub(M, N).").unwrap();
/// assert_eq!(canonical_query(&a), canonical_query(&b));
/// ```
pub fn canonical_query(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let core = classic_core(q);
    let (_, order, numbering) = canonicalize_full(&core);
    let rename = |t: &Term| match t {
        Term::Var(v) => Term::var(&format!("C{}", numbering[v])),
        other => *other,
    };
    let head: Vec<Term> = core.head().iter().map(rename).collect();
    let body: Vec<Atom> = order
        .iter()
        .map(|&i| {
            let a = &core.body()[i];
            let args: Vec<Term> = a.args().iter().map(rename).collect();
            Atom::new(a.pred(), &args).expect("renaming preserves arity")
        })
        .collect();
    ConjunctiveQuery::new(core.name(), head, body)
        .expect("canonical renaming preserves well-formedness")
}

/// The canonical representatives of a pair, when substituting them is
/// sound for the run `opts` describes: [`ContainmentOptions::canon`] must
/// be on and the run must be *exact* (no explicit level bound below the
/// bound derived from the original sizes). Returns `None` otherwise —
/// truncated runs answer a bound-dependent question about the literal
/// queries, so their inputs must be left alone.
///
/// On `Some((c1, c2))`, deciding `c1 ⊆ c2` under the bound derived from
/// the *core* sizes gives the same verdict as the original pair under its
/// own derived bound: classically equivalent queries have identical
/// answers on every model of Σ, and Theorem 12 applied to the core pair
/// is complete for that question.
pub fn canonical_pair(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Option<(ConjunctiveQuery, ConjunctiveQuery)> {
    if !opts.canon {
        return None;
    }
    let derived = derived_bound(opts, q1.size(), q2.size());
    if opts.level_bound.is_some_and(|b| b < derived) {
        return None;
    }
    Some((canonical_query(q1), canonical_query(q2)))
}

/// An opaque, hashable canonical key for a single query.
///
/// [`QueryKey::of`] is the *semantic* key (classic core + total
/// ordering): equal keys mean classically equivalent queries, which
/// answer every `Σ`-containment question alike. [`QueryKey::structural`]
/// skips the core: equal keys mean identical up to variable renaming and
/// body-conjunct order only.
///
/// This is the per-query half of the [`DecisionCache`] key, exported so
/// resident services can key *their own* caches with the same discipline
/// (the `flqd` snapshot cache keys chase snapshots structurally, because
/// the server substitutes [`canonical_query`] representatives up front).
///
/// ```
/// use flogic_core::QueryKey;
/// use flogic_syntax::parse_query;
/// let a = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
/// let b = parse_query("p(A, C) :- sub(B, C), sub(A, B).").unwrap();
/// assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
/// // A redundant atom folds into the core, so the semantic keys agree …
/// let c = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z), sub(X, W), sub(W, Z).").unwrap();
/// assert_eq!(QueryKey::of(&a), QueryKey::of(&c));
/// // … while the structural keys (no core) see different bodies.
/// assert_ne!(QueryKey::structural(&a), QueryKey::structural(&c));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QueryKey(CanonQuery);

impl QueryKey {
    /// The semantic canonical key of `q`: its classic core under the
    /// deterministic total ordering. Invariant under renaming, body
    /// permutation, and redundant-atom insertion.
    pub fn of(q: &ConjunctiveQuery) -> QueryKey {
        QueryKey(semantic_parts(q).0)
    }

    /// The structural canonical key of `q`: the total ordering without
    /// core reduction. Invariant under renaming and body permutation
    /// only — redundant atoms stay part of the key. Use this when the
    /// keyed artifact depends on the query's literal body (e.g. a chase
    /// built to a bound derived from `q`'s size).
    pub fn structural(q: &ConjunctiveQuery) -> QueryKey {
        QueryKey(canonicalize(q))
    }
}

/// Cache key: a canonical pair plus a level bound, the analysis toggle
/// and the rule-set fingerprint.
///
/// Two key shapes share the table, told apart by their `bound`:
///
/// * **Exact, semantic** (canon on, no truncating explicit bound): `q1`
///   and `q2` are the canonicalized *cores*, and `bound` is re-derived
///   from the **core** sizes — so every variant with the same cores lands
///   on one key even though the variants' own sizes (hence their own
///   Theorem 12 bounds) differ.
/// * **Structural** (canon off, or an explicit bound below the derived
///   one): `q1`/`q2` are the structural forms of the literal queries and
///   `bound` is the *effective* bound `min(requested, derived)`. An
///   explicit bound below the derived one makes the procedure sound but
///   incomplete, so its verdicts answer a *different question* and must
///   never be replayed for an exact call. Clamping at the derived bound
///   also makes all *sufficient* bounds share one entry.
///
/// The shapes cannot collide wrongly: if a structural key ever equals a
/// semantic key, the structural query *is* (isomorphic to) a core, so the
/// bound derived from its own sizes equals the semantic entry's
/// core-derived bound — and then either the structural entry is an exact
/// canon-off entry asking the very same question (sharing is a correct
/// bonus hit), or it is truncated and its strictly smaller bound keeps
/// the entries apart.
///
/// The analysis toggle is in the key because the fast path, while
/// verdict-identical, reports different run metadata
/// (`decided_by_analysis`, zero chase conjuncts) — replaying one mode's
/// entry for the other would misreport how the decision was made.
///
/// `max_conjuncts`, `threads` and the budget are deliberately *not* in
/// the key: they never change a decided verdict (exhausted results are
/// never cached, so a tight budget cannot poison later generous calls).
///
/// The active rule set *is* in the key, by its canonical (renaming- and
/// name-invariant) fingerprint: verdicts under different Σ are answers to
/// different questions. A structurally-`Σ_FL` custom set shares the
/// built-in set's fingerprint, so it also shares its cache entries —
/// consistent with it sharing the built-in code paths everywhere else.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct CacheKey {
    pub(crate) q1: CanonQuery,
    pub(crate) q2: CanonQuery,
    pub(crate) bound: u32,
    pub(crate) analysis: bool,
    pub(crate) sigma: u64,
}

/// The cache key a [`DecisionCache`] lookup would use for `(q1, q2)`
/// under `opts` — exposed crate-internally so the persistence codec
/// ([`crate::decision_key_bytes`]) serializes *exactly* the key the
/// in-RAM tier hashes, shapes and all.
pub(crate) fn pair_cache_key(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> CacheKey {
    PairKeyer::new(opts).key(q1, q2)
}

/// Builds [`CacheKey`]s for one `q1` against one or many `q2`s, computing
/// each canonical form of `q1` at most once (the batch path shares it
/// across the whole batch).
struct PairKeyer<'a> {
    opts: &'a ContainmentOptions,
    sigma: u64,
    structural_q1: Option<CanonQuery>,
    semantic_q1: Option<(CanonQuery, usize)>,
}

impl<'a> PairKeyer<'a> {
    fn new(opts: &'a ContainmentOptions) -> PairKeyer<'a> {
        PairKeyer {
            opts,
            sigma: opts.sigma.fingerprint(),
            structural_q1: None,
            semantic_q1: None,
        }
    }

    fn key(&mut self, q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> CacheKey {
        let derived = derived_bound(self.opts, q1.size(), q2.size());
        let effective = self.opts.level_bound.map_or(derived, |b| b.min(derived));
        if self.opts.canon && effective == derived {
            let (c1, s1) = self
                .semantic_q1
                .get_or_insert_with(|| semantic_parts(q1))
                .clone();
            let (c2, s2) = semantic_parts(q2);
            CacheKey {
                q1: c1,
                q2: c2,
                bound: derived_bound(self.opts, s1, s2),
                analysis: self.opts.analysis,
                sigma: self.sigma,
            }
        } else {
            CacheKey {
                q1: self
                    .structural_q1
                    .get_or_insert_with(|| canonicalize(q1))
                    .clone(),
                q2: canonicalize(q2),
                bound: effective,
                analysis: self.opts.analysis,
                sigma: self.sigma,
            }
        }
    }
}

/// A memo table for containment decisions (see the module docs).
///
/// Thread-safe (a mutex around a hash map — lookups are far cheaper than
/// the decisions they save, so contention is not a concern). The table
/// stores each decided [`ContainmentResult`] itself, minus its
/// [`witness`](ContainmentResult::witness), so hits carry none; ask the
/// uncached [`crate::contains_with`] when the homomorphism itself is
/// needed. A miss is always computed on the *original* pair, so the first
/// caller does get its witness in its own variable names.
///
/// ```
/// use flogic_core::DecisionCache;
/// use flogic_syntax::parse_query;
/// let cache = DecisionCache::new();
/// let q1 = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
/// let q2 = parse_query("p(X, Z) :- sub(X, Z).").unwrap();
/// assert!(cache.contains(&q1, &q2).unwrap().holds());
/// // A renamed-apart copy of the same pair is answered from the cache.
/// let q1r = parse_query("q(A, C) :- sub(B, C), sub(A, B).").unwrap();
/// assert!(cache.contains(&q1r, &q2).unwrap().holds());
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct DecisionCache {
    inner: Mutex<HashMap<CacheKey, ContainmentResult>>,
}

impl DecisionCache {
    /// Creates an empty cache.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("decision cache poisoned").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached decision.
    pub fn clear(&self) {
        self.inner.lock().expect("decision cache poisoned").clear();
    }

    fn lookup(&self, key: &CacheKey) -> Option<ContainmentResult> {
        self.inner
            .lock()
            .expect("decision cache poisoned")
            .get(key)
            .cloned()
    }

    fn store(&self, key: CacheKey, result: &ContainmentResult) {
        // An exhausted verdict is a statement about the budget that
        // happened to govern this run, not about the pair; caching it
        // would replay "undecided" for callers with generous budgets.
        if result.is_exhausted() {
            return;
        }
        // The witness is expressed in the original queries' variables and
        // does not survive canonical renaming.
        self.inner.lock().expect("decision cache poisoned").insert(
            key,
            ContainmentResult {
                witness: None,
                ..*result
            },
        );
    }

    /// [`crate::contains`] through the cache.
    pub fn contains(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
    ) -> Result<ContainmentResult, CoreError> {
        self.contains_with(q1, q2, &ContainmentOptions::default())
    }

    /// [`crate::contains_with`] through the cache. Errors (arity mismatch,
    /// resource exhaustion) are never cached.
    pub fn contains_with(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        opts: &ContainmentOptions,
    ) -> Result<ContainmentResult, CoreError> {
        self.contains_with_compute(q1, q2, opts, || contains_with(q1, q2, opts))
    }

    /// Like [`contains_with`](DecisionCache::contains_with), but a miss is
    /// filled by `compute` instead of a fresh [`crate::contains_with`].
    ///
    /// This is the seam that lets a resident service stack its own reuse
    /// layer *under* the memo table: the `flqd` server passes a closure
    /// that decides through its byte-capped
    /// [`ChaseSnapshot`](crate::ChaseSnapshot) cache, so a canonical-pair
    /// hit skips everything and a miss still skips the chase when the
    /// snapshot is warm.
    ///
    /// `compute` must answer exactly the question `(q1, q2, opts)` poses —
    /// same verdict as [`crate::contains_with`] — or the table gets
    /// poisoned for every later caller. The usual store rules apply:
    /// errors and exhausted verdicts are never cached.
    pub fn contains_with_compute(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        opts: &ContainmentOptions,
        compute: impl FnOnce() -> Result<ContainmentResult, CoreError>,
    ) -> Result<ContainmentResult, CoreError> {
        let key = PairKeyer::new(opts).key(q1, q2);
        if let Some(hit) = self.lookup(&key) {
            return Ok(hit);
        }
        let result = compute()?;
        self.store(key, &result);
        Ok(result)
    }

    /// [`crate::contains_batch`] through the cache: pairs already decided
    /// (up to semantic equivalence) are answered from the memo table,
    /// within-batch repeats of the same canonical pair are decided once
    /// and fanned out, and the single shared chase of `q1` is built only
    /// when at least one pair misses. `q1`'s canonical forms are computed
    /// once for the whole batch.
    pub fn contains_batch(
        &self,
        q1: &ConjunctiveQuery,
        q2s: &[ConjunctiveQuery],
        opts: &ContainmentOptions,
    ) -> Vec<Result<ContainmentResult, CoreError>> {
        let mut keyer = PairKeyer::new(opts);
        // Per-pair effective bound, even though the shared chase is built
        // to the batch maximum: a verdict computed at a bound ≥ the
        // pair's own effective bound answers exactly the per-pair
        // question (Theorem 12 completeness).
        let keys: Vec<CacheKey> = q2s.iter().map(|q2| keyer.key(q1, q2)).collect();

        // One representative slot per canonical pair that misses the memo
        // table; later occurrences of the same key are served from the
        // representative's computation and count as hits.
        let mut rep: HashMap<&CacheKey, usize> = HashMap::new();
        let mut dup_of: Vec<Option<usize>> = vec![None; q2s.len()];
        let mut out: Vec<Option<Result<ContainmentResult, CoreError>>> =
            Vec::with_capacity(q2s.len());
        for (i, key) in keys.iter().enumerate() {
            if let Some(&r) = rep.get(key) {
                dup_of[i] = Some(r);
                out.push(None);
            } else if let Some(d) = self.lookup(key) {
                out.push(Some(Ok(d)));
            } else {
                rep.insert(key, i);
                out.push(None);
            }
        }

        let missed: Vec<usize> = (0..q2s.len())
            .filter(|&i| out[i].is_none() && dup_of[i].is_none())
            .collect();
        if !missed.is_empty() {
            let missed_qs: Vec<ConjunctiveQuery> = missed.iter().map(|&i| q2s[i].clone()).collect();
            let computed = contains_batch(q1, &missed_qs, opts);
            for (&i, result) in missed.iter().zip(computed) {
                if let Ok(r) = &result {
                    self.store(keys[i].clone(), r);
                }
                out[i] = Some(result);
            }
        }
        for i in 0..q2s.len() {
            if let Some(r) = dup_of[i] {
                // The representative's witness is keyed by *its* q2's
                // variables, not this occurrence's; strip it like any
                // other cache hit.
                out[i] = Some(match out[r].as_ref().expect("representative filled") {
                    Ok(res) => Ok(ContainmentResult {
                        witness: None,
                        ..*res
                    }),
                    Err(e) => Err(e.clone()),
                });
            }
        }
        out.into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::theorem_bound;
    use flogic_syntax::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn canonical_form_ignores_variable_names_and_atom_order() {
        let a = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let b = q("p(A, C) :- sub(B, C), sub(A, B).");
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn canonical_form_distinguishes_different_shapes() {
        let a = q("q(X) :- member(X, c1).");
        let b = q("q(X) :- member(X, c2).");
        assert_ne!(canonicalize(&a), canonicalize(&b));
        let c = q("q(X) :- member(X, Y).");
        assert_ne!(canonicalize(&a), canonicalize(&c));
    }

    #[test]
    fn canonical_form_respects_variable_sharing() {
        // sub(X, X) is not sub(X, Y): the numbering tells them apart.
        let a = q("q() :- sub(X, X).");
        let b = q("q() :- sub(X, Y).");
        assert_ne!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn symmetric_ties_are_resolved_canonically() {
        // Before any variable is numbered, both body atoms key as
        // (sub, [fresh0, fresh1]) — a symmetric tie. The old greedy pass
        // fell back to input order here, so these two renamings of the
        // same path query got distinct keys; the backtracking search
        // picks the least complete encoding for both.
        let a = q("q() :- sub(X, Y), sub(Y, Z).");
        let b = q("q() :- sub(B, C), sub(A, B).");
        assert_eq!(canonicalize(&a), canonicalize(&b));
        // Deeper tie: two interleaved chains, emitted from whichever end
        // minimises the encoding regardless of input order.
        let c = q("r() :- sub(X, Y), sub(Y, Z), member(M, Y).");
        let d = q("r() :- sub(V2, V3), member(V4, V2), sub(V1, V2).");
        assert_eq!(canonicalize(&c), canonicalize(&d));
    }

    #[test]
    fn canonical_query_unifies_variants() {
        let a = q("q(X) :- member(X, C), sub(C, D).");
        let b = q("p(U) :- sub(K2, L2), member(U, K2), member(U, K1), sub(K1, L1).");
        let ca = canonical_query(&a);
        let cb = canonical_query(&b);
        assert_eq!(ca.head(), cb.head());
        assert_eq!(ca.body(), cb.body());
        assert_eq!(ca.size(), 2, "redundant pair folded into the core");
    }

    #[test]
    fn semantic_keys_fold_redundant_atoms() {
        let a = q("q(X) :- member(X, C), sub(C, D).");
        let b = q("p(U) :- member(U, C1), sub(C1, D1), member(U, C2), sub(C2, D2).");
        assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
        assert_ne!(QueryKey::structural(&a), QueryKey::structural(&b));
    }

    #[test]
    fn renamed_pair_hits_the_cache() {
        let cache = DecisionCache::new();
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- sub(X, Z).");
        let first = cache.contains(&q1, &q2).unwrap();
        assert!(first.holds());
        assert!(first.witness().is_some(), "a miss computes its witness");
        assert_eq!(cache.len(), 1);

        // Rename everything apart and shuffle the body: still one entry.
        let q1r = q("qq(U, W) :- sub(V, W), sub(U, V).");
        let q2r = q("pp(A, B) :- sub(A, B).");
        let second = cache.contains(&q1r, &q2r).unwrap();
        assert!(second.holds());
        assert!(second.witness().is_none(), "cache hits carry no witness");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn core_equivalent_pair_hits_the_cache() {
        let cache = DecisionCache::new();
        let q1 = q("q(X) :- member(X, C), sub(C, D).");
        let q2 = q("r(O) :- member(O, C).");
        assert!(cache.contains(&q1, &q2).unwrap().holds());
        assert_eq!(cache.len(), 1);
        // A variant with a redundant copy of the member/sub pair reduces
        // to the same core, so it must be answered from the cache.
        let q1v = q("qq(U) :- member(U, K1), sub(K1, L1), member(U, K2), sub(K2, L2).");
        let hit = cache.contains(&q1v, &q2).unwrap();
        assert!(hit.holds());
        assert!(hit.witness().is_none(), "answered from the cache");
        assert_eq!(cache.len(), 1, "one semantic class, one entry");
    }

    #[test]
    fn canon_off_keys_structurally() {
        let cache = DecisionCache::new();
        let off = ContainmentOptions {
            canon: false,
            ..Default::default()
        };
        let q1 = q("q(X) :- member(X, C), sub(C, D).");
        let q1v = q("qq(U) :- member(U, K1), sub(K1, L1), member(U, K2), sub(K2, L2).");
        let q2 = q("r(O) :- member(O, C).");
        assert!(cache.contains_with(&q1, &q2, &off).unwrap().holds());
        assert!(cache.contains_with(&q1v, &q2, &off).unwrap().holds());
        assert_eq!(cache.len(), 2, "canon off: variants key separately");
        // Renaming alone still hits (the structural form handles it).
        let q1r = q("z(A) :- sub(B, C), member(A, B).");
        assert!(cache.contains_with(&q1r, &q2, &off).unwrap().holds());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn different_bounds_are_different_questions() {
        let cache = DecisionCache::new();
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        let tight = ContainmentOptions {
            level_bound: Some(0),
            ..Default::default()
        };
        assert!(!cache.contains_with(&q1, &q2, &tight).unwrap().holds());
        // The exact (Theorem 12) bound is a separate entry, not a stale hit.
        assert!(cache.contains(&q1, &q2).unwrap().holds());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bounds_at_or_above_theorem_share_one_entry() {
        let cache = DecisionCache::new();
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- sub(X, Z).");
        assert!(cache.contains(&q1, &q2).unwrap().holds());
        // Any explicit bound ≥ the theorem bound asks the same exact
        // question as the default and must hit the same entry.
        let generous = ContainmentOptions {
            level_bound: Some(theorem_bound(&q1, &q2) + 100),
            ..Default::default()
        };
        let hit = cache.contains_with(&q1, &q2, &generous).unwrap();
        assert!(hit.holds());
        assert!(hit.witness().is_none(), "answered from the cache");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn analysis_toggle_is_part_of_the_key() {
        let cache = DecisionCache::new();
        // Decided by the analyzer when analysis is on, by the chase when
        // off: a cross-toggle hit would misreport how the run was decided.
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- member(X, Z).");
        let on = cache.contains(&q1, &q2).unwrap();
        assert!(on.decided_by_analysis());
        let off = cache
            .contains_with(
                &q1,
                &q2,
                &ContainmentOptions {
                    analysis: false,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!off.decided_by_analysis(), "stale cross-toggle hit");
        assert_eq!(on.holds(), off.holds());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn exhausted_verdicts_are_never_cached() {
        let cache = DecisionCache::new();
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        let tight = ContainmentOptions {
            max_conjuncts: 5,
            analysis: false,
            ..Default::default()
        };
        let r = cache.contains_with(&q1, &q2, &tight).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(cache.len(), 0, "undecided runs must not occupy the table");
        // The budget is not part of the key, so a generous rerun lands on
        // the *same* key — and must recompute, decide, and cache.
        let generous = ContainmentOptions {
            analysis: false,
            ..Default::default()
        };
        assert!(cache.contains_with(&q1, &q2, &generous).unwrap().holds());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn batch_mixes_hits_misses_and_errors() {
        let cache = DecisionCache::new();
        let q1 = q("q(O, D) :- member(O, C), sub(C, D).");
        let contained = q("qq(O, D) :- member(O, D).");
        // Pre-seed one pair.
        assert!(cache.contains(&q1, &contained).unwrap().holds());

        let batch = vec![
            q("a(O, D) :- member(O, D)."), // renamed copy: hit
            q("b(O, D) :- sub(O, D)."),    // distinct pair: miss
            q("c(X) :- member(X, Y)."),    // arity mismatch: error
        ];
        let results = cache.contains_batch(&q1, &batch, &ContainmentOptions::default());
        assert!(results[0].as_ref().unwrap().holds());
        assert!(
            !results[1].as_ref().unwrap().holds(),
            "sub(O,D) is not implied"
        );
        assert!(matches!(results[2], Err(CoreError::ArityMismatch { .. })));
        // Hit + two computed entries (errors are not cached).
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn batch_dedupes_within_batch_repeats() {
        let cache = DecisionCache::new();
        let q1 = q("q(O, D) :- member(O, C), sub(C, D).");
        let a = q("a(O, D) :- member(O, D).");
        let renamed = a.rename_apart(&a);
        let results = cache.contains_batch(&q1, &[a, renamed], &ContainmentOptions::default());
        assert!(results[0].as_ref().unwrap().holds());
        assert!(results[1].as_ref().unwrap().holds());
        // The repeat is served from the representative's computation; like
        // any hit it carries no witness (the representative's substitution
        // is keyed by different variable names).
        assert!(results[0].as_ref().unwrap().witness().is_some());
        assert!(results[1].as_ref().unwrap().witness().is_none());
        assert_eq!(cache.len(), 1, "one canonical pair, one entry");
    }
}
