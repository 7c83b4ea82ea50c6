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
//! [`KeyBuilder`] is the only code that turns a query pair into a cache
//! key. It canonicalizes each query once, writing the portable byte
//! layout of `docs/STORAGE.md` directly: the in-RAM [`DecisionCache`]
//! hashes those [`DecisionKey`] bytes, the durable tier (crate
//! `flogic-store`) files them, and `flqd`'s snapshot cache keys `q1`'s
//! chase by their `q1` half.
//! Both of `flqd`'s RAM tiers are byte-capped LRUs of one type,
//! [`RecencyCache`].
//!
//! The total ordering backtracks over tied choices and emits the
//! lexicographically least complete encoding; for any two isomorphic
//! queries within the (deterministic) search budget the encodings are
//! equal, so equal keys are both sound *and* — up to the budget —
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

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::LazyLock;

use flogic_hom::{classic_core, HomStats};
use flogic_model::{Atom, ConjunctiveQuery};
use flogic_term::{Symbol, Term};

use crate::decide::{contains_with, derived_bound, ContainmentOptions, ContainmentResult};
use crate::persist::{put_term, put_u32, put_u64, PERSIST_FORMAT_VERSION};
use crate::recency::RecencyCache;
use crate::snapshot::ChaseSnapshot;
use crate::CoreError;

/// Ordering key for one argument of an atom *under a partial variable
/// numbering*: constants sort by name, numbered variables by their
/// number, and not-yet-numbered variables by their first-occurrence
/// pattern within the atom (so `sub(U, U)` and `sub(U, V)` stay
/// distinguishable). Derived `Ord` puts `Const < Null < Var < Fresh`,
/// which mirrors how the terms compare once the fresh variables are
/// numbered: freshly numbered variables always receive indices above
/// every already-numbered one, so minimising `atom_key`s is the same as
/// minimising emitted encodings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KeyTerm {
    Const(Symbol),
    Null(u64),
    Var(u32),
    Fresh(u32),
}

/// An atom encoded under a numbering: its predicate, then its arguments.
/// A `P_FL` atom has at most three arguments and all atoms of one
/// predicate have one arity, so a two-argument atom leaves the same
/// filler in its third slot and keys compare as argument lists do.
type EncodedAtom = (usize, [KeyTerm; 3]);

/// Marks an argument in [`VarIds`] that is a value, not a variable.
const VALUE: u32 = u32::MAX;

/// A query's variables by dense id (head first, then body, in order of
/// first occurrence), so that numbering a variable is an index into a
/// table, not a lookup.
struct VarIds {
    head: Vec<u32>,
    /// Each body atom's argument ids.
    body: Vec<[u32; 3]>,
    count: usize,
}

impl VarIds {
    fn of(q: &ConjunctiveQuery) -> VarIds {
        let mut vars: Vec<Symbol> = Vec::new();
        let mut id = |t: Term| match t {
            Term::Var(v) => {
                let id = vars.iter().position(|&u| u == v).unwrap_or_else(|| {
                    vars.push(v);
                    vars.len() - 1
                });
                u32::try_from(id).expect("fewer variables than ids")
            }
            _ => VALUE,
        };
        let head = q.head().iter().map(|&t| id(t)).collect();
        let body = q
            .body()
            .iter()
            .map(|a| {
                let mut ids = [VALUE; 3];
                for (slot, &t) in ids.iter_mut().zip(a.args()) {
                    *slot = id(t);
                }
                ids
            })
            .collect();
        VarIds {
            head,
            body,
            count: vars.len(),
        }
    }
}

/// The numbers given so far, by variable id. A tie branch numbers more
/// variables and truncates back to where it started.
struct Numbering {
    numbers: Vec<Option<u32>>,
    /// The numbered ids, in numbering order.
    order: Vec<u32>,
}

impl Numbering {
    fn new(vars: usize) -> Numbering {
        Numbering {
            numbers: vec![None; vars],
            order: Vec::with_capacity(vars),
        }
    }

    fn get(&self, id: u32) -> Option<u32> {
        self.numbers[id as usize]
    }

    /// The number of variable `id`, giving it the next one on first sight.
    fn number(&mut self, id: u32) -> u32 {
        *self.numbers[id as usize].get_or_insert_with(|| {
            self.order.push(id);
            self.order.len() as u32 - 1
        })
    }

    /// Forgets every number given after the first `len`.
    fn truncate(&mut self, len: usize) {
        for id in self.order.drain(len..) {
            self.numbers[id as usize] = None;
        }
    }
}

/// The key of a value: a constant by name, a null by id.
fn value_key(t: Term) -> KeyTerm {
    match t {
        Term::Const(s) => KeyTerm::Const(s),
        Term::Null(n) => KeyTerm::Null(n.0),
        Term::Var(_) => unreachable!("variables are keyed by their numbers"),
    }
}

fn atom_key(atom: &Atom, ids: &[u32; 3], numbering: &Numbering) -> EncodedAtom {
    let mut key = [KeyTerm::Fresh(0); 3];
    let mut fresh = 0;
    for (i, (&t, &id)) in atom.args().iter().zip(ids).enumerate() {
        key[i] = if id == VALUE {
            value_key(t)
        } else if let Some(n) = numbering.get(id) {
            KeyTerm::Var(n)
        } else if let Some(first) = ids[..i].iter().position(|&u| u == id) {
            key[first]
        } else {
            fresh += 1;
            KeyTerm::Fresh(fresh - 1)
        };
    }
    (atom.pred().index(), key)
}

/// Numbers an atom's variables into `numbering` (extending it with fresh
/// indices in argument order) and returns the fully-numbered encoding.
fn number_atom(atom: &Atom, ids: &[u32; 3], numbering: &mut Numbering) -> EncodedAtom {
    let mut key = [KeyTerm::Fresh(0); 3];
    for ((slot, &t), &id) in key.iter_mut().zip(atom.args()).zip(ids) {
        *slot = if id == VALUE {
            value_key(t)
        } else {
            KeyTerm::Var(numbering.number(id))
        };
    }
    (atom.pred().index(), key)
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
/// Each round computes every remaining atom's [`atom_key`] **once**.
/// Because `atom_key` ordering agrees with emitted-encoding ordering (see
/// [`KeyTerm`]), the minimal-key atoms are exactly the candidates for the
/// least encoding's next entry, so restricting branching to them loses
/// nothing. A round with one such atom emits it and goes on; only a tie
/// copies the remaining atoms, once per branch.
struct CanonSearch<'a> {
    atoms: &'a [Atom],
    ids: &'a [[u32; 3]],
    budget: usize,
    /// The numbering of the branch being explored.
    numbering: &'a mut Numbering,
}

impl CanonSearch<'_> {
    /// The emission order (indices into `self.atoms`) of the least
    /// encoding reachable within budget from `self.numbering`, which is
    /// left as it was found.
    fn emission_order(mut self) -> Vec<usize> {
        let mark = self.numbering.order.len();
        let mut remaining: Vec<usize> = (0..self.atoms.len()).collect();
        let mut encoding = Vec::with_capacity(remaining.len());
        let mut order = Vec::with_capacity(remaining.len());
        self.search(&mut remaining, &mut encoding, &mut order);
        self.numbering.truncate(mark);
        order
    }

    /// Appends the least encoding of the atoms in `remaining` and the
    /// order that emits it to `encoding` and `order`, emptying
    /// `remaining`. The numbering it leaves behind is only meaningful
    /// when no tie was branched on.
    fn search(
        &mut self,
        remaining: &mut Vec<usize>,
        encoding: &mut Vec<EncodedAtom>,
        order: &mut Vec<usize>,
    ) {
        // Tied positions, deduplicated: literally identical atoms lead to
        // identical states, so exploring one of them suffices.
        let mut tied: Vec<usize> = Vec::new();
        while !remaining.is_empty() {
            let mut min = None;
            tied.clear();
            for (pos, &i) in remaining.iter().enumerate() {
                let key = atom_key(&self.atoms[i], &self.ids[i], self.numbering);
                match min.as_ref().map_or(Ordering::Less, |m| key.cmp(m)) {
                    Ordering::Less => {
                        min = Some(key);
                        tied.clear();
                        tied.push(pos);
                    }
                    Ordering::Equal
                        if !tied
                            .iter()
                            .any(|&p| self.atoms[remaining[p]] == self.atoms[i]) =>
                    {
                        tied.push(pos);
                    }
                    _ => {}
                }
            }
            if let [pos] = tied[..] {
                let idx = remaining.remove(pos);
                encoding.push(self.number(idx));
                order.push(idx);
                continue;
            }
            let take = tied.len().min(self.budget + 1);
            self.budget -= take - 1;
            let mark = self.numbering.order.len();
            let mut best: Option<(Vec<EncodedAtom>, Vec<usize>)> = None;
            for &pos in &tied[..take] {
                let mut rest = remaining.clone();
                let idx = rest.remove(pos);
                let mut enc = vec![self.number(idx)];
                let mut ord = vec![idx];
                self.search(&mut rest, &mut enc, &mut ord);
                self.numbering.truncate(mark);
                if best.as_ref().map_or(true, |(b, _)| enc < *b) {
                    best = Some((enc, ord));
                }
            }
            let (enc, ord) = best.expect("at least one branch explored");
            encoding.extend(enc);
            order.extend(ord);
            remaining.clear();
        }
    }

    fn number(&mut self, idx: usize) -> EncodedAtom {
        number_atom(&self.atoms[idx], &self.ids[idx], self.numbering)
    }
}

/// Writes one `canon_query` term: a variable (`id` other than [`VALUE`])
/// by its first-occurrence number, numbering it on first sight; anything
/// else as values are written.
fn emit_term(out: &mut Vec<u8>, t: &Term, id: u32, numbering: &mut Numbering) {
    if id == VALUE {
        put_term(out, t);
    } else {
        out.push(2);
        put_u32(out, numbering.number(id));
    }
}

/// Canonicalizes `q`, writing its `canon_query` bytes to `out`: the head
/// variables numbered in head order (the head is the one part of a query
/// whose order is semantically fixed), then the body atoms in the order
/// [`CanonSearch`] finds, each extending the numbering with its fresh
/// variables. Returns that emission order (indices into `q.body()`), the
/// query's variable ids and the final numbering.
fn canonicalize(q: &ConjunctiveQuery, out: &mut Vec<u8>) -> (Vec<usize>, VarIds, Numbering) {
    let ids = VarIds::of(q);
    let mut numbering = Numbering::new(ids.count);
    put_u32(out, q.head().len() as u32);
    for (t, &id) in q.head().iter().zip(&ids.head) {
        emit_term(out, t, id, &mut numbering);
    }
    let order = CanonSearch {
        atoms: q.body(),
        ids: &ids.body,
        budget: CANON_NODE_BUDGET,
        numbering: &mut numbering,
    }
    .emission_order();
    put_u32(out, order.len() as u32);
    for &i in &order {
        let atom = &q.body()[i];
        out.push(atom.pred().index() as u8);
        put_u32(out, atom.args().len() as u32);
        for (t, &id) in atom.args().iter().zip(&ids.body[i]) {
            emit_term(out, t, id, &mut numbering);
        }
    }
    (order, ids, numbering)
}

/// How many canonical variable names are interned up front.
const CANONICAL_NAMES: u32 = 64;

/// Canonical variable `n`: `C0`, `C1`, …, the first
/// [`CANONICAL_NAMES`] of them interned once per process.
fn canonical_var(n: u32) -> Term {
    static NAMES: LazyLock<Vec<Term>> = LazyLock::new(|| {
        (0..CANONICAL_NAMES)
            .map(|n| Term::var(&format!("C{n}")))
            .collect()
    });
    NAMES
        .get(n as usize)
        .copied()
        .unwrap_or_else(|| Term::var(&format!("C{n}")))
}

/// One query canonicalized once: its half of a [`DecisionKey`].
struct Half {
    /// `canon_query` bytes of the classic core (semantic) or of `q` itself.
    bytes: Vec<u8>,
    /// The body size of the query those bytes describe.
    size: usize,
    /// On request, that query in canonical shape ([`canonical_query`]).
    representative: Option<ConjunctiveQuery>,
}

impl Half {
    fn new(q: &ConjunctiveQuery, semantic: bool, with_representative: bool) -> Half {
        let core = semantic.then(|| classic_core(q));
        let q = core.as_ref().unwrap_or(q);
        let mut bytes = Vec::with_capacity(64);
        let (order, ids, numbering) = canonicalize(q, &mut bytes);
        let representative = with_representative.then(|| {
            let rename = |t: Term, id: u32| {
                if id == VALUE {
                    t
                } else {
                    canonical_var(numbering.get(id).expect("every variable is numbered"))
                }
            };
            let body = order
                .iter()
                .map(|&i| {
                    let mut ids = ids.body[i].into_iter();
                    q.body()[i].map(|t| rename(t, ids.next().expect("one id per argument")))
                })
                .collect();
            let head = q.head().iter().zip(&ids.head);
            let head = head.map(|(&t, &id)| rename(t, id)).collect();
            ConjunctiveQuery::new(q.name(), head, body)
                .expect("canonical renaming preserves well-formedness")
        });
        Half {
            bytes,
            size: q.size(),
            representative,
        }
    }
}

/// The keys of the precomputed key hashes, drawn once per process so
/// that clients cannot craft queries whose hashes collide.
static KEY_HASHER: LazyLock<RandomState> = LazyLock::new(RandomState::new);

/// The semantic canonical representative of `q` as a real query: the
/// classic core with canonical variable names (`C0`, `C1`, … in canonical
/// numbering order) and body atoms in canonical emission order. The query
/// name is preserved (containment ignores it).
///
/// Every query in an equivalence class maps to the *same* representative
/// (up to the search budget, see the module docs), so deciding on the
/// representative instead of the original makes everything downstream —
/// chase snapshots, derived level bounds, reported metadata — agree
/// across syntactic variants. `flqd` decides on the representatives its
/// [`KeyBuilder`] returns with each key.
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
    Half::new(q, true, true)
        .representative
        .expect("asked for the representative")
}

/// The canonical representatives of a pair, when substituting them is
/// sound for the run `opts` describes: [`ContainmentOptions::canon`] must
/// be on and the run must be *exact* (no explicit level bound below the
/// bound derived from the original sizes). Returns `None` otherwise —
/// truncated runs answer a bound-dependent question about the literal
/// queries, so their inputs must be left alone — and for a pair of
/// different arities.
///
/// On `Some((c1, c2))`, deciding `c1 ⊆ c2` under the bound derived from
/// the *core* sizes gives the same verdict as the original pair under its
/// own derived bound: classically equivalent queries have identical
/// answers on every model of Σ, and Theorem 12 applied to the core pair
/// is complete for that question. [`KeyBuilder::with_representatives`]
/// returns this pair with the pair's key.
pub fn canonical_pair(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Option<(ConjunctiveQuery, ConjunctiveQuery)> {
    let mut builder = KeyBuilder::new(q1, opts).with_representatives();
    builder.key(q2).ok()?.1
}

/// An opaque, hashable canonical key for a single query: its
/// `canon_query` bytes, hashed once like a [`DecisionKey`].
///
/// [`QueryKey::of`] is the *semantic* key (classic core + total
/// ordering): equal keys mean classically equivalent queries, which
/// answer every `Σ`-containment question alike. [`QueryKey::structural`]
/// skips the core: equal keys mean identical up to variable renaming and
/// body-conjunct order only. On a canonical representative the two
/// agree: `QueryKey::structural(&canonical_query(q)) == QueryKey::of(q)`.
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
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryKey {
    hash: u64,
    bytes: Vec<u8>,
}

impl QueryKey {
    fn new(bytes: Vec<u8>) -> QueryKey {
        QueryKey {
            hash: KEY_HASHER.hash_one(&bytes),
            bytes,
        }
    }

    /// The semantic canonical key of `q`: its classic core under the
    /// deterministic total ordering. Invariant under renaming, body
    /// permutation, and redundant-atom insertion.
    pub fn of(q: &ConjunctiveQuery) -> QueryKey {
        QueryKey::new(Half::new(q, true, false).bytes)
    }

    /// The structural canonical key of `q`: the total ordering without
    /// core reduction. Invariant under renaming and body permutation
    /// only — redundant atoms stay part of the key. Use this when the
    /// keyed artifact depends on the query's literal body (e.g. a chase
    /// built to a bound derived from `q`'s size).
    pub fn structural(q: &ConjunctiveQuery) -> QueryKey {
        QueryKey::new(Half::new(q, false, false).bytes)
    }
}

impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The one decision key of a pair, built by [`KeyBuilder`]: the bytes
/// `version · canon_query(q1) · canon_query(q2) · bound · analysis · sigma`
/// of `docs/STORAGE.md`, which RAM hashes and disk stores.
///
/// Two key shapes share one table, told apart by their `bound`:
///
/// * **Exact, semantic** (canon on, no truncating explicit bound): the
///   halves are the canonicalized *cores*, and `bound` is derived from
///   the **core** sizes — so every variant with the same cores lands on
///   one key even though the variants' own sizes (hence their own
///   Theorem 12 bounds) differ.
/// * **Structural** (canon off, or an explicit bound below the derived
///   one): the halves are the structural forms of the literal queries
///   and `bound` is the *effective* bound `min(requested, derived)`. An
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
///
/// The key's hash is computed once, when it is built, and [`Hash`]
/// writes only that word, so a table doubling rehashes one word per
/// entry. Hashing every resident key again cost ~1.5–3 µs per entry on a
/// 2-vCPU VM: under never-repeated traffic, the request that grew the
/// table past 14 336 entries stalled for ~60 ms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecisionKey {
    hash: u64,
    bytes: Vec<u8>,
    /// Where `canon_query(q1)` ends within `bytes`.
    q1_end: usize,
}

impl DecisionKey {
    fn new(q1: &Half, q2: &Half, bound: u32, opts: &ContainmentOptions) -> DecisionKey {
        let mut bytes = Vec::with_capacity(q1.bytes.len() + q2.bytes.len() + 14);
        bytes.push(PERSIST_FORMAT_VERSION);
        bytes.extend_from_slice(&q1.bytes);
        let q1_end = bytes.len();
        bytes.extend_from_slice(&q2.bytes);
        put_u32(&mut bytes, bound);
        bytes.push(opts.analysis as u8);
        put_u64(&mut bytes, opts.sigma.fingerprint());
        DecisionKey {
            hash: KEY_HASHER.hash_one(&bytes),
            bytes,
            q1_end,
        }
    }

    /// The key's portable bytes, as the durable tier files them.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The chase level bound the pair is decided at: derived from the
    /// core sizes for a semantic key, the effective bound otherwise. A
    /// chase of `q1` built this deep decides the pair exactly.
    pub fn bound(&self) -> u32 {
        // The bytes end `bound · analysis · sigma`: 4 + 1 + 8 bytes.
        let at = self.bytes.len() - 13;
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("four bytes"))
    }

    /// `q1`'s half: [`QueryKey::of`]`(q1)` for a semantic key,
    /// [`QueryKey::structural`]`(q1)` otherwise. Either way it names the
    /// query the pair's decision chases.
    pub fn q1(&self) -> QueryKey {
        QueryKey::new(self.bytes[1..self.q1_end].to_vec())
    }
}

impl Hash for DecisionKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The one key builder: turns `q1` and any number of `q2`s into
/// [`DecisionKey`]s, canonicalizing `q1` at most once per key shape and
/// each `q2` once.
///
/// ```
/// use flogic_core::{ContainmentOptions, KeyBuilder, QueryKey};
/// use flogic_syntax::parse_query;
/// let opts = ContainmentOptions::default();
/// let q1 = parse_query("q(X) :- member(X, C), sub(C, D), member(X, E).").unwrap();
/// let q2 = parse_query("p(X) :- member(X, C).").unwrap();
/// let mut builder = KeyBuilder::new(&q1, &opts).with_representatives();
/// let (key, canonical) = builder.key(&q2).unwrap();
/// let (c1, _) = canonical.expect("canonicalization is on");
/// assert_eq!(c1.size(), 2, "the redundant member atom folds away");
/// assert_eq!(key.q1(), QueryKey::of(&q1));
/// ```
pub struct KeyBuilder<'q> {
    q1: &'q ConjunctiveQuery,
    opts: &'q ContainmentOptions,
    representatives: bool,
    /// `q1`'s structural and semantic halves, each made on first use.
    q1_halves: [Option<Half>; 2],
}

impl<'q> KeyBuilder<'q> {
    /// A builder for `q1`'s keys under `opts`.
    pub fn new(q1: &'q ConjunctiveQuery, opts: &'q ContainmentOptions) -> KeyBuilder<'q> {
        KeyBuilder {
            q1,
            opts,
            representatives: false,
            q1_halves: [None, None],
        }
    }

    /// Also return each semantic key's canonical representatives, from
    /// the same canonicalization pass.
    pub fn with_representatives(mut self) -> KeyBuilder<'q> {
        self.representatives = true;
        self
    }

    /// The key of `q1 ⊆ q2`, and the representatives to decide on instead
    /// of the pair as given ([`canonical_pair`]) when asked for and the key
    /// is semantic. A pair of different arities gets the error
    /// [`contains_with`] returns, and no key.
    pub fn key(
        &mut self,
        q2: &ConjunctiveQuery,
    ) -> Result<(DecisionKey, Option<(ConjunctiveQuery, ConjunctiveQuery)>), CoreError> {
        let (q1, opts) = (self.q1, self.opts);
        if q1.arity() != q2.arity() {
            return Err(CoreError::ArityMismatch {
                q1: q1.arity(),
                q2: q2.arity(),
            });
        }
        // Substituting cores is sound when canonicalization is on and the
        // run is exact: no explicit level bound below the derived one.
        let derived = derived_bound(opts, q1.size(), q2.size());
        let semantic = opts.canon && opts.level_bound.map_or(true, |b| b >= derived);
        let reps = semantic && self.representatives;
        let h1 = self.q1_halves[usize::from(semantic)]
            .get_or_insert_with(|| Half::new(q1, semantic, reps));
        let h2 = Half::new(q2, semantic, reps);
        let bound = if semantic {
            derived_bound(opts, h1.size, h2.size)
        } else {
            opts.level_bound.map_or(derived, |b| b.min(derived))
        };
        let key = DecisionKey::new(h1, &h2, bound, opts);
        Ok((key, h1.representative.clone().zip(h2.representative)))
    }
}

/// What [`DecisionCache`] charges one resident decision.
fn charge(key: &DecisionKey) -> usize {
    key.bytes().len() + size_of::<DecisionKey>() + size_of::<ContainmentResult>()
}

/// A memo table for containment decisions (see the module docs).
///
/// Thread-safe and byte-capped: a [`RecencyCache`] of
/// [`CAP_BYTES`](DecisionCache::CAP_BYTES), the same least recently used
/// policy as `flqd`'s snapshot cache, so a long-lived process keeps a
/// bounded table under never-repeating traffic. An evicted pair is simply
/// decided again on its next ask. The table stores each decided
/// [`ContainmentResult`] itself, minus its
/// [`witness`](ContainmentResult::witness) and
/// [`hom_stats`](ContainmentResult::hom_stats), so hits carry neither; ask the
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
#[derive(Debug)]
pub struct DecisionCache {
    inner: RecencyCache<DecisionKey, ContainmentResult>,
}

impl Default for DecisionCache {
    fn default() -> DecisionCache {
        DecisionCache::new()
    }
}

impl DecisionCache {
    /// The byte cap of every decision table: 64 MiB, the default of
    /// `flqd --cache-bytes`. Each decision is charged its key bytes plus
    /// the fixed sizes of [`DecisionKey`] and [`ContainmentResult`], its
    /// zeroed hom-search counts included — an estimate that leaves out
    /// the table's own per-entry overhead.
    pub const CAP_BYTES: usize = 64 << 20;

    /// Creates an empty cache capped at [`CAP_BYTES`](DecisionCache::CAP_BYTES).
    pub fn new() -> DecisionCache {
        DecisionCache {
            inner: RecencyCache::new(DecisionCache::CAP_BYTES),
        }
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.inner.stats().resident_entries as usize
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// filled by `compute` instead of a fresh [`crate::contains_with`]:
    /// [`KeyBuilder`] keys the pair for the
    /// [keyed path](DecisionCache::contains_keyed).
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
        let (key, _) = KeyBuilder::new(q1, opts).key(q2)?;
        self.contains_keyed(&key, compute)
    }

    /// The keyed path: answers `key` from the table, or fills it with
    /// `compute`, which must answer exactly the question `key` names.
    /// It lets a resident service stack its own reuse layers *under* the
    /// memo table with the key it already holds: the durable tier probes
    /// its store under [`DecisionKey::bytes`], and `flqd` decides a miss
    /// from chase snapshots keyed by [`DecisionKey::q1`].
    pub fn contains_keyed(
        &self,
        key: &DecisionKey,
        compute: impl FnOnce() -> Result<ContainmentResult, CoreError>,
    ) -> Result<ContainmentResult, CoreError> {
        if let Some(hit) = self.inner.get(key, |_| true) {
            return Ok(hit);
        }
        let result = compute()?;
        // The witness is expressed in the original queries' variables and
        // does not survive canonical renaming, and the search counts
        // describe work a hit does not do. An exhausted verdict is a
        // statement about the budget that happened to govern this run,
        // not about the pair; caching it would replay "undecided" for
        // callers with generous budgets.
        let hit = ContainmentResult {
            witness: None,
            hom: HomStats::default(),
            ..result
        };
        self.inner
            .insert(key.clone(), hit, charge(key), !result.is_exhausted());
        Ok(result)
    }

    /// [`crate::contains_batch`] through the cache: each pair goes through
    /// [`contains_keyed`](DecisionCache::contains_keyed), and misses are
    /// decided on one [`ChaseSnapshot::for_candidates`] of `q1`, built at
    /// the first miss, so they report the bound [`crate::contains_batch`]
    /// reports. A within-batch repeat of a decided pair is a memo hit.
    /// Pairs of different arities get their error without being keyed.
    pub fn contains_batch(
        &self,
        q1: &ConjunctiveQuery,
        q2s: &[ConjunctiveQuery],
        opts: &ContainmentOptions,
    ) -> Vec<Result<ContainmentResult, CoreError>> {
        let mut builder = KeyBuilder::new(q1, opts);
        let snapshot = OnceCell::new();
        q2s.iter()
            .map(|q2| {
                let (key, _) = builder.key(q2)?;
                self.contains_keyed(&key, || {
                    snapshot
                        .get_or_init(|| ChaseSnapshot::for_candidates(q1, q2s, opts))
                        .as_ref()
                        .map_err(CoreError::clone)?
                        .contains(q2, opts)
                })
            })
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

    impl DecisionCache {
        fn with_cap(cap_bytes: usize) -> DecisionCache {
            DecisionCache {
                inner: RecencyCache::new(cap_bytes),
            }
        }
    }

    #[test]
    fn canonical_form_ignores_variable_names_and_atom_order() {
        let a = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let b = q("p(A, C) :- sub(B, C), sub(A, B).");
        assert_eq!(QueryKey::structural(&a), QueryKey::structural(&b));
    }

    #[test]
    fn canonical_form_distinguishes_different_shapes() {
        let a = q("q(X) :- member(X, c1).");
        let b = q("q(X) :- member(X, c2).");
        assert_ne!(QueryKey::structural(&a), QueryKey::structural(&b));
        let c = q("q(X) :- member(X, Y).");
        assert_ne!(QueryKey::structural(&a), QueryKey::structural(&c));
    }

    #[test]
    fn canonical_form_respects_variable_sharing() {
        // sub(X, X) is not sub(X, Y): the numbering tells them apart.
        let a = q("q() :- sub(X, X).");
        let b = q("q() :- sub(X, Y).");
        assert_ne!(QueryKey::structural(&a), QueryKey::structural(&b));
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
        assert_eq!(QueryKey::structural(&a), QueryKey::structural(&b));
        // Deeper tie: two interleaved chains, emitted from whichever end
        // minimises the encoding regardless of input order.
        let c = q("r() :- sub(X, Y), sub(Y, Z), member(M, Y).");
        let d = q("r() :- sub(V2, V3), member(V4, V2), sub(V1, V2).");
        assert_eq!(QueryKey::structural(&c), QueryKey::structural(&d));
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
    fn mismatched_arities_are_rejected_before_keying() {
        let cache = DecisionCache::new();
        let (q1, q2) = (q("q(X) :- sub(X, Y)."), q("p(X, Y) :- sub(X, Y)."));
        let opts = ContainmentOptions::default();
        let r = cache.contains_with_compute(&q1, &q2, &opts, || unreachable!("no compute"));
        assert!(matches!(r, Err(CoreError::ArityMismatch { q1: 1, q2: 2 })));
        assert!(canonical_pair(&q1, &q2, &opts).is_none());
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
    fn byte_cap_evicts_the_least_recently_used_decision() {
        let opts = ContainmentOptions::default();
        // Keys of one byte length, so each decision is charged alike.
        let q1s: Vec<ConjunctiveQuery> = (10..30)
            .map(|c| {
                q(&format!(
                    "q(X, Z) :- sub(X, Y), sub(Y, Z), member(X, c{c})."
                ))
            })
            .collect();
        let q2 = q("p(X, Z) :- sub(X, Z).");
        let (key, _) = KeyBuilder::new(&q1s[0], &opts).key(&q2).unwrap();
        let cache = DecisionCache::with_cap(3 * charge(&key));
        let computes = std::cell::Cell::new(0);
        let ask = |i: usize| {
            cache
                .contains_with_compute(&q1s[i], &q2, &opts, || {
                    computes.set(computes.get() + 1);
                    contains_with(&q1s[i], &q2, &opts)
                })
                .unwrap()
        };
        let first: Vec<ContainmentResult> = (0..3).map(ask).collect();
        assert_eq!((cache.len(), computes.get()), (3, 3));
        ask(0); // a hit refreshes pair 0
        ask(3); // evicts pair 1, now the least recently used
        assert_eq!((cache.len(), computes.get()), (3, 4));
        ask(0);
        ask(2);
        assert_eq!(computes.get(), 4, "pairs 0 and 2 stayed resident");
        // The evicted pair is decided again, and answers as before.
        let again = ask(1);
        assert_eq!(computes.get(), 5, "pair 1 was evicted");
        assert_eq!(again.verdict(), first[1].verdict());
        assert_eq!(again.level_bound(), first[1].level_bound());
        assert_eq!(again.chase_conjuncts(), first[1].chase_conjuncts());
        assert_eq!(again.max_chase_level(), first[1].max_chase_level());
        for i in 4..q1s.len() {
            ask(i);
            assert_eq!(cache.len(), 3, "the table stays within its cap");
        }
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
