//! Containment of conjunctive object meta-queries under `Σ_FL` — the
//! paper's primary contribution (Theorems 4, 12 and 13).
//!
//! The decision procedure follows Theorem 12 literally:
//! `q1 ⊆_ΣFL q2` iff there is a homomorphism from `body(q2)` into the
//! first `|q2| · δ` levels of `chase_ΣFL(q1)` that maps `head(q2)` onto
//! `head(chase_ΣFL(q1))`, where `δ = 2·|q1|`. Concretely:
//!
//! 1. build `chase⁻(q1)` (all rules except ρ5; always terminates; level 0);
//! 2. extend it with the level-bounded chase up to level `2·|q1|·|q2|`;
//! 3. search for the homomorphism by backtracking (`flogic-hom`).
//!
//! If the chase *fails* (ρ4 equates two distinct constants), `q1` has no
//! answers over any database satisfying `Σ_FL`, so the containment holds
//! **vacuously** — reported via [`ContainmentResult::is_vacuous`].
//!
//! Also provided:
//!
//! * [`classic_contains`] — Chandra–Merlin containment *without*
//!   constraints (the baseline the paper's examples are contrasted with);
//! * [`naive`] — an iterative-deepening semi-decision baseline that does
//!   not know the Theorem 12 bound;
//! * [`equivalent`] / [`minimize`] — equivalence and `Σ_FL`-aware query
//!   minimisation built on the containment test;
//! * [`contains_str`] — a parse-and-decide convenience for the surface
//!   syntax;
//! * [`contains_batch`] — decides one `q1` against many candidate
//!   containers, sharing a single chase of `q1`;
//! * [`DecisionCache`] — a byte-capped memo table keyed by a *semantic*
//!   canonical form of the query pair (classic core + deterministic total
//!   ordering, so renamed, permuted and redundant-atom variants share
//!   one entry). [`KeyBuilder`] is the one place a pair becomes a
//!   [`DecisionKey`]; [`QueryKey`] is the per-query half of that key,
//!   and [`canonical_query`] / [`canonical_pair`] expose the canonical
//!   representatives themselves;
//! * [`ChaseSnapshot`] — a resident, reusable chase of one `q1` so that
//!   long-lived processes (the `flqd` server) decide repeated questions
//!   about the same `q1` with the homomorphism search alone. Its
//!   [`contains`](ChaseSnapshot::contains) is the one decision tail:
//!   [`contains_batch`], [`explain`], [`contained_in_union`] and the
//!   cached batch all decide through it, on one
//!   [`ChaseSnapshot::for_candidates`] whose bound comes from
//!   [`sigma_bound`];
//! * [`RecencyCache`] — the byte-capped LRU under both of `flqd`'s RAM
//!   tiers: the decision table and the snapshot cache;
//! * [`encode_decision`] / [`decode_decision`] — the portable, versioned
//!   value codec of the durable decision tier (the `flogic-store` crate;
//!   format in `docs/STORAGE.md`), whose keys are
//!   [`DecisionKey::bytes`].

mod cache;
mod classic;
mod decide;
mod error;
mod explain;
pub mod naive;
mod persist;
mod recency;
mod rewrite;
mod snapshot;
mod union;

pub use cache::{
    canonical_pair, canonical_query, DecisionCache, DecisionKey, KeyBuilder, QueryKey,
};
pub use classic::classic_contains;
pub use decide::{
    bound_from_sizes, contains, contains_batch, contains_with, sigma_bound, theorem_bound,
    ContainmentOptions, ContainmentResult, Verdict,
};
pub use error::{CoreError, DecideError};
pub use persist::{decode_decision, encode_decision, PERSIST_FORMAT_VERSION};
pub use recency::{RecencyCache, RecencyStats};
// Governor types, re-exported so callers can set budgets without a direct
// dependency on the chase crate.
pub use explain::{explain, DerivationStep, Explanation};
pub use flogic_chase::{Budget, CancelToken, ExhaustReason};
pub use rewrite::{equivalent, equivalent_with, minimize, minimize_with};
pub use snapshot::ChaseSnapshot;
pub use union::{contained_in_union, union_contained_in};

use flogic_model::ConjunctiveQuery;
use flogic_syntax::parse_query;

/// Parses two queries from the surface syntax and decides
/// `q1 ⊆_ΣFL q2`.
///
/// ```
/// let r = flogic_core::contains_str(
///     "q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].",
///     "qq(A,B) :- T1[A*=>T2], T2[B*=>_].",
/// ).unwrap();
/// assert!(r.holds());
/// ```
pub fn contains_str(q1: &str, q2: &str) -> Result<ContainmentResult, CoreError> {
    let q1: ConjunctiveQuery = parse_query(q1).map_err(|e| CoreError::Syntax(e.to_string()))?;
    let q2: ConjunctiveQuery = parse_query(q2).map_err(|e| CoreError::Syntax(e.to_string()))?;
    contains(&q1, &q2)
}
