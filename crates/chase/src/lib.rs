//! The chase of a conjunctive meta-query with respect to `Σ_FL`.
//!
//! This crate implements the machinery of Sections 3 and 4 of the paper:
//!
//! * the **chase** of a query (Definition 2): the query body is treated as a
//!   database; violations of the TGDs are repaired by adding conjuncts, the
//!   EGD ρ4 is repaired by equating terms (rewriting the lexicographically
//!   larger into the smaller; equating two distinct rigid constants fails
//!   the construction), and ρ5 invents fresh labelled nulls under the
//!   restricted applicability test;
//! * the **chase graph** (Definition 3): conjuncts are nodes, each rule
//!   application contributes rule-labelled arcs from the premise conjuncts
//!   to the conclusion, *cross-arcs* record applications whose conclusion
//!   already existed, and every conjunct carries a *level*;
//! * the paper's **two-phase discipline** (Section 4): first
//!   `chase⁻ = chase_{Σ_FL − ρ5}`, which always terminates and whose
//!   conjuncts are all assigned level 0; then the level-bounded phase with
//!   all twelve rules, which is where the possibly-infinite
//!   ρ5–ρ1–ρ6–ρ10 pump unrolls;
//! * analysis helpers: conjunct **equivalence** (Definition 6), primary and
//!   secondary arcs, the **locality** property (Lemma 5) as a checkable
//!   predicate, and detection of the **mandatory-attribute cycles** that
//!   make the chase infinite (Section 4).

mod cycles;
mod dot;
mod engine;
mod governor;
mod graph;
mod paths;

pub use cycles::{find_mandatory_cycles, has_infinite_chase_potential, MandatoryCycle};
pub use dot::{to_dot, to_text};
pub use engine::{
    chase_bounded, chase_minus, chase_minus_with, Chase, ChaseOptions, ChaseOutcome, ChaseStats,
    LevelGrowth,
};
pub use governor::{Budget, CancelToken, ChaseError, ExhaustReason};
pub use graph::{
    equivalent_conjuncts, locality_violations, ChaseArc, ConjunctId, LocalityViolation,
};
pub use paths::{
    count_primary_paths, find_equivalent_pair, is_primary_path_arc, max_primary_path_multiplicity,
    parallel, primary_path, Path,
};
