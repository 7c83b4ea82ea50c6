//! Homomorphism search and query cores.
//!
//! Homomorphisms (Definition 1 of the paper) are the workhorse of
//! conjunctive-query containment: `q1 ⊆ q2` classically iff there is a
//! homomorphism from `body(q2)` to `body(q1)` mapping `head(q2)` to
//! `head(q1)` (Chandra–Merlin), and `q1 ⊆_ΣFL q2` iff there is one from
//! `body(q2)` into `chase_ΣFL(q1)` mapping `head(q2)` to
//! `head(chase_ΣFL(q1))` (Theorem 4 / Theorem 12).
//!
//! The search is a backtracking constraint solver over the source atoms:
//!
//! * candidate target conjuncts are retrieved through a `(predicate,
//!   position, term)` index, using the most selective bound position. The
//!   index is any [`AtomIndex`]: a [`Target`] built over a query body or a
//!   database, or a [`Chase`](flogic_chase::Chase), searched in place;
//! * the next source atom to map is chosen dynamically by
//!   fewest-candidates-first (MRV);
//! * source constants must map to themselves; source variables bind
//!   consistently across atoms (and may map to *any* target term — in a
//!   chase, the "values" include the variables of the chased query).

mod core_of;
mod search;
mod target;

pub use core_of::classic_core;
pub use search::{
    all_homs, count_homs, find_hom, find_hom_counted, find_hom_unconstrained, HomStats,
};
pub use target::{AtomIndex, Target};
