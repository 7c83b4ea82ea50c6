//! Term and symbol substrate for F-logic Lite.
//!
//! This crate provides the lowest layer of the F-logic Lite stack:
//!
//! * [`Symbol`] — cheap interned identifiers for constants, variables and
//!   predicate names;
//! * [`Term`] — the three kinds of terms that appear in queries and in the
//!   chase: *constants*, *variables*, and *labelled nulls* (the "fresh
//!   constants" invented by rule ρ5 of the paper);
//! * [`Subst`] — finite maps from terms to terms, used both for
//!   homomorphisms and for the merge maps produced by the
//!   equality-generating dependency ρ4.
//!
//! The total order on [`Term`] implements the lexicographic convention of
//! Definition 2 of the paper: every real constant precedes every fresh
//! (labelled-null) constant, which in turn precedes every variable. Within
//! each class, constants and variables compare lexicographically by name and
//! nulls by their numeric id (nulls are invented in increasing id order, so
//! id order *is* the paper's "lexicographically follows all other constants
//! in the segment of the chase constructed so far").

mod null;
pub mod rng;
mod subst;
mod symbol;
mod term;

pub use null::{NullGen, NullId};
pub use subst::Subst;
pub use symbol::Symbol;
pub use term::Term;
