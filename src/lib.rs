//! # flogic-lite
//!
//! A complete implementation of **"Containment of Conjunctive Object
//! Meta-Queries"** (Andrea Calì and Michael Kifer, VLDB 2006): the F-logic
//! Lite data model, its relational encoding `P_FL` with the rule set
//! `Σ_FL`, the chase machinery of the paper, and the decision procedure for
//! conjunctive meta-query containment under `Σ_FL`.
//!
//! This umbrella crate re-exports the public API of the workspace:
//!
//! * [`term`] — interned symbols, terms and substitutions;
//! * [`syntax`] — parser and pretty-printer for F-logic Lite surface syntax;
//! * [`model`] — `P_FL` atoms, conjunctive queries, databases and `Σ_FL`;
//! * [`datalog`] — a bottom-up Datalog engine used to evaluate meta-queries
//!   over concrete databases and to close databases under `Σ_FL`;
//! * [`chase`] — the chase of a query w.r.t. `Σ_FL`, with levels and the
//!   chase graph of Definition 3;
//! * [`hom`] — homomorphism search and query cores;
//! * [`core`] — the containment decision procedure (Theorems 12 and 13);
//! * [`gen`] — seeded random workload generators;
//! * [`analysis`] — static diagnostics (`FL001`…), the `Σ_FL` dependency
//!   graph and the containment fast paths behind
//!   [`ContainmentOptions::analysis`](flogic_core::ContainmentOptions);
//! * [`obs`] — `flqd`'s request-level observability primitives: latency
//!   histograms and per-request stage spans;
//! * [`serve`] — `flqd`, the resident batched containment service: a
//!   dependency-free HTTP/1.1 server with warm decision and
//!   chase-snapshot caches (also reachable as `flq serve`);
//! * [`store`] — the durable decision tier: a dependency-free LSM store
//!   (WAL, segments, bloom filters, fenced manifest, background
//!   compaction) persisting containment verdicts across restarts behind
//!   `flqd --data-dir`; on-disk format in `docs/STORAGE.md`.
//!
//! ## Quickstart
//!
//! ```
//! use flogic_lite::prelude::*;
//!
//! // The "joinable attributes" example from Section 2 of the paper.
//! let q = parse_query("q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].").unwrap();
//! let qq = parse_query("qq(A,B) :- T1[A*=>T2], T2[B*=>_].").unwrap();
//!
//! assert!(contains(&q, &qq).unwrap().holds());
//! assert!(!contains(&qq, &q).unwrap().holds());
//! ```

pub use flogic_analysis as analysis;
pub use flogic_chase as chase;
pub use flogic_core as core;
pub use flogic_datalog as datalog;
pub use flogic_gen as gen;
pub use flogic_hom as hom;
pub use flogic_model as model;
pub use flogic_obs as obs;
pub use flogic_serve as serve;
pub use flogic_store as store;
pub use flogic_syntax as syntax;
pub use flogic_term as term;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use flogic_analysis::{analyze_program, lint_source, DiagCode, Diagnostic, Severity};
    pub use flogic_core::{contains, equivalent, ContainmentResult};
    pub use flogic_model::{Atom, ConjunctiveQuery, Database, Pred};
    pub use flogic_syntax::{parse_database, parse_goal, parse_program, parse_query};
    pub use flogic_term::{Subst, Symbol, Term};
}
