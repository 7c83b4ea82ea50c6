//! Experiment implementations for the benchmark harness.
//!
//! The paper is pure theory — no tables or figures to re-measure — so each
//! experiment here regenerates one of its *claims* as a table (see
//! DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
//! outputs):
//!
//! | id | claim |
//! |----|-------|
//! | E1 | the two worked containments of Section 2 (plus strictness and classical failure) |
//! | E2 | Example 1: ρ12+ρ4 rewrite the query head |
//! | E3 | Example 2 / Figure 1: chase-graph shape of the infinite chase |
//! | E4 | soundness of the Theorem 12 procedure vs naive deepening and concrete databases |
//! | E5 | scaling of the decision procedure in `|q1|`, `|q2|` (Theorem 13) |
//! | E6 | Σ_FL yields strictly more containments than classical CQ reasoning |
//! | E7 | the Theorem 12 level bound vs the level actually needed |
//! | E8 | `chase⁻` stays polynomial (Theorem 13, step 1) |
//! | E9 | repeated-query batches: decision cache, shared chase, parallel chase |
//! | E10 | chase profile of the E4 workload: per-rule firings and per-level growth vs the Theorem 12 bound |
//! | E11 | `flqd` serving economics: cold vs warm latency, batch throughput by worker count |
//! | E12 | transport shapes over warm decisions: close vs keep-alive vs pipelined clients |
//! | E13 | Σ-admission classifier cost and derived chase bounds vs the Theorem 12 bound |
//! | E14 | semantic (canonicalized) cache keys vs raw keys on variant-heavy traffic |
//! | E15 | request-level observability overhead (spans + histograms + access log) and per-stage latency |
//! | E16 | restart-warm serving from the durable decision store |
//! | E17 | soak run of `flqd`'s byte-capped resident caches under never-repeating traffic |

pub mod experiments;
pub mod microbench;
pub mod promstats;
pub mod table;
pub mod wire;

pub use table::Table;
