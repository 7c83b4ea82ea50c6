//! Reusable chase snapshots: decide many `q2`s against one resident
//! chase of `q1`.
//!
//! A [`ChaseSnapshot`] is one chase of `q1` as a first-class value.
//! [`contains_batch`](crate::contains_batch) builds one per call and
//! decides every candidate against it; the containment server (`flqd`,
//! crate `flogic-serve`) keeps a byte-capped LRU of them so that repeated
//! questions about the same `q1` skip straight to the homomorphism
//! search.
//!
//! Reuse is sound and complete: a homomorphism into any prefix of
//! `chase_ΣFL(q1)` witnesses containment (the chase is a model of `q1`
//! and `Σ_FL`), and Theorem 12 guarantees that when `q1 ⊆_ΣFL q2` holds
//! a witness already exists within the pair's own bound `2·|q1|·|q2|` —
//! hence also within any larger snapshot bound.
//! [`ChaseSnapshot::contains`] therefore returns **verdict-identical**
//! answers to [`contains_with`] whenever the snapshot
//! [`covers`](ChaseSnapshot::covers) the pair, and falls back to a fresh
//! decision when it does not, so it is *always* safe to call.

use flogic_analysis::QueryAnalysis;
use flogic_chase::Chase;
use flogic_model::ConjunctiveQuery;
use flogic_term::Term;

use crate::decide::{
    analysis_verdict, chase_to, chase_verdict, contains_with, derived_bound, visible_clash,
    ContainmentOptions, ContainmentResult,
};
use crate::CoreError;

/// A resident, reusable chase of one `q1`, with its static-analysis
/// summary precomputed. The homomorphism search runs on the chase's own
/// atom index, so the snapshot holds its atoms once.
///
/// ```
/// use flogic_core::{theorem_bound, ChaseSnapshot, ContainmentOptions};
/// use flogic_syntax::parse_query;
/// let q1 = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
/// let q2 = parse_query("p(X, Z) :- sub(X, Z).").unwrap();
/// let opts = ContainmentOptions::default();
/// let snap = ChaseSnapshot::build(&q1, theorem_bound(&q1, &q2), &opts).unwrap();
/// // Repeated q2s now skip the chase entirely.
/// assert!(snap.contains(&q2, &opts).unwrap().holds());
/// assert!(!snap.contains(&q1, &opts).unwrap().is_exhausted());
/// ```
#[derive(Clone, Debug)]
pub struct ChaseSnapshot {
    q1: ConjunctiveQuery,
    chase: Chase,
    /// The level bound the chase was built to.
    bound: u32,
    /// Statically visible ρ4 clash of `q1`, precomputed for the
    /// analysis-on fast path.
    unsat: Option<(Term, Term)>,
    /// Reachability summary of `q1`, precomputed for the analysis-on
    /// early-false path.
    analysis: QueryAnalysis,
}

impl ChaseSnapshot {
    /// Builds the snapshot: one level-`bound` chase of `q1` plus the
    /// static-analysis summary.
    ///
    /// `opts.level_bound` is ignored (the explicit `bound` wins);
    /// `opts.max_conjuncts`, `opts.threads`, `opts.budget` and
    /// `opts.trace` govern the build exactly as they govern
    /// [`contains_with`]. A build stopped by the budget still returns a
    /// snapshot — [`is_exhausted`](ChaseSnapshot::is_exhausted) is then
    /// true and every [`contains`](ChaseSnapshot::contains) the analysis
    /// cannot settle reports the undecided verdict — so callers can decide
    /// whether to keep it (resident caches should not).
    pub fn build(
        q1: &ConjunctiveQuery,
        bound: u32,
        opts: &ContainmentOptions,
    ) -> Result<ChaseSnapshot, CoreError> {
        Ok(ChaseSnapshot {
            q1: q1.clone(),
            chase: chase_to(q1, bound, opts)?,
            bound,
            unsat: visible_clash(q1, &opts.sigma),
            analysis: QueryAnalysis::for_rules(q1, &opts.sigma),
        })
    }

    /// The query this snapshot chases.
    pub fn q1(&self) -> &ConjunctiveQuery {
        &self.q1
    }

    /// The level bound the chase was built to.
    pub fn level_bound(&self) -> u32 {
        self.bound
    }

    /// Number of conjuncts the chase materialized.
    pub fn chase_conjuncts(&self) -> usize {
        self.chase.len()
    }

    /// True when the build was stopped by its resource budget: the chase
    /// is a prefix and every [`contains`](ChaseSnapshot::contains) that
    /// reaches it reports [`Verdict::Exhausted`](crate::Verdict::Exhausted).
    /// Resident caches should drop such snapshots (the undecidedness is a
    /// property of the build budget, not of `q1`).
    pub fn is_exhausted(&self) -> bool {
        self.chase.is_exhausted()
    }

    /// True when the chase failed (ρ4 equated two distinct constants):
    /// `q1` is unsatisfiable and contained in every query of its arity.
    pub fn is_failed(&self) -> bool {
        self.chase.is_failed()
    }

    /// Approximate resident bytes: the chase graph's own accounting (the
    /// quantity [`flogic_chase::Budget::max_bytes`] caps), which includes
    /// the atom index the homomorphism search runs on. Used by
    /// byte-capped snapshot caches.
    pub fn approx_bytes(&self) -> usize {
        self.chase.approx_bytes()
    }

    /// True when this snapshot's bound suffices to decide `q1 ⊆_ΣFL q2`
    /// exactly as [`contains_with`] would under `opts`: the snapshot bound
    /// must reach the pair's effective bound
    /// (`min(opts.level_bound, theorem)`, or the Theorem 12 bound when no
    /// explicit bound is set).
    pub fn covers(&self, q2: &ConjunctiveQuery, opts: &ContainmentOptions) -> bool {
        let theorem = derived_bound(opts, self.q1.size(), q2.size());
        let effective = opts.level_bound.map_or(theorem, |b| b.min(theorem));
        self.bound >= effective
    }

    /// Decides `q1 ⊆_ΣFL q2` against the resident chase.
    ///
    /// This is [`contains_with`]'s decision tail run on the resident chase
    /// instead of a fresh one: the analysis fast paths first (they answer
    /// without consulting the chase), then the chase outcome, then the
    /// homomorphism search. Verdicts are therefore identical to
    /// [`contains_with`]'s, and exhausted builds report
    /// [`Verdict::Exhausted`](crate::Verdict::Exhausted) just like a
    /// budgeted fresh run. When the snapshot does not
    /// [`covers`](ChaseSnapshot::covers) the pair (its bound is too
    /// shallow), the call transparently falls back to a fresh
    /// [`contains_with`] so the answer is still exact. Reported metadata
    /// (`level_bound`, `chase_conjuncts`) describes the shared chase,
    /// exactly as [`contains_batch`](crate::contains_batch) reports its
    /// shared bound.
    pub fn contains(
        &self,
        q2: &ConjunctiveQuery,
        opts: &ContainmentOptions,
    ) -> Result<ContainmentResult, CoreError> {
        if self.q1.arity() != q2.arity() {
            return Err(CoreError::ArityMismatch {
                q1: self.q1.arity(),
                q2: q2.arity(),
            });
        }
        if !self.covers(q2, opts) {
            return contains_with(&self.q1, q2, opts);
        }
        if opts.analysis {
            let resident = Some(&self.chase);
            if let Some(early) =
                analysis_verdict(self.unsat, &self.analysis, q2, self.bound, resident)
            {
                return Ok(early);
            }
        }
        Ok(chase_verdict(&self.chase, q2, self.bound, &opts.trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::{contains, theorem_bound, Verdict};
    use flogic_chase::ExhaustReason;
    use flogic_syntax::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    fn build(q1: &ConjunctiveQuery, bound: u32) -> ChaseSnapshot {
        ChaseSnapshot::build(q1, bound, &ContainmentOptions::default()).unwrap()
    }

    #[test]
    fn snapshot_agrees_with_fresh_decisions() {
        let q1 = q("q(O, D) :- member(O, C), sub(C, D).");
        let q2s = [
            q("a(O, D) :- member(O, D)."),
            q("b(O, D) :- sub(O, D)."),
            q("c(O, D) :- member(O, C), sub(C, D)."),
            q("d(O, D) :- member(O, D), sub(D, E)."),
        ];
        let bound = q2s.iter().map(|q2| theorem_bound(&q1, q2)).max().unwrap();
        let snap = build(&q1, bound);
        for q2 in &q2s {
            let fresh = contains(&q1, q2).unwrap();
            let snapped = snap.contains(q2, &ContainmentOptions::default()).unwrap();
            assert_eq!(fresh.verdict(), snapped.verdict(), "{q2}");
            assert_eq!(fresh.is_vacuous(), snapped.is_vacuous(), "{q2}");
        }
    }

    #[test]
    fn shallow_snapshot_falls_back_to_fresh_decision() {
        // Bound 0 cannot see the rho5 level the pair needs; the snapshot
        // must notice it does not cover the pair and recompute.
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        let snap = build(&q1, 0);
        assert!(!snap.covers(&q2, &ContainmentOptions::default()));
        let r = snap.contains(&q2, &ContainmentOptions::default()).unwrap();
        assert!(r.holds(), "fallback must run the full-bound chase");
        // An explicit bound of 0 is covered, and decided like contains_with.
        let tight = ContainmentOptions {
            level_bound: Some(0),
            ..Default::default()
        };
        assert!(snap.covers(&q2, &tight));
        assert!(!snap.contains(&q2, &tight).unwrap().holds());
    }

    #[test]
    fn failed_chase_snapshot_is_vacuous_for_every_pair() {
        let q1 = q("q() :- data(o, a, 1), data(o, a, 2), funct(a, o).");
        let opts = ContainmentOptions {
            analysis: false,
            ..Default::default()
        };
        let snap = ChaseSnapshot::build(&q1, 4, &opts).unwrap();
        assert!(snap.is_failed());
        let r = snap.contains(&q("qq() :- sub(X, Y)."), &opts).unwrap();
        assert!(r.holds() && r.is_vacuous());
    }

    #[test]
    fn exhausted_build_reports_exhausted_verdicts() {
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let opts = ContainmentOptions {
            max_conjuncts: 5,
            analysis: false,
            ..Default::default()
        };
        let snap = ChaseSnapshot::build(&q1, 100, &opts).unwrap();
        assert!(snap.is_exhausted());
        let r = snap.contains(&q("qq() :- data(T, A, V)."), &opts).unwrap();
        assert_eq!(r.verdict(), Verdict::Exhausted(ExhaustReason::Conjuncts));
    }

    #[test]
    fn snapshot_reports_bytes_and_metadata() {
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let snap = build(&q1, 8);
        assert_eq!(snap.q1(), &q1);
        assert_eq!(snap.level_bound(), 8);
        assert!(snap.chase_conjuncts() >= 2);
        assert!(snap.approx_bytes() > 0);
        assert!(!snap.is_failed() && !snap.is_exhausted());
    }

    #[test]
    fn snapshot_is_charged_for_its_chase_alone() {
        // The hom search runs on the chase's own index: there is no second
        // copy of the atoms to account for.
        let snap = build(&q("q() :- mandatory(A, T), type(T, A, T), sub(T, U)."), 6);
        assert!(snap.chase_conjuncts() > 4);
        assert_eq!(snap.approx_bytes(), snap.chase.approx_bytes());
    }

    #[test]
    fn resident_snapshot_does_not_pin_its_build_tracer() {
        let tracer = flogic_obs::Tracer::with_default_capacity();
        let opts = ContainmentOptions {
            threads: 2,
            trace: flogic_obs::TraceHandle::enabled(&tracer),
            ..ContainmentOptions::default()
        };
        let q1 = q("q() :- mandatory(A, T), type(T, A, T), sub(T, U).");
        let snap = ChaseSnapshot::build(&q1, 4, &opts).unwrap();
        assert!(!tracer.snapshot().events.is_empty(), "the build was traced");
        drop(opts);
        // Only the test's own reference is left: the snapshot, its chase
        // and the joined discovery workers hold no handle to the rings.
        assert_eq!(std::sync::Arc::strong_count(&tracer), 1);
        assert!(snap.chase_conjuncts() > q1.size());
    }
}
