//! The Theorem 12 decision procedure.

use std::sync::Arc;

use flogic_analysis::{classify_rule_set, direct_unsat, QueryAnalysis};
use flogic_chase::{chase_bounded, Budget, Chase, ChaseOptions, ChaseOutcome, ExhaustReason};
use flogic_hom::find_hom_traced;
use flogic_model::{ConjunctiveQuery, RuleSet};
use flogic_obs::{ChaseEvent, SpanKind, TraceHandle};
use flogic_term::{Metrics, Subst, Term};

use crate::{ChaseSnapshot, CoreError};

/// Options for [`contains_with`].
///
/// Every knob is verdict-preserving except [`level_bound`] below the
/// Theorem 12 bound (sound but incomplete) and a [`budget`] that actually
/// runs out (the verdict degrades to [`Verdict::Exhausted`]):
///
/// ```
/// use flogic_core::{contains_with, ContainmentOptions, Budget};
/// use flogic_syntax::parse_query;
/// let q1 = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
/// let q2 = parse_query("p(X, Z) :- sub(X, Z).").unwrap();
/// let opts = ContainmentOptions {
///     threads: 2,
///     analysis: false,
///     budget: Budget::unlimited().steps(100_000),
///     ..Default::default()
/// };
/// assert!(contains_with(&q1, &q2, &opts).unwrap().holds());
/// ```
///
/// [`level_bound`]: ContainmentOptions::level_bound
/// [`budget`]: ContainmentOptions::budget
#[derive(Clone, Debug)]
pub struct ContainmentOptions {
    /// Chase level bound; `None` uses the Theorem 12 bound
    /// `2·|q1|·|q2|` (see [`theorem_bound`]). A smaller bound makes the
    /// check *sound but incomplete* (a "holds" answer is always right, a
    /// "does not hold" answer may be wrong); a larger bound is never
    /// needed.
    pub level_bound: Option<u32>,
    /// Safety cap on materialized chase conjuncts.
    pub max_conjuncts: usize,
    /// Worker threads for chase rule discovery (see
    /// [`ChaseOptions::threads`]): `1` is fully sequential, `0` uses the
    /// machine's available parallelism. The decision is identical for
    /// every setting.
    pub threads: usize,
    /// Consult the static analyzer (`flogic-analysis`) before chasing:
    /// sound early `false` when `q2` needs a predicate unreachable from
    /// `q1`'s chase frontier, sound early `true` when `q1` carries a
    /// visible ρ4 violation. The verdict is identical with the toggle on
    /// or off; only the work (and the [`Metrics`] analysis counters)
    /// changes. Default: `true`.
    pub analysis: bool,
    /// Resource budget for the chase (deadline, step/byte caps,
    /// cancellation). When a limit fires, the decision comes back as
    /// [`Verdict::Exhausted`] with the partial chase statistics instead of
    /// an error. Default: unlimited.
    pub budget: Budget,
    /// Structured-event sink, threaded down into the chase engine and the
    /// homomorphism search. The default ([`TraceHandle::Disabled`]) costs
    /// one branch per instrumentation site; enabling tracing never changes
    /// the verdict (it only observes). Default: disabled.
    pub trace: TraceHandle,
    /// The active rule set Σ. Default: the built-in `Σ_FL`, which keeps
    /// every code path bit-identical to the classic decider. A custom set
    /// (from `flq --sigma FILE` or `flogic_analysis::admit_sigma`) must be
    /// *admitted* by the Σ-admission analyzer; the default Theorem 12
    /// bound is then replaced by the admission-derived bound for the
    /// set's chase-termination class, and the `Σ_FL`-specific analysis
    /// fast paths are re-derived against the custom set (the `direct
    /// unsat` ρ4 shortcut applies only to `Σ_FL` itself).
    pub sigma: Arc<RuleSet>,
    /// Key caches *semantically*: [`crate::DecisionCache`] keys complete
    /// (non-truncated) decisions by the classic core of each query, so
    /// classically equivalent spellings — renamed variables, permuted
    /// conjuncts, redundant atoms — share one entry. The verdict is
    /// identical with the toggle on or off (a core answers every
    /// Σ-containment question exactly like the query it minimizes); only
    /// hit rates and the [`Metrics`] canon counters change. The
    /// uncached [`contains_with`] ignores this knob entirely.
    /// Default: `true`.
    pub canon: bool,
}

impl Default for ContainmentOptions {
    fn default() -> Self {
        ContainmentOptions {
            level_bound: None,
            max_conjuncts: 1_000_000,
            threads: 1,
            analysis: true,
            budget: Budget::default(),
            trace: TraceHandle::Disabled,
            sigma: RuleSet::sigma_fl().clone(),
            canon: true,
        }
    }
}

/// The Theorem 12 level bound `δ·|q2|` with `δ = 2·|q1|`, where `|q|` is
/// the number of body conjuncts.
pub fn theorem_bound(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> u32 {
    bound_from_sizes(q1.size(), q2.size())
}

/// The Theorem 12 bound `2·n1·n2` from raw body sizes, computed in `u64`
/// and clamped to `u32::MAX`.
///
/// The clamp is sound: Theorem 12 needs *at most* `2·n1·n2` levels, so
/// when the true product exceeds `u32::MAX` the clamped bound only allows
/// the chase to go deeper than required — it can never produce a
/// too-small (unsound) bound the way wrapping `u32` arithmetic would.
/// Astronomical bounds are then governed by
/// [`ContainmentOptions::budget`] rather than by the level cap.
pub fn bound_from_sizes(n1: usize, n2: usize) -> u32 {
    let product = 2u64.saturating_mul(n1 as u64).saturating_mul(n2 as u64);
    u32::try_from(product).unwrap_or(u32::MAX)
}

/// The level bound an options struct implies for body sizes `n1`, `n2`:
/// the explicit [`ContainmentOptions::level_bound`] override if set, the
/// Theorem 12 bound for the built-in `Σ_FL`, or the admission-derived
/// bound of a custom rule set (weakly acyclic sets get the rank-based
/// terminating bound, guarded/sticky sets the `2·n1·n2` shape — see
/// [`flogic_analysis::SigmaAdmission::level_bound`]).
pub(crate) fn sigma_bound(opts: &ContainmentOptions, n1: usize, n2: usize) -> u32 {
    opts.level_bound
        .unwrap_or_else(|| derived_bound(opts, n1, n2))
}

/// The rule-set-derived bound alone, ignoring any explicit
/// [`ContainmentOptions::level_bound`] override (used by
/// [`crate::ChaseSnapshot::covers`], which combines the two itself).
pub(crate) fn derived_bound(opts: &ContainmentOptions, n1: usize, n2: usize) -> u32 {
    if opts.sigma.is_sigma_fl() {
        bound_from_sizes(n1, n2)
    } else {
        classify_rule_set(opts.sigma.clone()).level_bound(n1, n2)
    }
}

/// The three-valued answer of a containment check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `q1 ⊆_ΣFL q2` holds (certified by a witness or a failed chase).
    Holds,
    /// `q1 ⊆_ΣFL q2` does not hold (the full Theorem 12 prefix was
    /// searched and no witness exists).
    NotHolds,
    /// A resource limit stopped the chase before the Theorem 12 prefix
    /// was complete: the question is undecided. Partial progress is in
    /// [`ContainmentResult::chase_conjuncts`] /
    /// [`ContainmentResult::max_chase_level`].
    Exhausted(ExhaustReason),
}

/// Outcome of a containment check.
#[derive(Clone, Debug)]
pub struct ContainmentResult {
    pub(crate) verdict: Verdict,
    pub(crate) vacuous: bool,
    pub(crate) witness: Option<Subst>,
    pub(crate) chase_conjuncts: usize,
    pub(crate) chase_outcome: ChaseOutcome,
    pub(crate) level_bound: u32,
    pub(crate) max_chase_level: u32,
    pub(crate) decided_by_analysis: bool,
}

impl ContainmentResult {
    /// Does `q1 ⊆_ΣFL q2` hold? `false` for both [`Verdict::NotHolds`]
    /// and [`Verdict::Exhausted`] — use [`verdict`](Self::verdict) or
    /// [`is_exhausted`](Self::is_exhausted) to tell them apart.
    pub fn holds(&self) -> bool {
        self.verdict == Verdict::Holds
    }

    /// The three-valued verdict.
    pub fn verdict(&self) -> Verdict {
        self.verdict
    }

    /// True when a resource limit stopped the chase and the question is
    /// undecided.
    pub fn is_exhausted(&self) -> bool {
        matches!(self.verdict, Verdict::Exhausted(_))
    }

    /// Converts an [`Verdict::Exhausted`] result into
    /// [`CoreError::Exhausted`], for callers whose answer is meaningless
    /// unless the question was actually decided (`equivalent`,
    /// `minimize`, the union checks). Decided results pass through.
    pub fn require_decided(self) -> Result<ContainmentResult, CoreError> {
        match self.verdict {
            Verdict::Exhausted(reason) => Err(CoreError::Exhausted {
                reason,
                conjuncts: self.chase_conjuncts,
                levels: self.max_chase_level,
            }),
            Verdict::Holds | Verdict::NotHolds => Ok(self),
        }
    }

    /// True when the containment holds because `chase(q1)` failed — i.e.
    /// `q1` is unsatisfiable w.r.t. `Σ_FL` and returns no answers on any
    /// admissible database.
    pub fn is_vacuous(&self) -> bool {
        self.vacuous
    }

    /// The witnessing homomorphism `body(q2) → chase(q1)`, when the
    /// containment holds non-vacuously.
    pub fn witness(&self) -> Option<&Subst> {
        self.witness.as_ref()
    }

    /// Number of conjuncts the bounded chase materialized.
    pub fn chase_conjuncts(&self) -> usize {
        self.chase_conjuncts
    }

    /// How the chase run ended.
    pub fn chase_outcome(&self) -> ChaseOutcome {
        self.chase_outcome
    }

    /// The level bound that was used.
    pub fn level_bound(&self) -> u32 {
        self.level_bound
    }

    /// The deepest level the chase actually reached (≤ the bound).
    pub fn max_chase_level(&self) -> u32 {
        self.max_chase_level
    }

    /// True when the verdict came from the static analyzer's fast path
    /// and no chase was materialized (see
    /// [`ContainmentOptions::analysis`]).
    pub fn decided_by_analysis(&self) -> bool {
        self.decided_by_analysis
    }
}

/// Decides `q1 ⊆_ΣFL q2` with the Theorem 12 bound and default resource
/// limits.
///
/// ```
/// use flogic_syntax::parse_query;
/// // Subclass transitivity (rho2) makes the two-hop query contained in
/// // the one-hop query — a containment classical reasoning misses.
/// let q1 = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
/// let q2 = parse_query("p(X, Z) :- sub(X, Z).").unwrap();
/// assert!(flogic_core::contains(&q1, &q2).unwrap().holds());
/// assert!(!flogic_core::contains(&q2, &q1).unwrap().holds());
/// ```
pub fn contains(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<ContainmentResult, CoreError> {
    contains_with(q1, q2, &ContainmentOptions::default())
}

/// Decides `q1 ⊆_ΣFL q2` (Theorem 12): builds the level-bounded chase of
/// `q1` and searches for a homomorphism from `body(q2)` into it that maps
/// `head(q2)` onto the (possibly ρ4-rewritten) head of the chase.
pub fn contains_with(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Result<ContainmentResult, CoreError> {
    if q1.arity() != q2.arity() {
        return Err(CoreError::ArityMismatch {
            q1: q1.arity(),
            q2: q2.arity(),
        });
    }
    let bound = sigma_bound(opts, q1.size(), q2.size());
    let _decide_span = opts.trace.span(SpanKind::Decide);
    let theorem = theorem_bound(q1, q2);
    opts.trace.emit(|| ChaseEvent::Bound {
        level_bound: u64::from(bound),
        theorem_bound: u64::from(theorem),
    });
    if opts.analysis {
        let analysis = QueryAnalysis::for_rules(q1, &opts.sigma);
        if let Some(early) =
            analysis_verdict(visible_clash(q1, &opts.sigma), &analysis, q2, bound, None)
        {
            return Ok(early);
        }
    }
    let chase = chase_to(q1, bound, opts)?;
    Ok(chase_verdict(&chase, q2, bound, &opts.trace))
}

/// Chases `q1` to `bound` levels under the chase knobs of `opts`.
pub(crate) fn chase_to(
    q1: &ConjunctiveQuery,
    bound: u32,
    opts: &ContainmentOptions,
) -> Result<Chase, CoreError> {
    let chase_opts = ChaseOptions {
        level_bound: bound,
        max_conjuncts: opts.max_conjuncts,
        threads: opts.threads,
        budget: opts.budget.clone(),
        trace: opts.trace.clone(),
        sigma: opts.sigma.clone(),
    };
    Ok(chase_bounded(q1, &chase_opts)?)
}

/// The statically visible ρ4 clash of `q1`, if any. The shortcut is
/// specific to `Σ_FL`'s EGD; under a custom rule set it is skipped
/// (soundly: it only ever *adds* an early answer).
pub(crate) fn visible_clash(q1: &ConjunctiveQuery, sigma: &RuleSet) -> Option<(Term, Term)> {
    sigma.is_sigma_fl().then(|| direct_unsat(q1)).flatten()
}

/// The static fast paths of [`ContainmentOptions::analysis`]. `Some`
/// means the verdict is already certain and agrees with what the chase
/// would say (see the soundness arguments in `flogic-analysis::fastpath`
/// and `DESIGN.md`):
///
/// * a visible ρ4 clash (`unsat`) fails the chase of `q1` in its first
///   EGD phase at every bound, so the pair holds vacuously;
/// * when `q2` needs a predicate `chase(q1)` can never contain, and that
///   chase cannot fail, the pair does not hold. The result reports the
///   `resident` chase's statistics when there is one, else an empty run.
///
/// `None` records the pair as chased: [`chase_verdict`] decides it.
pub(crate) fn analysis_verdict(
    unsat: Option<(Term, Term)>,
    analysis: &QueryAnalysis,
    q2: &ConjunctiveQuery,
    bound: u32,
    resident: Option<&Chase>,
) -> Option<ContainmentResult> {
    let metrics = Metrics::global();
    let (verdict, vacuous, chase_outcome, chase_conjuncts, max_chase_level) =
        if let Some((left, right)) = unsat {
            metrics.record_analysis_early_true();
            (
                Verdict::Holds,
                true,
                ChaseOutcome::Failed { left, right },
                0,
                0,
            )
        } else if analysis.refutes_hom(q2) {
            metrics.record_analysis_early_false();
            let (outcome, len, level) = resident.map_or((ChaseOutcome::Completed, 0, 0), |c| {
                (c.outcome(), c.len(), c.max_level())
            });
            (Verdict::NotHolds, false, outcome, len, level)
        } else {
            metrics.record_analysis_chased();
            return None;
        };
    Some(ContainmentResult {
        verdict,
        vacuous,
        witness: None,
        chase_conjuncts,
        chase_outcome,
        level_bound: bound,
        max_chase_level,
        decided_by_analysis: true,
    })
}

/// Decides `q1 ⊆_ΣFL q2` from a chase of `q1` built to `bound` levels:
///
/// * a failed chase means `q1` is unsatisfiable under Σ (`q1(B) = ∅` on
///   every admissible `B`), so the pair holds vacuously;
/// * an exhausted chase is a prefix, so the question stays undecided; the
///   partial statistics ride along so callers can report how far the run
///   got;
/// * otherwise the homomorphism search on the chase's own index decides.
pub(crate) fn chase_verdict(
    chase: &Chase,
    q2: &ConjunctiveQuery,
    bound: u32,
    trace: &TraceHandle,
) -> ContainmentResult {
    let (verdict, vacuous, witness) = match chase.outcome() {
        ChaseOutcome::Failed { .. } => (Verdict::Holds, true, None),
        ChaseOutcome::Exhausted { reason } => (Verdict::Exhausted(reason), false, None),
        ChaseOutcome::Completed | ChaseOutcome::LevelBounded => {
            let witness = find_hom_traced(q2.body(), q2.head(), chase, chase.head(), trace);
            let verdict = if witness.is_some() {
                Verdict::Holds
            } else {
                Verdict::NotHolds
            };
            (verdict, false, witness)
        }
    };
    ContainmentResult {
        verdict,
        vacuous,
        witness,
        chase_conjuncts: chase.len(),
        chase_outcome: chase.outcome(),
        level_bound: bound,
        max_chase_level: chase.max_level(),
        decided_by_analysis: false,
    }
}

/// Decides `q1 ⊆_ΣFL q2` for every `q2` in `q2s`, **sharing one chase of
/// `q1`** across all candidates instead of rebuilding it per pair: one
/// [`ChaseSnapshot`] is built and every slot is its
/// [`ChaseSnapshot::contains`].
///
/// The shared chase is built to the *largest* per-pair bound (the maximum
/// of `opts.level_bound` or the per-pair Theorem 12 bounds). This stays
/// sound *and* complete for every pair: a homomorphism into any prefix of
/// `chase(q1)` witnesses containment (the chase is a model of `q1` and
/// `Σ_FL`), and Theorem 12 guarantees that when containment holds a
/// witness exists already within the pair's own — hence also within the
/// larger shared — bound. Each result reports the shared bound.
///
/// Each slot is decided in [`contains_with`]'s order: the analysis fast
/// paths answer first, then the chase outcome (failed: vacuous; exhausted:
/// undecided), then the homomorphism search. So a pair the analyzer
/// settles gets the same verdict in a batch as alone, even when the
/// shared chase ran out of budget.
///
/// Candidates whose arity differs from `q1` get
/// [`CoreError::ArityMismatch`] in their slot; one pair failing does not
/// poison the batch. If `chase(q1)` itself fails, every same-arity pair
/// holds vacuously.
///
/// ```
/// use flogic_core::{contains_batch, ContainmentOptions};
/// use flogic_syntax::parse_query;
/// let q1 = parse_query("q(O, D) :- member(O, C), sub(C, D).").unwrap();
/// let q2s = vec![
///     parse_query("a(O, D) :- member(O, D).").unwrap(),
///     parse_query("b(O, D) :- sub(O, D).").unwrap(),
/// ];
/// let results = contains_batch(&q1, &q2s, &ContainmentOptions::default());
/// assert!(results[0].as_ref().unwrap().holds());
/// assert!(!results[1].as_ref().unwrap().holds());
/// ```
pub fn contains_batch(
    q1: &ConjunctiveQuery,
    q2s: &[ConjunctiveQuery],
    opts: &ContainmentOptions,
) -> Vec<Result<ContainmentResult, CoreError>> {
    let same_arity = || q2s.iter().filter(|q2| q2.arity() == q1.arity());
    let bound = same_arity()
        .map(|q2| sigma_bound(opts, q1.size(), q2.size()))
        .max()
        .unwrap_or(0);
    let _decide_span = opts.trace.span(SpanKind::Decide);
    let theorem = same_arity()
        .map(|q2| theorem_bound(q1, q2))
        .max()
        .unwrap_or(0);
    opts.trace.emit(|| ChaseEvent::Bound {
        level_bound: u64::from(bound),
        theorem_bound: u64::from(theorem),
    });
    match ChaseSnapshot::build(q1, bound, opts) {
        Ok(snapshot) => q2s.iter().map(|q2| snapshot.contains(q2, opts)).collect(),
        // A worker panic poisons only this batch call, not the process;
        // every slot reports the same error.
        Err(err) => q2s.iter().map(|_| Err(err.clone())).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_syntax::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn paper_joinable_attributes_containment() {
        // Section 2: q(A,B) ⊆ qq(A,B).
        let q1 = q("q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].");
        let q2 = q("qq(A,B) :- T1[A*=>T2], T2[B*=>_].");
        let r = contains(&q1, &q2).unwrap();
        assert!(r.holds(), "the paper's first example containment");
        assert!(!r.is_vacuous());
        assert!(r.witness().is_some());
        // And the converse fails.
        assert!(!contains(&q2, &q1).unwrap().holds());
    }

    #[test]
    fn paper_mandatory_attribute_containment() {
        // Section 2, second example.
        let q1 = q("q(Att,Class,Type) :- Class[Att {1,*} *=> _], Class[Att*=>Type], _:Class.");
        let q2 = q("qq(Att,Class,Type) :- Obj[Att->_], Obj:Class, Class[Att*=>Type].");
        let r = contains(&q1, &q2).unwrap();
        assert!(r.holds(), "the paper's second example containment");
        assert!(!contains(&q2, &q1).unwrap().holds(), "strict containment");
    }

    #[test]
    fn identical_queries_contained_both_ways() {
        let q1 = q("q(X) :- member(X, C), sub(C, D).");
        assert!(contains(&q1, &q1).unwrap().holds());
    }

    #[test]
    fn classical_containment_still_detected() {
        let q1 = q("q(X) :- member(X, c), data(X, a, V).");
        let q2 = q("qq(X) :- member(X, c).");
        assert!(contains(&q1, &q2).unwrap().holds());
        assert!(!contains(&q2, &q1).unwrap().holds());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let q1 = q("q(X) :- member(X, C).");
        let q2 = q("qq(X, Y) :- member(X, Y).");
        assert_eq!(
            contains(&q1, &q2).unwrap_err(),
            CoreError::ArityMismatch { q1: 1, q2: 2 }
        );
    }

    #[test]
    fn vacuous_containment_on_failed_chase() {
        // q1 forces 1 = 2 via a functional attribute: unsatisfiable.
        let q1 = q("q() :- data(o, a, 1), data(o, a, 2), funct(a, o).");
        let q2 = q("qq() :- sub(X, Y).");
        let r = contains(&q1, &q2).unwrap();
        assert!(r.holds());
        assert!(r.is_vacuous());
    }

    #[test]
    fn subclass_transitivity_containment() {
        // q1 walks two sub edges; q2 wants one: holds only thanks to ρ2.
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("qq(X, Z) :- sub(X, Z).");
        let r = contains(&q1, &q2).unwrap();
        assert!(r.holds(), "needs rho2, not just Chandra-Merlin");
    }

    #[test]
    fn membership_inheritance_containment() {
        // member(O, C), sub(C, D) ⊨ member(O, D) (ρ3).
        let q1 = q("q(O, D) :- member(O, C), sub(C, D).");
        let q2 = q("qq(O, D) :- member(O, D).");
        assert!(contains(&q1, &q2).unwrap().holds());
    }

    #[test]
    fn mandatory_cycle_containment_uses_deep_chase() {
        // q1's chase is infinite (Example 2 pattern); q2 asks for a data
        // value of the cyclic attribute — produced by ρ5 at level 1.
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        let r = contains(&q1, &q2).unwrap();
        assert!(r.holds(), "needs the bounded rho5 chase");
        assert!(r.max_chase_level() >= 1);
    }

    #[test]
    fn head_rewriting_respected() {
        // Example 1: chase rewrites head (V1, V2) to (V1, V1); a q2 with
        // equal head variables is then a container.
        let q1 = q("q(V1, V2) :- data(O, A, V1), data(O, A, V2), funct(A, C), member(O, C).");
        let q2 = q("qq(W, W) :- data(O, A, W).");
        let r = contains(&q1, &q2).unwrap();
        assert!(
            r.holds(),
            "head side-effect of rho4 enables the containment"
        );
        // Without the funct atom the head stays (V1, V2) and q2 no longer
        // contains q1.
        let q1_free = q("q(V1, V2) :- data(O, A, V1), data(O, A, V2), member(O, C).");
        assert!(!contains(&q1_free, &q2).unwrap().holds());
    }

    #[test]
    fn custom_bound_is_respected() {
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        // Bound 0: no rho5 level, hom cannot be found.
        let opts = ContainmentOptions {
            level_bound: Some(0),
            max_conjuncts: 10_000,
            ..Default::default()
        };
        assert!(!contains_with(&q1, &q2, &opts).unwrap().holds());
        // The theorem bound finds it.
        assert!(contains(&q1, &q2).unwrap().holds());
    }

    #[test]
    fn resource_cap_is_reported() {
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V).");
        let opts = ContainmentOptions {
            level_bound: None,
            max_conjuncts: 5,
            ..Default::default()
        };
        // Exhaustion is a verdict with partial stats, not an error.
        let r = contains_with(&q1, &q2, &opts).unwrap();
        assert_eq!(r.verdict(), Verdict::Exhausted(ExhaustReason::Conjuncts));
        assert!(r.is_exhausted());
        assert!(!r.holds());
        assert!(r.chase_conjuncts() >= 2, "partial progress reported");
    }

    #[test]
    fn deadline_exhaustion_is_a_verdict() {
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V).");
        let opts = ContainmentOptions {
            budget: Budget::with_timeout(std::time::Duration::ZERO),
            ..Default::default()
        };
        let r = contains_with(&q1, &q2, &opts).unwrap();
        assert_eq!(r.verdict(), Verdict::Exhausted(ExhaustReason::Deadline));
    }

    #[test]
    fn batch_exhaustion_fills_every_slot() {
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2s = vec![q("a() :- data(T, A, V)."), q("b(X) :- sub(X, Y).")];
        let opts = ContainmentOptions {
            max_conjuncts: 5,
            analysis: false,
            ..Default::default()
        };
        let batch = contains_batch(&q1, &q2s, &opts);
        let r = batch[0].as_ref().unwrap();
        assert_eq!(r.verdict(), Verdict::Exhausted(ExhaustReason::Conjuncts));
        // Arity mismatches still win over exhaustion in their slot.
        assert!(matches!(
            batch[1],
            Err(CoreError::ArityMismatch { q1: 0, q2: 1 })
        ));
    }

    #[test]
    fn theorem_bound_formula() {
        let q1 = q("q() :- sub(A, B), sub(B, C), sub(C, D).");
        let q2 = q("qq() :- sub(X, Y), sub(Y, Z).");
        assert_eq!(theorem_bound(&q1, &q2), 2 * 3 * 2);
    }

    #[test]
    fn theorem_bound_clamps_instead_of_wrapping() {
        // 2·2^20·2^20 = 2^41; wrapping u32 arithmetic would yield 0 — an
        // unsound too-small bound. The u64 computation clamps to u32::MAX.
        assert_eq!(bound_from_sizes(1 << 20, 1 << 20), u32::MAX);
        // 2·2^16·2^15 = 2^32 is the first value past u32::MAX: in u32 it
        // would wrap to exactly 0.
        assert_eq!(bound_from_sizes(1 << 16, 1 << 15), u32::MAX);
        // One conjunct fewer on either side stays exact:
        // 2·(2^16−1)·2^15 = 2^32 − 2^16.
        assert_eq!(
            bound_from_sizes((1 << 16) - 1, 1 << 15),
            u32::MAX - (1 << 16) + 1
        );
        // Degenerate and small sizes are exact.
        assert_eq!(bound_from_sizes(0, 100), 0);
        assert_eq!(bound_from_sizes(3, 5), 30);
        // usize::MAX on both sides saturates rather than overflowing u64.
        assert_eq!(bound_from_sizes(usize::MAX, usize::MAX), u32::MAX);
    }

    #[test]
    fn batch_agrees_with_single_pair_checks() {
        let q1 = q("q(O, D) :- member(O, C), sub(C, D).");
        let q2s = vec![
            q("a(O, D) :- member(O, D)."),
            q("b(O, D) :- sub(O, D)."),
            q("c(O, D) :- member(O, C), sub(C, D)."),
        ];
        let batch = contains_batch(&q1, &q2s, &ContainmentOptions::default());
        for (q2, br) in q2s.iter().zip(&batch) {
            let single = contains(&q1, q2).unwrap();
            assert_eq!(br.as_ref().unwrap().holds(), single.holds(), "{q2}");
        }
        assert!(batch[0].as_ref().unwrap().holds());
        assert!(!batch[1].as_ref().unwrap().holds());
        assert!(batch[2].as_ref().unwrap().holds());
    }

    #[test]
    fn batch_reports_arity_mismatch_per_slot() {
        let q1 = q("q(X) :- member(X, C).");
        let q2s = vec![q("a(X) :- member(X, C)."), q("b(X, Y) :- member(X, Y).")];
        let batch = contains_batch(&q1, &q2s, &ContainmentOptions::default());
        assert!(batch[0].as_ref().unwrap().holds());
        assert_eq!(
            *batch[1].as_ref().unwrap_err(),
            CoreError::ArityMismatch { q1: 1, q2: 2 }
        );
    }

    #[test]
    fn batch_vacuous_on_failed_chase() {
        let q1 = q("q() :- data(o, a, 1), data(o, a, 2), funct(a, o).");
        let q2s = vec![q("a() :- sub(X, Y)."), q("b() :- member(X, Y).")];
        let batch = contains_batch(&q1, &q2s, &ContainmentOptions::default());
        for r in &batch {
            let r = r.as_ref().unwrap();
            assert!(r.holds() && r.is_vacuous());
        }
    }

    #[test]
    fn analysis_early_false_agrees_with_chase() {
        // member is underivable from sub alone: the analyzer answers
        // `false` without chasing; the chase path must agree.
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- member(X, Z).");
        let on = contains_with(&q1, &q2, &ContainmentOptions::default()).unwrap();
        let off = contains_with(
            &q1,
            &q2,
            &ContainmentOptions {
                analysis: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(on.decided_by_analysis());
        assert_eq!(on.chase_conjuncts(), 0);
        assert!(!off.decided_by_analysis());
        assert_eq!(on.holds(), off.holds());
        assert_eq!(on.is_vacuous(), off.is_vacuous());
        assert!(!on.holds());
    }

    #[test]
    fn analysis_early_true_agrees_with_chase() {
        let q1 = q("q() :- data(o, a, 1), data(o, a, 2), funct(a, o).");
        let q2 = q("qq() :- sub(X, Y).");
        let on = contains_with(&q1, &q2, &ContainmentOptions::default()).unwrap();
        let off = contains_with(
            &q1,
            &q2,
            &ContainmentOptions {
                analysis: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(on.decided_by_analysis());
        assert!(matches!(on.chase_outcome(), ChaseOutcome::Failed { .. }));
        assert_eq!(
            (on.holds(), on.is_vacuous()),
            (off.holds(), off.is_vacuous())
        );
        assert!(on.holds() && on.is_vacuous());
    }

    #[test]
    fn analysis_does_not_misfire_when_chase_may_fail() {
        // q1 can fail (two distinct constants + data + funct through
        // membership); analysis must NOT answer early-false even though
        // q2's sub atom is underivable — the chase does fail and the
        // containment is vacuously true.
        let q1 = q("q() :- data(o, a, 1), data(o, a, 2), member(o, c), funct(a, c).");
        let q2 = q("qq() :- sub(X, Y).");
        let r = contains(&q1, &q2).unwrap();
        assert!(r.holds() && r.is_vacuous());
    }

    #[test]
    fn every_entry_point_decides_alike_under_tight_budgets() {
        // The analyzer refutes this pair before any chase. A budget that
        // stops the chase must not turn that answer into `Exhausted` on
        // one entry point while the others answer `NotHolds`; with the
        // analysis off, all three report the same undecided verdict.
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- member(X, Z).");
        let deadline = ContainmentOptions {
            budget: Budget::with_timeout(std::time::Duration::ZERO),
            ..Default::default()
        };
        let conjuncts = ContainmentOptions {
            max_conjuncts: 2,
            ..Default::default()
        };
        for (tight, reason) in [
            (deadline, ExhaustReason::Deadline),
            (conjuncts, ExhaustReason::Conjuncts),
        ] {
            for analysis in [true, false] {
                let opts = ContainmentOptions {
                    analysis,
                    ..tight.clone()
                };
                let single = contains_with(&q1, &q2, &opts).unwrap();
                let batch = contains_batch(&q1, std::slice::from_ref(&q2), &opts)
                    .remove(0)
                    .unwrap();
                let snapshot = ChaseSnapshot::build(&q1, theorem_bound(&q1, &q2), &opts)
                    .unwrap()
                    .contains(&q2, &opts)
                    .unwrap();
                let facts =
                    |r: &ContainmentResult| (r.verdict(), r.is_vacuous(), r.decided_by_analysis());
                let want = if analysis {
                    (Verdict::NotHolds, false, true)
                } else {
                    (Verdict::Exhausted(reason), false, false)
                };
                let case = format!("{reason:?} budget, analysis {analysis}");
                assert_eq!(facts(&single), want, "contains_with, {case}");
                assert_eq!(facts(&batch), want, "contains_batch, {case}");
                assert_eq!(facts(&snapshot), want, "ChaseSnapshot, {case}");
            }
        }
    }

    #[test]
    fn batch_analysis_matches_analysis_off() {
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2s = vec![
            q("a(X, Z) :- sub(X, Z)."),
            q("b(X, Z) :- member(X, Z)."),
            q("c(X, Z) :- sub(X, Y), sub(Y, Z), sub(X, Z)."),
        ];
        let on = contains_batch(&q1, &q2s, &ContainmentOptions::default());
        let off = contains_batch(
            &q1,
            &q2s,
            &ContainmentOptions {
                analysis: false,
                ..Default::default()
            },
        );
        for (a, b) in on.iter().zip(&off) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.holds(), b.holds());
            assert_eq!(a.is_vacuous(), b.is_vacuous());
        }
        assert!(on[1].as_ref().unwrap().decided_by_analysis());
        assert!(!on[0].as_ref().unwrap().decided_by_analysis());
    }

    #[test]
    fn constants_in_heads() {
        let q1 = q("q(k) :- member(X, c).");
        let q2 = q("qq(k) :- member(Y, c).");
        assert!(contains(&q1, &q2).unwrap().holds());
        let q3 = q("qq(m) :- member(Y, c).");
        assert!(
            !contains(&q1, &q3).unwrap().holds(),
            "head constants differ"
        );
    }
}
