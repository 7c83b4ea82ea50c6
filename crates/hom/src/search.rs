//! Backtracking homomorphism search.

use flogic_model::Atom;
use flogic_term::{Subst, Term};

use crate::AtomIndex;

/// Tries to extend `s` so that the image of `pattern` under the extended
/// binding equals `target`. Source constants are fixed (Definition 1);
/// source variables bind to arbitrary target terms.
///
/// The binding is keyed strictly by *source* variables and consulted with
/// [`Subst::get`], never by rewriting the pattern first: the image of a
/// source variable may itself be a variable (chases contain the chased
/// query's variables as values, and query minimisation folds a query into
/// itself), and a rewritten pattern could not tell such an image apart from
/// an unbound source variable — it would be spuriously re-bound instead of
/// compared.
fn unify(pattern: &Atom, target: &Atom, s: &Subst) -> Option<Subst> {
    if pattern.pred() != target.pred() {
        return None;
    }
    let mut out = s.clone();
    for (&p, &t) in pattern.args().iter().zip(target.args()) {
        if p.is_var() {
            match out.get(p) {
                Some(image) => {
                    if image != t {
                        return None;
                    }
                }
                None => out.bind_strict(p, t),
            }
        } else if p != t {
            return None;
        }
    }
    Some(out)
}

/// Seeds a binding from the head constraint: `source_head[i]` must map to
/// `target_head[i]`. Returns `None` when a source constant clashes. The
/// same strict keyed-by-source-variable discipline as [`unify`] applies.
fn head_binding(source_head: &[Term], target_head: &[Term]) -> Option<Subst> {
    debug_assert_eq!(source_head.len(), target_head.len());
    let mut s = Subst::new();
    for (&sh, &th) in source_head.iter().zip(target_head) {
        if sh.is_var() {
            match s.get(sh) {
                Some(image) => {
                    if image != th {
                        return None;
                    }
                }
                None => s.bind_strict(sh, th),
            }
        } else if sh != th {
            return None;
        }
    }
    Some(s)
}

/// What one homomorphism search did (see [`find_hom_counted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HomStats {
    /// Candidate conjuncts a source atom unified with: search nodes
    /// entered.
    pub expansions: u64,
    /// Source atoms left after every candidate was tried: dead ends.
    pub backtracks: u64,
    /// Candidate conjuncts that failed to unify.
    pub prunes: u64,
}

/// Depth-first search with dynamic fewest-candidates-first atom ordering.
/// `found` returning `true` stops the search. `stats` only counts: it
/// never influences atom ordering or candidate enumeration.
fn search<T: AtomIndex>(
    source: &[Atom],
    target: &T,
    s: Subst,
    remaining: &mut Vec<usize>,
    stats: &mut HomStats,
    found: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    let Some(best_slot) = (0..remaining.len()).min_by_key(|&slot| {
        let atom = source[remaining[slot]].apply(&s);
        target.candidates(&atom).len()
    }) else {
        return found(&s);
    };
    let atom_idx = remaining.swap_remove(best_slot);
    // The applied pattern is used for *index retrieval only* (bound
    // variables with ground images make positions selective); unification
    // always runs against the original atom so that variable images are
    // compared, never re-bound.
    let index_probe = source[atom_idx].apply(&s);
    for &cand in target.candidates(&index_probe) {
        if let Some(s2) = unify(&source[atom_idx], target.atom(cand), &s) {
            stats.expansions += 1;
            if search(source, target, s2, remaining, stats, found) {
                remaining.push(atom_idx); // restore before unwinding
                let last = remaining.len() - 1;
                remaining.swap(best_slot.min(last), last);
                return true;
            }
        } else {
            stats.prunes += 1;
        }
    }
    stats.backtracks += 1;
    remaining.push(atom_idx);
    let last = remaining.len() - 1;
    remaining.swap(best_slot.min(last), last);
    false
}

/// Finds a homomorphism from `source` atoms into `target` that also maps
/// `source_head` pointwise onto `target_head` (Theorem 4's side condition).
///
/// Returns the witnessing substitution, restricted to the source variables.
///
/// ```
/// use flogic_hom::{find_hom, Target};
/// use flogic_model::Atom;
/// use flogic_term::Term;
/// let v = Term::var; let c = Term::constant;
/// let source = [Atom::member(v("X"), v("C"))];
/// let target = Target::new(vec![Atom::member(c("john"), c("student"))]);
/// let hom = find_hom(&source, &[v("X")], &target, &[c("john")]).unwrap();
/// assert_eq!(hom.apply(v("C")), c("student"));
/// ```
pub fn find_hom<T: AtomIndex>(
    source: &[Atom],
    source_head: &[Term],
    target: &T,
    target_head: &[Term],
) -> Option<Subst> {
    find_hom_counted(source, source_head, target, target_head).0
}

/// [`find_hom`], also returning what the search did: node expansions,
/// backtracks and candidate prunes. The witness is [`find_hom`]'s.
pub fn find_hom_counted<T: AtomIndex>(
    source: &[Atom],
    source_head: &[Term],
    target: &T,
    target_head: &[Term],
) -> (Option<Subst>, HomStats) {
    let mut stats = HomStats::default();
    let seed = (source_head.len() == target_head.len())
        .then(|| head_binding(source_head, target_head))
        .flatten();
    let Some(seed) = seed else {
        return (None, stats);
    };
    let mut remaining: Vec<usize> = (0..source.len()).collect();
    let mut result = None;
    search(
        source,
        target,
        seed,
        &mut remaining,
        &mut stats,
        &mut |hom| {
            result = Some(hom.clone());
            true
        },
    );
    (result, stats)
}

/// Finds a homomorphism from `source` into `target` with no head
/// constraint (Boolean queries / satisfiability-style checks).
pub fn find_hom_unconstrained<T: AtomIndex>(source: &[Atom], target: &T) -> Option<Subst> {
    find_hom(source, &[], target, &[])
}

/// Collects up to `limit` homomorphisms (all if `limit == usize::MAX`).
pub fn all_homs<T: AtomIndex>(
    source: &[Atom],
    source_head: &[Term],
    target: &T,
    target_head: &[Term],
    limit: usize,
) -> Vec<Subst> {
    let Some(seed) = head_binding(source_head, target_head) else {
        return Vec::new();
    };
    let mut remaining: Vec<usize> = (0..source.len()).collect();
    let mut out = Vec::new();
    let mut stats = HomStats::default();
    search(
        source,
        target,
        seed,
        &mut remaining,
        &mut stats,
        &mut |hom| {
            out.push(hom.clone());
            out.len() >= limit
        },
    );
    out
}

/// Counts homomorphisms (careful: can be exponential).
pub fn count_homs<T: AtomIndex>(
    source: &[Atom],
    source_head: &[Term],
    target: &T,
    target_head: &[Term],
) -> usize {
    let Some(seed) = head_binding(source_head, target_head) else {
        return 0;
    };
    let mut remaining: Vec<usize> = (0..source.len()).collect();
    let mut n = 0usize;
    let mut stats = HomStats::default();
    search(
        source,
        target,
        seed,
        &mut remaining,
        &mut stats,
        &mut |_| {
            n += 1;
            false
        },
    );
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;

    fn c(n: &str) -> Term {
        Term::constant(n)
    }
    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn identity_hom_always_exists() {
        let atoms = vec![Atom::member(v("X"), v("Y")), Atom::sub(v("Y"), v("Z"))];
        let t = Target::new(atoms.clone());
        let hom = find_hom(&atoms, &[v("X")], &t, &[v("X")]).unwrap();
        assert_eq!(hom.apply(v("X")), v("X"));
    }

    #[test]
    fn constants_must_map_to_themselves() {
        let source = vec![Atom::member(c("john"), v("C"))];
        let t = Target::new(vec![Atom::member(c("mary"), c("student"))]);
        assert!(find_hom_unconstrained(&source, &t).is_none());
        let t = Target::new(vec![Atom::member(c("john"), c("student"))]);
        let hom = find_hom_unconstrained(&source, &t).unwrap();
        assert_eq!(hom.apply(v("C")), c("student"));
    }

    #[test]
    fn shared_variables_must_agree() {
        // member(X, C), sub(C, D): C joins.
        let source = vec![Atom::member(v("X"), v("C")), Atom::sub(v("C"), v("D"))];
        let t = Target::new(vec![
            Atom::member(c("john"), c("student")),
            Atom::sub(c("person"), c("agent")), // no join with student
        ]);
        assert!(find_hom_unconstrained(&source, &t).is_none());
        let t = Target::new(vec![
            Atom::member(c("john"), c("student")),
            Atom::sub(c("student"), c("person")),
        ]);
        assert!(find_hom_unconstrained(&source, &t).is_some());
    }

    #[test]
    fn counted_search_reports_its_work_and_the_same_witness() {
        // member(X, C), sub(C, D) over a target where only one member
        // conjunct joins a sub conjunct.
        let source = vec![Atom::member(v("X"), v("C")), Atom::sub(v("C"), v("D"))];
        let t = Target::new(vec![
            Atom::member(c("john"), c("student")),
            Atom::member(c("john"), c("person")),
            Atom::sub(c("person"), c("agent")),
        ]);
        let (hom, stats) = find_hom_counted(&source, &[], &t, &[]);
        assert_eq!(hom, find_hom_unconstrained(&source, &t));
        assert!(hom.is_some());
        assert_eq!(stats.expansions, 2, "one node per mapped source atom");
        assert_eq!(stats.backtracks, 0);
        // A head clash is decided before any node is expanded.
        let (none, stats) = find_hom_counted(&source, &[c("a")], &t, &[c("b")]);
        assert!(none.is_none());
        assert_eq!(stats, HomStats::default());
    }

    #[test]
    fn non_injective_homs_allowed() {
        // Two source vars may map to the same target term.
        let source = vec![Atom::sub(v("X"), v("Y"))];
        let t = Target::new(vec![Atom::sub(c("a"), c("a"))]);
        let hom = find_hom_unconstrained(&source, &t).unwrap();
        assert_eq!(hom.apply(v("X")), c("a"));
        assert_eq!(hom.apply(v("Y")), c("a"));
    }

    #[test]
    fn head_constraint_filters() {
        let source = vec![Atom::member(v("X"), v("C"))];
        let t = Target::new(vec![
            Atom::member(c("john"), c("student")),
            Atom::member(c("mary"), c("person")),
        ]);
        // Require X -> mary.
        let hom = find_hom(&source, &[v("X")], &t, &[c("mary")]).unwrap();
        assert_eq!(hom.apply(v("C")), c("person"));
        // Require X -> nobody.
        assert!(find_hom(&source, &[v("X")], &t, &[c("bob")]).is_none());
    }

    #[test]
    fn head_constant_clash_fails_early() {
        let source = vec![Atom::member(v("X"), v("C"))];
        let t = Target::new(vec![Atom::member(c("john"), c("student"))]);
        assert!(find_hom(&source, &[c("k")], &t, &[c("j")]).is_none());
        assert!(find_hom(&source, &[c("k")], &t, &[c("k")]).is_some());
    }

    #[test]
    fn arity_mismatch_in_heads_rejected() {
        let source = vec![Atom::member(v("X"), v("C"))];
        let t = Target::new(vec![Atom::member(c("john"), c("student"))]);
        assert!(find_hom(&source, &[v("X")], &t, &[]).is_none());
    }

    #[test]
    fn repeated_head_variable_binds_once() {
        // head (X, X) against (a, b) must fail; against (a, a) succeed.
        let source = vec![Atom::sub(v("X"), v("X"))];
        let t = Target::new(vec![Atom::sub(c("a"), c("a"))]);
        assert!(find_hom(&source, &[v("X"), v("X")], &t, &[c("a"), c("b")]).is_none());
        assert!(find_hom(&source, &[v("X"), v("X")], &t, &[c("a"), c("a")]).is_some());
    }

    #[test]
    fn count_homs_enumerates_all() {
        let source = vec![Atom::member(v("X"), v("C"))];
        let t = Target::new(vec![
            Atom::member(c("a"), c("k")),
            Atom::member(c("b"), c("k")),
            Atom::member(c("a"), c("m")),
        ]);
        assert_eq!(count_homs(&source, &[], &t, &[]), 3);
        let homs = all_homs(&source, &[], &t, &[], 2);
        assert_eq!(homs.len(), 2);
    }

    #[test]
    fn empty_source_has_trivial_hom() {
        let t = Target::new(vec![]);
        assert!(find_hom_unconstrained(&[], &t).is_some());
    }

    #[test]
    fn backtracking_explores_alternatives() {
        // First candidate for member fails at the sub join; search must
        // backtrack and pick the second.
        let source = vec![Atom::member(v("X"), v("C")), Atom::sub(v("C"), c("goal"))];
        let t = Target::new(vec![
            Atom::member(c("j"), c("dead_end")),
            Atom::member(c("j"), c("route")),
            Atom::sub(c("route"), c("goal")),
        ]);
        let hom = find_hom_unconstrained(&source, &t).unwrap();
        assert_eq!(hom.apply(v("C")), c("route"));
    }
}
