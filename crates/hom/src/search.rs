//! Backtracking homomorphism search.

use flogic_model::Atom;
use flogic_term::{Subst, Term};

use crate::AtomIndex;

/// Marks an argument of [`Binding::slots`] that is not a variable.
const FIXED: u32 = u32::MAX;

/// What the search calls on every homomorphism it finds; returning `true`
/// stops the search.
pub(crate) type OnHom<'a> = &'a mut dyn FnMut(&Binding<'_>) -> bool;

/// One search's bindings, keyed strictly by *source* variable: each
/// distinct source variable gets a slot, and a source argument is looked
/// up through its slot, never by rewriting the pattern first. The image of
/// a source variable may itself be a variable (chases contain the chased
/// query's variables as values, and query minimisation folds a query into
/// itself), and a rewritten pattern could not tell such an image apart
/// from an undecided source variable — it would be spuriously re-bound
/// instead of compared.
///
/// Deciding a slot pushes it on a trail, and backtracking pops the trail
/// back to a mark, so no candidate copies a map; a [`Subst`] is built only
/// for a homomorphism that is found.
///
/// The containment search and the chase share it: the chase applies a
/// rule wherever [`for_each_match`](Binding::for_each_match) maps the
/// rule's body into it (Definition 2), and instantiates the rule's head
/// through [`image`](Binding::image).
pub struct Binding<'a> {
    source: &'a [Atom],
    /// Each source atom's argument slots, [`FIXED`] for a constant or a
    /// null.
    slots: Vec<[u32; 3]>,
    /// The source variable of each slot, and its image once decided.
    vars: Vec<(Term, Option<Term>)>,
    /// The decided slots, in the order they were decided.
    trail: Vec<u32>,
}

impl<'a> Binding<'a> {
    /// Numbers the variables of `source_head` and `source`, and seeds the
    /// binding from the head constraint: `source_head[i]` must map to
    /// `target_head[i]`. Returns `None` when the heads' lengths differ or
    /// a source constant clashes.
    pub fn new(source: &'a [Atom], source_head: &[Term], target_head: &[Term]) -> Option<Self> {
        if source_head.len() != target_head.len() {
            return None;
        }
        let mut binding = Binding {
            source,
            slots: Vec::with_capacity(source.len()),
            vars: Vec::new(),
            trail: Vec::new(),
        };
        for (&sh, &th) in source_head.iter().zip(target_head) {
            let slot = binding.slot_of(sh);
            if !binding.bind(slot, sh, th) {
                return None;
            }
        }
        for a in source {
            let mut slots = [FIXED; 3];
            for (slot, &t) in slots.iter_mut().zip(a.args()) {
                *slot = binding.slot_of(t);
            }
            binding.slots.push(slots);
        }
        Some(binding)
    }

    /// The slot of source term `t`, giving a variable the next one on
    /// first sight; [`FIXED`] for a constant or a null.
    fn slot_of(&mut self, t: Term) -> u32 {
        if !t.is_var() {
            return FIXED;
        }
        let slot = self.vars.iter().position(|&(v, _)| v == t);
        let slot = slot.unwrap_or_else(|| {
            self.vars.push((t, None));
            self.vars.len() - 1
        });
        u32::try_from(slot).expect("fewer source variables than slots")
    }

    /// Requires the source term `p`, whose slot is `slot`, to map to `t`.
    /// Source constants are fixed (Definition 1); a decided variable must
    /// agree with its image; an undecided one is decided.
    fn bind(&mut self, slot: u32, p: Term, t: Term) -> bool {
        if slot == FIXED {
            return p == t;
        }
        let image = &mut self.vars[slot as usize].1;
        if let Some(decided) = *image {
            return decided == t;
        }
        *image = Some(t);
        self.trail.push(slot);
        true
    }

    /// The image of `t`: a decided source variable's image, or `t`
    /// itself (a constant, a null, or a variable not decided).
    pub fn image(&self, t: Term) -> Term {
        self.vars
            .iter()
            .find(|&&(var, _)| var == t)
            .and_then(|&(_, image)| image)
            .unwrap_or(t)
    }

    /// Calls `found` on every extension of the binding that maps each
    /// source atom onto an atom of `target`, and source atom `pinned.0`
    /// onto `pinned.1`, with the atom matched for each source atom.
    ///
    /// Source atoms are matched in order, each one's candidates in the
    /// order [`AtomIndex::candidates`] lists them for the atom with its
    /// decided variables applied, so the matches come in a fixed order.
    /// `matched` is scratch the caller may keep across calls: it must
    /// start empty, and it ends empty, as does every slot this call
    /// decides.
    pub fn for_each_match<T: AtomIndex>(
        &mut self,
        target: &T,
        pinned: (usize, T::Id),
        matched: &mut Vec<T::Id>,
        found: &mut dyn FnMut(&Binding<'a>, &[T::Id]),
    ) {
        let i = matched.len();
        if i == self.source.len() {
            return found(self, matched);
        }
        let pin = [pinned.1];
        let candidates = if i == pinned.0 {
            &pin[..]
        } else {
            target.candidates(&self.probe(i))
        };
        let mark = self.mark();
        for &cand in candidates {
            if target.admits(cand) && self.unify(i, target.atom(cand)) {
                matched.push(cand);
                self.for_each_match(target, pinned, matched, found);
                matched.pop();
                self.undo(mark);
            }
        }
    }

    /// How many slots are decided: a mark to [`undo`](Binding::undo) to.
    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undecides every slot decided after the first `mark`.
    pub(crate) fn undo(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            self.vars[slot as usize].1 = None;
        }
    }

    /// Tries to extend the binding so that the image of source atom `i`
    /// equals `target`. On failure the binding is left as it was.
    fn unify(&mut self, i: usize, target: &Atom) -> bool {
        let (pattern, slots) = (self.source[i], self.slots[i]);
        if pattern.pred() != target.pred() {
            return false;
        }
        let mark = self.mark();
        let ok = pattern
            .args()
            .iter()
            .zip(target.args())
            .zip(slots)
            .all(|((&p, &t), slot)| self.bind(slot, p, t));
        if !ok {
            self.undo(mark);
        }
        ok
    }

    /// Source atom `i` with its decided variables replaced by their
    /// images. It is used for *index retrieval only* (decided variables
    /// make positions selective); unification always runs against the
    /// original atom, so that variable images are compared, never
    /// re-bound.
    fn probe(&self, i: usize) -> Atom {
        let mut slots = self.slots[i].into_iter();
        self.source[i].map(|t| match slots.next() {
            Some(slot) if slot != FIXED => self.vars[slot as usize].1.unwrap_or(t),
            _ => t,
        })
    }

    /// The homomorphism decided: every decided source variable, bound
    /// with [`Subst::bind_strict`].
    fn to_subst(&self) -> Subst {
        let mut s = Subst::new();
        for &slot in &self.trail {
            let (var, image) = self.vars[slot as usize];
            s.bind_strict(var, image.expect("trailed slots are decided"));
        }
        s
    }
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

/// Depth-first search with dynamic fewest-candidates-first atom ordering,
/// mapping the source atoms `remaining` names. `found` returning `true`
/// stops the search and keeps the binding of the homomorphism it was
/// given; otherwise the binding ends as it started. `remaining` always
/// ends as it started.
/// `stats` only counts: it never influences atom ordering or candidate
/// enumeration.
pub(crate) fn search<T: AtomIndex>(
    binding: &mut Binding<'_>,
    target: &T,
    remaining: &mut Vec<usize>,
    stats: &mut HomStats,
    found: OnHom<'_>,
) -> bool {
    let Some(best) =
        (0..remaining.len()).min_by_key(|&pos| target.count(&binding.probe(remaining[pos])))
    else {
        return found(binding);
    };
    let atom_idx = remaining.swap_remove(best);
    let index_probe = binding.probe(atom_idx);
    let mut done = false;
    for &cand in target.candidates(&index_probe) {
        if !target.admits(cand) {
            continue;
        }
        let mark = binding.mark();
        if binding.unify(atom_idx, target.atom(cand)) {
            stats.expansions += 1;
            done = search(binding, target, remaining, stats, found);
            if done {
                break;
            }
            binding.undo(mark);
        } else {
            stats.prunes += 1;
        }
    }
    if !done {
        stats.backtracks += 1;
    }
    remaining.push(atom_idx);
    let last = remaining.len() - 1;
    remaining.swap(best.min(last), last);
    done
}

/// Runs [`search`] from the head constraint, calling `found` on each
/// homomorphism until it returns `true`.
fn run<T: AtomIndex>(
    source: &[Atom],
    source_head: &[Term],
    target: &T,
    target_head: &[Term],
    stats: &mut HomStats,
    found: OnHom<'_>,
) {
    let Some(mut binding) = Binding::new(source, source_head, target_head) else {
        return;
    };
    let mut remaining: Vec<usize> = (0..source.len()).collect();
    search(&mut binding, target, &mut remaining, stats, found);
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
    let mut result = None;
    run(
        source,
        source_head,
        target,
        target_head,
        &mut stats,
        &mut |hom| {
            result = Some(hom.to_subst());
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
    let mut out = Vec::new();
    run(
        source,
        source_head,
        target,
        target_head,
        &mut HomStats::default(),
        &mut |hom| {
            out.push(hom.to_subst());
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
    let mut n = 0usize;
    run(
        source,
        source_head,
        target,
        target_head,
        &mut HomStats::default(),
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

    #[test]
    fn pinned_matches_come_in_body_and_index_order() {
        // A transitivity rule body over a target whose values are
        // variables, as in a chase: images are compared, never re-bound.
        let body = vec![Atom::sub(v("#A"), v("#B")), Atom::sub(v("#B"), v("#C"))];
        let t = Target::new(vec![
            Atom::sub(v("X"), v("Y")),
            Atom::sub(v("Y"), v("Z")),
            Atom::sub(v("Y"), v("W")),
            Atom::sub(v("Z"), v("X")),
        ]);
        let mut binding = Binding::new(&body, &[], &[]).unwrap();
        let mut matched = Vec::new();
        let mut found = Vec::new();
        binding.for_each_match(&t, (0, 0), &mut matched, &mut |b, ids| {
            found.push((ids.to_vec(), b.image(v("#C"))));
        });
        assert_eq!(found, [(vec![0, 1], v("Z")), (vec![0, 2], v("W"))]);
        // Pinned second: `sub(Y, Z)` is reached only from `sub(X, Y)`.
        let mut found = Vec::new();
        binding.for_each_match(&t, (1, 1), &mut matched, &mut |_, ids| {
            found.push(ids.to_vec());
        });
        assert_eq!(found, [[0, 1]]);
        // The scratch and the binding end as they started.
        assert!(matched.is_empty());
        assert_eq!(binding.image(v("#A")), v("#A"));
    }
}
