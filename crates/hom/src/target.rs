//! Indexed homomorphism targets.

use std::collections::HashMap;

use flogic_model::{Atom, ConjunctiveQuery, Pred};
use flogic_term::Term;

/// An indexed set of atoms the homomorphism search maps into.
///
/// [`Target`] implements it for query bodies, and `flogic-chase`'s chase
/// for its own live conjuncts, so a chase is searched in place through
/// the index it keeps, and matches its rules' bodies
/// ([`Binding::for_each_match`](crate::Binding::for_each_match)) through
/// the same lookup. An index supplies its lists; the lookup rule,
/// [`candidates`](AtomIndex::candidates), is the same for every index.
///
/// An index may also stand for a *subset* of the atoms it lists: the
/// search skips every candidate [`admits`](AtomIndex::admits) rejects and
/// orders source atoms by [`count`](AtomIndex::count). Both default to
/// the whole index, which is what [`Target`] and a chase are;
/// [`classic_core`](crate::classic_core) overrides them to search one
/// index of a body with its dropped atoms masked, in the same order and
/// with the same choices as an index rebuilt without them.
pub trait AtomIndex {
    /// The handle an index list holds for one atom.
    type Id: Copy;

    /// The atoms with `term` at argument `pos` of a `pred` atom.
    fn posting(&self, pred: Pred, pos: usize, term: Term) -> &[Self::Id];

    /// Every `pred` atom.
    fn of_pred(&self, pred: Pred) -> &[Self::Id];

    /// Candidate atoms for `probe`, a source atom with the current
    /// binding applied: the shortest [`posting`](AtomIndex::posting)
    /// over its non-variable positions, or every atom of its predicate
    /// when all of them are variables. Every candidate still needs a full
    /// unification check.
    fn candidates(&self, probe: &Atom) -> &[Self::Id] {
        let mut best: Option<&[Self::Id]> = None;
        for (pos, &term) in probe.args().iter().enumerate() {
            if term.is_var() {
                continue;
            }
            let list = self.posting(probe.pred(), pos, term);
            if best.map_or(true, |b| list.len() < b.len()) {
                best = Some(list);
            }
        }
        best.unwrap_or_else(|| self.of_pred(probe.pred()))
    }

    /// The atom `id` names.
    fn atom(&self, id: Self::Id) -> &Atom;

    /// Whether candidate `id` belongs to the atoms searched.
    fn admits(&self, _id: Self::Id) -> bool {
        true
    }

    /// How many admitted candidates `probe` has: the measure the search
    /// picks its next source atom by, fewest first.
    fn count(&self, probe: &Atom) -> usize {
        self.candidates(probe).len()
    }
}

/// An indexed set of target atoms for homomorphism search.
///
/// Indexes: all atoms per predicate, and atom lists per
/// `(predicate, argument position, term)` for selective retrieval when a
/// pattern has a constant or an already-bound variable at some position.
#[derive(Clone, Debug, Default)]
pub struct Target {
    atoms: Vec<Atom>,
    by_pred: [Vec<usize>; 6],
    by_pos: HashMap<(Pred, u8, Term), Vec<usize>>,
}

impl Target {
    /// Builds a target from a list of atoms. Duplicates are collapsed —
    /// a target is a *set* of facts, and keeping a duplicate would make
    /// [`crate::all_homs`] report the same binding once per copy.
    pub fn new(atoms: Vec<Atom>) -> Target {
        let mut t = Target {
            atoms: Vec::with_capacity(atoms.len()),
            ..Target::default()
        };
        let mut seen = std::collections::HashSet::with_capacity(atoms.len());
        for a in atoms {
            if seen.insert(a) {
                t.push(a);
            }
        }
        t
    }

    /// The body of a query as a target (Chandra–Merlin's canonical
    /// database: variables of `q` act as values).
    pub fn from_query(q: &ConjunctiveQuery) -> Target {
        Target::new(q.body().to_vec())
    }

    fn push(&mut self, a: Atom) {
        let idx = self.atoms.len();
        self.by_pred[a.pred().index()].push(idx);
        for (pos, &term) in a.args().iter().enumerate() {
            self.by_pos
                .entry((a.pred(), pos as u8, term))
                .or_default()
                .push(idx);
        }
        self.atoms.push(a);
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if the target is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The length [`candidates`](AtomIndex::candidates) would return for
    /// `probe` on a target built without the atoms `masked` names: the
    /// fewest, over its non-variable positions, of that position's list
    /// less the masked atoms on it; or its predicate's list less the
    /// masked atoms of that predicate when every position is a variable.
    /// It reads the masked atoms, not the lists, so it costs the same on
    /// a long list as on a short one.
    pub(crate) fn count_without(&self, probe: &Atom, masked: &[usize]) -> usize {
        let pred = probe.pred();
        let masked_on = |pos: Option<usize>| {
            let on = |a: &Atom| pos.map_or(true, |p| a.arg(p) == probe.arg(p));
            masked
                .iter()
                .filter(|&&id| self.atoms[id].pred() == pred && on(&self.atoms[id]))
                .count()
        };
        let bound = probe.args().iter().enumerate().filter(|(_, t)| !t.is_var());
        bound
            .map(|(pos, &term)| self.posting(pred, pos, term).len() - masked_on(Some(pos)))
            .min()
            .unwrap_or_else(|| self.of_pred(pred).len() - masked_on(None))
    }
}

impl AtomIndex for Target {
    type Id = usize;

    fn posting(&self, pred: Pred, pos: usize, term: Term) -> &[usize] {
        self.by_pos
            .get(&(pred, pos as u8, term))
            .map_or(&[], Vec::as_slice)
    }

    fn of_pred(&self, pred: Pred) -> &[usize] {
        &self.by_pred[pred.index()]
    }

    fn atom(&self, i: usize) -> &Atom {
        &self.atoms[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: &str) -> Term {
        Term::constant(n)
    }
    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn index_narrows_candidates() {
        let t = Target::new(vec![
            Atom::member(c("a"), c("k")),
            Atom::member(c("b"), c("k")),
            Atom::member(c("a"), c("m")),
            Atom::sub(c("a"), c("b")),
        ]);
        // member(a, X): position-0 index hits 2 atoms.
        let pat = Atom::member(c("a"), v("X"));
        assert_eq!(t.candidates(&pat).len(), 2);
        // member(X, Y): falls back to the full member list.
        let pat = Atom::member(v("X"), v("Y"));
        assert_eq!(t.candidates(&pat).len(), 3);
        // member(zzz, X): empty index list.
        let pat = Atom::member(c("zzz"), v("X"));
        assert!(t.candidates(&pat).is_empty());
    }

    #[test]
    fn most_selective_position_chosen() {
        let t = Target::new(vec![
            Atom::data(c("o"), c("a"), c("1")),
            Atom::data(c("o"), c("a"), c("2")),
            Atom::data(c("o"), c("b"), c("1")),
        ]);
        // data(o, b, X): position 1 (b) has 1 candidate, position 0 (o) 3.
        let pat = Atom::data(c("o"), c("b"), v("X"));
        assert_eq!(t.candidates(&pat).len(), 1);
    }

    #[test]
    fn from_query_uses_body() {
        use flogic_term::Symbol;
        let q = ConjunctiveQuery::new(
            Symbol::intern("q"),
            vec![v("X")],
            vec![Atom::member(v("X"), v("Y")), Atom::sub(v("Y"), v("Z"))],
        )
        .unwrap();
        let t = Target::from_query(&q);
        assert_eq!(t.len(), 2);
    }
}
