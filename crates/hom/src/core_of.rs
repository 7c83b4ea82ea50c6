//! Classic (constraint-free) query minimisation: the core of a conjunctive
//! query.

use flogic_model::{Atom, ConjunctiveQuery, Pred};
use flogic_term::Term;

use crate::search::{search, Binding};
use crate::{AtomIndex, HomStats, Target};

/// Computes the *core* of `q` under classic (constraint-free) semantics:
/// drops body atoms, in body order, as long as the smaller query is still
/// classically equivalent to the original.
///
/// An atom `a` is redundant iff there is a homomorphism from `body(q)` into
/// `body(q) − {a}` fixing the head — i.e. the smaller query contains the
/// larger one (the converse containment is trivial because the body is a
/// subset). The result is unique up to isomorphism (the core of a CQ).
///
/// **One pass is enough.** The result is the body that the textbook loop
/// — drop the first redundant atom, then start again from the front —
/// returns, atom for atom and in the same order, because that loop's
/// restarts only re-test atoms it has already found fixed. Suppose `a`
/// cannot be dropped from a body `B`, and `B' ⊆ B` is equivalent to `B`
/// through a homomorphism `h: B → B'` that fixes the head. If some
/// `g: B' → B' − {a}` fixing the head existed, then `g∘h` would map `B`
/// into `B' − {a} ⊆ B − {a}`, so `a` could be dropped from `B` after all.
/// Hence `a` cannot be dropped from `B'` either, and each atom needs one
/// test, against the atoms still live when it is reached.
///
/// Every test searches one index of the body, built once, from one
/// binding of the head onto itself, with the dropped atoms and the tested
/// atom masked ([`AtomIndex::admits`]) and fewest-candidates-first
/// counting only the atoms left ([`AtomIndex::count`]). So each search
/// picks its source atoms and meets its unifying candidates exactly as it
/// would on an index rebuilt from the smaller body. A literal duplicate
/// is dropped without a search: the identity maps it onto its later copy,
/// which keeps the atom in the index.
///
/// For minimisation *under `Σ_FL`* — which can remove more atoms — see
/// `flogic_core::minimize`.
pub fn classic_core(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let (head, body) = (q.head(), q.body());
    let atoms: Vec<Atom> = body
        .iter()
        .enumerate()
        .filter(|&(p, a)| !body[p + 1..].contains(a))
        .map(|(_, a)| *a)
        .collect();
    let target = Target::new(atoms.clone());
    // One binding serves every test: each search starts from the head
    // mapped onto itself and is undone back to it.
    let mut binding = Binding::new(&atoms, head, head).expect("a head maps onto itself");
    let seeded = binding.mark();
    // The atoms not dropped, by target id, in body order.
    let mut live: Vec<usize> = (0..atoms.len()).collect();
    // The atoms a search must not map onto: by target id, and as a list.
    let mut masked = vec![false; atoms.len()];
    let mut masked_ids = Vec::new();
    let mut remaining = Vec::with_capacity(atoms.len());
    // `live[k]` is the atom under test, `id`.
    let mut k = 0;
    for id in 0..atoms.len() {
        if live.len() == 1 {
            break;
        }
        // Dropping the only atom that holds a head variable would leave
        // the head unsafe; no homomorphism could fix that variable anyway.
        let only_holder = head.iter().any(|h| {
            h.is_var()
                && atoms[id].args().contains(h)
                && !live.iter().any(|&j| j != id && atoms[j].args().contains(h))
        });
        masked[id] = true;
        masked_ids.push(id);
        let smaller = MaskedTarget {
            target: &target,
            masked: &masked,
            masked_ids: &masked_ids,
        };
        remaining.clone_from(&live);
        let redundant = !only_holder
            && search(
                &mut binding,
                &smaller,
                &mut remaining,
                &mut HomStats::default(),
                &mut |_| true,
            );
        binding.undo(seeded);
        if redundant {
            live.remove(k);
        } else {
            masked[id] = false;
            masked_ids.pop();
            k += 1;
        }
    }
    if live.len() == body.len() {
        return q.clone();
    }
    let core = live.iter().map(|&id| atoms[id]).collect();
    ConjunctiveQuery::new(q.name(), head.to_vec(), core).expect("a core keeps every head variable")
}

/// A body's index with some of its atoms masked out: the body without
/// them, searched through the index of the whole body.
struct MaskedTarget<'a> {
    target: &'a Target,
    /// Whether each target id is masked.
    masked: &'a [bool],
    /// The masked ids.
    masked_ids: &'a [usize],
}

impl AtomIndex for MaskedTarget<'_> {
    type Id = usize;

    fn posting(&self, pred: Pred, pos: usize, term: Term) -> &[usize] {
        self.target.posting(pred, pos, term)
    }

    fn of_pred(&self, pred: Pred) -> &[usize] {
        self.target.of_pred(pred)
    }

    fn atom(&self, id: usize) -> &Atom {
        self.target.atom(id)
    }

    fn admits(&self, id: usize) -> bool {
        !self.masked[id]
    }

    fn count(&self, probe: &Atom) -> usize {
        self.target.count_without(probe, self.masked_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_hom;
    use flogic_gen::rng::{Rng, SliceRandom, SplitMix64};
    use flogic_gen::{add_redundant_atoms, mutate_variant, random_query, QueryGenConfig};
    use flogic_term::{Symbol, Term};

    /// The textbook loop [`classic_core`] must agree with: drop the first
    /// atom whose removal keeps the query equivalent, rebuilding the
    /// query and its index, then start again from the front.
    fn reference_core(q: &ConjunctiveQuery) -> ConjunctiveQuery {
        let mut current = q.clone();
        loop {
            let mut shrunk = None;
            for i in 0..current.body().len() {
                let Some(candidate) = current.without_atom(i) else {
                    continue;
                };
                let target = Target::from_query(&candidate);
                if find_hom(current.body(), current.head(), &target, candidate.head()).is_some() {
                    shrunk = Some(candidate);
                    break;
                }
            }
            match shrunk {
                Some(smaller) => current = smaller,
                None => return current,
            }
        }
    }

    /// Queries of every shape the one-pass argument has to cover: random
    /// bodies of 2–8 atoms with constants, their respellings and
    /// redundant-atom extensions, bodies with literal duplicates, and
    /// heads whose variables occur in one atom only.
    fn arb_query(rng: &mut SplitMix64) -> ConjunctiveQuery {
        let cfg = QueryGenConfig {
            n_atoms: rng.random_range(2..9),
            n_vars: rng.random_range(2..7),
            n_consts: rng.random_range(0..3),
            head_arity: rng.random_range(0..3),
            ..QueryGenConfig::default()
        };
        let base = random_query(&cfg, rng);
        match rng.random_range(0..5) {
            0 => base,
            1 => mutate_variant(&base, rng),
            2 => {
                let n = rng.random_range(1..4);
                add_redundant_atoms(&base, n, rng)
            }
            3 => {
                // Literal copies of random body atoms, anywhere.
                let mut body = base.body().to_vec();
                for _ in 0..rng.random_range(1..4) {
                    let copy = *body.choose(rng).expect("bodies are never empty");
                    let at = rng.random_range(0..body.len() + 1);
                    body.insert(at, copy);
                }
                ConjunctiveQuery::new(base.name(), base.head().to_vec(), body)
                    .expect("copies keep the query safe")
            }
            _ => {
                // Head variables held by a single atom each.
                let body = base.body();
                let lonely: Vec<Term> = base
                    .vars()
                    .into_iter()
                    .filter(|v| body.iter().filter(|a| a.args().contains(v)).count() == 1)
                    .collect();
                let head = lonely.into_iter().take(2).collect();
                ConjunctiveQuery::new(base.name(), head, body.to_vec())
                    .expect("head drawn from the body")
            }
        }
    }

    fn assert_cores_agree(cases: u64, salt: u64) {
        for seed in 0..cases {
            let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ salt);
            let query = arb_query(&mut rng);
            let core = classic_core(&query);
            assert_eq!(
                core.body(),
                reference_core(&query).body(),
                "seed {seed}: core of {query}"
            );
            assert_eq!(core.head(), query.head());
        }
    }

    #[test]
    fn one_pass_matches_the_restart_loop() {
        assert_cores_agree(300, 1);
    }

    #[cfg(feature = "fuzz")]
    #[test]
    fn one_pass_matches_the_restart_loop_long() {
        assert_cores_agree(10_000, 2);
    }

    #[test]
    fn literal_duplicates_keep_their_last_copy() {
        let a = Atom::member(v("X"), v("C"));
        let b = Atom::sub(v("C"), c("k"));
        let query = q(vec![v("X")], vec![a, b, a, b, a]);
        let core = classic_core(&query);
        assert_eq!(core.body(), reference_core(&query).body());
        assert_eq!(core.body(), &[b, a]);
    }

    fn v(n: &str) -> Term {
        Term::var(n)
    }
    fn c(n: &str) -> Term {
        Term::constant(n)
    }
    fn q(head: Vec<Term>, body: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery::new(Symbol::intern("q"), head, body).unwrap()
    }

    #[test]
    fn duplicate_pattern_collapses() {
        // member(X, C) twice with different variables: one is redundant.
        let query = q(
            vec![v("X")],
            vec![Atom::member(v("X"), v("C")), Atom::member(v("X"), v("D"))],
        );
        let core = classic_core(&query);
        assert_eq!(core.size(), 1);
    }

    #[test]
    fn head_variables_protected() {
        // Both atoms bind head variables; nothing can be dropped.
        let query = q(
            vec![v("C"), v("D")],
            vec![Atom::member(v("X"), v("C")), Atom::member(v("X"), v("D"))],
        );
        let core = classic_core(&query);
        assert_eq!(core.size(), 2);
    }

    #[test]
    fn constants_block_folding() {
        let query = q(
            vec![v("X")],
            vec![
                Atom::member(v("X"), c("student")),
                Atom::member(v("X"), c("person")),
            ],
        );
        let core = classic_core(&query);
        assert_eq!(core.size(), 2, "different constants are not redundant");
    }

    #[test]
    fn chain_folds_onto_generic_atom() {
        // sub(X, Y), sub(Y, Z) with Boolean head: folds to a single atom
        // via Y -> X? No — sub(X,Y),sub(Y,Z) maps into {sub(X,Y)} by
        // X,Y,Z -> X,Y,Y? sub(Y,Z) -> sub(Y,Y) which is not sub(X,Y)
        // unless X=Y. It maps Y->X? sub(X,Y)->sub(X,X)? Not present.
        // So the chain is its own core.
        let query = q(
            vec![],
            vec![Atom::sub(v("X"), v("Y")), Atom::sub(v("Y"), v("Z"))],
        );
        assert_eq!(classic_core(&query).size(), 2);
        // But with a reflexive edge, everything folds onto it.
        let query = q(
            vec![],
            vec![
                Atom::sub(v("W"), v("W")),
                Atom::sub(v("X"), v("Y")),
                Atom::sub(v("Y"), v("Z")),
            ],
        );
        assert_eq!(classic_core(&query).size(), 1);
    }

    #[test]
    fn core_is_idempotent() {
        let query = q(
            vec![v("X")],
            vec![
                Atom::member(v("X"), v("C")),
                Atom::member(v("X"), v("D")),
                Atom::sub(v("C"), v("E")),
                Atom::sub(v("D"), v("F")),
            ],
        );
        let once = classic_core(&query);
        let twice = classic_core(&once);
        assert_eq!(once.size(), twice.size());
        assert!(once.size() <= 2);
    }
}
