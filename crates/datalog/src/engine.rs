//! Naive and semi-naive bottom-up evaluation.

use std::collections::HashSet;

use flogic_term::Subst;

use crate::store::unify_tuple;
use crate::{DatalogError, FactStore, Program, RAtom};

/// Statistics of an evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint iterations.
    pub iterations: usize,
    /// Number of facts derived (beyond the EDB).
    pub derived: usize,
}

/// Naive bottom-up evaluation: repeat all rules until no new fact appears.
///
/// Kept as a reference implementation; [`seminaive`] computes the same
/// fixpoint and is asymptotically better. Used by tests to cross-check.
pub fn naive(program: &Program, store: &mut FactStore) -> Result<EvalStats, DatalogError> {
    let mut stats = EvalStats::default();
    loop {
        stats.iterations += 1;
        let mut new_facts: Vec<RAtom> = Vec::new();
        for rule in program.rules() {
            store.match_pattern(&rule.body, &Subst::new(), &mut |binding| {
                let head = rule.head.apply(binding);
                if !store.contains(&head) {
                    new_facts.push(head);
                }
                false
            });
        }
        let mut grew = false;
        for f in new_facts {
            if store.insert(f)? {
                grew = true;
                stats.derived += 1;
            }
        }
        if !grew {
            return Ok(stats);
        }
    }
}

/// Semi-naive bottom-up evaluation: each iteration only considers rule
/// instantiations that use at least one fact derived in the previous
/// iteration (the *delta*), which avoids re-deriving everything each round.
pub fn seminaive(program: &Program, store: &mut FactStore) -> Result<EvalStats, DatalogError> {
    // Round 0: all EDB facts are the initial delta.
    let delta = store.iter().collect();
    seminaive_from(program, store, delta, usize::MAX)
}

/// [`seminaive`] from a given first `delta`: the facts of `store` outside
/// it must already be closed under `program` among themselves (a store
/// saturated before `delta` was added, say). Stops after the iteration
/// that takes the store past `max_facts` facts.
pub(crate) fn seminaive_from(
    program: &Program,
    store: &mut FactStore,
    mut delta: Vec<RAtom>,
    max_facts: usize,
) -> Result<EvalStats, DatalogError> {
    let mut stats = EvalStats::default();
    while !delta.is_empty() && store.len() <= max_facts {
        stats.iterations += 1;
        // Derived facts in derivation order, with a set for membership.
        let mut next_delta: Vec<RAtom> = Vec::new();
        let mut pending: HashSet<RAtom> = HashSet::new();
        for rule in program.rules() {
            for (pos, pivot) in rule.body.iter().enumerate() {
                // Pin the pivot body atom to a delta fact, join the rest
                // against the full store. To avoid deriving the same
                // instantiation once per delta-atom it contains, only pin
                // the *first* body position that can match a delta fact
                // for this particular fact (standard semi-naive with
                // ordered deltas would track iteration stamps; for the
                // small programs here, deduplication via `contains` keeps
                // this correct, the `pos` loop keeps it complete).
                for fact in &delta {
                    if fact.rel != pivot.rel || fact.args.len() != pivot.args.len() {
                        continue;
                    }
                    let Some(binding) = unify_tuple(&pivot.args, &fact.args, &Subst::new()) else {
                        continue;
                    };
                    let mut rest: Vec<RAtom> = Vec::with_capacity(rule.body.len() - 1);
                    rest.extend(rule.body[..pos].iter().cloned());
                    rest.extend(rule.body[pos + 1..].iter().cloned());
                    store.match_pattern(&rest, &binding, &mut |full| {
                        let head = rule.head.apply(full);
                        if !store.contains(&head) && pending.insert(head.clone()) {
                            next_delta.push(head);
                        }
                        false
                    });
                }
            }
        }
        delta.clear();
        for f in next_delta {
            if store.insert(f.clone())? {
                stats.derived += 1;
                delta.push(f);
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;
    use flogic_term::Term;

    fn c(n: &str) -> Term {
        Term::constant(n)
    }
    fn v(n: &str) -> Term {
        Term::var(n)
    }

    /// Transitive closure of a chain a -> b -> c -> d.
    fn chain_store() -> FactStore {
        let mut s = FactStore::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
            s.insert(RAtom::new("edge", vec![c(x), c(y)])).unwrap();
        }
        s
    }

    fn tc_program() -> Program {
        Program::new(vec![
            Rule::new(
                RAtom::new("path", vec![v("X"), v("Y")]),
                vec![RAtom::new("edge", vec![v("X"), v("Y")])],
            ),
            Rule::new(
                RAtom::new("path", vec![v("X"), v("Z")]),
                vec![
                    RAtom::new("path", vec![v("X"), v("Y")]),
                    RAtom::new("edge", vec![v("Y"), v("Z")]),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn naive_computes_transitive_closure() {
        let mut s = chain_store();
        naive(&tc_program(), &mut s).unwrap();
        assert_eq!(s.tuples(flogic_term::Symbol::intern("path")).len(), 6);
        assert!(s.contains(&RAtom::new("path", vec![c("a"), c("d")])));
    }

    #[test]
    fn seminaive_matches_naive() {
        let mut s1 = chain_store();
        let mut s2 = chain_store();
        naive(&tc_program(), &mut s1).unwrap();
        let stats = seminaive(&tc_program(), &mut s2).unwrap();
        let p = flogic_term::Symbol::intern("path");
        let mut t1: Vec<_> = s1.tuples(p).to_vec();
        let mut t2: Vec<_> = s2.tuples(p).to_vec();
        t1.sort();
        t2.sort();
        assert_eq!(t1, t2);
        assert_eq!(stats.derived, 6);
    }

    #[test]
    fn seminaive_on_empty_store_is_noop() {
        let mut s = FactStore::new();
        let stats = seminaive(&tc_program(), &mut s).unwrap();
        assert_eq!(stats.derived, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn recursive_same_relation_join() {
        // sg(X,Y) :- flat(X,Y).
        // sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).   (same-generation)
        let prog = Program::new(vec![
            Rule::new(
                RAtom::new("sg", vec![v("X"), v("Y")]),
                vec![RAtom::new("flat", vec![v("X"), v("Y")])],
            ),
            Rule::new(
                RAtom::new("sg", vec![v("X"), v("Y")]),
                vec![
                    RAtom::new("up", vec![v("X"), v("X1")]),
                    RAtom::new("sg", vec![v("X1"), v("Y1")]),
                    RAtom::new("down", vec![v("Y1"), v("Y")]),
                ],
            ),
        ])
        .unwrap();
        let mut s = FactStore::new();
        s.insert(RAtom::new("flat", vec![c("m"), c("n")])).unwrap();
        s.insert(RAtom::new("up", vec![c("a"), c("m")])).unwrap();
        s.insert(RAtom::new("down", vec![c("n"), c("b")])).unwrap();
        s.insert(RAtom::new("up", vec![c("p"), c("a")])).unwrap();
        s.insert(RAtom::new("down", vec![c("b"), c("q")])).unwrap();
        seminaive(&prog, &mut s).unwrap();
        assert!(s.contains(&RAtom::new("sg", vec![c("a"), c("b")])));
        assert!(s.contains(&RAtom::new("sg", vec![c("p"), c("q")])));
    }

    #[test]
    fn constants_in_rule_bodies_filter() {
        let prog = Program::new(vec![Rule::new(
            RAtom::new("from_a", vec![v("Y")]),
            vec![RAtom::new("edge", vec![c("a"), v("Y")])],
        )])
        .unwrap();
        let mut s = chain_store();
        seminaive(&prog, &mut s).unwrap();
        let f = flogic_term::Symbol::intern("from_a");
        assert_eq!(s.tuples(f), &[vec![c("b")]]);
    }

    #[test]
    fn program_rejects_invalid_rules() {
        let bad = Rule::new(
            RAtom::new("out", vec![v("Z")]),
            vec![RAtom::new("in", vec![v("X")])],
        );
        assert!(Program::new(vec![bad]).is_err());
    }
}
