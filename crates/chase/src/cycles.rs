//! Detection of mandatory-attribute cycles — the one source of chase
//! non-termination (Section 4 of the paper).
//!
//! "The only way to have an infinite chase is the iterative application of
//! rules ρ5–ρ1–ρ6–ρ10. This happens when q contains at least a set of atoms
//! specifying a cycle of mandatory attributes A1, …, Ak belonging to classes
//! T1, …, Tk, respectively, where Ai is of type T(i+1) … and Ak is of type
//! T1."

use std::collections::{HashMap, HashSet};

use flogic_model::{Atom, Pred};
use flogic_term::Term;

/// A cycle of mandatory attributes, as described in Section 4: classes
/// `T1, …, Tk` and attributes `A1, …, Ak` with `mandatory(Ai, Ti)` and
/// `type(Ti, Ai, T(i+1 mod k))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MandatoryCycle {
    /// The classes on the cycle, in order.
    pub classes: Vec<Term>,
    /// The attributes on the cycle (`attrs[i]` leads from `classes[i]` to
    /// `classes[(i+1) % k]`).
    pub attrs: Vec<Term>,
}

impl MandatoryCycle {
    /// Length `k` of the cycle.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True for the degenerate (impossible) empty cycle.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Finds all simple mandatory/type cycles among `conjuncts`.
///
/// Builds the directed graph whose nodes are class terms with an edge
/// `T → T'` labelled `A` whenever both `mandatory(A, T)` and
/// `type(T, A, T')` are present, then enumerates its simple cycles
/// (each cycle reported once, starting from its smallest class term).
pub fn find_mandatory_cycles(conjuncts: &[Atom]) -> Vec<MandatoryCycle> {
    // mandatory(A, T) pairs.
    let mandatory: HashSet<(Term, Term)> = conjuncts
        .iter()
        .filter(|a| a.pred() == Pred::Mandatory)
        .map(|a| (a.arg(0), a.arg(1)))
        .collect();
    // Edges T --A--> T' for type(T, A, T') with mandatory(A, T).
    let mut edges: HashMap<Term, Vec<(Term, Term)>> = HashMap::new();
    for a in conjuncts.iter().filter(|a| a.pred() == Pred::Type) {
        let (t, attr, t2) = (a.arg(0), a.arg(1), a.arg(2));
        if mandatory.contains(&(attr, t)) {
            edges.entry(t).or_default().push((attr, t2));
        }
    }

    let mut cycles: Vec<MandatoryCycle> = Vec::new();
    let mut seen: HashSet<Vec<Term>> = HashSet::new();
    let mut nodes: Vec<Term> = edges.keys().copied().collect();
    nodes.sort();

    for &start in &nodes {
        let mut path_classes = vec![start];
        let mut path_attrs = Vec::new();
        let mut on_path = HashSet::from([start]);
        dfs(
            start,
            start,
            &edges,
            &mut path_classes,
            &mut path_attrs,
            &mut on_path,
            &mut seen,
            &mut cycles,
        );
    }
    cycles
}

/// Depth-first search for the cycles through `start`, only visiting nodes
/// `>= start` (canonical cycles).
#[allow(clippy::too_many_arguments)] // recursive helper: state threads through
fn dfs(
    start: Term,
    current: Term,
    edges: &HashMap<Term, Vec<(Term, Term)>>,
    path_classes: &mut Vec<Term>,
    path_attrs: &mut Vec<Term>,
    on_path: &mut HashSet<Term>,
    seen: &mut HashSet<Vec<Term>>,
    cycles: &mut Vec<MandatoryCycle>,
) {
    let Some(outs) = edges.get(&current) else {
        return;
    };
    for &(attr, next) in outs {
        if next == start {
            let mut key = path_classes.clone();
            key.push(attr); // disambiguate same classes, different attrs
            key.push(next);
            if seen.insert(key) {
                let mut attrs = path_attrs.clone();
                attrs.push(attr);
                cycles.push(MandatoryCycle {
                    classes: path_classes.clone(),
                    attrs,
                });
            }
        } else if next >= start && !on_path.contains(&next) {
            path_classes.push(next);
            path_attrs.push(attr);
            on_path.insert(next);
            dfs(
                start,
                next,
                edges,
                path_classes,
                path_attrs,
                on_path,
                seen,
                cycles,
            );
            on_path.remove(&next);
            path_attrs.pop();
            path_classes.pop();
        }
    }
}

/// True if the chase of a query whose (level-0) conjuncts are `conjuncts`
/// can be infinite — i.e. it contains a mandatory/type cycle (Section 4).
///
/// Note that a `data` conjunct on the cycle entry suppresses the *first*
/// pump application but not the cycle itself (the invented values re-enter
/// the cycle), so the presence of a cycle is the right test for "may be
/// infinite".
pub fn has_infinite_chase_potential(conjuncts: &[Atom]) -> bool {
    !find_mandatory_cycles(conjuncts).is_empty()
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
    fn self_loop_detected() {
        // Example 2's core: mandatory(A, T), type(T, A, T).
        let conjuncts = [
            Atom::mandatory(v("A"), v("T")),
            Atom::typ(v("T"), v("A"), v("T")),
        ];
        let cycles = find_mandatory_cycles(&conjuncts);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
        assert_eq!(cycles[0].classes, vec![v("T")]);
        assert_eq!(cycles[0].attrs, vec![v("A")]);
        assert!(has_infinite_chase_potential(&conjuncts));
    }

    #[test]
    fn two_cycle_detected() {
        // T1 --a1--> T2 --a2--> T1, the paper's general pattern with k=2.
        let conjuncts = [
            Atom::mandatory(c("a1"), c("t1")),
            Atom::typ(c("t1"), c("a1"), c("t2")),
            Atom::mandatory(c("a2"), c("t2")),
            Atom::typ(c("t2"), c("a2"), c("t1")),
        ];
        let cycles = find_mandatory_cycles(&conjuncts);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn open_chain_is_not_a_cycle() {
        let conjuncts = [
            Atom::mandatory(c("a1"), c("t1")),
            Atom::typ(c("t1"), c("a1"), c("t2")),
            Atom::mandatory(c("a2"), c("t2")),
            Atom::typ(c("t2"), c("a2"), c("t3")),
        ];
        assert!(find_mandatory_cycles(&conjuncts).is_empty());
        assert!(!has_infinite_chase_potential(&conjuncts));
    }

    #[test]
    fn mandatory_without_matching_type_is_no_edge() {
        let conjuncts = [
            Atom::mandatory(c("a"), c("t")),
            Atom::typ(c("t"), c("b"), c("t")), // different attribute
        ];
        assert!(find_mandatory_cycles(&conjuncts).is_empty());
    }

    #[test]
    fn two_disjoint_cycles_both_found() {
        let conjuncts = [
            Atom::mandatory(c("a"), c("s")),
            Atom::typ(c("s"), c("a"), c("s")),
            Atom::mandatory(c("b"), c("t")),
            Atom::typ(c("t"), c("b"), c("t")),
        ];
        let cycles = find_mandatory_cycles(&conjuncts);
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn parallel_attributes_give_distinct_cycles() {
        // Two self-loops on the same class via different attributes.
        let conjuncts = [
            Atom::mandatory(c("a"), c("t")),
            Atom::typ(c("t"), c("a"), c("t")),
            Atom::mandatory(c("b"), c("t")),
            Atom::typ(c("t"), c("b"), c("t")),
        ];
        let cycles = find_mandatory_cycles(&conjuncts);
        assert_eq!(cycles.len(), 2);
    }
}
