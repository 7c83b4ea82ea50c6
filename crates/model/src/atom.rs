//! Atoms over the `P_FL` schema.

use std::fmt;

use flogic_term::{Subst, Term};

use crate::{ModelError, Pred};

/// Argument storage: `P_FL` atoms have arity 2 or 3, so arguments are kept
/// inline (no heap allocation per atom).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
enum Args {
    Two([Term; 2]),
    Three([Term; 3]),
}

impl Args {
    fn as_slice(&self) -> &[Term] {
        match self {
            Args::Two(a) => a,
            Args::Three(a) => a,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Term] {
        match self {
            Args::Two(a) => a,
            Args::Three(a) => a,
        }
    }
}

/// An atom `p(t1, …, tn)` over a `P_FL` predicate.
///
/// Atoms are the conjuncts of queries, the tuples of databases, and the
/// nodes of the chase graph (the paper uses *conjunct*, *tuple* and *atom*
/// interchangeably — see Section 3). An atom's arity always matches its
/// predicate; this invariant is enforced at construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    pred: Pred,
    args: Args,
}

impl Atom {
    /// Creates an atom, checking that `args.len()` matches the predicate
    /// arity.
    pub fn new(pred: Pred, args: &[Term]) -> Result<Atom, ModelError> {
        if args.len() != pred.arity() {
            return Err(ModelError::ArityMismatch {
                pred,
                expected: pred.arity(),
                got: args.len(),
            });
        }
        Ok(match pred.arity() {
            2 => Atom {
                pred,
                args: Args::Two([args[0], args[1]]),
            },
            _ => Atom {
                pred,
                args: Args::Three([args[0], args[1], args[2]]),
            },
        })
    }

    /// `member(o, c)` — object `o` is a member of class `c`.
    pub fn member(o: Term, c: Term) -> Atom {
        Atom {
            pred: Pred::Member,
            args: Args::Two([o, c]),
        }
    }

    /// `sub(c1, c2)` — class `c1` is a subclass of `c2`.
    pub fn sub(c1: Term, c2: Term) -> Atom {
        Atom {
            pred: Pred::Sub,
            args: Args::Two([c1, c2]),
        }
    }

    /// `data(o, a, v)` — attribute `a` has value `v` on object `o`.
    pub fn data(o: Term, a: Term, v: Term) -> Atom {
        Atom {
            pred: Pred::Data,
            args: Args::Three([o, a, v]),
        }
    }

    /// `type(o, a, t)` — attribute `a` has type `t` for object `o`.
    pub fn typ(o: Term, a: Term, t: Term) -> Atom {
        Atom {
            pred: Pred::Type,
            args: Args::Three([o, a, t]),
        }
    }

    /// `mandatory(a, o)` — attribute `a` is mandatory on `o`.
    pub fn mandatory(a: Term, o: Term) -> Atom {
        Atom {
            pred: Pred::Mandatory,
            args: Args::Two([a, o]),
        }
    }

    /// `funct(a, o)` — attribute `a` is functional on `o`.
    pub fn funct(a: Term, o: Term) -> Atom {
        Atom {
            pred: Pred::Funct,
            args: Args::Two([a, o]),
        }
    }

    /// The predicate of this atom.
    pub fn pred(&self) -> Pred {
        self.pred
    }

    /// The arguments, as a slice of length 2 or 3.
    pub fn args(&self) -> &[Term] {
        self.args.as_slice()
    }

    /// The `i`-th argument. Panics if `i >= arity` (programming error).
    pub fn arg(&self, i: usize) -> Term {
        self.args.as_slice()[i]
    }

    /// The arity (2 or 3).
    pub fn arity(&self) -> usize {
        self.args.as_slice().len()
    }

    /// True if every argument is ground (constant or null) — i.e. the atom
    /// may appear in a database.
    pub fn is_ground(&self) -> bool {
        self.args().iter().all(|t| t.is_ground())
    }

    /// Iterates over the variables of the atom (with repetitions).
    pub fn vars(&self) -> impl Iterator<Item = Term> + '_ {
        self.args().iter().copied().filter(|t| t.is_var())
    }

    /// Returns a copy with the substitution applied to every argument.
    #[must_use]
    pub fn apply(&self, s: &Subst) -> Atom {
        self.map(|t| s.apply(t))
    }

    /// Returns a copy with `f` applied to every argument, in order.
    #[must_use]
    pub fn map(&self, mut f: impl FnMut(Term) -> Term) -> Atom {
        let mut out = *self;
        for t in out.args.as_mut_slice() {
            *t = f(*t);
        }
        out
    }

    /// Applies the substitution in place.
    pub fn apply_in_place(&mut self, s: &Subst) {
        s.apply_slice(self.args.as_mut_slice());
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.args().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::var(n)
    }
    fn c(n: &str) -> Term {
        Term::constant(n)
    }

    #[test]
    fn terms_and_atoms_keep_their_sizes() {
        // Resident chase snapshots, and the byte estimates that cap them,
        // scale with both.
        assert_eq!(size_of::<Term>(), 16);
        assert_eq!(size_of::<Atom>(), 56);
    }

    #[test]
    fn constructors_set_pred_and_args() {
        let a = Atom::data(c("john"), c("age"), c("33"));
        assert_eq!(a.pred(), Pred::Data);
        assert_eq!(a.args(), &[c("john"), c("age"), c("33")]);
        assert_eq!(a.arity(), 3);
        let m = Atom::member(c("john"), c("student"));
        assert_eq!(m.arity(), 2);
    }

    #[test]
    fn new_checks_arity() {
        assert!(Atom::new(Pred::Member, &[c("a"), c("b")]).is_ok());
        let err = Atom::new(Pred::Member, &[c("a")]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        assert!(Atom::new(Pred::Data, &[c("a"), c("b")]).is_err());
    }

    #[test]
    fn groundness_and_vars() {
        let g = Atom::member(c("john"), c("student"));
        assert!(g.is_ground());
        let q = Atom::data(v("O"), c("age"), v("V"));
        assert!(!q.is_ground());
        let vars: Vec<Term> = q.vars().collect();
        assert_eq!(vars, vec![v("O"), v("V")]);
    }

    #[test]
    fn apply_substitutes_arguments() {
        let mut s = Subst::new();
        s.bind(v("O"), c("john"));
        let a = Atom::data(v("O"), c("age"), v("V"));
        let b = a.apply(&s);
        assert_eq!(b, Atom::data(c("john"), c("age"), v("V")));
        // original untouched
        assert_eq!(a.arg(0), v("O"));
    }

    #[test]
    fn display_matches_paper_notation() {
        let a = Atom::typ(c("person"), c("age"), c("number"));
        assert_eq!(a.to_string(), "type(person, age, number)");
        let m = Atom::mandatory(v("A"), v("O"));
        assert_eq!(m.to_string(), "mandatory(A, O)");
    }

    #[test]
    fn atoms_are_hashable_set_members() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Atom::member(c("a"), c("b")));
        s.insert(Atom::member(c("a"), c("b")));
        assert_eq!(s.len(), 1);
    }
}
