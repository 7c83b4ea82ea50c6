//! Explanations: *why* does a containment hold?
//!
//! When `q1 ⊆_ΣFL q2` holds non-vacuously, the evidence is a homomorphism
//! from `body(q2)` into `chase(q1)`. Each image conjunct either comes
//! straight from `body(q1)` or was derived by a chain of `Σ_FL` rule
//! applications; tracing those chains back to level 0 yields a
//! step-by-step, human-readable proof — useful for debugging ontologies
//! and for trusting the optimizer's rewrites.

use std::fmt;

use flogic_chase::{Chase, ChaseOutcome, ConjunctId};
use flogic_model::{Atom, ConjunctiveQuery, RuleId};
use flogic_term::Term;

use crate::{ChaseSnapshot, ContainmentOptions, CoreError};

/// One step of a derivation: `conclusion` was obtained by applying `rule`
/// to `premises`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationStep {
    /// The rule applied (ρ1 … ρ12).
    pub rule: RuleId,
    /// The premise conjuncts.
    pub premises: Vec<Atom>,
    /// The derived conjunct.
    pub conclusion: Atom,
}

impl fmt::Display for DerivationStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let premises: Vec<String> = self.premises.iter().map(|a| a.to_string()).collect();
        write!(
            f,
            "{} [{}: {}] ==> {}",
            premises.join(", "),
            self.rule,
            self.rule.description(),
            self.conclusion
        )
    }
}

/// A full containment explanation.
#[derive(Clone, Debug)]
pub enum Explanation {
    /// The containment does not hold.
    NotContained,
    /// It holds vacuously: the chase of `q1` failed, `q1` is unsatisfiable.
    Vacuous {
        /// One of the two distinct constants an EGD had to equate.
        left: Term,
        /// The other one.
        right: Term,
        /// True when the active Σ is `Σ_FL`, whose only EGD is ρ4.
        sigma_fl: bool,
    },
    /// It holds with evidence.
    Witness {
        /// How each conjunct of `body(q2)` maps into the chase of `q1`.
        atom_images: Vec<(Atom, Atom)>,
        /// Derivation steps for every image conjunct not present in
        /// `body(q1)` itself, in dependency order (premises before
        /// conclusions), deduplicated.
        derivations: Vec<DerivationStep>,
    },
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Explanation::NotContained => write!(f, "containment does not hold"),
            Explanation::Vacuous { sigma_fl: true, .. } => write!(
                f,
                "containment holds vacuously: chase(q1) failed (rho4 equated two \
                 distinct constants), so q1 has no answers on any Sigma_FL database"
            ),
            Explanation::Vacuous { left, right, .. } => write!(
                f,
                "containment holds vacuously: chase(q1) failed (an EGD of the active \
                 Σ equated the distinct constants {left} and {right}), so q1 has no \
                 answers on any database that satisfies the active Σ"
            ),
            Explanation::Witness {
                atom_images,
                derivations,
            } => {
                writeln!(f, "containment holds; witness mapping of body(q2):")?;
                for (src, img) in atom_images {
                    writeln!(f, "  {src}  ->  {img}")?;
                }
                if derivations.is_empty() {
                    write!(
                        f,
                        "every image is a conjunct of body(q1) (classical containment)"
                    )?;
                } else {
                    writeln!(f, "derived conjuncts:")?;
                    for step in derivations {
                        writeln!(f, "  {step}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Collects the derivation of `id` (and everything it depends on) into
/// `steps`, premises first.
fn trace(
    chase: &Chase,
    id: ConjunctId,
    steps: &mut Vec<DerivationStep>,
    seen: &mut Vec<ConjunctId>,
) {
    if seen.contains(&id) {
        return;
    }
    seen.push(id);
    let Some(rule) = chase.rule_of(id) else {
        return;
    };
    let parents = chase.parents_of(id);
    for &p in &parents {
        trace(chase, p, steps, seen);
    }
    let step = DerivationStep {
        rule,
        premises: parents.iter().map(|&p| *chase.atom(p)).collect(),
        conclusion: *chase.atom(id),
    };
    if !steps.contains(&step) {
        steps.push(step);
    }
}

/// Decides `q1 ⊆_ΣFL q2` and, when it holds, explains why: the witness
/// mapping and the `Σ_FL` derivation of every derived image conjunct.
///
/// The verdict and witness are [`ChaseSnapshot::contains`]'s, so the
/// answer is [`contains_with`](crate::contains_with)'s; an undecided pair
/// is [`CoreError::Exhausted`], as an explanation over a partial chase
/// would be misleading.
pub fn explain(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Result<Explanation, CoreError> {
    let snapshot = ChaseSnapshot::for_candidates(q1, std::slice::from_ref(q2), opts)?;
    let result = snapshot.contains(q2, opts)?.require_decided()?;
    if let ChaseOutcome::Failed { left, right } = result.chase_outcome() {
        return Ok(Explanation::Vacuous {
            left,
            right,
            sigma_fl: opts.sigma.is_sigma_fl(),
        });
    }
    let Some(hom) = result.witness() else {
        return Ok(Explanation::NotContained);
    };
    let chase = snapshot.chase();
    let mut atom_images = Vec::new();
    let mut derivations = Vec::new();
    let mut seen = Vec::new();
    for atom in q2.body() {
        let image = atom.apply(hom);
        if let Some(id) = chase.find(&image) {
            trace(chase, id, &mut derivations, &mut seen);
        }
        atom_images.push((*atom, image));
    }
    Ok(Explanation::Witness {
        atom_images,
        derivations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_syntax::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }
    fn opts() -> ContainmentOptions {
        ContainmentOptions::default()
    }

    #[test]
    fn classical_containment_has_no_derivations() {
        let q1 = q("q(X) :- member(X, c), data(X, a, V).");
        let q2 = q("qq(X) :- member(X, c).");
        let e = explain(&q1, &q2, &opts()).unwrap();
        let Explanation::Witness {
            atom_images,
            derivations,
        } = e
        else {
            panic!("expected witness")
        };
        assert_eq!(atom_images.len(), 1);
        assert!(derivations.is_empty());
    }

    #[test]
    fn transitivity_explanation_cites_rho2() {
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("qq(X, Z) :- sub(X, Z).");
        let e = explain(&q1, &q2, &opts()).unwrap();
        let Explanation::Witness { derivations, .. } = e else {
            panic!()
        };
        assert_eq!(derivations.len(), 1);
        assert_eq!(derivations[0].rule, RuleId::R2);
        assert_eq!(derivations[0].premises.len(), 2);
    }

    #[test]
    fn pump_explanation_orders_premises_first() {
        // Needs rho10 then rho5 then rho1: derivation order must respect
        // dependencies.
        let q1 = q("q(O) :- member(O, c), mandatory(a, c), type(c, a, t).");
        let q2 = q("qq(O) :- data(O, a, V), member(V, T).");
        let e = explain(&q1, &q2, &opts()).unwrap();
        let Explanation::Witness { derivations, .. } = e else {
            panic!()
        };
        assert!(!derivations.is_empty());
        // Every premise of every step is either a body atom of q1 or the
        // conclusion of an earlier step.
        let mut known: Vec<Atom> = q1.body().to_vec();
        for step in &derivations {
            for p in &step.premises {
                assert!(known.contains(p), "premise {p} not yet established");
            }
            known.push(step.conclusion);
        }
        // rho5 must appear (a value was invented).
        assert!(derivations.iter().any(|s| s.rule == RuleId::R5));
    }

    #[test]
    fn not_contained_and_vacuous_variants() {
        let q1 = q("q(X) :- member(X, c).");
        let q2 = q("qq(X) :- sub(X, c).");
        assert!(matches!(
            explain(&q1, &q2, &opts()).unwrap(),
            Explanation::NotContained
        ));
        let q1 = q("q() :- data(o, a, 1), data(o, a, 2), funct(a, o).");
        let q2 = q("qq() :- sub(X, Y).");
        assert!(matches!(
            explain(&q1, &q2, &opts()).unwrap(),
            Explanation::Vacuous { .. }
        ));
    }

    #[test]
    fn display_is_readable() {
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("qq(X, Z) :- sub(X, Z).");
        let text = explain(&q1, &q2, &opts()).unwrap().to_string();
        assert!(text.contains("witness mapping"), "{text}");
        assert!(text.contains("rho2"), "{text}");
        assert!(text.contains("subclass transitivity"), "{text}");
    }
}
