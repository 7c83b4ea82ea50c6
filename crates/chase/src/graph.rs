//! Chase-graph node/arc types and graph-level analyses.

use std::fmt;

use flogic_model::RuleId;

use crate::engine::Chase;

/// Identifier of a conjunct (node) in a chase graph.
///
/// Ids are stable for the lifetime of a chase; when ρ4 merges two
/// conjuncts, the loser id is *redirected* to the winner and both resolve
/// to the same node thereafter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConjunctId(pub(crate) u32);

impl ConjunctId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ConjunctId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ConjunctId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An arc of the chase graph (Definition 3): the application of `rule` on
/// premise `from` contributed conclusion `to`.
///
/// `cross` marks *cross-arcs* — applications whose conclusion was already
/// present in the chase (Definition 3(4)). Arcs from a node at level `k` to
/// a node at level `k + 1` are *primary*, all others *secondary*
/// (Definition 3(5)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChaseArc {
    /// Premise conjunct.
    pub from: ConjunctId,
    /// Conclusion conjunct.
    pub to: ConjunctId,
    /// Rule whose application created the arc.
    pub rule: RuleId,
    /// True for cross-arcs.
    pub cross: bool,
}

/// A violation of the locality property of Lemma 5.
#[derive(Clone, Copy, Debug)]
pub struct LocalityViolation {
    /// The offending arc.
    pub arc: ChaseArc,
    /// Level of the arc's source.
    pub from_level: u32,
    /// Level of the arc's target.
    pub to_level: u32,
}

/// Checks Lemma 5 (locality) on a finished chase: every *secondary* arc
/// involved in the **generation** of a conjunct `c` with `level(c) ≥ 1`
/// must start at a conjunct `d` with `level(d) = 0` or
/// `level(d) = level(c) − 2`.
///
/// Cross-arcs whose target is not above their source are excluded: they
/// record *suppressed duplicate* derivations (the conclusion already
/// existed, possibly at the same or a lower level), not generation
/// structure, and Lemma 5's excision argument only relies on how conjuncts
/// are generated.
///
/// Returns all violations (empty if the lemma holds on this chase — which
/// the paper proves it always does; the function exists so the property can
/// be asserted over randomized workloads).
pub fn locality_violations(chase: &Chase) -> Vec<LocalityViolation> {
    let mut out = Vec::new();
    for arc in chase.arcs() {
        let to_level = chase.level(arc.to);
        if to_level == 0 {
            continue;
        }
        let from_level = chase.level(arc.from);
        if arc.cross && to_level <= from_level {
            continue;
        }
        let primary = to_level == from_level + 1;
        if primary {
            continue;
        }
        let ok = from_level == 0 || from_level + 2 == to_level;
        if !ok {
            out.push(LocalityViolation {
                arc,
                from_level,
                to_level,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_id_display() {
        assert_eq!(ConjunctId(3).to_string(), "c3");
        assert_eq!(format!("{:?}", ConjunctId(3)), "c3");
    }
}
