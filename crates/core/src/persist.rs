//! Stable byte encodings for the durable decision tier (the
//! `flogic-store` crate, `docs/STORAGE.md`), which needs keys and values
//! that mean the same thing after a restart:
//!
//! * constants and variables are serialized **by name** (length-prefixed
//!   UTF-8), never by [`Symbol`] interner id, which is assigned in
//!   first-intern order and so differs across processes;
//! * predicates are serialized by their `Pred::index`, which is fixed
//!   by the `Σ_FL` signature and stable by construction;
//! * canonical variables are serialized by their first-occurrence index,
//!   which the canonicalization pass already makes deterministic;
//! * all integers are little-endian and fixed-width.
//!
//! Canonicalization writes the keys with these primitives, straight into
//! a [`DecisionKey`](crate::DecisionKey): one representation for the
//! in-RAM and the durable tier alike.
//!
//! [`encode_decision`] / [`decode_decision`] round-trip everything a
//! cache hit restores: the three-valued [`Verdict`], the chase outcome,
//! the effective bound and run metadata. Exhausted verdicts are **never
//! encoded** ([`encode_decision`] returns `None`), mirroring the in-RAM
//! rule: an exhausted run describes the budget, not the pair. The
//! witness substitution is not persisted for the same reason it is not
//! cached in RAM — it is expressed in the original queries' variable
//! names, which do not survive canonicalization.
//!
//! Every encoding opens with [`PERSIST_FORMAT_VERSION`]; decoders
//! reject any other version (and any trailing or truncated bytes), so a
//! future format change invalidates old entries instead of misreading
//! them. The full compatibility policy lives in `docs/STORAGE.md`.

use flogic_chase::{ChaseOutcome, ExhaustReason};
use flogic_hom::HomStats;
use flogic_term::{NullId, Symbol, Term};

use crate::decide::{ContainmentResult, Verdict};

/// Version byte leading every persisted key and value produced by this
/// module. Bump on any layout change; decoders reject other versions.
pub const PERSIST_FORMAT_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Little-endian write/read helpers over plain byte vectors.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over an encoded buffer; every read is bounds-checked so a
/// corrupt or truncated value decodes to `None`, never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Value encoding.
// ---------------------------------------------------------------------------

pub(crate) fn put_term(out: &mut Vec<u8>, t: &Term) {
    match t {
        Term::Const(s) => {
            out.push(0);
            put_str(out, s.as_str());
        }
        Term::Null(n) => {
            out.push(1);
            put_u64(out, n.0);
        }
        Term::Var(v) => {
            out.push(2);
            put_str(out, v.as_str());
        }
    }
}

fn read_term(r: &mut Reader<'_>) -> Option<Term> {
    match r.u8()? {
        0 => Some(Term::Const(Symbol::intern(r.str()?))),
        1 => Some(Term::Null(NullId(r.u64()?))),
        2 => Some(Term::Var(Symbol::intern(r.str()?))),
        _ => None,
    }
}

fn reason_tag(reason: ExhaustReason) -> u8 {
    match reason {
        ExhaustReason::Conjuncts => 0,
        ExhaustReason::Deadline => 1,
        ExhaustReason::Steps => 2,
        ExhaustReason::Bytes => 3,
        ExhaustReason::Cancelled => 4,
    }
}

fn read_reason(tag: u8) -> Option<ExhaustReason> {
    Some(match tag {
        0 => ExhaustReason::Conjuncts,
        1 => ExhaustReason::Deadline,
        2 => ExhaustReason::Steps,
        3 => ExhaustReason::Bytes,
        4 => ExhaustReason::Cancelled,
        _ => return None,
    })
}

/// Serializes a decided [`ContainmentResult`] for the durable tier, or
/// `None` for exhausted verdicts — which must never be persisted: an
/// exhausted run is a statement about the budget that happened to govern
/// it, and replaying "undecided" for future callers with generous
/// budgets would be wrong (the same rule the in-RAM cache enforces).
///
/// The witness substitution and the hom-search counts are stripped
/// exactly as in-RAM hits strip them; [`decode_decision`] restores
/// `witness: None` and zero counts. Everything else —
/// verdict, vacuity, chase outcome (including `Failed` clash terms, by
/// name), effective bound, chase size/level, the analysis attribution —
/// round-trips bit-identically, which `tests/store_cross_validation.rs`
/// pins against fresh recomputation.
pub fn encode_decision(r: &ContainmentResult) -> Option<Vec<u8>> {
    if r.is_exhausted() {
        return None;
    }
    let mut out = Vec::with_capacity(32);
    out.push(PERSIST_FORMAT_VERSION);
    out.push(match r.verdict {
        Verdict::Holds => 0,
        Verdict::NotHolds => 1,
        // Unreachable past the is_exhausted gate, but keep the encoder
        // total: refuse rather than write a lying record.
        Verdict::Exhausted(_) => return None,
    });
    out.push(r.vacuous as u8);
    put_u64(&mut out, r.chase_conjuncts as u64);
    match &r.chase_outcome {
        ChaseOutcome::Completed => out.push(0),
        ChaseOutcome::LevelBounded => out.push(1),
        ChaseOutcome::Failed { left, right } => {
            out.push(2);
            put_term(&mut out, left);
            put_term(&mut out, right);
        }
        ChaseOutcome::Exhausted { reason } => {
            out.push(3);
            out.push(reason_tag(*reason));
        }
    }
    put_u32(&mut out, r.level_bound);
    put_u32(&mut out, r.max_chase_level);
    out.push(r.decided_by_analysis as u8);
    Some(out)
}

/// Decodes a value written by [`encode_decision`]. Returns `None` on any
/// corruption: unknown version byte, unknown tag, truncated or trailing
/// bytes. Callers treat `None` as a cache miss and recompute — a corrupt
/// persisted entry can cost a recomputation, never a wrong answer.
pub fn decode_decision(bytes: &[u8]) -> Option<ContainmentResult> {
    let mut r = Reader::new(bytes);
    if r.u8()? != PERSIST_FORMAT_VERSION {
        return None;
    }
    let verdict = match r.u8()? {
        0 => Verdict::Holds,
        1 => Verdict::NotHolds,
        _ => return None,
    };
    let vacuous = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let chase_conjuncts = usize::try_from(r.u64()?).ok()?;
    let chase_outcome = match r.u8()? {
        0 => ChaseOutcome::Completed,
        1 => ChaseOutcome::LevelBounded,
        2 => ChaseOutcome::Failed {
            left: read_term(&mut r)?,
            right: read_term(&mut r)?,
        },
        3 => ChaseOutcome::Exhausted {
            reason: read_reason(r.u8()?)?,
        },
        _ => return None,
    };
    let level_bound = r.u32()?;
    let max_chase_level = r.u32()?;
    let decided_by_analysis = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(ContainmentResult {
        verdict,
        vacuous,
        witness: None,
        chase_conjuncts,
        chase_outcome,
        level_bound,
        max_chase_level,
        decided_by_analysis,
        hom: HomStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::{contains_with, ContainmentOptions};
    use crate::KeyBuilder;
    use flogic_model::ConjunctiveQuery;
    use flogic_syntax::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    fn key(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, o: &ContainmentOptions) -> Vec<u8> {
        KeyBuilder::new(q1, o).key(q2).unwrap().0.bytes().to_vec()
    }

    fn strip(r: &ContainmentResult) -> ContainmentResult {
        ContainmentResult {
            witness: None,
            ..r.clone()
        }
    }

    fn assert_same(a: &ContainmentResult, b: &ContainmentResult) {
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.vacuous, b.vacuous);
        assert!(a.witness.is_none() && b.witness.is_none());
        assert_eq!(a.chase_conjuncts, b.chase_conjuncts);
        assert_eq!(a.chase_outcome, b.chase_outcome);
        assert_eq!(a.level_bound, b.level_bound);
        assert_eq!(a.max_chase_level, b.max_chase_level);
        assert_eq!(a.decided_by_analysis, b.decided_by_analysis);
    }

    #[test]
    fn key_bytes_agree_across_variants() {
        let opts = ContainmentOptions::default();
        let a = q("q(X) :- member(X, C), sub(C, D).");
        // Renamed, reordered, with a core-foldable redundant pair.
        let b = q("p(U) :- sub(K2, L2), member(U, K2), member(U, K1), sub(K1, L1).");
        let q2 = q("r(O) :- member(O, C).");
        assert_eq!(key(&a, &q2, &opts), key(&b, &q2, &opts));
    }

    /// The exact key bytes of four pairs, recorded before canonicalization
    /// wrote them directly: stores written then must keep answering.
    #[test]
    fn key_bytes_match_the_stored_layout() {
        let section2 = (
            q("q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_]."),
            q("qq(A,B) :- T1[A*=>T2], T2[B*=>_]."),
        );
        // A constant and a core-foldable redundant pair in q1.
        let folds = (
            q("q(X) :- member(X, c), sub(c, D), member(X, E), sub(E, F)."),
            q("p(Y) :- member(Y, c)."),
        );
        let canon_off = ContainmentOptions {
            canon: false,
            ..Default::default()
        };
        let truncated = ContainmentOptions {
            level_bound: Some(0),
            ..Default::default()
        };
        for ((q1, q2), opts, golden) in [
            // (a) Semantic shape.
            (&section2, ContainmentOptions::default(), "010200000002000000000201000000030000000102000000020200000002030000000303000000020300\
            000002010000000204000000030300000002050000000200000000020200000002000000020000000002\
            010000000200000003030000000202000000020000000002030000000303000000020300000002010000\
            0002040000000c0000000101db828120e6f819"),
            // (b) Semantic shape: the core's bytes, bound 2·2·1.
            (&folds, ContainmentOptions::default(), "010100000002000000000200000000020000000200000000000100000063010200000000010000006302\
            010000000100000002000000000100000000020000000200000000000100000063040000000101db8281\
            20e6f819"),
            // (c) Structural shape: literal sizes, bound 2·4·1.
            (&folds, canon_off, "010100000002000000000400000000020000000200000000000100000063000200000002000000000201\
            000000010200000000010000006302020000000102000000020100000002030000000100000002000000\
            000100000000020000000200000000000100000063080000000101db828120e6f819"),
            // (d) Truncated: structural, bound 0.
            (&folds, truncated, "010100000002000000000400000000020000000200000000000100000063000200000002000000000201\
            000000010200000000010000006302020000000102000000020100000002030000000100000002000000\
            000100000000020000000200000000000100000063000000000101db828120e6f819"),
        ] {
            let hex: String = key(q1, q2, &opts).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden);
        }
    }

    #[test]
    fn key_bytes_separate_bounds_and_toggles() {
        let a = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let b = q("p(X, Z) :- sub(X, Z).");
        let base = key(&a, &b, &ContainmentOptions::default());
        let truncated = key(
            &a,
            &b,
            &ContainmentOptions {
                level_bound: Some(0),
                ..Default::default()
            },
        );
        assert_ne!(base, truncated, "truncated runs key differently");
        let no_analysis = key(
            &a,
            &b,
            &ContainmentOptions {
                analysis: false,
                ..Default::default()
            },
        );
        assert_ne!(base, no_analysis, "analysis toggle is part of the key");
    }

    #[test]
    fn decided_results_roundtrip() {
        let opts = ContainmentOptions::default();
        for (s1, s2) in [
            ("q(X, Z) :- sub(X, Y), sub(Y, Z).", "p(X, Z) :- sub(X, Z)."),
            ("q(X, Z) :- sub(X, Z).", "p(X, Z) :- sub(X, Y), sub(Y, Z)."),
            (
                "q() :- mandatory(A, T), type(T, A, T).",
                "qq() :- data(T, A, V), member(V, T).",
            ),
        ] {
            let r = contains_with(&q(s1), &q(s2), &opts).unwrap();
            let bytes = encode_decision(&r).expect("decided result encodes");
            let back = decode_decision(&bytes).expect("own encoding decodes");
            assert_same(&strip(&r), &back);
        }
    }

    #[test]
    fn failed_chase_outcome_roundtrips_terms_by_name() {
        // type(T, A, T) + funct-style clash paths can produce Failed
        // outcomes; synthesize one directly to pin the term codec.
        let r = ContainmentResult {
            verdict: Verdict::Holds,
            vacuous: true,
            witness: None,
            chase_conjuncts: 7,
            chase_outcome: ChaseOutcome::Failed {
                left: Term::constant("alpha"),
                right: Term::Null(NullId(42)),
            },
            level_bound: 3,
            max_chase_level: 2,
            decided_by_analysis: false,
            hom: HomStats::default(),
        };
        let back = decode_decision(&encode_decision(&r).unwrap()).unwrap();
        assert_same(&r, &back);
    }

    #[test]
    fn exhausted_results_never_encode() {
        let tight = ContainmentOptions {
            max_conjuncts: 5,
            analysis: false,
            ..Default::default()
        };
        let r = contains_with(
            &q("q() :- mandatory(A, T), type(T, A, T)."),
            &q("qq() :- data(T, A, V), member(V, T)."),
            &tight,
        )
        .unwrap();
        assert!(r.is_exhausted());
        assert!(encode_decision(&r).is_none());
    }

    #[test]
    fn corrupt_values_decode_to_none() {
        let r = contains_with(
            &q("q(X, Z) :- sub(X, Y), sub(Y, Z)."),
            &q("p(X, Z) :- sub(X, Z)."),
            &ContainmentOptions::default(),
        )
        .unwrap();
        let bytes = encode_decision(&r).unwrap();
        // Truncation, trailing garbage, bad version, bad tag.
        assert!(decode_decision(&bytes[..bytes.len() - 1]).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_decision(&trailing).is_none());
        let mut versioned = bytes.clone();
        versioned[0] = PERSIST_FORMAT_VERSION + 1;
        assert!(decode_decision(&versioned).is_none());
        let mut tagged = bytes.clone();
        tagged[1] = 9;
        assert!(decode_decision(&tagged).is_none());
        assert!(decode_decision(&[]).is_none());
    }
}
