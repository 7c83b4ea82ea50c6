//! The four seeded traffic shapes, and the ground truth their answers
//! are checked against.
//!
//! Every request is a `POST /v1/contains` of one query pair that
//! `flogic-gen` makes from the run's seed, mixed as experiment E4 mixes
//! them: a random 4-atom meta-query `q1`, and a `q2` generalized from its
//! body (holds classically), generalized from its chase (holds only
//! because of `Σ_FL`), or unrelated to it (usually does not hold). The
//! shapes differ in which layers of `flqd` end up answering:
//!
//! * `warm` — byte-identical repeats of 256 pairs decided during set-up,
//!   round robin: decode, parse, canonicalization and the RAM decision
//!   cache answer.
//! * `variant` — each request a fresh respelling of one of 256 pairs
//!   decided during set-up (redundant atoms, renamed variables, permuted
//!   conjuncts): the decision cache still answers, but only after
//!   canonicalization folds the respelling onto the cached pair, and no
//!   two requests are byte-identical. With `warm` it is the pair of
//!   shapes for reuse keyed on request bytes: `warm` has it, `variant`
//!   defeats it.
//! * `cold` — each request a question never asked before (`q1` carries a
//!   constant unique to the request): the decision and snapshot caches
//!   both miss, so the chase and the homomorphism search answer.
//! * `disk` — the 256 pairs an earlier process decided on the same
//!   `--data-dir`, each asked once per process: the durable LSM tier
//!   answers, and the server restarts after every round.

use flogic_core::{contains_with, ContainmentOptions, Verdict};
use flogic_gen::rng::SplitMix64;
use flogic_gen::{
    generalize, generalize_from_chase, mutate_variant, random_query, GeneralizeConfig,
    QueryGenConfig,
};
use flogic_model::ConjunctiveQuery;
use flogic_syntax::{parse_query, query_to_flogic};

/// Chase budget every request carries, as `loadgen` sends it.
const MAX_CONJUNCTS: usize = 50_000;
/// Pairs decided during set-up by `warm`, `variant` and `disk`.
const CORPUS: usize = 256;
/// Pairs `cold` decides during set-up, to warm the process up; never
/// asked again.
const COLD_WARM_UP: usize = 16;
/// `cold` checks every this-many-th answer: the local ground truth costs
/// as much as the server's own work.
const COLD_CHECK_EVERY: u64 = 8;

// Independent random streams, all derived from the seed.
const CORPUS_STREAM: u64 = 1;
const COLD_WARM_UP_STREAM: u64 = 2;
const COLD_STREAM: u64 = 3;
const VARIANT_STREAM: u64 = 4;

/// A traffic shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Byte-identical repeats of decided pairs.
    Warm,
    /// Fresh respellings of decided pairs.
    Variant,
    /// Questions never asked before.
    Cold,
    /// Pairs decided by an earlier process, asked once per process.
    Disk,
}

impl Shape {
    /// The shape a `--workload` name selects.
    pub fn parse(name: &str) -> Option<Shape> {
        match name {
            "warm" => Some(Shape::Warm),
            "variant" => Some(Shape::Variant),
            "cold" => Some(Shape::Cold),
            "disk" => Some(Shape::Disk),
            _ => None,
        }
    }
}

/// What the answer to a measured request must say.
#[derive(Clone, Copy)]
pub enum Truth {
    /// What set-up pair `i` says (a respelling answers alike).
    Corpus(usize),
    /// A pair never seen before, decided locally when sampled.
    Fresh,
}

/// One workload: a shape and the inputs its seed makes.
pub struct Workload {
    shape: Shape,
    seed: u64,
    /// The pairs set-up sends, and their request bodies.
    corpus: Vec<(ConjunctiveQuery, ConjunctiveQuery)>,
    bodies: Vec<String>,
}

impl Workload {
    /// Makes the inputs of `shape` from `seed`.
    pub fn new(shape: Shape, seed: u64) -> Workload {
        let (stream, n) = match shape {
            Shape::Cold => (COLD_WARM_UP_STREAM, COLD_WARM_UP),
            _ => (CORPUS_STREAM, CORPUS),
        };
        let corpus: Vec<_> = (0..n as u64).map(|i| pair(seed, stream, i)).collect();
        let bodies = corpus
            .iter()
            .map(|(q1, q2)| body(&query_to_flogic(q1), &query_to_flogic(q2)))
            .collect();
        Workload {
            shape,
            seed,
            corpus,
            bodies,
        }
    }

    /// The workload's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The requests set-up sends, in order.
    pub fn warm_up(&self) -> &[String] {
        &self.bodies
    }

    /// True when the server restarts before measured request `r`: `disk`
    /// asks each stored pair once per process.
    pub fn restarts_before(&self, r: u64) -> bool {
        self.shape == Shape::Disk && r > 0 && r % self.corpus.len() as u64 == 0
    }

    /// Measured request `r`: its body, and what its answer must say.
    pub fn request(&self, r: u64) -> (String, Truth) {
        let i = (r % self.corpus.len() as u64) as usize;
        match self.shape {
            Shape::Warm | Shape::Disk => (self.bodies[i].clone(), Truth::Corpus(i)),
            Shape::Variant => {
                let mut rng = stream_rng(self.seed, VARIANT_STREAM, r);
                let (q1, q2) = &self.corpus[i];
                let v1 = query_to_flogic(&mutate_variant(q1, &mut rng));
                let v2 = query_to_flogic(&mutate_variant(q2, &mut rng));
                (body(&v1, &v2), Truth::Corpus(i))
            }
            Shape::Cold => {
                let (q1, q2) = self.fresh(r);
                (body(&q1, &q2), Truth::Fresh)
            }
        }
    }

    /// The query texts of `cold` request `r`. Its `q1` gets one more
    /// atom, `X : u<seed>x<r>` on the head variable `X`: the constant
    /// occurs in no other request, so nothing decided or chased before can
    /// be reused, and the atom only narrows `q1`, so a containment that
    /// held still holds.
    pub fn fresh(&self, r: u64) -> (String, String) {
        let (q1, q2) = pair(self.seed, COLD_STREAM, r);
        let text = query_to_flogic(&q1);
        let head = q1.head()[0];
        let q1 = format!(
            "{}, {head} : u{}x{r}.",
            text.trim_end_matches('.'),
            self.seed
        );
        (q1, query_to_flogic(&q2))
    }

    /// The verdicts of the set-up pairs, decided in this process.
    pub fn expected(&self) -> Result<Vec<&'static str>, String> {
        self.corpus
            .iter()
            .map(|(q1, q2)| truth(&query_to_flogic(q1), &query_to_flogic(q2)))
            .collect()
    }
}

/// Pair `i` of a stream: a random `q1` and, by turns as in E4, a `q2`
/// generalized from its body, generalized from its chase, or unrelated.
fn pair(seed: u64, stream: u64, i: u64) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let mut rng = stream_rng(seed, stream, i);
    let shape = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..QueryGenConfig::default()
    };
    let blur = GeneralizeConfig::default();
    let q1 = random_query(&shape, &mut rng);
    let q2 = match i % 3 {
        0 => generalize(&q1, &blur, &mut rng),
        1 => match generalize_from_chase(&q1, &blur, &mut rng) {
            Some(q2) => q2,
            None => generalize(&q1, &blur, &mut rng),
        },
        _ => random_query(&shape, &mut rng),
    };
    (q1, q2)
}

fn stream_rng(seed: u64, stream: u64, i: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ i,
    )
}

/// The body of a `POST /v1/contains` asking whether `q1 ⊆ q2`.
fn body(q1: &str, q2: &str) -> String {
    format!(
        "{{\"q1\":{},\"q2\":{},\"max_conjuncts\":{MAX_CONJUNCTS}}}",
        json_string(q1),
        json_string(q2)
    )
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The verdict `flqd` must give on `q1 ⊆ q2`, decided in this process
/// under the budget the request carries.
pub fn truth(q1: &str, q2: &str) -> Result<&'static str, String> {
    let parse = |text: &str| {
        parse_query(text).map_err(|e| format!("generated query {text:?} does not parse: {e}"))
    };
    let opts = ContainmentOptions {
        max_conjuncts: MAX_CONJUNCTS,
        ..ContainmentOptions::default()
    };
    let result = contains_with(&parse(q1)?, &parse(q2)?, &opts)
        .map_err(|e| format!("cannot decide {q1:?} against {q2:?}: {e}"))?;
    Ok(match result.verdict() {
        Verdict::Holds => "holds",
        Verdict::NotHolds => "not_holds",
        Verdict::Exhausted(_) => "exhausted",
    })
}

/// The `verdict` field of an answer.
fn verdict_of(answer: &str) -> Option<&str> {
    const KEY: &str = "\"verdict\":\"";
    let rest = &answer[answer.find(KEY)? + KEY.len()..];
    rest.split('"').next()
}

/// Checks answers against the ground truth. The answers to `cold` are
/// sampled, and decided locally by [`Checker::finish`] once the measured
/// phase is over.
pub struct Checker<'a> {
    workload: &'a Workload,
    expected: &'a [&'static str],
    /// The set-up answers: a `disk` answer must repeat its pair's byte
    /// for byte, as the durable tier promises.
    warm_up: Vec<String>,
    sampled: Vec<(u64, String)>,
    wrong: u64,
}

impl<'a> Checker<'a> {
    /// Starts from the set-up answers, which are checked too.
    pub fn new(
        workload: &'a Workload,
        expected: &'a [&'static str],
        warm_up: Vec<String>,
    ) -> Checker<'a> {
        let mut checker = Checker {
            workload,
            expected,
            warm_up: Vec::new(),
            sampled: Vec::new(),
            wrong: 0,
        };
        for (i, answer) in warm_up.iter().enumerate() {
            checker.verdict(i, answer);
        }
        checker.warm_up = warm_up;
        checker
    }

    fn verdict(&mut self, i: usize, answer: &str) {
        if verdict_of(answer) != Some(self.expected[i]) {
            self.wrong += 1;
            eprintln!(
                "wrong answer on pair {i}: expected {}, got {answer}",
                self.expected[i]
            );
        }
    }

    /// Checks the answer to measured request `r`.
    pub fn check(&mut self, r: u64, truth: Truth, answer: &str) {
        match truth {
            Truth::Corpus(i) => {
                self.verdict(i, answer);
                if self.workload.shape == Shape::Disk && answer != self.warm_up[i] {
                    self.wrong += 1;
                    eprintln!("pair {i} answered differently after the restart: {answer}");
                }
            }
            Truth::Fresh if r % COLD_CHECK_EVERY == 0 => {
                let got = verdict_of(answer).unwrap_or_default().to_string();
                self.sampled.push((r, got));
            }
            Truth::Fresh => {}
        }
    }

    /// Decides the sampled `cold` pairs locally; returns how many answers
    /// were wrong in all.
    pub fn finish(self) -> Result<u64, String> {
        let mut wrong = self.wrong;
        for (r, got) in &self.sampled {
            let (q1, q2) = self.workload.fresh(*r);
            let want = truth(&q1, &q2)?;
            if got != want {
                wrong += 1;
                eprintln!("wrong answer on cold request {r}: expected {want}, got {got}");
            }
        }
        Ok(wrong)
    }
}
