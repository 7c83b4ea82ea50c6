//! Micro-bench: the in-process cost of each kernel on `flqd`'s request
//! path, per request, over the seeded traffic `perfbench` drives `flqd`
//! with (`perfbench/src/workload.rs`):
//!
//! * `decode` — `api::parse_contains` of the request body `perfbench`
//!   sends: the JSON half of `flqd`'s `decode` stage;
//! * `parse_query` — both query texts of a request: the other half;
//! * `classic_core` — both parsed queries' classic cores;
//! * `canon` — `KeyBuilder::key` with representatives: `flqd`'s whole
//!   canon stage (two cores, two canonical orderings, two
//!   representatives);
//! * `contains` — `ChaseSnapshot::contains` of the canonical `q2` on a
//!   resident chase of the canonical `q1`: the decision tail a snapshot
//!   hit runs (analysis fast paths, then the hom search).
//!
//! Each stream is named by its seed, length, `q1` size and shape, e.g.
//! `s=1_n=3000_atoms=4_variant`. Every timed call handles the stream's
//! next request, round robin, so a figure is the cost of one request.

use std::hint::black_box;

use flogic_bench::microbench::Runner;
use flogic_core::{ChaseSnapshot, ContainmentOptions, KeyBuilder};
use flogic_gen::rng::SplitMix64;
use flogic_gen::{
    generalize, generalize_from_chase, mutate_variant, random_query, GeneralizeConfig,
    QueryGenConfig,
};
use flogic_hom::classic_core;
use flogic_model::ConjunctiveQuery;
use flogic_serve::{api, json};
use flogic_syntax::{parse_query, query_to_flogic};

const SEED: u64 = 1;
const REQUESTS: u64 = 3_000;
const ATOMS: usize = 4;
/// Pairs `warm` and `variant` repeat.
const CORPUS: u64 = 256;
/// The chase budget `perfbench` puts in every request body.
const MAX_CONJUNCTS: usize = 50_000;

// The streams of `perfbench/src/workload.rs`.
const CORPUS_STREAM: u64 = 1;
const COLD_STREAM: u64 = 3;
const VARIANT_STREAM: u64 = 4;

fn stream_rng(stream: u64, i: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ i,
    )
}

/// Pair `i` of a stream: a random `q1` and, by turns, a `q2` generalized
/// from its body, generalized from its chase, or drawn independently.
fn pair(stream: u64, i: u64) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let mut rng = stream_rng(stream, i);
    let shape = QueryGenConfig {
        n_atoms: ATOMS,
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

/// The query texts of every request of one shape.
fn texts(shape: &str) -> Vec<(String, String)> {
    let corpus: Vec<_> = (0..CORPUS).map(|i| pair(CORPUS_STREAM, i)).collect();
    let text = |(q1, q2): &(ConjunctiveQuery, ConjunctiveQuery)| {
        (query_to_flogic(q1), query_to_flogic(q2))
    };
    (0..REQUESTS)
        .map(|r| {
            let base = &corpus[(r % CORPUS) as usize];
            match shape {
                "warm" => text(base),
                "variant" => {
                    let mut rng = stream_rng(VARIANT_STREAM, r);
                    let v1 = mutate_variant(&base.0, &mut rng);
                    let v2 = mutate_variant(&base.1, &mut rng);
                    text(&(v1, v2))
                }
                _ => {
                    // A request-unique constant on `q1`'s head variable.
                    let (q1, q2) = pair(COLD_STREAM, r);
                    let narrowed = format!(
                        "{}, {} : u{SEED}x{r}.",
                        query_to_flogic(&q1).trim_end_matches('.'),
                        q1.head()[0]
                    );
                    (narrowed, query_to_flogic(&q2))
                }
            }
        })
        .collect()
}

/// The `POST /v1/contains` body `perfbench` sends for a pair of texts.
fn body((q1, q2): &(String, String)) -> String {
    let (mut j1, mut j2) = (String::new(), String::new());
    json::escape_into(&mut j1, q1);
    json::escape_into(&mut j2, q2);
    format!("{{\"q1\":{j1},\"q2\":{j2},\"max_conjuncts\":{MAX_CONJUNCTS}}}")
}

/// A closure over `items` that hands out the next one on every call.
fn round_robin<'a, T>(items: &'a [T]) -> impl FnMut() -> &'a T + 'a {
    let mut next = 0;
    move || {
        let item = &items[next % items.len()];
        next += 1;
        item
    }
}

fn main() {
    let opts = ContainmentOptions::default();
    let mut r = Runner::new("kernels");
    r.samples(15).min_sample_ms(40);
    for shape in ["warm", "variant", "cold"] {
        let stream = format!("s={SEED}_n={REQUESTS}_atoms={ATOMS}_{shape}");
        let texts = texts(shape);
        let queries: Vec<_> = texts
            .iter()
            .map(|(t1, t2)| (parse_query(t1).unwrap(), parse_query(t2).unwrap()))
            .collect();
        // Each request's canonical pair on a resident chase of its `q1`,
        // built at the bound its key carries, as `flqd` builds it.
        let decisions: Vec<_> = queries
            .iter()
            .map(|(q1, q2)| {
                let mut builder = KeyBuilder::new(q1, &opts).with_representatives();
                let (key, canonical) = builder.key(q2).unwrap();
                let (c1, c2) = canonical.expect("default options key semantically");
                (ChaseSnapshot::build(&c1, key.bound(), &opts).unwrap(), c2)
            })
            .collect();

        let bodies: Vec<_> = texts.iter().map(body).collect();
        let mut next = round_robin(&bodies);
        r.bench(&format!("decode/{stream}"), || {
            api::parse_contains(black_box(next().as_bytes())).unwrap()
        });
        let mut next = round_robin(&texts);
        r.bench(&format!("parse_query/{stream}"), || {
            let (t1, t2) = next();
            (parse_query(black_box(t1)), parse_query(black_box(t2)))
        });
        let mut next = round_robin(&queries);
        r.bench(&format!("classic_core/{stream}"), || {
            let (q1, q2) = next();
            (classic_core(black_box(q1)), classic_core(black_box(q2)))
        });
        let mut next = round_robin(&queries);
        r.bench(&format!("canon/{stream}"), || {
            let (q1, q2) = next();
            KeyBuilder::new(black_box(q1), &opts)
                .with_representatives()
                .key(black_box(q2))
                .unwrap()
        });
        let mut next = round_robin(&decisions);
        r.bench(&format!("contains/{stream}"), || {
            let (snapshot, c2) = next();
            snapshot.contains(black_box(c2), &opts).unwrap().holds()
        });
    }
    r.finish();
}
