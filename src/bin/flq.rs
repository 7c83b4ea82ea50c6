//! `flq` — command-line front end for the F-logic Lite toolkit.
//!
//! ```text
//! flq contains  "<q1>" "<q2>" [--threads N] [--no-analysis]
//!                             [--timeout MS] [--max-conjuncts N] [--sigma FILE]
//!                                    decide q1 ⊆_Σ q2 (and the converse)
//! flq explain   "<q1>" "<q2>" [--threads N] [--no-analysis]
//!                             [--timeout MS] [--max-conjuncts N] [--sigma FILE]
//!                                    prove the containment step by step
//! flq profile   "<q1>" "<q2>" [--threads N] [--timeout MS] [--max-conjuncts N]
//!               [--sigma FILE]
//!                                    decide q1 ⊆_Σ q2 and print the chase
//!                                    profile: per-rule firing histogram,
//!                                    level growth, phase timing, observed
//!                                    depth vs. the Theorem 12 bound
//! flq chase     "<q>" [--bound N] [--dot] [--threads N]
//!                     [--timeout MS] [--max-conjuncts N] [--sigma FILE]
//!                                    materialize the (bounded) chase
//! flq minimize  "<q>"                Σ_FL-aware query minimisation
//! flq lint      <file> [--json]      static analysis: coded diagnostics
//!                                    (FL001…FL007) with line:col spans
//! flq lint      --sigma FILE [--json]
//!                                    Σ-admission: classify a constraint set
//!                                    (weak acyclicity / guardedness /
//!                                    stickiness, FL010…FL014) and report
//!                                    whether it is admitted for the chase
//! flq eval      <file>               run a program: facts are closed under
//!                                    Σ_FL, goals/queries are answered
//! flq serve     [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!               [--cache-bytes N] [--max-body-bytes N] [--threads N]
//!               [--timeout MS] [--max-conjuncts N] [--read-timeout MS]
//!               [--ready-fd FD] [--no-canon] [--access-log FILE|-]
//!               [--slow-us N] [--log-sample 1/N]
//!                                    run flqd, the resident containment
//!                                    service, in the foreground
//! flq status    <url>                fetch a running flqd's /v1/status and
//!                                    render it as a human-readable table:
//!                                    uptime, per-stage latency percentiles,
//!                                    gauges, cache hit ratios
//! flq cache     <stat|compact|inspect|verify> DIR [--limit N]
//!                                    operate offline on a `flqd --data-dir`
//!                                    decision store: print counters and the
//!                                    live segment set, merge all segments
//!                                    into one, decode a sample of persisted
//!                                    verdicts, or re-checksum every segment
//! flq help                           print this reference on stdout, exit 0
//! ```
//!
//! Flags (an unknown flag is an error):
//!
//! * `--threads N` — worker threads for chase rule discovery; `1` (the
//!   default) is fully sequential, `0` uses all available cores. The
//!   decision never depends on it.
//! * `--no-analysis` — skip the static fast paths of `flogic-analysis`
//!   and always materialize the chase. Verdicts are identical either way.
//! * `--timeout MS` — wall-clock budget in milliseconds. A run that hits
//!   it stops cooperatively and reports *exhausted* instead of a verdict.
//! * `--max-conjuncts N` — cap on materialized chase conjuncts (an
//!   approximate memory budget; default one million).
//! * `--bound N` — chase level bound for `flq chase` (default `2·|q|`).
//! * `--dot` — emit the chase graph in Graphviz DOT format.
//! * `--sigma FILE` — replace the built-in `Σ_FL` with a user-supplied
//!   constraint set (`.sigma` TGD/EGD syntax, see `docs/CLI.md`). The set
//!   is admission-checked first: a set that fails every chase-termination
//!   class (or has hard errors, FL010/FL011) is rejected with exit 2 and
//!   the chase never runs. A structurally-`Σ_FL` file behaves bit-identically
//!   to the default.
//! * `--json` — `flq lint` only: emit diagnostics as JSONL (one flat JSON
//!   object per diagnostic) instead of the human-readable form.
//! * `--addr HOST:PORT`, `--workers N`, `--queue-cap N`,
//!   `--cache-bytes N`, `--max-body-bytes N`, `--read-timeout MS`,
//!   `--ready-fd FD`, `--no-canon` — `flq serve` knobs (listen address,
//!   worker pool, dispatch-queue depth, snapshot-cache byte cap,
//!   request-body cap, keep-alive idle timeout, readiness fd, and an
//!   escape hatch disabling semantic cache-key canonicalization); see
//!   `docs/CLI.md` for the full server reference.
//! * `--access-log FILE|-`, `--slow-us N`, `--log-sample 1/N` —
//!   `flq serve` observability knobs: a structured JSONL access log (one
//!   line per request; `-` for stdout), a slow-request threshold in
//!   microseconds that bypasses sampling, and a 1-in-N sampling divisor.
//! * `--data-dir DIR` — `flq serve` only: persist decided containments to
//!   an LSM store under `DIR` so a restarted server begins disk-warm
//!   (`docs/STORAGE.md` specifies the format; `flq cache` inspects it).
//! * `--limit N` — `flq cache inspect` only: how many persisted decisions
//!   to decode and print (default 10).
//!
//! Exit codes: `0` success, `1` failure (parse error, diagnostics, …),
//! `2` usage error, `3` resource exhaustion — the budget ran out before
//! the procedure could decide; nothing is known about the verdict.
//!
//! `flq lint <file>` exits 0 when the program is clean, 1 when any
//! diagnostic (or a parse error) is reported, 2 on usage errors.
//! `flq lint --sigma FILE` exits 0 when the set is *admitted* (warnings
//! allowed), 1 on read/parse errors, 2 when the set is rejected.
//!
//! Queries use the paper's syntax, e.g. `q(A,B) :- T1[A*=>T2], T2[B*=>_].`
//! Program files mix facts (`john:student.`), rules and goals (`?- X::person.`).

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flogic_lite::analysis::{admit_sigma, lint_source};
use flogic_lite::chase::{chase_bounded, to_dot, to_text, Budget, ChaseOptions};
use flogic_lite::core::{
    classic_contains, contains_with, explain, minimize_with, sigma_bound, theorem_bound,
    ChaseSnapshot, ContainmentOptions, CoreError,
};
use flogic_lite::datalog::{answers, close_database, ClosureOptions};
use flogic_lite::model::{DepGraph, RuleSet};
use flogic_lite::prelude::*;
use flogic_lite::serve::SERVE_FLAGS;
use flogic_lite::syntax::query_to_flogic;

/// Exit code for resource exhaustion: the budget ran out before the
/// procedure could decide (distinct from failure, which means the answer
/// is known to be an error).
const EXIT_EXHAUSTED: u8 = 3;

/// Writes `args` to stdout; once the reader has gone (`flq chase … |
/// head -1`), exits 0 where `std`'s `print!` would panic.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

// Every `print!` and `println!` below goes through `write_stdout`.
macro_rules! print {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}
macro_rules! println {
    () => { write_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The subcommands `main` dispatches on, for the unknown-subcommand
/// error message and the `help` output.
const SUBCOMMANDS: &[&str] = &[
    "contains", "explain", "profile", "chase", "minimize", "lint", "eval", "serve", "status",
    "cache", "help",
];

/// The full usage text, shared by `flq help` (stdout, exit 0) and usage
/// errors (stderr, exit 2). The serve flags come verbatim from
/// `flogic-serve` so the two stay in lockstep.
fn usage_text() -> String {
    format!(
        "usage:\n  flq contains <q1> <q2> [--threads N] [--no-analysis] [--timeout MS] [--max-conjuncts N] [--sigma FILE]\n  \
         flq explain <q1> <q2> [--threads N] [--no-analysis] [--timeout MS] [--max-conjuncts N] [--sigma FILE]\n  \
         flq profile <q1> <q2> [--threads N] [--timeout MS] [--max-conjuncts N] [--sigma FILE]\n  \
         flq chase <q> [--bound N] [--dot] [--threads N] [--timeout MS] [--max-conjuncts N] [--sigma FILE]\n  \
         flq minimize <q> [--timeout MS] [--max-conjuncts N]\n  flq lint <file> [--json]\n  \
         flq lint --sigma FILE [--json]\n  flq eval <file>\n  \
         flq serve {SERVE_FLAGS}\n  \
         flq status <url>\n  \
         flq cache <stat|compact|inspect|verify> DIR [--limit N]\n  flq help (also --help, -h)\n\
         exit codes: 0 success, 1 failure, 2 usage error (incl. rejected --sigma sets), 3 exhausted budget"
    )
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("contains") => cmd_contains(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("chase") => cmd_chase(&args[1..]),
        Some("minimize") => cmd_minimize(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("serve") => ExitCode::from(flogic_lite::serve::run_cli(args[1..].to_vec())),
        Some("status") => cmd_status(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{}", usage_text());
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!(
                "error: unknown subcommand {other:?} (available: {})",
                SUBCOMMANDS.join(", ")
            );
            usage()
        }
        None => usage(),
    }
}

fn parse_or_exit(src: &str) -> Result<flogic_lite::model::ConjunctiveQuery, ExitCode> {
    parse_query(src).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Loads a `--sigma FILE` constraint set and gates it through Σ-admission.
///
/// A set that fails admission (no chase-termination class holds, or hard
/// FL010/FL011 errors) prints its diagnostics to stderr and exits 2 — the
/// invocation asked for a Σ the bounded chase cannot soundly run under.
/// Unreadable or unparsable files exit 1. Warnings of an *admitted* set
/// are printed to stderr but do not change the exit code.
fn load_sigma(path: &str) -> Result<Arc<RuleSet>, ExitCode> {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let admission = match admit_sigma(&src, path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{path}: error: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    for d in admission.diagnostics() {
        eprintln!("{path}:{d}");
    }
    if !admission.is_admitted() {
        eprintln!("{path}: {}", admission.summary());
        return Err(ExitCode::from(2));
    }
    Ok(admission.rule_set().clone())
}

/// Splits `args` into positionals and containment options; any flag not
/// listed in the module docs is a usage error.
fn split_contains_args(args: &[String]) -> Result<(Vec<&String>, ContainmentOptions), ExitCode> {
    let mut opts = ContainmentOptions::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.threads = n,
                None => {
                    eprintln!("error: --threads needs a number");
                    return Err(usage());
                }
            },
            "--no-analysis" => opts.analysis = false,
            "--timeout" => match it.next().and_then(|n| n.parse().ok()) {
                Some(ms) => opts.budget = Budget::with_timeout(Duration::from_millis(ms)),
                None => {
                    eprintln!("error: --timeout needs a duration in milliseconds");
                    return Err(usage());
                }
            },
            "--max-conjuncts" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.max_conjuncts = n,
                None => {
                    eprintln!("error: --max-conjuncts needs a number");
                    return Err(usage());
                }
            },
            "--sigma" => match it.next() {
                Some(path) => opts.sigma = load_sigma(path)?,
                None => {
                    eprintln!("error: --sigma needs a file path");
                    return Err(usage());
                }
            },
            s if s.starts_with("--") => {
                eprintln!("error: unknown flag `{s}`");
                return Err(usage());
            }
            _ => positional.push(a),
        }
    }
    Ok((positional, opts))
}

fn cmd_contains(args: &[String]) -> ExitCode {
    let (positional, opts) = match split_contains_args(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let [q1_src, q2_src] = positional.as_slice() else {
        return usage();
    };
    run_contains(q1_src, q2_src, &opts)
}

fn run_contains(q1_src: &str, q2_src: &str, opts: &ContainmentOptions) -> ExitCode {
    let (q1, q2) = match (parse_or_exit(q1_src), parse_or_exit(q2_src)) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return ExitCode::FAILURE,
    };
    let forward = match contains_with(&q1, &q2, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rel = if opts.sigma.is_sigma_fl() {
        "⊆_ΣFL"
    } else {
        "⊆_Σ"
    };
    println!("q1: {q1}");
    println!("q2: {q2}");
    println!();
    if let flogic_lite::core::Verdict::Exhausted(reason) = forward.verdict() {
        println!(
            "q1 {rel} q2:  EXHAUSTED ({reason}) — undecided after {} chase conjuncts, level {} of bound {}",
            forward.chase_conjuncts(),
            forward.max_chase_level(),
            forward.level_bound()
        );
        return ExitCode::from(EXIT_EXHAUSTED);
    }
    println!(
        "q1 {rel} q2:  {}{}{}",
        forward.holds(),
        if forward.is_vacuous() {
            "  (vacuous: q1 unsatisfiable)"
        } else {
            ""
        },
        if forward.decided_by_analysis() {
            "  [decided statically, no chase]"
        } else {
            ""
        }
    );
    if let Some(w) = forward.witness() {
        println!("  witness: {w}");
    }
    if opts.sigma.is_sigma_fl() {
        println!(
            "  chase: {} conjuncts, bound {} (Theorem 12: 2*{}*{})",
            forward.chase_conjuncts(),
            forward.level_bound(),
            q1.size(),
            q2.size()
        );
    } else {
        println!(
            "  chase: {} conjuncts, bound {} (derived from the admitted Σ)",
            forward.chase_conjuncts(),
            forward.level_bound()
        );
    }
    let mut exhausted_back = false;
    if let Ok(back) = contains_with(&q2, &q1, opts) {
        if let flogic_lite::core::Verdict::Exhausted(reason) = back.verdict() {
            println!("q2 {rel} q1:  EXHAUSTED ({reason})");
            exhausted_back = true;
        } else {
            println!("q2 {rel} q1:  {}", back.holds());
        }
    }
    if let Ok(classic) = classic_contains(&q1, &q2) {
        println!("q1 ⊆ q2 classically (no Σ_FL):  {classic}");
    }
    if exhausted_back {
        return ExitCode::from(EXIT_EXHAUSTED);
    }
    ExitCode::SUCCESS
}

fn cmd_explain(args: &[String]) -> ExitCode {
    let (positional, opts) = match split_contains_args(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let [q1_src, q2_src] = positional.as_slice() else {
        return usage();
    };
    run_explain(q1_src, q2_src, &opts)
}

fn run_explain(q1_src: &str, q2_src: &str, opts: &ContainmentOptions) -> ExitCode {
    let (q1, q2) = match (parse_or_exit(q1_src), parse_or_exit(q2_src)) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return ExitCode::FAILURE,
    };
    match explain(&q1, &q2, opts) {
        Ok(e) => {
            println!("q1: {q1}");
            println!("q2: {q2}\n");
            println!("{e}");
            print_invention_cycles(&q1, &q2, opts);
            ExitCode::SUCCESS
        }
        Err(e @ CoreError::Exhausted { .. }) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_EXHAUSTED)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_profile(args: &[String]) -> ExitCode {
    let (positional, mut opts) = match split_contains_args(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let [q1_src, q2_src] = positional.as_slice() else {
        return usage();
    };
    // A containment short-circuited by static analysis would have no
    // chase to profile.
    opts.analysis = false;
    run_profile(q1_src, q2_src, &opts)
}

/// Decides the pair on one chase snapshot and prints what that chase and
/// the decision's homomorphism search on it did.
fn run_profile(q1_src: &str, q2_src: &str, opts: &ContainmentOptions) -> ExitCode {
    let (q1, q2) = match (parse_or_exit(q1_src), parse_or_exit(q2_src)) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return ExitCode::FAILURE,
    };
    let chase_start = Instant::now();
    let decided =
        ChaseSnapshot::for_candidates(&q1, std::slice::from_ref(&q2), opts).and_then(|snap| {
            let chase_time = chase_start.elapsed();
            let hom_start = Instant::now();
            let result = snap.contains(&q2, opts)?;
            Ok((snap, chase_time, hom_start.elapsed(), result))
        });
    let (snapshot, chase_time, hom_time, result) = match decided {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("q1: {q1}");
    println!("q2: {q2}");
    println!();
    let exhausted = result.is_exhausted();
    match result.verdict() {
        flogic_lite::core::Verdict::Exhausted(reason) => println!(
            "q1 ⊆_ΣFL q2:  EXHAUSTED ({reason}) — the profile below covers the\n\
             prefix of the chase materialized before the budget ran out"
        ),
        _ => println!("q1 ⊆_ΣFL q2:  {}", result.holds()),
    }
    println!();

    let chase = snapshot.chase();
    let stats = chase.stats();
    let hom = result.hom_stats();

    let firings = stats.rule_firings();
    println!("rule firings (Σ_FL):");
    for (i, count) in firings.iter().enumerate() {
        let note = match i {
            3 => "  (EGD merge rounds)",
            4 => "  (value invention)",
            _ => "",
        };
        println!("  rho{:<2} {count:>8}{note}", i + 1);
    }
    println!("  total {:>8}", firings.iter().sum::<usize>());
    println!("level growth:");
    println!("  {:>5} {:>10} {:>10}", "level", "created", "invented");
    for (level, g) in chase.level_growth().iter().enumerate() {
        println!("  {level:>5} {:>10} {:>10}", g.created, g.invented);
    }
    println!("phase timing:");
    for (phase, took) in [("chase", chase_time), ("hom_search", hom_time)] {
        println!("  {phase:<13} {:>10.3} ms", took.as_secs_f64() * 1e3);
    }
    println!(
        "egd: {} merge rounds, {} terms merged, max union-find depth {}",
        stats.merge_rounds, stats.merges, stats.union_find_depth
    );
    println!("nulls invented (rho5): {}", stats.nulls_invented);
    println!(
        "hom search: {} expansions, {} backtracks, {} prunes",
        hom.expansions, hom.backtracks, hom.prunes
    );
    if exhausted {
        println!("governor stops: 1");
    }
    let depth = chase.max_level();
    let theorem = theorem_bound(&q1, &q2);
    let ratio = match theorem {
        0 => String::new(),
        t => format!(" = {:.3}", f64::from(depth) / f64::from(t)),
    };
    println!(
        "observed depth {depth} / theorem bound {theorem}{ratio} (level bound {})",
        snapshot.level_bound()
    );
    if exhausted {
        return ExitCode::from(EXIT_EXHAUSTED);
    }
    ExitCode::SUCCESS
}

/// Why the chase must be cut off at a level bound: the active constraint
/// set's dependency graph contains a cycle through an existential
/// (value-inventing) edge, so the unrestricted chase need not terminate.
fn print_invention_cycles(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, opts: &ContainmentOptions) {
    let fl = opts.sigma.is_sigma_fl();
    let cycles = if fl {
        DepGraph::sigma_fl().invention_cycles()
    } else {
        DepGraph::for_rules(opts.sigma.rules()).invention_cycles()
    };
    if cycles.is_empty() {
        return;
    }
    let bound = sigma_bound(opts, q1.size(), q2.size());
    let (set, edge, cut) = if fl {
        let cut = format!("level 2*|q1|*|q2| = {bound} (Theorem 12)");
        ("Σ_FL", "rho5, fresh value", cut)
    } else {
        let cut = format!("the derived level bound {bound}");
        ("the active Σ", "fresh value", cut)
    };
    println!();
    for cycle in &cycles {
        let path: Vec<String> = cycle.iter().map(|p| p.to_string()).collect();
        println!(
            "note: {set} has a value-invention cycle {} -> ({edge}) -> {},",
            path.join(" -> "),
            path[0]
        );
    }
    println!("      so the chase may be infinite and is cut at {cut}.");
}

fn cmd_chase(args: &[String]) -> ExitCode {
    let Some(q_src) = args.first() else {
        return usage();
    };
    let q = match parse_or_exit(q_src) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let mut bound = 2 * q.size() as u32; // δ, a sensible default depth
    let mut dot = false;
    let mut threads = 1;
    let mut max_conjuncts = 1_000_000;
    let mut budget = Budget::unlimited();
    let mut sigma = RuleSet::sigma_fl().clone();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bound" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => bound = n,
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => threads = n,
                None => return usage(),
            },
            "--timeout" => match it.next().and_then(|n| n.parse().ok()) {
                Some(ms) => budget = Budget::with_timeout(Duration::from_millis(ms)),
                None => return usage(),
            },
            "--max-conjuncts" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => max_conjuncts = n,
                None => return usage(),
            },
            "--dot" => dot = true,
            "--sigma" => match it.next() {
                Some(path) => match load_sigma(path) {
                    Ok(s) => sigma = s,
                    Err(code) => return code,
                },
                None => {
                    eprintln!("error: --sigma needs a file path");
                    return usage();
                }
            },
            s => {
                eprintln!("error: unknown argument `{s}`");
                return usage();
            }
        }
    }
    let chase_opts = ChaseOptions {
        level_bound: bound,
        max_conjuncts,
        threads,
        budget,
        sigma,
    };
    run_chase(&q, &chase_opts, dot)
}

fn run_chase(q: &ConjunctiveQuery, opts: &ChaseOptions, dot: bool) -> ExitCode {
    let chase = match chase_bounded(q, opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let flogic_lite::chase::ChaseOutcome::Exhausted { reason } = chase.outcome() {
        eprintln!(
            "chase EXHAUSTED ({reason}): stopped after {} conjuncts at level {}; \
             the materialization below is a prefix, not the full chase",
            chase.len(),
            chase.max_level()
        );
        if dot {
            print!("{}", to_dot(&chase));
        } else {
            print!("{}", to_text(&chase));
        }
        return ExitCode::from(EXIT_EXHAUSTED);
    }
    if chase.is_failed() {
        println!("chase FAILED (rho4 equated two distinct constants): the query is\nunsatisfiable w.r.t. Sigma_FL; it is contained in every query of its arity.");
        return ExitCode::SUCCESS;
    }
    if dot {
        print!("{}", to_dot(&chase));
    } else {
        println!(
            "outcome: {:?}   conjuncts: {}   max level: {}   head: ({})",
            chase.outcome(),
            chase.len(),
            chase.max_level(),
            chase
                .head()
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        print!("{}", to_text(&chase));
    }
    ExitCode::SUCCESS
}

fn cmd_minimize(args: &[String]) -> ExitCode {
    let (positional, opts) = match split_contains_args(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let [q_src] = positional.as_slice() else {
        return usage();
    };
    run_minimize(q_src, &opts)
}

fn run_minimize(q_src: &str, opts: &ContainmentOptions) -> ExitCode {
    let q = match parse_or_exit(q_src) {
        Ok(q) => q,
        Err(code) => return code,
    };
    match minimize_with(&q, opts) {
        Ok(m) => {
            println!("input    ({} conjuncts): {q}", q.size());
            println!("minimal  ({} conjuncts): {m}", m.size());
            println!("f-logic  : {}", query_to_flogic(&m));
            ExitCode::SUCCESS
        }
        Err(e @ CoreError::Exhausted { .. }) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_EXHAUSTED)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Splits the args of a subcommand that takes exactly one positional
/// (`eval`'s path, `status`'s url) and no flags.
fn split_file_args(args: &[String]) -> Result<&String, ExitCode> {
    let mut positional = Vec::new();
    for a in args {
        if a.starts_with("--") {
            eprintln!("error: unknown flag `{a}`");
            return Err(usage());
        }
        positional.push(a);
    }
    let [path] = positional.as_slice() else {
        return Err(usage());
    };
    Ok(path)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut sigma_path: Option<&String> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--sigma" => match it.next() {
                Some(p) => sigma_path = Some(p),
                None => {
                    eprintln!("error: --sigma needs a file path");
                    return usage();
                }
            },
            s if s.starts_with("--") => {
                eprintln!("error: unknown flag `{s}`");
                return usage();
            }
            _ => positional.push(a),
        }
    }
    match (sigma_path, positional.as_slice()) {
        (Some(path), []) => run_lint_sigma(path, json),
        (None, [path]) => run_lint(path, json),
        _ => usage(),
    }
}

/// One diagnostic as a flat JSON object — one line of `lint --json`
/// output.
fn diagnostic_json(path: &str, d: &Diagnostic) -> String {
    format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"path\":\"{}\"}}",
        d.code,
        d.severity,
        d.pos.line,
        d.pos.col,
        json_escape(&d.message),
        json_escape(path)
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars);
/// non-ASCII is passed through as UTF-8, which JSON allows.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn run_lint(path: &str, json: bool) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let diagnostics = match lint_source(&src) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if diagnostics.is_empty() {
        // With --json an empty output is the (still valid) JSONL for
        // "no diagnostics"; the human-readable confirmation would corrupt it.
        if !json {
            println!("{path}: clean");
        }
        return ExitCode::SUCCESS;
    }
    for d in &diagnostics {
        if json {
            println!("{}", diagnostic_json(path, d));
        } else {
            println!("{path}:{d}");
        }
    }
    let (errors, warnings) = diagnostics
        .iter()
        .fold((0, 0), |(e, w), d| match d.severity {
            flogic_lite::analysis::Severity::Error => (e + 1, w),
            flogic_lite::analysis::Severity::Warning => (e, w + 1),
        });
    eprintln!("{path}: {errors} error(s), {warnings} warning(s)");
    ExitCode::FAILURE
}

/// `flq lint --sigma FILE`: parse and admission-check a constraint set,
/// reporting its chase-termination classification. Exit 0 when admitted
/// (possibly with warnings), 2 when rejected, 1 on read/parse errors.
fn run_lint_sigma(path: &str, json: bool) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let admission = match admit_sigma(&src, path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{path}: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for d in admission.diagnostics() {
        if json {
            println!("{}", diagnostic_json(path, d));
        } else {
            println!("{path}:{d}");
        }
    }
    // The verdict goes to stderr so --json stdout stays pure JSONL.
    eprintln!("{path}: {}", admission.summary());
    if admission.is_admitted() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// `flq status <url>`: fetch `/v1/status` from a running `flqd` and
/// render the JSON rollup as a human-readable table.
fn cmd_status(args: &[String]) -> ExitCode {
    let url = match split_file_args(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    match fetch_status(url) {
        Ok((addr, body)) => match render_status(&addr, &body) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One `GET /v1/status` exchange over a fresh connection. Accepts
/// `HOST:PORT` or `http://HOST:PORT[/]`; returns the normalized address
/// and the response body.
fn fetch_status(url: &str) -> Result<(String, String), String> {
    use std::io::Read as _;
    let addr = url
        .strip_prefix("http://")
        .unwrap_or(url)
        .trim_end_matches('/');
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    write!(
        stream,
        "GET /v1/status HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n"
    )
    .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {addr}"))?;
    let status = head.split(' ').nth(1).unwrap_or("<none>");
    if status != "200" {
        return Err(format!("{addr} answered HTTP {status}"));
    }
    Ok((addr.to_string(), body.to_string()))
}

/// Renders the `/v1/status` JSON as the `flq status` table.
fn render_status(addr: &str, body: &str) -> Result<String, String> {
    use flogic_lite::serve::json::{self, Json};
    let value = json::parse(body).map_err(|e| format!("cannot parse status body: {e}"))?;
    let root = value.as_obj().ok_or("status body is not a JSON object")?;
    let num = |obj: &std::collections::BTreeMap<String, Json>, key: &str| {
        obj.get(key).and_then(Json::as_u64).unwrap_or(0)
    };
    let child = |key: &str| {
        root.get(key)
            .and_then(Json::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let gauges = child("gauges");
    let cache = child("cache");
    let responses = child("responses");
    let access = child("access_log");
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "flqd at {addr} — up {}s", num(root, "uptime_s"));
    let _ = writeln!(
        out,
        "requests    {} total, {} rejected, {} connections",
        num(root, "requests_total"),
        num(root, "rejected_total"),
        num(root, "connections_total")
    );
    let _ = writeln!(
        out,
        "responses   {} 2xx, {} 4xx, {} 5xx",
        num(&responses, "2xx"),
        num(&responses, "4xx"),
        num(&responses, "5xx")
    );
    let _ = writeln!(
        out,
        "gauges      open_connections={} queue_highwater={} in_flight_workers={} snapshot_resident_bytes={}",
        num(&gauges, "open_connections"),
        num(&gauges, "queue_depth_highwater"),
        num(&gauges, "in_flight_workers"),
        num(&gauges, "snapshot_resident_bytes")
    );
    let _ = writeln!(
        out,
        "caches      decision {}% hit ({} hit / {} miss), snapshot {}% hit ({} hit / {} miss)",
        num(&cache, "decision_hit_pct"),
        num(&cache, "decision_hits"),
        num(&cache, "decision_misses"),
        num(&cache, "snapshot_hit_pct"),
        num(&cache, "snapshot_hits"),
        num(&cache, "snapshot_misses")
    );
    let _ = writeln!(
        out,
        "batch       {} dedup hits",
        num(root, "batch_dedup_hits")
    );
    let _ = writeln!(
        out,
        "access log  {} lines, {} dropped",
        num(&access, "lines"),
        num(&access, "dropped")
    );
    for (key, title) in [("stages", "stage"), ("endpoints", "endpoint")] {
        let section = child(key);
        let _ = writeln!(
            out,
            "\n{title:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "count", "p50_us", "p90_us", "p99_us", "max_us"
        );
        for (name, stats) in &section {
            let Some(stats) = stats.as_obj() else {
                continue;
            };
            let _ = writeln!(
                out,
                "{name:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
                num(stats, "count"),
                num(stats, "p50_us"),
                num(stats, "p90_us"),
                num(stats, "p99_us"),
                num(stats, "max_us")
            );
        }
    }
    Ok(out)
}

/// `flq cache <stat|compact|inspect|verify> DIR`: offline operations on
/// a `flqd --data-dir` decision store. Opening runs the same recovery
/// path the server does (WAL replay, manifest fencing, quarantine), so
/// `stat` on a just-crashed dir also reports what recovery found.
fn cmd_cache(args: &[String]) -> ExitCode {
    let mut limit = 10usize;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--limit" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => limit = n,
                None => {
                    eprintln!("error: --limit needs a number");
                    return usage();
                }
            },
            s if s.starts_with("--") => {
                eprintln!("error: unknown flag `{s}`");
                return usage();
            }
            _ => positional.push(a),
        }
    }
    let [action, dir] = positional.as_slice() else {
        return usage();
    };
    run_cache(action, dir, limit)
}

fn run_cache(action: &str, dir: &str, limit: usize) -> ExitCode {
    use flogic_lite::store::{Store, StoreOptions};
    if !matches!(action, "stat" | "compact" | "inspect" | "verify") {
        eprintln!(
            "error: unknown cache action {action:?} (available: stat, compact, inspect, verify)"
        );
        return usage();
    }
    let store = match Store::open(std::path::Path::new(dir), StoreOptions::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error opening store at {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match action {
        "stat" => {
            let s = store.stats();
            println!("store at {dir}");
            println!("generation        {}", s.generation);
            println!("segments          {}", s.segments);
            println!("segment entries   {}", s.segment_entries);
            println!("memtable entries  {}", s.memtable_entries);
            println!("wal bytes         {}", s.wal_bytes);
            println!("wal replayed      {} record(s)", s.wal_replayed);
            if s.wal_torn_bytes > 0 {
                println!(
                    "wal torn tail     {} byte(s) dropped on open",
                    s.wal_torn_bytes
                );
            }
            if s.quarantined > 0 {
                println!("quarantined       {} file(s) on open", s.quarantined);
            }
            for (name, gen, entries) in store.segment_rows() {
                println!("  {name}  gen {gen}  {entries} entries");
            }
            ExitCode::SUCCESS
        }
        "compact" => {
            let before = store.stats();
            if let Err(e) = store.compact_now() {
                eprintln!("error compacting {dir}: {e}");
                return ExitCode::FAILURE;
            }
            let after = store.stats();
            println!(
                "compacted {dir}: {} segment(s) ({} entries) -> {} segment(s) ({} entries)",
                before.segments, before.segment_entries, after.segments, after.segment_entries
            );
            ExitCode::SUCCESS
        }
        "inspect" => {
            let entries = match store.sample(limit) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("error reading {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{} persisted decision(s) (limit {limit}):", entries.len());
            for (i, (key, value)) in entries.iter().enumerate() {
                match flogic_lite::core::decode_decision(value) {
                    Some(r) => {
                        println!(
                            "  [{i}] key {} bytes  {}{}{}  ({} chase conjuncts, bound {})",
                            key.len(),
                            r.verdict().wire_name(),
                            if r.is_vacuous() { "  vacuous" } else { "" },
                            if r.decided_by_analysis() {
                                "  static"
                            } else {
                                ""
                            },
                            r.chase_conjuncts(),
                            r.level_bound()
                        );
                    }
                    None => println!(
                        "  [{i}] key {} bytes  UNDECODABLE ({} value bytes; version skew or corruption)",
                        key.len(),
                        value.len()
                    ),
                }
            }
            ExitCode::SUCCESS
        }
        "verify" => {
            let report = match store.verify() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error verifying {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "verified {} segment(s), {} entries",
                report.segments_ok, report.entries
            );
            for problem in &report.problems {
                eprintln!("problem: {problem}");
            }
            if report.is_clean() {
                println!("clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("{} problem(s) found", report.problems.len());
                ExitCode::FAILURE
            }
        }
        _ => unreachable!("gated above"),
    }
}

fn cmd_eval(args: &[String]) -> ExitCode {
    match split_file_args(args) {
        Ok(path) => run_eval(path),
        Err(code) => code,
    }
}

fn run_eval(path: &str) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (queries, db) = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (closed, stats) = match close_database(&db, &ClosureOptions::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error closing the fact base under Sigma_FL: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "% fact base: {} asserted, {} after Sigma_FL closure ({} invented values)",
        db.len(),
        closed.len(),
        stats.nulls_invented
    );
    for q in &queries {
        println!("\n?- {q}");
        let result = answers(q, &closed);
        if result.is_empty() {
            println!("   no.");
            continue;
        }
        for tuple in result {
            if tuple.is_empty() {
                println!("   yes.");
            } else {
                let cells: Vec<String> = tuple.iter().map(|t| t.to_string()).collect();
                println!("   ({})", cells.join(", "));
            }
        }
    }
    ExitCode::SUCCESS
}
