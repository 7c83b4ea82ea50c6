//! Experiment harness: regenerates every table of EXPERIMENTS.md (E1–E17).
//!
//! Usage:
//!   cargo run -p flogic-bench --bin harness --release              # all experiments
//!   cargo run -p flogic-bench --bin harness --release -- e3 e5     # a subset
//!   cargo run -p flogic-bench --bin harness --release -- --quick   # smaller workloads
//!   cargo run -p flogic-bench --bin harness --release -- --threads 8 e9
//!
//! `--threads N` sets the worker count for the experiments that exercise
//! the parallel chase engine (`0` = all available cores); `--quick` shrinks
//! the workloads. Any other flag is an error. Tables are printed to stdout
//! and exported as CSV under `bench_results/`. E10 additionally exports
//! its aggregate chase profile as `bench_results/rule_profile.csv` and
//! `bench_results/level_growth.csv`. E17's full run sends 400 000
//! requests to one in-process server and peaks near 400 MB of RSS.

use std::path::PathBuf;

use flogic_bench::experiments::{self, ExperimentOutput};

fn out_dir() -> PathBuf {
    // Relative to the invocation directory (usually the workspace root).
    PathBuf::from("bench_results")
}

fn run(id: &str, quick: bool, threads: usize) -> Option<ExperimentOutput> {
    let out = match id {
        "e1" => experiments::e1(),
        "e2" => experiments::e2(),
        "e3" => experiments::e3(),
        "e4" => {
            if quick {
                experiments::e4(15, 2)
            } else {
                experiments::e4(60, 5)
            }
        }
        "e5" => experiments::e5(if quick { 3 } else { 11 }),
        "e6" => experiments::e6(if quick { 20 } else { 100 }),
        "e7" => experiments::e7(),
        "e8" => experiments::e8(if quick { 5 } else { 15 }),
        "e9" => {
            if quick {
                experiments::e9(3, 4, threads)
            } else {
                experiments::e9(5, 8, threads)
            }
        }
        "e10" => experiments::e10(if quick { 10 } else { 40 }),
        "e11" => {
            if quick {
                experiments::e11(6, 2)
            } else {
                experiments::e11(16, 4)
            }
        }
        "e12" => {
            if quick {
                experiments::e12(6, 2)
            } else {
                experiments::e12(16, 4)
            }
        }
        "e13" => {
            if quick {
                experiments::e13(40, 3)
            } else {
                experiments::e13(150, 5)
            }
        }
        "e14" => {
            if quick {
                experiments::e14(6, 2)
            } else {
                experiments::e14(12, 4)
            }
        }
        "e15" => {
            if quick {
                experiments::e15(6, 120)
            } else {
                experiments::e15(12, 400)
            }
        }
        "e16" => {
            if quick {
                experiments::e16(6, 2)
            } else {
                experiments::e16(12, 3)
            }
        }
        "e17" => {
            if quick {
                experiments::e17(1, 3_000, 256 << 10, 500)
            } else {
                experiments::e17(1, 400_000, 64 << 20, 5_000)
            }
        }
        _ => return None,
    };
    Some(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut threads = 0usize; // 0 = all available cores
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--threads requires a number (0 = all cores)");
                    std::process::exit(2);
                };
                threads = n;
            }
            s if s.starts_with("--") => {
                eprintln!("unknown flag `{s}` (expected --quick or --threads N)");
                std::process::exit(2);
            }
            _ => ids.push(a.to_lowercase()),
        }
    }
    if ids.is_empty() {
        ids = (1..=17).map(|i| format!("e{i}")).collect();
    }

    let dir = out_dir();
    for id in &ids {
        let Some(output) = run(id, quick, threads) else {
            eprintln!("unknown experiment `{id}` (expected e1..e17)");
            std::process::exit(2);
        };
        for (i, table) in output.tables.iter().enumerate() {
            println!("{table}");
            let name = if output.tables.len() == 1 {
                format!("{id}.csv")
            } else {
                format!("{id}_{}.csv", (b'a' + i as u8) as char)
            };
            if let Err(e) = table.write_csv(&dir.join(&name)) {
                eprintln!("warning: could not write {name}: {e}");
            }
        }
        for note in &output.notes {
            println!("{note}");
        }
        for (name, contents) in &output.files {
            let path = dir.join(name);
            let written =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents));
            if let Err(e) = written {
                eprintln!("warning: could not write {name}: {e}");
            }
        }
        println!();
    }
    println!("CSV exports written to {}/", dir.display());
}
