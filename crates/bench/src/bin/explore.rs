//! Command-line model checker for the snapshot constructions.
//!
//! Exhaustively (or randomly) explores schedules of a scripted workload
//! over a chosen algorithm, checks every history for linearizability, and
//! on a violation prints the history timeline plus a shrunken
//! reproduction schedule.
//!
//! ```text
//! USAGE:
//!   explore --algorithm <unbounded|bounded|multiwriter|multiwriter-literal|double-collect>
//!           --scripts <per-process scripts, comma-separated>
//!           [--words <m>] [--max-runs <k>] [--random <seeds>]
//!
//! SCRIPT SYNTAX (one string per process, joined by commas):
//!   U        update own segment (single-writer)
//!   S        scan
//!   0..9     update that word (multi-writer)
//!
//! EXAMPLES:
//!   # every schedule of update-vs-scan on the bounded algorithm
//!   explore --algorithm bounded --scripts US,S
//!
//!   # hunt the Figure 4 bug: the literal variant over random schedules
//!   explore --algorithm multiwriter-literal --words 2 --scripts 0,1,SS --random 5000
//! ```

use snapshot_bench::harness::{run_mw_sim, run_sw_sim, MwStep, SwStep};
use snapshot_core::{
    BoundedSnapshot, DoubleCollectSnapshot, MultiWriterSnapshot, MwVariant, UnboundedSnapshot,
};
use snapshot_lin::{check_history, render_timeline, History, WgResult};
use snapshot_sim::{replay, shrink_schedule, ExploreLimits, Explorer, RandomPolicy, SimConfig};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Algorithm {
    Unbounded,
    Bounded,
    MultiWriter,
    MultiWriterLiteral,
    DoubleCollect,
}

struct Options {
    algorithm: Algorithm,
    scripts: Vec<String>,
    words: usize,
    max_runs: u64,
    random: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: explore --algorithm <unbounded|bounded|multiwriter|multiwriter-literal|double-collect> \
         --scripts <S1,S2,...> [--words m] [--max-runs k] [--random seeds]\n\
         script chars: U=update own segment, S=scan, 0-9=update that word (multi-writer)"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut algorithm = None;
    let mut scripts = Vec::new();
    let mut words = 0usize;
    let mut max_runs = 50_000u64;
    let mut random = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--algorithm" => {
                algorithm = Some(match args.next().as_deref() {
                    Some("unbounded") => Algorithm::Unbounded,
                    Some("bounded") => Algorithm::Bounded,
                    Some("multiwriter") => Algorithm::MultiWriter,
                    Some("multiwriter-literal") => Algorithm::MultiWriterLiteral,
                    Some("double-collect") => Algorithm::DoubleCollect,
                    other => {
                        eprintln!("unknown algorithm {other:?}");
                        usage()
                    }
                });
            }
            "--scripts" => match args.next() {
                Some(s) => scripts = s.split(',').map(str::to_string).collect(),
                None => usage(),
            },
            "--words" => words = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--max-runs" => {
                max_runs = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--random" => {
                random = Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }

    let algorithm = algorithm.unwrap_or_else(|| usage());
    if scripts.is_empty() {
        usage();
    }
    Options {
        algorithm,
        scripts,
        words,
        max_runs,
        random,
    }
}

fn sw_scripts(raw: &[String]) -> Vec<Vec<SwStep>> {
    raw.iter()
        .map(|s| {
            s.chars()
                .map(|c| match c {
                    'U' | 'u' => SwStep::Update,
                    'S' | 's' => SwStep::Scan,
                    other => {
                        eprintln!("bad single-writer script char {other:?}");
                        usage()
                    }
                })
                .collect()
        })
        .collect()
}

fn mw_scripts(raw: &[String]) -> Vec<Vec<MwStep>> {
    raw.iter()
        .map(|s| {
            s.chars()
                .map(|c| match c {
                    'S' | 's' => MwStep::Scan,
                    d if d.is_ascii_digit() => MwStep::Update(d as usize - '0' as usize),
                    other => {
                        eprintln!("bad multi-writer script char {other:?}");
                        usage()
                    }
                })
                .collect()
        })
        .collect()
}

fn main() {
    let opts = parse_args();
    let n = opts.scripts.len();

    // A closure that runs one schedule and returns the history (or a sim
    // error); shared between DFS and random exploration and the shrinker.
    let run_one = |schedule_policy: &mut dyn snapshot_sim::SchedulePolicy| -> Result<History<u64>, String> {
        let config = SimConfig {
            max_steps: Some(5_000_000),
            ..SimConfig::default()
        };
        match opts.algorithm {
            Algorithm::Unbounded => {
                let scripts = sw_scripts(&opts.scripts);
                run_sw_sim(n, &scripts, schedule_policy, config, |b| {
                    UnboundedSnapshot::with_backend(n, 0u64, b)
                })
                .map(|(h, _)| h)
                .map_err(|e| e.to_string())
            }
            Algorithm::Bounded => {
                let scripts = sw_scripts(&opts.scripts);
                run_sw_sim(n, &scripts, schedule_policy, config, |b| {
                    BoundedSnapshot::with_backend(n, 0u64, b)
                })
                .map(|(h, _)| h)
                .map_err(|e| e.to_string())
            }
            Algorithm::DoubleCollect => {
                let scripts = sw_scripts(&opts.scripts);
                run_sw_sim(n, &scripts, schedule_policy, config, |b| {
                    DoubleCollectSnapshot::with_backend(n, 0u64, b)
                })
                .map(|(h, _)| h)
                .map_err(|e| e.to_string())
            }
            Algorithm::MultiWriter | Algorithm::MultiWriterLiteral => {
                let scripts = mw_scripts(&opts.scripts);
                let m = if opts.words > 0 {
                    opts.words
                } else {
                    scripts
                        .iter()
                        .flatten()
                        .filter_map(|s| match s {
                            MwStep::Update(w) => Some(w + 1),
                            MwStep::Scan => None,
                        })
                        .max()
                        .unwrap_or(1)
                };
                let variant = if opts.algorithm == Algorithm::MultiWriterLiteral {
                    MwVariant::LiteralGoto1
                } else {
                    MwVariant::RescanHandshake
                };
                run_mw_sim(n, m, &scripts, schedule_policy, config, |b| {
                    MultiWriterSnapshot::with_options(n, m, 0u64, b, b, variant)
                })
                .map(|(h, _)| h)
                .map_err(|e| e.to_string())
            }
        }
    };

    let verdict = |history: &History<u64>| -> Result<(), String> {
        match check_history(history) {
            WgResult::Linearizable { .. } => Ok(()),
            WgResult::NotLinearizable => Err("NOT LINEARIZABLE".to_string()),
            WgResult::TooLarge { len } => Err(format!("history too large ({len} ops)")),
        }
    };

    let report_violation = |schedule: Vec<usize>, history: &History<u64>| {
        println!("LINEARIZABILITY VIOLATION FOUND");
        println!("{}", render_timeline(history));
        println!("shrinking the schedule ...");
        let minimal = shrink_schedule(schedule, |s| {
            let mut p = replay(s);
            run_one(&mut p).map(|h| verdict(&h).is_err()).unwrap_or(false)
        });
        println!("minimal reproduction schedule (ready-set indices): {minimal:?}");
        std::process::exit(1);
    };

    if let Some(seeds) = opts.random {
        println!("# random exploration: {seeds} seeds, algorithm {:?}", opts.algorithm);
        for seed in 0..seeds {
            let mut policy = RandomPolicy::seeded(seed);
            let history = run_one(&mut policy).expect("simulation failed");
            if verdict(&history).is_err() {
                println!("seed {seed}:");
                // Random policies cannot be shrunk directly; re-find via a
                // short DFS from scratch would be costly — print timeline.
                println!("{}", render_timeline(&history));
                std::process::exit(1);
            }
            if (seed + 1) % 500 == 0 {
                println!("  {}/{} seeds clean", seed + 1, seeds);
            }
        }
        println!("all {seeds} random schedules linearizable");
        return;
    }

    println!(
        "# exhaustive exploration: up to {} schedules, algorithm {:?}",
        opts.max_runs, opts.algorithm
    );
    let mut runs = 0u64;
    let outcome = Explorer::new(ExploreLimits {
        max_runs: opts.max_runs,
        max_depth: 8192,
    })
    .explore::<String>(|policy| {
        let history = run_one(policy)?;
        verdict(&history).inspect_err(|_| {
            // Re-derive the schedule for shrinking via taken choices.
            let schedule = policy.taken().to_vec();
            report_violation(schedule, &history);
        })?;
        runs += 1;
        Ok(())
    })
    .unwrap_or_else(|e| {
        eprintln!("exploration failed: {e}");
        std::process::exit(1);
    });
    println!(
        "{} schedules executed, all linearizable (coverage: {})",
        runs,
        if outcome.is_complete() {
            "complete"
        } else {
            "budget-truncated"
        }
    );
}
