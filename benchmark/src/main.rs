//! `snapshot-benchmark --workload W --seed N --seconds S --trace 0|1
//! [--tmp DIR] [--out DIR]`
//!
//! Runs one workload, checks every output, prints every metric by name
//! with its unit, and ends standard output with one JSON result line.
//! Exits non-zero, without a result line, when a check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use snapshot_benchmark::report::{end_to_end, per_layer, result_line, END_TO_END, PER_LAYER};
use snapshot_benchmark::stack::RunDir;
use snapshot_benchmark::workload::{by_name, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tmp: PathBuf,
    out: PathBuf,
}

/// `run.sh` holds the defaults (seed 1990, `run_seconds` from
/// `BENCHMARK.json`); the binary has none, so each is set in one place.
fn parse() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut tmp = PathBuf::from("tmp");
    let mut out = PathBuf::from("out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--tmp" => tmp = PathBuf::from(value),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tmp,
        out,
    };
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("snapshot-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = by_name(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("snapshot-benchmark: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };
    // The run directory is removed when `dir` drops: on success, on a
    // failed check, and on a panic unwinding through `main`.
    let dir = match RunDir::create(&args.tmp) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("snapshot-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (result, names): (_, &[(&str, &str)]) = if args.trace {
        (
            per_layer(&workload, args.seed, args.seconds, &dir, &args.out),
            &PER_LAYER,
        )
    } else {
        (
            end_to_end(&workload, args.seed, args.seconds, &dir),
            &END_TO_END,
        )
    };
    drop(dir);
    match result.and_then(|report| Ok((report.values(names)?, report))) {
        Ok((values, report)) => {
            println!(
                "workload {} seed {} seconds {} trace {}",
                workload.name,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            for ((name, unit), value) in names.iter().zip(&values) {
                println!("  {name:<44} {value:>18.4} {unit}");
            }
            for note in &report.notes {
                println!("  # {note}");
            }
            println!("{}", result_line(&report, names, &values));
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("snapshot-benchmark: {failure}");
            ExitCode::FAILURE
        }
    }
}
