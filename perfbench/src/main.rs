//! perfbench: the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; one traced
//! run per workload (`--trace 1`) times the public calls at each layer
//! boundary. The last stdout line is the result object; the line before
//! it is the full report (every figure with its unit, sample counts,
//! host context). A failed correctness gate exits with code 1.

mod adapt;
mod fleet;
mod host;
mod replay;
mod report;
mod setup;
mod stats;
mod steps;

use std::io::Write;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            report::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut window = host::HostWindow::open();
    let run = match args.workload.as_str() {
        "replay" => replay::run(args.seed, args.seconds, args.traced),
        _ => fleet::run(args.seed, args.seconds, args.traced),
    };
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    window.close();
    outcome.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    outcome.set(
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    let metrics = match outcome
        .metrics(args.traced)
        .and_then(|m| report::check_against_manifest(args.traced, &m).map(|()| m))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.correct();
    let mut stdout = std::io::stdout().lock();
    let printed = writeln!(
        stdout,
        "{}",
        outcome.report_json(&args.workload, args.seed, args.traced, &window)
    )
    .and_then(|()| {
        writeln!(
            stdout,
            "{}",
            report::result_json(correct, outcome.attempted.max(1), outcome.failed, &metrics)
        )
    });
    if let Err(e) = printed {
        eprintln!("perfbench: could not print the result: {e}");
        return ExitCode::FAILURE;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} failed its correctness gate", args.workload);
        ExitCode::FAILURE
    }
}
