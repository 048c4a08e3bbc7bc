//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sweep-rm3|sweep-nash|serve-overlap> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints one line per metric, then one JSON
//! object as the last line of standard output. Exits 1 when an output
//! fails verification and 2 when the benchmark itself cannot run.

use e2ebench::metrics::{peak_rss_mb, Report, END_TO_END, PER_LAYER};
use e2ebench::workloads::{repo_root, Workload};
use e2ebench::{serve, sweep};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <sweep-rm3|sweep-nash|serve-overlap> --seed <n> --seconds <n> \
     --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.unwrap_or(e2ebench::workloads::REFERENCE_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    if args.trace {
        let (mut report, spans) = match args.workload {
            Workload::ServeOverlap => serve::run_traced(args.seed, args.seconds, work)?,
            sweep => sweep::run_traced(sweep, args.seed, args.seconds, work)?,
        };
        let path = work.with_extension("spans.jsonl");
        std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        report.notes.push(format!(
            "{} spans written to {}",
            spans.spans().len(),
            path.display()
        ));
        Ok(report)
    } else {
        let mut report = match args.workload {
            Workload::ServeOverlap => serve::run_untraced(args.seed, args.seconds, work)?,
            sweep => sweep::run_untraced(sweep, args.seed, args.seconds, work)?,
        };
        report.set("peak_rss_mb", peak_rss_mb()?);
        Ok(report)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch state lives in the checkout, under an ignored directory.
    let work: PathBuf = repo_root().join(".e2ebench").join(format!(
        "{}-{}-{}-{}",
        args.workload.name(),
        args.seed,
        if args.trace { "trace" } else { "e2e" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, unit) in catalogue {
        println!(
            "  {name:<34} {:>16.6} {unit}",
            report.metrics.get(name).unwrap_or(&f64::NAN)
        );
    }
    println!(
        "  {:<34} {:>16.6} ratio ({} failed of {} attempted)",
        "error_rate",
        report.error_rate(),
        report.failed,
        report.attempted
    );
    match report.json_line(catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: outputs failed verification");
        ExitCode::from(1)
    }
}
