//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload for `S` seconds and prints, as the last
//! line of standard output, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). A readable summary and any
//! failures go to standard error.
//!
//! `perfbench --record` re-records the expected statistics digest of
//! every scenario of every workload under `expected/`.

use orderlight_perfbench::digest::{format_expected, stats_digest};
use orderlight_perfbench::op::run_op;
use orderlight_perfbench::ops::{key, Workload};
use orderlight_perfbench::report::{Report, END_TO_END, PER_LAYER};
use orderlight_perfbench::{serve, sweep};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload pim-ordered|gpu-host|serve-mixed \
                     --seed N --seconds S --trace 0|1\n       perfbench --record";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs every scenario once and writes its digest; refuses to record a
/// run that fails verification.
fn record() -> Result<(), String> {
    for workload in Workload::ALL {
        let mut entries = BTreeMap::new();
        for spec in workload.scenarios() {
            let key = key(&spec);
            let run = run_op(&spec, false).map_err(|e| format!("{key}: {e}"))?;
            if !run.stats.is_correct() {
                return Err(format!("{key}: fails verification; not recording it"));
            }
            entries.insert(key, stats_digest(&run.stats));
        }
        let path = format!("{}/expected/{}.txt", env!("CARGO_MANIFEST_DIR"), workload.name());
        let header = format!(
            "Statistics digest of every {} scenario (FNV-1a 64 of its canonical stats JSON), \
             written by `perfbench --record`.",
            workload.name()
        );
        std::fs::write(&path, format_expected(&header, &entries))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("recorded {} digests in {path}", entries.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record"] {
        return match record() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Report, String> = match args.workload {
        Workload::ServeMixed => serve::run(args.seed, args.seconds, args.trace),
        sweep_workload => sweep::run(sweep_workload, args.seed, args.seconds, args.trace),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for failure in report.failures.iter().take(20) {
        eprintln!("FAILED {failure}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "{} seed {} trace {}: {} ops, {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for &(name, unit) in table {
        if let Some(value) = report.get(name) {
            eprintln!("  {name:<32} {value:>16.6} {unit}");
        }
    }
    match report.to_json(table) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
