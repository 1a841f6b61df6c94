//! Command line of the benchmark.
//!
//! ```text
//! simbench --workload NAME --seed N --seconds S --trace 0|1
//! simbench pin            # print pins.txt for the default seed
//! ```
//!
//! Run from the repository root. Prints each metric with its unit, then
//! the result as one JSON line. Scratch files live under `.simbench/` in
//! the working directory; traced runs leave their raw spans there.

use std::path::Path;
use std::process::ExitCode;

use experiments::runner::run_one;
use simbench::check::pin_line;
use simbench::workload::{Size, Workload, DEFAULT_SEED};
use simbench::{measure, measure_traced};

const USAGE: &str =
    "usage: simbench --workload hotspot256|uniform64|scale4096|sweep_ft64 --seed N --seconds S --trace 0|1\n       simbench pin";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        for w in Workload::ALL {
            for spec in w.specs(DEFAULT_SEED, Size::Full) {
                println!("{} {}", w.name(), pin_line(&spec, &run_one(&spec)));
            }
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".simbench");
    let name = args.workload.name();
    let result = if args.trace {
        let spans = root
            .join("spans")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        measure_traced(
            args.workload,
            args.seed,
            args.seconds,
            Size::Full,
            root,
            Some(&spans),
        )
    } else {
        measure(args.workload, args.seed, args.seconds, Size::Full, root)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    for m in &report.metrics {
        println!("{name} {} = {} {}", m.name, m.value, m.unit);
    }
    for (metric, value, unit) in &report.raw {
        println!("{name} {metric} = {value} {unit} (host-speed dependent, not a metric)");
    }
    println!(
        "{name} failed_frac = {} ({} of {} outputs)",
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
