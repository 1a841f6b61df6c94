//! `sweepd` — a small batch-serving daemon over the run cache.
//!
//! Watches a spool directory for `*.jsonl` files of canonical run specs
//! (or, with no `--spool`, reads one batch from stdin), schedules every
//! spec across `--jobs` workers through the content-addressed run cache,
//! and streams one JSONL result line per run to stdout: spec hash, cache
//! hit/miss, wall seconds, events and events/sec. Processed spool files
//! are renamed `<name>.done` (`<name>.err` if any line was rejected) so a
//! crash-restarted daemon never re-runs — and never loses — work: results
//! are re-served from the cache byte-identically.
//!
//! Each input line is a JSON object:
//!
//! ```text
//! {"spec_v1": "<hex of the canonical spec encoding>", "label": "optional"}
//! ```
//!
//! Produce such lines from any `RunSpec` via `spec.encode_hex()` — or ask
//! the daemon itself for a sample batch with `--demo N`.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use experiments::cache::parse_json;
use experiments::opts::{parse_flags, render_help, FlagDef};
use experiments::sweep::{events_per_sec, RunSpec, Sweep, SweepReport};
use experiments::OUTPUT_SCHEMA_VERSION;

const SWEEPD_FLAGS: &[FlagDef] = &[
    FlagDef {
        name: "--spool",
        value: Some(("DIR", "a directory")),
        help: "watch DIR for *.jsonl spec batches (absent: one batch from stdin)",
    },
    FlagDef {
        name: "--cache",
        value: Some(("DIR|none", "a directory (or `none`)")),
        help: "content-addressed run cache (default results/cache; `none` disables)",
    },
    FlagDef {
        name: "--jobs",
        value: Some(("N", "a worker count")),
        help: "sweep worker count (default = available parallelism)",
    },
    FlagDef {
        name: "--once",
        value: None,
        help: "drain the spool once and exit instead of watching",
    },
    FlagDef {
        name: "--poll-ms",
        value: Some(("MS", "a duration in milliseconds")),
        help: "spool polling interval (default 500)",
    },
    FlagDef {
        name: "--demo",
        value: Some(("N", "a count")),
        help: "print N sample spec lines (for smoke tests) and exit",
    },
];

struct Args {
    spool: Option<PathBuf>,
    cache: Option<PathBuf>,
    jobs: usize,
    once: bool,
    poll_ms: u64,
    demo: Option<usize>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut cfg = Args {
        spool: None,
        cache: Some(PathBuf::from("results/cache")),
        jobs: 0,
        once: false,
        poll_ms: 500,
        demo: None,
    };
    for (name, value) in parse_flags(args, SWEEPD_FLAGS)? {
        let v = || value.clone().expect("value enforced by parse_flags");
        match name {
            "--spool" => cfg.spool = Some(PathBuf::from(v())),
            "--cache" => {
                let v = v();
                cfg.cache = if v == "none" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
            }
            "--jobs" => {
                let v = v();
                cfg.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a count, got {v:?}"))?;
            }
            "--once" => cfg.once = true,
            "--poll-ms" => {
                let v = v();
                cfg.poll_ms = v
                    .parse()
                    .map_err(|_| format!("--poll-ms expects milliseconds, got {v:?}"))?;
            }
            "--demo" => {
                let v = v();
                cfg.demo = Some(
                    v.parse()
                        .map_err(|_| format!("--demo expects a count, got {v:?}"))?,
                );
            }
            "--help" => {
                println!("{}", render_help(SWEEPD_FLAGS));
                return Ok(None);
            }
            other => unreachable!("flag {other} in table but not matched"),
        }
    }
    Ok(Some(cfg))
}

/// Parses one spool line into a spec. Lines are JSON objects with a
/// `spec_v1` hex field and an optional `label` override.
fn parse_line(line: &str) -> Result<RunSpec, String> {
    let j = parse_json(line)?;
    let hex = j
        .get("spec_v1")
        .and_then(|v| v.str())
        .ok_or("missing \"spec_v1\" field")?;
    let spec = RunSpec::decode_hex(hex).map_err(|e| format!("bad spec_v1: {e}"))?;
    Ok(match j.get("label").and_then(|v| v.str()) {
        Some(label) => spec.with_label(label),
        None => spec,
    })
}

/// Escapes a string for a JSON output line.
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs a batch of specs through the (optionally cached) sweep and writes
/// one JSONL result line per run.
fn serve_batch(specs: Vec<RunSpec>, args: &Args, out: &mut impl Write) {
    if specs.is_empty() {
        return;
    }
    let hashes: Vec<u64> = specs.iter().map(|s| s.spec_hash()).collect();
    let mut sweep = Sweep::new(specs).jobs(args.jobs).progress(false);
    if let Some(dir) = &args.cache {
        sweep = sweep.cache(dir.clone());
    }
    let report: SweepReport = sweep.run_report();
    for (i, run) in report.outputs.iter().enumerate() {
        let rate = match events_per_sec(run) {
            Some(r) => format!("{r}"),
            None => "null".to_owned(),
        };
        let line = format!(
            "{{\"spec_hash\": \"{:016x}\", \"label\": {}, \"scheme\": {}, \"cache\": {}, \
             \"delivered_packets\": {}, \"wall_secs\": {}, \"events\": {}, \
             \"events_per_sec\": {rate}, \"schema_version\": {}}}",
            hashes[i],
            jstr(report.specs[i].label()),
            jstr(run.scheme),
            jstr(report.cache[i].name()),
            run.counters.delivered_packets,
            run.wall_secs,
            run.events,
            OUTPUT_SCHEMA_VERSION,
        );
        writeln!(out, "{line}").expect("write result line");
    }
    out.flush().expect("flush results");
    eprintln!(
        "sweepd: batch of {} done, {} cache hits, {:.2}s",
        report.outputs.len(),
        report.cache_hits(),
        report.total_wall_secs,
    );
}

/// Reads a batch file: every line must parse or the whole file is
/// rejected (renamed `.err`) — a half-run batch would be confusing.
fn read_batch(path: &Path) -> Result<Vec<RunSpec>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut specs = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        specs.push(parse_line(line).map_err(|e| format!("{}:{}: {e}", path.display(), no + 1))?);
    }
    Ok(specs)
}

/// One spool scan: process every `*.jsonl` file in name order.
fn drain_spool(dir: &Path, args: &Args, out: &mut impl Write) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        eprintln!("sweepd: cannot read spool {}", dir.display());
        return;
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    for path in files {
        match read_batch(&path) {
            Ok(specs) => {
                eprintln!("sweepd: {} ({} specs)", path.display(), specs.len());
                serve_batch(specs, args, out);
                let _ = std::fs::rename(&path, path.with_extension("jsonl.done"));
            }
            Err(e) => {
                eprintln!("sweepd: rejecting batch: {e}");
                let _ = std::fs::rename(&path, path.with_extension("jsonl.err"));
            }
        }
    }
}

/// The `--demo` batch: one quick corner-case spec per scheme, small
/// enough for CI smoke tests (milliseconds each).
fn demo_lines(n: usize) -> String {
    use experiments::runner::SchemeSet;
    use simcore::Picos;
    use topology::MinParams;
    use traffic::corner::CornerCase;

    let corner = CornerCase::case2_64().shrunk(40);
    let mut s = String::new();
    for (i, scheme) in SchemeSet::All
        .schemes_scaled(40)
        .into_iter()
        .cycle()
        .take(n)
        .enumerate()
    {
        let spec = RunSpec::corner(MinParams::paper_64(), scheme, corner)
            .with_horizon(Picos::from_us(40))
            .with_bin(Picos::from_us(2));
        s.push_str(&format!(
            "{{\"spec_v1\": \"{}\", \"label\": \"demo{i}\"}}\n",
            spec.encode_hex()
        ));
    }
    s
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => return, // --help
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.demo {
        print!("{}", demo_lines(n));
        return;
    }
    let mut out = std::io::stdout().lock();
    match &args.spool {
        None => {
            // Stdin mode: one batch, then exit.
            let stdin = std::io::stdin().lock();
            let mut specs = Vec::new();
            for (no, line) in stdin.lines().enumerate() {
                let line = line.expect("read stdin");
                if line.trim().is_empty() {
                    continue;
                }
                match parse_line(&line) {
                    Ok(s) => specs.push(s),
                    Err(e) => {
                        eprintln!("stdin:{}: {e}", no + 1);
                        std::process::exit(2);
                    }
                }
            }
            serve_batch(specs, &args, &mut out);
        }
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("create spool dir");
            loop {
                drain_spool(dir, &args, &mut out);
                if args.once {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(args.poll_ms.max(10)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spool line from the previous spec layout (version 5: the fat-tree
    /// hotspot under ARN routing).
    const V5_LINE: &str = r#"{"spec_v1": "52530501040000000300000000004000000030000000000000000000f03f15000000002d310100000000900672010000000040000000d507000000000000010400000002000040000000005a62020000000080841e0000000000000000", "label": "old"}"#;

    #[test]
    fn demo_lines_parse() {
        for (i, line) in demo_lines(3).lines().enumerate() {
            let spec = parse_line(line).expect("demo line parses");
            assert_eq!(spec.label(), format!("demo{i}"));
        }
    }

    #[test]
    fn older_spec_versions_are_rejected() {
        let err = parse_line(V5_LINE).unwrap_err();
        assert!(err.contains("unsupported spec version 5"), "{err}");
    }
}
