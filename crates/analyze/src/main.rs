//! The `vmr-analyze` binary.
//!
//! ```text
//! vmr-analyze [ROOT] [--deny] [--json] [--quiet] [--list] [--max-ms N]
//! ```
//!
//! Exit codes: 0 = clean (every finding waived inline), 1 = new
//! findings under `--deny` or `--max-ms` exceeded, 2 = usage or I/O
//! error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use vmr_analyze::config::Config;
use vmr_analyze::report::Report;
use vmr_analyze::{analyze_workspace, CATALOG};

struct Args {
    root: PathBuf,
    deny: bool,
    json: bool,
    quiet: bool,
    list: bool,
    max_ms: Option<u64>,
}

fn usage() -> String {
    "usage: vmr-analyze [ROOT] [--deny] [--json] [--quiet] [--list] [--max-ms N]\n\
     \n\
     ROOT defaults to the current directory."
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        deny: false,
        json: false,
        quiet: false,
        list: false,
        max_ms: None,
    };
    let mut root_set = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--json" => args.json = true,
            "--quiet" => args.quiet = true,
            "--list" => args.list = true,
            "--max-ms" => {
                let n = it.next().ok_or("--max-ms requires a number")?;
                args.max_ms = Some(n.parse().map_err(|_| format!("invalid --max-ms value `{n}`"))?);
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') && !root_set => {
                args.root = PathBuf::from(other);
                root_set = true;
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.list {
        for (id, desc) in CATALOG {
            println!("{id}  {desc}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    let cfg = Config::workspace_default();
    let started = Instant::now();
    let analysis =
        analyze_workspace(&args.root, &cfg).map_err(|e| format!("workspace walk failed: {e}"))?;
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let report = Report::new(analysis.files, analysis.findings, elapsed_ms);
    if args.json {
        println!("{}", report.json());
    } else {
        print!("{}", report.human(args.quiet));
    }

    if let Some(max) = args.max_ms {
        if elapsed_ms > max {
            eprintln!("vmr-analyze: analysis took {elapsed_ms} ms, budget is {max} ms");
            return Ok(ExitCode::FAILURE);
        }
    }
    if args.deny && report.summary.new > 0 {
        eprintln!(
            "vmr-analyze: {} new finding(s) — fix, or waive inline with a reason",
            report.summary.new
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("vmr-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}
