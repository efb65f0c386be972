//! `vmr-benchmark` command line.
//!
//! ```text
//! vmr-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--scale full|smoke]
//! vmr-benchmark --calibrate [--seed <first>]
//! vmr-benchmark --list
//! ```

use std::process::ExitCode;

use vmr_benchmark::workload::{Scale, WORKLOADS};
use vmr_benchmark::{calibrate, run_and_report, RunArgs};

const USAGE: &str = "usage: vmr-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--scale full|smoke]\n       vmr-benchmark --calibrate [--seed <first>]\n       vmr-benchmark --list";

/// What the command line asked for.
enum Mode {
    Run,
    Calibrate,
    List,
}

fn parse() -> Result<(RunArgs, Mode), String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut mode = Mode::Run;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(bad(v)),
                }
            }
            "--calibrate" => mode = Mode::Calibrate,
            "--list" => mode = Mode::List,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok((args, mode))
}

fn main() -> ExitCode {
    let (args, mode) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::List => {
            for (name, why) in WORKLOADS {
                println!("{name}\t{why}");
            }
            return ExitCode::SUCCESS;
        }
        Mode::Calibrate => {
            return match calibrate::calibrate(args.seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Mode::Run => {}
    }
    if args.workload.is_empty() {
        eprintln!("error: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    }
    match run_and_report(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
