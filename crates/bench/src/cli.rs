//! Run modes and the `vmr-experiments` command line.

use std::path::PathBuf;

use crate::ctx::Ctx;
use crate::experiments::{self, Experiment};

/// How much compute an experiment run spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// CI scale: tiny clusters, minimal training. Used by the integration
    /// tests so every experiment stays exercised.
    Smoke,
    /// Laptop scale (default): ~25% of the paper's cluster sizes.
    Default,
    /// Paper-scale cluster sizes.
    Full,
}

impl RunMode {
    /// PM-count scale factor relative to the paper's datasets.
    pub fn pm_scale(self) -> f64 {
        match self {
            RunMode::Smoke => 0.04,
            RunMode::Default => 0.25,
            RunMode::Full => 1.0,
        }
    }

    /// Default PPO update count for experiments that train.
    pub fn train_updates(self) -> usize {
        match self {
            RunMode::Smoke => 2,
            RunMode::Default => 30,
            RunMode::Full => 150,
        }
    }

    /// Number of evaluation mappings.
    pub fn eval_mappings(self) -> usize {
        match self {
            RunMode::Smoke => 2,
            RunMode::Default => 5,
            RunMode::Full => 20,
        }
    }
}

/// One-line usage string.
pub const USAGE: &str = "usage: vmr-experiments <id|all|list> [--smoke|--full] [--seed N] \
                         [--updates N] [--mnl N] [--out DIR]";

/// A parsed `vmr-experiments` invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// `list`, `all`, or one registry id.
    pub target: String,
    /// Mode, seed and overrides; its agent cache lives under `out`.
    pub ctx: Ctx,
    /// Where `<id>.json` and `summary.json` are written (`--out`,
    /// default `./results`).
    pub out: PathBuf,
}

/// Parses the arguments after the program name. `Err` carries the
/// message to print before [`USAGE`].
pub fn parse(args: impl Iterator<Item = String>) -> Result<Invocation, String> {
    let mut target = None;
    let mut ctx = Ctx::new(RunMode::Default, 0);
    let mut out = PathBuf::from("results");
    let mut it = args;
    while let Some(arg) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} requires a non-negative integer"))
        };
        match arg.as_str() {
            "--smoke" => ctx.mode = RunMode::Smoke,
            "--full" => ctx.mode = RunMode::Full,
            "--seed" => ctx.seed = num("--seed")?,
            "--updates" => ctx.updates = Some(num("--updates")? as usize),
            "--mnl" => ctx.mnl = Some(num("--mnl")? as usize),
            "--out" => out = it.next().ok_or("--out requires a directory")?.into(),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if target.is_some() => return Err(format!("unexpected argument {arg}")),
            _ => target = Some(arg),
        }
    }
    ctx.cache_dir = Some(out.join("agent-cache"));
    Ok(Invocation { target: target.ok_or("missing <id|all|list>")?, ctx, out })
}

/// The whole command: parses `args` (program name already dropped),
/// dispatches on `<id|all|list>` over `registry`, and returns the
/// process exit status — 0 on success, 1 when an experiment failed, 2 on
/// a usage error.
pub fn main(args: impl Iterator<Item = String>, registry: &[Experiment]) -> u8 {
    let args: Vec<String> = args.collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    let inv = match parse(args.into_iter()) {
        Ok(inv) => inv,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return 2;
        }
    };
    match inv.target.as_str() {
        "list" => print!("{}", experiments::list(registry)),
        "all" => match experiments::run_all(registry, &inv.ctx, &inv.out) {
            Ok(0) => {}
            Ok(_) => return 1,
            Err(err) => {
                eprintln!("cannot write {}/summary.json: {err}", inv.out.display());
                return 1;
            }
        },
        id => match registry.iter().find(|e| e.id == id) {
            None => {
                eprintln!("no experiment named {id}; `vmr-experiments list` prints the ids");
                return 2;
            }
            Some(e) => {
                if let Err(message) = experiments::run_and_emit(e, &inv.ctx, &inv.out) {
                    eprintln!("{id} failed: {message}");
                    return 1;
                }
            }
        },
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(v: &[&str]) -> Result<Invocation, String> {
        parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse_strs(&["fig01_trace"]).unwrap();
        assert_eq!(a.target, "fig01_trace");
        assert_eq!(a.ctx.mode, RunMode::Default);
        assert_eq!(a.ctx.seed, 0);
        assert!(a.ctx.updates.is_none());
        assert_eq!(a.out, PathBuf::from("results"));
        assert_eq!(a.ctx.cache_dir, Some(PathBuf::from("results/agent-cache")));
    }

    #[test]
    fn flags_parse() {
        let a = parse_strs(&[
            "--smoke",
            "--seed",
            "7",
            "all",
            "--updates",
            "3",
            "--mnl",
            "25",
            "--out",
            "/tmp/x",
        ])
        .unwrap();
        assert_eq!(a.target, "all");
        assert_eq!(a.ctx.mode, RunMode::Smoke);
        assert_eq!(a.ctx.seed, 7);
        assert_eq!(a.ctx.updates, Some(3));
        assert_eq!(a.ctx.mnl, Some(25));
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn malformed_invocations_are_errors() {
        assert!(parse_strs(&[]).is_err());
        assert!(parse_strs(&["all", "--seed"]).is_err());
        assert!(parse_strs(&["all", "--seed", "-1"]).is_err());
        assert!(parse_strs(&["all", "--bogus"]).is_err());
        assert!(parse_strs(&["all", "fig01_trace"]).is_err());
    }

    #[test]
    fn scales_ordered() {
        assert!(RunMode::Smoke.pm_scale() < RunMode::Default.pm_scale());
        assert!(RunMode::Default.pm_scale() < RunMode::Full.pm_scale());
    }
}
