//! # vmr-benchmark — the served-plan benchmark
//!
//! One command per workload boots the real `vmr-serve` daemon in-process
//! with durability on, drives it over loopback TCP from a seeded
//! closed-loop op stream, checks every reply against an in-process
//! mirror, and prints each metric by name and unit. `--trace 1` adds the
//! per-layer numbers: the daemon's own registries plus an in-process
//! re-enactment of the same requests under bench-side spans.
//!
//! See `README.md` for who the metrics serve and how they interact, and
//! `../BENCHMARK.json` for the contract the numbers are gated under.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod reenact;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

use std::io;
use std::path::PathBuf;

use drive::{run, RunConfig};
use report::Metric;
use workload::{Scale, Workload};

/// Where run data and trace files go: `benchmark/target/`, next to the
/// manifest this binary was built from (always inside the checkout).
pub fn data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// The arguments of one measured run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// `--workload`.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// `--scale`.
    pub scale: Scale,
}

/// `nn` probe repetitions per layer.
const PROBE_REPS: usize = 5;

/// Runs one workload, prints every metric, and returns the result line
/// plus whether every check passed.
pub fn run_and_report(args: &RunArgs) -> io::Result<(String, bool)> {
    let workload = Workload::by_name(&args.workload, args.scale).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no workload named {:?}", args.workload),
        )
    })?;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} scale {:?}: {} closed-loop client(s), {} session(s) of preset {}, {cores} core(s)",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        workload.roles.len(),
        workload.sessions,
        workload.preset,
    );
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        data_root: data_root(),
    };
    let out = run(&cfg)?;
    let wire = report::wire(&out);
    report::print_metrics(&wire);
    for (session, fp) in &out.fingerprints {
        println!("plan_fingerprint {session} {fp:#018x} (commits of the floor cycles)");
    }

    let mut failures = out.failures.clone();
    let mut attempted = out.attempted;
    let mut reported = None;
    if args.trace {
        let dir =
            cfg.data_root.join(format!("reenact-{}-{}", cfg.workload.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let re = reenact::reenact(&cfg.workload, &out.logs, &out.durable, out.agent.clone(), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let re = re?;
        attempted += re.plans_checked + out.durable.len() as u64;
        if re.plans_differing > 0 {
            failures.count += re.plans_differing;
            failures.messages.push(format!(
                "{} of {} re-enacted plans differ from the plans the daemon served",
                re.plans_differing, re.plans_checked
            ));
        }
        if re.logs_differing > 0 {
            failures.count += re.logs_differing;
            failures.messages.push(format!(
                "{} of {} re-enacted sessions left a log or snapshot that differs from the daemon's",
                re.logs_differing,
                out.durable.len()
            ));
        }
        let nn = re.shape.as_ref().map(|shape| layers::probe_nn(shape, re.fast32, PROBE_REPS));
        let (layer, table) = report::per_layer(&out, &wire, &re, nn.as_ref());
        println!(
            "re-enacted {} requests in-process ({} spans); {} of {} plans equal the served plans; {} of {} session logs equal the daemon's",
            re.req_bytes.len(),
            re.trace.spans().len(),
            re.plans_checked - re.plans_differing,
            re.plans_checked,
            out.durable.len() as u64 - re.logs_differing,
            out.durable.len()
        );
        if let Some(shape) = &re.shape {
            println!("nn probes at N={} PMs, M={} VMs, f32={}; nn.gflop_per_step is computed from these shapes", shape.pms, shape.vms, re.fast32);
        }
        report::print_metrics(&layer);
        print!("{table}");
        let path = cfg.data_root.join(format!("trace-{}.json", cfg.workload.name));
        re.trace.write_json(&path)?;
        println!("spans written to {}", path.display());
        reported = Some(layer);
    }
    let reported: Vec<Metric> = reported.unwrap_or_else(|| report::gated(wire));
    println!("checks: attempted {attempted} failed {}", failures.count);
    for m in &failures.messages {
        println!("  FAILED {m}");
    }
    Ok((report::result_line(&reported, attempted, failures.count), failures.count == 0))
}
