//! `vmr-experiments` — runs the paper's figures, tables and extension
//! experiments from the `vmr_bench` registry.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use vmr_bench::experiments::REGISTRY;

fn main() -> ExitCode {
    ExitCode::from(vmr_bench::cli::main(std::env::args().skip(1), REGISTRY))
}
