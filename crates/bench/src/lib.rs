//! # vmr-bench — the experiment harness
//!
//! Every table and figure of the paper, and the extension experiments,
//! are rows of one registry ([`experiments::REGISTRY`]) run by one
//! binary, `vmr-experiments <id|all|list>`; the README's *Experiments*
//! section holds the id table. This library is everything they share:
//! run-mode scaling, dataset generation, agent training and caching
//! ([`setup`], [`ctx`]), the compared methods ([`methods`]) and report
//! emission ([`report`]).
//!
//! ## Run modes
//!
//! The paper's experiments were run on a GPU server against production
//! traces; this harness scales them to the host it runs on:
//!
//! * `--smoke` — seconds-scale CI mode: tiny clusters, one or two updates.
//! * default — laptop-scale: clusters at ~25% of paper PM counts, enough
//!   training to show the qualitative shapes.
//! * `--full` — paper-scale cluster sizes (slow on CPU).
//!
//! An experiment returns its [`Report`]; the binary prints the table and
//! writes `<out>/<id>.json`, and `all` adds `<out>/summary.json`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod cli;
pub mod ctx;
pub mod experiments;
pub mod methods;
pub mod report;
pub mod setup;

pub use cli::RunMode;
pub use ctx::Ctx;
pub use report::Report;
