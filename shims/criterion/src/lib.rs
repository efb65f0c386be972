//! Offline stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! Implements the benchmarking surface the `vmr-bench` harnesses use:
//! [`Criterion`], [`criterion_group!`]/[`criterion_main!`],
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! [`BenchmarkId`], and [`black_box`]. Measurement is plain wall-clock
//! sampling (median / min / max of per-iteration time over
//! `sample_size` samples) — no outlier analysis or HTML reports.
//!
//! Mode selection matches cargo's conventions: `cargo bench` passes
//! `--bench`, which enables full measurement; any other invocation
//! (e.g. `cargo test` running the bench target) runs each benchmark
//! body once as a smoke check.
//!
//! Like real criterion, the first free (non-flag) CLI argument is a
//! benchmark filter: a plain substring of the full id, or — one notch
//! of anchoring — a leading `^` for a prefix match, so
//! `cargo bench --bench policy_forward -- '^policy_forward_f32/'`
//! measures only the f32 group (used by `scripts/profile_forward.sh`
//! to profile one precision tier at a time). Values of flags that take
//! a separate argument (`--sample-size 10`, libtest's `--skip`, …) are
//! never mistaken for a filter; a literal `--` forces the next
//! argument to be the filter.
//!
//! When `VMR_BENCH_JSON` names a file, one JSON line per benchmark
//! (`{"id": ..., "median_ns": ..., ...}`) is appended — used to capture
//! `BENCH_*.json` trajectories without parsing stdout.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    full: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(3),
            full: std::env::args().any(|a| a == "--bench"),
            filter: parse_filter(std::env::args().skip(1)),
        }
    }
}

/// Extracts the benchmark filter from CLI arguments: the first free
/// argument that is neither a flag nor the value of a value-taking
/// flag. A literal `--` ends flag parsing — the argument after it is
/// the filter even if it starts with `-`.
fn parse_filter(args: impl Iterator<Item = String>) -> Option<String> {
    // Flags (criterion's and libtest's) that consume a *separate* value
    // argument; their value must not be mistaken for a filter.
    const VALUE_FLAGS: &[&str] = &[
        "--sample-size",
        "--measurement-time",
        "--warm-up-time",
        "--nresamples",
        "--noise-threshold",
        "--confidence-level",
        "--significance-level",
        "--save-baseline",
        "--baseline",
        "--load-baseline",
        "--profile-time",
        "--color",
        "--colour",
        "--output-format",
        "--format",
        "--logfile",
        "--skip",
        "--test-threads",
        "-Z",
    ];
    let mut it = args;
    while let Some(a) = it.next() {
        if a == "--" {
            return it.next();
        }
        if a.starts_with('-') {
            if VALUE_FLAGS.contains(&a.as_str()) {
                it.next();
            }
            continue;
        }
        return Some(a);
    }
    None
}

/// Whether `id` passes `filter` (substring; leading `^` anchors to a
/// prefix match).
fn filter_matches(filter: Option<&str>, id: &str) -> bool {
    match filter {
        None => true,
        Some(f) => match f.strip_prefix('^') {
            Some(prefix) => id.starts_with(prefix),
            None => id.contains(f),
        },
    }
}

impl Criterion {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Sets the wall-clock budget each benchmark's sampling aims for.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
            measurement_time: None,
        }
    }

    /// Runs one benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, f: F) {
        let full_id = id.into_benchmark_id().render();
        if !filter_matches(self.filter.as_deref(), &full_id) {
            return;
        }
        run_benchmark(&full_id, self.sample_size, self.measurement_time, self.full, f);
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = Some(n);
        self
    }

    /// Overrides the measurement budget for this group (group-local,
    /// like real criterion — later groups keep the driver's setting).
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = Some(d);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, f: F) {
        let full_id = format!("{}/{}", self.name, id.into_benchmark_id().render());
        if !filter_matches(self.criterion.filter.as_deref(), &full_id) {
            return;
        }
        run_benchmark(
            &full_id,
            self.sample_size.unwrap_or(self.criterion.sample_size),
            self.measurement_time.unwrap_or(self.criterion.measurement_time),
            self.criterion.full,
            f,
        );
    }

    /// Runs one benchmark with a setup input threaded through.
    pub fn bench_with_input<T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &T,
        mut f: F,
    ) {
        self.bench_function(id, |b| f(b, input));
    }

    /// Ends the group (kept for API parity; nothing to flush).
    pub fn finish(self) {}
}

/// A benchmark identifier: a function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// An id with a parameter, rendered as `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { function: function.into(), parameter: Some(parameter.to_string()) }
    }

    /// An id carrying only a parameter (used inside groups).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { function: String::new(), parameter: Some(parameter.to_string()) }
    }

    fn render(&self) -> String {
        match (&self.function[..], &self.parameter) {
            ("", Some(p)) => p.clone(),
            (f, Some(p)) => format!("{f}/{p}"),
            (f, None) => f.to_string(),
        }
    }
}

/// Anything convertible to a [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// Performs the conversion.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { function: self.to_string(), parameter: None }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { function: self, parameter: None }
    }
}

/// Handed to each benchmark body to drive timed iterations.
pub struct Bencher {
    mode: BenchMode,
    samples_ns: Vec<f64>,
}

enum BenchMode {
    /// One call per sample — smoke check under `cargo test`.
    Smoke,
    /// `iters` calls per sample, `samples` samples.
    Measure { iters: u64, samples: usize },
}

impl Bencher {
    /// Times a closure. In full mode the closure runs
    /// `iters × samples` times; in smoke mode exactly once.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        match self.mode {
            BenchMode::Smoke => {
                black_box(f());
                self.samples_ns.push(0.0);
            }
            BenchMode::Measure { iters, samples } => {
                for _ in 0..samples {
                    let start = Instant::now();
                    for _ in 0..iters {
                        black_box(f());
                    }
                    let elapsed = start.elapsed().as_nanos() as f64;
                    self.samples_ns.push(elapsed / iters as f64);
                }
            }
        }
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    id: &str,
    sample_size: usize,
    measurement_time: Duration,
    full: bool,
    mut f: F,
) {
    if !full {
        let mut b = Bencher { mode: BenchMode::Smoke, samples_ns: Vec::new() };
        f(&mut b);
        println!("{id}: ok (smoke)");
        return;
    }

    // Calibrate: time a single iteration to pick a per-sample count that
    // fills measurement_time across sample_size samples.
    let mut probe =
        Bencher { mode: BenchMode::Measure { iters: 1, samples: 1 }, samples_ns: Vec::new() };
    f(&mut probe);
    let per_iter_ns = probe.samples_ns.last().copied().unwrap_or(1.0).max(1.0);
    let budget_ns = measurement_time.as_nanos() as f64 / sample_size as f64;
    let iters = (budget_ns / per_iter_ns).clamp(1.0, 1e7) as u64;

    let mut b = Bencher {
        mode: BenchMode::Measure { iters, samples: sample_size },
        samples_ns: Vec::new(),
    };
    f(&mut b);

    let mut xs = b.samples_ns;
    if xs.is_empty() {
        println!("{id}: no samples (body never called iter)");
        return;
    }
    xs.sort_by(f64::total_cmp);
    let median = xs[xs.len() / 2];
    let min = xs[0];
    let max = xs[xs.len() - 1];
    println!(
        "{id}\n    time: [{} {} {}] ({} samples x {} iters)",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(max),
        xs.len(),
        iters
    );

    if let Ok(path) = std::env::var("VMR_BENCH_JSON") {
        let line = serde_json::json!({
            "id": id,
            "median_ns": median,
            "min_ns": min,
            "max_ns": max,
            "samples": xs.len(),
            "iters_per_sample": iters,
        });
        if let Ok(mut file) = OpenOptions::new().create(true).append(true).open(&path) {
            let _ = writeln!(file, "{line}");
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_each_body_once() {
        let mut calls = 0u32;
        let mut c = Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(10),
            full: false,
            filter: None,
        };
        let mut g = c.benchmark_group("g");
        g.bench_function("f", |b| b.iter(|| calls += 1));
        g.finish();
        assert_eq!(calls, 1);
    }

    #[test]
    fn filters_select_by_substring_or_prefix() {
        assert!(filter_matches(None, "policy_forward/a"));
        assert!(filter_matches(Some("forward"), "policy_forward/a"));
        assert!(filter_matches(Some("^policy_forward/"), "policy_forward/a"));
        assert!(!filter_matches(Some("^policy_forward/"), "policy_forward_f32/a"));
        assert!(filter_matches(Some("policy_forward"), "policy_forward_f32/a"));
        assert!(!filter_matches(Some("decide"), "policy_forward/a"));
        let mut calls = 0u32;
        let mut c = Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(10),
            full: false,
            filter: Some("^g/yes".into()),
        };
        let mut g = c.benchmark_group("g");
        g.bench_function("yes", |b| b.iter(|| calls += 1));
        g.bench_function("no", |b| b.iter(|| calls += 100));
        g.finish();
        assert_eq!(calls, 1, "only the matching benchmark body runs");
    }

    #[test]
    fn parse_filter_skips_flags_and_their_values() {
        let parse = |args: &[&str]| parse_filter(args.iter().map(|s| s.to_string()));
        // Plain flags are not filters.
        assert_eq!(parse(&["--bench"]), None);
        // The filter is the first free argument.
        assert_eq!(
            parse(&["--bench", "^policy_forward_f32/"]),
            Some("^policy_forward_f32/".into())
        );
        // A value-taking flag's value is NOT a filter...
        assert_eq!(parse(&["--bench", "--sample-size", "10"]), None);
        assert_eq!(parse(&["--skip", "slow", "--bench"]), None);
        // ...but a free argument after it still is.
        assert_eq!(parse(&["--sample-size", "10", "decide"]), Some("decide".into()));
        // `--` forces the next argument to be the filter, flags included.
        assert_eq!(parse(&["--bench", "--", "--weird"]), Some("--weird".into()));
        assert_eq!(parse(&["--", "decide"]), Some("decide".into()));
        assert_eq!(parse(&["--"]), None);
        assert_eq!(parse(&[]), None);
    }

    #[test]
    fn measure_mode_reports_plausible_time() {
        let mut c = Criterion {
            sample_size: 5,
            measurement_time: Duration::from_millis(50),
            full: true,
            filter: None,
        };
        c.bench_function(BenchmarkId::new("spin", 1), |b| {
            b.iter(|| black_box((0..100u64).sum::<u64>()))
        });
    }
}
