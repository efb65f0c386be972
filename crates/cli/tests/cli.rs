//! End-to-end tests of the `vmr` operator CLI: every subcommand is
//! exercised against a freshly generated dataset in a temp directory.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Duration;

use vmr_core::config::{ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::infer::SharedAgent;
use vmr_core::model::Vmr2lModel;
use vmr_serve::policies::{FleetPolicy, HaPolicy, PlanPolicy, PlanRequest, PolicyRegistry};
use vmr_serve::session::Session;
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::Dataset;
use vmr_sim::types::VmId;

fn vmr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vmr")).args(args).output().expect("spawn vmr")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vmr-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn gen_dataset(name: &str) -> String {
    let path = tmp(name);
    let out = vmr(&[
        "gen",
        "--preset",
        "tiny",
        "--count",
        "3",
        "--seed",
        "5",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    path.to_str().unwrap().to_string()
}

#[test]
fn help_lists_all_subcommands() {
    let out = vmr(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "gen",
        "inspect",
        "train",
        "eval",
        "solve",
        "cost",
        "interfere",
        "simulate",
        "serve",
        "request",
    ] {
        assert!(text.contains(cmd), "help is missing {cmd}");
    }
}

#[test]
fn serve_and_request_round_trip() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // Start the daemon on an ephemeral port and parse the bound address
    // from its first stdout line.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_vmr"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    // Keep the reader alive for the daemon's lifetime: dropping it would
    // close the pipe and break the daemon's later prints.
    let mut daemon_stdout = BufReader::new(daemon.stdout.take().expect("stdout piped"));
    let mut first_line = String::new();
    daemon_stdout.read_line(&mut first_line).expect("daemon announces its address");
    let addr = first_line.trim().rsplit(' ').next().expect("address token").to_string();
    // The banner's policy list is the registry's, not a string literal.
    let mut banner = String::new();
    daemon_stdout.read_line(&mut banner).expect("daemon lists its policies");
    let names = PolicyRegistry::standard(None).names().join(", ");
    assert!(banner.starts_with(&format!("policies: {names}, auto ")), "{banner}");

    let run = |args: &[&str]| -> Output {
        let mut full = vec!["request", "--addr", &addr];
        full.extend_from_slice(args);
        vmr(&full)
    };
    let out = run(&[
        "--op",
        "create_session",
        "--session",
        "ops",
        "--preset",
        "tiny",
        "--seed",
        "3",
        "--mnl",
        "6",
    ]);
    assert!(out.status.success(), "create: {}", String::from_utf8_lossy(&out.stderr));
    let out = run(&[
        "--op",
        "apply_delta",
        "--session",
        "ops",
        "--delta",
        "vm_create",
        "--cpu",
        "4",
        "--mem",
        "8",
    ]);
    assert!(out.status.success(), "delta: {}", String::from_utf8_lossy(&out.stderr));
    let out = run(&["--op", "plan", "--session", "ops", "--policy", "ha", "--mnl", "4", "--json"]);
    assert!(out.status.success(), "plan: {}", String::from_utf8_lossy(&out.stderr));
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(body["policy"], "ha");
    assert!(
        body["objective_after"].as_f64().unwrap() <= body["objective_before"].as_f64().unwrap()
    );
    let out = run(&["--op", "stats", "--session", "ops"]);
    assert!(out.status.success(), "stats: {}", String::from_utf8_lossy(&out.stderr));
    // One `top` frame: the inference lines are there even before any
    // agent plan (nothing shared yet reads as 0 of 0, 100 %).
    let out = vmr(&["top", "--addr", &addr, "--once"]);
    let frame = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "top: {}", String::from_utf8_lossy(&out.stderr));
    assert!(frame.contains("attention lanes:"), "{frame}");
    assert!(frame.contains("row classes: 0 of 0 (100 %)"), "{frame}");
    assert!(frame.contains("forward arena: 0.0 MiB high water"), "{frame}");
    // The daemon is this build on this host, so its tier line is ours.
    let tier = format!(
        "simd tier: {} (compiled) / {} (cpu)",
        vmr_nn::tier::compiled(),
        vmr_nn::tier::cpu()
    );
    assert!(frame.contains(&tier), "{frame}");
    // Snapshot to a file, then restore from it.
    let snap = tmp("cli-snap.json");
    let out = run(&["--op", "snapshot", "--session", "ops", "--out", snap.to_str().unwrap()]);
    assert!(out.status.success(), "snapshot: {}", String::from_utf8_lossy(&out.stderr));
    let out = run(&["--op", "restore", "--session", "ops", "--snapshot", snap.to_str().unwrap()]);
    assert!(out.status.success(), "restore: {}", String::from_utf8_lossy(&out.stderr));

    daemon.kill().expect("stop daemon");
    let _ = daemon.wait();
}

#[test]
fn simulate_runs_the_daily_loop() {
    let ds = gen_dataset("simulate.json");
    // The default planner, no planner, and a deadline-bound one.
    for planner in [&[][..], &["--planner", "none"], &["--planner", "mcts", "--budget-ms", "100"]] {
        let mut args = vec!["simulate", "--dataset", &ds, "--days", "1", "--mnl", "4", "--json"];
        args.extend_from_slice(planner);
        let out = vmr(&args);
        assert!(out.status.success(), "{planner:?}: {}", String::from_utf8_lossy(&out.stderr));
        let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
        assert_eq!(body["days"], 1);
        assert_eq!(body["planner"], *planner.get(1).unwrap_or(&"ha"));
        assert_eq!(body["windows"].as_array().unwrap().len(), 1);
        let fr = body["mean_fr"].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&fr));
    }
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let out = vmr(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn gen_then_inspect() {
    let ds = gen_dataset("inspect.json");
    let out = vmr(&["inspect", "--dataset", &ds, "--index", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FR (16-core)"));
    assert!(text.contains("CPU utilization"));
}

#[test]
fn solve_ha_and_swap_report_fr() {
    let ds = gen_dataset("solve.json");
    for method in ["ha", "swap"] {
        let out = vmr(&["solve", "--dataset", &ds, "--method", method, "--mnl", "4"]);
        assert!(out.status.success(), "{method}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("FR"), "{method} output: {text}");
    }
}

#[test]
fn solve_json_output_is_parseable() {
    let ds = gen_dataset("solve_json.json");
    let out = vmr(&["solve", "--dataset", &ds, "--method", "ha", "--mnl", "3", "--json"]);
    assert!(out.status.success());
    let body: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON plan output");
    assert_eq!(body["method"], "ha");
    assert!(body["plan"].is_array());
    assert!(body["final_fr"].as_f64().unwrap() <= body["initial_fr"].as_f64().unwrap() + 1e-12);
}

#[test]
fn cost_prices_a_plan() {
    let ds = gen_dataset("cost.json");
    for method in [&[][..], &["--method", "swap", "--budget-ms", "100"]] {
        let mut args = vec!["cost", "--dataset", &ds, "--mnl", "4", "--streams", "2", "--json"];
        args.extend_from_slice(method);
        let out = vmr(&args);
        assert!(out.status.success(), "{method:?}: {}", String::from_utf8_lossy(&out.stderr));
        let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
        let makespan = body["makespan_s"].as_f64().unwrap();
        let sequential = body["sequential_s"].as_f64().unwrap();
        assert!(makespan <= sequential + 1e-9);
        assert!(body["transferred_gib"].as_f64().unwrap() >= 0.0);
    }
}

#[test]
fn interfere_reports_score() {
    let ds = gen_dataset("interfere.json");
    let out = vmr(&[
        "interfere",
        "--dataset",
        &ds,
        "--noisy-frac",
        "0.4",
        "--threshold",
        "0.3",
        "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(body["cluster_score"].as_f64().unwrap() >= 0.0);
    assert!(body["noisiest"].is_array());
}

#[test]
fn missing_dataset_flag_is_an_error() {
    let out = vmr(&["inspect"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("dataset"));
}

// ---- the offline commands are clients of the daemon's policy registry ----

/// A default-architecture checkpoint with untrained weights — all
/// `--agent` needs to load.
fn write_checkpoint(name: &str) -> String {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    let path = tmp(name);
    vmr_nn::checkpoint::Checkpoint::capture(&model).save(&path).expect("write checkpoint");
    path.to_str().unwrap().to_string()
}

fn first_mapping(dataset: &str) -> ClusterState {
    let json = std::fs::read_to_string(dataset).expect("read dataset");
    Dataset::from_json(&json).expect("parse dataset").mappings.remove(0)
}

/// `vmr solve --json --dataset .. <args>`, parsed.
fn solve_json(dataset: &str, args: &[&str]) -> serde_json::Value {
    let mut full = vec!["solve", "--json", "--dataset", dataset];
    full.extend_from_slice(args);
    let out = vmr(&full);
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    serde_json::from_slice(&out.stdout).expect("valid JSON plan output")
}

/// The printed `{vm, from_pm, to_pm}` sequence. Checks on the way that
/// an operator could execute it as printed: every step's `from_pm` is
/// where the VM is *at that step*, not where it started.
fn printed_steps(body: &serde_json::Value, state: &ClusterState) -> Vec<(u32, u32, u32)> {
    let field = |step: &serde_json::Value, key: &str| step[key].as_u64().expect(key) as u32;
    let mut host: Vec<u32> =
        (0..state.num_vms()).map(|vm| state.placement(VmId(vm as u32)).pm.0).collect();
    let plan = body["plan"].as_array().expect("plan array");
    plan.iter()
        .map(|step| {
            let (vm, from, to) = (field(step, "vm"), field(step, "from_pm"), field(step, "to_pm"));
            assert_eq!(from, host[vm as usize], "stale source host for VM{vm}: {plan:?}");
            host[vm as usize] = to;
            (vm, from, to)
        })
        .collect()
}

#[test]
fn solve_matches_the_registry() {
    let ds = gen_dataset("registry.json");
    let ckpt = write_checkpoint("registry-agent.json");
    let state = first_mapping(&ds);
    let budget = Duration::from_millis(200);
    let with_agent = PolicyRegistry::standard(Some(SharedAgent::load(&ckpt).expect("load")));
    let plain = PolicyRegistry::standard(None);
    let named = |reg: &PolicyRegistry, name: &str| reg.resolve(name, budget).expect(name);
    let req = PlanRequest {
        mnl: 4,
        seed: 3,
        budget,
        shards: 0,
        workers: 0,
        precision: PrecisionConfig::Exact64,
    };
    let sharded = PlanRequest { shards: 2, ..req };
    let fast = PlanRequest { precision: PrecisionConfig::Fast32, ..req };
    let over_ha: Arc<dyn PlanPolicy> = Arc::new(FleetPolicy::new(Arc::new(HaPolicy)));

    // Deadline-free planners: the command line prints exactly what an
    // in-process `Session::plan` with the same request returns.
    let cases: [(&[&str], Arc<dyn PlanPolicy>, PlanRequest); 6] = [
        (&["--method", "ha"], named(&plain, "ha"), req),
        (&["--method", "vbpp"], named(&plain, "vbpp"), req),
        (&["--method", "fleet", "--shards", "2"], named(&plain, "fleet"), sharded),
        (&["--method", "ha", "--fleet", "--shards", "2"], over_ha, sharded),
        (&["--method", "agent", "--agent", &ckpt], named(&with_agent, "agent"), req),
        (
            &["--method", "agent", "--agent", &ckpt, "--precision", "f32"],
            named(&with_agent, "agent"),
            fast,
        ),
    ];
    for (flags, policy, req) in cases {
        let mut args = vec!["--seed", "3", "--mnl", "4", "--budget-ms", "200"];
        args.extend_from_slice(flags);
        let body = solve_json(&ds, &args);
        let constraints = ConstraintSet::new(state.num_vms());
        let mut session = Session::new("twin", state.clone(), constraints, 4).expect("session");
        let want = session.plan(policy.as_ref(), &req, false).expect("in-process plan");
        let want_steps: Vec<_> = want.plan.iter().map(|a| (a.vm, a.from_pm, a.to_pm)).collect();
        assert_eq!(printed_steps(&body, &state), want_steps, "{flags:?}");
        assert_eq!(body["final_fr"].as_f64().unwrap(), want.objective_after, "{flags:?}");
        assert_eq!(body["initial_fr"].as_f64().unwrap(), want.objective_before, "{flags:?}");
    }

    // Deadline-bound planners: succeed, respect the MNL, never raise FR.
    for method in ["swap", "mcts", "solver", "pop", "auto"] {
        let body = solve_json(
            &ds,
            &["--method", method, "--seed", "3", "--mnl", "4", "--budget-ms", "200"],
        );
        assert!(printed_steps(&body, &state).len() <= 4, "{method} broke the MNL");
        let (before, after) = (body["initial_fr"].as_f64(), body["final_fr"].as_f64());
        assert!(after.unwrap() <= before.unwrap() + 1e-12, "{method} raised FR");
    }

    // The vocabulary is the registry's: anything else is refused with the
    // registry's own list (`agent` joins it only with a checkpoint).
    for stranger in ["bnb", "agent"] {
        let out = vmr(&["solve", "--dataset", &ds, "--method", stranger]);
        assert!(!out.status.success(), "{stranger} was accepted");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains(&format!("{}, auto", plain.names().join(", "))), "{err}");
    }
}

#[test]
fn solve_prints_the_intermediate_host_of_a_twice_moved_vm() {
    // An untrained agent wanders: at this seed it moves one VM away and
    // then on again. `solve` used to print that VM's *initial* host as
    // the source of both steps (only `--fleet` replayed the plan).
    let ds = gen_dataset("twice.json");
    let ckpt = write_checkpoint("twice-agent.json");
    let state = first_mapping(&ds);
    let body =
        solve_json(&ds, &["--method", "agent", "--agent", &ckpt, "--seed", "0", "--mnl", "6"]);
    // `printed_steps` has already checked every source against a replay.
    let steps = printed_steps(&body, &state);
    let moved_on = steps.iter().any(|&(vm, from, _)| from != state.placement(VmId(vm)).pm.0);
    assert!(moved_on, "the pinned plan no longer moves a VM twice: {steps:?}");
}
