//! `vmr` — operator command line for the VMR2L rescheduling system.
//!
//! Subcommands:
//!
//! * `vmr gen --preset medium --count 8 --seed 0 --out ds.json`
//!   — synthesize a dataset of cluster mappings.
//! * `vmr inspect --dataset ds.json --index 0`
//!   — print cluster statistics (PMs, VMs, utilization, fragment rates).
//! * `vmr train --dataset ds.json --updates 30 --mnl 8 --out agent.json`
//!   — PPO-train a VMR2L agent and save its checkpoint.
//! * `vmr eval --dataset ds.json --agent agent.json --mnl 10 --trajectories 16`
//!   — risk-seeking evaluation of a trained agent on the test split.
//! * `vmr solve --dataset ds.json --index 0 --method ha --mnl 10`
//!   — plan with one planner and print the migration plan.
//! * `vmr cost --dataset ds.json --index 0 --method ha --mnl 10 --streams 2`
//!   — plan, then price the plan's execution under the pre-copy
//!   live-migration model (makespan, downtime, bytes moved).
//! * `vmr simulate --dataset ds.json --days 2 --planner ha`
//!   — the daily churn loop with one rescheduling window per day.
//! * `vmr interfere --dataset ds.json --index 0 --noisy-frac 0.2 --threshold 0.5`
//!   — noisy-neighbor report: interference score and the top contending VMs.
//!
//! A planner is a name in the registry the daemon serves
//! (`vmr_serve::policies::PolicyRegistry`; `vmr help` prints the list):
//! `solve --method`, `cost --method`, `simulate --planner` and
//! `request --op plan --policy` all take that one vocabulary, and the
//! offline three plan through it exactly as a served request does.
//!
//! Every command prints human-readable output to stdout; `--json` switches
//! plan output to machine-readable JSON.

#![forbid(unsafe_code)]

mod args;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use args::Args;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::agent::{ActPolicy, Vmr2lAgent};
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::eval::{risk_seeking_eval, RiskSeekingConfig};
use vmr_core::infer::SharedAgent;
use vmr_core::model::Vmr2lModel;
use vmr_core::train::{TrainConfig, Trainer};
use vmr_nn::checkpoint::Checkpoint;
use vmr_nn::tier::Tier;
use vmr_serve::policies::{FleetPolicy, PlanPolicy, PlanRequest, PolicyRegistry};
use vmr_serve::session::{preset_config, PlanResult, Session};
use vmr_sim::cluster::ClusterState;
use vmr_sim::constraints::ConstraintSet;
use vmr_sim::dataset::Dataset;
use vmr_sim::env::Action;
use vmr_sim::objective::Objective;
use vmr_sim::types::VmId;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Every subcommand runs code compiled for the build's SIMD tier, so
    // the guard sits in front of all of them: an older CPU gets a
    // sentence, not an illegal-instruction fault in the first kernel.
    if let Err(e) = vmr_nn::tier::check() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match args.command.as_str() {
        "gen" => cmd_gen(&args),
        "inspect" => cmd_inspect(&args),
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "solve" => cmd_solve(&args),
        "cost" => cmd_cost(&args),
        "interfere" => cmd_interfere(&args),
        "simulate" => cmd_simulate(&args),
        "serve" => cmd_serve(&args),
        "recover" => cmd_recover(&args),
        "request" => cmd_request(&args),
        "top" => cmd_top(&args),
        "" | "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}; try `vmr help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "\
vmr — VM rescheduling via deep RL (VMR2L reproduction)

usage: vmr <command> [--flags]

commands:
  gen      --preset <tiny|small|medium|large|multi|low|mid|high|xxl>
           --count N --seed N --out FILE
  inspect  --dataset FILE [--index N]
  train    --dataset FILE [--updates N] [--mnl N] [--seed N]
           [--extractor sparse|vanilla] [--risk-quantile F]
           [--rollout-workers N (0 = all cores)] [--out FILE]
  eval     --dataset FILE --agent FILE [--mnl N] [--trajectories N]
           [--seed N] [--precision f64|f32]
  solve    --dataset FILE [--index N] --method PLANNER [--json]
  cost     --dataset FILE [--index N] [--method PLANNER (ha)]
           [--streams N] [--bandwidth GIB_S] [--json]
  interfere --dataset FILE [--index N] [--noisy-frac F]
           [--threshold F] [--top N] [--json]
  simulate --dataset FILE [--index N] [--days N]
           [--planner none|PLANNER (ha)] [--base-rate F] [--exit-frac F]
           [--seed N] [--json]
  serve    [--addr HOST:PORT] [--threads N] [--agent CKPT]
           [--data-dir DIR [--sync-every N] [--snapshot-every N]]
           [--slow-ms N] [--event-log FILE] [--no-telemetry]
           (durable sessions: WAL + snapshots, recovered at boot;
            --slow-ms emits JSONL slow-request records by trace id)
  recover  --data-dir DIR [--verify]
           (offline recovery report; --verify audits every session
            and re-recovers to check bit-identical determinism)
  top      [--addr HOST:PORT] [--interval-ms N] [--once]
           (live daemon dashboard: throughput, phase tail latencies,
            durability gauges, per-session table)
  request  --op <create_session|apply_delta|plan|stats|snapshot|
                 restore|metrics>
           [--addr HOST:PORT] --session NAME [--json] ...
           create_session: --preset NAME --seed N --mnl N
           apply_delta:    --delta vm_create|vm_delete|vm_resize|pm_add|pm_drain
                           [--vm N] [--pm N] [--cpu N] [--mem N] [--double]
           plan:           --policy PLANNER (auto) [--commit] + the planner
                           flags below, except --agent and --fleet
           snapshot:       [--out FILE]    restore: --snapshot FILE
           metrics:        [--prometheus] [--json]

PLANNER is a name in the daemon's policy registry — one list for solve,
cost, simulate and request --op plan:
  {planners} — and agent, given a checkpoint
  (--agent CKPT offline, `serve --agent CKPT` served). fleet shards the
  cluster and plans each shard with the agent, or with HA without one;
  auto picks ha / agent / mcts by --budget-ms, never serving a plan
  worse than ha's.
planner flags (solve, cost, simulate):
  [--mnl N] [--seed N] [--budget-ms N] [--agent CKPT] [--precision f64|f32]
  [--fleet  (shard-parallel over any PLANNER)] [--shards N] [--workers N]",
        planners = planner_names(&PolicyRegistry::standard(None))
    );
}

fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let path = args.require("dataset")?;
    let json = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Dataset::from_json(&json).map_err(|e| format!("bad dataset {path}: {e}"))
}

/// Parses `--precision f64|f32` (default f64 — the exact path).
fn parse_precision(args: &Args) -> Result<PrecisionConfig, String> {
    let spelling = args.get("precision", "f64");
    PrecisionConfig::parse(&spelling)
        .ok_or_else(|| format!("unknown precision {spelling:?} (f64|f32)"))
}

/// `--agent CKPT`, when given: the handle `eval`, `serve` and the
/// offline planners share.
fn load_agent(args: &Args) -> Result<Option<SharedAgent>, String> {
    match args.get("agent", "").as_str() {
        "" => Ok(None),
        path => SharedAgent::load(path).map(Some),
    }
}

/// `--index N` of the dataset (default 0).
fn mapping<'a>(ds: &'a Dataset, args: &Args) -> Result<&'a ClusterState, String> {
    let index: usize = args.num("index", 0)?;
    ds.mappings.get(index).ok_or_else(|| format!("index {index} out of range"))
}

/// What a `--method` / `--planner` / `--policy` may say, read from the
/// registry so no help text, banner or error message can drift from it.
fn planner_names(registry: &PolicyRegistry) -> String {
    format!("{}, auto", registry.names().join(", "))
}

/// The planner an offline command (`solve`, `cost`, `simulate`) was asked
/// for: a name resolved by the registry the daemon serves, and the
/// request the planner flags spell. `--agent CKPT` registers `agent` (and
/// puts it under `fleet`); `--fleet` shards over whatever was resolved.
struct Planner {
    policy: Arc<dyn PlanPolicy>,
    req: PlanRequest,
    /// The resolved policy's name (`auto` already decided), `fleet:`-prefixed
    /// under `--fleet`.
    label: String,
}

impl Planner {
    fn from_args(args: &Args, name: &str) -> Result<Self, String> {
        let registry = PolicyRegistry::standard(load_agent(args)?);
        let budget = Duration::from_millis(args.num("budget-ms", 5000u64)?);
        let mut policy = registry.resolve(name, budget).ok_or_else(|| {
            format!("no planner named {name:?} (known: {})", planner_names(&registry))
        })?;
        let mut label = policy.name().to_string();
        if args.flag("fleet") {
            policy = Arc::new(FleetPolicy::new(policy));
            label = format!("fleet:{label}");
        }
        let req = PlanRequest {
            mnl: args.num("mnl", 10)?,
            seed: args.num("seed", 0)?,
            budget,
            shards: args.num("shards", 0)?,
            workers: args.num("workers", 0)?,
            precision: parse_precision(args)?,
        };
        Ok(Planner { policy, req, label })
    }

    /// One plan for `state`, made the way the daemon makes it: a session
    /// around the mapping, the policy run on its rewound environment, the
    /// plan replayed and validated with every step's true source host.
    fn plan(&self, state: &ClusterState) -> Result<PlanResult, String> {
        let constraints = ConstraintSet::new(state.num_vms());
        Session::new("offline", state.clone(), constraints, self.req.mnl)
            .and_then(|mut session| session.plan(self.policy.as_ref(), &self.req, false))
            .map_err(|e| e.to_string())
    }

    /// [`Planner::plan`] as the simulator's action list.
    fn actions(&self, state: &ClusterState) -> Result<Vec<Action>, String> {
        Ok(vmr_serve::recovery::wire_plan_actions(&self.plan(state)?.plan))
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let name = args.get("preset", "small");
    let cfg = preset_config(&name).ok_or_else(|| format!("unknown preset {name:?}"))?;
    let count: usize = args.num("count", 8)?;
    if count == 0 {
        return Err("--count must be at least 1".to_string());
    }
    let seed: u64 = args.num("seed", 0)?;
    let out = args.get("out", "dataset.json");
    eprintln!("generating {count} mappings of preset '{}'...", cfg.name);
    let ds = Dataset::generate(&cfg, count, seed).map_err(|e| e.to_string())?;
    std::fs::write(&out, ds.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    let m = &ds.mappings[0];
    println!(
        "wrote {out}: {count} mappings, {} PMs, ~{} VMs, FR16 {:.4}, util {:.2}",
        m.num_pms(),
        m.num_vms(),
        m.fragment_rate(16),
        m.cpu_utilization()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    let index: usize = args.num("index", 0)?;
    let m = ds
        .mappings
        .get(index)
        .ok_or_else(|| format!("index {index} out of range ({} mappings)", ds.mappings.len()))?;
    println!(
        "dataset '{}': {} mappings (train/val/test {}/{}/{})",
        ds.name,
        ds.mappings.len(),
        ds.train.len(),
        ds.val.len(),
        ds.test.len()
    );
    println!("mapping {index}:");
    println!("  PMs: {}   VMs: {}", m.num_pms(), m.num_vms());
    println!("  CPU utilization: {:.2}%", m.cpu_utilization() * 100.0);
    println!("  FR (16-core):    {:.4}", m.fragment_rate(16));
    println!("  FR (64-core dbl):{:.4}", m.fragment_rate_double(64));
    println!("  Mem64 FR:        {:.4}", m.mem_fragment_rate(64));
    // Flavor histogram.
    let mut hist: std::collections::BTreeMap<u32, usize> = Default::default();
    for vm in m.vms() {
        *hist.entry(vm.cpu).or_default() += 1;
    }
    println!("  VM flavors (cores -> count): {hist:?}");
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    let updates: usize = args.num("updates", 30)?;
    let mnl: usize = args.num("mnl", 8)?;
    let seed: u64 = args.num("seed", 0)?;
    let out = args.get("out", "agent.json");
    let extractor = match args.get("extractor", "sparse").as_str() {
        "sparse" => ExtractorKind::SparseAttention,
        "vanilla" => ExtractorKind::VanillaAttention,
        other => return Err(format!("unknown extractor {other:?} (sparse|vanilla)")),
    };
    let risk_quantile: f64 = args.num("risk-quantile", -1.0f64)?;
    let rollout_workers: usize = args.num("rollout-workers", 0)?;
    let rollout_workers = if rollout_workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        rollout_workers
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Vmr2lModel::new(ModelConfig::default(), extractor, &mut rng);
    let agent = Vmr2lAgent::new(model, ActionMode::TwoStage);
    let cfg = TrainConfig {
        updates,
        mnl,
        seed,
        eval_every: 0,
        risk_quantile: (0.0..1.0).contains(&risk_quantile).then_some(risk_quantile),
        rollout_workers,
        ..Default::default()
    };
    let train: Vec<ClusterState> = ds.train_mappings().cloned().collect();
    let eval: Vec<ClusterState> = ds.val_mappings().cloned().collect();
    let mut trainer = Trainer::new(agent, train, eval, cfg).map_err(|e| e.to_string())?;
    trainer
        .train(|s| {
            eprintln!(
                "update {:>3}/{updates}: reward/step {:+.4} loss {:+.4}",
                s.update, s.mean_reward, s.ppo.loss
            );
        })
        .map_err(|e| e.to_string())?;
    let agent = trainer.into_agent();
    let mut ckpt = Checkpoint::capture(&agent.policy);
    ckpt.meta.insert("updates".into(), updates.to_string());
    ckpt.meta.insert("dataset".into(), ds.name.clone());
    ckpt.save(&out).map_err(|e| e.to_string())?;
    println!("trained {updates} updates; checkpoint saved to {out}");
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    // Shared with the `vmr-serve` daemon: tries both extractor variants
    // (the checkpoint's parameter set disambiguates) and casts the
    // weights to f32 once up front; every trajectory reuses the cast.
    let handle = SharedAgent::load(args.require("agent")?)?;
    let precision = parse_precision(args)?;
    match precision {
        PrecisionConfig::Exact64 => eval_test_set(handle.agent(), &ds, args, precision),
        PrecisionConfig::Fast32 => eval_test_set(handle.agent32(), &ds, args, precision),
    }
}

/// Risk-seeking evaluation over the dataset's test mappings, in the
/// agent's own precision (`precision` only labels the summary line).
fn eval_test_set<P: ActPolicy + Sync>(
    agent: &Vmr2lAgent<P>,
    ds: &Dataset,
    args: &Args,
    precision: PrecisionConfig,
) -> Result<(), String> {
    let mnl: usize = args.num("mnl", 10)?;
    let trajectories: usize = args.num("trajectories", 16)?;
    let seed: u64 = args.num("seed", 0)?;
    let test: Vec<&ClusterState> = ds.test_mappings().collect();
    if test.is_empty() {
        return Err("dataset has no test mappings".into());
    }
    let mut init = 0.0;
    let mut achieved = 0.0;
    let mut secs = 0.0;
    for (i, state) in test.iter().enumerate() {
        let cs = ConstraintSet::new(state.num_vms());
        let cfg = RiskSeekingConfig { trajectories, seed: seed + i as u64, ..Default::default() };
        let out = risk_seeking_eval(agent, state, &cs, Objective::default(), mnl, &cfg)
            .map_err(|e| e.to_string())?;
        init += state.fragment_rate(16);
        achieved += out.best_objective;
        secs += out.elapsed.as_secs_f64();
        println!(
            "mapping {i}: FR {:.4} -> {:.4}  ({} moves, {:.2}s)",
            state.fragment_rate(16),
            out.best_objective,
            out.best_plan.len(),
            out.elapsed.as_secs_f64()
        );
    }
    let n = test.len() as f64;
    println!(
        "\nmean over {} test mappings: FR {:.4} -> {:.4}  ({:.2}s/mapping, {} trajectories, {})",
        test.len(),
        init / n,
        achieved / n,
        secs / n,
        trajectories,
        precision.as_str()
    );
    Ok(())
}

/// `vmr solve`: one plan by one planner, printed as the executable
/// sequence (each step's source is where the VM is *at that step*).
fn cmd_solve(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args)?;
    let state = mapping(&ds, args)?;
    let planner = Planner::from_args(args, &args.require("method")?)?;
    let t0 = std::time::Instant::now();
    let out = planner.plan(state)?;
    let elapsed = t0.elapsed().as_secs_f64();
    if args.flag("json") {
        let body = serde_json::json!({
            "method": planner.label,
            "mnl": planner.req.mnl,
            "initial_fr": out.objective_before,
            "final_fr": out.objective_after,
            "elapsed_s": elapsed,
            "plan": out.plan,
        });
        println!("{}", serde_json::to_string_pretty(&body).expect("serializable"));
    } else {
        println!(
            "{}: FR {:.4} -> {:.4} with {} migrations in {elapsed:.2}s",
            planner.label,
            out.objective_before,
            out.objective_after,
            out.plan.len()
        );
        for (i, a) in out.plan.iter().enumerate() {
            let cpu = state.vm(VmId(a.vm)).cpu;
            println!("  {i}: VM{} ({cpu}c) PM{} -> PM{}", a.vm, a.from_pm, a.to_pm);
        }
    }
    Ok(())
}

/// `vmr cost`: price a plan's execution under the pre-copy model.
fn cmd_cost(args: &Args) -> Result<(), String> {
    use vmr_sim::migration::{schedule_plan, NicLimits, PrecopyModel};
    let ds = load_dataset(args)?;
    let state = mapping(&ds, args)?;
    let streams: u32 = args.num("streams", 2)?;
    let plan = Planner::from_args(args, &args.get("method", "ha"))?.actions(state)?;
    let model =
        PrecopyModel { bandwidth_gib_s: args.num("bandwidth", 2.5f64)?, ..PrecopyModel::default() };
    let sched = schedule_plan(state, &plan, &model, NicLimits { streams_per_pm: streams })
        .map_err(|e| e.to_string())?;
    if args.flag("json") {
        let body = serde_json::json!({
            "plan_len": plan.len(),
            "streams_per_pm": streams,
            "bandwidth_gib_s": model.bandwidth_gib_s,
            "makespan_s": sched.makespan_secs,
            "sequential_s": sched.sequential_secs,
            "speedup": sched.speedup(),
            "total_downtime_ms": sched.total_downtime_ms,
            "transferred_gib": sched.total_transferred_gib,
        });
        println!("{}", serde_json::to_string_pretty(&body).expect("serializable"));
    } else {
        println!(
            "plan of {} migrations @ {} streams/PM, {} GiB/s:",
            plan.len(),
            streams,
            model.bandwidth_gib_s
        );
        println!(
            "  makespan    {:.1}s (sequential {:.1}s, speedup {:.2}x)",
            sched.makespan_secs,
            sched.sequential_secs,
            sched.speedup()
        );
        println!("  downtime    {:.1} ms total across VMs", sched.total_downtime_ms);
        println!("  transferred {:.1} GiB", sched.total_transferred_gib);
        for m in &sched.migrations {
            println!(
                "    t={:>6.1}s VM{:<4} PM{:<3} -> PM{:<3} ({:.1}s, {} rounds, {:.1} ms pause)",
                m.start_secs,
                m.vm.0,
                m.src.0,
                m.dst.0,
                m.cost.total_secs(),
                m.cost.rounds,
                m.cost.downtime_ms
            );
        }
    }
    Ok(())
}

/// `vmr simulate`: run the Figs. 1–3 daily loop — diurnal best-fit VMS
/// churn with one off-peak VMR window per day.
fn cmd_simulate(args: &Args) -> Result<(), String> {
    use vmr_sim::dataset::VmMix;
    use vmr_sim::daycycle::{run_day_cycle, DayCycleConfig};
    use vmr_sim::trace::DiurnalModel;
    let ds = load_dataset(args)?;
    let state = mapping(&ds, args)?;
    let seed: u64 = args.num("seed", 0)?;
    let planner_name = args.get("planner", "ha");
    let planner = match planner_name.as_str() {
        "none" => None,
        name => Some(Planner::from_args(args, name)?),
    };

    let mut cfg = DayCycleConfig::new(VmMix::standard());
    cfg.days = args.num("days", 2u32)?;
    cfg.mnl = args.num("mnl", 10)?;
    cfg.sample_every = 30;
    // Default churn keeps the population mean-reverting around the
    // snapshot's size: equilibrium ≈ base_rate / exit_frac.
    let default_exit = 0.0035;
    let default_rate = state.num_vms() as f64 * default_exit;
    cfg.model = DiurnalModel {
        base_rate: args.num("base-rate", default_rate)?,
        amplitude: 0.6,
        peak_minute: 14 * 60,
    };
    cfg.exit_frac = args.num("exit-frac", default_exit)?;

    // The day loop takes a plan, not a `Result`: a window whose planner
    // fails plans nothing, and the first failure fails the command.
    let mut failure = None;
    let mut plan_window = |snapshot: &ClusterState, _mnl: usize| match &planner {
        None => Vec::new(),
        Some(p) => p.actions(snapshot).unwrap_or_else(|e| {
            failure.get_or_insert(e);
            Vec::new()
        }),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let out = run_day_cycle(state, &mut plan_window, &cfg, &mut rng).map_err(|e| e.to_string())?;
    if let Some(e) = failure {
        return Err(e);
    }

    if args.flag("json") {
        let body = serde_json::json!({
            "planner": planner_name,
            "days": cfg.days,
            "mnl": cfg.mnl,
            "mean_fr": out.mean_fr(),
            "mean_window_drop": out.mean_window_drop(),
            "windows": out.windows.iter().map(|w| serde_json::json!({
                "minute": w.minute,
                "fr_before": w.fr_before,
                "fr_after": w.fr_after,
                "applied": w.applied,
                "dropped": w.dropped,
            })).collect::<Vec<_>>(),
        });
        println!("{}", serde_json::to_string_pretty(&body).expect("serializable"));
    } else {
        println!(
            "{} days of churn with planner '{planner_name}' (MNL {} per window):",
            cfg.days, cfg.mnl
        );
        for w in &out.windows {
            println!(
                "  day {} {:02}:{:02}  FR {:.4} -> {:.4}  ({} applied, {} dropped)",
                w.minute / 1440,
                (w.minute % 1440) / 60,
                w.minute % 60,
                w.fr_before,
                w.fr_after,
                w.applied,
                w.dropped
            );
        }
        println!("mean FR {:.4}  mean drop/window {:.4}", out.mean_fr(), out.mean_window_drop());
    }
    Ok(())
}

/// `vmr serve`: run the online rescheduling daemon until killed.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use vmr_serve::server::{serve, ServerConfig};
    use vmr_serve::wal::DurabilityConfig;
    use vmr_telemetry::EventLog;
    let agent = load_agent(args)?;
    // The same table the daemon is about to build from the same handle.
    let policies = planner_names(&PolicyRegistry::standard(agent.clone()));
    let durability = match args.get("data-dir", "").as_str() {
        "" => None,
        dir => {
            let mut cfg = DurabilityConfig::new(dir);
            cfg.sync_every = args.num("sync-every", cfg.sync_every)?;
            cfg.snapshot_every = args.num("snapshot-every", cfg.snapshot_every)?;
            Some(cfg)
        }
    };
    let events = match args.get("event-log", "").as_str() {
        "" => None,
        path => Some(std::sync::Arc::new(
            EventLog::to_file(path).map_err(|e| format!("cannot open event log {path}: {e}"))?,
        )),
    };
    let config = ServerConfig {
        addr: args.get("addr", "127.0.0.1:7171"),
        threads: args.num("threads", 4)?,
        agent,
        durability,
        telemetry: !args.flag("no-telemetry"),
        slow_ms: args.num("slow-ms", 0)?,
        events,
    };
    let handle = serve(config).map_err(|e| format!("cannot start: {e}"))?;
    if let Some(report) = handle.recovery_report() {
        print!("{report}");
    }
    println!("vmr-serve listening on {}", handle.addr());
    println!(
        "policies: {policies}  (try: vmr request --addr {} --op create_session --session prod \
         --preset medium)",
        handle.addr()
    );
    // Serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `vmr recover`: offline recovery of a durable data dir — prints the
/// per-session report; `--verify` additionally audits every recovered
/// state and re-runs recovery to prove it is deterministic
/// (bit-identical observations). Exits nonzero when any session is
/// degraded (dead or read-only) or a verification fails.
fn cmd_recover(args: &Args) -> Result<(), String> {
    use vmr_serve::recovery::{recover_dir, recover_session, RecoveryNote};
    use vmr_serve::wal::DurabilityConfig;
    let data_dir = args.require("data-dir")?;
    let cfg = DurabilityConfig::new(&data_dir);
    let mut rec = recover_dir(&cfg).map_err(|e| format!("cannot scan {data_dir}: {e}"))?;
    print!("{}", rec.report());
    let mut failures: Vec<String> =
        rec.dead.iter().map(|d| format!("'{}' is unrecoverable: {}", d.name, d.reason)).collect();
    for s in &rec.live {
        if let RecoveryNote::CorruptReadOnly { reason } = &s.note {
            failures.push(format!("'{}' degraded to read-only: {reason}", s.name));
        }
    }
    if args.flag("verify") {
        for s in &mut rec.live {
            let name = s.name.clone();
            if let Err(e) = s.session.env_mut().state().audit() {
                failures.push(format!("'{name}' fails its state audit: {e}"));
                continue;
            }
            // Recovery must be deterministic: running it again over the
            // re-anchored artifacts yields a bit-identical observation.
            match recover_session(&name, s.log.dir(), &cfg) {
                Err(e) => failures.push(format!("'{name}' failed re-recovery: {e}")),
                Ok(mut twin) => {
                    if twin.session.env_mut().observe() != s.session.env_mut().observe() {
                        failures.push(format!(
                            "'{name}' re-recovery observation differs (non-deterministic!)"
                        ));
                    }
                }
            }
        }
        if failures.is_empty() {
            println!(
                "verify: {} session(s) audited, re-recovered, and bit-identical",
                rec.live.len()
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// `vmr request`: one wire-protocol request against a running daemon.
fn cmd_request(args: &Args) -> Result<(), String> {
    use vmr_serve::client::ServeClient;
    use vmr_serve::proto::{PlanParams, SessionSnapshot};
    use vmr_sim::env::ClusterDelta;
    use vmr_sim::types::{NumaPolicy, PmId, VmId};

    let addr = args.get("addr", "127.0.0.1:7171");
    let mut client =
        ServeClient::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let op = args.require("op")?;
    let session = args.get("session", "");
    let json = args.flag("json");
    match op.as_str() {
        "create_session" => {
            let info = client
                .create_session(
                    &args.require("session")?,
                    &args.get("preset", "tiny"),
                    args.num("seed", 0)?,
                    args.num("mnl", 10)?,
                )
                .map_err(|e| e.to_string())?;
            println!(
                "created session '{}': {} PMs, {} VMs, FR {:.4}",
                info.session, info.pms, info.vms, info.objective
            );
        }
        "apply_delta" => {
            let numa = if args.flag("double") { NumaPolicy::Double } else { NumaPolicy::Single };
            let delta = match args.require("delta")?.as_str() {
                "vm_create" => ClusterDelta::VmCreate {
                    cpu: args.num("cpu", 4)?,
                    mem: args.num("mem", 8)?,
                    numa,
                },
                "vm_delete" => ClusterDelta::VmDelete { vm: VmId(args.num("vm", 0)?) },
                "vm_resize" => ClusterDelta::VmResize {
                    vm: VmId(args.num("vm", 0)?),
                    cpu: args.num("cpu", 4)?,
                    mem: args.num("mem", 8)?,
                },
                "pm_add" => ClusterDelta::PmAdd {
                    cpu_per_numa: args.num("cpu", 44)?,
                    mem_per_numa: args.num("mem", 128)?,
                },
                "pm_drain" => ClusterDelta::PmDrain { pm: PmId(args.num("pm", 0)?) },
                other => return Err(format!("unknown delta {other:?}")),
            };
            let d =
                client.apply_delta(&args.require("session")?, delta).map_err(|e| e.to_string())?;
            println!(
                "delta applied: v{} — {} PMs, {} VMs, FR {:.4}{}{}",
                d.info.version,
                d.info.pms,
                d.info.vms,
                d.info.objective,
                d.created_vm.map(|v| format!(", created VM{v}")).unwrap_or_default(),
                if d.migrations > 0 {
                    format!(", {} evacuation migrations", d.migrations)
                } else {
                    String::new()
                }
            );
        }
        "plan" => {
            let planned = client
                .plan(PlanParams {
                    session: args.require("session")?,
                    policy: args.get("policy", "auto"),
                    mnl: args.num("mnl", 0)?,
                    seed: args.num("seed", 0)?,
                    budget_ms: args.num("budget-ms", 0)?,
                    shards: args.num("shards", 0)?,
                    workers: args.num("workers", 0)?,
                    precision: parse_precision(args)?,
                    commit: args.flag("commit"),
                })
                .map_err(|e| e.to_string())?;
            if json {
                let body = serde_json::json!({
                    "policy": planned.policy,
                    "objective_before": planned.objective_before,
                    "objective_after": planned.objective_after,
                    "computed": planned.computed,
                    "version": planned.version,
                    "plan": planned.plan,
                });
                println!("{}", serde_json::to_string_pretty(&body).expect("serializable"));
            } else {
                println!(
                    "{}: FR {:.4} -> {:.4} with {} migrations ({})",
                    planned.policy,
                    planned.objective_before,
                    planned.objective_after,
                    planned.plan.len(),
                    if planned.computed { "computed" } else { "from cache" }
                );
                for (i, a) in planned.plan.iter().enumerate() {
                    println!("  {i}: VM{} PM{} -> PM{}", a.vm, a.from_pm, a.to_pm);
                }
            }
        }
        "stats" => {
            let s = client.stats(&session).map_err(|e| e.to_string())?;
            if json {
                println!("{}", serde_json::to_string_pretty(&s).expect("serializable"));
                return Ok(());
            }
            println!(
                "sessions {}  requests {}  plans {}/{} (served/computed)  deltas {}  errors {}",
                s.sessions, s.requests, s.plans_served, s.plans_computed, s.deltas, s.errors
            );
            println!("uptime {}  queue depth {}", fmt_uptime(s.uptime_ms), s.queue_depth);
            if s.recoveries > 0 || s.degraded_sessions > 0 {
                println!(
                    "durability: {} recovered at boot, {} degraded",
                    s.recoveries, s.degraded_sessions
                );
            }
            if let Some(info) = s.session {
                println!(
                    "session '{}': v{} — {} PMs, {} VMs, FR {:.4}",
                    info.session, info.version, info.pms, info.vms, info.objective
                );
            }
            if let Some(d) = s.durability {
                println!(
                    "  wal: lsn {} (durable {}, snapshot {}), {} log bytes{}",
                    d.appended_lsn,
                    d.durable_lsn,
                    d.snapshot_lsn,
                    d.log_bytes,
                    if d.read_only { format!(", READ-ONLY: {}", d.reason) } else { String::new() }
                );
            }
        }
        "snapshot" => {
            let snap = client.snapshot(&args.require("session")?).map_err(|e| e.to_string())?;
            let out = args.get("out", "snapshot.json");
            let body = serde_json::to_string(&snap.snapshot).map_err(|e| format!("{e:?}"))?;
            std::fs::write(&out, body).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "snapshot v{} ({} PMs, {} VMs) written to {out}",
                snap.snapshot.version,
                snap.snapshot.state.num_pms(),
                snap.snapshot.state.num_vms()
            );
        }
        "metrics" => {
            let m = client.metrics(args.flag("prometheus")).map_err(|e| e.to_string())?;
            if let Some(text) = m.prometheus {
                print!("{text}");
            } else if json {
                println!("{}", serde_json::to_string_pretty(&m.snapshot).expect("serializable"));
            } else {
                for c in &m.snapshot.counters {
                    println!("{:<34} {}", c.name, c.value);
                }
                for g in &m.snapshot.gauges {
                    println!("{:<34} {}", g.name, g.value);
                }
                println!(
                    "{:<26} {:>9} {:>10} {:>10} {:>10} {:>10}",
                    "histogram", "count", "p50", "p99", "p999", "max"
                );
                for h in &m.snapshot.histograms {
                    let v = |x: u64| {
                        if h.unit == "ns" {
                            fmt_ns(x)
                        } else {
                            x.to_string()
                        }
                    };
                    println!(
                        "{:<26} {:>9} {:>10} {:>10} {:>10} {:>10}",
                        h.name,
                        h.count,
                        v(h.p50),
                        v(h.p99),
                        v(h.p999),
                        v(h.max)
                    );
                }
            }
        }
        "restore" => {
            let path = args.require("snapshot")?;
            let body =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let snapshot: SessionSnapshot =
                serde_json::from_str(&body).map_err(|e| format!("bad snapshot {path}: {e:?}"))?;
            let info =
                client.restore(&args.require("session")?, snapshot).map_err(|e| e.to_string())?;
            println!(
                "restored session '{}': v{} — {} PMs, {} VMs, FR {:.4}",
                info.session, info.version, info.pms, info.vms, info.objective
            );
        }
        other => return Err(format!("unknown op {other:?}; see `vmr help`")),
    }
    Ok(())
}

/// Human-scale latency: picks ns/µs/ms/s.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Human-scale uptime: `42s`, `7m02s`, `3h07m`.
fn fmt_uptime(ms: u64) -> String {
    let secs = ms / 1000;
    if secs >= 3600 {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{secs}s")
    }
}

/// `vmr top`: poll a daemon's `stats` + `metrics` ops and redraw a live
/// table — throughput, phase tail latencies, durability gauges, and the
/// per-session table. `--once` prints a single frame (no screen clear).
fn cmd_top(args: &Args) -> Result<(), String> {
    use vmr_serve::client::ServeClient;
    let addr = args.get("addr", "127.0.0.1:7171");
    let interval = Duration::from_millis(args.num("interval-ms", 1000u64)?.max(100));
    let once = args.flag("once");
    let mut client =
        ServeClient::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // Per-poll deltas turn monotone counters into rates.
    let mut last: Option<(std::time::Instant, u64, u64)> = None;
    loop {
        let stats = client.stats("").map_err(|e| e.to_string())?;
        let metrics = client.metrics(false).map_err(|e| e.to_string())?;
        let now = std::time::Instant::now();
        let (req_s, plan_s) = match last {
            None => (0.0, 0.0),
            Some((t0, req0, plans0)) => {
                let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
                (
                    stats.requests.saturating_sub(req0) as f64 / dt,
                    stats.plans_served.saturating_sub(plans0) as f64 / dt,
                )
            }
        };
        last = Some((now, stats.requests, stats.plans_served));
        if !once {
            print!("\x1b[2J\x1b[H"); // clear screen, cursor home
        }
        render_top(&addr, &stats, &metrics.snapshot, req_s, plan_s);
        if once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// The `vmr top` SIMD-tier line, from the daemon's `nn_simd_tier*`
/// gauges: what its kernels were compiled for and what its CPU offers.
fn simd_tier_line(compiled: i64, cpu: i64) -> String {
    let name = |level| Tier::from_level(level).map_or_else(|| "unknown".into(), |t| t.to_string());
    format!("simd tier: {} (compiled) / {} (cpu)", name(compiled), name(cpu))
}

/// The `vmr top` row-class line: how many of the VM rows that entered
/// the dense attention stages were distinct (the rest shared a result).
fn row_classes_line(distinct: u64, total: u64) -> String {
    let pct = if total == 0 { 100.0 } else { 100.0 * distinct as f64 / total as f64 };
    format!("row classes: {distinct} of {total} ({pct:.0} %)")
}

fn render_top(
    addr: &str,
    stats: &vmr_serve::proto::StatsReply,
    snap: &vmr_telemetry::MetricsSnapshot,
    req_s: f64,
    plan_s: f64,
) {
    println!(
        "vmr top — {addr}   uptime {}   queue {}   {:.1} req/s   {:.1} plans/s",
        fmt_uptime(stats.uptime_ms),
        stats.queue_depth,
        req_s,
        plan_s
    );
    println!(
        "requests {}   plans {}/{} (served/computed, {} coalesced)   deltas {}   errors {}   \
         slow {}",
        stats.requests,
        stats.plans_served,
        stats.plans_computed,
        snap.counter("serve_plans_coalesced").unwrap_or(0),
        stats.deltas,
        stats.errors,
        snap.counter("serve_slow_requests").unwrap_or(0),
    );
    if stats.recoveries > 0 || stats.degraded_sessions > 0 {
        println!(
            "durability: {} recovered at boot, {} degraded",
            stats.recoveries, stats.degraded_sessions
        );
    }
    // Intra-plan parallelism: attention calls that borrowed idle cores,
    // were refused one (other plans in flight), or were too small to ask.
    let par = |name: &str| snap.counter(name).unwrap_or(0);
    println!(
        "attention lanes: {} parallel calls (+{} lanes)   {} denied   {} under cutover   \
         {}/{} cores busy",
        par("nn_par_parallel_calls"),
        par("nn_par_lanes_granted"),
        par("nn_par_denied"),
        par("nn_par_under_cutover"),
        snap.gauge("nn_par_busy").unwrap_or(0),
        snap.gauge("nn_par_cores").unwrap_or(0),
    );
    println!("{}", row_classes_line(par("nn_rows_distinct"), par("nn_rows_total")));
    let arena = snap.gauge("nn_arena_high_water_bytes").unwrap_or(0);
    println!("forward arena: {:.1} MiB high water", arena as f64 / (1024.0 * 1024.0));
    let tier = |name: &str| snap.gauge(name).unwrap_or(-1);
    println!("{}", simd_tier_line(tier("nn_simd_tier"), tier("nn_simd_tier_cpu")));
    println!();
    println!("{:<22} {:>9} {:>10} {:>10} {:>10}", "phase", "count", "p50", "p99", "p999");
    for name in [
        "serve_request",
        "serve_frame_decode",
        "serve_lock_wait",
        "serve_plan_compute",
        "serve_plan_wait",
        "serve_wal_append",
        "serve_wal_fsync",
        "serve_wal_compact",
        "serve_resp_write",
    ] {
        if let Some(h) = snap.histogram(name) {
            if h.count > 0 {
                println!(
                    "{:<22} {:>9} {:>10} {:>10} {:>10}",
                    h.name,
                    h.count,
                    fmt_ns(h.p50),
                    fmt_ns(h.p99),
                    fmt_ns(h.p999)
                );
            }
        }
    }
    println!();
    println!(
        "{:<18} {:>8} {:>6} {:>6} {:>8}  {:>9} {:>9}  flags",
        "session", "version", "pms", "vms", "FR", "lsn", "durable"
    );
    for d in &stats.sessions_detail {
        let (pms, vms, fr) = match &d.info {
            Some(i) => (i.pms.to_string(), i.vms.to_string(), format!("{:.4}", i.objective)),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let (lsn, durable) = match &d.durability {
            Some(w) => (w.appended_lsn.to_string(), w.durable_lsn.to_string()),
            None => ("-".into(), "-".into()),
        };
        let mut flags = Vec::new();
        if d.busy {
            flags.push("busy");
        }
        if d.read_only {
            flags.push("read-only");
        }
        println!(
            "{:<18} {:>8} {:>6} {:>6} {:>8}  {:>9} {:>9}  {}",
            d.session,
            d.version,
            pms,
            vms,
            fr,
            lsn,
            durable,
            flags.join(",")
        );
    }
}

/// `vmr interfere`: noisy-neighbor interference report.
fn cmd_interfere(args: &Args) -> Result<(), String> {
    use vmr_sim::interference::{InterferenceModel, UsageProfiles};
    let ds = load_dataset(args)?;
    let noisy_frac: f64 = args.num("noisy-frac", 0.2f64)?;
    let threshold: f64 = args.num("threshold", 0.5f64)?;
    let top: usize = args.num("top", 10)?;
    let seed: u64 = args.num("seed", 0)?;
    let state = mapping(&ds, args)?;
    let profiles = UsageProfiles::generate(state, noisy_frac, seed);
    let model = InterferenceModel { threshold, use_burst: true };
    let score = model.cluster_score(state, &profiles);
    let ranked = model.noisiest_vms(state, &profiles, top);
    if args.flag("json") {
        let body = serde_json::json!({
            "threshold": threshold,
            "cluster_score": score,
            "noisiest": ranked.iter().map(|(v, c)| serde_json::json!({
                "vm": v.0,
                "pm": state.placement(*v).pm.0,
                "contribution": c,
            })).collect::<Vec<_>>(),
        });
        println!("{}", serde_json::to_string_pretty(&body).expect("serializable"));
    } else {
        println!("cluster interference score (threshold {threshold}): {score:.5}");
        if ranked.is_empty() {
            println!("no PM exceeds the contention threshold");
        }
        for (v, c) in &ranked {
            println!(
                "  VM{:<4} ({}c, util {:.2}) on PM{:<3}: {:.5}",
                v.0,
                state.vm(*v).cpu,
                profiles.usage(*v).burst_util,
                state.placement(*v).pm.0,
                c
            );
        }
    }
    Ok(())
}
