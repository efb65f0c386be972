//! Lane-count plan invariance: a Medium agent plan is byte-identical
//! whether its attention heads run on one lane or borrow the idle cores.
//!
//! The companion of the worker-count invariance suites (`prop_fleet`,
//! `integration_serve`): there the knob is a request field, here there is
//! no knob at all — lanes are borrowed from `vmr_nn::par`'s process-wide
//! ledger — so the one-lane run is forced the way production forces it,
//! by the cores being taken. It also pins the other side of the cutover:
//! Small sessions and Large fleet shards never ask for a lane. This file holds a single test on purpose:
//! the ledger's counters are process-wide, and the assertions on them
//! need the process to itself.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::infer::SharedAgent;
use vmr_core::model::Vmr2lModel;
use vmr_core::Vmr2lAgent;
use vmr_serve::policies::{AgentPolicy, FleetPolicy, PlanRequest};
use vmr_serve::session::{preset_config, Session};

#[test]
fn medium_agent_plan_is_identical_on_one_lane_and_with_borrowing() {
    let mut rng = StdRng::seed_from_u64(11);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    let handle = SharedAgent::new(Vmr2lAgent::new(model, ActionMode::TwoStage));
    let policy = AgentPolicy::new(handle.clone());
    let ledger = vmr_nn::par::global();
    // The bit-exact tier; f32 lane invariance is pinned at the kernel
    // (`prop_attention_lanes`), and a Medium step is seconds in a debug
    // build.
    let req = PlanRequest {
        mnl: 2,
        seed: 5,
        budget: Duration::from_millis(200),
        shards: 0,
        workers: 0,
        precision: PrecisionConfig::Exact64,
    };
    // Below the cutover nothing is asked, whatever the load: a Small
    // agent plan and a Large fleet plan (~150-PM shards, two shard
    // workers) leave the ledger's lane counters untouched.
    let small = PlanRequest { mnl: 3, precision: PrecisionConfig::Fast32, ..req };
    let mut session = Session::from_preset("s", &preset_config("small").unwrap(), 3, 3).unwrap();
    session.plan(&policy, &small, false).unwrap();
    let fleet = FleetPolicy::new(Arc::new(AgentPolicy::new(handle.clone())));
    let sharded = PlanRequest { mnl: 8, shards: 8, workers: 2, ..small };
    let mut session = Session::from_preset("l", &preset_config("large").unwrap(), 3, 8).unwrap();
    session.plan(&fleet, &sharded, false).unwrap();
    let quiet = ledger.stats();
    assert_eq!((quiet.parallel_calls, quiet.lanes_granted, quiet.denied), (0, 0, 0));
    assert!(quiet.under_cutover > 0);

    // Read-only plans rewind the session, so one session serves both.
    let mut session = Session::from_preset("m", &preset_config("medium").unwrap(), 3, 2).unwrap();

    // Borrowing on: nothing else in this process is inside a forward.
    let borrowed = session.plan(&policy, &req, false).unwrap();
    let mid = ledger.stats();
    assert!(mid.parallel_calls + mid.denied > 0, "Medium attention must be above the cutover");
    if ledger.cores() > 1 {
        assert!(mid.parallel_calls > 0, "a lone plan borrows the idle cores");
        assert_eq!(mid.denied, 0);
    }

    // One lane: every core is lent out before the plan starts, as if
    // other plans held them.
    let taken = ledger.borrow(usize::MAX);
    assert_eq!(taken.helpers(), ledger.cores());
    let serial = session.plan(&policy, &req, false).unwrap();
    drop(taken);
    let end = ledger.stats();
    assert_eq!(end.parallel_calls, mid.parallel_calls, "no idle core, no lane");
    assert!(end.denied > mid.denied);
    assert_eq!(ledger.busy(), 0, "every lease and forward mark was returned");

    assert_eq!(borrowed.plan.len(), 2);
    assert_eq!(borrowed.plan, serial.plan, "lanes changed the plan");
    assert_eq!(borrowed.objective_after.to_bits(), serial.objective_after.to_bits());
}
