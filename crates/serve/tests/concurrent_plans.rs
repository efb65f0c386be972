//! A decision step shares nothing with any other plan, so two agent
//! plans computed at the same time through one [`AgentPolicy`] must be
//! exactly the plans the same requests get alone — every migration and
//! every bit of `objective_after`, at both precisions.

use std::sync::Barrier;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::infer::SharedAgent;
use vmr_core::model::Vmr2lModel;
use vmr_core::Vmr2lAgent;
use vmr_serve::policies::{AgentPolicy, PlanRequest};
use vmr_serve::session::{preset_config, PlanResult, Session};

fn shared_agent() -> SharedAgent {
    let mut rng = StdRng::seed_from_u64(11);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    SharedAgent::new(Vmr2lAgent::new(model, ActionMode::TwoStage))
}

fn session(name: &str, seed: u64) -> Session {
    Session::from_preset(name, &preset_config("tiny").unwrap(), seed, 6).unwrap()
}

fn req(seed: u64, precision: PrecisionConfig) -> PlanRequest {
    PlanRequest {
        mnl: 6,
        seed,
        budget: Duration::from_millis(200),
        shards: 0,
        workers: 0,
        precision,
    }
}

fn assert_same(concurrent: &PlanResult, solo: &PlanResult, what: &str) {
    assert_eq!(concurrent.plan, solo.plan, "{what}: plan changed beside another plan");
    assert_eq!(
        concurrent.objective_after.to_bits(),
        solo.objective_after.to_bits(),
        "{what}: objective_after changed beside another plan"
    );
}

fn concurrent_plans_match_solo(precision: PrecisionConfig) {
    let policy = AgentPolicy::new(shared_agent());
    // One request on a fresh session; with a barrier, planned only once
    // the other thread has its session built too, so the two plans run
    // side by side from their first decision step.
    let plan = |name: &str, cluster_seed: u64, req_seed: u64, start: Option<&Barrier>| {
        let mut sess = session(name, cluster_seed);
        if let Some(barrier) = start {
            barrier.wait();
        }
        sess.plan(&policy, &req(req_seed, precision), false).unwrap()
    };
    let solo_a = plan("a", 1, 7, None);
    let solo_b = plan("b", 2, 9, None);
    assert!(!solo_a.plan.is_empty() && !solo_b.plan.is_empty(), "fixtures must plan something");

    let barrier = Barrier::new(2);
    let (out_a, out_b) = std::thread::scope(|s| {
        let ha = s.spawn(|| plan("a", 1, 7, Some(&barrier)));
        let hb = s.spawn(|| plan("b", 2, 9, Some(&barrier)));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_same(&out_a, &solo_a, "session a");
    assert_same(&out_b, &solo_b, "session b");
}

#[test]
fn concurrent_plans_match_solo_f64() {
    concurrent_plans_match_solo(PrecisionConfig::Exact64);
}

#[test]
fn concurrent_plans_match_solo_f32() {
    concurrent_plans_match_solo(PrecisionConfig::Fast32);
}
