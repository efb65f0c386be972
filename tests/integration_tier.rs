//! Bit-equality across SIMD tiers, pinned.
//!
//! The workspace is built for one x86-64 tier (`.cargo/config.toml`:
//! `x86-64-v3`), and the claim that made that a build flag rather than a
//! second set of kernels is that the tier never changes a bit: rustc
//! does not contract `a * b + c` into a fused multiply-add, so a wider
//! register advances more *independent* accumulators per instruction and
//! never changes the order any one of them is fed; stripe counts and
//! tile shapes are source constants. This suite is that argument as a
//! gate. `tests/golden/tier_fingerprints.json` was captured from the
//! commit before the tier existed, built for the x86-64 baseline (SSE2),
//! and is never regenerated: the test must reproduce it on whatever tier
//! it was compiled for. CI runs it twice — the default build, and once
//! more with `RUSTFLAGS="-C target-cpu=x86-64"`. A `mul_add` slipped
//! into a kernel, or a stripe count made to follow the register width,
//! fails it.
//!
//! Pinned: the action sequence and final objective of seeded agent plans
//! ({tiny, small, medium} at MNL 3 × {`Exact64`, `Fast32`} × two seeds,
//! the random-init default agent the served-plan benchmark uses), the
//! raw output bits of one fused attention head per precision, keyed by
//! row class and unkeyed, on two lanes, and the raw output bits of the
//! dense GEMM at the model's widths and two widths off them (the
//! `gemms` section was captured later, at the x86-64-v3 build of the
//! commit before the register-tiled kernel, and pins that kernel to
//! the loops it replaced).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use vmr_core::config::{ActionMode, ExtractorKind, ModelConfig, PrecisionConfig};
use vmr_core::infer::SharedAgent;
use vmr_core::model::Vmr2lModel;
use vmr_core::Vmr2lAgent;
use vmr_nn::kernels::attention_head_into;
use vmr_nn::par::AttnScratch;
use vmr_nn::{Scalar, Tensor};
use vmr_serve::policies::{AgentPolicy, PlanRequest};
use vmr_serve::session::{preset_config, Session};

/// FNV-1a, as the benchmark's `plan_fingerprint`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> Value {
        json!(format!("{:#018x}", self.0))
    }
}

/// Fingerprints of the seeded plans, keyed `preset/precision/seed`.
fn plan_fingerprints() -> Value {
    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    let policy = AgentPolicy::new(SharedAgent::new(Vmr2lAgent::new(model, ActionMode::TwoStage)));
    let mut out = serde_json::Map::new();
    for preset in ["tiny", "small", "medium"] {
        for seed in [1u64, 2] {
            // Read-only plans rewind the session, so one serves both
            // precisions.
            let mut session =
                Session::from_preset("t", &preset_config(preset).unwrap(), seed, 3).unwrap();
            for (name, precision) in
                [("f64", PrecisionConfig::Exact64), ("f32", PrecisionConfig::Fast32)]
            {
                let req = PlanRequest {
                    mnl: 3,
                    seed: 40 + seed,
                    budget: Duration::from_millis(200),
                    shards: 0,
                    workers: 0,
                    precision,
                };
                let planned = session.plan(&policy, &req, false).unwrap();
                let mut fp = Fnv::new();
                for step in &planned.plan {
                    for word in [step.vm, step.from_pm, step.to_pm] {
                        fp.eat(u64::from(word));
                    }
                }
                fp.eat(planned.objective_after.to_bits());
                out.insert(format!("{preset}/{name}/seed{seed}"), fp.hex());
            }
        }
    }
    Value::Object(out)
}

/// Output bits of one fused head on two lanes: 150 query rows (five row
/// tiles, so both lanes work and the last tile is ragged) over 150
/// distinct keys at the model's head width — attended as they are, or as
/// a 230-key sequence given by class.
fn head_fingerprint<S: Scalar>(keyed: bool) -> Value {
    let (m, u, n, dh) = (150, 150, 230, 12);
    let mut rng = StdRng::seed_from_u64(0x7137);
    let mut rand = |rows: usize| {
        let data = (0..rows * dh).map(|_| S::from_f64(rng.gen_range(-1.5..1.5))).collect();
        Tensor::<S>::from_vec(rows, dh, data)
    };
    let (q, k, v) = (rand(m), rand(u), rand(u));
    let class: Vec<u32> = (0..n).map(|j| ((j * 7 + j / 3) % u) as u32).collect();
    let scale = S::ONE / S::from_usize(dh).sqrt();
    let mut out = Tensor::<S>::zeros(m, dh);
    attention_head_into(
        &q,
        &k,
        &v,
        keyed.then_some(&class[..]),
        scale,
        2,
        &mut AttnScratch::default(),
        &mut out,
    );
    let mut fp = Fnv::new();
    for &x in out.data() {
        fp.eat(x.to_bits());
    }
    fp.hex()
}

/// Output bits of `a · b` for a ragged row count (37 rows leave a tail
/// row after the two-row register tiles) at each `k × n` the model runs —
/// `d_model`, `critic_hidden` and `d_ff` wide — and at widths 1 and 40,
/// which take the column-block path.
fn gemm_fingerprints<S: Scalar>(precision: &str, out: &mut serde_json::Map<String, Value>) {
    let m = 37;
    for (k, n) in [(24, 24), (24, 32), (24, 48), (48, 24), (24, 1), (24, 40)] {
        let mut rng = StdRng::seed_from_u64((k * 100 + n) as u64);
        let mut rand = |rows: usize, cols: usize| {
            let data = (0..rows * cols).map(|_| S::from_f64(rng.gen_range(-1.5..1.5))).collect();
            Tensor::<S>::from_vec(rows, cols, data)
        };
        let (a, b) = (rand(m, k), rand(k, n));
        let mut fp = Fnv::new();
        for &x in a.matmul(&b).data() {
            fp.eat(x.to_bits());
        }
        out.insert(format!("{precision}/{m}x{k}x{n}"), fp.hex());
    }
}

#[test]
fn plans_and_fused_heads_reproduce_the_baseline_tier_capture() {
    let golden: Value = serde_json::from_str(include_str!("golden/tier_fingerprints.json"))
        .expect("golden file parses");
    let mut gemms = serde_json::Map::new();
    gemm_fingerprints::<f64>("f64", &mut gemms);
    gemm_fingerprints::<f32>("f32", &mut gemms);
    let actual = json!({
        "plans": plan_fingerprints(),
        "heads": json!({
            "f64/unkeyed": head_fingerprint::<f64>(false),
            "f64/keyed": head_fingerprint::<f64>(true),
            "f32/unkeyed": head_fingerprint::<f32>(false),
            "f32/keyed": head_fingerprint::<f32>(true),
        }),
        "gemms": Value::Object(gemms),
    });
    for section in ["plans", "heads", "gemms"] {
        assert_eq!(
            actual[section],
            golden[section],
            "{section} differ from the baseline-tier capture on {} (compiled); this build \
             computed:\n{}",
            vmr_nn::tier::compiled(),
            serde_json::to_string_pretty(&actual).unwrap()
        );
    }
}
