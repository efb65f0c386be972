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
//! the loops it replaced), and the raw output bits of the tree-local
//! stage on a tree set with duplicate rows and trees longer than one
//! 8-key tile (the `trees` section, captured likewise at the commit
//! before the class-keyed tree kernel, from the per-member loop it
//! replaced; the kernel must reproduce it on every row and by class).

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
use vmr_nn::{FwdCtx, Module, MultiHeadAttention, Scalar, Tensor, TreeGroups};
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

/// Class label of every VM a PM hosts, in member order: equal labels in
/// one tree are bit-equal rows. Trees of 1, 9, 8, 13, 5 and 2 members —
/// below, at and past one 8-key tile — one of them a single class.
const TREES: [&[u8]; 6] = [
    &[],
    &[0, 1, 0, 2, 0, 1, 3, 4],
    &[0, 1, 2, 3, 4, 5, 6],
    &[0, 1, 1, 2, 0, 3, 4, 4, 5, 1, 6, 7],
    &[0, 0, 0, 0],
    &[0],
];

/// The `trees` input: PM rows then VM rows (VMs dealt to their hosts
/// round-robin, so tree members interleave), 24 wide, with the rows of
/// PM 3's tree scaled up until some of its probabilities are exact
/// zeros; plus the tree groups over the combined sequence.
fn tree_input() -> (Tensor, TreeGroups) {
    let (n, d) = (TREES.len(), 24);
    let (mut host, mut label) = (Vec::new(), Vec::new());
    for slot in 0..TREES.iter().map(|t| t.len()).max().unwrap_or(0) {
        for (p, tree) in TREES.iter().enumerate() {
            if let Some(&l) = tree.get(slot) {
                host.push(p);
                label.push(l);
            }
        }
    }
    let rows = n + host.len();
    let mut rng = StdRng::seed_from_u64(0x7733);
    let mut x: Vec<f64> = (0..rows * d).map(|_| rng.gen_range(-1.5..1.5)).collect();
    for k in 0..host.len() {
        let twin = (0..k).find(|&j| host[j] == host[k] && label[j] == label[k]);
        if let Some(j) = twin {
            x.copy_within((n + j) * d..(n + j + 1) * d, (n + k) * d);
        }
    }
    for r in (0..rows).filter(|&r| if r < n { r == 3 } else { host[r - n] == 3 }) {
        x[r * d..(r + 1) * d].iter_mut().for_each(|v| *v *= 25.0);
    }
    let mut groups = TreeGroups { starts: vec![0], members: Vec::new() };
    for p in 0..n {
        groups.members.push(p);
        groups.members.extend((0..host.len()).filter(|&k| host[k] == p).map(|k| n + k));
        groups.starts.push(groups.members.len());
    }
    (Tensor::from_vec(rows, d, x), groups)
}

/// Whether some f64 probability of the tree stage of `attn` on `x` is an
/// exact zero: a member key whose score sits so far below its query's
/// maximum in one head that `exp` underflows.
fn has_exact_zero_probabilities(
    attn: &MultiHeadAttention,
    x: &Tensor,
    groups: &TreeGroups,
    heads: usize,
) -> bool {
    let mut params = Vec::new();
    attn.visit_params(&mut |name, t| params.push((name.to_string(), t.clone())));
    let project = |w: &str| {
        let param = |p: &str| {
            let name = format!("tree.{w}.{p}");
            &params.iter().find(|(n, _)| *n == name).expect("attention parameter").1
        };
        let (mut y, b) = (x.matmul(param("w")), param("b"));
        for r in 0..y.rows() {
            for c in 0..y.cols() {
                y.set(r, c, y.get(r, c) + b.get(0, c));
            }
        }
        y
    };
    let (q, k) = (project("wq"), project("wk"));
    let dh = q.cols() / heads;
    let scale = 1.0 / (dh as f64).sqrt();
    (0..groups.len()).any(|g| {
        let members = groups.group(g);
        members.iter().any(|&a| {
            (0..heads).any(|h| {
                let score = |b: usize| {
                    (h * dh..(h + 1) * dh).map(|c| q.get(a, c) * k.get(b, c)).sum::<f64>() * scale
                };
                let mx = members.iter().map(|&b| score(b)).fold(f64::NEG_INFINITY, f64::max);
                members.iter().any(|&b| (score(b) - mx).exp() == 0.0)
            })
        })
    })
}

/// Output bits of the tree-local stage (`fwd_tree`, projections
/// included) at the model's width and head count on [`tree_input`]: run
/// on all `N + M` rows, and run once per row class on `N + U` rows and
/// expanded, which must give the same bits.
fn tree_fingerprint<S: Scalar>() -> Value {
    let (x0, groups) = tree_input();
    let (n, m) = (TREES.len(), x0.rows() - TREES.len());
    let attn = MultiHeadAttention::new("tree", 24, 2, &mut StdRng::seed_from_u64(0x7ee));
    assert!(has_exact_zero_probabilities(&attn, &x0, &groups, 2), "no probability underflows");
    let attn = MultiHeadAttention::<S>::from_f64(&attn);
    let fingerprint = |ctx: &FwdCtx<S>, out| {
        let mut fp = Fnv::new();
        for &v in ctx.value(out).data() {
            fp.eat(v.to_bits());
        }
        fp.hex()
    };
    let mut ctx = FwdCtx::<S>::new();
    let x = ctx.input(&x0);
    let out = attn.fwd_tree(&mut ctx, x, &groups);
    let plain = fingerprint(&ctx, out);

    let mut ctx = FwdCtx::<S>::new();
    let x = ctx.input(&x0);
    let (pm, vm) = (ctx.rows_range(x, 0, n), ctx.rows_range(x, n, m));
    ctx.find_row_classes(vm, n, Some(&groups));
    let u = ctx.row_classes().distinct();
    assert!(u < m, "the tree set has duplicate rows");
    let reps = ctx.class_rows(vm);
    let combined = ctx.vcat(pm, reps);
    let out = attn.fwd_tree(&mut ctx, combined, &groups);
    let (pm, vm) = (ctx.rows_range(out, 0, n), ctx.rows_range(out, n, u));
    let vm = ctx.expand_rows(vm);
    let out = ctx.vcat(pm, vm);
    assert_eq!(fingerprint(&ctx, out), plain, "by class vs on every row");
    plain
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
        "trees": json!({
            "f64": tree_fingerprint::<f64>(),
            "f32": tree_fingerprint::<f32>(),
        }),
    });
    for section in ["plans", "heads", "gemms", "trees"] {
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
