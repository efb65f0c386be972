//! Criterion benches of the policy forward pass: the autodiff `Graph`
//! engine vs the tape-free `FwdCtx` engine (identical outputs, see
//! `prop_fwdctx`), plus the kernel-level pairs behind the PR 4 satellite
//! fixes — dense-vs-zero-skip matmul on dense and sparse inputs, and the
//! transpose-free `A·Bᵀ` score kernel vs materializing the transpose.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmr_core::agent::Policy;
use vmr_core::config::{ExtractorKind, ModelConfig};
use vmr_core::features::{FeatureTensors, TreeIndex};
use vmr_core::model::{Vmr2lModel, Vmr2lModelF32};
use vmr_nn::graph::Graph;
use vmr_nn::infer::FwdCtx;
use vmr_nn::kernels::{matmul_into, matmul_nt_into, matmul_sparse_into};
use vmr_nn::tensor::Tensor;
use vmr_sim::dataset::{generate_mapping, ClusterConfig, PmGroup};
use vmr_sim::obs::Observation;

fn feats_for(pms: usize) -> FeatureTensors {
    let cfg = ClusterConfig {
        pm_groups: vec![PmGroup { count: pms, cpu_per_numa: 44, mem_per_numa: 128 }],
        ..ClusterConfig::small_train()
    };
    let state = generate_mapping(&cfg, 11).expect("mapping");
    FeatureTensors::from_observation(&Observation::extract(&state, 16))
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_forward");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    for pms in [40usize, 80] {
        let feats = feats_for(pms);
        let mut tree = TreeIndex::new();
        tree.rebuild(&feats);
        group.bench_with_input(
            BenchmarkId::new("stage1_graph", format!("{pms}pm_{}vm", feats.num_vms)),
            &feats,
            |b, f| {
                b.iter(|| {
                    let mut g = Graph::new();
                    black_box(model.stage1(&mut g, f));
                })
            },
        );
        let mut ctx = FwdCtx::new();
        group.bench_with_input(
            BenchmarkId::new("stage1_fwd", format!("{pms}pm_{}vm", feats.num_vms)),
            &feats,
            |b, f| {
                b.iter(|| {
                    ctx.reset();
                    black_box(model.stage1_fwd(&mut ctx, f, Some(&tree.groups)));
                })
            },
        );
        let mut ctx2 = FwdCtx::new();
        group.bench_with_input(
            BenchmarkId::new("stage1_plus_stage2_fwd", format!("{pms}pm")),
            &feats,
            |b, f| {
                b.iter(|| {
                    ctx2.reset();
                    let s1 = Policy::stage1_fwd(&model, &mut ctx2, f, &tree);
                    black_box(Policy::stage2_fwd(&model, &mut ctx2, &s1, f, 0));
                })
            },
        );
    }
    group.finish();
}

/// The f32/SIMD twin of `policy_forward`: the same stage-1 (and stage-1 +
/// stage-2) forward through [`Vmr2lModelF32`], cast once outside the
/// timed region — the A/B family behind the PR 6 acceptance ratio.
fn bench_engines_f32(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_forward_f32");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(0);
    let model = Vmr2lModel::new(ModelConfig::default(), ExtractorKind::SparseAttention, &mut rng);
    let m32 = Vmr2lModelF32::from_f64(&model);
    for pms in [40usize, 80] {
        let feats = feats_for(pms);
        let mut tree = TreeIndex::new();
        tree.rebuild(&feats);
        let mut ctx = FwdCtx::<f32>::new();
        group.bench_with_input(
            BenchmarkId::new("stage1_fwd", format!("{pms}pm_{}vm", feats.num_vms)),
            &feats,
            |b, f| {
                b.iter(|| {
                    ctx.reset();
                    black_box(m32.stage1_fwd(&mut ctx, f, Some(&tree.groups)));
                })
            },
        );
        let mut ctx2 = FwdCtx::<f32>::new();
        group.bench_with_input(
            BenchmarkId::new("stage1_plus_stage2_fwd", format!("{pms}pm")),
            &feats,
            |b, f| {
                b.iter(|| {
                    ctx2.reset();
                    let s1 = m32.stage1_fwd(&mut ctx2, f, Some(&tree.groups));
                    black_box(m32.stage2_fwd(&mut ctx2, &s1, 0));
                })
            },
        );
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_kernels");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    let k = 256;
    let n = 64;
    // Dense activations × dense weights — the policy's GEMM shape class.
    let dense = Tensor::xavier(k, k, &mut rng);
    let weights = Tensor::xavier(k, n, &mut rng);
    // Masked attention probabilities: ~90 % exact zeros.
    let mut sparse = Tensor::xavier(k, k, &mut rng);
    for v in sparse.data_mut() {
        if rng.gen_bool(0.9) {
            *v = 0.0;
        }
    }
    let mut out = Tensor::zeros(k, n);
    group.bench_function("dense_input_dense_kernel", |b| {
        b.iter(|| matmul_into(black_box(&dense), &weights, &mut out))
    });
    group.bench_function("dense_input_zskip_kernel", |b| {
        b.iter(|| matmul_sparse_into(black_box(&dense), &weights, &mut out))
    });
    group.bench_function("sparse_input_dense_kernel", |b| {
        b.iter(|| matmul_into(black_box(&sparse), &weights, &mut out))
    });
    group.bench_function("sparse_input_zskip_kernel", |b| {
        b.iter(|| matmul_sparse_into(black_box(&sparse), &weights, &mut out))
    });

    // Attention-score shape: Q·Kᵀ with a head-width inner dimension.
    let q = Tensor::xavier(1989, 12, &mut rng);
    let kk = Tensor::xavier(1989, 12, &mut rng);
    let mut scores = Tensor::zeros(1989, 1989);
    group.bench_function("scores_transpose_then_matmul", |b| {
        b.iter(|| black_box(q.matmul(&kk.transpose())))
    });
    group.bench_function("scores_matmul_nt", |b| {
        b.iter(|| matmul_nt_into(black_box(&q), &kk, &mut scores))
    });

    let big = Tensor::xavier(1024, 768, &mut rng);
    group.bench_function("transpose_blocked_1024x768", |b| b.iter(|| black_box(big.transpose())));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines, bench_engines_f32, bench_kernels
}
criterion_main!(benches);
