//! Dataset-level integration: preset shapes, workload ordering, dynamics
//! replay, and serialization round trips.

use vmr_sim::dataset::{generate_mapping, ClusterConfig, Dataset};
use vmr_sim::dynamics::DynamicCluster;
use vmr_sim::obs::Observation;

#[test]
fn presets_have_paper_pm_counts() {
    assert_eq!(ClusterConfig::medium().num_pms(), 280);
    assert_eq!(ClusterConfig::large().num_pms(), 1176);
    assert_eq!(ClusterConfig::multi_resource().num_pms(), 200);
    assert_eq!(ClusterConfig::small_train().num_pms(), 40);
}

#[test]
fn workload_levels_strictly_ordered() {
    // §5.6.1: the three workload datasets have non-overlapping utilization.
    let scale = |cfg: ClusterConfig| ClusterConfig {
        pm_groups: vec![vmr_sim::dataset::PmGroup {
            count: 12,
            cpu_per_numa: 44,
            mem_per_numa: 128,
        }],
        churn_cycles: 60,
        ..cfg
    };
    let low = generate_mapping(&scale(ClusterConfig::workload_low()), 5).unwrap();
    let mid = generate_mapping(&scale(ClusterConfig::workload_mid()), 5).unwrap();
    let high = generate_mapping(&scale(ClusterConfig::workload_high()), 5).unwrap();
    assert!(low.cpu_utilization() < mid.cpu_utilization());
    assert!(mid.cpu_utilization() < high.cpu_utilization());
}

#[test]
fn dataset_split_and_roundtrip() {
    let cfg = ClusterConfig::tiny();
    let ds = Dataset::generate(&cfg, 10, 3).unwrap();
    assert_eq!(ds.train.len() + ds.val.len() + ds.test.len(), 10);
    let back = Dataset::from_json(&ds.to_json()).unwrap();
    assert_eq!(back.mappings.len(), 10);
    for m in &back.mappings {
        m.audit().unwrap();
    }
}

#[test]
fn observation_matches_cluster_shape_for_all_presets() {
    for cfg in [ClusterConfig::tiny(), ClusterConfig::small_train()] {
        let m = generate_mapping(&cfg, 1).unwrap();
        let obs = Observation::extract(&m, 16);
        assert_eq!(obs.num_pms, m.num_pms());
        assert_eq!(obs.num_vms, m.num_vms());
        assert!(obs.vm_src_pm.iter().all(|&p| (p as usize) < m.num_pms()));
    }
}

#[test]
fn dynamic_cluster_freeze_consistency_under_churn() {
    let m = generate_mapping(&ClusterConfig::tiny(), 8).unwrap();
    let mut d = DynamicCluster::from_state(&m);
    let model = vmr_sim::trace::DiurnalModel { base_rate: 4.0, amplitude: 0.4, peak_minute: 900 };
    let mix = vmr_sim::dataset::VmMix::standard();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    d.churn(0, 20, &model, 0.01, &mix, &mut rng);
    let frozen = d.freeze().unwrap();
    frozen.audit().unwrap();
    assert!((frozen.fragment_rate(16) - d.fragment_rate(16)).abs() < 1e-12);
}

#[test]
fn mixed_objectives_monotone_in_lambda_weights() {
    // Objective value is a convex combination: endpoints bound the middle.
    let m = generate_mapping(&ClusterConfig::tiny(), 12).unwrap();
    let at = |lambda: f64| {
        vmr_sim::objective::Objective::MixedVmType { lambda, small_cores: 16, large_cores: 64 }
            .value(&m)
    };
    let (a, b, mid) = (at(0.0), at(1.0), at(0.5));
    assert!(mid >= a.min(b) - 1e-12 && mid <= a.max(b) + 1e-12);
}

/// A dataset file is outside input: a mapping that names a PM, NUMA node
/// or VM that does not exist, a zero-capacity PM, or a split naming a
/// mapping that does not exist, is refused with an `Err` (the CLI prints
/// "bad dataset"), never a panic.
#[test]
fn bad_dataset_files_are_errors_not_panics() {
    use serde_json::Value;
    use vmr_sim::types::NumaPlacement;

    let ds = Dataset::generate(&ClusterConfig::tiny(), 2, 4).unwrap();
    let pms = ds.mappings[0].num_pms() as u64;
    let wire = serde_json::to_value(&ds).unwrap();
    // `mappings[0].<field>[idx]` of the dataset document.
    fn entry<'a>(v: &'a mut Value, field: &str, idx: usize) -> &'a mut Value {
        let mapping =
            &mut v.as_object_mut().unwrap().get_mut("mappings").unwrap().as_array_mut().unwrap()[0];
        &mut mapping.as_object_mut().unwrap().get_mut(field).unwrap().as_array_mut().unwrap()[idx]
    }
    fn set(v: &mut Value, field: &str, idx: usize, key: &str, val: Value) {
        entry(v, field, idx).as_object_mut().unwrap().insert(key.to_string(), val);
    }

    let mut pm_past_end = wire.clone();
    set(&mut pm_past_end, "placements", 0, "pm", serde_json::json!(pms + 3));
    let mut numa_past_end = wire.clone();
    let numa = serde_json::to_value(NumaPlacement::Single(7)).unwrap();
    let single =
        ds.mappings[0].vms().iter().position(|v| v.numa == vmr_sim::types::NumaPolicy::Single);
    set(&mut numa_past_end, "placements", single.unwrap(), "numa", numa);
    let mut unknown_vm = wire.clone();
    *entry(&mut unknown_vm, "vms_on_pm", 0) = serde_json::json!([u32::MAX]);
    let mut zero_pm = wire.clone();
    let numas = entry(&mut zero_pm, "pms", 0).as_object_mut().unwrap().get_mut("numas").unwrap();
    numas.as_array_mut().unwrap()[1]
        .as_object_mut()
        .unwrap()
        .insert("cpu_total".into(), serde_json::json!(0));

    let mut split_past_end = wire.clone();
    let train = split_past_end.as_object_mut().unwrap().get_mut("train").unwrap();
    train.as_array_mut().unwrap().push(serde_json::json!(ds.mappings.len()));

    for (what, tampered) in [
        ("placement on a PM past the end", &pm_past_end),
        ("placement on a NUMA node past the end", &numa_past_end),
        ("reverse index naming an unknown VM", &unknown_vm),
        ("zero-capacity NUMA node", &zero_pm),
        ("a split naming a mapping past the end", &split_past_end),
    ] {
        let json = serde_json::to_string(tampered).unwrap();
        assert!(Dataset::from_json(&json).is_err(), "{what} must be refused");
    }
    Dataset::from_json(&serde_json::to_string(&wire).unwrap()).expect("untampered file loads");
}

/// Parsing is linear in the input. A 4-mapping Medium dataset (≈ 775 KB)
/// parses in ≈ 25 ms on a 2-vCPU KVM guest (fastest of three); the bound
/// is 20× that. The parser this replaced re-validated the whole rest of
/// the input as UTF-8 for every plain string byte and took ≈ 6 s here.
#[test]
fn a_medium_dataset_parses_in_linear_time() {
    let json = Dataset::generate(&ClusterConfig::medium(), 4, 1).unwrap().to_json();
    assert!(json.len() > 700_000, "{} bytes", json.len());
    let fastest = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let v: serde_json::Value = serde_json::from_str(&json).unwrap();
            let elapsed = t.elapsed();
            drop(v);
            elapsed
        })
        .min()
        .unwrap();
    assert!(
        fastest < std::time::Duration::from_millis(500),
        "parsing {} bytes took {fastest:?}",
        json.len()
    );
}

/// FNV-1a of a generated cluster's JSON: the cluster, byte for byte.
fn cluster_hash(state: &vmr_sim::cluster::ClusterState) -> serde_json::Value {
    let json = serde_json::to_string(state).unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in json.bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    serde_json::json!(format!("{hash:#018x}"))
}

/// Cluster generation is pinned byte for byte.
/// `tests/golden/generated_clusters.json` was captured from the commit
/// before `DynamicCluster` placed arrivals over PM shapes (every
/// placement was a scan over all PMs then) and is never regenerated:
/// `generate_mapping` on five presets, and `populate` (Ext. 3's fill)
/// under the other three VMS policies, must reproduce it.
#[test]
fn generated_clusters_reproduce_the_full_scan_capture() {
    use rand::SeedableRng;
    use serde_json::{Map, Value};
    use vmr_sim::dataset::populate;
    use vmr_sim::scheduler::VmsPolicy;

    let golden: Value = serde_json::from_str(include_str!("golden/generated_clusters.json"))
        .expect("golden file parses");
    let (mut generated, mut populated) = (Map::new(), Map::new());
    for (name, config, seeds) in [
        ("tiny", ClusterConfig::tiny(), &[1u64, 2, 3, 4, 5, 0xC1_0575][..]),
        ("small", ClusterConfig::small_train(), &[1, 2, 3, 0xC1_0575]),
        ("medium", ClusterConfig::medium(), &[1, 2, 0xC1_0575]),
        ("multi", ClusterConfig::multi_resource(), &[1, 2, 0xC1_0575]),
        ("large", ClusterConfig::large(), &[1, 0xC1_0575]),
    ] {
        for &seed in seeds {
            let state = generate_mapping(&config, seed).unwrap();
            generated.insert(format!("{name}/{seed}"), cluster_hash(&state));
        }
        if matches!(name, "tiny" | "small" | "medium") {
            for policy in [VmsPolicy::FirstFit, VmsPolicy::WorstFit, VmsPolicy::Random] {
                for seed in [1u64, 2] {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let state = populate(&config, policy, &mut rng).unwrap().freeze().unwrap();
                    populated
                        .insert(format!("{name}/{}/{seed}", policy.name()), cluster_hash(&state));
                }
            }
        }
    }
    let actual = serde_json::json!({
        "generate_mapping": Value::Object(generated),
        "populate": Value::Object(populated),
    });
    for section in ["generate_mapping", "populate"] {
        assert_eq!(
            actual[section],
            golden[section],
            "{section} differs from the full-scan capture; this build generated:\n{}",
            serde_json::to_string_pretty(&actual).unwrap()
        );
    }
}
