// T001 fixture: one placement rule.
// Lines cut verbatim from the parent of 754e7b8, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show 754e7b8^:crates/bench/src/experiments/extensions.rs, line 144
fn fill_and_churn(cfg: &ClusterConfig, policy: VmsPolicy, seed: u64) -> (f64, usize) {

// git show 754e7b8^:crates/sim/src/dynamics.rs, line 93
        let mut rng = StdRng::seed_from_u64(0);

// git show 754e7b8^:crates/sim/src/dynamics.rs, lines 261-273
fn alloc_unchecked(pm: &mut Pm, vm: &Vm, pl: NumaPlacement) {
    let ok = match pl {
        NumaPlacement::Single(j) => {
            pm.numas[j as usize].try_alloc(vm.cpu_per_numa(), vm.mem_per_numa())
        }
        NumaPlacement::Double => {
            pm.numas.iter_mut().all(|n| n.try_alloc(vm.cpu_per_numa(), vm.mem_per_numa()))
        }
    };
    debug_assert!(ok, "caller must check placement_fits first");
}

fn release_unchecked(pm: &mut Pm, vm: &Vm, pl: NumaPlacement) {

// git show 754e7b8^:crates/sim/src/env.rs, line 264
                let mut rng = StdRng::seed_from_u64(0);

// git show 754e7b8^:crates/sim/src/cluster.rs, line 111
                    if !pm.numas[j as usize].try_alloc(vm.cpu_per_numa(), vm.mem_per_numa()) {
