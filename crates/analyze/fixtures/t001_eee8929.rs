// T001 fixture: DynamicCluster places over PM shapes, not a scan of
// every PM. The first cut is verbatim from the parent of eee8929, the
// commit that deleted the scan. The parent spelled the other two scans
// through `admit`'s closure parameter (`|pms, vm| best_fit(pms, ..)`),
// so their lines below are the parent's with `pms` written out as the
// `&self.pms` it was. Not a cargo target: tests/fixtures.rs analyzes it
// under crates/sim/src/dynamics.rs.

// git show eee8929^:crates/sim/src/dynamics.rs, lines 168-169
            let (pm, pl) = choose_placement(&self.pms, &vm, VmsPolicy::Random, 16, rng)
                .unwrap_or((old_pl.pm, old_pl.numa)); // put it back

// git show eee8929^:crates/sim/src/dynamics.rs, line 91, `pms` written out
            best_fit(&self.pms, vm, 16).ok_or(SimError::NoFeasiblePlacement(vm.id))

// git show eee8929^:crates/sim/src/dynamics.rs, line 105, `pms` written out
        self.admit(cpu, mem, numa, |pms, vm| schedule_vm(&self.pms, vm, policy, 16, rng))
