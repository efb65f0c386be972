// T001 fixture: one legality rule, one checked allocation.
// Lines cut verbatim from 05426e4, the parent of the commit that
// deleted them (rows added with their deletion name the parent). Not a
// cargo target: tests/fixtures.rs analyzes it under a path in each
// row's scope.

// git show 05426e4:crates/sim/src/machine.rs, line 299
pub(crate) fn check_fits(pm: &Pm, vm: &Vm, numa: NumaPlacement) -> SimResult<()> {

// git show 05426e4:crates/sim/src/machine.rs, lines 87-88
        self.cpu_used = self.cpu_used.saturating_sub(cpu);
        self.mem_used = self.mem_used.saturating_sub(mem);

// git show 05426e4:crates/sim/src/constraints.rs, line 160
    pub fn conflict_on_pm(&self, state: &ClusterState, vm: VmId, pm: PmId) -> Option<VmId> {

// git show 05426e4:crates/sim/src/constraints.rs, line 165
        state.vms_on(pm).iter().copied().find(|other| *other != vm && mine.contains(other))

// git show 05426e4:crates/sim/src/constraints.rs, line 241
                && state.vms_on(pm).iter().any(|&o| o != vm && conflicts.contains(&o))
