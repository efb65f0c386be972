// T001 fixture: a move is scored, not made (HA and the fleet refinement).
// Lines cut verbatim from the parent of 0a2037a, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show 0a2037a^:crates/baselines/src/ha.rs, line 115
fn pm_score_of(pm: &vmr_sim::machine::Pm, objective: Objective) -> f64 {

// git show 0a2037a^:crates/sim/src/cluster.rs, line 218
    pub fn feasible_placements(&self, vm: VmId, pm: PmId) -> SimResult<Vec<NumaPlacement>> {

// git show 0a2037a^:crates/sim/src/cluster.rs, line 273
    pub fn fragment_after_move(
