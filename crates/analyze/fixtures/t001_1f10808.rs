// T001 fixture: one cluster, checked once; the experiments score without undo.
// Lines cut verbatim from the parent of 1f10808, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show 1f10808^:crates/sim/src/env.rs, line 174
    pub fn reset(&mut self) {

// git show 1f10808^:crates/sim/src/env.rs, line 185
    pub fn reset_to(&mut self, initial: ClusterState, constraints: ConstraintSet) -> SimResult<()> {

// git show 1f10808^:crates/sim/src/env.rs, line 218
        self.initial.clone_from(&self.state);

// git show 1f10808^:crates/sim/src/env.rs, line 339
    pub fn initial_state(&self) -> &ClusterState {

// git show 1f10808^:crates/sim/src/cluster.rs, line 595
    pub fn audit_strict(&self) -> SimResult<()> {

// git show 1f10808^:crates/sim/src/obs_cache.rs, line 200
    pub fn mark_stale(&mut self) {

// git show 1f10808^:crates/bench/src/experiments/extensions.rs, lines 329-330
                let value = obj.value(&evicted);
                evicted.undo(&rec)?;
