// T001 fixture: one reverse-index order.
// Lines cut verbatim from the parent of 0a13680, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show 0a13680^:crates/sim/src/cluster.rs, line 142
    pub fn vms_on_sorted(&self, pm: PmId) -> Vec<VmId> {

// git show 0a13680^:crates/sim/src/cluster.rs, line 153
    pub fn sort_reverse_index(&mut self) {

// git show 0a13680^:crates/sim/src/cluster.rs, lines 242-244
            let src = &mut self.vms_on_pm[from.pm.0 as usize];
            let pos = src.iter().position(|&x| x == vm).expect("reverse index corrupt");
            src.swap_remove(pos);

// git show 0a13680^:crates/sim/src/cluster.rs, line 348
    pub fn undo_swap(&mut self, rec: &SwapRecord) -> SimResult<()> {

// git show 0a13680^:crates/sim/src/obs_cache.rs, line 240
    pub fn note_swap(&mut self, state: &ClusterState, rec: &SwapRecord) {

// git show 0a13680^:crates/sim/src/obs_cache.rs, line 245
    pub fn note_swap_undo(&mut self, state: &ClusterState, rec: &SwapRecord) {
