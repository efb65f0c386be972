// T001 fixture: cross probabilities on demand.
// Lines cut verbatim from the parent of 0643101, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show 0643101^:crates/core/src/model.rs, lines 170-173
        vm: FVar,
        tree: Option<&TreeGroups>,
        want_cross_probs: bool,
    ) -> (FVar, FVar, Option<FVar>) {

// git show 0643101^:crates/core/src/model.rs, line 188
        let (cross_out, cross_probs) = self.cross.fwd(ctx, vm_s, pm_s, None, want_cross_probs);

// git show 0643101^:crates/nn/src/infer.rs, lines 469-479
    pub fn attention_head_probs(&mut self, q: FVar, k: FVar, v: FVar, scale: S) -> (FVar, FVar) {
        let (m, n) = (self.slots[q.0].rows(), self.slots[k.0].rows());
        let _busy = par::forward();
        let lease = par::global().lanes_for(m, n);
        let scores = self.alloc(m, n);
        let probs = self.alloc(m, n);
        let out = self.alloc(m, self.slots[v.0].cols());
        let FwdCtx { slots, attn, .. } = self;
        let (head, tail) = slots.split_at_mut(scores.0);
        let [s, p, o, ..] = tail else { unreachable!("three slots were just allocated") };
        kernels::attention_probs_into(

// git show 0643101^:crates/nn/src/kernels.rs, line 247
fn scores_want_transpose(m: usize, n: usize) -> bool {
