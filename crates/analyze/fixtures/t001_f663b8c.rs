// T001 fixture: precision is a type, not a suffix.
// Lines cut verbatim from the parent of f663b8c, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show f663b8c^:crates/core/src/agent.rs, lines 656-657
    pub fn act_f32<R: Rng + ?Sized>(
        &self,

// git show f663b8c^:crates/core/src/agent.rs, lines 689-690
    pub fn act_core_f32<R: Rng + ?Sized>(
        &self,

// git show f663b8c^:crates/core/src/eval.rs, lines 199-200
pub fn greedy_eval_f32(
    agent: &Vmr2lAgent<Vmr2lModel>,
