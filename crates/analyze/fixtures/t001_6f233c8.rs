// T001 fixture: a move is scored, not made (VBPP, MCTS, swap search, B&B).
// Lines cut verbatim from the parent of 6f233c8, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show 6f233c8^:crates/baselines/src/mcts.rs, line 34
    pub seed: u64,

// git show 6f233c8^:crates/baselines/src/mcts.rs, line 181
fn top_moves(

// git show 6f233c8^:crates/baselines/src/mcts.rs, line 188
    let mut probe = state.clone();

// git show 6f233c8^:crates/baselines/src/mcts.rs, lines 206-210
            let Ok(rec) = probe.migrate(vm, pm, objective.frag_cores()) else {
                continue;
            };
            let gain = current - objective.value(&probe);
            probe.undo(&rec).expect("probe undo");

// git show 6f233c8^:crates/baselines/src/mcts.rs, line 220
fn best_single_move(

// git show 6f233c8^:crates/baselines/src/swap.rs, line 183
fn best_single(

// git show 6f233c8^:crates/baselines/src/swap.rs, lines 244-248
            let Ok(rec) = probe.swap(a, b, objective.frag_cores()) else {
                continue;
            };
            let gain = base - objective.value(&probe);
            probe.undo_swap(&rec).expect("probe undo");

// git show 6f233c8^:crates/solver/src/bnb.rs, line 224
fn enumerate_moves(ctx: &mut SearchCtx<'_>) -> Vec<(Action, f64)> {

// git show 6f233c8^:crates/solver/src/bnb.rs, line 247
            state.undo(&rec).expect("undo probe");
