// T001 fixture: a planner is a PlanPolicy.
// Lines cut verbatim from the parent of c8d1387, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show c8d1387^:crates/cli/src/main.rs, lines 356-366
    let (plan, fr): (Vec<Action>, f64) = match method.as_str() {
        "ha" => {
            let r = ha_solve(state, &cs, obj, mnl);
            (r.plan, r.objective)
        }
        "vbpp" => {
            let r = vbpp_solve(state, &cs, obj, mnl, (mnl / 5).max(2));
            (r.plan, r.objective)
        }
        "bnb" => {
            let r = branch_and_bound(

// git show c8d1387^:crates/cli/src/main.rs, lines 375-376
        "pop" => {
            let r = pop_solve(

// git show c8d1387^:crates/cli/src/main.rs, lines 393-394
        "mcts" => {
            let r = mcts_solve(

// git show c8d1387^:crates/cli/src/main.rs, lines 482-484
    let out = match method {
        "ha" => fleet_plan(state, cs, obj, mnl, &cfg, |_, sub, m| {
            ha_solve(&sub.state, &sub.constraints, obj, m).plan

// git show c8d1387^:crates/cli/src/main.rs, lines 564-566
) -> Result<(), String> {
    use vmr_baselines::swap::{swap_search_solve, SwapMove};
    let r = swap_search_solve(state, cs, obj, mnl, &Default::default());

// git show c8d1387^:crates/baselines/src/neuplan.rs, line 123
        let res = neuplan_solve(&a, &s, &cs, Objective::default(), 5, &cfg, &mut rng).unwrap();
