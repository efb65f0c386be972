// T001 fixture: one fused head layout.
// Lines cut verbatim from the parent of 65cdffe, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show 65cdffe^:crates/nn/src/kernels.rs, lines 375-382
    run_row_lanes(m, [(out.data_mut(), dh)], tiles[..lanes].iter_mut(), |rows, [o], tile| {
        attention_rows(&head, &qd[rows.start * dh..rows.end * dh], tile, o);
    });
}

/// The fused head over one lane's query rows: score tile → in-place
/// softmax → probability-weighted value sums, [`L1_TILE`] rows at a time.
fn attention_rows<S: Scalar>(head: &HeadInputs<S>, q: &[S], tile: &mut Vec<S>, out: &mut [S]) {

// git show 65cdffe^:crates/nn/src/kernels.rs, lines 408-411
            let z = match key_class {
                None => S::striped_sum(s_row),
                Some(class) => S::striped_sum_by_class(s_row, class),
            };
