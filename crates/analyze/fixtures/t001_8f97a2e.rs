// T001 fixture: one class search per forward.
// Lines cut verbatim from the parent of 8f97a2e, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show 8f97a2e^:crates/core/src/model.rs, lines 183-189
                ctx.find_row_classes(res, n, Some(tree));
                (ctx.rows_range(res, 0, n), ctx.class_rows(res, n))
            }
            _ => {
                ctx.find_row_classes(vm, 0, None);
                (pm, vm)
            }

// git show 8f97a2e^:crates/nn/src/infer.rs, lines 527-542
                for (i, &a) in members.iter().enumerate() {
                    let qa = &q.row_slice(a)[col..col + dh];
                    for (j, &b) in members.iter().enumerate() {
                        let kb = &k.row_slice(b)[col..col + dh];
                        let mut acc = S::ZERO;
                        for (&x, &y) in qa.iter().zip(kb) {
                            acc += x * y;
                        }
                        scratch[i * t + j] = acc * scale;
                    }
                }
                // Softmax each member row in place (the shared masked-path
                // row flavor — same guard, same sequential sum as the
                // dense masked kernel).
                for i in 0..t {
                    kernels::softmax_row_seq(&mut scratch[i * t..(i + 1) * t]);
