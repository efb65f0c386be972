// T001 fixture: one arena discipline.
// Lines cut verbatim from the parent of dd160b6, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show dd160b6^:crates/nn/src/tensor.rs, lines 226-230
    pub fn reshape_reuse(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, S::ZERO);
    }
